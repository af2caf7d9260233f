//! Per-instruction cycle cost model.
//!
//! Calibration (against the paper draft's backup-vs-conv table, big
//! accelerator, 300 MHz — see EXPERIMENTS.md E5):
//!
//! * `CALC` over a tile of `rows` output lines × `W_out` pixels costs
//!   `ceil(W_out × rows × k² / 9) + pipeline` cycles — each PE is a 3×3
//!   convolver (9 MACs/cycle); 7×7 kernels take ⌈49/9⌉ passes fused as a
//!   49/9 pixel-rate factor, 1×1 kernels stream at 9 pixels/cycle.
//! * data movement costs `setup + ceil(bytes / bytes_per_cycle)`.
//!
//! Worked check (paper row "30×40, 512→512, 3×3" → conv 39.4 µs): one
//! CalcBlob is 32 `CALC`s of `(40×8×1 + 16) = 336` cycles = 10 752 cycles
//! ≈ 35.8 µs.

use inca_isa::{Instr, LayerKind, LayerMeta, Opcode};

use crate::AccelConfig;

/// Cycle cost of a CALC over `rows × w_out` output pixels with square
/// kernel `k`.
fn calc_cycles(cfg: &AccelConfig, rows: u64, w_out: u64, k: u64) -> u64 {
    let native = u64::from(cfg.convolver_kernel) * u64::from(cfg.convolver_kernel);
    let work = (w_out * rows * k * k).div_ceil(native);
    work.max(1) + u64::from(cfg.calc_pipeline_cycles)
}

/// Cycle cost of one instruction of `program` under `cfg`.
///
/// Virtual instructions cost nothing when skipped by the IAU; this
/// function returns their cost *when materialised* (taken interrupt).
#[must_use]
pub fn instr_cycles(cfg: &AccelConfig, meta: &LayerMeta, instr: &Instr) -> u64 {
    match instr.op {
        Opcode::LoadW
        | Opcode::LoadD
        | Opcode::Save
        | Opcode::VirSave
        | Opcode::VirLoadD
        | Opcode::VirLoadW => cfg.dma_cycles(u64::from(instr.ddr.bytes)),
        Opcode::CalcI | Opcode::CalcF => {
            let rows = u64::from(instr.tile.rows);
            let w_out = u64::from(meta.out_shape.w);
            match meta.kind {
                LayerKind::Conv { kernel, .. } | LayerKind::DwConv { kernel, .. } => {
                    calc_cycles(cfg, rows, w_out, u64::from(kernel))
                }
                LayerKind::Pool { .. } | LayerKind::Add => {
                    // Streaming units: one output pixel per cycle.
                    rows * w_out + u64::from(cfg.calc_pipeline_cycles)
                }
                LayerKind::GlobalPool { .. } => {
                    // Scans the whole input plane of its channel group.
                    u64::from(meta.in_shape.h) * u64::from(meta.in_shape.w)
                        + u64::from(cfg.calc_pipeline_cycles)
                }
                LayerKind::FullyConnected => {
                    // One MAC wave per (ic-group, oc-group) pair.
                    1 + u64::from(cfg.calc_pipeline_cycles)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_isa::{DdrRange, Shape3, Tile};

    fn conv_meta(k: u8, w_out: u32, c_in: u32) -> LayerMeta {
        LayerMeta {
            id: 0,
            name: "m".into(),
            kind: LayerKind::Conv { kernel: k, stride: 1, pad: k / 2 },
            in_shape: Shape3::new(c_in, 64, w_out),
            out_shape: Shape3::new(64, 64, w_out),
            input_addr: 0,
            input2_addr: None,
            output_addr: 0,
            weight_addr: 0,
            weight_bytes: 0,
            quant_shift: 8,
            relu: false,
        }
    }

    fn calc(rows: u16) -> Instr {
        Instr::calc(Opcode::CalcF, 0, 0, Tile::new(0, rows, 0, 16, 0, 16))
    }

    #[test]
    fn three_by_three_is_one_pixel_per_cycle() {
        let cfg = AccelConfig::paper_big();
        let m = conv_meta(3, 40, 512);
        assert_eq!(instr_cycles(&cfg, &m, &calc(8)), 40 * 8 + 16);
    }

    #[test]
    fn one_by_one_streams_nine_pixels_per_cycle() {
        let cfg = AccelConfig::paper_big();
        let m = conv_meta(1, 40, 1024);
        assert_eq!(instr_cycles(&cfg, &m, &calc(8)), (40u64 * 8).div_ceil(9) + 16);
    }

    #[test]
    fn seven_by_seven_takes_forty_nine_ninths() {
        let cfg = AccelConfig::paper_big();
        let m = conv_meta(7, 320, 3);
        assert_eq!(instr_cycles(&cfg, &m, &calc(8)), (320u64 * 8 * 49).div_ceil(9) + 16);
    }

    #[test]
    fn paper_row4_calc_blob_lands_near_39us() {
        // 30x40, 512 -> 512, 3x3: 32 CALCs per blob.
        let cfg = AccelConfig::paper_big();
        let m = conv_meta(3, 40, 512);
        let blob_cycles = 32 * instr_cycles(&cfg, &m, &calc(8));
        let us = cfg.cycles_to_us(blob_cycles);
        assert!((30.0..48.0).contains(&us), "blob = {us} µs, paper says 39.4");
    }

    fn meta_of(kind: LayerKind, in_shape: Shape3, out_shape: Shape3) -> LayerMeta {
        LayerMeta {
            id: 0,
            name: "m".into(),
            kind,
            in_shape,
            out_shape,
            input_addr: 0,
            input2_addr: None,
            output_addr: 0,
            weight_addr: 0,
            weight_bytes: 0,
            quant_shift: 0,
            relu: false,
        }
    }

    #[test]
    fn pool_and_add_stream_one_pixel_per_cycle() {
        let cfg = AccelConfig::paper_big();
        let pool = meta_of(
            LayerKind::Pool { kind: inca_isa::PoolKind::Max, kernel: 2, stride: 2, pad: 0 },
            Shape3::new(16, 64, 64),
            Shape3::new(16, 32, 32),
        );
        assert_eq!(instr_cycles(&cfg, &pool, &calc(8)), 32 * 8 + 16);
        let add = meta_of(LayerKind::Add, Shape3::new(16, 32, 32), Shape3::new(16, 32, 32));
        assert_eq!(instr_cycles(&cfg, &add, &calc(8)), 32 * 8 + 16);
    }

    #[test]
    fn global_pool_scans_the_whole_plane() {
        let cfg = AccelConfig::paper_big();
        let gem = meta_of(
            LayerKind::GlobalPool { p: 3 },
            Shape3::new(2048, 15, 20),
            Shape3::new(2048, 1, 1),
        );
        assert_eq!(instr_cycles(&cfg, &gem, &calc(1)), 15 * 20 + 16);
    }

    #[test]
    fn fc_is_one_wave_per_group_pair() {
        let cfg = AccelConfig::paper_big();
        let fc =
            meta_of(LayerKind::FullyConnected, Shape3::new(2048, 1, 1), Shape3::new(2048, 1, 1));
        assert_eq!(instr_cycles(&cfg, &fc, &calc(1)), 1 + 16);
    }

    #[test]
    fn dwconv_matches_conv_rate() {
        let cfg = AccelConfig::paper_big();
        let dw = meta_of(
            LayerKind::DwConv { kernel: 3, stride: 1, pad: 1 },
            Shape3::new(64, 32, 40),
            Shape3::new(64, 32, 40),
        );
        assert_eq!(instr_cycles(&cfg, &dw, &calc(8)), 40 * 8 + 16);
    }

    #[test]
    fn transfer_cost_uses_dma_model() {
        let cfg = AccelConfig::paper_big();
        let m = conv_meta(3, 40, 512);
        let save = Instr::transfer(
            Opcode::Save,
            0,
            0,
            Tile::rows_chans(0, 8, 0, 16),
            DdrRange::new(0, 5120),
        );
        assert_eq!(instr_cycles(&cfg, &m, &save), cfg.dma_cycles(5120));
        // Paper row 4 backup: 16x8x40 B ≈ 1.4 µs.
        let us = cfg.cycles_to_us(instr_cycles(&cfg, &m, &save));
        assert!((1.0..2.2).contains(&us), "backup = {us} µs, paper says 1.42");
    }
}
