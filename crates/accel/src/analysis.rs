//! Closed-form worst-case latency analysis (paper §IV-C).
//!
//! For an interrupt request arriving at the start of a convolution layer:
//!
//! * layer-by-layer must finish the layer:
//!   `t1_layer = Ch_in·Ch_out·H / (Para_in·Para_out·Para_height) · t_instr(W)`
//! * the VI method must only finish the current CalcBlob:
//!   `t1_VI = Ch_in / Para_in · t_instr(W)`
//! * the ratio (Eq. 1): `R_l = (Para_out·Para_height) / (Ch_out·H)`.
//!
//! The module evaluates both the pure ratio and cycle-accurate worst cases
//! through the calibrated cost model, so benches can check theory against
//! the simulator.

use inca_isa::{Instr, LayerMeta, Opcode, Parallelism, Program, Tile};

use crate::engine::fold_charges;
use crate::{instr_cycles, AccelConfig, InterruptStrategy};

/// Eq. 1 of the paper: worst-case VI latency as a fraction of
/// layer-by-layer latency for a convolution layer.
#[must_use]
pub fn latency_reduction_ratio(p: Parallelism, ch_out: u32, h_out: u32) -> f64 {
    f64::from(u32::from(p.output) * u32::from(p.height)) / (f64::from(ch_out) * f64::from(h_out))
}

/// Cycle cost of a single `CALC` of this layer under `cfg` (the paper's
/// `t_instr(W)`).
#[must_use]
pub fn t_instr(cfg: &AccelConfig, meta: &LayerMeta) -> u64 {
    let p = cfg.arch.parallelism;
    let rows = u32::from(p.height).min(meta.out_shape.h) as u16;
    let calc = Instr::calc(
        Opcode::CalcF,
        meta.id,
        0,
        Tile::new(0, rows, 0, p.output.min(meta.out_shape.c as u16), 0, p.input),
    );
    instr_cycles(cfg, meta, &calc)
}

/// Worst-case wait (cycles) for the layer-by-layer method: the whole layer.
#[must_use]
pub fn t1_layer_worst(cfg: &AccelConfig, meta: &LayerMeta) -> u64 {
    let p = cfg.arch.parallelism;
    let calcs = u64::from(meta.in_shape.c.div_ceil(u32::from(p.input)))
        * u64::from(meta.out_shape.c.div_ceil(u32::from(p.output)))
        * u64::from(meta.out_shape.h.div_ceil(u32::from(p.height)));
    calcs * t_instr(cfg, meta)
}

/// Worst-case wait (cycles) for the VI method: one CalcBlob.
#[must_use]
pub fn t1_vi_worst(cfg: &AccelConfig, meta: &LayerMeta) -> u64 {
    let p = cfg.arch.parallelism;
    u64::from(meta.in_shape.c.div_ceil(u32::from(p.input))) * t_instr(cfg, meta)
}

/// The analytical execution-span model the scheduler's admission control
/// runs on: the engine's own per-instruction charge (instruction cost
/// less the DMA hidden behind banked compute under
/// [`AccelConfig::dma_overlap`]) folded over every **original**
/// (non-virtual) instruction with one running credit. Virtual
/// instructions are free unless an interrupt materialises them, so this
/// is the uncontended makespan of the program body; measured
/// `busy_cycles` of an uncontended job matches it exactly. The engine's
/// cycle table is built by the same fold, so its total is this number.
#[must_use]
pub fn predicted_span(cfg: &AccelConfig, program: &Program) -> u64 {
    fold_charges(cfg, program, |_, _| {})
}

/// The backup cost `t2` charged for taking the interrupt point starting
/// at `vir_start` under the VI method: the summed DMA cost of the point's
/// materialised `VIR_SAVE`s.
#[must_use]
pub fn vi_t2_point(cfg: &AccelConfig, program: &Program, vir_start: u32) -> u64 {
    let point = program
        .interrupt_points
        .iter()
        .find(|p| p.vir_start == vir_start)
        .expect("interrupt point");
    program.instrs[point.vir_range()]
        .iter()
        .filter(|i| i.op == Opcode::VirSave)
        .map(|i| instr_cycles(cfg, program.layer_of(i), i))
        .sum()
}

/// Per-interrupt-point backup costs for the VI method, in program order.
#[must_use]
pub fn vi_t2_points(cfg: &AccelConfig, program: &Program) -> Vec<u64> {
    program.interrupt_points.iter().map(|p| vi_t2_point(cfg, program, p.vir_start)).collect()
}

/// Worst-case backup cost `t2` the analytical model predicts for
/// `program` under `strategy` (paper §IV-B):
///
/// * non-preemptive — never backs up (`0`);
/// * layer-by-layer — drains to a layer boundary, nothing to back up
///   (`0`);
/// * CPU-like — dumps the whole on-chip state over DMA, position
///   independent;
/// * virtual-instruction — the most expensive interrupt point's
///   `VIR_SAVE`s.
///
/// Every measured [`crate::InterruptEvent::t2`] is bounded by this value;
/// for the CPU-like strategy it is exact.
#[must_use]
pub fn t2_worst(cfg: &AccelConfig, strategy: InterruptStrategy, program: &Program) -> u64 {
    match strategy {
        InterruptStrategy::NonPreemptive | InterruptStrategy::LayerByLayer => 0,
        InterruptStrategy::CpuLike => cfg.dma_cycles(u64::from(cfg.arch.onchip_bytes())),
        InterruptStrategy::VirtualInstruction => {
            vi_t2_points(cfg, program).into_iter().max().unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_isa::{LayerKind, Shape3};

    fn paper_medium_layer() -> LayerMeta {
        // §IV-C worked example: 80x60 input, Ch_in = 48, Ch_out = 32.
        LayerMeta {
            id: 0,
            name: "medium".into(),
            kind: LayerKind::Conv { kernel: 3, stride: 1, pad: 1 },
            in_shape: Shape3::new(48, 60, 80),
            out_shape: Shape3::new(32, 60, 80),
            input_addr: 0,
            input2_addr: None,
            output_addr: 0,
            weight_addr: 0,
            weight_bytes: 0,
            quant_shift: 8,
            relu: true,
        }
    }

    #[test]
    fn paper_worked_example_gives_1_7_percent() {
        // Small accelerator: Para_in=8, Para_out=8, Para_height=4.
        let p = Parallelism::new(8, 8, 4);
        let r = latency_reduction_ratio(p, 32, 60);
        assert!((r - 8.0 * 4.0 / (32.0 * 60.0)).abs() < 1e-12);
        assert!((r - 0.0167).abs() < 0.001, "R_l = {r}, paper says 1.7%");
    }

    #[test]
    fn cycle_accurate_ratio_tracks_the_formula() {
        let cfg = AccelConfig::paper_small();
        let m = paper_medium_layer();
        let ratio = t1_vi_worst(&cfg, &m) as f64 / t1_layer_worst(&cfg, &m) as f64;
        let formula = latency_reduction_ratio(cfg.arch.parallelism, 32, 60);
        // The cycle model includes pipeline overheads, so allow slack.
        assert!(
            (ratio - formula).abs() / formula < 0.2,
            "cycle ratio {ratio} vs formula {formula}"
        );
    }

    #[test]
    fn span_model_matches_uncontended_run() {
        use crate::{Engine, TimingBackend};
        use inca_compiler::Compiler;
        use inca_isa::TaskSlot;

        let net = inca_model::zoo::tiny(Shape3::new(3, 32, 32)).expect("net");
        for dma_overlap in [false, true] {
            let cfg = AccelConfig { dma_overlap, ..AccelConfig::paper_small() };
            for program in [
                Compiler::new(cfg.arch).compile(&net).expect("compile"),
                Compiler::new(cfg.arch).compile_vi(&net).expect("compile vi"),
            ] {
                let program = std::sync::Arc::new(program);
                let span = predicted_span(&cfg, &program);
                // The table the engine jumps by is the same fold (read
                // only without overlap, equal to the model either way).
                let table = crate::engine::CycleTable::new(&cfg, std::sync::Arc::clone(&program));
                assert_eq!(span, table.total(), "{} overlap={dma_overlap}", program.name);
                let slot = TaskSlot::LOWEST;
                let mut engine =
                    Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
                engine.load(slot, std::sync::Arc::clone(&program)).expect("load");
                engine.request_at(0, slot).expect("request");
                let report = engine.run().expect("run");
                let what = format!("{} overlap={dma_overlap}", program.name);
                assert_eq!(report.completed_jobs[0].busy_cycles, span, "{what}");
                // Without overlap the model is the bare instruction-cost
                // sum; with it, some DMA must actually have been hidden.
                let bare: u64 = program
                    .original_instrs()
                    .map(|(_, i)| instr_cycles(&cfg, program.layer_of(i), i))
                    .sum();
                assert_eq!(span < bare, dma_overlap, "{what}: {span} vs bare {bare}");
            }
        }
    }

    #[test]
    fn t2_model_per_strategy() {
        use inca_compiler::Compiler;

        let cfg = AccelConfig::paper_small();
        let net = inca_model::zoo::tiny(Shape3::new(3, 32, 32)).expect("net");
        let vi = Compiler::new(cfg.arch).compile_vi(&net).expect("compile vi");
        assert_eq!(t2_worst(&cfg, InterruptStrategy::NonPreemptive, &vi), 0);
        assert_eq!(t2_worst(&cfg, InterruptStrategy::LayerByLayer, &vi), 0);
        assert_eq!(
            t2_worst(&cfg, InterruptStrategy::CpuLike, &vi),
            cfg.dma_cycles(u64::from(cfg.arch.onchip_bytes()))
        );
        let points = vi_t2_points(&cfg, &vi);
        assert!(!points.is_empty(), "VI program has interrupt points");
        assert_eq!(
            t2_worst(&cfg, InterruptStrategy::VirtualInstruction, &vi),
            points.iter().copied().max().unwrap()
        );
        // Backing up a point is cheaper than dumping all on-chip state.
        assert!(
            t2_worst(&cfg, InterruptStrategy::VirtualInstruction, &vi)
                <= t2_worst(&cfg, InterruptStrategy::CpuLike, &vi)
        );
    }

    #[test]
    fn vi_worst_case_is_blob_sized() {
        let cfg = AccelConfig::paper_big();
        let m = paper_medium_layer();
        // Ch_in=48 / Para_in=16 = 3 CALCs.
        assert_eq!(t1_vi_worst(&cfg, &m), 3 * t_instr(&cfg, &m));
        assert!(t1_vi_worst(&cfg, &m) < t1_layer_worst(&cfg, &m));
    }
}
