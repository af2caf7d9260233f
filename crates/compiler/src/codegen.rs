//! Code generation: tiling each layer to the accelerator's parallelism and
//! emitting the original ISA sequence, CalcBlob by CalcBlob.
//!
//! Conventions (relied on by the VI pass and both simulators):
//!
//! * A CalcBlob is all `LOAD_*` + `CALC_I`* + `CALC_F` instructions for one
//!   output-channel group of one height tile (paper §IV-A).
//! * `SAVE` covers the CalcBlobs accumulated since the previous `SAVE` of
//!   the same layer (a *save group*); its tile is the union of the group's
//!   output channels. A layer's instructions end with a `SAVE`, so a blob's
//!   covering `SAVE` lies in its own layer: what lets `compile_vi` hand the
//!   VI pass one layer at a time.
//! * With [`LoopOrder::HeightOuter`], input rows are loaded once per height
//!   tile (first blob) and stay resident for the tile's remaining blobs.
//! * With [`LoopOrder::ChannelOuter`], weights are loaded once per
//!   output-channel group (first height tile) and stay resident.
//! * For [`LayerKind::Add`], the second operand's rows are loaded under
//!   *virtual channel indices* `C_in..2*C_in` so the two operands coexist
//!   in the data buffer.

use inca_isa::{
    ArchSpec, DdrRange, Instr, LayerKind, LayerMeta, Opcode, Program, ProgramBuilder, Tile,
};
use inca_model::Network;

use crate::{CompileError, CompileOptions, LoopOrder, Lowered};

/// The ISA backend.
#[derive(Debug, Clone)]
pub struct CodeGen<'a> {
    arch: &'a ArchSpec,
    options: &'a CompileOptions,
}

/// One layer's original instructions, with blob and save ids numbered on
/// from the layers emitted before it.
#[derive(Debug, Default)]
struct LayerOut {
    instrs: Vec<Instr>,
    next_blob: u32,
    next_save_id: u32,
}

impl LayerOut {
    fn new_blob(&mut self) -> u32 {
        self.next_blob += 1;
        self.next_blob - 1
    }
}

fn ceil_div(a: u32, b: u32) -> u32 {
    a.div_ceil(b)
}

impl<'a> CodeGen<'a> {
    /// Creates a backend for an architecture.
    #[must_use]
    pub fn new(arch: &'a ArchSpec, options: &'a CompileOptions) -> Self {
        Self { arch, options }
    }

    /// Emits the original ISA program for a lowered network.
    ///
    /// # Errors
    ///
    /// [`CompileError::BufferOverflow`] when a single tile cannot fit the
    /// on-chip buffers; [`CompileError::Isa`] if the emitted program fails
    /// validation (internal bug guard).
    pub fn emit(&self, network: &Network, lowered: &Lowered) -> Result<Program, CompileError> {
        self.emit_with(network, lowered, |b, layer| {
            layer.iter().for_each(|&i| b.push(i));
            Ok(())
        })
    }

    /// Emits the network one layer at a time into a reused buffer and hands
    /// each layer's instructions to `append`, which adds them (and whatever
    /// else it derives from them) to the program being built.
    ///
    /// # Errors
    ///
    /// See [`CodeGen::emit`]; also whatever `append` returns.
    pub(crate) fn emit_with(
        &self,
        network: &Network,
        lowered: &Lowered,
        mut append: impl FnMut(&mut ProgramBuilder, &[Instr]) -> Result<(), CompileError>,
    ) -> Result<Program, CompileError> {
        let mut b = Program::builder(network.name.clone());
        b.layers = lowered.layers.clone();
        b.memory = lowered.memory.clone();
        let mut out = LayerOut::default();
        for meta in &lowered.layers {
            out.instrs.clear();
            match meta.kind {
                LayerKind::Conv { .. } | LayerKind::FullyConnected => match self.options.loop_order
                {
                    LoopOrder::HeightOuter => self.emit_conv_height_outer(&mut out, meta)?,
                    LoopOrder::ChannelOuter => self.emit_conv_channel_outer(&mut out, meta)?,
                },
                LayerKind::DwConv { .. } => self.emit_per_channel(&mut out, meta, true)?,
                LayerKind::Pool { .. } => self.emit_per_channel(&mut out, meta, false)?,
                LayerKind::GlobalPool { .. } => self.emit_global_pool(&mut out, meta)?,
                LayerKind::Add => self.emit_add(&mut out, meta)?,
            }
            append(&mut b, &out.instrs)?;
        }
        b.build().map_err(Into::into)
    }

    /// Blobs per save group for a tile of `rows` output rows.
    fn save_group_len(&self, meta: &LayerMeta, rows: u32) -> Result<u32, CompileError> {
        let po = u32::from(self.arch.parallelism.output);
        let blob_bytes = u64::from(po) * u64::from(rows) * u64::from(meta.out_shape.w);
        let cap = u64::from(self.arch.output_buffer_bytes);
        if blob_bytes > cap {
            return Err(CompileError::BufferOverflow {
                buffer: "output",
                needed: blob_bytes,
                capacity: cap,
                layer: meta.name.clone(),
            });
        }
        let by_capacity = u32::try_from(cap / blob_bytes).unwrap_or(u32::MAX);
        Ok(by_capacity.min(u32::from(self.options.max_blobs_per_save)).max(1))
    }

    fn check_data_fits(&self, meta: &LayerMeta, bytes: u64) -> Result<(), CompileError> {
        let cap = u64::from(self.arch.data_buffer_bytes);
        if bytes > cap {
            return Err(CompileError::BufferOverflow {
                buffer: "data",
                needed: bytes,
                capacity: cap,
                layer: meta.name.clone(),
            });
        }
        Ok(())
    }

    fn load_d(meta: &LayerMeta, blob: u32, ic0: u32, ics: u32, r0: u32, r1: u32) -> Instr {
        let w_in = u64::from(meta.in_shape.w);
        let addr =
            meta.input_addr + (u64::from(ic0) * u64::from(meta.in_shape.h) + u64::from(r0)) * w_in;
        let bytes =
            u32::try_from(u64::from(ics) * u64::from(r1 - r0) * w_in).expect("tile bytes fit u32");
        Instr::transfer(
            Opcode::LoadD,
            meta.id,
            blob,
            Tile::rows_chans(r0 as u16, (r1 - r0) as u16, ic0 as u16, ics as u16),
            DdrRange::new(addr, bytes),
        )
    }

    /// `LOAD_D` of the *second* Add operand: buffer-virtual channels
    /// `C_in + c0 ..`, DDR from `input2_addr`.
    fn load_d2(meta: &LayerMeta, blob: u32, c0: u32, cs: u32, r0: u32, r1: u32) -> Instr {
        let w_in = u64::from(meta.in_shape.w);
        let addr = meta.input2_addr.expect("Add layer has input2")
            + (u64::from(c0) * u64::from(meta.in_shape.h) + u64::from(r0)) * w_in;
        let bytes =
            u32::try_from(u64::from(cs) * u64::from(r1 - r0) * w_in).expect("tile bytes fit u32");
        let virtual_c0 = meta.in_shape.c + c0;
        Instr::transfer(
            Opcode::LoadD,
            meta.id,
            blob,
            Tile::rows_chans(r0 as u16, (r1 - r0) as u16, virtual_c0 as u16, cs as u16),
            DdrRange::new(addr, bytes),
        )
    }

    fn load_w(meta: &LayerMeta, blob: u32, oc0: u32, ocs: u32, ic0: u32, ics: u32) -> Instr {
        let k2 = u64::from(meta.kind.kernel()) * u64::from(meta.kind.kernel());
        let (addr, bytes) = if matches!(meta.kind, LayerKind::DwConv { .. }) {
            (meta.weight_addr + u64::from(oc0) * k2, u64::from(ocs) * k2)
        } else {
            (
                meta.weight_addr
                    + (u64::from(oc0) * u64::from(meta.in_shape.c) + u64::from(ic0)) * k2,
                u64::from(ocs) * u64::from(ics) * k2,
            )
        };
        Instr::transfer(
            Opcode::LoadW,
            meta.id,
            blob,
            Tile::new(0, 0, oc0 as u16, ocs as u16, ic0 as u16, ics as u16),
            DdrRange::new(addr, u32::try_from(bytes).expect("weight tile bytes fit u32")),
        )
    }

    fn save(
        out: &mut LayerOut,
        meta: &LayerMeta,
        blob: u32,
        out_r0: u32,
        rows: u32,
        c0: u32,
        chans: u32,
    ) {
        let w_out = u64::from(meta.out_shape.w);
        let addr = meta.output_addr
            + (u64::from(c0) * u64::from(meta.out_shape.h) + u64::from(out_r0)) * w_out;
        let bytes =
            u32::try_from(u64::from(chans) * u64::from(rows) * w_out).expect("save bytes fit u32");
        let sid = out.next_save_id;
        out.next_save_id += 1;
        out.instrs.push(
            Instr::transfer(
                Opcode::Save,
                meta.id,
                blob,
                Tile::rows_chans(out_r0 as u16, rows as u16, c0 as u16, chans as u16),
                DdrRange::new(addr, bytes),
            )
            .with_save_id(sid),
        );
    }

    fn emit_conv_height_outer(
        &self,
        out: &mut LayerOut,
        meta: &LayerMeta,
    ) -> Result<(), CompileError> {
        let p = self.arch.parallelism;
        let (po, pi, ph) = (u32::from(p.output), u32::from(p.input), u32::from(p.height));
        let (c_out, h_out) = (meta.out_shape.c, meta.out_shape.h);
        let c_in = meta.in_shape.c;
        let w_in = u64::from(meta.in_shape.w);
        let ocg_n = ceil_div(c_out, po);
        let icg_n = ceil_div(c_in, pi);

        for ht in 0..ceil_div(h_out, ph) {
            let out_r0 = ht * ph;
            let rows = ph.min(h_out - out_r0);
            let (in_r0, in_r1) = meta.input_rows_for(out_r0, rows);
            let in_rows = u64::from(in_r1 - in_r0);
            let resident =
                u64::from(c_in) * in_rows * w_in <= u64::from(self.arch.data_buffer_bytes);
            if !resident {
                // Streaming mode still needs one input-channel group at a time.
                self.check_data_fits(meta, u64::from(pi) * in_rows * w_in)?;
            }
            let group_len = self.save_group_len(meta, rows)?;
            let mut group_c0 = 0u32;
            let mut group_count = 0u32;
            for ocg in 0..ocg_n {
                let oc0 = ocg * po;
                let ocs = po.min(c_out - oc0);
                let this_blob = out.new_blob();
                for icg in 0..icg_n {
                    let ic0 = icg * pi;
                    let ics = pi.min(c_in - ic0);
                    if !resident || ocg == 0 {
                        out.instrs.push(Self::load_d(meta, this_blob, ic0, ics, in_r0, in_r1));
                    }
                    if meta.kind.has_weights() {
                        out.instrs.push(Self::load_w(meta, this_blob, oc0, ocs, ic0, ics));
                    }
                    let op = if icg + 1 == icg_n { Opcode::CalcF } else { Opcode::CalcI };
                    out.instrs.push(Instr::calc(
                        op,
                        meta.id,
                        this_blob,
                        Tile::new(
                            out_r0 as u16,
                            rows as u16,
                            oc0 as u16,
                            ocs as u16,
                            ic0 as u16,
                            ics as u16,
                        ),
                    ));
                }
                group_count += 1;
                if group_count == group_len || ocg + 1 == ocg_n {
                    Self::save(out, meta, this_blob, out_r0, rows, group_c0, oc0 + ocs - group_c0);
                    group_c0 = oc0 + ocs;
                    group_count = 0;
                }
            }
        }
        Ok(())
    }

    fn emit_conv_channel_outer(
        &self,
        out: &mut LayerOut,
        meta: &LayerMeta,
    ) -> Result<(), CompileError> {
        let p = self.arch.parallelism;
        let (po, pi, ph) = (u32::from(p.output), u32::from(p.input), u32::from(p.height));
        let (c_out, h_out) = (meta.out_shape.c, meta.out_shape.h);
        let c_in = meta.in_shape.c;
        let k2 = u64::from(meta.kind.kernel()) * u64::from(meta.kind.kernel());
        let ocg_n = ceil_div(c_out, po);
        let icg_n = ceil_div(c_in, pi);
        let ht_n = ceil_div(h_out, ph);

        for ocg in 0..ocg_n {
            let oc0 = ocg * po;
            let ocs = po.min(c_out - oc0);
            // Whole output-channel group's weights resident across tiles?
            let group_weight_bytes = u64::from(ocs) * u64::from(c_in) * k2;
            let w_resident = meta.kind.has_weights()
                && group_weight_bytes <= u64::from(self.arch.weight_buffer_bytes);
            for ht in 0..ht_n {
                let out_r0 = ht * ph;
                let rows = ph.min(h_out - out_r0);
                let (in_r0, in_r1) = meta.input_rows_for(out_r0, rows);
                self.check_data_fits(
                    meta,
                    u64::from(pi) * u64::from(in_r1 - in_r0) * u64::from(meta.in_shape.w),
                )?;
                let this_blob = out.new_blob();
                for icg in 0..icg_n {
                    let ic0 = icg * pi;
                    let ics = pi.min(c_in - ic0);
                    out.instrs.push(Self::load_d(meta, this_blob, ic0, ics, in_r0, in_r1));
                    if meta.kind.has_weights() && (!w_resident || ht == 0) {
                        out.instrs.push(Self::load_w(meta, this_blob, oc0, ocs, ic0, ics));
                    }
                    let op = if icg + 1 == icg_n { Opcode::CalcF } else { Opcode::CalcI };
                    out.instrs.push(Instr::calc(
                        op,
                        meta.id,
                        this_blob,
                        Tile::new(
                            out_r0 as u16,
                            rows as u16,
                            oc0 as u16,
                            ocs as u16,
                            ic0 as u16,
                            ics as u16,
                        ),
                    ));
                }
                Self::save(out, meta, this_blob, out_r0, rows, oc0, ocs);
            }
        }
        Ok(())
    }

    /// Depthwise conv (with weights) and spatial pooling (without): one
    /// `CALC_F` per channel-group blob, no input-channel reduction.
    fn emit_per_channel(
        &self,
        out: &mut LayerOut,
        meta: &LayerMeta,
        weights: bool,
    ) -> Result<(), CompileError> {
        let p = self.arch.parallelism;
        let (po, ph) = (u32::from(p.output), u32::from(p.height));
        let (c_out, h_out) = (meta.out_shape.c, meta.out_shape.h);
        let cg_n = ceil_div(c_out, po);
        for ht in 0..ceil_div(h_out, ph) {
            let out_r0 = ht * ph;
            let rows = ph.min(h_out - out_r0);
            let (in_r0, in_r1) = meta.input_rows_for(out_r0, rows);
            self.check_data_fits(
                meta,
                u64::from(po) * u64::from(in_r1 - in_r0) * u64::from(meta.in_shape.w),
            )?;
            let group_len = self.save_group_len(meta, rows)?;
            let mut group_c0 = 0u32;
            let mut group_count = 0u32;
            for cg in 0..cg_n {
                let c0 = cg * po;
                let cs = po.min(c_out - c0);
                let this_blob = out.new_blob();
                out.instrs.push(Self::load_d(meta, this_blob, c0, cs, in_r0, in_r1));
                if weights {
                    out.instrs.push(Self::load_w(meta, this_blob, c0, cs, c0, cs));
                }
                out.instrs.push(Instr::calc(
                    Opcode::CalcF,
                    meta.id,
                    this_blob,
                    Tile::new(
                        out_r0 as u16,
                        rows as u16,
                        c0 as u16,
                        cs as u16,
                        c0 as u16,
                        cs as u16,
                    ),
                ));
                group_count += 1;
                if group_count == group_len || cg + 1 == cg_n {
                    Self::save(out, meta, this_blob, out_r0, rows, group_c0, c0 + cs - group_c0);
                    group_c0 = c0 + cs;
                    group_count = 0;
                }
            }
        }
        Ok(())
    }

    fn emit_global_pool(&self, out: &mut LayerOut, meta: &LayerMeta) -> Result<(), CompileError> {
        let p = self.arch.parallelism;
        let po = u32::from(p.output);
        let c = meta.out_shape.c;
        let cg_n = ceil_div(c, po);
        let (h_in, w_in) = (meta.in_shape.h, meta.in_shape.w);
        self.check_data_fits(meta, u64::from(po) * u64::from(h_in) * u64::from(w_in))?;
        let group_len = self.save_group_len(meta, 1)?;
        let mut group_c0 = 0u32;
        let mut group_count = 0u32;
        for cg in 0..cg_n {
            let c0 = cg * po;
            let cs = po.min(c - c0);
            let this_blob = out.new_blob();
            out.instrs.push(Self::load_d(meta, this_blob, c0, cs, 0, h_in));
            out.instrs.push(Instr::calc(
                Opcode::CalcF,
                meta.id,
                this_blob,
                Tile::new(0, 1, c0 as u16, cs as u16, c0 as u16, cs as u16),
            ));
            group_count += 1;
            if group_count == group_len || cg + 1 == cg_n {
                Self::save(out, meta, this_blob, 0, 1, group_c0, c0 + cs - group_c0);
                group_c0 = c0 + cs;
                group_count = 0;
            }
        }
        Ok(())
    }

    fn emit_add(&self, out: &mut LayerOut, meta: &LayerMeta) -> Result<(), CompileError> {
        let p = self.arch.parallelism;
        let (po, ph) = (u32::from(p.output), u32::from(p.height));
        let (c, h) = (meta.out_shape.c, meta.out_shape.h);
        let cg_n = ceil_div(c, po);
        if 2 * c > u32::from(u16::MAX) {
            return Err(CompileError::Unsupported(format!(
                "Add layer `{}` with {c} channels exceeds the virtual-channel encoding",
                meta.name
            )));
        }
        for ht in 0..ceil_div(h, ph) {
            let r0 = ht * ph;
            let rows = ph.min(h - r0);
            self.check_data_fits(
                meta,
                2 * u64::from(po) * u64::from(rows) * u64::from(meta.in_shape.w),
            )?;
            let group_len = self.save_group_len(meta, rows)?;
            let mut group_c0 = 0u32;
            let mut group_count = 0u32;
            for cg in 0..cg_n {
                let c0 = cg * po;
                let cs = po.min(c - c0);
                let this_blob = out.new_blob();
                out.instrs.push(Self::load_d(meta, this_blob, c0, cs, r0, r0 + rows));
                out.instrs.push(Self::load_d2(meta, this_blob, c0, cs, r0, r0 + rows));
                out.instrs.push(Instr::calc(
                    Opcode::CalcF,
                    meta.id,
                    this_blob,
                    Tile::new(r0 as u16, rows as u16, c0 as u16, cs as u16, c0 as u16, cs as u16),
                ));
                group_count += 1;
                if group_count == group_len || cg + 1 == cg_n {
                    Self::save(out, meta, this_blob, r0, rows, group_c0, c0 + cs - group_c0);
                    group_c0 = c0 + cs;
                    group_count = 0;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower;
    use inca_model::{zoo, Shape3};

    fn compile(net: &Network) -> Program {
        let arch = ArchSpec::angel_eye_big();
        let options = CompileOptions::default();
        let lowered = lower(net, &arch, &options).unwrap();
        CodeGen::new(&arch, &options).emit(net, &lowered).unwrap()
    }

    #[test]
    fn tiny_program_structure() {
        let net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
        let p = compile(&net);
        p.validate().unwrap();
        let s = p.stats();
        assert_eq!(s.virtual_instrs, 0);
        assert!(s.blobs > 0);
        // Every blob ends with exactly one CALC_F.
        for br in &p.blobs {
            let calc_f = p.instrs[br.start as usize..br.end as usize]
                .iter()
                .filter(|i| i.op == Opcode::CalcF)
                .count();
            assert_eq!(calc_f, 1, "blob {} has {calc_f} CALC_F", br.blob);
        }
    }

    #[test]
    fn calc_i_count_matches_channel_groups() {
        // 48 input channels, Para_in 16 -> 2 CALC_I + 1 CALC_F per blob.
        let mut b = inca_model::NetworkBuilder::new("t", Shape3::new(48, 8, 8));
        let x = b.input_id();
        let c = b.conv("c", x, 16, 3, 1, 1, false).unwrap();
        let net = b.finish(vec![c]).unwrap();
        let p = compile(&net);
        let ci = p.instrs.iter().filter(|i| i.op == Opcode::CalcI).count();
        let cf = p.instrs.iter().filter(|i| i.op == Opcode::CalcF).count();
        assert_eq!(cf, 1); // 16 out ch = 1 ocg, 8 rows = 1 tile
        assert_eq!(ci, 2);
    }

    #[test]
    fn save_covers_all_output_bytes_exactly_once() {
        for net in [
            zoo::tiny(Shape3::new(3, 16, 16)).unwrap(),
            zoo::mobilenet_v1(Shape3::new(3, 64, 64)).unwrap(),
            zoo::resnet18(Shape3::new(3, 64, 64)).unwrap(),
        ] {
            let p = compile(&net);
            for meta in &p.layers {
                let saved: u64 = p
                    .instrs
                    .iter()
                    .filter(|i| i.op == Opcode::Save && i.layer == meta.id)
                    .map(|i| u64::from(i.ddr.bytes))
                    .sum();
                assert_eq!(
                    saved,
                    meta.out_shape.bytes(),
                    "layer `{}` save bytes mismatch",
                    meta.name
                );
            }
        }
    }

    #[test]
    fn loads_fit_buffers() {
        let net = zoo::resnet18(Shape3::new(3, 224, 224)).unwrap();
        let arch = ArchSpec::angel_eye_big();
        let p = compile(&net);
        for i in &p.instrs {
            match i.op {
                Opcode::LoadD => assert!(i.ddr.bytes <= arch.data_buffer_bytes),
                Opcode::LoadW => assert!(i.ddr.bytes <= arch.weight_buffer_bytes),
                _ => {}
            }
        }
    }

    #[test]
    fn channel_outer_order_compiles_and_matches_output_coverage() {
        let net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
        let arch = ArchSpec::angel_eye_big();
        let options = CompileOptions::default().with_loop_order(LoopOrder::ChannelOuter);
        let lowered = lower(&net, &arch, &options).unwrap();
        let p = CodeGen::new(&arch, &options).emit(&net, &lowered).unwrap();
        p.validate().unwrap();
        for meta in &p.layers {
            let saved: u64 = p
                .instrs
                .iter()
                .filter(|i| i.op == Opcode::Save && i.layer == meta.id)
                .map(|i| u64::from(i.ddr.bytes))
                .sum();
            assert_eq!(saved, meta.out_shape.bytes());
        }
    }

    #[test]
    fn add_loads_both_operands() {
        let net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
        let p = compile(&net);
        let add = p.layers.iter().find(|m| matches!(m.kind, LayerKind::Add)).unwrap();
        let loads: Vec<_> =
            p.instrs.iter().filter(|i| i.op == Opcode::LoadD && i.layer == add.id).collect();
        assert!(loads.len() >= 2);
        // Second operand uses virtual channel indices >= C.
        assert!(loads.iter().any(|l| u32::from(l.tile.c0) >= add.in_shape.c));
        assert!(loads.iter().any(|l| u32::from(l.tile.c0) < add.in_shape.c));
    }

    #[test]
    fn resnet101_compiles_at_camera_resolution() {
        let net = zoo::resnet101(Shape3::new(3, 480, 640)).unwrap();
        let p = compile(&net);
        let s = p.stats();
        assert!(s.instrs > 10_000, "expected a large program, got {}", s.instrs);
        assert_eq!(s.layers, net.layer_count());
    }
}
