//! Compiled program containers: instruction stream, layer metadata,
//! CalcBlob segmentation, interrupt points and the task memory map.

use std::any::Any;
use std::sync::{Arc, OnceLock};

use crate::plan::{compile_program, CompiledProgram};
use crate::{Instr, IsaError, LayerMeta};

/// The task-relative DDR memory map of a compiled program.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct MemoryMap {
    /// Start of the weight region (usually 0).
    pub weights_base: u64,
    /// Bytes of weights.
    pub weights_bytes: u64,
    /// Start of the activation region.
    pub activations_base: u64,
    /// Bytes of activations (all layer inputs/outputs).
    pub activations_bytes: u64,
    /// Start of the network-input feature map (where a host writes a
    /// frame).
    pub input_base: u64,
    /// Bytes of the network input.
    pub input_bytes: u64,
    /// Start of the designated output feature map (where a host reads the
    /// result).
    pub output_base: u64,
    /// Bytes of the designated output.
    pub output_bytes: u64,
}

impl MemoryMap {
    /// Total task-relative address-space footprint in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        (self.weights_base + self.weights_bytes).max(self.activations_base + self.activations_bytes)
    }
}

/// A legal preemption point in the instruction stream.
///
/// The VI compiler places one after every `CALC_F` and after every `SAVE`
/// (paper §IV-C). The virtual instructions belonging to the point occupy
/// `vir_pcs` in the stream; `resume_pc` is where execution continues after
/// the point (first pc past the virtual group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterruptPoint {
    /// First pc of the virtual-instruction group (== `resume_pc` when the
    /// group is empty).
    pub vir_start: u32,
    /// One past the last pc of the virtual-instruction group.
    pub vir_end: u32,
    /// Layer the point lies in.
    pub layer: u16,
}

impl InterruptPoint {
    /// pc at which a resumed task continues.
    #[must_use]
    pub fn resume_pc(&self) -> u32 {
        self.vir_end
    }

    /// pcs of the virtual instructions of this point.
    #[must_use]
    pub fn vir_range(&self) -> std::ops::Range<usize> {
        self.vir_start as usize..self.vir_end as usize
    }
}

/// The pc range `[start, end)` occupied by one CalcBlob, including its
/// loads and trailing virtual group if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlobRange {
    /// Blob id.
    pub blob: u32,
    /// First pc of the blob.
    pub start: u32,
    /// One past the last pc of the blob.
    pub end: u32,
}

/// Aggregate statistics of a compiled program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Total instructions (original + virtual).
    pub instrs: usize,
    /// Virtual instructions only.
    pub virtual_instrs: usize,
    /// Number of CalcBlobs.
    pub blobs: usize,
    /// Number of interrupt points.
    pub interrupt_points: usize,
    /// Layers.
    pub layers: usize,
    /// Total MAC operations.
    pub macs: u64,
    /// Total DDR traffic of the original (non-virtual) instructions, bytes.
    pub ddr_bytes: u64,
}

/// Lazily-filled derived tables of a [`Program`].
///
/// Programs are immutable once built (the engine shares them behind
/// `Arc`), so the tables are computed at most once per program and
/// survive clones (a clone shares the `Arc` entries). Never compared or
/// serialised. The entries:
/// * `layer_ranges` — per-layer pc ranges ([`Program::layer_pc_range`]);
/// * `plan` — the Tier-1 layer plans ([`Program::plan`]);
/// * `prices` — the accelerator's per-pc price table ([`Program::prices`]).
#[derive(Debug, Clone, Default)]
struct ProgramCache {
    /// Per-layer `(start, end)` pc ranges, indexed by layer id.
    layer_ranges: OnceLock<Vec<(u32, u32)>>,
    plan: OnceLock<Arc<CompiledProgram>>,
    /// Type-erased: this crate cannot name the accelerator's configuration
    /// or its table type.
    prices: OnceLock<Arc<dyn Any + Send + Sync>>,
}

/// A compiled VI-ISA program for one CNN task.
#[derive(Debug, Clone)]
pub struct Program {
    /// Human-readable name (e.g. `resnet101@480x640`).
    pub name: String,
    /// The instruction stream, virtual instructions inline.
    pub instrs: Vec<Instr>,
    /// Per-layer execution metadata.
    pub layers: Vec<LayerMeta>,
    /// Legal preemption points, ordered by `vir_start`.
    pub interrupt_points: Vec<InterruptPoint>,
    /// CalcBlob pc ranges, ordered.
    pub blobs: Vec<BlobRange>,
    /// Task memory map.
    pub memory: MemoryMap,
    /// Derived lookup tables (not part of the program's identity).
    cache: ProgramCache,
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.instrs == other.instrs
            && self.layers == other.layers
            && self.interrupt_points == other.interrupt_points
            && self.blobs == other.blobs
            && self.memory == other.memory
    }
}

impl Program {
    /// Creates a builder.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder::new(name)
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The layer metadata an instruction refers to.
    ///
    /// # Panics
    ///
    /// Panics if the instruction's layer id is out of range (programs built
    /// through [`ProgramBuilder::build`] are validated against this).
    #[must_use]
    pub fn layer_of(&self, instr: &Instr) -> &LayerMeta {
        &self.layers[usize::from(instr.layer)]
    }

    /// The pc range `[start, end)` of a layer's instructions.
    ///
    /// Ranges for every layer are computed once (eagerly by
    /// [`ProgramBuilder::build`], lazily otherwise) and answered from a
    /// table thereafter.
    #[must_use]
    pub fn layer_pc_range(&self, layer: u16) -> std::ops::Range<usize> {
        let table = self.cache.layer_ranges.get_or_init(|| self.compute_layer_ranges());
        match table.get(usize::from(layer)) {
            Some(&(s, e)) => s as usize..e as usize,
            None => 0..0,
        }
    }

    /// One linear pass over the stream recording each layer's first
    /// contiguous instruction run (the shape `layer_pc_range` always
    /// reported).
    fn compute_layer_ranges(&self) -> Vec<(u32, u32)> {
        let max_layer = self
            .instrs
            .iter()
            .map(|i| usize::from(i.layer) + 1)
            .max()
            .unwrap_or(0)
            .max(self.layers.len());
        let mut table = vec![(0u32, 0u32); max_layer];
        let mut seen = vec![false; max_layer];
        let mut pc = 0usize;
        while pc < self.instrs.len() {
            let layer = usize::from(self.instrs[pc].layer);
            let start = pc;
            while pc < self.instrs.len() && usize::from(self.instrs[pc].layer) == layer {
                pc += 1;
            }
            if !seen[layer] {
                seen[layer] = true;
                table[layer] = (start as u32, pc as u32);
            }
        }
        table
    }

    /// The program's Tier-1 layer plans ([`compile_program`]), compiled by
    /// the first call and shared by every caller after, clones included.
    #[must_use]
    pub fn plan(&self) -> &CompiledProgram {
        self.cache.plan.get_or_init(|| Arc::new(compile_program(self)))
    }

    /// Whether [`Program::plan`] has been compiled yet.
    #[must_use]
    pub fn is_planned(&self) -> bool {
        self.cache.plan.get().is_some()
    }

    /// The accelerator's price table of this program: what `price` returns
    /// on the first call, the same `Arc` on every call after, clones
    /// included. This crate knows neither the table's type nor the
    /// configuration it was priced under; the caller downcasts it and
    /// checks the configuration (the first pricer's wins).
    pub fn prices(
        &self,
        price: impl FnOnce() -> Arc<dyn Any + Send + Sync>,
    ) -> &Arc<dyn Any + Send + Sync> {
        self.cache.prices.get_or_init(price)
    }

    /// The next interrupt point at or after `pc`, if any.
    #[must_use]
    pub fn next_interrupt_point(&self, pc: usize) -> Option<&InterruptPoint> {
        let idx = self.interrupt_points.partition_point(|p| (p.vir_start as usize) < pc);
        self.interrupt_points.get(idx)
    }

    /// The last interrupt point whose virtual group starts at or before
    /// `pc`, if any.
    #[must_use]
    pub fn last_interrupt_point(&self, pc: usize) -> Option<&InterruptPoint> {
        let idx = self.interrupt_points.partition_point(|p| (p.vir_start as usize) <= pc);
        idx.checked_sub(1).map(|i| &self.interrupt_points[i])
    }

    /// Iterates over the original (non-virtual) instructions with their pcs.
    pub fn original_instrs(&self) -> impl Iterator<Item = (usize, &Instr)> {
        self.instrs.iter().enumerate().filter(|(_, i)| !i.op.is_virtual())
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> ProgramStats {
        ProgramStats {
            instrs: self.instrs.len(),
            virtual_instrs: self.instrs.iter().filter(|i| i.op.is_virtual()).count(),
            blobs: self.blobs.len(),
            interrupt_points: self.interrupt_points.len(),
            layers: self.layers.len(),
            macs: self.layers.iter().map(LayerMeta::macs).sum(),
            ddr_bytes: self
                .instrs
                .iter()
                .filter(|i| !i.op.is_virtual() && i.op.moves_data())
                .map(|i| u64::from(i.ddr.bytes))
                .sum(),
        }
    }

    /// Full assembly listing (one instruction per line, virtual
    /// instructions indented).
    #[must_use]
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut layer = u16::MAX;
        for (pc, i) in self.instrs.iter().enumerate() {
            if i.layer != layer {
                layer = i.layer;
                let meta = self.layer_of(i);
                let _ = writeln!(
                    out,
                    "; ---- layer {} `{}` {:?} {} -> {} ----",
                    layer, meta.name, meta.kind, meta.in_shape, meta.out_shape
                );
            }
            let indent = if i.op.is_virtual() { "    " } else { "" };
            let _ = writeln!(out, "{pc:>6}: {indent}{}", i.listing());
        }
        out
    }

    /// Validates internal consistency.
    ///
    /// Checks performed:
    /// * every instruction references a defined layer;
    /// * layer shapes are self-consistent;
    /// * interrupt points are sorted, lie inside the stream, and their
    ///   `vir_range` covers exactly the virtual instructions;
    /// * virtual instructions appear only inside interrupt points;
    /// * every `CALC_F` closes a blob that a later `SAVE` (or earlier
    ///   `VIR_SAVE`) covers.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), IsaError> {
        for (pc, i) in self.instrs.iter().enumerate() {
            if usize::from(i.layer) >= self.layers.len() {
                return Err(IsaError::DanglingLayer { pc, layer: i.layer });
            }
        }
        for meta in &self.layers {
            if !meta.shapes_consistent() {
                return Err(IsaError::Invalid(format!(
                    "layer {} `{}` has inconsistent shapes {} -> {}",
                    meta.id, meta.name, meta.in_shape, meta.out_shape
                )));
            }
        }
        let mut prev_end = 0u32;
        for p in &self.interrupt_points {
            if p.vir_start < prev_end {
                return Err(IsaError::Invalid(format!(
                    "interrupt points overlap or are unsorted at pc {}",
                    p.vir_start
                )));
            }
            if (p.vir_end as usize) > self.instrs.len() {
                return Err(IsaError::Invalid(format!(
                    "interrupt point past end of stream: {}..{}",
                    p.vir_start, p.vir_end
                )));
            }
            for pc in p.vir_range() {
                if !self.instrs[pc].op.is_virtual() {
                    return Err(IsaError::Invalid(format!(
                        "non-virtual instruction inside interrupt point at pc {pc}"
                    )));
                }
            }
            prev_end = p.vir_end;
        }
        // Virtual instructions outside any point are illegal.
        let mut in_point = vec![false; self.instrs.len()];
        for p in &self.interrupt_points {
            for pc in p.vir_range() {
                in_point[pc] = true;
            }
        }
        for (pc, i) in self.instrs.iter().enumerate() {
            if i.op.is_virtual() && !in_point[pc] {
                return Err(IsaError::Invalid(format!(
                    "virtual instruction outside any interrupt point at pc {pc}"
                )));
            }
        }
        Ok(())
    }

    /// Serialises the program's instruction stream to the `instruction.bin`
    /// format (see [`crate::encode`]).
    #[must_use]
    pub fn to_bin(&self) -> Vec<u8> {
        crate::encode::encode_program(self)
    }

    /// Decodes an instruction stream from `instruction.bin` bytes and
    /// re-attaches the given metadata.
    ///
    /// # Errors
    ///
    /// Propagates decoding errors (bad magic/version, unknown opcodes,
    /// truncation).
    pub fn from_bin(
        name: impl Into<String>,
        bytes: &[u8],
        layers: Vec<LayerMeta>,
        memory: MemoryMap,
    ) -> Result<Self, IsaError> {
        let instrs = crate::encode::decode_stream(bytes)?;
        let mut b = ProgramBuilder::new(name);
        b.layers = layers;
        b.memory = memory;
        for i in instrs {
            b.push_raw(i);
        }
        b.rebuild_points_from_stream();
        b.build()
    }
}

/// Incremental builder for [`Program`]; used by the compiler backend.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    instrs: Vec<Instr>,
    /// Layer metadata (set by the compiler before/while emitting).
    pub layers: Vec<LayerMeta>,
    points: Vec<InterruptPoint>,
    blobs: Vec<BlobRange>,
    /// Memory map (set by the compiler).
    pub memory: MemoryMap,
    open_blob: Option<(u32, u32)>,
    next_save_id: u32,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            instrs: Vec::new(),
            layers: Vec::new(),
            points: Vec::new(),
            blobs: Vec::new(),
            memory: MemoryMap::default(),
            open_blob: None,
            next_save_id: 0,
        }
    }

    /// Current pc (index of the next pushed instruction).
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.instrs.len() as u32
    }

    /// Allocates a fresh save id.
    pub fn alloc_save_id(&mut self) -> u32 {
        let id = self.next_save_id;
        self.next_save_id += 1;
        id
    }

    /// Pushes an instruction, maintaining blob bookkeeping.
    pub fn push(&mut self, instr: Instr) {
        let pc = self.pc();
        if !instr.op.is_virtual() {
            match self.open_blob {
                Some((blob, _)) if blob == instr.blob => {}
                _ => {
                    self.close_blob(pc);
                    self.open_blob = Some((instr.blob, pc));
                }
            }
        }
        self.instrs.push(instr);
    }

    /// Pushes without blob bookkeeping (used by binary decoding).
    fn push_raw(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    fn close_blob(&mut self, end: u32) {
        if let Some((blob, start)) = self.open_blob.take() {
            self.blobs.push(BlobRange { blob, start, end });
        }
    }

    /// Records an interrupt point whose virtual group spans
    /// `[vir_start, pc())` in the given layer. Call after pushing the
    /// point's virtual instructions (the group may be empty).
    pub fn mark_interrupt_point(&mut self, vir_start: u32, layer: u16) {
        self.points.push(InterruptPoint { vir_start, vir_end: self.pc(), layer });
    }

    /// Reconstructs interrupt points from contiguous virtual-instruction
    /// runs in the stream (used after binary decoding, where point metadata
    /// is implicit in the stream itself).
    pub fn rebuild_points_from_stream(&mut self) {
        self.points.clear();
        self.blobs.clear();
        let mut pc = 0usize;
        let mut open: Option<(u32, u32)> = None;
        while pc < self.instrs.len() {
            let i = self.instrs[pc];
            if i.op.is_virtual() {
                let start = pc;
                while pc < self.instrs.len() && self.instrs[pc].op.is_virtual() {
                    pc += 1;
                }
                self.points.push(InterruptPoint {
                    vir_start: start as u32,
                    vir_end: pc as u32,
                    layer: i.layer,
                });
            } else {
                match open {
                    Some((blob, _)) if blob == i.blob => {}
                    _ => {
                        if let Some((blob, start)) = open.take() {
                            self.blobs.push(BlobRange { blob, start, end: pc as u32 });
                        }
                        open = Some((i.blob, pc as u32));
                    }
                }
                pc += 1;
            }
        }
        if let Some((blob, start)) = open {
            self.blobs.push(BlobRange { blob, start, end: pc as u32 });
        }
    }

    /// Finalises and validates the program.
    ///
    /// # Errors
    ///
    /// Propagates [`Program::validate`] failures.
    pub fn build(mut self) -> Result<Program, IsaError> {
        let end = self.pc();
        self.close_blob(end);
        let program = Program {
            name: self.name,
            instrs: self.instrs,
            layers: self.layers,
            interrupt_points: self.points,
            blobs: self.blobs,
            memory: self.memory,
            cache: ProgramCache::default(),
        };
        program.validate()?;
        // Warm the layer-range table so hot paths never pay the scan.
        let _ = program.cache.layer_ranges.set(program.compute_layer_ranges());
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdrRange, LayerKind, Opcode, Shape3, Tile};

    fn tiny_layer() -> LayerMeta {
        LayerMeta {
            id: 0,
            name: "l0".into(),
            kind: LayerKind::Conv { kernel: 3, stride: 1, pad: 1 },
            in_shape: Shape3::new(8, 8, 8),
            out_shape: Shape3::new(8, 8, 8),
            input_addr: 0,
            input2_addr: None,
            output_addr: 1024,
            weight_addr: 4096,
            weight_bytes: 8 * 8 * 9,
            quant_shift: 6,
            relu: true,
        }
    }

    fn tiny_program() -> Program {
        let mut b = Program::builder("tiny");
        b.layers.push(tiny_layer());
        b.push(Instr::transfer(
            Opcode::LoadD,
            0,
            0,
            Tile::rows_chans(0, 8, 0, 8),
            DdrRange::new(0, 512),
        ));
        b.push(Instr::transfer(
            Opcode::LoadW,
            0,
            0,
            Tile::new(0, 0, 0, 8, 0, 8),
            DdrRange::new(4096, 576),
        ));
        b.push(Instr::calc(Opcode::CalcF, 0, 0, Tile::new(0, 8, 0, 8, 0, 8)));
        let sid = b.alloc_save_id();
        b.push(
            Instr::transfer(
                Opcode::Save,
                0,
                0,
                Tile::rows_chans(0, 8, 0, 8),
                DdrRange::new(1024, 512),
            )
            .with_save_id(sid),
        );
        let vs = b.pc();
        b.mark_interrupt_point(vs, 0);
        b.build().unwrap()
    }

    #[test]
    fn builder_tracks_blobs_and_points() {
        let p = tiny_program();
        assert_eq!(p.blobs.len(), 1);
        assert_eq!(p.blobs[0].start, 0);
        assert_eq!(p.blobs[0].end, 4);
        assert_eq!(p.interrupt_points.len(), 1);
        assert_eq!(p.interrupt_points[0].resume_pc(), 4);
        assert_eq!(p.stats().instrs, 4);
        assert_eq!(p.stats().virtual_instrs, 0);
        assert_eq!(p.stats().ddr_bytes, 512 + 576 + 512);
    }

    #[test]
    fn validate_rejects_dangling_layer() {
        let mut b = Program::builder("bad");
        b.push(Instr::calc(Opcode::CalcF, 7, 0, Tile::default()));
        assert!(matches!(b.build(), Err(IsaError::DanglingLayer { layer: 7, .. })));
    }

    #[test]
    fn validate_rejects_stray_virtual() {
        let mut b = Program::builder("bad");
        b.layers.push(tiny_layer());
        b.push(Instr::transfer(Opcode::VirSave, 0, 0, Tile::default(), DdrRange::EMPTY));
        // No mark_interrupt_point call -> stray virtual instruction.
        assert!(b.build().is_err());
    }

    #[test]
    fn next_interrupt_point_lookup() {
        let p = tiny_program();
        assert_eq!(p.next_interrupt_point(0).unwrap().resume_pc(), 4);
        assert_eq!(p.next_interrupt_point(4).unwrap().resume_pc(), 4);
        assert!(p.next_interrupt_point(5).is_none());
        assert!(p.last_interrupt_point(3).is_none());
        assert_eq!(p.last_interrupt_point(4).unwrap().vir_start, 4);
        assert_eq!(p.last_interrupt_point(9).unwrap().vir_start, 4);
    }

    #[test]
    fn layer_pc_range_finds_span() {
        let p = tiny_program();
        assert_eq!(p.layer_pc_range(0), 0..4);
        assert_eq!(p.layer_pc_range(1), 0..0);
    }

    #[test]
    fn listing_contains_layers_and_ops() {
        let p = tiny_program();
        let l = p.listing();
        assert!(l.contains("layer 0"));
        assert!(l.contains("LOAD_D"));
        assert!(l.contains("CALC_F"));
        assert!(l.contains("SAVE"));
    }
}
