//! Tier-1 layer plans: ahead-of-time compilation of a [`Program`]'s
//! instruction stream into fused per-layer execution plans.
//!
//! The Tier-0 interpreter executes one [`Instr`] at a time, paying
//! per-instruction dispatch, buffer bookkeeping and operand staging for
//! every tile. A network's stream is fully known ahead of time, though, so
//! a whole layer can be *trace-compiled* once into a [`LayerPlan`]: a plan
//! proves (symbolically, against the stream itself) that the layer's
//! loads place exactly the canonically-addressed operand bytes its CALCs
//! consume and that its SAVEs write exactly the bytes its blobs finalise —
//! after which an executor may run the whole layer with resolved DDR
//! addresses and branch-free inner loops, bit-identically to stepping.
//!
//! Compilation is *conservative*: any shape the verifier cannot prove
//! equivalent deopts that layer to the interpreter ([`DeoptReason`]), which
//! remains the differential oracle. Plans carry task-relative addresses,
//! resolved against whichever DDR image backs the job's slot, so one plan
//! serves every job of the program.

use std::ops::Range;

use crate::{Instr, InterruptPoint, LayerKind, LayerMeta, Opcode, Program};

/// Why a layer could not be tier-1 compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeoptReason {
    /// Worst-case accumulator magnitude could reach `i32` saturation, so
    /// the interpreter's per-group saturating merge is not provably equal
    /// to one whole-layer wrapping pass.
    PotentialOverflow,
    /// Geometry too large for the plan's `u16` whole-layer tile.
    ShapeTooLarge,
    /// A tile stepped outside the layer's declared shapes.
    TileOutOfBounds,
    /// A load's DDR address differs from the canonical layout address, so
    /// the plan cannot re-derive operand bytes from the layer metadata.
    NonCanonicalAddress,
    /// A CALC demanded data or weights no prior load of the layer placed.
    MissingOperand,
    /// CALCs of one blob disagree on the output tile, re-accumulate after
    /// finalisation, or their input-channel ranges do not exactly
    /// partition `[0, c_in)`.
    BlobShape,
    /// A SAVE covered output cells no finalized blob (or more than one)
    /// provides.
    SaveCoverage,
    /// The layer's instructions are not one contiguous pc run.
    SplitLayer,
    /// The layer has no original instructions.
    Empty,
}

impl std::fmt::Display for DeoptReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeoptReason::PotentialOverflow => "potential-overflow",
            DeoptReason::ShapeTooLarge => "shape-too-large",
            DeoptReason::TileOutOfBounds => "tile-out-of-bounds",
            DeoptReason::NonCanonicalAddress => "non-canonical-address",
            DeoptReason::MissingOperand => "missing-operand",
            DeoptReason::BlobShape => "blob-shape",
            DeoptReason::SaveCoverage => "save-coverage",
            DeoptReason::SplitLayer => "split-layer",
            DeoptReason::Empty => "empty-layer",
        })
    }
}

/// One SAVE of a compiled layer, as a resolved store span.
///
/// The executor writes, for each channel `j < chans`, the contiguous
/// `rows·w_out` bytes of the whole-layer accumulator starting at output
/// cell `(c0+j, h0)` to `addr + j·h_out·w_out` — byte-for-byte what the interpreter's per-row SAVE
/// loop produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSpan {
    /// pc of the SAVE (where a pending IAU patch of it is keyed).
    pub pc: u32,
    /// Task-relative DDR address of the span (tile origin).
    pub addr: u64,
    /// First output channel.
    pub c0: u16,
    /// Output channels covered.
    pub chans: u16,
    /// First output row.
    pub h0: u16,
    /// Output rows covered.
    pub rows: u16,
}

impl StoreSpan {
    /// Total bytes this span writes.
    #[must_use]
    pub fn bytes(&self, w_out: u64) -> u64 {
        u64::from(self.chans) * u64::from(self.rows) * w_out
    }
}

/// A half-open task-relative DDR byte range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hull {
    /// First byte.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
}

impl Hull {
    /// Whether two hulls overlap.
    #[must_use]
    pub fn overlaps(self, other: Hull) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// A fused whole-layer execution plan (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPlan {
    /// Layer id.
    pub layer: u16,
    /// First pc of the layer's run.
    pub pc_start: u32,
    /// One past the last pc of the layer's run.
    pub pc_end: u32,
    /// pc of the last *original* instruction in the run. After a batched
    /// execution the job's pc is `last_original_pc + 1`, so any trailing
    /// virtual group is handled exactly as stepping would.
    pub last_original_pc: u32,
    /// Original (non-virtual) instructions in the run.
    pub original_instrs: u32,
    /// Full operand-1 feature-map hull `[input_addr, +c_in·h_in·w_in)`.
    pub input_hull: Hull,
    /// Full operand-2 hull (Add layers only).
    pub input2_hull: Option<Hull>,
    /// Full weight-region hull (weighted layers only).
    pub weight_hull: Option<Hull>,
    /// The layer's SAVEs, in pc order.
    pub stores: Vec<StoreSpan>,
    /// Union hull of all stores.
    pub store_hull: Option<Hull>,
    /// The layer's legal cuts, in pc order.
    pub cuts: Vec<Cut>,
}

/// A legal cut of a compiled layer: an interrupt point at which no
/// `CALC_I` accumulator is open and whose virtual group names exactly the
/// on-chip state stepping would leave there. Its `VIR_SAVE`s are the blobs
/// finalised but not yet stored, its `VIR_LOAD_*`s the loads later
/// instructions still read — what a span ending at the cut hands on to the
/// next stepped instruction or taken `VIR_SAVE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// First pc of the point's virtual group: a span ending at the cut
    /// stops here.
    pub vir_start: u32,
    /// One past the group: a span starting at the cut begins here.
    pub vir_end: u32,
    /// The layer's SAVEs before the cut (an index into
    /// [`LayerPlan::stores`]).
    pub store: u32,
    /// The layer's original instructions before the cut.
    pub originals: u32,
}

/// Where a span of a compiled layer begins or ends: the layer's first
/// instruction, one of its [`Cut`]s, or its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// The layer's first instruction.
    Start,
    /// The cut at this index of [`LayerPlan::cuts`].
    Cut(usize),
    /// Past the layer's last original instruction.
    End,
}

impl LayerPlan {
    /// The edge a span starting at `pc` begins on, if it is one.
    #[must_use]
    pub fn start_edge(&self, pc: usize) -> Option<Edge> {
        if pc == self.pc_start as usize {
            return Some(Edge::Start);
        }
        let i = self.cuts.binary_search_by_key(&pc, |c| c.vir_end as usize).ok()?;
        Some(Edge::Cut(i))
    }

    /// The edge a span ending at `pc` (one past its last original
    /// instruction, or the layer's end) stops on, if it is one.
    #[must_use]
    pub fn end_edge(&self, pc: usize) -> Option<Edge> {
        if pc == self.last_original_pc as usize + 1 || pc == self.pc_end as usize {
            return Some(Edge::End);
        }
        let i = self.cuts.binary_search_by_key(&pc, |c| c.vir_start as usize).ok()?;
        Some(Edge::Cut(i))
    }

    /// `(stores, original instructions)` of the layer before `edge`.
    #[must_use]
    pub fn before(&self, edge: Edge) -> (usize, u32) {
        match edge {
            Edge::Start => (0, 0),
            Edge::Cut(i) => (self.cuts[i].store as usize, self.cuts[i].originals),
            Edge::End => (self.stores.len(), self.original_instrs),
        }
    }
}

/// Per-layer compilation outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerTier {
    /// The layer runs fused.
    Compiled(LayerPlan),
    /// The layer deopts to the Tier-0 interpreter.
    Deopt(DeoptReason),
}

/// A program's compiled tier: one [`LayerTier`] per layer, memoised on
/// the program as [`Program::plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProgram {
    /// Per-layer plans, indexed by layer id.
    pub layers: Vec<LayerTier>,
}

impl CompiledProgram {
    /// The plan for `layer`, when it compiled.
    #[must_use]
    pub fn plan(&self, layer: u16) -> Option<&LayerPlan> {
        match self.layers.get(usize::from(layer)) {
            Some(LayerTier::Compiled(p)) => Some(p),
            _ => None,
        }
    }

    /// Number of layers that compiled.
    #[must_use]
    pub fn compiled_layers(&self) -> usize {
        self.layers.iter().filter(|t| matches!(t, LayerTier::Compiled(_))).count()
    }

    /// Number of layers that deopted.
    #[must_use]
    pub fn deopt_layers(&self) -> usize {
        self.layers.len() - self.compiled_layers()
    }
}

/// Compiles every layer of `program` that can be proven equivalent to
/// stepping; the rest carry a [`DeoptReason`].
#[must_use]
pub fn compile_program(program: &Program) -> CompiledProgram {
    let mut instrs_of = vec![0usize; program.layers.len()];
    for i in &program.instrs {
        if let Some(n) = instrs_of.get_mut(usize::from(i.layer)) {
            *n += 1;
        }
    }
    let layers = (0..program.layers.len())
        .map(|l| match try_compile_layer(program, l as u16, instrs_of[l]) {
            Ok(plan) => LayerTier::Compiled(plan),
            Err(r) => LayerTier::Deopt(r),
        })
        .collect();
    CompiledProgram { layers }
}

/// Which of a layer's loads last placed each on-chip entry of one buffer,
/// over a rectangular index space: `(buffer-virtual channel, input row)`
/// for data, `(oc, ic)` (depthwise `(c, 0)`) for weights.
struct Providers {
    cells: Vec<u32>,
    rows: u32,
    cols: u32,
}

impl Providers {
    /// No entry placed yet.
    const NONE: u32 = u32::MAX;

    fn new(rows: u32, cols: u32) -> Self {
        Self { cells: vec![Self::NONE; rows as usize * cols as usize], rows, cols }
    }

    /// The entries `(a, b)` for `b` in `bs`, when all lie in the space (a
    /// CALC can demand channels no load could legally place, e.g.
    /// `out.c > in.c` on a pool — that is a missing operand, not a
    /// compiler panic).
    fn run(&self, a: u32, bs: Range<u32>) -> Option<Range<usize>> {
        let start = a as usize * self.cols as usize;
        (a < self.rows && bs.end <= self.cols)
            .then(|| start + bs.start as usize..start + bs.end as usize)
    }

    /// Records `load` as the provider of entries `(a, b)`, `b` in `bs`
    /// (ignored out of space: a weightless layer keeps no weight
    /// providers).
    fn place(&mut self, a: u32, bs: Range<u32>, load: u32) {
        if let Some(run) = self.run(a, bs) {
            self.cells[run].fill(load);
        }
    }
}

/// One load of the layer and the pc of its last consumer (its own pc while
/// nothing has read it).
struct Load {
    pc: u32,
    last_use: u32,
}

/// Symbolic model of one output blob, mirroring the interpreter's
/// `OutBlob` lifecycle (create on first CALC, finalize on `CALC_F`,
/// retire on `SAVE`).
struct SymBlob {
    blob: u32,
    c0: u16,
    chans: u16,
    h0: u16,
    rows: u16,
    /// Input-channel ranges accumulated so far, `(ic0, ics)` per CALC.
    ic_ranges: Vec<(u16, u16)>,
    calcs: u32,
    finalized: bool,
    /// Set on finalisation: the blob's content equals the whole-layer pass
    /// ([`SymBlob::is_complete`]).
    complete: bool,
}

impl SymBlob {
    fn covers(&self, ch: u32, row: u32) -> bool {
        ch >= u32::from(self.c0)
            && ch < u32::from(self.c0) + u32::from(self.chans)
            && row >= u32::from(self.h0)
            && row < u32::from(self.h0) + u32::from(self.rows)
    }

    /// Whether the blob's content equals the whole-layer pass: its CALCs'
    /// input-channel ranges exactly tile `[0, c_in)` (reducing kinds), or
    /// it took exactly one CALC (the rest accumulate per CALC, so a second
    /// one would double-add).
    fn is_complete(&self, meta: &LayerMeta) -> bool {
        if !meta.kind.reduces_input_channels() {
            return self.calcs == 1;
        }
        let mut ranges: Vec<(u16, u16)> = self.ic_ranges.clone();
        ranges.sort_unstable();
        let mut next = 0u32;
        for (ic0, ics) in ranges {
            if u32::from(ic0) != next {
                return false;
            }
            next += u32::from(ics);
        }
        next == meta.in_shape.c
    }
}

/// Worst-case `|accumulator|` bound for a whole-layer reduction: if it
/// stays below `i31`, the interpreter's saturating per-group merge can
/// never saturate and equals one wrapping whole-layer pass.
fn overflow_safe(meta: &LayerMeta) -> bool {
    let k2 = u64::from(meta.kind.kernel()) * u64::from(meta.kind.kernel());
    let terms = match meta.kind {
        LayerKind::Conv { .. } | LayerKind::FullyConnected => u64::from(meta.in_shape.c) * k2,
        LayerKind::DwConv { .. } => k2,
        // Pools/adds never multiply two int8 operands; their magnitudes
        // are bounded by the window sum, far below i32.
        LayerKind::Pool { .. } | LayerKind::GlobalPool { .. } | LayerKind::Add => return true,
    };
    terms.saturating_mul(127 * 127) < (1u64 << 31)
}

/// The input rows a CALC tile demands from the data buffer — exactly the
/// rows the fast path's `stage_rows` copies (deduplicated virtual rows,
/// clipped to the image) — as ascending runs.
fn demanded_rows(tile_h0: u16, tile_rows: u16, meta: &LayerMeta) -> Vec<Range<u32>> {
    let k = usize::from(meta.kind.kernel());
    let s = usize::from(meta.kind.stride());
    let p = i64::from(meta.kind.pad());
    let h_in = i64::from(meta.in_shape.h);
    let vr0 = i64::from(tile_h0) * s as i64 - p;
    let mut runs: Vec<Range<u32>> = Vec::new();
    let mut next = 0usize;
    for rr in 0..usize::from(tile_rows) {
        for ky in 0..k {
            let vr = rr * s + ky;
            if vr < next {
                continue;
            }
            next = vr + 1;
            let in_r = vr0 + vr as i64;
            if (0..h_in).contains(&in_r) {
                let r = in_r as u32;
                match runs.last_mut() {
                    Some(run) if run.end == r => run.end += 1,
                    _ => runs.push(r..r + 1),
                }
            }
        }
    }
    runs
}

struct LayerCompiler<'a> {
    program: &'a Program,
    layer: u16,
    meta: &'a LayerMeta,
    data: Providers,
    weights: Providers,
    /// The layer's loads so far, in pc order (what `Providers` index).
    loads: Vec<Load>,
    blobs: Vec<SymBlob>,
    stores: Vec<StoreSpan>,
}

impl LayerCompiler<'_> {
    /// Buffer-virtual input channels: Add layers address operand 2 at
    /// `c_in + c`.
    fn virtual_chans(&self) -> u32 {
        match self.meta.kind {
            LayerKind::Add => self.meta.in_shape.c * 2,
            _ => self.meta.in_shape.c,
        }
    }

    /// Checks a data load's tile against the layer's shapes and its address
    /// against the canonical layout.
    fn check_load_d(&self, instr: &Instr) -> Result<(), DeoptReason> {
        let m = self.meta;
        let t = instr.tile;
        let (h_in, w_in) = (u64::from(m.in_shape.h), u64::from(m.in_shape.w));
        let c_in = m.in_shape.c;
        let (c0, chans) = (u32::from(t.c0), u32::from(t.chans));
        let (h0, rows) = (u32::from(t.h0), u32::from(t.rows));
        if h0 + rows > m.in_shape.h || c0 + chans > self.virtual_chans() {
            return Err(DeoptReason::TileOutOfBounds);
        }
        // Which operand — loads must not straddle the boundary.
        let op2 = c0 >= c_in;
        if !op2 && c0 + chans > c_in {
            return Err(DeoptReason::NonCanonicalAddress);
        }
        let canonical = if op2 {
            let base = m.input2_addr.ok_or(DeoptReason::NonCanonicalAddress)?;
            base + (u64::from(c0 - c_in) * h_in + u64::from(h0)) * w_in
        } else {
            m.input_addr + (u64::from(c0) * h_in + u64::from(h0)) * w_in
        };
        if instr.ddr.addr != canonical {
            return Err(DeoptReason::NonCanonicalAddress);
        }
        Ok(())
    }

    fn load_d(&mut self, pc: u32, instr: &Instr) -> Result<(), DeoptReason> {
        self.check_load_d(instr)?;
        let load = self.new_load(pc);
        let t = instr.tile;
        for c in t.chan_range() {
            self.data.place(c, t.row_range(), load);
        }
        Ok(())
    }

    /// Checks a weight load's tile against the layer's shapes and its
    /// address against the canonical layout.
    fn check_load_w(&self, instr: &Instr) -> Result<(), DeoptReason> {
        let m = self.meta;
        let t = instr.tile;
        let k2 = u64::from(m.kind.kernel()) * u64::from(m.kind.kernel());
        let (c0, chans) = (u32::from(t.c0), u32::from(t.chans));
        if matches!(m.kind, LayerKind::DwConv { .. }) {
            if c0 + chans > m.out_shape.c {
                return Err(DeoptReason::TileOutOfBounds);
            }
            if instr.ddr.addr != m.weight_addr + u64::from(c0) * k2 {
                return Err(DeoptReason::NonCanonicalAddress);
            }
            return Ok(());
        }
        let c_in = u64::from(m.in_shape.c);
        let (ic0, ics) = (u32::from(t.ic0), u32::from(t.ics));
        if c0 + chans > m.out_shape.c || u64::from(ic0 + ics) > c_in {
            return Err(DeoptReason::TileOutOfBounds);
        }
        if instr.ddr.addr != m.weight_addr + (u64::from(c0) * c_in + u64::from(ic0)) * k2 {
            return Err(DeoptReason::NonCanonicalAddress);
        }
        Ok(())
    }

    fn load_w(&mut self, pc: u32, instr: &Instr) -> Result<(), DeoptReason> {
        self.check_load_w(instr)?;
        let load = self.new_load(pc);
        let t = instr.tile;
        let ics =
            if matches!(self.meta.kind, LayerKind::DwConv { .. }) { 0..1 } else { t.ic_range() };
        for oc in t.chan_range() {
            self.weights.place(oc, ics.clone(), load);
        }
        Ok(())
    }

    fn new_load(&mut self, pc: u32) -> u32 {
        self.loads.push(Load { pc, last_use: pc });
        self.loads.len() as u32 - 1
    }

    /// Marks the loads that placed entries `(a, b)`, `b` in `bs`, of the
    /// data buffer (or the weight buffer) as read at `pc`; `false` when one
    /// of them was never placed.
    fn read(&mut self, pc: u32, from_weights: bool, a: u32, bs: Range<u32>) -> bool {
        let Self { data, weights, loads, .. } = self;
        let providers = if from_weights { weights } else { data };
        if bs.is_empty() {
            return true;
        }
        let Some(run) = providers.run(a, bs) else { return false };
        let mut last = Providers::NONE;
        for &load in &providers.cells[run] {
            if load == Providers::NONE {
                return false;
            }
            if load != last {
                loads[load as usize].last_use = pc;
                last = load;
            }
        }
        true
    }

    /// Checks a CALC's operand demands against what the layer's loads have
    /// placed so far (mirroring the staging lookups), recording which
    /// loads it reads, then advances the blob lifecycle.
    fn calc(&mut self, pc: u32, instr: &Instr) -> Result<(), DeoptReason> {
        let m = self.meta;
        let t = instr.tile;
        if u32::from(t.h0) + u32::from(t.rows) > m.out_shape.h
            || u32::from(t.c0) + u32::from(t.chans) > m.out_shape.c
        {
            return Err(DeoptReason::TileOutOfBounds);
        }
        let mut ok = true;
        // Operand demands, per kind.
        match m.kind {
            LayerKind::Conv { .. } => {
                if u32::from(t.ic0) + u32::from(t.ics) > m.in_shape.c {
                    return Err(DeoptReason::TileOutOfBounds);
                }
                let rows = demanded_rows(t.h0, t.rows, m);
                for ic in t.ic_range() {
                    for run in &rows {
                        ok &= self.read(pc, false, ic, run.clone());
                    }
                }
                for oc in t.chan_range() {
                    ok &= self.read(pc, true, oc, t.ic_range());
                }
            }
            LayerKind::DwConv { .. } | LayerKind::Pool { .. } => {
                let rows = demanded_rows(t.h0, t.rows, m);
                for c in t.chan_range() {
                    for run in &rows {
                        ok &= self.read(pc, false, c, run.clone());
                    }
                    if m.kind.has_weights() {
                        ok &= self.read(pc, true, c, 0..1);
                    }
                }
            }
            LayerKind::GlobalPool { .. } => {
                for c in t.chan_range() {
                    ok &= self.read(pc, false, c, 0..m.in_shape.h);
                }
            }
            LayerKind::Add => {
                let c_in = m.in_shape.c;
                for c in t.chan_range() {
                    ok &= self.read(pc, false, c, t.row_range())
                        && self.read(pc, false, c + c_in, t.row_range());
                }
            }
            LayerKind::FullyConnected => {
                if u32::from(t.ic0) + u32::from(t.ics) > m.in_shape.c {
                    return Err(DeoptReason::TileOutOfBounds);
                }
                for oc in t.chan_range() {
                    ok &= self.read(pc, true, oc, t.ic_range());
                }
                if !t.chan_range().is_empty() {
                    for ic in t.ic_range() {
                        ok &= self.read(pc, false, ic, 0..1);
                    }
                }
            }
        }
        if !ok {
            return Err(DeoptReason::MissingOperand);
        }
        // Blob lifecycle.
        let blob = match self.blobs.iter().position(|b| b.blob == instr.blob) {
            Some(i) => {
                let b = &mut self.blobs[i];
                if b.finalized || (b.c0, b.chans, b.h0, b.rows) != (t.c0, t.chans, t.h0, t.rows) {
                    return Err(DeoptReason::BlobShape);
                }
                b.ic_ranges.push((t.ic0, t.ics));
                b.calcs += 1;
                b
            }
            None => {
                self.blobs.push(SymBlob {
                    blob: instr.blob,
                    c0: t.c0,
                    chans: t.chans,
                    h0: t.h0,
                    rows: t.rows,
                    ic_ranges: vec![(t.ic0, t.ics)],
                    calcs: 1,
                    finalized: false,
                    complete: false,
                });
                self.blobs.last_mut().expect("just pushed")
            }
        };
        if instr.op == Opcode::CalcF {
            blob.finalized = true;
            blob.complete = blob.is_complete(m);
        }
        Ok(())
    }

    /// Verifies a SAVE against the blob model: every demanded cell comes
    /// from exactly one finalized blob whose accumulation equals the
    /// whole-layer pass, then retires blobs the interpreter would.
    fn save(&mut self, pc: u32, instr: &Instr) -> Result<(), DeoptReason> {
        let m = self.meta;
        let t = instr.tile;
        if u32::from(t.h0) + u32::from(t.rows) > m.out_shape.h
            || u32::from(t.c0) + u32::from(t.chans) > m.out_shape.c
        {
            return Err(DeoptReason::TileOutOfBounds);
        }
        for ch in t.chan_range() {
            for row in t.row_range() {
                let mut covering = self.blobs.iter().filter(|b| b.finalized && b.covers(ch, row));
                let Some(b) = covering.next() else {
                    return Err(DeoptReason::SaveCoverage);
                };
                if covering.next().is_some() {
                    return Err(DeoptReason::SaveCoverage);
                }
                if !b.complete {
                    return Err(DeoptReason::BlobShape);
                }
            }
        }
        self.stores.push(StoreSpan {
            pc,
            addr: instr.ddr.addr,
            c0: t.c0,
            chans: t.chans,
            h0: t.h0,
            rows: t.rows,
        });
        // Retirement mirrors the interpreter exactly (including blobs that
        // never finalized).
        let (c0, c1) = (u32::from(t.c0), u32::from(t.c0) + u32::from(t.chans));
        self.blobs.retain(|b| {
            !(b.h0 == t.h0 && u32::from(b.c0) >= c0 && u32::from(b.c0) + u32::from(b.chans) <= c1)
        });
        Ok(())
    }

    /// Whether interrupt point `p` can be a cut as far as the state at its
    /// pc shows: no blob is still accumulating, its `VIR_SAVE`s name
    /// exactly the finalised, unstored blobs (each complete, so the fused
    /// pass computes its content), and its `VIR_LOAD_*`s are canonical
    /// loads of this layer. (That they cover every load read after it is
    /// checked once the layer's load liveness is known: [`live_loads_named`].)
    fn is_cut(&self, p: &InterruptPoint) -> bool {
        if self.blobs.len() > 64 || !self.blobs.iter().all(|b| b.finalized && b.complete) {
            return false; // an open CALC_I accumulator, or a blob we cannot hand on
        }
        // Bit i: blob i has its VIR_SAVE.
        let mut named = 0u64;
        for vi in &self.program.instrs[p.vir_range()] {
            let t = vi.tile;
            let ok = vi.layer == self.layer
                && match vi.op {
                    Opcode::VirSave => {
                        let shape = (t.h0, t.rows, t.c0, t.chans);
                        let at = self.blobs.iter().position(|b| {
                            b.blob == vi.blob && (b.h0, b.rows, b.c0, b.chans) == shape
                        });
                        match at {
                            Some(i) if named & 1 << i == 0 => {
                                named |= 1 << i;
                                true
                            }
                            _ => false,
                        }
                    }
                    Opcode::VirLoadD => self.check_load_d(vi).is_ok(),
                    Opcode::VirLoadW => self.check_load_w(vi).is_ok(),
                    _ => false,
                };
            if !ok {
                return false;
            }
        }
        named.count_ones() as usize == self.blobs.len()
    }
}

/// Whether `cut`'s `VIR_LOAD_*`s restore every load of the layer that an
/// instruction after the cut still reads (`live`: those loads, in pc
/// order — the order the VI pass emits their copies in).
fn live_loads_named(program: &Program, cut: &Cut, mut live: impl Iterator<Item = u32>) -> bool {
    let group = &program.instrs[cut.vir_start as usize..cut.vir_end as usize];
    let mut copies = group.iter().filter(|v| matches!(v.op, Opcode::VirLoadD | Opcode::VirLoadW));
    live.all(|pc| {
        let load = program.instrs[pc as usize];
        copies.any(|v| Instr { op: load.op, ..*v } == load)
    })
}

fn try_compile_layer(
    program: &Program,
    layer: u16,
    instrs_of_layer: usize,
) -> Result<LayerPlan, DeoptReason> {
    let meta = &program.layers[usize::from(layer)];
    if !overflow_safe(meta) {
        return Err(DeoptReason::PotentialOverflow);
    }
    // The whole-layer tile and plan bookkeeping use u16 extents.
    let c_virtual = match meta.kind {
        LayerKind::Add => u64::from(meta.in_shape.c) * 2,
        _ => u64::from(meta.in_shape.c),
    };
    if u64::from(meta.out_shape.h) > u64::from(u16::MAX)
        || u64::from(meta.out_shape.c) > u64::from(u16::MAX)
        || u64::from(meta.in_shape.h) > u64::from(u16::MAX)
        || c_virtual > u64::from(u16::MAX)
    {
        return Err(DeoptReason::ShapeTooLarge);
    }
    // The fused Add executor reads `w_out` bytes per input row directly
    // from the operand hulls; an output extent exceeding the input extent
    // would read bytes the interpreter never demands.
    if matches!(meta.kind, LayerKind::Add)
        && (meta.out_shape.c > meta.in_shape.c
            || meta.out_shape.h > meta.in_shape.h
            || meta.out_shape.w > meta.in_shape.w)
    {
        return Err(DeoptReason::ShapeTooLarge);
    }
    let range = program.layer_pc_range(layer);
    if range.is_empty() {
        return Err(DeoptReason::Empty);
    }
    // Every instruction of this layer must live inside the (first) run.
    if instrs_of_layer != range.len() {
        return Err(DeoptReason::SplitLayer);
    }
    if program.instrs[range.start].op.is_virtual() {
        // A batch entered at the layer start must begin on an original
        // instruction, exactly like the stepping path's virtual skip.
        return Err(DeoptReason::SplitLayer);
    }

    let weight_cols = match meta.kind {
        LayerKind::DwConv { .. } => 1,
        kind if kind.has_weights() => meta.in_shape.c,
        _ => 0,
    };
    let mut lc = LayerCompiler {
        program,
        layer,
        meta,
        data: Providers::new(c_virtual as u32, meta.in_shape.h),
        weights: Providers::new(meta.out_shape.c, weight_cols),
        loads: Vec::new(),
        blobs: Vec::new(),
        stores: Vec::new(),
    };

    let mut last_original = None;
    let mut originals = 0u32;
    // The layer's interrupt points, met in the same pass: each is checked
    // as a cut against the model state at its pc (a point with an empty
    // group may sit right at the range end).
    let first_point =
        program.interrupt_points.partition_point(|p| (p.vir_start as usize) < range.start);
    let mut points = program.interrupt_points[first_point..]
        .iter()
        .take_while(|p| p.vir_start as usize <= range.end)
        .filter(|p| p.layer == layer)
        .peekable();
    let mut cuts = Vec::new();
    for pc in range.start..=range.end {
        while let Some(p) = points.next_if(|p| p.vir_start as usize == pc) {
            if lc.is_cut(p) {
                let store = lc.stores.len() as u32;
                cuts.push(Cut { vir_start: p.vir_start, vir_end: p.vir_end, store, originals });
            }
        }
        let Some(instr) = program.instrs.get(pc).filter(|_| pc < range.end) else { break };
        let pc = pc as u32;
        match instr.op {
            // Skipped for free by stepping; not part of the batch.
            Opcode::VirSave | Opcode::VirLoadD | Opcode::VirLoadW => continue,
            Opcode::LoadD => lc.load_d(pc, instr)?,
            Opcode::LoadW => lc.load_w(pc, instr)?,
            Opcode::CalcI | Opcode::CalcF => lc.calc(pc, instr)?,
            Opcode::Save => lc.save(pc, instr)?,
        }
        last_original = Some(pc);
        originals += 1;
    }
    let last_original_pc = last_original.ok_or(DeoptReason::Empty)?;
    if lc.stores.is_empty() {
        // A layer that never saves has no observable effect worth fusing;
        // keep stepping it.
        return Err(DeoptReason::Empty);
    }
    // A cut must restore every load read after it: sweep the cuts with the
    // loads placed before and read after each.
    let (mut live, mut next) = (Vec::new(), 0);
    cuts.retain(|cut| {
        while let Some(load) = lc.loads.get(next).filter(|l| l.pc < cut.vir_start) {
            live.push(load);
            next += 1;
        }
        live.retain(|l| l.last_use >= cut.vir_start);
        live_loads_named(program, cut, live.iter().map(|l| l.pc))
    });

    let (h_in, w_in) = (u64::from(meta.in_shape.h), u64::from(meta.in_shape.w));
    let fm_bytes = u64::from(meta.in_shape.c) * h_in * w_in;
    let input_hull = Hull { start: meta.input_addr, end: meta.input_addr + fm_bytes };
    let input2_hull = match meta.kind {
        LayerKind::Add => {
            let base = meta.input2_addr.ok_or(DeoptReason::NonCanonicalAddress)?;
            Some(Hull { start: base, end: base + fm_bytes })
        }
        _ => None,
    };
    let weight_hull = if meta.kind.has_weights() {
        let k2 = u64::from(meta.kind.kernel()) * u64::from(meta.kind.kernel());
        let n = match meta.kind {
            LayerKind::DwConv { .. } => u64::from(meta.out_shape.c) * k2,
            _ => u64::from(meta.out_shape.c) * u64::from(meta.in_shape.c) * k2,
        };
        Some(Hull { start: meta.weight_addr, end: meta.weight_addr + n })
    } else {
        None
    };
    let (h_out, w_out) = (u64::from(meta.out_shape.h), u64::from(meta.out_shape.w));
    let store_hull = lc.stores.iter().fold(None, |acc: Option<Hull>, s| {
        let end = s.addr + u64::from(s.chans - 1) * h_out * w_out + u64::from(s.rows) * w_out;
        Some(match acc {
            None => Hull { start: s.addr, end },
            Some(h) => Hull { start: h.start.min(s.addr), end: h.end.max(end) },
        })
    });

    Ok(LayerPlan {
        layer,
        pc_start: range.start as u32,
        pc_end: range.end as u32,
        last_original_pc,
        original_instrs: originals,
        input_hull,
        input2_hull,
        weight_hull,
        stores: lc.stores,
        store_hull,
        cuts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdrRange, ProgramBuilder, Shape3, Tile};

    fn conv_layer() -> LayerMeta {
        LayerMeta {
            id: 0,
            name: "c0".into(),
            kind: LayerKind::Conv { kernel: 3, stride: 1, pad: 1 },
            in_shape: Shape3::new(2, 4, 4),
            out_shape: Shape3::new(2, 4, 4),
            input_addr: 0,
            input2_addr: None,
            output_addr: 100,
            weight_addr: 200,
            weight_bytes: 2 * 2 * 9,
            quant_shift: 6,
            relu: false,
        }
    }

    /// A minimal canonical layer: full loads, one CALC_F over everything,
    /// one SAVE.
    fn canonical_program() -> Program {
        let m = conv_layer();
        let mut b = Program::builder("p");
        b.layers.push(m.clone());
        b.push(Instr::transfer(
            Opcode::LoadD,
            0,
            0,
            Tile::rows_chans(0, 4, 0, 2),
            DdrRange::new(0, 32),
        ));
        b.push(Instr::transfer(
            Opcode::LoadW,
            0,
            0,
            Tile::new(0, 0, 0, 2, 0, 2),
            DdrRange::new(200, 36),
        ));
        b.push(Instr::calc(Opcode::CalcF, 0, 0, Tile::new(0, 4, 0, 2, 0, 2)));
        let sid = b.alloc_save_id();
        b.push(
            Instr::transfer(
                Opcode::Save,
                0,
                0,
                Tile::rows_chans(0, 4, 0, 2),
                DdrRange::new(100, 32),
            )
            .with_save_id(sid),
        );
        b.build().unwrap()
    }

    #[test]
    fn canonical_layer_compiles() {
        let p = canonical_program();
        let c = compile_program(&p);
        assert!(!p.is_planned());
        assert_eq!(*p.plan(), c);
        let clone = p.clone();
        assert!(std::ptr::eq(clone.plan(), p.plan()), "a clone shares the memoised plan");
        assert_eq!(c.compiled_layers(), 1);
        let plan = c.plan(0).expect("compiled");
        assert_eq!(plan.pc_start, 0);
        assert_eq!(plan.last_original_pc, 3);
        assert_eq!(plan.stores.len(), 1);
        assert_eq!(plan.stores[0].bytes(4), 32);
        assert_eq!(plan.weight_hull, Some(Hull { start: 200, end: 236 }));
    }

    #[test]
    fn missing_load_deopts() {
        let m = conv_layer();
        let mut b = Program::builder("p");
        b.layers.push(m);
        // No LOAD_D at all.
        b.push(Instr::transfer(
            Opcode::LoadW,
            0,
            0,
            Tile::new(0, 0, 0, 2, 0, 2),
            DdrRange::new(200, 36),
        ));
        b.push(Instr::calc(Opcode::CalcF, 0, 0, Tile::new(0, 4, 0, 2, 0, 2)));
        b.push(Instr::transfer(
            Opcode::Save,
            0,
            0,
            Tile::rows_chans(0, 4, 0, 2),
            DdrRange::new(100, 32),
        ));
        let p = b.build().unwrap();
        let c = compile_program(&p);
        assert_eq!(c.layers[0], LayerTier::Deopt(DeoptReason::MissingOperand));
    }

    #[test]
    fn non_canonical_address_deopts() {
        let mut p = canonical_program();
        p.instrs[0].ddr.addr = 1; // off-canonical by one byte
        let c = compile_program(&p);
        assert_eq!(c.layers[0], LayerTier::Deopt(DeoptReason::NonCanonicalAddress));
    }

    #[test]
    fn save_without_finalize_deopts() {
        let mut p = canonical_program();
        p.instrs[2].op = Opcode::CalcI; // never finalized
        let c = compile_program(&p);
        assert_eq!(c.layers[0], LayerTier::Deopt(DeoptReason::SaveCoverage));
    }

    /// Two blobs of one output channel each, with an interrupt point after
    /// the first blob's `CALC_I` (`P1`), after each `CALC_F` (`P2`, `P3`)
    /// and after the `SAVE` (`P4`). `P2` restores the loads the second blob
    /// still reads unless `drop_live_load`.
    fn two_blob_program(drop_live_load: bool) -> Program {
        let m = conv_layer();
        let mut b = Program::builder("p");
        b.layers.push(m);
        let load_d = Instr::transfer(
            Opcode::LoadD,
            0,
            0,
            Tile::rows_chans(0, 4, 0, 2),
            DdrRange::new(0, 32),
        );
        let load_w = Instr::transfer(
            Opcode::LoadW,
            0,
            0,
            Tile::new(0, 0, 0, 2, 0, 2),
            DdrRange::new(200, 36),
        );
        let vir = |op, i: Instr| Instr { op, ..i };
        let vir_save = |blob, c0| {
            let tile = Tile::rows_chans(0, 4, c0, 1);
            Instr::transfer(
                Opcode::VirSave,
                0,
                blob,
                tile,
                DdrRange::new(100 + 16 * u64::from(c0), 16),
            )
        };
        let point = |b: &mut ProgramBuilder, group: &[Instr]| {
            let start = b.pc();
            group.iter().for_each(|&i| b.push(i));
            b.mark_interrupt_point(start, 0);
        };
        b.push(load_d);
        b.push(load_w);
        b.push(Instr::calc(Opcode::CalcI, 0, 0, Tile::new(0, 4, 0, 1, 0, 1)));
        point(&mut b, &[]); // P1
        b.push(Instr::calc(Opcode::CalcF, 0, 0, Tile::new(0, 4, 0, 1, 1, 1)));
        let mut p2 =
            vec![vir_save(0, 0), vir(Opcode::VirLoadD, load_d), vir(Opcode::VirLoadW, load_w)];
        if drop_live_load {
            p2.remove(1);
        }
        point(&mut b, &p2);
        b.push(Instr::calc(Opcode::CalcF, 0, 1, Tile::new(0, 4, 1, 1, 0, 2)));
        point(&mut b, &[vir_save(0, 0), vir_save(1, 1)]); // P3
        let save = Tile::rows_chans(0, 4, 0, 2);
        b.push(Instr::transfer(Opcode::Save, 0, 1, save, DdrRange::new(100, 32)));
        point(&mut b, &[]); // P4
        b.build().unwrap()
    }

    #[test]
    fn interrupt_points_are_cuts_only_where_they_name_the_state() {
        let p = two_blob_program(false);
        let c = compile_program(&p);
        let plan = c.plan(0).expect("compiled");
        let cut =
            |vir_start, vir_end, store, originals| Cut { vir_start, vir_end, store, originals };
        // P1 has an open CALC_I accumulator: not a cut.
        assert_eq!(plan.cuts, [cut(4, 7, 0, 4), cut(8, 10, 0, 5), cut(11, 11, 1, 6)]);
        assert_eq!(plan.start_edge(0), Some(Edge::Start));
        assert_eq!(plan.start_edge(7), Some(Edge::Cut(0)));
        assert_eq!(plan.start_edge(5), None, "inside a virtual group");
        assert_eq!(plan.end_edge(4), Some(Edge::Cut(0)));
        assert_eq!(plan.end_edge(11), Some(Edge::End), "the layer's end wins over its last cut");
        assert_eq!(plan.before(Edge::Cut(1)), (0, 5));
        assert_eq!(plan.before(Edge::End), (1, 6));
        // P2 without the data load the second blob still reads: not a cut.
        let p = two_blob_program(true);
        let c = compile_program(&p);
        let starts: Vec<u32> =
            c.plan(0).expect("compiled").cuts.iter().map(|c| c.vir_start).collect();
        assert_eq!(starts, [7, 10], "P3 and P4 only");
    }

    #[test]
    fn hull_overlap_detection() {
        let a = Hull { start: 0, end: 10 };
        let b = Hull { start: 9, end: 12 };
        let c = Hull { start: 10, end: 12 };
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c));
    }
}
