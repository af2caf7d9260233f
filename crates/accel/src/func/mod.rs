//! Bit-exact functional backend: executes the VI-ISA with int8 feature
//! maps, int8 weights and int32 accumulation against a task-private DDR
//! image.
//!
//! Besides producing real numbers, the functional backend is a *verifier*:
//! every CALC looks its operands up in explicit on-chip buffer models that
//! are cleared on context switch, so a missing `LOAD_D`/`VIR_LOAD_D`/
//! `VIR_LOAD_W` (a compiler or IAU bug) surfaces as a
//! [`SimError::MissingData`] instead of silently wrong output.
//!
//! CALC execution has two interchangeable kernels (see DESIGN.md,
//! "Functional backend fast path"):
//!
//! * [`CalcKernel::Fast`] (the default) — stages each tile's rows and
//!   weights into persistent zero-padded buffers, runs convolutions and
//!   fully-connected layers as one blocked int8 GEMM (depthwise and
//!   pooling as branch-free row loops), and partitions output channels
//!   across a scoped worker pool. Results are bit-identical to the
//!   reference kernel at every thread count.
//! * [`CalcKernel::Reference`] — the original naive per-pixel
//!   bounds-checked kernel, kept verbatim in [`reference`] as the proptest
//!   oracle and the `perf_smoke` baseline.

mod kernels;
mod reference;
mod stage;
mod tier1;

use std::collections::HashMap;
use std::sync::Arc;

use inca_isa::{
    compile_program, CompiledProgram, Instr, LayerKind, LayerMeta, Opcode, Program, TaskSlot,
    TASK_SLOTS,
};
use inca_obs::Metrics;

use crate::{Backend, SimError, SpanSupport};
use stage::Stage;
use tier1::Tier1State;

/// A task's DDR image (task-relative addressing, as the IAU's per-slot
/// offset registers would provide).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdrImage {
    bytes: Vec<u8>,
}

impl DdrImage {
    /// Creates a zeroed image of `capacity` bytes.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Self { bytes: vec![0; usize::try_from(capacity).expect("image fits usize")] }
    }

    /// Creates an image sized for `program`, with the weight region filled
    /// deterministically from `seed` (a splitmix-style hash of the byte
    /// address) and activations zeroed.
    #[must_use]
    pub fn for_program(program: &Program, seed: u64) -> Self {
        let mut img = Self::new(program.memory.total_bytes().max(1));
        let (w0, w1) = (
            program.memory.weights_base,
            program.memory.weights_base + program.memory.weights_bytes,
        );
        for addr in w0..w1 {
            img.bytes[addr as usize] = Self::hash_byte(seed, addr);
        }
        img
    }

    fn hash_byte(seed: u64, addr: u64) -> u8 {
        let mut z = seed ^ addr.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z >> 33) as u8
    }

    /// Image capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Writes `data` at the task-relative address.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the image.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let a = usize::try_from(addr).expect("addr fits usize");
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes at the task-relative address.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the image.
    #[must_use]
    pub fn read(&self, addr: u64, len: u64) -> &[u8] {
        let a = usize::try_from(addr).expect("addr fits usize");
        &self.bytes[a..a + usize::try_from(len).expect("len fits usize")]
    }

    /// Reads a layer's whole output feature map as int8.
    #[must_use]
    pub fn read_output(&self, meta: &LayerMeta) -> Vec<i8> {
        self.read(meta.output_addr, meta.out_shape.bytes()).iter().map(|&b| b as i8).collect()
    }

    fn get(&self, slot: TaskSlot, addr: u64, len: u64) -> Result<&[u8], SimError> {
        let end = addr.checked_add(len).ok_or(SimError::AddressOutOfRange {
            slot,
            addr,
            len,
            capacity: self.capacity(),
        })?;
        if end > self.capacity() {
            return Err(SimError::AddressOutOfRange { slot, addr, len, capacity: self.capacity() });
        }
        Ok(&self.bytes[addr as usize..end as usize])
    }
}

/// One CalcBlob's accumulators in the output buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OutBlob {
    layer: u16,
    blob: u32,
    c0: u16,
    chans: u16,
    h0: u16,
    rows: u16,
    w: u32,
    acc: Vec<i32>,
    finalized: bool,
}

impl OutBlob {
    fn idx(&self, ch: u32, row: u32, x: u32) -> usize {
        let cr = ch - u32::from(self.c0);
        let rr = row - u32::from(self.h0);
        ((cr * u32::from(self.rows) + rr) * self.w + x) as usize
    }

    fn covers(&self, ch: u32, row: u32) -> bool {
        ch >= u32::from(self.c0)
            && ch < u32::from(self.c0) + u32::from(self.chans)
            && row >= u32::from(self.h0)
            && row < u32::from(self.h0) + u32::from(self.rows)
    }
}

/// One layer's on-chip entries as a dense plane with a presence bitmap.
///
/// Entries are fixed-size slices (`len` bytes each) addressed by a 2-D
/// slot `(a, b)` with `b < cols` — `(channel, row)` for data planes
/// (`cols = H_in`), `(oc, ic)` for weight planes (`cols = C_in`; depthwise
/// stores one slice per channel with `cols = 1`). Storing slices inline in
/// one flat allocation instead of per-slice heap `Vec`s in a hash map
/// keeps lookups at array-index cost and makes snapshot clones a memcpy;
/// the presence bitmap preserves the verifier semantics (reading a slot
/// that was never loaded since the last clear is an error, not zeroes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Plane {
    /// Bytes per entry (`W_in` for data, `k²` for weights); 0 = uninitialised.
    len: usize,
    /// Entries per outer index.
    cols: usize,
    bytes: Vec<i8>,
    present: Vec<u64>,
}

impl Plane {
    fn init(&mut self, len: usize, cols: usize) {
        if self.len == 0 {
            (self.len, self.cols) = (len, cols);
        }
        debug_assert_eq!((self.len, self.cols), (len, cols), "plane shape changed");
    }

    fn slot(&self, a: u32, b: u32) -> usize {
        // Depthwise weight planes have one slice per channel (`cols == 1`)
        // but are looked up as `(c, c)`; collapse the inner index.
        let b = if self.cols == 1 { 0 } else { b as usize };
        a as usize * self.cols + b
    }

    /// Stores the `n` consecutive entries from slot `(a, b)` on — one
    /// contiguous run of the plane — from one contiguous source run.
    fn put_run(&mut self, a: u32, b: u32, n: usize, src: &[u8]) {
        debug_assert_eq!(src.len(), n * self.len);
        if n == 0 {
            return;
        }
        let slot = self.slot(a, b);
        let need = (slot + n) * self.len;
        if self.bytes.len() < need {
            self.bytes.resize(need.next_power_of_two(), 0);
        }
        let words = (slot + n).div_ceil(64);
        if self.present.len() < words {
            self.present.resize(words.next_power_of_two(), 0);
        }
        for (dst, &s) in self.bytes[slot * self.len..need].iter_mut().zip(src) {
            *dst = s as i8;
        }
        for (word, mask) in word_masks(slot, n) {
            self.present[word] |= mask;
        }
    }

    /// The `n` consecutive entries from slot `(a, b)` on, if every one of
    /// them was loaded since the last clear.
    fn get_run(&self, a: u32, b: u32, n: usize) -> Option<&[i8]> {
        if n == 0 {
            return Some(&[]);
        }
        if self.len == 0 {
            return None;
        }
        let slot = self.slot(a, b);
        let loaded = word_masks(slot, n)
            .all(|(word, mask)| self.present.get(word).is_some_and(|w| w & mask == mask));
        loaded.then(|| &self.bytes[slot * self.len..(slot + n) * self.len])
    }

    /// One entry: `get_run(a, b, 1)` as a single bit test — `stage_rows`
    /// asks once per staged input row.
    fn get(&self, a: u32, b: u32) -> Option<&[i8]> {
        if self.len == 0 {
            return None;
        }
        let slot = self.slot(a, b);
        let loaded = self.present.get(slot / 64).is_some_and(|w| w & (1 << (slot % 64)) != 0);
        loaded.then(|| &self.bytes[slot * self.len..][..self.len])
    }

    /// Marks every entry missing and forgets the shape (the next task in
    /// this slot may size the same layer id differently), keeping the
    /// allocations for reuse.
    fn clear(&mut self) {
        self.len = 0;
        self.cols = 0;
        self.present.iter_mut().for_each(|w| *w = 0);
    }
}

/// The presence-bitmap `(word index, bit mask)` pairs covering slots
/// `slot..slot + n`.
fn word_masks(slot: usize, n: usize) -> impl Iterator<Item = (usize, u64)> {
    let end = slot + n;
    (slot / 64..end.div_ceil(64)).map(move |word| {
        let lo = slot.max(word * 64) - word * 64;
        let hi = end.min((word + 1) * 64) - word * 64;
        (word, (u64::MAX >> (64 - (hi - lo))) << lo)
    })
}

/// On-chip buffer models (capacity enforced by the compiler): one data
/// plane and one weight plane per layer, plus the output accumulators.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Buffers {
    /// Indexed by layer id: `(buffer-virtual channel, input row)` planes.
    data: Vec<Plane>,
    /// Indexed by layer id: `(oc, ic)` kernel-slice planes.
    weights: Vec<Plane>,
    outputs: Vec<OutBlob>,
}

fn plane_mut(planes: &mut Vec<Plane>, layer: u16, len: usize, cols: usize) -> &mut Plane {
    let i = usize::from(layer);
    if planes.len() <= i {
        planes.resize_with(i + 1, Plane::default);
    }
    let p = &mut planes[i];
    p.init(len, cols);
    p
}

impl Buffers {
    fn clear(&mut self) {
        self.data.iter_mut().for_each(Plane::clear);
        self.weights.iter_mut().for_each(Plane::clear);
        self.outputs.clear();
    }

    fn data_at(&self, layer: u16, ch: u32, row: u32) -> Result<&[i8], SimError> {
        self.data
            .get(usize::from(layer))
            .and_then(|p| p.get(ch, row))
            .ok_or(SimError::MissingData { layer, channel: ch, row })
    }

    fn weights_at(&self, layer: u16, oc: u32, ic: u32) -> Result<&[i8], SimError> {
        self.weights
            .get(usize::from(layer))
            .and_then(|p| p.get(oc, ic))
            .ok_or(SimError::MissingWeights { layer, oc, ic })
    }

    /// Output channel `oc`'s kernel slices for input channels `ics`, which
    /// the weight plane holds as one contiguous run. Errors name the first
    /// slice that was never loaded.
    fn weight_run_at(
        &self,
        layer: u16,
        oc: u32,
        ics: std::ops::Range<u32>,
    ) -> Result<&[i8], SimError> {
        self.weights
            .get(usize::from(layer))
            .and_then(|p| p.get_run(oc, ics.start, ics.len()))
            .ok_or_else(|| {
                let missing = |&ic: &u32| self.weights_at(layer, oc, ic).is_err();
                let ic = ics.clone().find(missing).unwrap_or(ics.start);
                SimError::MissingWeights { layer, oc, ic }
            })
    }
}

/// Which CALC kernel a [`FuncBackend`] executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CalcKernel {
    /// Staged, branch-free, optionally multi-threaded kernels.
    #[default]
    Fast,
    /// The original naive per-pixel kernel — the correctness oracle and
    /// performance baseline. Always single-threaded.
    Reference,
}

/// Cheap always-on Tier-1 event counters (surfaced as `tier1.*` metrics).
#[derive(Debug, Clone, Copy, Default)]
struct Tier1Counters {
    compile_programs: u64,
    compile_layers: u64,
    compile_cache_hits: u64,
    deopt_layers: u64,
    deopt_dynamic: u64,
    exec_layers: u64,
    exec_instrs_fused: u64,
}

/// The functional backend.
#[derive(Debug, Clone)]
pub struct FuncBackend {
    images: [Option<DdrImage>; TASK_SLOTS],
    /// Parked DDR images of logical scheduler contexts not currently bound
    /// to any slot (`BTreeMap` for deterministic iteration/debug output).
    ctx_images: std::collections::BTreeMap<u64, DdrImage>,
    /// Which logical context owns each slot's image, for slot-virtualized
    /// execution (`None` for plain fixed-slot use).
    bound_ctx: [Option<u64>; TASK_SLOTS],
    bufs: Buffers,
    owner: Option<TaskSlot>,
    snapshots: [Option<Buffers>; TASK_SLOTS],
    bytes_written: [u64; TASK_SLOTS],
    kernel: CalcKernel,
    threads: usize,
    stage: Stage,
    /// Compiled layer plans, keyed by [`Program::fingerprint`] (content
    /// identity — a changed program recompiles, an identical clone hits).
    plans: HashMap<u64, Arc<CompiledProgram>>,
    t1state: Tier1State,
    t1counters: Tier1Counters,
}

impl Default for FuncBackend {
    fn default() -> Self {
        Self {
            images: Default::default(),
            ctx_images: std::collections::BTreeMap::new(),
            bound_ctx: [None; TASK_SLOTS],
            bufs: Buffers::default(),
            owner: None,
            snapshots: Default::default(),
            bytes_written: [0; TASK_SLOTS],
            kernel: CalcKernel::Fast,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            stage: Stage::default(),
            plans: HashMap::new(),
            t1state: Tier1State::default(),
            t1counters: Tier1Counters::default(),
        }
    }
}

impl FuncBackend {
    /// Creates a backend with no images installed, using the fast kernel
    /// with one worker per available hardware thread.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a backend whose CALC worker pool uses `threads` workers
    /// (clamped to at least 1). `1` runs the fast kernel inline on the
    /// caller's thread; results are bit-identical at every thread count.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: threads.max(1), ..Self::default() }
    }

    /// Creates a backend running the retained naive [`CalcKernel::Reference`]
    /// kernel — the proptest oracle and `perf_smoke` baseline.
    #[must_use]
    pub fn with_kernel(kernel: CalcKernel) -> Self {
        Self { kernel, ..Self::default() }
    }

    /// Sets the CALC worker count (clamped to at least 1).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured CALC worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The kernel this backend executes CALC with.
    #[must_use]
    pub fn kernel(&self) -> CalcKernel {
        self.kernel
    }

    /// The compiled tier of `program`, compiling on first sight and
    /// caching by content fingerprint.
    fn plan_for(&mut self, program: &Program) -> Arc<CompiledProgram> {
        let fp = program.fingerprint();
        if let Some(p) = self.plans.get(&fp) {
            self.t1counters.compile_cache_hits += 1;
            return Arc::clone(p);
        }
        let compiled = Arc::new(compile_program(program));
        self.t1counters.compile_programs += 1;
        self.t1counters.compile_layers += compiled.compiled_layers() as u64;
        self.t1counters.deopt_layers += compiled.deopt_layers() as u64;
        self.plans.insert(fp, Arc::clone(&compiled));
        compiled
    }

    /// A deterministic snapshot of the Tier-1 counters. Keys are prefixed
    /// `tier1.`: programs/layers compiled, compile-time and dynamic
    /// deopts, plan-cache hits, fused layers and instructions.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let c = &self.t1counters;
        let mut m = Metrics::new();
        m.inc("tier1.compile_programs", c.compile_programs);
        m.inc("tier1.compile_layers", c.compile_layers);
        m.inc("tier1.compile_cache_hits", c.compile_cache_hits);
        m.inc("tier1.deopt_layers", c.deopt_layers);
        m.inc("tier1.deopt_dynamic", c.deopt_dynamic);
        m.inc("tier1.exec_layers", c.exec_layers);
        m.inc("tier1.exec_instrs_fused", c.exec_instrs_fused);
        m
    }

    /// Whether whole layers run as one fused Tier-1 pass: always, except
    /// under the reference kernel — it is the measurement baseline and
    /// proptest oracle, and batching under it would defeat both. (Tier-0,
    /// the per-instruction interpreter, is `Stepped<FuncBackend>`: the
    /// engine never offers it a layer.)
    fn fuses_layers(&self) -> bool {
        self.kernel == CalcKernel::Fast
    }

    /// Runs every original instruction of `program` once on `slot`,
    /// engine-free (no timing, no interrupts) — batching whole layers
    /// through Tier-1 where a plan exists, stepping the rest.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] stepping would raise.
    pub fn run_program(&mut self, slot: TaskSlot, program: &Program) -> Result<(), SimError> {
        self.on_switch(slot);
        let mut pc = 0usize;
        while pc < program.instrs.len() {
            let instr = &program.instrs[pc];
            if instr.op.is_virtual() {
                pc += 1;
                continue;
            }
            if self.fuses_layers() {
                let range = program.layer_pc_range(instr.layer);
                if range.start == pc && self.execute_span(slot, program, range.clone(), 0, 0)? {
                    pc = range.end;
                    continue;
                }
            }
            self.execute(slot, program, instr)?;
            pc += 1;
        }
        Ok(())
    }

    /// Installs the DDR image backing `slot`.
    pub fn install_image(&mut self, slot: TaskSlot, image: DdrImage) {
        self.images[slot.index()] = Some(image);
    }

    /// The image backing `slot`, if installed.
    #[must_use]
    pub fn image(&self, slot: TaskSlot) -> Option<&DdrImage> {
        self.images[slot.index()].as_ref()
    }

    /// Installs the DDR image backing logical context `ctx` (a
    /// slot-virtualizing scheduler task). The image follows the context
    /// across slot rebinds — see [`Backend::rebind`].
    pub fn install_ctx_image(&mut self, ctx: u64, image: DdrImage) {
        match self.bound_ctx.iter().position(|c| *c == Some(ctx)) {
            Some(slot) => self.images[slot] = Some(image),
            None => {
                self.ctx_images.insert(ctx, image);
            }
        }
    }

    /// The image backing logical context `ctx`, whether currently bound to
    /// a slot or parked.
    #[must_use]
    pub fn ctx_image(&self, ctx: u64) -> Option<&DdrImage> {
        match self.bound_ctx.iter().position(|c| *c == Some(ctx)) {
            Some(slot) => self.images[slot].as_ref(),
            None => self.ctx_images.get(&ctx),
        }
    }

    /// The logical context currently bound to `slot`, if any.
    #[must_use]
    pub fn bound_ctx(&self, slot: TaskSlot) -> Option<u64> {
        self.bound_ctx[slot.index()]
    }

    /// Total bytes `SAVE`/`VIR_SAVE` wrote to `slot`'s DDR image.
    ///
    /// With correct SaveID patching, an interrupted run writes *exactly*
    /// as many bytes as an uninterrupted one — no output byte twice
    /// (DESIGN.md invariant 4).
    #[must_use]
    pub fn bytes_written(&self, slot: TaskSlot) -> u64 {
        self.bytes_written[slot.index()]
    }

    fn load_d(&mut self, slot: TaskSlot, meta: &LayerMeta, instr: &Instr) -> Result<(), SimError> {
        let w_in = u64::from(meta.in_shape.w);
        let h_in = u64::from(meta.in_shape.h);
        let base = instr.ddr.addr;
        let layer = instr.layer;
        let tile = instr.tile;
        let Self { images, bufs, .. } = self;
        let image = images[slot.index()].as_ref().ok_or(SimError::NoImage(slot))?;
        let plane = plane_mut(&mut bufs.data, layer, w_in as usize, h_in as usize);
        // A channel's rows are contiguous both in DDR and in the plane.
        let rows = u64::from(tile.rows);
        for j in 0..u64::from(tile.chans) {
            let src = image.get(slot, base + j * h_in * w_in, rows * w_in)?;
            let ch = u32::from(tile.c0) + j as u32;
            plane.put_run(ch, u32::from(tile.h0), rows as usize, src);
        }
        Ok(())
    }

    fn load_w(&mut self, slot: TaskSlot, meta: &LayerMeta, instr: &Instr) -> Result<(), SimError> {
        let k2 = u64::from(meta.kind.kernel()) * u64::from(meta.kind.kernel());
        let layer = instr.layer;
        let tile = instr.tile;
        let Self { images, bufs, .. } = self;
        let image = images[slot.index()].as_ref().ok_or(SimError::NoImage(slot))?;
        if matches!(meta.kind, LayerKind::DwConv { .. }) {
            let plane = plane_mut(&mut bufs.weights, layer, k2 as usize, 1);
            let chans = u64::from(tile.chans);
            let src = image.get(slot, instr.ddr.addr, chans * k2)?;
            plane.put_run(u32::from(tile.c0), u32::from(tile.c0), chans as usize, src);
            return Ok(());
        }
        let c_in = u64::from(meta.in_shape.c);
        let plane = plane_mut(&mut bufs.weights, layer, k2 as usize, c_in as usize);
        // An output channel's `ics` kernel slices are contiguous both in
        // DDR and in the plane.
        let ics = u64::from(tile.ics);
        for j in 0..u64::from(tile.chans) {
            let src = image.get(slot, instr.ddr.addr + j * c_in * k2, ics * k2)?;
            let oc = u32::from(tile.c0) + j as u32;
            plane.put_run(oc, u32::from(tile.ic0), ics as usize, src);
        }
        Ok(())
    }

    fn blob_entry(&mut self, instr: &Instr, meta: &LayerMeta) -> usize {
        if let Some(i) =
            self.bufs.outputs.iter().position(|b| b.layer == instr.layer && b.blob == instr.blob)
        {
            return i;
        }
        let t = instr.tile;
        self.bufs.outputs.push(OutBlob {
            layer: instr.layer,
            blob: instr.blob,
            c0: t.c0,
            chans: t.chans,
            h0: t.h0,
            rows: t.rows,
            w: meta.out_shape.w,
            acc: vec![0; usize::from(t.chans) * usize::from(t.rows) * meta.out_shape.w as usize],
            finalized: false,
        });
        self.bufs.outputs.len() - 1
    }

    fn calc(&mut self, instr: &Instr, meta: &LayerMeta) -> Result<(), SimError> {
        let entry = self.blob_entry(instr, meta);
        let Self { bufs, stage, kernel, threads, .. } = self;

        match kernel {
            CalcKernel::Fast => {
                kernels::calc_into(bufs, stage, instr, meta, *threads)?;
                let blob = &mut bufs.outputs[entry];
                for (dst, &add) in blob.acc.iter_mut().zip(stage.scratch.iter()) {
                    *dst = dst.saturating_add(add);
                }
            }
            CalcKernel::Reference => {
                let scratch = reference::calc_scratch(bufs, instr, meta)?;
                let blob = &mut bufs.outputs[entry];
                for (dst, add) in blob.acc.iter_mut().zip(scratch) {
                    *dst = dst.saturating_add(
                        i32::try_from(add.clamp(i64::from(i32::MIN), i64::from(i32::MAX)))
                            .expect("clamped"),
                    );
                }
            }
        }

        if instr.op == Opcode::CalcF {
            let blob = &mut self.bufs.outputs[entry];
            let shift = meta.quant_shift;
            let relu = meta.relu;
            for v in &mut blob.acc {
                let mut x = *v >> shift;
                if relu {
                    x = x.max(0);
                }
                *v = x.clamp(-128, 127);
            }
            blob.finalized = true;
        }
        Ok(())
    }

    fn save(&mut self, slot: TaskSlot, meta: &LayerMeta, instr: &Instr) -> Result<(), SimError> {
        let t = instr.tile;
        let (h_out, w_out) = (u64::from(meta.out_shape.h), u64::from(meta.out_shape.w));
        let layer = instr.layer;
        let Self { images, bufs, stage, bytes_written, .. } = self;
        let image = images[slot.index()].as_mut().ok_or(SimError::NoImage(slot))?;
        for j in 0..u32::from(t.chans) {
            let ch = u32::from(t.c0) + j;
            for rr in 0..u32::from(t.rows) {
                let row = u32::from(t.h0) + rr;
                let blob = bufs
                    .outputs
                    .iter()
                    .find(|b| b.layer == layer && b.finalized && b.covers(ch, row))
                    .ok_or(SimError::MissingOutput { layer, channel: ch, row })?;
                // A blob row is contiguous in acc; narrow once and stage the
                // bytes in a persistent buffer instead of a per-row Vec.
                let base = blob.idx(ch, row, 0);
                let acc_row = &blob.acc[base..base + w_out as usize];
                let bytes = &mut stage.row_bytes;
                bytes.clear();
                bytes.extend(acc_row.iter().map(|&v| v as i8 as u8));
                let addr = instr.ddr.addr + u64::from(j) * h_out * w_out + u64::from(rr) * w_out;
                let end = addr + w_out;
                if end > image.capacity() {
                    return Err(SimError::AddressOutOfRange {
                        slot,
                        addr,
                        len: w_out,
                        capacity: image.capacity(),
                    });
                }
                image.write(addr, bytes);
                bytes_written[slot.index()] += w_out;
            }
        }
        // A real SAVE retires its blobs from the output buffer.
        if instr.op == Opcode::Save {
            let (c0, c1) = (u32::from(t.c0), u32::from(t.c0) + u32::from(t.chans));
            self.bufs.outputs.retain(|b| {
                !(b.layer == layer
                    && b.h0 == t.h0
                    && u32::from(b.c0) >= c0
                    && u32::from(b.c0) + u32::from(b.chans) <= c1)
            });
        }
        Ok(())
    }
}

impl Backend for FuncBackend {
    fn execute(
        &mut self,
        slot: TaskSlot,
        program: &Program,
        instr: &Instr,
    ) -> Result<(), SimError> {
        let meta = program.layer_of(instr);
        match instr.op {
            Opcode::LoadD | Opcode::VirLoadD => self.load_d(slot, meta, instr),
            Opcode::LoadW | Opcode::VirLoadW => self.load_w(slot, meta, instr),
            Opcode::CalcI | Opcode::CalcF => self.calc(instr, meta),
            Opcode::Save | Opcode::VirSave => self.save(slot, meta, instr),
        }
    }

    fn on_switch(&mut self, slot: TaskSlot) {
        if self.owner != Some(slot) {
            self.bufs.clear();
            self.owner = Some(slot);
        }
    }

    fn on_load(&mut self, slot: TaskSlot) {
        // A different program now lives in `slot`: staged planes and any
        // snapshot belong to the previous one and must not be readable.
        if self.owner == Some(slot) {
            self.bufs.clear();
        }
        self.snapshots[slot.index()] = None;
    }

    fn snapshot(&mut self, slot: TaskSlot) {
        self.snapshots[slot.index()] = Some(self.bufs.clone());
    }

    fn restore(&mut self, slot: TaskSlot) -> Result<(), SimError> {
        let snap = self.snapshots[slot.index()].take().ok_or(SimError::NoSnapshot(slot))?;
        self.bufs = snap;
        self.owner = Some(slot);
        Ok(())
    }

    fn supports_spans(&self) -> SpanSupport {
        if self.fuses_layers() {
            SpanSupport::Layer
        } else {
            SpanSupport::None
        }
    }

    fn execute_span(
        &mut self,
        slot: TaskSlot,
        program: &Program,
        span: std::ops::Range<usize>,
        input_offset: u64,
        output_offset: u64,
    ) -> Result<bool, SimError> {
        if !self.fuses_layers() || span.is_empty() {
            return Ok(false);
        }
        let layer = program.instrs[span.start].layer;
        let compiled = self.plan_for(program);
        let Some(plan) = compiled.plan(layer) else {
            return Ok(false); // compile-time deopt, already counted
        };
        if plan.pc_start as usize != span.start || plan.pc_end as usize != span.end {
            return Ok(false);
        }
        let meta = &program.layers[usize::from(layer)];
        let Self { images, t1state, bytes_written, threads, t1counters, .. } = self;
        let Some(image) = images[slot.index()].as_mut() else {
            // Let stepping raise the exact NoImage error.
            t1counters.deopt_dynamic += 1;
            return Ok(false);
        };
        let written = &mut bytes_written[slot.index()];
        if tier1::run_plan(
            t1state,
            image,
            written,
            *threads,
            meta,
            plan,
            input_offset,
            output_offset,
        ) {
            t1counters.exec_layers += 1;
            t1counters.exec_instrs_fused += u64::from(plan.original_instrs);
            Ok(true)
        } else {
            t1counters.deopt_dynamic += 1;
            Ok(false)
        }
    }

    fn rebind(&mut self, slot: TaskSlot, ctx: u64) -> Result<(), SimError> {
        let idx = slot.index();
        if self.bound_ctx[idx] == Some(ctx) {
            return Ok(());
        }
        // A fixed-slot image installed via `install_image` has no owning
        // context; silently replacing it would lose data.
        if self.bound_ctx[idx].is_none() && self.images[idx].is_some() {
            return Err(SimError::Engine(format!(
                "{slot} holds an unmanaged image; cannot rebind"
            )));
        }
        // Detach the context from any slot it previously occupied.
        if let Some(other) = self.bound_ctx.iter().position(|c| *c == Some(ctx)) {
            if let Some(img) = self.images[other].take() {
                self.ctx_images.insert(ctx, img);
            }
            self.bound_ctx[other] = None;
        }
        // Park whatever context occupied the target slot.
        if let Some(prev) = self.bound_ctx[idx].take() {
            if let Some(img) = self.images[idx].take() {
                self.ctx_images.insert(prev, img);
            }
        }
        self.images[idx] = self.ctx_images.remove(&ctx);
        self.bound_ctx[idx] = Some(ctx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_hash_is_deterministic_and_seed_sensitive() {
        assert_eq!(DdrImage::hash_byte(1, 42), DdrImage::hash_byte(1, 42));
        let a: Vec<u8> = (0..64).map(|i| DdrImage::hash_byte(7, i)).collect();
        let b: Vec<u8> = (0..64).map(|i| DdrImage::hash_byte(8, i)).collect();
        assert_ne!(a, b);
        // Not constant either.
        assert!(a.iter().any(|&x| x != a[0]));
    }

    #[test]
    fn image_read_write_round_trip() {
        let mut img = DdrImage::new(128);
        img.write(16, &[1, 2, 3, 4]);
        assert_eq!(img.read(16, 4), &[1, 2, 3, 4]);
        assert_eq!(img.capacity(), 128);
    }

    #[test]
    fn switch_clears_buffers_restore_brings_them_back() {
        let mut b = FuncBackend::new();
        let s0 = TaskSlot::new(0).unwrap();
        let s1 = TaskSlot::new(1).unwrap();
        b.on_switch(s0);
        plane_mut(&mut b.bufs.data, 0, 3, 1).put_run(0, 0, 1, &[1, 2, 3]);
        b.snapshot(s0);
        b.on_switch(s1);
        assert!(b.bufs.data_at(0, 0, 0).is_err(), "switch must clear the buffers");
        b.restore(s0).unwrap();
        assert_eq!(b.bufs.data_at(0, 0, 0).unwrap(), &[1, 2, 3]);
        assert!(b.restore(s0).is_err(), "snapshot is single-use");
    }

    #[test]
    fn plane_runs_set_and_check_presence_as_ranges() {
        // 3-byte entries, 100 per row: runs straddle presence-word edges.
        let mut bufs = Buffers::default();
        let plane = plane_mut(&mut bufs.weights, 0, 3, 100);
        let run: Vec<u8> = (0..90).collect();
        plane.put_run(0, 50, 30, &run); // slots 50..80
        assert_eq!(plane.get_run(0, 50, 30).unwrap().len(), 90);
        assert_eq!(plane.get(0, 64).unwrap(), &[42, 43, 44]);
        assert!(plane.get_run(0, 49, 2).is_none(), "slot 49 was never loaded");
        assert!(plane.get_run(0, 79, 2).is_none(), "slot 80 was never loaded");
        assert!(plane.get_run(0, 60, 0).is_some_and(<[i8]>::is_empty));
        plane.put_run(0, 81, 19, &run[..57]); // slots 81..100: 80 stays missing
        assert_eq!(
            bufs.weight_run_at(0, 0, 50..100).unwrap_err(),
            SimError::MissingWeights { layer: 0, oc: 0, ic: 80 },
            "the error names the first never-loaded slice"
        );
        assert!(bufs.weight_run_at(0, 0, 81..100).is_ok());
        assert_eq!(
            bufs.weight_run_at(3, 1, 2..4).unwrap_err(),
            SimError::MissingWeights { layer: 3, oc: 1, ic: 2 }
        );
        bufs.clear();
        assert!(bufs.weight_run_at(0, 0, 50..80).is_err(), "clear forgets every entry");
    }

    #[test]
    fn thread_knob_clamps_and_defaults() {
        assert!(FuncBackend::new().threads() >= 1);
        assert_eq!(FuncBackend::with_threads(0).threads(), 1);
        assert_eq!(FuncBackend::with_threads(4).threads(), 4);
        let mut b = FuncBackend::with_kernel(CalcKernel::Reference);
        assert_eq!(b.kernel(), CalcKernel::Reference);
        b.set_threads(0);
        assert_eq!(b.threads(), 1);
    }
}
