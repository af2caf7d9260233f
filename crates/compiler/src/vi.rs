//! The virtual-instruction pass (paper §IV-B/§IV-C).
//!
//! Turns an *original*-ISA stream into the interruptible VI-ISA: after
//! every `CALC_F` (unless a `SAVE` immediately follows) and after every
//! `SAVE`, an interrupt point is inserted containing
//!
//! * one `VIR_SAVE` per CalcBlob that has been computed but whose covering
//!   `SAVE` has not executed yet (flushing it early on interrupt; the later
//!   real `SAVE` is patched by the IAU so no output byte is transferred
//!   twice), and
//! * one `VIR_LOAD_D` / `VIR_LOAD_W` per on-chip-resident load whose data
//!   later instructions still consume (restoring it on resume).
//!
//! Points after `LOAD`s or `CALC_I`s are deliberately *not* created: the
//! paper shows they would waste bandwidth (flushed fresh loads) or force
//! intermediate-accumulator backup (§IV-C, Table I).
//!
//! The pass works one layer run (a maximal stretch of one layer's
//! instructions) at a time: it computes the run's load liveness, then
//! appends the run, virtual groups included, to the output builder.
//! [`crate::Compiler::compile_vi`] feeds it each layer as code generation
//! emits it, so no original-ISA program is built; [`vi_pass`] feeds it the
//! runs of an existing one.

use std::ops::Range;

use inca_isa::{DdrRange, Instr, LayerKind, LayerMeta, Opcode, Program, ProgramBuilder, Tile};

use crate::CompileError;

/// A computed-but-unsaved CalcBlob awaiting its covering `SAVE`.
#[derive(Debug, Clone, Copy)]
struct PendingBlob {
    blob: u32,
    layer: u16,
    tile: Tile,
    save_id: u32,
}

/// A load and the pc of its last consumer before its buffer slot is
/// overwritten (its own pc when nothing consumes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LiveLoad {
    pc: usize,
    last_use: usize,
}

fn ranges_intersect(a: Range<u32>, b: Range<u32>) -> bool {
    a.start < b.end && b.start < a.end
}

/// Data-buffer channel intervals a CALC consumes (two for `Add`).
fn consumed_data_channels(meta: &LayerMeta, calc: &Instr) -> [Option<Range<u32>>; 2] {
    match meta.kind {
        LayerKind::Conv { .. } | LayerKind::FullyConnected => [Some(calc.tile.ic_range()), None],
        LayerKind::Add => {
            let a = calc.tile.chan_range();
            let c = meta.in_shape.c;
            [Some(a.clone()), Some(a.start + c..a.end + c)]
        }
        _ => [Some(calc.tile.chan_range()), None],
    }
}

#[cfg(test)]
thread_local! {
    /// `calc_uses_load` evaluations made by the current thread.
    static USES_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn calc_uses_load(meta: &LayerMeta, calc: &Instr, load: &Instr) -> bool {
    #[cfg(test)]
    USES_EVALS.with(|n| n.set(n.get() + 1));
    match load.op {
        Opcode::LoadD => {
            let (r0, r1) = meta.input_rows_for(u32::from(calc.tile.h0), u32::from(calc.tile.rows));
            if !ranges_intersect(load.tile.row_range(), r0..r1) {
                return false;
            }
            consumed_data_channels(meta, calc)
                .into_iter()
                .flatten()
                .any(|r| ranges_intersect(load.tile.chan_range(), r))
        }
        Opcode::LoadW => {
            ranges_intersect(load.tile.chan_range(), calc.tile.chan_range())
                && (!meta.kind.reduces_input_channels()
                    || ranges_intersect(load.tile.ic_range(), calc.tile.ic_range()))
        }
        _ => false,
    }
}

/// End of a bucket's entry list.
const NONE: u32 = u32::MAX;

/// One live load in a [`LoadIndex`] bucket.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// `[c0, ic0, chans, ics]`: the buffer slot.
    key: [u16; 4],
    /// Index into the run's liveness table.
    live: u32,
    /// Next entry of the same bucket, or [`NONE`].
    next: u32,
}

/// The live loads of one opcode in the current layer run: at most one per
/// buffer slot, a later load of the same slot (same `c0`, `chans`, `ic0`,
/// `ics`) overwriting the earlier one.
///
/// The entries hang in a grid of buckets keyed by `(c0 >> s_c, ic0 >> s_ic)`,
/// where `1 << s` is the run's widest `chans` (or `ics`) rounded up to a
/// power of two. A tile then reaches at most one bucket past its own, so the
/// loads a CALC can touch lie in a few adjacent buckets, however many slots
/// the layer has.
#[derive(Debug, Default)]
struct LoadIndex {
    /// Bucket width shifts `[s_c, s_ic]`.
    shift: [u32; 2],
    /// Buckets along `c0` and along `ic0`.
    dims: [u32; 2],
    /// First entry of each bucket, or [`NONE`]; bucket `(c, ic)` is at
    /// `c * dims[1] + ic`.
    heads: Vec<u32>,
    entries: Vec<Entry>,
    /// Widest `chans` and `ics` of the run's loads.
    widest: [u32; 2],
}

impl LoadIndex {
    /// Empties the index and sizes its grid for `tiles`, the tiles of the
    /// loads the run will insert.
    fn reset<'a>(&mut self, tiles: impl Iterator<Item = &'a Tile>) {
        let (mut n, mut last, mut widest) = (0u64, [0u32; 2], [0u32; 2]);
        for t in tiles {
            n += 1;
            last = [last[0].max(t.c0.into()), last[1].max(t.ic0.into())];
            widest = [widest[0].max(t.chans.into()), widest[1].max(t.ics.into())];
        }
        let mut shift = widest.map(|w| w.max(1).next_power_of_two().trailing_zeros());
        // Codegen's grid-aligned tiles fill every bucket. Other streams may
        // spread a few loads far apart: widen the buckets until the grid is
        // no larger than a small multiple of the loads (any width is exact).
        let dims = |s: [u32; 2]| [(last[0] >> s[0]) + 1, (last[1] >> s[1]) + 1];
        while dims(shift).iter().map(|&d| u64::from(d)).product::<u64>() > 2 * n + 16 {
            let d = dims(shift);
            shift[usize::from(d[1] > d[0])] += 1;
        }
        self.shift = shift;
        self.dims = dims(shift);
        self.heads.clear();
        self.heads.resize((self.dims[0] * self.dims[1]) as usize, NONE);
        self.entries.clear();
        self.widest = widest;
    }

    fn bucket(&self, c: u32, ic: u32) -> usize {
        (c * self.dims[1] + ic) as usize
    }

    fn insert(&mut self, tile: &Tile, live: usize) {
        let key = [tile.c0, tile.ic0, tile.chans, tile.ics];
        let live = live as u32;
        let at =
            self.bucket(u32::from(tile.c0) >> self.shift[0], u32::from(tile.ic0) >> self.shift[1]);
        let mut e = self.heads[at];
        while e != NONE {
            let entry = &mut self.entries[e as usize];
            if entry.key == key {
                entry.live = live;
                return;
            }
            e = entry.next;
        }
        self.entries.push(Entry { key, live, next: self.heads[at] });
        self.heads[at] = (self.entries.len() - 1) as u32;
    }

    /// Calls `f` on every live load whose channels can intersect `chans`
    /// and, when `ics` is given, whose input channels can intersect `ics`.
    ///
    /// A tile `[x0, x0 + n)` with `n <= widest` intersects `[a, b)` only if
    /// `x0 + widest > a` and `x0 < b`: the buckets holding such `x0` and,
    /// in them, the entries passing that test.
    fn visit(&self, chans: &Range<u32>, ics: Option<&Range<u32>>, mut f: impl FnMut(usize)) {
        if self.entries.is_empty() || chans.end == 0 || ics.is_some_and(|r| r.end == 0) {
            return;
        }
        let [widest_c, widest_ic] = self.widest;
        let window = |r: &Range<u32>, widest: u32, axis: usize| {
            let lo = (r.start + 1).saturating_sub(widest) >> self.shift[axis];
            let hi = ((r.end - 1) >> self.shift[axis]).min(self.dims[axis] - 1);
            lo..=hi
        };
        let ic_buckets = ics.map_or(0..=self.dims[1] - 1, |r| window(r, widest_ic, 1));
        for c in window(chans, widest_c, 0) {
            for ic in ic_buckets.clone() {
                let mut e = self.heads[self.bucket(c, ic)];
                while e != NONE {
                    let Entry { key: [c0, ic0, ..], live, next } = self.entries[e as usize];
                    let (c0, ic0) = (u32::from(c0), u32::from(ic0));
                    if c0 + widest_c > chans.start
                        && c0 < chans.end
                        && ics.is_none_or(|r| ic0 + widest_ic > r.start && ic0 < r.end)
                    {
                        f(live as usize);
                    }
                    e = next;
                }
            }
        }
    }
}

fn vir_save_for(meta: &LayerMeta, pb: &PendingBlob) -> Result<Instr, CompileError> {
    let w_out = u64::from(meta.out_shape.w);
    let addr = meta.output_addr
        + (u64::from(pb.tile.c0) * u64::from(meta.out_shape.h) + u64::from(pb.tile.h0)) * w_out;
    let bytes = u64::from(pb.tile.chans) * u64::from(pb.tile.rows) * w_out;
    let bytes = u32::try_from(bytes).map_err(|_| {
        CompileError::Unsupported(format!(
            "blob {} of layer `{}` covers {bytes} output bytes, more than one VIR_SAVE can move",
            pb.blob, meta.name
        ))
    })?;
    Ok(Instr::transfer(
        Opcode::VirSave,
        pb.layer,
        pb.blob,
        Tile::rows_chans(pb.tile.h0, pb.tile.rows, pb.tile.c0, pb.tile.chans),
        DdrRange::new(addr, bytes),
    )
    .with_save_id(pb.save_id))
}

fn vir_load_for(load: &Instr) -> Instr {
    let op = match load.op {
        Opcode::LoadD => Opcode::VirLoadD,
        Opcode::LoadW => Opcode::VirLoadW,
        other => unreachable!("vir_load_for on {other}"),
    };
    Instr { op, ..*load }
}

/// The VI pass's state between layer runs, and its scratch buffers, which
/// it keeps from one run to the next.
#[derive(Debug, Default)]
pub(crate) struct ViPass {
    /// The current run's loads in pc order, with their last consumers.
    lives: Vec<LiveLoad>,
    data: LoadIndex,
    weights: LoadIndex,
    /// Loads of the current run still resident at the current pc.
    active: Vec<LiveLoad>,
    /// Blobs whose covering `SAVE` has not been appended yet; the only
    /// state a run hands on (that `SAVE` may lie in a later run).
    unsaved: Vec<PendingBlob>,
}

impl ViPass {
    /// Appends the layer run `stream[run]` to `b`, with a virtual group at
    /// every interrupt point. The instructions after `run` are only looked
    /// at: the one following a `CALC_F`, and a `CALC_F`'s covering `SAVE`.
    ///
    /// # Errors
    ///
    /// [`CompileError::Unsupported`] when a `CALC_F` of the run has no
    /// covering `SAVE` in `stream`, or its blob is too large for one
    /// `VIR_SAVE`.
    pub(crate) fn append(
        &mut self,
        b: &mut ProgramBuilder,
        stream: &[Instr],
        run: Range<usize>,
    ) -> Result<(), CompileError> {
        let Some(first) = stream.get(run.start) else { return Ok(()) };
        self.liveness(&b.layers[usize::from(first.layer)], stream, run.clone());
        self.active.clear();
        let mut lives = self.lives.iter().peekable();
        // pc of the first SAVE after the latest CALC_F: the one covering its blob.
        let mut covering = run.start;
        for pc in run {
            let i = &stream[pc];
            self.active.extend(lives.next_if(|l| l.pc == pc));
            b.push(*i);
            let point_here = match i.op {
                Opcode::CalcF => {
                    covering = covering.max(pc + 1);
                    while stream.get(covering).is_some_and(|n| n.op != Opcode::Save) {
                        covering += 1;
                    }
                    let save = stream.get(covering).ok_or_else(|| {
                        CompileError::Unsupported(format!("blob {} lacks a covering SAVE", i.blob))
                    })?;
                    self.unsaved.push(PendingBlob {
                        blob: i.blob,
                        layer: i.layer,
                        tile: i.tile,
                        save_id: save.save_id,
                    });
                    // No point between a CALC_F and the SAVE right after it.
                    stream.get(pc + 1).map(|n| n.op) != Some(Opcode::Save)
                }
                Opcode::Save => {
                    self.unsaved.retain(|pb| pb.save_id != i.save_id);
                    true
                }
                _ => false,
            };
            if point_here {
                let vir_start = b.pc();
                for pb in &self.unsaved {
                    let vir_save = vir_save_for(&b.layers[usize::from(pb.layer)], pb)?;
                    b.push(vir_save);
                }
                self.active.retain(|l| l.last_use > pc);
                for l in &self.active {
                    b.push(vir_load_for(&stream[l.pc]));
                }
                b.mark_interrupt_point(vir_start, i.layer);
            }
        }
        Ok(())
    }

    /// Fills `lives` with the run's loads and, for each, the pc of its last
    /// consumer before the data is overwritten or the run ends.
    ///
    /// [`calc_uses_load`] alone decides whether a CALC consumes a load; the
    /// [`LoadIndex`] windows only spare it the loads whose channels cannot
    /// intersect the CALC's, so the table equals the one a scan over every
    /// live load produces, for any tiling.
    fn liveness(&mut self, meta: &LayerMeta, stream: &[Instr], run: Range<usize>) {
        let instrs = &stream[run.clone()];
        let tiles = |op| instrs.iter().filter(move |i| i.op == op).map(|i| &i.tile);
        self.data.reset(tiles(Opcode::LoadD));
        self.weights.reset(tiles(Opcode::LoadW));
        self.lives.clear();
        let Self { lives, data, weights, .. } = self;
        for (pc, i) in run.zip(instrs) {
            match i.op {
                Opcode::LoadD | Opcode::LoadW => {
                    let index = if i.op == Opcode::LoadD { &mut *data } else { &mut *weights };
                    index.insert(&i.tile, lives.len());
                    lives.push(LiveLoad { pc, last_use: pc });
                }
                Opcode::CalcI | Opcode::CalcF => {
                    let mut touch = |idx: usize| {
                        if calc_uses_load(meta, i, &stream[lives[idx].pc]) {
                            lives[idx].last_use = pc;
                        }
                    };
                    for chans in consumed_data_channels(meta, i).into_iter().flatten() {
                        data.visit(&chans, None, &mut touch);
                    }
                    let ics = i.tile.ic_range();
                    let ics = meta.kind.reduces_input_channels().then_some(&ics);
                    weights.visit(&i.tile.chan_range(), ics, &mut touch);
                }
                _ => {}
            }
        }
    }
}

/// Applies the VI pass to an original-ISA program, one layer run at a time.
///
/// # Errors
///
/// [`CompileError::Unsupported`] when the input already contains virtual
/// instructions, a `CALC_F` blob has no covering `SAVE`, or a blob is too
/// large for one `VIR_SAVE` (malformed input); [`CompileError::Isa`] if the
/// produced program fails validation.
pub fn vi_pass(program: &Program) -> Result<Program, CompileError> {
    if !program.interrupt_points.is_empty() || program.instrs.iter().any(|i| i.op.is_virtual()) {
        return Err(CompileError::Unsupported(
            "vi_pass input must be an original-ISA program".into(),
        ));
    }
    let mut b = Program::builder(program.name.clone());
    b.layers = program.layers.clone();
    b.memory = program.memory.clone();
    let mut pass = ViPass::default();
    let mut start = 0;
    for run in program.instrs.chunk_by(|x, y| x.layer == y.layer) {
        pass.append(&mut b, &program.instrs, start..start + run.len())?;
        start += run.len();
    }
    b.build().map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, Compiler, LoopOrder};
    use inca_isa::ArchSpec;
    use inca_model::{zoo, Shape3};

    fn compiler() -> Compiler {
        Compiler::new(ArchSpec::angel_eye_big())
    }

    #[test]
    fn erasure_property_on_zoo() {
        for net in [
            zoo::tiny(Shape3::new(3, 16, 16)).unwrap(),
            zoo::mobilenet_v1(Shape3::new(3, 64, 64)).unwrap(),
            zoo::resnet18(Shape3::new(3, 64, 64)).unwrap(),
        ] {
            let c = compiler();
            let original = c.compile(&net).unwrap();
            let vi = c.compile_vi(&net).unwrap();
            let stripped: Vec<Instr> = vi.original_instrs().map(|(_, i)| *i).collect();
            assert_eq!(stripped, original.instrs, "{}", net.name);
        }
    }

    #[test]
    fn every_point_follows_calc_f_or_save() {
        let net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
        let vi = compiler().compile_vi(&net).unwrap();
        for p in &vi.interrupt_points {
            let before = vi.instrs[p.vir_start as usize - 1].op;
            assert!(matches!(before, Opcode::CalcF | Opcode::Save), "point after {before}");
        }
        assert!(!vi.interrupt_points.is_empty());
    }

    #[test]
    fn no_point_between_calc_f_and_save() {
        let net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
        let vi = compiler().compile_vi(&net).unwrap();
        for (pc, i) in vi.instrs.iter().enumerate() {
            if i.op == Opcode::CalcF
                && matches!(vi.instrs.get(pc + 1).map(|n| n.op), Some(Opcode::Save))
            {
                assert!(
                    !vi.interrupt_points.iter().any(|p| p.vir_start as usize == pc + 1),
                    "redundant point between CALC_F and SAVE at pc {pc}"
                );
            }
        }
    }

    #[test]
    fn vir_saves_cover_unsaved_prefix() {
        // Force multiple blobs per save group: 64 out channels -> 4 blobs,
        // group cap default 8 -> one SAVE per tile, so points after the
        // first blobs carry growing VIR_SAVE prefixes.
        let mut b = inca_model::NetworkBuilder::new("t", Shape3::new(16, 8, 8));
        let x = b.input_id();
        let c = b.conv("c", x, 64, 3, 1, 1, false).unwrap();
        let net = b.finish(vec![c]).unwrap();
        let vi = compiler().compile_vi(&net).unwrap();

        let mut seen = Vec::new();
        for p in &vi.interrupt_points {
            let virs: Vec<_> = vi.instrs[p.vir_range()]
                .iter()
                .filter(|i| i.op == Opcode::VirSave)
                .map(|i| i.blob)
                .collect();
            seen.push(virs);
        }
        // Mid-group points exist and are prefix-ordered by blob id.
        assert!(seen.iter().any(|v| !v.is_empty()));
        for virs in &seen {
            for w in virs.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
        // A point right after SAVE has no VIR_SAVEs.
        let after_save = vi
            .interrupt_points
            .iter()
            .find(|p| vi.instrs[p.vir_start as usize - 1].op == Opcode::Save)
            .unwrap();
        assert!(vi.instrs[after_save.vir_range()].iter().all(|i| i.op != Opcode::VirSave));
    }

    #[test]
    fn vir_load_d_restores_resident_tile_inputs() {
        // Resident conv: LOAD_Ds appear only in the first blob of each
        // height tile; a mid-tile point must restore them.
        let mut b = inca_model::NetworkBuilder::new("t", Shape3::new(16, 8, 8));
        let x = b.input_id();
        let c = b.conv("c", x, 64, 3, 1, 1, false).unwrap();
        let net = b.finish(vec![c]).unwrap();
        let vi = compiler().compile_vi(&net).unwrap();
        let mid_point = vi
            .interrupt_points
            .iter()
            .find(|p| {
                vi.instrs[p.vir_start as usize - 1].op == Opcode::CalcF
                    && vi.instrs[p.vir_range()].iter().any(|i| i.op == Opcode::VirLoadD)
            })
            .expect("expected a mid-tile point with VIR_LOAD_D");
        let vir_d: Vec<_> =
            vi.instrs[mid_point.vir_range()].iter().filter(|i| i.op == Opcode::VirLoadD).collect();
        // The restored bytes equal the original resident loads: all 16
        // input channels x 8 input rows x width 8.
        let total: u32 = vir_d.iter().map(|i| i.ddr.bytes).sum();
        assert_eq!(total, 16 * 8 * 8);
    }

    #[test]
    fn channel_outer_emits_vir_load_w() {
        let net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
        let arch = ArchSpec::angel_eye_big();
        let opts = CompileOptions::default().with_loop_order(LoopOrder::ChannelOuter);
        let c = Compiler::with_options(arch, opts);
        let vi = c.compile_vi(&net).unwrap();
        assert!(
            vi.instrs.iter().any(|i| i.op == Opcode::VirLoadW),
            "weight-resident order should need VIR_LOAD_W"
        );
    }

    #[test]
    fn vi_pass_rejects_vi_input() {
        let net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
        let c = compiler();
        let vi = c.compile_vi(&net).unwrap();
        assert!(matches!(vi_pass(&vi), Err(CompileError::Unsupported(_))));
    }

    #[test]
    fn vi_overhead_is_bounded() {
        // Virtual instructions cost nothing at run time when skipped, but
        // keep the stream size sane: < 6x the original for default options.
        let net = zoo::resnet18(Shape3::new(3, 64, 64)).unwrap();
        let c = compiler();
        let original = c.compile(&net).unwrap();
        let vi = c.compile_vi(&net).unwrap();
        assert!(vi.len() < original.len() * 6);
        assert!(vi.stats().virtual_instrs > 0);
    }

    /// The message of the `Unsupported` error `vi_pass` must return.
    fn unsupported(program: &Program) -> String {
        match vi_pass(program) {
            Err(CompileError::Unsupported(msg)) => msg,
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn oversized_blob_is_an_error_not_a_panic() {
        // 65535 channels x 65535 rows x 2 columns of one CALC_F tile do not
        // fit the u32 byte count of the VIR_SAVE that would flush it.
        let meta = layer(0, LayerKind::Conv { kernel: 1, stride: 1, pad: 0 }, 8, 8);
        let huge = Tile::new(0, u16::MAX, 0, u16::MAX, 0, 8);
        let program = stream(
            vec![meta],
            &[
                Instr::calc(Opcode::CalcF, 0, 7, huge),
                Instr::calc(Opcode::CalcF, 0, 8, Tile::new(0, 2, 0, 8, 0, 8)),
                save(0, 8, 0, 2, 0, 8),
            ],
        );
        let msg = unsupported(&program);
        assert!(msg.contains("blob 7"), "{msg}");
    }

    #[test]
    fn unsaved_blob_is_an_error() {
        let meta = layer(0, LayerKind::Conv { kernel: 1, stride: 1, pad: 0 }, 8, 8);
        let tile = Tile::new(0, 2, 0, 8, 0, 8);
        let program = stream(
            vec![meta],
            &[
                Instr::calc(Opcode::CalcF, 0, 0, tile),
                save(0, 0, 0, 2, 0, 8),
                Instr::calc(Opcode::CalcF, 0, 1, tile),
            ],
        );
        let msg = unsupported(&program);
        assert!(msg.contains("blob 1"), "{msg}");
    }

    // ---- the VI pass against the two-pass scan it replaced ----

    /// Load liveness as it stood at 87f6bd1 — every CALC walks every live
    /// load of its layer — kept as the oracle's first half.
    fn reference_load_liveness(program: &Program) -> Vec<LiveLoad> {
        use std::collections::HashMap;

        /// Buffer-slot key: a later load with the same key overwrites the data.
        fn slot_key(i: &Instr) -> (Opcode, u16, u16, u16, u16, u16) {
            (i.op, i.layer, i.tile.c0, i.tile.chans, i.tile.ic0, i.tile.ics)
        }

        let mut lives: Vec<LiveLoad> = Vec::new();
        let mut active: HashMap<(Opcode, u16, u16, u16, u16, u16), usize> = HashMap::new();
        let mut current_layer = u16::MAX;
        for (pc, i) in program.instrs.iter().enumerate() {
            if i.layer != current_layer {
                current_layer = i.layer;
                active.clear();
            }
            match i.op {
                Opcode::LoadD | Opcode::LoadW => {
                    let idx = lives.len();
                    lives.push(LiveLoad { pc, last_use: pc });
                    active.insert(slot_key(i), idx);
                }
                Opcode::CalcI | Opcode::CalcF => {
                    let meta = program.layer_of(i);
                    for &idx in active.values() {
                        if calc_uses_load(meta, i, &program.instrs[lives[idx].pc]) {
                            lives[idx].last_use = pc;
                        }
                    }
                }
                _ => {}
            }
        }
        lives
    }

    /// The VI pass as two whole-program passes — the reference liveness
    /// table, then one re-emit over the stream (`insert_virtual_groups` at
    /// e35ec79) — kept as the oracle for [`vi_pass`].
    fn reference_vi_pass(program: &Program) -> Program {
        let lives = reference_load_liveness(program);
        let instrs = &program.instrs;
        let mut b = Program::builder(program.name.clone());
        b.layers = program.layers.clone();
        b.memory = program.memory.clone();
        let mut unsaved: Vec<PendingBlob> = Vec::new();
        let mut active: Vec<LiveLoad> = Vec::new();
        let mut next_live = 0usize;
        for (pc, i) in instrs.iter().enumerate() {
            while next_live < lives.len() && lives[next_live].pc == pc {
                active.push(lives[next_live]);
                next_live += 1;
            }
            b.push(*i);
            let point_here = match i.op {
                Opcode::CalcF => {
                    let covering = instrs[pc + 1..].iter().find(|n| n.op == Opcode::Save);
                    let save_id = covering.expect("a covering SAVE").save_id;
                    unsaved.push(PendingBlob {
                        blob: i.blob,
                        layer: i.layer,
                        tile: i.tile,
                        save_id,
                    });
                    !matches!(instrs.get(pc + 1).map(|n| n.op), Some(Opcode::Save))
                }
                Opcode::Save => {
                    unsaved.retain(|pb| pb.save_id != i.save_id);
                    true
                }
                _ => false,
            };
            if point_here {
                let vir_start = b.pc();
                for pb in &unsaved {
                    b.push(vir_save_for(&program.layers[usize::from(pb.layer)], pb).unwrap());
                }
                active.retain(|l| l.last_use > pc);
                for l in &active {
                    b.push(vir_load_for(&instrs[l.pc]));
                }
                b.mark_interrupt_point(vir_start, i.layer);
            }
        }
        b.build().unwrap()
    }

    /// Holds the VI program `vi_pass` builds layer run by layer run equal
    /// to the reference's.
    fn assert_matches_reference(what: &str, original: &Program) {
        let got = vi_pass(original).unwrap();
        // `Program: PartialEq` compares instrs, interrupt points, blobs,
        // layers and memory map.
        assert!(got == reference_vi_pass(original), "VI programs differ: {what}");
    }

    /// The nets of the differential matrix.
    fn zoo_matrix() -> [inca_model::Network; 5] {
        [
            zoo::tiny(Shape3::new(3, 32, 32)).unwrap(),
            zoo::mobilenet_v1(Shape3::new(3, 96, 96)).unwrap(),
            zoo::resnet18(Shape3::new(3, 64, 64)).unwrap(),
            zoo::superpoint(Shape3::new(1, 120, 160)).unwrap(),
            zoo::gem_resnet101(Shape3::new(3, 120, 160)).unwrap(),
        ]
    }

    /// `f(label, original-ISA program)` for 2 loop orders x 3 save-group
    /// bounds on each of `angel_eye_big` / `angel_eye_small` that `on_arch`
    /// keeps.
    fn for_each_config(
        net: &inca_model::Network,
        on_arch: impl Fn(&str) -> bool,
        mut f: impl FnMut(&str, &Program),
    ) {
        for (arch_name, arch) in
            [("big", ArchSpec::angel_eye_big()), ("small", ArchSpec::angel_eye_small())]
        {
            if !on_arch(arch_name) {
                continue;
            }
            for order in [LoopOrder::HeightOuter, LoopOrder::ChannelOuter] {
                for max_blobs in [1, 2, 8] {
                    let options = CompileOptions::default()
                        .with_loop_order(order)
                        .with_max_blobs_per_save(max_blobs);
                    let original = Compiler::with_options(arch, options).compile(net).unwrap();
                    let label = format!("{} {arch_name} {order:?} group {max_blobs}", net.name);
                    f(&label, &original);
                }
            }
        }
    }

    /// Cells on which the reference makes 2 154 (GeM/ResNet101 on `big`),
    /// 4 657 (MobileNetV1 on `small`) and 6 805 (GeM/ResNet101 on `small`)
    /// evaluations per CALC: a minute to an hour each in a debug build.
    fn reference_is_slow(net: &str, arch: &str) -> bool {
        matches!((net, arch), ("gem_resnet101", _) | ("mobilenet_v1", "small"))
    }

    #[test]
    fn indexed_liveness_matches_reference_on_zoo_matrix() {
        for net in zoo_matrix() {
            for_each_config(
                &net,
                |arch| !reference_is_slow(&net.name, arch),
                assert_matches_reference,
            );
        }
    }

    #[test]
    #[ignore = "quadratic reference on the largest cells: ~6 min with --release, hours without"]
    fn indexed_liveness_matches_reference_on_slow_cells() {
        for net in zoo_matrix() {
            for_each_config(
                &net,
                |arch| reference_is_slow(&net.name, arch),
                assert_matches_reference,
            );
        }
    }

    /// The complexity guard, in evaluations of `calc_uses_load` instead of
    /// wall-clock time: at most 4 per CALC on every cell of the matrix and on
    /// the late-stage ResNet101 shape whose layer holds thousands of live
    /// `LOAD_W` slots. The scan this replaced made 1 703 per CALC on
    /// GeM/ResNet101 480x640 (589 410 300 for 346 052 CALCs) and 1 284 per
    /// CALC on MobileNetV1 96x96, two of which hit.
    #[test]
    fn liveness_evaluations_are_bounded_per_calc() {
        let mut b = inca_model::NetworkBuilder::new("conv1x1", Shape3::new(512, 30, 40));
        let x = b.input_id();
        let c = b.conv("c", x, 2048, 1, 1, 0, false).unwrap();
        let conv1x1 = b.finish(vec![c]).unwrap();
        for net in zoo_matrix().iter().chain([&conv1x1]) {
            for_each_config(
                net,
                |_| true,
                |label, original| {
                    USES_EVALS.with(|n| n.set(0));
                    let _ = vi_pass(original);
                    let evals = USES_EVALS.with(std::cell::Cell::get);
                    let calcs = original.instrs.iter().filter(|i| i.op.is_calc()).count() as u64;
                    assert!(evals <= 4 * calcs, "{label}: {evals} evaluations for {calcs} CALCs");
                    assert!(evals >= calcs, "{label}: every CALC consumes at least one load");
                },
            );
        }
    }

    // ---- hand-built streams: tiles codegen never emits ----

    fn layer(id: u16, kind: LayerKind, c_in: u32, c_out: u32) -> LayerMeta {
        LayerMeta {
            id,
            name: format!("l{id}"),
            kind,
            in_shape: Shape3::new(c_in, 8, 8),
            out_shape: Shape3::new(c_out, 8, 8),
            input_addr: 0,
            input2_addr: matches!(kind, LayerKind::Add).then_some(0),
            output_addr: 0,
            weight_addr: 0,
            weight_bytes: 0,
            quant_shift: 0,
            relu: false,
        }
    }

    /// A program of `instrs` as given, `SAVE`s numbered in stream order.
    fn stream(layers: Vec<LayerMeta>, instrs: &[Instr]) -> Program {
        let mut b = Program::builder("hand-built");
        b.layers = layers;
        for i in instrs {
            let id = if i.op == Opcode::Save { b.alloc_save_id() } else { 0 };
            b.push(i.with_save_id(id));
        }
        b.build().unwrap()
    }

    fn load_d(layer: u16, blob: u32, h0: u16, rows: u16, c0: u16, chans: u16) -> Instr {
        let tile = Tile::rows_chans(h0, rows, c0, chans);
        Instr::transfer(Opcode::LoadD, layer, blob, tile, DdrRange::new(0, 64))
    }

    fn load_w(layer: u16, blob: u32, c0: u16, chans: u16, ic0: u16, ics: u16) -> Instr {
        let tile = Tile::new(0, 0, c0, chans, ic0, ics);
        Instr::transfer(Opcode::LoadW, layer, blob, tile, DdrRange::new(0, 64))
    }

    fn save(layer: u16, blob: u32, h0: u16, rows: u16, c0: u16, chans: u16) -> Instr {
        let tile = Tile::rows_chans(h0, rows, c0, chans);
        Instr::transfer(Opcode::Save, layer, blob, tile, DdrRange::new(0, 64))
    }

    /// A conv 40 -> 48 whose `LOAD_D`s straddle the CALCs' 16-wide input
    /// channel groups and whose `LOAD_W`s overlap one another in both
    /// channel dimensions, at four different widths.
    #[test]
    fn overlapping_windows_match_reference() {
        let conv = LayerKind::Conv { kernel: 3, stride: 1, pad: 1 };
        let calcs = |blob: u32, c0: u16| {
            [(Opcode::CalcI, 0, 16), (Opcode::CalcI, 16, 16), (Opcode::CalcF, 32, 8)]
                .map(|(op, ic0, ics)| Instr::calc(op, 0, blob, Tile::new(0, 8, c0, 16, ic0, ics)))
        };
        let mut instrs = vec![
            load_d(0, 0, 0, 8, 0, 10),
            load_d(0, 0, 0, 8, 10, 17),
            load_d(0, 0, 0, 8, 27, 13),
            load_w(0, 0, 0, 24, 0, 20),
            load_w(0, 0, 0, 24, 20, 20),
            load_w(0, 0, 8, 4, 4, 4),
        ];
        instrs.extend(calcs(0, 0));
        instrs.extend([load_w(0, 1, 24, 24, 0, 40), load_w(0, 1, 20, 6, 10, 20)]);
        instrs.extend(calcs(1, 16));
        instrs.push(save(0, 1, 0, 8, 0, 32));
        // Same slots again: the first loads are overwritten, and of the new
        // ones only the data is consumed by the last blob.
        instrs.extend([load_d(0, 2, 0, 4, 0, 10), load_w(0, 2, 0, 24, 0, 20)]);
        instrs.extend(calcs(2, 32));
        instrs.push(save(0, 2, 0, 8, 32, 16));
        let program = stream(vec![layer(0, conv, 40, 48)], &instrs);
        assert_matches_reference("overlapping", &program);
        let vi = vi_pass(&program);
        assert!(vi.unwrap().instrs.iter().any(|i| i.op == Opcode::VirLoadW));
    }

    /// An `Add` (two consumed channel ranges, the second at `C_in + c0`)
    /// whose loads straddle the operand boundary, include one load of the
    /// whole buffer and two of zero width, followed by a depthwise layer
    /// whose `LOAD_W`s ignore input channels.
    #[test]
    fn straddling_windows_match_reference() {
        let dw = LayerKind::DwConv { kernel: 3, stride: 1, pad: 1 };
        let calc_f = |layer, blob, c0, chans| {
            Instr::calc(Opcode::CalcF, layer, blob, Tile::new(0, 8, c0, chans, c0, chans))
        };
        let instrs = [
            load_d(0, 0, 0, 8, 0, 64),
            load_d(0, 0, 0, 8, 24, 16),
            load_d(0, 0, 0, 8, 5, 0),
            load_d(0, 0, 0, 8, 40, 0),
            load_d(0, 0, 0, 8, 47, 1),
            calc_f(0, 0, 0, 12),
            load_d(0, 1, 0, 8, 12, 3),
            load_d(0, 1, 4, 4, 24, 16),
            calc_f(0, 1, 12, 4),
            calc_f(0, 2, 16, 0),
            calc_f(0, 3, 16, 16),
            save(0, 3, 0, 8, 0, 32),
            load_d(1, 4, 0, 8, 0, 20),
            load_d(1, 4, 0, 8, 20, 12),
            load_w(1, 4, 0, 20, 7, 3),
            load_w(1, 4, 12, 20, 0, 0),
            load_w(1, 4, 18, 1, 18, 1),
            calc_f(1, 4, 0, 16),
            calc_f(1, 5, 16, 16),
            save(1, 5, 0, 8, 0, 32),
        ];
        let layers = vec![layer(0, LayerKind::Add, 32, 32), layer(1, dw, 32, 32)];
        assert_matches_reference("straddling", &stream(layers, &instrs));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// A random graph over every layer kind codegen tiles differently:
        /// conv, depthwise, pooling, a residual `Add` and a GeM + FC head.
        fn arb_network() -> impl Strategy<Value = inca_model::Network> {
            let body = prop::collection::vec((0u8..5, 1u32..=40), 1..5);
            ((1u32..=24, 8u32..=24, 8u32..=24), body, any::<bool>(), any::<bool>()).prop_map(
                |((c, h, w), ops, residual, head)| {
                    let mut b = inca_model::NetworkBuilder::new("prop", Shape3::new(c, h, w));
                    let mut x = b.input_id();
                    for (n, (op, width)) in ops.into_iter().enumerate() {
                        let name = format!("l{n}");
                        x = match op {
                            0 => b.conv(&name, x, width, 3, 1, 1, true).unwrap(),
                            1 => b.conv(&name, x, width, 1, 1, 0, false).unwrap(),
                            2 => b.dw_conv(&name, x, 3, 1, 1, true).unwrap(),
                            3 => b.max_pool(&name, x, 2, 1, 0).unwrap(),
                            _ => b.avg_pool(&name, x, 3, 1, 1).unwrap(),
                        };
                    }
                    if residual {
                        let y = b.conv("res_a", x, 20, 3, 1, 1, false).unwrap();
                        let z = b.conv("res_b", x, 20, 1, 1, 0, false).unwrap();
                        x = b.add("res_add", y, z, true).unwrap();
                    }
                    if head {
                        let g = b.gem_pool("gem", x, 3).unwrap();
                        x = b.fully_connected("fc", g, 33, false).unwrap();
                    }
                    b.finish(vec![x]).unwrap()
                },
            )
        }

        /// Two layers of 32 channels and a stream of random tiles hopping
        /// between them, a final `SAVE` covering whatever blobs are open.
        fn arb_stream() -> impl Strategy<Value = Program> {
            let kinds = vec![
                LayerKind::Conv { kernel: 3, stride: 1, pad: 1 },
                LayerKind::DwConv { kernel: 3, stride: 2, pad: 1 },
                LayerKind::Add,
                LayerKind::FullyConnected,
            ];
            let tile = (0u16..8, 0u16..6, 0u16..70, 0u16..24, 0u16..40, 0u16..24);
            let step = (0u8..9, 0u16..2, tile);
            (
                prop::sample::select(kinds.clone()),
                prop::sample::select(kinds),
                prop::collection::vec(step, 1..60),
            )
                .prop_map(|(kind0, kind1, steps)| {
                    let meta = |id, kind| {
                        let mut m = layer(id, kind, 32, 32);
                        match kind {
                            LayerKind::DwConv { .. } => m.out_shape = Shape3::new(32, 4, 4),
                            LayerKind::FullyConnected => m.out_shape = Shape3::new(32, 1, 1),
                            _ => {}
                        }
                        m
                    };
                    let mut blob = 0;
                    let mut instrs = Vec::new();
                    for (op, layer, (h0, rows, c0, chans, ic0, ics)) in steps {
                        let tile = Tile::new(h0, rows, c0, chans, ic0, ics);
                        instrs.push(match op {
                            0..=2 => load_d(layer, blob, h0, rows, c0, chans),
                            3..=5 => load_w(layer, blob, c0, chans, ic0, ics),
                            6 => Instr::calc(Opcode::CalcI, layer, blob, tile),
                            7 => Instr::calc(Opcode::CalcF, layer, blob, tile),
                            _ => save(layer, blob, h0, rows, c0, chans),
                        });
                        blob += u32::from(op == 7);
                    }
                    instrs.push(save(1, blob, 0, 1, 0, 1));
                    stream(vec![meta(0, kind0), meta(1, kind1)], &instrs)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn random_networks_match_reference(
                net in arb_network(),
                small in any::<bool>(),
                channel_outer in any::<bool>(),
                max_blobs in prop::sample::select(vec![1u16, 2, 8]),
            ) {
                let arch = if small { ArchSpec::angel_eye_small() } else { ArchSpec::angel_eye_big() };
                let order = if channel_outer { LoopOrder::ChannelOuter } else { LoopOrder::HeightOuter };
                let options = CompileOptions::default()
                    .with_loop_order(order)
                    .with_max_blobs_per_save(max_blobs);
                let original = Compiler::with_options(arch, options).compile(&net).unwrap();
                assert_matches_reference("random network", &original);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn random_tile_streams_match_reference(program in arb_stream()) {
                assert_matches_reference("random stream", &program);
            }
        }
    }
}
