//! Tier-1 layer executor: runs a compiled [`LayerPlan`] — the whole layer,
//! or the part of it between two cuts — as one fused, branch-free pass over
//! the task's DDR image.
//!
//! The plan compiler (`inca_isa::plan`) has already proven, symbolically
//! against the instruction stream, that the layer's loads place exactly
//! the canonically-addressed operand bytes its CALCs consume and that its
//! SAVEs store exactly the cells its blobs finalise. The executor can
//! therefore skip the interpreter's per-instruction dispatch and per-tile
//! buffer bookkeeping entirely: it stages each operand *once* from its
//! resolved DDR addresses, runs the same kernels as the Tier-0 fast path
//! over the whole layer, quantises, and writes the plan's store
//! spans — bit-identical to stepping (wrapping `i32` accumulation is
//! order-independent, and the plan deopts any layer where the
//! interpreter's saturating per-group merge could diverge).
//!
//! A part of a layer computes only the output region its stores and the
//! blobs it hands on read ([`Part`]), from the same DDR operands. The
//! executor never reads the on-chip buffer models (`Buffers`): what a span
//! leaves there — its stores' blobs retired and, at a cut, the cut's live
//! loads and unstored blobs — the backend writes after it (DESIGN.md
//! §5.6), so snapshots, restores and rebinds behave exactly as under
//! stepping. Any condition the plan could not rule out at compile time —
//! image too small, per-job offsets aliasing a store hull onto an operand
//! hull — makes [`run_plan`] decline, and the engine steps the layer
//! through the interpreter instead.

use std::ops::Range;

use inca_isa::plan::{Edge, Hull, LayerPlan, StoreSpan};
use inca_isa::{Instr, LayerKind, LayerMeta, Opcode, Program, Tile};

use crate::SavePatch;

use super::kernels::{
    conv_gemm, dw_channel, gem, pool_channel, pool_pad, run_channels, GemmBlocks,
};
use super::stage::{fill_col_valid, Geom};
use super::DdrImage;

/// Persistent Tier-1 staging buffers, reused across layers (transient —
/// never part of snapshots, exactly like the Tier-0 `Stage`).
#[derive(Debug, Clone, Default)]
pub(super) struct Tier1State {
    /// Zero-padded staged input frames, `channels × n_vr × stage_w`.
    frames: Vec<i8>,
    /// Dense staged depthwise weights, canonical `c × k²` layout.
    weights: Vec<i8>,
    /// The convolution GEMM's operand blocks.
    gemm: GemmBlocks,
    /// Whole-layer accumulator, `c_out × h_out × w_out`.
    scratch: Vec<i32>,
    /// Per-output-column valid counts for pooling.
    col_valid: Vec<i32>,
    /// Byte staging for store spans.
    row_bytes: Vec<u8>,
    /// The plan's store hulls with each span's own shift applied.
    store_hulls: Vec<Hull>,
}

/// What one span runs of a layer's plan: the stores between its two edges,
/// the job's pending SAVE patches (which may shorten or elide them), and
/// the output region those stores and the blobs handed on at its end read.
pub(super) struct Part<'a> {
    pub(super) from: Edge,
    pub(super) to: Edge,
    pub(super) stores: Range<usize>,
    pub(super) patches: &'a [SavePatch],
    /// Rows `h0..h0 + rows` and channels `c0..c0 + chans` of the layer's
    /// output (every input channel: `ics = c_in`).
    pub(super) region: Tile,
}

impl<'a> Part<'a> {
    pub(super) fn new(
        program: &Program,
        plan: &LayerPlan,
        from: Edge,
        to: Edge,
        patches: &'a [SavePatch],
    ) -> Self {
        let meta = &program.layers[usize::from(plan.layer)];
        let stores = plan.before(from).0..plan.before(to).0;
        let c_in = meta.in_shape.c as u16;
        let region = if (from, to) == (Edge::Start, Edge::End) {
            Tile::new(0, meta.out_shape.h as u16, 0, meta.out_shape.c as u16, 0, c_in)
        } else {
            // The bounding box of what the span's stores write and of the
            // blobs it hands on: at most a band of cells beyond them.
            let written = plan.stores[stores.clone()].iter().filter_map(|s| written(s, patches));
            let handed = handed_on(program, plan, from, to).map(|v| v.tile);
            let (mut rows, mut chans) = ((u16::MAX, 0), (u16::MAX, 0));
            for t in written.chain(handed) {
                rows = (rows.0.min(t.h0), rows.1.max(t.h0 + t.rows));
                chans = (chans.0.min(t.c0), chans.1.max(t.c0 + t.chans));
            }
            let (h0, c0) = (rows.0.min(rows.1), chans.0.min(chans.1));
            Tile::new(h0, rows.1 - h0, c0, chans.1 - c0, 0, c_in)
        };
        Self { from, to, stores, patches, region }
    }

    /// Whether one of the part's stores writes a cell of `tile`.
    pub(super) fn writes(&self, plan: &LayerPlan, tile: &Tile) -> bool {
        let overlap = |a0: u16, a: u16, b0: u16, b: u16| a0 < b0 + b && b0 < a0 + a;
        plan.stores[self.stores.clone()].iter().filter_map(|s| written(s, self.patches)).any(|w| {
            overlap(w.h0, w.rows, tile.h0, tile.rows) && overlap(w.c0, w.chans, tile.c0, tile.chans)
        })
    }

    /// The `rows` output rows from `h0` of channel `c`, as computed.
    fn rows<'s>(&self, scratch: &'s [i32], c: u16, h0: u16, rows: u16, w_out: usize) -> &'s [i32] {
        let t = &self.region;
        let base = (usize::from(c - t.c0) * usize::from(t.rows) + usize::from(h0 - t.h0)) * w_out;
        &scratch[base..base + usize::from(rows) * w_out]
    }

    /// A handed-on blob's accumulators (`chans × rows × w_out`, the
    /// output buffer's layout) out of the computed region.
    pub(super) fn blob(&self, state: &Tier1State, tile: &Tile, w_out: usize) -> Vec<i32> {
        let mut acc = Vec::with_capacity(usize::from(tile.chans) * usize::from(tile.rows) * w_out);
        for c in tile.c0..tile.c0 + tile.chans {
            acc.extend_from_slice(self.rows(&state.scratch, c, tile.h0, tile.rows, w_out));
        }
        acc
    }
}

/// The output cells store `s` writes under the job's `patches` — its tile
/// less the channels a patch says are flushed — or `None` when a patch
/// elides it.
pub(super) fn written(s: &StoreSpan, patches: &[SavePatch]) -> Option<Tile> {
    let first = match patches.iter().find(|p| p.pc == s.pc as usize) {
        Some(patch) => patch.first_channel(s.c0, s.chans)?,
        None => s.c0,
    };
    Some(Tile::rows_chans(s.h0, s.rows, first, s.c0 + s.chans - first))
}

/// The blobs a span from `from` to `to` finalises and leaves unstored: the
/// `VIR_SAVE`s of `to`'s group that `from`'s does not already hold.
pub(super) fn handed_on<'p>(
    program: &'p Program,
    plan: &LayerPlan,
    from: Edge,
    to: Edge,
) -> impl Iterator<Item = &'p Instr> {
    let group = |edge| -> &'p [Instr] {
        match edge {
            Edge::Cut(i) => {
                let cut = &plan.cuts[i];
                &program.instrs[cut.vir_start as usize..cut.vir_end as usize]
            }
            Edge::Start | Edge::End => &[],
        }
    };
    let (pending, after) = (group(from), group(to));
    after.iter().filter(move |v| v.op == Opcode::VirSave && !pending.contains(*v))
}

/// Executes `part` of `plan` against `image`. Returns `false` (leaving all
/// state untouched) when a runtime precondition fails; the caller then
/// deopts the layer to the interpreter.
pub(super) fn run_plan(
    state: &mut Tier1State,
    image: &mut DdrImage,
    bytes_written: &mut u64,
    threads: usize,
    meta: &LayerMeta,
    plan: &LayerPlan,
    part: &Part,
) -> bool {
    let capacity = image.capacity();
    let (input_hull, input2_hull) = (plan.input_hull, plan.input2_hull);
    let (h_out, w_out) = (u64::from(meta.out_shape.h), u64::from(meta.out_shape.w));
    state.store_hulls.clear();
    state.store_hulls.extend(plan.stores.iter().map(|s| {
        let end = s.addr + u64::from(s.chans - 1) * h_out * w_out + u64::from(s.rows) * w_out;
        Hull { start: s.addr, end }
    }));
    // Every region the fused pass touches must fit the image, and stores
    // must not alias any operand region (stepping interleaves loads and
    // saves; the fused pass stages everything up front).
    let operand_hulls = [Some(input_hull), input2_hull, plan.weight_hull].into_iter().flatten();
    for h in operand_hulls.clone() {
        if h.end > capacity {
            return false;
        }
    }
    for sh in &state.store_hulls {
        if sh.end > capacity {
            return false;
        }
        if operand_hulls.clone().any(|h| h.overlaps(*sh)) {
            return false;
        }
    }

    let (c_in, h_in, w_in) =
        (meta.in_shape.c as usize, meta.in_shape.h as usize, meta.in_shape.w as usize);
    let w_out_u = meta.out_shape.w as usize;
    let t = part.region;
    let (c0, chans) = (usize::from(t.c0), usize::from(t.chans));
    let g = Geom::new(&t, meta);
    let k2 = g.k * g.k;
    // Operand channel `c` of the input feature map starts here.
    let channel = |c: usize| input_hull.start + (c * h_in * w_in) as u64;
    state.scratch.clear();
    state.scratch.resize(chans * g.chan_stride(), 0);

    match meta.kind {
        // A fully-connected layer is a 1×1 convolution over a 1×1 plane.
        LayerKind::Conv { .. } | LayerKind::FullyConnected => {
            stage_frames(state, image, input_hull.start, c_in, h_in, &g, 0);
            let per_oc = c_in * k2;
            let weights =
                image.read(meta.weight_addr + (c0 * per_oc) as u64, (chans * per_oc) as u64);
            let Tier1State { frames, gemm, scratch, .. } = state;
            conv_gemm(frames, weights, |b| i16::from(b as i8), gemm, scratch, &g, threads);
        }
        LayerKind::DwConv { .. } => {
            stage_weights(state, image, meta.weight_addr + (c0 * k2) as u64, chans * k2);
            stage_frames(state, image, channel(c0), chans, h_in, &g, 0);
            let macs = (g.chans * g.chan_stride() * k2) as u64;
            let Tier1State { frames, weights, scratch, .. } = state;
            let (frames, weights) = (frames.as_slice(), weights.as_slice());
            run_channels(scratch, &g, threads, macs, |cr, acc| {
                dw_channel(&frames[cr * g.frame_stride()..], &weights[cr * k2..], acc, &g);
            });
        }
        LayerKind::Pool { kind, .. } => {
            stage_frames(state, image, channel(c0), chans, h_in, &g, pool_pad(kind));
            fill_col_valid(&mut state.col_valid, &g);
            let macs = (g.chans * g.chan_stride() * k2) as u64;
            let Tier1State { frames, scratch, col_valid, .. } = state;
            let (frames, col_valid) = (frames.as_slice(), col_valid.as_slice());
            run_channels(scratch, &g, threads, macs, |cr, acc| {
                pool_channel(&frames[cr * g.frame_stride()..], acc, &g, kind, col_valid);
            });
        }
        LayerKind::GlobalPool { p } => {
            let n = h_in * w_in;
            for (cr, acc) in state.scratch.chunks_mut(g.chan_stride().max(1)).enumerate() {
                let pixels = image.read(channel(c0 + cr), n as u64);
                acc[0] = gem(pixels.iter().map(|&b| b as i8), n, p);
            }
        }
        LayerKind::Add => {
            let base2 = input2_hull.expect("Add plan has operand-2 hull").start;
            let h0 = usize::from(t.h0);
            for (cr, acc) in state.scratch.chunks_mut(g.chan_stride().max(1)).enumerate() {
                for rr in 0..g.out_rows {
                    let row = ((c0 + cr) * h_in + h0 + rr) * w_in;
                    let a = image.read(input_hull.start + row as u64, w_out);
                    let b = image.read(base2 + row as u64, w_out);
                    let out = &mut acc[rr * w_out_u..(rr + 1) * w_out_u];
                    for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
                        *o = i32::from(av as i8) + i32::from(bv as i8);
                    }
                }
            }
        }
    }

    // Quantise the region (the interpreter does this per-blob on
    // `CALC_F`; per-element the math is identical).
    let shift = meta.quant_shift;
    let relu = meta.relu;
    for v in &mut state.scratch {
        let mut x = *v >> shift;
        if relu {
            x = x.max(0);
        }
        *v = x.clamp(-128, 127);
    }

    // Store spans, in pc order — byte-for-byte the interpreter's (patched)
    // SAVE loop (per channel, rows are contiguous both in the accumulator
    // and in DDR).
    let plane = (h_out * w_out) as usize;
    let stores =
        plan.stores[part.stores.clone()].iter().zip(&state.store_hulls[part.stores.clone()]);
    for (s, hull) in stores {
        let Some(w) = written(s, part.patches) else { continue };
        for c in w.c0..w.c0 + w.chans {
            let src = part.rows(&state.scratch, c, s.h0, s.rows, w_out_u);
            state.row_bytes.clear();
            state.row_bytes.extend(src.iter().map(|&v| v as i8 as u8));
            image.write(hull.start + (usize::from(c - s.c0) * plane) as u64, &state.row_bytes);
            *bytes_written += u64::from(s.rows) * w_out;
        }
    }
    true
}

/// Stages the whole depthwise weight region (canonical dense layout) as `i8`.
fn stage_weights(state: &mut Tier1State, image: &DdrImage, addr: u64, len: usize) {
    state.weights.clear();
    state.weights.extend(image.read(addr, len as u64).iter().map(|&b| b as i8));
}

/// Stages padded per-channel row frames for `chans` operand channels
/// straight from the DDR image at canonical row addresses — the same
/// demand pattern (deduplicated virtual rows, clipped to the image) as
/// the Tier-0 `Stage::stage_rows`.
fn stage_frames(
    state: &mut Tier1State,
    image: &DdrImage,
    base: u64,
    chans: usize,
    h_in: usize,
    g: &Geom,
    pad: i8,
) {
    let frame = g.frame_stride();
    state.frames.clear();
    state.frames.resize(chans * frame, pad);
    for (ci, dst_frame) in state.frames.chunks_mut(frame.max(1)).enumerate() {
        let mut next = 0usize;
        for rr in 0..g.out_rows {
            for ky in 0..g.k {
                let vr = rr * g.s + ky;
                if vr < next {
                    continue;
                }
                next = vr + 1;
                let in_r = g.vr0 + vr as i64;
                if in_r < 0 || in_r >= g.h_in {
                    continue;
                }
                let addr = base + ((ci * h_in + in_r as usize) * g.w_in) as u64;
                let src = image.read(addr, g.w_in as u64);
                for (d, &s) in dst_frame[vr * g.stage_w + g.p..vr * g.stage_w + g.p + g.w_in]
                    .iter_mut()
                    .zip(src)
                {
                    *d = s as i8;
                }
            }
        }
    }
}
