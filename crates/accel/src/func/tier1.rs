//! Tier-1 layer executor: runs a compiled [`LayerPlan`] as one fused,
//! branch-free whole-layer pass over the task's DDR image.
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
//! The executor never touches the on-chip buffer models (`Buffers`): a
//! fully-batched layer leaves no *observable* buffer state behind (its
//! planes are only read by its own instructions and its blobs are retired
//! by its SAVEs), so snapshots, restores and rebinds behave exactly as
//! under stepping. Any condition the plan could not rule out at compile
//! time — image too small, per-job offsets aliasing a store hull onto an
//! operand hull — makes [`run_plan`] decline, and the engine steps the
//! layer through the interpreter instead.

use inca_isa::plan::{Hull, LayerPlan};
use inca_isa::{LayerKind, LayerMeta, PoolKind, Tile};

use super::kernels::{conv_gemm, dw_channel, pool_channel, run_channels, GemmBlocks};
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

/// Executes `plan` against `image`. Returns `false` (leaving all state
/// untouched) when a runtime precondition fails; the caller then deopts
/// the layer to the interpreter.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_plan(
    state: &mut Tier1State,
    image: &mut DdrImage,
    bytes_written: &mut u64,
    threads: usize,
    meta: &LayerMeta,
    plan: &LayerPlan,
    in_off: u64,
    out_off: u64,
) -> bool {
    let capacity = image.capacity();
    let in_shift = if plan.input_shifted { in_off } else { 0 };
    let in2_shift = if plan.input2_shifted { in_off } else { 0 };
    let input_hull = plan.input_hull.shifted(in_shift);
    let input2_hull = plan.input2_hull.map(|h| h.shifted(in2_shift));
    let (h_out, w_out) = (u64::from(meta.out_shape.h), u64::from(meta.out_shape.w));
    state.store_hulls.clear();
    state.store_hulls.extend(plan.stores.iter().map(|s| {
        let base = s.addr + if s.shifted { out_off } else { 0 };
        let end = base + u64::from(s.chans - 1) * h_out * w_out + u64::from(s.rows) * w_out;
        Hull { start: base, end }
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
    let (c_out, h_out_u, w_out_u) =
        (meta.out_shape.c as usize, meta.out_shape.h as usize, meta.out_shape.w as usize);
    let whole = Tile::new(0, meta.out_shape.h as u16, 0, meta.out_shape.c as u16, 0, c_in as u16);
    let g = Geom::new(&whole, meta);
    state.scratch.clear();
    state.scratch.resize(c_out * h_out_u * w_out_u, 0);

    match meta.kind {
        // A fully-connected layer is a 1×1 convolution over a 1×1 plane.
        LayerKind::Conv { .. } | LayerKind::FullyConnected => {
            stage_frames(state, image, input_hull.start, c_in, h_in, &g, 0);
            let weights = image.read(meta.weight_addr, (c_out * c_in * g.k * g.k) as u64);
            let Tier1State { frames, gemm, scratch, .. } = state;
            conv_gemm(frames, weights, |b| i16::from(b as i8), gemm, scratch, &g, threads);
        }
        LayerKind::DwConv { .. } => {
            let k2 = g.k * g.k;
            stage_weights(state, image, meta.weight_addr, c_out * k2);
            stage_frames(state, image, input_hull.start, c_out, h_in, &g, 0);
            let macs = (g.chans * g.chan_stride() * k2) as u64;
            let Tier1State { frames, weights, scratch, .. } = state;
            let (frames, weights) = (frames.as_slice(), weights.as_slice());
            run_channels(scratch, &g, threads, macs, |cr, acc| {
                dw_channel(&frames[cr * g.frame_stride()..], &weights[cr * k2..], acc, &g);
            });
        }
        LayerKind::Pool { kind, .. } => {
            let pad = match kind {
                PoolKind::Max => i8::MIN,
                PoolKind::Avg => 0,
                PoolKind::Gem { .. } => return false, // plan never compiles this
            };
            stage_frames(state, image, input_hull.start, c_out, h_in, &g, pad);
            fill_col_valid(&mut state.col_valid, &g);
            let macs = (g.chans * g.chan_stride() * g.k * g.k) as u64;
            let Tier1State { frames, scratch, col_valid, .. } = state;
            let (frames, col_valid) = (frames.as_slice(), col_valid.as_slice());
            run_channels(scratch, &g, threads, macs, |cr, acc| {
                pool_channel(&frames[cr * g.frame_stride()..], acc, &g, kind, col_valid);
            });
        }
        LayerKind::GlobalPool { kind } => {
            // Mirrors the Tier-0 `global_pool` arithmetic exactly,
            // including the f64 GeM accumulation order (ascending rows,
            // then columns).
            let n = (h_in * w_in) as i64;
            for (c, acc) in state.scratch.chunks_mut(g.chan_stride().max(1)).enumerate() {
                let mut sum = 0i64;
                let mut powered = 0f64;
                let mut max = i64::MIN;
                for r in 0..h_in {
                    let addr = input_hull.start + ((c * h_in + r) * w_in) as u64;
                    for &b in image.read(addr, w_in as u64) {
                        let v = i64::from(b as i8);
                        sum += v;
                        max = max.max(v);
                        if let PoolKind::Gem { p } = kind {
                            powered += f64::from(v.max(0) as i32).powi(i32::from(p));
                        }
                    }
                }
                acc[0] = match kind {
                    PoolKind::Avg => (sum / n.max(1)) as i32,
                    PoolKind::Max => max.max(0) as i32,
                    PoolKind::Gem { p } => {
                        let mean = powered / n.max(1) as f64;
                        mean.powf(1.0 / f64::from(p)).round() as i32
                    }
                };
            }
        }
        LayerKind::Add => {
            let base2 = input2_hull.expect("Add plan has operand-2 hull").start;
            for (c, acc) in state.scratch.chunks_mut(g.chan_stride().max(1)).enumerate() {
                for rr in 0..h_out_u {
                    let a = image.read(input_hull.start + ((c * h_in + rr) * w_in) as u64, w_out);
                    let b = image.read(base2 + ((c * h_in + rr) * w_in) as u64, w_out);
                    let out = &mut acc[rr * w_out_u..(rr + 1) * w_out_u];
                    for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
                        *o = i32::from(av as i8) + i32::from(bv as i8);
                    }
                }
            }
        }
    }

    // Quantise the whole layer (the interpreter does this per-blob on
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

    // Store spans, in pc order — byte-for-byte the interpreter's SAVE
    // loop (per channel, rows are contiguous both in the accumulator and
    // in DDR).
    let plane = h_out_u * w_out_u;
    for (s, hull) in plan.stores.iter().zip(&state.store_hulls) {
        for j in 0..usize::from(s.chans) {
            let src_base = (usize::from(s.c0) + j) * plane + usize::from(s.h0) * w_out_u;
            let src = &state.scratch[src_base..src_base + usize::from(s.rows) * w_out_u];
            state.row_bytes.clear();
            state.row_bytes.extend(src.iter().map(|&v| v as i8 as u8));
            image.write(hull.start + (j * plane) as u64, &state.row_bytes);
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
