//! Branch-free CALC kernels over staged operands, with a deterministic
//! scoped worker pool.
//!
//! Convolutions and fully-connected layers — in both execution tiers — run
//! through one blocked int8 GEMM ([`conv_gemm`]); depthwise and pooling keep
//! row-wise kernels. Every kernel here is bit-identical to
//! [`super::reference`]: the staged frames materialise the reference
//! kernel's bounds checks as padding that contributes the identity element,
//! and `i32` accumulation is wrapping — integer addition is associative and
//! commutative mod 2³², so neither the loop-order change nor the channel
//! partitioning can alter a single bit (see DESIGN.md, "Functional backend
//! fast path"). Overflow, which would distinguish wrapping `i32` from the
//! reference's clamped `i64`, is ruled out for realistic layer shapes
//! (`ics·k²·127² ≪ 2³¹`) and asserted against by the property tests.

use inca_isa::{Instr, LayerKind, LayerMeta, PoolKind};

use super::stage::{Geom, Stage};
use super::{Buffers, SimError};

/// Below this many MACs a tile runs inline: spawn/join overhead would
/// exceed the work. Determinism is unaffected either way.
const PAR_MIN_MACS: u64 = 1 << 18;

/// Upper bound on each of the GEMM's two widened operand blocks.
const BLOCK_BYTES: usize = 256 << 10;

/// Executes one CALC instruction's arithmetic into `stage.scratch`
/// (blob-layout `i32`, wrapping accumulation).
pub(super) fn calc_into(
    bufs: &Buffers,
    stage: &mut Stage,
    instr: &Instr,
    meta: &LayerMeta,
    threads: usize,
) -> Result<(), SimError> {
    let t = instr.tile;
    let layer = instr.layer;
    let g = Geom::new(&t, meta);
    stage.reset_scratch(g.chans * g.chan_stride());
    if stage.scratch.is_empty() {
        return Ok(());
    }

    match meta.kind {
        // A fully-connected layer is a 1×1 convolution over a 1×1 plane.
        LayerKind::Conv { .. } | LayerKind::FullyConnected => {
            stage.stage_conv_weights(bufs, layer, &t, g.k * g.k)?;
            stage.stage_rows(bufs, layer, t.ic_range(), &g, 0)?;
            let Stage { rows, weights, gemm, scratch, .. } = stage;
            conv_gemm(rows, weights, i16::from, gemm, scratch, &g, threads);
        }
        LayerKind::DwConv { .. } => {
            let k2 = g.k * g.k;
            stage.stage_dw_weights(bufs, layer, &t, k2)?;
            stage.stage_rows(bufs, layer, t.chan_range(), &g, 0)?;
            let macs = (g.chans * g.chan_stride() * k2) as u64;
            let Stage { rows, weights, scratch, .. } = stage;
            let (rows, weights) = (rows.as_slice(), weights.as_slice());
            run_channels(scratch, &g, threads, macs, |cr, acc| {
                dw_channel(&rows[cr * g.frame_stride()..], &weights[cr * k2..], acc, &g);
            });
        }
        LayerKind::Pool { kind, .. } => {
            let pad = match kind {
                PoolKind::Max => i8::MIN,
                PoolKind::Avg => 0,
                PoolKind::Gem { .. } => unreachable!("GeM is GlobalPool"),
            };
            stage.stage_rows(bufs, layer, t.chan_range(), &g, pad)?;
            stage.stage_col_valid(&g);
            let macs = (g.chans * g.chan_stride() * g.k * g.k) as u64;
            let Stage { rows, scratch, col_valid, .. } = stage;
            let (rows, col_valid) = (rows.as_slice(), col_valid.as_slice());
            run_channels(scratch, &g, threads, macs, |cr, acc| {
                pool_channel(&rows[cr * g.frame_stride()..], acc, &g, kind, col_valid);
            });
        }
        LayerKind::GlobalPool { kind } => {
            global_pool(bufs, stage, layer, &t, meta, kind, &g)?;
        }
        LayerKind::Add => {
            let c_in = meta.in_shape.c;
            for (cr, acc) in stage.scratch.chunks_mut(g.chan_stride()).enumerate() {
                let c = u32::from(t.c0) + cr as u32;
                for rr in 0..g.out_rows {
                    let r = u32::from(t.h0) + rr as u32;
                    let a = bufs.data_at(layer, c, r)?;
                    let b = bufs.data_at(layer, c + c_in, r)?;
                    let out = &mut acc[rr * g.w_out..(rr + 1) * g.w_out];
                    for ((o, &av), &bv) in out.iter_mut().zip(&a[..g.w_out]).zip(&b[..g.w_out]) {
                        *o = i32::from(av) + i32::from(bv);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Partitions the blob-layout scratch into one contiguous channel range
/// per worker and runs `f(first_channel, range_scratch)` over them, inline
/// or on a scoped worker pool. Each output element is written by exactly
/// one worker running a fixed sequential loop, so the result is
/// bit-identical at every worker count.
fn run_channel_ranges<F>(scratch: &mut [i32], stride: usize, threads: usize, macs: u64, f: F)
where
    F: Fn(usize, &mut [i32]) + Sync,
{
    let chans = scratch.len().checked_div(stride).unwrap_or(0);
    let workers = if macs < PAR_MIN_MACS { 1 } else { threads.min(chans).max(1) };
    if workers <= 1 {
        f(0, scratch);
        return;
    }
    crossbeam::thread::scope(|sc| {
        let mut rest = scratch;
        let mut c0 = 0usize;
        let f = &f;
        for wi in 0..workers {
            // Balanced split: remaining channels over remaining workers.
            let take = (chans - c0).div_ceil(workers - wi);
            let (head, tail) = rest.split_at_mut(take * stride);
            rest = tail;
            sc.spawn(move |_| f(c0, head));
            c0 += take;
        }
    })
    .expect("calc worker panicked");
}

/// [`run_channel_ranges`] for kernels that work one channel at a time:
/// runs `f(channel_index, channel_scratch)`.
pub(super) fn run_channels<F>(scratch: &mut [i32], g: &Geom, threads: usize, macs: u64, f: F)
where
    F: Fn(usize, &mut [i32]) + Sync,
{
    let stride = g.chan_stride().max(1);
    run_channel_ranges(scratch, stride, threads, macs, |c0, range| {
        for (j, acc) in range.chunks_mut(stride).enumerate() {
            f(c0 + j, acc);
        }
    });
}

/// The convolution GEMM's operand blocks: transient, each capped at
/// [`BLOCK_BYTES`] so one sweep's working set stays cache-resident.
#[derive(Debug, Clone, Default)]
pub(super) struct GemmBlocks {
    /// Pixel-major im2col block, `px × K`, widened.
    col: Vec<i16>,
    /// A run of output channels' weight rows, `oc × K`, widened.
    rows: Vec<i16>,
}

/// Convolution of the staged `frames` (`g.ics` zero-padded channels) with
/// `weights` (`g.chans × K`, `K = ics·k²`, canonical order, int8 as the
/// caller holds them and `widen` reads them) into the blob-layout
/// `scratch`, as a blocked GEMM `out[oc][px] = Σ_K w·x`.
///
/// Per block of output pixels the staged windows are gathered into a
/// pixel-major im2col block (`px × K`); per run of output channels the
/// weight rows are widened next to it; and the workers, sharing both
/// read-only, each sweep their own output channels with the [`dot_2x4`]
/// micro-kernel. The sums are the reference kernel's MACs in a different
/// order, so under wrapping `i32` addition the result is bit-identical —
/// at every block size and worker count.
pub(super) fn conv_gemm<W: Copy>(
    frames: &[i8],
    weights: &[W],
    widen: impl Fn(W) -> i16,
    blocks: &mut GemmBlocks,
    scratch: &mut [i32],
    g: &Geom,
    threads: usize,
) {
    let kk = g.ics * g.k * g.k;
    let plane = g.chan_stride();
    if kk == 0 || plane == 0 {
        return;
    }
    let GemmBlocks { col, rows } = blocks;
    // Whole register blocks, so only a plane's (a tile's) last block has
    // a pixel remainder (an odd channel).
    let fit = BLOCK_BYTES / (2 * kk);
    let (block_px, block_oc) = (fit.max(4) / 4 * 4, fit.max(2) / 2 * 2);
    for p0 in (0..plane).step_by(block_px) {
        let npx = block_px.min(plane - p0);
        im2col(frames, col, kk, g, p0..p0 + npx);
        for (w, out) in weights.chunks(block_oc * kk).zip(scratch.chunks_mut(block_oc * plane)) {
            rows.clear();
            rows.extend(w.iter().map(|&w| widen(w)));
            let macs = (w.len() * npx) as u64;
            run_channel_ranges(out, plane, threads, macs, |c0, out| {
                gemm_rows(&rows[c0 * kk..], col, kk, out, plane, p0);
            });
        }
    }
}

/// Gathers the `k × k × ics` window of each output pixel in the non-empty
/// range `px` into one `K`-long row of `col` (`icr`-major, then `ky`, `kx`
/// — the canonical weight order). The frames' padding makes every window in-bounds. One
/// `K` index at a time, so the inner loop walks a staged input row and a
/// `col` column with no per-pixel set-up, whatever `k` and `s`.
fn im2col(frames: &[i8], col: &mut Vec<i16>, kk: usize, g: &Geom, px: std::ops::Range<usize>) {
    col.resize(px.len() * kk, 0);
    for rr in px.start / g.w_out..=(px.end - 1) / g.w_out {
        // The columns of output row `rr` that fall inside the block.
        let x0 = px.start.max(rr * g.w_out) - rr * g.w_out;
        let x1 = px.end.min((rr + 1) * g.w_out) - rr * g.w_out;
        let dst = &mut col[(rr * g.w_out + x0 - px.start) * kk..][..(x1 - x0) * kk];
        for icr in 0..g.ics {
            for ky in 0..g.k {
                let src =
                    &frames[icr * g.frame_stride() + (rr * g.s + ky) * g.stage_w + x0 * g.s..];
                for kx in 0..g.k {
                    let k_idx = (icr * g.k + ky) * g.k + kx;
                    let column = dst[k_idx..].iter_mut().step_by(kk);
                    for (d, &v) in column.zip(src[kx..].iter().step_by(g.s)) {
                        *d = i16::from(v);
                    }
                }
            }
        }
    }
}

/// `out[oc][p0 + px] = w[oc] · col[px]` for the output channels whose
/// `plane`-strided accumulators make up `out`, in 2-channel × 4-pixel
/// register blocks (single dot products on an odd last channel and the
/// pixel remainder). Never inlined: compiled once, in a context where the
/// [`dot_2x4`] loop vectorizes, whatever the callers look like.
#[inline(never)]
fn gemm_rows(w: &[i16], col: &[i16], kk: usize, out: &mut [i32], plane: usize, p0: usize) {
    let npx = col.len() / kk;
    let quads = npx / 4 * 4;
    for (w, out) in w.chunks(2 * kk).zip(out.chunks_mut(2 * plane)) {
        let w0 = &w[..kk];
        if out.len() <= plane {
            for (o, x) in out[p0..p0 + npx].iter_mut().zip(col.chunks_exact(kk)) {
                *o = dot(w0, x);
            }
            continue;
        }
        let w1 = &w[kk..2 * kk];
        let (out0, out1) = out.split_at_mut(plane);
        let (out0, out1) = (&mut out0[p0..p0 + npx], &mut out1[p0..p0 + npx]);
        for px in (0..quads).step_by(4) {
            let [r0, r1] = dot_2x4(w0, w1, &col[px * kk..(px + 4) * kk]);
            out0[px..px + 4].copy_from_slice(&r0);
            out1[px..px + 4].copy_from_slice(&r1);
        }
        for px in quads..npx {
            let x = &col[px * kk..(px + 1) * kk];
            (out0[px], out1[px]) = (dot(w0, x), dot(w1, x));
        }
    }
}

/// Eight `K`-contiguous dot products — two weight rows against the four
/// pixel rows of `x` — sharing each operand load. Widening `i16` products
/// summed along `K` into wrapping `i32` lanes: the shape LLVM lowers to
/// `pmaddwd` on baseline x86-64 (`|w·x| ≤ 2¹⁴`, so a lane's pair sum
/// `≤ 2¹⁵` is exact in `i32`).
#[inline]
fn dot_2x4(w0: &[i16], w1: &[i16], x: &[i16]) -> [[i32; 4]; 2] {
    let kk = w0.len();
    let (w1, x0, x1, x2, x3) =
        (&w1[..kk], &x[..kk], &x[kk..2 * kk], &x[2 * kk..3 * kk], &x[3 * kk..4 * kk]);
    let mut acc = [[0i32; 4]; 2];
    for i in 0..kk {
        let w = [i32::from(w0[i]), i32::from(w1[i])];
        let x = [i32::from(x0[i]), i32::from(x1[i]), i32::from(x2[i]), i32::from(x3[i])];
        for (acc, w) in acc.iter_mut().zip(w) {
            for (a, x) in acc.iter_mut().zip(x) {
                *a = a.wrapping_add(w * x);
            }
        }
    }
    acc
}

/// One `K`-contiguous widening dot product, wrapping `i32`.
#[inline]
fn dot(w: &[i16], x: &[i16]) -> i32 {
    w.iter().zip(x).fold(0i32, |a, (&w, &x)| a.wrapping_add(i32::from(w) * i32::from(x)))
}

/// One kernel-row of widening MACs: `acc[x] += w · srow[x·s + kx]` for all
/// output columns, over slices — branch-free and auto-vectorizable for the
/// dominant `s == 1` case (depthwise only; convolutions take [`conv_gemm`]).
#[inline]
fn mac_row(acc: &mut [i32], srow: &[i8], wrow: &[i8], s: usize) {
    let w_out = acc.len();
    if s == 1 {
        for (kx, &wv) in wrow.iter().enumerate() {
            let wv = i32::from(wv);
            for (a, &x) in acc.iter_mut().zip(&srow[kx..kx + w_out]) {
                *a = a.wrapping_add(wv * i32::from(x));
            }
        }
    } else {
        for (kx, &wv) in wrow.iter().enumerate() {
            let wv = i32::from(wv);
            for (a, &x) in acc.iter_mut().zip(srow[kx..].iter().step_by(s)) {
                *a = a.wrapping_add(wv * i32::from(x));
            }
        }
    }
}

/// Depthwise convolution for one channel (its own row frame and k² taps).
pub(super) fn dw_channel(frame: &[i8], wts: &[i8], acc: &mut [i32], g: &Geom) {
    for rr in 0..g.out_rows {
        let acc_row = &mut acc[rr * g.w_out..(rr + 1) * g.w_out];
        for ky in 0..g.k {
            let srow = &frame[(rr * g.s + ky) * g.stage_w..][..g.stage_w];
            mac_row(acc_row, srow, &wts[ky * g.k..(ky + 1) * g.k], g.s);
        }
    }
}

/// Max/avg pooling for one channel. Padding carries the identity
/// (`i8::MIN` / `0`); the valid count is recovered arithmetically as
/// `valid_rows(rr) × col_valid[x]`, and empty windows yield `0` exactly
/// like the reference kernel.
pub(super) fn pool_channel(
    frame: &[i8],
    acc: &mut [i32],
    g: &Geom,
    kind: PoolKind,
    col_valid: &[i32],
) {
    for rr in 0..g.out_rows {
        let acc_row = &mut acc[rr * g.w_out..(rr + 1) * g.w_out];
        match kind {
            PoolKind::Max => acc_row.fill(i32::from(i8::MIN)),
            PoolKind::Avg => acc_row.fill(0),
            PoolKind::Gem { .. } => unreachable!("GeM is GlobalPool"),
        }
        for ky in 0..g.k {
            let srow = &frame[(rr * g.s + ky) * g.stage_w..][..g.stage_w];
            for kx in 0..g.k {
                match kind {
                    PoolKind::Max if g.s == 1 => {
                        for (a, &x) in acc_row.iter_mut().zip(&srow[kx..kx + g.w_out]) {
                            *a = (*a).max(i32::from(x));
                        }
                    }
                    PoolKind::Max => {
                        for (a, &x) in acc_row.iter_mut().zip(srow[kx..].iter().step_by(g.s)) {
                            *a = (*a).max(i32::from(x));
                        }
                    }
                    PoolKind::Avg if g.s == 1 => {
                        for (a, &x) in acc_row.iter_mut().zip(&srow[kx..kx + g.w_out]) {
                            *a += i32::from(x);
                        }
                    }
                    PoolKind::Avg => {
                        for (a, &x) in acc_row.iter_mut().zip(srow[kx..].iter().step_by(g.s)) {
                            *a += i32::from(x);
                        }
                    }
                    PoolKind::Gem { .. } => unreachable!("GeM is GlobalPool"),
                }
            }
        }
        let rv = g.valid_rows(rr);
        for (a, &cv) in acc_row.iter_mut().zip(col_valid) {
            let count = rv * cv;
            *a = match kind {
                PoolKind::Max => {
                    if count == 0 {
                        0
                    } else {
                        *a
                    }
                }
                PoolKind::Avg => {
                    if count == 0 {
                        0
                    } else {
                        *a / count
                    }
                }
                PoolKind::Gem { .. } => unreachable!("GeM is GlobalPool"),
            };
        }
    }
}

/// Global pooling (whole input per channel). Sums fit `i64` trivially and
/// the per-channel result is in int8 range, so the `i32` scratch is exact.
fn global_pool(
    bufs: &Buffers,
    stage: &mut Stage,
    layer: u16,
    t: &inca_isa::Tile,
    meta: &LayerMeta,
    kind: PoolKind,
    g: &Geom,
) -> Result<(), SimError> {
    let n = i64::from(meta.in_shape.h) * i64::from(meta.in_shape.w);
    for (cr, acc) in stage.scratch.chunks_mut(g.chan_stride()).enumerate() {
        let c = u32::from(t.c0) + cr as u32;
        let mut sum = 0i64;
        let mut powered = 0f64;
        let mut max = i64::MIN;
        for r in 0..meta.in_shape.h {
            let row = bufs.data_at(layer, c, r)?;
            for &v in row {
                let v = i64::from(v);
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
    Ok(())
}
