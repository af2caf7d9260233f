//! Branch-free CALC kernels over staged operands, with a deterministic
//! scoped worker pool.
//!
//! Convolutions and fully-connected layers — in both execution tiers — run
//! through one blocked int8 GEMM ([`conv_gemm`]); depthwise and pooling keep
//! row-wise kernels. Every kernel here is bit-identical to a naive
//! per-pixel evaluation (the accel tests' golden layer evaluator): the
//! staged frames materialise its bounds checks as padding that contributes
//! the identity element, and `i32` accumulation is wrapping — integer
//! addition is associative and commutative mod 2³², so neither the
//! loop-order change nor the channel partitioning can alter a single bit
//! (see DESIGN.md, "Functional backend fast path"). Overflow, which would
//! distinguish wrapping `i32` from the golden's exact `i64`, is ruled out
//! for realistic layer shapes (`ics·k²·127² ≪ 2³¹`) and asserted against
//! by the property tests.

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
            stage.stage_rows(bufs, layer, t.chan_range(), &g, pool_pad(kind))?;
            stage.stage_col_valid(&g);
            let macs = (g.chans * g.chan_stride() * g.k * g.k) as u64;
            let Stage { rows, scratch, col_valid, .. } = stage;
            let (rows, col_valid) = (rows.as_slice(), col_valid.as_slice());
            run_channels(scratch, &g, threads, macs, |cr, acc| {
                pool_channel(&rows[cr * g.frame_stride()..], acc, &g, kind, col_valid);
            });
        }
        LayerKind::GlobalPool { p } => {
            let n = meta.in_shape.h as usize * meta.in_shape.w as usize;
            for (cr, acc) in stage.scratch.chunks_mut(g.chan_stride()).enumerate() {
                let c = u32::from(t.c0) + cr as u32;
                let rows = (0..meta.in_shape.h)
                    .map(|r| bufs.data_at(layer, c, r))
                    .collect::<Result<Vec<_>, _>>()?;
                acc[0] = gem(rows.into_iter().flatten().copied(), n, p);
            }
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
    std::thread::scope(|sc| {
        let mut rest = scratch;
        let mut c0 = 0usize;
        let f = &f;
        for wi in 0..workers {
            // Balanced split: remaining channels over remaining workers.
            let take = (chans - c0).div_ceil(workers - wi);
            let (head, tail) = rest.split_at_mut(take * stride);
            rest = tail;
            sc.spawn(move || f(c0, head));
            c0 += take;
        }
    });
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
/// micro-kernel. The sums are a naive convolution's MACs in a different
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

/// The instruction sets [`gemm_rows_body`] is compiled for, narrowest
/// first. One source, so every variant computes the same sums. Only the
/// variant-equivalence test caps the dispatch below the widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(test), allow(dead_code))]
enum Simd {
    /// The build's baseline: 128-bit SSE2 on x86-64.
    Portable,
    /// 256-bit lanes.
    Avx2,
    /// 512-bit lanes.
    Avx512bw,
}

/// [`gemm_rows_body`] on the widest vector unit this CPU has.
fn gemm_rows(w: &[i16], col: &[i16], kk: usize, out: &mut [i32], plane: usize, p0: usize) {
    gemm_rows_upto(Simd::Avx512bw, w, col, kk, out, plane, p0);
}

/// Runs the widest variant of [`gemm_rows_body`] that is no wider than
/// `cap` and that `std::is_x86_feature_detected!` reports; the portable
/// one on any other target. Detection is a cached atomic load.
#[allow(unsafe_code)]
fn gemm_rows_upto(
    cap: Simd,
    w: &[i16],
    col: &[i16],
    kk: usize,
    out: &mut [i32],
    plane: usize,
    p0: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if cap >= Simd::Avx512bw && std::is_x86_feature_detected!("avx512bw") {
            // SAFETY: `gemm_rows_avx512bw` only needs AVX-512BW, which
            // `is_x86_feature_detected!("avx512bw")` just reported.
            return unsafe { gemm_rows_avx512bw(w, col, kk, out, plane, p0) };
        }
        if cap >= Simd::Avx2 && std::is_x86_feature_detected!("avx2") {
            // SAFETY: `gemm_rows_avx2` only needs AVX2, which
            // `is_x86_feature_detected!("avx2")` just reported.
            return unsafe { gemm_rows_avx2(w, col, kk, out, plane, p0) };
        }
    }
    let _ = cap; // read only on x86-64
    gemm_rows_portable(w, col, kk, out, plane, p0);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw")]
fn gemm_rows_avx512bw(w: &[i16], col: &[i16], kk: usize, out: &mut [i32], plane: usize, p0: usize) {
    gemm_rows_body(w, col, kk, out, plane, p0);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_rows_avx2(w: &[i16], col: &[i16], kk: usize, out: &mut [i32], plane: usize, p0: usize) {
    gemm_rows_body(w, col, kk, out, plane, p0);
}

/// Never inlined, like the two wide variants: each is compiled once, in a
/// context where the [`dot_2x4`] loop vectorizes, whatever the callers
/// look like.
#[inline(never)]
fn gemm_rows_portable(w: &[i16], col: &[i16], kk: usize, out: &mut [i32], plane: usize, p0: usize) {
    gemm_rows_body(w, col, kk, out, plane, p0);
}

/// `out[oc][p0 + px] = w[oc] · col[px]` for the output channels whose
/// `plane`-strided accumulators make up `out`, in 2-channel × 4-pixel
/// register blocks (single dot products on an odd last channel and the
/// pixel remainder). Always inlined: it is compiled once per [`Simd`]
/// variant, inside that variant's wrapper.
#[inline(always)]
fn gemm_rows_body(w: &[i16], col: &[i16], kk: usize, out: &mut [i32], plane: usize, p0: usize) {
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
/// `pmaddwd` on baseline x86-64, and under AVX2 / AVX-512BW to 8 / 16
/// sign-extended lanes multiplied by `vpmulld` (`|w·x| ≤ 2¹⁴`, so a
/// product and a `pmaddwd` pair sum `≤ 2¹⁵` are exact in `i32` at any
/// width, and the lanes' wrapping sums are order-free).
#[inline(always)]
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
#[inline(always)]
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

/// A pool's identity element: the padding its staged frame carries and
/// each window's starting value.
pub(super) fn pool_pad(kind: PoolKind) -> i8 {
    match kind {
        PoolKind::Max => i8::MIN,
        PoolKind::Avg => 0,
    }
}

/// Max/avg pooling for one channel. Padding carries the identity
/// (`i8::MIN` / `0`); the valid count is recovered arithmetically as
/// `valid_rows(rr) × col_valid[x]`, and empty windows yield `0` exactly
/// like a naive window loop.
pub(super) fn pool_channel(
    frame: &[i8],
    acc: &mut [i32],
    g: &Geom,
    kind: PoolKind,
    col_valid: &[i32],
) {
    for rr in 0..g.out_rows {
        let acc_row = &mut acc[rr * g.w_out..(rr + 1) * g.w_out];
        acc_row.fill(i32::from(pool_pad(kind)));
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
            };
        }
    }
}

/// One channel's GeM pool, `round(mean(max(x, 0)^p)^(1/p))` over its
/// `n` pixels. Both tiers call this with the pixels in ascending rows, then
/// columns, so their `f64` accumulation order — and the result — agree.
pub(super) fn gem(pixels: impl Iterator<Item = i8>, n: usize, p: u8) -> i32 {
    let powered = pixels.fold(0f64, |acc, v| acc + f64::from(v.max(0)).powi(i32::from(p)));
    let mean = powered / n.max(1) as f64;
    mean.powf(1.0 / f64::from(p)).round() as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `oc` weight rows and `plane` pixel rows of length `kk`, int8-range
    /// values from an LCG, or all `fill` when given.
    fn operands(kk: usize, oc: usize, plane: usize, seed: u64, fill: Option<i16>) -> [Vec<i16>; 2] {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            fill.unwrap_or((state >> 56) as u8 as i8 as i16)
        };
        [(0..oc * kk).map(|_| next()).collect(), (0..plane * kk).map(|_| next()).collect()]
    }

    /// The GEMM of `conv_gemm` over one `plane`, in `block_px`-pixel blocks,
    /// on the widest variant up to `cap`.
    fn gemm(
        cap: Simd,
        w: &[i16],
        col: &[i16],
        kk: usize,
        plane: usize,
        block_px: usize,
    ) -> Vec<i32> {
        let mut out = vec![i32::MIN; w.len() / kk * plane];
        for p0 in (0..plane).step_by(block_px) {
            let npx = block_px.min(plane - p0);
            gemm_rows_upto(cap, w, &col[p0 * kk..(p0 + npx) * kk], kk, &mut out, plane, p0);
        }
        out
    }

    /// Every vector width this CPU runs computes the portable body's bits,
    /// on the register-block remainders of `kernel_equiv`'s GEMM shapes
    /// and on all-`−128` operands at ResNet-18's largest reduction. After
    /// dispatch, the integration suites reach only the widest variant.
    #[test]
    fn every_simd_variant_matches_the_portable_body() {
        // (K, output channels, plane, pixel block, all-equal operand)
        let cases = [
            // Two blocks: 64 pixels and 35 (remainder 3); 67 channels (odd).
            (1960, 67, 99, 64, None),
            (333, 33, 399, 399, None),
            (24, 41, 899, 899, None),
            (4, 7, 240, 240, None),
            // A single output pixel and a single output channel.
            (325, 1, 1, 1, None),
            // `(−128)²` pair sums: 2¹⁵ each, 4608 · 2¹⁴ in all.
            (4608, 3, 9, 9, Some(-128)),
        ];
        for (i, (kk, oc, plane, block_px, fill)) in cases.into_iter().enumerate() {
            let [w, col] = operands(kk, oc, plane, 0x51AD_0000 + i as u64, fill);
            let portable = gemm(Simd::Portable, &w, &col, kk, plane, block_px);
            let naive: Vec<i32> = w
                .chunks(kk)
                .flat_map(|w| {
                    col.chunks(kk).map(move |x| {
                        w.iter()
                            .zip(x)
                            .fold(0i32, |a, (&w, &x)| a.wrapping_add(i32::from(w) * i32::from(x)))
                    })
                })
                .collect();
            assert_eq!(portable, naive, "case {i}: portable body");
            for cap in [Simd::Avx2, Simd::Avx512bw] {
                let wide = gemm(cap, &w, &col, kk, plane, block_px);
                let first_diff = wide.iter().zip(&portable).position(|(a, b)| a != b);
                assert_eq!(first_diff, None, "case {i}: {cap:?} differs at this output");
            }
        }
    }
}
