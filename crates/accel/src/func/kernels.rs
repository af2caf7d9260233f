//! Branch-free CALC kernels over staged operands, with a deterministic
//! scoped worker pool.
//!
//! Convolutions and fully-connected layers — in both execution tiers — run
//! through one blocked int8 GEMM ([`conv_gemm`]) whose micro-kernel sums
//! `pmaddwd`-shaped pair products; depthwise convolution sums each block
//! of output columns in registers ([`dw_channel`]). Both are compiled
//! once per vector width and share one run-time dispatch ([`run_upto`]);
//! pooling keeps row-wise kernels. Every kernel here is bit-identical to
//! a naive per-pixel evaluation (the accel tests' golden layer
//! evaluator): the staged frames materialise its bounds checks as padding
//! that contributes the identity element, and `i32` accumulation is
//! wrapping — integer addition is associative and commutative mod 2³², so
//! neither the loop-order change nor the channel partitioning can alter a
//! single bit (see DESIGN.md, "Functional backend fast path"). Overflow, which would
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

/// The same bound for a plane of fewer than 4 pixels, whose widened weight
/// rows are each read once: an L1-sized block is re-read from L1 (+12 %
/// on a 1024 × 1000 fully-connected layer against `BLOCK_BYTES`).
const ROW_BLOCK_BYTES: usize = 16 << 10;

/// `i32` lanes per vector-kernel accumulator in every [`Simd`] variant:
/// one 256-bit register, two 128-bit ones in the portable build. With
/// four lanes the portable GEMM runs at a quarter of the rate (LLVM then
/// vectorizes its step loop across steps, with gathers); sixteen under
/// AVX-512BW spill the 2×4 block's accumulators.
const LANES: usize = 8;

/// The GEMM's widened operand rows are zero-padded to a multiple of this
/// many `K` indices, one [`dot_2x4`] step of [`LANES`] pairs, so the
/// micro-kernel has no `K` remainder; the zeros add nothing to any sum.
const K_STEP: usize = 2 * LANES;

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
/// weight rows are widened next to it, both with every row zero-padded to
/// whole [`K_STEP`]s on planes the [`dot_2x4`] micro-kernel sweeps; and
/// the workers, sharing both read-only, each sweep their own output
/// channels. The sums are a naive convolution's MACs in a different
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
    // A plane narrower than one register block (a fully-connected layer,
    // a 1-pixel tile) never reaches `dot_2x4`: its rows stay unpadded, and
    // each widened weight row is read once, right after widening.
    let (kp, block_bytes) = match plane {
        ..4 => (kk, ROW_BLOCK_BYTES),
        _ => (kk.next_multiple_of(K_STEP), BLOCK_BYTES),
    };
    // Whole register blocks, so only a plane's (a tile's) last block has
    // a pixel remainder (an odd channel).
    let fit = block_bytes / (2 * kp);
    let (block_px, block_oc) = (fit.max(4) / 4 * 4, fit.max(2) / 2 * 2);
    for p0 in (0..plane).step_by(block_px) {
        let npx = block_px.min(plane - p0);
        im2col(frames, col, kp, g, p0..p0 + npx);
        for (w, out) in weights.chunks(block_oc * kk).zip(scratch.chunks_mut(block_oc * plane)) {
            widen_rows(w, &widen, kk, kp, rows);
            let macs = (w.len() * npx) as u64;
            run_channel_ranges(out, plane, threads, macs, |c0, out| {
                let w = &rows[c0 * kp..];
                run(Kernel::Gemm { w, col, kk: kp, out, plane, p0 });
            });
        }
    }
}

/// Sets `rows` to the `kk`-long rows of `w`, widened and each zero-padded
/// to `kp` (in one pass when there is no padding).
fn widen_rows<W: Copy>(
    w: &[W],
    widen: impl Fn(W) -> i16,
    kk: usize,
    kp: usize,
    rows: &mut Vec<i16>,
) {
    rows.clear();
    if kk == kp {
        rows.extend(w.iter().map(|&w| widen(w)));
        return;
    }
    for w in w.chunks(kk) {
        rows.extend(w.iter().map(|&w| widen(w)));
        rows.resize(rows.len() + kp - kk, 0);
    }
}

/// Gathers the `k × k × ics` window of each output pixel in the non-empty
/// range `px` into the first `K` entries of one `kp`-long, zero-padded
/// row of `col` (`icr`-major, then `ky`, `kx` — the canonical weight
/// order). The frames' padding makes every window in-bounds. One pixel at
/// a time, so every store is contiguous; the common kernel shapes get
/// constant `k` and `s`.
fn im2col(frames: &[i8], col: &mut Vec<i16>, kp: usize, g: &Geom, px: std::ops::Range<usize>) {
    col.resize(px.len() * kp, 0);
    match (g.k, g.s) {
        (1, 1) => im2col_body(frames, col, kp, g, px, 1, 1),
        (3, 1) => im2col_body(frames, col, kp, g, px, 3, 1),
        (3, 2) => im2col_body(frames, col, kp, g, px, 3, 2),
        (k, s) => im2col_body(frames, col, kp, g, px, k, s),
    }
}

#[inline(always)]
fn im2col_body(
    frames: &[i8],
    col: &mut [i16],
    kp: usize,
    g: &Geom,
    px: std::ops::Range<usize>,
    k: usize,
    s: usize,
) {
    let kk = g.ics * k * k;
    for (p, dst) in px.zip(col.chunks_exact_mut(kp)) {
        let (rr, x) = (p / g.w_out, p % g.w_out);
        let window = &frames[rr * s * g.stage_w + x * s..];
        let (dst, pad) = dst.split_at_mut(kk);
        pad.fill(0);
        for (icr, dst) in dst.chunks_exact_mut(k * k).enumerate() {
            let window = &window[icr * g.frame_stride()..];
            for (ky, dst) in dst.chunks_exact_mut(k).enumerate() {
                for (d, &v) in dst.iter_mut().zip(&window[ky * g.stage_w..][..k]) {
                    *d = i16::from(v);
                }
            }
        }
    }
}

/// The instruction sets [`Kernel::run`] is compiled for, narrowest
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

/// One call of a multi-versioned kernel, as [`run_upto`] hands it to the
/// build it picks.
enum Kernel<'a> {
    /// [`gemm_rows_body`]'s arguments.
    Gemm { w: &'a [i16], col: &'a [i16], kk: usize, out: &'a mut [i32], plane: usize, p0: usize },
    /// [`dw_body`]'s arguments.
    Depthwise { frame: &'a [i8], wts: &'a [i8], acc: &'a mut [i32], g: &'a Geom },
}

impl Kernel<'_> {
    /// Runs the kernel. Always inlined: it is compiled once per [`Simd`]
    /// variant, inside that variant's wrapper.
    #[inline(always)]
    fn run(self) {
        match self {
            Kernel::Gemm { w, col, kk, out, plane, p0 } => {
                gemm_rows_body(w, col, kk, out, plane, p0)
            }
            Kernel::Depthwise { frame, wts, acc, g } => dw_body(frame, wts, acc, g),
        }
    }
}

/// Runs `kernel` on the widest vector unit this CPU has.
fn run(kernel: Kernel) {
    run_upto(Simd::Avx512bw, kernel);
}

/// Runs the widest variant of `kernel` that is no wider than `cap` and
/// that `std::is_x86_feature_detected!` reports; the portable one on any
/// other target. Detection is a cached atomic load.
#[allow(unsafe_code)]
fn run_upto(cap: Simd, kernel: Kernel) {
    #[cfg(target_arch = "x86_64")]
    {
        if cap >= Simd::Avx512bw && std::is_x86_feature_detected!("avx512bw") {
            // SAFETY: `run_avx512bw` only needs AVX-512BW, which
            // `is_x86_feature_detected!("avx512bw")` just reported.
            return unsafe { run_avx512bw(kernel) };
        }
        if cap >= Simd::Avx2 && std::is_x86_feature_detected!("avx2") {
            // SAFETY: `run_avx2` only needs AVX2, which
            // `is_x86_feature_detected!("avx2")` just reported.
            return unsafe { run_avx2(kernel) };
        }
    }
    let _ = cap; // read only on x86-64
    run_portable(kernel);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw")]
fn run_avx512bw(kernel: Kernel) {
    kernel.run();
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2(kernel: Kernel) {
    kernel.run();
}

/// Never inlined, like the two wide variants: each is compiled once, in a
/// context where the kernel loops vectorize, whatever the callers look
/// like.
#[inline(never)]
fn run_portable(kernel: Kernel) {
    kernel.run();
}

/// `out[oc][p0 + px] = w[oc] · col[px]` for the output channels whose
/// `plane`-strided accumulators make up `out`, in 2-channel × 4-pixel
/// register blocks (single dot products on an odd last channel and the
/// pixel remainder).
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
/// pixel rows of `x` — sharing each operand load. `K` is a multiple of
/// [`K_STEP`] and walked one step at a time: each (row, pixel) pair adds
/// its [`pair_sums`] into its own [`LANES`]-lane wrapping accumulator,
/// which LLVM lowers to `pmaddwd` and an add (`vpmaddwd` on 256 bits under
/// AVX2 and AVX-512BW), and the lanes fold at the end. `|w·x| ≤ 2¹⁴`, so
/// a pair sum `≤ 2¹⁵` is exact in `i32`, and wrapping sums are
/// order-free: the result is the plain dot products' bits.
#[inline(always)]
fn dot_2x4(w0: &[i16], w1: &[i16], x: &[i16]) -> [[i32; 4]; 2] {
    let kk = w0.len();
    debug_assert_eq!(kk % K_STEP, 0, "K is padded to whole steps");
    let steps = kk / K_STEP;
    let ws = [w0, w1].map(|w| pair_steps(w, steps));
    let xs = [0, 1, 2, 3].map(|i| pair_steps(&x[i * kk..], steps));
    let mut lanes = [[[0i32; LANES]; 4]; 2];
    for step in 0..steps {
        for (lanes, w) in lanes.iter_mut().zip(&ws) {
            for (lanes, x) in lanes.iter_mut().zip(&xs) {
                let sums = pair_sums(&w[step], &x[step]);
                for (a, s) in lanes.iter_mut().zip(sums) {
                    *a = a.wrapping_add(s);
                }
            }
        }
    }
    let mut acc = [[0i32; 4]; 2];
    for (acc, lanes) in acc.iter_mut().zip(&lanes) {
        for (a, lanes) in acc.iter_mut().zip(lanes) {
            *a = lanes.iter().fold(0i32, |a, &v| a.wrapping_add(v));
        }
    }
    acc
}

/// The first `steps` runs of [`LANES`] operand pairs in `row`.
#[inline(always)]
fn pair_steps(row: &[i16], steps: usize) -> &[[[i16; 2]; LANES]] {
    &row.as_chunks::<2>().0.as_chunks::<LANES>().0[..steps]
}

/// The pair sums `w[j][0]·x[j][0] + w[j][1]·x[j][1]`: `pmaddwd`'s shape.
/// A function of its own because LLVM only finds that shape here —
/// written inline in the accumulator add, it loses it.
#[inline(always)]
fn pair_sums(w: &[[i16; 2]; LANES], x: &[[i16; 2]; LANES]) -> [i32; LANES] {
    let mut sums = [0i32; LANES];
    for ((s, w), x) in sums.iter_mut().zip(w).zip(x) {
        *s = i32::from(w[0]) * i32::from(x[0]) + i32::from(w[1]) * i32::from(x[1]);
    }
    sums
}

/// One `K`-contiguous widening dot product, wrapping `i32`.
#[inline(always)]
fn dot(w: &[i16], x: &[i16]) -> i32 {
    w.iter().zip(x).fold(0i32, |a, (&w, &x)| a.wrapping_add(i32::from(w) * i32::from(x)))
}

/// Depthwise convolution for one channel (its own row frame and k² taps),
/// on the widest vector unit this CPU has.
pub(super) fn dw_channel(frame: &[i8], wts: &[i8], acc: &mut [i32], g: &Geom) {
    run(Kernel::Depthwise { frame, wts, acc, g });
}

/// [`dw_channel`]'s body. The 3×3 kernels at stride 1 and 2 that
/// depthwise layers use take the vector path with constant `k` and `s`;
/// any other shape runs [`dw_scalar`].
#[inline(always)]
fn dw_body(frame: &[i8], wts: &[i8], acc: &mut [i32], g: &Geom) {
    match (g.k, g.s) {
        (3, 1) => dw_rows::<3, 1>(frame, wts, acc, g),
        (3, 2) => dw_rows::<3, 2>(frame, wts, acc, g),
        (k, s) => dw_scalar(frame, wts, acc, g, k, s, 0),
    }
}

/// Each output row in blocks of [`LANES`] columns whose `K × K` taps are
/// summed in registers and stored once. A row's last partial block is
/// recomputed as the row's last `LANES` columns (the store overwrites). A
/// row narrower than that is one block that reads on into the next
/// staged rows and keeps its first `w_out` sums, as long as the frame
/// reaches that far; the rows past that run [`dw_scalar`]. The products
/// are exact in `i16` (`|w·x| ≤ 2¹⁴`), the sums wrapping `i32`.
#[inline(always)]
fn dw_rows<const K: usize, const S: usize>(frame: &[i8], wts: &[i8], acc: &mut [i32], g: &Geom) {
    let (w_out, stage_w) = (g.w_out, g.stage_w);
    let mut w = [[0i16; K]; K];
    for (w, &v) in w.iter_mut().flatten().zip(wts) {
        *w = i16::from(v);
    }
    // The staged bytes one block reads, from its first window's corner.
    let reach = (K - 1) * stage_w + (LANES - 1) * S + K;
    for rr in 0..g.out_rows {
        let rows = &frame[rr * S * stage_w..];
        let out = &mut acc[rr * w_out..(rr + 1) * w_out];
        for x0 in (0..w_out).step_by(LANES) {
            let x = x0.min(w_out.saturating_sub(LANES));
            let rows = &rows[x * S..];
            if rows.len() < reach {
                return dw_scalar(frame, wts, acc, g, K, S, rr);
            }
            let mut sums = [0i32; LANES];
            for (ky, w) in w.iter().enumerate() {
                let src = &rows[ky * stage_w..][..(LANES - 1) * S + K];
                for (kx, &w) in w.iter().enumerate() {
                    for (j, a) in sums.iter_mut().enumerate() {
                        *a = a.wrapping_add(i32::from(w * i16::from(src[j * S + kx])));
                    }
                }
            }
            let n = LANES.min(w_out);
            out[x..x + n].copy_from_slice(&sums[..n]);
        }
    }
}

/// Output rows `rr0..` of [`dw_rows`], one output at a time.
fn dw_scalar(frame: &[i8], wts: &[i8], acc: &mut [i32], g: &Geom, k: usize, s: usize, rr0: usize) {
    for rr in rr0..g.out_rows {
        let rows = &frame[rr * s * g.stage_w..];
        for (x, o) in acc[rr * g.w_out..(rr + 1) * g.w_out].iter_mut().enumerate() {
            let mut a = 0i32;
            for (ky, w) in wts[..k * k].chunks_exact(k).enumerate() {
                let src = &rows[ky * g.stage_w + x * s..][..k];
                for (&w, &v) in w.iter().zip(src) {
                    a = a.wrapping_add(i32::from(w) * i32::from(v));
                }
            }
            *o = a;
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
    /// on the widest variant up to `cap`, with both operands padded the
    /// way `conv_gemm` pads them.
    fn gemm(
        cap: Simd,
        w: &[i16],
        col: &[i16],
        kk: usize,
        plane: usize,
        block_px: usize,
    ) -> Vec<i32> {
        let kp = kk.next_multiple_of(K_STEP);
        let [mut w_pad, mut col_pad] = [vec![], vec![]];
        widen_rows(w, i16::from, kk, kp, &mut w_pad);
        widen_rows(col, i16::from, kk, kp, &mut col_pad);
        let mut out = vec![i32::MIN; w.len() / kk * plane];
        for p0 in (0..plane).step_by(block_px) {
            let npx = block_px.min(plane - p0);
            let col = &col_pad[p0 * kp..(p0 + npx) * kp];
            run_upto(cap, Kernel::Gemm { w: &w_pad, col, kk: kp, out: &mut out, plane, p0 });
        }
        out
    }

    /// Every vector width this CPU runs computes the portable body's bits,
    /// on the register-block remainders of `kernel_equiv`'s GEMM shapes,
    /// on `K` just below, at and above one and two pair steps, and on
    /// all-`−128` operands at ResNet-18's largest
    /// reduction. After
    /// dispatch, the integration suites reach only the widest variant.
    #[test]
    fn every_simd_variant_matches_the_portable_body() {
        // (K, output channels, plane, pixel block, all-equal operand)
        let mut cases = vec![
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
        // K = 1, 2L − 1, 2L, 2L + 1 and 4L + 3 for L = 4 and for
        // L = LANES = 8: all padding, none, both.
        for kk in [1, 7, 8, 9, 19, 15, 16, 17, 35] {
            cases.push((kk, 5, 10, 10, None));
        }
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

    /// The depthwise kernel, like the GEMM: every vector width computes the
    /// portable body's bits, for 3×3 taps at strides 1 and 2 on rows
    /// narrower than one block of either lane count, one block wide, and
    /// wider with a partial last block, and for the scalar shapes; the
    /// last case is all `−128`.
    #[test]
    fn every_simd_variant_matches_the_portable_depthwise_body() {
        let out_rows = 3;
        for (i, (k, s, w_out, fill)) in [
            (3, 1, 3, None),
            (3, 1, 4, None),
            (3, 1, 8, None),
            (3, 1, 24, None),
            (3, 1, 37, None),
            (3, 2, 3, None),
            (3, 2, 6, None),
            (3, 2, 12, None),
            (3, 2, 21, None),
            (5, 1, 9, None),
            (1, 1, 9, None),
            (3, 1, 13, Some(-128)),
        ]
        .into_iter()
        .enumerate()
        {
            let stage_w = (w_out - 1) * s + k + 1;
            let n_vr = (out_rows - 1) * s + k;
            let [wts, frame] = operands(1, k * k, n_vr * stage_w, 0xD00D_0000 + i as u64, fill)
                .map(|v| v.into_iter().map(|v| v as i8).collect::<Vec<_>>());
            let g = Geom {
                k,
                s,
                p: 1,
                h_in: 0,
                w_in: 0,
                w_out,
                out_rows,
                chans: 1,
                ics: 0,
                vr0: 0,
                n_vr,
                stage_w,
            };
            let depthwise = |cap| {
                let mut acc = vec![0; out_rows * w_out];
                run_upto(cap, Kernel::Depthwise { frame: &frame, wts: &wts, acc: &mut acc, g: &g });
                acc
            };
            let portable = depthwise(Simd::Portable);
            let naive: Vec<i32> = (0..out_rows * w_out)
                .map(|o| {
                    let (rr, x) = (o / w_out, o % w_out);
                    (0..k * k)
                        .map(|t| {
                            let (ky, kx) = (t / k, t % k);
                            let v = frame[(rr * s + ky) * stage_w + x * s + kx];
                            i32::from(wts[t]) * i32::from(v)
                        })
                        .sum()
                })
                .collect();
            assert_eq!(portable, naive, "case {i}: portable body");
            for cap in [Simd::Avx2, Simd::Avx512bw] {
                assert_eq!(depthwise(cap), portable, "case {i}: {cap:?}");
            }
        }
    }
}
