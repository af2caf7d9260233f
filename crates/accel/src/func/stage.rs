//! Persistent staging buffers and tile geometry for the fast CALC path.
//!
//! The fast kernels never index the on-chip buffer maps inside their MAC
//! loops. Instead, each CALC first *stages* the tile's operands into flat
//! buffers owned by the backend (so the hot loop is allocation-free after
//! warm-up):
//!
//! * input rows are copied into a zero-padded frame of `stage_w` columns
//!   per row and `n_vr` virtual rows per channel, with the image data at
//!   column offset `p` — after which *every* window position the kernel
//!   touches is in-bounds, and padding contributes the identity element
//!   (`0` for MACs and average pools, `i8::MIN` for max pools);
//! * weights are copied into a dense `chans × ics × k²` array (the
//!   convolution GEMM then widens them, and gathers the rows into a
//!   pixel-major im2col block, in its own operand blocks);
//! * results accumulate into an `i32` scratch laid out exactly like the
//!   output blob (`chans × rows × w_out`, channel-major), so the worker
//!   pool can split it into disjoint per-channel `&mut` ranges.

use inca_isa::{LayerMeta, Tile};

use super::kernels::GemmBlocks;
use super::{Buffers, SimError};

/// Scratch space reused across CALC instructions. Purely transient: it is
/// fully rewritten by each instruction, so it is *not* part of snapshots.
#[derive(Debug, Clone, Default)]
pub(super) struct Stage {
    /// Zero-padded staged input rows, `channels × n_vr × stage_w`.
    pub rows: Vec<i8>,
    /// Dense staged weights, `chans × ics × k²` (depthwise: `chans × k²`).
    pub weights: Vec<i8>,
    /// The convolution GEMM's operand blocks.
    pub gemm: GemmBlocks,
    /// Per-instruction accumulator, `chans × rows × w_out`, blob layout.
    pub scratch: Vec<i32>,
    /// Per-window valid-column counts for pooling, `w_out` entries.
    pub col_valid: Vec<i32>,
    /// Byte staging for `SAVE` rows.
    pub row_bytes: Vec<u8>,
}

/// Integer geometry of one CALC tile, precomputed once per instruction.
#[derive(Debug, Clone, Copy)]
pub(super) struct Geom {
    /// Kernel size.
    pub k: usize,
    /// Stride.
    pub s: usize,
    /// Padding.
    pub p: usize,
    /// Input feature-map height.
    pub h_in: i64,
    /// Input feature-map width.
    pub w_in: usize,
    /// Output feature-map width.
    pub w_out: usize,
    /// Output rows in this tile.
    pub out_rows: usize,
    /// Output (or depthwise) channels in this tile.
    pub chans: usize,
    /// Input channels in this tile (conv only).
    pub ics: usize,
    /// First virtual input row: `h0·s − p` (may be negative).
    pub vr0: i64,
    /// Virtual input rows spanned by the tile: `(out_rows−1)·s + k`.
    pub n_vr: usize,
    /// Staged row width: covers both the copied image row at offset `p`
    /// and the right-most window column `(w_out−1)·s + k − 1`.
    pub stage_w: usize,
}

impl Geom {
    pub(super) fn new(tile: &Tile, meta: &LayerMeta) -> Self {
        let k = usize::from(meta.kind.kernel());
        let s = usize::from(meta.kind.stride());
        let p = usize::from(meta.kind.pad());
        let w_in = meta.in_shape.w as usize;
        let w_out = meta.out_shape.w as usize;
        let out_rows = usize::from(tile.rows);
        let n_vr = if out_rows == 0 { 0 } else { (out_rows - 1) * s + k };
        let window_w = if w_out == 0 { k } else { (w_out - 1) * s + k };
        Self {
            k,
            s,
            p,
            h_in: i64::from(meta.in_shape.h),
            w_in,
            w_out,
            out_rows,
            chans: usize::from(tile.chans),
            ics: usize::from(tile.ics),
            vr0: i64::from(tile.h0) * s as i64 - p as i64,
            n_vr,
            stage_w: (w_in + p).max(window_w),
        }
    }

    /// Output elements per staged channel (`rows × w_out`).
    pub(super) fn chan_stride(&self) -> usize {
        self.out_rows * self.w_out
    }

    /// Staged elements per channel's row frame (`n_vr × stage_w`).
    pub(super) fn frame_stride(&self) -> usize {
        self.n_vr * self.stage_w
    }

    /// How many of the `k` kernel rows land inside the image for output
    /// row `rr` — the row factor of a pool window's valid count.
    pub(super) fn valid_rows(&self, rr: usize) -> i32 {
        let top = self.vr0 + (rr * self.s) as i64;
        let lo = top.max(0);
        let hi = (top + self.k as i64).min(self.h_in);
        (hi - lo).max(0) as i32
    }
}

impl Stage {
    /// Resets the accumulator to `len` zeroed elements, reusing capacity.
    pub(super) fn reset_scratch(&mut self, len: usize) {
        self.scratch.clear();
        self.scratch.resize(len, 0);
    }

    /// Stages the padded row frames for `channels`, in iteration order.
    ///
    /// Every staged cell defaults to `pad`; rows that exist in the image
    /// get their data copied at column offset `p`. Only virtual rows a
    /// window actually touches are demanded from the data buffer (when
    /// `s > k` the frame has gap rows no window reads — those stay `pad`
    /// without a buffer lookup, exactly mirroring the reference kernel's
    /// bounds checks).
    pub(super) fn stage_rows(
        &mut self,
        bufs: &Buffers,
        layer: u16,
        channels: impl Iterator<Item = u32>,
        g: &Geom,
        pad: i8,
    ) -> Result<(), SimError> {
        let frame = g.frame_stride();
        self.rows.clear();
        for (ci, ch) in channels.enumerate() {
            self.rows.resize((ci + 1) * frame, pad);
            let dst_frame = &mut self.rows[ci * frame..];
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
                    let src = bufs.data_at(layer, ch, in_r as u32)?;
                    dst_frame[vr * g.stage_w + g.p..vr * g.stage_w + g.p + g.w_in]
                        .copy_from_slice(src);
                }
            }
        }
        Ok(())
    }

    /// Stages dense conv/FC weights: `chans × ics × k²`. Each output
    /// channel's `ics` kernel slices are one contiguous run of the weight
    /// plane.
    pub(super) fn stage_conv_weights(
        &mut self,
        bufs: &Buffers,
        layer: u16,
        tile: &Tile,
        k2: usize,
    ) -> Result<(), SimError> {
        self.weights.clear();
        self.weights.reserve(usize::from(tile.chans) * usize::from(tile.ics) * k2);
        for oc in tile.chan_range() {
            self.weights.extend_from_slice(bufs.weight_run_at(layer, oc, tile.ic_range())?);
        }
        Ok(())
    }

    /// Stages dense depthwise weights: `chans × k²`.
    pub(super) fn stage_dw_weights(
        &mut self,
        bufs: &Buffers,
        layer: u16,
        tile: &Tile,
        k2: usize,
    ) -> Result<(), SimError> {
        self.weights.clear();
        self.weights.reserve(usize::from(tile.chans) * k2);
        for c in tile.chan_range() {
            let w = bufs.weights_at(layer, c, c)?;
            self.weights.extend_from_slice(&w[..k2]);
        }
        Ok(())
    }

    /// Precomputes, for each output column, how many of the `k` kernel
    /// columns land inside the image — the column factor of a pool
    /// window's valid count.
    pub(super) fn stage_col_valid(&mut self, g: &Geom) {
        fill_col_valid(&mut self.col_valid, g);
    }
}

/// Fills `out` with per-output-column valid-column counts (shared by the
/// Tier-0 staging path and the Tier-1 layer executor).
pub(super) fn fill_col_valid(out: &mut Vec<i32>, g: &Geom) {
    out.clear();
    out.reserve(g.w_out);
    for x in 0..g.w_out {
        let left = (x * g.s) as i64 - g.p as i64;
        let lo = left.max(0);
        let hi = (left + g.k as i64).min(g.w_in as i64);
        out.push((hi - lo).max(0) as i32);
    }
}
