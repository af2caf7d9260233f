//! Execution-level layer metadata carried alongside a compiled program.
//!
//! This is *not* the model-building IR (see the `inca-model` crate); it is
//! the minimal, already-lowered description a simulator needs to execute an
//! instruction stream: shapes, kernel geometry, DDR regions and
//! quantisation.

/// A `(channels, height, width)` tensor shape in CHW layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Shape3 {
    /// Channels.
    pub c: u32,
    /// Height (rows).
    pub h: u32,
    /// Width (columns).
    pub w: u32,
}

impl Shape3 {
    /// Creates a shape.
    #[must_use]
    pub fn new(c: u32, h: u32, w: u32) -> Self {
        Self { c, h, w }
    }

    /// Total number of elements.
    #[must_use]
    pub fn elems(&self) -> u64 {
        u64::from(self.c) * u64::from(self.h) * u64::from(self.w)
    }

    /// Size in bytes for int8 storage.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.elems()
    }
}

impl std::fmt::Display for Shape3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

/// Windowed pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling (integer mean, rounded toward zero).
    Avg,
}

/// Operation a layer performs, in lowered form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Standard convolution `kernel`×`kernel`, stride `stride`, zero padding
    /// `pad`.
    Conv {
        /// Square kernel size.
        kernel: u8,
        /// Stride.
        stride: u8,
        /// Zero padding on each border.
        pad: u8,
    },
    /// Depthwise convolution (one filter per channel).
    DwConv {
        /// Square kernel size.
        kernel: u8,
        /// Stride.
        stride: u8,
        /// Zero padding on each border.
        pad: u8,
    },
    /// Spatial pooling.
    Pool {
        /// Pooling flavour.
        kind: PoolKind,
        /// Square window size.
        kernel: u8,
        /// Stride.
        stride: u8,
        /// Zero padding on each border.
        pad: u8,
    },
    /// Generalised-mean (GeM) pooling over the whole feature map (output
    /// `Cx1x1`): `round(mean(max(x, 0)^p)^(1/p))` per channel. The PR head
    /// of GeM/ResNet101 uses `p = 3`; `p = 1` is a global average pool
    /// over the ReLU'd input.
    GlobalPool {
        /// The GeM exponent; the model builder and the container decoder
        /// reject 0.
        p: u8,
    },
    /// Element-wise addition of this layer's input with a second feature
    /// map (`input2_addr`), as in ResNet shortcut joins.
    Add,
    /// Fully-connected layer, lowered as a 1×1 convolution over a 1×1
    /// spatial extent.
    FullyConnected,
}

impl LayerKind {
    /// Kernel size used by the timing model (1 for Add/FC).
    #[must_use]
    pub fn kernel(&self) -> u8 {
        match self {
            LayerKind::Conv { kernel, .. }
            | LayerKind::DwConv { kernel, .. }
            | LayerKind::Pool { kernel, .. } => *kernel,
            LayerKind::GlobalPool { .. } | LayerKind::Add | LayerKind::FullyConnected => 1,
        }
    }

    /// Stride (1 for Add/FC).
    #[must_use]
    pub fn stride(&self) -> u8 {
        match self {
            LayerKind::Conv { stride, .. }
            | LayerKind::DwConv { stride, .. }
            | LayerKind::Pool { stride, .. } => *stride,
            LayerKind::GlobalPool { .. } | LayerKind::Add | LayerKind::FullyConnected => 1,
        }
    }

    /// Padding (0 for Add/FC).
    #[must_use]
    pub fn pad(&self) -> u8 {
        match self {
            LayerKind::Conv { pad, .. }
            | LayerKind::DwConv { pad, .. }
            | LayerKind::Pool { pad, .. } => *pad,
            LayerKind::GlobalPool { .. } | LayerKind::Add | LayerKind::FullyConnected => 0,
        }
    }

    /// Whether the layer reduces over the input-channel dimension (and thus
    /// produces `CALC_I` instructions for all but the last input-channel
    /// group).
    #[must_use]
    pub fn reduces_input_channels(&self) -> bool {
        matches!(self, LayerKind::Conv { .. } | LayerKind::FullyConnected)
    }

    /// Whether the layer has weights to load.
    #[must_use]
    pub fn has_weights(&self) -> bool {
        matches!(
            self,
            LayerKind::Conv { .. } | LayerKind::DwConv { .. } | LayerKind::FullyConnected
        )
    }
}

/// Lowered execution metadata for one layer of a compiled [`crate::Program`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerMeta {
    /// Layer id (its index in `Program::layers`).
    pub id: u16,
    /// Human-readable name (e.g. `res4b22_branch2b`).
    pub name: String,
    /// Lowered operation.
    pub kind: LayerKind,
    /// Input feature-map shape.
    pub in_shape: Shape3,
    /// Output feature-map shape.
    pub out_shape: Shape3,
    /// Task-relative DDR address of the input feature map.
    pub input_addr: u64,
    /// Second input (element-wise Add), if any.
    pub input2_addr: Option<u64>,
    /// Task-relative DDR address of the output feature map.
    pub output_addr: u64,
    /// Task-relative DDR address of this layer's weights (0 when none).
    pub weight_addr: u64,
    /// Weight bytes (`C_out*C_in*k*k` for conv; 0 when none).
    pub weight_bytes: u64,
    /// Arithmetic right shift applied to the int32 accumulator before
    /// saturation to int8 (per-layer power-of-two quantisation).
    pub quant_shift: u8,
    /// Whether a ReLU is fused into the layer output.
    pub relu: bool,
}

impl LayerMeta {
    /// Number of multiply-accumulate operations in the whole layer.
    #[must_use]
    pub fn macs(&self) -> u64 {
        let k = u64::from(self.kind.kernel());
        let out = self.out_shape.elems();
        match self.kind {
            LayerKind::Conv { .. } | LayerKind::FullyConnected => {
                out * u64::from(self.in_shape.c) * k * k
            }
            LayerKind::DwConv { .. } => out * k * k,
            LayerKind::Pool { .. } => out * k * k,
            LayerKind::GlobalPool { .. } => self.in_shape.elems(),
            LayerKind::Add => out,
        }
    }

    /// Verifies that `out_shape` is consistent with `in_shape` under the
    /// layer's kernel/stride/pad geometry.
    #[must_use]
    pub fn shapes_consistent(&self) -> bool {
        let k = i64::from(self.kind.kernel());
        let s = i64::from(self.kind.stride());
        let p = i64::from(self.kind.pad());
        let expect = |x: u32| -> i64 { (i64::from(x) + 2 * p - k) / s + 1 };
        match self.kind {
            LayerKind::Add => self.in_shape == self.out_shape,
            LayerKind::FullyConnected => self.out_shape.h == 1 && self.out_shape.w == 1,
            LayerKind::GlobalPool { .. } => {
                self.out_shape.h == 1
                    && self.out_shape.w == 1
                    && self.out_shape.c == self.in_shape.c
            }
            LayerKind::DwConv { .. } | LayerKind::Pool { .. } => {
                i64::from(self.out_shape.h) == expect(self.in_shape.h)
                    && i64::from(self.out_shape.w) == expect(self.in_shape.w)
                    && self.out_shape.c == self.in_shape.c
            }
            LayerKind::Conv { .. } => {
                i64::from(self.out_shape.h) == expect(self.in_shape.h)
                    && i64::from(self.out_shape.w) == expect(self.in_shape.w)
            }
        }
    }

    /// The input-row span `[r0, r1)` needed to compute output rows
    /// `[out_r0, out_r0+rows)`, clamped to the input height (zero padding
    /// handled by the compute units).
    #[must_use]
    pub fn input_rows_for(&self, out_r0: u32, rows: u32) -> (u32, u32) {
        if matches!(self.kind, LayerKind::Add | LayerKind::FullyConnected) {
            return (out_r0, out_r0 + rows);
        }
        if matches!(self.kind, LayerKind::GlobalPool { .. }) {
            return (0, self.in_shape.h);
        }
        let k = i64::from(self.kind.kernel());
        let s = i64::from(self.kind.stride());
        let p = i64::from(self.kind.pad());
        let first = i64::from(out_r0) * s - p;
        let last = (i64::from(out_r0) + i64::from(rows) - 1) * s - p + k; // exclusive
        let r0 = first.max(0) as u32;
        let r1 = (last.max(0) as u32).min(self.in_shape.h);
        (r0, r1.max(r0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_meta(
        kernel: u8,
        stride: u8,
        pad: u8,
        in_shape: Shape3,
        out_shape: Shape3,
    ) -> LayerMeta {
        LayerMeta {
            id: 0,
            name: "conv".into(),
            kind: LayerKind::Conv { kernel, stride, pad },
            in_shape,
            out_shape,
            input_addr: 0,
            input2_addr: None,
            output_addr: 0,
            weight_addr: 0,
            weight_bytes: 0,
            quant_shift: 0,
            relu: false,
        }
    }

    #[test]
    fn shape_elems_and_display() {
        let s = Shape3::new(64, 240, 320);
        assert_eq!(s.elems(), 64 * 240 * 320);
        assert_eq!(s.bytes(), s.elems());
        assert_eq!(s.to_string(), "64x240x320");
    }

    #[test]
    fn conv_shape_consistency() {
        // 3x3 stride-1 pad-1 keeps the spatial extent.
        let m = conv_meta(3, 1, 1, Shape3::new(16, 30, 40), Shape3::new(32, 30, 40));
        assert!(m.shapes_consistent());
        // 7x7 stride-2 pad-3 halves it.
        let m = conv_meta(7, 2, 3, Shape3::new(3, 480, 640), Shape3::new(64, 240, 320));
        assert!(m.shapes_consistent());
        // Wrong output height is rejected.
        let m = conv_meta(3, 1, 1, Shape3::new(16, 30, 40), Shape3::new(32, 31, 40));
        assert!(!m.shapes_consistent());
    }

    #[test]
    fn macs_counts() {
        let m = conv_meta(3, 1, 1, Shape3::new(16, 10, 10), Shape3::new(32, 10, 10));
        assert_eq!(m.macs(), 32 * 10 * 10 * 16 * 9);
    }

    #[test]
    fn input_rows_with_padding_clamped() {
        let m = conv_meta(3, 1, 1, Shape3::new(8, 32, 32), Shape3::new(8, 32, 32));
        // First tile needs rows 0..(rows-1+k-pad) = 0..9 for 8 output rows.
        assert_eq!(m.input_rows_for(0, 8), (0, 9));
        // Middle tile gets a halo both sides.
        assert_eq!(m.input_rows_for(8, 8), (7, 17));
        // Last tile clamps at the image bottom.
        assert_eq!(m.input_rows_for(24, 8), (23, 32));
    }

    #[test]
    fn input_rows_strided() {
        let m = conv_meta(7, 2, 3, Shape3::new(3, 480, 640), Shape3::new(64, 240, 320));
        // Output rows 0..8 need input rows 0..(7*2-3+7)=0..18 clamped at 0.
        assert_eq!(m.input_rows_for(0, 8), (0, 18));
    }

    #[test]
    fn layer_kind_properties() {
        assert!(LayerKind::Conv { kernel: 3, stride: 1, pad: 1 }.reduces_input_channels());
        assert!(LayerKind::FullyConnected.reduces_input_channels());
        assert!(!LayerKind::DwConv { kernel: 3, stride: 1, pad: 1 }.reduces_input_channels());
        assert!(!LayerKind::Add.has_weights());
        assert_eq!(LayerKind::Add.kernel(), 1);
        assert_eq!(
            LayerKind::Pool { kind: PoolKind::Max, kernel: 2, stride: 2, pad: 0 }.stride(),
            2
        );
    }
}
