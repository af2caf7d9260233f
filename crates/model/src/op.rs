//! Model-level operations.

use inca_isa::PoolKind;

/// Spatial pooling configuration at the model level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolOp {
    /// Pooling flavour.
    pub kind: PoolKind,
    /// Square window size.
    pub kernel: u8,
    /// Stride.
    pub stride: u8,
    /// Zero padding.
    pub pad: u8,
}

/// An operation node in a [`crate::Network`].
///
/// Every variant other than [`Op::Input`] consumes one input node
/// ([`Op::Add`] consumes two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Network input placeholder.
    Input,
    /// Standard convolution.
    Conv {
        /// Output channels.
        out_channels: u32,
        /// Square kernel size.
        kernel: u8,
        /// Stride.
        stride: u8,
        /// Zero padding.
        pad: u8,
        /// Fused ReLU.
        relu: bool,
    },
    /// Depthwise convolution (channel multiplier 1).
    DwConv {
        /// Square kernel size.
        kernel: u8,
        /// Stride.
        stride: u8,
        /// Zero padding.
        pad: u8,
        /// Fused ReLU.
        relu: bool,
    },
    /// Spatial pooling.
    Pool(PoolOp),
    /// Element-wise addition of exactly two inputs of identical shape.
    Add {
        /// Fused ReLU on the sum.
        relu: bool,
    },
    /// Channel-axis concatenation of two inputs with identical spatial
    /// extents (as in SqueezeNet fire modules or YOLO route layers).
    Concat,
    /// Fully connected layer over a flattened input.
    FullyConnected {
        /// Output features.
        out_features: u32,
        /// Fused ReLU.
        relu: bool,
    },
    /// Global GeM pooling (`1x1` spatial output, integer exponent `p`).
    GemPool {
        /// GeM exponent.
        p: u8,
    },
}

impl Op {
    /// Number of data inputs the op consumes.
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            Op::Input => 0,
            Op::Add { .. } | Op::Concat => 2,
            _ => 1,
        }
    }

    /// `true` if the op carries learned weights.
    #[must_use]
    pub fn has_weights(&self) -> bool {
        matches!(self, Op::Conv { .. } | Op::DwConv { .. } | Op::FullyConnected { .. })
    }

    /// Short kind label for listings.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Conv { .. } => "conv",
            Op::DwConv { .. } => "dwconv",
            Op::Pool(_) => "pool",
            Op::Add { .. } => "add",
            Op::Concat => "concat",
            Op::FullyConnected { .. } => "fc",
            Op::GemPool { .. } => "gem",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_weights() {
        assert_eq!(Op::Input.arity(), 0);
        assert_eq!(Op::Add { relu: false }.arity(), 2);
        assert_eq!(
            Op::Conv { out_channels: 8, kernel: 3, stride: 1, pad: 1, relu: true }.arity(),
            1
        );
        assert!(Op::FullyConnected { out_features: 10, relu: false }.has_weights());
        assert!(!Op::GemPool { p: 3 }.has_weights());
        assert_eq!(Op::GemPool { p: 3 }.kind_name(), "gem");
    }
}
