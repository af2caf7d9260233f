//! Compilation options.

/// Tile traversal order within a convolution layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LoopOrder {
    /// Height tiles outermost, output-channel groups inner (input rows are
    /// resident across the CalcBlobs of a height tile; weights are
    /// re-loaded per blob). This is the Angel-Eye-style order the paper's
    /// instruction examples follow.
    #[default]
    HeightOuter,
    /// Output-channel groups outermost, height tiles inner (weights are
    /// resident across the height tiles of a channel group; input rows are
    /// re-loaded per tile). Interrupt recovery then needs `VIR_LOAD_W` in
    /// addition to `VIR_LOAD_D`. Provided for the ablation benches.
    ChannelOuter,
}

/// Options controlling code generation and the VI pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Loop order (see [`LoopOrder`]).
    pub loop_order: LoopOrder,
    /// Upper bound on CalcBlobs covered by one `SAVE`. The effective group
    /// size is `min(this, output-buffer capacity / blob bytes)`. The paper's
    /// scheduling illustration uses small groups (2); larger groups reduce
    /// SAVE count but grow the virtual-save sets at interrupt points.
    pub max_blobs_per_save: u16,
    /// DDR alignment for weight/activation allocations, bytes.
    pub alignment: u32,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self { loop_order: LoopOrder::default(), max_blobs_per_save: 8, alignment: 64 }
    }
}

impl CompileOptions {
    /// Returns options with the given loop order.
    #[must_use]
    pub fn with_loop_order(mut self, order: LoopOrder) -> Self {
        self.loop_order = order;
        self
    }

    /// Returns options with the given SAVE group bound.
    ///
    /// # Panics
    ///
    /// Panics when `max` is zero.
    #[must_use]
    pub fn with_max_blobs_per_save(mut self, max: u16) -> Self {
        assert!(max > 0, "max_blobs_per_save must be at least 1");
        self.max_blobs_per_save = max;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = CompileOptions::default();
        assert_eq!(o.loop_order, LoopOrder::HeightOuter);
        assert!(o.max_blobs_per_save >= 1);
        assert!(o.alignment.is_power_of_two());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_group_rejected() {
        let _ = CompileOptions::default().with_max_blobs_per_save(0);
    }
}
