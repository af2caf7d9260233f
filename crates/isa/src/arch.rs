//! Architectural parameters shared by the compiler and the accelerator
//! simulator: hardware parallelism and on-chip buffer capacities.

/// Hardware parallelism of the compute array (paper §IV-A): each `CALC`
/// instruction processes `height` output lines from `input` input channels
/// to `output` output channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// `Para_in` — input-channel parallelism.
    pub input: u16,
    /// `Para_out` — output-channel parallelism.
    pub output: u16,
    /// `Para_height` — line parallelism.
    pub height: u16,
}

impl Parallelism {
    /// Creates a parallelism descriptor.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    #[must_use]
    pub fn new(input: u16, output: u16, height: u16) -> Self {
        assert!(input > 0 && output > 0 && height > 0, "parallelism dimensions must be nonzero");
        Self { input, output, height }
    }

    /// MAC units implied (one per (in, out, line) combination).
    #[must_use]
    pub fn pe_count(&self) -> u32 {
        u32::from(self.input) * u32::from(self.output) * u32::from(self.height)
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "in{}xout{}xh{}", self.input, self.output, self.height)
    }
}

/// Static architecture description of an Angel-Eye-class accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchSpec {
    /// Compute-array parallelism.
    pub parallelism: Parallelism,
    /// Input feature-map (data) buffer capacity in bytes.
    pub data_buffer_bytes: u32,
    /// Weight buffer capacity in bytes.
    pub weight_buffer_bytes: u32,
    /// Output (result) buffer capacity in bytes.
    pub output_buffer_bytes: u32,
}

impl ArchSpec {
    /// The "big accelerator" of the paper's evaluation:
    /// `Para_height = 8`, `Para_in = 16`, `Para_out = 16`, with 2.2 MB of
    /// on-chip caches as stated in §IV-B.
    #[must_use]
    pub fn angel_eye_big() -> Self {
        Self {
            parallelism: Parallelism::new(16, 16, 8),
            data_buffer_bytes: 1 << 20,     // 1.0 MiB
            weight_buffer_bytes: 704 << 10, // 0.69 MiB
            output_buffer_bytes: 512 << 10, // 0.5 MiB
        }
    }

    /// The "small accelerator" (paper §IV-C worked example):
    /// `Para_in = 8`, `Para_out = 8`, `Para_height = 4`, with
    /// proportionally smaller caches.
    #[must_use]
    pub fn angel_eye_small() -> Self {
        Self {
            parallelism: Parallelism::new(8, 8, 4),
            data_buffer_bytes: 512 << 10,
            weight_buffer_bytes: 352 << 10,
            output_buffer_bytes: 256 << 10,
        }
    }

    /// Total on-chip cache bytes (what a CPU-like interrupt must move).
    #[must_use]
    pub fn onchip_bytes(&self) -> u32 {
        self.data_buffer_bytes + self.weight_buffer_bytes + self.output_buffer_bytes
    }
}

impl Default for ArchSpec {
    fn default() -> Self {
        Self::angel_eye_big()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let big = ArchSpec::angel_eye_big();
        assert_eq!(big.parallelism, Parallelism::new(16, 16, 8));
        // Paper §IV-B: "several MB of on-chip caches ... totally 2.2MB".
        let mb = f64::from(big.onchip_bytes()) / (1024.0 * 1024.0);
        assert!((2.1..2.3).contains(&mb), "on-chip = {mb} MiB");

        let small = ArchSpec::angel_eye_small();
        assert_eq!(small.parallelism, Parallelism::new(8, 8, 4));
        assert!(small.onchip_bytes() < big.onchip_bytes());
    }

    #[test]
    fn pe_count() {
        assert_eq!(ArchSpec::angel_eye_big().parallelism.pe_count(), 16 * 16 * 8);
        assert_eq!(Parallelism::new(8, 8, 4).to_string(), "in8xout8xh4");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_parallelism_rejected() {
        let _ = Parallelism::new(0, 8, 4);
    }
}
