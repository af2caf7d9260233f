//! Accelerator configuration and clock/time conversions.

use inca_isa::ArchSpec;

/// Full configuration of the simulated accelerator: static architecture
/// plus the calibrated timing parameters.
///
/// The defaults reproduce the paper's setup: Angel-Eye on a ZU9 MPSoC with
/// the accelerator and IAU clocked at 300 MHz. The DMA and compute-array
/// constants are calibrated against the paper draft's backup-vs-conv
/// timing table (EXPERIMENTS.md, E5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccelConfig {
    /// Static architecture (parallelism + buffer capacities).
    pub arch: ArchSpec,
    /// Core clock in Hz (paper: 300 MHz).
    pub clock_hz: u64,
    /// Effective DDR bandwidth in bytes per core cycle (12 B/cycle at
    /// 300 MHz ≈ 3.6 GB/s effective, matching the paper's backup timings).
    pub ddr_bytes_per_cycle: u32,
    /// Fixed DMA setup cost per transfer instruction, cycles.
    pub dma_setup_cycles: u32,
    /// Pipeline fill/drain cost per CALC instruction, cycles.
    pub calc_pipeline_cycles: u32,
    /// Native convolver window: each PE computes a `convolver_kernel`²
    /// window per pixel per cycle (3 in Angel-Eye). Larger kernels are
    /// decomposed into multiple passes, 1×1 uses a fraction of one pass.
    pub convolver_kernel: u8,
}

impl AccelConfig {
    /// The paper's "big accelerator": `16/16/8` parallelism, 300 MHz.
    #[must_use]
    pub fn paper_big() -> Self {
        Self {
            arch: ArchSpec::angel_eye_big(),
            clock_hz: 300_000_000,
            ddr_bytes_per_cycle: 12,
            dma_setup_cycles: 60,
            calc_pipeline_cycles: 16,
            convolver_kernel: 3,
        }
    }

    /// The paper's "small accelerator": `8/8/4` parallelism, 300 MHz.
    #[must_use]
    pub fn paper_small() -> Self {
        Self { arch: ArchSpec::angel_eye_small(), ..Self::paper_big() }
    }

    /// Converts cycles to microseconds at this configuration's clock.
    #[must_use]
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 * 1e6 / self.clock_hz as f64
    }

    /// Converts cycles to milliseconds.
    #[must_use]
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        self.cycles_to_us(cycles) / 1e3
    }

    /// Converts a duration in microseconds to (rounded) cycles.
    #[must_use]
    pub fn us_to_cycles(&self, us: f64) -> u64 {
        (us * self.clock_hz as f64 / 1e6).round() as u64
    }

    /// Cycles to move `bytes` over the DDR bus, including DMA setup.
    #[must_use]
    pub fn dma_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        u64::from(self.dma_setup_cycles) + bytes.div_ceil(u64::from(self.ddr_bytes_per_cycle))
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self::paper_big()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_conversions_round_trip() {
        let cfg = AccelConfig::paper_big();
        assert_eq!(cfg.clock_hz, 300_000_000);
        assert!((cfg.cycles_to_us(300) - 1.0).abs() < 1e-9);
        assert_eq!(cfg.us_to_cycles(1.0), 300);
        assert_eq!(cfg.us_to_cycles(cfg.cycles_to_us(123_456)), 123_456);
    }

    #[test]
    fn dma_model() {
        let cfg = AccelConfig::paper_big();
        assert_eq!(cfg.dma_cycles(0), 0);
        assert_eq!(cfg.dma_cycles(12), 60 + 1);
        assert_eq!(cfg.dma_cycles(13), 60 + 2);
        // CPU-like full-cache move: 2.2 MB each way ≈ 0.64 ms.
        let ms = cfg.cycles_to_ms(cfg.dma_cycles(u64::from(cfg.arch.onchip_bytes())));
        assert!((0.4..1.0).contains(&ms), "full-cache move = {ms} ms");
    }

    #[test]
    fn small_differs_only_in_arch() {
        let big = AccelConfig::paper_big();
        let small = AccelConfig::paper_small();
        assert_eq!(big.clock_hz, small.clock_hz);
        assert_ne!(big.arch, small.arch);
    }
}
