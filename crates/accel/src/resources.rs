//! FPGA resource estimates (paper draft Table "hardware").
//!
//! Synthesis cannot be simulated in software, so this module anchors to
//! the paper's Vivado post-implementation numbers on the ZCU102/ZU9 and
//! scales the accelerator's datapath terms with the configured
//! parallelism. Its purpose is the paper's architectural argument: the
//! IAU adds *no DSPs* and about 3 % of the accelerator's LUTs, which is
//! why retrofitting interruptibility onto instruction-driven accelerators
//! is cheap.

use inca_isa::Parallelism;

/// FPGA resource usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ResourceEstimate {
    /// DSP48 slices.
    pub dsp: u32,
    /// Look-up tables.
    pub lut: u32,
    /// Flip-flops.
    pub ff: u32,
    /// 36Kb block RAMs.
    pub bram: u32,
}

impl ResourceEstimate {
    /// Utilisation of this estimate against a device budget, per resource,
    /// in percent.
    #[must_use]
    pub fn utilisation(&self, device: &ResourceEstimate) -> [f64; 4] {
        let pct = |a: u32, b: u32| 100.0 * f64::from(a) / f64::from(b.max(1));
        [
            pct(self.dsp, device.dsp),
            pct(self.lut, device.lut),
            pct(self.ff, device.ff),
            pct(self.bram, device.bram),
        ]
    }
}

impl std::ops::Add for ResourceEstimate {
    type Output = ResourceEstimate;

    fn add(self, rhs: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            dsp: self.dsp + rhs.dsp,
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            bram: self.bram + rhs.bram,
        }
    }
}

/// The ZU9 MPSoC (ZCU102) device budget (paper Table "hardware", row
/// "On-Board resource").
#[must_use]
pub fn zu9_device() -> ResourceEstimate {
    ResourceEstimate { dsp: 2520, lut: 274_080, ff: 548_160, bram: 912 }
}

/// Paper's reference parallelism for the reported accelerator numbers.
const REFERENCE_PES: u32 = 16 * 16 * 8;

/// The CNN accelerator itself, scaled from the paper's reference
/// implementation (1282 DSP / 74569 LUT / 171416 FF / 499 BRAM at
/// 16×16×8 parallelism). The datapath terms scale with PE count; a fixed
/// control overhead does not.
#[must_use]
pub fn cnn_accelerator(p: Parallelism) -> ResourceEstimate {
    let scale = f64::from(p.pe_count()) / f64::from(REFERENCE_PES);
    let mix = |datapath: f64, fixed: f64| ((datapath * scale + fixed).round()) as u32;
    ResourceEstimate {
        dsp: mix(1282.0, 0.0),
        lut: mix(64_569.0, 10_000.0),
        ff: mix(151_416.0, 20_000.0),
        bram: mix(449.0, 50.0),
    }
}

/// The Instruction Arrangement Unit: constant-size control logic
/// (paper: 0 DSP / 2268 LUT / 4633 FF / 4 BRAM), independent of the
/// compute-array parallelism.
#[must_use]
pub fn iau() -> ResourceEstimate {
    ResourceEstimate { dsp: 0, lut: 2268, ff: 4633, bram: 4 }
}

/// The feature-point-extraction post-processing block (NMS etc.;
/// paper: 25 DSP / 17573 LUT / 29115 FF / 10 BRAM).
#[must_use]
pub fn fe_post_processing() -> ResourceEstimate {
    ResourceEstimate { dsp: 25, lut: 17_573, ff: 29_115, bram: 10 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_parallelism_reproduces_paper_row() {
        let r = cnn_accelerator(Parallelism::new(16, 16, 8));
        assert_eq!(r.dsp, 1282);
        assert_eq!(r.lut, 74_569);
        assert_eq!(r.ff, 171_416);
        assert_eq!(r.bram, 499);
    }

    #[test]
    fn iau_is_cheap() {
        let acc = cnn_accelerator(Parallelism::new(16, 16, 8));
        let iau = iau();
        assert_eq!(iau.dsp, 0, "IAU uses no DSPs");
        let lut_ratio = f64::from(iau.lut) / f64::from(acc.lut);
        assert!(lut_ratio < 0.05, "IAU LUTs should be <5% of the accelerator");
    }

    #[test]
    fn everything_fits_the_zu9() {
        let total = cnn_accelerator(Parallelism::new(16, 16, 8)) + iau() + fe_post_processing();
        let util = total.utilisation(&zu9_device());
        for (i, u) in util.iter().enumerate() {
            assert!(*u < 100.0, "resource {i} over budget: {u}%");
        }
    }

    #[test]
    fn smaller_accelerator_uses_fewer_resources() {
        let big = cnn_accelerator(Parallelism::new(16, 16, 8));
        let small = cnn_accelerator(Parallelism::new(8, 8, 4));
        assert!(small.dsp < big.dsp);
        assert!(small.lut < big.lut);
    }
}
