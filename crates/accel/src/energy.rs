//! First-order energy estimates (extension beyond the paper).
//!
//! The paper motivates CNN accelerators with energy efficiency but does
//! not evaluate energy. This module provides a standard architectural
//! energy model — per-MAC and per-byte costs plus static power — so the
//! interrupt strategies' *energy* overheads can be compared: a CPU-like
//! interrupt moves the whole 2.2 MB cache set across DDR twice, a VI
//! interrupt a few tens of kilobytes.
//!
//! Constants follow the usual 16 nm-class numbers used in accelerator
//! papers (int8 MAC ≈ 0.3 pJ, DDR access ≈ 20 pJ/B, SRAM ≈ 1 pJ/B); they
//! are configurable and only relative comparisons are meaningful.

use inca_isa::Program;

use crate::AccelConfig;

/// Energy-model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per int8 multiply-accumulate, picojoules.
    pub pj_per_mac: f64,
    /// Energy per byte moved over the DDR interface, picojoules.
    pub pj_per_ddr_byte: f64,
    /// Energy per byte moved in/out of on-chip SRAM, picojoules.
    pub pj_per_sram_byte: f64,
    /// Static (leakage + clocking) power, milliwatts.
    pub static_mw: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self { pj_per_mac: 0.3, pj_per_ddr_byte: 20.0, pj_per_sram_byte: 1.0, static_mw: 400.0 }
    }
}

/// An energy estimate broken into its components (millijoules).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyEstimate {
    /// Compute energy.
    pub compute_mj: f64,
    /// DDR transfer energy.
    pub ddr_mj: f64,
    /// Static energy over the run's duration.
    pub static_mj: f64,
}

impl EnergyEstimate {
    /// Total millijoules.
    #[must_use]
    pub fn total_mj(&self) -> f64 {
        self.compute_mj + self.ddr_mj + self.static_mj
    }
}

impl std::ops::Add for EnergyEstimate {
    type Output = EnergyEstimate;

    fn add(self, rhs: EnergyEstimate) -> EnergyEstimate {
        EnergyEstimate {
            compute_mj: self.compute_mj + rhs.compute_mj,
            ddr_mj: self.ddr_mj + rhs.ddr_mj,
            static_mj: self.static_mj + rhs.static_mj,
        }
    }
}

impl EnergyModel {
    /// Estimate from raw counters: MACs, DDR bytes and wall-clock cycles.
    #[must_use]
    pub fn estimate(
        &self,
        cfg: &AccelConfig,
        macs: u64,
        ddr_bytes: u64,
        cycles: u64,
    ) -> EnergyEstimate {
        let seconds = cycles as f64 / cfg.clock_hz as f64;
        EnergyEstimate {
            compute_mj: macs as f64 * self.pj_per_mac * 1e-9,
            ddr_mj: ddr_bytes as f64 * (self.pj_per_ddr_byte + self.pj_per_sram_byte) * 1e-9,
            static_mj: self.static_mw * seconds,
        }
    }

    /// Estimate for one uninterrupted pass of `program` taking `cycles`.
    #[must_use]
    pub fn of_program(&self, cfg: &AccelConfig, program: &Program, cycles: u64) -> EnergyEstimate {
        let stats = program.stats();
        self.estimate(cfg, stats.macs, stats.ddr_bytes, cycles)
    }

    /// Extra energy of one interrupt: the bytes moved by backup + restore
    /// (no extra compute; the high task's own energy is its own business).
    #[must_use]
    pub fn of_interrupt(
        &self,
        cfg: &AccelConfig,
        backup_bytes: u64,
        restore_bytes: u64,
        cost_cycles: u64,
    ) -> EnergyEstimate {
        self.estimate(cfg, 0, backup_bytes + restore_bytes, cost_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_add_up() {
        let m = EnergyModel::default();
        let cfg = AccelConfig::paper_big();
        let e = m.estimate(&cfg, 1_000_000_000, 10_000_000, 30_000_000);
        assert!(e.compute_mj > 0.0 && e.ddr_mj > 0.0 && e.static_mj > 0.0);
        let total = e.compute_mj + e.ddr_mj + e.static_mj;
        assert!((e.total_mj() - total).abs() < 1e-12);
        let double = e + e;
        assert!((double.total_mj() - 2.0 * e.total_mj()).abs() < 1e-9);
    }

    #[test]
    fn cpu_like_interrupt_costs_orders_more_than_vi() {
        let m = EnergyModel::default();
        let cfg = AccelConfig::paper_big();
        let onchip = u64::from(cfg.arch.onchip_bytes());
        let cpu = m.of_interrupt(&cfg, onchip, onchip, 2 * cfg.dma_cycles(onchip));
        // A VI interrupt: one blob flushed (~40 KB), one tile restored
        // (~200 KB) in the worst case.
        let vi = m.of_interrupt(&cfg, 40 << 10, 200 << 10, cfg.dma_cycles(240 << 10));
        assert!(
            cpu.total_mj() > 10.0 * vi.total_mj(),
            "cpu {} mJ vs vi {} mJ",
            cpu.total_mj(),
            vi.total_mj()
        );
    }

    #[test]
    fn static_energy_scales_with_time() {
        let m = EnergyModel::default();
        let cfg = AccelConfig::paper_big();
        let short = m.estimate(&cfg, 0, 0, cfg.clock_hz / 1000); // 1 ms
        let long = m.estimate(&cfg, 0, 0, cfg.clock_hz / 100); // 10 ms
        assert!((long.static_mj / short.static_mj - 10.0).abs() < 1e-9);
        assert!((short.static_mj - 0.4).abs() < 1e-9, "400 mW for 1 ms = 0.4 mJ");
    }
}
