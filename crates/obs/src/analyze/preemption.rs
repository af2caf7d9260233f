//! Preemption-latency accounting: per-phase distributions (the paper's
//! `t1` finish-current-op, `t2` backup, `t4` restore), worst cases, and
//! measured-vs-model drift against the analytical cost model.

use inca_isa::TASK_SLOTS;

use crate::metrics::Histogram;
use crate::trace::TraceEvent;

/// Aggregated preemption statistics over one trace.
#[derive(Debug, Clone, Default)]
pub struct PreemptionStats {
    /// Preemptions observed ([`TraceEvent::Preempted`]).
    pub preemptions: u64,
    /// Resumes observed ([`TraceEvent::Resumed`]).
    pub resumes: u64,
    /// Distribution of `t1` (finish current operation).
    pub t1: Histogram,
    /// Distribution of `t2` (backup).
    pub t2: Histogram,
    /// Distribution of `t4` (restore).
    pub t4: Histogram,
    /// Distribution of the interrupt response latency `t1 + t2`.
    pub latency: Histogram,
    /// Distribution of the scheduling cost `t2 + t4`. `t4` is only
    /// attributable to a preemption once the victim resumes, so the cost
    /// histogram pairs each [`TraceEvent::Resumed`] with the most recent
    /// unresumed preemption of that slot.
    pub cost: Histogram,
    /// Preemptions suffered per victim slot.
    pub per_victim: [u64; TASK_SLOTS],
    /// Worst response latency `t1 + t2` imposed per winner slot.
    pub worst_latency_per_winner: [u64; TASK_SLOTS],
    /// Pending `t2` per slot, for cost pairing.
    pending_t2: [Option<u64>; TASK_SLOTS],
}

impl PreemptionStats {
    /// Folds one event into the stats.
    pub fn push(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Preempted { victim, winner, t1, t2, .. } => {
                self.preemptions += 1;
                self.per_victim[victim.index()] += 1;
                self.t1.observe(*t1);
                self.t2.observe(*t2);
                self.latency.observe(t1 + t2);
                let w = &mut self.worst_latency_per_winner[winner.index()];
                *w = (*w).max(t1 + t2);
                self.pending_t2[victim.index()] = Some(*t2);
            }
            TraceEvent::Resumed { slot, t4, .. } => {
                self.resumes += 1;
                self.t4.observe(*t4);
                let t2 = self.pending_t2[slot.index()].take().unwrap_or(0);
                self.cost.observe(t2 + t4);
            }
            _ => {}
        }
    }

    /// Checks the measured `t2` distribution against the analytical
    /// model's worst case for the strategy that produced the trace.
    #[must_use]
    pub fn t2_drift(&self, model: &T2Model) -> DriftReport {
        let measured_worst = self.t2.max();
        let within_bound = measured_worst <= model.worst_t2;
        // Exact models (CPU-like: full on-chip dump; layer-by-layer /
        // non-preemptive: zero) must also be hit from below.
        let exact_ok = !model.exact
            || self.t2.count() == 0
            || (self.t2.min() == model.worst_t2 && measured_worst == model.worst_t2);
        DriftReport {
            samples: self.t2.count(),
            measured_worst_t2: measured_worst,
            model_worst_t2: model.worst_t2,
            ratio: if model.worst_t2 == 0 {
                if measured_worst == 0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                measured_worst as f64 / model.worst_t2 as f64
            },
            within: within_bound && exact_ok,
        }
    }
}

/// The analytical `t2` prediction for one (strategy, program) pair —
/// computed by the caller (e.g. `inca-analyze` via
/// `inca_accel::analysis::t2_worst`), since `inca-obs` sits below the
/// accelerator crate in the dependency graph.
#[derive(Debug, Clone)]
pub struct T2Model {
    /// Strategy display name, for reporting.
    pub strategy: String,
    /// Worst-case backup cost the model allows.
    pub worst_t2: u64,
    /// Whether the model is exact (every measured `t2` must equal
    /// `worst_t2`) rather than an upper bound.
    pub exact: bool,
}

/// Measured-vs-model comparison for the backup phase.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Number of measured `t2` samples.
    pub samples: u64,
    /// Worst measured backup cost.
    pub measured_worst_t2: u64,
    /// The model's worst case.
    pub model_worst_t2: u64,
    /// `measured_worst / model_worst` (1.0 when both are zero).
    pub ratio: f64,
    /// Whether the measurements satisfy the model (bound respected;
    /// exact models matched exactly).
    pub within: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_isa::TaskSlot;

    fn slot(i: u8) -> TaskSlot {
        TaskSlot::new(i).unwrap()
    }

    fn preempt(victim: u8, winner: u8, t1: u64, t2: u64) -> TraceEvent {
        TraceEvent::Preempted {
            victim: slot(victim),
            winner: slot(winner),
            layer: 0,
            request: 100,
            t1,
            t2,
        }
    }

    #[test]
    fn phases_accumulate_and_cost_pairs_resume() {
        let mut p = PreemptionStats::default();
        p.push(&preempt(3, 1, 40, 60));
        p.push(&TraceEvent::Resumed { slot: slot(3), restore_start: 500, t4: 25 });
        p.push(&preempt(2, 0, 10, 0));
        assert_eq!(p.preemptions, 2);
        assert_eq!(p.resumes, 1);
        assert_eq!(p.per_victim, [0, 0, 1, 1]);
        assert_eq!(p.latency.max(), 100);
        assert_eq!(p.worst_latency_per_winner[1], 100);
        assert_eq!(p.worst_latency_per_winner[0], 10);
        // cost = t2 + t4 for the resumed preemption only.
        assert_eq!(p.cost.count(), 1);
        assert_eq!(p.cost.max(), 85);
    }

    #[test]
    fn drift_bounds_and_exactness() {
        let mut p = PreemptionStats::default();
        p.push(&preempt(3, 1, 5, 200));
        p.push(&preempt(3, 1, 7, 200));

        let bound = T2Model { strategy: "virtual-instruction".into(), worst_t2: 250, exact: false };
        let d = p.t2_drift(&bound);
        assert!(d.within);
        assert!((d.ratio - 0.8).abs() < 1e-12);

        let exact = T2Model { strategy: "cpu-like".into(), worst_t2: 200, exact: true };
        assert!(p.t2_drift(&exact).within);

        let tight = T2Model { strategy: "virtual-instruction".into(), worst_t2: 150, exact: false };
        assert!(!p.t2_drift(&tight).within, "bound violated");

        let exact_off = T2Model { strategy: "cpu-like".into(), worst_t2: 210, exact: true };
        assert!(!p.t2_drift(&exact_off).within, "exact model must match exactly");
    }

    #[test]
    fn zero_model_zero_measured_is_unit_ratio() {
        let mut p = PreemptionStats::default();
        p.push(&preempt(3, 1, 12, 0));
        let m = T2Model { strategy: "layer-by-layer".into(), worst_t2: 0, exact: true };
        let d = p.t2_drift(&m);
        assert!(d.within);
        assert!((d.ratio - 1.0).abs() < 1e-12);
    }
}
