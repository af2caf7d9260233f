//! Trace analysis: streaming consumers of [`TraceEvent`] rings that
//! compute preemption-latency accounting, occupancy/queue-delay
//! attribution, deadline bookkeeping, declarative SLO evaluation and
//! baseline regression gating (DESIGN.md §5.4).
//!
//! The entry point is [`Analyzer`]: feed it the events of a
//! [`crate::TraceBuffer`] and read back
//! structured stats, a rendered summary, or a `metrics-v1` registry whose
//! deadline accounting is derived exactly like the runtime's
//! `runtime.deadlines.*` counters — so a trace-driven analysis can be
//! cross-checked byte-for-byte against `Runtime::report()`.

pub mod attribution;
pub mod baseline;
pub mod preemption;
pub mod slo;
pub mod spans;

pub use attribution::{Attribution, LatencyBreakdown, SlotAttribution, TaskAttribution};
pub use baseline::{
    compare, default_rules, glob_match, Finding, GateReport, GateRule, RuleKind, Verdict,
};
pub use preemption::{DriftReport, PreemptionStats, T2Model};
pub use slo::{ClauseResult, DeadlineStats, SloReport, SloSpec, TaskSel};
pub use spans::{RequestBreakdown, SpanAnalysis, SPANS_SCHEMA};

use crate::metrics::Metrics;
use crate::trace::TraceEvent;

/// Clock assumed for traces without a [`TraceEvent::EngineMeta`] (the
/// paper's 300 MHz).
const DEFAULT_CLOCK_HZ: u64 = 300_000_000;

/// Streaming trace analyzer: one pass over an event stream, all the
/// derived accounting at the end.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    /// Interrupt strategy named by the trace's [`TraceEvent::EngineMeta`].
    pub strategy: Option<String>,
    /// Virtual clock from the same event.
    pub clock_hz: Option<u64>,
    /// Events consumed.
    pub events_seen: u64,
    /// Preemption-phase accounting.
    pub preemption: PreemptionStats,
    /// Occupancy / queue-delay attribution.
    pub attribution: Attribution,
    /// Deadline accounting (mirrors the runtime's derivation).
    pub deadlines: DeadlineStats,
    /// Request-scoped span accounting (DESIGN.md §5.7).
    pub spans: SpanAnalysis,
}

impl Analyzer {
    /// An empty analyzer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event into every sub-analysis.
    pub fn push(&mut self, ev: &TraceEvent) {
        self.events_seen += 1;
        if let TraceEvent::EngineMeta { strategy, clock_hz, .. } = ev {
            self.strategy = Some(strategy.clone());
            self.clock_hz = Some(*clock_hz);
        }
        self.preemption.push(ev);
        self.attribution.push(ev);
        self.deadlines.push(ev);
        self.spans.push(ev);
    }

    /// Consumes a whole event stream.
    pub fn consume<'a>(&mut self, events: impl IntoIterator<Item = &'a TraceEvent>) {
        for ev in events {
            self.push(ev);
        }
    }

    /// The clock used for µs rendering (default 300 MHz).
    #[must_use]
    fn clock_hz_or_default(&self) -> u64 {
        self.clock_hz.unwrap_or(DEFAULT_CLOCK_HZ)
    }

    /// Exports the analysis as an `analyze.`-prefixed metrics registry.
    ///
    /// The deadline keys (`analyze.deadlines.met` / `.missed`,
    /// `analyze.deadline.slack_cycles` / `.overrun_cycles`) use the same
    /// derivation as the runtime's `runtime.deadlines.*` /
    /// `runtime.deadline.*` — for a drained run (no outstanding
    /// deadline-carrying jobs) the values match byte for byte.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.inc("analyze.events", self.events_seen);
        m.inc("analyze.window_cycles", self.attribution.window_cycles());
        m.inc("analyze.preemptions", self.preemption.preemptions);
        m.inc("analyze.resumes", self.preemption.resumes);
        m.inc("analyze.deadlines.met", self.deadlines.met);
        m.inc("analyze.deadlines.missed", self.deadlines.missed);
        if self.deadlines.slack.count() > 0 {
            m.insert_histogram("analyze.deadline.slack_cycles", self.deadlines.slack.clone());
        }
        if self.deadlines.overrun.count() > 0 {
            m.insert_histogram("analyze.deadline.overrun_cycles", self.deadlines.overrun.clone());
        }
        for (name, h) in [
            ("analyze.preempt.t1_cycles", &self.preemption.t1),
            ("analyze.preempt.t2_cycles", &self.preemption.t2),
            ("analyze.preempt.t4_cycles", &self.preemption.t4),
            ("analyze.preempt.latency_cycles", &self.preemption.latency),
            ("analyze.preempt.cost_cycles", &self.preemption.cost),
        ] {
            if h.count() > 0 {
                m.insert_histogram(name, h.clone());
            }
        }
        for (i, s) in self.attribution.slots.iter().enumerate() {
            if s.released == 0 && s.started == 0 && s.finished == 0 {
                continue;
            }
            m.inc(&format!("analyze.slot{i}.released"), s.released);
            m.inc(&format!("analyze.slot{i}.started"), s.started);
            m.inc(&format!("analyze.slot{i}.finished"), s.finished);
            m.inc(&format!("analyze.slot{i}.busy_cycles"), s.busy_cycles);
            m.set_gauge(&format!("analyze.slot{i}.utilization"), self.attribution.utilization(i));
            if s.queue_wait.count() > 0 {
                m.insert_histogram(
                    &format!("analyze.slot{i}.queue_wait_cycles"),
                    s.queue_wait.clone(),
                );
            }
            if s.response.count() > 0 {
                m.insert_histogram(&format!("analyze.slot{i}.response_cycles"), s.response.clone());
            }
        }
        for (task, t) in &self.attribution.tasks {
            m.inc(&format!("analyze.task{task}.admitted"), t.admitted);
            m.inc(&format!("analyze.task{task}.rejected"), t.rejected);
            m.inc(&format!("analyze.task{task}.bound"), t.bound);
            if t.queue_delay.count() > 0 {
                m.insert_histogram(
                    &format!("analyze.task{task}.queue_delay_cycles"),
                    t.queue_delay.clone(),
                );
            }
        }
        if !self.spans.is_empty() {
            m.absorb("analyze.", &self.spans.metrics());
        }
        m
    }

    /// Renders a human-readable report (the `inca-analyze` default view).
    #[must_use]
    pub fn render(&self) -> String {
        let cycles_per_us = self.clock_hz_or_default() as f64 / 1e6;
        let us = |cy: u64| cy as f64 / cycles_per_us;
        let mut out = String::new();
        out.push_str(&format!(
            "strategy {}  clock {} MHz  window {:.1} ms  events {}\n",
            self.strategy.as_deref().unwrap_or("unknown"),
            self.clock_hz_or_default() / 1_000_000,
            us(self.attribution.window_cycles()) / 1e3,
            self.events_seen,
        ));
        out.push_str(&format!(
            "deadlines: {} met, {} missed\n",
            self.deadlines.met, self.deadlines.missed
        ));
        let p = &self.preemption;
        out.push_str(&format!("preemptions: {} ({} resumed)\n", p.preemptions, p.resumes));
        if p.preemptions > 0 {
            for (label, h) in [
                ("t1 finish-op", &p.t1),
                ("t2 backup   ", &p.t2),
                ("t4 restore  ", &p.t4),
                ("latency t1+t2", &p.latency),
                ("cost    t2+t4", &p.cost),
            ] {
                if h.count() == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {label}: p50 {:.1} us, p95 {:.1} us, p99 {:.1} us, worst {:.1} us ({} samples)\n",
                    us(h.p50()),
                    us(h.p95()),
                    us(h.p99()),
                    us(h.max()),
                    h.count(),
                ));
            }
        }
        for (i, s) in self.attribution.slots.iter().enumerate() {
            if s.released == 0 && s.started == 0 && s.finished == 0 {
                continue;
            }
            let b = self.attribution.breakdown(i);
            out.push_str(&format!(
                "slot{i}: {} released, {} finished, util {:.1}% | queued {:.1} us, loading {:.1} us, computing {:.1} us, preempted {:.1} us\n",
                s.released,
                s.finished,
                self.attribution.utilization(i) * 100.0,
                us(b.queued),
                us(b.loading),
                us(b.computing),
                us(b.preempted),
            ));
        }
        for (task, t) in &self.attribution.tasks {
            out.push_str(&format!(
                "task{task}: {} admitted, {} rejected, {} bound, worst queue delay {:.1} us\n",
                t.admitted,
                t.rejected,
                t.bound,
                us(t.queue_delay.max()),
            ));
        }
        if !self.spans.is_empty() {
            out.push_str(&self.spans.render(self.clock_hz_or_default()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_isa::TaskSlot;

    fn slot(i: u8) -> TaskSlot {
        TaskSlot::new(i).unwrap()
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::EngineMeta {
                cycle: 0,
                strategy: "virtual-instruction".into(),
                clock_hz: 300_000_000,
            },
            TraceEvent::JobReleased { cycle: 0, slot: slot(3) },
            TraceEvent::JobStarted { cycle: 0, slot: slot(3) },
            TraceEvent::Preempted {
                victim: slot(3),
                winner: slot(1),
                layer: 1,
                request: 300,
                t1: 40,
                t2: 160,
            },
            TraceEvent::Resumed { slot: slot(3), restore_start: 900, t4: 80 },
            TraceEvent::JobFinished {
                cycle: 1500,
                slot: slot(3),
                busy_cycles: 1200,
                preemptions: 1,
            },
            TraceEvent::DeadlineMet { cycle: 1500, slot: slot(3), deadline: 2000, slack: 500 },
        ]
    }

    #[test]
    fn analyzer_folds_all_subanalyses() {
        let mut a = Analyzer::new();
        a.consume(&sample_events());
        assert_eq!(a.strategy.as_deref(), Some("virtual-instruction"));
        assert_eq!(a.clock_hz, Some(300_000_000));
        assert_eq!(a.preemption.preemptions, 1);
        assert_eq!(a.attribution.slots[3].finished, 1);
        assert_eq!((a.deadlines.met, a.deadlines.missed), (1, 0));
    }

    #[test]
    fn metrics_export_uses_analyze_prefix() {
        let mut a = Analyzer::new();
        a.consume(&sample_events());
        let m = a.metrics();
        assert_eq!(m.counter("analyze.preemptions"), 1);
        assert_eq!(m.counter("analyze.deadlines.met"), 1);
        assert_eq!(m.counter("analyze.slot3.finished"), 1);
        assert_eq!(m.histogram("analyze.preempt.latency_cycles").unwrap().max(), 200);
        assert_eq!(m.histogram("analyze.deadline.slack_cycles").unwrap().max(), 500);
        // Idle slots export nothing.
        assert_eq!(m.counter("analyze.slot0.finished"), 0);
        assert!(m.histogram("analyze.slot0.response_cycles").is_none());
    }

    #[test]
    fn render_mentions_the_load_bearing_numbers() {
        let mut a = Analyzer::new();
        a.consume(&sample_events());
        let text = a.render();
        assert!(text.contains("virtual-instruction"));
        assert!(text.contains("1 met, 0 missed"));
        assert!(text.contains("preemptions: 1 (1 resumed)"));
        assert!(text.contains("slot3"));
    }
}
