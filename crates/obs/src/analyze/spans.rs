//! Request-scoped span analysis: per-request critical-path extraction
//! over the causal spans emitted by the serving stack (DESIGN.md §5.7).
//!
//! Every tagged request produces one `Request` root span (gateway admit →
//! response) plus child spans for the lifecycle edges inside it. The
//! breakdown tiles the root **exactly**: `batch_wait`, `reload`, `exec`
//! and `preempted` are the summed child spans of those stages, and
//! `queue` is the residual `total − (batch_wait + reload + exec +
//! preempted)` — scheduler queue wait, slot wait and any engine stall all
//! land there, so the five parts always sum to the end-to-end latency by
//! construction.
//!
//! The exported registry uses the [`SPANS_SCHEMA`] (`inca-obs/spans-v1`)
//! envelope: identical shape to `metrics-v1`, cycle-domain counters per
//! lane/quantile (exact under the regression gate) plus aggregate share
//! gauges usable in SLO specs (`hard=queue_share:<0.2`).

use std::collections::BTreeMap;

use crate::metrics::Metrics;
pub use crate::metrics::SPANS_SCHEMA;
use crate::span::{split_request_detail, SpanStage};
use crate::trace::TraceEvent;

/// One request's exact latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestBreakdown {
    /// The request (`RequestId::raw`).
    pub request: u64,
    /// Hard-deadline lane (`false` = best-effort).
    pub hard: bool,
    /// Tenant index (from the root span's detail word).
    pub tenant: u32,
    /// Serving core of the root span.
    pub core: u32,
    /// Gateway admission cycle.
    pub arrival: u64,
    /// Response cycle.
    pub finish: u64,
    /// Cycles waiting in a gateway batch buffer.
    pub batch_wait: u64,
    /// Program-reload DMA cycles.
    pub reload: u64,
    /// Cycles holding the datapath.
    pub exec: u64,
    /// Cycles preempted out (backup + parked + restore).
    pub preempted: u64,
    /// Cycles covered by explicit scheduler-queue spans (cross-check;
    /// the reported queue figure is the residual, see [`Self::queue`]).
    pub queue_measured: u64,
}

impl RequestBreakdown {
    /// End-to-end latency (admit → response).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.finish.saturating_sub(self.arrival)
    }

    /// Queue cycles, defined as the residual
    /// `total − batch_wait − reload − exec − preempted` so the five
    /// parts tile the total exactly.
    #[must_use]
    pub fn queue(&self) -> u64 {
        self.total()
            .saturating_sub(self.batch_wait)
            .saturating_sub(self.reload)
            .saturating_sub(self.exec)
            .saturating_sub(self.preempted)
    }

    /// The five parts, in report order; they sum to [`Self::total`].
    #[must_use]
    pub fn parts(&self) -> [(&'static str, u64); 5] {
        [
            ("queue", self.queue()),
            ("batch_wait", self.batch_wait),
            ("reload", self.reload),
            ("exec", self.exec),
            ("preempted", self.preempted),
        ]
    }
}

#[derive(Debug, Clone, Default)]
struct Acc {
    root: Option<(u64, u64, u64, u32)>, // (start, end, detail, core)
    batch_wait: u64,
    reload: u64,
    exec: u64,
    preempted: u64,
    queue_measured: u64,
}

/// Streaming span consumer; fold events in, read breakdowns out.
#[derive(Debug, Clone, Default)]
pub struct SpanAnalysis {
    /// Span events consumed.
    pub span_events: u64,
    per_request: BTreeMap<u64, Acc>,
}

impl SpanAnalysis {
    /// An empty analysis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event (non-span events are ignored).
    pub fn push(&mut self, ev: &TraceEvent) {
        let TraceEvent::Span(span) = ev else { return };
        self.span_events += 1;
        let acc = self.per_request.entry(span.request).or_default();
        match span.stage {
            SpanStage::Request => {
                acc.root = Some((span.start, span.end, span.detail, span.core));
            }
            SpanStage::BatchWait => acc.batch_wait += span.cycles(),
            SpanStage::Queue => acc.queue_measured += span.cycles(),
            SpanStage::Reload => acc.reload += span.cycles(),
            SpanStage::Exec => acc.exec += span.cycles(),
            SpanStage::Preempted => acc.preempted += span.cycles(),
            SpanStage::Layer => {} // children of exec; already counted
        }
    }

    /// Whether any span was seen.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.span_events == 0
    }

    /// Requests whose spans were seen but whose root never closed
    /// (in-flight at trace end, or evicted from a full ring).
    #[must_use]
    pub fn incomplete(&self) -> u64 {
        self.per_request.values().filter(|a| a.root.is_none()).count() as u64
    }

    /// All completed requests' breakdowns, in request-id order.
    #[must_use]
    pub fn breakdowns(&self) -> Vec<RequestBreakdown> {
        self.per_request
            .iter()
            .filter_map(|(&request, acc)| {
                let (arrival, finish, detail, core) = acc.root?;
                let (hard, tenant) = split_request_detail(detail);
                Some(RequestBreakdown {
                    request,
                    hard,
                    tenant,
                    core,
                    arrival,
                    finish,
                    batch_wait: acc.batch_wait,
                    reload: acc.reload,
                    exec: acc.exec,
                    preempted: acc.preempted,
                    queue_measured: acc.queue_measured,
                })
            })
            .collect()
    }

    /// One lane's breakdowns, sorted by `(total latency, request id)`.
    #[must_use]
    pub fn lane(&self, hard: bool) -> Vec<RequestBreakdown> {
        let mut v: Vec<RequestBreakdown> =
            self.breakdowns().into_iter().filter(|b| b.hard == hard).collect();
        v.sort_by_key(|b| (b.total(), b.request));
        v
    }

    /// The lane request at quantile `q` (`0.0..=1.0`) of end-to-end
    /// latency, by the nearest-rank method — an **actual** request, so
    /// its parts sum exactly to its latency (unlike an interpolated
    /// percentile). `q = 0.99` with 100 requests picks rank 99.
    #[must_use]
    pub fn quantile(&self, hard: bool, q: f64) -> Option<RequestBreakdown> {
        let lane = self.lane(hard);
        if lane.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * lane.len() as f64).ceil() as usize;
        Some(lane[rank.max(1).min(lane.len()) - 1])
    }

    /// Aggregate share of `stage` in one lane's total latency
    /// (`Σ stage-cycles / Σ total-cycles` over all completed requests).
    /// `None` when the lane has no requests or zero total latency.
    #[must_use]
    pub fn lane_share(&self, hard: bool, stage: SpanStage) -> Option<f64> {
        let lane = self.lane(hard);
        let total: u64 = lane.iter().map(RequestBreakdown::total).sum();
        if total == 0 {
            return None;
        }
        let part: u64 = lane
            .iter()
            .map(|b| match stage {
                SpanStage::Queue => b.queue(),
                SpanStage::BatchWait => b.batch_wait,
                SpanStage::Reload => b.reload,
                SpanStage::Exec => b.exec,
                SpanStage::Preempted => b.preempted,
                SpanStage::Request | SpanStage::Layer => b.total(),
            })
            .sum();
        Some(part as f64 / total as f64)
    }

    /// The `spans-v1` registry: per-lane request counts and latency
    /// histograms, exact per-quantile critical paths
    /// (`spans.<lane>.<q>.{total,queue,batch_wait,reload,exec,preempted}`
    /// counters, all cycle-domain), and aggregate share gauges.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.inc("spans.events", self.span_events);
        m.inc("spans.requests", self.breakdowns().len() as u64);
        m.inc("spans.incomplete", self.incomplete());
        for (lane_name, hard) in [("hard", true), ("be", false)] {
            let lane = self.lane(hard);
            m.inc(&format!("spans.{lane_name}.requests"), lane.len() as u64);
            if lane.is_empty() {
                continue;
            }
            for b in &lane {
                m.observe(&format!("spans.{lane_name}.total_cycles"), b.total());
                m.observe(&format!("spans.{lane_name}.queue_cycles"), b.queue());
                m.observe(&format!("spans.{lane_name}.exec_cycles"), b.exec);
            }
            for (qname, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("max", 1.0)] {
                let Some(b) = self.quantile(hard, q) else { continue };
                let pre = format!("spans.{lane_name}.{qname}");
                m.inc(&format!("{pre}.request"), b.request);
                m.inc(&format!("{pre}.total"), b.total());
                for (part, cycles) in b.parts() {
                    m.inc(&format!("{pre}.{part}"), cycles);
                }
            }
            for stage in [
                SpanStage::Queue,
                SpanStage::BatchWait,
                SpanStage::Reload,
                SpanStage::Exec,
                SpanStage::Preempted,
            ] {
                if let Some(share) = self.lane_share(hard, stage) {
                    let key = match stage {
                        SpanStage::Queue => "queue_share",
                        SpanStage::BatchWait => "batch_share",
                        SpanStage::Reload => "reload_share",
                        SpanStage::Exec => "exec_share",
                        _ => "preempt_share",
                    };
                    m.set_gauge(&format!("spans.{lane_name}.{key}"), share);
                }
            }
        }
        m
    }

    /// Human-readable critical-path report (the `inca-analyze --spans`
    /// default view). `clock_hz` converts cycles to µs for display.
    #[must_use]
    pub fn render(&self, clock_hz: u64) -> String {
        let cycles_per_us = clock_hz as f64 / 1e6;
        let us = |cy: u64| cy as f64 / cycles_per_us;
        let mut out = String::new();
        out.push_str(&format!(
            "spans: {} events, {} completed requests ({} incomplete)\n",
            self.span_events,
            self.breakdowns().len(),
            self.incomplete(),
        ));
        for (lane_name, hard) in [("hard", true), ("be", false)] {
            let lane = self.lane(hard);
            if lane.is_empty() {
                continue;
            }
            out.push_str(&format!("{lane_name} lane: {} requests\n", lane.len()));
            for (qname, q) in [("p50", 0.50), ("p99", 0.99), ("max", 1.0)] {
                let Some(b) = self.quantile(hard, q) else { continue };
                let total = b.total().max(1);
                let mut parts = String::new();
                for (name, cy) in b.parts() {
                    if cy == 0 {
                        continue;
                    }
                    parts.push_str(&format!(
                        " {name} {:.1}us ({:.0}%)",
                        us(cy),
                        cy as f64 / total as f64 * 100.0
                    ));
                }
                out.push_str(&format!(
                    "  {qname}: request {} (tenant {}, core {}) total {:.1}us ={}\n",
                    b.request,
                    b.tenant,
                    b.core,
                    us(b.total()),
                    parts,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{request_detail, request_span_id, span_id, Span, NO_CORE};

    fn span(
        request: u64,
        stage: SpanStage,
        seq: u32,
        start: u64,
        end: u64,
        detail: u64,
    ) -> TraceEvent {
        TraceEvent::Span(Span {
            id: span_id(request, stage, seq),
            parent: if stage == SpanStage::Request { 0 } else { request_span_id(request) },
            request,
            stage,
            start,
            end,
            core: NO_CORE,
            detail,
        })
    }

    fn sample() -> SpanAnalysis {
        let mut a = SpanAnalysis::new();
        // Request 1 (hard): 0..1000 total; queue 100..300 measured,
        // reload 300..350, exec 350..600 and 800..1000, preempted 600..800.
        a.push(&span(1, SpanStage::Queue, 0, 0, 300, 0));
        a.push(&span(1, SpanStage::Reload, 0, 300, 350, 0));
        a.push(&span(1, SpanStage::Exec, 0, 350, 600, 0));
        a.push(&span(1, SpanStage::Preempted, 0, 600, 800, 0));
        a.push(&span(1, SpanStage::Exec, 1, 800, 1000, 0));
        a.push(&span(1, SpanStage::Request, 0, 0, 1000, request_detail(true, 2)));
        // Request 2 (be): batched, shorter.
        a.push(&span(2, SpanStage::BatchWait, 0, 0, 50, 0));
        a.push(&span(2, SpanStage::Exec, 0, 80, 200, 0));
        a.push(&span(2, SpanStage::Request, 0, 0, 200, request_detail(false, 0)));
        a
    }

    #[test]
    fn parts_tile_the_total_exactly() {
        let a = sample();
        for b in a.breakdowns() {
            let sum: u64 = b.parts().iter().map(|(_, c)| c).sum();
            assert_eq!(sum, b.total(), "request {} must tile exactly", b.request);
        }
        let hard = a.quantile(true, 0.99).unwrap();
        assert_eq!(hard.request, 1);
        assert_eq!(hard.total(), 1000);
        assert_eq!(hard.exec, 450);
        assert_eq!(hard.preempted, 200);
        assert_eq!(hard.reload, 50);
        assert_eq!(hard.batch_wait, 0);
        assert_eq!(hard.queue(), 300); // residual: the measured 300cy queue
        assert_eq!(hard.queue_measured, 300);
    }

    #[test]
    fn lanes_are_split_by_root_detail() {
        let a = sample();
        assert_eq!(a.lane(true).len(), 1);
        assert_eq!(a.lane(false).len(), 1);
        let be = a.quantile(false, 0.5).unwrap();
        assert_eq!((be.request, be.tenant, be.batch_wait), (2, 0, 50));
        // be queue residual = 200 - 50 - 120 = 30 (the 50..80 slot wait).
        assert_eq!(be.queue(), 30);
    }

    #[test]
    fn shares_and_metrics_are_exported() {
        let a = sample();
        let share = a.lane_share(true, SpanStage::Queue).unwrap();
        assert!((share - 0.3).abs() < 1e-12);
        let m = a.metrics();
        assert_eq!(m.counter("spans.requests"), 2);
        assert_eq!(m.counter("spans.hard.p99.total"), 1000);
        assert_eq!(m.counter("spans.hard.p99.queue"), 300);
        assert_eq!(m.counter("spans.hard.p99.exec"), 450);
        assert_eq!(m.gauge("spans.hard.queue_share"), Some(0.3));
        assert!(m.histogram("spans.be.total_cycles").is_some());
    }

    #[test]
    fn incomplete_requests_are_counted_not_reported() {
        let mut a = sample();
        a.push(&span(9, SpanStage::Queue, 0, 0, 10, 0)); // no root
        assert_eq!(a.incomplete(), 1);
        assert_eq!(a.breakdowns().len(), 2);
    }

    #[test]
    fn render_names_the_critical_path() {
        let text = sample().render(1_000_000);
        assert!(text.contains("hard lane: 1 requests"));
        assert!(text.contains("request 1"));
        assert!(text.contains("queue"));
    }
}
