//! [`Probe`]: who watches a run — the one observer handle an engine, a
//! scheduler and a gateway each hold.

use crate::span::{request_span_id, span_id, Span, SpanStage, NO_CORE};
use crate::trace::{TraceEvent, Tracer};

/// Everything a tier reports through: the trace stream and the
/// serving-core index stamped on the spans it emits. The default watches
/// nothing and costs one discriminant check per hook; nothing a probe
/// records ever feeds back into the simulation.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// Where trace events go.
    pub tracer: Tracer,
    /// Serving-core index stamped on emitted spans (`None`, written
    /// [`NO_CORE`], outside a pool; a gateway stamps each core's copy while
    /// fanning a probe out).
    pub core: Option<u32>,
}

impl From<Tracer> for Probe {
    fn from(tracer: Tracer) -> Self {
        Self { tracer, ..Self::default() }
    }
}

impl Probe {
    /// Emits one closed causal span of request `tag` (no-op, and nothing
    /// hashed, when the tracer is disabled) — the one place a
    /// [`TraceEvent::Span`] is built. The parent is the Exec segment
    /// `parent_exec` when given, else the request root; the
    /// [`SpanStage::Request`] root itself has parent `0` and, at `seq` 0,
    /// the id [`request_span_id`].
    pub fn span(
        &self,
        tag: u64,
        stage: SpanStage,
        seq: u32,
        parent_exec: Option<u32>,
        cycles: std::ops::Range<u64>,
        detail: u64,
    ) {
        self.tracer.emit(|| {
            TraceEvent::Span(Span {
                id: span_id(tag, stage, seq),
                parent: match (stage, parent_exec) {
                    (SpanStage::Request, _) => 0,
                    (_, Some(exec)) => span_id(tag, SpanStage::Exec, exec),
                    (_, None) => request_span_id(tag),
                },
                request: tag,
                stage,
                start: cycles.start,
                end: cycles.end,
                core: self.core.unwrap_or(NO_CORE),
                detail,
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_to_the_exec_segment_or_the_request_root() {
        let (tracer, buf) = Tracer::ring(8);
        let probe = Probe { core: Some(3), ..Probe::from(tracer) };
        probe.span(9, SpanStage::Layer, 2, Some(1), 10..20, 7);
        probe.span(9, SpanStage::Queue, 0, None, 0..10, 0);
        probe.span(9, SpanStage::Request, 0, None, 0..30, 5);
        let want = |id, parent, stage, start, end, detail| {
            TraceEvent::Span(Span { id, parent, request: 9, stage, start, end, core: 3, detail })
        };
        let root = request_span_id(9);
        assert_eq!(
            buf.snapshot(),
            vec![
                want(
                    span_id(9, SpanStage::Layer, 2),
                    span_id(9, SpanStage::Exec, 1),
                    SpanStage::Layer,
                    10,
                    20,
                    7
                ),
                want(span_id(9, SpanStage::Queue, 0), root, SpanStage::Queue, 0, 10, 0),
                want(root, 0, SpanStage::Request, 0, 30, 5),
            ]
        );
    }

    #[test]
    fn the_default_probe_watches_nothing_and_names_no_core() {
        Probe::default().span(9, SpanStage::Exec, 0, None, 0..1, 0);
        let (tracer, buf) = Tracer::ring(1);
        Probe::from(tracer).span(9, SpanStage::Exec, 0, None, 0..1, 0);
        assert!(matches!(buf.snapshot()[0], TraceEvent::Span(Span { core: NO_CORE, .. })));
    }
}
