//! Request-scoped causal spans (DESIGN.md §5.7).
//!
//! A [`SpanStage`] names one edge of a served request's lifecycle —
//! admission, batch wait, scheduler queue, program reload, execution,
//! preempted-out, per-layer — and a [`Span`], carried in the trace as
//! `TraceEvent::Span`, records one closed interval of that stage in
//! **virtual cycles**. Span ids are derived deterministically from
//! `(request, stage, seq)` with FNV-1a, so the same run produces the same
//! ids on any host, at any thread count, and the Chrome export carries
//! every field of the graph as integer args.
//! Cycles are the only time domain: they make traces byte-identical.

/// The lifecycle stage a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanStage {
    /// Root span: gateway admission to response (one per request).
    Request,
    /// Waiting in a gateway batch buffer for the flush (batched lanes).
    BatchWait,
    /// Waiting in the admission scheduler's queue and for a slot.
    Queue,
    /// Program-reload DMA charged when the job bound to a cold slot.
    Reload,
    /// Holding the datapath and retiring instructions.
    Exec,
    /// Preempted out: backup (`t2`), parked, and restore (`t4`).
    Preempted,
    /// One layer's instructions retiring (child of an [`SpanStage::Exec`]).
    Layer,
}

impl SpanStage {
    /// All stages, in id-code order.
    pub const ALL: [SpanStage; 7] = [
        SpanStage::Request,
        SpanStage::BatchWait,
        SpanStage::Queue,
        SpanStage::Reload,
        SpanStage::Exec,
        SpanStage::Preempted,
        SpanStage::Layer,
    ];

    /// Stable numeric code (feeds [`span_id`] and the Chrome export args).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            SpanStage::Request => 0,
            SpanStage::BatchWait => 1,
            SpanStage::Queue => 2,
            SpanStage::Reload => 3,
            SpanStage::Exec => 4,
            SpanStage::Preempted => 5,
            SpanStage::Layer => 6,
        }
    }

    /// Inverse of [`SpanStage::code`].
    #[must_use]
    pub fn from_code(code: u64) -> Option<Self> {
        SpanStage::ALL.get(code as usize).copied()
    }

    /// Stable lowercase name (becomes `span:<name>` in Chrome exports).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStage::Request => "request",
            SpanStage::BatchWait => "batch-wait",
            SpanStage::Queue => "queue",
            SpanStage::Reload => "reload",
            SpanStage::Exec => "exec",
            SpanStage::Preempted => "preempted",
            SpanStage::Layer => "layer",
        }
    }
}

impl std::fmt::Display for SpanStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Deterministic span id: FNV-1a over `(request, stage code, seq)`,
/// forced odd so `0` stays free as the "no parent" sentinel. `seq`
/// disambiguates repeated intervals of one stage within one request
/// (e.g. the second exec segment after a preemption has `seq == 1`).
#[must_use]
pub fn span_id(request: u64, stage: SpanStage, seq: u32) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in request.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h = (h ^ stage.code()).wrapping_mul(PRIME);
    for b in seq.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h | 1
}

/// The root span id of a request (parent of every other stage).
#[must_use]
pub fn request_span_id(request: u64) -> u64 {
    span_id(request, SpanStage::Request, 0)
}

/// Sentinel for the `core` field when the emitter is not bound to a
/// serving core (single-engine runs).
pub const NO_CORE: u32 = u32::MAX;

/// One closed span: built by [`crate::Probe::span`], carried by
/// `TraceEvent::Span` and read back by the analysis layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Deterministic id (see [`span_id`]).
    pub id: u64,
    /// Parent span id, `0` for roots.
    pub parent: u64,
    /// The request this span belongs to (`RequestId::raw`).
    pub request: u64,
    /// Stage measured.
    pub stage: SpanStage,
    /// Start cycle (inclusive).
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
    /// Serving core index, or [`NO_CORE`].
    pub core: u32,
    /// Stage-specific detail word (see DESIGN.md §5.7: lane/tenant for
    /// request roots, layer id for layer spans, winner slot for
    /// preemptions, batch size for batch waits; otherwise 0).
    pub detail: u64,
}

impl Span {
    /// Length in cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Packs `(lane, tenant)` into a request root span's detail word.
#[must_use]
pub fn request_detail(lane_hard: bool, tenant: u32) -> u64 {
    (u64::from(lane_hard) << 32) | u64::from(tenant)
}

/// Unpacks a request root span's detail word into `(lane_hard, tenant)`.
#[must_use]
pub fn split_request_detail(detail: u64) -> (bool, u32) {
    ((detail >> 32) & 1 == 1, detail as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for st in SpanStage::ALL {
            assert_eq!(SpanStage::from_code(st.code()), Some(st));
        }
        assert_eq!(SpanStage::from_code(7), None);
    }

    #[test]
    fn ids_are_deterministic_distinct_and_never_zero() {
        let a = span_id(3, SpanStage::Exec, 0);
        assert_eq!(a, span_id(3, SpanStage::Exec, 0));
        assert_ne!(a, span_id(3, SpanStage::Exec, 1));
        assert_ne!(a, span_id(3, SpanStage::Queue, 0));
        assert_ne!(a, span_id(4, SpanStage::Exec, 0));
        assert_ne!(a, 0);
        assert_eq!(request_span_id(3), span_id(3, SpanStage::Request, 0));
    }

    #[test]
    fn detail_packing_round_trips() {
        assert_eq!(split_request_detail(request_detail(true, 7)), (true, 7));
        assert_eq!(split_request_detail(request_detail(false, u32::MAX)), (false, u32::MAX));
    }

    #[test]
    fn cycles_is_the_interval_length() {
        let mut s = Span {
            id: span_id(9, SpanStage::Reload, 0),
            parent: request_span_id(9),
            request: 9,
            stage: SpanStage::Reload,
            start: 100,
            end: 250,
            core: 1,
            detail: 0,
        };
        assert_eq!(s.cycles(), 150);
        s.end = 50;
        assert_eq!(s.cycles(), 0, "an inverted interval is empty");
    }
}
