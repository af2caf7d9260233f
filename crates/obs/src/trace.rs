//! Typed trace events, the ring-buffer recorder and the cheap [`Tracer`]
//! handle threaded through the stack.
//!
//! All timestamps are **virtual cycles** taken from the simulation clock,
//! never wall time — so the same program and seed produce the same event
//! stream (and therefore byte-identical exported traces) regardless of
//! host speed or the functional backend's worker-thread count.

use std::collections::VecDeque;
use std::sync::Arc;

use inca_isa::{Opcode, TaskSlot};
use parking_lot::Mutex;

use crate::span::SpanStage;

/// One observability event. Every variant carries the virtual cycle(s) it
/// refers to; ordering in a recorded stream follows emission order, which
/// for the single-threaded engine/runtime equals cycle order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An original instruction retired on the datapath.
    InstrRetired {
        /// Cycle execution of this instruction began.
        start: u64,
        /// Cycles charged.
        cycles: u64,
        /// Slot it ran for.
        slot: TaskSlot,
        /// Opcode.
        op: Opcode,
        /// Layer id.
        layer: u16,
    },
    /// A virtual instruction was materialised by the IAU (a `VIR_SAVE`
    /// during backup, or a `VIR_LOAD_*` during resume).
    ViMaterialized {
        /// Cycle the transfer began.
        start: u64,
        /// Cycles charged.
        cycles: u64,
        /// Slot.
        slot: TaskSlot,
        /// Opcode (`VIR_SAVE`, `VIR_LOAD_D` or `VIR_LOAD_W`).
        op: Opcode,
        /// Layer id.
        layer: u16,
    },
    /// The IAU patched (or fully elided) a later real `SAVE` whose output
    /// range was already flushed by a `VIR_SAVE`.
    SavePatched {
        /// Cycle of the patch.
        cycle: u64,
        /// Slot.
        slot: TaskSlot,
        /// The save group id.
        save_id: u32,
        /// Whether the whole `SAVE` was elided (fully flushed already).
        elided: bool,
    },
    /// A job was released into a slot (request became visible).
    JobReleased {
        /// Release cycle.
        cycle: u64,
        /// Slot.
        slot: TaskSlot,
    },
    /// A job began executing for the first time.
    JobStarted {
        /// Cycle.
        cycle: u64,
        /// Slot.
        slot: TaskSlot,
    },
    /// A job completed.
    JobFinished {
        /// Cycle.
        cycle: u64,
        /// Slot.
        slot: TaskSlot,
        /// Cycles spent executing instructions.
        busy_cycles: u64,
        /// Times it was preempted.
        preemptions: u32,
    },
    /// A job was preempted: the paper's `t1` (finish current operation)
    /// and `t2` (backup) phases, probed on the victim.
    Preempted {
        /// The victim slot.
        victim: TaskSlot,
        /// The requesting (winner) slot.
        winner: TaskSlot,
        /// Victim layer at the request.
        layer: u16,
        /// Cycle the high-priority request was released.
        request: u64,
        /// Cycles to finish the current operation.
        t1: u64,
        /// Backup cycles.
        t2: u64,
    },
    /// A preempted job resumed: the `t4` (restore) phase.
    Resumed {
        /// Slot.
        slot: TaskSlot,
        /// Cycle the restore began.
        restore_start: u64,
        /// Restore cycles.
        t4: u64,
    },
    /// A deadline-carrying job finished in time.
    DeadlineMet {
        /// Completion cycle.
        cycle: u64,
        /// Slot.
        slot: TaskSlot,
        /// The absolute deadline.
        deadline: u64,
        /// Cycles of slack left.
        slack: u64,
    },
    /// A deadline-carrying job finished late.
    DeadlineMissed {
        /// Completion cycle.
        cycle: u64,
        /// Slot.
        slot: TaskSlot,
        /// The absolute deadline.
        deadline: u64,
        /// Cycles past the deadline.
        overrun: u64,
    },
    /// The runtime delivered a publication to its subscribers.
    MessagePublished {
        /// Cycle (or publish sequence number on the wall-clock live bus).
        cycle: u64,
        /// Topic name.
        topic: String,
        /// Subscribers reached.
        subscribers: u32,
    },
    /// A node timer fired.
    TimerFired {
        /// Cycle.
        cycle: u64,
        /// Node index.
        node: u32,
        /// Timer id.
        timer: u32,
    },
    /// The admission scheduler accepted a job into a logical task's queue.
    SchedAdmitted {
        /// Cycle of the submission.
        cycle: u64,
        /// Logical task index.
        task: u32,
        /// Scheduler job id.
        job: u64,
        /// Queue depth after admission (0 when the job bound immediately).
        queue_depth: u32,
    },
    /// The admission scheduler rejected a submission or dropped a queued
    /// job under backpressure.
    SchedRejected {
        /// Cycle of the rejection/drop.
        cycle: u64,
        /// Logical task index.
        task: u32,
        /// Why: `"queue-full"`, `"admission"`, `"drop-oldest"` or
        /// `"degrade-skip"`.
        reason: &'static str,
    },
    /// The scheduler bound a logical task's queued job to a physical slot.
    SchedBound {
        /// Cycle of the binding.
        cycle: u64,
        /// Logical task index.
        task: u32,
        /// Scheduler job id.
        job: u64,
        /// The physical slot the job was bound to.
        slot: TaskSlot,
        /// Whether the binding was placed to preempt a running lower-rank
        /// job (fires the IAU's interrupt machinery).
        preempting: bool,
        /// Program-reload DMA cycles charged before the job's release.
        reload_cycles: u64,
    },
    /// Engine configuration metadata, emitted once when a tracer is
    /// attached: names the interrupt strategy and the virtual clock, so a
    /// recorded (or exported and re-imported) trace is self-describing —
    /// the analysis layer uses it to attribute stats per strategy and to
    /// convert microsecond timestamps back to cycles.
    EngineMeta {
        /// Cycle the tracer was attached.
        cycle: u64,
        /// Interrupt strategy display name (e.g. `"virtual-instruction"`).
        strategy: String,
        /// Virtual clock rate (cycles per second).
        clock_hz: u64,
    },
    /// One closed interval of a request's lifecycle (DESIGN.md §5.7),
    /// emitted when the interval ends. Only emitted for requests tagged
    /// by the serving gateway — classic engine/runtime paths never carry
    /// a request tag and their streams are unchanged. Ids are
    /// deterministic ([`crate::span::span_id`]); `parent` links the span
    /// into the request's causal tree (`0` for the root).
    Span {
        /// Deterministic span id.
        id: u64,
        /// Parent span id (`0` for the request root).
        parent: u64,
        /// The request (`RequestId::raw`).
        request: u64,
        /// Lifecycle stage measured.
        stage: SpanStage,
        /// Start cycle (inclusive).
        start: u64,
        /// End cycle (exclusive).
        end: u64,
        /// Serving core index, or [`crate::span::NO_CORE`].
        core: u32,
        /// Stage-specific detail word (DESIGN.md §5.7).
        detail: u64,
    },
    /// An application-level milestone (e.g. DSLAM PR match, map merge).
    Milestone {
        /// Cycle.
        cycle: u64,
        /// Short label (becomes the event name in exported traces).
        label: String,
        /// Free-form detail.
        detail: String,
    },
}

impl TraceEvent {
    /// The primary cycle of the event (start cycle for spans).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::InstrRetired { start, .. } | TraceEvent::ViMaterialized { start, .. } => {
                *start
            }
            TraceEvent::SavePatched { cycle, .. }
            | TraceEvent::JobReleased { cycle, .. }
            | TraceEvent::JobStarted { cycle, .. }
            | TraceEvent::JobFinished { cycle, .. }
            | TraceEvent::DeadlineMet { cycle, .. }
            | TraceEvent::DeadlineMissed { cycle, .. }
            | TraceEvent::MessagePublished { cycle, .. }
            | TraceEvent::TimerFired { cycle, .. }
            | TraceEvent::SchedAdmitted { cycle, .. }
            | TraceEvent::SchedRejected { cycle, .. }
            | TraceEvent::SchedBound { cycle, .. }
            | TraceEvent::EngineMeta { cycle, .. }
            | TraceEvent::Milestone { cycle, .. } => *cycle,
            TraceEvent::Preempted { request, .. } => *request,
            TraceEvent::Resumed { restore_start, .. } => *restore_start,
            TraceEvent::Span { start, .. } => *start,
        }
    }
}

#[derive(Debug)]
struct RingState {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// A bounded in-memory recorder. When full, the **oldest** events are
/// dropped (and counted), so the tail of a long run is always retained.
/// `record` takes `&self`, so one ring is shared by every layer of the
/// stack (engine, runtime, bus) through cloned [`Tracer`]s.
#[derive(Debug)]
pub struct RingSink {
    state: Mutex<RingState>,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            state: Mutex::new(RingState {
                events: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
            }),
        }
    }

    fn record(&self, event: TraceEvent) {
        let mut st = self.state.lock();
        if st.events.len() == st.capacity {
            st.events.pop_front();
            st.dropped += 1;
        }
        st.events.push_back(event);
    }
}

/// Read side of a [`Tracer::ring`] pair.
#[derive(Clone)]
pub struct TraceBuffer {
    ring: Arc<RingSink>,
}

impl TraceBuffer {
    /// A copy of all retained events, in emission order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let st = self.ring.state.lock();
        st.events.iter().cloned().collect()
    }

    /// Drains and returns all retained events.
    #[must_use]
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut st = self.ring.state.lock();
        st.events.drain(..).collect()
    }

    /// Events dropped because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.state.lock().dropped
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.state.lock().events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer").field("len", &self.len()).finish()
    }
}

/// The handle instrumented code holds. Cloning is cheap; the default is
/// disabled, in which case [`Tracer::emit`] is a branch on a discriminant
/// and the event closure is never run — the fast path loses nothing.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<RingSink>>,
    /// Declines per-instruction events ([`Tracer::ring_coarse`]).
    coarse: bool,
}

impl Tracer {
    /// A tracer that records nothing (the default).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer backed by a [`RingSink`] of `capacity` events, plus the
    /// buffer to read them back from.
    #[must_use]
    pub fn ring(capacity: usize) -> (Self, TraceBuffer) {
        let ring = Arc::new(RingSink::new(capacity));
        (Self { inner: Some(Arc::clone(&ring)), coarse: false }, TraceBuffer { ring })
    }

    /// Like [`Tracer::ring`], but the tracer declines per-instruction
    /// events ([`Tracer::per_instr`] is `false`), so
    /// [`TraceEvent::InstrRetired`] — one per instruction — neither evicts
    /// the sparse scheduling events a bounded ring is meant to retain nor
    /// gets built in the first place.
    #[must_use]
    pub fn ring_coarse(capacity: usize) -> (Self, TraceBuffer) {
        let (tracer, buffer) = Self::ring(capacity);
        (Self { coarse: true, ..tracer }, buffer)
    }

    /// Whether events are being recorded. Instrumentation with non-trivial
    /// setup cost should guard on this.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether per-instruction events ([`Tracer::emit_instr`]) are being
    /// recorded. An engine may advance a job by whole spans of
    /// instructions only while this is `false`.
    #[inline]
    #[must_use]
    pub fn per_instr(&self) -> bool {
        self.enabled() && !self.coarse
    }

    /// Records the event produced by `make` — which is only evaluated when
    /// the tracer is enabled.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.inner {
            sink.record(make());
        }
    }

    /// [`Tracer::emit`] for an event that occurs once per instruction
    /// ([`TraceEvent::InstrRetired`]): a coarse tracer skips it.
    #[inline]
    pub fn emit_instr(&self, make: impl FnOnce() -> TraceEvent) {
        if self.per_instr() {
            self.emit(make);
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(i: u8) -> TaskSlot {
        TaskSlot::new(i).unwrap()
    }

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(|| unreachable!("closure must not run when disabled"));
    }

    #[test]
    fn ring_records_in_order_and_reads_back() {
        let (t, buf) = Tracer::ring(16);
        assert!(t.enabled());
        for c in 0..3 {
            t.emit(|| TraceEvent::JobReleased { cycle: c, slot: slot(1) });
        }
        let events = buf.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2], TraceEvent::JobReleased { cycle: 2, slot: slot(1) });
        assert_eq!(buf.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let (t, buf) = Tracer::ring(2);
        for c in 0..5 {
            t.emit(|| TraceEvent::TimerFired { cycle: c, node: 0, timer: 0 });
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
        let events = buf.drain();
        assert_eq!(events[0].cycle(), 3);
        assert_eq!(events[1].cycle(), 4);
        assert!(buf.is_empty());
    }

    #[test]
    fn coarse_ring_declines_per_instruction_events_only() {
        let (t, buf) = Tracer::ring_coarse(8);
        assert!(t.enabled() && !t.per_instr());
        t.emit_instr(|| unreachable!("a coarse tracer never builds per-instruction events"));
        t.emit(|| TraceEvent::JobStarted { cycle: 1, slot: slot(0) });
        assert_eq!(buf.len(), 1);
        let (full, buf) = Tracer::ring(8);
        assert!(full.per_instr());
        full.emit_instr(|| TraceEvent::JobStarted { cycle: 2, slot: slot(0) });
        assert_eq!(buf.len(), 1);
        assert!(!Tracer::disabled().per_instr());
    }

    #[test]
    fn cloned_tracers_share_one_sink() {
        let (t, buf) = Tracer::ring(8);
        let t2 = t.clone();
        t.emit(|| TraceEvent::JobStarted { cycle: 1, slot: slot(0) });
        t2.emit(|| TraceEvent::JobFinished {
            cycle: 2,
            slot: slot(0),
            busy_cycles: 1,
            preemptions: 0,
        });
        assert_eq!(buf.len(), 2);
    }
}
