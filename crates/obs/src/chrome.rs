//! Chrome trace-event JSON export, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Track layout per process (one process per accelerator/agent):
//!
//! * tids 0..3 — one track per task slot, in priority order. Job
//!   executions are `"job"` slices; the paper's interrupt phases appear as
//!   nested slices (`t1` finish-current-op, `t2` backup, `t4` restore),
//!   with materialised virtual instructions nested inside `t2`/`t4`.
//!   Deadline outcomes and job releases are thread instants.
//! * tid 8 — the runtime track: topic publications and timer fires.
//! * tid 9 — the application track: milestones (PR match, map merge, …).
//!
//! Timestamps are virtual cycles converted to microseconds with the
//! configured clock; all inputs come from the virtual clock, so the
//! export is byte-identical across runs, host machines and functional
//! backend thread counts.

use crate::json::{self, Obj};
use crate::span::Span;
use crate::trace::TraceEvent;
use inca_isa::TASK_SLOTS;

/// tid of the runtime (publications / timers) track.
pub const RUNTIME_TID: u32 = 8;
/// tid of the application-milestone track.
pub const APP_TID: u32 = 9;
/// First tid of the request-span tracks: one track per
/// [`crate::span::SpanStage`], at `SPAN_TID_BASE + stage.code()`.
pub const SPAN_TID_BASE: u32 = 16;

/// Builder for a Chrome trace-event JSON document.
#[derive(Debug)]
pub struct ChromeTrace {
    cycles_per_us: f64,
    parts: Vec<String>,
}

impl ChromeTrace {
    /// Creates a builder; `cycles_per_us` converts virtual cycles to the
    /// trace's microsecond timebase (300 for the paper's 300 MHz clock).
    #[must_use]
    pub fn new(cycles_per_us: f64) -> Self {
        Self { cycles_per_us: cycles_per_us.max(f64::MIN_POSITIVE), parts: Vec::new() }
    }

    fn ts(&self, cycle: u64) -> String {
        json::number(cycle as f64 / self.cycles_per_us)
    }

    fn meta(&mut self, pid: u32, tid: Option<u32>, kind: &str, name: &str) {
        let mut o = Obj::new().str("name", kind).str("ph", "M").u64("pid", u64::from(pid));
        if let Some(tid) = tid {
            o = o.u64("tid", u64::from(tid));
        }
        self.parts.push(o.raw("args", &Obj::new().str("name", name).finish()).finish());
    }

    fn slice(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        start: u64,
        dur: u64,
        args: Option<String>,
    ) {
        let mut o = Obj::new()
            .str("name", name)
            .str("ph", "X")
            .raw("ts", &self.ts(start))
            .raw("dur", &json::number(dur as f64 / self.cycles_per_us))
            .u64("pid", u64::from(pid))
            .u64("tid", u64::from(tid));
        if let Some(args) = args {
            o = o.raw("args", &args);
        }
        self.parts.push(o.finish());
    }

    fn instant(&mut self, pid: u32, tid: u32, name: &str, cycle: u64, args: Option<String>) {
        let mut o = Obj::new()
            .str("name", name)
            .str("ph", "i")
            .str("s", "t")
            .raw("ts", &self.ts(cycle))
            .u64("pid", u64::from(pid))
            .u64("tid", u64::from(tid));
        if let Some(args) = args {
            o = o.raw("args", &args);
        }
        self.parts.push(o.finish());
    }

    /// Marks `pid`'s trace ring as having overflowed: `dropped` events
    /// were evicted before export, so the trace is **incomplete**. Emits
    /// a loud warning on stderr plus an unmissable instant at cycle 0,
    /// so a truncated trace is never silently analyzed as complete.
    pub fn note_dropped(&mut self, pid: u32, dropped: u64) {
        if dropped == 0 {
            return;
        }
        eprintln!(
            "WARNING: trace ring overflowed — {dropped} event(s) dropped from pid {pid}; \
             the exported trace is INCOMPLETE (raise the ring capacity or sample requests)"
        );
        let args = Obj::new().u64("dropped", dropped).finish();
        self.instant(pid, RUNTIME_TID, "TRACE RING OVERFLOW", 0, Some(args));
    }

    /// Adds one process (accelerator/agent) worth of events.
    pub fn add_process(&mut self, pid: u32, name: &str, events: &[TraceEvent]) {
        self.meta(pid, None, "process_name", name);
        for slot in 0..TASK_SLOTS as u32 {
            self.meta(pid, Some(slot), "thread_name", &format!("slot{slot} (prio {slot})"));
        }
        self.meta(pid, Some(RUNTIME_TID), "thread_name", "runtime");
        self.meta(pid, Some(APP_TID), "thread_name", "app");
        if events.iter().any(|ev| matches!(ev, TraceEvent::Span(_))) {
            for stage in crate::span::SpanStage::ALL {
                self.meta(
                    pid,
                    Some(SPAN_TID_BASE + stage.code() as u32),
                    "thread_name",
                    &format!("span:{stage}"),
                );
            }
        }
        // Span id -> track tid, for flow-event (arrow) endpoints.
        let span_tid = |stage: crate::span::SpanStage| SPAN_TID_BASE + stage.code() as u32;
        let mut span_tracks: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for ev in events {
            if let TraceEvent::Span(s) = ev {
                span_tracks.insert(s.id, span_tid(s.stage));
            }
        }

        // Open "job" slice start cycle per slot track.
        let mut open: [Option<u64>; TASK_SLOTS] = [None; TASK_SLOTS];
        let mut last_cycle = 0u64;
        for ev in events {
            last_cycle = last_cycle.max(ev.cycle());
            match ev {
                TraceEvent::ViMaterialized { start, cycles, slot, op, layer } => {
                    last_cycle = last_cycle.max(start + cycles);
                    let args = Obj::new().u64("layer", u64::from(*layer)).finish();
                    let tid = slot.index() as u32;
                    self.slice(
                        pid,
                        tid,
                        &format!("vi:{}", op.mnemonic()),
                        *start,
                        *cycles,
                        Some(args),
                    );
                }
                TraceEvent::SavePatched { cycle, slot, save_id, elided } => {
                    let args = Obj::new()
                        .u64("save_id", u64::from(*save_id))
                        .str("elided", if *elided { "true" } else { "false" })
                        .finish();
                    self.instant(pid, slot.index() as u32, "save patched", *cycle, Some(args));
                }
                TraceEvent::JobReleased { cycle, slot } => {
                    self.instant(pid, slot.index() as u32, "released", *cycle, None);
                }
                TraceEvent::JobStarted { cycle, slot } => {
                    open[slot.index()] = Some(*cycle);
                }
                TraceEvent::JobFinished { cycle, slot, busy_cycles, preemptions } => {
                    if let Some(start) = open[slot.index()].take() {
                        let args = Obj::new()
                            .u64("busy_cycles", *busy_cycles)
                            .u64("preemptions", u64::from(*preemptions))
                            .finish();
                        let tid = slot.index() as u32;
                        self.slice(pid, tid, "job", start, cycle.saturating_sub(start), Some(args));
                    }
                }
                TraceEvent::Preempted { victim, winner, layer, request, t1, t2 } => {
                    let end = request + t1 + t2;
                    last_cycle = last_cycle.max(end);
                    let tid = victim.index() as u32;
                    if let Some(start) = open[victim.index()].take() {
                        let args = Obj::new()
                            .u64("by_slot", winner.index() as u64)
                            .u64("layer", u64::from(*layer))
                            .finish();
                        self.slice(pid, tid, "job", start, end.saturating_sub(start), Some(args));
                    }
                    if *t1 > 0 {
                        self.slice(pid, tid, "t1", *request, *t1, None);
                    }
                    if *t2 > 0 {
                        self.slice(pid, tid, "t2", request + t1, *t2, None);
                    }
                }
                TraceEvent::Resumed { slot, restore_start, t4 } => {
                    last_cycle = last_cycle.max(restore_start + t4);
                    open[slot.index()] = Some(*restore_start);
                    if *t4 > 0 {
                        self.slice(pid, slot.index() as u32, "t4", *restore_start, *t4, None);
                    }
                }
                TraceEvent::DeadlineMet { cycle, slot, deadline, slack } => {
                    let args =
                        Obj::new().u64("deadline", *deadline).u64("slack_cycles", *slack).finish();
                    self.instant(pid, slot.index() as u32, "deadline met", *cycle, Some(args));
                }
                TraceEvent::DeadlineMissed { cycle, slot, deadline, overrun } => {
                    let args = Obj::new()
                        .u64("deadline", *deadline)
                        .u64("overrun_cycles", *overrun)
                        .finish();
                    self.instant(pid, slot.index() as u32, "deadline MISS", *cycle, Some(args));
                }
                TraceEvent::MessagePublished { cycle, topic, subscribers } => {
                    let args = Obj::new().u64("subscribers", u64::from(*subscribers)).finish();
                    self.instant(pid, RUNTIME_TID, &format!("pub {topic}"), *cycle, Some(args));
                }
                TraceEvent::TimerFired { cycle, node, timer } => {
                    let args = Obj::new().u64("node", u64::from(*node)).finish();
                    self.instant(pid, RUNTIME_TID, &format!("timer {timer}"), *cycle, Some(args));
                }
                TraceEvent::SchedAdmitted { cycle, task, job, queue_depth } => {
                    let args = Obj::new()
                        .u64("job", *job)
                        .u64("queue_depth", u64::from(*queue_depth))
                        .finish();
                    self.instant(pid, RUNTIME_TID, &format!("admit t{task}"), *cycle, Some(args));
                }
                TraceEvent::SchedRejected { cycle, task, reason } => {
                    let args = Obj::new().str("reason", reason).finish();
                    self.instant(pid, RUNTIME_TID, &format!("reject t{task}"), *cycle, Some(args));
                }
                TraceEvent::SchedBound { cycle, task, job, slot, preempting, reload_cycles } => {
                    let args = Obj::new()
                        .u64("job", *job)
                        .str("preempting", if *preempting { "true" } else { "false" })
                        .u64("reload_cycles", *reload_cycles)
                        .finish();
                    self.instant(
                        pid,
                        slot.index() as u32,
                        &format!("bind t{task}"),
                        *cycle,
                        Some(args),
                    );
                }
                TraceEvent::EngineMeta { cycle, strategy, clock_hz } => {
                    let args =
                        Obj::new().str("strategy", strategy).u64("clock_hz", *clock_hz).finish();
                    self.instant(pid, RUNTIME_TID, "engine meta", *cycle, Some(args));
                }
                TraceEvent::Span(Span { id, parent, request, stage, start, end, core, detail }) => {
                    last_cycle = last_cycle.max(*end);
                    // All fields ride as raw u64 args so a trace viewer
                    // shows spans exactly despite the float microsecond
                    // timebase.
                    let args = Obj::new()
                        .u64("id", *id)
                        .u64("parent", *parent)
                        .u64("request", *request)
                        .u64("stage", stage.code())
                        .u64("start_cy", *start)
                        .u64("end_cy", *end)
                        .u64("core", u64::from(*core))
                        .u64("detail", *detail)
                        .finish();
                    let tid = span_tid(*stage);
                    self.slice(
                        pid,
                        tid,
                        &format!("span:{stage}"),
                        *start,
                        end.saturating_sub(*start),
                        Some(args),
                    );
                    // Causal arrow from the parent's slice to this one.
                    if let Some(&ptid) = span_tracks.get(parent) {
                        for (ph, t) in [("s", ptid), ("f", tid)] {
                            let mut o = Obj::new()
                                .str("name", "span-flow")
                                .str("cat", "flow")
                                .str("ph", ph)
                                .u64("id", *id)
                                .raw("ts", &self.ts(*start))
                                .u64("pid", u64::from(pid))
                                .u64("tid", u64::from(t));
                            if ph == "f" {
                                o = o.str("bp", "e");
                            }
                            self.parts.push(o.finish());
                        }
                    }
                }
                TraceEvent::Milestone { cycle, label, detail } => {
                    let args = Obj::new().str("detail", detail).finish();
                    self.instant(pid, APP_TID, label, *cycle, Some(args));
                }
            }
        }
        // Close slices still running when the trace ends.
        for (i, start) in open.into_iter().enumerate() {
            if let Some(start) = start {
                self.slice(pid, i as u32, "job", start, last_cycle.saturating_sub(start), None);
            }
        }
    }

    /// Finishes the document.
    #[must_use]
    pub fn finish(self) -> String {
        Obj::new()
            .raw("traceEvents", &json::array(&self.parts))
            .str("displayTimeUnit", "ms")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_isa::TaskSlot;

    fn slot(i: u8) -> TaskSlot {
        TaskSlot::new(i).unwrap()
    }

    #[test]
    fn phases_become_nested_slices() {
        let events = vec![
            TraceEvent::JobReleased { cycle: 0, slot: slot(3) },
            TraceEvent::JobStarted { cycle: 0, slot: slot(3) },
            TraceEvent::Preempted {
                victim: slot(3),
                winner: slot(1),
                layer: 2,
                request: 100,
                t1: 40,
                t2: 60,
            },
            TraceEvent::JobStarted { cycle: 200, slot: slot(1) },
            TraceEvent::JobFinished { cycle: 500, slot: slot(1), busy_cycles: 300, preemptions: 0 },
            TraceEvent::Resumed { slot: slot(3), restore_start: 500, t4: 25 },
            TraceEvent::JobFinished { cycle: 900, slot: slot(3), busy_cycles: 715, preemptions: 1 },
        ];
        let mut b = ChromeTrace::new(300.0);
        b.add_process(0, "accel", &events);
        let out = b.finish();
        for needle in ["\"t1\"", "\"t2\"", "\"t4\"", "\"job\"", "traceEvents", "process_name"] {
            assert!(out.contains(needle), "missing {needle} in {out}");
        }
        // Valid JSON array bracketing (cheap structural check).
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn export_is_deterministic() {
        let events = vec![
            TraceEvent::JobStarted { cycle: 1, slot: slot(2) },
            TraceEvent::DeadlineMissed { cycle: 7, slot: slot(2), deadline: 5, overrun: 2 },
            TraceEvent::JobFinished { cycle: 7, slot: slot(2), busy_cycles: 6, preemptions: 0 },
        ];
        let render = || {
            let mut b = ChromeTrace::new(300.0);
            b.add_process(1, "a", &events);
            b.finish()
        };
        assert_eq!(render(), render());
        assert!(render().contains("deadline MISS"));
    }

    #[test]
    fn unclosed_job_is_closed_at_trace_end() {
        let events = vec![
            TraceEvent::JobStarted { cycle: 10, slot: slot(0) },
            TraceEvent::TimerFired { cycle: 400, node: 1, timer: 9 },
        ];
        let mut b = ChromeTrace::new(1.0);
        b.add_process(0, "a", &events);
        let out = b.finish();
        assert!(out.contains("\"name\":\"job\",\"ph\":\"X\",\"ts\":10,\"dur\":390"));
    }
}
