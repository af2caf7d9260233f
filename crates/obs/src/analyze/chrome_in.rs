//! Best-effort import of the [`crate::chrome::ChromeTrace`] export back
//! into [`TraceEvent`] streams, so `inca-analyze` can consume trace JSON
//! files as well as live rings.
//!
//! The export is lossy by design (it is a visualisation format), so the
//! importer reconstructs what the analysis layer needs and documents what
//! it cannot:
//!
//! * timestamps are µs; cycles are recovered through the `clock_hz`
//!   carried by the `"engine meta"` instant (300 MHz assumed when a trace
//!   predates that event);
//! * zero-duration `t1`/`t2`/`t4` slices are omitted by the exporter —
//!   the phases re-import as 0, which is exact;
//! * a `t4 = 0` resume (layer-by-layer) emits no slice at all, so the
//!   victim's pause ends only at its next `job` segment;
//! * resumed job segments re-import as repeated `JobStarted`s, which the
//!   attribution layer deduplicates.

use std::collections::BTreeMap;

use inca_isa::{Opcode, TaskSlot, TASK_SLOTS};

use crate::chrome::{APP_TID, RUNTIME_TID};
use crate::json::Value;
use crate::span::{Span, SpanStage};
use crate::trace::TraceEvent;

/// Clock assumed for traces without an `"engine meta"` instant (the
/// paper's 300 MHz).
pub const DEFAULT_CLOCK_HZ: u64 = 300_000_000;

/// One process (accelerator/agent) reconstructed from a trace file.
#[derive(Debug, Clone)]
pub struct ImportedProcess {
    /// Chrome pid.
    pub pid: u64,
    /// Process name (from the `process_name` metadata record).
    pub name: String,
    /// Clock used for µs→cycle conversion.
    pub clock_hz: u64,
    /// Reconstructed events, sorted by cycle with a stable variant order.
    pub events: Vec<TraceEvent>,
}

/// The known static rejection reasons (the live event carries a
/// `&'static str`, so imported reasons must map onto one of these).
const REJECT_REASONS: [&str; 4] = ["queue-full", "admission", "drop-oldest", "degrade-skip"];

fn arg_u64(args: Option<&Value>, key: &str) -> Option<u64> {
    args?.get(key)?.as_u64()
}

fn arg_str<'v>(args: Option<&'v Value>, key: &str) -> Option<&'v str> {
    args?.get(key)?.as_str()
}

fn slot_of(tid: u64) -> Option<TaskSlot> {
    u8::try_from(tid)
        .ok()
        .filter(|&t| (t as usize) < TASK_SLOTS)
        .and_then(|t| TaskSlot::new(t).ok())
}

/// Sort rank so same-cycle events replay in a causally sensible order
/// (releases before starts, preemptions before resumes before finishes).
fn rank(ev: &TraceEvent) -> u8 {
    match ev {
        TraceEvent::EngineMeta { .. } => 0,
        TraceEvent::JobReleased { .. } => 1,
        TraceEvent::SchedAdmitted { .. } | TraceEvent::SchedRejected { .. } => 2,
        TraceEvent::SchedBound { .. } => 3,
        TraceEvent::JobStarted { .. } => 4,
        TraceEvent::InstrRetired { .. }
        | TraceEvent::ViMaterialized { .. }
        | TraceEvent::SavePatched { .. } => 5,
        TraceEvent::Preempted { .. } => 6,
        TraceEvent::Resumed { .. } => 7,
        TraceEvent::JobFinished { .. } => 8,
        TraceEvent::DeadlineMet { .. } | TraceEvent::DeadlineMissed { .. } => 9,
        TraceEvent::MessagePublished { .. } | TraceEvent::TimerFired { .. } => 10,
        TraceEvent::Milestone { .. } => 11,
        TraceEvent::Span(_) => 12,
    }
}

struct ProcBuilder {
    name: String,
    events: Vec<TraceEvent>,
    // Per-slot `t1`/`t2` slices keyed by their **end** cycle, so the
    // preempted job segment ending at the same cycle can claim them.
    t1_by_end: [BTreeMap<u64, u64>; TASK_SLOTS],
    t2_by_end: [BTreeMap<u64, u64>; TASK_SLOTS],
    // Preempted job segments: (slot, end, start, winner, layer).
    preempt_segments: Vec<(TaskSlot, u64, u64, u64, u64)>,
}

impl ProcBuilder {
    fn new() -> Self {
        Self {
            name: String::new(),
            events: Vec::new(),
            t1_by_end: Default::default(),
            t2_by_end: Default::default(),
            preempt_segments: Vec::new(),
        }
    }
}

/// Parses a Chrome trace-event JSON document produced by
/// [`crate::chrome::ChromeTrace`] back into per-process event streams.
///
/// # Errors
///
/// Returns a message when the text is not valid JSON or has no
/// `traceEvents` array. Individual malformed records are skipped, not
/// fatal — the import is best-effort.
pub fn import(text: &str) -> Result<Vec<ImportedProcess>, String> {
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    let records = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "no traceEvents array".to_owned())?;

    // Pass 1: discover each pid's clock from its "engine meta" instant.
    let mut clocks: BTreeMap<u64, u64> = BTreeMap::new();
    for rec in records {
        if rec.get("name").and_then(Value::as_str) == Some("engine meta") {
            if let (Some(pid), Some(hz)) =
                (rec.get("pid").and_then(Value::as_u64), arg_u64(rec.get("args"), "clock_hz"))
            {
                clocks.insert(pid, hz);
            }
        }
    }

    // Pass 2: reconstruct events per pid.
    let mut procs: BTreeMap<u64, ProcBuilder> = BTreeMap::new();
    for rec in records {
        let Some(pid) = rec.get("pid").and_then(Value::as_u64) else { continue };
        let clock_hz = clocks.get(&pid).copied().unwrap_or(DEFAULT_CLOCK_HZ);
        let cycles_per_us = clock_hz as f64 / 1e6;
        let cycle_at = |us: f64| (us * cycles_per_us).round() as u64;
        let p = procs.entry(pid).or_insert_with(ProcBuilder::new);

        let name = rec.get("name").and_then(Value::as_str).unwrap_or("");
        let ph = rec.get("ph").and_then(Value::as_str).unwrap_or("");
        let tid = rec.get("tid").and_then(Value::as_u64).unwrap_or(u64::MAX);
        let args = rec.get("args");
        match ph {
            "M" if name == "process_name" => {
                if let Some(n) = arg_str(args, "name") {
                    p.name = n.to_owned();
                }
            }
            "M" => {}
            "X" if name.starts_with("span:") => {
                // Span slices carry every field as raw u64 args, so the
                // round trip is exact regardless of the µs timebase.
                let Some(stage) = arg_u64(args, "stage").and_then(SpanStage::from_code) else {
                    continue;
                };
                let (Some(id), Some(request), Some(start), Some(end)) = (
                    arg_u64(args, "id"),
                    arg_u64(args, "request"),
                    arg_u64(args, "start_cy"),
                    arg_u64(args, "end_cy"),
                ) else {
                    continue;
                };
                p.events.push(TraceEvent::Span(Span {
                    id,
                    parent: arg_u64(args, "parent").unwrap_or(0),
                    request,
                    stage,
                    start,
                    end,
                    core: arg_u64(args, "core").map_or(crate::span::NO_CORE, |c| c as u32),
                    detail: arg_u64(args, "detail").unwrap_or(0),
                }));
            }
            "X" => {
                let Some(ts) = rec.get("ts").and_then(Value::as_f64) else { continue };
                let Some(dur) = rec.get("dur").and_then(Value::as_f64) else { continue };
                let start = cycle_at(ts);
                let cycles = cycle_at(ts + dur).saturating_sub(start);
                let Some(slot) = slot_of(tid) else { continue };
                match name {
                    "job" => {
                        p.events.push(TraceEvent::JobStarted { cycle: start, slot });
                        if let Some(busy) = arg_u64(args, "busy_cycles") {
                            p.events.push(TraceEvent::JobFinished {
                                cycle: start + cycles,
                                slot,
                                busy_cycles: busy,
                                preemptions: arg_u64(args, "preemptions").unwrap_or(0) as u32,
                            });
                        } else if let Some(winner) = arg_u64(args, "by_slot") {
                            // A segment cut short by a preemption; pair
                            // with t1/t2 slices once all slices are read.
                            let layer = arg_u64(args, "layer").unwrap_or(0);
                            p.preempt_segments.push((slot, start + cycles, start, winner, layer));
                        }
                        // No args at all: a job still open at trace end —
                        // the start alone is all the exporter knew.
                    }
                    "t1" => {
                        p.t1_by_end[slot.index()].insert(start + cycles, cycles);
                    }
                    "t2" => {
                        p.t2_by_end[slot.index()].insert(start + cycles, cycles);
                    }
                    "t4" => {
                        p.events.push(TraceEvent::Resumed {
                            slot,
                            restore_start: start,
                            t4: cycles,
                        });
                    }
                    vi if vi.starts_with("vi:") => {
                        if let Some(op) = Opcode::ALL.into_iter().find(|o| o.mnemonic() == &vi[3..])
                        {
                            p.events.push(TraceEvent::ViMaterialized {
                                start,
                                cycles,
                                slot,
                                op,
                                layer: arg_u64(args, "layer").unwrap_or(0) as u16,
                            });
                        }
                    }
                    instr => {
                        if let Some(op) = Opcode::ALL.into_iter().find(|o| o.mnemonic() == instr) {
                            p.events.push(TraceEvent::InstrRetired {
                                start,
                                cycles,
                                slot,
                                op,
                                layer: arg_u64(args, "layer").unwrap_or(0) as u16,
                            });
                        }
                    }
                }
            }
            "i" => {
                let Some(ts) = rec.get("ts").and_then(Value::as_f64) else { continue };
                let cycle = cycle_at(ts);
                if tid == u64::from(RUNTIME_TID) {
                    if name == "engine meta" {
                        p.events.push(TraceEvent::EngineMeta {
                            cycle,
                            strategy: arg_str(args, "strategy").unwrap_or("unknown").to_owned(),
                            clock_hz: arg_u64(args, "clock_hz").unwrap_or(clock_hz),
                        });
                    } else if let Some(task) = name.strip_prefix("admit t") {
                        if let Ok(task) = task.parse() {
                            p.events.push(TraceEvent::SchedAdmitted {
                                cycle,
                                task,
                                job: arg_u64(args, "job").unwrap_or(0),
                                queue_depth: arg_u64(args, "queue_depth").unwrap_or(0) as u32,
                            });
                        }
                    } else if let Some(task) = name.strip_prefix("reject t") {
                        if let Ok(task) = task.parse() {
                            let reason = arg_str(args, "reason").unwrap_or("");
                            let reason = REJECT_REASONS
                                .into_iter()
                                .find(|r| *r == reason)
                                .unwrap_or("imported");
                            p.events.push(TraceEvent::SchedRejected { cycle, task, reason });
                        }
                    } else if let Some(topic) = name.strip_prefix("pub ") {
                        p.events.push(TraceEvent::MessagePublished {
                            cycle,
                            topic: topic.to_owned(),
                            subscribers: arg_u64(args, "subscribers").unwrap_or(0) as u32,
                        });
                    } else if let Some(timer) = name.strip_prefix("timer ") {
                        if let Ok(timer) = timer.parse() {
                            p.events.push(TraceEvent::TimerFired {
                                cycle,
                                node: arg_u64(args, "node").unwrap_or(0) as u32,
                                timer,
                            });
                        }
                    }
                } else if tid == u64::from(APP_TID) {
                    p.events.push(TraceEvent::Milestone {
                        cycle,
                        label: name.to_owned(),
                        detail: arg_str(args, "detail").unwrap_or("").to_owned(),
                    });
                } else if let Some(slot) = slot_of(tid) {
                    match name {
                        "released" => p.events.push(TraceEvent::JobReleased { cycle, slot }),
                        "deadline met" => p.events.push(TraceEvent::DeadlineMet {
                            cycle,
                            slot,
                            deadline: arg_u64(args, "deadline").unwrap_or(cycle),
                            slack: arg_u64(args, "slack_cycles").unwrap_or(0),
                        }),
                        "deadline MISS" => p.events.push(TraceEvent::DeadlineMissed {
                            cycle,
                            slot,
                            deadline: arg_u64(args, "deadline").unwrap_or(cycle),
                            overrun: arg_u64(args, "overrun_cycles").unwrap_or(0),
                        }),
                        "save patched" => p.events.push(TraceEvent::SavePatched {
                            cycle,
                            slot,
                            save_id: arg_u64(args, "save_id").unwrap_or(0) as u32,
                            elided: arg_str(args, "elided") == Some("true"),
                        }),
                        bind => {
                            if let Some(task) = bind.strip_prefix("bind t") {
                                if let Ok(task) = task.parse() {
                                    p.events.push(TraceEvent::SchedBound {
                                        cycle,
                                        task,
                                        job: arg_u64(args, "job").unwrap_or(0),
                                        slot,
                                        preempting: arg_str(args, "preempting") == Some("true"),
                                        reload_cycles: arg_u64(args, "reload_cycles").unwrap_or(0),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Pass 3: pair preempted job segments with their t1/t2 slices.
    let mut out = Vec::new();
    for (pid, mut p) in procs {
        for (victim, end, start, winner, layer) in std::mem::take(&mut p.preempt_segments) {
            p.events.push(TraceEvent::JobStarted { cycle: start, slot: victim });
            let i = victim.index();
            // The backup slice ends where the segment ends; the finish-op
            // slice ends where the backup began. Zero-length phases were
            // never exported, so absence means exactly zero.
            let t2 = p.t2_by_end[i].remove(&end).unwrap_or(0);
            let t1 = p.t1_by_end[i].remove(&(end - t2)).unwrap_or(0);
            if let Some(winner) = slot_of(winner) {
                p.events.push(TraceEvent::Preempted {
                    victim,
                    winner,
                    layer: layer as u16,
                    request: end - t1 - t2,
                    t1,
                    t2,
                });
            }
        }
        p.events.sort_by_key(|ev| (ev.cycle(), rank(ev)));
        let clock_hz = clocks.get(&pid).copied().unwrap_or(DEFAULT_CLOCK_HZ);
        out.push(ImportedProcess { pid, name: p.name, clock_hz, events: p.events });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::ChromeTrace;

    fn slot(i: u8) -> TaskSlot {
        TaskSlot::new(i).unwrap()
    }

    /// Exports a preemption scenario and re-imports it; every
    /// analysis-relevant event must survive the round trip.
    #[test]
    fn export_import_round_trip_recovers_preemption_phases() {
        let events = vec![
            TraceEvent::EngineMeta {
                cycle: 0,
                strategy: "virtual-instruction".into(),
                clock_hz: 300_000_000,
            },
            TraceEvent::JobReleased { cycle: 0, slot: slot(3) },
            TraceEvent::JobStarted { cycle: 0, slot: slot(3) },
            TraceEvent::JobReleased { cycle: 100, slot: slot(1) },
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
            TraceEvent::DeadlineMet { cycle: 500, slot: slot(1), deadline: 700, slack: 200 },
            TraceEvent::Resumed { slot: slot(3), restore_start: 500, t4: 25 },
            TraceEvent::JobFinished { cycle: 900, slot: slot(3), busy_cycles: 715, preemptions: 1 },
        ];
        let mut b = ChromeTrace::new(300.0);
        b.add_process(7, "accel", &events);
        let imported = import(&b.finish()).expect("import");
        assert_eq!(imported.len(), 1);
        let p = &imported[0];
        assert_eq!((p.pid, p.name.as_str(), p.clock_hz), (7, "accel", 300_000_000));

        assert!(p.events.contains(&TraceEvent::Preempted {
            victim: slot(3),
            winner: slot(1),
            layer: 2,
            request: 100,
            t1: 40,
            t2: 60,
        }));
        assert!(p.events.contains(&TraceEvent::Resumed {
            slot: slot(3),
            restore_start: 500,
            t4: 25,
        }));
        assert!(p.events.contains(&TraceEvent::JobFinished {
            cycle: 900,
            slot: slot(3),
            busy_cycles: 715,
            preemptions: 1,
        }));
        assert!(p.events.contains(&TraceEvent::DeadlineMet {
            cycle: 500,
            slot: slot(1),
            deadline: 700,
            slack: 200,
        }));
        assert!(p.events.contains(&TraceEvent::JobReleased { cycle: 0, slot: slot(3) }));
        // Events are sorted by cycle.
        let cycles: Vec<u64> = p.events.iter().map(TraceEvent::cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn scheduler_and_runtime_instants_round_trip() {
        let events = vec![
            TraceEvent::EngineMeta { cycle: 0, strategy: "cpu-like".into(), clock_hz: 1_000_000 },
            TraceEvent::SchedAdmitted { cycle: 10, task: 2, job: 5, queue_depth: 1 },
            TraceEvent::SchedRejected { cycle: 11, task: 2, reason: "queue-full" },
            TraceEvent::SchedBound {
                cycle: 20,
                task: 2,
                job: 5,
                slot: slot(2),
                preempting: true,
                reload_cycles: 123,
            },
            TraceEvent::MessagePublished { cycle: 30, topic: "scan".into(), subscribers: 2 },
            TraceEvent::TimerFired { cycle: 40, node: 1, timer: 9 },
            TraceEvent::Milestone { cycle: 50, label: "pr match".into(), detail: "x".into() },
        ];
        let mut b = ChromeTrace::new(1.0);
        b.add_process(0, "agent0", &events);
        let imported = import(&b.finish()).expect("import");
        let got = &imported[0].events;
        for want in &events {
            assert!(got.contains(want), "missing {want:?} in {got:?}");
        }
    }

    #[test]
    fn missing_engine_meta_falls_back_to_default_clock() {
        let events = vec![TraceEvent::JobReleased { cycle: 600, slot: slot(0) }];
        let mut b = ChromeTrace::new(300.0);
        b.add_process(0, "a", &events);
        let imported = import(&b.finish()).expect("import");
        assert_eq!(imported[0].clock_hz, DEFAULT_CLOCK_HZ);
        assert_eq!(imported[0].events, events);
    }

    #[test]
    fn zero_length_phases_reimport_as_zero() {
        // Layer-by-layer: t1 > 0 but t2 = 0, and the t4 = 0 resume emits
        // no slice — the preemption must still re-import with t2 = 0.
        let events = vec![
            TraceEvent::EngineMeta {
                cycle: 0,
                strategy: "layer-by-layer".into(),
                clock_hz: 1_000_000,
            },
            TraceEvent::JobStarted { cycle: 0, slot: slot(3) },
            TraceEvent::Preempted {
                victim: slot(3),
                winner: slot(1),
                layer: 0,
                request: 50,
                t1: 30,
                t2: 0,
            },
            TraceEvent::Resumed { slot: slot(3), restore_start: 200, t4: 0 },
            TraceEvent::JobFinished { cycle: 400, slot: slot(3), busy_cycles: 380, preemptions: 1 },
        ];
        let mut b = ChromeTrace::new(1.0);
        b.add_process(0, "a", &events);
        let imported = import(&b.finish()).expect("import");
        let got = &imported[0].events;
        assert!(got.contains(&TraceEvent::Preempted {
            victim: slot(3),
            winner: slot(1),
            layer: 0,
            request: 50,
            t1: 30,
            t2: 0,
        }));
        // The zero-cost resume is a documented loss.
        assert!(!got.iter().any(|e| matches!(e, TraceEvent::Resumed { .. })));
    }

    #[test]
    fn garbage_input_is_an_error() {
        assert!(import("not json").is_err());
        assert!(import("{}").is_err(), "no traceEvents");
    }
}
