//! Declarative SLO evaluation: per-task specs (deadline, period, max
//! preemption latency, min throughput, queue delay) checked against a
//! trace, with pass/fail per clause and slack histograms.
//!
//! Spec grammar (one spec per `--slo` argument or comma-separated):
//!
//! ```text
//! <name>=<clauses>
//! clauses := clause ('+' clause)*
//! clause  := <duration>                # shorthand for deadline:<duration>
//!          | deadline:<duration>       # release→finish response bound
//!          | miss:<fraction>           # tolerated deadline miss rate
//!          | latency:<duration>        # max preemption latency when this
//!                                      # task wins the accelerator
//!          | queue:<duration>          # max queue delay
//!          | depth:<count>             # max instantaneous queue depth
//!                                      # (timeline frames / flight recorder)
//!          | jobs:<count>              # min completed jobs
//!          | period:<duration>         # release period → throughput floor
//!          | queue_share:<fraction>    # max share of lane latency in queue
//!          | batch_share:<fraction>    # … waiting in a gateway batch
//!          | reload_share:<fraction>   # … in program-reload DMA
//!          | preempt_share:<fraction>  # … preempted out
//! duration := <number>("cy"|"us"|"ms"|"s")
//! fraction := ['<']<number>            # e.g. 0.2 or <0.2
//! ```
//!
//! `<name>` resolves through the caller-supplied alias table (the DSLAM
//! mission maps `fe`→slot 1 and `pr`→slot 3), or the built-ins `slotN` /
//! `taskN` for physical slots and scheduler tasks, plus `hard` / `be` for
//! the serving lanes. Lane selectors and the `*_share` clauses evaluate
//! against request-scoped span data (DESIGN.md §5.7), so they need
//! [`SloSpec::evaluate_with_spans`]; share bounds compare the lane's
//! **aggregate** share (summed stage cycles over summed latency).

use crate::analyze::attribution::Attribution;
use crate::analyze::preemption::PreemptionStats;
use crate::analyze::spans::SpanAnalysis;
use crate::metrics::Histogram;
use crate::span::SpanStage;
use crate::trace::TraceEvent;
use inca_isa::TASK_SLOTS;

/// Deadline accounting folded straight off `DeadlineMet`/`DeadlineMissed`
/// events — byte-for-byte the same counters and histograms the runtime
/// derives, so analyzer and `Runtime::report()` can be cross-checked.
#[derive(Debug, Clone, Default)]
pub struct DeadlineStats {
    /// Deadline-carrying jobs that finished in time.
    pub met: u64,
    /// Deadline-carrying jobs that finished late.
    pub missed: u64,
    /// Slack of met deadlines.
    pub slack: Histogram,
    /// Overrun of missed deadlines.
    pub overrun: Histogram,
    /// Met per slot.
    pub per_slot_met: [u64; TASK_SLOTS],
    /// Missed per slot.
    pub per_slot_missed: [u64; TASK_SLOTS],
}

impl DeadlineStats {
    /// Folds one event.
    pub fn push(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::DeadlineMet { slot, slack, .. } => {
                self.met += 1;
                self.per_slot_met[slot.index()] += 1;
                self.slack.observe(*slack);
            }
            TraceEvent::DeadlineMissed { slot, overrun, .. } => {
                self.missed += 1;
                self.per_slot_missed[slot.index()] += 1;
                self.overrun.observe(*overrun);
            }
            _ => {}
        }
    }
}

/// What a spec selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSel {
    /// A physical accelerator slot.
    Slot(usize),
    /// A logical scheduler task.
    SchedTask(u32),
    /// A serving lane (requires span data: [`SloSpec::evaluate_with_spans`]).
    Lane {
        /// Hard-deadline lane (`false` = best-effort).
        hard: bool,
    },
}

/// One parsed SLO spec.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// The name it was written with (alias or `slotN`/`taskN`).
    pub name: String,
    /// Resolved selector.
    pub sel: TaskSel,
    /// Max release→finish response, cycles.
    pub deadline: Option<u64>,
    /// Tolerated fraction of jobs over the deadline (default 0).
    pub max_miss_rate: f64,
    /// Max preemption latency imposed when this task wins, cycles.
    pub max_preempt_latency: Option<u64>,
    /// Max queue delay (slot release→start, or task admit→bind), cycles.
    pub max_queue_delay: Option<u64>,
    /// Max instantaneous queue depth, requests. Only the timeline layer
    /// can see instantaneous depth, so this clause is evaluated by the
    /// flight recorder and `TimeSeries::eval_spec`, not the end-of-run
    /// trace paths (which ignore it).
    pub max_depth: Option<u64>,
    /// Min completed (slot) / bound (task) jobs.
    pub min_jobs: Option<u64>,
    /// Release period, cycles — requires ≥ `window/period − 1` jobs.
    pub period: Option<u64>,
    /// Max aggregate `(stage, share)` bounds over the selected lane's
    /// latency decomposition (span data required).
    pub max_shares: Vec<(SpanStage, f64)>,
}

/// One clause's verdict.
#[derive(Debug, Clone)]
pub struct ClauseResult {
    /// e.g. `deadline ≤ 50ms`.
    pub label: String,
    /// Whether it held.
    pub passed: bool,
    /// Human-readable measurement summary.
    pub detail: String,
}

/// One spec's verdict.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Spec name.
    pub name: String,
    /// All clauses held.
    pub passed: bool,
    /// Per-clause verdicts.
    pub clauses: Vec<ClauseResult>,
    /// Deadline slack distribution (`deadline − response`, clamped at 0),
    /// one sample per evaluated job; empty without a deadline clause.
    pub slack: Histogram,
    /// Fraction of evaluated jobs over the deadline.
    pub miss_rate: f64,
}

fn parse_duration(s: &str, clock_hz: u64) -> Result<u64, String> {
    let (num, unit) = s
        .find(|c: char| c.is_ascii_alphabetic())
        .map(|i| s.split_at(i))
        .ok_or_else(|| format!("missing unit in duration {s:?} (cy/us/ms/s)"))?;
    let v: f64 = num.parse().map_err(|_| format!("bad number in duration {s:?}"))?;
    let cycles_per_us = clock_hz as f64 / 1e6;
    let cycles = match unit {
        "cy" | "cyc" => v,
        "us" => v * cycles_per_us,
        "ms" => v * 1e3 * cycles_per_us,
        "s" => v * 1e6 * cycles_per_us,
        _ => return Err(format!("unknown duration unit {unit:?} (cy/us/ms/s)")),
    };
    Ok(cycles.round() as u64)
}

fn parse_share(s: &str) -> Result<f64, String> {
    let v = s.strip_prefix('<').unwrap_or(s);
    let share: f64 = v.parse().map_err(|_| format!("bad share fraction {s:?}"))?;
    if !(0.0..=1.0).contains(&share) {
        return Err(format!("share fraction {s:?} outside 0..=1"));
    }
    Ok(share)
}

impl SloSpec {
    /// Parses one `name=clauses` spec. `aliases` maps task names to
    /// selectors; `clock_hz` converts time units to cycles.
    pub fn parse(
        spec: &str,
        aliases: &[(&str, TaskSel)],
        clock_hz: u64,
    ) -> Result<SloSpec, String> {
        let (name, body) =
            spec.split_once('=').ok_or_else(|| format!("SLO spec {spec:?} missing '='"))?;
        let name = name.trim();
        let sel = aliases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .or_else(|| {
                name.strip_prefix("slot")
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&n| n < TASK_SLOTS)
                    .map(TaskSel::Slot)
            })
            .or_else(|| {
                name.strip_prefix("task").and_then(|n| n.parse().ok()).map(TaskSel::SchedTask)
            })
            .or(match name {
                "hard" => Some(TaskSel::Lane { hard: true }),
                "be" | "best-effort" => Some(TaskSel::Lane { hard: false }),
                _ => None,
            })
            .ok_or_else(|| {
                format!("unknown SLO task {name:?} (aliases, slotN, taskN, hard or be)")
            })?;
        let mut out = SloSpec {
            name: name.to_owned(),
            sel,
            deadline: None,
            max_miss_rate: 0.0,
            max_preempt_latency: None,
            max_queue_delay: None,
            max_depth: None,
            min_jobs: None,
            period: None,
            max_shares: Vec::new(),
        };
        for clause in body.split('+') {
            let clause = clause.trim();
            match clause.split_once(':') {
                None => out.deadline = Some(parse_duration(clause, clock_hz)?),
                Some(("deadline", v)) => out.deadline = Some(parse_duration(v, clock_hz)?),
                Some(("latency", v)) => {
                    out.max_preempt_latency = Some(parse_duration(v, clock_hz)?);
                }
                Some(("queue", v)) => out.max_queue_delay = Some(parse_duration(v, clock_hz)?),
                Some(("depth", v)) => {
                    out.max_depth = Some(v.parse().map_err(|_| format!("bad queue depth {v:?}"))?);
                }
                Some(("period", v)) => out.period = Some(parse_duration(v, clock_hz)?),
                Some(("jobs", v)) => {
                    out.min_jobs = Some(v.parse().map_err(|_| format!("bad job count {v:?}"))?);
                }
                Some(("miss", v)) => {
                    out.max_miss_rate = v.parse().map_err(|_| format!("bad miss rate {v:?}"))?;
                }
                Some(("queue_share", v)) => {
                    out.max_shares.push((SpanStage::Queue, parse_share(v)?));
                }
                Some(("batch_share", v)) => {
                    out.max_shares.push((SpanStage::BatchWait, parse_share(v)?));
                }
                Some(("reload_share", v)) => {
                    out.max_shares.push((SpanStage::Reload, parse_share(v)?));
                }
                Some(("preempt_share", v)) => {
                    out.max_shares.push((SpanStage::Preempted, parse_share(v)?));
                }
                Some((k, _)) => return Err(format!("unknown SLO clause {k:?}")),
            }
        }
        Ok(out)
    }

    /// Parses a comma-separated list of specs.
    pub fn parse_list(
        list: &str,
        aliases: &[(&str, TaskSel)],
        clock_hz: u64,
    ) -> Result<Vec<SloSpec>, String> {
        list.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| SloSpec::parse(s, aliases, clock_hz))
            .collect()
    }

    /// Evaluates the spec against an analyzed trace, with optional
    /// request-scoped span data backing lane selectors (`hard`/`be`) and
    /// the `*_share` clauses.
    #[must_use]
    pub fn evaluate_with_spans(
        &self,
        attr: &Attribution,
        preempt: &PreemptionStats,
        spans: Option<&SpanAnalysis>,
    ) -> SloReport {
        let mut clauses = Vec::new();
        let mut slack = Histogram::default();
        let mut miss_rate = 0.0;

        let lane_breakdowns = match self.sel {
            TaskSel::Lane { hard } => spans.map(|s| s.lane(hard)),
            _ => None,
        };
        let (completed, queue_max, win_latency) = match self.sel {
            TaskSel::Slot(i) => (
                attr.slots[i].finished,
                attr.slots[i].queue_wait.max(),
                preempt.worst_latency_per_winner[i],
            ),
            TaskSel::SchedTask(t) => {
                let task = attr.tasks.get(&t);
                (task.map_or(0, |t| t.bound), task.map_or(0, |t| t.queue_delay.max()), 0)
            }
            TaskSel::Lane { .. } => {
                let lane = lane_breakdowns.as_deref().unwrap_or(&[]);
                (lane.len() as u64, lane.iter().map(|b| b.queue()).max().unwrap_or(0), 0)
            }
        };

        if let Some(deadline) = self.deadline {
            match self.sel {
                TaskSel::Slot(i) => {
                    let responses = &attr.slots[i].responses;
                    let missed = responses.iter().filter(|(_, r)| *r > deadline).count() as u64;
                    for (_, r) in responses {
                        slack.observe(deadline.saturating_sub(*r));
                    }
                    miss_rate = if responses.is_empty() {
                        0.0
                    } else {
                        missed as f64 / responses.len() as f64
                    };
                    clauses.push(ClauseResult {
                        label: format!("deadline ≤ {deadline}cy (miss ≤ {})", self.max_miss_rate),
                        passed: miss_rate <= self.max_miss_rate,
                        detail: format!(
                            "{missed}/{} over; worst response {}cy",
                            responses.len(),
                            attr.slots[i].response.max()
                        ),
                    });
                }
                TaskSel::Lane { .. } => match lane_breakdowns.as_deref() {
                    Some(lane) if !lane.is_empty() => {
                        let missed = lane.iter().filter(|b| b.total() > deadline).count() as u64;
                        for b in lane {
                            slack.observe(deadline.saturating_sub(b.total()));
                        }
                        miss_rate = missed as f64 / lane.len() as f64;
                        clauses.push(ClauseResult {
                            label: format!(
                                "deadline ≤ {deadline}cy (miss ≤ {})",
                                self.max_miss_rate
                            ),
                            passed: miss_rate <= self.max_miss_rate,
                            detail: format!(
                                "{missed}/{} over; worst latency {}cy",
                                lane.len(),
                                lane.iter().map(|b| b.total()).max().unwrap_or(0)
                            ),
                        });
                    }
                    _ => clauses.push(ClauseResult {
                        label: format!("deadline ≤ {deadline}cy"),
                        passed: false,
                        detail: "lane selectors need span data (no tagged requests?)".into(),
                    }),
                },
                TaskSel::SchedTask(_) => clauses.push(ClauseResult {
                    label: format!("deadline ≤ {deadline}cy"),
                    passed: false,
                    detail: "deadline clauses need a slot or lane selector".into(),
                }),
            }
        }
        if let Some(max) = self.max_preempt_latency {
            if matches!(self.sel, TaskSel::Lane { .. }) {
                clauses.push(ClauseResult {
                    label: format!("preempt latency ≤ {max}cy"),
                    passed: false,
                    detail: "latency clauses need a slot selector".into(),
                });
            } else {
                clauses.push(ClauseResult {
                    label: format!("preempt latency ≤ {max}cy"),
                    passed: win_latency <= max,
                    detail: format!("worst t1+t2 when winning: {win_latency}cy"),
                });
            }
        }
        if let Some(max) = self.max_queue_delay {
            clauses.push(ClauseResult {
                label: format!("queue delay ≤ {max}cy"),
                passed: queue_max <= max,
                detail: format!("worst queue delay {queue_max}cy"),
            });
        }
        if let Some(min) = self.min_jobs {
            clauses.push(ClauseResult {
                label: format!("jobs ≥ {min}"),
                passed: completed >= min,
                detail: format!("{completed} completed"),
            });
        }
        if let Some(period) = self.period {
            let expected = (attr.window_cycles() / period.max(1)).saturating_sub(1);
            clauses.push(ClauseResult {
                label: format!("throughput ≥ 1/{period}cy"),
                passed: completed >= expected,
                detail: format!("{completed} completed, window supports {expected}"),
            });
        }
        for &(stage, max) in &self.max_shares {
            let key = match stage {
                SpanStage::Queue => "queue_share",
                SpanStage::BatchWait => "batch_share",
                SpanStage::Reload => "reload_share",
                SpanStage::Preempted => "preempt_share",
                _ => "share",
            };
            let label = format!("{key} < {max}");
            match (self.sel, spans) {
                (TaskSel::Lane { hard }, Some(spans)) => match spans.lane_share(hard, stage) {
                    Some(share) => clauses.push(ClauseResult {
                        label,
                        passed: share < max || (share - max).abs() < 1e-12,
                        detail: format!("aggregate {key} = {share:.4}"),
                    }),
                    None => clauses.push(ClauseResult {
                        label,
                        passed: false,
                        detail: "lane has no completed requests".into(),
                    }),
                },
                (TaskSel::Lane { .. }, None) => clauses.push(ClauseResult {
                    label,
                    passed: false,
                    detail: "share clauses need span data (no tagged requests?)".into(),
                }),
                _ => clauses.push(ClauseResult {
                    label,
                    passed: false,
                    detail: "share clauses need a lane selector (hard/be)".into(),
                }),
            }
        }

        SloReport {
            name: self.name.clone(),
            passed: clauses.iter().all(|c| c.passed),
            clauses,
            slack,
            miss_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_isa::TaskSlot;

    fn slot(i: u8) -> TaskSlot {
        TaskSlot::new(i).unwrap()
    }

    const HZ: u64 = 300_000_000;

    #[test]
    fn parses_shorthand_and_full_grammar() {
        let aliases = [("fe", TaskSel::Slot(1)), ("pr", TaskSel::Slot(3))];
        let s = SloSpec::parse("fe=50ms", &aliases, HZ).expect("parse");
        assert_eq!(s.sel, TaskSel::Slot(1));
        assert_eq!(s.deadline, Some(15_000_000));

        let s = SloSpec::parse("pr=deadline:1s+latency:100us+miss:0.25+jobs:3", &aliases, HZ)
            .expect("parse");
        assert_eq!(s.deadline, Some(300_000_000));
        assert_eq!(s.max_preempt_latency, Some(30_000));
        assert_eq!(s.max_miss_rate, 0.25);
        assert_eq!(s.min_jobs, Some(3));

        let s = SloSpec::parse("slot2=1000cy", &[], HZ).expect("parse");
        assert_eq!(s.sel, TaskSel::Slot(2));
        assert_eq!(s.deadline, Some(1000));

        let s = SloSpec::parse("task7=queue:10us", &[], HZ).expect("parse");
        assert_eq!(s.sel, TaskSel::SchedTask(7));
        assert_eq!(s.max_queue_delay, Some(3000));

        let s = SloSpec::parse("hard=depth:4+miss:0.1", &[], HZ).expect("parse");
        assert_eq!(s.sel, TaskSel::Lane { hard: true });
        assert_eq!(s.max_depth, Some(4));
        assert!(SloSpec::parse("hard=depth:x", &[], HZ).is_err());

        let list = SloSpec::parse_list("fe=50ms, pr=1s", &aliases, HZ).expect("parse");
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(SloSpec::parse("fe", &[], HZ).is_err());
        assert!(SloSpec::parse("nope=50ms", &[], HZ).is_err());
        assert!(SloSpec::parse("slot1=50", &[], HZ).is_err(), "missing unit");
        assert!(SloSpec::parse("slot1=bogus:1ms", &[], HZ).is_err());
        assert!(SloSpec::parse("slot9=50ms", &[], HZ).is_err(), "slot out of range");
    }

    #[test]
    fn deadline_clause_counts_misses_and_slack() {
        let mut attr = Attribution::default();
        for (release, finish) in [(0u64, 40u64), (100, 190), (200, 330)] {
            attr.push(&TraceEvent::JobReleased { cycle: release, slot: slot(1) });
            attr.push(&TraceEvent::JobStarted { cycle: release, slot: slot(1) });
            attr.push(&TraceEvent::JobFinished {
                cycle: finish,
                slot: slot(1),
                busy_cycles: finish - release,
                preemptions: 0,
            });
        }
        let preempt = PreemptionStats::default();
        let spec = SloSpec::parse("slot1=100cy", &[], HZ).expect("parse");
        let report = spec.evaluate_with_spans(&attr, &preempt, None);
        assert!(!report.passed, "one response (130cy) busts the 100cy deadline");
        assert!((report.miss_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.slack.count(), 3);

        let lenient = SloSpec::parse("slot1=100cy+miss:0.5", &[], HZ).expect("parse");
        assert!(lenient.evaluate_with_spans(&attr, &preempt, None).passed);
    }

    #[test]
    fn latency_queue_and_jobs_clauses() {
        let mut attr = Attribution::default();
        attr.push(&TraceEvent::JobReleased { cycle: 0, slot: slot(1) });
        attr.push(&TraceEvent::JobStarted { cycle: 70, slot: slot(1) });
        attr.push(&TraceEvent::JobFinished {
            cycle: 100,
            slot: slot(1),
            busy_cycles: 30,
            preemptions: 0,
        });
        let mut preempt = PreemptionStats::default();
        preempt.push(&TraceEvent::Preempted {
            victim: slot(3),
            winner: slot(1),
            layer: 0,
            request: 10,
            t1: 25,
            t2: 30,
        });

        let ok = SloSpec::parse("slot1=latency:60cy+queue:80cy+jobs:1", &[], HZ).expect("parse");
        assert!(ok.evaluate_with_spans(&attr, &preempt, None).passed);

        let tight = SloSpec::parse("slot1=latency:50cy", &[], HZ).expect("parse");
        let r = tight.evaluate_with_spans(&attr, &preempt, None);
        assert!(!r.passed, "worst winning latency is 55cy: {:?}", r.clauses);

        let starved = SloSpec::parse("slot1=jobs:2", &[], HZ).expect("parse");
        assert!(!starved.evaluate_with_spans(&attr, &preempt, None).passed);
    }

    #[test]
    fn sched_task_selectors_use_queue_delay() {
        let mut attr = Attribution::default();
        attr.push(&TraceEvent::SchedAdmitted { cycle: 0, task: 3, job: 1, queue_depth: 0 });
        attr.push(&TraceEvent::SchedBound {
            cycle: 900,
            task: 3,
            job: 1,
            slot: slot(2),
            preempting: false,
            reload_cycles: 0,
        });
        let preempt = PreemptionStats::default();
        let ok = SloSpec::parse("task3=queue:3us+jobs:1", &[], HZ).expect("parse");
        assert!(ok.evaluate_with_spans(&attr, &preempt, None).passed);
        let tight = SloSpec::parse("task3=queue:2us", &[], HZ).expect("parse");
        assert!(!tight.evaluate_with_spans(&attr, &preempt, None).passed);
        // Deadline clauses need slot-level completion data.
        let bad = SloSpec::parse("task3=50ms", &[], HZ).expect("parse");
        assert!(!bad.evaluate_with_spans(&attr, &preempt, None).passed);
    }

    #[test]
    fn lane_selectors_and_share_clauses_use_spans() {
        use crate::span::{request_detail, request_span_id, span_id, Span, NO_CORE};
        let mk = |request: u64, stage: SpanStage, seq: u32, start: u64, end: u64, detail: u64| {
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
        };
        let mut spans = SpanAnalysis::new();
        // Hard request: 1000cy total, 300 queue (residual), 50 reload,
        // 450 exec, 200 preempted.
        spans.push(&mk(1, SpanStage::Reload, 0, 300, 350, 0));
        spans.push(&mk(1, SpanStage::Exec, 0, 350, 600, 0));
        spans.push(&mk(1, SpanStage::Preempted, 0, 600, 800, 0));
        spans.push(&mk(1, SpanStage::Exec, 1, 800, 1000, 0));
        spans.push(&mk(1, SpanStage::Request, 0, 0, 1000, request_detail(true, 0)));

        let attr = Attribution::default();
        let preempt = PreemptionStats::default();

        let spec = SloSpec::parse("hard=2000cy+jobs:1+queue_share:<0.5", &[], HZ).expect("parse");
        assert_eq!(spec.sel, TaskSel::Lane { hard: true });
        assert_eq!(spec.max_shares, vec![(SpanStage::Queue, 0.5)]);
        let r = spec.evaluate_with_spans(&attr, &preempt, Some(&spans));
        assert!(r.passed, "{:?}", r.clauses);
        assert_eq!(r.slack.count(), 1);

        // Aggregate queue share is 0.3 — a 0.2 bound must fail.
        let tight = SloSpec::parse("hard=queue_share:0.2", &[], HZ).expect("parse");
        assert!(!tight.evaluate_with_spans(&attr, &preempt, Some(&spans)).passed);

        // Lane clauses without span data fail loudly instead of passing
        // vacuously.
        assert!(!spec.evaluate_with_spans(&attr, &preempt, None).passed);

        // Share clauses need a lane selector.
        let misdirected = SloSpec::parse("slot1=queue_share:<0.5", &[], HZ).expect("parse");
        assert!(!misdirected.evaluate_with_spans(&attr, &preempt, Some(&spans)).passed);

        // Empty be lane: deadline clause fails (no requests), jobs too.
        let be = SloSpec::parse("be=1ms+jobs:1", &[], HZ).expect("parse");
        assert!(!be.evaluate_with_spans(&attr, &preempt, Some(&spans)).passed);

        // Latency clauses stay slot-scoped.
        let lat = SloSpec::parse("hard=latency:10us", &[], HZ).expect("parse");
        assert!(!lat.evaluate_with_spans(&attr, &preempt, Some(&spans)).passed);

        assert!(SloSpec::parse("hard=queue_share:1.5", &[], HZ).is_err());
    }

    #[test]
    fn deadline_stats_fold_met_and_missed() {
        let mut d = DeadlineStats::default();
        d.push(&TraceEvent::DeadlineMet { cycle: 10, slot: slot(1), deadline: 15, slack: 5 });
        d.push(&TraceEvent::DeadlineMissed { cycle: 20, slot: slot(1), deadline: 15, overrun: 5 });
        d.push(&TraceEvent::JobReleased { cycle: 0, slot: slot(1) });
        assert_eq!((d.met, d.missed), (1, 1));
        assert_eq!(d.per_slot_met[1], 1);
        assert_eq!(d.per_slot_missed[1], 1);
        assert_eq!(d.slack.max(), 5);
        assert_eq!(d.overrun.max(), 5);
    }
}
