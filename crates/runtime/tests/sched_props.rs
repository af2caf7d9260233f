//! Property-based stress tests for the slot-virtualizing scheduler.
//!
//! Random arrival patterns, periods, deadlines, policies and drop
//! policies; the invariants checked:
//!
//! 1. **Conservation** — every submitted job is accounted for exactly
//!    once: admitted, shed (queue full) or rejected (admission); every
//!    admitted job is completed, dropped, skipped or still outstanding,
//!    and the counters reconcile with the metrics snapshot.
//! 2. **No slot double-binding** — at every step, no two physical slots
//!    hold the same logical task, and every bound task reports in-flight.
//!    The ledger agrees with the queues at every step too: a task's
//!    `outstanding()` is its queue depth plus its in-flight job.
//! 3. **Quiescence** — every admitted job eventually completes (no lost
//!    work, no wedged queues), slot-0 reservation notwithstanding.
//! 4. **No starvation** — a deterministic 64-task flood where the single
//!    priority-0 task must meet every deadline under `FixedPriority` and
//!    `Edf` (the paper's emergency-task guarantee, and the acceptance bar
//!    for `fig_sched_load`).
//!
//! Case count defaults to a CI-friendly bound; set `INCA_PROP_CASES` for
//! a deeper sweep (e.g. `INCA_PROP_CASES=512` nightly).

use std::sync::Arc;

use inca_accel::{AccelConfig, Engine, InterruptStrategy, TimingBackend};
use inca_compiler::Compiler;
use inca_isa::Program;
use inca_model::{zoo, Shape3};
use inca_runtime::{
    DropPolicy, SchedPolicy, ScheduledEngine, Scheduler, TaskId, TaskSpec, TaskStats,
};
use proptest::prelude::*;

fn prop_cases(default_cases: u32) -> ProptestConfig {
    let cases =
        std::env::var("INCA_PROP_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

fn cfg() -> AccelConfig {
    AccelConfig::paper_big()
}

fn tiny(side: u32) -> Arc<Program> {
    let c = Compiler::new(cfg().arch);
    Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, side, side)).unwrap()).unwrap())
}

/// One randomly generated scheduling scenario.
#[derive(Debug, Clone)]
struct Scenario {
    policy: SchedPolicy,
    /// Per-task (priority, queue capacity, drop policy, has deadline).
    tasks: Vec<(u8, usize, DropPolicy, bool)>,
    /// (task selector, inter-arrival gap in cycles).
    arrivals: Vec<(usize, u64)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        prop::sample::select(vec![
            SchedPolicy::FixedPriority,
            SchedPolicy::Edf,
            SchedPolicy::PremaTokens,
        ]),
        prop::collection::vec(
            (
                0u8..4,
                1usize..4,
                prop::sample::select(vec![
                    DropPolicy::Reject,
                    DropPolicy::DropOldest,
                    DropPolicy::DegradeToSkip,
                ]),
                any::<bool>(),
            ),
            2..7,
        ),
        prop::collection::vec((0usize..64, 0u64..400_000), 4..40),
    )
        .prop_map(|(policy, tasks, arrivals)| Scenario { policy, tasks, arrivals })
}

struct Outcome {
    totals: TaskStats,
    per_task: Vec<TaskStats>,
    outstanding: usize,
    metrics: inca_obs::Metrics,
}

/// Drives a scenario to idle, asserting the binding invariant at every
/// submission step; panics on any engine error.
fn run_scenario(s: &Scenario) -> Outcome {
    let sched = Scheduler::new(cfg(), s.policy);
    let engine = Engine::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
    let mut se = ScheduledEngine::new(engine, sched);

    // Two program sizes so spans differ across tasks.
    let programs = [tiny(16), tiny(24)];
    let ids: Vec<TaskId> = s
        .tasks
        .iter()
        .enumerate()
        .map(|(i, &(prio, cap, drop, deadline))| {
            let program = Arc::clone(&programs[i % programs.len()]);
            let mut spec = TaskSpec::new(format!("t{i}"), program).priority(prio).queue(cap, drop);
            if deadline {
                // Generous deadline: admission rejections still occur
                // under bursts, but feasible load is admitted.
                spec = spec.deadline(30_000_000);
            }
            se.register(spec)
        })
        .collect();

    let mut now = 0u64;
    let mut done = Vec::new();
    for &(sel, gap) in &s.arrivals {
        now += gap;
        done.extend(se.run_until(now).unwrap());
        let task = ids[sel % ids.len()];
        assert_step_invariants(se.scheduler(), &ids);
        let _ = se.submit(now, task);
        assert_step_invariants(se.scheduler(), &ids);
    }
    done.extend(se.run_to_idle(now + 20_000_000_000).unwrap());
    assert_step_invariants(se.scheduler(), &ids);

    let sched = se.scheduler();
    let totals = sched.totals();
    assert_eq!(done.len() as u64, totals.completed, "completions observed == counted");
    Outcome {
        totals,
        per_task: ids.iter().map(|&t| sched.stats(t)).collect(),
        outstanding: sched.outstanding(),
        metrics: sched.metrics(),
    }
}

fn assert_step_invariants(sched: &Scheduler, ids: &[TaskId]) {
    let bound: Vec<TaskId> = sched.bindings().iter().flatten().copied().collect();
    for (i, a) in bound.iter().enumerate() {
        assert!(sched.in_flight(*a), "bound task {a} must report in-flight");
        for b in &bound[i + 1..] {
            assert_ne!(a, b, "task {a} bound to two slots at once");
        }
    }
    for &t in ids {
        let held = sched.queue_depth(t) as u64 + u64::from(sched.in_flight(t));
        assert_eq!(sched.stats(t).outstanding(), held, "task {t}: ledger vs queues");
    }
}

proptest! {
    #![proptest_config(prop_cases(48))]

    #[test]
    fn conservation_holds_for_every_task(s in scenario_strategy()) {
        let out = run_scenario(&s);
        for (i, st) in out.per_task.iter().enumerate() {
            prop_assert_eq!(
                st.submitted,
                st.admitted + st.shed + st.rejected,
                "task {} submissions split exactly into admitted/rejected", i
            );
            prop_assert!(
                st.admitted >= st.completed + st.dropped + st.skipped,
                "task {} cannot complete/drop/skip more than it admitted", i
            );
        }
        // At idle, every admitted job has a terminal state or is counted
        // by `outstanding`.
        let t = &out.totals;
        prop_assert_eq!(
            t.admitted,
            t.completed + t.dropped + t.skipped + out.outstanding as u64,
            "admitted jobs all reach a terminal state or remain outstanding"
        );
        prop_assert_eq!(t.deadline_met + t.deadline_missed <= t.completed, true);
    }

    #[test]
    fn metrics_reconcile_with_counters(s in scenario_strategy()) {
        let out = run_scenario(&s);
        let t = &out.totals;
        prop_assert_eq!(out.metrics.counter("sched.jobs.submitted"), t.submitted);
        prop_assert_eq!(out.metrics.counter("sched.jobs.admitted"), t.admitted);
        prop_assert_eq!(out.metrics.counter("sched.jobs.completed"), t.completed);
        prop_assert_eq!(
            out.metrics.counter("sched.jobs.rejected.queue"),
            t.shed
        );
        prop_assert_eq!(
            out.metrics.counter("sched.jobs.rejected.admission"),
            t.rejected
        );
        prop_assert_eq!(out.metrics.counter("sched.jobs.dropped"), t.dropped);
        prop_assert_eq!(out.metrics.counter("sched.jobs.skipped"), t.skipped);
        prop_assert_eq!(out.metrics.counter("sched.deadlines.met"), t.deadline_met);
        prop_assert_eq!(out.metrics.counter("sched.deadlines.missed"), t.deadline_missed);
    }

    #[test]
    fn quiescence_at_idle(s in scenario_strategy()) {
        // Slots 1-3 serve every priority, so nothing is unservable: every
        // admitted job must terminate.
        let out = run_scenario(&s);
        prop_assert_eq!(out.outstanding, 0, "all admitted jobs completed at idle");
        let t = &out.totals;
        prop_assert_eq!(t.admitted, t.completed + t.dropped + t.skipped);
    }
}

/// The acceptance bar: 64 logical tasks flood 4 physical slots, and the
/// single priority-0 task still meets every deadline under both
/// `FixedPriority` and `Edf`. Admission refuses none of its jobs (the
/// background tasks carry no deadline, so admission never gates them):
/// the reserved slot, not the gatekeeper, protects the hard task.
#[test]
fn high_priority_never_starves_under_flood() {
    for policy in [SchedPolicy::FixedPriority, SchedPolicy::Edf] {
        let sched = Scheduler::new(cfg(), policy);
        let engine =
            Engine::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
        let mut se = ScheduledEngine::new(engine, sched);

        let hi_program = tiny(16);
        let bg_program = tiny(24);
        let hi_span = {
            let probe = Scheduler::new(cfg(), policy);
            let mut probe = probe;
            let t = probe.register(TaskSpec::new("probe", Arc::clone(&hi_program)));
            probe.predicted_span(t)
        };
        let period = hi_span * 5;

        let hi = se.register(
            TaskSpec::new("hi", Arc::clone(&hi_program))
                .priority(0)
                .deadline(period)
                .queue(2, DropPolicy::Reject),
        );
        let bg: Vec<TaskId> = (0..63)
            .map(|i| {
                se.register(
                    TaskSpec::new(format!("bg{i}"), Arc::clone(&bg_program))
                        .priority(3)
                        .queue(1, DropPolicy::DropOldest),
                )
            })
            .collect();

        // 20 hi-priority periods; background tasks re-submit with
        // staggered phases so the machine is saturated throughout.
        let rounds = 20u64;
        let mut arrivals: Vec<(u64, TaskId)> = Vec::new();
        for r in 0..rounds {
            arrivals.push((r * period, hi));
        }
        for (i, &b) in bg.iter().enumerate() {
            let phase = (i as u64 * 7919) % period;
            let mut t = phase;
            while t < rounds * period {
                arrivals.push((t, b));
                t += period * 2;
            }
        }
        arrivals.sort_by_key(|&(t, task)| (t, task));

        for (t, task) in arrivals {
            se.run_until(t).unwrap();
            let _ = se.submit(t, task);
        }
        se.run_to_idle(rounds * period * 50).unwrap();

        let hi_stats = se.scheduler().stats(hi);
        assert_eq!(hi_stats.rejected, 0, "{policy}: admission refused no hi-pri job");
        assert_eq!(hi_stats.completed, rounds, "{policy}: every hi-pri job completed");
        assert_eq!(
            hi_stats.deadline_missed, 0,
            "{policy}: hi-pri task missed deadlines under 64-task flood"
        );
        assert_eq!(hi_stats.deadline_met, rounds);
        // Sanity: the flood actually contended — background work completed
        // and the scheduler reloaded programs across slots.
        let totals = se.scheduler().totals();
        assert!(totals.completed > rounds, "{policy}: background tasks also ran");
        assert!(
            se.scheduler().metrics().counter("sched.reloads") > 10,
            "{policy}: slots were time-shared"
        );
    }
}
