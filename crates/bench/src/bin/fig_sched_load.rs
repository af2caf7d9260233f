//! Scheduler load sweep: N logical tasks (4 → 64) multiplexed onto the 4
//! physical IAU slots by the slot-virtualizing admission scheduler, per
//! policy (`fixed-priority`, `edf`, `prema-tokens`).
//!
//! One priority-0 task (the paper's emergency/FE role) runs with a hard
//! deadline equal to its period; the rest are background tasks of mixed
//! sizes with staggered phases, re-submitted throughout the window so the
//! datapath stays saturated. Reported per cell: jobs submitted / admitted
//! / completed / rejected / dropped / skipped, throughput, high-priority
//! deadline-miss rate, preemption requests and program reloads.
//!
//! The acceptance shape: at 64 tasks the priority-0 task misses **zero**
//! deadlines under `fixed-priority` and `edf` (slot 0 stays reserved for
//! it), while admission control and drop policies shed background load.
//!
//! Pass `--json` to emit a single machine-readable metrics-snapshot line
//! (`inca-obs/metrics-v1`) instead of the table; `--rounds N` for a
//! longer window (default 12 high-priority periods).

use std::sync::Arc;

use inca_accel::{AccelConfig, Engine, InterruptStrategy, TimingBackend};
use inca_compiler::Compiler;
use inca_isa::Program;
use inca_model::{zoo, Shape3};
use inca_obs::{Metrics, MetricsSnapshot};
use inca_runtime::{DropPolicy, SchedPolicy, ScheduledEngine, Scheduler, TaskId, TaskSpec};

struct Cell {
    tasks: usize,
    policy: SchedPolicy,
    submitted: u64,
    admitted: u64,
    completed: u64,
    rejected: u64,
    dropped: u64,
    skipped: u64,
    hi_completed: u64,
    hi_missed: u64,
    preempts: u64,
    reloads: u64,
    throughput_jobs_per_s: f64,
}

fn programs(cfg: &AccelConfig) -> Vec<Arc<Program>> {
    let c = Compiler::new(cfg.arch);
    [16u32, 24, 32]
        .iter()
        .map(|&side| {
            Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, side, side)).unwrap()).unwrap())
        })
        .collect()
}

fn run_cell(cfg: &AccelConfig, n_tasks: usize, policy: SchedPolicy, rounds: u64) -> Cell {
    let progs = programs(cfg);
    let sched = Scheduler::new(*cfg, policy);
    let engine = Engine::new(*cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
    let mut se = ScheduledEngine::new(engine, sched);

    // The emergency task: smallest program, priority 0, deadline = period
    // = 5x its own predicted span (probed on a throwaway scheduler so the
    // deadline is known at registration time).
    let hi_span = {
        let mut probe = Scheduler::new(*cfg, policy);
        let t = probe.register(TaskSpec::new("probe", Arc::clone(&progs[0])));
        probe.predicted_span(t)
    };
    let period = hi_span * 5;
    let hi = se.register(
        TaskSpec::new("hi", Arc::clone(&progs[0]))
            .priority(0)
            .deadline(period)
            .queue(2, DropPolicy::Reject),
    );

    // Background tasks: mixed sizes, mixed priorities, bounded queues
    // with camera-style drop-oldest (a third degrade-to-skip).
    let bg: Vec<TaskId> = (0..n_tasks.saturating_sub(1))
        .map(|i| {
            let drop_policy =
                if i % 3 == 2 { DropPolicy::DegradeToSkip } else { DropPolicy::DropOldest };
            se.register(
                TaskSpec::new(format!("bg{i}"), Arc::clone(&progs[i % progs.len()]))
                    .priority(1 + (i % 3) as u8)
                    .queue(1, drop_policy),
            )
        })
        .collect();

    let mut arrivals: Vec<(u64, TaskId)> = (0..rounds).map(|r| (r * period, hi)).collect();
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
        se.run_until(t).expect("engine");
        let _ = se.submit(t, task);
    }
    se.run_to_idle(rounds * period * 50).expect("engine");

    let s = se.scheduler();
    let totals = s.totals();
    let hi_stats = s.stats(hi);
    let m = s.metrics();
    let final_cycle = se.engine().now().max(1);
    let seconds = cfg.cycles_to_us(final_cycle) / 1e6;
    Cell {
        tasks: n_tasks,
        policy,
        submitted: totals.submitted,
        admitted: totals.admitted,
        completed: totals.completed,
        rejected: totals.shed + totals.rejected,
        dropped: totals.dropped,
        skipped: totals.skipped,
        hi_completed: hi_stats.completed,
        hi_missed: hi_stats.deadline_missed,
        preempts: m.counter("sched.preempt.requests"),
        reloads: m.counter("sched.reloads"),
        throughput_jobs_per_s: totals.completed as f64 / seconds,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let rounds = args
        .iter()
        .position(|a| a == "--rounds")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(12);

    let cfg = AccelConfig::paper_big();
    let policies = [SchedPolicy::FixedPriority, SchedPolicy::Edf, SchedPolicy::PremaTokens];
    let task_counts = [4usize, 8, 16, 32, 64];

    let cells: Vec<Cell> = task_counts
        .iter()
        .flat_map(|&n| policies.iter().map(move |&p| (n, p)))
        .map(|(n, p)| run_cell(&cfg, n, p, rounds))
        .collect();

    if json {
        let mut m = Metrics::new();
        for c in &cells {
            let k = format!("t{}.{}.", c.tasks, c.policy);
            m.inc(&format!("{k}submitted"), c.submitted);
            m.inc(&format!("{k}admitted"), c.admitted);
            m.inc(&format!("{k}completed"), c.completed);
            m.inc(&format!("{k}rejected"), c.rejected);
            m.inc(&format!("{k}dropped"), c.dropped);
            m.inc(&format!("{k}skipped"), c.skipped);
            m.inc(&format!("{k}hi.completed"), c.hi_completed);
            m.inc(&format!("{k}hi.missed"), c.hi_missed);
            m.inc(&format!("{k}preempts"), c.preempts);
            m.inc(&format!("{k}reloads"), c.reloads);
            m.set_gauge(&format!("{k}throughput_jobs_per_s"), c.throughput_jobs_per_s);
        }
        println!("{}", MetricsSnapshot::new("fig_sched_load", m).to_json());
        return;
    }

    println!(
        "scheduler load sweep: N logical tasks on 4 physical slots, {rounds} hi-pri periods\n\
         (hi: priority 0, deadline = period; bg: mixed sizes/priorities, bounded queues)\n"
    );
    println!(
        "{:>5} {:>15} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9} {:>9} {:>8} {:>8} {:>11}",
        "tasks",
        "policy",
        "subm",
        "admit",
        "done",
        "rej",
        "drop",
        "skip",
        "hi done",
        "hi miss",
        "preempt",
        "reloads",
        "jobs/s"
    );
    for c in &cells {
        println!(
            "{:>5} {:>15} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9} {:>9} {:>8} {:>8} {:>11.0}",
            c.tasks,
            c.policy.to_string(),
            c.submitted,
            c.admitted,
            c.completed,
            c.rejected,
            c.dropped,
            c.skipped,
            c.hi_completed,
            c.hi_missed,
            c.preempts,
            c.reloads,
            c.throughput_jobs_per_s,
        );
    }
    println!(
        "\npaper shape: hi miss = 0 at every load under fixed-priority and edf \
         (slot 0 reserved);\nadmission + drop policies shed background load as N grows."
    );
}
