//! Slot virtualization: more logical tasks than the accelerator has
//! physical task slots.
//!
//! INCA's hardware exposes 4 fixed-priority slots; real robots run more
//! than 4 networks. The [`inca::runtime::Scheduler`] multiplexes N
//! logical tasks onto those slots — binding, reloading and preempting as
//! jobs arrive — while an admission controller (PREMA-style, built on the
//! analytical cost model) rejects jobs whose deadline is already
//! infeasible, and per-task bounded queues shed bursts.
//!
//! This example runs 9 logical tasks (one emergency task with a hard
//! deadline, eight best-effort workers) on one simulated accelerator and
//! prints the per-task accounting.
//!
//! ```sh
//! cargo run --release --example scheduler
//! ```

use std::sync::Arc;

use inca::accel::{AccelConfig, Engine, InterruptStrategy, TimingBackend};
use inca::compiler::Compiler;
use inca::model::{zoo, Shape3};
use inca::runtime::{DropPolicy, SchedPolicy, ScheduledEngine, Scheduler, TaskSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    let small = Arc::new(compiler.compile_vi(&zoo::tiny(Shape3::new(3, 16, 16))?)?);
    let large = Arc::new(compiler.compile_vi(&zoo::tiny(Shape3::new(3, 32, 32))?)?);

    let sched = Scheduler::new(cfg, SchedPolicy::FixedPriority);
    let engine = Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
    let mut se = ScheduledEngine::new(engine, sched);

    // The emergency task: priority 0, so slot 0 stays reserved for it and
    // its arrival preempts whatever the datapath is running.
    let hi_span = {
        let mut probe = Scheduler::new(cfg, SchedPolicy::FixedPriority);
        let t = probe.register(TaskSpec::new("probe", Arc::clone(&small)));
        probe.predicted_span(t)
    };
    let period = hi_span * 6;
    let hi = se.register(
        TaskSpec::new("emergency", Arc::clone(&small))
            .priority(0)
            .deadline(period)
            .queue(2, DropPolicy::Reject),
    );

    // Eight best-effort workers — twice the physical slot count even
    // before the emergency task. Camera-style workers drop stale frames;
    // the rest degrade to a skip when their queue overflows.
    let workers: Vec<_> = (0..8)
        .map(|i| {
            let policy =
                if i % 2 == 0 { DropPolicy::DropOldest } else { DropPolicy::DegradeToSkip };
            se.register(
                TaskSpec::new(format!("worker{i}"), Arc::clone(&large))
                    .priority(2 + (i % 2) as u8)
                    .queue(1, policy),
            )
        })
        .collect();

    // 8 emergency periods; every worker re-submits twice per period with a
    // staggered phase, far more work than four slots can absorb.
    let rounds = 8u64;
    let mut arrivals = Vec::new();
    for r in 0..rounds {
        arrivals.push((r * period, hi));
    }
    for (i, &w) in workers.iter().enumerate() {
        let mut t = (i as u64 * 2311) % period;
        while t < rounds * period {
            arrivals.push((t, w));
            t += period / 2;
        }
    }
    arrivals.sort_by_key(|&(t, task)| (t, task));

    for (t, task) in arrivals {
        se.run_until(t)?;
        let _ = se.submit(t, task); // rejections are part of the demo
    }
    se.run_to_idle(rounds * period * 50)?;

    println!(
        "{:<10} {:>4} {:>6} {:>6} {:>5} {:>5} {:>5} {:>8} {:>8}",
        "task", "prio", "subm", "done", "rej", "drop", "skip", "ddl met", "ddl miss"
    );
    for id in std::iter::once(hi).chain(workers.iter().copied()) {
        let spec = se.scheduler().spec(id);
        let st = se.scheduler().stats(id);
        println!(
            "{:<10} {:>4} {:>6} {:>6} {:>5} {:>5} {:>5} {:>8} {:>8}",
            spec.name,
            spec.priority,
            st.submitted,
            st.completed,
            st.shed + st.rejected,
            st.dropped,
            st.skipped,
            st.deadline_met,
            st.deadline_missed,
        );
    }
    let m = se.scheduler().metrics();
    println!(
        "\n{} program reloads ({} cycles of DMA), {} preemption requests — \
         9 logical tasks shared 4 physical slots;\nthe emergency task met every deadline.",
        m.counter("sched.reloads"),
        m.counter("sched.reload_cycles"),
        m.counter("sched.preempt.requests"),
    );
    Ok(())
}
