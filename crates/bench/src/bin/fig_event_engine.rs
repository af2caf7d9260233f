//! Event-driven vs stepping advancement on a mostly-idle 64-core fleet
//! (DESIGN.md §5.8), two parts:
//!
//! **A — pool fleet (the gated floor).** 64 timing cores, 3 of them
//! sparsely active (8 requests each at a ~2% duty cycle), driven through
//! tens of thousands of fine-grained barriers — the shape a robot fleet
//! simulation takes when most cores wait for work. The stepping loop
//! pays `barriers × 64` engine visits; the event engine pays one wake
//! per *armed* core only. Acceptance: byte-identical reports and at
//! least 500 stepping ticks per wake (`stepping_ticks / wakes`, enforced
//! by `scripts/bench_gate.sh`); the wall-clock speedup is printed, not
//! gated.
//!
//! **B — serving fleet.** The same 64 cores behind the `inca-serve`
//! gateway (tenant-affinity placement pins 3 tenants to 3 cores), a
//! deterministic Poisson-like request stream advanced per arrival. The
//! gateway must visit every registered scheduler each barrier, so the
//! win here is bounded by the skip-check cost — reported, not floored.
//!
//! Both parts run the identical scenario event-driven and on the
//! stepping reference — the same fleet over `Stepped<TimingBackend>`
//! engines, which tick every core at every barrier and step one
//! instruction at a time — and panic on any observable divergence: this
//! binary *is* a differential test that happens to publish numbers. The
//! snapshot's counters all come from the event-driven runs.
//!
//! Pass `--json` for a machine-readable `metrics-v1` snapshot: the
//! events-vs-cycles counters (`*.wakes`, `*.stepping_ticks`, …) are
//! deterministic and gate exactly. The two wall-clock speedups go to
//! stderr and stay out of the snapshot.

use std::sync::Arc;
use std::time::Instant;

use inca_accel::analysis::predicted_span;
use inca_accel::{
    AccelConfig, AdvanceStats, Backend, CoreId, CorePool, InterruptStrategy, Program, Report,
    Stepped, TimingBackend,
};
use inca_bench::workload::Gaps;
use inca_compiler::Compiler;
use inca_isa::TaskSlot;
use inca_model::{zoo, Shape3};
use inca_obs::{Metrics, MetricsSnapshot};
use inca_serve::{Gateway, PlacePolicy, Response, SchedPolicy, TenantSpec};

const FLEET: usize = 64;
const ACTIVE: [usize; 3] = [0, 21, 42];
const REQUESTS_PER_ACTIVE: u64 = 8;
const BARRIERS: u64 = 32_768;

fn cfg() -> AccelConfig {
    AccelConfig::paper_big()
}

fn program() -> Arc<Program> {
    let net = zoo::tiny(Shape3::new(3, 16, 16)).expect("net");
    Arc::new(Compiler::new(cfg().arch).compile_vi(&net).expect("compile"))
}

// ---------------------------------------------------------------- part A

struct FleetRun {
    reports: Vec<Report>,
    stats: AdvanceStats,
    wall: std::time::Duration,
    final_cycle: u64,
}

/// The pool fleet over `wrap`ped timing backends: 64 cores, [`ACTIVE`] cores receive
/// [`REQUESTS_PER_ACTIVE`] requests spaced 50 makespans apart, and the
/// whole pool is advanced through [`BARRIERS`] evenly spaced barriers.
/// Requests arrive *live* — each is submitted at the barrier preceding
/// its arrival cycle, as an external fleet driver would — so between
/// jobs a core is genuinely quiescent, not armed on a far-future
/// arrival.
fn fleet_run<B: Backend>(wrap: fn(TimingBackend) -> B) -> FleetRun {
    let prog = program();
    let span = predicted_span(&cfg(), &prog);
    let gap = span * 50;
    let horizon = gap * REQUESTS_PER_ACTIVE + span * 2;
    let slot = TaskSlot::new(2).expect("slot");

    let mut pool = CorePool::new(FLEET, cfg(), InterruptStrategy::VirtualInstruction, || {
        wrap(TimingBackend::new())
    });
    // (arrival, core), ascending: the live-submission schedule.
    let mut schedule: Vec<(u64, usize)> = Vec::new();
    for &c in &ACTIVE {
        pool.load(CoreId(c), slot, Arc::clone(&prog)).expect("load");
        for i in 0..REQUESTS_PER_ACTIVE {
            // Offset per core so wakes are mostly distinct, sometimes tied.
            schedule.push((i * gap + c as u64 * 13, c));
        }
    }
    schedule.sort_unstable();

    let step = (horizon / BARRIERS).max(1);
    let mut next = 0usize;
    let t0 = Instant::now();
    for b in 1..=BARRIERS {
        let barrier = b * step;
        while next < schedule.len() && schedule[next].0 <= barrier {
            let (cycle, core) = schedule[next];
            pool.request_at(cycle, CoreId(core), slot).expect("request");
            next += 1;
        }
        pool.run_until(barrier).expect("advance");
    }
    pool.run_until(u64::MAX).expect("drain");
    let wall = t0.elapsed();
    FleetRun { reports: pool.reports(), stats: pool.advance_stats(), wall, final_cycle: pool.now() }
}

// ---------------------------------------------------------------- part B

struct ServeRun {
    responses: Vec<Response>,
    stats: AdvanceStats,
    wall: std::time::Duration,
}

/// The serving fleet over `wrap`ped timing backends: 64 cores behind the gateway, three
/// tenants pinned by affinity, 96 requests advanced one arrival at a
/// time (every arrival is a barrier over all 64 cores).
fn serve_run<B: Backend>(wrap: fn(TimingBackend) -> B) -> ServeRun {
    let prog = program();
    let mean_gap = predicted_span(&cfg(), &prog) * 8;
    let pool = CorePool::new(FLEET, cfg(), InterruptStrategy::VirtualInstruction, || {
        wrap(TimingBackend::new())
    });
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::TenantAffinity);
    gw.set_batch_window(mean_gap / 4);
    let tenants: Vec<_> =
        (0..3).map(|i| gw.register(TenantSpec::new(format!("t{i}"), Arc::clone(&prog)))).collect();

    let mut gaps = Gaps::new(11);
    let mut now = 0u64;
    let t0 = Instant::now();
    for i in 0..96u64 {
        now += gaps.next(mean_gap);
        gw.run_until(now).expect("engine");
        let _ = gw.submit(now, tenants[(i % 3) as usize]);
    }
    gw.run_to_idle(u64::MAX).expect("engine");
    let wall = t0.elapsed();
    ServeRun { responses: gw.drain_responses(), stats: gw.advance_stats(), wall }
}

// ------------------------------------------------------------------ main

fn speedup(stepping: std::time::Duration, event: std::time::Duration) -> f64 {
    stepping.as_secs_f64() / event.as_secs_f64().max(1e-9)
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    // Stepping first, event second, identical construction: any
    // divergence is an event-engine bug, not scenario noise.
    let st = fleet_run(Stepped);
    let ev = fleet_run(|b| b);
    assert_eq!(ev.reports, st.reports, "fleet: event-driven and stepping reports diverge");
    assert_eq!(ev.final_cycle, st.final_cycle, "fleet: final clocks diverge");
    let completed: u64 = ev.reports.iter().map(|r| r.completed_jobs.len() as u64).sum();
    assert_eq!(completed, ACTIVE.len() as u64 * REQUESTS_PER_ACTIVE, "fleet: all jobs done");
    let fleet_speedup = speedup(st.wall, ev.wall);

    let sst = serve_run(Stepped);
    let sev = serve_run(|b| b);
    assert_eq!(sev.responses, sst.responses, "serve: event-driven and stepping responses diverge");
    assert!(!sev.responses.is_empty());
    let serve_speedup = speedup(sst.wall, sev.wall);

    if json {
        let mut m = Metrics::new();
        m.inc("event.fleet64.barriers", ev.stats.barriers);
        m.inc("event.fleet64.wakes", ev.stats.wakes);
        m.inc("event.fleet64.skips", ev.stats.skips);
        m.inc("event.fleet64.stepping_ticks", ev.stats.stepping_ticks());
        m.inc("event.fleet64.completed", completed);
        m.inc("event.fleet64.final_cycle", ev.final_cycle);
        m.inc("event.serve64.barriers", sev.stats.barriers);
        m.inc("event.serve64.wakes", sev.stats.wakes);
        m.inc("event.serve64.skips", sev.stats.skips);
        m.inc("event.serve64.responses", sev.responses.len() as u64);
        m.set_gauge(
            "event.fleet64.ticks_ratio",
            ev.stats.stepping_ticks() as f64 / ev.stats.wakes.max(1) as f64,
        );
        println!("{}", MetricsSnapshot::new("fig_event_engine", m).to_json());
        eprintln!("fleet64 wall-clock speedup {fleet_speedup:.1}x, serve64 {serve_speedup:.1}x");
        return;
    }

    println!(
        "event engine vs cycle-box stepping, {FLEET}-core mostly-idle fleet\n\
         ({} active cores x {REQUESTS_PER_ACTIVE} requests, {BARRIERS} barriers)\n",
        ACTIVE.len()
    );
    println!("{:>24} {:>14} {:>14}", "", "stepping", "event");
    println!("{:>24} {:>14} {:>14}", "engine visits", st.stats.wakes, ev.stats.wakes);
    println!("{:>24} {:>14} {:>14}", "skipped visits", st.stats.skips, ev.stats.skips);
    println!("{:>24} {:>14.1?} {:>14.1?} ({fleet_speedup:.1}x)", "wall", st.wall, ev.wall);
    println!(
        "\nA: the event engine executed {} of {} stepping ticks \
         (1 : {:.0} events-vs-cycles)",
        ev.stats.wakes,
        ev.stats.stepping_ticks(),
        ev.stats.stepping_ticks() as f64 / ev.stats.wakes.max(1) as f64
    );
    println!(
        "B: serving fleet — {} responses, {}/{} core visits skipped, {serve_speedup:.1}x wall\n\
         (gateway barriers still check every scheduler, so no floor here)",
        sev.responses.len(),
        sev.stats.skips,
        sev.stats.stepping_ticks(),
    );
    println!(
        "\npaper shape: identical outputs in both modes; on a mostly-idle fleet the\n\
         event engine's wall clock tracks armed cores, not fleet size."
    );
}
