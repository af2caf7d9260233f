//! Serving-gateway load sweep (`inca-serve`), two parts:
//!
//! **A — hard-lane isolation (1 core).** A hard-deadline tenant shares
//! one core with a best-effort stream whose intensity sweeps 0 →
//! saturation, per interrupt strategy. The acceptance shape: under the
//! VI strategy the hard lane's p99 latency is unaffected (±10%) by
//! best-effort load, while `cpu-like` (drain-then-switch) and
//! `layer-by-layer` degrade it.
//!
//! **B — scale-out (1 → 8 cores × placement policy).** A mixed tenant
//! population under a fixed Poisson-like arrival stream, per placement
//! policy. Reported per cell: completed / shed / dropped, program
//! reloads (tenant affinity avoids LOAD_W churn), makespan and
//! throughput.
//!
//! Arrivals are deterministic and integer-only: an LCG picks from a
//! precomputed exponential-quantile table (permille of the mean gap), so
//! the stream is Poisson-like yet bit-reproducible across platforms — no
//! floating-point `ln` anywhere.
//!
//! Pass `--json` to emit a single machine-readable metrics-snapshot line
//! (`inca-obs/metrics-v1`) instead of the tables; `--rounds N` for a
//! longer part-A window (default 8 hard periods per cell);
//! `--trace-sample N` to record request-scoped causal spans for every
//! request whose id is divisible by N (deterministic sampling — the same
//! requests are tagged on every run) and report how many span events each
//! part emitted. Ring overflow is loud: dropped events produce a stderr
//! warning and a `trace.dropped` counter in the JSON snapshot.
//!
//! Pass `--timeline <interval-cycles>` to sample a cycle-domain timeline
//! in every cell and write one `inca-obs/timeseries-v1` file per cell
//! (`<cell>.timeseries.json` in the working directory). Frame-ring
//! overflow follows the `trace.dropped` idiom: a loud stderr warning per
//! affected cell and a `timeline.dropped` counter in the JSON snapshot.

use std::sync::Arc;

use inca_accel::{AccelConfig, CorePool, Engine, InterruptStrategy, TimingBackend};
use inca_bench::workload::Gaps;
use inca_compiler::Compiler;
use inca_isa::{Program, TaskSlot};
use inca_model::{zoo, Network, Shape3};
use inca_obs::{Metrics, MetricsSnapshot, TimeSeries, TraceBuffer, TraceEvent, Tracer};
use inca_serve::{DropPolicy, Gateway, PlacePolicy, SchedPolicy, TenantId, TenantSpec};

fn cfg() -> AccelConfig {
    AccelConfig::paper_big()
}

fn compile(strategy: InterruptStrategy, net: &Network) -> Arc<Program> {
    let c = Compiler::new(cfg().arch);
    Arc::new(match strategy {
        InterruptStrategy::VirtualInstruction => c.compile_vi(net).unwrap(),
        _ => c.compile(net).unwrap(),
    })
}

/// Uninterrupted makespan of `program` on a dedicated timing engine.
fn makespan(program: &Program) -> u64 {
    let slot = TaskSlot::new(3).unwrap();
    let mut e = Engine::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
    e.load(slot, program.clone()).unwrap();
    e.request_at(0, slot).unwrap();
    e.run().unwrap().completed_jobs[0].finish
}

/// Installs a span-recording ring on `gw` when `trace_sample > 0`.
fn attach_tracer(gw: &mut Gateway<TimingBackend>, trace_sample: u64) -> Option<TraceBuffer> {
    (trace_sample > 0).then(|| {
        let (tracer, buf) = Tracer::ring(1 << 16);
        gw.set_probe(tracer.into(), trace_sample);
        buf
    })
}

/// `(span_events, dropped)` recorded by an optional ring.
fn span_counts(buf: Option<TraceBuffer>) -> (u64, u64) {
    buf.map_or((0, 0), |b| {
        let dropped = b.dropped();
        let spans =
            b.drain().iter().filter(|e| matches!(e, TraceEvent::Span { .. })).count() as u64;
        (spans, dropped)
    })
}

/// p99 over `values` (nearest-rank, integer arithmetic).
fn p99(values: &mut [u64]) -> u64 {
    assert!(!values.is_empty());
    values.sort_unstable();
    values[(99 * values.len()).div_ceil(100) - 1]
}

// ---------------------------------------------------------------- part A

struct IsoCell {
    strategy: InterruptStrategy,
    be_per_round: usize,
    hard_p99: u64,
    hard_missed: u64,
    be_completed: u64,
    be_shed: u64,
    span_events: u64,
    trace_dropped: u64,
    timeline: Option<TimeSeries>,
}

/// One part-A cell: a hard tenant probed `rounds` times on one core while
/// `be_per_round` best-effort requests per round contend for it.
fn run_iso_cell(
    strategy: InterruptStrategy,
    be_per_round: usize,
    rounds: u64,
    trace_sample: u64,
    timeline: Option<u64>,
) -> IsoCell {
    let hard_prog = compile(strategy, &zoo::tiny(Shape3::new(3, 48, 48)).unwrap());
    let be_prog = compile(strategy, &zoo::tiny(Shape3::new(3, 96, 96)).unwrap());
    let be_span = makespan(&be_prog);

    let pool = CorePool::new(1, cfg(), strategy, TimingBackend::new);
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded);
    gw.set_batch_window(1_000);
    if let Some(interval) = timeline {
        gw.enable_timeline(interval, 4096);
    }
    let buf = attach_tracer(&mut gw, trace_sample);
    let hard = gw.register(
        TenantSpec::new("estop", Arc::clone(&hard_prog))
            .hard(1_000_000_000)
            .queue(8, DropPolicy::Reject),
    );
    let be = gw.register(
        TenantSpec::new("bg", Arc::clone(&be_prog)).weight(3).queue(64, DropPolicy::Reject),
    );

    let mut gaps = Gaps::new(42 + be_per_round as u64);
    let gap = be_span * 4;
    let mut now = 0;
    for i in 0..rounds {
        let t0 = i * gap;
        gw.run_until(t0).expect("engine");
        // Best-effort arrivals jitter across the first half of the round;
        // the hard probe lands mid-flight.
        let mut t = t0;
        for _ in 0..be_per_round {
            t += gaps.next(be_span / (2 * be_per_round.max(1) as u64));
            gw.run_until(t.min(t0 + be_span / 2)).expect("engine");
            let _ = gw.submit(t.min(t0 + be_span / 2), be);
        }
        now = t0 + be_span / 2;
        gw.run_until(now).expect("engine");
        gw.submit(now, hard).expect("hard lane admits");
    }
    gw.run_to_idle(now + gap * rounds * 4).expect("engine");

    let mut hard_lat: Vec<u64> = gw
        .drain_responses()
        .iter()
        .filter(|r| r.tenant == hard)
        .map(inca_serve::Response::latency)
        .collect();
    let be_stats = gw.stats(be);
    let (span_events, trace_dropped) = span_counts(buf);
    let timeline = gw.take_timeline(&format!("iso.{strategy}.load{be_per_round}"));
    IsoCell {
        strategy,
        be_per_round,
        hard_p99: p99(&mut hard_lat),
        hard_missed: gw.stats(hard).deadline_missed,
        be_completed: be_stats.completed,
        be_shed: be_stats.shed + be_stats.dropped,
        span_events,
        trace_dropped,
        timeline,
    }
}

// ---------------------------------------------------------------- part B

struct ScaleCell {
    cores: usize,
    place: PlacePolicy,
    completed: u64,
    shed: u64,
    dropped: u64,
    reloads: u64,
    makespan: u64,
    throughput_jobs_per_s: f64,
    span_events: u64,
    trace_dropped: u64,
    timeline: Option<TimeSeries>,
}

/// One part-B cell: the same deterministic arrival stream served on
/// `cores` cores under `place`.
fn run_scale_cell(
    cores: usize,
    place: PlacePolicy,
    trace_sample: u64,
    timeline: Option<u64>,
) -> ScaleCell {
    let strategy = InterruptStrategy::VirtualInstruction;
    let small = compile(strategy, &zoo::tiny(Shape3::new(3, 24, 24)).unwrap());
    let large = compile(strategy, &zoo::tiny(Shape3::new(3, 48, 48)).unwrap());
    let mean_gap = makespan(&small) / 4;

    let pool = CorePool::new(cores, cfg(), strategy, TimingBackend::new);
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, place);
    gw.set_batch_window(mean_gap);
    if let Some(interval) = timeline {
        gw.enable_timeline(interval, 4096);
    }
    let buf = attach_tracer(&mut gw, trace_sample);
    let tenants: Vec<TenantId> = (0..6)
        .map(|i| {
            let program = if i % 2 == 0 { Arc::clone(&small) } else { Arc::clone(&large) };
            let drop_policy =
                if i % 3 == 2 { DropPolicy::DegradeToSkip } else { DropPolicy::DropOldest };
            gw.register(
                TenantSpec::new(format!("t{i}"), program)
                    .weight(1 + (i % 3) as u8)
                    .queue(4, drop_policy),
            )
        })
        .collect();
    let hard = gw.register(
        TenantSpec::new("estop", Arc::clone(&small))
            .hard(mean_gap * 64)
            .queue(4, DropPolicy::Reject),
    );

    // The SAME 120-request stream for every (cores, place) cell: the seed
    // does not depend on the cell, so cross-cell numbers are comparable.
    let mut gaps = Gaps::new(7);
    let mut now = 0u64;
    for i in 0..120u64 {
        now += gaps.next(mean_gap);
        gw.run_until(now).expect("engine");
        let tenant = if i % 16 == 15 { hard } else { tenants[(i % 6) as usize] };
        let _ = gw.submit(now, tenant);
    }
    gw.run_to_idle(now * 64).expect("engine");

    let totals = gw.totals();
    let m = gw.metrics();
    let reloads: u64 = (0..cores).map(|i| m.counter(&format!("serve.core{i}.sched.reloads"))).sum();
    // Makespan = last completion, not the (cell-independent) final clock.
    let makespan = gw.drain_responses().iter().map(|r| r.finish).max().unwrap_or(0);
    let seconds = cfg().cycles_to_us(makespan.max(1)) / 1e6;
    let (span_events, trace_dropped) = span_counts(buf);
    let timeline = gw.take_timeline(&format!("scale.c{cores}.{place}"));
    ScaleCell {
        cores,
        place,
        completed: totals.completed,
        shed: totals.shed,
        dropped: totals.dropped,
        reloads,
        makespan,
        throughput_jobs_per_s: totals.completed as f64 / seconds,
        span_events,
        trace_dropped,
        timeline,
    }
}

// ------------------------------------------------------------------ main

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let rounds = args
        .iter()
        .position(|a| a == "--rounds")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(8);
    let trace_sample = args
        .iter()
        .position(|a| a == "--trace-sample")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    let timeline = args
        .iter()
        .position(|a| a == "--timeline")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok());

    let strategies = [
        InterruptStrategy::VirtualInstruction,
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
    ];
    let loads = [0usize, 1, 2, 4];
    let iso: Vec<IsoCell> = strategies
        .iter()
        .flat_map(|&s| loads.iter().map(move |&l| (s, l)))
        .map(|(s, l)| run_iso_cell(s, l, rounds, trace_sample, timeline))
        .collect();

    let core_counts = [1usize, 2, 4, 8];
    let policies = [PlacePolicy::RoundRobin, PlacePolicy::LeastLoaded, PlacePolicy::TenantAffinity];
    let scale: Vec<ScaleCell> = core_counts
        .iter()
        .flat_map(|&c| policies.iter().map(move |&p| (c, p)))
        .map(|(c, p)| run_scale_cell(c, p, trace_sample, timeline))
        .collect();
    let span_events: u64 =
        iso.iter().map(|c| c.span_events).chain(scale.iter().map(|c| c.span_events)).sum();
    let trace_dropped: u64 =
        iso.iter().map(|c| c.trace_dropped).chain(scale.iter().map(|c| c.trace_dropped)).sum();

    // One timeseries-v1 file per cell. Ring overflow is LOUD, per cell,
    // mirroring the trace.dropped idiom: a truncated series must never
    // pass silently as a complete one.
    let cell_series: Vec<&TimeSeries> = iso
        .iter()
        .filter_map(|c| c.timeline.as_ref())
        .chain(scale.iter().filter_map(|c| c.timeline.as_ref()))
        .collect();
    let timeline_dropped: u64 = cell_series.iter().map(|s| s.dropped).sum();
    for s in &cell_series {
        let path = format!("{}.timeseries.json", s.name);
        if let Err(e) = std::fs::write(&path, s.to_json()) {
            eprintln!("ERROR: writing {path}: {e}");
            std::process::exit(2);
        }
        if s.dropped > 0 {
            eprintln!(
                "WARNING: timeline ring overflowed in cell {} — {} frame(s) dropped; \
                 {path} holds an INCOMPLETE series",
                s.name, s.dropped
            );
        }
    }

    if json {
        let mut m = Metrics::new();
        for c in &iso {
            let k = format!("iso.{}.load{}.", c.strategy, c.be_per_round);
            m.inc(&format!("{k}hard_p99"), c.hard_p99);
            m.inc(&format!("{k}hard_missed"), c.hard_missed);
            m.inc(&format!("{k}be_completed"), c.be_completed);
            m.inc(&format!("{k}be_shed"), c.be_shed);
        }
        for c in &scale {
            let k = format!("scale.c{}.{}.", c.cores, c.place);
            m.inc(&format!("{k}completed"), c.completed);
            m.inc(&format!("{k}shed"), c.shed);
            m.inc(&format!("{k}dropped"), c.dropped);
            m.inc(&format!("{k}reloads"), c.reloads);
            m.inc(&format!("{k}makespan"), c.makespan);
            m.set_gauge(&format!("{k}throughput_jobs_per_s"), c.throughput_jobs_per_s);
        }
        if trace_sample > 0 {
            m.inc("trace.span_events", span_events);
        }
        if timeline.is_some() {
            m.inc("timeline.files", cell_series.len() as u64);
            m.inc("timeline.frames", cell_series.iter().map(|s| s.len() as u64).sum());
            m.inc("timeline.dropped", timeline_dropped);
        }
        let mut snap = MetricsSnapshot::new("fig_serve_load", m);
        if trace_sample > 0 {
            snap = snap.with_trace_drops(trace_dropped);
        }
        println!("{}", snap.to_json());
        return;
    }

    println!(
        "A: hard-lane isolation on one shared core, {rounds} hard probes per cell\n\
         (hard tenant vs best-effort stream of growing intensity, per interrupt strategy)\n"
    );
    println!(
        "{:>20} {:>8} {:>12} {:>9} {:>8} {:>8}",
        "strategy", "be/round", "hard p99", "hi miss", "be done", "be shed"
    );
    for c in &iso {
        println!(
            "{:>20} {:>8} {:>12} {:>9} {:>8} {:>8}",
            c.strategy.to_string(),
            c.be_per_round,
            c.hard_p99,
            c.hard_missed,
            c.be_completed,
            c.be_shed,
        );
    }

    println!(
        "\nB: scale-out, same Poisson-like 120-request stream per cell\n\
         (6 best-effort tenants + 1 hard tenant, per core count and placement policy)\n"
    );
    println!(
        "{:>6} {:>16} {:>6} {:>6} {:>6} {:>8} {:>12} {:>11}",
        "cores", "placement", "done", "shed", "drop", "reloads", "makespan", "jobs/s"
    );
    for c in &scale {
        println!(
            "{:>6} {:>16} {:>6} {:>6} {:>6} {:>8} {:>12} {:>11.0}",
            c.cores,
            c.place.to_string(),
            c.completed,
            c.shed,
            c.dropped,
            c.reloads,
            c.makespan,
            c.throughput_jobs_per_s,
        );
    }
    if timeline.is_some() {
        println!(
            "\ntimeline: wrote {} timeseries-v1 file(s), {} frame(s) total, {} dropped",
            cell_series.len(),
            cell_series.iter().map(|s| s.len()).sum::<usize>(),
            timeline_dropped,
        );
    }
    if trace_sample > 0 {
        if trace_dropped > 0 {
            eprintln!(
                "WARNING: trace ring overflowed — {trace_dropped} span event(s) dropped; \
                 recorded spans cover an INCOMPLETE trace"
            );
        }
        println!(
            "\nspans: {span_events} span events recorded across all cells \
             (1/{trace_sample} requests sampled, {trace_dropped} dropped)"
        );
    }
    println!(
        "\npaper shape: under virtual-instruction the hard p99 column is flat (±10%) as\n\
         best-effort load grows, while cpu-like and layer-by-layer climb; tenant\n\
         affinity shows the fewest reloads, and makespan drops as cores scale."
    );
}
