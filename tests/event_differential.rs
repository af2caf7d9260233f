//! The event-engine acceptance bar: a discrete-event advance
//! ([`AdvanceMode::EventDriven`], the default) must be **byte-identical**
//! to the legacy cycle-box stepping loop ([`AdvanceMode::Stepping`]) on
//! every observable surface — DDR output bytes, merged trace streams
//! (including request-tagged span trees), metrics snapshots, per-core
//! reports and mid-run clock/metrics snapshots — across all four
//! interrupt strategies, 1–8 core pools, the serving gateway, and the
//! bench crate's canonical spans scenario. The pool scenario also takes the
//! functional backend's execution tier (`FuncBackend`, or
//! `Stepped<FuncBackend>` for Tier-0) as an input: root `cargo test` does
//! not run `crates/accel/tests`, so the engine's Tier-0 ≡ Tier-1 contract
//! (one `charge` / `retire` path, DESIGN.md §5.6) is checked here too, and
//! so is a thin smoke of `crates/accel/tests/span_differential.rs`: the
//! timing engine's span commits against `Stepped`, its per-instruction
//! oracle.
//!
//! The only permitted difference is *work*: on pools with idle cores the
//! event engine must actually skip them ([`AdvanceStats::skips`] > 0).

use std::sync::Arc;

use inca::accel::{
    AccelConfig, AdvanceMode, AdvanceStats, Backend, CoreId, CorePool, DdrImage, Engine,
    FuncBackend, InterruptStrategy, Report, SpanSupport, Stepped, Tier,
};
use inca::compiler::Compiler;
use inca::isa::{Program, TaskSlot};
use inca::model::{zoo, Shape3};
use inca::obs::{Metrics, MetricsSnapshot, Probe, TraceEvent, Tracer};
use inca::serve::{Gateway, PlacePolicy, SchedPolicy, TenantSpec};
use inca_bench::{serve_spans_scenario_with_mode, SpansScenario};

const STRATEGIES: [InterruptStrategy; 4] = [
    InterruptStrategy::NonPreemptive,
    InterruptStrategy::CpuLike,
    InterruptStrategy::LayerByLayer,
    InterruptStrategy::VirtualInstruction,
];

fn cfg() -> AccelConfig {
    AccelConfig::paper_small()
}

fn compile(strategy: InterruptStrategy, net: &inca::model::Network) -> Arc<Program> {
    let compiler = Compiler::new(cfg().arch);
    Arc::new(match strategy {
        InterruptStrategy::VirtualInstruction => compiler.compile_vi(net).unwrap(),
        _ => compiler.compile(net).unwrap(),
    })
}

/// Deterministic low-magnitude input so tiled and golden sums agree
/// exactly (same idiom as the accel transparency suite).
fn image_with_input(program: &Program, seed: u64) -> DdrImage {
    let mut img = DdrImage::for_program(program, seed);
    let first = &program.layers[0];
    let n = first.in_shape.bytes();
    let data: Vec<u8> = (0..n).map(|i| ((i * 7 + 3) % 15) as u8).collect();
    img.write(first.input_addr, &data);
    img
}

/// Every layer's DDR output bytes for one program.
type LayerOutputs = Vec<Vec<i8>>;

fn all_outputs(program: &Program, image: &DdrImage) -> LayerOutputs {
    program.layers.iter().map(|m| image.read_output(m)).collect()
}

fn makespan(strategy: InterruptStrategy, program: &Arc<Program>) -> u64 {
    let slot = TaskSlot::new(3).unwrap();
    let mut e = Engine::new(cfg(), strategy, inca::accel::TimingBackend::new());
    e.load(slot, Arc::clone(program)).unwrap();
    e.request_at(0, slot).unwrap();
    e.run().unwrap().completed_jobs[0].finish
}

/// Everything a pool run can observably produce, snapshotted mid-run and
/// at the end. Two runs are "the same run" iff these compare equal.
#[derive(Debug, PartialEq)]
struct PoolObservables {
    /// At each intermediate barrier: (per-core clock, per-core metrics JSON).
    mid: Vec<(Vec<u64>, Vec<String>)>,
    reports: Vec<Report>,
    metrics_json: Vec<String>,
    trace: Vec<TraceEvent>,
    /// Per active core: DDR outputs of the lo and hi programs.
    outputs: Vec<(LayerOutputs, LayerOutputs)>,
}

/// The pool-direct scenario: `cores` functional cores share one tracer;
/// every *even* core runs a tagged lo job preempted mid-flight by a
/// tagged hi job (so span trees and interrupts land in the stream), odd
/// cores stay idle the whole run. Advanced through two mid-run barriers,
/// then to quiescence.
fn pool_run<B: Backend>(
    wrap: fn(FuncBackend) -> B,
    func: fn(&B) -> &FuncBackend,
    strategy: InterruptStrategy,
    cores: usize,
    mode: AdvanceMode,
) -> (PoolObservables, AdvanceStats) {
    let lo_prog = compile(strategy, &zoo::tiny(Shape3::new(3, 24, 24)).unwrap());
    let hi_prog = compile(strategy, &zoo::tiny(Shape3::new(3, 16, 16)).unwrap());
    let span = makespan(strategy, &lo_prog);
    let (lo, hi) = (TaskSlot::new(3).unwrap(), TaskSlot::new(1).unwrap());

    let (tracer, buf) = Tracer::ring(1 << 16);
    let engines: Vec<Engine<B>> = (0..cores)
        .map(|c| {
            let mut backend = FuncBackend::new();
            backend.install_image(lo, image_with_input(&lo_prog, 1_000 + c as u64));
            backend.install_image(hi, image_with_input(&hi_prog, 9_000 + c as u64));
            let mut e = Engine::new(cfg(), strategy, wrap(backend));
            e.set_probe(Probe { core: Some(c as u32), ..tracer.clone().into() });
            e.load(lo, Arc::clone(&lo_prog)).unwrap();
            e.load(hi, Arc::clone(&hi_prog)).unwrap();
            e
        })
        .collect();
    let mut pool = CorePool::from_engines(engines);
    pool.barrier().set_mode(mode);

    let active: Vec<usize> = (0..cores).step_by(2).collect();
    for (i, &c) in active.iter().enumerate() {
        let e = pool.core_mut(CoreId(c));
        // Stagger the work so equal-wake ties AND distinct wakes both occur.
        e.request_job_tagged(c as u64 * 100, lo, 0, 0, Some(1 + i as u64)).unwrap();
        e.request_job_tagged(span / 3 + c as u64 * 100, hi, 0, 0, Some(100 + i as u64)).unwrap();
    }

    let mut mid = Vec::new();
    for barrier in [span / 4, span / 2] {
        pool.run_until(barrier).unwrap();
        let nows: Vec<u64> = pool.core_ids().map(|c| pool.core(c).now()).collect();
        let json: Vec<String> = pool
            .core_ids()
            .map(|c| MetricsSnapshot::new(format!("core{}", c.0), pool.core(c).metrics()).to_json())
            .collect();
        mid.push((nows, json));
    }
    pool.run_until(u64::MAX).unwrap();
    assert_eq!(buf.dropped(), 0, "{strategy}/{cores}c: the comparison covers the whole trace");
    let fused: u64 = pool
        .core_ids()
        .map(|c| func(pool.core(c).backend()).metrics().counter("tier1.exec_layers"))
        .sum();
    // Tier-0 is the backend that reports no span capability.
    let stepped = pool.core(CoreId(0)).backend().supports_spans() == SpanSupport::None;
    assert_eq!(fused == 0, stepped, "{strategy}/{cores}c: stepped={stepped} fused {fused}");

    let outputs = active
        .iter()
        .map(|&c| {
            let b = func(pool.core(CoreId(c)).backend());
            (
                all_outputs(&lo_prog, b.image(lo).unwrap()),
                all_outputs(&hi_prog, b.image(hi).unwrap()),
            )
        })
        .collect();
    let metrics_json = pool
        .core_ids()
        .map(|c| MetricsSnapshot::new(format!("core{}", c.0), pool.core(c).metrics()).to_json())
        .collect();
    let obs =
        PoolObservables { mid, reports: pool.reports(), metrics_json, trace: buf.drain(), outputs };
    (obs, pool.advance_stats())
}

#[test]
fn pool_runs_are_byte_identical_across_modes() {
    for strategy in STRATEGIES {
        for cores in [1usize, 2, 4, 8] {
            let tier1 = |mode| pool_run(|b| b, |b| b, strategy, cores, mode);
            let (ev, ev_stats) = tier1(AdvanceMode::EventDriven);
            let (st, st_stats) = tier1(AdvanceMode::Stepping);
            assert_eq!(ev, st, "{strategy}/{cores}c: event-driven and stepping runs diverge");
            if cores <= 2 {
                let (t0, _) =
                    pool_run(Stepped, |b| &b.0, strategy, cores, AdvanceMode::EventDriven);
                assert_eq!(ev, t0, "{strategy}/{cores}c: Tier-1 and Tier-0 runs diverge");
            }
            assert!(!ev.trace.is_empty(), "{strategy}/{cores}c: scenario emits trace events");
            let completed: usize = ev.reports.iter().map(|r| r.completed_jobs.len()).sum();
            assert_eq!(completed, cores.div_ceil(2) * 2, "{strategy}/{cores}c: all jobs done");
            if cores >= 2 {
                assert!(
                    ev_stats.skips > 0,
                    "{strategy}/{cores}c: idle cores must be skipped, got {ev_stats:?}"
                );
                assert!(
                    ev_stats.skips > st_stats.skips,
                    "{strategy}/{cores}c: event mode must out-skip stepping"
                );
            }
            // Stepping visits every registered core at every barrier.
            assert_eq!(st_stats.wakes + st_stats.skips, st_stats.barriers * cores as u64);
        }
    }
}

/// Everything a gateway run can observably produce.
#[derive(Debug, PartialEq)]
struct GatewayObservables {
    responses: Vec<inca::serve::Response>,
    metrics_json: String,
    trace: Vec<TraceEvent>,
    reports: Vec<Report>,
    outputs: Vec<LayerOutputs>,
}

/// A copy of `m` without the mode-dependent `event.*` work-telemetry
/// counters. The gateway now publishes its advance stats in metrics-v1
/// (wakes/skips measure *simulator work*, which differs across modes by
/// design), so the byte-identical comparison covers everything else and
/// the event counters get their own explicit assertions.
fn strip_event(m: &Metrics) -> Metrics {
    let mut out = Metrics::new();
    for (k, v) in m.counters().filter(|(k, _)| !k.starts_with("event.")) {
        out.inc(k, v);
    }
    for (k, v) in m.gauges() {
        out.set_gauge(k, v);
    }
    for (k, h) in m.histograms() {
        out.insert_histogram(k, h.clone());
    }
    out
}

/// The serving scenario from the serve differential suite — admission,
/// batching, placement, slot-virtualizing schedulers, hard-lane
/// preemption — run under an explicit advance mode.
fn gateway_run(
    strategy: InterruptStrategy,
    cores: usize,
    mode: AdvanceMode,
) -> (GatewayObservables, AdvanceStats) {
    let lo_prog = compile(strategy, &zoo::tiny(Shape3::new(3, 32, 32)).unwrap());
    let mid_prog = compile(strategy, &zoo::tiny(Shape3::new(3, 24, 24)).unwrap());
    let hi_prog = compile(strategy, &zoo::tiny(Shape3::new(3, 16, 16)).unwrap());

    // (name, program, weight, hard, seed)
    let plan: [(&str, &Arc<Program>, u8, bool, u64); 5] = [
        ("bg0", &lo_prog, 3, false, 1_007),
        ("bg1", &lo_prog, 3, false, 2_007),
        ("mid0", &mid_prog, 2, false, 3_007),
        ("mid1", &mid_prog, 2, false, 4_007),
        ("estop", &hi_prog, 0, true, 5_007),
    ];

    let pool = CorePool::new(cores, cfg(), strategy, FuncBackend::new);
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded);
    gw.barrier().set_mode(mode);
    gw.set_batch_window(5_000);
    let (tracer, buf) = Tracer::ring(1 << 16);
    gw.set_probe(tracer.into(), 0);
    let tenants: Vec<_> = plan
        .iter()
        .map(|(name, program, weight, hard, _)| {
            let mut spec = TenantSpec::new(*name, Arc::clone(program)).weight(*weight);
            if *hard {
                spec = spec.hard(2_000_000_000);
            }
            gw.register(spec)
        })
        .collect();
    for core in 0..cores {
        for (t, (_, program, _, _, seed)) in tenants.iter().zip(plan.iter()) {
            gw.pool_mut()
                .core_mut(CoreId(core))
                .backend_mut()
                .install_ctx_image(t.ctx(), image_with_input(program, *seed));
        }
    }

    let span = makespan(strategy, &lo_prog);
    gw.submit(0, tenants[0]).unwrap();
    gw.submit(0, tenants[1]).unwrap();
    gw.run_until(span / 4).unwrap();
    gw.submit(span / 4, tenants[2]).unwrap();
    gw.submit(span / 4, tenants[3]).unwrap();
    gw.run_until(span / 2).unwrap();
    gw.submit(span / 2, tenants[4]).unwrap();
    gw.run_to_idle(u64::MAX).unwrap();

    let responses = gw.drain_responses();
    assert_eq!(responses.len(), 5, "{strategy}/{cores}c/{mode}: all requests answered");
    let outputs = responses
        .iter()
        .map(|r| {
            let t = r.tenant;
            let program = Arc::clone(&gw.spec(t).program);
            let core = r.core.expect("executed requests carry their core");
            all_outputs(&program, gw.pool().core(core).backend().ctx_image(t.ctx()).unwrap())
        })
        .collect();
    let obs = GatewayObservables {
        responses,
        metrics_json: MetricsSnapshot::new("gw", strip_event(&gw.metrics())).to_json(),
        trace: buf.drain(),
        reports: gw.pool().reports(),
        outputs,
    };
    let stats = gw.advance_stats();
    // The stripped counters get their own check: metrics-v1 must publish
    // the advance stats verbatim under `event.*`.
    let full = gw.metrics();
    let counter = |key: &str| {
        full.counters().find(|&(k, _)| k == key).map(|(_, v)| v).expect("event counter published")
    };
    assert_eq!(counter("event.barriers"), stats.barriers);
    assert_eq!(counter("event.wakes"), stats.wakes);
    assert_eq!(counter("event.skips"), stats.skips);
    (obs, stats)
}

#[test]
fn gateway_runs_are_byte_identical_across_modes() {
    for strategy in STRATEGIES {
        let mut ev_by_cores = Vec::new();
        for cores in [2usize, 4] {
            let (ev, ev_stats) = gateway_run(strategy, cores, AdvanceMode::EventDriven);
            let (st, st_stats) = gateway_run(strategy, cores, AdvanceMode::Stepping);
            assert_eq!(ev, st, "{strategy}/{cores}c: served runs diverge across modes");
            assert!(!ev.trace.is_empty(), "{strategy}/{cores}c: gateway emits trace events");
            assert!(
                ev_stats.skips > 0,
                "{strategy}/{cores}c: an event-driven gateway must skip quiescent cores, \
                 got {ev_stats:?}"
            );
            // The serving barrier accounts for every core at every
            // barrier: visited (armed and non-quiescent) or skipped.
            assert_eq!(
                ev_stats.wakes + ev_stats.skips,
                ev_stats.barriers * cores as u64,
                "{strategy}/{cores}c: barrier accounting is exact"
            );
            assert_eq!(st_stats.skips, 0, "{strategy}/{cores}c: stepping never skips");
            ev_by_cores.push(ev_stats);
        }
        // Barriers are O(armed), not O(cores): growing the pool
        // with capacity the workload does not arm improves skips instead
        // of costing full-pool scans.
        let (ev2, ev4) = (ev_by_cores[0], ev_by_cores[1]);
        assert!(
            ev4.skips > ev2.skips,
            "{strategy}: idle capacity must convert to skips (2c {ev2:?} vs 4c {ev4:?})"
        );
    }
}

#[test]
fn bench_canonical_spans_scenario_is_mode_invariant() {
    for strategy in STRATEGIES {
        let ev: SpansScenario =
            serve_spans_scenario_with_mode(strategy, 1, None, AdvanceMode::EventDriven);
        let st: SpansScenario =
            serve_spans_scenario_with_mode(strategy, 1, None, AdvanceMode::Stepping);
        assert_eq!(ev.events, st.events, "{strategy}: canonical span streams diverge");
        assert_eq!(ev.dropped, st.dropped, "{strategy}");
        assert_eq!(ev.responses, st.responses, "{strategy}");
        assert!(ev.responses > 0 && !ev.events.is_empty(), "{strategy}: scenario is non-trivial");
    }
}

/// Span commits ≡ per-instruction stepping (DESIGN.md §5.6, invariant 14):
/// `Engine<TimingBackend>` jumps a job to the next event off its cycle
/// table, `Engine<Stepped<TimingBackend>>` cannot. One net, every strategy,
/// every observable compared after every call. The full matrix, the edge
/// cases and the proptest live in `crates/accel/tests/span_differential.rs`.
#[test]
fn span_commits_match_the_stepped_oracle() {
    use inca::accel::{Stepped, TimingBackend};
    let net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
    for strategy in STRATEGIES {
        let program = compile(strategy, &net);
        let span = makespan(strategy, &program);
        let mut spans = Engine::new(cfg(), strategy, TimingBackend::new());
        let mut steps = Engine::new(cfg(), strategy, Stepped(TimingBackend::new()));
        macro_rules! both {
            (|$e:ident| $call:expr) => {{
                let a = {
                    let $e = &mut spans;
                    $call
                };
                let b = {
                    let $e = &mut steps;
                    $call
                };
                assert_eq!(a, b, "{strategy}: `{}`", stringify!($call));
                assert_eq!(spans.now(), steps.now(), "{strategy}: clock");
                assert_eq!(spans.next_event(), steps.next_event(), "{strategy}: next event");
                assert_eq!(spans.report(), steps.report(), "{strategy}: report");
                assert_eq!(spans.metrics(), steps.metrics(), "{strategy}: metrics");
                for slot in TaskSlot::all() {
                    assert_eq!(spans.task_state(slot), steps.task_state(slot), "{strategy}");
                }
            }};
        }
        for slot in [hi, lo] {
            both!(|e| e.load(slot, Arc::clone(&program)));
        }
        both!(|e| e.request_at(0, lo));
        both!(|e| e.request_at(span / 3, hi));
        both!(|e| e.request_at(span / 3, lo));
        both!(|e| e.request_at(span, hi));
        for deadline in [1, span / 4, span / 3, span / 3 + 1, span, 2 * span] {
            both!(|e| e.run_until(deadline));
            both!(|e| e.run_until_complete(deadline + span / 7));
        }
        both!(|e| e.run_until(u64::MAX));
        assert_eq!(spans.report().completed_jobs.len(), 4, "{strategy}");
        let retired = spans.metrics().counter("engine.instrs.retired");
        assert_eq!(retired, 4 * program.original_instrs().count() as u64, "{strategy}");
    }
}
