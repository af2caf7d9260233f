//! Property-based stress tests for the serving gateway.
//!
//! Random tenant mixes (lanes, weights, shed policies, deadlines),
//! placement/scheduling policies, pool sizes, batch windows and arrival
//! patterns; the invariants checked:
//!
//! 1. **Conservation** — per tenant, `submitted == admitted + rejected +
//!    shed`, and at idle `admitted == completed + dropped + skipped +
//!    outstanding`; drained responses equal `completed + skipped`.
//! 2. **Metrics reconcile** — the `serve.*` snapshot equals the counters,
//!    and so do the engines' own completion counts, although no engine
//!    holds a completion record once its gateway drained it.
//! 3. **Response sanity** — cycle arithmetic is causal (start ≥ arrival,
//!    finish ≥ start) and every executed response names a valid core.
//! 4. **Hard-lane isolation** (deterministic acceptance test) — on one
//!    core under the VI strategy, a hard tenant's worst-case latency is
//!    unaffected (±10%) by best-effort saturation, while CpuLike and
//!    LayerByLayer degrade it measurably.
//!
//! Case count defaults to a CI-friendly bound; set `INCA_PROP_CASES` for
//! a deeper sweep.

use std::sync::Arc;

use inca_accel::analysis::predicted_span;
use inca_accel::{AccelConfig, CorePool, InterruptStrategy, TimingBackend};
use inca_compiler::Compiler;
use inca_isa::Program;
use inca_model::{zoo, Shape3};
use inca_serve::{
    DropPolicy, Gateway, Lane, PlacePolicy, Response, SchedPolicy, TenantSpec, TenantStats,
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

/// One randomly generated serving scenario.
#[derive(Debug, Clone)]
struct Scenario {
    cores: usize,
    sched: SchedPolicy,
    place: PlacePolicy,
    batch_window: u64,
    max_batch: usize,
    /// Per-tenant (hard lane, weight, max outstanding, shed policy,
    /// soft deadline).
    tenants: Vec<(bool, u8, usize, DropPolicy, bool)>,
    /// (tenant selector, inter-arrival gap in cycles).
    arrivals: Vec<(usize, u64)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        1usize..4,
        prop::sample::select(vec![
            SchedPolicy::FixedPriority,
            SchedPolicy::Edf,
            SchedPolicy::PremaTokens,
        ]),
        prop::sample::select(vec![
            PlacePolicy::RoundRobin,
            PlacePolicy::LeastLoaded,
            PlacePolicy::TenantAffinity,
        ]),
        1_000u64..60_000,
        1usize..6,
        prop::collection::vec(
            (
                any::<bool>(),
                1u8..4,
                1usize..5,
                prop::sample::select(vec![
                    DropPolicy::Reject,
                    DropPolicy::DropOldest,
                    DropPolicy::DegradeToSkip,
                ]),
                any::<bool>(),
            ),
            2..6,
        ),
        prop::collection::vec((0usize..64, 0u64..300_000), 4..40),
    )
        .prop_map(|(cores, sched, place, batch_window, max_batch, tenants, arrivals)| {
            Scenario { cores, sched, place, batch_window, max_batch, tenants, arrivals }
        })
}

struct Outcome {
    totals: TenantStats,
    per_tenant: Vec<TenantStats>,
    outstanding: u64,
    responses: Vec<Response>,
    cores: usize,
    metrics: inca_obs::Metrics,
    /// `engine.jobs.completed` summed over the pool.
    engine_completed: u64,
}

/// Completion records the pool's engines still hold.
fn held_records(gw: &Gateway<TimingBackend>) -> usize {
    gw.pool().core_ids().map(|c| gw.pool().core(c).completed_jobs().len()).sum()
}

/// Drives a scenario to idle; panics on any engine error.
fn run_scenario(s: &Scenario) -> Outcome {
    let pool =
        CorePool::new(s.cores, cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new);
    let mut gw = Gateway::new(pool, s.sched, s.place);
    gw.set_batch_window(s.batch_window);
    gw.set_max_batch(s.max_batch);

    // Two program sizes so spans (and batch groups) differ.
    let programs = [tiny(16), tiny(24)];
    let ids: Vec<_> = s
        .tenants
        .iter()
        .enumerate()
        .map(|(i, &(hard, weight, cap, shed, soft_deadline))| {
            let program = Arc::clone(&programs[i % programs.len()]);
            let mut spec =
                TenantSpec::new(format!("t{i}"), program).weight(weight).queue(cap, shed);
            if hard {
                // Generous hard deadline: admission rejections still
                // occur under bursts, but feasible load is admitted.
                spec = spec.hard(40_000_000);
            } else if soft_deadline {
                spec = spec.deadline(40_000_000);
            }
            gw.register(spec)
        })
        .collect();

    let mut now = 0u64;
    for &(sel, gap) in &s.arrivals {
        now += gap;
        gw.run_until(now).unwrap();
        let tenant = ids[sel % ids.len()];
        let _ = gw.submit(now, tenant);
        assert_eq!(held_records(&gw), 0, "a gateway retires every record it drained");
    }
    gw.run_to_idle(now + 40_000_000_000).unwrap();
    assert_eq!(held_records(&gw), 0);

    Outcome {
        totals: gw.totals(),
        per_tenant: ids.iter().map(|&t| gw.stats(t)).collect(),
        outstanding: gw.outstanding(),
        responses: gw.drain_responses(),
        cores: s.cores,
        metrics: gw.metrics(),
        engine_completed: gw
            .pool()
            .core_ids()
            .map(|c| gw.pool().core(c).metrics().counter("engine.jobs.completed"))
            .sum(),
    }
}

proptest! {
    #![proptest_config(prop_cases(48))]

    #[test]
    fn conservation_holds_for_every_tenant(s in scenario_strategy()) {
        let out = run_scenario(&s);
        for (i, st) in out.per_tenant.iter().enumerate() {
            prop_assert_eq!(
                st.submitted,
                st.admitted + st.rejected + st.shed,
                "tenant {} submissions split exactly into admitted/rejected/shed", i
            );
            prop_assert!(
                st.admitted >= st.completed + st.dropped + st.skipped,
                "tenant {} cannot complete/drop/skip more than it admitted", i
            );
        }
        let t = &out.totals;
        prop_assert_eq!(
            t.admitted,
            t.completed + t.dropped + t.skipped + out.outstanding,
            "admitted requests all reach a terminal state or remain outstanding"
        );
        prop_assert_eq!(
            out.responses.len() as u64,
            t.completed + t.skipped,
            "every completed or degraded request produced exactly one response"
        );
        prop_assert!(t.deadline_met + t.deadline_missed <= t.completed);
    }

    #[test]
    fn metrics_reconcile_with_counters(s in scenario_strategy()) {
        let out = run_scenario(&s);
        let t = &out.totals;
        prop_assert_eq!(out.metrics.counter("serve.requests.submitted"), t.submitted);
        prop_assert_eq!(out.metrics.counter("serve.requests.admitted"), t.admitted);
        prop_assert_eq!(out.metrics.counter("serve.requests.rejected"), t.rejected);
        prop_assert_eq!(out.metrics.counter("serve.requests.shed"), t.shed);
        prop_assert_eq!(out.metrics.counter("serve.requests.dropped"), t.dropped);
        prop_assert_eq!(out.metrics.counter("serve.requests.skipped"), t.skipped);
        prop_assert_eq!(out.metrics.counter("serve.requests.completed"), t.completed);
        prop_assert_eq!(out.metrics.counter("serve.deadlines.met"), t.deadline_met);
        prop_assert_eq!(out.metrics.counter("serve.deadlines.missed"), t.deadline_missed);
        // Per-core scheduler completions sum to the gateway's (skips and
        // drops never complete on a core).
        let sched_completed: u64 = (0..out.cores)
            .map(|i| out.metrics.counter(&format!("serve.core{}.sched.jobs.completed", i)))
            .sum();
        prop_assert_eq!(sched_completed, t.completed);
        prop_assert_eq!(out.engine_completed, t.completed, "retired records still count");
    }

    #[test]
    fn responses_are_causal(s in scenario_strategy()) {
        let out = run_scenario(&s);
        for r in &out.responses {
            prop_assert!(r.start >= r.arrival, "work cannot start before its request arrived");
            prop_assert!(r.finish >= r.start);
            prop_assert!(r.batched >= 1);
            match (r.skipped, r.core) {
                (true, core) => prop_assert!(core.is_none(), "skips never touch a core"),
                (false, Some(c)) => prop_assert!(c.0 < out.cores),
                (false, None) => prop_assert!(false, "executed responses carry their core"),
            }
            if r.lane == Lane::Hard {
                prop_assert_eq!(r.batched, 1, "the hard lane is never batched");
            }
        }
    }
}

/// `u64::MAX` means "no cap": an uncapped idle loop drains the gateway and
/// rests the clock at the last event, not at the cap, so the gateway keeps
/// serving after it (a clock saturated at `u64::MAX` overflowed the next
/// submit's `now + batch_window`). A finite cap short of the finish leaves
/// the request outstanding.
#[test]
fn gateway_keeps_serving_after_an_uncapped_idle_loop() {
    let pool = CorePool::new(1, cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new);
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded);
    let tenant = gw.register(TenantSpec::new("be", tiny(16)));
    for _ in 0..2 {
        // The second arrival is the first finish: the clock rested there.
        let arrival = gw.now();
        gw.submit(arrival, tenant).expect("an idle gateway admits");
        gw.run_to_idle(arrival + 1).unwrap();
        assert_eq!(gw.outstanding(), 1, "a finite cap leaves the request in flight");
        gw.run_to_idle(u64::MAX).unwrap();
        assert_eq!(gw.outstanding(), 0, "an uncapped run drains");
        let responses = gw.drain_responses();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].arrival, arrival);
        assert_eq!(gw.now(), responses[0].finish, "the clock rests at the last event");
    }
}

/// One `set_probe` call is the whole observer wiring: the gateway's own
/// milestones, every core's scheduler and engine events, and request spans
/// stamped with the serving core's index all land in the one ring.
#[test]
fn gateway_probe_reaches_every_part() {
    use inca_obs::{SpanStage, TraceEvent, Tracer};
    let pool = CorePool::new(2, cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new);
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::RoundRobin);
    let (tracer, ring) = Tracer::ring(1 << 12);
    gw.set_probe(tracer.into(), 1);
    let tenant = gw.register(TenantSpec::new("estop", tiny(16)).hard(1_000_000_000));
    for _ in 0..2 {
        gw.submit(0, tenant).expect("an idle gateway admits");
    }
    gw.run_to_idle(u64::MAX).unwrap();
    let responses = gw.drain_responses();
    let mut served: Vec<usize> = responses.iter().map(|r| r.core.unwrap().0).collect();
    served.sort_unstable();
    assert_eq!(served, vec![0, 1], "round-robin puts one request on each core");

    let events = ring.drain();
    let has = |what: fn(&TraceEvent) -> bool| events.iter().any(what);
    assert!(has(|e| matches!(e, TraceEvent::Milestone { label, .. } if label == "serve")));
    assert!(has(|e| matches!(e, TraceEvent::SchedAdmitted { .. })), "scheduler events");
    assert!(has(|e| matches!(e, TraceEvent::JobStarted { .. })), "engine events");
    let metas = events.iter().filter(|e| matches!(e, TraceEvent::EngineMeta { .. })).count();
    assert_eq!(metas, 2, "each engine announces itself once on install");
    for r in &responses {
        let core = r.core.unwrap().0 as u32;
        for stage in [SpanStage::Queue, SpanStage::Exec, SpanStage::Request] {
            let stamped = events.iter().any(|e| {
                matches!(e, TraceEvent::Span(s)
                    if s.request == r.request.raw() && s.stage == stage && s.core == core)
            });
            assert!(stamped, "{}: no {stage} span stamped core {core}", r.request);
        }
    }
}

/// A hard request finishing exactly at its deadline meets it, one cycle
/// later misses it — on the gateway's tenant ledger and on the serving
/// core's scheduler ledger alike.
#[test]
fn finishing_on_the_deadline_cycle_meets_it_on_both_ledgers() {
    let program = tiny(16);
    let serve_one = |relative_deadline: u64| {
        let pool =
            CorePool::new(1, cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new);
        let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::RoundRobin);
        let tenant =
            gw.register(TenantSpec::new("estop", Arc::clone(&program)).hard(relative_deadline));
        gw.submit(0, tenant).expect("an idle gateway admits");
        gw.run_to_idle(u64::MAX).unwrap();
        let finish = gw.drain_responses()[0].finish;
        let core = gw.scheduler(inca_accel::CoreId(0)).totals();
        (finish, gw.stats(tenant), core)
    };
    // A solo request's finish cycle does not depend on its deadline.
    let (finish, ..) = serve_one(u64::MAX / 2);
    for (deadline, met) in [(finish, 1), (finish - 1, 0)] {
        let (again, gateway, core) = serve_one(deadline);
        assert_eq!(again, finish);
        for ledger in [gateway, core] {
            assert_eq!(ledger.completed, 1);
            assert_eq!((ledger.deadline_met, ledger.deadline_missed), (met, 1 - met), "{deadline}");
        }
    }
}

/// `Gateway::metrics()` carries one latency and one time-to-first-byte
/// histogram per lane that served, `serve.{latency,ttfb}.{hard,be}`: each
/// holds exactly the drained responses' `latency()` / `ttfb()`, and a lane
/// that served nothing has no histogram at all, not an empty one.
#[test]
fn lane_histograms_hold_the_responses_of_served_lanes_only() {
    use inca_obs::Histogram;
    let program = tiny(16);
    for lanes in [vec![Lane::Hard, Lane::BestEffort], vec![Lane::Hard], vec![Lane::BestEffort]] {
        let pool =
            CorePool::new(2, cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new);
        let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded);
        let tenants: Vec<_> = lanes
            .iter()
            .map(|&lane| {
                let spec = TenantSpec::new(format!("{lane}"), Arc::clone(&program));
                gw.register(if lane == Lane::Hard { spec.hard(1 << 40) } else { spec })
            })
            .collect();
        for i in 0..12u64 {
            let _ = gw.submit(i * 1_000, tenants[i as usize % tenants.len()]);
        }
        gw.run_to_idle(u64::MAX).unwrap();
        let responses = gw.drain_responses();
        let m = gw.metrics();
        for (lane, key) in [(Lane::Hard, "hard"), (Lane::BestEffort, "be")] {
            let (mut latency, mut ttfb) = (Histogram::default(), Histogram::default());
            for r in responses.iter().filter(|r| r.lane == lane && !r.skipped) {
                latency.observe(r.latency());
                ttfb.observe(r.ttfb());
            }
            let (latency_key, ttfb_key) =
                (format!("serve.latency.{key}"), format!("serve.ttfb.{key}"));
            if lanes.contains(&lane) {
                assert!(latency.count() > 0, "{lanes:?}: the {key} lane served");
                assert_eq!(m.histogram(&latency_key), Some(&latency), "{lanes:?}: {latency_key}");
                assert_eq!(m.histogram(&ttfb_key), Some(&ttfb), "{lanes:?}: {ttfb_key}");
            } else {
                assert_eq!(m.histogram(&latency_key), None, "{lanes:?}: {latency_key}");
                assert_eq!(m.histogram(&ttfb_key), None, "{lanes:?}: {ttfb_key}");
            }
        }
    }
}

/// The acceptance bar (mirrors `fig_serve_load` part A): on a single
/// core, the hard lane's worst-case latency under best-effort saturation
/// stays within 10% of its unloaded latency when the VI strategy carries
/// the preemption — while CpuLike (drain-then-switch) degrades it by far
/// more than 10%.
#[test]
fn hard_lane_latency_is_isolated_from_best_effort_load_under_vi() {
    // The hard network must dwarf the preemption latency for a relative
    // ±10% bound to be meaningful (paper setup: ms-scale emergency net,
    // µs-scale VI preemption).
    let hard_net = zoo::tiny(Shape3::new(3, 48, 48)).unwrap();
    let be_net = zoo::tiny(Shape3::new(3, 96, 96)).unwrap();
    let compiler = Compiler::new(cfg().arch);

    let worst_hard_latency = |strategy: InterruptStrategy, be_load: bool| -> u64 {
        let hard_prog = Arc::new(match strategy {
            InterruptStrategy::VirtualInstruction => compiler.compile_vi(&hard_net).unwrap(),
            _ => compiler.compile(&hard_net).unwrap(),
        });
        let be_prog = Arc::new(match strategy {
            InterruptStrategy::VirtualInstruction => compiler.compile_vi(&be_net).unwrap(),
            _ => compiler.compile(&be_net).unwrap(),
        });
        let be_span = predicted_span(&cfg(), &be_prog);

        let pool = CorePool::new(1, cfg(), strategy, TimingBackend::new);
        let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded);
        gw.set_batch_window(1_000);
        let hard = gw.register(
            TenantSpec::new("estop", hard_prog).hard(1_000_000_000).queue(8, DropPolicy::Reject),
        );
        let be =
            gw.register(TenantSpec::new("bg", be_prog).weight(3).queue(64, DropPolicy::Reject));

        // Eight rounds; in each, best-effort work (when loaded) is mid-
        // flight on the datapath at the instant the hard request lands.
        let gap = be_span * 4;
        let mut now = 0u64;
        for i in 0..8u64 {
            let t0 = i * gap;
            gw.run_until(t0).unwrap();
            if be_load {
                gw.submit(t0, be).unwrap();
                gw.submit(t0, be).unwrap();
            }
            now = t0 + be_span / 2;
            gw.run_until(now).unwrap();
            gw.submit(now, hard).unwrap();
        }
        gw.run_to_idle(now + 40_000_000_000).unwrap();
        let worst = gw
            .drain_responses()
            .iter()
            .filter(|r| r.tenant == hard)
            .map(Response::latency)
            .max()
            .expect("hard requests completed");
        assert_eq!(gw.stats(hard).deadline_missed, 0, "{strategy}: hard deadline holds");
        worst
    };

    let vi_idle = worst_hard_latency(InterruptStrategy::VirtualInstruction, false);
    let vi_loaded = worst_hard_latency(InterruptStrategy::VirtualInstruction, true);
    let cpu_idle = worst_hard_latency(InterruptStrategy::CpuLike, false);
    let cpu_loaded = worst_hard_latency(InterruptStrategy::CpuLike, true);

    assert!(
        vi_loaded as f64 <= vi_idle as f64 * 1.10,
        "VI: best-effort saturation must not move hard-lane latency by >10% \
         (idle {vi_idle}, loaded {vi_loaded})"
    );
    assert!(
        cpu_loaded as f64 > cpu_idle as f64 * 1.10,
        "CpuLike: draining the in-flight network must visibly delay the hard lane \
         (idle {cpu_idle}, loaded {cpu_loaded})"
    );
    assert!(
        cpu_loaded > vi_loaded,
        "under load, VI beats CpuLike on hard-lane latency ({vi_loaded} vs {cpu_loaded})"
    );
}
