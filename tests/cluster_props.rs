//! Fleet-level acceptance properties for [`inca::cluster`]:
//!
//! 1. **Conservation** — across every gateway a cluster routes, sheds,
//!    steals or cascades through, the per-tenant ledger still balances:
//!    `submitted == admitted + rejected + shed`, and once drained
//!    `admitted == completed + dropped + skipped`. Work stealing and
//!    shed cascades move requests *between* ledgers, they never leak or
//!    mint them.
//! 2. **Hard-lane isolation** — at 4 gateways × 4 cores under the
//!    VirtualInstruction strategy, a best-effort flood (with stealing
//!    and elastic scaling churning the fleet underneath) moves the hard
//!    lane's p99 latency by at most ±10% versus the same hard schedule
//!    on an otherwise idle fleet.
//! 3. **Byte identity** — the full observable surface of a cluster run
//!    (responses with their serving gateway, drained ledgers, metrics
//!    snapshot, merged fleet timeline, route/steal/cascade/resize
//!    counters, ground-truth reload cycles) is identical across repeat
//!    runs, [`FuncBackend`] worker-thread counts, and the [`Stepped`]
//!    reference (every core ticked at every barrier, one instruction at a
//!    time). Advance work is not state: the cluster's [`AdvanceStats`]
//!    (gateways visited and skipped) must match across product runs
//!    only, since the reference visits every gateway with work
//!    outstanding, and the `event.*` counters, which count the stepping
//!    work by design, are stripped before comparison.

use std::sync::Arc;

use inca::accel::analysis::predicted_span;
use inca::accel::{
    AccelConfig, AdvanceStats, Backend, CoreId, CorePool, FuncBackend, InterruptStrategy, Stepped,
    TimingBackend,
};
use inca::cluster::{Cluster, GatewayId, RoutePolicy, RouteStats};
use inca::compiler::Compiler;
use inca::isa::Program;
use inca::model::{zoo, Shape3};
use inca::obs::{Metrics, MetricsSnapshot};
use inca::serve::{
    DropPolicy, Gateway, PlacePolicy, Response, SchedPolicy, TenantId, TenantSpec, TenantStats,
};
use inca_bench::p99;
use inca_bench::workload::Gaps;

mod common;

fn cfg() -> AccelConfig {
    AccelConfig::paper_small()
}

/// Distinct best-effort networks (more than one core's task slots) plus
/// the small hard-lane network, all compiled for VirtualInstruction.
fn programs() -> Vec<Arc<Program>> {
    let c = Compiler::new(cfg().arch);
    (0..6u32)
        .map(|i| {
            let side = 12 + 4 * i;
            Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, side, side)).unwrap()).unwrap())
        })
        .collect()
}

struct Fleet<B: Backend> {
    cluster: Cluster<B>,
    tenants: Vec<TenantId>,
    hard: TenantId,
    mean_gap: u64,
}

fn build_fleet<B: Backend>(
    gateways: usize,
    cores: usize,
    make_backend: impl FnMut() -> B,
) -> Fleet<B> {
    let (route, place) = (RoutePolicy::WeightCacheAware, PlacePolicy::TenantAffinity);
    build_fleet_with(gateways, cores, route, place, make_backend)
}

fn build_fleet_with<B: Backend>(
    gateways: usize,
    cores: usize,
    route: RoutePolicy,
    place: PlacePolicy,
    mut make_backend: impl FnMut() -> B,
) -> Fleet<B> {
    let gws = (0..gateways)
        .map(|_| {
            let pool = CorePool::new(
                cores,
                cfg(),
                InterruptStrategy::VirtualInstruction,
                &mut make_backend,
            );
            Gateway::new(pool, SchedPolicy::FixedPriority, place)
        })
        .collect();
    let mut cluster = Cluster::new(gws, route);
    let programs = programs();
    let mean_gap = predicted_span(&cfg(), &programs[5]);
    cluster.set_batch_window(mean_gap / 4);
    let tenants: Vec<TenantId> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            cluster.register(
                TenantSpec::new(format!("be{i}"), Arc::clone(p))
                    .weight(1 + (i % 3) as u8)
                    .queue(3, DropPolicy::Reject),
            )
        })
        .collect();
    let hard = cluster.register(
        TenantSpec::new("estop", Arc::clone(&programs[0]))
            .hard(mean_gap * 64)
            .queue(8, DropPolicy::Reject),
    );
    Fleet { cluster, tenants, hard, mean_gap }
}

/// Drives `fleet` with the hard schedule (every `mean_gap * 2`) and, when
/// `flood`, a best-effort burst storm on top. Returns every drained
/// response with its serving gateway.
fn drive<B: Backend>(
    fleet: &mut Fleet<B>,
    requests: u64,
    flood: bool,
) -> Vec<(GatewayId, Response)> {
    let Fleet { cluster, tenants, hard, mean_gap } = fleet;
    let (hard, mean_gap) = (*hard, *mean_gap);
    let mut gaps = Gaps::new(77);
    let mut now = 0u64;
    for i in 0..requests {
        // Tail frames are spaced beyond the batch window so the fleet
        // fully drains between them; the spacing is the same with and
        // without the flood, keeping the hard schedules comparable.
        let tail = i >= requests * 3 / 4;
        now += if tail { mean_gap * 12 } else { mean_gap * 2 };
        cluster.run_until(now).expect("engine");
        cluster.submit(now, hard).expect("hard lane never sheds in these runs");
        if flood {
            let focus = tenants[gaps.pick(tenants.len() as u64) as usize];
            if tail {
                // Tail phase: a small burst lands on only a few of the
                // drained gateways; the mid-window barrier below gives
                // a still-idle gateway the chance to steal the batched
                // work before its flush deadline (and exercises elastic
                // shrink and the cluster skip rule).
                for _ in 0..3 {
                    let _ = cluster.submit(now, focus);
                }
            } else {
                // Storm phase: a burst far beyond one tenant's queue
                // depth floods every gateway through shed cascades and
                // forces real sheds once the whole fleet is saturated.
                for _ in 0..20 {
                    let _ = cluster.submit(now, focus);
                }
                let stray = tenants[gaps.pick(tenants.len() as u64) as usize];
                let _ = cluster.submit(now + gaps.next(mean_gap / 8) % mean_gap, stray);
            }
        }
        if tail {
            // A barrier inside the batch window: rebalance runs while
            // the tail burst is still batched and stealable.
            cluster.run_until(now + mean_gap * 2).expect("engine");
        }
    }
    cluster.run_to_idle(u64::MAX).expect("engine");
    cluster.drain_responses()
}

fn hard_latencies(responses: &[(GatewayId, Response)], hard: TenantId) -> Vec<u64> {
    responses.iter().filter(|(_, r)| r.tenant == hard).map(|(_, r)| r.latency()).collect()
}

/// The per-tenant ledger must balance on every gateway individually and
/// therefore fleet-wide, no matter how many cascades/steals moved work.
fn assert_conserved<B: Backend>(cluster: &Cluster<B>, label: &str) {
    for g in 0..cluster.gateway_count() {
        let gw = cluster.gateway(GatewayId(g));
        let t = gw.totals();
        assert_eq!(
            t.submitted,
            t.admitted + t.rejected + t.shed,
            "{label}: gw{g} admission ledger out of balance: {t:?}"
        );
        assert_eq!(
            t.admitted,
            t.completed + t.dropped + t.skipped,
            "{label}: gw{g} drained ledger out of balance: {t:?}"
        );
        // The engines count what they completed, though the gateway
        // retired every record it turned into a response.
        let pool = gw.pool();
        let engines = || pool.core_ids().map(|c| pool.core(c));
        let counted: u64 = engines().map(|e| e.metrics().counter("engine.jobs.completed")).sum();
        assert_eq!(counted, t.completed, "{label}: gw{g} engine completions");
        assert!(engines().all(|e| e.completed_jobs().is_empty()), "{label}: gw{g} kept records");
    }
    let t = cluster.totals();
    assert_eq!(t.submitted, t.admitted + t.rejected + t.shed, "{label}: fleet ledger: {t:?}");
    assert_eq!(t.admitted, t.completed + t.dropped + t.skipped, "{label}: fleet drain: {t:?}");
}

#[test]
fn conservation_and_hard_lane_isolation_under_flood() {
    const HARD_FRAMES: u64 = 32;

    // Baseline: the hard schedule on an otherwise idle fleet. Both
    // fleets get the same long batch window (only best-effort work is
    // batched, so the hard comparison stays fair) — long enough that
    // batched backlog survives to a barrier where an idle gateway can
    // steal it.
    let mut solo = build_fleet(4, 4, TimingBackend::new);
    let window = solo.mean_gap * 8;
    solo.cluster.set_batch_window(window);
    let solo_responses = drive(&mut solo, HARD_FRAMES, false);
    let mut solo_lat = hard_latencies(&solo_responses, solo.hard);
    assert_eq!(solo_lat.len() as u64, HARD_FRAMES);
    assert_conserved(&solo.cluster, "solo");
    let solo_p99 = p99(&mut solo_lat);

    // Same hard schedule under a best-effort flood with the whole fleet
    // machinery on: stealing, elastic scaling, shed cascades.
    let mut flood = build_fleet(4, 4, TimingBackend::new);
    flood.cluster.set_batch_window(window);
    flood.cluster.set_rebalance(true);
    let flood_responses = drive(&mut flood, HARD_FRAMES, true);
    let mut flood_lat = hard_latencies(&flood_responses, flood.hard);
    assert_eq!(flood_lat.len() as u64, HARD_FRAMES);
    assert_conserved(&flood.cluster, "flood");
    let flood_p99 = p99(&mut flood_lat);

    // The flood really exercised the moving parts...
    let totals = flood.cluster.totals();
    assert!(totals.shed > 0, "flood must shed somewhere: {totals:?}");
    assert!(flood.cluster.stolen() > 0, "flood must trigger work stealing");
    assert!(flood.cluster.resizes() > 0, "flood must trigger elastic resizes");
    assert!(flood.cluster.advance_stats().skips > 0, "idle gateways must be skipped");

    // ...and the hard lane never felt it: p99 within ±10% of solo.
    let tolerance = solo_p99 / 10;
    assert!(
        flood_p99.abs_diff(solo_p99) <= tolerance,
        "hard-lane p99 isolation broken: solo {solo_p99} vs flood {flood_p99} \
         (tolerance {tolerance})"
    );
}

/// `u64::MAX` means "no cap": an uncapped idle loop drains the fleet and
/// rests the clock at the last event, not at the cap, so the fleet keeps
/// serving after it (a clock saturated at `u64::MAX` overflowed the next
/// submit's `now + batch_window`). A finite cap short of the finish leaves
/// the request outstanding.
#[test]
fn cluster_keeps_serving_after_an_uncapped_idle_loop() {
    let Fleet { mut cluster, tenants, .. } = build_fleet(2, 1, TimingBackend::new);
    for _ in 0..2 {
        // The second arrival is the first finish: the clock rested there.
        let arrival = cluster.now();
        cluster.submit(arrival, tenants[0]).expect("an idle fleet admits");
        cluster.run_to_idle(arrival + 1).expect("engine");
        assert_eq!(cluster.outstanding(), 1, "a finite cap leaves the request in flight");
        cluster.run_to_idle(u64::MAX).expect("engine");
        assert_eq!(cluster.outstanding(), 0, "an uncapped run drains");
        let responses = cluster.drain_responses();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].1.arrival, arrival);
        assert_eq!(cluster.now(), responses[0].1.finish, "the clock rests at the last event");
    }
}

/// A stolen request moves once per barrier: the thieves are the gateways
/// idle when the steal pass starts, so a robbed victim does not steal it
/// back and a thief does not pass it on to the next idle gateway. One
/// pending request on one-core gateways leaves elastic scaling nothing to
/// resize, so only the steal pass acts.
#[test]
fn a_stolen_request_moves_once_per_barrier() {
    let Fleet { mut cluster, tenants, .. } = build_fleet(4, 1, TimingBackend::new);
    cluster.set_rebalance(true);
    let (home, acc) = cluster.submit(0, tenants[0]).expect("an idle fleet admits");
    assert_eq!(acc.core, None, "best-effort work waits in its batch");
    cluster.run_until(1).expect("engine");
    assert_eq!(cluster.stolen(), 1, "one idle gateway took it");
    assert_eq!(cluster.totals().dropped, 1, "only its first gateway recalled it");
    assert_eq!(cluster.gateway(home).totals().dropped, 1);
    assert_eq!(cluster.pending_batched(), 1, "it waits in its thief's batch");
    cluster.run_to_idle(u64::MAX).expect("engine");
    assert_eq!(cluster.totals().completed, 1);
    assert_conserved(&cluster, "steal");
}

/// Sequential truth: when every submit drains before the next, placement
/// and slot choice cannot move between a gateway's reload quote and the
/// dispatch, so the router's tally of what the admitting gateways quoted
/// is exactly what their schedulers charged — under every routing and
/// placement policy.
#[test]
fn quoted_reloads_are_the_reloads_charged_when_submits_drain() {
    const SUBMITS: u64 = 400;
    for route in [RoutePolicy::RoundRobin, RoutePolicy::WeightCacheAware] {
        for place in
            [PlacePolicy::RoundRobin, PlacePolicy::LeastLoaded, PlacePolicy::TenantAffinity]
        {
            let Fleet { mut cluster, tenants, hard, .. } =
                build_fleet_with(3, 2, route, place, TimingBackend::new);
            let everyone: Vec<TenantId> = tenants.into_iter().chain([hard]).collect();
            let mut gaps = Gaps::new(5);
            for _ in 0..SUBMITS {
                let tenant = everyone[gaps.pick(everyone.len() as u64) as usize];
                cluster.submit(cluster.now(), tenant).expect("a drained fleet admits");
                cluster.run_until(u64::MAX).expect("engine");
            }
            let cell = format!("{route} routing, {place} placement");
            let s = cluster.route_stats();
            assert_eq!(s.hits + s.misses, SUBMITS, "{cell}");
            assert!(s.hits > 0 && s.misses > 0, "{cell}: {s:?}");
            assert_eq!(s.misses, cluster.reloads(), "{cell}");
            assert_eq!(s.miss_cycles, cluster.reload_cycles(), "{cell}");
        }
    }
}

/// Everything a cluster run can observably produce. Two runs are "the
/// same run" iff these compare equal.
#[derive(Debug, PartialEq)]
struct ClusterObservables {
    responses: Vec<(GatewayId, Response)>,
    totals: TenantStats,
    /// Metrics snapshot with the mode-specific per-gateway `event.*`
    /// counters stripped (everything else must match bytewise).
    metrics_json: String,
    /// Merged fleet timeline without the advance columns.
    /// Each gateway's own advance-stripped timeline, in gateway order.
    timeline_json: Vec<String>,
    route: RouteStats,
    stolen: u64,
    cascades: u64,
    resizes: u64,
    reload_cycles: u64,
}

/// A run's observables and its cluster advance stats, which measure work.
type Observed = (ClusterObservables, AdvanceStats);

/// Drops every counter whose key involves an `event.` segment — the
/// per-gateway engine wake/skip tallies legitimately differ on the
/// stepping reference (`cluster.gwN.event.*`, `cluster.gwN.serve.coreM....`
/// stays).
fn strip_event(m: &Metrics) -> Metrics {
    let mut out = Metrics::new();
    for (k, v) in m.counters().filter(|(k, _)| !k.contains("event.")) {
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

/// One cluster run over `wrap`ped functional backends, reached again
/// through `func`: `|b| b` twice for the product, `Stepped` and
/// `|b| &mut b.0` for the reference.
fn func_run<B: Backend>(
    threads: usize,
    wrap: fn(FuncBackend) -> B,
    func: fn(&mut B) -> &mut FuncBackend,
) -> Observed {
    let mut fleet = build_fleet(3, 2, || wrap(FuncBackend::with_threads(threads)));
    for g in 0..fleet.cluster.gateway_count() {
        let _ = fleet.cluster.gateway_mut(GatewayId(g)).enable_timeline(fleet.mean_gap, 4096);
    }
    fleet.cluster.set_rebalance(true);

    // The functional backend executes real int8 arithmetic, so every
    // core that might serve a tenant (any of them, thanks to stealing)
    // needs the tenant's DDR context image installed.
    let specs: Vec<Arc<Program>> = fleet
        .tenants
        .iter()
        .chain(std::iter::once(&fleet.hard))
        .map(|&t| Arc::clone(&fleet.cluster.gateway(GatewayId(0)).spec(t).program))
        .collect();
    for g in 0..fleet.cluster.gateway_count() {
        let gw = fleet.cluster.gateway_mut(GatewayId(g));
        for core in 0..gw.pool().cores() {
            for (i, (&t, program)) in
                fleet.tenants.iter().chain(std::iter::once(&fleet.hard)).zip(&specs).enumerate()
            {
                let image = inca::accel::DdrImage::for_program(program, 4_000 + i as u64);
                func(gw.pool_mut().core_mut(CoreId(core)).backend_mut())
                    .install_ctx_image(t.ctx(), image);
            }
        }
    }

    let responses = drive(&mut fleet, 12, true);
    assert!(!hard_latencies(&responses, fleet.hard).is_empty());
    let Fleet { mut cluster, .. } = fleet;
    let timeline_json = (0..cluster.gateway_count())
        .map(|g| {
            let series = cluster.gateway_mut(GatewayId(g)).take_timeline(&format!("gw{g}"));
            series.expect("timeline enabled").without_advance().to_json()
        })
        .collect();
    let observables = ClusterObservables {
        responses,
        totals: cluster.totals(),
        metrics_json: MetricsSnapshot::new("cluster", strip_event(&cluster.metrics())).to_json(),
        timeline_json,
        route: cluster.route_stats(),
        stolen: cluster.stolen(),
        cascades: cluster.cascades(),
        resizes: cluster.resizes(),
        reload_cycles: cluster.reload_cycles(),
    };
    (observables, cluster.advance_stats())
}

#[test]
fn cluster_runs_are_byte_identical_across_threads_repeats_and_the_stepped_reference() {
    let product = |threads| func_run(threads, |b| b, |b| b);
    let reference = |threads| func_run(threads, Stepped, |b| &mut b.0);
    let (baseline, stats) = product(1);
    assert!(!baseline.responses.is_empty());
    assert!(stats.skips > 0, "the fleet barrier must skip idle gateways: {stats:?}");

    // Advance work is compared across product runs only.
    for ((other, other_stats), what, same_work) in [
        (product(1), "repeat run", true),
        (product(4), "4 worker threads", true),
        (reference(1), "the Stepped reference", false),
        (reference(4), "the Stepped reference, 4 worker threads", false),
    ] {
        assert_eq!(baseline, other, "cluster run diverged under {what}");
        if same_work {
            assert_eq!(stats, other_stats, "cluster advance work diverged under {what}");
        }
    }
}

/// Inside a stealing cluster each gateway keeps its own timeline, sampled
/// at its own interval (the intervals need not agree): every series
/// covers its gateway's whole run, so its frame deltas sum to that
/// gateway's final busy cycles and completions.
#[test]
fn per_gateway_timelines_reconcile_with_each_gateways_totals() {
    // The flood fleet's long batch window leaves backlog to steal.
    let mut fleet = build_fleet(4, 2, TimingBackend::new);
    fleet.cluster.set_batch_window(fleet.mean_gap * 8);
    fleet.cluster.set_rebalance(true);
    let interval = |g: usize| fleet.mean_gap * (g as u64 + 1);
    let intervals: Vec<u64> = (0..fleet.cluster.gateway_count()).map(interval).collect();
    for (g, &every) in intervals.iter().enumerate() {
        let _ = fleet.cluster.gateway_mut(GatewayId(g)).enable_timeline(every, 4096);
    }
    let responses = drive(&mut fleet, 16, true);
    assert!(!responses.is_empty());
    let cluster = &mut fleet.cluster;
    assert!(cluster.stolen() > 0, "the flood must make gateways steal");
    for (g, &every) in intervals.iter().enumerate() {
        let series = cluster.gateway_mut(GatewayId(g)).take_timeline(&format!("gw{g}"));
        let series = series.expect("timeline enabled");
        assert_eq!(series.interval, every, "gw{g}");
        assert_eq!(series.dropped, 0, "gw{g}: frames were evicted");
        assert!(series.cycles.windows(2).all(|w| w[0] < w[1]), "gw{g}: axis not increasing");
        let sum = |col: String| series.column(&col).expect("column").iter().sum::<u64>();
        let gw = cluster.gateway(GatewayId(g));
        let completed: u64 =
            (0..series.tenants()).map(|t| sum(format!("tenant{t}.completed"))).sum();
        assert_eq!(completed, gw.totals().completed, "gw{g}: completions");
        let pool = gw.pool();
        assert_eq!(series.cores(), pool.cores(), "gw{g}");
        for c in pool.core_ids() {
            assert_eq!(sum(format!("core{}.busy", c.0)), pool.busy_cycles(c), "gw{g} {c}");
        }
        common::assert_well_formed(&series.to_json(), series.tenants());
    }
}
