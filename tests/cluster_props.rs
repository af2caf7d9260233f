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
//!    counters, cluster advance stats, ground-truth reload cycles) is
//!    identical across repeat runs, [`FuncBackend`] worker-thread
//!    counts, and both advance modes. The cluster-level skip rule is
//!    cycle-domain, so even its [`AdvanceStats`] must not vary with the
//!    advance mode — unlike the per-gateway `event.*` counters, which
//!    are mode-specific by design and are stripped before comparison.

use std::sync::Arc;

use inca::accel::{
    AccelConfig, AdvanceMode, AdvanceStats, Backend, CoreId, CorePool, Engine, FuncBackend,
    InterruptStrategy, Tier, TimingBackend,
};
use inca::cluster::{Cluster, ElasticConfig, GatewayId, RoutePolicy, RouteStats};
use inca::compiler::Compiler;
use inca::isa::{Program, TaskSlot};
use inca::model::{zoo, Shape3};
use inca::obs::{Metrics, MetricsSnapshot};
use inca::serve::{
    DropPolicy, Gateway, PlacePolicy, Response, SchedPolicy, TenantId, TenantSpec, TenantStats,
};
use inca_bench::workload::Gaps;

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

fn makespan(program: &Arc<Program>) -> u64 {
    let slot = TaskSlot::new(3).unwrap();
    let mut e = Engine::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
    e.load(slot, Arc::clone(program)).unwrap();
    e.request_at(0, slot).unwrap();
    e.run().unwrap().completed_jobs[0].finish
}

fn p99(values: &mut [u64]) -> u64 {
    assert!(!values.is_empty());
    values.sort_unstable();
    values[(99 * values.len()).div_ceil(100) - 1]
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
            Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::TenantAffinity)
        })
        .collect();
    let mut cluster = Cluster::new(gws, RoutePolicy::WeightCacheAware);
    let programs = programs();
    let mean_gap = makespan(&programs[5]);
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
    flood.cluster.set_elastic(Some(ElasticConfig::default()));
    flood.cluster.set_steal_batch(2);
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

/// `u64::MAX` means "no cap": an uncapped idle loop rests the clock at
/// the last event, not at the cap, so the fleet keeps serving after it
/// (a clock saturated at `u64::MAX` overflowed the next submit's
/// `now + batch_window`).
#[test]
fn cluster_keeps_serving_after_an_uncapped_idle_loop() {
    let Fleet { mut cluster, tenants, .. } = build_fleet(2, 1, TimingBackend::new);
    for _ in 0..2 {
        // The second arrival is the first finish: the clock rested there.
        let arrival = cluster.now();
        cluster.submit(arrival, tenants[0]).expect("an idle fleet admits");
        cluster.run_to_idle(u64::MAX).expect("engine");
        let responses = cluster.drain_responses();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].1.arrival, arrival);
        assert_eq!(cluster.now(), responses[0].1.finish, "the clock rests at the last event");
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
    timeline_json: String,
    route: RouteStats,
    stolen: u64,
    cascades: u64,
    resizes: u64,
    /// Cluster-level advance stats are cycle-domain and therefore mode-
    /// invariant — compared verbatim, not stripped.
    stats: AdvanceStats,
    reload_cycles: u64,
}

/// Drops every counter whose key involves an `event.` segment — the
/// per-gateway engine wake/skip tallies legitimately differ between
/// advance modes (`cluster.gwN.event.*`, `cluster.gwN.serve.coreM....`
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

fn func_run(threads: usize, mode: AdvanceMode) -> ClusterObservables {
    let mut fleet = build_fleet(3, 2, || FuncBackend::with_threads(threads));
    for g in 0..fleet.cluster.gateway_count() {
        fleet.cluster.gateway_mut(GatewayId(g)).barrier().set_mode(mode);
    }
    fleet.cluster.set_elastic(Some(ElasticConfig::default()));
    fleet.cluster.set_steal_batch(2);
    fleet.cluster.enable_timeline(fleet.mean_gap, 4096);

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
                gw.pool_mut()
                    .core_mut(CoreId(core))
                    .backend_mut()
                    .install_ctx_image(t.ctx(), image);
            }
        }
    }

    let responses = drive(&mut fleet, 12, true);
    assert!(!hard_latencies(&responses, fleet.hard).is_empty());
    let Fleet { mut cluster, .. } = fleet;
    let timeline = cluster
        .take_fleet_timeline("fleet")
        .expect("uniform sampling intervals")
        .expect("timeline enabled");
    ClusterObservables {
        responses,
        totals: cluster.totals(),
        metrics_json: MetricsSnapshot::new("cluster", strip_event(&cluster.metrics())).to_json(),
        timeline_json: timeline.without_advance().to_json(),
        route: cluster.route_stats(),
        stolen: cluster.stolen(),
        cascades: cluster.cascades(),
        resizes: cluster.resizes(),
        stats: cluster.advance_stats(),
        reload_cycles: cluster.reload_cycles(),
    }
}

#[test]
fn cluster_runs_are_byte_identical_across_threads_modes_and_repeats() {
    let baseline = func_run(1, AdvanceMode::EventDriven);
    assert!(!baseline.responses.is_empty());
    assert!(
        baseline.stats.skips > 0,
        "the fleet barrier must skip idle gateways: {:?}",
        baseline.stats
    );

    for (threads, mode, what) in [
        (1, AdvanceMode::EventDriven, "repeat run"),
        (4, AdvanceMode::EventDriven, "4 worker threads"),
        (1, AdvanceMode::Stepping, "stepping advance"),
        (4, AdvanceMode::Stepping, "stepping advance, 4 worker threads"),
    ] {
        let other = func_run(threads, mode);
        assert_eq!(baseline, other, "cluster run diverged under {what}");
    }
}

/// Mismatched sampling intervals can only be set behind the cluster's
/// back, through `gateway_mut` — which is caller input, so merging them is
/// an error to report, not a panic.
#[test]
fn mismatched_timeline_intervals_are_an_error_not_a_panic() {
    let mut fleet = build_fleet(2, 1, TimingBackend::new);
    fleet.cluster.enable_timeline(fleet.mean_gap, 64);
    assert!(matches!(fleet.cluster.take_fleet_timeline("fleet"), Ok(Some(_))));
    let _ = fleet.cluster.gateway_mut(GatewayId(1)).enable_timeline(fleet.mean_gap * 2, 64);
    let err = fleet.cluster.take_fleet_timeline("fleet").expect_err("intervals differ");
    assert!(err.contains("interval mismatch"), "{err}");
}
