//! Fleet-layer figure (`inca-cluster`), two parts:
//!
//! **A — routing policy (4 gateways × 4 cores).** The same
//! deterministic Poisson-like request stream over eight distinct-
//! program tenants plus a hard-lane tenant, routed RoundRobin vs
//! WeightCacheAware. The acceptance shape: weight-cache-aware routing
//! pins each tenant where its weights are warm, so it beats round-robin
//! on **both** the miss cycles the admitting gateways quoted and the
//! schedulers' ground-truth LOAD_W reload cycles, without hurting the
//! hard lane.
//! The bench *asserts* that ordering — a cluster build whose router
//! stops honoring reload cost fails loudly here, before the gate even
//! compares snapshots — and that under both policies the quoted miss
//! cycles stay within 2 % of the charged reload cycles.
//!
//! **B — fleet mechanics (same fleet, weight-cache-aware).** Elastic
//! scaling and cross-gateway work stealing enabled under a bursty
//! stream: reports steals, park/unpark resizes, shed-cascade hops and
//! the cluster-level barrier skips (idle gateways costing nothing).
//!
//! Arrivals reuse `inca_bench::workload::Gaps` — the shared LCG +
//! exponential-quantile generator — so the stream is bit-reproducible
//! across platforms. Pass `--json` for a machine-readable metrics-v1
//! snapshot (the `BENCH_cluster.json` gate input); `--requests N` to
//! scale the stream (default 160; the cluster stays byte-deterministic
//! at any length).

use std::sync::Arc;

use inca_accel::analysis::predicted_span;
use inca_accel::{AccelConfig, CorePool, InterruptStrategy, TimingBackend};
use inca_bench::p99;
use inca_bench::workload::Gaps;
use inca_cluster::{Cluster, RoutePolicy};
use inca_compiler::Compiler;
use inca_isa::Program;
use inca_model::{zoo, Shape3};
use inca_obs::{Metrics, MetricsSnapshot};
use inca_serve::{DropPolicy, Gateway, PlacePolicy, SchedPolicy, TenantId, TenantSpec};

const GATEWAYS: usize = 4;
const CORES: usize = 4;

fn cfg() -> AccelConfig {
    AccelConfig::paper_big()
}

/// Eight distinct tiny networks: more programs than any single core's
/// task slots, so placement churn shows up as real LOAD_W reloads.
fn be_programs() -> Vec<Arc<Program>> {
    let c = Compiler::new(cfg().arch);
    (0..8u32)
        .map(|i| {
            let side = 16 + 4 * i;
            Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, side, side)).unwrap()).unwrap())
        })
        .collect()
}

fn build_cluster(route: RoutePolicy) -> (Cluster<TimingBackend>, Vec<TenantId>, TenantId, u64) {
    let gateways = (0..GATEWAYS)
        .map(|_| {
            let pool = CorePool::new(
                CORES,
                cfg(),
                InterruptStrategy::VirtualInstruction,
                TimingBackend::new,
            );
            Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::TenantAffinity)
        })
        .collect();
    let mut cluster = Cluster::new(gateways, route);
    let programs = be_programs();
    // Calibrate pacing on the LARGEST network so steady-state load stays
    // light: weight-cache-aware routing then keeps tenants pinned where
    // their weights are warm instead of degenerating into least-loaded.
    let mean_gap = predicted_span(&cfg(), &programs[7]);
    // Short batch window: at part A's light load, a long window would
    // keep requests pending (hence "outstanding") long enough to make
    // every home gateway look backlogged at the next arrival.
    cluster.set_batch_window(mean_gap / 64);
    let tenants: Vec<TenantId> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            cluster.register(
                TenantSpec::new(format!("t{i}"), Arc::clone(p))
                    .weight(1 + (i % 3) as u8)
                    .queue(6, DropPolicy::Reject),
            )
        })
        .collect();
    let hard = cluster.register(
        TenantSpec::new("estop", Arc::clone(&programs[0]))
            .hard(mean_gap * 256)
            .queue(4, DropPolicy::Reject),
    );
    (cluster, tenants, hard, mean_gap)
}

struct Cell {
    route: RoutePolicy,
    completed: u64,
    shed: u64,
    dropped: u64,
    reloads: u64,
    reload_cycles: u64,
    miss_cycles: u64,
    hard_p99: u64,
    makespan: u64,
}

/// One part-A cell: the SAME `requests`-long stream (seed independent
/// of the cell) routed under `route`. At this load, affinity gives each
/// tenant an effectively private warm core; round-robin instead makes
/// every gateway juggle all nine programs across its cores, so nearly
/// every dispatch re-streams weights.
fn run_route_cell(route: RoutePolicy, requests: u64) -> Cell {
    let (mut cluster, tenants, hard, mean_gap) = build_cluster(route);
    // Prime the fleet: every pipeline issues one frame at boot, so the
    // sticky tenant→core placements are made while earlier dispatches
    // are still in flight and therefore spread across each gateway's
    // cores. Identical for both routing cells.
    for &t in tenants.iter().chain(std::iter::once(&hard)) {
        let _ = cluster.submit(0, t);
    }
    cluster.run_to_idle(mean_gap * 16).expect("engine");
    let mut gaps = Gaps::new(23);
    let mut now = cluster.now();
    for i in 0..requests {
        now += gaps.next(mean_gap / 2);
        cluster.run_until(now).expect("engine");
        let tenant =
            if i % 16 == 15 { hard } else { tenants[gaps.pick(tenants.len() as u64) as usize] };
        let _ = cluster.submit(now, tenant);
    }
    cluster.run_to_idle(u64::MAX).expect("engine");

    let totals = cluster.totals();
    let responses = cluster.drain_responses();
    let mut hard_lat: Vec<u64> =
        responses.iter().filter(|(_, r)| r.tenant == hard).map(|(_, r)| r.latency()).collect();
    let makespan = responses.iter().map(|(_, r)| r.finish).max().unwrap_or(0);
    Cell {
        route,
        completed: totals.completed,
        shed: totals.shed,
        dropped: totals.dropped,
        reloads: cluster.reloads(),
        reload_cycles: cluster.reload_cycles(),
        miss_cycles: cluster.route_stats().miss_cycles,
        hard_p99: p99(&mut hard_lat),
        makespan,
    }
}

struct FleetCell {
    completed: u64,
    stolen: u64,
    resizes: u64,
    cascades: u64,
    barriers: u64,
    skips: u64,
    hard_p99: u64,
}

/// Part B: weight-cache-aware routing with elastic scaling and work
/// stealing on, under a burstier stream (tight queues force cascades,
/// idle gateways pick up recalled batches).
fn run_fleet_cell(requests: u64) -> FleetCell {
    let (mut cluster, tenants, hard, mean_gap) = build_cluster(RoutePolicy::WeightCacheAware);
    cluster.set_rebalance(true);
    cluster.set_batch_window(mean_gap * 8);
    let mut gaps = Gaps::new(101);
    let mut now = 0u64;
    for i in 0..requests {
        // Bursts of 4 back-to-back arrivals, then a long exhale.
        now += if i % 4 == 0 { gaps.next(mean_gap) } else { gaps.next(mean_gap / 32) };
        cluster.run_until(now).expect("engine");
        let tenant =
            if i % 16 == 15 { hard } else { tenants[gaps.pick(tenants.len() as u64) as usize] };
        let _ = cluster.submit(now, tenant);
    }
    cluster.run_to_idle(u64::MAX).expect("engine");

    let mut hard_lat: Vec<u64> = cluster
        .drain_responses()
        .iter()
        .filter(|(_, r)| r.tenant == hard)
        .map(|(_, r)| r.latency())
        .collect();
    let stats = cluster.advance_stats();
    FleetCell {
        completed: cluster.totals().completed,
        stolen: cluster.stolen(),
        resizes: cluster.resizes(),
        cascades: cluster.cascades(),
        barriers: stats.barriers,
        skips: stats.skips,
        hard_p99: p99(&mut hard_lat),
    }
}

fn route_key(route: RoutePolicy) -> &'static str {
    match route {
        RoutePolicy::RoundRobin => "rr",
        RoutePolicy::WeightCacheAware => "wca",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let requests = args
        .iter()
        .position(|a| a == "--requests")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(160);

    let cells: Vec<Cell> = [RoutePolicy::RoundRobin, RoutePolicy::WeightCacheAware]
        .into_iter()
        .map(|r| run_route_cell(r, requests))
        .collect();
    let fleet = run_fleet_cell(requests);

    if !json {
        print_report(&cells, &fleet, requests);
    }

    // The acceptance bar, checked in-process so it can never rot into a
    // stale baseline: weight-cache-aware routing must beat round-robin
    // on both the quoted and the ground-truth reload axes.
    let (rr, wca) = (&cells[0], &cells[1]);
    assert!(
        wca.reload_cycles < rr.reload_cycles,
        "weight-cache-aware routing must beat round-robin on actual reload cycles \
         (wca {} vs rr {})",
        wca.reload_cycles,
        rr.reload_cycles
    );
    assert!(
        wca.miss_cycles < rr.miss_cycles,
        "weight-cache-aware routing must beat round-robin on quoted miss cycles \
         (wca {} vs rr {})",
        wca.miss_cycles,
        rr.miss_cycles
    );
    // The quote tracks the charge: a gateway quotes a reload iff its
    // scheduler would pay one now, so under load the two differ only
    // where placement or the bound jobs changed between quote and
    // dispatch.
    for c in &cells {
        let (quoted, charged) = (c.miss_cycles as f64, c.reload_cycles as f64);
        assert!(
            (quoted - charged).abs() <= 0.02 * charged,
            "{}: quoted miss cycles must be within 2% of the charged reload cycles \
             (quoted {} vs charged {})",
            c.route,
            c.miss_cycles,
            c.reload_cycles
        );
    }
    assert!(fleet.skips > 0, "idle gateways must be skipped at cluster barriers");

    if json {
        let mut m = Metrics::new();
        for c in &cells {
            let k = format!("cluster.{}.", route_key(c.route));
            m.inc(&format!("{k}completed"), c.completed);
            m.inc(&format!("{k}shed"), c.shed);
            m.inc(&format!("{k}dropped"), c.dropped);
            m.inc(&format!("{k}reloads"), c.reloads);
            m.inc(&format!("{k}reload_cycles"), c.reload_cycles);
            m.inc(&format!("{k}miss_cycles"), c.miss_cycles);
            m.inc(&format!("{k}hard_p99"), c.hard_p99);
            m.inc(&format!("{k}makespan"), c.makespan);
        }
        m.inc("cluster.fleet.completed", fleet.completed);
        m.inc("cluster.fleet.stolen", fleet.stolen);
        m.inc("cluster.fleet.resizes", fleet.resizes);
        m.inc("cluster.fleet.cascades", fleet.cascades);
        m.inc("cluster.fleet.barriers", fleet.barriers);
        m.inc("cluster.fleet.skips", fleet.skips);
        m.inc("cluster.fleet.hard_p99", fleet.hard_p99);
        println!("{}", MetricsSnapshot::new("fig_cluster", m).to_json());
    }
}

fn print_report(cells: &[Cell], fleet: &FleetCell, requests: u64) {
    println!(
        "A: routing policy, {GATEWAYS} gateways x {CORES} cores, same {requests}-request\n\
         Poisson-like stream (8 distinct-program tenants + 1 hard tenant)\n"
    );
    println!(
        "{:>20} {:>6} {:>6} {:>6} {:>8} {:>14} {:>14} {:>10}",
        "routing", "done", "shed", "drop", "reloads", "reload cycles", "miss cycles", "hard p99"
    );
    for c in cells {
        println!(
            "{:>20} {:>6} {:>6} {:>6} {:>8} {:>14} {:>14} {:>10}",
            c.route.to_string(),
            c.completed,
            c.shed,
            c.dropped,
            c.reloads,
            c.reload_cycles,
            c.miss_cycles,
            c.hard_p99,
        );
    }
    println!(
        "\nB: fleet mechanics under weight-cache-aware routing (elastic + stealing on,\n\
         bursty stream)\n"
    );
    println!(
        "  completed {}  stolen {}  resizes {}  cascade hops {}  barriers {} ({} gateway \
         visits skipped)  hard p99 {}",
        fleet.completed,
        fleet.stolen,
        fleet.resizes,
        fleet.cascades,
        fleet.barriers,
        fleet.skips,
        fleet.hard_p99,
    );
    println!(
        "\npaper shape: weight-cache-aware routing beats round-robin on both reload\n\
         columns while the hard lane holds; idle gateways cost zero simulation work."
    );
}
