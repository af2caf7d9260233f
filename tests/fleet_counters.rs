//! The gateway's running counters against their definitions.
//!
//! `Gateway::outstanding` and `Gateway::modelled_backlog` are kept up to
//! date at the ledger edges (admit, complete, drop, skip) instead of being
//! summed per call. A seeded, adversarial call order on a 2-gateway ×
//! 2-core cluster with rebalancing on — so requests are stolen and cores
//! parked and unparked — checks after every call that both equal their
//! definitions recomputed from public getters, and that both drain to 0.

use std::sync::Arc;

use inca::accel::analysis::predicted_span;
use inca::accel::{AccelConfig, CoreId, CorePool, InterruptStrategy, TimingBackend};
use inca::cluster::{Cluster, GatewayId, RoutePolicy};
use inca::compiler::Compiler;
use inca::isa::Program;
use inca::model::{zoo, Shape3};
use inca::serve::{
    DropPolicy, Gateway, PlacePolicy, SchedPolicy, TenantId, TenantSpec, TenantStats,
};
use inca_bench::workload::Gaps;

fn cfg() -> AccelConfig {
    AccelConfig::paper_small()
}

fn tiny(side: u32) -> Arc<Program> {
    let c = Compiler::new(cfg().arch);
    Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, side, side)).unwrap()).unwrap())
}

/// Recomputes each gateway's counters from its per-tenant ledgers and
/// specs, and locates the outstanding requests: batched, or queued or in
/// flight on a core's scheduler.
fn check(cluster: &Cluster<TimingBackend>, tenants: &[TenantId], at: &str) {
    let mut fleet = 0;
    for g in 0..cluster.gateway_count() {
        let gw = cluster.gateway(GatewayId(g));
        let core0 = *gw.pool().core(CoreId(0)).config();
        let (mut outstanding, mut backlog) = (0, 0);
        for &t in tenants {
            let n = gw.stats(t).outstanding();
            outstanding += n;
            backlog += n * predicted_span(&core0, &gw.spec(t).program).max(1);
        }
        assert_eq!(gw.outstanding(), outstanding, "{at}: gw{g} outstanding");
        assert_eq!(gw.modelled_backlog(), backlog, "{at}: gw{g} modelled backlog");
        let on_cores: usize = gw.pool().core_ids().map(|c| gw.scheduler(c).outstanding()).sum();
        let located = (gw.pending_batched() + on_cores) as u64;
        assert_eq!(located, outstanding, "{at}: gw{g} batched + on cores");
        fleet += outstanding;
    }
    assert_eq!(cluster.outstanding(), fleet, "{at}: fleet outstanding");
}

/// One tenant's ledger summed over the fleet.
fn fleet_stats(cluster: &Cluster<TimingBackend>, t: TenantId) -> TenantStats {
    let mut s = TenantStats::default();
    for g in 0..cluster.gateway_count() {
        s.add(&cluster.gateway(GatewayId(g)).stats(t));
    }
    s
}

#[test]
fn running_counters_match_their_definitions_under_adversarial_orders() {
    let gws = (0..2)
        .map(|_| {
            let pool =
                CorePool::new(2, cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new);
            Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded)
        })
        .collect();
    let mut cluster = Cluster::new(gws, RoutePolicy::WeightCacheAware);
    cluster.set_rebalance(true);
    let (small, big) = (tiny(12), tiny(24));
    let (span, hard_span) = (predicted_span(&cfg(), &big), predicted_span(&cfg(), &small));
    cluster.set_batch_window(span / 2);
    let fresh = cluster.register(TenantSpec::new("fresh", big).queue(2, DropPolicy::DropOldest));
    let bounded = cluster.register(
        TenantSpec::new("bounded", Arc::clone(&small)).weight(3).queue(2, DropPolicy::Reject),
    );
    let degraded = cluster.register(
        TenantSpec::new("degraded", Arc::clone(&small)).queue(1, DropPolicy::DegradeToSkip),
    );
    // Two hard jobs ahead on a core already overrun this deadline.
    let hard = cluster.register(
        TenantSpec::new("estop", small).hard(hard_span * 5 / 2).queue(4, DropPolicy::Reject),
    );
    let tenants = [fresh, bounded, degraded, hard];
    check(&cluster, &tenants, "registered");

    let mut gaps = Gaps::new(0x5EED);
    let mut now = 0u64;
    for step in 0..400 {
        match gaps.pick(10) {
            // A burst of one tenant at one cycle: past every bound.
            0..=4 => {
                let t = tenants[gaps.pick(tenants.len() as u64) as usize];
                for k in 0..1 + gaps.pick(6) {
                    let _ = cluster.submit(now, t);
                    check(&cluster, &tenants, &format!("step {step}: submit {k} of {t}"));
                }
            }
            // A barrier inside the batch window (batched work is still
            // stealable), or one long past it (gateways drain and park).
            5..=7 => {
                now += gaps.next(span / 4);
                cluster.run_until(now).expect("engine");
                check(&cluster, &tenants, &format!("step {step}: short barrier"));
            }
            8 => {
                now += gaps.next(span * 6);
                cluster.run_until(now).expect("engine");
                check(&cluster, &tenants, &format!("step {step}: long barrier"));
            }
            _ => {
                cluster.drain_responses();
                check(&cluster, &tenants, &format!("step {step}: drain"));
            }
        }
    }
    cluster.run_to_idle(u64::MAX).expect("engine");
    check(&cluster, &tenants, "idle");
    for g in 0..cluster.gateway_count() {
        let gw = cluster.gateway(GatewayId(g));
        assert_eq!((gw.outstanding(), gw.modelled_backlog()), (0, 0), "gw{g} drained");
    }

    // The order reached every edge the counters move at.
    assert!(cluster.stolen() > 0, "no request was stolen");
    assert!(cluster.resizes() > 0, "no core was parked or unparked");
    let (f, b, d, h) = (
        fleet_stats(&cluster, fresh),
        fleet_stats(&cluster, bounded),
        fleet_stats(&cluster, degraded),
        fleet_stats(&cluster, hard),
    );
    assert!(f.dropped > 0, "drop-oldest never dropped: {f:?}");
    assert!(b.shed > 0, "the bound never shed: {b:?}");
    assert!(d.skipped > 0, "nothing degraded to a skip: {d:?}");
    assert!(h.rejected > 0, "admission never denied the hard lane: {h:?}");
    assert!(h.completed > 0 && f.completed > 0 && b.completed > 0, "every lane served");
}
