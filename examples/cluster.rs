//! Serve a cluster: four gateways (each fronting its own core pool)
//! behind the weight-cache-aware router, advanced on one virtual clock.
//!
//! Eight best-effort vision tenants and a hard-deadline emergency-stop
//! lane are spread across the fleet. The router gives every tenant a
//! home gateway from a consistent-hash ring and charges the modelled
//! LOAD_W reload cycles for landing cold, so steady-state traffic stays
//! on warm weights; shed cascades, cross-gateway work stealing and
//! elastic core scaling handle the overload and idle extremes.
//!
//! ```sh
//! cargo run --release --example cluster
//! ```

use std::sync::Arc;

use inca::accel::analysis::predicted_span;
use inca::accel::{AccelConfig, CorePool, InterruptStrategy, TimingBackend};
use inca::cluster::{Cluster, GatewayId, RoutePolicy};
use inca::compiler::Compiler;
use inca::isa::Program;
use inca::model::{zoo, Shape3};
use inca::serve::{DropPolicy, Gateway, PlacePolicy, SchedPolicy, TenantSpec};
use inca_bench::workload::Gaps;

const GATEWAYS: usize = 4;
const CORES: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    let programs: Vec<Arc<Program>> = (0..8u32)
        .map(|i| {
            let side = 16 + 4 * i;
            Ok(Arc::new(compiler.compile_vi(&zoo::tiny(Shape3::new(3, side, side))?)?))
        })
        .collect::<Result<_, Box<dyn std::error::Error>>>()?;

    let gateways = (0..GATEWAYS)
        .map(|_| {
            let pool = CorePool::new(
                CORES,
                cfg,
                InterruptStrategy::VirtualInstruction,
                TimingBackend::new,
            );
            Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::TenantAffinity)
        })
        .collect();
    let mut cluster = Cluster::new(gateways, RoutePolicy::WeightCacheAware);
    cluster.set_rebalance(true);
    let gap = predicted_span(&cfg, programs.last().expect("eight programs"));
    cluster.set_batch_window(gap / 4);

    let tenants: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            cluster.register(
                TenantSpec::new(format!("cam{i}"), Arc::clone(p))
                    .weight(1 + (i % 3) as u8)
                    .queue(6, DropPolicy::Reject),
            )
        })
        .collect();
    let hard = cluster.register(
        TenantSpec::new("estop", Arc::clone(&programs[0]))
            .hard(gap * 64)
            .queue(8, DropPolicy::Reject),
    );

    // Poisson arrivals over all tenants, a hard e-stop every 16th frame.
    let mut gaps = Gaps::new(23);
    let mut now = 0u64;
    for i in 0..400u64 {
        now += gaps.next(gap / 8);
        cluster.run_until(now)?;
        let t = tenants[gaps.pick(tenants.len() as u64) as usize];
        let _ = cluster.submit(now, t);
        if i % 16 == 0 {
            cluster.submit(now, hard)?;
        }
    }
    cluster.run_to_idle(u64::MAX)?;

    let totals = cluster.totals();
    println!(
        "fleet of {GATEWAYS} gateways x {CORES} cores: {} submitted, {} completed, {} shed",
        totals.submitted, totals.completed, totals.shed
    );
    println!(
        "router: {:?}, {} cascades, {} stolen, {} elastic resizes, {} idle-gateway skips",
        cluster.route_policy(),
        cluster.cascades(),
        cluster.stolen(),
        cluster.resizes(),
        cluster.advance_stats().skips,
    );
    println!(
        "weight cache: {} reloads, {} modelled reload cycles burned fleet-wide",
        cluster.reloads(),
        cluster.reload_cycles()
    );
    for g in 0..cluster.gateway_count() {
        let gw = cluster.gateway(GatewayId(g));
        let t = gw.totals();
        println!(
            "  gw{g}: {} admitted, {} completed, {} shed, {} active cores",
            t.admitted,
            t.completed,
            t.shed,
            gw.active_cores()
        );
    }

    let responses = cluster.drain_responses();
    let hard_done = responses.iter().filter(|(_, r)| r.tenant == hard).count();
    println!(
        "{} responses drained ({hard_done} hard-lane, {} deadlines met, {} missed)",
        responses.len(),
        totals.deadline_met,
        totals.deadline_missed
    );
    Ok(())
}
