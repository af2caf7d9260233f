//! Advancing only what is due is exact. A product cluster skips every
//! gateway with nothing due by a barrier and, inside a gateway, every core
//! whose next arrival, completion or bind lies beyond it; a core left
//! behind catches up in its next tick. The same cluster over [`Stepped`] engines
//! visits every gateway with work outstanding and ticks every core at
//! every barrier. The two must agree after **every** barrier on all the
//! state a driver can read: the cluster and gateway clocks, the responses
//! drained so far, the metrics (advance work excepted) and each gateway's
//! timeline — under every scheduling policy, with every request traced
//! or none, with rebalancing and timelines on, and with barrier gaps
//! shorter than the longest instruction, so one instruction often spans
//! several barriers a core skips.

use std::sync::Arc;

use inca::accel::analysis::{charges, predicted_span};
use inca::accel::{
    AccelConfig, AdvanceStats, Backend, CorePool, InterruptStrategy, Stepped, TimingBackend,
};
use inca::cluster::{Cluster, GatewayId, RoutePolicy};
use inca::compiler::Compiler;
use inca::isa::Program;
use inca::model::{zoo, Shape3};
use inca::obs::{Metrics, MetricsSnapshot, TraceEvent, Tracer};
use inca::serve::{DropPolicy, Gateway, PlacePolicy, Response, SchedPolicy, TenantSpec};
use inca_bench::workload::Gaps;

const POLICIES: [SchedPolicy; 3] =
    [SchedPolicy::FixedPriority, SchedPolicy::Edf, SchedPolicy::PremaTokens];

fn cfg() -> AccelConfig {
    AccelConfig::paper_small()
}

/// Four best-effort networks and the hard lane's, compiled for
/// VirtualInstruction so hard arrivals preempt at interrupt points.
fn programs() -> Vec<Arc<Program>> {
    let c = Compiler::new(cfg().arch);
    [12u32, 16, 20, 24, 28]
        .iter()
        .map(|&side| {
            Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, side, side)).unwrap()).unwrap())
        })
        .collect()
}

/// The cycles of the longest instruction of any of `programs`.
fn longest_instruction(programs: &[Arc<Program>]) -> u64 {
    programs.iter().flat_map(|p| charges(&cfg(), p).map(|(_, c)| c)).max().unwrap()
}

/// What a driver can read after one barrier.
#[derive(Debug, PartialEq)]
struct Reading {
    now: u64,
    gateway_nows: Vec<u64>,
    responses: Vec<(GatewayId, Response)>,
    metrics: String,
    timelines: Vec<String>,
}

/// A whole run: the reading after every barrier, then the drained end.
#[derive(Debug, PartialEq)]
struct Run {
    readings: Vec<Reading>,
    final_timelines: Vec<String>,
    trace: Vec<TraceEvent>,
}

/// Drops every counter of advance work (`cluster.event.*` and each
/// gateway's `event.*`): it counts what the simulator did, which the
/// stepping reference does more of by design.
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

fn read<B: Backend>(cluster: &mut Cluster<B>) -> Reading {
    let gateways = cluster.gateway_count();
    let gateway = |g| cluster.gateway(GatewayId(g));
    let hz = cfg().clock_hz;
    Reading {
        now: cluster.now(),
        gateway_nows: (0..gateways).map(|g| gateway(g).now()).collect(),
        metrics: MetricsSnapshot::new("fleet", strip_event(&cluster.metrics())).to_json(),
        timelines: (0..gateways)
            .map(|g| {
                let sampler = gateway(g).sampler().expect("timeline enabled");
                sampler.series("gw", hz).without_advance().to_json()
            })
            .collect(),
        responses: cluster.drain_responses(),
    }
}

/// What a run also reports: its advance stats, the barriers after which
/// some core stood behind its gateway's barriers, how many jobs the hard
/// lane preempted and how many requests work stealing moved.
struct Work {
    stats: AdvanceStats,
    lagging: usize,
    preempted: u64,
    stolen: u64,
}

/// Two gateways × two cores under `policy`, tracing every `sample`th
/// request into one shared tracer; `wrap` builds each core's backend.
fn run<B: Backend>(policy: SchedPolicy, sample: u64, wrap: fn(TimingBackend) -> B) -> (Run, Work) {
    let programs = programs();
    // Bursts of barriers a third of the longest instruction apart, each
    // after a gap of half the mean span, which brings a request: about
    // half the four cores' capacity.
    let gap = longest_instruction(&programs) / 3;
    let spans: u64 = programs.iter().map(|p| predicted_span(&cfg(), p)).sum();
    let lull = spans / programs.len() as u64 / 2;
    let gateways = (0..2)
        .map(|_| {
            let pool = CorePool::new(2, cfg(), InterruptStrategy::VirtualInstruction, || {
                wrap(TimingBackend::new())
            });
            Gateway::new(pool, policy, PlacePolicy::TenantAffinity)
        })
        .collect();
    let mut cluster = Cluster::new(gateways, RoutePolicy::WeightCacheAware);
    cluster.set_rebalance(true);
    cluster.set_batch_window(lull / 2);
    let (tracer, buf) = Tracer::ring(1 << 18);
    for g in 0..2 {
        let gw = cluster.gateway_mut(GatewayId(g));
        gw.set_probe(tracer.clone().into(), sample);
        let _ = gw.enable_timeline(lull, 4096);
    }
    let mut tenants: Vec<_> = programs[..4]
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let spec = TenantSpec::new(format!("be{i}"), Arc::clone(p))
                .weight(1 + (i % 3) as u8)
                .queue(6, DropPolicy::Reject);
            cluster.register(spec)
        })
        .collect();
    let hard = TenantSpec::new("estop", Arc::clone(&programs[4]))
        .hard(lull * 40)
        .queue(4, DropPolicy::Reject);
    tenants.push(cluster.register(hard));

    let (mut readings, mut lagging) = (Vec::new(), 0);
    let mut gaps = Gaps::new(2026);
    let mut now = 0;
    for i in 0..640u64 {
        now += gaps.next(if i % 4 == 0 { lull } else { gap });
        cluster.run_until(now).expect("engine");
        let lags = (0..2).any(|g| {
            let pool = cluster.gateway(GatewayId(g)).pool();
            pool.core_ids().any(|c| pool.core(c).now() < pool.clock(c))
        });
        lagging += usize::from(lags);
        readings.push(read(&mut cluster));
        // Every fifth request is the hard lane's.
        if i % 4 == 0 {
            let tenant = if i % 20 == 0 { 4 } else { gaps.pick(4) as usize };
            let _ = cluster.submit(now, tenants[tenant]);
        }
    }
    cluster.run_to_idle(u64::MAX).expect("engine");
    readings.push(read(&mut cluster));
    let final_timelines = (0..2)
        .map(|g| {
            let series = cluster.gateway_mut(GatewayId(g)).take_timeline("gw");
            series.expect("timeline enabled").without_advance().to_json()
        })
        .collect();
    assert_eq!(buf.dropped(), 0, "the comparison covers the whole trace");
    let preempted = (0..2)
        .flat_map(|g| {
            let pool = cluster.gateway(GatewayId(g)).pool();
            pool.core_ids().map(|c| pool.core(c).metrics().counter("engine.jobs.preempted"))
        })
        .sum();
    let trace = buf.drain();
    let (stats, stolen) = (cluster.advance_stats(), cluster.stolen());
    let work = Work { stats, lagging, preempted, stolen };
    (Run { readings, final_timelines, trace }, work)
}

#[test]
fn a_fleet_advancing_only_what_is_due_reads_like_the_stepped_reference_after_every_barrier() {
    for policy in POLICIES {
        for sample in [1, 0] {
            let (product, work) = run(policy, sample, |b| b);
            let (reference, stepped) = run(policy, sample, Stepped);
            let what = format!("{policy}, trace_sample {sample}");
            for (k, (p, r)) in product.readings.iter().zip(&reference.readings).enumerate() {
                assert_eq!(p, r, "{what}: the readings diverge after barrier {k}");
            }
            assert_eq!(product, reference, "{what}: the runs diverge");
            let served: usize = product.readings.iter().map(|r| r.responses.len()).sum();
            assert!(served > 100, "{what}: only {served} responses");
            assert!(work.preempted > 0, "{what}: the hard lane never preempted");
            assert!(work.stolen > 0, "{what}: rebalancing never stole");
            // The reference visits every gateway with work outstanding;
            // the product skips some of those too, and leaves cores behind.
            assert!(
                work.stats.skips > stepped.stats.skips,
                "{what}: no gateway with work outstanding was skipped: {:?} vs {:?}",
                work.stats,
                stepped.stats
            );
            assert_eq!(work.stats.barriers, stepped.stats.barriers, "{what}: barriers");
            assert!(work.lagging > 0, "{what}: no core was ever left behind");
            assert_eq!(stepped.lagging, 0, "{what}: the reference never leaves a core behind");
        }
    }
}
