//! A core's schedule depends only on its arrivals, not on where a driver
//! put its barriers (DESIGN.md §5.3): a queued job binds once its engine's
//! clock reached the job's submission cycle and is released at that clock
//! plus its reload, and PREMA tokens are a closed form of the time waited.
//!
//! One seeded arrival stream drives each tier under three barrier
//! patterns, under every scheduling policy and interrupt strategy, over
//! product and [`Stepped`] engines:
//!
//! - a [`ScheduledEngine`] with a barrier at every arrival, at a random
//!   subset of arrivals plus random extra cycles, and at a fixed stride
//!   only — identical completions, engine reports, task ledgers and
//!   metrics;
//! - a [`Gateway`] and a [`Cluster`], which place work by reading run
//!   state and so keep a barrier at every arrival, with no extra barrier,
//!   random extra ones, or a fixed stride of them — identical responses,
//!   ledgers and metrics (advance work, `event.*`, stripped).
//!
//! Case count: `INCA_EVENT_PROP_CASES` (or the suite-wide
//! `INCA_PROP_CASES`).

use std::sync::Arc;

use inca::accel::{
    AccelConfig, Backend, CorePool, Engine, InterruptStrategy, Report, Stepped, TimingBackend,
};
use inca::cluster::{Cluster, GatewayId, RoutePolicy};
use inca::compiler::Compiler;
use inca::isa::Program;
use inca::model::{zoo, Shape3};
use inca::obs::{Metrics, MetricsSnapshot};
use inca::runtime::{
    DropPolicy, SchedCompletion, SchedPolicy, ScheduledEngine, Scheduler, TaskSpec, TaskStats,
};
use inca::serve::{Gateway, PlacePolicy, Response, TenantSpec};
use proptest::prelude::*;

const POLICIES: [SchedPolicy; 3] =
    [SchedPolicy::FixedPriority, SchedPolicy::Edf, SchedPolicy::PremaTokens];

const STRATEGIES: [InterruptStrategy; 4] = [
    InterruptStrategy::NonPreemptive,
    InterruptStrategy::CpuLike,
    InterruptStrategy::LayerByLayer,
    InterruptStrategy::VirtualInstruction,
];

fn cfg() -> AccelConfig {
    AccelConfig::paper_small()
}

fn prop_cases(default_cases: u32) -> ProptestConfig {
    let cases = std::env::var("INCA_EVENT_PROP_CASES")
        .ok()
        .or_else(|| std::env::var("INCA_PROP_CASES").ok())
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

/// `tiny` at 12, 16 and 20 pixels, compiled for `strategy`.
fn programs(strategy: InterruptStrategy) -> Vec<Arc<Program>> {
    let c = Compiler::new(cfg().arch);
    [12u32, 16, 20]
        .iter()
        .map(|&side| {
            let net = zoo::tiny(Shape3::new(3, side, side)).unwrap();
            Arc::new(match strategy {
                InterruptStrategy::VirtualInstruction => c.compile_vi(&net).unwrap(),
                _ => c.compile(&net).unwrap(),
            })
        })
        .collect()
}

/// One seeded arrival stream and the barriers laid over it.
#[derive(Debug, Clone)]
struct Stream {
    /// `(cycle, task)`, ascending; a gap may be 0.
    arrivals: Vec<(u64, usize)>,
    /// Whether the subset pattern puts a barrier before arrival `k`.
    keep: Vec<bool>,
    /// Extra barrier cycles, ascending.
    extra: Vec<u64>,
    /// The fixed stride of the third pattern.
    stride: u64,
}

fn stream_strategy() -> impl Strategy<Value = Stream> {
    (
        prop::collection::vec((0u64..6_000, 0usize..4, any::<bool>()), 12..28),
        prop::collection::vec(0u64..120_000, 4..24),
        300u64..4_000,
    )
        .prop_map(|(raw, mut extra, stride)| {
            let mut now = 0;
            let mut arrivals = Vec::new();
            let mut keep = Vec::new();
            for (gap, task, kept) in raw {
                // Every third gap is 0: arrivals in one cycle.
                now += if task == 3 && gap % 3 == 0 { 0 } else { gap };
                arrivals.push((now, task));
                keep.push(kept);
            }
            extra.sort_unstable();
            Stream { arrivals, keep, extra, stride }
        })
}

/// Where the barriers go, relative to the arrivals.
#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// Before every arrival, nothing else.
    EveryArrival,
    /// Before the kept arrivals, plus the extra cycles.
    Subset,
    /// At every multiple of the stride only.
    Stride,
}

/// One driver step: a barrier or a submission.
enum Step {
    Barrier(u64),
    Submit(u64, usize),
}

/// The driver's calls in cycle order; `every` keeps a barrier before each
/// arrival whatever the pattern (the gateway contract).
fn schedule(s: &Stream, pattern: Pattern, every: bool) -> Vec<Step> {
    let end = s.arrivals.last().map_or(0, |&(t, _)| t);
    let extra: Vec<u64> = match pattern {
        Pattern::EveryArrival => Vec::new(),
        Pattern::Subset => s.extra.clone(),
        Pattern::Stride => (1..=end / s.stride).map(|k| k * s.stride).collect(),
    };
    let mut steps = Vec::new();
    let mut extras = extra.into_iter().peekable();
    for (k, &(t, task)) in s.arrivals.iter().enumerate() {
        while let Some(d) = extras.next_if(|&d| d < t) {
            steps.push(Step::Barrier(d));
        }
        let barrier = match pattern {
            Pattern::EveryArrival => true,
            Pattern::Subset => s.keep[k],
            Pattern::Stride => false,
        };
        if every || barrier {
            steps.push(Step::Barrier(t));
        }
        steps.push(Step::Submit(t, task));
    }
    steps.extend(extras.map(Step::Barrier));
    steps
}

/// Drops every counter of advance work: the stepping reference and the
/// finer patterns do more of it by design.
fn strip_event(m: &Metrics) -> String {
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
    MetricsSnapshot::new("run", out).to_json()
}

/// What a `ScheduledEngine` run produced.
#[derive(Debug, PartialEq)]
struct CoreRun {
    done: Vec<SchedCompletion>,
    report: Report,
    ledgers: Vec<TaskStats>,
    metrics: String,
}

fn run_core<B: Backend>(
    s: &Stream,
    pattern: Pattern,
    policy: SchedPolicy,
    strategy: InterruptStrategy,
    backend: fn() -> B,
) -> CoreRun {
    let programs = programs(strategy);
    let engine = Engine::new(cfg(), strategy, backend());
    let mut se = ScheduledEngine::new(engine, Scheduler::new(cfg(), policy));
    let span = inca::accel::analysis::predicted_span(&cfg(), &programs[0]);
    let tasks: Vec<_> = [
        TaskSpec::new("urgent", Arc::clone(&programs[0])).priority(0).deadline(span * 3),
        TaskSpec::new("a", Arc::clone(&programs[1])).priority(1).queue(2, DropPolicy::DropOldest),
        TaskSpec::new("b", Arc::clone(&programs[2])).priority(2).queue(1, DropPolicy::Reject),
        TaskSpec::new("c", Arc::clone(&programs[1]))
            .priority(3)
            .deadline(span * 12)
            .queue(2, DropPolicy::DegradeToSkip),
    ]
    .into_iter()
    .map(|spec| se.register(spec))
    .collect();
    let mut done = Vec::new();
    for step in schedule(s, pattern, false) {
        match step {
            Step::Barrier(d) => done.extend(se.run_until(d).unwrap()),
            Step::Submit(t, task) => {
                let _ = se.submit(t, tasks[task]);
            }
        }
    }
    done.extend(se.run_to_idle(u64::MAX).unwrap());
    let sched = se.scheduler();
    let mut metrics = sched.metrics();
    metrics.absorb("", &se.engine().metrics());
    CoreRun {
        done,
        report: se.engine().report(),
        ledgers: tasks.iter().map(|&t| sched.stats(t)).collect(),
        metrics: strip_event(&metrics),
    }
}

/// What a gateway or cluster run produced: responses by gateway and
/// request id (the order cores complete in across a barrier is not part
/// of a schedule).
#[derive(Debug, PartialEq)]
struct FleetRun {
    responses: Vec<(GatewayId, Response)>,
    ledgers: Vec<TaskStats>,
    metrics: String,
}

fn tenants(strategy: InterruptStrategy) -> Vec<TenantSpec> {
    let programs = programs(strategy);
    let span = inca::accel::analysis::predicted_span(&cfg(), &programs[0]);
    vec![
        TenantSpec::new("estop", Arc::clone(&programs[0]))
            .hard(span * 4)
            .queue(3, DropPolicy::Reject),
        TenantSpec::new("be0", Arc::clone(&programs[1])).weight(2).queue(4, DropPolicy::DropOldest),
        TenantSpec::new("be1", Arc::clone(&programs[2])).weight(1).queue(3, DropPolicy::Reject),
        TenantSpec::new("be2", Arc::clone(&programs[1])).queue(2, DropPolicy::DegradeToSkip),
    ]
}

/// Full batches flush at a submission; partial ones only once the
/// arrivals are over. A timed flush falls due between arrivals and fires
/// at the gateway clock, which a completion an extra barrier finished
/// early can raise: that flush is not a core's schedule, and its cadence
/// is not tested here.
const BATCH_WINDOW: u64 = 1 << 40;

fn gateway<B: Backend>(
    policy: SchedPolicy,
    strategy: InterruptStrategy,
    backend: fn() -> B,
) -> Gateway<B> {
    let pool = CorePool::new(2, cfg(), strategy, backend);
    let mut gw = Gateway::new(pool, policy, PlacePolicy::LeastLoaded);
    gw.set_batch_window(BATCH_WINDOW);
    gw.set_max_batch(3);
    gw
}

fn by_request(mut responses: Vec<(GatewayId, Response)>) -> Vec<(GatewayId, Response)> {
    responses.sort_by_key(|&(g, r)| (g, r.request));
    responses
}

fn run_gateway<B: Backend>(
    s: &Stream,
    pattern: Pattern,
    policy: SchedPolicy,
    strategy: InterruptStrategy,
    backend: fn() -> B,
) -> FleetRun {
    let mut gw = gateway(policy, strategy, backend);
    let ids: Vec<_> = tenants(strategy).into_iter().map(|t| gw.register(t)).collect();
    let mut responses = Vec::new();
    for step in schedule(s, pattern, true) {
        match step {
            Step::Barrier(d) => gw.run_until(d).unwrap(),
            Step::Submit(t, tenant) => {
                let _ = gw.submit(t, ids[tenant]);
            }
        }
        responses.extend(gw.drain_responses().into_iter().map(|r| (GatewayId(0), r)));
    }
    gw.run_to_idle(u64::MAX).unwrap();
    responses.extend(gw.drain_responses().into_iter().map(|r| (GatewayId(0), r)));
    FleetRun {
        responses: by_request(responses),
        ledgers: ids.iter().map(|&t| gw.stats(t)).collect(),
        metrics: strip_event(&gw.metrics()),
    }
}

fn run_cluster<B: Backend>(
    s: &Stream,
    pattern: Pattern,
    policy: SchedPolicy,
    strategy: InterruptStrategy,
    backend: fn() -> B,
) -> FleetRun {
    let gateways = (0..2).map(|_| gateway(policy, strategy, backend)).collect();
    let mut cluster = Cluster::new(gateways, RoutePolicy::WeightCacheAware);
    cluster.set_batch_window(BATCH_WINDOW);
    let ids: Vec<_> = tenants(strategy).into_iter().map(|t| cluster.register(t)).collect();
    let mut responses = Vec::new();
    for step in schedule(s, pattern, true) {
        match step {
            Step::Barrier(d) => cluster.run_until(d).unwrap(),
            Step::Submit(t, tenant) => {
                let _ = cluster.submit(t, ids[tenant]);
            }
        }
        responses.extend(cluster.drain_responses());
    }
    cluster.run_to_idle(u64::MAX).unwrap();
    responses.extend(cluster.drain_responses());
    let ledgers = (0..cluster.gateway_count())
        .flat_map(|g| ids.iter().map(move |&t| (g, t)))
        .map(|(g, t)| cluster.gateway(GatewayId(g)).stats(t))
        .collect();
    FleetRun { responses: by_request(responses), ledgers, metrics: strip_event(&cluster.metrics()) }
}

const PATTERNS: [Pattern; 3] = [Pattern::EveryArrival, Pattern::Subset, Pattern::Stride];

proptest! {
    #![proptest_config(prop_cases(4))]

    #[test]
    fn a_core_schedule_depends_only_on_its_arrivals(s in stream_strategy()) {
        for policy in POLICIES {
            for strategy in STRATEGIES {
                let what = format!("{policy}, {strategy:?}");
                let reference = run_core(&s, Pattern::EveryArrival, policy, strategy, TimingBackend::new);
                prop_assert!(!reference.done.is_empty(), "{what}: nothing completed");
                for pattern in PATTERNS {
                    let product = run_core(&s, pattern, policy, strategy, TimingBackend::new);
                    prop_assert_eq!(&product, &reference, "{what}, {pattern:?}");
                    let stepped = run_core(&s, pattern, policy, strategy, || Stepped(TimingBackend::new()));
                    prop_assert_eq!(&stepped, &reference, "{what}, {pattern:?}, stepped");
                }
                let reference = run_gateway(&s, Pattern::EveryArrival, policy, strategy, TimingBackend::new);
                prop_assert!(!reference.responses.is_empty(), "gateway {what}: nothing served");
                for pattern in PATTERNS {
                    let product = run_gateway(&s, pattern, policy, strategy, TimingBackend::new);
                    prop_assert_eq!(&product, &reference, "gateway {what}, {pattern:?}");
                    let stepped = run_gateway(&s, pattern, policy, strategy, || Stepped(TimingBackend::new()));
                    prop_assert_eq!(&stepped, &reference, "gateway {what}, {pattern:?}, stepped");
                }
                let reference = run_cluster(&s, Pattern::EveryArrival, policy, strategy, TimingBackend::new);
                prop_assert!(!reference.responses.is_empty(), "cluster {what}: nothing served");
                for pattern in PATTERNS {
                    let product = run_cluster(&s, pattern, policy, strategy, TimingBackend::new);
                    prop_assert_eq!(&product, &reference, "cluster {what}, {pattern:?}");
                    let stepped = run_cluster(&s, pattern, policy, strategy, || Stepped(TimingBackend::new()));
                    prop_assert_eq!(&stepped, &reference, "cluster {what}, {pattern:?}, stepped");
                }
            }
        }
    }
}

/// A priority-0 `tiny` 3×12×12 job submitted at cycle 11 761, one cycle
/// into a 402-cycle instruction of a running priority-3 3×64×64 job,
/// after the driver's last barrier at `barrier`: `(release, finish, t1)`
/// of the urgent job.
fn urgent_over_background(barrier: u64) -> (u64, u64, u64) {
    let c = Compiler::new(cfg().arch);
    let tiny =
        |side| Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, side, side)).unwrap()).unwrap());
    let engine = Engine::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
    let mut se = ScheduledEngine::new(engine, Scheduler::new(cfg(), SchedPolicy::FixedPriority));
    let background = se.register(TaskSpec::new("background", tiny(64)).priority(3));
    let urgent = se.register(TaskSpec::new("urgent", tiny(12)).priority(0));
    se.submit(0, background).unwrap();
    se.run_until(barrier).unwrap();
    se.submit(11_761, urgent).unwrap();
    let done = se.run_to_idle(u64::MAX).unwrap();
    let record = done.iter().find(|c| c.task == urgent).unwrap().record;
    let interrupts = se.engine().report().interrupts;
    assert_eq!(interrupts.len(), 1, "the urgent job preempts the background one once");
    (record.release, record.finish, interrupts[0].t1)
}

#[test]
fn an_urgent_release_does_not_depend_on_the_last_barrier() {
    // The engine rests at the instruction boundary 11 962 whether the last
    // barrier was at the submission or 300 cycles before it: the job binds
    // there, is released after its reload, and preempts at the next
    // interrupt point.
    for barrier in [11_761, 11_461] {
        assert_eq!(urgent_over_background(barrier), (12_282, 17_648, 632), "barrier {barrier}");
    }
}
