//! Event-engine property suite: randomized multi-core request schedules
//! and barrier sequences must make [`AdvanceMode::EventDriven`] and
//! [`AdvanceMode::Stepping`] observationally identical — same per-core
//! reports, same merged trace stream — under every interrupt strategy;
//! and the armed set must be registration-order-invariant (the same
//! request multiset armed in any order yields byte-identical traces).
//!
//! Case count defaults to a CI-friendly bound; set
//! `INCA_EVENT_PROP_CASES` (or the suite-wide `INCA_PROP_CASES`) for a
//! deeper sweep.

use std::sync::Arc;

use inca_accel::{
    AccelConfig, AdvanceMode, CoreId, CorePool, Engine, InterruptStrategy, Program, Report, Tier,
    TimingBackend,
};
use inca_compiler::Compiler;
use inca_isa::TaskSlot;
use inca_model::{zoo, Shape3};
use inca_obs::{TraceEvent, Tracer};
use proptest::prelude::*;

const STRATEGIES: [InterruptStrategy; 4] = [
    InterruptStrategy::NonPreemptive,
    InterruptStrategy::CpuLike,
    InterruptStrategy::LayerByLayer,
    InterruptStrategy::VirtualInstruction,
];

fn prop_cases(default_cases: u32) -> ProptestConfig {
    let cases = std::env::var("INCA_EVENT_PROP_CASES")
        .ok()
        .or_else(|| std::env::var("INCA_PROP_CASES").ok())
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

fn lo_program() -> Arc<Program> {
    static CACHE: std::sync::OnceLock<Arc<Program>> = std::sync::OnceLock::new();
    Arc::clone(CACHE.get_or_init(|| {
        let c = Compiler::new(AccelConfig::paper_big().arch);
        Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, 24, 24)).unwrap()).unwrap())
    }))
}

fn hi_program() -> Arc<Program> {
    static CACHE: std::sync::OnceLock<Arc<Program>> = std::sync::OnceLock::new();
    Arc::clone(CACHE.get_or_init(|| {
        let c = Compiler::new(AccelConfig::paper_big().arch);
        Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, 12, 12)).unwrap()).unwrap())
    }))
}

fn lo_span() -> u64 {
    static CACHE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        let slot = TaskSlot::LOWEST;
        let mut e = Engine::new(
            AccelConfig::paper_big(),
            InterruptStrategy::VirtualInstruction,
            TimingBackend::new(),
        );
        e.load(slot, lo_program()).unwrap();
        e.request_at(0, slot).unwrap();
        e.run().unwrap().completed_jobs[0].finish
    })
}

/// One request: (core, cycle, is_hi). The lo task lives in slot 3, the
/// hi task in slot 1, so hi requests preempt under preemptive strategies.
type Req = (usize, u64, bool);

/// Runs `requests` (submitted in the given order) over `cores` cores,
/// advancing through `barriers` then to completion, in `mode`. Returns
/// the per-core reports and the merged shared-tracer stream.
fn run_pool(
    strategy: InterruptStrategy,
    cores: usize,
    requests: &[Req],
    barriers: &[u64],
    mode: AdvanceMode,
) -> (Vec<Report>, Vec<TraceEvent>) {
    let (tracer, buf) = Tracer::ring(1 << 16);
    let (lo_slot, hi_slot) = (TaskSlot::new(3).unwrap(), TaskSlot::new(1).unwrap());
    let engines: Vec<Engine<TimingBackend>> = (0..cores)
        .map(|_| {
            let mut e = Engine::new(AccelConfig::paper_big(), strategy, TimingBackend::new());
            e.set_probe(tracer.clone().into());
            e.load(lo_slot, lo_program()).unwrap();
            e.load(hi_slot, hi_program()).unwrap();
            e
        })
        .collect();
    let mut pool = CorePool::from_engines(engines);
    pool.barrier().set_mode(mode);
    for &(core, cycle, is_hi) in requests {
        pool.request_at(cycle, CoreId(core), if is_hi { hi_slot } else { lo_slot }).unwrap();
    }
    for &b in barriers {
        pool.run_until(b).unwrap();
    }
    pool.run_until(u64::MAX).unwrap();
    (pool.reports(), buf.drain())
}

proptest! {
    #![proptest_config(prop_cases(16))]

    /// Event-driven ≡ stepping on randomized schedules: arbitrary request
    /// placements (including cores left fully idle), arbitrary barrier
    /// sequences, every strategy.
    #[test]
    fn event_and_stepping_runs_are_identical(
        strategy_idx in 0usize..STRATEGIES.len(),
        cores in 1usize..=4,
        raw_reqs in prop::collection::vec(
            (0usize..4, 0u64..2_000, any::<bool>()), 1..10),
        raw_barriers in prop::collection::vec(0u64..2_000, 0..6),
    ) {
        let strategy = STRATEGIES[strategy_idx];
        let span = lo_span();
        // Scale request/barrier positions into [0, 2×lo-span) so they
        // land before, inside and after the work.
        let requests: Vec<Req> = raw_reqs
            .iter()
            .map(|&(c, frac, hi)| (c % cores, span * 2 * frac / 2_000, hi))
            .collect();
        let mut barriers: Vec<u64> =
            raw_barriers.iter().map(|&f| span * 2 * f / 2_000).collect();
        barriers.sort_unstable();

        let (ev_reports, ev_trace) =
            run_pool(strategy, cores, &requests, &barriers, AdvanceMode::EventDriven);
        let (st_reports, st_trace) =
            run_pool(strategy, cores, &requests, &barriers, AdvanceMode::Stepping);
        prop_assert_eq!(&ev_reports, &st_reports, "{}: reports diverge", strategy);
        prop_assert_eq!(&ev_trace, &st_trace, "{}: merged traces diverge", strategy);
        prop_assert_eq!(
            ev_reports.iter().map(|r| r.completed_jobs.len()).sum::<usize>(),
            requests.len(),
            "every request completes"
        );
    }

    /// Registration-order invariance: arming the barrier in any
    /// submission order (requests shuffled across cores; per-core
    /// relative order preserved, since same-cycle same-slot arrivals
    /// break ties by submission sequence) yields byte-identical traces.
    #[test]
    fn traces_are_identical_across_randomized_registration_orders(
        strategy_idx in 0usize..STRATEGIES.len(),
        cores in 2usize..=4,
        raw_reqs in prop::collection::vec(
            (0usize..4, 0u64..2_000, any::<bool>()), 2..10),
        perm_seed in any::<u64>(),
    ) {
        let strategy = STRATEGIES[strategy_idx];
        let span = lo_span();
        let requests: Vec<Req> = raw_reqs
            .iter()
            .map(|&(c, frac, hi)| (c % cores, span * 2 * frac / 2_000, hi))
            .collect();

        // Shuffle across cores with a deterministic LCG, keeping each
        // core's own submission order stable.
        let mut shuffled = requests.clone();
        let mut state = perm_seed | 1;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        // Stable sort by a per-core random key: cores reorder, intra-core
        // order survives.
        let keys: Vec<u64> = (0..cores).map(|_| lcg()).collect();
        shuffled.sort_by_key(|&(c, _, _)| keys[c]);

        let (_, a) = run_pool(strategy, cores, &requests, &[], AdvanceMode::EventDriven);
        let (_, b) = run_pool(strategy, cores, &shuffled, &[], AdvanceMode::EventDriven);
        prop_assert_eq!(&a, &b, "{}: registration order leaked into the trace", strategy);
        prop_assert!(!a.is_empty(), "scenario must produce events");
    }
}
