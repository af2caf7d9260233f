//! Direct `CorePool` coverage: error paths (empty pool, out-of-range
//! core ids, per-core slot isolation), heterogeneous pools built from
//! pre-configured engines, and the occupancy/busy-cycles introspection
//! the serving layer's placement policies rely on.

use std::sync::Arc;

use inca_accel::{
    AccelConfig, Backend, CoreId, CorePool, Engine, InterruptStrategy, SimError, Stepped,
    TaskState, TimingBackend,
};
use inca_compiler::Compiler;
use inca_isa::{Program, TaskSlot};
use inca_model::{zoo, Shape3};
use inca_obs::{TraceEvent, Tracer};

fn program_for(cfg: &AccelConfig, side: u32) -> Program {
    Compiler::new(cfg.arch).compile_vi(&zoo::tiny(Shape3::new(3, side, side)).unwrap()).unwrap()
}

#[test]
#[should_panic(expected = "at least one core")]
fn empty_pool_panics() {
    let _ = CorePool::new(
        0,
        AccelConfig::paper_big(),
        InterruptStrategy::NonPreemptive,
        TimingBackend::new,
    );
}

#[test]
#[should_panic(expected = "at least one core")]
fn empty_engine_pool_panics() {
    let _: CorePool<TimingBackend> = CorePool::from_engines(Vec::new());
}

#[test]
fn out_of_range_core_id_is_catchable() {
    let mut pool = CorePool::new(
        2,
        AccelConfig::paper_big(),
        InterruptStrategy::NonPreemptive,
        TimingBackend::new,
    );
    assert!(pool.try_core(CoreId(2)).is_none());
    assert!(pool.try_core_mut(CoreId(2)).is_none());
    assert!(pool.try_core(CoreId(usize::MAX)).is_none());
    assert!(pool.try_core(CoreId(1)).is_some());
    assert_eq!(pool.core_ids().collect::<Vec<_>>(), vec![CoreId(0), CoreId(1)]);
}

/// `load` and `request_at` take a caller's core id and return a
/// `Result`: an id past the pool is an error naming the core and the pool
/// size, and arms nothing.
#[test]
fn load_and_request_reject_an_out_of_range_core() {
    let cfg = AccelConfig::paper_big();
    let mut pool = CorePool::new(2, cfg, InterruptStrategy::NonPreemptive, TimingBackend::new);
    let slot = TaskSlot::new(2).unwrap();
    let out_of_range = |r: Result<(), SimError>, core: CoreId| match r {
        Err(SimError::Engine(m)) => {
            assert!(m.contains(&format!("{core} ")) && m.ends_with(" 2 cores"), "{m}");
        }
        other => panic!("expected an engine error, got {other:?}"),
    };
    out_of_range(pool.load(CoreId(2), slot, program_for(&cfg, 16)), CoreId(2));
    out_of_range(pool.request_at(0, CoreId(2), slot), CoreId(2));
    out_of_range(pool.request_at(0, CoreId(usize::MAX), slot), CoreId(usize::MAX));
    assert_eq!(pool.next_wake(), None);
    pool.run_until(10_000).unwrap();
    assert_eq!(pool.advance_stats().wakes, 0, "no core was armed");
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn busy_cycles_out_of_range_panics() {
    let pool = CorePool::new(
        1,
        AccelConfig::paper_big(),
        InterruptStrategy::NonPreemptive,
        TimingBackend::new,
    );
    let _ = pool.busy_cycles(CoreId(1));
}

#[test]
fn per_core_slot_isolation() {
    let cfg = AccelConfig::paper_big();
    let mut pool = CorePool::new(2, cfg, InterruptStrategy::NonPreemptive, TimingBackend::new);
    let slot = TaskSlot::new(1).unwrap();
    pool.load(CoreId(0), slot, program_for(&cfg, 16)).unwrap();
    // The program loaded on core 0 must not leak to core 1.
    assert!(pool.request_at(0, CoreId(0), slot).is_ok());
    assert!(matches!(pool.request_at(0, CoreId(1), slot), Err(SimError::EmptySlot(_))));
}

#[test]
fn mixed_config_pool_runs_both_cores() {
    // A heterogeneous pool: one big core (VI-preemptible) and one small
    // core (non-preemptive), each compiled against its own arch. The
    // pool-wide resource estimate is documented to follow core 0.
    let big = AccelConfig::paper_big();
    let small = AccelConfig::paper_small();
    let engines = vec![
        Engine::new(big, InterruptStrategy::VirtualInstruction, TimingBackend::new()),
        Engine::new(small, InterruptStrategy::NonPreemptive, TimingBackend::new()),
    ];
    let mut pool = CorePool::from_engines(engines);
    assert_eq!(pool.cores(), 2);

    let slot = TaskSlot::new(2).unwrap();
    pool.load(CoreId(0), slot, program_for(&big, 24)).unwrap();
    pool.load(CoreId(1), slot, program_for(&small, 24)).unwrap();
    pool.request_at(0, CoreId(0), slot).unwrap();
    pool.request_at(0, CoreId(1), slot).unwrap();
    let reports = pool.run().unwrap();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].completed_jobs.len(), 1);
    assert_eq!(reports[1].completed_jobs.len(), 1);
    // The same network on the narrower datapath takes longer.
    assert!(
        reports[1].completed_jobs[0].finish > reports[0].completed_jobs[0].finish,
        "small-arch core is slower on the same network"
    );
}

#[test]
fn busy_cycles_and_occupancy_reflect_partitioned_load() {
    let cfg = AccelConfig::paper_big();
    let mut pool = CorePool::new(3, cfg, InterruptStrategy::NonPreemptive, TimingBackend::new);
    let slot = TaskSlot::new(1).unwrap();
    let p = Arc::new(program_for(&cfg, 24));
    pool.load(CoreId(0), slot, Arc::clone(&p)).unwrap();
    pool.load(CoreId(1), slot, Arc::clone(&p)).unwrap();
    // Core 0 runs two back-to-back jobs (fully busy); core 1 runs the
    // same two jobs with a long idle gap between them (the engine clock
    // jumps across the gap, so idle time shows up in its elapsed time);
    // core 2 never works.
    pool.request_at(0, CoreId(0), slot).unwrap();
    pool.request_at(1, CoreId(0), slot).unwrap();
    pool.request_at(0, CoreId(1), slot).unwrap();
    pool.request_at(200_000, CoreId(1), slot).unwrap();
    pool.run().unwrap();

    let busy: Vec<u64> = pool.core_ids().map(|c| pool.busy_cycles(c)).collect();
    assert_eq!(busy[0], busy[1], "identical job pairs cost identical busy cycles");
    assert!(busy[0] > 0);
    assert_eq!(busy[2], 0, "the idle core did no work");
    let occ0 = pool.occupancy(CoreId(0));
    let occ1 = pool.occupancy(CoreId(1));
    assert!(occ0 > 0.99, "back-to-back jobs keep the core saturated, got {occ0}");
    assert!(occ1 < occ0, "the gap dilutes core 1's occupancy: {occ1} vs {occ0}");
    assert!(occ1 > 0.0);
    assert_eq!(pool.occupancy(CoreId(2)), 0.0);
}

/// A request landing exactly on the deadline cycle is *not* released by
/// that `run_until`: the engine clock jumps to the barrier and stops
/// before the release check runs again. The product pool and its
/// [`Stepped`] reference must pin the identical semantics — the release
/// happens on the next barrier.
#[test]
fn request_exactly_on_the_deadline_cycle_waits_for_the_next_barrier() {
    fn check<B: Backend>(wrap: fn(TimingBackend) -> B) {
        let what = if B::STEPPED { "Stepped" } else { "product" };
        let cfg = AccelConfig::paper_big();
        let slot = TaskSlot::new(1).unwrap();
        let mut pool =
            CorePool::new(2, cfg, InterruptStrategy::NonPreemptive, || wrap(TimingBackend::new()));
        pool.load(CoreId(0), slot, program_for(&cfg, 16)).unwrap();
        pool.request_at(1_000, CoreId(0), slot).unwrap();

        pool.run_until(1_000).unwrap();
        let core = pool.core(CoreId(0));
        assert_eq!(core.now(), 1_000, "{what}: clock reaches the barrier");
        let released = core.task_state(slot) != TaskState::Idle;
        assert!(!released, "{what}: the on-deadline arrival is not yet released");

        // The next barrier — even one cycle later — releases and runs it.
        pool.run_until(1_001).unwrap();
        let state = pool.core(CoreId(0)).task_state(slot);
        assert_eq!(state, TaskState::Running, "{what}: the next barrier releases the job");
        pool.run_until(u64::MAX).unwrap();
        assert_eq!(pool.reports()[0].completed_jobs.len(), 1, "{what}");
    }
    check(|b| b);
    check(Stepped);
}

/// Idle cores advance past a quiescent barrier for free: no clock movement,
/// no events, pure skips in the stats — and the pool comes back to life
/// when a request re-arms it.
#[test]
fn idle_cores_advance_past_a_quiescent_heap() {
    let cfg = AccelConfig::paper_big();
    let slot = TaskSlot::new(2).unwrap();
    let mut pool = CorePool::new(4, cfg, InterruptStrategy::NonPreemptive, TimingBackend::new);

    pool.run_until(10_000).unwrap();
    pool.run_until(20_000).unwrap();
    assert_eq!(pool.now(), 0, "nothing armed: no core's clock moves");
    assert_eq!(pool.next_wake(), None, "the pool is quiescent");
    let stats = pool.advance_stats();
    assert_eq!(stats.barriers, 2);
    assert_eq!(stats.wakes, 0);
    assert_eq!(stats.skips, 8, "4 cores × 2 barriers, all skipped");

    // A request re-arms the barrier; only that core wakes.
    pool.load(CoreId(2), slot, program_for(&cfg, 16)).unwrap();
    pool.request_at(30_000, CoreId(2), slot).unwrap();
    assert_eq!(pool.next_wake(), Some((30_000, CoreId(2))));
    pool.run_until(u64::MAX).unwrap();
    assert_eq!(pool.reports()[2].completed_jobs.len(), 1);
    let stats = pool.advance_stats();
    assert_eq!(stats.wakes, 1, "exactly the armed core ticked");
    assert_eq!(stats.skips, 11, "the other three cores stayed skipped");
}

/// `next_wake` reports work, not arms: `core_mut` (and a gateway, which
/// reaches its engines that way) arms conservatively, and an armed idle
/// core will never run anything.
#[test]
fn next_wake_ignores_conservative_arms() {
    let cfg = AccelConfig::paper_big();
    let mut pool = CorePool::new(4, cfg, InterruptStrategy::NonPreemptive, TimingBackend::new);
    let _ = pool.core_mut(CoreId(1));
    assert_eq!(pool.next_wake(), None, "an armed idle core is not a wake");
    pool.run_until(10_000).unwrap();
    assert_eq!(pool.advance_stats().wakes, 0, "and the barrier skips it");

    // Work injected through `core_mut` is a wake, at its own cycle; the
    // earliest one wins, the lowest core on a tie.
    let slot = TaskSlot::new(2).unwrap();
    for (core, cycle) in [(3, 40_000), (1, 25_000), (2, 25_000)] {
        let e = pool.core_mut(CoreId(core));
        e.load(slot, program_for(&cfg, 16)).unwrap();
        e.request_at(cycle, slot).unwrap();
    }
    assert_eq!(pool.next_wake(), Some((25_000, CoreId(1))));
}

/// Equal-wake ties advance cores in stable core order: two cores armed
/// for the same cycle emit into a shared tracer in core order, no matter
/// which was registered (requested) first — and the merged stream is
/// byte-identical to the [`Stepped`] reference's.
#[test]
fn equal_wake_ties_advance_in_stable_core_order() {
    fn run<B: Backend>(
        wrap: fn(TimingBackend) -> B,
        programs: [&Program; 2],
        request_order: [usize; 2],
    ) -> Vec<TraceEvent> {
        let (cfg, slot) = (AccelConfig::paper_big(), TaskSlot::new(1).unwrap());
        let (tracer, buf) = Tracer::ring(1 << 14);
        let engines: Vec<Engine<B>> = programs
            .iter()
            .map(|&p| {
                let mut e =
                    Engine::new(cfg, InterruptStrategy::NonPreemptive, wrap(TimingBackend::new()));
                e.set_probe(tracer.clone().into());
                e.load(slot, p.clone()).unwrap();
                e
            })
            .collect();
        let mut pool = CorePool::from_engines(engines);
        for &core in &request_order {
            pool.request_at(5_000, CoreId(core), slot).unwrap();
        }
        pool.run_until(u64::MAX).unwrap();
        buf.drain()
    }

    // Different programs per core so the merged streams are order-sensitive.
    let cfg = AccelConfig::paper_big();
    let (small, large) = (program_for(&cfg, 16), program_for(&cfg, 32));
    let forward = run(|b| b, [&small, &large], [0, 1]);
    let reversed = run(|b| b, [&small, &large], [1, 0]);
    let stepping = run(Stepped, [&small, &large], [1, 0]);
    assert!(!forward.is_empty());
    assert_eq!(forward, reversed, "registration order must not change the merged stream");
    assert_eq!(forward, stepping, "event-driven ≡ stepping, byte-for-byte");
}

#[test]
fn pool_now_is_the_furthest_core() {
    let cfg = AccelConfig::paper_big();
    let mut pool = CorePool::new(2, cfg, InterruptStrategy::NonPreemptive, TimingBackend::new);
    let slot = TaskSlot::new(1).unwrap();
    pool.load(CoreId(0), slot, program_for(&cfg, 24)).unwrap();
    pool.request_at(0, CoreId(0), slot).unwrap();
    // run() advances only cores with work; the pool clock follows core 0.
    pool.run().unwrap();
    assert_eq!(pool.now(), pool.core(CoreId(0)).now());
    assert!(pool.core(CoreId(1)).now() < pool.now());
}
