//! Partitioned multi-core scheduling — the paper's future-work direction
//! ("INCA currently focuses on interrupt support for single-core
//! multi-tasking. We plan to investigate the multi-core multi-tasking...",
//! §VI).
//!
//! A [`CorePool`] is N independent accelerator cores, each with its own
//! engine, datapath and task slots, advancing the same virtual clock.
//! Tasks are *partitioned*: each job is routed to a fixed core, which is
//! how a deployment without INCA would buy deadline isolation — at N× the
//! silicon. The `abl_multicore` bench compares one INCA core against a
//! partitioned non-preemptive pool on deadline misses, throughput and
//! resource cost.
//!
//! Advancement is discrete-event by default
//! ([`AdvanceMode::EventDriven`]): the pool is a [`Tier`] whose cores are
//! armed in its [`Barrier`] whenever work lands on them, and a barrier
//! ([`event::advance`]) only ticks armed cores — quiescent ones are
//! skipped entirely, so pool advancement costs O(events), not
//! O(barriers × cores). The cycle-box legacy loop survives as
//! [`AdvanceMode::Stepping`], selected on the barrier itself
//! (`pool.barrier().set_mode(..)`); both modes are byte-identical on every
//! deterministic artifact (the `event_differential` suite is the proof).
//!
//! [`AdvanceMode::EventDriven`]: crate::AdvanceMode::EventDriven
//! [`AdvanceMode::Stepping`]: crate::AdvanceMode::Stepping

use inca_isa::{Program, TaskSlot};
use std::sync::Arc;

use crate::event::{self, AdvanceStats, Barrier, Tier};
use crate::resources::{cnn_accelerator, iau, ResourceEstimate};
use crate::{AccelConfig, Backend, Engine, InterruptStrategy, Report, SimError};

/// Identifies a core within a [`CorePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A pool of identical accelerator cores with partitioned task placement.
#[derive(Debug)]
pub struct CorePool<B: Backend> {
    cfg: AccelConfig,
    cores: Vec<Engine<B>>,
    barrier: Barrier,
}

impl<B: Backend> CorePool<B> {
    /// Creates a pool of `n` cores, each built with `make_backend`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn new(
        n: usize,
        cfg: AccelConfig,
        strategy: InterruptStrategy,
        mut make_backend: impl FnMut() -> B,
    ) -> Self {
        assert!(n > 0, "a pool needs at least one core");
        let cores = (0..n).map(|_| Engine::new(cfg, strategy, make_backend())).collect();
        Self { cfg, cores, barrier: Barrier::new(n) }
    }

    /// Builds a pool from pre-configured engines — the escape hatch for
    /// heterogeneous pools (mixed strategies or configs per core). The
    /// pool-wide config (used by [`CorePool::resource_cost`]) is taken
    /// from the first engine.
    ///
    /// # Panics
    ///
    /// Panics when `engines` is empty.
    #[must_use]
    pub fn from_engines(engines: Vec<Engine<B>>) -> Self {
        assert!(!engines.is_empty(), "a pool needs at least one core");
        let cfg = *engines[0].config();
        let mut barrier = Barrier::new(engines.len());
        // Pre-configured engines may arrive with work already queued.
        for (i, e) in engines.iter().enumerate() {
            if e.next_event().is_some() {
                barrier.arm(i);
            }
        }
        Self { cfg, cores: engines, barrier }
    }

    /// Event-engine work counters (barriers, wakes, skips). Stepping-mode
    /// barriers count every core as a wake.
    #[must_use]
    pub fn advance_stats(&self) -> AdvanceStats {
        self.barrier.stats
    }

    /// The earliest [`Engine::next_event`] across all cores, with its core
    /// (lowest id on a tie) — `None` when every core is quiescent, however
    /// many are conservatively armed. Event-driven drivers use this to
    /// jump the clock instead of polling.
    #[must_use]
    pub fn next_wake(&self) -> Option<(u64, CoreId)> {
        (0..self.cores.len()).filter_map(|i| Some((self.next_tick(i)?, CoreId(i)))).min()
    }

    /// Arms `core` — the hook external couplings (scheduler pumps, batch
    /// flushes, DMA arrivals) use to guarantee the event engine visits the
    /// core at its next barrier even though the work is not yet visible to
    /// the engine.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range core id.
    pub fn wake(&mut self, core: CoreId) {
        self.barrier.arm(core.0);
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// All valid core ids, in order.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> {
        (0..self.cores.len()).map(CoreId)
    }

    /// The engine of one core.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range core id.
    #[must_use]
    pub fn core(&self, core: CoreId) -> &Engine<B> {
        &self.cores[core.0]
    }

    /// The engine of one core, or `None` for an out-of-range id.
    #[must_use]
    pub fn try_core(&self, core: CoreId) -> Option<&Engine<B>> {
        self.cores.get(core.0)
    }

    /// The engine of one core. Mutable access can inject work behind the
    /// pool's back, so the core is conservatively armed; the next barrier
    /// revalidates against [`Engine::next_event`] and skips it for free
    /// if it is still quiescent.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range core id.
    #[must_use]
    pub fn core_mut(&mut self, core: CoreId) -> &mut Engine<B> {
        self.barrier.arm(core.0);
        &mut self.cores[core.0]
    }

    /// The engine of one core, mutable, or `None` for an out-of-range id.
    #[must_use]
    pub fn try_core_mut(&mut self, core: CoreId) -> Option<&mut Engine<B>> {
        if core.0 < self.cores.len() {
            self.barrier.arm(core.0);
        }
        self.cores.get_mut(core.0)
    }

    /// The pool-wide virtual clock: the furthest cycle any core reached.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.cores.iter().map(Engine::now).max().unwrap_or(0)
    }

    /// Cycles `core` spent executing instructions across its completed
    /// jobs (interrupt backup/restore overhead is excluded — see
    /// [`JobRecord`](crate::JobRecord)`::extra_cost_cycles`).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range core id.
    #[must_use]
    pub fn busy_cycles(&self, core: CoreId) -> u64 {
        self.cores[core.0].completed_jobs().iter().map(|j| j.busy_cycles).sum()
    }

    /// Fraction of `core`'s elapsed virtual time spent executing
    /// instructions, in `[0, 1]`. Zero before the clock advances.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range core id.
    #[must_use]
    pub fn occupancy(&self, core: CoreId) -> f64 {
        let now = self.cores[core.0].now();
        if now == 0 {
            return 0.0;
        }
        self.busy_cycles(core) as f64 / now as f64
    }

    /// Loads `program` into `slot` of `core`.
    ///
    /// # Errors
    ///
    /// See [`Engine::load`].
    pub fn load(
        &mut self,
        core: CoreId,
        slot: TaskSlot,
        program: impl Into<Arc<Program>>,
    ) -> Result<(), SimError> {
        self.cores[core.0].load(slot, program)
    }

    /// Schedules a request on `core`/`slot` at `cycle`.
    ///
    /// # Errors
    ///
    /// See [`Engine::request_at`].
    pub fn request_at(&mut self, cycle: u64, core: CoreId, slot: TaskSlot) -> Result<(), SimError> {
        self.cores[core.0].request_at(cycle, slot)?;
        self.barrier.arm(core.0);
        Ok(())
    }

    /// Runs every core to completion.
    ///
    /// # Errors
    ///
    /// Propagates the first core's simulation error.
    pub fn run(&mut self) -> Result<Vec<Report>, SimError> {
        self.run_until(u64::MAX)?;
        Ok(self.reports())
    }

    /// Runs every core until `deadline` cycles: one [`event::advance`]
    /// barrier. Skipping a quiescent core is a provable state no-op — an
    /// idle engine's `run_until` touches nothing, not even its clock.
    ///
    /// # Errors
    ///
    /// Propagates the first core's simulation error.
    pub fn run_until(&mut self, deadline: u64) -> Result<(), SimError> {
        event::advance(self, deadline)
    }

    /// Reports for all cores (indexed by core id).
    #[must_use]
    pub fn reports(&self) -> Vec<Report> {
        self.cores.iter().map(Engine::report).collect()
    }

    /// Total silicon cost of the pool: N accelerator datapaths, plus one
    /// IAU per core when the strategy needs one (any preemptive strategy).
    #[must_use]
    pub fn resource_cost(&self) -> ResourceEstimate {
        let per_core = match self.cores[0].strategy() {
            InterruptStrategy::NonPreemptive => cnn_accelerator(self.cfg.arch.parallelism),
            _ => cnn_accelerator(self.cfg.arch.parallelism) + iau(),
        };
        self.cores.iter().skip(1).fold(per_core, |acc, _| acc + per_core)
    }
}

/// A core wakes at [`Engine::next_event`] and ticks by running to the
/// barrier.
impl<B: Backend> Tier for CorePool<B> {
    fn barrier(&mut self) -> &mut Barrier {
        &mut self.barrier
    }

    fn next_tick(&self, i: usize) -> Option<u64> {
        self.cores[i].next_event()
    }

    fn tick(&mut self, i: usize, deadline: u64) -> Result<(), SimError> {
        self.cores[i].run_until(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimingBackend;
    use inca_compiler::Compiler;
    use inca_model::{zoo, Shape3};

    fn tiny() -> Program {
        Compiler::new(AccelConfig::paper_big().arch)
            .compile_vi(&zoo::tiny(Shape3::new(3, 32, 32)).unwrap())
            .unwrap()
    }

    #[test]
    fn partitioned_jobs_run_in_parallel() {
        let mut pool = CorePool::new(
            2,
            AccelConfig::paper_big(),
            InterruptStrategy::NonPreemptive,
            TimingBackend::new,
        );
        let slot = TaskSlot::new(1).unwrap();
        let p = Arc::new(tiny());
        pool.load(CoreId(0), slot, Arc::clone(&p)).unwrap();
        pool.load(CoreId(1), slot, Arc::clone(&p)).unwrap();
        pool.request_at(0, CoreId(0), slot).unwrap();
        pool.request_at(0, CoreId(1), slot).unwrap();
        let reports = pool.run().unwrap();
        assert_eq!(reports.len(), 2);
        // Both finish at the same (parallel) time — no serialisation.
        assert_eq!(reports[0].completed_jobs[0].finish, reports[1].completed_jobs[0].finish);
    }

    #[test]
    fn pool_resource_cost_scales_with_cores() {
        let one = CorePool::new(
            1,
            AccelConfig::paper_big(),
            InterruptStrategy::VirtualInstruction,
            TimingBackend::new,
        );
        let two = CorePool::new(
            2,
            AccelConfig::paper_big(),
            InterruptStrategy::NonPreemptive,
            TimingBackend::new,
        );
        let c1 = one.resource_cost();
        let c2 = two.resource_cost();
        // One preemptive core (accelerator + IAU) is far cheaper than two
        // plain cores.
        assert!(c1.dsp < c2.dsp);
        assert!(c1.lut < c2.lut);
        // And the IAU's cost is visible but small.
        assert_eq!(c1.dsp, cnn_accelerator(AccelConfig::paper_big().arch.parallelism).dsp);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_pool_rejected() {
        let _ = CorePool::new(
            0,
            AccelConfig::paper_big(),
            InterruptStrategy::NonPreemptive,
            TimingBackend::new,
        );
    }

    #[test]
    fn request_on_unloaded_slot_errors() {
        let mut pool = CorePool::new(
            2,
            AccelConfig::paper_big(),
            InterruptStrategy::NonPreemptive,
            TimingBackend::new,
        );
        let slot = TaskSlot::new(1).unwrap();
        pool.load(CoreId(0), slot, tiny()).unwrap();
        // Core 1 has no program in that slot: per-core isolation means the
        // load on core 0 must not leak over.
        assert!(pool.request_at(0, CoreId(0), slot).is_ok());
        assert!(matches!(pool.request_at(0, CoreId(1), slot), Err(SimError::EmptySlot(_))));
    }

    #[test]
    fn run_until_advances_every_core_to_the_deadline() {
        let mut pool = CorePool::new(
            3,
            AccelConfig::paper_big(),
            InterruptStrategy::NonPreemptive,
            TimingBackend::new,
        );
        let slot = TaskSlot::new(2).unwrap();
        let p = Arc::new(tiny());
        for core in 0..3 {
            pool.load(CoreId(core), slot, Arc::clone(&p)).unwrap();
        }
        // Only cores 0 and 2 get work; core 1 idles but still advances.
        pool.request_at(0, CoreId(0), slot).unwrap();
        pool.request_at(0, CoreId(2), slot).unwrap();

        // A deadline before the makespan completes nothing...
        pool.run_until(10).unwrap();
        assert!(pool.reports().iter().all(|r| r.completed_jobs.is_empty()));
        // ...and a generous one completes exactly the requested jobs.
        pool.run_until(1_000_000_000).unwrap();
        let reports = pool.reports();
        assert_eq!(reports.len(), 3, "reports are indexed by core id");
        assert_eq!(reports[0].completed_jobs.len(), 1);
        assert_eq!(reports[1].completed_jobs.len(), 0);
        assert_eq!(reports[2].completed_jobs.len(), 1);
        // Idle cores share the clock but record no events.
        assert!(reports[1].events.is_empty());
    }

    #[test]
    fn per_core_reports_aggregate_partitioned_work() {
        let mut pool = CorePool::new(
            2,
            AccelConfig::paper_big(),
            InterruptStrategy::NonPreemptive,
            TimingBackend::new,
        );
        let slot = TaskSlot::new(1).unwrap();
        let p = Arc::new(tiny());
        pool.load(CoreId(0), slot, Arc::clone(&p)).unwrap();
        pool.load(CoreId(1), slot, Arc::clone(&p)).unwrap();
        // Core 0 runs two back-to-back jobs, core 1 runs one.
        pool.request_at(0, CoreId(0), slot).unwrap();
        pool.request_at(1, CoreId(0), slot).unwrap();
        pool.request_at(0, CoreId(1), slot).unwrap();
        let reports = pool.run().unwrap();
        let per_core: Vec<usize> = reports.iter().map(|r| r.completed_jobs.len()).collect();
        assert_eq!(per_core, vec![2, 1]);
        let total: usize = per_core.iter().sum();
        assert_eq!(total, 3, "pool-wide job count is the sum of the partitions");
        // Partitioning serialises within a core: core 0's second job waits
        // for its first, so it finishes later than core 1's only job.
        assert!(
            reports[0].completed_jobs[1].finish > reports[1].completed_jobs[0].finish,
            "back-to-back jobs on one core serialise"
        );
    }

    #[test]
    fn resource_cost_folds_linearly_over_cores() {
        let cost_of = |n: usize| {
            CorePool::new(
                n,
                AccelConfig::paper_big(),
                InterruptStrategy::VirtualInstruction,
                TimingBackend::new,
            )
            .resource_cost()
        };
        let (c1, c3) = (cost_of(1), cost_of(3));
        assert_eq!(c3.dsp, 3 * c1.dsp, "3 preemptive cores cost 3x the DSPs");
        assert_eq!(c3.lut, 3 * c1.lut);
        assert_eq!(c3.ff, 3 * c1.ff);
        assert_eq!(c3.bram, 3 * c1.bram);
        // Preemptive cores each carry an IAU on top of the datapath.
        let plain = cnn_accelerator(AccelConfig::paper_big().arch.parallelism);
        assert_eq!(c1.lut, (plain + iau()).lut);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn core_mut_out_of_range_panics() {
        let mut pool = CorePool::new(
            1,
            AccelConfig::paper_big(),
            InterruptStrategy::NonPreemptive,
            TimingBackend::new,
        );
        let _ = pool.core_mut(CoreId(1));
    }
}
