//! Discrete-event advancement: the one place that knows how a barrier
//! works.
//!
//! Stepping a pool means touching every core at every barrier, so
//! simulation cost grows with `cycles × cores` even when most cores are
//! idle. The event engine inverts that: every tier that advances parts
//! at a barrier (a [`CorePool`](crate::CorePool) of engines, a serving
//! gateway of scheduler+engine pairs) implements [`Tier`] and carries one
//! [`Barrier`] — the armed parts with the cycle each is next due, and the
//! [`AdvanceStats`] counters. [`advance`] then only ticks the armed parts
//! due by its deadline. Quiescent parts (no running job, no ready job, no
//! pending arrival, nothing queued above) are never armed, and skipping
//! them is *provably* a state no-op; a part not due yet would only have
//! made pure progress, which its next tick covers exactly. Nothing a part
//! does depends on which barriers visited it: a serving core binds a job
//! once its engine's clock reached the job's submission cycle, whoever
//! drove it there. That is what keeps event-driven and stepping runs
//! byte-identical (see DESIGN.md §5.8).
//!
//! The stepping reference is a type, not a mode: a tier over
//! [`Stepped`](crate::Stepped) engines has [`Tier::STEPPED`] set and ticks
//! every part at every barrier, the loop the event engine replaced.
//!
//! Cross-part couplings — a request landing on a core, a scheduler pump
//! from the serving gateway, a batch flush — are expressed as explicit
//! wake events via [`CorePool::wake`](crate::CorePool::wake).

use crate::SimError;

/// Counters of advancement work, for the events-vs-cycles accounting in
/// `fig_event_engine`. Deterministic: identical runs (and identical
/// hosts vs CI) produce identical stats. A stepping barrier counts
/// every core as a wake (it really does visit them all); only the event
/// engine produces skips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceStats {
    /// Advance barriers processed (one per `run_until`-style call).
    pub barriers: u64,
    /// Component ticks actually executed.
    pub wakes: u64,
    /// Component ticks skipped because the component was quiescent
    /// (a stepping tier would have executed these as no-ops).
    pub skips: u64,
}

impl AdvanceStats {
    /// Ticks a stepping run would have executed for the same barriers.
    #[must_use]
    pub fn stepping_ticks(&self) -> u64 {
        self.wakes + self.skips
    }
}

/// One tier whose parts (cores) advance together at barriers. Stacked
/// tiers share the [`Barrier`] of the lowest one, so a part is armed,
/// counted and skipped in exactly one place.
pub trait Tier {
    /// Whether every barrier ticks every part: the stepping reference the
    /// event engine is differentially tested against. Set by tiers over
    /// [`Stepped`](crate::Stepped) engines, never by the product's.
    const STEPPED: bool = false;

    /// The tier's barrier bundle.
    fn barrier(&mut self) -> &mut Barrier;

    /// The earliest deadline at which ticking part `i` can do more than
    /// pure progress — move its engine's clock and its running job's pc —
    /// or `None` when the part is quiescent (ticking it would not change
    /// any state). It gates the barriers: a barrier ticks part `i` only at
    /// a deadline at or past it, and one before it leaves the part behind.
    /// A lower bound is always safe; a cycle in the past (a late-submitted
    /// arrival, a pending bind) is due at the next barrier.
    fn next_tick(&self, i: usize) -> Option<u64>;

    /// Advances part `i` to `deadline` cycles. For a part barriers left
    /// behind, the ticks it missed would have been pure progress, which
    /// this one covers exactly.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    fn tick(&mut self, i: usize, deadline: u64) -> Result<(), SimError>;
}

/// The advance state of a [`Tier`]: which parts are armed, when each is
/// due, the latest barrier and how much work the barriers took.
/// Opaque outside this crate: only [`advance`] and the tiers' own arm
/// paths touch the armed set.
#[derive(Debug)]
pub struct Barrier {
    /// Per part: when it is next due — a lower bound on its
    /// [`Tier::next_tick`] — or `None` while it is unarmed.
    due: Vec<Option<u64>>,
    /// The armed parts, in arm order: a barrier costs O(armed), however
    /// many parts there are.
    armed: Vec<usize>,
    /// The earliest due cycle of an armed part, kept where a part arms
    /// and at every barrier.
    earliest: Option<u64>,
    /// The due parts of the last [`advance`], emptied and kept for its
    /// buffer, so a barrier never allocates once it has grown.
    spare: Vec<usize>,
    /// The deadline of the latest barrier: where a part left behind would
    /// stand.
    pub(crate) latest: u64,
    /// Work counters (a stepping barrier counts every part as a wake;
    /// only the event engine produces skips).
    pub(crate) stats: AdvanceStats,
}

impl Barrier {
    /// A barrier over `parts` parts, all disarmed.
    pub(crate) fn new(parts: usize) -> Self {
        Self {
            due: vec![None; parts],
            armed: Vec::new(),
            earliest: None,
            spare: Vec::new(),
            latest: 0,
            stats: AdvanceStats::default(),
        }
    }

    /// Arms part `i`, due at the next barrier, whatever its cycle; the
    /// barrier revalidates it against [`Tier::next_tick`].
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range part index.
    pub(crate) fn arm(&mut self, i: usize) {
        if self.due[i].is_none() {
            debug_assert!(!self.armed.contains(&i), "an unarmed part is not listed");
            self.armed.push(i);
        }
        self.due[i] = Some(0);
        self.earliest = Some(0);
    }

    /// The earliest due cycle of an armed part.
    pub(crate) fn next_due(&self) -> Option<u64> {
        debug_assert_eq!(
            self.earliest,
            self.armed.iter().filter_map(|&i| self.due[i]).min(),
            "the kept due cycle is the earliest"
        );
        self.earliest
    }
}

/// One barrier: advances `tier` to `deadline`.
///
/// Only armed parts due by the deadline tick, in ascending part order —
/// the order the stepping loop visits them, so merged trace streams stay
/// byte-identical when several parts share one tracer. Each is first
/// revalidated against its [`Tier::next_tick`] when an arm set its due
/// cycle (a part not due after all stays armed at its new due cycle, a
/// quiescent one is disarmed), and re-armed at its own next tick
/// afterwards. The other armed parts are left behind untouched; their
/// next ticks cover the progress they missed. A [`Tier::STEPPED`] tier
/// ticks every part instead; the branch is resolved at compile time.
///
/// # Errors
///
/// Propagates the first part's simulation error.
pub fn advance<T: Tier>(tier: &mut T, deadline: u64) -> Result<(), SimError> {
    let b = tier.barrier();
    let parts = b.due.len();
    b.stats.barriers += 1;
    b.latest = deadline;
    if T::STEPPED {
        b.stats.wakes += parts as u64;
        // Every part ticks, so none is ever left behind.
        for i in b.armed.drain(..) {
            b.due[i] = None;
        }
        b.earliest = None;
        return (0..parts).try_for_each(|i| tier.tick(i, deadline));
    }
    // Skipping is a no-op only for a quiescent part: work that landed on
    // a part without an arm shows here, at the next barrier.
    #[cfg(debug_assertions)]
    for i in 0..parts {
        if tier.barrier().due[i].is_none() {
            assert!(tier.next_tick(i).is_none(), "part {i} has work but is not armed");
        }
    }
    let b = tier.barrier();
    if b.earliest.is_none_or(|t| t > deadline) {
        // Nothing due, in O(1): the barrier only leaves the armed parts
        // behind.
        b.stats.skips += parts as u64;
        #[cfg(debug_assertions)]
        check_left_behind(tier, deadline, &[]);
        return Ok(());
    }
    let mut due = std::mem::take(&mut b.spare);
    let (armed, states) = (&b.armed, &b.due);
    due.extend(armed.iter().filter(|&&i| states[i].is_some_and(|d| d <= deadline)));
    due.sort_unstable();
    let visited = visit(tier, &mut due, deadline);
    let b = tier.barrier();
    let (states, mut earliest) = (&b.due, None::<u64>);
    b.armed.retain(|&i| match states[i] {
        Some(due) => {
            earliest = Some(earliest.map_or(due, |e| e.min(due)));
            true
        }
        None => false,
    });
    b.earliest = earliest;
    if visited.is_ok() {
        b.stats.wakes += due.len() as u64;
        b.stats.skips += (parts - due.len()) as u64;
        #[cfg(debug_assertions)]
        check_left_behind(tier, deadline, &due);
    }
    due.clear();
    tier.barrier().spare = due;
    visited
}

/// A part the barrier at `deadline` did not tick (`ticked`, ascending) is
/// not due by it: its due cycle was a lower bound on its next tick.
#[cfg(debug_assertions)]
fn check_left_behind<T: Tier>(tier: &mut T, deadline: u64, ticked: &[usize]) {
    for k in 0..tier.barrier().armed.len() {
        let i = tier.barrier().armed[k];
        if ticked.binary_search(&i).is_err() {
            let next = tier.next_tick(i);
            assert!(next.is_none_or(|t| t > deadline), "part {i} left behind due at {next:?}");
        }
    }
}

/// Ticks the `due` parts of `tier` (ascending) at `deadline`, after
/// revalidating each, and keeps in `due` the ones that ticked.
fn visit<T: Tier>(tier: &mut T, due: &mut Vec<usize>, deadline: u64) -> Result<(), SimError> {
    let mut ticked = 0;
    for k in 0..due.len() {
        let i = due[k];
        // An arm's due cycle is revalidated; one a tick or an earlier
        // revalidation left is exact, since nothing armed the part since.
        let next = match tier.barrier().due[i] {
            Some(0) => tier.next_tick(i),
            exact => exact,
        };
        if next.is_none_or(|t| t > deadline) {
            tier.barrier().due[i] = next;
            continue;
        }
        tier.tick(i, deadline)?;
        let next = tier.next_tick(i);
        tier.barrier().due[i] = next;
        due[ticked] = i;
        ticked += 1;
    }
    due.truncate(ticked);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccelConfig, CorePool, Engine, InterruptStrategy, TimingBackend};
    use inca_compiler::Compiler;
    use inca_isa::TaskSlot;
    use inca_model::{zoo, Shape3};
    use std::sync::Arc;

    #[test]
    fn rearming_is_idempotent() {
        let mut b = Barrier::new(4);
        b.arm(2);
        b.arm(2);
        assert_eq!(b.armed, vec![2]);
        assert_eq!(b.next_due(), Some(0), "an arm is due at the next barrier");
    }

    /// Never armed, never busy: ticking it is a no-op, which only a
    /// stepping tier pays for.
    struct Quiescent<const STEPPED: bool> {
        barrier: Barrier,
        ticks: u64,
    }

    impl<const S: bool> Tier for Quiescent<S> {
        const STEPPED: bool = S;
        fn barrier(&mut self) -> &mut Barrier {
            &mut self.barrier
        }
        fn next_tick(&self, _: usize) -> Option<u64> {
            None
        }
        fn tick(&mut self, _: usize, _: u64) -> Result<(), SimError> {
            self.ticks += 1;
            Ok(())
        }
    }

    fn three_barriers<const S: bool>() -> (u64, AdvanceStats) {
        let mut t = Quiescent::<S> { barrier: Barrier::new(2), ticks: 0 };
        for deadline in [10, 20, 30] {
            advance(&mut t, deadline).unwrap();
        }
        (t.ticks, t.barrier.stats)
    }

    #[test]
    fn a_stepped_tier_ticks_a_never_armed_quiescent_part() {
        let stepped = AdvanceStats { barriers: 3, wakes: 6, skips: 0 };
        assert_eq!(three_barriers::<true>(), (6, stepped), "2 parts × 3 barriers, all ticked");
        let event = AdvanceStats { barriers: 3, wakes: 0, skips: 6 };
        assert_eq!(three_barriers::<false>(), (0, event), "the product tier skips them all");
    }

    /// Four cores, each a kilocycle into one long job, due at fixed
    /// cycles; each tick runs its core to the barrier and is logged as
    /// `(core, deadline)`.
    struct Timed {
        pool: CorePool<TimingBackend>,
        at: Vec<u64>,
        ticks: Vec<(usize, u64)>,
    }

    impl Tier for Timed {
        fn barrier(&mut self) -> &mut Barrier {
            self.pool.barrier()
        }
        fn next_tick(&self, i: usize) -> Option<u64> {
            Some(self.at[i])
        }
        fn tick(&mut self, i: usize, deadline: u64) -> Result<(), SimError> {
            self.ticks.push((i, deadline));
            self.pool.tick(i, deadline)
        }
    }

    /// Four engines, each a kilocycle into a job far longer than the
    /// barriers below.
    fn busy_pool() -> CorePool<TimingBackend> {
        let cfg = AccelConfig::paper_small();
        let program = Arc::new(
            Compiler::new(cfg.arch)
                .compile_vi(&zoo::tiny(Shape3::new(3, 64, 64)).unwrap())
                .unwrap(),
        );
        let slot = TaskSlot::LOWEST;
        let engines = (0..4)
            .map(|_| {
                let mut e =
                    Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
                e.load(slot, Arc::clone(&program)).unwrap();
                e.request_at(0, slot).unwrap();
                e.run_until(1_000).unwrap();
                e
            })
            .collect();
        CorePool::from_engines(engines)
    }

    #[test]
    fn only_due_parts_tick_in_part_order_and_the_rest_fall_behind() {
        let at = vec![25_000, 5_000, 45_000, 15_000];
        let mut t = Timed { pool: busy_pool(), at, ticks: Vec::new() };
        // The same cores, each run to every barrier.
        let mut twin = busy_pool();
        let mut behind = Vec::new();
        let mut barrier = |t: &mut Timed, deadline: u64| {
            advance(t, deadline).unwrap();
            twin.run_until(deadline).unwrap();
            // A core left behind has not run to the barrier, but its clock
            // reads where the run would have left it.
            for c in t.pool.core_ids() {
                assert_eq!(t.pool.clock(c), twin.core(c).now(), "{c} at {deadline}");
            }
            assert_eq!(t.pool.now(), twin.now());
            t.pool.core_ids().map(|c| t.pool.core(c).now() < t.pool.clock(c)).collect::<Vec<_>>()
        };
        behind.push(barrier(&mut t, 10_000));
        // The barrier at 10 000 ticked a part, so its due list has a
        // buffer; every later barrier fills that same buffer, allocating
        // nothing.
        let kept = t.barrier().spare.as_ptr();
        for deadline in [20_000, 30_000, 40_000] {
            behind.push(barrier(&mut t, deadline));
            assert_eq!(t.barrier().spare.as_ptr(), kept, "the due list reuses its buffer");
        }
        let ticks = [
            (1, 10_000),
            (1, 20_000),
            (3, 20_000),
            (0, 30_000),
            (1, 30_000),
            (3, 30_000),
            (0, 40_000),
            (1, 40_000),
            (3, 40_000),
        ];
        assert_eq!(t.ticks, ticks, "due parts only, in part order");
        assert_eq!(t.pool.advance_stats(), AdvanceStats { barriers: 4, wakes: 9, skips: 7 });
        // Core 3 missed only the barrier at 10 000, core 0 those at 10 000
        // and 20 000; core 2 (due at 45 000) is still behind.
        assert_eq!(behind[0], [true, false, true, true]);
        assert_eq!(behind[1], [true, false, true, false]);
        assert_eq!(behind[3], [false, false, true, false]);
        assert_eq!(barrier(&mut t, 50_000), [false; 4], "a ticked core is up to date");
        assert_eq!(t.ticks[9..], [(0, 50_000), (1, 50_000), (2, 50_000), (3, 50_000)]);
        assert_eq!(t.barrier().spare.as_ptr(), kept, "four due parts fit the kept buffer");
    }

    #[test]
    fn stats_reconstruct_stepping_work() {
        let s = AdvanceStats { barriers: 3, wakes: 5, skips: 7 };
        assert_eq!(s.stepping_ticks(), 12);
    }
}
