//! Discrete-event advancement: the one place that knows how a barrier
//! works.
//!
//! Stepping a pool means touching every core at every barrier, so
//! simulation cost grows with `cycles × cores` even when most cores are
//! idle. The event engine inverts that: every tier that advances parts
//! at a barrier (a [`CorePool`](crate::CorePool) of engines, a serving
//! gateway of scheduler+engine pairs) implements [`Tier`] and carries one
//! [`Barrier`] — the set of armed parts and the [`AdvanceStats`]
//! counters. [`advance`] then only ticks armed parts; quiescent ones (no
//! running job, no ready job, no pending arrival, nothing queued above)
//! are skipped entirely, and skipping them is *provably* a state no-op,
//! which is what keeps event-driven and stepping runs byte-identical (see
//! DESIGN.md §5.8).
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

    /// The next cycle part `i` can make progress, or `None` when it is
    /// quiescent (ticking it would not change any state). A barrier only
    /// asks whether there is one; the cycle (which may lie in the past: a
    /// late-submitted arrival) is for drivers that jump the clock
    /// ([`CorePool::next_wake`](crate::CorePool::next_wake)).
    fn next_tick(&self, i: usize) -> Option<u64>;

    /// Advances part `i` to `deadline` cycles.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    fn tick(&mut self, i: usize, deadline: u64) -> Result<(), SimError>;
}

/// The advance state of a [`Tier`]: which parts are armed and how much
/// work the barriers took. Opaque outside this crate: only [`advance`]
/// and the tiers' own arm paths touch the armed set.
#[derive(Debug)]
pub struct Barrier {
    /// `armed[i]`: part `i` is visited at the next barrier. Arms are
    /// conservative: [`advance`] revalidates each against
    /// [`Tier::next_tick`] and skips the quiescent ones for free.
    armed: Vec<bool>,
    /// The armed parts, in arm order: a barrier costs O(armed), and an
    /// idle one nothing, however many parts there are.
    due: Vec<usize>,
    /// The list the last [`advance`] drained, emptied and kept for its
    /// buffer: the next drain swaps it in as `due`, so arming never
    /// allocates once both lists have grown.
    spare: Vec<usize>,
    /// Work counters (a stepping barrier counts every part as a wake;
    /// only the event engine produces skips).
    pub(crate) stats: AdvanceStats,
}

impl Barrier {
    /// A barrier over `parts` parts, all disarmed.
    pub(crate) fn new(parts: usize) -> Self {
        Self {
            armed: vec![false; parts],
            due: Vec::new(),
            spare: Vec::new(),
            stats: AdvanceStats::default(),
        }
    }

    /// Arms part `i` for the next barrier (idempotent).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range part index.
    pub(crate) fn arm(&mut self, i: usize) {
        if !std::mem::replace(&mut self.armed[i], true) {
            self.due.push(i);
        }
    }

    /// Disarms and returns every armed part, in ascending part order —
    /// the order a stepping loop visits cores, which is what keeps merged
    /// trace streams byte-identical when several armed cores share one
    /// tracer.
    pub(crate) fn drain_armed(&mut self) -> Vec<usize> {
        let mut due = std::mem::replace(&mut self.due, std::mem::take(&mut self.spare));
        due.sort_unstable();
        for &i in &due {
            self.armed[i] = false;
        }
        due
    }
}

/// One barrier: advances `tier` to `deadline`.
///
/// Only armed parts tick, in ascending part order — the order the
/// stepping loop visits them, so merged trace streams stay
/// byte-identical when several parts share one tracer — and each is
/// re-armed from its own [`Tier::next_tick`] afterwards. A
/// [`Tier::STEPPED`] tier ticks every part instead; the branch is
/// resolved at compile time.
///
/// # Errors
///
/// Propagates the first part's simulation error.
pub fn advance<T: Tier>(tier: &mut T, deadline: u64) -> Result<(), SimError> {
    let b = tier.barrier();
    let parts = b.armed.len();
    b.stats.barriers += 1;
    if T::STEPPED {
        b.stats.wakes += parts as u64;
        return (0..parts).try_for_each(|i| tier.tick(i, deadline));
    }
    let mut ticked = 0u64;
    let mut due = b.drain_armed();
    // Skipping is a no-op only for a quiescent part: work that landed on
    // a part without an arm shows here, at the next barrier.
    #[cfg(debug_assertions)]
    for i in (0..parts).filter(|i| due.binary_search(i).is_err()) {
        assert!(tier.next_tick(i).is_none(), "part {i} has work but is not armed");
    }
    for &i in &due {
        // Revalidate: an armed part may turn out quiescent. Ticking it
        // anyway would be harmless (a no-op), just wasted work.
        if tier.next_tick(i).is_none() {
            continue;
        }
        ticked += 1;
        tier.tick(i, deadline)?;
        if tier.next_tick(i).is_some() {
            tier.barrier().arm(i);
        }
    }
    let b = tier.barrier();
    b.stats.wakes += ticked;
    b.stats.skips += parts as u64 - ticked;
    due.clear();
    b.spare = due;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rearming_is_idempotent() {
        let mut b = Barrier::new(4);
        b.arm(2);
        b.arm(2);
        assert_eq!(b.drain_armed(), vec![2]);
        b.arm(2);
        assert_eq!(b.drain_armed(), vec![2], "a drained part can be armed again");
    }

    #[test]
    fn drain_returns_ascending_component_order_regardless_of_wakes() {
        let mut b = Barrier::new(6);
        for i in [5, 0, 3] {
            b.arm(i);
        }
        assert_eq!(b.drain_armed(), vec![0, 3, 5]);
        assert_eq!(b.drain_armed(), Vec::<usize>::new(), "drain disarms everything");
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

    #[test]
    fn advance_reuses_the_drained_buffer() {
        struct Busy(Barrier);
        impl Tier for Busy {
            fn barrier(&mut self) -> &mut Barrier {
                &mut self.0
            }
            fn next_tick(&self, _: usize) -> Option<u64> {
                Some(0)
            }
            fn tick(&mut self, _: usize, _: u64) -> Result<(), SimError> {
                Ok(())
            }
        }
        let mut t = Busy(Barrier::new(2));
        t.0.arm(1);
        t.0.arm(0);
        advance(&mut t, 10).unwrap();
        let kept = t.0.spare.as_ptr();
        advance(&mut t, 20).unwrap();
        assert_eq!(t.0.due.as_ptr(), kept, "re-arms land in the last barrier's list");
        assert_eq!(t.0.drain_armed(), vec![0, 1]);
    }

    #[test]
    fn stats_reconstruct_stepping_work() {
        let s = AdvanceStats { barriers: 3, wakes: 5, skips: 7 };
        assert_eq!(s.stepping_ticks(), 12);
    }
}
