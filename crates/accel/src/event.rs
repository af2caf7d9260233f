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
//! made pure progress, which its next tick covers exactly (it *settles*).
//! That is what keeps event-driven and stepping runs byte-identical (see
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

    /// The earliest deadline at which ticking part `i` can do more than
    /// pure progress — move its engine's clock and its running job's pc —
    /// or `None` when the part is quiescent (ticking it would not change
    /// any state). It gates the barriers: a barrier ticks part `i` only at
    /// a deadline at or past it, and one before it leaves the part behind.
    /// A lower bound is always safe; a cycle in the past (a late-submitted
    /// arrival, a pending pump) is due at the next barrier.
    fn next_tick(&self, i: usize) -> Option<u64>;

    /// Advances part `i` to `deadline` cycles. A part barriers left behind
    /// ([`Barrier`] knows which) first settles to the state their ticks
    /// would have left it in.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    fn tick(&mut self, i: usize, deadline: u64) -> Result<(), SimError>;
}

/// The advance state of one part of a [`Tier`].
#[derive(Debug, Clone, Copy, Default)]
struct Part {
    /// When the part is next due — a lower bound on its
    /// [`Tier::next_tick`] — or `None` while it is unarmed.
    due: Option<u64>,
    /// The number of barriers the part is up to date with: an armed part
    /// behind the barrier count was left behind, and settles in its next
    /// tick.
    seq: u64,
}

/// The advance state of a [`Tier`]: which parts are armed, when each is
/// due, the last two barriers and how much work the barriers took.
/// Opaque outside this crate: only [`advance`] and the tiers' own arm
/// paths touch the armed set.
#[derive(Debug)]
pub struct Barrier {
    /// Per part: when it is due and how far it is up to date.
    parts: Vec<Part>,
    /// The armed parts, in arm order: a barrier costs O(armed), however
    /// many parts there are.
    armed: Vec<usize>,
    /// The earliest due cycle of an armed part, kept where a part arms
    /// and at every barrier.
    earliest: Option<u64>,
    /// The due parts of the last [`advance`], emptied and kept for its
    /// buffer, so a barrier never allocates once it has grown.
    spare: Vec<usize>,
    /// Barriers recorded so far.
    seq: u64,
    /// The cycles of the last two barriers, the older first: where a part
    /// left behind would stand.
    last: [u64; 2],
    /// Work counters (a stepping barrier counts every part as a wake;
    /// only the event engine produces skips).
    pub(crate) stats: AdvanceStats,
}

impl Barrier {
    /// A barrier over `parts` parts, all disarmed.
    pub(crate) fn new(parts: usize) -> Self {
        Self {
            parts: vec![Part::default(); parts],
            armed: Vec::new(),
            earliest: None,
            spare: Vec::new(),
            seq: 0,
            last: [0; 2],
            stats: AdvanceStats::default(),
        }
    }

    /// Arms part `i`, due at the next barrier, whatever its cycle; the
    /// barrier revalidates it against [`Tier::next_tick`]. A part armed
    /// from quiescence is up to date: skipping a quiescent part changed
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range part index.
    pub(crate) fn arm(&mut self, i: usize) {
        let part = &mut self.parts[i];
        if part.due.is_none() {
            debug_assert!(!self.armed.contains(&i), "an unarmed part is not listed");
            part.seq = self.seq;
            self.armed.push(i);
        }
        part.due = Some(0);
        self.earliest = Some(0);
    }

    /// The earliest due cycle of an armed part.
    pub(crate) fn next_due(&self) -> Option<u64> {
        debug_assert_eq!(
            self.earliest,
            self.armed.iter().filter_map(|&i| self.parts[i].due).min(),
            "the kept due cycle is the earliest"
        );
        self.earliest
    }

    /// The barriers part `i` missed, when it is armed and was left behind:
    /// the last two, the older first, or `[0, latest]` when it missed only
    /// the latest (a run to cycle 0 is a no-op: the part may hold work
    /// that came after the older one).
    pub(crate) fn lag(&self, i: usize) -> Option<[u64; 2]> {
        let part = self.parts[i];
        match self.seq - part.seq {
            _ if part.due.is_none() => None,
            0 => None,
            1 => Some([0, self.last[1]]),
            _ => Some(self.last),
        }
    }

    /// Counts one barrier at `deadline`: every armed part not brought up
    /// to date at it is left behind.
    fn record(&mut self, deadline: u64) {
        self.seq += 1;
        self.last = [self.last[1], deadline];
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
/// next ticks settle them. A [`Tier::STEPPED`] tier ticks every part
/// instead; the branch is resolved at compile time.
///
/// # Errors
///
/// Propagates the first part's simulation error.
pub fn advance<T: Tier>(tier: &mut T, deadline: u64) -> Result<(), SimError> {
    let b = tier.barrier();
    let parts = b.parts.len();
    b.stats.barriers += 1;
    if T::STEPPED {
        b.stats.wakes += parts as u64;
        // Every part ticks, so none is ever left behind.
        for i in b.armed.drain(..) {
            b.parts[i].due = None;
        }
        b.earliest = None;
        b.record(deadline);
        return (0..parts).try_for_each(|i| tier.tick(i, deadline));
    }
    // Skipping is a no-op only for a quiescent part: work that landed on
    // a part without an arm shows here, at the next barrier.
    #[cfg(debug_assertions)]
    for i in 0..parts {
        if tier.barrier().parts[i].due.is_none() {
            assert!(tier.next_tick(i).is_none(), "part {i} has work but is not armed");
        }
    }
    let b = tier.barrier();
    if b.earliest.is_none_or(|t| t > deadline) {
        // Nothing due, in O(1): the barrier only leaves the armed parts
        // behind.
        b.stats.skips += parts as u64;
        b.record(deadline);
        #[cfg(debug_assertions)]
        check_left_behind(tier, deadline);
        return Ok(());
    }
    let mut due = std::mem::take(&mut b.spare);
    let (armed, states) = (&b.armed, &b.parts);
    due.extend(armed.iter().filter(|&&i| states[i].due.is_some_and(|d| d <= deadline)));
    due.sort_unstable();
    let ticked = visit(tier, &due, deadline);
    let b = tier.barrier();
    b.record(deadline);
    let (states, mut earliest) = (&b.parts, None::<u64>);
    b.armed.retain(|&i| match states[i].due {
        Some(due) => {
            earliest = Some(earliest.map_or(due, |e| e.min(due)));
            true
        }
        None => false,
    });
    b.earliest = earliest;
    due.clear();
    b.spare = due;
    let ticked = ticked?;
    b.stats.wakes += ticked;
    b.stats.skips += parts as u64 - ticked;
    #[cfg(debug_assertions)]
    check_left_behind(tier, deadline);
    Ok(())
}

/// A part the barrier at `deadline` left behind is not due by it: its due
/// cycle was a lower bound on its next tick.
#[cfg(debug_assertions)]
fn check_left_behind<T: Tier>(tier: &mut T, deadline: u64) {
    for k in 0..tier.barrier().armed.len() {
        let i = tier.barrier().armed[k];
        if tier.barrier().lag(i).is_some() {
            let next = tier.next_tick(i);
            assert!(next.is_none_or(|t| t > deadline), "part {i} left behind due at {next:?}");
        }
    }
}

/// Ticks the `due` parts of `tier` (ascending) at `deadline`, after
/// revalidating and settling each; returns how many ticked.
fn visit<T: Tier>(tier: &mut T, due: &[usize], deadline: u64) -> Result<u64, SimError> {
    let mut ticked = 0;
    for &i in due {
        // An arm's due cycle is revalidated; one a tick or an earlier
        // revalidation left is exact, since nothing armed the part since.
        let next = match tier.barrier().parts[i].due {
            Some(0) => tier.next_tick(i),
            exact => exact,
        };
        if next.is_some_and(|t| t > deadline) {
            tier.barrier().parts[i].due = next;
            continue;
        }
        if next.is_none() {
            tier.barrier().parts[i].due = None;
            continue;
        }
        tier.tick(i, deadline)?;
        ticked += 1;
        let due = tier.next_tick(i);
        let b = tier.barrier();
        // Up to date with this barrier, which the caller records next.
        b.parts[i] = Part { due, seq: b.seq + 1 };
    }
    Ok(ticked)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Parts due at fixed cycles, each tick logged as `(part, deadline)`.
    struct Timed {
        barrier: Barrier,
        at: Vec<u64>,
        ticks: Vec<(usize, u64)>,
    }

    impl Tier for Timed {
        fn barrier(&mut self) -> &mut Barrier {
            &mut self.barrier
        }
        fn next_tick(&self, i: usize) -> Option<u64> {
            Some(self.at[i])
        }
        fn tick(&mut self, i: usize, deadline: u64) -> Result<(), SimError> {
            self.ticks.push((i, deadline));
            Ok(())
        }
    }

    #[test]
    fn only_due_parts_tick_in_part_order_and_the_rest_fall_behind() {
        let mut t = Timed { barrier: Barrier::new(4), at: vec![25, 5, 45, 15], ticks: Vec::new() };
        for i in [2, 0, 3, 1] {
            t.barrier.arm(i);
        }
        let mut lags = Vec::new();
        advance(&mut t, 10).unwrap();
        lags.push((0..4).map(|i| t.barrier.lag(i)).collect::<Vec<_>>());
        // The barrier at 10 ticked a part, so its due list has a buffer;
        // every later barrier fills that same buffer, allocating nothing.
        let kept = t.barrier.spare.as_ptr();
        for deadline in [20, 30, 40] {
            advance(&mut t, deadline).unwrap();
            lags.push((0..4).map(|i| t.barrier.lag(i)).collect::<Vec<_>>());
            assert_eq!(t.barrier.spare.as_ptr(), kept, "the due list reuses its buffer");
        }
        let ticks =
            [(1, 10), (1, 20), (3, 20), (0, 30), (1, 30), (3, 30), (0, 40), (1, 40), (3, 40)];
        assert_eq!(t.ticks, ticks, "due parts only, in part order");
        assert_eq!(t.barrier.stats, AdvanceStats { barriers: 4, wakes: 9, skips: 7 });
        // Part 3 missed only the barrier at 10 (a run to 0 is a no-op:
        // it may hold work newer than the one before), part 0 those at 10
        // and 20; part 2 (due at 45) is still behind.
        assert_eq!(lags[0], [Some([0, 10]), None, Some([0, 10]), Some([0, 10])]);
        assert_eq!(lags[1], [Some([10, 20]), None, Some([10, 20]), None]);
        assert_eq!(lags[3], [None, None, Some([30, 40]), None]);
        advance(&mut t, 50).unwrap();
        assert_eq!(t.ticks[9..], [(0, 50), (1, 50), (2, 50), (3, 50)]);
        assert_eq!(t.barrier.lag(2), None, "a ticked part is up to date");
        assert_eq!(t.barrier.spare.as_ptr(), kept, "four due parts fit the kept buffer");
    }

    #[test]
    fn stats_reconstruct_stepping_work() {
        let s = AdvanceStats { barriers: 3, wakes: 5, skips: 7 };
        assert_eq!(s.stepping_ticks(), 12);
    }
}
