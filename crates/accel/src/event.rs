//! Discrete-event advancement: the one place that knows how a barrier
//! works.
//!
//! Stepping a pool means touching every core at every barrier, so
//! simulation cost grows with `cycles × cores` even when most cores are
//! idle. The event engine inverts that: every tier that advances parts
//! at a barrier (a [`CorePool`](crate::CorePool) of engines, a serving
//! gateway of scheduler+engine pairs) implements [`Tier`] and carries one
//! [`Barrier`] — the set of armed parts, the [`AdvanceMode`] and the
//! [`AdvanceStats`] counters. [`advance`] then only ticks armed parts;
//! quiescent ones (no running job, no ready job, no pending arrival,
//! nothing queued above) are skipped entirely, and skipping them is
//! *provably* a state no-op, which is what keeps event-driven and
//! stepping runs byte-identical (see DESIGN.md §5.8).
//!
//! Cross-part couplings — a request landing on a core, a scheduler pump
//! from the serving gateway, a batch flush — are expressed as explicit
//! wake events via [`Barrier::arm`].

use crate::SimError;

/// How a pool (or gateway) advances its cores at each barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdvanceMode {
    /// Discrete-event: only armed components tick; quiescent cores are
    /// skipped. Byte-identical to [`AdvanceMode::Stepping`] on every
    /// deterministic artifact (outputs, traces, metrics, spans).
    #[default]
    EventDriven,
    /// The cycle-box legacy mode: every core is stepped to every
    /// barrier, exactly as the pre-event-engine code did.
    Stepping,
}

impl std::fmt::Display for AdvanceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EventDriven => write!(f, "event"),
            Self::Stepping => write!(f, "stepping"),
        }
    }
}

/// Counters of advancement work, for the events-vs-cycles accounting in
/// `fig_event_engine`. Deterministic: identical runs (and identical
/// hosts vs CI) produce identical stats. A stepping-mode barrier counts
/// every core as a wake (it really does visit them all); only the event
/// engine produces skips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceStats {
    /// Advance barriers processed (one per `run_until`-style call).
    pub barriers: u64,
    /// Component ticks actually executed.
    pub wakes: u64,
    /// Component ticks skipped because the component was quiescent
    /// (stepping mode would have executed these as no-ops).
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

/// The advance state of a [`Tier`]: which parts are armed, how barriers
/// visit them, and how much work that took.
#[derive(Debug)]
pub struct Barrier {
    /// `armed[i]`: part `i` is visited at the next barrier. Arms are
    /// conservative: [`advance`] revalidates each against
    /// [`Tier::next_tick`] and skips the quiescent ones for free.
    armed: Vec<bool>,
    /// The armed parts, in arm order: a barrier costs O(armed), and an
    /// idle one nothing, however many parts there are.
    due: Vec<usize>,
    mode: AdvanceMode,
    /// Work counters, in both modes (a stepping barrier counts every
    /// part as a wake; only the event engine produces skips).
    pub stats: AdvanceStats,
}

impl Barrier {
    /// A barrier over `parts` parts, all disarmed, in the default mode.
    #[must_use]
    pub fn new(parts: usize) -> Self {
        Self {
            armed: vec![false; parts],
            due: Vec::new(),
            mode: AdvanceMode::default(),
            stats: AdvanceStats::default(),
        }
    }

    /// Arms part `i` for the next barrier (idempotent).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range part index.
    pub fn arm(&mut self, i: usize) {
        if !std::mem::replace(&mut self.armed[i], true) {
            self.due.push(i);
        }
    }

    /// Disarms and returns every armed part, in ascending part order —
    /// the order a stepping loop visits cores, which is what keeps merged
    /// trace streams byte-identical when several armed cores share one
    /// tracer.
    pub fn drain_armed(&mut self) -> Vec<usize> {
        let mut due = std::mem::take(&mut self.due);
        due.sort_unstable();
        for &i in &due {
            self.armed[i] = false;
        }
        due
    }

    /// The advance mode in effect.
    #[must_use]
    pub fn mode(&self) -> AdvanceMode {
        self.mode
    }

    /// Selects the advance mode. Stepping does not maintain the armed
    /// set, so switching to [`AdvanceMode::EventDriven`] arms every part;
    /// the next barrier's revalidation drops the quiescent ones.
    pub fn set_mode(&mut self, mode: AdvanceMode) {
        self.mode = mode;
        if mode == AdvanceMode::EventDriven {
            (0..self.armed.len()).for_each(|i| self.arm(i));
        }
    }
}

/// One barrier: advances `tier` to `deadline`.
///
/// In [`AdvanceMode::EventDriven`] only armed parts tick, in ascending
/// part order — the order the stepping loop visits them, so merged
/// trace streams stay byte-identical when several parts share one
/// tracer — and each is re-armed from its own [`Tier::next_tick`]
/// afterwards. In [`AdvanceMode::Stepping`] every part ticks.
///
/// # Errors
///
/// Propagates the first part's simulation error.
pub fn advance<T: Tier>(tier: &mut T, deadline: u64) -> Result<(), SimError> {
    let b = tier.barrier();
    let parts = b.armed.len();
    b.stats.barriers += 1;
    if b.mode == AdvanceMode::Stepping {
        b.stats.wakes += parts as u64;
        return (0..parts).try_for_each(|i| tier.tick(i, deadline));
    }
    let mut ticked = 0u64;
    for i in b.drain_armed() {
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

    #[test]
    fn switching_to_event_driven_arms_every_part() {
        let mut b = Barrier::new(3);
        assert_eq!(b.mode(), AdvanceMode::EventDriven);
        b.set_mode(AdvanceMode::Stepping);
        assert_eq!(b.drain_armed(), Vec::<usize>::new(), "stepping does not use the set");
        b.set_mode(AdvanceMode::EventDriven);
        assert_eq!(b.drain_armed(), vec![0, 1, 2]);
    }

    #[test]
    fn stats_reconstruct_stepping_work() {
        let s = AdvanceStats { barriers: 3, wakes: 5, skips: 7 };
        assert_eq!(s.stepping_ticks(), 12);
    }
}
