//! Discrete-event advancement: the one place that knows how a barrier
//! works.
//!
//! Stepping a pool means touching every core at every barrier, so
//! simulation cost grows with `cycles × cores` even when most cores are
//! idle. The event engine inverts that: every tier that advances parts
//! at a barrier (a [`CorePool`](crate::CorePool) of engines, a serving
//! gateway of scheduler+engine pairs) implements [`Tier`] and carries one
//! [`Barrier`] — a [`WakeHeap`] (wake-time min-heap with a deterministic
//! tie-break on the part index), the [`AdvanceMode`] and the
//! [`AdvanceStats`] counters. [`advance`] then only ticks armed parts;
//! quiescent ones (no running job, no ready job, no pending arrival,
//! nothing queued above) are skipped entirely, and skipping them is
//! *provably* a state no-op, which is what keeps event-driven and
//! stepping runs byte-identical (see DESIGN.md §5.8).
//!
//! Cross-part couplings — a request landing on a core, a scheduler pump
//! from the serving gateway, a batch flush — are expressed as explicit
//! wake events via [`WakeHeap::arm`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// A wake-time min-heap over component indices with lazy invalidation:
/// [`WakeHeap::arm`] keeps the earliest wake per component, stale heap
/// entries are discarded on pop. Equal wake times break ties by
/// component index (lowest first), so pop order — and therefore any
/// merged trace stream produced by ticking in pop order — is fully
/// deterministic and independent of arm (registration) order.
#[derive(Debug, Default)]
pub struct WakeHeap {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    armed: Vec<Option<u64>>,
}

impl WakeHeap {
    /// A heap over `n` components, all disarmed.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { heap: BinaryHeap::new(), armed: vec![None; n] }
    }

    /// Number of registered components.
    #[must_use]
    pub fn components(&self) -> usize {
        self.armed.len()
    }

    /// Arms component `idx` to wake at `cycle`. An already-armed
    /// component keeps the earlier of the two wakes.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range component index.
    pub fn arm(&mut self, idx: usize, cycle: u64) {
        match self.armed[idx] {
            Some(t) if t <= cycle => {}
            _ => {
                self.armed[idx] = Some(cycle);
                self.heap.push(Reverse((cycle, idx)));
            }
        }
    }

    /// The wake cycle `idx` is armed for, if any.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range component index.
    #[must_use]
    pub fn armed(&self, idx: usize) -> Option<u64> {
        self.armed[idx]
    }

    /// The earliest `(wake, component)` pair, without disarming it.
    /// Discards stale heap entries as a side effect.
    pub fn next_wake(&mut self) -> Option<(u64, usize)> {
        while let Some(&Reverse((cycle, idx))) = self.heap.peek() {
            if self.armed[idx] == Some(cycle) {
                return Some((cycle, idx));
            }
            let _ = self.heap.pop();
        }
        None
    }

    /// Pops and disarms the earliest `(wake, component)` pair. Ties pop
    /// the lowest component index first.
    pub fn pop_next(&mut self) -> Option<(u64, usize)> {
        let (cycle, idx) = self.next_wake()?;
        let _ = self.heap.pop();
        self.armed[idx] = None;
        Some((cycle, idx))
    }

    /// Disarms and returns every armed component, in ascending component
    /// order — the order a stepping loop visits cores, which is what
    /// keeps merged trace streams byte-identical when several armed
    /// cores share one tracer.
    pub fn drain_armed(&mut self) -> Vec<usize> {
        let mut due: Vec<usize> = Vec::new();
        while let Some((_, idx)) = self.pop_next() {
            due.push(idx);
        }
        due.sort_unstable();
        due
    }
}

/// One tier whose parts (cores) advance together at barriers. Stacked
/// tiers share the [`Barrier`] of the lowest one, so a part is armed,
/// counted and skipped in exactly one place.
pub trait Tier {
    /// The tier's barrier bundle.
    fn barrier(&mut self) -> &mut Barrier;

    /// The next cycle part `i` can make progress, or `None` when it is
    /// quiescent (ticking it would not change any state). The value may
    /// lie in the past (a late-submitted arrival); it orders wakes, it
    /// does not gate them.
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
    /// Armed parts. Arms are conservative: [`advance`] revalidates each
    /// against [`Tier::next_tick`] and skips the quiescent ones for free.
    pub wake: WakeHeap,
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
            wake: WakeHeap::new(parts),
            mode: AdvanceMode::default(),
            stats: AdvanceStats::default(),
        }
    }

    /// The advance mode in effect.
    #[must_use]
    pub fn mode(&self) -> AdvanceMode {
        self.mode
    }

    /// Selects the advance mode. Stepping does not maintain the heap, so
    /// switching to [`AdvanceMode::EventDriven`] arms every part; the
    /// next barrier's revalidation drops the quiescent ones.
    pub fn set_mode(&mut self, mode: AdvanceMode) {
        self.mode = mode;
        if mode == AdvanceMode::EventDriven {
            for i in 0..self.wake.components() {
                self.wake.arm(i, 0);
            }
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
    let parts = b.wake.components();
    b.stats.barriers += 1;
    if b.mode == AdvanceMode::Stepping {
        b.stats.wakes += parts as u64;
        return (0..parts).try_for_each(|i| tier.tick(i, deadline));
    }
    let mut ticked = 0u64;
    for i in b.wake.drain_armed() {
        // Revalidate: an armed part may turn out quiescent. Ticking it
        // anyway would be harmless (a no-op), just wasted work.
        if tier.next_tick(i).is_none() {
            continue;
        }
        ticked += 1;
        tier.tick(i, deadline)?;
        if let Some(t) = tier.next_tick(i) {
            tier.barrier().wake.arm(i, t);
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
    fn arm_keeps_the_earliest_wake() {
        let mut h = WakeHeap::new(4);
        h.arm(2, 100);
        h.arm(2, 50);
        h.arm(2, 75); // later than the current arm: ignored
        assert_eq!(h.armed(2), Some(50));
        assert_eq!(h.pop_next(), Some((50, 2)));
        assert_eq!(h.pop_next(), None, "stale entries must not resurface");
    }

    #[test]
    fn equal_wakes_pop_in_stable_component_order() {
        // Registration order is adversarial: high indices armed first.
        let mut h = WakeHeap::new(5);
        for idx in [4usize, 1, 3, 0, 2] {
            h.arm(idx, 1_000);
        }
        let order: Vec<usize> = std::iter::from_fn(|| h.pop_next().map(|(_, i)| i)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4], "ties must break by component index");
    }

    #[test]
    fn pop_orders_by_wake_then_index() {
        let mut h = WakeHeap::new(4);
        h.arm(3, 10);
        h.arm(1, 20);
        h.arm(0, 10);
        h.arm(2, 5);
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| h.pop_next()).collect();
        assert_eq!(order, vec![(5, 2), (10, 0), (10, 3), (20, 1)]);
    }

    #[test]
    fn drain_returns_ascending_component_order_regardless_of_wakes() {
        let mut h = WakeHeap::new(6);
        h.arm(5, 1);
        h.arm(0, 9_999);
        h.arm(3, 42);
        assert_eq!(h.drain_armed(), vec![0, 3, 5]);
        assert_eq!(h.drain_armed(), Vec::<usize>::new(), "drain disarms everything");
        assert_eq!(h.next_wake(), None);
    }

    #[test]
    fn rearming_after_pop_works() {
        let mut h = WakeHeap::new(2);
        h.arm(0, 10);
        assert_eq!(h.pop_next(), Some((10, 0)));
        h.arm(0, 30);
        h.arm(1, 20);
        assert_eq!(h.pop_next(), Some((20, 1)));
        assert_eq!(h.pop_next(), Some((30, 0)));
    }

    #[test]
    fn stats_reconstruct_stepping_work() {
        let s = AdvanceStats { barriers: 3, wakes: 5, skips: 7 };
        assert_eq!(s.stepping_ticks(), 12);
    }
}
