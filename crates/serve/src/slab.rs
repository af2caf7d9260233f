//! A dense slab keyed by a monotonically issued id: what a gateway keeps
//! per core for the requests in flight on that core's scheduler, whose
//! job ids are handed out densely in admission order.

use std::collections::VecDeque;

/// Values keyed by ids that are inserted in increasing order and taken in
/// any order. Slot `i` holds id `base + i`; taking the oldest live id
/// advances `base` past every vacated slot, so the slab spans only the
/// ids from the oldest live one to the newest and its memory stays flat
/// while ids keep growing.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self { base: 0, slots: VecDeque::new() }
    }
}

impl<T> Slab<T> {
    /// Stores `value` under `id`, which must exceed every id inserted
    /// before (skipped ids stay vacant).
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let next = self.base + self.slots.len() as u64;
        assert!(id >= next, "slab ids are inserted in increasing order");
        self.slots.resize_with((id - self.base) as usize, || None);
        self.slots.push_back(Some(value));
    }

    /// Removes and returns the value under `id`; `None` for an id never
    /// inserted or already taken.
    pub(crate) fn take(&mut self, id: u64) -> Option<T> {
        let at = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let value = self.slots.get_mut(at)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        value
    }

    /// Slots spanned, vacant ones included.
    #[cfg(test)]
    fn span(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_takes_across_a_gap_leave_nothing_behind() {
        let mut slab = Slab::default();
        // Ids 10..=14 and 17..=19: 15 and 16 were never issued here.
        let ids: Vec<u64> = (10..15).chain(17..20).collect();
        for &id in &ids {
            slab.insert(id, id * 100);
        }
        assert_eq!(slab.span(), 10);
        assert_eq!(slab.take(9), None, "below the oldest id");
        assert_eq!(slab.take(15), None, "inside the gap");
        assert_eq!(slab.take(20), None, "past the newest id");
        for id in [12, 19, 10, 17, 14, 11, 18, 13] {
            assert_eq!(slab.take(id), Some(id * 100), "id {id}");
            assert_eq!(slab.take(id), None, "id {id} is stale once taken");
        }
        assert_eq!(slab.span(), 0, "the last take empties the slab");
        // It keeps working past the drained range without growing.
        for round in 0..1_000u64 {
            let id = 20 + round;
            slab.insert(id, id);
            assert_eq!(slab.take(id), Some(id));
            assert_eq!(slab.span(), 0);
        }
    }
}
