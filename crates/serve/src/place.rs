//! Placement: which core a request (or batch) is dispatched to.

use inca_accel::CoreId;

/// Pluggable placement policy for the [`crate::Gateway`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacePolicy {
    /// Rotate over the cores in id order, one dispatch per step.
    RoundRobin,
    /// Pick the core with the least *modelled* backlog: the sum over its
    /// scheduler's tasks of `predicted_span × (queued + in-flight)` jobs,
    /// using the same analytical cost model admission uses. Ties go to
    /// the lowest core id.
    #[default]
    LeastLoaded,
    /// Stick each tenant to the first core it was placed on (chosen
    /// least-loaded), so its program stays resident and later dispatches
    /// skip the LOAD_W instruction-stream reload entirely.
    TenantAffinity,
}

impl std::fmt::Display for PlacePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlacePolicy::RoundRobin => "round-robin",
            PlacePolicy::LeastLoaded => "least-loaded",
            PlacePolicy::TenantAffinity => "tenant-affinity",
        })
    }
}

/// Mutable placement state (round-robin cursor, tenant→core stickiness).
#[derive(Debug)]
pub(crate) struct Placer {
    policy: PlacePolicy,
    rr_next: usize,
    affinity: Vec<Option<CoreId>>,
}

impl Placer {
    pub(crate) fn new(policy: PlacePolicy) -> Self {
        Self { policy, rr_next: 0, affinity: Vec::new() }
    }

    pub(crate) fn add_tenant(&mut self) {
        self.affinity.push(None);
    }

    /// The core [`Placer::place`] would pick for one dispatch of `tenant`
    /// right now, without recording the pick. `backlog(core)` is the
    /// modelled outstanding work on that core in cycles.
    pub(crate) fn peek(
        &self,
        tenant: usize,
        cores: usize,
        backlog: impl Fn(usize) -> u64,
    ) -> CoreId {
        debug_assert!(cores > 0);
        match self.policy {
            PlacePolicy::RoundRobin => CoreId(self.rr_next % cores),
            PlacePolicy::LeastLoaded => least_loaded(cores, backlog),
            // A sticky placement pointing past the active-core prefix (the
            // core was parked by an elastic shrink) is re-placed.
            PlacePolicy::TenantAffinity => match self.affinity[tenant] {
                Some(c) if c.0 < cores => c,
                _ => least_loaded(cores, backlog),
            },
        }
    }

    /// Picks a core for one dispatch of `tenant`: [`Placer::peek`], then
    /// the pick is recorded. Only its own policy reads each record — the
    /// cursor round-robin, the stickiness tenant affinity — so both are
    /// kept under every policy.
    pub(crate) fn place(
        &mut self,
        tenant: usize,
        cores: usize,
        backlog: impl Fn(usize) -> u64,
    ) -> CoreId {
        let c = self.peek(tenant, cores, backlog);
        self.rr_next = (c.0 + 1) % cores;
        self.affinity[tenant] = Some(c);
        c
    }
}

/// `min_by_key` keeps the first minimum: ties go to the lowest core.
fn least_loaded(cores: usize, backlog: impl Fn(usize) -> u64) -> CoreId {
    CoreId((0..cores).min_by_key(|&c| backlog(c)).expect("at least one core"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates() {
        let mut p = Placer::new(PlacePolicy::RoundRobin);
        p.add_tenant();
        let picks: Vec<usize> = (0..5).map(|_| p.place(0, 3, |_| 0).0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn least_loaded_breaks_ties_low() {
        let mut p = Placer::new(PlacePolicy::LeastLoaded);
        p.add_tenant();
        assert_eq!(p.place(0, 3, |_| 7), CoreId(0));
        assert_eq!(p.place(0, 3, |c| if c == 1 { 0 } else { 9 }), CoreId(1));
    }

    #[test]
    fn affinity_sticks_after_first_placement() {
        let mut p = Placer::new(PlacePolicy::TenantAffinity);
        p.add_tenant();
        p.add_tenant();
        // Tenant 0 lands on the (then) least-loaded core 2 and stays there
        // even when core 2 later becomes the busiest.
        assert_eq!(p.place(0, 3, |c| if c == 2 { 0 } else { 5 }), CoreId(2));
        assert_eq!(p.place(0, 3, |c| if c == 2 { 99 } else { 0 }), CoreId(2));
        // A different tenant is free to go elsewhere.
        assert_eq!(p.place(1, 3, |c| if c == 2 { 99 } else { 0 }), CoreId(0));
    }

    #[test]
    fn peek_is_the_next_place_and_records_nothing() {
        let backlog = |c: usize| [5, 0, 3][c];
        for policy in
            [PlacePolicy::RoundRobin, PlacePolicy::LeastLoaded, PlacePolicy::TenantAffinity]
        {
            let mut p = Placer::new(policy);
            p.add_tenant();
            p.add_tenant();
            // Three active cores, then an elastic shrink to one that parks
            // core 1, where tenant affinity stuck both tenants, then back.
            for (cores, sticky) in [(3, 1), (3, 1), (1, 0), (1, 0), (3, 0)] {
                for t in 0..2 {
                    let (rr_next, affinity) = (p.rr_next, p.affinity.clone());
                    let peeked = p.peek(t, cores, backlog);
                    assert_eq!((p.rr_next, &p.affinity), (rr_next, &affinity), "{policy}");
                    assert_eq!(peeked, p.place(t, cores, backlog), "{policy}, {cores} cores");
                }
                if policy == PlacePolicy::TenantAffinity {
                    assert_eq!(p.affinity, vec![Some(CoreId(sticky)); 2], "{cores} cores");
                }
            }
        }
    }
}
