//! Fleet routing: which gateway a request is steered to.
//!
//! The interesting policy is [`RoutePolicy::WeightCacheAware`]: tenants
//! get a *home* gateway from a consistent-hash ring (so tenant→gateway
//! affinity survives fleet growth with minimal reshuffling), and each
//! dispatch minimizes a per-gateway cost that the gateway itself quotes:
//! its modelled backlog ([`inca_serve::Gateway::modelled_backlog`]) plus
//! the LOAD_W reload cycles the request would pay there
//! ([`inca_serve::Gateway::reload_cost`]: zero when the tenant's program
//! is resident on the core the gateway would place it on). The router
//! keeps no residency model of its own. A tenant therefore sticks to
//! where its program is warm while the fleet is balanced, and only
//! migrates when another gateway's backlog advantage exceeds the cost of
//! re-streaming the program's instruction records over DMA.

/// Replicated ring points per gateway: enough that tenant homes spread
/// evenly across small fleets without making ring lookups expensive.
const RING_POINTS: usize = 16;

/// Pluggable fleet routing policy for a [`crate::Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutePolicy {
    /// Rotate over the gateways in id order, one submission per step.
    RoundRobin,
    /// Consistent-hash home with a cost function over each gateway's
    /// modelled backlog plus the LOAD_W reload cycles the request would
    /// pay there (see module docs). Ties prefer the shortest ring distance from the
    /// tenant's home, then the lowest gateway id.
    #[default]
    WeightCacheAware,
}

impl std::fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RoutePolicy::RoundRobin => "round-robin",
            RoutePolicy::WeightCacheAware => "weight-cache-aware",
        })
    }
}

/// SplitMix64 finalizer: a cheap, dependency-free, well-mixed 64-bit
/// hash. Deterministic across hosts, which is all the ring needs.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Cumulative routing counters (all deterministic), tallied for every
/// policy from the reload cost the admitting gateway quoted just before
/// it took the request — on a routed submit (after any shed cascade) and
/// on a steal alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Admitted submissions whose program was resident on the core the
    /// gateway would place them on (quoted reload cost 0).
    pub hits: u64,
    /// Admitted submissions that landed cold.
    pub misses: u64,
    /// Reload cycles quoted across all misses. A gateway's quote is the
    /// reload its scheduler will charge when placement and slot choice
    /// do not move before dispatch, so this tracks
    /// [`crate::Cluster::reload_cycles`] and is comparable across
    /// policies.
    pub miss_cycles: u64,
}

/// Mutable routing state (ring, round-robin cursor, counters).
#[derive(Debug)]
pub(crate) struct Router {
    policy: RoutePolicy,
    /// Consistent-hash ring: `(point, gateway)` sorted by point.
    ring: Vec<(u64, usize)>,
    /// `homes[tenant]`: the tenant's ring home, looked up at registration.
    homes: Vec<usize>,
    rr_next: usize,
    stats: RouteStats,
}

impl Router {
    pub(crate) fn new(policy: RoutePolicy, gateways: usize) -> Self {
        let mut ring = Vec::with_capacity(gateways * RING_POINTS);
        for g in 0..gateways {
            for r in 0..RING_POINTS {
                ring.push((mix64(((g as u64) << 32) | r as u64), g));
            }
        }
        ring.sort_unstable();
        Self { policy, ring, homes: Vec::new(), rr_next: 0, stats: RouteStats::default() }
    }

    pub(crate) fn policy(&self) -> RoutePolicy {
        self.policy
    }

    pub(crate) fn stats(&self) -> RouteStats {
        self.stats
    }

    /// Registers the next tenant, fixing its home gateway.
    pub(crate) fn add_tenant(&mut self) {
        self.homes.push(self.home(self.homes.len()));
    }

    /// The tenant's home gateway: first ring point at or after its hash.
    pub(crate) fn home(&self, tenant: usize) -> usize {
        let h = mix64(tenant as u64 ^ 0x517C_C1B7_2722_0A95);
        let i = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[i % self.ring.len()].1
    }

    /// Picks the gateway one submission of (registered) `tenant` is
    /// steered to first.
    /// `costs[g]` is gateway `g`'s modelled backlog plus its reload cost
    /// for `tenant`, in cycles.
    pub(crate) fn choose(&mut self, tenant: usize, costs: &[u64]) -> usize {
        let n = costs.len();
        debug_assert!(n > 0);
        match self.policy {
            RoutePolicy::RoundRobin => {
                let g = self.rr_next % n;
                self.rr_next = (self.rr_next + 1) % n;
                g
            }
            RoutePolicy::WeightCacheAware => {
                // The cheapest gateway, ties to the first in ring order
                // from the tenant's home.
                let home = self.homes[tenant];
                let ring = (home..n).chain(0..home);
                ring.min_by_key(|&g| costs[g]).expect("at least one gateway")
            }
        }
    }

    /// Counts one admitted submission whose gateway quoted `reload`
    /// cycles for it.
    pub(crate) fn note(&mut self, reload: u64) {
        if reload == 0 {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.stats.miss_cycles += reload;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates() {
        let mut r = Router::new(RoutePolicy::RoundRobin, 3);
        let picks: Vec<usize> = (0..5).map(|_| r.choose(0, &[0, 0, 0])).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn homes_are_deterministic_and_spread() {
        let r = Router::new(RoutePolicy::WeightCacheAware, 4);
        let homes: Vec<usize> = (0..64).map(|t| r.home(t)).collect();
        let again: Vec<usize> = (0..64).map(|t| r.home(t)).collect();
        assert_eq!(homes, again);
        for g in 0..4 {
            assert!(homes.contains(&g), "gateway {g} never a home over 64 tenants");
        }
    }

    #[test]
    fn warm_gateway_wins_until_backlog_exceeds_reload() {
        let mut r = Router::new(RoutePolicy::WeightCacheAware, 2);
        for _ in 0..8 {
            r.add_tenant();
        }
        // Equal costs go to the tenant's home.
        let home = r.choose(7, &[0, 0]);
        // The program is resident away from home: landing at home would
        // reload it for 1 000 cycles.
        let warm = 1 - home;
        let mut costs = [0u64; 2];
        costs[home] = 1_000;
        assert_eq!(r.choose(7, &costs), warm);
        // Backlog below the reload: still cheaper to stay warm.
        costs[warm] = 999;
        assert_eq!(r.choose(7, &costs), warm);
        // Backlog past the reload: reloading at home beats queueing.
        costs[warm] = 2_000;
        assert_eq!(r.choose(7, &costs), home);
    }
}
