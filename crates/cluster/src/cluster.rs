//! The [`Cluster`]: N serving gateways behind one router, advanced on a
//! single virtual clock.
//!
//! Every coordination decision — routing, shed cascades, work stealing,
//! elastic resizing, which gateways a barrier visits — is a pure function
//! of cycle-domain state (outstanding counts, pending batches, cumulative
//! busy cycles, due cycles), so a cluster run is byte-identical across
//! repeat runs, functional-backend thread counts and the stepping
//! reference, exactly like the single gateway underneath it. A barrier
//! visits only the gateways with something due by it; the visits decide
//! how much work a barrier does, never what it does, so only
//! [`Cluster::advance_stats`] differs on the reference.

use inca_accel::{AdvanceStats, Backend, CoreId, SimError};
use inca_obs::Metrics;
use inca_runtime::Scheduler;
use inca_serve::{Accepted, Gateway, Response, ShedReason, TenantId, TenantSpec, TenantStats};

use crate::route::{RoutePolicy, RouteStats, Router};

/// Identifies one gateway in a [`Cluster`], in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GatewayId(pub usize);

impl GatewayId {
    /// Gateway index within the cluster.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for GatewayId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gw{}", self.0)
    }
}

// Rebalance thresholds (see `Cluster::set_rebalance`). They compare
// cycle-domain state only, so resizing and stealing never perturb
// determinism.
const GROW_ABOVE: u64 = 4;
const SHRINK_BELOW: u64 = 1;
const SHRINK_UTIL_PERMILLE: u64 = 300;
const STEAL_BATCH: usize = 2;

/// N serving gateways fronted by one router on one virtual clock (see
/// module docs). Tenants are registered on **every** gateway in the
/// same order, so a tenant's [`TenantId`] — and its backend rebind
/// context id — is identical fleet-wide.
#[derive(Debug)]
pub struct Cluster<B: Backend> {
    gateways: Vec<Gateway<B>>,
    router: Router,
    /// Elastic scaling and work stealing at every barrier.
    rebalance: bool,
    stolen: u64,
    cascades: u64,
    resizes: u64,
    now: u64,
    /// Cluster-level advance telemetry: one barrier per `run_until`,
    /// one wake per gateway visited, one skip per idle gateway whose
    /// advance was provably a no-op.
    stats: AdvanceStats,
    /// `submit`'s per-gateway quotes — reload cost and total cost — in
    /// buffers reused across calls.
    reloads: Vec<u64>,
    costs: Vec<u64>,
    /// `steal_pass`'s idle flags per gateway, in a buffer reused across
    /// barriers.
    idle: Vec<bool>,
}

impl<B: Backend> Cluster<B> {
    /// Builds a cluster over `gateways` (at least one), routing with
    /// `route`.
    ///
    /// # Panics
    ///
    /// Panics on an empty gateway list or when any gateway already has
    /// tenants registered (the cluster owns fleet-wide registration to
    /// keep tenant ids aligned).
    #[must_use]
    pub fn new(gateways: Vec<Gateway<B>>, route: RoutePolicy) -> Self {
        assert!(!gateways.is_empty(), "a cluster needs at least one gateway");
        for gw in &gateways {
            assert_eq!(gw.tenant_count(), 0, "register tenants through the cluster");
        }
        let n = gateways.len();
        Self {
            gateways,
            router: Router::new(route, n),
            rebalance: false,
            stolen: 0,
            cascades: 0,
            resizes: 0,
            now: 0,
            stats: AdvanceStats::default(),
            reloads: Vec::with_capacity(n),
            costs: Vec::with_capacity(n),
            idle: Vec::new(),
        }
    }

    /// The routing policy in use.
    #[must_use]
    pub fn route_policy(&self) -> RoutePolicy {
        self.router.policy()
    }

    /// Cumulative router hit/miss counters: the reload cost each admitting
    /// gateway quoted for the request it took.
    #[must_use]
    pub fn route_stats(&self) -> RouteStats {
        self.router.stats()
    }

    /// Turns fleet rebalancing on or off (off by default). When on, every
    /// cluster barrier first runs elastic core-pool scaling — each gateway
    /// unparks one core when its queue exceeds 4 requests per active core,
    /// and parks one (never the last) when the queue is under 1 per active
    /// core and the active prefix was busy under 30 % of the time — and
    /// then cross-gateway work stealing: each idle gateway recalls up to 2
    /// pending batched best-effort requests from the most backlogged
    /// gateway and re-submits them locally.
    pub fn set_rebalance(&mut self, on: bool) {
        self.rebalance = on;
    }

    /// Sets the batch window on every gateway.
    pub fn set_batch_window(&mut self, cycles: u64) {
        for gw in &mut self.gateways {
            gw.set_batch_window(cycles);
        }
    }

    /// Sets the maximum batch size on every gateway.
    pub fn set_max_batch(&mut self, n: usize) {
        for gw in &mut self.gateways {
            gw.set_max_batch(n);
        }
    }

    /// Number of gateways.
    #[must_use]
    pub fn gateway_count(&self) -> usize {
        self.gateways.len()
    }

    /// One gateway (inspection).
    #[must_use]
    pub fn gateway(&self, g: GatewayId) -> &Gateway<B> {
        &self.gateways[g.0]
    }

    /// One gateway, mutable. Intended for setup (context images,
    /// tracers). The router keeps no model of a gateway — it asks each
    /// one for its backlog and reload cost at every submit — so a change
    /// made here is priced from the next submit on.
    #[must_use]
    pub fn gateway_mut(&mut self, g: GatewayId) -> &mut Gateway<B> {
        &mut self.gateways[g.0]
    }

    /// Registers a tenant on **every** gateway; the returned id (and
    /// its rebind context id) is valid fleet-wide.
    pub fn register(&mut self, spec: TenantSpec) -> TenantId {
        let mut ids = self.gateways.iter_mut().map(|gw| gw.register(spec.clone()));
        let id = ids.next().expect("a cluster has at least one gateway");
        for other in ids {
            debug_assert_eq!(other, id, "tenant ids stay aligned");
        }
        self.router.add_tenant();
        id
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.gateways[0].tenant_count()
    }

    /// The cluster clock: the latest cycle seen across submissions and
    /// runs.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.gateways.iter().map(Gateway::now).fold(self.now, u64::max)
    }

    /// Lifetime counters summed over all tenants on all gateways. A
    /// request re-routed by a shed cascade or a steal counts once per
    /// gateway it visited, so the per-gateway conservation laws hold on
    /// this sum verbatim.
    #[must_use]
    pub fn totals(&self) -> TenantStats {
        let mut t = TenantStats::default();
        for gw in &self.gateways {
            t.add(&gw.totals());
        }
        t
    }

    /// Requests admitted but not yet completed, dropped or skipped,
    /// fleet-wide.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.gateways.iter().map(Gateway::outstanding).sum()
    }

    /// Requests sitting in batch buffers fleet-wide.
    #[must_use]
    pub fn pending_batched(&self) -> usize {
        self.gateways.iter().map(Gateway::pending_batched).sum()
    }

    /// Best-effort requests migrated by work stealing so far.
    #[must_use]
    pub fn stolen(&self) -> u64 {
        self.stolen
    }

    /// Fallback submissions attempted by shed cascades so far.
    #[must_use]
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Elastic park/unpark operations so far.
    #[must_use]
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Cluster-level advance telemetry (gateway visits vs skips).
    #[must_use]
    pub fn advance_stats(&self) -> AdvanceStats {
        self.stats
    }

    /// **Actual** reload cycles charged by every scheduler on every
    /// core fleet-wide — the ground-truth weight-cache tap the
    /// `fig_cluster` bench gates routing policies on.
    #[must_use]
    pub fn reload_cycles(&self) -> u64 {
        self.schedulers().map(Scheduler::reload_cycles).sum()
    }

    /// Actual LOAD_W reload **count** fleet-wide (same tap as
    /// [`Cluster::reload_cycles`], in events instead of cycles).
    #[must_use]
    pub fn reloads(&self) -> u64 {
        self.schedulers().map(Scheduler::reloads).sum()
    }

    /// Every core's scheduler, fleet-wide.
    fn schedulers(&self) -> impl Iterator<Item = &Scheduler> {
        self.gateways.iter().flat_map(|gw| gw.pool().core_ids().map(|c| gw.scheduler(c)))
    }

    /// Submits one request of `tenant` at cycle `now`, routed by the
    /// cluster policy over each gateway's [`Gateway::modelled_backlog`]
    /// plus its [`Gateway::reload_cost`] for `tenant`. On a shed or
    /// rejection, the submission cascades deterministically through the
    /// remaining gateways in ring order; only when **every** gateway
    /// refuses does the cluster return the last refusal. Returns the
    /// gateway that admitted the request.
    ///
    /// # Errors
    ///
    /// The final [`ShedReason`] after a full cascade.
    pub fn submit(
        &mut self,
        now: u64,
        tenant: TenantId,
    ) -> Result<(GatewayId, Accepted), ShedReason> {
        self.now = self.now.max(now);
        let now = self.now;
        let n = self.gateways.len();
        // Quoted before any submit: a refusal on one gateway leaves the
        // others' quotes standing.
        self.reloads.clear();
        self.reloads.extend(self.gateways.iter().map(|gw| gw.reload_cost(tenant)));
        self.costs.clear();
        self.costs.extend(
            self.gateways.iter().zip(&self.reloads).map(|(gw, r)| gw.modelled_backlog() + r),
        );
        let first = self.router.choose(tenant.index(), &self.costs);
        let mut refusal = ShedReason::QueueFull;
        for k in 0..n {
            let g = (first + k) % n;
            if k > 0 {
                self.cascades += 1;
            }
            match self.gateways[g].submit(now, tenant) {
                Ok(acc) => {
                    self.router.note(self.reloads[g]);
                    return Ok((GatewayId(g), acc));
                }
                Err(e) => refusal = e,
            }
        }
        Err(refusal)
    }

    /// One elastic + stealing pass over the fleet; pure cycle-domain
    /// state, evaluated at every cluster barrier before any gateway
    /// advances.
    fn rebalance(&mut self) {
        if !self.rebalance {
            return;
        }
        for gw in &mut self.gateways {
            let active = gw.active_cores();
            let q = gw.outstanding() + gw.pending_batched() as u64;
            if q > GROW_ABOVE * active as u64 && active < gw.pool().cores() {
                gw.set_active_cores(active + 1);
                self.resizes += 1;
            } else if active > 1
                && q < SHRINK_BELOW * active as u64
                && Self::busy_permille(gw, active) < SHRINK_UTIL_PERMILLE
            {
                gw.set_active_cores(active - 1);
                self.resizes += 1;
            }
        }
        self.steal_pass();
    }

    /// Cumulative busy-fraction of the active core prefix, in permille.
    fn busy_permille(gw: &Gateway<B>, active: usize) -> u64 {
        let elapsed = gw.pool().now();
        if elapsed == 0 {
            return 0;
        }
        let busy: u64 = (0..active).map(|c| gw.pool().busy_cycles(CoreId(c))).sum();
        busy * 1000 / (elapsed * active as u64)
    }

    /// Idle gateways recall batched best-effort work from the most
    /// backlogged gateway (ties to the lowest id) and re-submit it
    /// locally. The victim counts each recalled request as dropped
    /// (migrated), the thief as freshly submitted — conservation holds
    /// on both sides. Thieves are the gateways idle when the pass starts
    /// and victims the others, so a robbed victim never turns thief and
    /// a stolen request moves at most once per pass.
    fn steal_pass(&mut self) {
        let n = self.gateways.len();
        let now = self.now;
        let mut idle = std::mem::take(&mut self.idle);
        idle.clear();
        idle.extend(self.gateways.iter().map(|gw| gw.outstanding() == 0));
        for thief in (0..n).filter(|&g| idle[g]) {
            let Some(victim) = (0..n)
                .filter(|&g| !idle[g] && self.gateways[g].pending_batched() > 0)
                .max_by(|&a, &b| {
                    self.gateways[a]
                        .pending_batched()
                        .cmp(&self.gateways[b].pending_batched())
                        // On equal backlog prefer the *lower* id: max_by
                        // keeps the later element on Equal, so flip.
                        .then(b.cmp(&a))
                })
            else {
                continue;
            };
            let recalled = self.gateways[victim].recall_batched(STEAL_BATCH);
            for t in recalled {
                self.stolen += 1;
                let reload = self.gateways[thief].reload_cost(t);
                if self.gateways[thief].submit(now, t).is_ok() {
                    self.router.note(reload);
                }
            }
        }
        self.idle = idle;
    }

    /// Advances the whole fleet to `deadline`: one rebalance pass
    /// (elastic + stealing), then every gateway with work outstanding
    /// (batched requests are outstanding) runs to the barrier in
    /// ascending id order. A gateway with nothing outstanding is
    /// quiescent and **skipped entirely**; one with nothing due by the
    /// deadline ([`Gateway::next_due`]: a core's due cycle, a batch flush,
    /// a timeline boundary) is skipped too — its
    /// [`Gateway::run_until`] only records the barrier, in O(1), and its
    /// cores catch up when they are next due. [`Cluster::advance_stats`]
    /// counts the gateways visited and skipped: it measures simulator
    /// work, so a fleet of [`Stepped`](inca_accel::Stepped) gateways, which
    /// visits every gateway with work outstanding, counts more visits.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_until(&mut self, deadline: u64) -> Result<(), SimError> {
        self.rebalance();
        self.stats.barriers += 1;
        for gw in &mut self.gateways {
            let busy = gw.outstanding() > 0;
            let due = busy && gw.next_due().is_some_and(|t| t <= deadline);
            self.stats.wakes += u64::from(due);
            self.stats.skips += u64::from(!due);
            if busy {
                gw.run_until(deadline)?;
            }
        }
        // As in `Gateway::run_until`, `u64::MAX` is "no cap", not a cycle.
        if deadline != u64::MAX {
            self.now = self.now.max(deadline);
        }
        Ok(())
    }

    /// Runs until every admitted request completed fleet-wide (or
    /// nothing can make progress), capped at `max_cycles`: that is
    /// [`Cluster::run_until`]`(max_cycles)`, since every gateway it
    /// visits fires each flush up to the cap and runs its cores to it.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_to_idle(&mut self, max_cycles: u64) -> Result<(), SimError> {
        self.run_until(max_cycles)
    }

    /// Takes every response produced since the last drain, gateway by
    /// gateway in id order (deterministic).
    pub fn drain_responses(&mut self) -> Vec<(GatewayId, Response)> {
        let mut out = Vec::new();
        for (g, gw) in self.gateways.iter_mut().enumerate() {
            out.extend(gw.drain_responses().into_iter().map(|r| (GatewayId(g), r)));
        }
        out
    }

    /// A deterministic metrics snapshot: fleet-level `cluster.*`
    /// counters plus every gateway's own metrics under `cluster.gwN.`.
    /// The cluster-level `cluster.event.*` keys (like the gateway's
    /// `event.*`) measure simulator work and are mode-dependent by
    /// design; differential suites strip them.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.inc("cluster.gateways", self.gateways.len() as u64);
        m.inc("cluster.tenants", self.tenant_count() as u64);
        self.totals().write_metrics(&mut m, "cluster.");
        let rs = self.router.stats();
        m.inc("cluster.route.hits", rs.hits);
        m.inc("cluster.route.misses", rs.misses);
        m.inc("cluster.route.miss_cycles", rs.miss_cycles);
        m.inc("cluster.route.cascades", self.cascades);
        m.inc("cluster.steal.recalled", self.stolen);
        m.inc("cluster.elastic.resizes", self.resizes);
        m.inc("cluster.reload_cycles", self.reload_cycles());
        m.inc("cluster.event.barriers", self.stats.barriers);
        m.inc("cluster.event.wakes", self.stats.wakes);
        m.inc("cluster.event.skips", self.stats.skips);
        for (g, gw) in self.gateways.iter().enumerate() {
            m.absorb(&format!("cluster.gw{g}."), &gw.metrics());
        }
        m
    }
}
