//! The [`Cluster`]: N serving gateways behind one router, advanced on a
//! single virtual clock.
//!
//! Every coordination decision — routing, shed cascades, work stealing,
//! elastic resizing, the idle-gateway skip rule — is a pure function of
//! cycle-domain state (outstanding counts, pending batches, cumulative
//! busy cycles), so a cluster run is byte-identical across repeat runs,
//! functional-backend thread counts and advance modes, exactly like the
//! single gateway underneath it.

use std::sync::Arc;

use inca_accel::{analysis, AdvanceStats, Backend, CoreId, SimError};
use inca_isa::{Program, TASK_SLOTS};
use inca_obs::Metrics;
use inca_obs::TimeSeries;
use inca_runtime::reload_penalty;
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

/// Elastic core-pool scaling policy, evaluated per gateway at every
/// cluster barrier from queue-depth and utilization telemetry (both
/// cycle-domain, so resizing never perturbs determinism). Grow unparks
/// one core when the queue runs hot; shrink parks one when the queue is
/// short *and* the active prefix is mostly idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticConfig {
    /// Unpark one core when `outstanding + pending > grow_above ×
    /// active_cores`.
    pub grow_above: u64,
    /// Park one core when `outstanding + pending < shrink_below ×
    /// active_cores` (and utilization also allows it).
    pub shrink_below: u64,
    /// Additionally require cumulative busy-fraction of the active
    /// prefix below this many permille before parking.
    pub shrink_util_permille: u64,
    /// Never park below this many active cores.
    pub min_cores: usize,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        Self { grow_above: 4, shrink_below: 1, shrink_util_permille: 300, min_cores: 1 }
    }
}

/// Per-network routing model: the modelled reload charge of a cold
/// LOAD_W and the analytical service span, both from the paper's
/// closed-form cost model.
#[derive(Debug)]
struct NetModel {
    program: Arc<Program>,
    /// [`reload_penalty`] — DMA cycles to re-stream the instruction
    /// records on a weight-cache miss.
    reload: u64,
    /// [`analysis::predicted_span`] — uncontended service cycles.
    span: u64,
}

/// N serving gateways fronted by one router on one virtual clock (see
/// module docs). Tenants are registered on **every** gateway in the
/// same order, so a tenant's [`TenantId`] — and its backend rebind
/// context id — is identical fleet-wide.
#[derive(Debug)]
pub struct Cluster<B: Backend> {
    gateways: Vec<Gateway<B>>,
    nets: Vec<NetModel>,
    /// `tenant_net[tenant]` — the tenant's network (program) index.
    tenant_net: Vec<usize>,
    /// `tenant_ids[tenant]` — the fleet-wide id, identical per gateway.
    tenant_ids: Vec<TenantId>,
    router: Router,
    elastic: Option<ElasticConfig>,
    /// Max batched requests recalled per steal; 0 disables stealing.
    steal_batch: usize,
    stolen: u64,
    cascades: u64,
    resizes: u64,
    now: u64,
    /// Cluster-level advance telemetry: one barrier per `run_until`,
    /// one wake per gateway visited, one skip per idle gateway whose
    /// advance was provably a no-op.
    stats: AdvanceStats,
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
            nets: Vec::new(),
            tenant_net: Vec::new(),
            tenant_ids: Vec::new(),
            router: Router::new(route, n),
            elastic: None,
            steal_batch: 0,
            stolen: 0,
            cascades: 0,
            resizes: 0,
            now: 0,
            stats: AdvanceStats::default(),
        }
    }

    /// The routing policy in use.
    #[must_use]
    pub fn route_policy(&self) -> RoutePolicy {
        self.router.policy()
    }

    /// Cumulative router hit/miss counters (modelled reload cycles).
    #[must_use]
    pub fn route_stats(&self) -> RouteStats {
        self.router.stats()
    }

    /// Enables (or disables, with `None`) elastic core-pool scaling.
    pub fn set_elastic(&mut self, cfg: Option<ElasticConfig>) {
        self.elastic = cfg;
    }

    /// Enables cross-gateway work stealing for best-effort lanes: at
    /// every cluster barrier, each idle gateway recalls up to `max`
    /// pending batched requests from the most backlogged gateway and
    /// re-submits them locally. `0` disables stealing.
    pub fn set_steal_batch(&mut self, max: usize) {
        self.steal_batch = max;
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

    /// Enables cycle-domain timeline sampling on every gateway (same
    /// interval and capacity), for [`Cluster::take_fleet_timeline`].
    pub fn enable_timeline(&mut self, interval: u64, capacity: usize) {
        for gw in &mut self.gateways {
            gw.enable_timeline(interval, capacity);
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
    /// tracers); mutating serving state mid-run voids the cluster's
    /// routing model.
    #[must_use]
    pub fn gateway_mut(&mut self, g: GatewayId) -> &mut Gateway<B> {
        &mut self.gateways[g.0]
    }

    /// Registers a tenant on **every** gateway; the returned id (and
    /// its rebind context id) is valid fleet-wide.
    pub fn register(&mut self, spec: TenantSpec) -> TenantId {
        let net = match self.nets.iter().position(|m| Arc::ptr_eq(&m.program, &spec.program)) {
            Some(i) => i,
            None => {
                let cfg = *self.gateways[0].pool().core(CoreId(0)).config();
                self.nets.push(NetModel {
                    program: Arc::clone(&spec.program),
                    reload: reload_penalty(&cfg, &spec.program),
                    span: analysis::predicted_span(&cfg, &spec.program).max(1),
                });
                self.nets.len() - 1
            }
        };
        self.tenant_net.push(net);
        let mut id = None;
        for gw in &mut self.gateways {
            let tid = gw.register(spec.clone());
            debug_assert_eq!(tid.index() + 1, self.tenant_net.len(), "tenant ids stay aligned");
            id = Some(tid);
        }
        let id = id.expect("a cluster has at least one gateway");
        self.tenant_ids.push(id);
        id
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenant_net.len()
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
        self.gateways
            .iter()
            .map(|gw| {
                (0..gw.pool().cores()).map(|c| gw.scheduler(CoreId(c)).reload_cycles()).sum::<u64>()
            })
            .sum()
    }

    /// Actual LOAD_W reload **count** fleet-wide (same tap as
    /// [`Cluster::reload_cycles`], in events instead of cycles).
    #[must_use]
    pub fn reloads(&self) -> u64 {
        self.gateways
            .iter()
            .map(|gw| {
                (0..gw.pool().cores()).map(|c| gw.scheduler(CoreId(c)).reloads()).sum::<u64>()
            })
            .sum()
    }

    /// Gateway `g`'s modelled backlog in cycles: every outstanding
    /// request charged its network's analytical span.
    fn modelled_load(&self, g: usize) -> u64 {
        let gw = &self.gateways[g];
        self.tenant_ids
            .iter()
            .zip(&self.tenant_net)
            .map(|(&t, &net)| gw.stats(t).outstanding() * self.nets[net].span)
            .sum()
    }

    /// The router's residency capacity for gateway `g`: active cores ×
    /// hardware task slots.
    fn residency_cap(&self, g: usize) -> usize {
        self.gateways[g].active_cores() * TASK_SLOTS
    }

    /// Submits one request of `tenant` at cycle `now`, routed by the
    /// cluster policy. On a shed or rejection, the submission cascades
    /// deterministically through the remaining gateways in ring order;
    /// only when **every** gateway refuses does the cluster return the
    /// last refusal. Returns the gateway that admitted the request.
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
        let t = tenant.index();
        let net = self.tenant_net[t];
        let penalty = self.nets[net].reload;
        let n = self.gateways.len();
        let loads: Vec<u64> = (0..n).map(|g| self.modelled_load(g)).collect();
        let first = self.router.choose(t, net, penalty, &loads);
        let mut refusal = ShedReason::QueueFull;
        for k in 0..n {
            let g = (first + k) % n;
            if k > 0 {
                self.cascades += 1;
            }
            match self.gateways[g].submit(now, tenant) {
                Ok(acc) => {
                    let cap = self.residency_cap(g);
                    self.router.note(g, net, penalty, cap);
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
        if let Some(cfg) = self.elastic {
            for gw in &mut self.gateways {
                let active = gw.active_cores();
                let q = gw.outstanding() + gw.pending_batched() as u64;
                if q > cfg.grow_above * active as u64 && active < gw.pool().cores() {
                    gw.set_active_cores(active + 1);
                    self.resizes += 1;
                } else if active > cfg.min_cores.max(1)
                    && q < cfg.shrink_below * active as u64
                    && Self::busy_permille(gw, active) < cfg.shrink_util_permille
                {
                    gw.set_active_cores(active - 1);
                    self.resizes += 1;
                }
            }
        }
        if self.steal_batch > 0 {
            self.steal_pass();
        }
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
    /// on both sides.
    fn steal_pass(&mut self) {
        let n = self.gateways.len();
        let now = self.now;
        for thief in 0..n {
            if self.gateways[thief].outstanding() > 0 {
                continue;
            }
            let Some(victim) = (0..n)
                .filter(|&g| g != thief && self.gateways[g].pending_batched() > 0)
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
            let recalled = self.gateways[victim].recall_batched(self.steal_batch);
            for t in recalled {
                self.stolen += 1;
                let net = self.tenant_net[t.index()];
                let penalty = self.nets[net].reload;
                if self.gateways[thief].submit(now, t).is_ok() {
                    let cap = self.residency_cap(thief);
                    self.router.note(thief, net, penalty, cap);
                }
            }
        }
    }

    /// One fleet barrier (rebalance, skip rule, counters — see
    /// [`Cluster::run_until`]); `run` advances one gateway.
    fn fleet_barrier(
        &mut self,
        mut run: impl FnMut(&mut Gateway<B>) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        self.rebalance();
        self.stats.barriers += 1;
        for gw in &mut self.gateways {
            if gw.outstanding() == 0 && gw.pending_batched() == 0 {
                self.stats.skips += 1;
                continue;
            }
            self.stats.wakes += 1;
            run(gw)?;
        }
        Ok(())
    }

    /// The per-gateway state whose change means a barrier made progress.
    fn progress(&self) -> Vec<(u64, usize, u64)> {
        self.gateways.iter().map(|gw| (gw.outstanding(), gw.pending_batched(), gw.now())).collect()
    }

    /// Advances the whole fleet to `deadline`: one rebalance pass
    /// (elastic + stealing), then every gateway runs to the barrier in
    /// ascending id order. A gateway with nothing outstanding and
    /// nothing batched is **skipped entirely** — the fleet extension of
    /// the per-core skip rule of [`inca_accel::event::advance`], but
    /// purely cycle-domain in *both* advance modes, so the skip schedule
    /// (and everything downstream, [`Cluster::advance_stats`] included)
    /// is identical across advance modes and thread counts.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_until(&mut self, deadline: u64) -> Result<(), SimError> {
        self.fleet_barrier(|gw| gw.run_until(deadline))?;
        // As in `Gateway::run_until`, `u64::MAX` is "no cap", not a cycle.
        if deadline != u64::MAX {
            self.now = self.now.max(deadline);
        }
        Ok(())
    }

    /// Runs until every admitted request completed fleet-wide (or
    /// nothing can make progress), capped at `max_cycles`. Loops
    /// because stealing and cascades can hand work to a gateway after
    /// its own pass finished.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_to_idle(&mut self, max_cycles: u64) -> Result<(), SimError> {
        loop {
            let before = self.progress();
            self.fleet_barrier(|gw| gw.run_to_idle(max_cycles))?;
            self.now = self.now();
            if self.outstanding() == 0 && self.pending_batched() == 0 {
                return Ok(());
            }
            if before == self.progress() {
                // Wedged fleet-wide: no barrier, steal or cascade can
                // serve what remains within the cap.
                return Ok(());
            }
        }
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

    /// The fleet timeline: every gateway's series union-aligned and
    /// merged into one (core and tenant column groups renumbered per
    /// gateway — gateway `g`'s tenant `t` appears as group `g × tenants
    /// + t`). `Ok(None)` when timelines are disabled.
    ///
    /// # Errors
    ///
    /// [`TimeSeries::merge`]'s message when gateways were given mismatched
    /// sampling intervals through [`Cluster::gateway_mut`]
    /// ([`Cluster::enable_timeline`] always configures them uniformly).
    pub fn take_fleet_timeline(&mut self, name: &str) -> Result<Option<TimeSeries>, String> {
        let mut acc: Option<TimeSeries> = None;
        for (g, gw) in self.gateways.iter_mut().enumerate() {
            let Some(series) = gw.take_timeline(&format!("gw{g}")) else { return Ok(None) };
            acc = Some(match acc {
                None => series,
                Some(a) => a.merge(&series)?,
            });
        }
        Ok(acc.map(|mut s| {
            s.name = name.to_owned();
            s
        }))
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
        m.inc("cluster.tenants", self.tenant_net.len() as u64);
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
