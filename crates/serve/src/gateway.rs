//! The serving gateway: admission → batching → placement → per-core
//! slot-virtualizing schedulers over a [`CorePool`].
//!
//! The gateway is fully deterministic: every timestamp is a virtual
//! cycle, submissions happen at caller-controlled cycles, and the run
//! loop interleaves batch flushes and core advancement in a fixed order.
//! Running the same request schedule twice produces byte-identical
//! responses, traces and metrics.

use std::sync::Arc;

use inca_accel::{event, AdvanceStats, Backend, Barrier, CoreId, CorePool, SimError, Tier};
use inca_obs::{
    request_detail, CoreObs, Histogram, Metrics, Observation, Probe, Sampler, SpanStage, TenantObs,
    TimeSeries, TraceEvent, Violation,
};
use inca_runtime::{DropPolicy, SchedCompletion, SchedPolicy, Scheduler, TaskId, TaskSpec};

use crate::place::{PlacePolicy, Placer};
use crate::slab::Slab;
use crate::{Lane, RequestId, Response, ShedReason, TenantId, TenantSpec, TenantStats};

/// Default batch window: how long the first request of a batch waits for
/// company before the batch is flushed, in cycles.
pub const DEFAULT_BATCH_WINDOW: u64 = 10_000;

/// Default maximum batch size (a full batch flushes immediately).
pub const DEFAULT_MAX_BATCH: usize = 4;

/// Metric-key spelling of each lane, indexed by [`lane_index`].
const LANE_KEYS: [&str; 2] = ["hard", "be"];

/// A lane's index into the per-lane histograms and [`LANE_KEYS`].
fn lane_index(lane: Lane) -> usize {
    match lane {
        Lane::Hard => 0,
        Lane::BestEffort => 1,
    }
}

/// Outcome of a successful [`Gateway::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accepted {
    /// The admitted request.
    pub request: RequestId,
    /// `true` when the request was admitted under
    /// [`DropPolicy::DegradeToSkip`] with a full queue: its response is
    /// already available and the datapath will do no work for it.
    pub skipped: bool,
    /// Absolute completion deadline, when the tenant carries one.
    pub deadline: Option<u64>,
    /// The core it was placed on — known immediately for hard-lane
    /// requests, `None` for batched best-effort requests (placed at
    /// flush time) and for skips.
    pub core: Option<CoreId>,
}

/// A request admitted into a batch buffer, waiting for its flush.
#[derive(Debug, Clone, Copy)]
struct PendingReq {
    request: RequestId,
    tenant: TenantId,
    arrival: u64,
    deadline: Option<u64>,
}

/// Same-network batch buffer (one per distinct program).
#[derive(Debug, Default)]
struct BatchBuf {
    entries: Vec<PendingReq>,
    /// When the buffer flushes: set as its first entry lands (`batch_window`
    /// later), cleared when it flushes or empties.
    flush_at: Option<u64>,
}

/// Metadata of a request in flight on a core's scheduler.
#[derive(Debug, Clone, Copy)]
struct InflightMeta {
    request: RequestId,
    tenant: TenantId,
    arrival: u64,
    deadline: Option<u64>,
    batched: u32,
}

#[derive(Debug)]
struct TenantEntry {
    spec: TenantSpec,
    /// Network-group index (tenants sharing a program share a group).
    net: usize,
    /// What one outstanding request adds to [`Gateway::modelled_backlog`]:
    /// the predicted span (at least 1 cycle).
    unit: u64,
    stats: TenantStats,
}

/// The multi-core inference serving gateway (see module docs).
///
/// Tenants are registered on **every** core's scheduler in the same
/// order, so a tenant's [`TaskId`] index — and therefore its backend
/// rebind context id — is identical pool-wide: one
/// `install_ctx_image(tenant.ctx(), …)` per core covers all placements.
#[derive(Debug)]
pub struct Gateway<B: Backend> {
    pool: CorePool<B>,
    scheds: Vec<Scheduler>,
    /// Per-core request metadata keyed by raw scheduler job id (a core's
    /// scheduler issues them densely).
    inflight: Vec<Slab<InflightMeta>>,
    tenants: Vec<TenantEntry>,
    /// `task_ids[tenant]` — identical on every core by construction.
    task_ids: Vec<TaskId>,
    /// One buffer per distinct network (program).
    batches: Vec<BatchBuf>,
    /// Requests in all batch buffers, kept where an entry lands or leaves.
    batched: usize,
    /// The earliest armed buffer as `(flush_at, net)`, ties to the lower
    /// net; kept where a buffer arms or disarms.
    next_flush: Option<(u64, usize)>,
    nets: Vec<Arc<inca_isa::Program>>,
    placer: Placer,
    /// Cores eligible for new placements (`cores [0, active_cores)`).
    /// Parked cores — the shrink half of elastic scaling — still advance
    /// and drain their queues; they just receive no new work.
    active_cores: usize,
    batch_window: u64,
    max_batch: usize,
    now: u64,
    next_request: u64,
    responses: Vec<Response>,
    /// Completion buffer [`Gateway::advance_core`] reuses across calls.
    done: Vec<SchedCompletion>,
    /// Requests admitted but not yet completed, dropped or skipped: the
    /// sum of every tenant's `stats.outstanding()`.
    outstanding: u64,
    /// Every outstanding request charged its tenant's `unit`.
    backlog: u64,
    batches_dispatched: u64,
    batched_requests: u64,
    /// End-to-end latency and time-to-first-byte per lane.
    latency: [Histogram; 2],
    ttfb: [Histogram; 2],
    /// Who watches: milestones go to its tracer. Each core's scheduler and
    /// engine hold a copy stamped with the core index.
    probe: Probe,
    /// Span sampling modulus: requests with `raw % n == 0` emit causal
    /// spans; `0` disables span emission entirely.
    trace_sample: u64,
    /// Cycle-domain timeline sampler (None = timeline disabled).
    sampler: Option<Sampler>,
}

impl<B: Backend> Gateway<B> {
    /// Creates a gateway over `pool`, one `sched_policy` scheduler per
    /// core, placing with `place_policy`.
    #[must_use]
    pub fn new(pool: CorePool<B>, sched_policy: SchedPolicy, place_policy: PlacePolicy) -> Self {
        let scheds = pool
            .core_ids()
            .map(|c| Scheduler::new(*pool.core(c).config(), sched_policy))
            .collect::<Vec<_>>();
        let n = scheds.len();
        Self {
            pool,
            scheds,
            inflight: (0..n).map(|_| Slab::default()).collect(),
            tenants: Vec::new(),
            task_ids: Vec::new(),
            batches: Vec::new(),
            batched: 0,
            next_flush: None,
            nets: Vec::new(),
            placer: Placer::new(place_policy),
            active_cores: n,
            batch_window: DEFAULT_BATCH_WINDOW,
            max_batch: DEFAULT_MAX_BATCH,
            now: 0,
            next_request: 0,
            responses: Vec::new(),
            done: Vec::new(),
            outstanding: 0,
            backlog: 0,
            batches_dispatched: 0,
            batched_requests: 0,
            latency: Default::default(),
            ttfb: Default::default(),
            probe: Probe::default(),
            trace_sample: 0,
            sampler: None,
        }
    }

    /// Event-engine work counters: barriers processed, cores ticked,
    /// quiescent cores skipped. Deterministic (never fed by wall clock),
    /// so the `fig_event_engine` bench gates on them exactly.
    #[must_use]
    pub fn advance_stats(&self) -> AdvanceStats {
        self.pool.advance_stats()
    }

    /// Sets the batch window in cycles (how long a lone best-effort
    /// request waits for same-network company).
    pub fn set_batch_window(&mut self, cycles: u64) {
        self.batch_window = cycles;
    }

    /// Sets the maximum batch size (clamped to at least 1); a full batch
    /// flushes immediately.
    pub fn set_max_batch(&mut self, n: usize) {
        self.max_batch = n.max(1);
    }

    /// Installs who watches this gateway, in one call. `probe.tracer`
    /// receives the gateway's milestones and — through the copy handed to
    /// every core's scheduler and engine, stamped with the core's index so
    /// spans from different cores stay distinguishable in one merged
    /// stream — admission/bind events, engine lifecycle events and request
    /// spans.
    ///
    /// `sample_every` is the deterministic request-span sampling modulus:
    /// requests whose raw id satisfies `id % n == 0` emit causal
    /// [`TraceEvent::Span`]s at every lifecycle edge (gateway, scheduler,
    /// engine); `0` disables spans, `1` traces every request. Sampling is
    /// a pure function of the request id, so the same schedule yields the
    /// same spans on any host or thread count.
    pub fn set_probe(&mut self, probe: Probe, sample_every: u64) {
        for (i, sched) in self.scheds.iter_mut().enumerate() {
            let on_core = Probe { core: Some(i as u32), ..probe.clone() };
            sched.set_probe(on_core.clone());
            self.pool.core_mut(CoreId(i)).set_probe(on_core);
        }
        self.probe = probe;
        self.trace_sample = sample_every;
    }

    /// Enables cycle-domain timeline sampling: one cumulative
    /// [`Observation`] every `interval` cycles into a bounded ring of
    /// `capacity` frames (overflow evicts the oldest and is counted,
    /// surfaced loudly by the export layers; deltas are taken at export).
    /// The first boundary is the first interval multiple
    /// strictly after the current gateway clock. Sampling interleaves
    /// with the run loop in the cycle domain, so frames are
    /// byte-identical across hosts, backend thread counts and advance
    /// modes (advance-telemetry fields excepted — see
    /// [`TimeSeries::without_advance`]).
    ///
    /// Returns the new sampler, e.g. to [`Sampler::arm`] a flight recorder
    /// on it: its specs are checked at every sample boundary, and the
    /// first violation freezes a window around it for the dump helpers.
    pub fn enable_timeline(&mut self, interval: u64, capacity: usize) -> &mut Sampler {
        let mut s = Sampler::new(interval, capacity);
        s.align(self.now());
        self.sampler.insert(s)
    }

    /// The timeline sampler, when enabled.
    #[must_use]
    pub fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// The flight-recorder violation, when one tripped.
    #[must_use]
    pub fn violation(&self) -> Option<&Violation> {
        self.sampler.as_ref().and_then(Sampler::violation)
    }

    /// Exports the timeline: flushes a trailing partial frame at the pool
    /// clock (so frame deltas reconcile with final totals even when the
    /// run does not end on a boundary), then snapshots the ring as a
    /// [`TimeSeries`]. Non-consuming; `None` when the timeline is
    /// disabled.
    pub fn take_timeline(&mut self, name: &str) -> Option<TimeSeries> {
        let at = self.pool.now();
        let obs = self.observe(at);
        let clock_hz = self.pool.core(CoreId(0)).config().clock_hz;
        let s = self.sampler.as_mut()?;
        s.flush(obs);
        Some(s.series(name, clock_hz))
    }

    /// One cumulative cycle-domain observation of the whole gateway.
    fn observe(&self, cycle: u64) -> Observation {
        let cores = (0..self.scheds.len())
            .map(|c| CoreObs {
                busy_cycles: self.pool.busy_cycles(CoreId(c)),
                reload_cycles: self.scheds[c].reload_cycles(),
            })
            .collect();
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let task = self.task_ids[i];
                let queued = self.scheds.iter().map(|s| s.queue_depth(task) as u64).sum::<u64>()
                    + self.batches[e.net].entries.iter().filter(|p| p.tenant.0 == i).count() as u64;
                TenantObs {
                    hard: e.spec.lane == Lane::Hard,
                    queue_depth: queued,
                    outstanding: e.stats.outstanding(),
                    missed: e.stats.deadline_missed,
                    shed: e.stats.shed,
                    completed: e.stats.completed,
                }
            })
            .collect();
        let AdvanceStats { barriers, wakes, skips } = self.pool.advance_stats();
        Observation { cycle, cores, tenants, barriers, wakes, skips }
    }

    fn tag_for(&self, request: RequestId) -> Option<u64> {
        (self.trace_sample > 0 && request.raw().is_multiple_of(self.trace_sample))
            .then(|| request.raw())
    }

    /// The gateway clock: the latest cycle seen across submissions, runs
    /// and core completions.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now.max(self.pool.now())
    }

    /// The core pool (e.g. to install backend context images before
    /// serving starts). A core that barriers left behind — it had nothing
    /// due at them — has not run to them yet: its engine's own clock and
    /// counters lag until it next ticks, while [`CorePool::clock`] and
    /// [`CorePool::now`] already read where those runs would have left it.
    #[must_use]
    pub fn pool(&self) -> &CorePool<B> {
        &self.pool
    }

    /// The core pool, mutable. Reserved for setup (context images,
    /// tracers); mutating engine state mid-serve voids determinism.
    /// Engine work injected behind the gateway's back is still visited:
    /// [`CorePool::core_mut`] arms the core in the shared [`Barrier`].
    #[must_use]
    pub fn pool_mut(&mut self) -> &mut CorePool<B> {
        &mut self.pool
    }

    /// One core's scheduler (inspection).
    #[must_use]
    pub fn scheduler(&self, core: CoreId) -> &Scheduler {
        &self.scheds[core.0]
    }

    /// Registers a tenant on every core. The returned id's index is the
    /// backend rebind context id pool-wide.
    pub fn register(&mut self, spec: TenantSpec) -> TenantId {
        let id = TenantId(self.tenants.len());
        let mut task_id = None;
        for sched in &mut self.scheds {
            let mut task = TaskSpec::new(spec.name.clone(), Arc::clone(&spec.program))
                .priority(spec.slot_priority())
                // The gateway owns the shed policy; per-core queues only
                // ever reject (and are sized so the gateway bound binds
                // first).
                .queue(spec.max_outstanding, DropPolicy::Reject);
            if spec.lane == Lane::Hard {
                if let Some(d) = spec.relative_deadline {
                    task = task.deadline(d);
                }
            }
            let tid = sched.register(task);
            debug_assert_eq!(tid.index(), id.0, "tenant/task indices stay aligned per core");
            task_id = Some(tid);
        }
        let task_id = task_id.expect("a pool has at least one core");
        self.task_ids.push(task_id);
        let net = match self.nets.iter().position(|p| Arc::ptr_eq(p, &spec.program)) {
            Some(i) => i,
            None => {
                self.nets.push(Arc::clone(&spec.program));
                self.batches.push(BatchBuf::default());
                self.nets.len() - 1
            }
        };
        self.placer.add_tenant();
        let unit = self.scheds[0].predicted_span(task_id).max(1);
        self.tenants.push(TenantEntry { spec, net, unit, stats: TenantStats::default() });
        id
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Cores eligible for new placements. Equals the pool size unless
    /// the gateway was shrunk via [`Gateway::set_active_cores`].
    #[must_use]
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// Sets the placement-eligible core prefix to `cores [0, n)` —
    /// elastic scaling's shrink (park) and un-shrink (unpark) hook,
    /// clamped to `[1, pool size]`. Parked cores keep advancing and
    /// drain whatever was already placed on them (so no admitted
    /// request is lost), they just receive no new work; a sticky
    /// tenant-affinity placement pointing at a parked core is re-placed
    /// on first use. Purely cycle-domain state, so resize decisions
    /// driven from cycle-domain telemetry keep runs byte-identical
    /// on the stepping reference and across thread counts.
    pub fn set_active_cores(&mut self, n: usize) {
        self.active_cores = n.clamp(1, self.scheds.len());
    }

    /// A tenant's registered spec.
    #[must_use]
    pub fn spec(&self, tenant: TenantId) -> &TenantSpec {
        &self.tenants[tenant.0].spec
    }

    /// A tenant's lifetime counters.
    #[must_use]
    pub fn stats(&self, tenant: TenantId) -> TenantStats {
        self.tenants[tenant.0].stats
    }

    /// Lifetime counters summed over all tenants.
    #[must_use]
    pub fn totals(&self) -> TenantStats {
        let mut t = TenantStats::default();
        for entry in &self.tenants {
            t.add(&entry.stats);
        }
        t
    }

    /// Requests admitted but not yet completed, dropped or skipped,
    /// pool-wide (includes batched-not-yet-dispatched ones).
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        debug_assert_eq!(
            self.outstanding,
            self.tenants.iter().map(|t| t.stats.outstanding()).sum::<u64>(),
            "the running count matches the tenant ledgers"
        );
        self.outstanding
    }

    /// Requests sitting in batch buffers, not yet dispatched to a core.
    #[must_use]
    pub fn pending_batched(&self) -> usize {
        debug_assert_eq!(
            self.batched,
            self.batches.iter().map(|b| b.entries.len()).sum::<usize>(),
            "the running count matches the batch buffers"
        );
        self.batched
    }

    /// Recalls up to `max` not-yet-dispatched batched requests — the
    /// victim half of cross-gateway work stealing. Only best-effort
    /// requests are recallable (the hard lane bypasses batching, and
    /// work already dispatched to a core stays put). Entries leave
    /// oldest-first, scanning networks in index order, and each one is
    /// counted as `dropped` on this gateway: it exits this pipeline
    /// here, and the thief re-submits it as a fresh request elsewhere,
    /// so the per-tenant conservation laws hold on both sides. Returns
    /// the recalled tenants in recall order.
    pub fn recall_batched(&mut self, max: usize) -> Vec<TenantId> {
        let mut out = Vec::new();
        for net in 0..self.batches.len() {
            while out.len() < max && !self.batches[net].entries.is_empty() {
                let victim = self.unbatch(net, 0);
                self.trace_milestone(self.now, || {
                    format!("serve.recall {} {}", victim.tenant, victim.request)
                });
                out.push(victim.tenant);
            }
            if out.len() >= max {
                break;
            }
        }
        out
    }

    /// Submits one request of `tenant` at cycle `now` (the gateway clock
    /// is monotonic — later submissions must not carry earlier cycles).
    /// Placement and admission read the cores' run state, so run the
    /// gateway to `now` first ([`Gateway::run_until`]).
    ///
    /// Hard-lane requests bypass batching: they are placed immediately
    /// and submitted to that core's scheduler, where the analytical-cost-
    /// model admission controller can still reject an unmeetable
    /// deadline. Best-effort requests join their network's batch buffer.
    ///
    /// # Errors
    ///
    /// [`ShedReason::QueueFull`] when the tenant's outstanding bound is
    /// hit under [`DropPolicy::Reject`] (or nothing was droppable under
    /// [`DropPolicy::DropOldest`]); [`ShedReason::DeadlineUnmeetable`]
    /// when admission predicts a deadline miss.
    pub fn submit(&mut self, now: u64, tenant: TenantId) -> Result<Accepted, ShedReason> {
        self.now = self.now.max(now);
        let now = self.now;
        self.tenants[tenant.0].stats.submitted += 1;

        let entry = &self.tenants[tenant.0];
        if entry.stats.outstanding() >= entry.spec.max_outstanding as u64 {
            let policy = entry.spec.shed_policy;
            let made_room = policy == DropPolicy::DropOldest && self.drop_oldest_pending(tenant);
            if !made_room {
                if policy == DropPolicy::DegradeToSkip {
                    return Ok(self.admit_skip(now, tenant));
                }
                self.tenants[tenant.0].stats.shed += 1;
                self.trace_milestone(now, || format!("serve.shed {tenant} queue-full"));
                return Err(ShedReason::QueueFull);
            }
        }

        match self.tenants[tenant.0].spec.lane {
            Lane::Hard => self.submit_hard(now, tenant),
            Lane::BestEffort => Ok(self.submit_batched(now, tenant)),
        }
    }

    /// Degraded admission: the caller observes a completed response, the
    /// datapath does no work.
    fn admit_skip(&mut self, now: u64, tenant: TenantId) -> Accepted {
        let request = self.next_request_id();
        // Admitted and skipped at once: the running counters never see it.
        let st = &mut self.tenants[tenant.0].stats;
        st.admitted += 1;
        st.skipped += 1;
        let deadline = self.tenants[tenant.0].spec.relative_deadline.map(|d| now + d);
        self.responses.push(Response {
            request,
            tenant,
            lane: self.tenants[tenant.0].spec.lane,
            core: None,
            arrival: now,
            start: now,
            finish: now,
            deadline,
            batched: 1,
            skipped: true,
        });
        self.trace_milestone(now, || format!("serve.skip {tenant} {request}"));
        Accepted { request, skipped: true, deadline, core: None }
    }

    /// Drops this tenant's oldest not-yet-dispatched batched request to
    /// make room. Returns `false` when nothing was droppable (hard-lane
    /// requests and already-dispatched work cannot be recalled).
    fn drop_oldest_pending(&mut self, tenant: TenantId) -> bool {
        let net = self.tenants[tenant.0].net;
        let Some(pos) = self.batches[net].entries.iter().position(|e| e.tenant == tenant) else {
            return false;
        };
        let victim = self.unbatch(net, pos);
        self.trace_milestone(self.now, || format!("serve.drop-oldest {tenant} {}", victim.request));
        true
    }

    /// Takes entry `pos` out of network `net`'s batch buffer before it was
    /// dispatched, disarming the flush of a buffer it empties, and counts
    /// it dropped on its tenant.
    fn unbatch(&mut self, net: usize, pos: usize) -> PendingReq {
        let buf = &mut self.batches[net];
        let victim = buf.entries.remove(pos);
        self.batched -= 1;
        if buf.entries.is_empty() {
            self.disarm(net);
        }
        self.tenants[victim.tenant.0].stats.dropped += 1;
        self.settle(victim.tenant);
        victim
    }

    fn submit_hard(&mut self, now: u64, tenant: TenantId) -> Result<Accepted, ShedReason> {
        let core = self.place(tenant);
        let task = self.task_ids[tenant.0];
        // Peek the id the request will get if admitted: the scheduler
        // needs the span tag at submit time, but rejected submissions must
        // not consume an id.
        let tag = self.tag_for(RequestId(self.next_request));
        match self.scheds[core.0].submit_tagged(now, task, tag) {
            Ok(adm) => {
                let request = self.next_request_id();
                self.open(tenant);
                self.pool.wake(core);
                self.inflight[core.0].insert(
                    adm.job.raw(),
                    InflightMeta {
                        request,
                        tenant,
                        arrival: now,
                        deadline: adm.deadline,
                        batched: 1,
                    },
                );
                self.trace_milestone(now, || format!("serve.admit {tenant} {request} {core}"));
                Ok(Accepted { request, skipped: false, deadline: adm.deadline, core: Some(core) })
            }
            Err(inca_runtime::RejectReason::AdmissionDenied) => {
                self.tenants[tenant.0].stats.rejected += 1;
                self.trace_milestone(now, || format!("serve.reject {tenant} deadline"));
                Err(ShedReason::DeadlineUnmeetable)
            }
            Err(inca_runtime::RejectReason::QueueFull) => {
                self.tenants[tenant.0].stats.shed += 1;
                self.trace_milestone(now, || format!("serve.shed {tenant} core-queue"));
                Err(ShedReason::QueueFull)
            }
        }
    }

    fn submit_batched(&mut self, now: u64, tenant: TenantId) -> Accepted {
        let request = self.next_request_id();
        let deadline = self.tenants[tenant.0].spec.relative_deadline.map(|d| now + d);
        self.open(tenant);
        let net = self.tenants[tenant.0].net;
        self.batches[net].entries.push(PendingReq { request, tenant, arrival: now, deadline });
        self.batched += 1;
        let depth = self.batches[net].entries.len();
        self.trace_milestone(now, || format!("serve.batch {tenant} {request} net{net}"));
        if depth >= self.max_batch {
            self.flush_net(now, net);
        } else if depth == 1 {
            self.arm(net, now + self.batch_window);
        }
        Accepted { request, skipped: false, deadline, core: None }
    }

    fn next_request_id(&mut self) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        id
    }

    /// The core the next dispatch of `tenant` would be placed on.
    fn peek(&self, tenant: TenantId) -> CoreId {
        let scheds = &self.scheds;
        self.placer.peek(tenant.0, self.active_cores, |c| scheds[c].modelled_backlog())
    }

    fn place(&mut self, tenant: TenantId) -> CoreId {
        let scheds = &self.scheds;
        self.placer.place(tenant.0, self.active_cores, |c| scheds[c].modelled_backlog())
    }

    /// Reload cycles one request of `tenant` would pay if submitted now:
    /// the [`Scheduler::reload_quote`] of the core placement would pick (0
    /// when its program is resident there).
    /// The scheduler binds a resident task to the slot holding its
    /// program whenever slot order allows, so the quote is what the bind
    /// charges unless placement or the bound jobs change before dispatch.
    #[must_use]
    pub fn reload_cost(&self, tenant: TenantId) -> u64 {
        let core = self.peek(tenant);
        self.scheds[core.0].reload_quote(self.task_ids[tenant.0])
    }

    /// Modelled backlog in cycles: every outstanding request (batched ones
    /// included) charged its tenant's predicted span.
    #[must_use]
    pub fn modelled_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.backlog,
            self.tenants.iter().map(|e| e.stats.outstanding() * e.unit).sum::<u64>(),
            "the running backlog matches the tenant ledgers"
        );
        self.backlog
    }

    /// Counts one admitted request of `tenant`: it is outstanding until
    /// [`Gateway::settle`] closes it.
    fn open(&mut self, tenant: TenantId) {
        let e = &mut self.tenants[tenant.0];
        e.stats.admitted += 1;
        self.outstanding += 1;
        self.backlog += e.unit;
    }

    /// Closes one outstanding request of `tenant`; the caller counts it
    /// completed or dropped on the tenant's ledger.
    fn settle(&mut self, tenant: TenantId) {
        self.outstanding -= 1;
        self.backlog -= self.tenants[tenant.0].unit;
    }

    /// Dispatches one network's batch buffer to a single core.
    fn flush_net(&mut self, now: u64, net: usize) {
        // Taken for the loop and put back emptied: the buffer keeps its
        // capacity, so the next batch of `net` allocates nothing.
        let mut entries = std::mem::take(&mut self.batches[net].entries);
        self.batched -= entries.len();
        self.disarm(net);
        if entries.is_empty() {
            self.batches[net].entries = entries;
            return;
        }
        let core = self.place(entries[0].tenant);
        let size = entries.len() as u32;
        self.batches_dispatched += 1;
        self.batched_requests += u64::from(size);
        self.pool.wake(core);
        self.trace_milestone(now, || format!("serve.flush net{net} x{size} {core}"));
        for e in entries.drain(..) {
            let task = self.task_ids[e.tenant.0];
            let tag = self.tag_for(e.request);
            match self.scheds[core.0].submit_tagged(now, task, tag) {
                Ok(adm) => {
                    if let Some(tag) = tag {
                        let (wait, detail) = (e.arrival..now, u64::from(size));
                        let probe = self.scheds[core.0].probe();
                        probe.span(tag, SpanStage::BatchWait, 0, None, wait, detail);
                    }
                    self.inflight[core.0].insert(
                        adm.job.raw(),
                        InflightMeta {
                            request: e.request,
                            tenant: e.tenant,
                            arrival: e.arrival,
                            deadline: e.deadline,
                            batched: size,
                        },
                    );
                }
                Err(_) => {
                    // The core refused at dispatch time (its queue filled
                    // between admission and flush): the admitted request
                    // is discarded, not silently lost.
                    self.tenants[e.tenant.0].stats.dropped += 1;
                    self.settle(e.tenant);
                    self.trace_milestone(now, || format!("serve.drop {} dispatch", e.request));
                }
            }
        }
        self.batches[net].entries = entries;
    }

    /// The earliest pending flush as `(cycle, net)`; ties go to the lower
    /// net.
    fn next_flush(&self) -> Option<(u64, usize)> {
        debug_assert_eq!(
            self.next_flush,
            self.earliest_armed(),
            "the cached flush is the earliest"
        );
        self.next_flush
    }

    /// Scans every buffer for the earliest armed flush.
    fn earliest_armed(&self) -> Option<(u64, usize)> {
        self.batches.iter().enumerate().filter_map(|(net, b)| Some((b.flush_at?, net))).min()
    }

    /// Arms network `net`'s buffer to flush at cycle `at`.
    fn arm(&mut self, net: usize, at: u64) {
        self.batches[net].flush_at = Some(at);
        if self.next_flush.is_none_or(|next| (at, net) < next) {
            self.next_flush = Some((at, net));
        }
    }

    /// Disarms network `net`'s buffer; when it held the earliest flush,
    /// the next one is found by a scan (once per flush, not per barrier).
    fn disarm(&mut self, net: usize) {
        self.batches[net].flush_at = None;
        if self.next_flush.is_some_and(|(_, n)| n == net) {
            self.next_flush = self.earliest_armed();
        }
    }

    /// The earliest cycle at which advancing this gateway can change its
    /// state: a core's due cycle ([`CorePool::next_due`]), a batch flush,
    /// or a timeline boundary while work is outstanding. A
    /// [`Gateway::run_until`] to an earlier deadline only records the
    /// barrier and leaves its cores behind. `None` when no advance can; a
    /// gateway over [`Stepped`](inca_accel::Stepped) engines, which ticks
    /// every core at every barrier, is due at once.
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        if Self::STEPPED {
            return Some(0);
        }
        let sample = self.sampler.as_ref().filter(|_| self.outstanding > 0).map(Sampler::next_at);
        let flush = self.next_flush.map(|(cycle, _)| cycle);
        [self.pool.next_due(), flush, sample].into_iter().flatten().min()
    }

    /// Advances the whole gateway to `deadline`: batch flushes and
    /// timeline sample boundaries fire interleaved in cycle order (cores
    /// are advanced to each boundary cycle first, so flush placement and
    /// sampled frames see the pool state *at* that cycle), then every
    /// core runs out to `deadline`.
    ///
    /// A sample boundary is eligible only while the gateway has
    /// outstanding work — a purely cycle-domain condition, so the frame
    /// schedule is identical for event-driven and [`Stepped`](inca_accel::Stepped)
    /// pools and across thread counts, and
    /// `run_until(u64::MAX)` still terminates (boundaries stop once work
    /// drains; the trailing drain window is covered by the partial frame
    /// [`Gateway::take_timeline`] flushes).
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_until(&mut self, deadline: u64) -> Result<(), SimError> {
        let mut sampled_state: Option<(u64, u64, usize)> = None;
        loop {
            let flush = self.next_flush().filter(|&(c, _)| c <= deadline);
            // Progress guard: if nothing changed since the last boundary
            // and no flush is pending, the outstanding work is wedged
            // (nothing any barrier can serve) — stop sampling so
            // `run_until(u64::MAX)` terminates. Cycle-domain state only,
            // so the guard fires identically on a stepped pool. Without
            // a sampler there is no boundary and no guard state to build.
            let sample = self
                .sampler
                .as_ref()
                .map(Sampler::next_at)
                .filter(|&c| c <= deadline && self.outstanding() > 0)
                .map(|c| (c, (self.outstanding(), self.pool.now(), self.pending_batched())))
                .filter(|&(_, state)| flush.is_some() || sampled_state != Some(state));
            // Ties run the flush first; the boundary then samples the
            // post-flush state at the same cycle on the next iteration.
            let (cycle, flush_net) = match (flush, sample) {
                (Some((f, _)), Some((s, _))) if s < f => (s, None),
                (Some((f, net)), _) => (f, Some(net)),
                (None, Some((s, _))) => (s, None),
                (None, None) => break,
            };
            // An overdue boundary (a request arrived *after* the scheduled
            // cycle, because the gateway had not run past it yet) fires at
            // the gateway clock instead: a batch is never dispatched
            // before one of its requests arrived.
            let fire = cycle.max(self.now);
            event::advance(self, fire.min(deadline))?;
            self.now = self.now.max(fire);
            if let Some(net) = flush_net {
                self.flush_net(fire, net);
            } else {
                // Frames stay pinned to the interval grid even when the
                // boundary fired late — the cycle axis is what the
                // differential suites compare.
                let obs = self.observe(cycle);
                self.sampler.as_mut().expect("sample boundary implies sampler").record(obs);
                sampled_state = sample.map(|(_, state)| state);
            }
        }
        // `u64::MAX` means "no cap", not a cycle: resting the clock there
        // would overflow the next submit's `now + window`.
        if deadline != u64::MAX {
            self.now = self.now.max(deadline);
        }
        event::advance(self, deadline)
    }

    /// Runs until every admitted request completed (or nothing can make
    /// progress), capped at `max_cycles`: that is
    /// [`Gateway::run_until`]`(max_cycles)`, which fires every flush up to
    /// the cap and runs every core to it, re-pumping at each completion.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_to_idle(&mut self, max_cycles: u64) -> Result<(), SimError> {
        self.run_until(max_cycles)
    }

    /// One core's pump/run/complete loop up to `deadline`: the
    /// scheduler's steps, each completion finished into a response. The
    /// completion buffer lives on the gateway, so a call allocates nothing.
    fn advance_core(&mut self, core: usize, deadline: u64) -> Result<(), SimError> {
        let mut done = std::mem::take(&mut self.done);
        loop {
            let engine = self.pool.core_mut(CoreId(core));
            let stepped = self.scheds[core].step(engine, deadline, &mut done);
            for c in done.drain(..) {
                self.finish(core, &c);
            }
            if !matches!(stepped, Ok(true)) {
                self.done = done;
                return stepped.map(drop);
            }
        }
    }

    /// Routes one scheduler completion back to its request.
    fn finish(&mut self, core: usize, c: &SchedCompletion) {
        let rec = c.record;
        let meta = self.inflight[core]
            .take(c.job.raw())
            .expect("every scheduler-bound job was submitted by the gateway");
        self.now = self.now.max(rec.finish);
        let lane = self.tenants[meta.tenant.0].spec.lane;
        self.tenants[meta.tenant.0].stats.complete(rec.finish, meta.deadline);
        self.settle(meta.tenant);
        let response = Response {
            request: meta.request,
            tenant: meta.tenant,
            lane,
            core: Some(CoreId(core)),
            arrival: meta.arrival,
            start: rec.start,
            finish: rec.finish,
            deadline: meta.deadline,
            batched: meta.batched,
            skipped: false,
        };
        let l = lane_index(lane);
        self.latency[l].observe(response.latency());
        self.ttfb[l].observe(response.ttfb());
        if let Some(tag) = self.tag_for(meta.request) {
            // Root span closes at the response: every other stage of this
            // request parents (directly or via an exec segment) to it.
            let detail = request_detail(lane == Lane::Hard, meta.tenant.0 as u32);
            let life = meta.arrival..rec.finish;
            self.scheds[core].probe().span(tag, SpanStage::Request, 0, None, life, detail);
        }
        self.trace_milestone(rec.finish, || {
            format!("serve.done {} {} {}", meta.tenant, meta.request, LANE_KEYS[l])
        });
        self.responses.push(response);
    }

    /// Takes every response produced since the last drain, in completion
    /// order (deterministic).
    pub fn drain_responses(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.responses)
    }

    /// `detail` runs only when the tracer is enabled.
    fn trace_milestone(&self, cycle: u64, detail: impl FnOnce() -> String) {
        self.probe.tracer.emit(|| TraceEvent::Milestone {
            cycle,
            label: "serve".to_owned(),
            detail: detail(),
        });
    }

    /// A deterministic metrics snapshot: `serve.*` gateway counters and
    /// latency histograms, plus each core's scheduler metrics under
    /// `serve.coreN.`.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.inc("serve.tenants", self.tenants.len() as u64);
        m.inc("serve.cores", self.scheds.len() as u64);
        self.totals().write_metrics(&mut m, "serve.");
        m.inc("serve.batches.dispatched", self.batches_dispatched);
        m.inc("serve.batches.requests", self.batched_requests);
        // Event-engine work telemetry. Deterministic for a fixed
        // configuration, but a stepped pool does more work by design:
        // differential suites against the `Stepped` reference strip
        // `event.*` keys.
        let adv = self.pool.advance_stats();
        m.inc("event.barriers", adv.barriers);
        m.inc("event.wakes", adv.wakes);
        m.inc("event.skips", adv.skips);
        if let Some(s) = &self.sampler {
            m.inc("timeline.frames", s.len() as u64);
            m.inc("timeline.dropped", s.dropped());
            m.inc("timeline.recorder.tripped", u64::from(s.violation().is_some()));
        }
        m.set_gauge("serve.pending.batched", self.pending_batched() as f64);
        for (i, entry) in self.tenants.iter().enumerate() {
            m.set_gauge(&format!("serve.tenant{i}.outstanding"), entry.stats.outstanding() as f64);
        }
        for (l, key) in LANE_KEYS.iter().enumerate() {
            for (name, h) in [("latency", &self.latency[l]), ("ttfb", &self.ttfb[l])] {
                if h.count() > 0 {
                    m.insert_histogram(&format!("serve.{name}.{key}"), h.clone());
                }
            }
        }
        for (i, s) in self.scheds.iter().enumerate() {
            m.absorb(&format!("serve.core{i}."), &s.metrics());
        }
        m
    }
}

/// The serving tier shares its pool's [`Barrier`]: a core here is the
/// engine *plus* its slot-virtualizing scheduler. Hard submits and batch
/// flushes arm it through [`CorePool::wake`], and its next tick is
/// [`Scheduler::next_tick`]: the earliest submission cycle a free slot can
/// bind, else the engine's next arrival or completion. Barriers before
/// that would only move the engine on, which its next tick covers
/// exactly: a job binds once the engine's clock reached its submission
/// cycle, however barriers cut the runs that took it there. A gateway
/// over [`Stepped`](inca_accel::Stepped) engines steps every pair at every
/// barrier, like its pool.
impl<B: Backend> Tier for Gateway<B> {
    const STEPPED: bool = B::STEPPED;

    fn barrier(&mut self) -> &mut Barrier {
        self.pool.barrier()
    }

    fn next_tick(&self, i: usize) -> Option<u64> {
        self.scheds[i].next_tick(self.pool.core(CoreId(i)))
    }

    fn tick(&mut self, i: usize, deadline: u64) -> Result<(), SimError> {
        self.advance_core(i, deadline)
    }
}
