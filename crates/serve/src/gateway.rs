//! The serving gateway: admission → batching → placement → per-core
//! slot-virtualizing schedulers over a [`CorePool`].
//!
//! The gateway is fully deterministic: every timestamp is a virtual
//! cycle, submissions happen at caller-controlled cycles, and the run
//! loop interleaves batch flushes and core advancement in a fixed order.
//! Running the same request schedule twice produces byte-identical
//! responses, traces and metrics.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use inca_accel::{
    event, AdvanceStats, Backend, Barrier, CoreId, CorePool, JobRecord, SimError, Tier,
};
use inca_obs::{
    request_detail, CoreObs, HostComponent, Metrics, Observation, Probe, Sampler, SpanStage,
    TenantObs, TimeSeries, TraceEvent, Violation,
};
use inca_runtime::{DropPolicy, SchedPolicy, Scheduler, TaskId, TaskSpec};

use crate::place::{PlacePolicy, Placer};
use crate::request::{Lane, RequestId, Response, ShedReason, TenantId, TenantSpec, TenantStats};

/// Default batch window: how long the first request of a batch waits for
/// company before the batch is flushed, in cycles.
pub const DEFAULT_BATCH_WINDOW: u64 = 10_000;

/// Default maximum batch size (a full batch flushes immediately).
pub const DEFAULT_MAX_BATCH: usize = 4;

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
    /// Invalidates stale flush-heap entries after an early (size-capped)
    /// flush.
    generation: u64,
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
    /// Per-core map from raw scheduler job id to request metadata.
    inflight: Vec<HashMap<u64, InflightMeta>>,
    tenants: Vec<TenantEntry>,
    /// `task_ids[tenant]` — identical on every core by construction.
    task_ids: Vec<TaskId>,
    /// One buffer per distinct network (program).
    batches: Vec<BatchBuf>,
    nets: Vec<Arc<inca_isa::Program>>,
    /// Pending flushes: `(cycle, net, generation)`, earliest first.
    flushes: BinaryHeap<Reverse<(u64, usize, u64)>>,
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
    batches_dispatched: u64,
    batched_requests: u64,
    lat: Metrics,
    /// Who watches: milestones go to its tracer, run-loop wall time to its
    /// host profiler. Each core's scheduler and engine hold a copy stamped
    /// with the core index.
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
            inflight: (0..n).map(|_| HashMap::new()).collect(),
            tenants: Vec::new(),
            task_ids: Vec::new(),
            batches: Vec::new(),
            nets: Vec::new(),
            flushes: BinaryHeap::new(),
            placer: Placer::new(place_policy),
            active_cores: n,
            batch_window: DEFAULT_BATCH_WINDOW,
            max_batch: DEFAULT_MAX_BATCH,
            now: 0,
            next_request: 0,
            responses: Vec::new(),
            batches_dispatched: 0,
            batched_requests: 0,
            lat: Metrics::new(),
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
    /// spans; `probe.host` profiles the run loop, the schedulers and the
    /// engines (wall clock only: it never changes a deterministic output).
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

    /// Enables cycle-domain timeline sampling: one [`Frame`] every
    /// `interval` cycles into a bounded ring of `capacity` frames
    /// (overflow evicts the oldest and is counted, surfaced loudly by the
    /// export layers). The first boundary is the first interval multiple
    /// strictly after the current gateway clock. Sampling interleaves
    /// with the run loop in the cycle domain, so frames are
    /// byte-identical across hosts, backend thread counts and advance
    /// modes (advance-telemetry fields excepted — see
    /// [`TimeSeries::without_advance`]).
    ///
    /// Returns the new sampler, e.g. to [`Sampler::arm`] a flight recorder
    /// on it: its specs are checked at every sample boundary, and the
    /// first violation freezes a window around it for the dump helpers.
    ///
    /// [`Frame`]: inca_obs::timeline::Frame
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

    /// The placement policy in use.
    #[must_use]
    pub fn place_policy(&self) -> PlacePolicy {
        self.placer.policy()
    }

    /// The gateway clock: the latest cycle seen across submissions, runs
    /// and core completions.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now.max(self.pool.now())
    }

    /// The core pool (e.g. to install backend context images before
    /// serving starts).
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
        self.task_ids.push(task_id.expect("a pool has at least one core"));
        let net = match self.nets.iter().position(|p| Arc::ptr_eq(p, &spec.program)) {
            Some(i) => i,
            None => {
                self.nets.push(Arc::clone(&spec.program));
                self.batches.push(BatchBuf::default());
                self.nets.len() - 1
            }
        };
        self.placer.add_tenant();
        self.tenants.push(TenantEntry { spec, net, stats: TenantStats::default() });
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
    /// across advance modes and thread counts.
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
        self.tenants.iter().map(|t| t.stats.outstanding()).sum()
    }

    /// Requests sitting in batch buffers, not yet dispatched to a core.
    #[must_use]
    pub fn pending_batched(&self) -> usize {
        self.batches.iter().map(|b| b.entries.len()).sum()
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
                let victim = self.batches[net].entries.remove(0);
                if self.batches[net].entries.is_empty() {
                    // Invalidate the pending flush for the emptied buffer.
                    self.batches[net].generation += 1;
                }
                self.tenants[victim.tenant.0].stats.dropped += 1;
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
        let buf = &mut self.batches[net];
        let Some(pos) = buf.entries.iter().position(|e| e.tenant == tenant) else {
            return false;
        };
        let victim = buf.entries.remove(pos);
        if buf.entries.is_empty() {
            // Invalidate the pending flush for the now-empty buffer.
            buf.generation += 1;
        }
        self.tenants[tenant.0].stats.dropped += 1;
        self.trace_milestone(self.now, || format!("serve.drop-oldest {tenant} {}", victim.request));
        true
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
                self.tenants[tenant.0].stats.admitted += 1;
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
        self.tenants[tenant.0].stats.admitted += 1;
        let net = self.tenants[tenant.0].net;
        self.batches[net].entries.push(PendingReq { request, tenant, arrival: now, deadline });
        let depth = self.batches[net].entries.len();
        self.trace_milestone(now, || format!("serve.batch {tenant} {request} net{net}"));
        if depth >= self.max_batch {
            self.flush_net(now, net);
        } else if depth == 1 {
            let at = now + self.batch_window;
            self.flushes.push(Reverse((at, net, self.batches[net].generation)));
        }
        Accepted { request, skipped: false, deadline, core: None }
    }

    fn next_request_id(&mut self) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        id
    }

    /// Modelled outstanding work on a core, in cycles: every queued or
    /// in-flight job charged its task's full predicted span.
    fn backlog(&self, core: usize) -> u64 {
        let s = &self.scheds[core];
        self.task_ids
            .iter()
            .map(|&t| (s.queue_depth(t) as u64 + u64::from(s.in_flight(t))) * s.predicted_span(t))
            .sum()
    }

    fn place(&mut self, tenant: TenantId) -> CoreId {
        let backlogs: Vec<u64> = (0..self.active_cores).map(|c| self.backlog(c)).collect();
        self.placer.place(tenant.0, backlogs.len(), |c| backlogs[c])
    }

    /// Dispatches one network's batch buffer to a single core.
    fn flush_net(&mut self, now: u64, net: usize) {
        let entries = std::mem::take(&mut self.batches[net].entries);
        self.batches[net].generation += 1;
        if entries.is_empty() {
            return;
        }
        let core = self.place(entries[0].tenant);
        let size = entries.len() as u32;
        self.batches_dispatched += 1;
        self.batched_requests += u64::from(size);
        self.pool.wake(core);
        self.trace_milestone(now, || format!("serve.flush net{net} x{size} {core}"));
        for e in entries {
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
                    self.trace_milestone(now, || format!("serve.drop {} dispatch", e.request));
                }
            }
        }
    }

    /// The earliest still-valid pending flush cycle.
    fn next_flush(&mut self) -> Option<u64> {
        while let Some(&Reverse((cycle, net, generation))) = self.flushes.peek() {
            if self.batches[net].generation == generation && !self.batches[net].entries.is_empty() {
                return Some(cycle);
            }
            let _ = self.flushes.pop();
        }
        None
    }

    /// Advances the whole gateway to `deadline`: batch flushes and
    /// timeline sample boundaries fire interleaved in cycle order (cores
    /// are advanced to each boundary cycle first, so flush placement and
    /// sampled frames see the pool state *at* that cycle), then every
    /// core runs out to `deadline`.
    ///
    /// A sample boundary is eligible only while the gateway has
    /// outstanding work — a purely cycle-domain condition, so the frame
    /// schedule is identical across advance modes and thread counts, and
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
            let flush = self.next_flush().filter(|&c| c <= deadline);
            // Progress guard: if nothing changed since the last boundary
            // and no flush is pending, the outstanding work is wedged
            // (nothing any barrier can serve) — stop sampling so
            // `run_until(u64::MAX)` terminates. Cycle-domain state only,
            // so the guard fires identically in both advance modes.
            let state = (self.outstanding(), self.pool.now(), self.pending_batched());
            let sample = self.sampler.as_ref().map(Sampler::next_at).filter(|&c| {
                c <= deadline
                    && self.outstanding() > 0
                    && (flush.is_some() || sampled_state != Some(state))
            });
            // Ties run the flush first; the boundary then samples the
            // post-flush state at the same cycle on the next iteration.
            let (cycle, is_flush) = match (flush, sample) {
                (Some(f), Some(s)) if s < f => (s, false),
                (Some(f), _) => (f, true),
                (None, Some(s)) => (s, false),
                (None, None) => break,
            };
            // An overdue boundary (a request arrived *after* the scheduled
            // cycle, because the gateway had not run past it yet) fires at
            // the gateway clock instead: a batch is never dispatched
            // before one of its requests arrived.
            let fire = cycle.max(self.now);
            event::advance(self, fire.min(deadline))?;
            self.now = self.now.max(fire);
            if is_flush {
                let Reverse((_, net, _)) = self.flushes.pop().expect("peeked flush exists");
                self.flush_net(fire, net);
            } else {
                // Frames stay pinned to the interval grid even when the
                // boundary fired late — the cycle axis is what merge and
                // the differential suites compare.
                let obs = self.observe(cycle);
                self.sampler.as_mut().expect("sample boundary implies sampler").record(obs);
                sampled_state = Some(state);
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
    /// progress), capped at `max_cycles`.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_to_idle(&mut self, max_cycles: u64) -> Result<(), SimError> {
        loop {
            let before = (self.outstanding(), self.pool.now(), self.pending_batched());
            match self.next_flush() {
                Some(c) if c < max_cycles => self.run_until(c)?,
                _ => self.run_until(max_cycles)?,
            }
            if self.outstanding() == 0 {
                return Ok(());
            }
            if (self.outstanding(), self.pool.now(), self.pending_batched()) == before {
                // Wedged: queued work no policy/slot/window can serve
                // within the cap.
                return Ok(());
            }
        }
    }

    /// One core's pump/run/complete loop up to `deadline`. Inclusive wall
    /// time lands under [`HostComponent::Gateway`]; the report subtracts
    /// the nested engine/scheduler components to get gateway self-time.
    fn advance_core(&mut self, core: usize, deadline: u64) -> Result<(), SimError> {
        let _timer = self.probe.host.as_ref().map(|p| p.timer(HostComponent::Gateway));
        loop {
            let engine = self.pool.core_mut(CoreId(core));
            let hit_completion = self.scheds[core].step(engine.now(), engine, deadline)?;
            while let Some((rec, completion)) =
                self.scheds[core].take_completion(self.pool.core(CoreId(core)))
            {
                if let Some(c) = completion {
                    self.finish(core, c.job.raw(), &rec);
                }
            }
            if !hit_completion {
                return Ok(());
            }
        }
    }

    /// Routes one scheduler completion back to its request.
    fn finish(&mut self, core: usize, raw_job: u64, rec: &JobRecord) {
        let meta = self.inflight[core]
            .remove(&raw_job)
            .expect("every scheduler-bound job was submitted by the gateway");
        self.now = self.now.max(rec.finish);
        let lane = self.tenants[meta.tenant.0].spec.lane;
        let st = &mut self.tenants[meta.tenant.0].stats;
        st.completed += 1;
        if let Some(d) = meta.deadline {
            if rec.finish <= d {
                st.deadline_met += 1;
            } else {
                st.deadline_missed += 1;
            }
        }
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
        let (lane_key, latency_key, ttfb_key) = match lane {
            Lane::Hard => ("hard", "serve.latency.hard", "serve.ttfb.hard"),
            Lane::BestEffort => ("be", "serve.latency.be", "serve.ttfb.be"),
        };
        self.lat.observe(latency_key, response.latency());
        self.lat.observe(ttfb_key, response.ttfb());
        if let Some(tag) = self.tag_for(meta.request) {
            // Root span closes at the response: every other stage of this
            // request parents (directly or via an exec segment) to it.
            let detail = request_detail(lane == Lane::Hard, meta.tenant.0 as u32);
            let life = meta.arrival..rec.finish;
            self.scheds[core].probe().span(tag, SpanStage::Request, 0, None, life, detail);
        }
        self.trace_milestone(rec.finish, || {
            format!("serve.done {} {} {lane_key}", meta.tenant, meta.request)
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
        // configuration, but mode-dependent by design: differential
        // suites comparing EventDriven vs Stepping strip `event.*` keys.
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
        m.absorb("", &self.lat);
        for (i, s) in self.scheds.iter().enumerate() {
            m.absorb(&format!("serve.core{i}."), &s.metrics());
        }
        m
    }
}

/// The serving tier shares its pool's [`Barrier`]: a core here is the
/// engine *plus* its slot-virtualizing scheduler. Hard submits and batch
/// flushes arm it through [`CorePool::wake`], and it is quiescent only
/// when the engine reports no next event (`run_until` would return
/// without touching its clock) *and* the scheduler has nothing
/// outstanding (its pump cannot bind, and token accrual — which only
/// touches tasks with queued jobs — cannot move), so skipping it is
/// provably a state no-op.
impl<B: Backend> Tier for Gateway<B> {
    fn barrier(&mut self) -> &mut Barrier {
        self.pool.barrier()
    }

    fn next_tick(&self, i: usize) -> Option<u64> {
        let engine = self.pool.core(CoreId(i));
        match self.scheds[i].outstanding() {
            0 => engine.next_event(),
            _ => Some(engine.now()),
        }
    }

    fn tick(&mut self, i: usize, deadline: u64) -> Result<(), SimError> {
        self.advance_core(i, deadline)
    }
}
