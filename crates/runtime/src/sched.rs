//! Slot-virtualizing admission scheduler: N logical tasks over the 4
//! physical IAU slots.
//!
//! INCA's IAU exposes exactly [`TASK_SLOTS`] fixed-priority hardware task
//! slots, so at most four networks can be *resident* at once. Embedded
//! multi-tenant traffic (PREMA, Choi & Rhu, HPCA 2020) needs an arbitrary
//! number of logical tasks; this module adds the predictive software layer
//! above the hardware slots:
//!
//! * every logical [`TaskSpec`] owns a compiled program, a priority, an
//!   optional relative deadline and a bounded job queue with an explicit
//!   backpressure policy ([`DropPolicy`]);
//! * an admission controller gates each submission on a **predicted span**
//!   (the analytical per-instruction cost model summed over the program,
//!   PREMA-style estimated remaining time of competing work);
//! * a pluggable [`SchedPolicy`] decides which queued job binds to a free
//!   slot and when a binding is placed *below* the running slot so the
//!   IAU's interrupt machinery fires (`request_at` preemption);
//! * binding a task to a slot whose resident program differs triggers a
//!   **reload**: the instruction stream is re-DMAed (charged via
//!   [`AccelConfig::dma_cycles`]) and the backend's per-context DDR image
//!   is swapped in ([`Backend::rebind`]).
//!
//! Slot 0 is reserved for priority-0 tasks by default (the paper's
//! non-preemptible emergency slot), which guarantees an urgent task never
//! waits behind an in-flight background job.

use std::collections::VecDeque;
use std::sync::Arc;

use inca_accel::{AccelConfig, Backend, Engine, JobRecord, SimError};
use inca_isa::{Program, TaskSlot, RECORD_BYTES, TASK_SLOTS};
use inca_obs::{HostComponent, Metrics, Probe, SpanStage, TraceEvent};

/// Identifies a logical task registered with a [`Scheduler`]. The
/// `Default` value names the first-registered task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TaskId(usize);

impl TaskId {
    /// Task index (also the backend rebind context id).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// The context id passed to [`Backend::rebind`] when this task binds.
    #[must_use]
    pub fn ctx(self) -> u64 {
        self.0 as u64
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Identifies one admitted job of a logical task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchedJob(u64);

impl SchedJob {
    /// The raw job id (globally unique per scheduler, in admission order).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What happens when a task's bounded queue is full at submission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DropPolicy {
    /// Reject the new submission (caller sees [`RejectReason::QueueFull`]).
    #[default]
    Reject,
    /// Drop the oldest queued job to make room for the new one (camera
    /// pipelines: the freshest frame wins).
    DropOldest,
    /// Admit the new job but skip its compute entirely (degraded mode:
    /// the caller observes success, the datapath does no work).
    DegradeToSkip,
}

/// Which queued job binds to a free slot, and when to preempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// Strict task priority (0 = most urgent), FIFO within a priority.
    FixedPriority,
    /// Earliest absolute deadline first; deadline-less jobs rank last.
    Edf,
    /// PREMA-style tokens: waiting tasks accrue tokens at a rate set by
    /// their priority; the richest task binds next (aging prevents
    /// starvation of low-priority tasks under sustained high-priority
    /// load).
    PremaTokens,
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedPolicy::FixedPriority => "fixed-priority",
            SchedPolicy::Edf => "edf",
            SchedPolicy::PremaTokens => "prema-tokens",
        })
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The task's queue was full under [`DropPolicy::Reject`].
    QueueFull,
    /// The admission controller predicted a deadline miss.
    AdmissionDenied,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => f.write_str("queue full"),
            RejectReason::AdmissionDenied => f.write_str("admission denied"),
        }
    }
}

/// Outcome of a successful [`Scheduler::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The admitted job.
    pub job: SchedJob,
    /// `true` when the job was admitted under [`DropPolicy::DegradeToSkip`]
    /// with a full queue: it will never execute and never complete.
    pub skipped: bool,
    /// Absolute completion deadline derived from the task's relative
    /// deadline, if it has one.
    pub deadline: Option<u64>,
}

/// A logical task: one compiled program plus its scheduling parameters.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Task name (diagnostics/metrics).
    pub name: String,
    /// The compiled program this task runs per job.
    pub program: Arc<Program>,
    /// Priority, 0 = most urgent. Only priority-0 tasks may bind slot 0
    /// while [`Scheduler::set_reserve_slot0`] is on.
    pub priority: u8,
    /// Relative completion deadline in cycles (admission + accounting).
    pub relative_deadline: Option<u64>,
    /// Bounded backlog: queued (not yet bound) jobs beyond the in-flight
    /// one.
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub drop_policy: DropPolicy,
}

impl TaskSpec {
    /// A task named `name` running `program`, priority 3 (background), no
    /// deadline, queue capacity 1, [`DropPolicy::Reject`].
    pub fn new(name: impl Into<String>, program: impl Into<Arc<Program>>) -> Self {
        Self {
            name: name.into(),
            program: program.into(),
            priority: 3,
            relative_deadline: None,
            queue_capacity: 1,
            drop_policy: DropPolicy::Reject,
        }
    }

    /// Sets the priority (0 = most urgent).
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the relative deadline in cycles.
    #[must_use]
    pub fn deadline(mut self, cycles: u64) -> Self {
        self.relative_deadline = Some(cycles);
        self
    }

    /// Sets the queue capacity (clamped to at least 1) and drop policy.
    #[must_use]
    pub fn queue(mut self, capacity: usize, policy: DropPolicy) -> Self {
        self.queue_capacity = capacity.max(1);
        self.drop_policy = policy;
        self
    }
}

/// Per-task lifetime counters. Conservation invariant (property-tested):
/// `submitted == admitted + rejected_queue + rejected_admission` and
/// `admitted == completed + dropped + skipped + queued + in-flight`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Jobs submitted (admitted or not).
    pub submitted: u64,
    /// Jobs admitted (including skipped ones).
    pub admitted: u64,
    /// Jobs completed on the datapath.
    pub completed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_queue: u64,
    /// Submissions rejected by the admission controller.
    pub rejected_admission: u64,
    /// Queued jobs dropped under [`DropPolicy::DropOldest`].
    pub dropped: u64,
    /// Jobs admitted-but-skipped under [`DropPolicy::DegradeToSkip`].
    pub skipped: u64,
    /// Completed jobs that met their deadline.
    pub deadline_met: u64,
    /// Completed jobs that finished past their deadline.
    pub deadline_missed: u64,
}

impl TaskStats {
    fn add(&mut self, other: &TaskStats) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.rejected_queue += other.rejected_queue;
        self.rejected_admission += other.rejected_admission;
        self.dropped += other.dropped;
        self.skipped += other.skipped;
        self.deadline_met += other.deadline_met;
        self.deadline_missed += other.deadline_missed;
    }
}

/// A scheduler-managed job that finished on the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedCompletion {
    /// The logical task.
    pub task: TaskId,
    /// The job.
    pub job: SchedJob,
    /// Its absolute deadline, if the task has one.
    pub deadline: Option<u64>,
    /// The engine's completion record (physical slot, timing).
    pub record: JobRecord,
}

impl SchedCompletion {
    /// Whether the job met its deadline (deadline-less jobs always do).
    #[must_use]
    pub fn met(&self) -> bool {
        self.deadline.is_none_or(|d| self.record.finish <= d)
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    job: SchedJob,
    deadline: Option<u64>,
    /// Cycle the job was admitted (opens its Queue span).
    admitted: u64,
    /// Request tag for causal spans (`None` = untagged, no spans).
    tag: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    job: SchedJob,
    slot: TaskSlot,
    deadline: Option<u64>,
}

#[derive(Debug)]
struct TaskState {
    spec: TaskSpec,
    /// Predicted uninterrupted span (cycles) of one job, from the
    /// analytical cost model.
    span: u64,
    queue: VecDeque<Pending>,
    inflight: Option<InFlight>,
    /// PREMA tokens, accrued while work is pending; reset on bind.
    tokens: u64,
    stats: TaskStats,
}

/// The slot-virtualizing admission scheduler (see module docs).
#[derive(Debug)]
pub struct Scheduler {
    cfg: AccelConfig,
    policy: SchedPolicy,
    admission: bool,
    reserve_slot0: bool,
    tasks: Vec<TaskState>,
    /// Which logical task's job is in flight on each physical slot.
    bindings: [Option<TaskId>; TASK_SLOTS],
    /// Which task's program is resident in each slot (survives
    /// completions; a re-bind of the same task skips the reload).
    loaded: [Option<TaskId>; TASK_SLOTS],
    /// Monotonic scheduler clock (max of all `now` values seen).
    now: u64,
    /// Completion cursor: engine records [`Scheduler::take_completion`]
    /// already handed out.
    pub(crate) seen: usize,
    next_job: u64,
    preempt_requests: u64,
    reloads: u64,
    reload_cycles: u64,
    /// Who watches: tracer, span core stamp, host self-profiler.
    probe: Probe,
}

/// Modelled cost, in cycles, of re-DMAing `program`'s instruction stream
/// into a task slot: the charge a [`Scheduler`] applies when a binding
/// changes the slot's resident program, and the weight-cache miss
/// penalty a cluster router charges when steering a tenant to a gateway
/// where its program is not resident.
#[must_use]
pub fn reload_penalty(cfg: &AccelConfig, program: &Program) -> u64 {
    cfg.dma_cycles((program.instrs.len() * RECORD_BYTES) as u64)
}

impl Scheduler {
    /// Creates a scheduler for engines configured with `cfg`, using
    /// `policy`. Admission control and slot-0 reservation are on by
    /// default.
    #[must_use]
    pub fn new(cfg: AccelConfig, policy: SchedPolicy) -> Self {
        Self {
            cfg,
            policy,
            admission: true,
            reserve_slot0: true,
            tasks: Vec::new(),
            bindings: [None; TASK_SLOTS],
            loaded: [None; TASK_SLOTS],
            now: 0,
            seen: 0,
            next_job: 0,
            preempt_requests: 0,
            reloads: 0,
            reload_cycles: 0,
            probe: Probe::default(),
        }
    }

    /// Enables/disables the predicted-span admission controller.
    pub fn set_admission_control(&mut self, enabled: bool) {
        self.admission = enabled;
    }

    /// Enables/disables reserving slot 0 for priority-0 tasks.
    pub fn set_reserve_slot0(&mut self, enabled: bool) {
        self.reserve_slot0 = enabled;
    }

    /// Installs who watches this scheduler: the tracer its events go
    /// through, the serving-core index stamped on its spans, and the host
    /// self-profiler ([`Scheduler::pump`] time is attributed to
    /// [`HostComponent::Sched`]).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The installed probe (a gateway emits its own spans about a core
    /// through that core's scheduler, so they carry the same stamp).
    #[must_use]
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// The policy in use.
    #[must_use]
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Registers a logical task; its predicted span is computed from the
    /// analytical cost model ([`inca_accel::analysis::predicted_span`]:
    /// virtual instructions cost nothing in normal flow and are excluded)
    /// — the same model `inca-analyze` checks measured runs against.
    pub fn register(&mut self, spec: TaskSpec) -> TaskId {
        let span = inca_accel::analysis::predicted_span(&self.cfg, &spec.program);
        let id = TaskId(self.tasks.len());
        self.tasks.push(TaskState {
            spec,
            span,
            queue: VecDeque::new(),
            inflight: None,
            tokens: 0,
            stats: TaskStats::default(),
        });
        id
    }

    /// A task's registered spec.
    #[must_use]
    pub fn spec(&self, task: TaskId) -> &TaskSpec {
        &self.tasks[task.0].spec
    }

    /// The predicted uninterrupted span of one job of `task`, in cycles.
    #[must_use]
    pub fn predicted_span(&self, task: TaskId) -> u64 {
        self.tasks[task.0].span
    }

    /// A task's lifetime counters.
    #[must_use]
    pub fn stats(&self, task: TaskId) -> TaskStats {
        self.tasks[task.0].stats
    }

    /// Lifetime counters summed over all tasks.
    #[must_use]
    pub fn totals(&self) -> TaskStats {
        let mut t = TaskStats::default();
        for task in &self.tasks {
            t.add(&task.stats);
        }
        t
    }

    /// Queued (admitted, not yet bound) jobs of `task`.
    #[must_use]
    pub fn queue_depth(&self, task: TaskId) -> usize {
        self.tasks[task.0].queue.len()
    }

    /// Whether `task` has a job bound to a physical slot right now.
    #[must_use]
    pub fn in_flight(&self, task: TaskId) -> bool {
        self.tasks[task.0].inflight.is_some()
    }

    /// Jobs admitted but not yet completed (queued + in flight), over all
    /// tasks.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.tasks.iter().map(|t| t.queue.len() + usize::from(t.inflight.is_some())).sum()
    }

    /// Current task-to-slot bindings (physical slot order).
    #[must_use]
    pub fn bindings(&self) -> [Option<TaskId>; TASK_SLOTS] {
        self.bindings
    }

    /// Program reloads performed so far (cumulative).
    #[must_use]
    pub fn reloads(&self) -> u64 {
        self.reloads
    }

    /// Cycles spent in program-reload DMA so far (cumulative) — the
    /// timeline's weight-cache residency proxy: a scheduler whose working
    /// set stays resident burns none.
    #[must_use]
    pub fn reload_cycles(&self) -> u64 {
        self.reload_cycles
    }

    /// Submits one job of `task` at cycle `now`.
    ///
    /// The job's absolute deadline is `now + relative_deadline` when the
    /// task has one. The job executes once a [`Scheduler::pump`] binds it
    /// to a free slot.
    ///
    /// # Errors
    ///
    /// [`RejectReason::QueueFull`] under [`DropPolicy::Reject`] with a
    /// full queue; [`RejectReason::AdmissionDenied`] when the admission
    /// controller predicts a deadline miss.
    pub fn submit(&mut self, now: u64, task: TaskId) -> Result<Admission, RejectReason> {
        self.submit_tagged(now, task, None)
    }

    /// Like [`Scheduler::submit`], additionally carrying a request tag:
    /// the binding emits causal `Queue`/`Reload` spans attributed to that
    /// request, and the engine job inherits the tag for `Exec` spans.
    /// Untagged submissions emit no spans, keeping legacy traces
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::submit`].
    pub fn submit_tagged(
        &mut self,
        now: u64,
        task: TaskId,
        tag: Option<u64>,
    ) -> Result<Admission, RejectReason> {
        self.now = self.now.max(now);
        let now = self.now;
        let deadline = self.tasks[task.0].spec.relative_deadline.map(|d| now + d);
        self.tasks[task.0].stats.submitted += 1;

        if self.admission && !self.admit(task, deadline) {
            self.tasks[task.0].stats.rejected_admission += 1;
            self.emit_rejected(now, task, "admission");
            return Err(RejectReason::AdmissionDenied);
        }

        let t = &mut self.tasks[task.0];
        if t.queue.len() >= t.spec.queue_capacity {
            match t.spec.drop_policy {
                DropPolicy::Reject => {
                    t.stats.rejected_queue += 1;
                    self.emit_rejected(now, task, "queue-full");
                    return Err(RejectReason::QueueFull);
                }
                DropPolicy::DropOldest => {
                    t.queue.pop_front();
                    t.stats.dropped += 1;
                    self.emit_rejected(now, task, "drop-oldest");
                }
                DropPolicy::DegradeToSkip => {
                    let job = SchedJob(self.next_job);
                    self.next_job += 1;
                    let t = &mut self.tasks[task.0];
                    t.stats.admitted += 1;
                    t.stats.skipped += 1;
                    self.emit_rejected(now, task, "degrade-skip");
                    return Ok(Admission { job, skipped: true, deadline });
                }
            }
        }

        let job = SchedJob(self.next_job);
        self.next_job += 1;
        let t = &mut self.tasks[task.0];
        t.stats.admitted += 1;
        t.queue.push_back(Pending { job, deadline, admitted: now, tag });
        let depth = t.queue.len() as u32;
        self.probe.tracer.emit(|| TraceEvent::SchedAdmitted {
            cycle: now,
            task: task.0 as u32,
            job: job.0,
            queue_depth: depth,
        });
        Ok(Admission { job, skipped: false, deadline })
    }

    /// The admission predicate: admit unless the job carries a deadline
    /// and `now + competing work + own span` overruns it. Competing work
    /// is every queued or in-flight job that the policy would serve before
    /// this one, each charged its task's full predicted span (PREMA's
    /// conservative estimated-remaining-time).
    fn admit(&self, task: TaskId, deadline: Option<u64>) -> bool {
        let Some(deadline) = deadline else { return true };
        let me = &self.tasks[task.0];
        let mut work = 0u64;
        for (i, t) in self.tasks.iter().enumerate() {
            let competes = match self.policy {
                SchedPolicy::FixedPriority | SchedPolicy::PremaTokens => {
                    t.spec.priority <= me.spec.priority
                }
                SchedPolicy::Edf => false, // per-job below
            };
            let queued_ahead = match self.policy {
                SchedPolicy::Edf => {
                    t.queue.iter().filter(|p| p.deadline.unwrap_or(u64::MAX) <= deadline).count()
                        as u64
                }
                _ if competes => t.queue.len() as u64,
                _ => 0,
            };
            let inflight_ahead = match (&t.inflight, self.policy) {
                (Some(f), SchedPolicy::Edf) => {
                    u64::from(f.deadline.unwrap_or(u64::MAX) <= deadline || i == task.0)
                }
                (Some(_), _) if competes => 1,
                _ => 0,
            };
            work += (queued_ahead + inflight_ahead) * t.span;
        }
        self.now.saturating_add(work).saturating_add(me.span) <= deadline
    }

    fn emit_rejected(&self, cycle: u64, task: TaskId, reason: &'static str) {
        self.probe.tracer.emit(|| TraceEvent::SchedRejected { cycle, task: task.0 as u32, reason });
    }

    /// Policy rank of a task's next runnable (queue-head) job; lower is
    /// more urgent.
    fn head_rank(&self, idx: usize) -> (u64, u64, u64) {
        let t = &self.tasks[idx];
        let head = t.queue.front().expect("ranked task has a queued job");
        match self.policy {
            SchedPolicy::FixedPriority => (u64::from(t.spec.priority), head.job.0, 0),
            SchedPolicy::Edf => (head.deadline.unwrap_or(u64::MAX), head.job.0, 0),
            SchedPolicy::PremaTokens => {
                (u64::MAX - t.tokens, u64::from(t.spec.priority), head.job.0)
            }
        }
    }

    /// Policy rank of a task's in-flight job (for preemption decisions).
    fn bound_rank(&self, idx: usize) -> (u64, u64, u64) {
        let t = &self.tasks[idx];
        let f = t.inflight.as_ref().expect("bound task has an in-flight job");
        match self.policy {
            SchedPolicy::FixedPriority => (u64::from(t.spec.priority), f.job.0, 0),
            SchedPolicy::Edf => (f.deadline.unwrap_or(u64::MAX), f.job.0, 0),
            SchedPolicy::PremaTokens => (u64::MAX - t.tokens, u64::from(t.spec.priority), f.job.0),
        }
    }

    /// PREMA token accrual: waiting tasks earn `weight` tokens per kilocycle,
    /// where higher-priority tasks have larger weights (prio 0 → 4 … prio
    /// ≥3 → 1).
    fn accrue_tokens(&mut self, now: u64) {
        let dt = now.saturating_sub(self.now);
        if dt == 0 {
            return;
        }
        for t in &mut self.tasks {
            if !t.queue.is_empty() {
                let weight = 1 + u64::from(3u8.saturating_sub(t.spec.priority.min(3)));
                t.tokens = t.tokens.saturating_add(dt.div_ceil(1000) * weight);
            }
        }
    }

    /// Binds queued jobs to free slots per the policy. Call whenever time
    /// advanced, jobs were submitted or a completion freed a slot.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (e.g. loading over a raw in-flight job on
    /// a slot the scheduler does not own).
    pub fn pump<B: Backend>(&mut self, now: u64, engine: &mut Engine<B>) -> Result<(), SimError> {
        let _timer = self.probe.host.as_ref().map(|p| p.timer(HostComponent::Sched));
        if self.policy == SchedPolicy::PremaTokens {
            self.accrue_tokens(now.max(engine.now()));
        }
        self.now = self.now.max(now);
        loop {
            let mut waiting: Vec<usize> = (0..self.tasks.len())
                .filter(|&i| self.tasks[i].inflight.is_none() && !self.tasks[i].queue.is_empty())
                .collect();
            waiting.sort_by_key(|&i| self.head_rank(i));
            // The best-ranked candidate binds first; a candidate that no
            // slot can serve (e.g. the reserved slot 0 is the only one
            // free) does not block worse-ranked ones.
            let Some((cand, slot)) =
                waiting.iter().find_map(|&i| self.choose_slot(i, engine).map(|s| (i, s)))
            else {
                return Ok(());
            };
            self.bind(cand, slot, engine)?;
        }
    }

    /// Picks the physical slot for `cand`'s queue-head job, or `None` when
    /// no usable slot is free.
    ///
    /// Hardware priority is the inverse slot index, so the binding must
    /// keep slot order consistent with policy rank order: above every
    /// bound job that outranks the candidate, and — when possible — below
    /// the bound jobs the candidate outranks, which hands the candidate
    /// the datapath and preempts whichever of them is running. Slots the
    /// engine is using outside this scheduler are never touched.
    fn choose_slot<B: Backend>(&mut self, cand: usize, engine: &Engine<B>) -> Option<TaskSlot> {
        let urgent = self.tasks[cand].spec.priority == 0;
        let cand_rank = self.head_rank(cand);
        // `lower`: highest bound slot whose job outranks the candidate
        // (must bind above it). `upper`: lowest bound slot whose job the
        // candidate outranks (binding below it wins the datapath).
        let mut lower = None;
        let mut upper = None;
        for (slot, bound) in self.bindings.iter().enumerate() {
            let Some(t) = bound else { continue };
            if cand_rank < self.bound_rank(t.index()) {
                if upper.is_none() {
                    upper = Some(slot);
                }
            } else {
                lower = Some(slot);
            }
        }
        let feasible = |i: usize| {
            self.bindings[i].is_none()
                && engine.task_state(TaskSlot::new(i as u8).expect("valid slot"))
                    == inca_accel::TaskState::Idle
                && (i != 0 || !self.reserve_slot0 || urgent)
                && lower.is_none_or(|l| i > l)
        };
        let preferred =
            (0..TASK_SLOTS).filter(|&i| feasible(i) && upper.is_none_or(|u| i < u)).min();
        let chosen = preferred.or_else(|| (0..TASK_SLOTS).filter(|&i| feasible(i)).min())?;
        let running_min = self.bindings.iter().position(Option::is_some);
        if running_min.is_some_and(|r| chosen < r) {
            self.preempt_requests += 1;
        }
        TaskSlot::new(chosen as u8).ok()
    }

    fn bind<B: Backend>(
        &mut self,
        idx: usize,
        slot: TaskSlot,
        engine: &mut Engine<B>,
    ) -> Result<(), SimError> {
        let pending = self.tasks[idx].queue.pop_front().expect("bound task has a queued job");
        let task = TaskId(idx);
        let mut reload = 0u64;
        if self.loaded[slot.index()] != Some(task) {
            engine.load(slot, Arc::clone(&self.tasks[idx].spec.program))?;
            self.loaded[slot.index()] = Some(task);
            self.reloads += 1;
            reload = reload_penalty(&self.cfg, &self.tasks[idx].spec.program);
        }
        // The context's DDR image follows the task across slots even when
        // the program copy is still resident.
        engine.backend_mut().rebind(slot, task.ctx())?;
        let base = self.now.max(engine.now());
        let release = base + reload;
        engine.request_job_tagged(release, slot, 0, 0, pending.tag)?;
        self.reload_cycles += reload;
        if let Some(tag) = pending.tag {
            // Queue span: admission to the cycle a slot was secured; the
            // reload DMA (if any) gets its own span on top.
            self.probe.span(tag, SpanStage::Queue, 0, None, pending.admitted..base, idx as u64);
            if reload > 0 {
                let detail = slot.index() as u64;
                self.probe.span(tag, SpanStage::Reload, 0, None, base..release, detail);
            }
        }
        let preempting = self
            .bindings
            .iter()
            .position(Option::is_some)
            .is_some_and(|running| slot.index() < running);
        self.bindings[slot.index()] = Some(task);
        self.tasks[idx].inflight =
            Some(InFlight { job: pending.job, slot, deadline: pending.deadline });
        self.tasks[idx].tokens = 0;
        let (cycle, job) = (release, pending.job.0);
        self.probe.tracer.emit(|| TraceEvent::SchedBound {
            cycle,
            task: idx as u32,
            job,
            slot,
            preempting,
            reload_cycles: reload,
        });
        Ok(())
    }

    /// The first half of the drive loop every tier above an engine runs:
    /// pump at cycle `now`, then run `engine` to `deadline` or to its next
    /// job completion, whichever comes first. Returns `true` when a
    /// completion stopped it — drain [`Scheduler::take_completion`] and
    /// step again, so the freed slot re-binds at the exact completion
    /// cycle.
    ///
    /// `now` is the caller's clock, not `engine.now()`: the engine
    /// overshoots a horizon by up to one instruction, and pumping there
    /// would raise the scheduler clock that the next submission's
    /// relative deadline is added to.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn step<B: Backend>(
        &mut self,
        now: u64,
        engine: &mut Engine<B>,
        deadline: u64,
    ) -> Result<bool, SimError> {
        self.pump(now, engine)?;
        engine.run_until_complete(deadline)
    }

    /// The second half: the next completion record of `engine` this
    /// scheduler has not seen yet, with the scheduler completion when it
    /// belongs to a scheduler-bound job (`None` inside: a raw,
    /// non-scheduled submission). `None` once every record was taken.
    pub fn take_completion<B: Backend>(
        &mut self,
        engine: &Engine<B>,
    ) -> Option<(JobRecord, Option<SchedCompletion>)> {
        let record = *engine.completed_jobs().get(self.seen)?;
        self.seen += 1;
        Some((record, self.note_completion(&record)))
    }

    /// Routes one engine completion record to its logical task, if any.
    fn note_completion(&mut self, record: &JobRecord) -> Option<SchedCompletion> {
        let task = self.bindings[record.slot.index()]?;
        let f = self.tasks[task.0].inflight.take().expect("bound task has an in-flight job");
        debug_assert_eq!(f.slot, record.slot);
        self.bindings[record.slot.index()] = None;
        self.now = self.now.max(record.finish);
        let stats = &mut self.tasks[task.0].stats;
        stats.completed += 1;
        if let Some(d) = f.deadline {
            if record.finish <= d {
                stats.deadline_met += 1;
            } else {
                stats.deadline_missed += 1;
            }
        }
        Some(SchedCompletion { task, job: f.job, deadline: f.deadline, record: *record })
    }

    /// A deterministic metrics snapshot, keys prefixed `sched.`.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        let t = self.totals();
        m.inc("sched.tasks", self.tasks.len() as u64);
        m.inc("sched.jobs.submitted", t.submitted);
        m.inc("sched.jobs.admitted", t.admitted);
        m.inc("sched.jobs.completed", t.completed);
        m.inc("sched.jobs.rejected.queue", t.rejected_queue);
        m.inc("sched.jobs.rejected.admission", t.rejected_admission);
        m.inc("sched.jobs.dropped", t.dropped);
        m.inc("sched.jobs.skipped", t.skipped);
        m.inc("sched.deadlines.met", t.deadline_met);
        m.inc("sched.deadlines.missed", t.deadline_missed);
        m.inc("sched.reloads", self.reloads);
        m.inc("sched.reload_cycles", self.reload_cycles);
        m.inc("sched.preempt.requests", self.preempt_requests);
        m.inc(&format!("sched.preempt.requests.{}", self.policy), self.preempt_requests);
        for (i, task) in self.tasks.iter().enumerate() {
            m.set_gauge(&format!("sched.task{i}.queue_depth"), task.queue.len() as f64);
        }
        m
    }
}

/// An [`Engine`] paired with a [`Scheduler`]: submissions go to logical
/// tasks, completions are routed back, and the run loop re-binds freed
/// slots at the exact completion cycle (via
/// [`Engine::run_until_complete`]).
///
/// This is the standalone driver used by benches and tests; the
/// [`crate::Runtime`] embeds the same logic behind its node API.
#[derive(Debug)]
pub struct ScheduledEngine<B: Backend> {
    engine: Engine<B>,
    sched: Scheduler,
}

impl<B: Backend> ScheduledEngine<B> {
    /// Pairs `engine` with `sched`.
    #[must_use]
    pub fn new(engine: Engine<B>, sched: Scheduler) -> Self {
        Self { engine, sched }
    }

    /// The engine.
    #[must_use]
    pub fn engine(&self) -> &Engine<B> {
        &self.engine
    }

    /// The engine, mutable (e.g. to install backend images).
    #[must_use]
    pub fn engine_mut(&mut self) -> &mut Engine<B> {
        &mut self.engine
    }

    /// The scheduler.
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Registers a logical task.
    pub fn register(&mut self, spec: TaskSpec) -> TaskId {
        self.sched.register(spec)
    }

    /// Submits one job of `task` at cycle `now` (must not precede earlier
    /// submissions — the scheduler clock is monotonic).
    ///
    /// # Errors
    ///
    /// See [`Scheduler::submit`].
    pub fn submit(&mut self, now: u64, task: TaskId) -> Result<Admission, RejectReason> {
        self.sched.submit(now, task)
    }

    /// Runs until `deadline`, pumping the scheduler at every job
    /// completion, and returns the completions observed.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_until(&mut self, deadline: u64) -> Result<Vec<SchedCompletion>, SimError> {
        let mut done = Vec::new();
        loop {
            let hit_completion = self.sched.step(self.engine.now(), &mut self.engine, deadline)?;
            while let Some((_, completion)) = self.sched.take_completion(&self.engine) {
                done.extend(completion);
            }
            if !hit_completion {
                return Ok(done);
            }
        }
    }

    /// Runs until every admitted job completed (or nothing can make
    /// progress), capped at `max_cycles`.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_to_idle(&mut self, max_cycles: u64) -> Result<Vec<SchedCompletion>, SimError> {
        let mut done = Vec::new();
        while self.sched.outstanding() > 0 && self.engine.now() < max_cycles {
            let before = (self.engine.now(), self.sched.outstanding());
            let mut batch = self.run_until(max_cycles)?;
            done.append(&mut batch);
            if (self.engine.now(), self.sched.outstanding()) == before {
                break; // wedged: queued work no policy/slot can serve
            }
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_accel::{InterruptStrategy, TimingBackend};
    use inca_compiler::Compiler;
    use inca_model::{zoo, Shape3};

    fn cfg() -> AccelConfig {
        AccelConfig::paper_big()
    }

    fn tiny(side: u32) -> Arc<Program> {
        let c = Compiler::new(cfg().arch);
        Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, side, side)).unwrap()).unwrap())
    }

    fn scheduled(policy: SchedPolicy) -> ScheduledEngine<TimingBackend> {
        let engine =
            Engine::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
        ScheduledEngine::new(engine, Scheduler::new(cfg(), policy))
    }

    #[test]
    fn span_prediction_is_positive_and_scales() {
        let mut s = Scheduler::new(cfg(), SchedPolicy::FixedPriority);
        let small = s.register(TaskSpec::new("s", tiny(16)));
        let big = s.register(TaskSpec::new("b", tiny(64)));
        assert!(s.predicted_span(small) > 0);
        assert!(s.predicted_span(big) > s.predicted_span(small));
    }

    #[test]
    fn more_tasks_than_slots_all_complete() {
        let mut se = scheduled(SchedPolicy::FixedPriority);
        let program = tiny(16);
        let tasks: Vec<TaskId> = (0..9)
            .map(|i| {
                se.register(
                    TaskSpec::new(format!("t{i}"), Arc::clone(&program))
                        .priority(1 + (i % 3) as u8),
                )
            })
            .collect();
        for &t in &tasks {
            se.submit(0, t).unwrap();
        }
        let done = se.run_to_idle(u64::MAX).unwrap();
        assert_eq!(done.len(), 9);
        let totals = se.scheduler().totals();
        assert_eq!(totals.completed, 9);
        assert_eq!(se.scheduler().outstanding(), 0);
        // 9 tasks over at most 3 usable slots (slot 0 reserved) must
        // time-share: at least one slot got a program reload.
        assert!(se.scheduler().metrics().counter("sched.reloads") >= 4);
    }

    #[test]
    fn slot0_reserved_for_priority_zero() {
        let mut se = scheduled(SchedPolicy::FixedPriority);
        let program = tiny(16);
        let bg = se.register(TaskSpec::new("bg", Arc::clone(&program)).priority(3));
        let urgent = se.register(TaskSpec::new("urgent", Arc::clone(&program)).priority(0));
        se.submit(0, bg).unwrap();
        se.submit(0, urgent).unwrap();
        // Pump without running: bindings land immediately.
        se.sched.pump(0, &mut se.engine).unwrap();
        let b = se.scheduler().bindings();
        assert_eq!(b[0], Some(urgent), "priority 0 takes the reserved slot");
        assert_ne!(b[1].or(b[2]).or(b[3]), None, "background task binds elsewhere");
        assert_ne!(b[0], Some(bg));
    }

    #[test]
    fn urgent_arrival_preempts_running_background() {
        let mut se = scheduled(SchedPolicy::FixedPriority);
        let bg = se.register(TaskSpec::new("bg", tiny(64)).priority(3));
        let urgent = se.register(TaskSpec::new("urgent", tiny(16)).priority(0));
        se.submit(0, bg).unwrap();
        se.run_until(2_000).unwrap();
        se.submit(2_000, urgent).unwrap();
        let done = se.run_to_idle(u64::MAX).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].task, urgent, "urgent job finishes first");
        let report = se.engine().report();
        assert_eq!(report.interrupts.len(), 1, "the IAU observed one preemption");
        assert!(se.scheduler().metrics().counter("sched.preempt.requests") >= 1);
    }

    #[test]
    fn drop_policies_behave_distinctly() {
        for (policy, expect_err, expect_dropped, expect_skipped) in [
            (DropPolicy::Reject, true, 0u64, 0u64),
            (DropPolicy::DropOldest, false, 1, 0),
            (DropPolicy::DegradeToSkip, false, 0, 1),
        ] {
            let mut s = Scheduler::new(cfg(), SchedPolicy::FixedPriority);
            let t = s.register(TaskSpec::new("t", tiny(16)).queue(1, policy));
            s.submit(0, t).unwrap();
            let second = s.submit(1, t);
            assert_eq!(second.is_err(), expect_err, "{policy:?}");
            let st = s.stats(t);
            assert_eq!(st.dropped, expect_dropped, "{policy:?}");
            assert_eq!(st.skipped, expect_skipped, "{policy:?}");
            if let Ok(adm) = second {
                assert_eq!(adm.skipped, expect_skipped == 1, "{policy:?}");
            }
        }
    }

    #[test]
    fn admission_denies_predicted_overrun() {
        let mut s = Scheduler::new(cfg(), SchedPolicy::FixedPriority);
        let t = s.register(
            TaskSpec::new("t", tiny(32)).priority(1).deadline(10).queue(8, DropPolicy::Reject),
        );
        assert_eq!(s.submit(0, t), Err(RejectReason::AdmissionDenied));
        let st = s.stats(t);
        assert_eq!(st.rejected_admission, 1);
        // A feasible deadline admits.
        let span = s.predicted_span(t);
        let mut s2 = Scheduler::new(cfg(), SchedPolicy::FixedPriority);
        let t2 = s2.register(
            TaskSpec::new("t", tiny(32))
                .priority(1)
                .deadline(span * 2)
                .queue(8, DropPolicy::Reject),
        );
        assert!(s2.submit(0, t2).is_ok());
    }

    #[test]
    fn edf_orders_by_deadline_not_priority() {
        let mut se = scheduled(SchedPolicy::Edf);
        let program = tiny(16);
        // Lower priority but tighter deadline must bind first under EDF.
        let loose = se
            .register(TaskSpec::new("loose", Arc::clone(&program)).priority(1).deadline(9_000_000));
        let tight =
            se.register(TaskSpec::new("tight", Arc::clone(&program)).priority(3).deadline(400_000));
        se.submit(0, loose).unwrap();
        se.submit(0, tight).unwrap();
        let done = se.run_to_idle(u64::MAX).unwrap();
        assert_eq!(done.len(), 2);
        // Both bound in the same pump; the tighter deadline got the
        // higher-priority (lower-index) slot, so it finished first.
        assert_eq!(done[0].task, tight);
    }

    #[test]
    fn prema_tokens_age_background_work() {
        let mut s = Scheduler::new(cfg(), SchedPolicy::PremaTokens);
        let a = s.register(TaskSpec::new("a", tiny(16)).priority(3).queue(4, DropPolicy::Reject));
        s.submit(0, a).unwrap();
        let mut engine =
            Engine::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
        // Accrue over a long idle gap, then observe tokens were earned and
        // reset on bind.
        s.accrue_tokens(100_000);
        assert!(s.tasks[a.0].tokens > 0);
        s.pump(100_000, &mut engine).unwrap();
        assert_eq!(s.tasks[a.0].tokens, 0, "tokens reset when the job binds");
    }

    #[test]
    fn completion_routing_ignores_raw_jobs() {
        let mut s = Scheduler::new(cfg(), SchedPolicy::FixedPriority);
        let rec = JobRecord {
            slot: TaskSlot::new(2).unwrap(),
            release: 0,
            start: 0,
            finish: 10,
            busy_cycles: 10,
            extra_cost_cycles: 0,
            preemptions: 0,
        };
        assert_eq!(s.note_completion(&rec), None);
    }

    #[test]
    fn metrics_reconcile_with_stats() {
        let mut se = scheduled(SchedPolicy::FixedPriority);
        let t = se.register(TaskSpec::new("t", tiny(16)).priority(1).queue(2, DropPolicy::Reject));
        for i in 0..3 {
            let _ = se.submit(i, t);
        }
        se.run_to_idle(u64::MAX).unwrap();
        let m = se.scheduler().metrics();
        let totals = se.scheduler().totals();
        assert_eq!(m.counter("sched.jobs.submitted"), totals.submitted);
        assert_eq!(m.counter("sched.jobs.completed"), totals.completed);
        assert_eq!(
            totals.submitted,
            totals.admitted + totals.rejected_queue + totals.rejected_admission
        );
        assert_eq!(totals.admitted, totals.completed + totals.dropped + totals.skipped);
    }
}
