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
//!   is swapped in ([`Backend::rebind`]); among the slots the slot order
//!   allows, a task binds to the one already holding its program.
//!
//! Admission control and slot placement are fixed policy: every
//! submission passes the admission predicate, and slot 0 is reserved for
//! priority-0 tasks (the paper's non-preemptible emergency slot), so
//! background work never holds the slot an urgent task binds to: it
//! binds the highest-priority slot without waiting for a background job
//! to finish, and the IAU preempts whatever runs. The urgent task still
//! waits for that preemption: under the VI strategy the in-flight job
//! runs to its next interrupt point and backs up (t2) — up to 62 738
//! cycles on GeM/ResNet101 at 480×640 under `paper_big` — under
//! layer-by-layer to the end of its layer, and under the non-preemptive
//! strategy to its completion.
//!
//! A core's schedule depends only on its submissions. The scheduler keeps
//! no clock: a job is admitted, and its deadline counted, from its
//! submission cycle; it binds once its engine's clock reached that cycle
//! ([`Scheduler::step`] runs the engine no further), and a late
//! submission, which finds the engine past it, binds at the engine's
//! clock. The release is that clock plus the reload, and
//! [`SchedPolicy::PremaTokens`] ranks are read there too, from tokens
//! that are a closed form of the time waited. Where a driver put its
//! barriers changes how much work the run takes, not what it does.

use std::collections::VecDeque;
use std::sync::Arc;

use inca_accel::{AccelConfig, Backend, Engine, JobRecord, SimError};
use inca_isa::{Program, TaskSlot, RECORD_BYTES, TASK_SLOTS};
use inca_obs::{Metrics, Probe, SpanStage, TraceEvent};

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
    /// PREMA-style tokens: a waiting task holds tokens in proportion to
    /// the time its queue head has waited, at a rate set by its priority;
    /// the richest task binds next (aging prevents starvation of
    /// low-priority tasks under sustained high-priority load).
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
    /// Priority, 0 = most urgent. Only priority-0 tasks may bind slot 0.
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

/// Lifetime counters of one task — or, as `inca_serve::TenantStats`, of
/// one serving tenant: the scheduler and the gateway keep one ledger.
/// Conservation invariants (property-tested):
///
/// * `submitted == admitted + rejected + shed`
/// * `admitted == completed + dropped + skipped + outstanding`
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Submissions (admitted or not).
    pub submitted: u64,
    /// Submissions that entered the queue or pipeline (including degraded
    /// skips).
    pub admitted: u64,
    /// Submissions rejected because the deadline was already unmeetable
    /// (the admission controller).
    pub rejected: u64,
    /// Submissions shed at the door: the task's queue was full under
    /// [`DropPolicy::Reject`] (a gateway also sheds past a tenant's
    /// outstanding bound, or with nothing droppable under
    /// [`DropPolicy::DropOldest`]).
    pub shed: u64,
    /// Admitted jobs later discarded: displaced under
    /// [`DropPolicy::DropOldest`] (a gateway also drops requests a core
    /// refuses at dispatch, and recalled ones).
    pub dropped: u64,
    /// Jobs admitted-but-skipped under [`DropPolicy::DegradeToSkip`].
    pub skipped: u64,
    /// Jobs completed on a datapath.
    pub completed: u64,
    /// Completed jobs that met their deadline (deadline tasks only).
    pub deadline_met: u64,
    /// Completed jobs that finished past their deadline.
    pub deadline_missed: u64,
}

impl TaskStats {
    /// Adds `other`'s counters to these (totals over tasks, gateways and
    /// fleets).
    pub fn add(&mut self, other: &TaskStats) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.dropped += other.dropped;
        self.skipped += other.skipped;
        self.completed += other.completed;
        self.deadline_met += other.deadline_met;
        self.deadline_missed += other.deadline_missed;
    }

    /// Writes the ledger into `m` as `{prefix}requests.*` and
    /// `{prefix}deadlines.*` counters — one spelling of the keys for the
    /// gateway (`serve.`) and the fleet (`cluster.`).
    pub fn write_metrics(&self, m: &mut Metrics, prefix: &str) {
        for (key, value) in [
            ("requests.submitted", self.submitted),
            ("requests.admitted", self.admitted),
            ("requests.rejected", self.rejected),
            ("requests.shed", self.shed),
            ("requests.dropped", self.dropped),
            ("requests.skipped", self.skipped),
            ("requests.completed", self.completed),
            ("deadlines.met", self.deadline_met),
            ("deadlines.missed", self.deadline_missed),
        ] {
            m.inc(&format!("{prefix}{key}"), value);
        }
    }

    /// Counts one completion at cycle `finish` against the job's absolute
    /// `deadline`, if it has one: met when `finish <= deadline`, else
    /// missed.
    pub fn complete(&mut self, finish: u64, deadline: Option<u64>) {
        self.completed += 1;
        match deadline {
            Some(d) if finish <= d => self.deadline_met += 1,
            Some(_) => self.deadline_missed += 1,
            None => {}
        }
    }

    /// Admitted but not yet completed, dropped or skipped (for a
    /// scheduler task: queued or in flight).
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.admitted - self.completed - self.dropped - self.skipped
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

#[derive(Debug, Clone, Copy)]
struct Pending {
    job: SchedJob,
    deadline: Option<u64>,
    /// The submission cycle: the job binds once its engine's clock reached
    /// it, and its Queue span opens there.
    submitted: u64,
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
    /// What loading the program into a slot costs ([`reload_penalty`]).
    reload: u64,
    queue: VecDeque<Pending>,
    inflight: Option<InFlight>,
    /// The cycle the task last bound: its PREMA tokens count from there.
    bound_at: u64,
    stats: TaskStats,
}

/// The slot-virtualizing admission scheduler (see module docs).
#[derive(Debug)]
pub struct Scheduler {
    cfg: AccelConfig,
    policy: SchedPolicy,
    tasks: Vec<TaskState>,
    /// Queued (admitted, not yet bound) jobs over all tasks: the sum of
    /// every task's queue length, kept where a queue grows or shrinks.
    queued: usize,
    /// Every queued or in-flight job charged its task's predicted span,
    /// kept where `queued` changes and where a job completes.
    backlog: u64,
    /// Tasks with a queued job and none in flight: `pump`'s bind
    /// candidates, kept where a queue fills, a slot binds or a job
    /// completes. Unordered; `pump` ranks it.
    ready: Vec<usize>,
    /// Which logical task's job is in flight on each physical slot.
    bindings: [Option<TaskId>; TASK_SLOTS],
    /// Which task's program is resident in each slot (survives
    /// completions; `choose_slot` prefers it, and a re-bind of the same
    /// task skips the reload).
    loaded: [Option<TaskId>; TASK_SLOTS],
    next_job: u64,
    preempt_requests: u64,
    reloads: u64,
    reload_cycles: u64,
    /// Who watches: tracer and span core stamp.
    probe: Probe,
}

/// Modelled cost, in cycles, of re-DMAing `program`'s instruction stream
/// into a task slot: the charge a [`Scheduler`] applies when a binding
/// changes the slot's resident program, and what a serving gateway
/// quotes as the reload cost of a tenant whose program is not
/// [`Scheduler::resident`] on the core it would place it on.
#[must_use]
pub fn reload_penalty(cfg: &AccelConfig, program: &Program) -> u64 {
    cfg.dma_cycles((program.instrs.len() * RECORD_BYTES) as u64)
}

impl Scheduler {
    /// Creates a scheduler for engines configured with `cfg`, using
    /// `policy`.
    #[must_use]
    pub fn new(cfg: AccelConfig, policy: SchedPolicy) -> Self {
        Self {
            cfg,
            policy,
            tasks: Vec::new(),
            queued: 0,
            backlog: 0,
            ready: Vec::new(),
            bindings: [None; TASK_SLOTS],
            loaded: [None; TASK_SLOTS],
            next_job: 0,
            preempt_requests: 0,
            reloads: 0,
            reload_cycles: 0,
            probe: Probe::default(),
        }
    }

    /// Installs who watches this scheduler: the tracer its events go
    /// through and the serving-core index stamped on its spans.
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
        let reload = reload_penalty(&self.cfg, &spec.program);
        let id = TaskId(self.tasks.len());
        self.tasks.push(TaskState {
            spec,
            span,
            reload,
            queue: VecDeque::new(),
            inflight: None,
            bound_at: 0,
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
        let n = self.queued + self.bindings.iter().filter(|b| b.is_some()).count();
        debug_assert_eq!(
            n,
            self.tasks.iter().map(|t| t.queue.len() + usize::from(t.inflight.is_some())).sum(),
            "the queued count matches the task queues"
        );
        n
    }

    /// Modelled outstanding work in cycles: every queued or in-flight job
    /// charged its task's full predicted span (what least-loaded
    /// placement compares cores by).
    #[must_use]
    pub fn modelled_backlog(&self) -> u64 {
        debug_assert_eq!(
            self.backlog,
            self.tasks
                .iter()
                .map(|t| (t.queue.len() as u64 + u64::from(t.inflight.is_some())) * t.span)
                .sum::<u64>(),
            "the running backlog matches the task queues"
        );
        self.backlog
    }

    /// Current task-to-slot bindings (physical slot order).
    #[must_use]
    pub fn bindings(&self) -> [Option<TaskId>; TASK_SLOTS] {
        self.bindings
    }

    /// Whether `task`'s program is resident in one of the slots. A bind
    /// takes that slot whenever the slot-order rule allows it there, and
    /// then skips the reload.
    #[must_use]
    pub fn resident(&self, task: TaskId) -> bool {
        self.loaded.contains(&Some(task))
    }

    /// Reload cycles the next bind of `task` would pay: 0 when it is
    /// [`Scheduler::resident`], otherwise its program's
    /// [`reload_penalty`] under this scheduler's config.
    #[must_use]
    pub fn reload_quote(&self, task: TaskId) -> u64 {
        if self.resident(task) {
            0
        } else {
            self.tasks[task.0].reload
        }
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
    /// Admission counts from `now`, and the job's absolute deadline is
    /// `now + relative_deadline` when the task has one. The job executes
    /// once a [`Scheduler::step`] binds it to a free slot: not before its
    /// engine's clock reached `now`, and at that clock when a late
    /// submission finds the engine past it.
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
        let deadline = self.tasks[task.0].spec.relative_deadline.map(|d| now + d);
        self.tasks[task.0].stats.submitted += 1;

        if !self.admit(now, task, deadline) {
            self.tasks[task.0].stats.rejected += 1;
            self.emit_rejected(now, task, "admission");
            return Err(RejectReason::AdmissionDenied);
        }

        let t = &mut self.tasks[task.0];
        let was_empty = t.queue.is_empty();
        if t.queue.len() >= t.spec.queue_capacity {
            match t.spec.drop_policy {
                DropPolicy::Reject => {
                    t.stats.shed += 1;
                    self.emit_rejected(now, task, "queue-full");
                    return Err(RejectReason::QueueFull);
                }
                DropPolicy::DropOldest => {
                    t.queue.pop_front();
                    t.stats.dropped += 1;
                    self.queued -= 1;
                    self.backlog -= t.span;
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
        t.queue.push_back(Pending { job, deadline, submitted: now, tag });
        let depth = t.queue.len() as u32;
        if was_empty && t.inflight.is_none() {
            self.ready.push(task.0);
        }
        self.queued += 1;
        self.backlog += t.span;
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
    fn admit(&self, now: u64, task: TaskId, deadline: Option<u64>) -> bool {
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
        now.saturating_add(work).saturating_add(me.span) <= deadline
    }

    fn emit_rejected(&self, cycle: u64, task: TaskId, reason: &'static str) {
        self.probe.tracer.emit(|| TraceEvent::SchedRejected { cycle, task: task.0 as u32, reason });
    }

    /// Policy rank at cycle `at` of task `idx`'s job `job` with absolute
    /// `deadline`; lower is more urgent.
    fn rank(&self, idx: usize, job: SchedJob, deadline: Option<u64>, at: u64) -> (u64, u64, u64) {
        let t = &self.tasks[idx];
        match self.policy {
            SchedPolicy::FixedPriority => (u64::from(t.spec.priority), job.0, 0),
            SchedPolicy::Edf => (deadline.unwrap_or(u64::MAX), job.0, 0),
            SchedPolicy::PremaTokens => {
                (u64::MAX - self.tokens(idx, at), u64::from(t.spec.priority), job.0)
            }
        }
    }

    /// A ready task's next runnable (queue-head) job.
    fn head(&self, idx: usize) -> &Pending {
        self.tasks[idx].queue.front().expect("a ready task has a queued job")
    }

    /// Policy rank at cycle `at` of a task's queue-head job.
    fn head_rank(&self, idx: usize, at: u64) -> (u64, u64, u64) {
        let head = self.head(idx);
        self.rank(idx, head.job, head.deadline, at)
    }

    /// Policy rank at cycle `at` of a task's in-flight job (for preemption
    /// decisions).
    fn bound_rank(&self, idx: usize, at: u64) -> (u64, u64, u64) {
        let f = self.tasks[idx].inflight.as_ref().expect("bound task has an in-flight job");
        self.rank(idx, f.job, f.deadline, at)
    }

    /// PREMA tokens of task `idx` at cycle `at`: `weight` per started
    /// kilocycle its queue head has waited, counted from its submission or
    /// the task's last bind, whichever is later. Higher-priority tasks have
    /// larger weights (prio 0 → 4 … prio ≥3 → 1). A closed form in the
    /// time waited, so how often a driver pumps changes no rank.
    fn tokens(&self, idx: usize, at: u64) -> u64 {
        let Some(since) = self.waiting_since(idx) else { return 0 };
        let weight = 1 + u64::from(3u8.saturating_sub(self.tasks[idx].spec.priority.min(3)));
        at.saturating_sub(since).div_ceil(1000) * weight
    }

    /// Where task `idx`'s tokens count from, while it has a queued job.
    fn waiting_since(&self, idx: usize) -> Option<u64> {
        let t = &self.tasks[idx];
        Some(t.queue.front()?.submitted.max(t.bound_at))
    }

    /// The next cycle past `engine`'s clock at which, while a slot is free,
    /// a bind can become possible: the earliest submission cycle among the
    /// ready queue heads still ahead of it, and, under
    /// [`SchedPolicy::PremaTokens`] with a head already there, the next
    /// cycle a queued task's tokens step up (ranks change only there).
    fn next_stop<B: Backend>(&self, engine: &Engine<B>) -> Option<u64> {
        let now = engine.now();
        let heads = || self.ready.iter().map(|&i| self.head(i).submitted);
        let waiting = self.policy == SchedPolicy::PremaTokens && heads().any(|s| s <= now);
        let steps = (0..self.tasks.len()).filter(|_| waiting).filter_map(|i| {
            let since = self.waiting_since(i)?;
            Some(since + 1 + now.saturating_sub(since).div_ceil(1000) * 1000)
        });
        heads().filter(|&s| s > now).chain(steps).min().filter(|_| self.bindings.contains(&None))
    }

    /// Binds queued jobs to free slots per the policy: each ready queue
    /// head submitted by both `deadline` and the engine's clock (any cycle,
    /// for a quiescent engine: a run would not move it), in rank order at
    /// that clock.
    fn pump<B: Backend>(&mut self, engine: &mut Engine<B>, deadline: u64) -> Result<(), SimError> {
        debug_assert_eq!(
            {
                let mut ready = self.ready.clone();
                ready.sort_unstable();
                ready
            },
            (0..self.tasks.len())
                .filter(|&i| self.tasks[i].inflight.is_none() && !self.tasks[i].queue.is_empty())
                .collect::<Vec<_>>(),
            "the ready list is the tasks with a queued job and none in flight"
        );
        // Only a free slot can take a queued job.
        while !self.ready.is_empty() && self.bindings.contains(&None) {
            let at = engine.now();
            let quiescent = engine.next_event().is_none();
            // Ranks are unique (each carries its head job's id), so the
            // list's own order never matters.
            let mut ready = std::mem::take(&mut self.ready);
            ready.sort_by_key(|&i| self.head_rank(i, at));
            self.ready = ready;
            // The best-ranked arrived candidate binds first; a candidate
            // that no slot can serve (e.g. the reserved slot 0 is the only
            // one free) does not block worse-ranked ones.
            let Some((cand, slot)) = (0..self.ready.len()).find_map(|k| {
                let i = self.ready[k];
                let s = self.head(i).submitted;
                let arrived = s <= deadline && (s <= at || quiescent);
                arrived.then(|| self.choose_slot(i, engine).map(|slot| (i, slot))).flatten()
            }) else {
                break;
            };
            self.bind(cand, slot, engine)?;
        }
        Ok(())
    }

    /// Picks the physical slot for `cand`'s queue-head job, or `None` when
    /// no usable slot is free.
    ///
    /// Hardware priority is the inverse slot index, so the binding must
    /// keep slot order consistent with policy rank order: above every
    /// bound job that outranks the candidate, and — when possible — below
    /// the bound jobs the candidate outranks, which hands the candidate
    /// the datapath and preempts whichever of them is running. Among the
    /// slots that rule allows, the one already holding the task's program
    /// wins (its bind skips the reload), else the lowest. Slots the
    /// engine is using outside this scheduler are never touched. Ranks are
    /// read at the engine's clock.
    fn choose_slot<B: Backend>(&mut self, cand: usize, engine: &Engine<B>) -> Option<TaskSlot> {
        let (urgent, at) = (self.tasks[cand].spec.priority == 0, engine.now());
        let cand_rank = self.head_rank(cand, at);
        // `lower`: highest bound slot whose job outranks the candidate
        // (must bind above it). `upper`: lowest bound slot whose job the
        // candidate outranks (binding below it wins the datapath).
        let mut lower = None;
        let mut upper = None;
        for (slot, bound) in self.bindings.iter().enumerate() {
            let Some(t) = bound else { continue };
            if cand_rank < self.bound_rank(t.index(), at) {
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
                && (i != 0 || urgent)
                && lower.is_none_or(|l| i > l)
        };
        // Within the allowed slots: the one already holding the task's
        // program (no reload), else the lowest.
        let task = Some(TaskId(cand));
        let pick = |allowed: &dyn Fn(usize) -> bool| {
            let resident = (0..TASK_SLOTS).find(|&i| allowed(i) && self.loaded[i] == task);
            resident.or_else(|| (0..TASK_SLOTS).find(|&i| allowed(i)))
        };
        let chosen =
            pick(&|i| feasible(i) && upper.is_none_or(|u| i < u)).or_else(|| pick(&feasible))?;
        let running_min = self.bindings.iter().position(Option::is_some);
        if running_min.is_some_and(|r| chosen < r) {
            self.preempt_requests += 1;
        }
        TaskSlot::new(chosen as u8).ok()
    }

    /// Binds task `idx`'s queue head to `slot` at the later of its
    /// submission and the engine's clock, and releases it there plus the
    /// reload.
    fn bind<B: Backend>(
        &mut self,
        idx: usize,
        slot: TaskSlot,
        engine: &mut Engine<B>,
    ) -> Result<(), SimError> {
        // The job leaves the queue once the engine took it: an engine
        // error leaves it queued.
        let pending = *self.tasks[idx].queue.front().expect("bound task has a queued job");
        let task = TaskId(idx);
        let mut reload = 0u64;
        if self.loaded[slot.index()] != Some(task) {
            engine.load(slot, Arc::clone(&self.tasks[idx].spec.program))?;
            self.loaded[slot.index()] = Some(task);
            self.reloads += 1;
            reload = self.tasks[idx].reload;
        }
        // The context's DDR image follows the task across slots even when
        // the program copy is still resident.
        engine.backend_mut().rebind(slot, task.ctx())?;
        let at = pending.submitted.max(engine.now());
        let release = at + reload;
        engine.request_job_tagged(release, slot, pending.tag)?;
        self.tasks[idx].queue.pop_front();
        self.queued -= 1;
        let k = self.ready.iter().position(|&i| i == idx).expect("a bound task was ready");
        self.ready.swap_remove(k);
        self.reload_cycles += reload;
        if let Some(tag) = pending.tag {
            // Queue span: admission to the cycle a slot was secured; the
            // reload DMA (if any) gets its own span on top.
            self.probe.span(tag, SpanStage::Queue, 0, None, pending.submitted..at, idx as u64);
            if reload > 0 {
                let detail = slot.index() as u64;
                self.probe.span(tag, SpanStage::Reload, 0, None, at..release, detail);
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
        self.tasks[idx].bound_at = at;
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

    /// The drive call every scheduling tier above an engine loops on: bind
    /// what has arrived, run `engine` to `deadline`, to its next job
    /// completion or to its next stop — the next submission cycle still
    /// ahead of its clock, or under [`SchedPolicy::PremaTokens`] the next
    /// token step while a job waits — whichever comes first, then route
    /// every completion record the engine holds (the scheduler-bound ones
    /// are appended to `done`, a job requested on the engine directly is
    /// not) and retire them all ([`Engine::retire_completed`]), so the
    /// engine's memory stays flat. Returns `true` when a completion
    /// stopped the run or the engine reached its stop: step again, so the
    /// freed slot, the arrived job or the new ranks bind at the cycle the
    /// engine stopped at.
    ///
    /// A job binds once both the step's deadline and the engine's clock
    /// reached its submission cycle, and is released at the engine's clock
    /// plus its reload; ranks are read at that clock. So where a job binds
    /// depends on the submissions and the engine's instruction boundaries,
    /// not on the deadlines a driver steps to. Under VI the release lands
    /// where an IAU takes a request made at that instruction boundary.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn step<B: Backend>(
        &mut self,
        engine: &mut Engine<B>,
        deadline: u64,
        done: &mut Vec<SchedCompletion>,
    ) -> Result<bool, SimError> {
        self.pump(engine, deadline)?;
        let stop = self.next_stop(engine);
        let hit_completion =
            engine.run_until_complete(stop.map_or(deadline, |s| s.min(deadline)))?;
        let held = engine.completed_jobs();
        let n = held.len();
        done.extend(held.iter().filter_map(|record| self.note_completion(record)));
        engine.retire_completed(n);
        // A run past its deadline may still have reached the stop: the
        // next step binds what that changed, at the engine's clock.
        Ok(hit_completion || stop.is_some_and(|s| s <= engine.now()))
    }

    /// The earliest deadline at which a [`Scheduler::step`] of this
    /// scheduler and `engine` can change more than the engine's clock and
    /// its running job's pc, or `None` when a step would be a state no-op
    /// — nothing to bind, an engine whose clock would not move — which is
    /// the quiescence rule every driver above an engine skips by.
    ///
    /// That is the earlier of [`Engine::next_change`] (the next arrival or
    /// the running job's completion) and, while a slot is free, the
    /// earliest submission cycle among the ready queue heads: a step binds
    /// a job only at a deadline at or past it. A cycle in the past is due
    /// at the next step.
    #[must_use]
    pub fn next_tick<B: Backend>(&self, engine: &Engine<B>) -> Option<u64> {
        let change = engine.next_change();
        if self.ready.is_empty() || !self.bindings.contains(&None) {
            return change;
        }
        let arrival = self.ready.iter().map(|&i| self.head(i).submitted).min();
        change.into_iter().chain(arrival).min()
    }

    /// Routes one engine completion record to its logical task, if any.
    fn note_completion(&mut self, record: &JobRecord) -> Option<SchedCompletion> {
        let task = self.bindings[record.slot.index()]?;
        let f = self.tasks[task.0].inflight.take().expect("bound task has an in-flight job");
        debug_assert_eq!(f.slot, record.slot);
        if !self.tasks[task.0].queue.is_empty() {
            self.ready.push(task.0);
        }
        self.backlog -= self.tasks[task.0].span;
        self.bindings[record.slot.index()] = None;
        self.tasks[task.0].stats.complete(record.finish, f.deadline);
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
        m.inc("sched.jobs.rejected.queue", t.shed);
        m.inc("sched.jobs.rejected.admission", t.rejected);
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
/// This is the standalone driver used by benches and tests; a serving
/// gateway runs the same loop per core. Its outcome depends on the
/// submissions alone: a submission first runs the pair to its cycle, so
/// however a driver slices its runs, every job is admitted against the
/// state at its submission cycle and bound as [`Scheduler::step`] says.
#[derive(Debug)]
pub struct ScheduledEngine<B: Backend> {
    engine: Engine<B>,
    sched: Scheduler,
    /// Completions of the runs submissions made, for the next
    /// [`ScheduledEngine::run_until`].
    done: Vec<SchedCompletion>,
    /// The engine error such a run hit, for the next `run_until`.
    fault: Option<SimError>,
}

impl<B: Backend> ScheduledEngine<B> {
    /// Pairs `engine` with `sched`.
    #[must_use]
    pub fn new(engine: Engine<B>, sched: Scheduler) -> Self {
        Self { engine, sched, done: Vec::new(), fault: None }
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

    /// Submits one job of `task` at cycle `now`, after running the pair to
    /// `now` as [`ScheduledEngine::run_until`] would (its completions, or
    /// the engine error it hit, are what the next `run_until` returns
    /// first). A submission in the engine's past binds at the engine's
    /// clock.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::submit`].
    pub fn submit(&mut self, now: u64, task: TaskId) -> Result<Admission, RejectReason> {
        if self.fault.is_none() {
            self.fault = self.advance(now).err();
        }
        self.sched.submit(now, task)
    }

    /// Steps the pair to `deadline`, collecting completions.
    fn advance(&mut self, deadline: u64) -> Result<(), SimError> {
        while self.sched.step(&mut self.engine, deadline, &mut self.done)? {}
        Ok(())
    }

    /// Runs until `deadline`, pumping the scheduler at every job
    /// completion and submission cycle, and returns the completions
    /// observed since the last call. Their engine records are retired:
    /// the returned completions carry them.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_until(&mut self, deadline: u64) -> Result<Vec<SchedCompletion>, SimError> {
        if let Some(e) = self.fault.take() {
            return Err(e);
        }
        self.advance(deadline)?;
        Ok(std::mem::take(&mut self.done))
    }

    /// Runs until every admitted job completed (or nothing can make
    /// progress), capped at `max_cycles`: that is
    /// [`ScheduledEngine::run_until`]`(max_cycles)`, which re-pumps at
    /// every completion and only returns once the engine ran to the cap
    /// without one.
    ///
    /// # Errors
    ///
    /// Propagates engine/backend errors.
    pub fn run_to_idle(&mut self, max_cycles: u64) -> Result<Vec<SchedCompletion>, SimError> {
        self.run_until(max_cycles)
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
        assert!(se.engine().completed_jobs().is_empty(), "the completions carry the records");
        assert_eq!(se.engine().metrics().counter("engine.jobs.completed"), 9);
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
        se.sched.pump(&mut se.engine, 0).unwrap();
        let b = se.scheduler().bindings();
        assert_eq!(b[0], Some(urgent), "priority 0 takes the reserved slot");
        assert_ne!(b[1].or(b[2]).or(b[3]), None, "background task binds elsewhere");
        assert_ne!(b[0], Some(bg));
    }

    #[test]
    fn a_resident_program_rebinds_in_its_slot() {
        let mut se = scheduled(SchedPolicy::FixedPriority);
        let a = se.register(TaskSpec::new("a", tiny(16)).priority(1));
        let b = se.register(TaskSpec::new("b", tiny(20)).priority(2));
        se.submit(0, a).unwrap();
        se.submit(0, b).unwrap();
        se.sched.pump(&mut se.engine, 0).unwrap();
        assert_eq!(se.scheduler().bindings(), [None, Some(a), Some(b), None]);
        se.run_to_idle(u64::MAX).unwrap();
        let (reloads, cycles) = (se.scheduler().reloads(), se.scheduler().reload_cycles());
        // Slots 1–3 are free and b's program sits in slot 2: b binds there,
        // not in the lowest free slot, and pays no reload.
        let now = se.engine().now();
        se.submit(now, b).unwrap();
        se.sched.pump(&mut se.engine, now).unwrap();
        assert_eq!(se.scheduler().bindings(), [None, None, Some(b), None]);
        assert_eq!(se.scheduler().reloads(), reloads);
        assert_eq!(se.scheduler().reload_cycles(), cycles);
        assert_eq!(se.run_to_idle(u64::MAX).unwrap().len(), 1);
    }

    #[test]
    fn slot_order_outranks_residency() {
        let mut se = scheduled(SchedPolicy::FixedPriority);
        let better = se.register(TaskSpec::new("better", tiny(16)).priority(1));
        let worse = se.register(TaskSpec::new("worse", tiny(20)).priority(2));
        // `worse` binds slot 1 alone; `better`, arriving while it is bound,
        // falls back to the rank-inverted slot 2.
        se.submit(0, worse).unwrap();
        se.sched.pump(&mut se.engine, 0).unwrap();
        se.submit(0, better).unwrap();
        se.sched.pump(&mut se.engine, 0).unwrap();
        assert_eq!(se.scheduler().bindings(), [None, Some(worse), Some(better), None]);
        se.run_to_idle(u64::MAX).unwrap();
        // Now `better` rebinds in its slot 2, and `worse`, resident in
        // slot 1 below it, must still bind above it: slot 3, reloading.
        let now = se.engine().now();
        se.submit(now, better).unwrap();
        se.sched.pump(&mut se.engine, now).unwrap();
        let (reloads, cycles) = (se.scheduler().reloads(), se.scheduler().reload_cycles());
        se.submit(now, worse).unwrap();
        se.sched.pump(&mut se.engine, now).unwrap();
        assert_eq!(se.scheduler().bindings(), [None, None, Some(better), Some(worse)]);
        assert_eq!(se.scheduler().reloads(), reloads + 1);
        let penalty = reload_penalty(&cfg(), &se.scheduler().spec(worse).program);
        assert_eq!(se.scheduler().reload_cycles(), cycles + penalty);
        assert_eq!(se.run_to_idle(u64::MAX).unwrap().len(), 2);
    }

    #[test]
    fn a_non_urgent_program_resident_in_slot0_never_binds_there() {
        let mut s = Scheduler::new(cfg(), SchedPolicy::FixedPriority);
        let bg = s.register(TaskSpec::new("bg", tiny(16)).priority(1));
        let mut engine =
            Engine::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
        engine.load(TaskSlot::HIGHEST, Arc::clone(&s.spec(bg).program)).unwrap();
        s.loaded[0] = Some(bg);
        s.submit(0, bg).unwrap();
        s.pump(&mut engine, 0).unwrap();
        assert_eq!(s.bindings(), [None, Some(bg), None, None]);
        assert_eq!(s.reloads(), 1, "slot 1 loads the program slot 0 holds");
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
        assert_eq!(st.rejected, 1);
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
        // Both queued before any step (a `ScheduledEngine` submission
        // steps first, binding `loose` alone).
        se.sched.submit(0, loose).unwrap();
        se.sched.submit(0, tight).unwrap();
        let done = se.run_to_idle(u64::MAX).unwrap();
        assert_eq!(done.len(), 2);
        // Both bound in the same pump; the tighter deadline got the
        // higher-priority (lower-index) slot, so it finished first.
        assert_eq!(done[0].task, tight);
    }

    #[test]
    fn prema_tokens_count_time_waited_not_pumps() {
        // Three long jobs hold slots 1–3 and the waiting task is not
        // urgent, so its two jobs cannot bind: only their tokens move.
        let start = || {
            let mut se = scheduled(SchedPolicy::PremaTokens);
            let busy: Vec<TaskId> = (1..=3)
                .map(|p| se.register(TaskSpec::new(format!("busy{p}"), tiny(64)).priority(p)))
                .collect();
            let spec = TaskSpec::new("waiting", tiny(16)).priority(3).queue(2, DropPolicy::Reject);
            let waiting = se.register(spec);
            for t in busy.into_iter().chain([waiting, waiting]) {
                se.submit(0, t).unwrap();
            }
            (se, waiting)
        };
        let run = |deadlines: &[u64]| {
            let (mut se, waiting) = start();
            for &d in deadlines {
                assert!(se.run_until(d).unwrap().is_empty());
            }
            assert_eq!(se.scheduler().queue_depth(waiting), 2, "the waiting jobs never bound");
            let at = se.engine().now();
            (at, se.sched.tokens(waiting.0, at), se.sched.head_rank(waiting.0, at))
        };
        let one = run(&[1_000]);
        let many = run(&(1..=1_000).collect::<Vec<_>>());
        assert_eq!(many, one, "1 000 one-cycle pumps earn what one 1 000-cycle pump does");
        assert_eq!(one.1, one.0.div_ceil(1_000), "weight 1 per started kilocycle waited");
        // The first completion frees a slot and the first waiting job binds
        // there: the second one's tokens count from that bind.
        let (mut se, waiting) = start();
        let freed = (1..).find_map(|k| Some(se.run_until(k * 1_000).unwrap().first()?.record));
        assert!(se.scheduler().in_flight(waiting));
        assert_eq!(se.sched.waiting_since(waiting.0), freed.map(|r| r.finish));
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
        // Through the drive call: a raw job on slot 2 next to a bound one.
        // Both records are retired; only the scheduler's job is returned.
        let t = s.register(TaskSpec::new("t", tiny(16)).priority(1));
        let mut engine =
            Engine::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
        engine.load(rec.slot, tiny(20)).unwrap();
        engine.request_at(0, rec.slot).unwrap();
        s.submit(0, t).unwrap();
        let mut done = Vec::new();
        while s.step(&mut engine, u64::MAX, &mut done).unwrap() {}
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].task, done[0].record.slot.index()), (t, 1));
        assert!(engine.completed_jobs().is_empty(), "the raw job's record is retired too");
        assert_eq!(engine.metrics().counter("engine.jobs.completed"), 2);
        assert_eq!(s.totals().completed, 1);
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
        assert_eq!(totals.submitted, totals.admitted + totals.shed + totals.rejected);
        assert_eq!(totals.admitted, totals.completed + totals.dropped + totals.skipped);
    }
}
