//! The serving data model: tenants, requests, responses and the
//! conservation-law counters the property suite checks.

use std::sync::Arc;

use inca_accel::CoreId;
use inca_isa::Program;
use inca_runtime::DropPolicy;

/// Identifies a tenant registered with a [`crate::Gateway`]. The tenant
/// index doubles as the backend rebind context id on **every** core
/// (tenants are registered on all cores in the same order), so one
/// `install_ctx_image(tenant.ctx(), …)` per core suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// Tenant index (also the scheduler task index on every core).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// The context id passed to [`inca_accel::Backend::rebind`] when this
    /// tenant's jobs bind — identical on every core.
    #[must_use]
    pub fn ctx(self) -> u64 {
        self.0 as u64
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Identifies one submitted request (gateway-wide, in submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub(crate) u64);

impl RequestId {
    /// The raw request sequence number.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// The priority lane a tenant's requests travel in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Hard-deadline lane: bypasses batching, binds the reserved slot 0
    /// on its core and preempts running best-effort work through the
    /// IAU's interrupt machinery. Requests whose deadline the analytical
    /// cost model already rules out are rejected at submission.
    Hard,
    /// Best-effort lane: coalesced with same-network requests up to the
    /// batch window, shed under backpressure per the tenant's
    /// [`DropPolicy`].
    BestEffort,
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Lane::Hard => "hard",
            Lane::BestEffort => "best-effort",
        })
    }
}

/// Why a submission did not enter the serving pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's outstanding-request bound was reached under
    /// [`DropPolicy::Reject`] (or no older request could be dropped).
    QueueFull,
    /// The deadline cannot be met per the analytical cost model, given
    /// the work already ahead of this request.
    DeadlineUnmeetable,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => f.write_str("queue full"),
            ShedReason::DeadlineUnmeetable => f.write_str("deadline unmeetable"),
        }
    }
}

impl std::error::Error for ShedReason {}

/// A tenant: one network (compiled program), a priority lane, and the
/// backpressure contract for its request stream.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (diagnostics/metrics).
    pub name: String,
    /// The compiled program every request of this tenant runs.
    pub program: Arc<Program>,
    /// The priority lane.
    pub lane: Lane,
    /// Relative completion deadline in cycles. Mandatory semantics for
    /// [`Lane::Hard`] (admission + accounting); optional soft-deadline
    /// accounting for [`Lane::BestEffort`].
    pub relative_deadline: Option<u64>,
    /// Best-effort scheduling weight on the shared cores (1 = strongest,
    /// 3 = weakest). Ignored for the hard lane, which is always
    /// priority 0.
    pub weight: u8,
    /// Bound on requests admitted but not yet completed (queued, batched
    /// or in flight).
    pub max_outstanding: usize,
    /// What happens to a submission past the outstanding bound.
    pub shed_policy: DropPolicy,
}

impl TenantSpec {
    /// A best-effort tenant named `name` serving `program`: weight 2, no
    /// deadline, at most 4 outstanding requests, [`DropPolicy::Reject`].
    pub fn new(name: impl Into<String>, program: impl Into<Arc<Program>>) -> Self {
        Self {
            name: name.into(),
            program: program.into(),
            lane: Lane::BestEffort,
            relative_deadline: None,
            weight: 2,
            max_outstanding: 4,
            shed_policy: DropPolicy::Reject,
        }
    }

    /// Moves the tenant to the hard lane with `deadline` cycles of
    /// relative deadline.
    #[must_use]
    pub fn hard(mut self, deadline: u64) -> Self {
        self.lane = Lane::Hard;
        self.relative_deadline = Some(deadline);
        self
    }

    /// Sets a soft relative deadline (accounting only) for a best-effort
    /// tenant.
    #[must_use]
    pub fn deadline(mut self, cycles: u64) -> Self {
        self.relative_deadline = Some(cycles);
        self
    }

    /// Sets the best-effort scheduling weight (clamped to 1..=3).
    #[must_use]
    pub fn weight(mut self, weight: u8) -> Self {
        self.weight = weight.clamp(1, 3);
        self
    }

    /// Sets the outstanding-request bound (clamped to at least 1) and the
    /// shed policy applied past it.
    #[must_use]
    pub fn queue(mut self, max_outstanding: usize, policy: DropPolicy) -> Self {
        self.max_outstanding = max_outstanding.max(1);
        self.shed_policy = policy;
        self
    }

    /// The physical-slot priority this tenant's jobs get on a core.
    #[must_use]
    pub(crate) fn slot_priority(&self) -> u8 {
        match self.lane {
            Lane::Hard => 0,
            Lane::BestEffort => self.weight.clamp(1, 3),
        }
    }
}

/// A completed (or degraded-to-skip) request, with its end-to-end timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// The request.
    pub request: RequestId,
    /// The tenant it belongs to.
    pub tenant: TenantId,
    /// The lane it travelled.
    pub lane: Lane,
    /// The core it executed on (`None` for degraded skips).
    pub core: Option<CoreId>,
    /// Submission cycle.
    pub arrival: u64,
    /// Cycle the datapath first executed it (== `arrival` for skips).
    pub start: u64,
    /// Completion cycle.
    pub finish: u64,
    /// Absolute deadline, when the tenant carries one.
    pub deadline: Option<u64>,
    /// Number of requests in the batch it was dispatched with (1 for the
    /// hard lane and for skips).
    pub batched: u32,
    /// `true` when the request was admitted under
    /// [`DropPolicy::DegradeToSkip`] with a full queue: the caller
    /// observes completion, the datapath did no work.
    pub skipped: bool,
}

impl Response {
    /// Time to first byte: queueing + batching + placement delay before
    /// the datapath touched the request.
    #[must_use]
    pub fn ttfb(&self) -> u64 {
        self.start - self.arrival
    }

    /// End-to-end latency (submission → completion).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.finish - self.arrival
    }

    /// Whether the response met its deadline (deadline-less responses
    /// always do).
    #[must_use]
    pub fn met(&self) -> bool {
        self.deadline.is_none_or(|d| self.finish <= d)
    }
}

/// Per-tenant lifetime counters. Conservation invariants
/// (property-tested, mirroring `sched_props.rs`):
///
/// * `submitted == admitted + rejected + shed`
/// * `admitted == completed + dropped + skipped + outstanding`
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests submitted (admitted or not).
    pub submitted: u64,
    /// Requests that entered the pipeline (including degraded skips).
    pub admitted: u64,
    /// Submissions rejected because the deadline was already unmeetable.
    pub rejected: u64,
    /// Submissions shed at the door (outstanding bound hit under
    /// [`DropPolicy::Reject`], or nothing droppable under
    /// [`DropPolicy::DropOldest`]).
    pub shed: u64,
    /// Admitted requests later discarded: displaced from a batch by
    /// [`DropPolicy::DropOldest`], or refused by a core's admission
    /// controller at dispatch time.
    pub dropped: u64,
    /// Requests admitted-but-skipped under [`DropPolicy::DegradeToSkip`].
    pub skipped: u64,
    /// Requests completed on a datapath.
    pub completed: u64,
    /// Completed requests that met their deadline (deadline tenants only).
    pub deadline_met: u64,
    /// Completed requests that finished past their deadline.
    pub deadline_missed: u64,
}

impl TenantStats {
    /// Adds `other`'s counters to these (per-gateway and fleet totals).
    pub fn add(&mut self, other: &TenantStats) {
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
    pub fn write_metrics(&self, m: &mut inca_obs::Metrics, prefix: &str) {
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

    /// Requests admitted but not yet completed, dropped or skipped.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.admitted - self.completed - self.dropped - self.skipped
    }
}
