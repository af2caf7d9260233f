//! Cycle-domain time-series telemetry and the SLO-triggered flight
//! recorder (DESIGN.md §5.9).
//!
//! A [`Sampler`] captures periodic [`Frame`]s of fleet state — per-core
//! busy/reload-cycle burn, per-tenant queue depth, outstanding work and
//! deadline/shed counter deltas, plus advance-mode work telemetry — into
//! a bounded drop-oldest ring. Frames export as the columnar
//! [`TIMESERIES_SCHEMA`] JSON envelope.
//!
//! Sampling lives entirely in the **cycle domain**: frames are taken at
//! fixed virtual-cycle boundaries interleaved deterministically with the
//! gateway's run loop, so the same request schedule yields byte-identical
//! frames regardless of host, thread count or advance mode — with one
//! deliberate exception: the `advance.*` columns (barriers/wakes/skips)
//! describe *simulator work*, which differs between
//! `AdvanceMode::EventDriven` and `AdvanceMode::Stepping` by design.
//! Every consumer that promises mode-invariance (the flight-recorder
//! dumps) strips them ([`TimeSeries::without_advance`]).
//!
//! The [`FlightRecorder`] is armed with [`SloSpec`] clauses and evaluated
//! at every sample boundary; the first violation freezes a
//! `[cycle - pre, cycle + post]` window that the surface layer dumps as a
//! Perfetto trace ([`dump_chrome`]) plus a timeseries slice
//! ([`dump_slice`]) anchored at the violation cycle.

use std::collections::{BTreeMap, VecDeque};

use crate::analyze::slo::{SloSpec, TaskSel};
use crate::chrome::ChromeTrace;
use crate::json::{self, Obj};
use crate::trace::TraceEvent;

/// Schema identifier stamped into every exported timeline.
pub const TIMESERIES_SCHEMA: &str = "inca-obs/timeseries-v1";

/// Cumulative per-core counters captured at a sample boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreObs {
    /// Instruction-execution cycles across completed jobs (cumulative).
    pub busy_cycles: u64,
    /// Program-reload DMA cycles charged by the core's scheduler
    /// (cumulative) — the weight-cache residency proxy: a core that keeps
    /// its programs resident burns none.
    pub reload_cycles: u64,
}

/// Per-tenant state captured at a sample boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantObs {
    /// Hard-deadline lane (`false` = best-effort).
    pub hard: bool,
    /// Requests queued and not yet executing (instantaneous).
    pub queue_depth: u64,
    /// Requests admitted but not yet resolved (instantaneous).
    pub outstanding: u64,
    /// Deadline misses (cumulative).
    pub missed: u64,
    /// Requests shed at admission (cumulative).
    pub shed: u64,
    /// Completed requests (cumulative).
    pub completed: u64,
}

/// A full cumulative observation of the fleet at one cycle. The sampler
/// turns consecutive observations into delta [`Frame`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observation {
    /// The cycle the observation was taken at.
    pub cycle: u64,
    /// Per-core cumulative counters.
    pub cores: Vec<CoreObs>,
    /// Per-tenant state.
    pub tenants: Vec<TenantObs>,
    /// Advance barriers processed (cumulative; mode-dependent telemetry).
    pub barriers: u64,
    /// Cores ticked (cumulative; mode-dependent telemetry).
    pub wakes: u64,
    /// Quiescent cores skipped (cumulative; mode-dependent telemetry).
    pub skips: u64,
}

/// One timeline frame: counter **deltas** over the sample interval plus
/// instantaneous gauges, pinned to the boundary cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frame {
    /// The sample-boundary cycle the frame ends at.
    pub cycle: u64,
    /// Busy-cycle delta per core.
    pub core_busy: Vec<u64>,
    /// Reload-cycle delta per core.
    pub core_reload: Vec<u64>,
    /// Hard-lane flag per tenant.
    pub hard: Vec<bool>,
    /// Instantaneous queue depth per tenant.
    pub queue_depth: Vec<u64>,
    /// Instantaneous outstanding per tenant.
    pub outstanding: Vec<u64>,
    /// Deadline-miss delta per tenant.
    pub missed: Vec<u64>,
    /// Shed delta per tenant.
    pub shed: Vec<u64>,
    /// Completion delta per tenant.
    pub completed: Vec<u64>,
    /// Advance-barrier delta (mode-dependent telemetry).
    pub barriers: u64,
    /// Core-tick delta (mode-dependent telemetry).
    pub wakes: u64,
    /// Skip delta (mode-dependent telemetry).
    pub skips: u64,
}

/// The first SLO violation the flight recorder observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The sample-boundary cycle the violating frame ended at.
    pub cycle: u64,
    /// Name of the tripped spec.
    pub spec: String,
    /// Human-readable clause verdict (cycle-domain values only, so it is
    /// byte-identical across advance modes and thread counts).
    pub clause: String,
}

/// An always-armed trigger set: [`SloSpec`] clauses evaluated at every
/// sample boundary. Only the clauses that are meaningful *over time* are
/// checked — `depth:` (instantaneous queue depth) and the deadline
/// miss-rate bound (`miss:`, default 0 for deadline-carrying specs,
/// against the tenants' own registered deadlines); end-of-run clauses
/// (`jobs:`, `period:`, shares) are ignored here.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    specs: Vec<SloSpec>,
    pre: u64,
    post: u64,
    violation: Option<Violation>,
}

impl FlightRecorder {
    /// Arms `specs` with a `[cycle - pre, cycle + post]` freeze window.
    #[must_use]
    pub fn new(specs: Vec<SloSpec>, pre: u64, post: u64) -> Self {
        Self { specs, pre, post, violation: None }
    }

    /// The first violation, if any tripped.
    #[must_use]
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    /// Whether any spec has tripped.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.violation.is_some()
    }

    /// The frozen `[lo, hi]` cycle window around the violation.
    #[must_use]
    pub fn window(&self) -> Option<(u64, u64)> {
        self.violation
            .as_ref()
            .map(|v| (v.cycle.saturating_sub(self.pre), v.cycle.saturating_add(self.post)))
    }

    /// Evaluates every armed spec against one observation; the first
    /// violation freezes (later frames never overwrite it).
    pub fn check(&mut self, obs: &Observation) {
        if self.violation.is_some() {
            return;
        }
        self.violation = self.specs.iter().find_map(|spec| {
            failing_clause(spec, &obs.tenants).map(|clause| Violation {
                cycle: obs.cycle,
                spec: spec.name.clone(),
                clause,
            })
        });
    }
}

/// The verdict of the first timeline-checkable clause of `spec` that
/// fails on one boundary's tenant state (`missed`/`completed` cumulative),
/// `None` when all pass — the one rule [`FlightRecorder::check`] and
/// [`TimeSeries::eval_spec`] share. Lanes select tenants by the hard
/// flag, `taskN` selects tenant index N; slot selectors are not visible
/// at the gateway frame level and select nothing.
fn failing_clause(spec: &SloSpec, tenants: &[TenantObs]) -> Option<String> {
    let selected = || {
        tenants.iter().enumerate().filter(|(i, t)| match spec.sel {
            TaskSel::Lane { hard } => t.hard == hard,
            TaskSel::SchedTask(id) => *i == id as usize,
            TaskSel::Slot(_) => false,
        })
    };
    if let Some(max) = spec.max_depth {
        if let Some((i, t)) = selected().find(|(_, t)| t.queue_depth > max) {
            return Some(format!("depth {} > {max} (tenant {i})", t.queue_depth));
        }
    }
    if spec.deadline.is_some() || spec.max_miss_rate > 0.0 {
        let missed: u64 = selected().map(|(_, t)| t.missed).sum();
        let completed: u64 = selected().map(|(_, t)| t.completed).sum();
        if completed > 0 && missed as f64 > spec.max_miss_rate * completed as f64 {
            return Some(format!("miss rate {missed}/{completed} > {}", spec.max_miss_rate));
        }
    }
    None
}

/// The deterministic cycle-domain sampler: feed it cumulative
/// [`Observation`]s at fixed-interval boundaries, read back delta
/// [`Frame`]s from a bounded drop-oldest ring with loud overflow
/// accounting ([`Sampler::dropped`]).
#[derive(Debug, Clone)]
pub struct Sampler {
    interval: u64,
    next: u64,
    capacity: usize,
    frames: VecDeque<Frame>,
    dropped: u64,
    prev: Option<Observation>,
    recorder: Option<FlightRecorder>,
}

impl Sampler {
    /// A sampler taking a frame every `interval` cycles (clamped to ≥ 1)
    /// into a ring of at most `capacity` frames (clamped to ≥ 1).
    #[must_use]
    pub fn new(interval: u64, capacity: usize) -> Self {
        let interval = interval.max(1);
        Self {
            interval,
            next: interval,
            capacity: capacity.max(1),
            frames: VecDeque::new(),
            dropped: 0,
            prev: None,
            recorder: None,
        }
    }

    /// Re-aligns the next boundary to the first interval multiple
    /// strictly after `now` (for samplers installed mid-run).
    pub fn align(&mut self, now: u64) {
        self.next = (now / self.interval + 1) * self.interval;
    }

    /// The next sample-boundary cycle.
    #[must_use]
    pub fn next_at(&self) -> u64 {
        self.next
    }

    /// Arms the flight recorder.
    pub fn arm(&mut self, recorder: FlightRecorder) {
        self.recorder = Some(recorder);
    }

    /// The armed recorder, if any.
    #[must_use]
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// The recorder's frozen violation, if it tripped.
    #[must_use]
    pub fn violation(&self) -> Option<&Violation> {
        self.recorder.as_ref().and_then(FlightRecorder::violation)
    }

    /// Frames currently in the ring (oldest first).
    pub fn frames(&self) -> impl Iterator<Item = &Frame> {
        self.frames.iter()
    }

    /// Frames currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frame has been captured yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frames evicted by ring overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn delta(cur: u64, prev: u64) -> u64 {
        cur.saturating_sub(prev)
    }

    fn make_frame(&self, obs: &Observation) -> Frame {
        let zero_core = CoreObs::default();
        let zero_tenant = TenantObs::default();
        let prev = self.prev.as_ref();
        let pcore = |i: usize| prev.and_then(|p| p.cores.get(i)).unwrap_or(&zero_core);
        let ptenant = |i: usize| prev.and_then(|p| p.tenants.get(i)).unwrap_or(&zero_tenant);
        Frame {
            cycle: obs.cycle,
            core_busy: obs
                .cores
                .iter()
                .enumerate()
                .map(|(i, c)| Self::delta(c.busy_cycles, pcore(i).busy_cycles))
                .collect(),
            core_reload: obs
                .cores
                .iter()
                .enumerate()
                .map(|(i, c)| Self::delta(c.reload_cycles, pcore(i).reload_cycles))
                .collect(),
            hard: obs.tenants.iter().map(|t| t.hard).collect(),
            queue_depth: obs.tenants.iter().map(|t| t.queue_depth).collect(),
            outstanding: obs.tenants.iter().map(|t| t.outstanding).collect(),
            missed: obs
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| Self::delta(t.missed, ptenant(i).missed))
                .collect(),
            shed: obs
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| Self::delta(t.shed, ptenant(i).shed))
                .collect(),
            completed: obs
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| Self::delta(t.completed, ptenant(i).completed))
                .collect(),
            barriers: Self::delta(obs.barriers, prev.map_or(0, |p| p.barriers)),
            wakes: Self::delta(obs.wakes, prev.map_or(0, |p| p.wakes)),
            skips: Self::delta(obs.skips, prev.map_or(0, |p| p.skips)),
        }
    }

    /// Records one observation as a frame and schedules the next boundary
    /// one interval after it. A full ring evicts its oldest frame and
    /// counts the eviction ([`Sampler::dropped`]).
    pub fn record(&mut self, obs: Observation) {
        let frame = self.make_frame(&obs);
        if let Some(rec) = &mut self.recorder {
            rec.check(&obs);
        }
        if self.frames.len() == self.capacity {
            self.frames.pop_front();
            self.dropped += 1;
        }
        self.frames.push_back(frame);
        self.next = obs.cycle.saturating_add(self.interval);
        self.prev = Some(obs);
    }

    /// Records a final **partial** frame so delta sums over the frames
    /// reconcile with end-of-run totals even when the run does not end on
    /// a boundary. When the caller's clock has not moved past the last
    /// frame (boundaries can be pinned to grid cycles *ahead* of engine
    /// time while work waits on a batch window), any tail activity is
    /// still captured — one grid step after the last frame, keeping the
    /// cycle axis strictly increasing. A no-op when nothing changed.
    pub fn flush(&mut self, obs: Observation) {
        let mut obs = obs;
        if let Some(prev) = &self.prev {
            if obs.cycle <= prev.cycle {
                let mut same = prev.clone();
                same.cycle = obs.cycle;
                if obs == same {
                    return;
                }
                obs.cycle = prev.cycle.saturating_add(1);
            }
        }
        self.record(obs);
    }

    /// Exports the ring as a [`TimeSeries`].
    #[must_use]
    pub fn series(&self, name: &str, clock_hz: u64) -> TimeSeries {
        let cores = self.frames.iter().map(|f| f.core_busy.len()).max().unwrap_or(0);
        let tenants = self.frames.iter().map(|f| f.queue_depth.len()).max().unwrap_or(0);
        let n = self.frames.len();
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let mut columns: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut col = |key: String, values: Vec<u64>| {
            columns.insert(key, values);
        };
        for c in 0..cores {
            col(format!("core{c}.busy"), self.frames.iter().map(|f| at(&f.core_busy, c)).collect());
            col(
                format!("core{c}.reload_cycles"),
                self.frames.iter().map(|f| at(&f.core_reload, c)).collect(),
            );
        }
        for t in 0..tenants {
            col(
                format!("tenant{t}.queue_depth"),
                self.frames.iter().map(|f| at(&f.queue_depth, t)).collect(),
            );
            col(
                format!("tenant{t}.outstanding"),
                self.frames.iter().map(|f| at(&f.outstanding, t)).collect(),
            );
            col(
                format!("tenant{t}.missed"),
                self.frames.iter().map(|f| at(&f.missed, t)).collect(),
            );
            col(format!("tenant{t}.shed"), self.frames.iter().map(|f| at(&f.shed, t)).collect());
            col(
                format!("tenant{t}.completed"),
                self.frames.iter().map(|f| at(&f.completed, t)).collect(),
            );
        }
        col("advance.barriers".to_owned(), self.frames.iter().map(|f| f.barriers).collect());
        col("advance.wakes".to_owned(), self.frames.iter().map(|f| f.wakes).collect());
        col("advance.skips".to_owned(), self.frames.iter().map(|f| f.skips).collect());
        let mut lanes = vec![false; tenants];
        if let Some(last) = self.frames.back() {
            for (i, &h) in last.hard.iter().enumerate() {
                lanes[i] = h;
            }
        }
        debug_assert!(columns.values().all(|v| v.len() == n));
        TimeSeries {
            name: name.to_owned(),
            clock_hz,
            interval: self.interval,
            dropped: self.dropped,
            lanes,
            cycles: self.frames.iter().map(|f| f.cycle).collect(),
            columns,
            violation: self.violation().cloned(),
        }
    }
}

/// A columnar exported timeline: one `cycles` axis plus named u64
/// columns (`coreN.*` / `tenantN.*` deltas and gauges, `advance.*` work
/// telemetry), serialised as the [`TIMESERIES_SCHEMA`] envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    /// Source name (gateway / bench cell).
    pub name: String,
    /// Virtual clock, Hz.
    pub clock_hz: u64,
    /// Sample interval, cycles.
    pub interval: u64,
    /// Frames evicted by ring overflow before export.
    pub dropped: u64,
    /// Hard-lane flag per tenant column group.
    pub lanes: Vec<bool>,
    /// Sample-boundary cycle per frame.
    pub cycles: Vec<u64>,
    /// Named columns, one value per frame, sorted by name.
    pub columns: BTreeMap<String, Vec<u64>>,
    /// The flight-recorder violation, when one tripped.
    pub violation: Option<Violation>,
}

fn nums(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn group_count(columns: &BTreeMap<String, Vec<u64>>, prefix: &str) -> usize {
    columns
        .keys()
        .filter_map(|k| {
            let rest = k.strip_prefix(prefix)?;
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<usize>().ok().map(|i| i + 1)
        })
        .max()
        .unwrap_or(0)
}

impl TimeSeries {
    /// Number of frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether the series holds no frames.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Number of `coreN.*` column groups.
    #[must_use]
    pub fn cores(&self) -> usize {
        group_count(&self.columns, "core")
    }

    /// Number of `tenantN.*` column groups.
    #[must_use]
    pub fn tenants(&self) -> usize {
        group_count(&self.columns, "tenant")
    }

    /// One column (`None` when absent).
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&[u64]> {
        self.columns.get(name).map(Vec::as_slice)
    }

    /// A copy without the mode-dependent `advance.*` work-telemetry
    /// columns — the projection that is byte-identical across
    /// EventDriven/Stepping advance modes.
    #[must_use]
    pub fn without_advance(&self) -> TimeSeries {
        let mut out = self.clone();
        out.columns.retain(|k, _| !k.starts_with("advance."));
        out
    }

    /// The frames whose boundary cycle falls in `[lo, hi]`, as a new
    /// series (drop accounting and violation carried over).
    #[must_use]
    pub fn slice(&self, lo: u64, hi: u64) -> TimeSeries {
        let keep: Vec<usize> = (0..self.cycles.len())
            .filter(|&i| self.cycles[i] >= lo && self.cycles[i] <= hi)
            .collect();
        let pick = |v: &[u64]| keep.iter().map(|&i| v[i]).collect::<Vec<u64>>();
        TimeSeries {
            name: self.name.clone(),
            clock_hz: self.clock_hz,
            interval: self.interval,
            dropped: self.dropped,
            lanes: self.lanes.clone(),
            cycles: pick(&self.cycles),
            columns: self.columns.iter().map(|(k, v)| (k.clone(), pick(v))).collect(),
            violation: self.violation.clone(),
        }
    }

    /// Per-frame pass verdicts for the timeline-checkable clauses of
    /// `spec` (the same subset the [`FlightRecorder`] triggers on):
    /// `depth:` against instantaneous queue depth and the deadline
    /// miss-rate bound against the running cumulative miss counters.
    /// Specs with no timeline-checkable clause pass vacuously.
    #[must_use]
    pub fn eval_spec(&self, spec: &SloSpec) -> Vec<bool> {
        // Per tenant: its queue-depth, missed and completed columns (an
        // absent column reads as zeros).
        let cols: Vec<[&[u64]; 3]> = (0..self.tenants())
            .map(|t| {
                ["queue_depth", "missed", "completed"]
                    .map(|c| self.column(&format!("tenant{t}.{c}")).unwrap_or(&[]))
            })
            .collect();
        let mut tenants: Vec<TenantObs> = (0..cols.len())
            .map(|t| TenantObs {
                hard: self.lanes.get(t).copied().unwrap_or(false),
                ..TenantObs::default()
            })
            .collect();
        (0..self.len())
            .map(|i| {
                for (obs, [depth, missed, completed]) in tenants.iter_mut().zip(&cols) {
                    let at = |col: &[u64]| col.get(i).copied().unwrap_or(0);
                    obs.queue_depth = at(depth);
                    obs.missed += at(missed);
                    obs.completed += at(completed);
                }
                failing_clause(spec, &tenants).is_none()
            })
            .collect()
    }

    /// Serialises the [`TIMESERIES_SCHEMA`] envelope: sorted keys, raw
    /// u64 lexemes, byte-stable.
    #[must_use]
    pub fn to_json(&self) -> String {
        let lanes: Vec<u64> = self.lanes.iter().map(|&h| u64::from(h)).collect();
        let mut cols = Obj::new();
        for (k, v) in &self.columns {
            cols = cols.raw(k, &nums(v));
        }
        let mut obj = Obj::new()
            .str("schema", TIMESERIES_SCHEMA)
            .str("name", &self.name)
            .u64("clock_hz", self.clock_hz)
            .u64("interval", self.interval)
            .u64("frames", self.cycles.len() as u64)
            .u64("dropped", self.dropped)
            .raw("lanes", &nums(&lanes))
            .raw("cycles", &nums(&self.cycles))
            .raw("columns", &cols.finish());
        if let Some(v) = &self.violation {
            let vio = Obj::new()
                .u64("cycle", v.cycle)
                .str("spec", &v.spec)
                .str("clause", &v.clause)
                .finish();
            obj = obj.raw("violation", &vio);
        }
        obj.finish()
    }

    /// Parses a serialised timeline back.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON, the schema is
    /// not [`TIMESERIES_SCHEMA`], or a column is malformed.
    pub fn from_json(text: &str) -> Result<TimeSeries, String> {
        let doc = json::Value::parse(text).map_err(|e| e.to_string())?;
        let schema = doc.get("schema").and_then(json::Value::as_str).unwrap_or("");
        if schema != TIMESERIES_SCHEMA {
            return Err(format!(
                "unsupported timeseries schema {schema:?} (expected {TIMESERIES_SCHEMA:?})"
            ));
        }
        let name = doc
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| "missing timeline name".to_owned())?
            .to_owned();
        let num = |key: &str| {
            doc.get(key)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("missing/invalid {key}"))
        };
        let arr = |v: &json::Value, what: &str| -> Result<Vec<u64>, String> {
            v.as_arr()
                .ok_or_else(|| format!("{what} is not an array"))?
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| format!("{what} holds a non-u64")))
                .collect()
        };
        let cycles = arr(doc.get("cycles").ok_or_else(|| "missing cycles".to_owned())?, "cycles")?;
        let lanes = arr(doc.get("lanes").ok_or_else(|| "missing lanes".to_owned())?, "lanes")?
            .into_iter()
            .map(|v| v != 0)
            .collect();
        let mut columns = BTreeMap::new();
        for (k, v) in doc.get("columns").and_then(json::Value::as_obj).unwrap_or(&[]) {
            let col = arr(v, k)?;
            if col.len() != cycles.len() {
                return Err(format!("column {k} length {} != frames {}", col.len(), cycles.len()));
            }
            columns.insert(k.clone(), col);
        }
        let violation = match doc.get("violation") {
            Some(v) => Some(Violation {
                cycle: v
                    .get("cycle")
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| "violation missing cycle".to_owned())?,
                spec: v
                    .get("spec")
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| "violation missing spec".to_owned())?
                    .to_owned(),
                clause: v
                    .get("clause")
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| "violation missing clause".to_owned())?
                    .to_owned(),
            }),
            None => None,
        };
        Ok(TimeSeries {
            name,
            clock_hz: num("clock_hz")?,
            interval: num("interval")?,
            dropped: num("dropped")?,
            lanes,
            cycles,
            columns,
            violation,
        })
    }
}

/// Trace events whose cycle falls inside `[lo, hi]` — the recorder's
/// frozen window.
#[must_use]
pub fn window_events(events: &[TraceEvent], lo: u64, hi: u64) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| {
            let c = e.cycle();
            c >= lo && c <= hi
        })
        .cloned()
        .collect()
}

/// The flight-recorder Perfetto dump: the trace-ring events inside the
/// frozen window, one process named after the violation. Every input is
/// cycle-domain, so the dump is byte-identical across repeat runs,
/// thread counts and advance modes. `ring_dropped` is the trace ring's
/// overflow count, surfaced as the standard dropped-events instant.
#[must_use]
pub fn dump_chrome(
    events: &[TraceEvent],
    clock_hz: u64,
    violation: &Violation,
    window: (u64, u64),
    ring_dropped: u64,
) -> String {
    let mut t = ChromeTrace::new(clock_hz as f64 / 1e6);
    let name = format!(
        "flight-recorder {} @ {} ({}) window {}..{}",
        violation.spec, violation.cycle, violation.clause, window.0, window.1
    );
    t.add_process(0, &name, &window_events(events, window.0, window.1));
    if ring_dropped > 0 {
        t.note_dropped(0, ring_dropped);
    }
    t.finish()
}

/// The flight-recorder timeseries slice: frames inside the frozen
/// window, with the mode-dependent `advance.*` columns stripped so the
/// dump is byte-identical across advance modes.
#[must_use]
pub fn dump_slice(series: &TimeSeries, window: (u64, u64)) -> String {
    series.slice(window.0, window.1).without_advance().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(cycle: u64, busy: u64, depth: u64, missed: u64, completed: u64) -> Observation {
        Observation {
            cycle,
            cores: vec![CoreObs { busy_cycles: busy, reload_cycles: busy / 2 }],
            tenants: vec![
                TenantObs {
                    hard: true,
                    queue_depth: depth,
                    outstanding: depth,
                    missed,
                    shed: 0,
                    completed,
                },
                TenantObs {
                    hard: false,
                    queue_depth: depth * 2,
                    outstanding: 0,
                    missed: 0,
                    shed: 1,
                    completed: completed * 2,
                },
            ],
            barriers: cycle / 10,
            wakes: cycle / 10,
            skips: 0,
        }
    }

    #[test]
    fn frames_are_deltas_with_gauges() {
        let mut s = Sampler::new(100, 8);
        s.record(obs(100, 40, 2, 0, 1));
        s.record(obs(200, 90, 1, 1, 3));
        let frames: Vec<&Frame> = s.frames().collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].core_busy, vec![40]);
        assert_eq!(frames[1].core_busy, vec![50]);
        assert_eq!(frames[1].queue_depth, vec![1, 2], "gauges are instantaneous");
        assert_eq!(frames[1].missed, vec![1, 0], "counters are deltas");
        assert_eq!(frames[1].completed, vec![2, 4]);
        assert_eq!(s.next_at(), 300);
    }

    #[test]
    fn ring_overflow_is_counted() {
        let mut s = Sampler::new(10, 2);
        for i in 1..=5u64 {
            s.record(obs(i * 10, i * 10, 0, 0, 0));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let series = s.series("t", 300_000_000);
        assert_eq!(series.dropped, 3);
        assert_eq!(series.cycles, vec![40, 50]);
    }

    #[test]
    fn flush_records_a_partial_frame_once() {
        let mut s = Sampler::new(100, 8);
        s.record(obs(100, 40, 0, 0, 1));
        s.flush(obs(130, 55, 0, 0, 2));
        s.flush(obs(130, 55, 0, 0, 2));
        assert_eq!(s.len(), 2);
        let last = s.frames().last().unwrap();
        assert_eq!((last.cycle, last.core_busy[0], last.completed[0]), (130, 15, 1));
    }

    #[test]
    fn series_json_round_trips_byte_identically() {
        let mut s = Sampler::new(100, 8);
        s.record(obs(100, 40, 2, 0, 1));
        s.record(obs(200, 90, 9, 1, 3));
        let series = s.series("gw", 300_000_000);
        let text = series.to_json();
        assert!(text.starts_with("{\"schema\":\"inca-obs/timeseries-v1\""));
        let back = TimeSeries::from_json(&text).expect("parse");
        assert_eq!(back, series);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn from_json_rejects_other_schemas_and_ragged_columns() {
        assert!(TimeSeries::from_json("{\"schema\":\"inca-obs/metrics-v1\"}").is_err());
        assert!(TimeSeries::from_json("not json").is_err());
        let ragged = "{\"schema\":\"inca-obs/timeseries-v1\",\"name\":\"x\",\"clock_hz\":1,\
                      \"interval\":1,\"frames\":2,\"dropped\":0,\"lanes\":[],\"cycles\":[1,2],\
                      \"columns\":{\"a\":[1]}}";
        assert!(TimeSeries::from_json(ragged).is_err());
    }

    #[test]
    fn recorder_trips_on_queue_depth_and_freezes() {
        let spec = SloSpec::parse("hard=depth:3", &[], 300_000_000).expect("parse");
        let mut s = Sampler::new(100, 8);
        s.arm(FlightRecorder::new(vec![spec], 150, 50));
        s.record(obs(100, 10, 3, 0, 0));
        assert!(s.violation().is_none(), "at the bound is not over it");
        s.record(obs(200, 20, 4, 0, 0));
        let v = s.violation().expect("tripped").clone();
        assert_eq!(v.cycle, 200);
        assert_eq!(v.spec, "hard");
        assert!(v.clause.contains("depth 4 > 3"), "{}", v.clause);
        // Later, worse frames never overwrite the first violation.
        s.record(obs(300, 30, 9, 0, 0));
        assert_eq!(s.violation().unwrap().cycle, 200);
        assert_eq!(s.recorder().unwrap().window(), Some((50, 250)));
    }

    #[test]
    fn recorder_trips_on_miss_rate() {
        let spec = SloSpec::parse("hard=50ms+miss:0.5", &[], 300_000_000).expect("parse");
        let mut rec = FlightRecorder::new(vec![spec], 0, 0);
        rec.check(&obs(100, 0, 0, 1, 2));
        assert!(!rec.tripped(), "1/2 missed is exactly the bound");
        rec.check(&obs(200, 0, 0, 2, 3));
        assert!(rec.tripped(), "2/3 missed busts 0.5");
        assert!(rec.violation().unwrap().clause.contains("2/3"));
    }

    #[test]
    fn eval_spec_tracks_the_recorder_semantics() {
        let mut s = Sampler::new(100, 8);
        s.record(obs(100, 10, 2, 0, 1));
        s.record(obs(200, 20, 5, 0, 2));
        s.record(obs(300, 30, 1, 1, 3));
        let series = s.series("t", 300_000_000);
        let depth = SloSpec::parse("hard=depth:3", &[], 300_000_000).expect("parse");
        assert_eq!(series.eval_spec(&depth), vec![true, false, true]);
        let miss = SloSpec::parse("hard=50ms", &[], 300_000_000).expect("parse");
        assert_eq!(series.eval_spec(&miss), vec![true, true, false]);
        // Selector that matches nothing passes vacuously.
        let be_depth = SloSpec::parse("task7=depth:0", &[], 300_000_000).expect("parse");
        assert_eq!(series.eval_spec(&be_depth), vec![true, true, true]);
    }

    #[test]
    fn dumps_are_windowed_and_advance_free() {
        use inca_isa::TaskSlot;
        let events: Vec<TraceEvent> = (0..10)
            .map(|i| TraceEvent::JobReleased { cycle: i * 100, slot: TaskSlot::new(1).unwrap() })
            .collect();
        let v = Violation { cycle: 500, spec: "hard".into(), clause: "depth 9 > 3".into() };
        let chrome = dump_chrome(&events, 300_000_000, &v, (400, 600), 0);
        assert!(chrome.contains("flight-recorder hard @ 500"));
        assert_eq!(window_events(&events, 400, 600).len(), 3);

        let mut s = Sampler::new(100, 8);
        s.record(obs(100, 10, 0, 0, 0));
        s.record(obs(200, 20, 0, 0, 0));
        s.record(obs(300, 30, 0, 0, 0));
        let slice = dump_slice(&s.series("t", 300_000_000), (150, 250));
        let parsed = TimeSeries::from_json(&slice).expect("parse");
        assert_eq!(parsed.cycles, vec![200]);
        assert!(parsed.column("advance.barriers").is_none(), "advance columns stripped");
        assert!(parsed.column("core0.busy").is_some());
    }
}
