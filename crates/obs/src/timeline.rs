//! Cycle-domain time-series telemetry and the SLO-triggered flight
//! recorder (DESIGN.md §5.9).
//!
//! A [`Sampler`] keeps periodic cumulative [`Observation`]s of fleet
//! state in a bounded drop-oldest ring and exports them as the columnar,
//! write-only [`TIMESERIES_SCHEMA`] JSON envelope: per-core
//! busy/reload-cycle burn, per-tenant deadline/shed/completion counters
//! (deltas over each interval, taken at export), per-tenant queue depth
//! and outstanding work (gauges), plus advance-mode work telemetry.
//!
//! Sampling lives entirely in the **cycle domain**: frames are taken at
//! fixed virtual-cycle boundaries interleaved deterministically with the
//! gateway's run loop, so the same request schedule yields byte-identical
//! frames regardless of host, thread count or how the pool advances —
//! with one deliberate exception: the `advance.*` columns
//! (barriers/wakes/skips) describe *simulator work*, which differs
//! between the event-driven pool and its stepping reference (a pool of
//! `Stepped` engines) by design. Every consumer that promises
//! byte-identity with the reference (the flight-recorder dumps) strips
//! them ([`TimeSeries::without_advance`]).
//!
//! The [`FlightRecorder`] is armed with [`SloSpec`] clauses and evaluated
//! at every sample boundary; the first violation freezes a
//! `[cycle - pre, cycle + post]` window that the surface layer dumps as a
//! Perfetto trace ([`dump_chrome`]) plus a timeseries slice
//! ([`dump_slice`]) anchored at the violation cycle.

use std::collections::{BTreeMap, VecDeque};

use crate::analyze::slo::{SloSpec, TaskSel};
use crate::chrome::ChromeTrace;
use crate::json::Obj;
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

/// A full cumulative observation of the fleet at one cycle: one timeline
/// frame. The export turns consecutive observations into deltas.
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

/// The first SLO violation the flight recorder observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The sample-boundary cycle the violating frame ended at.
    pub cycle: u64,
    /// Name of the tripped spec.
    pub spec: String,
    /// Human-readable clause verdict (cycle-domain values only, so it is
    /// byte-identical on the stepping reference and across thread counts).
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
/// [`Observation`]s at fixed-interval boundaries into a bounded
/// drop-oldest ring with loud overflow accounting ([`Sampler::dropped`]);
/// [`Sampler::series`] exports them as deltas.
#[derive(Debug, Clone)]
pub struct Sampler {
    interval: u64,
    next: u64,
    capacity: usize,
    ring: VecDeque<Observation>,
    /// The last observation evicted: the delta base of the oldest kept.
    base: Option<Observation>,
    dropped: u64,
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
            ring: VecDeque::new(),
            base: None,
            dropped: 0,
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

    /// Frames currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no frame has been captured yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Frames evicted by ring overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records one observation as a frame and schedules the next boundary
    /// one interval after it. A full ring evicts its oldest frame and
    /// counts the eviction ([`Sampler::dropped`]).
    pub fn record(&mut self, obs: Observation) {
        if let Some(rec) = &mut self.recorder {
            rec.check(&obs);
        }
        if self.ring.len() == self.capacity {
            self.base = self.ring.pop_front();
            self.dropped += 1;
        }
        self.next = obs.cycle.saturating_add(self.interval);
        self.ring.push_back(obs);
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
        if let Some(prev) = self.ring.back() {
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

    /// Exports the ring as a [`TimeSeries`]: counters as deltas against
    /// each frame's predecessor (zero against a core or tenant it lacks),
    /// gauges as observed, lanes from the newest frame.
    #[must_use]
    pub fn series(&self, name: &str, clock_hz: u64) -> TimeSeries {
        let cores = self.ring.iter().map(|o| o.cores.len()).max().unwrap_or(0);
        let tenants = self.ring.iter().map(|o| o.tenants.len()).max().unwrap_or(0);
        let zero = Observation::default();
        let base = self.base.as_ref().unwrap_or(&zero);
        // (predecessor, frame) per frame, oldest first.
        let pairs: Vec<_> = std::iter::once(base).chain(&self.ring).zip(&self.ring).collect();
        let mut columns = BTreeMap::new();
        let mut col = |key: String, value: &dyn Fn(&Observation, &Observation) -> u64| {
            columns.insert(key, pairs.iter().map(|&(p, o)| value(p, o)).collect::<Vec<u64>>());
        };
        for c in 0..cores {
            let at = |o: &Observation| o.cores.get(c).copied().unwrap_or_default();
            col(format!("core{c}.busy"), &|p, o| {
                at(o).busy_cycles.saturating_sub(at(p).busy_cycles)
            });
            col(format!("core{c}.reload_cycles"), &|p, o| {
                at(o).reload_cycles.saturating_sub(at(p).reload_cycles)
            });
        }
        let tenant = |o: &Observation, t: usize| o.tenants.get(t).copied().unwrap_or_default();
        for t in 0..tenants {
            let at = |o: &Observation| tenant(o, t);
            col(format!("tenant{t}.queue_depth"), &|_, o| at(o).queue_depth);
            col(format!("tenant{t}.outstanding"), &|_, o| at(o).outstanding);
            col(format!("tenant{t}.missed"), &|p, o| at(o).missed.saturating_sub(at(p).missed));
            col(format!("tenant{t}.shed"), &|p, o| at(o).shed.saturating_sub(at(p).shed));
            col(format!("tenant{t}.completed"), &|p, o| {
                at(o).completed.saturating_sub(at(p).completed)
            });
        }
        col("advance.barriers".to_owned(), &|p, o| o.barriers.saturating_sub(p.barriers));
        col("advance.wakes".to_owned(), &|p, o| o.wakes.saturating_sub(p.wakes));
        col("advance.skips".to_owned(), &|p, o| o.skips.saturating_sub(p.skips));
        let newest = self.ring.back().unwrap_or(&zero);
        TimeSeries {
            name: name.to_owned(),
            clock_hz,
            interval: self.interval,
            dropped: self.dropped,
            lanes: (0..tenants).map(|t| tenant(newest, t).hard).collect(),
            cycles: self.ring.iter().map(|o| o.cycle).collect(),
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

    /// A copy without the `advance.*` work-telemetry columns — the
    /// projection that is byte-identical between an event-driven run and
    /// its stepping reference.
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
}

/// Trace events whose cycle falls inside `[lo, hi]` — the recorder's
/// frozen window.
#[must_use]
fn window_events(events: &[TraceEvent], lo: u64, hi: u64) -> Vec<TraceEvent> {
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
/// thread counts and the stepping reference. `ring_dropped` is the trace ring's
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
/// window, with the `advance.*` work columns stripped so the dump is
/// byte-identical on the stepping reference.
#[must_use]
pub fn dump_slice(series: &TimeSeries, window: (u64, u64)) -> String {
    series.slice(window.0, window.1).without_advance().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

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
        let series = s.series("t", 300_000_000);
        let col = |name: &str| series.column(name).unwrap().to_vec();
        assert_eq!(series.len(), 2);
        assert_eq!(col("core0.busy"), vec![40, 50]);
        assert_eq!(col("tenant0.queue_depth"), vec![2, 1], "gauges are instantaneous");
        assert_eq!(col("tenant1.queue_depth"), vec![4, 2]);
        assert_eq!(col("tenant0.missed"), vec![0, 1], "counters are deltas");
        assert_eq!(col("tenant1.completed"), vec![2, 4]);
        assert_eq!(series.lanes, vec![true, false]);
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
        // Deltas are taken against the evicted predecessor, not zero.
        assert_eq!(series.column("core0.busy").unwrap(), [10, 10]);
        assert_eq!(series.column("advance.barriers").unwrap(), [1, 1]);
    }

    #[test]
    fn flush_records_a_partial_frame_once() {
        let mut s = Sampler::new(100, 8);
        s.record(obs(100, 40, 0, 0, 1));
        s.flush(obs(130, 55, 0, 0, 2));
        s.flush(obs(130, 55, 0, 0, 2));
        assert_eq!(s.len(), 2);
        let series = s.series("t", 300_000_000);
        assert_eq!(series.cycles, vec![100, 130]);
        assert_eq!(series.column("core0.busy").unwrap(), [40, 15]);
        assert_eq!(series.column("tenant0.completed").unwrap(), [1, 1]);
    }

    #[test]
    fn series_json_is_well_formed() {
        let mut s = Sampler::new(100, 8);
        s.record(obs(100, 40, 2, 0, 1));
        s.record(obs(200, 90, 9, 1, 3));
        let series = s.series("gw", 300_000_000);
        assert_well_formed(&series.to_json(), series.tenants());
    }

    /// The timeseries-v1 shape checks: the schema key first, one cycle per
    /// frame, one entry per frame in every column and one lane per tenant.
    /// Returns the parsed document.
    fn assert_well_formed(text: &str, tenants: usize) -> Value {
        assert!(text.starts_with("{\"schema\":\"inca-obs/timeseries-v1\""), "{text}");
        let doc = Value::parse(text).expect("valid json");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(TIMESERIES_SCHEMA));
        let frames = doc.get("frames").and_then(Value::as_u64).expect("frames") as usize;
        assert_eq!(doc.get("cycles").and_then(Value::as_arr).expect("cycles").len(), frames);
        for (name, column) in doc.get("columns").and_then(Value::as_obj).expect("columns") {
            assert_eq!(column.as_arr().expect("array").len(), frames, "column {name}");
        }
        assert_eq!(doc.get("lanes").and_then(Value::as_arr).expect("lanes").len(), tenants);
        doc
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
        let slice = assert_well_formed(&dump_slice(&s.series("t", 300_000_000), (150, 250)), 2);
        assert_eq!(slice.get("cycles").and_then(Value::as_arr).unwrap()[0].as_u64(), Some(200));
        assert_eq!(slice.get("frames").and_then(Value::as_u64), Some(1));
        let columns = slice.get("columns").unwrap();
        assert!(columns.get("advance.barriers").is_none(), "advance columns stripped");
        assert!(columns.get("core0.busy").is_some());
    }
}
