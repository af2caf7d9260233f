//! A deterministic metrics registry: counters, gauges and cycle
//! histograms with **fixed** bucket boundaries, so a snapshot of the same
//! run is byte-identical no matter where or how often it is taken.
//!
//! Keys are plain dotted strings (`"engine.jobs.completed"`); storage is
//! `BTreeMap`, so iteration (and therefore JSON output) is sorted and
//! reproducible.

use std::collections::BTreeMap;

use crate::json::{self, Obj};

/// Fixed cycle-histogram bucket boundaries: powers of four from 1 to
/// 4^18 (~6.9e10 cycles ≈ 229 s at 300 MHz). A fixed ladder keeps
/// snapshots reproducible across runs and mergeable across sources.
pub const CYCLE_BUCKETS: [u64; 19] = [
    1,
    4,
    16,
    64,
    256,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
    1 << 32,
    1 << 34,
    1 << 36,
];

/// A histogram over the fixed [`CYCLE_BUCKETS`] ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[i]` counts samples `<= CYCLE_BUCKETS[i]`; the final slot
    /// counts overflows.
    counts: [u64; CYCLE_BUCKETS.len() + 1],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: [0; CYCLE_BUCKETS.len() + 1], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        // The first bucket `4^i >= value`: `i` is `ceil(log2(value))`
        // halved and rounded up, past the ladder the overflow slot.
        let log2_ceil = u64::BITS - value.saturating_sub(1).leading_zeros();
        let idx = (log2_ceil as usize).div_ceil(2).min(CYCLE_BUCKETS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), linearly interpolated inside the
    /// power-of-4 bucket that holds the target rank.
    ///
    /// Buckets only record that a sample fell in `(lower, upper]`, so the
    /// estimate assumes samples spread uniformly across the bucket; the
    /// result is clamped to the exactly-tracked `[min, max]` range, which
    /// also makes `quantile(0.0) == min()` and `quantile(1.0) == max()`.
    /// Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Continuous rank in [1, count]; rank r is held by the bucket
        // whose cumulative count first reaches r. The tracked extremes are
        // exact, so the endpoint ranks short-circuit to them.
        let rank = q * (self.count as f64 - 1.0) + 1.0;
        if rank <= 1.0 {
            return self.min;
        }
        if rank >= self.count as f64 {
            return self.max;
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let reached = cum as f64 + c as f64;
            if rank <= reached {
                let lower = if i == 0 { 0 } else { CYCLE_BUCKETS[i - 1] };
                let upper = CYCLE_BUCKETS.get(i).copied().unwrap_or(self.max);
                // The bucket's c samples sit at ranks cum+1 ..= cum+c; its
                // first maps to the lower bound, its last to the upper. A
                // fractional rank just above `cum` lands before the first
                // sample — clamp so the estimate stays inside the bucket
                // (and quantiles stay monotone in q).
                let frac = ((rank - cum as f64 - 1.0) / (c as f64 - 1.0).max(1.0)).clamp(0.0, 1.0);
                let est = lower as f64 + frac * (upper.max(lower) - lower) as f64;
                return (est.round() as u64).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Median estimate (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// `(upper_bound, count)` for every non-empty bucket; the overflow
    /// bucket reports `u64::MAX` as its bound.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (CYCLE_BUCKETS.get(i).copied().unwrap_or(u64::MAX), c))
            .collect()
    }

    fn to_json(&self) -> String {
        let buckets: Vec<String> =
            self.nonzero_buckets().iter().map(|(le, c)| format!("[{le},{c}]")).collect();
        Obj::new()
            .u64("count", self.count)
            .raw("sum", &self.sum.to_string())
            .u64("min", self.min())
            .u64("max", self.max())
            .f64("mean", self.mean())
            .u64("p50", self.p50())
            .u64("p95", self.p95())
            .u64("p99", self.p99())
            .raw("buckets", &json::array(&buckets))
            .finish()
    }

    /// Rebuilds a histogram from its serialised form (the percentile
    /// fields are derived and ignored). Returns `None` on malformed input.
    fn from_json(v: &json::Value) -> Option<Self> {
        let mut h = Histogram {
            counts: [0; CYCLE_BUCKETS.len() + 1],
            count: v.get("count")?.as_u64()?,
            sum: v.get("sum")?.as_u128()?,
            min: v.get("min")?.as_u64()?,
            max: v.get("max")?.as_u64()?,
        };
        if h.count == 0 {
            h.min = u64::MAX;
        }
        for pair in v.get("buckets")?.as_arr()? {
            let [le, c] = pair.as_arr()? else { return None };
            let (le, c) = (le.as_u64()?, c.as_u64()?);
            let idx = if le == u64::MAX {
                CYCLE_BUCKETS.len()
            } else {
                CYCLE_BUCKETS.iter().position(|&b| b == le)?
            };
            h.counts[idx] = c;
        }
        (h.counts.iter().sum::<u64>() == h.count).then_some(h)
    }
}

/// The registry: sorted maps of counters, gauges and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `name` (created at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Sets gauge `name`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Records `value` into histogram `name` (created empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            self.histograms.entry(name.to_owned()).or_default().observe(value);
        }
    }

    /// Counter value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Inserts (or replaces) a whole histogram under `name`.
    pub fn insert_histogram(&mut self, name: &str, h: Histogram) {
        self.histograms.insert(name.to_owned(), h);
    }

    /// Absorbs `other`, prefixing every key with `prefix` (counters add,
    /// gauges overwrite, histograms merge is not needed — they are copied;
    /// colliding histogram keys keep `other`'s).
    pub fn absorb(&mut self, prefix: &str, other: &Metrics) {
        for (k, v) in &other.counters {
            self.inc(&format!("{prefix}{k}"), *v);
        }
        for (k, v) in &other.gauges {
            self.set_gauge(&format!("{prefix}{k}"), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.insert(format!("{prefix}{k}"), v.clone());
        }
    }

    /// Serialises the three maps as a JSON object fragment (used by
    /// [`MetricsSnapshot::to_json`]).
    #[must_use]
    fn to_json_fragment(&self) -> (String, String, String) {
        let mut counters = Obj::new();
        for (k, v) in &self.counters {
            counters = counters.u64(k, *v);
        }
        let mut gauges = Obj::new();
        for (k, v) in &self.gauges {
            gauges = gauges.f64(k, *v);
        }
        let mut histograms = Obj::new();
        for (k, v) in &self.histograms {
            histograms = histograms.raw(k, &v.to_json());
        }
        (counters.finish(), gauges.finish(), histograms.finish())
    }
}

/// Schema identifier stamped into every exported metrics snapshot. All
/// bench bins share this schema (`perf_smoke`, `profile_network --json`,
/// `fig_dslam_mission --json`).
pub const METRICS_SCHEMA: &str = "inca-obs/metrics-v1";

/// Schema identifier for span critical-path snapshots (same envelope
/// shape as [`METRICS_SCHEMA`], produced by
/// `inca_obs::analyze::spans::SpanAnalysis::metrics` via
/// `MetricsSnapshot::with_schema`).
pub const SPANS_SCHEMA: &str = "inca-obs/spans-v1";

/// A named, serialisable view of a [`Metrics`] registry.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Snapshot name (e.g. the bench bin that produced it).
    pub name: String,
    /// The metrics.
    pub metrics: Metrics,
    /// Schema identifier ([`METRICS_SCHEMA`] unless overridden with
    /// [`MetricsSnapshot::with_schema`]).
    pub schema: String,
}

impl MetricsSnapshot {
    /// Wraps `metrics` under `name` with the default [`METRICS_SCHEMA`].
    #[must_use]
    pub fn new(name: impl Into<String>, metrics: Metrics) -> Self {
        Self { name: name.into(), metrics, schema: METRICS_SCHEMA.to_owned() }
    }

    /// Overrides the schema identifier (e.g. [`SPANS_SCHEMA`]).
    #[must_use]
    pub fn with_schema(mut self, schema: &str) -> Self {
        self.schema = schema.to_owned();
        self
    }

    /// Surfaces a trace ring's overflow count as the `trace.dropped`
    /// counter, so a snapshot built next to a truncated trace says so.
    /// Emits a loud stderr warning when events were actually dropped —
    /// a truncated trace must never be analyzed silently as complete.
    #[must_use]
    pub fn with_trace_drops(mut self, dropped: u64) -> Self {
        if dropped > 0 {
            eprintln!(
                "WARNING: trace ring overflowed — {dropped} event(s) dropped; snapshot {:?} \
                 covers an INCOMPLETE trace (raise the ring capacity or sample requests)",
                self.name
            );
        }
        self.metrics.inc("trace.dropped", dropped);
        self
    }

    /// The flat JSON form shared by all bench bins:
    /// `{"schema":"inca-obs/metrics-v1","name":...,"counters":{...},
    /// "gauges":{...},"histograms":{...}}` with sorted keys.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (counters, gauges, histograms) = self.metrics.to_json_fragment();
        Obj::new()
            .str("schema", &self.schema)
            .str("name", &self.name)
            .raw("counters", &counters)
            .raw("gauges", &gauges)
            .raw("histograms", &histograms)
            .finish()
    }

    /// Parses a snapshot back from its [`MetricsSnapshot::to_json`] form.
    /// Counters round-trip exactly; histograms rebuild their bucket
    /// arrays (the serialised percentile fields are derived and dropped).
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON, the `schema`
    /// field is missing or neither [`METRICS_SCHEMA`] nor
    /// [`SPANS_SCHEMA`], or a section is malformed.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::Value::parse(text).map_err(|e| e.to_string())?;
        let schema = doc.get("schema").and_then(json::Value::as_str).unwrap_or("");
        if schema != METRICS_SCHEMA && schema != SPANS_SCHEMA {
            return Err(format!(
                "unsupported metrics schema {schema:?} (expected {METRICS_SCHEMA:?} or {SPANS_SCHEMA:?})"
            ));
        }
        let name = doc
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| "missing snapshot name".to_owned())?
            .to_owned();
        let mut metrics = Metrics::new();
        for (k, v) in doc.get("counters").and_then(json::Value::as_obj).unwrap_or(&[]) {
            let v = v.as_u64().ok_or_else(|| format!("counter {k} is not a u64"))?;
            metrics.inc(k, v);
        }
        for (k, v) in doc.get("gauges").and_then(json::Value::as_obj).unwrap_or(&[]) {
            let v = v.as_f64().ok_or_else(|| format!("gauge {k} is not a number"))?;
            metrics.set_gauge(k, v);
        }
        for (k, v) in doc.get("histograms").and_then(json::Value::as_obj).unwrap_or(&[]) {
            let h = Histogram::from_json(v).ok_or_else(|| format!("histogram {k} malformed"))?;
            metrics.insert_histogram(k, h);
        }
        Ok(Self { name, metrics, schema: schema.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_stable() {
        let mut h = Histogram::default();
        for v in [1, 2, 4, 5, 1_000_000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), u64::MAX);
        let buckets = h.nonzero_buckets();
        // 1 -> le=1; 2,4 -> le=4; 5 -> le=16; 1e6 -> le=2^20; MAX -> overflow.
        assert_eq!(buckets[0], (1, 1));
        assert_eq!(buckets[1], (4, 2));
        assert_eq!(buckets[2], (16, 1));
        assert_eq!(buckets[3], (1 << 20, 1));
        assert_eq!(buckets[4], (u64::MAX, 1));
    }

    /// The bucket of a sample is the first boundary at or above it, which
    /// `observe` computes from the sample's bit length.
    #[test]
    fn bucket_index_is_the_first_boundary_at_or_above() {
        let mut samples = vec![0, 1, 2, 3, u64::MAX - 1, u64::MAX];
        for b in CYCLE_BUCKETS {
            samples.extend([b - 1, b, b + 1, b.saturating_mul(3)]);
        }
        samples.extend((0..64).map(|k| 1u64 << k).chain((1..64).map(|k| (1u64 << k) - 1)));
        for v in samples {
            let mut h = Histogram::default();
            h.observe(v);
            let expected = CYCLE_BUCKETS.partition_point(|&b| b < v);
            assert_eq!(h.counts[expected], 1, "sample {v}");
        }
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let mut m = Metrics::new();
        m.inc("b.count", 2);
        m.inc("a.count", 1);
        m.set_gauge("z", 0.5);
        m.observe("lat", 300);
        let s1 = MetricsSnapshot::new("test", m.clone()).to_json();
        let s2 = MetricsSnapshot::new("test", m).to_json();
        assert_eq!(s1, s2);
        let a = s1.find("\"a.count\"").unwrap();
        let b = s1.find("\"b.count\"").unwrap();
        assert!(a < b, "keys sorted");
        assert!(s1.starts_with("{\"schema\":\"inca-obs/metrics-v1\""));
    }

    #[test]
    fn absorb_prefixes_and_adds() {
        let mut inner = Metrics::new();
        inner.inc("jobs", 3);
        inner.set_gauge("util", 0.9);
        inner.observe("lat", 10);
        let mut outer = Metrics::new();
        outer.inc("engine.jobs", 1);
        outer.absorb("engine.", &inner);
        assert_eq!(outer.counter("engine.jobs"), 4);
        assert_eq!(outer.gauge("engine.util"), Some(0.9));
        assert!(outer.histogram("engine.lat").is_some());
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn quantile_endpoints_are_exact_min_max() {
        let mut h = Histogram::default();
        for v in [7, 100, 5_000, 123_456] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 7);
        assert_eq!(h.quantile(1.0), 123_456);
        assert!(h.p50() >= 7 && h.p50() <= 123_456);
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        // 100 samples uniform over (256, 1024] — all in one bucket, so the
        // interpolated p50 should land near the bucket midpoint.
        let mut h = Histogram::default();
        for i in 0..100u64 {
            h.observe(257 + i * (1024 - 257) / 99);
        }
        let p50 = h.p50();
        assert!((500..=800).contains(&p50), "p50 = {p50}");
        // p99 near the top of the bucket, and ordered.
        assert!(h.p95() <= h.p99());
        assert!(h.p50() <= h.p95());
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn quantiles_are_monotone_when_rank_enters_a_sparse_bucket() {
        // 38 small samples and one large one: the p99 rank (38.62) lands
        // just above the small bucket's cumulative count, before the large
        // bucket's single sample at rank 39. The estimate must stay inside
        // the large bucket, not interpolate below its lower bound.
        let mut h = Histogram::default();
        for _ in 0..38 {
            h.observe(150);
        }
        h.observe(2700);
        assert!(h.p50() <= h.p95(), "p50 {} p95 {}", h.p50(), h.p95());
        assert!(h.p95() <= h.p99(), "p95 {} p99 {}", h.p95(), h.p99());
        assert!(h.p99() >= 1024, "p99 {} must sit in the large bucket", h.p99());
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn quantiles_respect_bucket_boundaries_across_buckets() {
        // 90 small samples and 10 huge ones: p50 stays in the small
        // bucket, p95+ lands in the huge one.
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(3);
        }
        for _ in 0..10 {
            h.observe(1 << 20);
        }
        assert!(h.p50() <= 4, "p50 = {}", h.p50());
        assert!(h.p95() > 256, "p95 = {}", h.p95());
        assert_eq!(h.quantile(1.0), 1 << 20);
    }

    #[test]
    fn single_sample_quantiles_collapse() {
        let mut h = Histogram::default();
        h.observe(42);
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 42);
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut m = Metrics::new();
        m.inc("engine.jobs", u64::MAX - 7); // above 2^53: f64 would corrupt it
        m.inc("sched.admitted", 3);
        m.set_gauge("util", 0.375);
        m.set_gauge("weird \"name\"", -1.5e-3);
        for v in [1, 5, 300, 70_000, u64::MAX] {
            m.observe("lat", v);
        }
        let snap = MetricsSnapshot::new("round trip", m);
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).expect("parse");
        assert_eq!(parsed.name, snap.name);
        assert_eq!(parsed.metrics, snap.metrics);
        // And the re-serialised form is byte-identical.
        assert_eq!(parsed.to_json(), snap.to_json());
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        assert!(MetricsSnapshot::from_json("{\"schema\":\"nope\",\"name\":\"x\"}").is_err());
        assert!(MetricsSnapshot::from_json("not json").is_err());
    }
}
