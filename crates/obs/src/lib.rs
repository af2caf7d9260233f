//! # inca-obs — deterministic observability for the INCA stack
//!
//! A zero-overhead-when-disabled tracing + metrics layer driven entirely
//! by the simulation's virtual clock:
//!
//! * [`trace`] — typed [`TraceEvent`]s, a bounded ring recorder and the
//!   cheap [`Tracer`] handle the engine, runtime and bus are instrumented
//!   with. A disabled tracer costs one discriminant check per site;
//!   event-construction closures never run.
//! * [`probe`] — [`Probe`], the one observer handle (tracer, serving-core
//!   stamp, host profiler) each tier holds, and the one span constructor.
//! * [`metrics`] — a [`Metrics`] registry of counters, gauges and
//!   fixed-bucket cycle [`Histogram`]s, snapshotted into the flat JSON
//!   schema ([`METRICS_SCHEMA`]) shared by all bench bins.
//! * [`chrome`] — [`ChromeTrace`], a Chrome trace-event JSON exporter
//!   loadable in Perfetto: one track per task slot, preemption phases
//!   t1/t2/t4 as nested slices, deadline misses as instants.
//! * [`ascii`] — the fixed-width timeline renderer behind
//!   `Report::gantt`, hardened against out-of-range intervals.
//! * [`analyze`] — the trace-analysis engine: streaming [`Analyzer`] over
//!   recorded rings or re-imported trace JSON, preemption t1/t2/t4
//!   accounting with model-drift checks, SLO evaluation, occupancy
//!   attribution, and the perf-baseline regression gate.
//! * [`timeline`] — cycle-domain time-series telemetry: the periodic
//!   [`Sampler`] over bounded frame rings, the columnar
//!   [`TIMESERIES_SCHEMA`] export, and the SLO-triggered
//!   [`FlightRecorder`] that freezes a window around the first violation.
//!
//! Because every timestamp is a virtual cycle, the same program and seed
//! yield **byte-identical** trace files regardless of host machine or the
//! functional backend's worker-thread count.

pub mod analyze;
pub mod ascii;
pub mod chrome;
pub mod hostprof;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod span;
pub mod timeline;
pub mod trace;

pub use analyze::Analyzer;
pub use ascii::{paint, render, spark, TimelineRow};
pub use chrome::{ChromeTrace, APP_TID, RUNTIME_TID};
pub use hostprof::{HostComponent, HostProf, HostProfReport, HostTimer};
pub use metrics::{
    Histogram, Metrics, MetricsSnapshot, CYCLE_BUCKETS, METRICS_SCHEMA, SPANS_SCHEMA,
};
pub use probe::Probe;
pub use span::{
    request_detail, request_span_id, span_id, split_request_detail, Span, SpanStage, NO_CORE,
};
pub use timeline::{
    CoreObs, FlightRecorder, Frame, Observation, Sampler, TenantObs, TimeSeries, Violation,
    TIMESERIES_SCHEMA,
};
pub use trace::{RingSink, TraceBuffer, TraceEvent, Tracer};
