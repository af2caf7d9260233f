//! Analyzer-vs-runtime consistency (ISSUE: trace analysis engine):
//! the deadline accounting `inca_obs::analyze::Analyzer` reconstructs
//! from a trace must agree **byte-for-byte** with what the runtime
//! itself reports — [`Runtime::report`]'s deadline records and the
//! `runtime.deadlines.*` / `runtime.deadline.*` metrics — under every
//! interrupt strategy, and the Chrome-JSON export must carry the same
//! ledger in its deadline instants.
//!
//! The runs are *drained* (a bounded submitter, run long past the last
//! finish): outstanding deadline jobs have no trace event, so equality
//! is only defined when every deadline has resolved.

use inca::accel::{AccelConfig, Engine, InterruptStrategy, JobRecord, TimingBackend};
use inca::compiler::Compiler;
use inca::isa::TaskSlot;
use inca::model::{zoo, Shape3};
use inca::obs::json::Value;
use inca::obs::{Analyzer, ChromeTrace, Histogram, Tracer};
use inca::runtime::{JobHandle, Node, NodeContext, Runtime};

#[derive(Clone)]
struct Msg;

/// Submits `remaining` accelerator jobs with a fixed relative deadline,
/// re-arming faster than one job's service time so the queue backs up
/// and the later deadlines miss.
struct BoundedSubmitter {
    slot: TaskSlot,
    deadline: u64,
    period: u64,
    remaining: u32,
}

impl Node<Msg> for BoundedSubmitter {
    fn name(&self) -> &str {
        "bounded-submitter"
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_, Msg>, _t: u32) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let deadline = ctx.now() + self.deadline;
        ctx.submit_accel_with_deadline(self.slot, deadline);
        if self.remaining > 0 {
            ctx.schedule_timer(self.period, 0);
        }
    }
    fn on_accel_done(
        &mut self,
        _ctx: &mut NodeContext<'_, Msg>,
        _job: JobHandle,
        _rec: &JobRecord,
    ) {
    }
}

/// One drained mixed met/missed run under `strategy`; returns the trace
/// ring snapshot, the runtime's metrics, and the report-derived
/// (met, missed) split.
fn drained_run(
    strategy: InterruptStrategy,
) -> (Vec<inca::obs::TraceEvent>, inca::obs::Metrics, u64, u64) {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    let net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let program = if matches!(strategy, InterruptStrategy::VirtualInstruction) {
        compiler.compile_vi(&net).unwrap()
    } else {
        compiler.compile(&net).unwrap()
    };
    let slot = TaskSlot::new(1).unwrap();

    // Solo span of one job under this strategy's program, to shape a
    // deadline that early jobs meet and backlogged jobs miss.
    let span = {
        let mut e = Engine::new(cfg, strategy, TimingBackend::new());
        e.load(slot, program.clone()).unwrap();
        e.request_at(0, slot).unwrap();
        e.run().unwrap().final_cycle
    };

    let mut rt: Runtime<Msg, TimingBackend> = Runtime::new(cfg, strategy, TimingBackend::new());
    let (tracer, buf) = Tracer::ring(1 << 16);
    rt.set_tracer(tracer);
    rt.engine_mut().load(slot, program).unwrap();
    let node = rt.add_node(BoundedSubmitter {
        slot,
        deadline: span + span / 4,
        period: span / 2,
        remaining: 10,
    });
    rt.schedule_timer(node, 0, 0);
    // 10 jobs at ~span each: 40x span is far past the last finish.
    rt.run_until(span * 40).unwrap();

    let report = rt.report();
    assert!(
        report.deadlines.iter().all(|d| d.finish.is_some()),
        "{strategy}: run must drain — outstanding deadlines have no trace event"
    );
    let met = report.deadlines.iter().filter(|d| d.met()).count() as u64;
    let missed = report.deadline_misses() as u64;
    assert!(met > 0, "{strategy}: scenario must meet some deadlines");
    assert!(missed > 0, "{strategy}: scenario must miss some deadlines");
    (buf.snapshot(), rt.metrics(), met, missed)
}

/// Asserts the analyzer's deadline accounting equals the runtime's,
/// byte for byte: counts against both the report split and the metrics
/// counters, slack/overrun against the runtime's histograms.
fn assert_consistent(
    strategy: InterruptStrategy,
    a: &Analyzer,
    m: &inca::obs::Metrics,
    met: u64,
    missed: u64,
) {
    assert_eq!(a.deadlines.met, met, "{strategy}: met vs report");
    assert_eq!(a.deadlines.missed, missed, "{strategy}: missed vs report");
    assert_eq!(a.deadlines.met, m.counter("runtime.deadlines.met"), "{strategy}: met counter");
    assert_eq!(
        a.deadlines.missed,
        m.counter("runtime.deadlines.missed"),
        "{strategy}: missed counter"
    );
    let rt_slack = m.histogram("runtime.deadline.slack_cycles").cloned().unwrap_or_default();
    let rt_overrun = m.histogram("runtime.deadline.overrun_cycles").cloned().unwrap_or_default();
    assert_eq!(a.deadlines.slack, rt_slack, "{strategy}: slack histogram");
    assert_eq!(a.deadlines.overrun, rt_overrun, "{strategy}: overrun histogram");

    // The analyzer's exported metrics mirror the same numbers under the
    // `analyze.` prefix.
    let am = a.metrics();
    assert_eq!(am.counter("analyze.deadlines.met"), met, "{strategy}: analyze met counter");
    assert_eq!(
        am.counter("analyze.deadlines.missed"),
        missed,
        "{strategy}: analyze missed counter"
    );
    assert_eq!(
        am.histogram("analyze.deadline.slack_cycles").cloned().unwrap_or_default(),
        rt_slack,
        "{strategy}: exported slack histogram"
    );
}

#[test]
fn analyzer_deadline_accounting_matches_runtime_under_every_strategy() {
    for strategy in [
        InterruptStrategy::NonPreemptive,
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::VirtualInstruction,
    ] {
        let (events, m, met, missed) = drained_run(strategy);
        let mut a = Analyzer::new();
        a.consume(&events);
        assert_consistent(strategy, &a, &m, met, missed);
    }
}

#[test]
fn chrome_export_carries_the_deadline_ledger() {
    for strategy in [
        InterruptStrategy::NonPreemptive,
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::VirtualInstruction,
    ] {
        let (events, _, met, missed) = drained_run(strategy);
        let mut a = Analyzer::new();
        a.consume(&events);
        let cfg = AccelConfig::paper_big();
        let mut chrome = ChromeTrace::new(cfg.clock_hz as f64 / 1e6);
        chrome.add_process(0, "runtime", &events);
        let doc = Value::parse(&chrome.finish()).unwrap();
        let trace_events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();

        // Count each named instant and sum one integer arg over them.
        let instants = |name: &str, arg: &str| -> (u64, u128) {
            trace_events
                .iter()
                .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .inspect(|e| assert_eq!(e.get("ph").and_then(Value::as_str), Some("i")))
                .map(|e| e.get("args").and_then(|a| a.get(arg)).and_then(Value::as_u128).unwrap())
                .fold((0, 0), |(n, sum), v| (n + 1, sum + v))
        };
        // Deadline instants carry their slack/overrun as integer args, so
        // the file holds the runtime's ledger exactly.
        let (n_met, slack) = instants("deadline met", "slack_cycles");
        let (n_missed, overrun) = instants("deadline MISS", "overrun_cycles");
        assert_eq!((n_met, n_missed), (met, missed), "{strategy}: deadline instants");
        assert_eq!(slack, a.deadlines.slack.sum(), "{strategy}: slack_cycles args");
        assert_eq!(overrun, a.deadlines.overrun.sum(), "{strategy}: overrun_cycles args");
        let (n_meta, clock_hz) = instants("engine meta", "clock_hz");
        assert_eq!((n_meta, clock_hz), (1, u128::from(cfg.clock_hz)), "{strategy}: EngineMeta");
    }
}

#[test]
fn empty_trace_yields_empty_accounting() {
    let mut a = Analyzer::new();
    a.consume(&[]);
    assert_eq!(a.deadlines.met, 0);
    assert_eq!(a.deadlines.missed, 0);
    assert_eq!(a.deadlines.slack, Histogram::default());
    assert_eq!(a.metrics().counter("analyze.deadlines.met"), 0);
}
