//! Workspace-level observability tests (ISSUE: trace determinism):
//! the same program + seed must yield **byte-identical** traces and
//! metrics regardless of the functional backend's thread count, across
//! repeated runs under every interrupt strategy, and the metrics
//! deadline counters must agree with the runtime's deadline records.

use inca::accel::{
    AccelConfig, DdrImage, Engine, FuncBackend, InterruptStrategy, JobRecord, TimingBackend,
};
use inca::compiler::Compiler;
use inca::isa::TaskSlot;
use inca::model::{zoo, Shape3};
use inca::obs::{ChromeTrace, MetricsSnapshot, TraceEvent, Tracer};
use inca::runtime::{JobHandle, Node, NodeContext, Runtime};

/// Runs a two-slot preemption scenario on the functional backend with
/// `threads` worker threads, returning the Chrome trace JSON and the
/// metrics snapshot JSON.
fn traced_func_run(threads: usize) -> (String, String) {
    let cfg = AccelConfig::paper_small();
    let compiler = Compiler::new(cfg.arch);
    let lo_prog = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 48, 48)).unwrap()).unwrap();
    let hi_prog = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 24, 24)).unwrap()).unwrap();
    let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());

    // Interrupt at 2/5 of the victim's solo span — empirically mid-layer
    // with live buffer state, so the preemption pays real t2/t4 phases
    // (a boundary interrupt would save and restore nothing).
    let span = {
        let mut e = Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
        e.load(lo, lo_prog.clone()).unwrap();
        e.request_at(0, lo).unwrap();
        e.run().unwrap().final_cycle
    };

    let mut backend = FuncBackend::with_threads(threads);
    backend.install_image(lo, DdrImage::for_program(&lo_prog, 11));
    backend.install_image(hi, DdrImage::for_program(&hi_prog, 22));
    let mut engine = Engine::new(cfg, InterruptStrategy::VirtualInstruction, backend);
    let (tracer, buf) = Tracer::ring(1 << 18);
    engine.set_probe(tracer.into());
    engine.load(lo, lo_prog).unwrap();
    engine.load(hi, hi_prog).unwrap();
    engine.request_at(0, lo).unwrap();
    engine.request_at(span * 2 / 5, hi).unwrap();
    let report = engine.run().unwrap();
    assert!(!report.interrupts.is_empty(), "scenario must actually preempt");
    let ev = report.interrupts[0];
    assert!(ev.t2 > 0 && ev.t4 > 0, "preemption must pay real backup/restore phases");

    let mut chrome = ChromeTrace::new(cfg.clock_hz as f64 / 1e6);
    chrome.add_process(0, "accel", &buf.snapshot());
    (chrome.finish(), MetricsSnapshot::new("func_run", engine.metrics()).to_json())
}

#[test]
fn traces_are_byte_identical_across_thread_counts() {
    let (trace_1t, metrics_1t) = traced_func_run(1);
    let (trace_4t, metrics_4t) = traced_func_run(4);
    assert_eq!(trace_1t, trace_4t, "thread count must not leak into the trace");
    assert_eq!(metrics_1t, metrics_4t, "thread count must not leak into metrics");
}

#[test]
fn traces_are_byte_identical_across_repeat_runs_per_strategy() {
    let cfg = AccelConfig::paper_small();
    let compiler = Compiler::new(cfg.arch);
    let lo_net = zoo::tiny(Shape3::new(3, 48, 48)).unwrap();
    let hi_net = zoo::tiny(Shape3::new(3, 24, 24)).unwrap();
    let lo_vi = compiler.compile_vi(&lo_net).unwrap();
    let lo_orig = compiler.compile(&lo_net).unwrap();
    let hi_vi = compiler.compile_vi(&hi_net).unwrap();
    let hi_orig = compiler.compile(&hi_net).unwrap();

    for strategy in [
        InterruptStrategy::NonPreemptive,
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::VirtualInstruction,
    ] {
        let run = || {
            let vi = matches!(strategy, InterruptStrategy::VirtualInstruction);
            let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
            let mut e = Engine::new(cfg, strategy, TimingBackend::new());
            let (tracer, buf) = Tracer::ring(1 << 18);
            e.set_probe(tracer.into());
            e.load(hi, if vi { hi_vi.clone() } else { hi_orig.clone() }).unwrap();
            e.load(lo, if vi { lo_vi.clone() } else { lo_orig.clone() }).unwrap();
            e.request_at(0, lo).unwrap();
            e.request_at(5_000, hi).unwrap();
            e.run().unwrap();
            let mut chrome = ChromeTrace::new(cfg.clock_hz as f64 / 1e6);
            chrome.add_process(0, "accel", &buf.snapshot());
            (chrome.finish(), MetricsSnapshot::new("run", e.metrics()).to_json())
        };
        assert_eq!(run(), run(), "{strategy}: repeat runs must be byte-identical");
    }
}

#[test]
fn preemption_phases_appear_as_nested_slices() {
    let (trace, _) = traced_func_run(2);
    // The VI strategy's preemption phases must be visible as their own
    // slices, and the scheduler events as instants.
    for needle in [
        "\"name\":\"job\"",
        "\"name\":\"t1\"",
        "\"name\":\"t2\"",
        "\"name\":\"t4\"",
        "\"ph\":\"i\"",
    ] {
        assert!(trace.contains(needle), "trace must contain {needle}");
    }
}

#[derive(Clone)]
struct Msg;

/// Submits one accelerator job per timer tick with a fixed relative
/// deadline — tight enough that some jobs miss once the queue backs up.
struct Submitter {
    slot: TaskSlot,
    deadline: u64,
}

impl Node<Msg> for Submitter {
    fn name(&self) -> &str {
        "submitter"
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_, Msg>, _t: u32) {
        let deadline = ctx.now() + self.deadline;
        ctx.submit_accel_with_deadline(self.slot, deadline);
        ctx.schedule_timer(self.deadline / 2, 0);
    }
    fn on_accel_done(
        &mut self,
        _ctx: &mut NodeContext<'_, Msg>,
        _job: JobHandle,
        _rec: &JobRecord,
    ) {
    }
}

#[test]
fn deadline_counters_match_deadline_records() {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    let program = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 32, 32)).unwrap()).unwrap();
    let slot = TaskSlot::new(1).unwrap();

    // Solo span of one job, to pick a deadline that forces misses: the
    // submitter re-arms at deadline/2, so jobs arrive twice as fast as a
    // deadline-length service slot can drain them.
    let span = {
        let mut e = Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
        e.load(slot, program.clone()).unwrap();
        e.request_at(0, slot).unwrap();
        e.run().unwrap().final_cycle
    };

    let mut rt: Runtime<Msg, TimingBackend> =
        Runtime::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
    let (tracer, buf) = Tracer::ring(1 << 16);
    rt.set_tracer(tracer);
    rt.engine_mut().load(slot, program).unwrap();
    let node = rt.add_node(Submitter { slot, deadline: span + span / 4 });
    rt.schedule_timer(node, 0, 0);
    rt.run_until(span * 12).unwrap();

    let report = rt.report();
    let m = rt.metrics();
    let met = report.deadlines.iter().filter(|d| d.met()).count() as u64;
    assert!(report.deadline_misses() > 0, "scenario must produce misses");
    assert!(met > 0, "scenario must also meet some deadlines");
    assert_eq!(m.counter("runtime.deadlines.missed"), report.deadline_misses() as u64);
    assert_eq!(m.counter("runtime.deadlines.met"), met);

    // Every deadline resolution visible in the report is also a trace
    // event; the traced met/missed split agrees with both.
    let events = buf.snapshot();
    let traced_met =
        events.iter().filter(|e| matches!(e, TraceEvent::DeadlineMet { .. })).count() as u64;
    let traced_missed =
        events.iter().filter(|e| matches!(e, TraceEvent::DeadlineMissed { .. })).count() as u64;
    assert_eq!(traced_met, met);
    let resolved_misses =
        report.deadlines.iter().filter(|d| d.finish.is_some() && !d.met()).count() as u64;
    assert_eq!(traced_missed, resolved_misses);
}
