//! Request-scoped span determinism and round-trip guarantees (DESIGN.md
//! §5.7), over the canonical serve-spans scenario
//! ([`inca_bench::serve_spans_scenario`]):
//!
//! * span streams are **byte-identical** across repeat runs and under
//!   every interrupt strategy;
//! * the functional backend emits the same spans at any worker-thread
//!   count (the virtual clock, not the host, orders everything);
//! * a Chrome trace export/import round trip reconstructs every span
//!   field exactly;
//! * each request's five-part breakdown tiles its end-to-end latency
//!   **exactly** (queue is the residual by construction);
//! * enabling [`HostProf`] changes no deterministic byte (differential);
//! * the sampling modulus is honored (`RequestId % N == 0`).

use std::sync::Arc;

use inca_accel::{AccelConfig, DdrImage, Engine, FuncBackend, InterruptStrategy, TaskSlot};
use inca_bench::serve_spans_scenario;
use inca_compiler::Compiler;
use inca_model::{zoo, Shape3};
use inca_obs::analyze::import;
use inca_obs::{Analyzer, ChromeTrace, HostProf, MetricsSnapshot, SpanStage, TraceEvent, Tracer};

const STRATEGIES: [InterruptStrategy; 3] = [
    InterruptStrategy::VirtualInstruction,
    InterruptStrategy::LayerByLayer,
    InterruptStrategy::CpuLike,
];

fn spans_of(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events.iter().filter(|e| matches!(e, TraceEvent::Span { .. })).cloned().collect()
}

#[test]
fn span_streams_byte_identical_across_runs_and_strategies() {
    for strategy in STRATEGIES {
        let a = serve_spans_scenario(strategy, 1, None);
        let b = serve_spans_scenario(strategy, 1, None);
        assert!(a.dropped == 0 && b.dropped == 0, "{strategy}: ring did not overflow");
        assert_eq!(a.events, b.events, "{strategy}: identical runs emit identical streams");
        assert!(!spans_of(&a.events).is_empty(), "{strategy}: the canonical scenario emits spans");

        // The derived artifacts are byte-identical too.
        let (mut an_a, mut an_b) = (Analyzer::new(), Analyzer::new());
        an_a.consume(&a.events);
        an_b.consume(&b.events);
        assert_eq!(
            MetricsSnapshot::new("spans", an_a.spans.metrics()).to_json(),
            MetricsSnapshot::new("spans", an_b.spans.metrics()).to_json(),
            "{strategy}: span metrics are byte-identical"
        );
    }
}

#[test]
fn func_backend_spans_identical_across_thread_counts() {
    let cfg = AccelConfig::paper_small();
    let program = Arc::new(
        Compiler::new(cfg.arch).compile_vi(&zoo::tiny(Shape3::new(3, 32, 32)).unwrap()).unwrap(),
    );
    let run = |threads: usize| {
        let mut backend = FuncBackend::with_threads(threads);
        backend.install_image(TaskSlot::LOWEST, DdrImage::for_program(&program, 0xBEEF));
        let mut engine = Engine::new(cfg, InterruptStrategy::VirtualInstruction, backend);
        let (tracer, buf) = Tracer::ring(1 << 14);
        engine.set_probe(tracer.into());
        engine.load(TaskSlot::LOWEST, Arc::clone(&program)).unwrap();
        engine.request_job_tagged(0, TaskSlot::LOWEST, 0, 0, Some(7)).unwrap();
        engine.run().unwrap();
        spans_of(&buf.drain())
    };
    let one = run(1);
    assert!(!one.is_empty(), "tagged Tier-1 job emits spans");
    assert!(
        one.iter().any(|e| matches!(e, TraceEvent::Span { stage: SpanStage::Layer, .. })),
        "Tier-1 batches emit Layer spans"
    );
    for threads in [2, 4] {
        assert_eq!(one, run(threads), "{threads} threads: same spans as 1 thread");
    }
}

#[test]
fn chrome_round_trip_reconstructs_spans_exactly() {
    let out = serve_spans_scenario(InterruptStrategy::VirtualInstruction, 1, None);
    let mut original = spans_of(&out.events);

    let mut chrome = ChromeTrace::new(out.clock_hz as f64 / 1e6);
    chrome.add_process(0, "core0", &out.events);
    let text = chrome.finish();
    let procs = import(&text).expect("chrome import");
    let mut reimported: Vec<TraceEvent> = procs.iter().flat_map(|p| spans_of(&p.events)).collect();

    // The importer orders by cycle; compare as sorted multisets.
    let key = |e: &TraceEvent| match *e {
        TraceEvent::Span { id, parent, request, stage, start, end, core, detail } => {
            (start, end, id, parent, request, stage.code(), core, detail)
        }
        _ => unreachable!("spans_of filtered"),
    };
    original.sort_by_key(key);
    reimported.sort_by_key(key);
    assert!(!original.is_empty());
    assert_eq!(original, reimported, "every span field survives the round trip");
}

#[test]
fn breakdowns_tile_latency_exactly_and_cover_every_stage() {
    let out = serve_spans_scenario(InterruptStrategy::VirtualInstruction, 1, None);
    let mut analyzer = Analyzer::new();
    analyzer.consume(&out.events);
    let breakdowns = analyzer.spans.breakdowns();
    assert_eq!(breakdowns.len() as u64, out.responses, "every response has a breakdown");
    assert_eq!(analyzer.spans.incomplete(), 0);

    for b in &breakdowns {
        let parts: u64 = b.parts().iter().map(|(_, v)| v).sum();
        assert_eq!(parts, b.total(), "request {}: parts tile the total exactly", b.request);
        assert!(b.queue_measured <= b.total());
    }
    // The canonical scenario exercises every lifecycle stage somewhere.
    assert!(breakdowns.iter().any(|b| b.hard), "hard-lane requests present");
    assert!(breakdowns.iter().any(|b| b.exec > 0), "exec cycles attributed");
    assert!(breakdowns.iter().any(|b| b.reload > 0), "program reloads attributed");
    assert!(breakdowns.iter().any(|b| b.batch_wait > 0), "batch waits attributed");
    assert!(breakdowns.iter().any(|b| b.preempted > 0), "preemptions attributed");
    assert!(breakdowns.iter().any(|b| b.queue() > 0), "queue residual attributed");
}

#[test]
fn host_profiling_changes_no_deterministic_byte() {
    let plain = serve_spans_scenario(InterruptStrategy::VirtualInstruction, 1, None);
    let prof = HostProf::new();
    let profiled =
        serve_spans_scenario(InterruptStrategy::VirtualInstruction, 1, Some(prof.clone()));
    assert_eq!(plain.events, profiled.events, "profiling perturbs no trace event");
    assert_eq!(plain.dropped, profiled.dropped);
    assert_eq!(plain.responses, profiled.responses);
    // ...while the profiler itself did observe the run.
    let report = prof.report();
    assert!(report.stats(inca_obs::HostComponent::EngineStep).calls > 0);
    assert!(report.stats(inca_obs::HostComponent::Sched).calls > 0);
}

#[test]
fn trace_sample_modulus_selects_requests_deterministically() {
    let off = serve_spans_scenario(InterruptStrategy::VirtualInstruction, 0, None);
    assert!(spans_of(&off.events).is_empty(), "sample 0 = spans off");

    let sampled = serve_spans_scenario(InterruptStrategy::VirtualInstruction, 2, None);
    let spans = spans_of(&sampled.events);
    assert!(!spans.is_empty());
    assert!(
        spans.iter().all(|e| match e {
            TraceEvent::Span { request, .. } => request % 2 == 0,
            _ => unreachable!(),
        }),
        "only RequestId % 2 == 0 requests are tagged"
    );
    // Sampling filters whole requests, never truncates a tagged one: the
    // sampled run's spans are exactly the full run's even-id spans.
    let full = serve_spans_scenario(InterruptStrategy::VirtualInstruction, 1, None);
    let even: Vec<TraceEvent> = spans_of(&full.events)
        .into_iter()
        .filter(|e| matches!(e, TraceEvent::Span { request, .. } if request % 2 == 0))
        .collect();
    assert_eq!(spans, even);
}
