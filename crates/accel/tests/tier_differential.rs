//! Tier-1 / Tier-0 differential suite: `Engine<FuncBackend>`, running
//! trace-compiled layer programs, must be *observationally identical* to
//! `Engine<Stepped<FuncBackend>>`, the pure per-instruction interpreter
//! (the engine never offers a [`Stepped`] backend a layer) — same reports (clock, events,
//! interrupt probes, per-job accounting), same engine metrics, same full
//! trace stream, same DDR output bytes and byte counts — under every
//! interrupt strategy, including mid-layer preemption and resume.
//!
//! The deterministic tests pin a contended two-task scenario per
//! strategy, with tagged jobs (causal spans in the stream); the proptest sweeps randomized request
//! cycles so interrupts land at arbitrary VI points inside compiled runs.
//! Every comparison is over the whole trace: the ring is sized so nothing
//! is evicted, and `run_on` asserts it.

use inca_accel::analysis::{charges, predicted_span};
use inca_accel::{
    AccelConfig, Backend, DdrImage, Engine, FuncBackend, InterruptStrategy, Program, Stepped,
    TaskSlot,
};
use inca_compiler::Compiler;
use inca_isa::Opcode;
use inca_model::{zoo, Shape3};
use inca_obs::{SpanStage, TraceEvent, Tracer};
use proptest::prelude::*;

const STRATEGIES: [InterruptStrategy; 4] = [
    InterruptStrategy::NonPreemptive,
    InterruptStrategy::CpuLike,
    InterruptStrategy::LayerByLayer,
    InterruptStrategy::VirtualInstruction,
];

fn prop_cases(default_cases: u32) -> ProptestConfig {
    let cases =
        std::env::var("INCA_PROP_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

fn lo_program() -> Program {
    static CACHE: std::sync::OnceLock<Program> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| {
            let c = Compiler::new(AccelConfig::paper_small().arch);
            // Covers Conv, DwConv, Pool, GlobalPool and FC layer kinds.
            c.compile_vi(&zoo::mobilenet_v1(Shape3::new(3, 16, 16)).unwrap()).unwrap()
        })
        .clone()
}

fn hi_program() -> Program {
    static CACHE: std::sync::OnceLock<Program> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| {
            let c = Compiler::new(AccelConfig::paper_small().arch);
            c.compile_vi(&zoo::tiny(Shape3::new(3, 12, 12)).unwrap()).unwrap()
        })
        .clone()
}

/// The program's image with a non-zero input frame (`DdrImage::for_program`
/// leaves the input zero).
fn image_for(program: &Program, seed: u64) -> DdrImage {
    let m = &program.memory;
    let mut img = DdrImage::for_program(program, seed);
    let data: Vec<u8> = (0..m.input_bytes).map(|i| ((i * 7 + 3) % 15) as u8).collect();
    img.write(m.input_base, &data);
    img
}

/// The contended two-task scenario both tiers run.
#[derive(Clone, Copy)]
struct Scenario<'a> {
    strategy: InterruptStrategy,
    /// `(cycle, is_hi)`.
    requests: &'a [(u64, bool)],
    /// Tag request `i` with `1 + i`, so its job emits causal spans.
    tagged: bool,
    threads: usize,
    seed: u64,
    /// `run_until` deadlines to stop at before running dry.
    stops: &'a [u64],
}

impl<'a> Scenario<'a> {
    fn new(strategy: InterruptStrategy, requests: &'a [(u64, bool)]) -> Self {
        Self { strategy, requests, tagged: false, threads: 1, seed: 1, stops: &[] }
    }
}

/// Everything an outside observer can see from one engine run.
#[derive(Debug, PartialEq)]
struct Observables {
    report: inca_accel::Report,
    engine_metrics: inca_obs::Metrics,
    trace: Vec<TraceEvent>,
    /// Whole DDR images of the lo and the hi task.
    images: Vec<DdrImage>,
    bytes_written: Vec<u64>,
}

/// Runs the scenario on the tier `wrap` selects (`func` reaches the
/// functional backend inside it) and captures its observables plus the
/// backend's tier1.* counters.
fn run_on<B: Backend>(
    wrap: fn(FuncBackend) -> B,
    func: fn(&B) -> &FuncBackend,
    lo: &Program,
    hi: &Program,
    s: &Scenario,
) -> (Observables, inca_obs::Metrics) {
    let (lo_slot, hi_slot) = (TaskSlot::new(3).unwrap(), TaskSlot::new(1).unwrap());
    let mut backend = FuncBackend::with_threads(s.threads);
    backend.install_image(lo_slot, image_for(lo, s.seed));
    backend.install_image(hi_slot, image_for(hi, s.seed ^ 0x5EED));
    let mut e = Engine::new(AccelConfig::paper_small(), s.strategy, wrap(backend));
    let (tracer, buffer) = Tracer::ring(1 << 16);
    e.set_probe(tracer.into());
    e.load(lo_slot, lo.clone()).unwrap();
    e.load(hi_slot, hi.clone()).unwrap();
    for (i, &(cycle, is_hi)) in s.requests.iter().enumerate() {
        let tag = s.tagged.then_some(1 + i as u64);
        let slot = if is_hi { hi_slot } else { lo_slot };
        e.request_job_tagged(cycle, slot, tag).unwrap();
    }
    for &deadline in s.stops {
        e.run_until(deadline).unwrap();
    }
    let report = e.run().unwrap();
    assert_eq!(buffer.dropped(), 0, "the comparison must cover the whole trace");
    let backend = func(e.backend());
    let images = [lo_slot, hi_slot].map(|s| backend.image(s).unwrap().clone()).to_vec();
    let bytes_written = vec![backend.bytes_written(lo_slot), backend.bytes_written(hi_slot)];
    let obs = Observables {
        report,
        engine_metrics: e.metrics(),
        trace: buffer.snapshot(),
        images,
        bytes_written,
    };
    (obs, backend.metrics())
}

/// Tier-0: the per-instruction oracle, `Engine<Stepped<FuncBackend>>`.
fn run_tier0(lo: &Program, hi: &Program, s: &Scenario) -> (Observables, inca_obs::Metrics) {
    run_on(Stepped, |b| &b.0, lo, hi, s)
}

/// Tier-1: `Engine<FuncBackend>`, which is offered whole layers.
fn run_tier1(lo: &Program, hi: &Program, s: &Scenario) -> (Observables, inca_obs::Metrics) {
    run_on(|b| b, |b| b, lo, hi, s)
}

/// Runs the scenario on both tiers, holds them observationally identical
/// and returns the Tier-1 run.
fn assert_tiers_agree(s: &Scenario) -> (Observables, inca_obs::Metrics) {
    let (lo, hi) = (lo_program(), hi_program());
    let (t0, m0) = run_tier0(&lo, &hi, s);
    let (t1, m1) = run_tier1(&lo, &hi, s);
    let what = format!("{} tagged={}", s.strategy, s.tagged);
    assert_eq!(t0.report, t1.report, "{what}: reports diverge");
    assert_eq!(t0.engine_metrics, t1.engine_metrics, "{what}: engine metrics diverge");
    assert_eq!(t0.trace, t1.trace, "{what}: trace streams diverge");
    assert_eq!(t0.images, t1.images, "{what}: DDR images diverge");
    assert_eq!(t0.bytes_written, t1.bytes_written, "{what}: byte counts diverge");
    // Tier-0 must never have engaged the fused path.
    assert_eq!(m0.counter("tier1.exec_layers"), 0, "{what}: Tier-0 fused a layer");
    // Tagged jobs put their span tree in the compared stream: Layer spans
    // under Exec segments, and a Preempted span per resumed preemption.
    let spans = |stage| {
        let is = |e: &&TraceEvent| matches!(e, TraceEvent::Span(s) if s.stage == stage);
        t1.trace.iter().filter(is).count()
    };
    if s.tagged {
        assert!(spans(SpanStage::Layer) >= lo.layers.len(), "{what}: Layer spans missing");
        assert!(spans(SpanStage::Exec) >= s.requests.len(), "{what}: Exec spans missing");
        let resumed = t1.report.interrupts.iter().filter(|i| i.resumed_at.is_some()).count();
        assert_eq!(spans(SpanStage::Preempted), resumed, "{what}: Preempted spans");
    } else {
        assert_eq!(spans(SpanStage::Layer) + spans(SpanStage::Exec), 0, "{what}: untagged");
    }
    (t1, m1)
}

#[test]
fn tiers_identical_under_every_strategy() {
    // Requests chosen so the high task lands mid-network.
    let span = predicted_span(&AccelConfig::paper_small(), &lo_program());
    let requests = [(0u64, false), (span / 5, true), (span / 2, true)];
    for strategy in STRATEGIES {
        let scenario =
            Scenario { tagged: true, seed: 0xD1FF, ..Scenario::new(strategy, &requests) };
        let (_, t1) = assert_tiers_agree(&scenario);
        assert!(
            t1.counter("tier1.exec_layers") > 0,
            "{strategy}: Tier-1 never engaged the fused path"
        );
        assert!(
            t1.counter("tier1.exec_instrs_fused") > t1.counter("tier1.exec_layers"),
            "{strategy}: fused layers should batch multiple instructions"
        );
    }
}

/// Fully-connected layers take the same GEMM as convolutions in both
/// tiers: an FC-heavy head (`K` = 24, 129 and 40, odd and even widths) must
/// be batched layer for layer — every layer of an uninterrupted run counted
/// in `tier1.exec_layers`, none deopted — with outputs, traces and byte
/// counts identical to stepping at every thread count.
#[test]
fn fully_connected_layers_are_batched_and_identical() {
    let mut b = inca_model::NetworkBuilder::new("fc_head", Shape3::new(3, 12, 12));
    let x = b.input_id();
    let stem = b.conv("stem", x, 24, 3, 2, 1, true).unwrap();
    let pooled = b.gem_pool("gap", stem, 1).unwrap();
    let fc1 = b.fully_connected("fc1", pooled, 129, true).unwrap();
    let fc2 = b.fully_connected("fc2", fc1, 40, true).unwrap();
    let fc3 = b.fully_connected("fc3", fc2, 7, false).unwrap();
    let net = b.finish(vec![fc3]).unwrap();
    let lo = Compiler::new(AccelConfig::paper_small().arch).compile_vi(&net).unwrap();
    let fc_layers =
        lo.layers.iter().filter(|m| matches!(m.kind, inca_isa::LayerKind::FullyConnected)).count();
    assert_eq!(fc_layers, 3);

    let hi = hi_program();
    let solo = Scenario::new(InterruptStrategy::VirtualInstruction, &[(0, false)]);
    for threads in [1, 2, 8] {
        let scenario = Scenario { threads, seed: 0xFC, ..solo };
        let (t0, m0) = run_tier0(&lo, &hi, &scenario);
        let (t1, m1) = run_tier1(&lo, &hi, &scenario);
        assert_eq!(t0, t1, "threads={threads}: tiers diverge on the FC head");
        assert_eq!(m0.counter("tier1.exec_layers"), 0);
        assert_eq!(m1.counter("tier1.exec_layers"), lo.layers.len() as u64, "threads={threads}");
        assert_eq!(m1.counter("tier1.deopt_layers") + m1.counter("tier1.deopt_dynamic"), 0);
        let logits = t1.images[0].read_output(lo.layers.last().unwrap());
        assert!(logits.iter().any(|&v| v != logits[0]), "FC output is degenerate");
    }
}

#[test]
fn tier1_plan_cache_hits_across_jobs() {
    let (lo, hi) = (lo_program(), hi_program());
    let span = predicted_span(&AccelConfig::paper_small(), &lo);
    let requests = [(0u64, false), (span + 1, false)]; // same program twice
    let scenario = Scenario::new(InterruptStrategy::VirtualInstruction, &requests);
    let (_, m1) = run_tier1(&lo, &hi, &scenario);
    assert_eq!(m1.counter("tier1.compile_programs"), 1, "one program, one compile");
    assert!(m1.counter("tier1.compile_cache_hits") > 0, "second job must hit the plan cache");
    assert!(m1.counter("tier1.compile_layers") > 0);
}

#[test]
fn tier1_reproduces_stepping_errors() {
    // Drop one LOAD_D: stepping raises MissingData at the consuming CALC.
    // The plan compiler must deopt that layer (missing operand) and the
    // fused path must surface the *identical* error by falling back.
    let c = Compiler::new(AccelConfig::paper_small().arch);
    let program = c.compile_vi(&zoo::tiny(Shape3::new(3, 24, 24)).unwrap()).unwrap();
    let drop_pc = program
        .instrs
        .iter()
        .position(|i| i.op == Opcode::LoadD && i.layer == 1)
        .expect("layer 1 has a LOAD_D");
    let mut b = Program::builder(program.name.clone());
    b.layers = program.layers.clone();
    b.memory = program.memory.clone();
    for (pc, i) in program.instrs.iter().enumerate() {
        if pc != drop_pc {
            b.push(*i);
        }
    }
    b.rebuild_points_from_stream();
    let broken = b.build().unwrap();

    fn error_on<B: Backend>(wrap: fn(FuncBackend) -> B, broken: &Program) -> inca_accel::SimError {
        let slot = TaskSlot::new(3).unwrap();
        let mut backend = FuncBackend::new();
        backend.install_image(slot, image_for(broken, 3));
        let (cfg, strategy) = (AccelConfig::paper_small(), InterruptStrategy::VirtualInstruction);
        let mut e = Engine::new(cfg, strategy, wrap(backend));
        e.load(slot, broken.clone()).unwrap();
        e.request_at(0, slot).unwrap();
        e.run().expect_err("missing load must be caught")
    }
    assert_eq!(
        error_on(Stepped, &broken),
        error_on(|b| b, &broken),
        "tiers must report the identical verifier error"
    );
}

#[test]
fn engine_free_run_program_matches_stepping() {
    // The two engine-free loops perf_smoke times: executing every original
    // instruction one by one (Tier-0) and `run_program` (Tier-1) produce
    // the same DDR image and byte counts.
    let program = lo_program();
    let slot = TaskSlot::LOWEST;
    let mut stepped = FuncBackend::new();
    stepped.install_image(slot, image_for(&program, 11));
    stepped.on_switch(slot);
    for (_, instr) in program.original_instrs() {
        stepped.execute(slot, &program, instr).unwrap();
    }
    assert_eq!(stepped.metrics().counter("tier1.exec_layers"), 0);
    let mut fused = FuncBackend::new();
    fused.install_image(slot, image_for(&program, 11));
    fused.run_program(slot, &program).unwrap();
    assert!(
        fused.metrics().counter("tier1.exec_layers") > 0,
        "run_program must engage the fused path"
    );
    assert_eq!(stepped.image(slot), fused.image(slot), "run_program DDR image diverges");
    assert_eq!(stepped.bytes_written(slot), fused.bytes_written(slot));
}

proptest! {
    #![proptest_config(prop_cases(8))]

    /// Randomized interrupt positions: wherever the high-priority request
    /// lands — including mid-layer, forcing a preempt/resume straight
    /// through a compiled run — both tiers observe identical worlds.
    #[test]
    fn tiers_identical_at_random_interrupt_positions(
        strategy_idx in 0usize..STRATEGIES.len(),
        frac1 in 0u64..1000,
        frac2 in 0u64..1000,
        threads in 1usize..3,
        seed in 0u64..1 << 48,
        tagged in any::<bool>(),
    ) {
        let span = predicted_span(&AccelConfig::paper_small(), &lo_program());
        let requests = [
            (0u64, false),
            (span * frac1 / 1000, true),
            (span * frac2 / 1000, true),
        ];
        let scenario = Scenario {
            tagged,
            threads,
            seed,
            ..Scenario::new(STRATEGIES[strategy_idx], &requests)
        };
        let (_, t1) = assert_tiers_agree(&scenario);
        prop_assert!(t1.counter("tier1.exec_layers") > 0);
    }
}

/// One long layer (a 3×3 convolution of more than 500 original
/// instructions on the small accelerator) between two short ones: where
/// `func_infer`'s arrivals land.
fn long_layer_program() -> Program {
    let mut b = inca_model::NetworkBuilder::new("long_layer", Shape3::new(8, 32, 32));
    let x = b.input_id();
    let stem = b.conv("stem", x, 32, 1, 1, 0, true).unwrap();
    let long = b.conv("long", stem, 64, 3, 1, 1, true).unwrap();
    let head = b.conv("head", long, 8, 1, 1, 0, false).unwrap();
    let net = b.finish(vec![head]).unwrap();
    Compiler::new(AccelConfig::paper_small().arch).compile_vi(&net).unwrap()
}

/// The start cycle of every original instruction of an uncontended run of
/// `program`, with its layer: the prefix sums of the engine's own charges.
fn instr_starts(cfg: &AccelConfig, program: &Program) -> Vec<(u64, u16)> {
    let originals = charges(cfg, program).filter(|(i, _)| !i.op.is_virtual());
    let starts = originals.scan(0, |t, (i, cycles)| {
        let start = *t;
        *t += cycles;
        Some((start, i.layer))
    });
    starts.collect()
}

/// `func_infer` in miniature: requests land inside a long layer, a
/// `run_until` deadline stops inside an interrupt-point group, the victim
/// resumes mid-layer with pending SAVE patches (VI) or a restored snapshot
/// (CPU-like) or drains to the layer's end (layer-by-layer). Tier-1 must
/// stay identical to stepping — tagged, so each tier's `Layer` spans are
/// in the compared trace — while running nearly all of the victim as
/// cut-aligned Tier-1 spans.
#[test]
fn preempted_long_layer_runs_as_sub_layer_spans() {
    let (lo, hi) = (long_layer_program(), hi_program());
    let hi_instrs = hi.original_instrs().count() as u64;
    let starts = instr_starts(&AccelConfig::paper_small(), &lo);
    let long: Vec<u64> = starts.iter().filter(|&&(_, l)| l == 1).map(|&(t, _)| t).collect();
    assert!(long.len() > 500, "the long layer has {} instructions", long.len());
    let inside = |frac: usize| long[long.len() * frac / 100] + 1;
    let requests = [(0, false), (inside(20), true), (inside(65), true)];
    let stops = [inside(45)];
    for strategy in [
        InterruptStrategy::VirtualInstruction,
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
    ] {
        let s = Scenario { stops: &stops, tagged: true, ..Scenario::new(strategy, &requests) };
        let (t0, _) = run_tier0(&lo, &hi, &s);
        let (t1, m1) = run_tier1(&lo, &hi, &s);
        assert_eq!(t0, t1, "{strategy}: tiers diverge");
        let layer_spans = t1
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Span(s) if s.stage == SpanStage::Layer));
        assert!(layer_spans.count() >= lo.layers.len(), "{strategy}: Layer spans missing");
        assert!(!t1.report.interrupts.is_empty(), "{strategy}: the victim is preempted");
        if strategy == InterruptStrategy::VirtualInstruction {
            let patched = t1.engine_metrics.counter("engine.saves.patched");
            assert!(patched > 0, "{strategy}: the resumes carry SAVE patches");
        }
        // The requester runs whole layers; what the victim retired
        // beyond them must be nearly all fused.
        let retired = t1.engine_metrics.counter("engine.instrs.retired") - 2 * hi_instrs;
        let fused = m1.counter("tier1.exec_instrs_fused").saturating_sub(2 * hi_instrs);
        assert!(
            fused * 100 >= retired * 95,
            "{strategy}: {fused} of the victim's {retired} instructions fused"
        );
    }
}

/// Sanity: the suite's own equality helper distinguishes different runs
/// (guards against a trivially-true comparison).
#[test]
fn observables_do_distinguish_runs() {
    let (lo, hi) = (lo_program(), hi_program());
    let solo = Scenario::new(InterruptStrategy::VirtualInstruction, &[(0, false)]);
    let (a, _) = run_tier1(&lo, &hi, &solo);
    // different seed → different weights → different outputs
    let (b, _) = run_tier1(&lo, &hi, &Scenario { seed: 2, ..solo });
    assert_ne!(a.images, b.images);
}
