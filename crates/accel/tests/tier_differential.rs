//! Tier-1 / Tier-0 differential suite: a [`FuncBackend`] running
//! trace-compiled layer programs must be *observationally identical* to
//! the pure per-instruction interpreter — same reports (clock, events,
//! interrupt probes, per-job accounting), same engine metrics, same full
//! trace stream, same DDR output bytes and byte counts — under every
//! interrupt strategy, including mid-layer preemption and resume.
//!
//! The deterministic tests pin a contended two-task scenario per
//! strategy; the proptest sweeps randomized request cycles so interrupts
//! land at arbitrary VI points inside compiled runs.

use inca_accel::{
    AccelConfig, DdrImage, Engine, ExecTier, FuncBackend, InterruptStrategy, Program, TaskSlot,
    TimingBackend,
};
use inca_compiler::Compiler;
use inca_isa::Opcode;
use inca_model::{zoo, Shape3};
use inca_obs::{TraceEvent, Tracer};
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

fn image_for(program: &Program, seed: u64) -> DdrImage {
    let mut img = DdrImage::for_program(program, seed);
    let first = &program.layers[0];
    let n = first.in_shape.bytes();
    let data: Vec<u8> = (0..n).map(|i| ((i * 7 + 3) % 15) as u8).collect();
    img.write(first.input_addr, &data);
    img
}

/// Everything an outside observer can see from one engine run.
#[derive(Debug, PartialEq)]
struct Observables {
    report: inca_accel::Report,
    engine_metrics: inca_obs::Metrics,
    trace: Vec<TraceEvent>,
    outputs: Vec<Vec<Vec<i8>>>,
    bytes_written: Vec<u64>,
}

/// Runs the contended scenario on one tier and captures its observables
/// plus the backend's tier1.* counters.
fn run_tier(
    tier: ExecTier,
    strategy: InterruptStrategy,
    lo: &Program,
    hi: &Program,
    requests: &[(u64, bool)], // (cycle, is_hi)
    threads: usize,
    seed: u64,
) -> (Observables, inca_obs::Metrics) {
    let (lo_slot, hi_slot) = (TaskSlot::new(3).unwrap(), TaskSlot::new(1).unwrap());
    let mut backend = FuncBackend::with_tier(tier);
    backend.set_threads(threads);
    backend.install_image(lo_slot, image_for(lo, seed));
    backend.install_image(hi_slot, image_for(hi, seed ^ 0x5EED));
    let mut e = Engine::new(AccelConfig::paper_small(), strategy, backend);
    let (tracer, buffer) = Tracer::ring(1 << 16);
    e.set_tracer(tracer);
    e.set_profiling(true);
    e.load(lo_slot, lo.clone()).unwrap();
    e.load(hi_slot, hi.clone()).unwrap();
    for &(cycle, is_hi) in requests {
        e.request_at(cycle, if is_hi { hi_slot } else { lo_slot }).unwrap();
    }
    let report = e.run().unwrap();
    let outputs = [(lo, lo_slot), (hi, hi_slot)]
        .iter()
        .map(|(p, s)| {
            let img = e.backend().image(*s).unwrap();
            p.layers.iter().map(|m| img.read_output(m)).collect()
        })
        .collect();
    let bytes_written =
        vec![e.backend().bytes_written(lo_slot), e.backend().bytes_written(hi_slot)];
    let obs = Observables {
        report,
        engine_metrics: e.metrics(),
        trace: buffer.snapshot(),
        outputs,
        bytes_written,
    };
    (obs, e.backend().metrics())
}

fn assert_tiers_agree(
    strategy: InterruptStrategy,
    requests: &[(u64, bool)],
    threads: usize,
    seed: u64,
) -> inca_obs::Metrics {
    let (lo, hi) = (lo_program(), hi_program());
    let (t0, m0) = run_tier(ExecTier::Tier0, strategy, &lo, &hi, requests, threads, seed);
    let (t1, m1) = run_tier(ExecTier::Tier1, strategy, &lo, &hi, requests, threads, seed);
    assert_eq!(t0.report, t1.report, "{strategy}: reports diverge");
    assert_eq!(t0.engine_metrics, t1.engine_metrics, "{strategy}: engine metrics diverge");
    assert_eq!(t0.trace, t1.trace, "{strategy}: trace streams diverge");
    assert_eq!(t0.outputs, t1.outputs, "{strategy}: DDR outputs diverge");
    assert_eq!(t0.bytes_written, t1.bytes_written, "{strategy}: byte counts diverge");
    // Tier-0 must never have engaged the fused path.
    assert_eq!(m0.counter("tier1.exec_layers"), 0, "{strategy}: Tier-0 fused a layer");
    m1
}

#[test]
fn tiers_identical_under_every_strategy() {
    // Requests chosen so the high task lands mid-network.
    let span = makespan(&lo_program());
    let requests = [(0u64, false), (span / 5, true), (span / 2, true)];
    for strategy in STRATEGIES {
        let t1 = assert_tiers_agree(strategy, &requests, 1, 0xD1FF);
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
    let strategy = InterruptStrategy::VirtualInstruction;
    for threads in [1, 2, 8] {
        let (t0, m0) = run_tier(ExecTier::Tier0, strategy, &lo, &hi, &[(0, false)], threads, 0xFC);
        let (t1, m1) = run_tier(ExecTier::Tier1, strategy, &lo, &hi, &[(0, false)], threads, 0xFC);
        assert_eq!(t0, t1, "threads={threads}: tiers diverge on the FC head");
        assert_eq!(m0.counter("tier1.exec_layers"), 0);
        assert_eq!(m1.counter("tier1.exec_layers"), lo.layers.len() as u64, "threads={threads}");
        assert_eq!(m1.counter("tier1.deopt_layers") + m1.counter("tier1.deopt_dynamic"), 0);
        let logits = t1.outputs[0].last().unwrap();
        assert!(logits.iter().any(|&v| v != logits[0]), "FC output is degenerate");
    }
}

#[test]
fn tier1_plan_cache_hits_across_jobs() {
    let (lo, hi) = (lo_program(), hi_program());
    let span = makespan(&lo);
    let requests = [(0u64, false), (span + 1, false)]; // same program twice
    let (_, m1) =
        run_tier(ExecTier::Tier1, InterruptStrategy::VirtualInstruction, &lo, &hi, &requests, 1, 7);
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

    let slot = TaskSlot::new(3).unwrap();
    let mut errors = Vec::new();
    for tier in [ExecTier::Tier0, ExecTier::Tier1] {
        let mut backend = FuncBackend::with_tier(tier);
        backend.install_image(slot, image_for(&broken, 3));
        let mut e =
            Engine::new(AccelConfig::paper_small(), InterruptStrategy::VirtualInstruction, backend);
        e.load(slot, broken.clone()).unwrap();
        e.request_at(0, slot).unwrap();
        errors.push(e.run().expect_err("missing load must be caught"));
    }
    assert_eq!(errors[0], errors[1], "tiers must report the identical verifier error");
}

#[test]
fn engine_free_run_program_matches_stepping() {
    // The engine-free entry point used by perf_smoke: both tiers produce
    // the same DDR image and byte counts.
    let program = lo_program();
    let slot = TaskSlot::LOWEST;
    let mut images = Vec::new();
    let mut bytes = Vec::new();
    for tier in [ExecTier::Tier0, ExecTier::Tier1] {
        let mut backend = FuncBackend::with_tier(tier);
        backend.install_image(slot, image_for(&program, 11));
        backend.run_program(slot, &program).unwrap();
        if tier == ExecTier::Tier1 {
            assert!(
                backend.metrics().counter("tier1.exec_layers") > 0,
                "run_program must engage the fused path"
            );
        }
        bytes.push(backend.bytes_written(slot));
        images.push(backend.image(slot).unwrap().clone());
    }
    assert_eq!(images[0], images[1], "run_program DDR images diverge between tiers");
    assert_eq!(bytes[0], bytes[1]);
}

/// Instruction cost is address-independent, so the timing engine gives
/// the makespan the func engines will see.
fn makespan(program: &Program) -> u64 {
    let slot = TaskSlot::LOWEST;
    let mut e = Engine::new(
        AccelConfig::paper_small(),
        InterruptStrategy::VirtualInstruction,
        TimingBackend::new(),
    );
    e.load(slot, program.clone()).unwrap();
    e.request_at(0, slot).unwrap();
    e.run().unwrap().completed_jobs[0].finish
}

fn lo_makespan() -> u64 {
    static CACHE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| makespan(&lo_program()))
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
    ) {
        let strategy = STRATEGIES[strategy_idx];
        let span = lo_makespan();
        let requests = [
            (0u64, false),
            (span * frac1 / 1000, true),
            (span * frac2 / 1000, true),
        ];
        let t1 = assert_tiers_agree(strategy, &requests, threads, seed);
        prop_assert!(t1.counter("tier1.exec_layers") > 0);
    }
}

/// Sanity: the suite's own equality helper distinguishes different runs
/// (guards against a trivially-true comparison).
#[test]
fn observables_do_distinguish_runs() {
    let (lo, hi) = (lo_program(), hi_program());
    let (a, _) = run_tier(
        ExecTier::Tier1,
        InterruptStrategy::VirtualInstruction,
        &lo,
        &hi,
        &[(0, false)],
        1,
        1,
    );
    let (b, _) = run_tier(
        ExecTier::Tier1,
        InterruptStrategy::VirtualInstruction,
        &lo,
        &hi,
        &[(0, false)],
        1,
        2, // different seed → different weights → different outputs
    );
    assert_ne!(a.outputs, b.outputs);
}
