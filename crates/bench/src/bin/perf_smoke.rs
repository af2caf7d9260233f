//! CI-fast performance smoke test of the functional backend.
//!
//! Four suites, one metrics-snapshot JSON line (`inca-obs/metrics-v1`,
//! the schema shared by all bench bins):
//!
//! * **Kernel suite** — pushes one SuperPoint-backbone frame and one
//!   ResNet-18 basic block through `FuncBackend` under three kernel
//!   configurations (the retained naive reference kernel, the fast
//!   kernel at 1 thread, and the fast kernel at the default thread
//!   count) and reports MACs/s per configuration plus the speedups
//!   over the reference.
//! * **Tier suite** — runs end-to-end MobileNetV1 and ResNet-18 under
//!   both execution tiers (Tier-0 per-instruction stepping vs Tier-1
//!   trace-compiled layer programs) and reports
//!   `{name}.tier0_macs_per_s` / `{name}.tier1_macs_per_s` /
//!   `{name}.tier1_speedup` side by side.
//! * **Layer suite** — one-layer networks per kernel family and plane size
//!   (3×3 convolutions at ResNet-18's four stage shapes, pointwise at three
//!   of MobileNetV1's, one depthwise, one fully-connected), each under both
//!   tiers, as `layer.{name}.tier{0,1}_macs_per_s` plus a table on stderr:
//!   where a network-level number comes from.
//! * **Host-profiling suite** — enables [`HostProf`] over the canonical
//!   serve-spans scenario (gateway/scheduler/Tier-0 stepping) and a
//!   direct Tier-1 functional-backend run, then reports wall seconds and
//!   cycles-per-host-second per component as `hostprof.*` gauges (which
//!   the regression gate ignores — wall clock is host-dependent) and a
//!   human table on stderr.
//!
//! Run with `cargo run --release -p inca-bench --bin perf_smoke`; numbers
//! are tracked in EXPERIMENTS.md ("Functional backend fast path") and
//! gated against `BENCH_func.json` by `scripts/bench_gate.sh`.

use std::sync::Arc;
use std::time::Instant;

use inca_accel::{
    AccelConfig, Backend, CalcKernel, DdrImage, Engine, FuncBackend, InterruptStrategy, Program,
    TaskSlot,
};
use inca_compiler::Compiler;
use inca_model::{zoo, ModelError, Network, NetworkBuilder, NodeId, Shape3};
use inca_obs::{HostProf, Metrics, MetricsSnapshot, Probe};

/// One ResNet-18 basic block (two 3×3/64 convs with an identity shortcut)
/// at the 28×28 stage resolution.
fn resnet18_block() -> Network {
    let mut b = NetworkBuilder::new("resnet18_block", Shape3::new(64, 28, 28));
    let x = b.input_id();
    let c1 = b.conv("2a", x, 64, 3, 1, 1, true).unwrap();
    let c2 = b.conv("2b", c1, 64, 3, 1, 1, false).unwrap();
    let a = b.add("add", x, c2, true).unwrap();
    b.finish(vec![a]).unwrap()
}

/// A network of one layer built by `layer` over an `input`-shaped tensor.
fn one_layer(
    name: &str,
    input: Shape3,
    layer: impl Fn(&mut NetworkBuilder, NodeId) -> Result<NodeId, ModelError>,
) -> Network {
    let mut b = NetworkBuilder::new(name, input);
    let x = b.input_id();
    let y = layer(&mut b, x).unwrap();
    b.finish(vec![y]).unwrap()
}

/// The layer suite: per kernel family, the plane sizes the end-to-end
/// networks actually run it at (channels widen as planes shrink).
fn layer_workloads() -> Vec<Network> {
    let conv3x3 = |c: u32, hw: u32| {
        one_layer(&format!("conv3x3_{c}x{hw}x{hw}"), Shape3::new(c, hw, hw), |b, x| {
            b.conv("c", x, c, 3, 1, 1, true)
        })
    };
    let pointwise = |c: u32, hw: u32| {
        one_layer(&format!("pointwise_{c}x{hw}x{hw}"), Shape3::new(c, hw, hw), |b, x| {
            b.conv("c", x, c, 1, 1, 0, true)
        })
    };
    vec![
        conv3x3(64, 28),
        conv3x3(128, 8),
        conv3x3(256, 4),
        conv3x3(512, 2),
        pointwise(128, 24),
        pointwise(512, 6),
        pointwise(1024, 3),
        one_layer("depthwise_128x24x24", Shape3::new(128, 24, 24), |b, x| {
            b.dw_conv("c", x, 3, 1, 1, true)
        }),
        one_layer("fc_1024x1000", Shape3::new(1024, 1, 1), |b, x| {
            b.fully_connected("c", x, 1000, false)
        }),
    ]
}

/// Executes every original instruction of `program` once; returns wall
/// seconds for the run.
fn run_once(backend: &mut FuncBackend, program: &Program) -> f64 {
    let slot = TaskSlot::LOWEST;
    backend.install_image(slot, DdrImage::for_program(program, 0xBEEF));
    backend.on_switch(slot);
    let t0 = Instant::now();
    for instr in &program.instrs {
        if !instr.op.is_virtual() {
            backend.execute(slot, program, instr).expect("perf_smoke program executes");
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Best-of-`iters` wall time after one warm-up run (the warm-up also
/// grows the backend's staging buffers to steady state).
fn measure(mut backend: FuncBackend, program: &Program, iters: usize) -> f64 {
    run_once(&mut backend, program);
    (0..iters).map(|_| run_once(&mut backend, program)).fold(f64::INFINITY, f64::min)
}

/// Runs the whole program once through `FuncBackend::run_program` (the
/// engine-free entry point, which batches compiled layers on Tier-1 and
/// steps what has no plan); returns wall seconds.
fn run_program_once(backend: &mut FuncBackend, program: &Program) -> f64 {
    let slot = TaskSlot::LOWEST;
    backend.install_image(slot, DdrImage::for_program(program, 0xBEEF));
    let t0 = Instant::now();
    backend.run_program(slot, program).expect("perf_smoke program executes");
    t0.elapsed().as_secs_f64()
}

/// Best-of-`iters` wall time of each tier at 1 thread (tier comparison
/// isolates dispatch overhead, not thread scaling): Tier-0 is the
/// per-instruction loop of [`run_once`], Tier-1 `run_program`, each after
/// one warm-up run (Tier-1's also compiles and caches the layer plans).
fn measure_tiers(program: &Program, iters: usize) -> (f64, f64) {
    let t0 = measure(FuncBackend::with_threads(1), program, iters);
    let mut backend = FuncBackend::with_threads(1);
    run_program_once(&mut backend, program);
    let t1 =
        (0..iters).map(|_| run_program_once(&mut backend, program)).fold(f64::INFINITY, f64::min);
    (t0, t1)
}

fn main() {
    let compiler = Compiler::new(AccelConfig::paper_small().arch);
    let workloads = [
        (zoo::superpoint(Shape3::new(1, 48, 48)).unwrap(), "superpoint_48x48"),
        (resnet18_block(), "resnet18_block_64x28x28"),
    ];
    let threads = FuncBackend::new().threads();

    let mut m = Metrics::new();
    m.inc("threads", threads as u64);
    for (net, name) in &workloads {
        let program = compiler.compile_vi(net).unwrap();
        let macs = net.total_macs() as f64;
        let t_ref = measure(FuncBackend::with_kernel(CalcKernel::Reference), &program, 1);
        let t_fast1 = measure(FuncBackend::with_threads(1), &program, 3);
        let t_fastn = measure(FuncBackend::new(), &program, 3);
        m.inc(&format!("{name}.macs"), macs as u64);
        m.set_gauge(&format!("{name}.reference_macs_per_s"), macs / t_ref);
        m.set_gauge(&format!("{name}.fast_1t_macs_per_s"), macs / t_fast1);
        m.set_gauge(&format!("{name}.fast_default_macs_per_s"), macs / t_fastn);
        m.set_gauge(&format!("{name}.speedup_1t"), t_ref / t_fast1);
        m.set_gauge(&format!("{name}.speedup_default"), t_ref / t_fastn);
    }

    // Tier suite: end-to-end networks, Tier-0 stepping vs Tier-1
    // trace-compiled layer programs, fast kernel at 1 thread for both.
    let tier_workloads = [
        (zoo::mobilenet_v1(Shape3::new(3, 96, 96)).unwrap(), "mobilenet_v1_96x96"),
        (zoo::resnet18(Shape3::new(3, 64, 64)).unwrap(), "resnet18_64x64"),
    ];
    for (net, name) in &tier_workloads {
        let program = compiler.compile_vi(net).unwrap();
        let macs = net.total_macs() as f64;
        let (t0, t1) = measure_tiers(&program, 3);
        m.inc(&format!("{name}.macs"), macs as u64);
        m.set_gauge(&format!("{name}.tier0_macs_per_s"), macs / t0);
        m.set_gauge(&format!("{name}.tier1_macs_per_s"), macs / t1);
        m.set_gauge(&format!("{name}.tier1_speedup"), t0 / t1);
    }

    // Layer suite: the same two tiers, one layer at a time.
    eprintln!("{:<24} {:>12} {:>14} {:>14}", "layer", "MACs", "tier-0 MAC/s", "tier-1 MAC/s");
    for net in layer_workloads() {
        let program = compiler.compile_vi(&net).unwrap();
        let macs = net.total_macs() as f64;
        let (t0, t1) = measure_tiers(&program, 5);
        let name = &net.name;
        m.inc(&format!("layer.{name}.macs"), macs as u64);
        m.set_gauge(&format!("layer.{name}.tier0_macs_per_s"), macs / t0);
        m.set_gauge(&format!("layer.{name}.tier1_macs_per_s"), macs / t1);
        eprintln!("{name:<24} {macs:>12.0} {:>14.3e} {:>14.3e}", macs / t0, macs / t1);
    }

    // Host-profiling suite: one shared profiler across the serve-spans
    // scenario (TimingBackend — gateway, scheduler and Tier-0 stepping)
    // and a direct Tier-1 functional run (layer batches).
    let prof = HostProf::new();
    let serve = inca_bench::serve_spans_scenario(
        InterruptStrategy::VirtualInstruction,
        0,
        Some(prof.clone()),
    );
    assert!(serve.responses > 0, "hostprof serve scenario completes requests");
    {
        let (net, _) = &tier_workloads[0];
        let program = Arc::new(compiler.compile_vi(net).unwrap());
        let mut backend = FuncBackend::with_threads(1);
        backend.install_image(TaskSlot::LOWEST, DdrImage::for_program(&program, 0xBEEF));
        let mut engine =
            Engine::new(AccelConfig::paper_small(), InterruptStrategy::VirtualInstruction, backend);
        engine.set_probe(Probe { host: Some(prof.clone()), ..Probe::default() });
        engine.load(TaskSlot::LOWEST, Arc::clone(&program)).unwrap();
        engine.request_at(0, TaskSlot::LOWEST).unwrap();
        engine.run().unwrap();
    }
    let report = prof.report();
    eprint!("{}", report.render());
    m.absorb("", &report.metrics());

    println!("{}", MetricsSnapshot::new("perf_smoke", m).to_json());
}
