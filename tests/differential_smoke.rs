//! Thin smokes of the scheduler and gateway differential suites
//! (`crates/runtime/tests/sched_differential.rs`,
//! `crates/serve/tests/serve_differential.rs`), which run only under
//! `cargo test --workspace`: one cell of each here, so root `cargo test`
//! holds the bit-identical-resume property through `ScheduledEngine` and
//! through the full serving pipeline too. Five tasks share the four slots
//! under the VI method; the urgent one preempts the contended datapath, and
//! every task's outputs must equal its dedicated, uncontended run. One more
//! cell holds the CALC kernels to the golden model on a whole MobileNetV1,
//! which `crates/accel/tests/kernel_equiv.rs` does per layer.

#[path = "../crates/accel/tests/common/golden.rs"]
mod golden;

use std::sync::Arc;

use inca::accel::{AccelConfig, CorePool, DdrImage, Engine, FuncBackend, InterruptStrategy};
use inca::compiler::Compiler;
use inca::isa::{Program, TaskSlot};
use inca::model::{zoo, Shape3};
use inca::runtime::{DropPolicy, ScheduledEngine, Scheduler, TaskSpec};
use inca::serve::{Gateway, PlacePolicy, SchedPolicy, TenantSpec};

const VI: InterruptStrategy = InterruptStrategy::VirtualInstruction;

fn cfg() -> AccelConfig {
    AccelConfig::paper_small()
}

/// Low-magnitude input, so tiled and golden sums agree exactly.
fn image_with_input(program: &Program, seed: u64) -> DdrImage {
    let mut img = DdrImage::for_program(program, seed);
    let first = &program.layers[0];
    let data: Vec<u8> = (0..first.in_shape.bytes()).map(|i| ((i * 7 + 3) % 15) as u8).collect();
    img.write(first.input_addr, &data);
    img
}

fn outputs(program: &Program, image: &DdrImage) -> Vec<Vec<i8>> {
    program.layers.iter().map(|m| image.read_output(m)).collect()
}

/// `(name, program, priority, seed)`: two backgrounds, two mids, one
/// urgent task — five tasks over four slots.
fn plan() -> Vec<(&'static str, Arc<Program>, u8, u64)> {
    let compile = |side| {
        let net = zoo::tiny(Shape3::new(3, side, side)).unwrap();
        Arc::new(Compiler::new(cfg().arch).compile_vi(&net).unwrap())
    };
    let (lo, mid, hi) = (compile(32), compile(24), compile(16));
    vec![
        ("bg0", Arc::clone(&lo), 3, 1_007),
        ("bg1", lo, 3, 2_007),
        ("mid0", Arc::clone(&mid), 2, 3_007),
        ("mid1", mid, 2, 4_007),
        ("urgent", hi, 0, 5_007),
    ]
}

/// The reference: one program alone on its own engine; every layer's output.
fn dedicated(program: &Program, seed: u64) -> Vec<Vec<i8>> {
    let mut backend = FuncBackend::new();
    let slot = TaskSlot::new(3).unwrap();
    backend.install_image(slot, image_with_input(program, seed));
    let mut e = Engine::new(cfg(), VI, backend);
    e.load(slot, program.clone()).unwrap();
    e.request_at(0, slot).unwrap();
    e.run().unwrap();
    outputs(program, e.backend().image(slot).unwrap())
}

/// Uninterrupted makespan of the background program: the mids land at a
/// quarter of it, the urgent task at half.
fn span(plan: &[(&str, Arc<Program>, u8, u64)]) -> u64 {
    let slot = TaskSlot::new(3).unwrap();
    let mut e = Engine::new(cfg(), VI, inca::accel::TimingBackend::new());
    e.load(slot, Arc::clone(&plan[0].1)).unwrap();
    e.request_at(0, slot).unwrap();
    e.run().unwrap().completed_jobs[0].finish
}

/// The default (dispatched-GEMM) kernels against the golden model on conv,
/// depthwise, pointwise, pooling and FC layers: every layer output equal.
#[test]
fn fast_kernels_match_the_reference_on_mobilenet() {
    let net = zoo::mobilenet_v1(Shape3::new(3, 32, 32)).unwrap();
    let program = Compiler::new(cfg().arch).compile_vi(&net).unwrap();
    let fast = dedicated(&program, 6_007);
    let mut golden_img = image_with_input(&program, 6_007);
    golden::reference_run(&program, &mut golden_img);
    let reference = outputs(&program, &golden_img);
    for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
        assert_eq!(f, r, "layer {i} ({})", program.layers[i].name);
    }
    assert!(fast.iter().all(|out| out.iter().any(|&v| v != 0)), "a layer output is all zero");
}

#[test]
fn scheduled_contended_run_matches_dedicated_runs() {
    let plan = plan();
    let mut sched = Scheduler::new(cfg(), SchedPolicy::FixedPriority);
    let mut backend = FuncBackend::new();
    let tasks: Vec<_> = plan
        .iter()
        .map(|(name, program, prio, seed)| {
            let spec = TaskSpec::new(*name, Arc::clone(program)).priority(*prio);
            let id = sched.register(spec.queue(2, DropPolicy::Reject));
            backend.install_ctx_image(id.ctx(), image_with_input(program, *seed));
            id
        })
        .collect();
    let mut se = ScheduledEngine::new(Engine::new(cfg(), VI, backend), sched);
    let span = span(&plan);
    se.submit(0, tasks[0]).unwrap();
    se.submit(0, tasks[1]).unwrap();
    let mut done = se.run_until(span / 4).unwrap();
    se.submit(span / 4, tasks[2]).unwrap();
    se.submit(span / 4, tasks[3]).unwrap();
    done.extend(se.run_until(span / 2).unwrap());
    se.submit(span / 2, tasks[4]).unwrap();
    done.extend(se.run_to_idle(span * 200).unwrap());
    assert_eq!(done.len(), 5, "all five scheduled jobs completed");
    assert!(!se.engine().report().interrupts.is_empty(), "the urgent task must preempt");
    for (task, (name, program, _, seed)) in tasks.iter().zip(&plan) {
        let image = se.engine().backend().ctx_image(task.ctx()).unwrap();
        assert_eq!(outputs(program, image), dedicated(program, *seed), "task {name}");
    }
}

#[test]
fn served_contended_run_matches_dedicated_runs() {
    let plan = plan();
    let pool = CorePool::new(1, cfg(), VI, FuncBackend::new);
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded);
    gw.set_batch_window(5_000);
    let tenants: Vec<_> = plan
        .iter()
        .map(|(name, program, prio, seed)| {
            let mut spec = TenantSpec::new(*name, Arc::clone(program)).weight(*prio);
            if *prio == 0 {
                spec = spec.hard(2_000_000_000);
            }
            let t = gw.register(spec);
            let backend = gw.pool_mut().core_mut(inca::accel::CoreId(0)).backend_mut();
            backend.install_ctx_image(t.ctx(), image_with_input(program, *seed));
            t
        })
        .collect();
    let span = span(&plan);
    gw.submit(0, tenants[0]).unwrap();
    gw.submit(0, tenants[1]).unwrap();
    gw.run_until(span / 4).unwrap();
    gw.submit(span / 4, tenants[2]).unwrap();
    gw.submit(span / 4, tenants[3]).unwrap();
    gw.run_until(span / 2).unwrap();
    gw.submit(span / 2, tenants[4]).unwrap();
    gw.run_to_idle(u64::MAX).unwrap();
    let responses = gw.drain_responses();
    assert_eq!(responses.len(), 5, "all five requests answered");
    let core = gw.pool().core(inca::accel::CoreId(0));
    assert!(!core.report().interrupts.is_empty(), "the hard request must preempt");
    for (tenant, (name, program, _, seed)) in tenants.iter().zip(&plan) {
        let image = core.backend().ctx_image(tenant.ctx()).unwrap();
        assert_eq!(outputs(program, image), dedicated(program, *seed), "tenant {name}");
    }
}
