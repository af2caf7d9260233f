//! The headline correctness property of INCA: an interrupted-and-resumed
//! low-priority network produces *bit-identical* output to an
//! uninterrupted run, under every interrupt strategy, at every interrupt
//! position.
//!
//! The straight-line golden model (`common/golden.rs`: no tiling, no
//! instructions) provides ground truth for the uninterrupted result.

mod common;

use common::golden::reference_run;
use inca_accel::{AccelConfig, DdrImage, Engine, FuncBackend, InterruptStrategy, TimingBackend};
use inca_compiler::Compiler;
use inca_isa::{Program, TaskSlot};
use inca_model::{zoo, Shape3};

/// Small, distributive test input so accumulators stay far from i32
/// saturation (the tiled and golden sums then agree exactly).
fn test_input(program: &Program) -> (u64, Vec<u8>) {
    let first = &program.layers[0];
    let addr = first.input_addr;
    let n = first.in_shape.bytes();
    let data: Vec<u8> = (0..n).map(|i| ((i * 7 + 3) % 15) as u8).collect();
    (addr, data)
}

fn image_with_input(program: &Program, seed: u64) -> DdrImage {
    let mut img = DdrImage::for_program(program, seed);
    let (addr, data) = test_input(program);
    img.write(addr, &data);
    img
}

fn all_outputs(program: &Program, image: &DdrImage) -> Vec<Vec<i8>> {
    program.layers.iter().map(|m| image.read_output(m)).collect()
}

fn run_uninterrupted(program: &Program, seed: u64) -> Vec<Vec<i8>> {
    run_uninterrupted_with(FuncBackend::new(), program, seed)
}

fn run_uninterrupted_with(mut backend: FuncBackend, program: &Program, seed: u64) -> Vec<Vec<i8>> {
    let slot = TaskSlot::new(3).unwrap();
    backend.install_image(slot, image_with_input(program, seed));
    let mut e =
        Engine::new(AccelConfig::paper_small(), InterruptStrategy::VirtualInstruction, backend);
    e.load(slot, program.clone()).unwrap();
    e.request_at(0, slot).unwrap();
    e.run().unwrap();
    all_outputs(program, e.backend().image(slot).unwrap())
}

fn tiny_fire() -> inca_model::Network {
    // A minimal SqueezeNet-style fire module exercising Concat lowering.
    let mut b = inca_model::NetworkBuilder::new("tiny_fire", Shape3::new(3, 24, 24));
    let x = b.input_id();
    let c = b.conv("stem", x, 8, 3, 2, 1, true).unwrap();
    let s = b.conv("squeeze", c, 4, 1, 1, 0, true).unwrap();
    let e1 = b.conv("expand1", s, 8, 1, 1, 0, true).unwrap();
    let e3 = b.conv("expand3", s, 8, 3, 1, 1, true).unwrap();
    let cat = b.concat("cat", e1, e3).unwrap();
    let out = b.conv("head", cat, 8, 1, 1, 0, false).unwrap();
    b.finish(vec![out]).unwrap()
}

fn networks_under_test() -> Vec<inca_model::Network> {
    vec![
        zoo::tiny(Shape3::new(3, 32, 32)).unwrap(),
        zoo::mobilenet_v1(Shape3::new(3, 32, 32)).unwrap(),
        tiny_fire(),
    ]
}

#[test]
fn functional_backend_matches_golden_reference() {
    for net in networks_under_test() {
        let c = Compiler::new(AccelConfig::paper_small().arch);
        let program = c.compile_vi(&net).unwrap();
        let sim = run_uninterrupted(&program, 0xDEAD_BEEF);
        let mut golden_img = image_with_input(&program, 0xDEAD_BEEF);
        reference_run(&program, &mut golden_img);
        let golden = all_outputs(&program, &golden_img);
        for (i, (a, b)) in sim.iter().zip(golden.iter()).enumerate() {
            assert_eq!(
                a, b,
                "layer {} `{}` of {} differs from golden reference",
                i, program.layers[i].name, net.name
            );
        }
    }
}

/// Runs the low-priority program with a high-priority task requested at
/// `request_cycle`, returns the low task's outputs.
fn run_interrupted(
    strategy: InterruptStrategy,
    lo_program: &Program,
    hi_program: &Program,
    request_cycle: u64,
    seed: u64,
) -> (Vec<Vec<i8>>, usize) {
    run_interrupted_with(FuncBackend::new(), strategy, lo_program, hi_program, request_cycle, seed)
}

fn run_interrupted_with(
    mut backend: FuncBackend,
    strategy: InterruptStrategy,
    lo_program: &Program,
    hi_program: &Program,
    request_cycle: u64,
    seed: u64,
) -> (Vec<Vec<i8>>, usize) {
    let hi = TaskSlot::new(1).unwrap();
    let lo = TaskSlot::new(3).unwrap();
    backend.install_image(lo, image_with_input(lo_program, seed));
    backend.install_image(hi, image_with_input(hi_program, seed ^ 0x1234));
    let mut e = Engine::new(AccelConfig::paper_small(), strategy, backend);
    e.load(lo, lo_program.clone()).unwrap();
    e.load(hi, hi_program.clone()).unwrap();
    e.request_at(0, lo).unwrap();
    e.request_at(request_cycle, hi).unwrap();
    let report = e.run().unwrap();
    assert_eq!(report.completed_jobs.len(), 2);
    (all_outputs(lo_program, e.backend().image(lo).unwrap()), report.interrupts.len())
}

#[test]
fn interrupt_transparency_across_strategies_and_positions() {
    let arch = AccelConfig::paper_small().arch;
    let c = Compiler::new(arch);
    let lo_net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let hi_net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
    let lo_vi = c.compile_vi(&lo_net).unwrap();
    let lo_orig = c.compile(&lo_net).unwrap();
    let hi_vi = c.compile_vi(&hi_net).unwrap();
    let expected = run_uninterrupted(&lo_vi, 42);

    // Find the uninterrupted makespan to spread request cycles across it.
    let makespan = {
        let slot = TaskSlot::new(3).unwrap();
        let mut e = Engine::new(
            AccelConfig::paper_small(),
            InterruptStrategy::VirtualInstruction,
            TimingBackend::new(),
        );
        e.load(slot, lo_vi.clone()).unwrap();
        e.request_at(0, slot).unwrap();
        e.run().unwrap().completed_jobs[0].finish
    };

    let mut total_preemptions = 0usize;
    for i in 0..12 {
        let request = makespan * (2 * i + 1) / 24;
        for (strategy, lo_prog) in [
            (InterruptStrategy::VirtualInstruction, &lo_vi),
            (InterruptStrategy::LayerByLayer, &lo_orig),
            (InterruptStrategy::CpuLike, &lo_orig),
        ] {
            let (outputs, preemptions) = run_interrupted(strategy, lo_prog, &hi_vi, request, 42);
            total_preemptions += preemptions;
            for (l, (a, b)) in outputs.iter().zip(expected.iter()).enumerate() {
                assert_eq!(
                    a, b,
                    "{strategy}: layer {l} differs after interrupt at cycle {request}"
                );
            }
        }
    }
    assert!(
        total_preemptions > 20,
        "expected most positions to actually preempt, got {total_preemptions}"
    );
}

#[test]
fn save_patching_writes_no_byte_twice() {
    // DESIGN.md invariant 4: the bytes written to the victim's DDR image
    // are identical with and without interrupts — VIR_SAVE flushes early,
    // and the patched SAVE skips exactly what was flushed.
    let arch = AccelConfig::paper_small().arch;
    let c = Compiler::new(arch);
    let lo_net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let hi_net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
    let lo_prog = c.compile_vi(&lo_net).unwrap();
    let hi_prog = c.compile_vi(&hi_net).unwrap();
    let lo = TaskSlot::new(3).unwrap();
    let hi = TaskSlot::new(1).unwrap();

    let baseline = {
        let mut backend = FuncBackend::new();
        backend.install_image(lo, image_with_input(&lo_prog, 21));
        let mut e =
            Engine::new(AccelConfig::paper_small(), InterruptStrategy::VirtualInstruction, backend);
        e.load(lo, lo_prog.clone()).unwrap();
        e.request_at(0, lo).unwrap();
        e.run().unwrap();
        e.backend().bytes_written(lo)
    };
    // Sanity: a full pass writes every activation byte exactly once.
    let expected: u64 = lo_prog.layers.iter().map(|m| m.out_shape.bytes()).sum();
    assert_eq!(baseline, expected);

    for k in 1..10 {
        let mut backend = FuncBackend::new();
        backend.install_image(lo, image_with_input(&lo_prog, 21));
        backend.install_image(hi, image_with_input(&hi_prog, 22));
        let mut e =
            Engine::new(AccelConfig::paper_small(), InterruptStrategy::VirtualInstruction, backend);
        e.load(lo, lo_prog.clone()).unwrap();
        e.load(hi, hi_prog.clone()).unwrap();
        e.request_at(0, lo).unwrap();
        e.request_at(k * 1_500, hi).unwrap();
        e.run().unwrap();
        assert_eq!(
            e.backend().bytes_written(lo),
            baseline,
            "interrupt at {} duplicated or dropped output bytes",
            k * 1_500
        );
    }
}

#[test]
fn nested_preemption_is_transparent() {
    // Three tasks: slot 3 preempted by slot 2, slot 2 preempted by slot 1.
    let arch = AccelConfig::paper_small().arch;
    let c = Compiler::new(arch);
    let n3 = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let n2 = zoo::tiny(Shape3::new(3, 24, 24)).unwrap();
    let n1 = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
    let p3 = c.compile_vi(&n3).unwrap();
    let p2 = c.compile_vi(&n2).unwrap();
    let p1 = c.compile_vi(&n1).unwrap();

    let exp3 = run_uninterrupted(&p3, 7);
    let exp2 = run_uninterrupted(&p2, 8);
    let exp1 = run_uninterrupted(&p1, 9);

    let (s1, s2, s3) =
        (TaskSlot::new(1).unwrap(), TaskSlot::new(2).unwrap(), TaskSlot::new(3).unwrap());
    let mut backend = FuncBackend::new();
    backend.install_image(s3, image_with_input(&p3, 7));
    backend.install_image(s2, image_with_input(&p2, 8));
    backend.install_image(s1, image_with_input(&p1, 9));
    let mut e =
        Engine::new(AccelConfig::paper_small(), InterruptStrategy::VirtualInstruction, backend);
    e.load(s3, p3.clone()).unwrap();
    e.load(s2, p2.clone()).unwrap();
    e.load(s1, p1.clone()).unwrap();
    // Makespans (small accel): tiny32 ≈ 15.4k, tiny24 ≈ 10.1k, tiny16 ≈ 5.8k
    // cycles — so slot 2 preempts slot 3 mid-run, then slot 1 preempts
    // slot 2 while slot 3 is still suspended.
    e.request_at(0, s3).unwrap();
    e.request_at(4_000, s2).unwrap();
    e.request_at(7_000, s1).unwrap();
    let report = e.run().unwrap();
    assert_eq!(report.completed_jobs.len(), 3);
    assert!(report.interrupts.len() >= 2, "expected nested preemptions");

    assert_eq!(all_outputs(&p3, e.backend().image(s3).unwrap()), exp3);
    assert_eq!(all_outputs(&p2, e.backend().image(s2).unwrap()), exp2);
    assert_eq!(all_outputs(&p1, e.backend().image(s1).unwrap()), exp1);
}

#[test]
fn channel_outer_loop_order_is_also_transparent() {
    use inca_compiler::{CompileOptions, LoopOrder};
    let arch = AccelConfig::paper_small().arch;
    let opts = CompileOptions::default().with_loop_order(LoopOrder::ChannelOuter);
    let c = Compiler::with_options(arch, opts);
    let lo_net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let hi_net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
    let lo = c.compile_vi(&lo_net).unwrap();
    let hi = c.compile_vi(&hi_net).unwrap();
    let expected = run_uninterrupted(&lo, 3);
    for request in [3_000u64, 11_000, 23_000, 47_000] {
        let (outputs, _) =
            run_interrupted(InterruptStrategy::VirtualInstruction, &lo, &hi, request, 3);
        assert_eq!(outputs, expected, "request at {request}");
    }
}

#[test]
fn transparency_holds_at_explicit_thread_counts() {
    // The fast kernel's worker pool must not affect any output byte:
    // uninterrupted and interrupted runs agree with the golden reference
    // at thread counts 1, 2 and 8 alike.
    let c = Compiler::new(AccelConfig::paper_small().arch);
    let lo_net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let hi_net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
    let lo_prog = c.compile_vi(&lo_net).unwrap();
    let hi_prog = c.compile_vi(&hi_net).unwrap();

    let mut golden_img = image_with_input(&lo_prog, 42);
    reference_run(&lo_prog, &mut golden_img);
    let expected = all_outputs(&lo_prog, &golden_img);

    for threads in [1usize, 2, 8] {
        let plain = run_uninterrupted_with(FuncBackend::with_threads(threads), &lo_prog, 42);
        assert_eq!(plain, expected, "uninterrupted run differs at threads={threads}");
        for request in [2_000u64, 9_000] {
            let (outputs, _) = run_interrupted_with(
                FuncBackend::with_threads(threads),
                InterruptStrategy::VirtualInstruction,
                &lo_prog,
                &hi_prog,
                request,
                42,
            );
            assert_eq!(
                outputs, expected,
                "interrupted run differs at threads={threads}, request={request}"
            );
        }
    }
}
