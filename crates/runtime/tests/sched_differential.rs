//! Differential correctness: a network run *through the scheduler* on a
//! contended functional backend produces bit-identical outputs to a
//! dedicated, uncontended run — under all three interrupt strategies.
//!
//! Five logical tasks share the four physical slots (one reserved), so
//! the run exercises everything that could corrupt data: slot reuse with
//! program reloads, per-context DDR image swaps ([`inca_accel::Backend::rebind`]),
//! and priority-0 preemptions through the IAU machinery.

use std::sync::Arc;

use inca_accel::analysis::predicted_span;
use inca_accel::{AccelConfig, DdrImage, Engine, FuncBackend, InterruptStrategy};
use inca_compiler::Compiler;
use inca_isa::{Program, TaskSlot};
use inca_model::{zoo, Shape3};
use inca_runtime::{DropPolicy, SchedPolicy, ScheduledEngine, Scheduler, TaskSpec};

fn cfg() -> AccelConfig {
    AccelConfig::paper_small()
}

/// Same distributive input as the accel transparency suite: accumulators
/// stay far from saturation, so tiled and golden sums agree exactly.
fn image_with_input(program: &Program, seed: u64) -> DdrImage {
    let mut img = DdrImage::for_program(program, seed);
    let first = &program.layers[0];
    let n = first.in_shape.bytes();
    let data: Vec<u8> = (0..n).map(|i| ((i * 7 + 3) % 15) as u8).collect();
    img.write(first.input_addr, &data);
    img
}

fn all_outputs(program: &Program, image: &DdrImage) -> Vec<Vec<i8>> {
    program.layers.iter().map(|m| image.read_output(m)).collect()
}

/// The reference: the program on its own engine, its own slot, zero
/// contention.
fn dedicated_run(strategy: InterruptStrategy, program: &Program, seed: u64) -> Vec<Vec<i8>> {
    let slot = TaskSlot::new(3).unwrap();
    let mut backend = FuncBackend::new();
    backend.install_image(slot, image_with_input(program, seed));
    let mut e = Engine::new(cfg(), strategy, backend);
    e.load(slot, program.clone()).unwrap();
    e.request_at(0, slot).unwrap();
    e.run().unwrap();
    all_outputs(program, e.backend().image(slot).unwrap())
}

#[test]
fn scheduled_contended_run_is_bit_identical_to_dedicated() {
    let compiler = Compiler::new(cfg().arch);
    let lo_net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let mid_net = zoo::tiny(Shape3::new(3, 24, 24)).unwrap();
    let hi_net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();

    for strategy in [
        InterruptStrategy::VirtualInstruction,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::CpuLike,
    ] {
        // VirtualInstruction preempts at VIR boundaries and needs the
        // VI-lowered program; the other strategies run the original.
        let compile = |net: &inca_model::Network| -> Arc<Program> {
            Arc::new(match strategy {
                InterruptStrategy::VirtualInstruction => compiler.compile_vi(net).unwrap(),
                _ => compiler.compile(net).unwrap(),
            })
        };
        let lo_prog = compile(&lo_net);
        let mid_prog = compile(&mid_net);
        let hi_prog = compile(&hi_net);

        // (name, program, priority, seed) — five tasks, four slots.
        let plan: [(&str, &Arc<Program>, u8, u64); 5] = [
            ("bg0", &lo_prog, 3, 1_007),
            ("bg1", &lo_prog, 3, 2_007),
            ("mid0", &mid_prog, 2, 3_007),
            ("mid1", &mid_prog, 2, 4_007),
            ("hi", &hi_prog, 0, 5_007),
        ];

        let expected: Vec<Vec<Vec<i8>>> = plan
            .iter()
            .map(|(_, program, _, seed)| dedicated_run(strategy, program, *seed))
            .collect();

        let mut backend = FuncBackend::new();
        let sched = Scheduler::new(cfg(), SchedPolicy::FixedPriority);
        let mut tasks = Vec::new();
        {
            // Register first so ctx ids are known, then install images.
            let mut s = sched;
            for (i, (name, program, prio, seed)) in plan.iter().enumerate() {
                let spec = TaskSpec::new(*name, Arc::clone(program))
                    .priority(*prio)
                    .queue(2, DropPolicy::Reject);
                let id = s.register(spec);
                assert_eq!(id.index(), i);
                backend.install_ctx_image(id.ctx(), image_with_input(program, *seed));
                tasks.push(id);
            }
            let engine = Engine::new(cfg(), strategy, backend);
            let mut se = ScheduledEngine::new(engine, s);

            // Background pair lands first, the mids arrive mid-run (slot
            // reuse on completion), the urgent task arrives while the
            // datapath is busy (true IAU preemption through slot 0).
            let span = predicted_span(&cfg(), &lo_prog);
            se.submit(0, tasks[0]).unwrap();
            se.submit(0, tasks[1]).unwrap();
            let mut done = se.run_until(span / 4).unwrap();
            se.submit(span / 4, tasks[2]).unwrap();
            se.submit(span / 4, tasks[3]).unwrap();
            done.extend(se.run_until(span / 2).unwrap());
            se.submit(span / 2, tasks[4]).unwrap();
            done.extend(se.run_to_idle(span * 200).unwrap());

            assert_eq!(done.len(), 5, "{strategy}: all five scheduled jobs completed");
            let report = se.engine().report();
            assert!(
                !report.interrupts.is_empty(),
                "{strategy}: the contended run must actually preempt"
            );
            assert!(
                se.scheduler().metrics().counter("sched.reloads") >= 5,
                "{strategy}: five tasks over three shared slots reload programs"
            );

            for (i, (name, program, _, _)) in plan.iter().enumerate() {
                let image = se
                    .engine()
                    .backend()
                    .ctx_image(tasks[i].ctx())
                    .unwrap_or_else(|| panic!("{strategy}: ctx image for {name} missing"));
                assert_eq!(
                    all_outputs(program, image),
                    expected[i],
                    "{strategy}: task {name} output differs between scheduled+contended \
                     and dedicated runs"
                );
            }
        }
    }
}
