//! Workspace-level end-to-end tests: model zoo → compiler → binary
//! round-trip → engine → functional verification, crossing every crate
//! through the public facade.

use std::collections::BTreeMap;

use inca::accel::{
    analysis, AccelConfig, DdrImage, Engine, FuncBackend, InterruptStrategy, TimingBackend,
};
use inca::compiler::Compiler;
use inca::isa::{container, Program, TaskSlot};
use inca::model::{zoo, Shape3};
use inca::obs::{SpanStage, TraceEvent, Tracer};

#[test]
fn full_pipeline_binary_round_trip() {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    let net = zoo::resnet18(Shape3::new(3, 64, 64)).unwrap();
    let vi = compiler.compile_vi(&net).unwrap();

    // instruction.bin round trip preserves the stream.
    let bin = vi.to_bin();
    let decoded =
        Program::from_bin(vi.name.clone(), &bin, vi.layers.clone(), vi.memory.clone()).unwrap();
    assert_eq!(decoded.instrs, vi.instrs);
    // Interrupt-point structure is recoverable from the stream itself
    // (empty points excluded — they carry no virtual instructions).
    let nonempty = vi.interrupt_points.iter().filter(|p| !p.vir_range().is_empty()).count();
    assert_eq!(decoded.interrupt_points.len(), nonempty);
}

#[test]
fn container_round_trips_compiled_zoo_programs() {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    for net in [
        zoo::tiny(Shape3::new(3, 32, 32)).unwrap(),
        zoo::mobilenet_v1(Shape3::new(3, 64, 64)).unwrap(),
        zoo::resnet18(Shape3::new(3, 64, 64)).unwrap(),
    ] {
        let vi = compiler.compile_vi(&net).unwrap();
        let bytes = container::encode_container(&vi);
        let back = container::decode_container(&bytes).unwrap();
        assert_eq!(back.instrs, vi.instrs, "{}", net.name);
        assert_eq!(back.layers, vi.layers, "{}", net.name);
        assert_eq!(back.memory, vi.memory, "{}", net.name);
        back.validate().unwrap();
    }
}

#[test]
fn decoded_binary_runs_identically() {
    let cfg = AccelConfig::paper_small();
    let compiler = Compiler::new(cfg.arch);
    let net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let vi = compiler.compile_vi(&net).unwrap();
    let decoded =
        Program::from_bin(vi.name.clone(), &vi.to_bin(), vi.layers.clone(), vi.memory.clone())
            .unwrap();

    let run = |program: Program| {
        let slot = TaskSlot::LOWEST;
        let mut backend = FuncBackend::new();
        backend.install_image(slot, DdrImage::for_program(&program, 99));
        let mut engine = Engine::new(cfg, InterruptStrategy::VirtualInstruction, backend);
        engine.load(slot, program.clone()).unwrap();
        engine.request_at(0, slot).unwrap();
        let report = engine.run().unwrap();
        let out = engine.backend().image(slot).unwrap().read_output(program.layers.last().unwrap());
        (report.final_cycle, out)
    };
    assert_eq!(run(vi), run(decoded));
}

/// Invariant 6 of DESIGN.md: a request landing inside a VI job waits
/// exactly the charges from where the job stands to its next interrupt
/// point (or to its end when none follows), read off the cycle table.
#[test]
fn measured_vi_t1_is_the_charges_to_the_next_interrupt_point() {
    let input = Shape3::new(3, 96, 96);
    let nets = [zoo::mobilenet_v1(input), zoo::resnet18(Shape3::new(3, 64, 64))];
    for net in nets.map(Result::unwrap) {
        for (size, cfg) in
            [("small", AccelConfig::paper_small()), ("big", AccelConfig::paper_big())]
        {
            let compiler = Compiler::new(cfg.arch);
            let vi = compiler.compile_vi(&net).unwrap();
            let hi_prog = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 16, 16)).unwrap()).unwrap();
            let prefix: Vec<u64> = std::iter::once(0)
                .chain(analysis::charges(&cfg, &vi).scan(0, |t, (_, cycles)| {
                    *t += cycles;
                    Some(*t)
                }))
                .collect();
            let span = *prefix.last().unwrap();
            for i in 0..40 {
                let request = span * (2 * i + 1) / 80;
                let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
                let strategy = InterruptStrategy::VirtualInstruction;
                let mut e = Engine::new(cfg, strategy, TimingBackend::new());
                e.load(hi, hi_prog.clone()).unwrap();
                e.load(lo, vi.clone()).unwrap();
                e.request_at(0, lo).unwrap();
                e.request_at(request, hi).unwrap();
                let ev = e.run().unwrap().interrupts[0];
                let stop = vi
                    .next_interrupt_point(ev.request_pc as usize)
                    .map_or(vi.instrs.len(), |p| p.vir_start as usize);
                let layer = &vi.layers[usize::from(ev.layer)].name;
                let what = format!("{} {size} request at {request} in `{layer}`", net.name);
                assert_eq!(ev.t1, prefix[stop] - request, "{what}");
            }
        }
    }
}

#[test]
fn strategies_agree_on_total_work() {
    // The same pair of jobs completes under every strategy, with the same
    // busy cycles (only scheduling overheads differ).
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    let lo_net = zoo::tiny(Shape3::new(3, 64, 64)).unwrap();
    let hi_net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let lo_vi = compiler.compile_vi(&lo_net).unwrap();
    let lo_orig = compiler.compile(&lo_net).unwrap();
    let hi_vi = compiler.compile_vi(&hi_net).unwrap();
    let hi_orig = compiler.compile(&hi_net).unwrap();

    let mut busys = Vec::new();
    for strategy in [
        InterruptStrategy::NonPreemptive,
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::VirtualInstruction,
    ] {
        let vi = matches!(strategy, InterruptStrategy::VirtualInstruction);
        let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
        let mut e = Engine::new(cfg, strategy, TimingBackend::new());
        e.load(hi, if vi { hi_vi.clone() } else { hi_orig.clone() }).unwrap();
        e.load(lo, if vi { lo_vi.clone() } else { lo_orig.clone() }).unwrap();
        e.request_at(0, lo).unwrap();
        e.request_at(3_000, hi).unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.completed_jobs.len(), 2, "{strategy}");
        let lo_busy = r.jobs_of(lo).next().unwrap().busy_cycles;
        busys.push(lo_busy);
    }
    // Non-preemptive / cpu-like / layer-by-layer run the identical
    // original stream; VI adds nothing when interrupts don't take its
    // virtual instructions (they did here, but busy excludes t2/t4).
    assert_eq!(busys[0], busys[1]);
    assert_eq!(busys[0], busys[2]);
    assert_eq!(busys[0], busys[3], "VI busy cycles must match the original stream");
}

/// FNV-1a (64-bit) of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `inca run <tiny> --interrupt-at 700000 --strategy S` — `tiny` at the
/// CLI's default 480×640 on slot 3, a 16×16 `tiny` requester on slot 1 —
/// renders the same Gantt chart under every strategy as when occupancy
/// was folded from the engine's event log (values recorded at eb18ecc).
#[test]
fn inca_run_gantt_is_pinned() {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    // What `inca compile tiny -o t.bin` writes and `inca run t.bin` reads.
    let lo_program = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 480, 640)).unwrap()).unwrap();
    let lo_program =
        container::decode_container(&container::encode_container(&lo_program)).unwrap();
    let hi_program = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 16, 16)).unwrap()).unwrap();
    let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
    let strategies = [
        InterruptStrategy::VirtualInstruction,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::CpuLike,
        InterruptStrategy::NonPreemptive,
    ];
    let hashes: Vec<u64> = strategies
        .into_iter()
        .map(|strategy| {
            let mut e = Engine::new(cfg, strategy, TimingBackend::new());
            e.load(lo, lo_program.clone()).unwrap();
            e.request_at(0, lo).unwrap();
            e.load(hi, hi_program.clone()).unwrap();
            e.request_at(700_000, hi).unwrap();
            fnv1a(&e.run().unwrap().gantt(72))
        })
        .collect();
    let pinned = [
        2_013_243_836_620_497_088, // vi: the container kept no (empty) point, so it drains
        16_126_932_235_605_473_608, // lbl
        18_355_092_369_872_134_382, // cpu
        2_013_243_836_620_497_088, // none
    ];
    assert_eq!(hashes, pinned);
}

/// `inca disasm prog.bin | head -1`: a reader that closes the pipe after
/// one line ends the command with exit 0, not a `Broken pipe` panic. The
/// listing (ResNet-18 at 64×64, about 1.4 MB) is far larger than a pipe's
/// buffer, so the command is still writing when the pipe closes.
#[test]
fn inca_disasm_into_a_closed_pipe_exits_cleanly() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let cfg = AccelConfig::paper_big();
    let net = zoo::resnet18(Shape3::new(3, 64, 64)).unwrap();
    let program = Compiler::new(cfg.arch).compile_vi(&net).unwrap();
    let dir = std::env::temp_dir().join(format!("inca_closed_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("r18.bin");
    std::fs::write(&path, container::encode_container(&program)).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_inca"))
        .arg("disasm")
        .arg(&path)
        .args(["--limit", "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    stdout.read_line(&mut first).unwrap();
    drop(stdout);
    let done = child.wait_with_output().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(first.contains("conv1"), "first line: {first}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(done.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn dslam_outperforms_non_preemptive_on_deadlines() {
    use inca::dslam::mission::{Mission, MissionConfig};
    let mut base = MissionConfig::small_test();
    base.duration_s = 1.5;
    // Make FE genuinely contend with PR: bigger FE than the small default.
    base.fe_input = Shape3::new(1, 240, 320);
    base.pr_input = Shape3::new(3, 240, 320);

    let vi = Mission::new(base.clone()).unwrap().run().unwrap();
    let mut non = base;
    non.strategy = InterruptStrategy::NonPreemptive;
    let non = Mission::new(non).unwrap().run().unwrap();

    let vi_misses: usize = vi.agents.iter().map(|a| a.deadline_misses).sum();
    let non_misses: usize = non.agents.iter().map(|a| a.deadline_misses).sum();
    assert_eq!(vi_misses, 0, "VI strategy must meet all FE deadlines");
    assert!(
        non_misses > 0,
        "non-preemptive accelerator should miss FE deadlines (got {non_misses})"
    );
}

/// The per-instruction charges `analysis::charges` reads off the cycle
/// table are what a tagged solo run spends: summed per layer they equal
/// its `Layer` spans under both configurations, and the virtual
/// instructions, never materialised without an interrupt, charge nothing.
#[test]
fn charges_are_what_a_traced_solo_run_retires() {
    let input = Shape3::new(3, 64, 64);
    for (size, cfg) in [("small", AccelConfig::paper_small()), ("big", AccelConfig::paper_big())] {
        for net in [zoo::mobilenet_v1(input), zoo::resnet18(input)].map(Result::unwrap) {
            let what = format!("{} {size}", net.name);
            let vi = Compiler::new(cfg.arch).compile_vi(&net).unwrap();
            let mut predicted = BTreeMap::<u64, u64>::new();
            for (instr, cycles) in analysis::charges(&cfg, &vi) {
                assert!(!instr.op.is_virtual() || cycles == 0, "{what}: {instr:?}");
                *predicted.entry(u64::from(instr.layer)).or_default() += cycles;
            }

            let slot = TaskSlot::LOWEST;
            let (tracer, buffer) = Tracer::ring(1 << 12);
            let strategy = InterruptStrategy::VirtualInstruction;
            let mut e = Engine::new(cfg, strategy, TimingBackend::new());
            e.set_probe(tracer.into());
            e.load(slot, vi.clone()).unwrap();
            e.request_job_tagged(0, slot, Some(1)).unwrap();
            e.run().unwrap();
            assert_eq!(buffer.dropped(), 0, "{what}: the comparison must cover the trace");
            let mut spent = BTreeMap::<u64, u64>::new();
            for event in buffer.drain() {
                if let TraceEvent::Span(s) = event {
                    if s.stage == SpanStage::Layer {
                        *spent.entry(s.detail).or_default() += s.cycles();
                    }
                }
            }
            assert_eq!(spent, predicted, "{what}");
        }
    }
}
