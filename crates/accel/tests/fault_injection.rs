//! Fault injection: verify that the functional backend is a real
//! *verifier* — if the VI machinery is broken (missing restore
//! instructions, wrong SaveID wiring, interrupt points at illegal
//! positions), the simulation either errors loudly or demonstrably
//! corrupts output, rather than passing silently.

use inca_accel::analysis::predicted_span;
use inca_accel::{
    AccelConfig, Backend, DdrImage, Engine, FuncBackend, InterruptStrategy, SimError, Stepped,
};
use inca_compiler::Compiler;
use inca_isa::{Instr, Opcode, Program, TaskSlot};
use inca_model::{zoo, Shape3};

/// A network whose conv layers have several blobs per tile (so interrupt
/// points carry real VIR_SAVE/VIR_LOAD work on the small accelerator).
fn victim_net() -> inca_model::Network {
    let mut b = inca_model::NetworkBuilder::new("victim", Shape3::new(16, 24, 24));
    let x = b.input_id();
    let c1 = b.conv("c1", x, 32, 3, 1, 1, true).unwrap();
    let c2 = b.conv("c2", c1, 32, 3, 1, 1, false).unwrap();
    b.finish(vec![c2]).unwrap()
}

fn compile_vi() -> Program {
    Compiler::new(AccelConfig::paper_small().arch).compile_vi(&victim_net()).unwrap()
}

fn hi_program() -> Program {
    Compiler::new(AccelConfig::paper_small().arch)
        .compile_vi(&zoo::tiny(Shape3::new(3, 16, 16)).unwrap())
        .unwrap()
}

/// Re-assembles a program with `mutate` applied to each instruction
/// (return `None` to drop it); interrupt points are rebuilt from the
/// stream.
fn rebuild(p: &Program, mutate: impl Fn(&Instr) -> Option<Instr>) -> Program {
    let mut b = Program::builder(p.name.clone());
    b.layers = p.layers.clone();
    b.memory = p.memory.clone();
    for i in &p.instrs {
        if let Some(m) = mutate(i) {
            b.push(m);
        }
    }
    b.rebuild_points_from_stream();
    b.build().unwrap()
}

/// Runs the victim with an interrupt at `request`; returns the last
/// layer's output or the simulation error.
fn run_interrupted(victim: &Program, request: u64) -> Result<Vec<i8>, SimError> {
    run_on(|b| b, |b| b, victim, request)
}

/// [`run_interrupted`] on the tier `wrap` selects (`func` reaches the
/// functional backend inside it).
fn run_on<B: Backend>(
    wrap: fn(FuncBackend) -> B,
    func: fn(&B) -> &FuncBackend,
    victim: &Program,
    request: u64,
) -> Result<Vec<i8>, SimError> {
    let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
    let hi_prog = hi_program();
    let mut backend = FuncBackend::new();
    backend.install_image(lo, DdrImage::for_program(victim, 11));
    backend.install_image(hi, DdrImage::for_program(&hi_prog, 12));
    let mut e = Engine::new(
        AccelConfig::paper_small(),
        InterruptStrategy::VirtualInstruction,
        wrap(backend),
    );
    e.load(lo, victim.clone()).unwrap();
    e.load(hi, hi_prog).unwrap();
    e.request_at(0, lo).unwrap();
    e.request_at(request, hi).unwrap();
    e.run()?;
    Ok(func(e.backend()).image(lo).unwrap().read_output(victim.layers.last().unwrap()))
}

#[test]
fn missing_vir_load_d_is_caught() {
    let good = compile_vi();
    let broken = rebuild(&good, |i| (i.op != Opcode::VirLoadD).then_some(*i));
    assert!(broken.instrs.len() < good.instrs.len(), "expected VIR_LOAD_Ds to exist");
    let span = predicted_span(&AccelConfig::paper_small(), &good);
    let mut caught = false;
    for k in 1..20 {
        match run_interrupted(&broken, span * k / 20) {
            Err(SimError::MissingData { .. }) => {
                caught = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => {}
        }
    }
    assert!(caught, "dropping VIR_LOAD_D must surface as MissingData");
}

#[test]
fn wrong_save_id_wiring_is_caught() {
    let good = compile_vi();
    // Break the SaveID linkage: VIR_SAVEs point at a save that will never
    // execute, so the real SAVE is not patched and reads blobs that were
    // flushed and dropped on the context switch.
    let broken = rebuild(&good, |i| {
        let mut i = *i;
        if i.op == Opcode::VirSave {
            i.save_id += 10_000;
        }
        Some(i)
    });
    let span = predicted_span(&AccelConfig::paper_small(), &good);
    let mut caught = false;
    for k in 1..20 {
        match run_interrupted(&broken, span * k / 20) {
            Err(SimError::MissingOutput { .. }) => {
                caught = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => {}
        }
    }
    assert!(caught, "breaking SaveID wiring must surface as MissingOutput");
}

#[test]
fn interrupt_point_after_calc_i_corrupts_or_errors() {
    // The paper's §IV-C: interrupting at CALC_I would need intermediate
    // accumulators backed up. Injecting an (illegal) empty interrupt point
    // right after a CALC_I must therefore break transparency — either an
    // explicit buffer miss or corrupted output, never a silent pass.
    let good = compile_vi();
    let reference = run_interrupted(&good, u64::MAX >> 1).unwrap(); // no interrupt taken

    // Build a program whose only "interrupt point" follows a CALC_I: keep
    // the stream, but inject a bogus empty virtual group (a VIR_LOAD_W of
    // zero bytes) right after the first CALC_I so a point is rebuilt there.
    let mut b = Program::builder(good.name.clone());
    b.layers = good.layers.clone();
    b.memory = good.memory.clone();
    let mut injected = false;
    for i in &good.instrs {
        if i.op.is_virtual() {
            continue; // strip legitimate points
        }
        b.push(*i);
        if !injected && i.op == Opcode::CalcI {
            b.push(Instr::transfer(
                Opcode::VirLoadW,
                i.layer,
                i.blob,
                inca_isa::Tile::default(),
                inca_isa::DdrRange::EMPTY,
            ));
            injected = true;
        }
    }
    b.rebuild_points_from_stream();
    let broken = b.build().unwrap();
    assert!(injected);

    // Request early so the drain lands on the injected point.
    let outcome = run_interrupted(&broken, 1);
    match outcome {
        Err(
            SimError::MissingData { .. }
            | SimError::MissingOutput { .. }
            | SimError::MissingWeights { .. },
        ) => {}
        Ok(out) => assert_ne!(out, reference, "interrupting after CALC_I must not be transparent"),
        Err(other) => panic!("unexpected error {other}"),
    }
}

#[test]
fn reference_of_untouched_program_still_transparent() {
    // Control for the tests above: the unmodified program *is* transparent
    // at the same positions.
    let good = compile_vi();
    let span = predicted_span(&AccelConfig::paper_small(), &good);
    let reference = run_interrupted(&good, u64::MAX >> 1).unwrap();
    for k in 1..20 {
        let out = run_interrupted(&good, span * k / 20).unwrap();
        assert_eq!(out, reference, "position {k}/20");
    }
}

/// A broken VI program fails — or passes — identically in both tiers at
/// every interrupt position: a span that starts at a cut never runs over
/// on-chip state stepping would miss (a dropped `VIR_LOAD_D`, a flushed
/// blob its SAVE is not patched past), and never skips an error stepping
/// raises.
#[test]
fn broken_programs_fail_identically_in_both_tiers() {
    let good = compile_vi();
    let span = predicted_span(&AccelConfig::paper_small(), &good);
    let no_vir_load_d = rebuild(&good, |i| (i.op != Opcode::VirLoadD).then_some(*i));
    let wrong_save_ids = rebuild(&good, |i| {
        let mut i = *i;
        if i.op == Opcode::VirSave {
            i.save_id += 10_000;
        }
        Some(i)
    });
    let mut errors = 0;
    for (name, broken) in [("no VIR_LOAD_D", &no_vir_load_d), ("save ids", &wrong_save_ids)] {
        for k in 1..20 {
            let at = span * k / 20;
            let tier1 = run_interrupted(broken, at);
            let tier0 = run_on(Stepped, |b| &b.0, broken, at);
            assert_eq!(tier1, tier0, "{name}: tiers disagree on a request at {at}");
            errors += usize::from(tier1.is_err());
        }
    }
    assert!(errors > 0, "the broken programs must fail somewhere");
}
