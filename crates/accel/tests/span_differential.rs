//! Span-commit / per-instruction differential suite: an
//! `Engine<TimingBackend>` — which jumps a job straight to the next event
//! off its cycle table — must be *observationally identical* to
//! `Engine<Stepped<TimingBackend>>`, which has no span capability and
//! therefore retires one instruction per loop iteration (the engine every
//! earlier PR shipped). Both engines receive the same calls; after **every**
//! call the suite compares what the call returned, `now()`, `next_event()`,
//! the `task_state` of all four slots, the whole `report()` (events,
//! interrupt probes with `request_pc` / `layer` / `t1`, completed jobs,
//! final cycle) and `metrics()`.
//!
//! The deterministic tests aim at the places a jump can land wrong:
//! deadlines inside an instruction, exactly on an instruction boundary and
//! exactly at an arrival cycle; equal-cycle arrivals; an arrival that does
//! not preempt (its `Submitted` must keep its place); same-slot backlog;
//! auto-resubmission; zero-cost instructions (equal start cycles); pending
//! SAVE patches after a VI resume; a program that ends in a virtual group;
//! a slot reloaded with a different program. The proptest sweeps arrival
//! sets and call sequences (`INCA_PROP_CASES`).

use std::sync::Arc;

use inca_accel::{
    AccelConfig, Backend, Engine, InterruptStrategy, Program, Report, Stepped, TaskSlot, TaskState,
    TimingBackend,
};
use inca_compiler::Compiler;
use inca_isa::{Instr, Opcode};
use inca_model::{zoo, Network, Shape3};
use inca_obs::{Metrics, TraceEvent, Tracer};
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

/// The small accelerator: its tiling gives even `tiny` interrupt points
/// with `VIR_SAVE`s (the big one compiles it to 46 instructions, none
/// virtual).
fn cfg(dma_overlap: bool) -> AccelConfig {
    AccelConfig { dma_overlap, ..AccelConfig::paper_small() }
}

fn big(dma_overlap: bool) -> AccelConfig {
    AccelConfig { dma_overlap, ..AccelConfig::paper_big() }
}

fn slot(i: u8) -> TaskSlot {
    TaskSlot::new(i).unwrap()
}

fn compile(cfg: &AccelConfig, net: &Network) -> Arc<Program> {
    Arc::new(Compiler::new(cfg.arch).compile_vi(net).unwrap())
}

/// `tiny` at `side`², compiled for `cfg`'s architecture (once).
fn tiny_on(cfg: &AccelConfig, side: u32) -> Arc<Program> {
    type Key = (inca_accel::ArchSpec, u32);
    static CACHE: std::sync::Mutex<Vec<(Key, Arc<Program>)>> = std::sync::Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap();
    let key = (cfg.arch, side);
    if let Some((_, p)) = cache.iter().find(|(k, _)| *k == key) {
        return Arc::clone(p);
    }
    let program = compile(cfg, &zoo::tiny(Shape3::new(3, side, side)).unwrap());
    cache.push((key, Arc::clone(&program)));
    program
}

fn tiny(side: u32) -> Arc<Program> {
    tiny_on(&cfg(false), side)
}

/// `program` with every instruction passed through `edit` (which may drop,
/// change or multiply it); interrupt points are rebuilt from the stream.
fn rewrite(program: &Program, mut edit: impl FnMut(usize, Instr) -> Vec<Instr>) -> Arc<Program> {
    let mut b = Program::builder(program.name.clone());
    b.layers = program.layers.clone();
    b.memory = program.memory.clone();
    for (pc, i) in program.instrs.iter().enumerate() {
        for out in edit(pc, *i) {
            b.push(out);
        }
    }
    b.rebuild_points_from_stream();
    Arc::new(b.build().unwrap())
}

/// Everything an outside observer can ask an engine.
#[derive(Debug, PartialEq)]
struct Observed {
    now: u64,
    next_event: Option<u64>,
    states: Vec<TaskState>,
    report: Report,
    metrics: Metrics,
}

fn observe<B: Backend>(e: &Engine<B>) -> Observed {
    Observed {
        now: e.now(),
        next_event: e.next_event(),
        states: TaskSlot::all().map(|s| e.task_state(s)).collect(),
        report: e.report(),
        metrics: e.metrics(),
    }
}

/// The engine under test next to its per-instruction oracle.
struct Pair {
    spans: Engine<TimingBackend>,
    steps: Engine<Stepped<TimingBackend>>,
    what: String,
    calls: usize,
}

/// Makes the same call on both engines of a [`Pair`], holds the two
/// results and every observable equal, and returns the result.
macro_rules! both {
    ($pair:expr, |$e:ident| $call:expr) => {{
        let a = {
            let $e = &mut $pair.spans;
            $call
        };
        let b = {
            let $e = &mut $pair.steps;
            $call
        };
        $pair.calls += 1;
        let what = format!("{} call #{} `{}`", $pair.what, $pair.calls, stringify!($call));
        assert_eq!(a, b, "{what}: results diverge");
        assert_eq!(observe(&$pair.spans), observe(&$pair.steps), "{what}");
        a
    }};
}

impl Pair {
    fn new(cfg: AccelConfig, strategy: InterruptStrategy, what: impl std::fmt::Display) -> Self {
        Self {
            spans: Engine::new(cfg, strategy, TimingBackend::new()),
            steps: Engine::new(cfg, strategy, Stepped(TimingBackend::new())),
            what: format!("{what} {strategy} overlap={}", cfg.dma_overlap),
            calls: 0,
        }
    }

    fn load(&mut self, slot: TaskSlot, program: &Arc<Program>) {
        both!(self, |e| e.load(slot, Arc::clone(program))).unwrap();
    }

    fn request(&mut self, cycle: u64, slot: TaskSlot) {
        both!(self, |e| e.request_at(cycle, slot)).unwrap();
    }

    fn run_until(&mut self, deadline: u64) {
        both!(self, |e| e.run_until(deadline)).unwrap();
    }

    fn run_until_complete(&mut self, deadline: u64) -> bool {
        both!(self, |e| e.run_until_complete(deadline)).unwrap()
    }

    /// Runs both engines dry and returns the (equal) final report.
    fn finish(mut self) -> Report {
        self.run_until(u64::MAX);
        assert_eq!(self.spans.next_event(), None, "{}: work left behind", self.what);
        self.spans.report()
    }
}

/// The start cycle of every instruction of an uncontended run of `program`
/// released at cycle 0, plus its finish cycle — from the oracle's trace.
fn boundaries(cfg: AccelConfig, program: &Arc<Program>) -> Vec<u64> {
    let mut e =
        Engine::new(cfg, InterruptStrategy::VirtualInstruction, Stepped(TimingBackend::new()));
    let (tracer, buffer) = Tracer::ring(1 << 21);
    e.set_probe(tracer.into());
    e.load(TaskSlot::LOWEST, Arc::clone(program)).unwrap();
    e.request_at(0, TaskSlot::LOWEST).unwrap();
    let finish = e.run().unwrap().final_cycle;
    assert_eq!(buffer.dropped(), 0);
    let mut starts: Vec<u64> = buffer
        .drain()
        .into_iter()
        .filter_map(|ev| match ev {
            TraceEvent::InstrRetired { start, .. } => Some(start),
            _ => None,
        })
        .collect();
    assert_eq!(starts.len(), program.original_instrs().count());
    starts.push(finish);
    starts
}

/// A deterministic stream of "random" numbers below `bound`.
fn lcg(seed: &mut u64, bound: u64) -> u64 {
    *seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    (*seed >> 33) % bound.max(1)
}

/// The contended scenario of the matrix: `lo` in slot 3 under two `tiny`
/// requesters (slots 1 and 2), arrivals and deadlines placed on and
/// around instruction boundaries of the uncontended `lo` run.
fn contended(
    cfg: AccelConfig,
    strategy: InterruptStrategy,
    name: &str,
    lo: &Arc<Program>,
) -> Report {
    let hi = tiny_on(&cfg, 16);
    let bounds = boundaries(cfg, lo);
    let span = *bounds.last().unwrap();
    let hi_span = *boundaries(cfg, &hi).last().unwrap();
    // An instruction that takes more than one cycle, so "inside" exists.
    let at = |percent: usize| {
        let from = (bounds.len() - 2) * percent / 100;
        let k = (from..bounds.len() - 1).find(|&k| bounds[k + 1] > bounds[k] + 1).unwrap_or(from);
        bounds[k]
    };
    let (s1, s2, s3) = (slot(1), slot(2), slot(3));
    let mut p = Pair::new(cfg, strategy, name);
    p.load(s1, &hi);
    p.load(s2, &hi);
    p.load(s3, lo);
    p.request(0, s3);
    p.request(at(10), s1); // exactly on an instruction boundary
    p.request(at(30) + 1, s1); // inside an instruction ...
    p.request(at(30) + 1, s2); // ... and an equal-cycle arrival in another slot
    p.request(at(40), s3); // same-slot backlog behind the running job
    p.request(at(55), s2);
    p.request(at(55) + hi_span / 2, s3); // arrives under a running slot-2 job: no preemption
    p.request(at(80), s1);
    p.request(at(80), s1); // equal-cycle arrivals in one slot

    let mut deadlines = vec![
        1,
        at(5),      // exactly on a boundary
        at(5) + 1,  // inside the next instruction
        at(10),     // exactly at an arrival cycle
        at(20) - 1, // one cycle short of a boundary
        at(30) + 1, // at two arrivals at once
        at(55) + hi_span / 2,
        at(80),
        span,
    ];
    let mut seed = span ^ bounds.len() as u64;
    deadlines.extend((0..24).map(|_| lcg(&mut seed, 2 * span + 4 * hi_span)));
    deadlines.sort_unstable();
    let late = deadlines[deadlines.len() / 2];
    for (k, &deadline) in deadlines.iter().enumerate() {
        if k % 3 == 0 {
            p.run_until_complete(deadline);
        }
        p.run_until(deadline);
        if deadline == late {
            // A request submitted late: its release cycle is in the past.
            p.request(deadline.saturating_sub(5), s2);
        }
    }
    p.finish()
}

fn matrix(name: &str, cfg: fn(bool) -> AccelConfig, lo: &Arc<Program>) {
    for strategy in STRATEGIES {
        for dma_overlap in [false, true] {
            let report = contended(cfg(dma_overlap), strategy, name, lo);
            assert_eq!(report.completed_jobs.len(), 10, "{name} {strategy}: jobs");
            let preemptive = strategy != InterruptStrategy::NonPreemptive;
            assert_eq!(
                report.interrupts.iter().any(|i| i.resumed_at.is_some()),
                preemptive,
                "{name} {strategy}: the scenario must preempt and resume"
            );
        }
    }
}

#[test]
fn tiny_32_matrix() {
    matrix("tiny32", cfg, &tiny(32));
}

#[test]
fn mobilenet_v1_96_matrix() {
    let net = zoo::mobilenet_v1(Shape3::new(3, 96, 96)).unwrap();
    matrix("mobilenet96", big, &compile(&big(false), &net));
}

#[test]
fn superpoint_120x160_matrix() {
    let net = zoo::superpoint(Shape3::new(1, 120, 160)).unwrap();
    matrix("superpoint", big, &compile(&big(false), &net));
}

/// An arrival that preempts nobody still ends the span it lands in: its
/// `Submitted` is logged when the clock reaches it, between the running
/// job's `Started` and `Completed`.
#[test]
fn lower_priority_arrival_keeps_its_place_in_the_event_log() {
    use inca_accel::Event;
    let lo = tiny(32);
    let bounds = boundaries(cfg(false), &lo);
    let (top, low) = (slot(1), slot(3));
    for strategy in STRATEGIES {
        let mut p = Pair::new(cfg(false), strategy, "no-preempt arrival");
        p.load(top, &lo);
        p.load(low, &tiny(16));
        p.request(0, top);
        let mid = bounds[bounds.len() / 2] + 1;
        p.request(mid, low);
        p.request(mid, top); // and a backlog entry for the running slot itself
        let events = p.finish().events;
        let at = |e: Event| events.iter().position(|x| *x == e).expect("event logged");
        let finish = *bounds.last().unwrap();
        assert!(
            at(Event::Started { cycle: 0, slot: top })
                < at(Event::Submitted { cycle: mid, slot: low })
        );
        assert!(
            at(Event::Submitted { cycle: mid, slot: top })
                < at(Event::Completed { cycle: finish, slot: top })
        );
    }
}

/// A victim resumed under the VI method carries `flushed` SAVE patches: the
/// span commit must leave those instructions to stepping (a jump would
/// skip the patch, the elision and their counters).
#[test]
fn resumed_victim_with_pending_patches_is_stepped_until_they_clear() {
    let lo = tiny(32);
    let bounds = boundaries(cfg(false), &lo);
    let mut patched = 0;
    for k in (1..bounds.len() - 1).step_by(7) {
        let mut p = Pair::new(cfg(false), InterruptStrategy::VirtualInstruction, "patches");
        p.load(slot(1), &tiny(16));
        p.load(slot(3), &lo);
        p.request(0, slot(3));
        p.request(bounds[k], slot(1));
        // Stop between the resume and the patched SAVE, then go on.
        p.run_until(bounds[k] + (bounds[k + 1] - bounds[k]) / 2);
        p.run_until_complete(u64::MAX);
        p.run_until_complete(u64::MAX);
        let steps = &p.steps;
        patched += steps.metrics().counter("engine.saves.patched");
        assert_eq!(p.finish().completed_jobs.len(), 2);
    }
    assert!(patched > 0, "no interrupt of the sweep left a SAVE to patch");
}

/// Zero-byte transfers cost nothing (`dma_cycles(0) == 0`), so several
/// instructions share one start cycle: a barrier on that cycle must stop
/// before the first of them, not somewhere in the tie.
#[test]
fn zero_cost_instructions_share_a_start_cycle() {
    let base = tiny(32);
    let lo = rewrite(&base, |pc, mut i| {
        if matches!(i.op, Opcode::LoadD | Opcode::LoadW | Opcode::Save) && pc % 2 == 0 {
            i.ddr.bytes = 0;
        }
        vec![i]
    });
    let bounds = boundaries(cfg(false), &lo);
    let ties: Vec<u64> = bounds.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect();
    assert!(ties.len() > 4, "the rewrite must produce zero-cost instructions");
    for strategy in STRATEGIES {
        for dma_overlap in [false, true] {
            let mut p = Pair::new(cfg(dma_overlap), strategy, "zero-cost");
            p.load(slot(0), &tiny(16));
            p.load(slot(3), &lo);
            p.request(0, slot(3));
            p.request(ties[ties.len() / 2], slot(0)); // an arrival exactly on a tie
            for &t in ties.iter().step_by(3) {
                p.run_until(t);
                p.run_until(t + 1);
            }
            assert_eq!(p.finish().completed_jobs.len(), 2);
        }
    }
}

/// A stream whose last instructions are virtual: the job is not done when
/// its last original instruction retires, only once the next step finds
/// nothing behind the group — possibly a `run_until` call later.
#[test]
fn program_ending_in_a_virtual_group() {
    let base = tiny(32);
    let vir = *base.instrs.iter().find(|i| i.op == Opcode::VirSave).expect("a VIR_SAVE");
    let last = base.instrs.len() - 1;
    let lo = rewrite(&base, |pc, i| if pc == last { vec![i, vir, vir] } else { vec![i] });
    assert!(lo.instrs.last().unwrap().op.is_virtual());
    for strategy in STRATEGIES {
        for dma_overlap in [false, true] {
            let bounds = boundaries(cfg(dma_overlap), &lo);
            let finish = *bounds.last().unwrap();
            let mut p = Pair::new(cfg(dma_overlap), strategy, "virtual-tail");
            p.load(slot(2), &tiny(16));
            p.load(slot(3), &lo);
            p.request(0, slot(3));
            p.request(bounds[bounds.len() - 2], slot(2)); // under the last instruction
            p.run_until(finish - 1);
            p.run_until(finish); // the last instruction retired; the job has not completed
            p.run_until_complete(finish + 1);
            assert_eq!(p.finish().completed_jobs.len(), 2);

            let mut solo = Pair::new(cfg(dma_overlap), strategy, "virtual-tail solo");
            solo.load(slot(3), &lo);
            solo.request(7, slot(3));
            solo.run_until(7 + finish);
            assert_eq!(solo.spans.task_state(slot(3)), TaskState::Running);
            assert!(solo.run_until_complete(u64::MAX));
            assert_eq!(solo.finish().completed_jobs[0].finish, 7 + finish);
        }
    }
}

/// `set_auto_resubmit` releases the next job inside `complete_job`, at the
/// completion cycle: no arrival sits in the heap for the span to stop at.
#[test]
fn auto_resubmit_under_periodic_requesters() {
    let (lo, hi) = (tiny(24), tiny(16));
    let period = *boundaries(cfg(false), &lo).last().unwrap() * 3 / 2;
    for strategy in STRATEGIES {
        for dma_overlap in [false, true] {
            let mut p = Pair::new(cfg(dma_overlap), strategy, "auto-resubmit");
            p.load(slot(1), &hi);
            p.load(slot(3), &lo);
            both!(p, |e| e.set_auto_resubmit(slot(3), true));
            p.request(0, slot(3));
            for k in 1..=12 {
                p.request(k * period, slot(1));
            }
            let horizon = 14 * period;
            while p.run_until_complete(horizon) {}
            both!(p, |e| e.set_auto_resubmit(slot(3), false));
            let report = p.finish();
            assert!(report.jobs_of(slot(3)).count() > 1, "{strategy}: lo jobs");
            assert_eq!(report.jobs_of(slot(1)).count(), 12, "{strategy}: hi jobs");
        }
    }
}

/// A slot's table belongs to the program it was built from: reloading the
/// slot with another program, and then with the first one again (a table
/// lookup), must price each job off its own program.
#[test]
fn reloading_a_slot_switches_tables() {
    let (a, b) = (tiny(32), tiny(24));
    let span = |p: &Arc<Program>| *boundaries(cfg(false), p).last().unwrap();
    assert_ne!(span(&a), span(&b));
    let mut p = Pair::new(cfg(false), InterruptStrategy::VirtualInstruction, "reload");
    let s = slot(3);
    let mut expected = Vec::new();
    for program in [&a, &b, &a, &a, &b] {
        p.load(s, program);
        let now = p.spans.now();
        p.request(now, s);
        assert!(p.run_until_complete(u64::MAX));
        expected.push(span(program));
    }
    // A busy slot refuses the load on both engines alike.
    p.request(p.spans.now(), s);
    p.run_until(p.spans.now() + 10);
    assert!(both!(p, |e| e.load(s, Arc::clone(&a))).is_err());
    let busy: Vec<u64> = p.finish().completed_jobs.iter().map(|j| j.busy_cycles).collect();
    expected.push(span(&b));
    assert_eq!(busy, expected);
}

proptest! {
    #![proptest_config(prop_cases(24))]

    /// Arbitrary arrival sets over all four slots, arbitrary deadline
    /// sequences through both entry points, every strategy, the overlap
    /// credit off and on.
    #[test]
    fn spans_and_steps_agree_on_random_schedules(
        strategy_idx in 0usize..STRATEGIES.len(),
        dma_overlap in any::<bool>(),
        auto_resubmit in any::<bool>(),
        arrivals in prop::collection::vec((0u64..400_000, 0u8..4), 1..12),
        calls in prop::collection::vec((0u64..500_000, any::<bool>()), 0..10),
    ) {
        let mut p = Pair::new(cfg(dma_overlap), STRATEGIES[strategy_idx], "prop");
        let programs = [tiny(16), tiny(24), tiny(16), tiny(32)];
        for (i, program) in programs.iter().enumerate() {
            p.load(slot(i as u8), program);
        }
        both!(p, |e| e.set_auto_resubmit(slot(3), auto_resubmit));
        for &(cycle, s) in &arrivals {
            p.request(cycle, slot(s));
        }
        let mut deadlines = calls;
        deadlines.sort_unstable();
        for (deadline, until_complete) in deadlines {
            if until_complete {
                p.run_until_complete(deadline);
            } else {
                p.run_until(deadline);
            }
        }
        both!(p, |e| e.set_auto_resubmit(slot(3), false));
        let report = p.finish();
        prop_assert!(report.completed_jobs.len() >= arrivals.len());
    }
}
