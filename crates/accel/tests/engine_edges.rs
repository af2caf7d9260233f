//! Engine edge cases: nested priorities, requests arriving during drains,
//! auto-resubmission under preemption, state transitions, CPU-like nested
//! snapshots and non-preemptive queueing.

use std::sync::Arc;

use inca_accel::{
    analysis, AccelConfig, DdrImage, Engine, FuncBackend, InterruptStrategy, JobRecord, Report,
    TaskState, TimingBackend,
};
use inca_compiler::Compiler;
use inca_isa::{Program, TaskSlot, TASK_SLOTS};
use inca_model::{zoo, Shape3};
use inca_obs::{TraceEvent, Tracer};

fn program(h: u32) -> Arc<Program> {
    Arc::new(
        Compiler::new(AccelConfig::paper_small().arch)
            .compile_vi(&zoo::tiny(Shape3::new(3, h, h)).unwrap())
            .unwrap(),
    )
}

fn engine(strategy: InterruptStrategy) -> Engine<TimingBackend> {
    Engine::new(AccelConfig::paper_small(), strategy, TimingBackend::new())
}

#[test]
fn higher_request_during_drain_wins_the_dispatch() {
    // Victim (slot 3) is preempted by slot 2; while the layer-by-layer
    // drain runs, an even higher request (slot 1) arrives. After the
    // drain, slot 1 must run first.
    let mut e = engine(InterruptStrategy::LayerByLayer);
    let (s1, s2, s3) =
        (TaskSlot::new(1).unwrap(), TaskSlot::new(2).unwrap(), TaskSlot::new(3).unwrap());
    e.load(s1, program(16)).unwrap();
    e.load(s2, program(16)).unwrap();
    e.load(s3, program(64)).unwrap();
    e.request_at(0, s3).unwrap();
    e.request_at(1_000, s2).unwrap();
    e.request_at(1_100, s1).unwrap();
    let r = e.run().unwrap();
    assert_eq!(r.completed_jobs.len(), 3);
    // Completion order: s1, s2, s3.
    let order: Vec<_> = r.completed_jobs.iter().map(|j| j.slot).collect();
    assert_eq!(order, vec![s1, s2, s3]);
    // Only one preemption of s3 is recorded (the drain serves both).
    assert!(r.interrupts.iter().all(|ev| ev.victim == s3));
}

#[test]
fn auto_resubmit_continues_under_preemption() {
    let mut e = engine(InterruptStrategy::VirtualInstruction);
    let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
    e.load(hi, program(16)).unwrap();
    e.load(lo, program(32)).unwrap();
    e.set_auto_resubmit(lo, true);
    e.request_at(0, lo).unwrap();
    for k in 0..5 {
        e.request_at(10_000 + k * 30_000, hi).unwrap();
    }
    e.run_until(400_000).unwrap();
    let r = e.report();
    assert!(r.jobs_of(lo).count() >= 3, "PR-style task keeps completing");
    assert_eq!(r.jobs_of(hi).count(), 5, "all high jobs done");
    assert!(!r.interrupts.is_empty());
}

#[test]
fn task_state_transitions() {
    let mut e = engine(InterruptStrategy::VirtualInstruction);
    let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
    e.load(hi, program(16)).unwrap();
    e.load(lo, program(64)).unwrap();
    assert_eq!(e.task_state(lo), TaskState::Idle);

    e.request_at(0, lo).unwrap();
    e.request_at(5_000, hi).unwrap();
    // Before the preemption: lo running.
    e.run_until(1_000).unwrap();
    assert_eq!(e.task_state(lo), TaskState::Running);
    assert_eq!(e.task_state(hi), TaskState::Idle);
    // After the hi release and its dispatch: lo preempted, hi running.
    e.run_until(10_000).unwrap();
    assert_eq!(e.task_state(hi), TaskState::Running);
    assert_eq!(e.task_state(lo), TaskState::Preempted);
    // At the end: both idle again.
    e.run_until(u64::MAX).unwrap();
    assert_eq!(e.task_state(hi), TaskState::Idle);
    assert_eq!(e.task_state(lo), TaskState::Idle);
}

#[test]
fn non_preemptive_makes_high_wait_exactly() {
    let mut e = engine(InterruptStrategy::NonPreemptive);
    let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
    e.load(hi, program(16)).unwrap();
    e.load(lo, program(64)).unwrap();
    e.request_at(0, lo).unwrap();
    e.request_at(1_000, hi).unwrap();
    let r = e.run().unwrap();
    let lo_job = *r.jobs_of(lo).next().unwrap();
    let hi_job = *r.jobs_of(hi).next().unwrap();
    // High starts exactly when low finishes.
    assert_eq!(hi_job.start, lo_job.finish);
    // And the recorded latency equals the wait.
    assert_eq!(r.interrupts.len(), 1);
    assert_eq!(r.interrupts[0].latency(), lo_job.finish - 1_000);
    assert_eq!(r.interrupts[0].cost(), 0);
}

#[test]
fn cpu_like_nested_snapshots_are_transparent() {
    // Slot 3 snapshotted by slot 2's arrival, slot 2 snapshotted by
    // slot 1's — both must restore correctly (per-slot snapshots).
    let cfg = AccelConfig::paper_small();
    let compiler = Compiler::new(cfg.arch);
    let nets = [
        zoo::tiny(Shape3::new(3, 32, 32)).unwrap(),
        zoo::tiny(Shape3::new(3, 24, 24)).unwrap(),
        zoo::tiny(Shape3::new(3, 16, 16)).unwrap(),
    ];
    let programs: Vec<Arc<Program>> =
        nets.iter().map(|n| Arc::new(compiler.compile(n).unwrap())).collect();

    // References (solo runs).
    let mut references = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let slot = TaskSlot::new(3).unwrap();
        let mut backend = FuncBackend::new();
        backend.install_image(slot, DdrImage::for_program(p, i as u64));
        let mut e = Engine::new(cfg, InterruptStrategy::CpuLike, backend);
        e.load(slot, Arc::clone(p)).unwrap();
        e.request_at(0, slot).unwrap();
        e.run().unwrap();
        references.push(e.backend().image(slot).unwrap().read_output(p.layers.last().unwrap()));
    }

    let slots = [TaskSlot::new(3).unwrap(), TaskSlot::new(2).unwrap(), TaskSlot::new(1).unwrap()];
    let mut backend = FuncBackend::new();
    for ((slot, p), i) in slots.iter().zip(&programs).zip(0u64..) {
        backend.install_image(*slot, DdrImage::for_program(p, i));
    }
    let mut e = Engine::new(cfg, InterruptStrategy::CpuLike, backend);
    for (slot, p) in slots.iter().zip(&programs) {
        e.load(*slot, Arc::clone(p)).unwrap();
    }
    // CPU-like backup moves the whole 1.1 MB cache set (~96k cycles), so
    // slot 2 only *starts* around cycle 99k; slot 1's request must land
    // inside slot 2's ~10k-cycle run to nest.
    e.request_at(0, slots[0]).unwrap();
    e.request_at(3_000, slots[1]).unwrap();
    e.request_at(101_000, slots[2]).unwrap();
    let r = e.run().unwrap();
    assert!(r.interrupts.len() >= 2, "expected nested preemptions");
    for ((slot, p), expected) in slots.iter().zip(&programs).zip(&references) {
        let out = e.backend().image(*slot).unwrap().read_output(p.layers.last().unwrap());
        assert_eq!(&out, expected, "{slot} corrupted by nested CPU-like switches");
    }
}

#[test]
fn uninterrupted_makespan_is_strategy_independent() {
    // With no contention, the interrupt strategy must not change timing:
    // virtual instructions are free when skipped, and the original stream
    // is identical across strategies.
    let vi_prog = program(48);
    let orig = Arc::new(
        Compiler::new(AccelConfig::paper_small().arch)
            .compile(&zoo::tiny(Shape3::new(3, 48, 48)).unwrap())
            .unwrap(),
    );
    let mut spans = Vec::new();
    for strategy in [
        InterruptStrategy::NonPreemptive,
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::VirtualInstruction,
    ] {
        let p = if matches!(strategy, InterruptStrategy::VirtualInstruction) {
            Arc::clone(&vi_prog)
        } else {
            Arc::clone(&orig)
        };
        let mut e = engine(strategy);
        let slot = TaskSlot::new(2).unwrap();
        e.load(slot, p).unwrap();
        e.request_at(0, slot).unwrap();
        spans.push(e.run().unwrap().completed_jobs[0].finish);
    }
    assert!(
        spans.windows(2).all(|w| w[0] == w[1]),
        "makespans differ across strategies: {spans:?}"
    );
}

#[test]
fn request_after_completion_reruns_the_program() {
    let mut e = engine(InterruptStrategy::VirtualInstruction);
    let slot = TaskSlot::new(2).unwrap();
    e.load(slot, program(16)).unwrap();
    e.request_at(0, slot).unwrap();
    e.run().unwrap();
    let first_finish = e.report().completed_jobs[0].finish;
    e.request_at(first_finish + 500, slot).unwrap();
    let r = e.run().unwrap();
    assert_eq!(r.completed_jobs.len(), 2);
    let second = r.completed_jobs[1];
    assert_eq!(second.release, first_finish + 500);
    assert_eq!(
        second.busy_cycles, r.completed_jobs[0].busy_cycles,
        "re-runs execute the identical stream"
    );
}

/// A report of `jobs` — each `(slot, start, finish)`, never preempted —
/// snapshotted at `final_cycle`.
fn report_of(jobs: &[(TaskSlot, u64, u64)], final_cycle: u64) -> Report {
    let completed_jobs = jobs
        .iter()
        .map(|&(slot, start, finish)| JobRecord {
            slot,
            release: start,
            start,
            finish,
            busy_cycles: finish - start,
            extra_cost_cycles: 0,
            preemptions: 0,
        })
        .collect();
    Report { completed_jobs, final_cycle, ..Report::default() }
}

#[test]
fn gantt_zero_length_interval_at_final_cycle_paints_nothing() {
    // A zero-length job ending exactly at the final cycle used to round
    // the interval [final_cycle, final_cycle) onto the last column and
    // paint a spurious `#`.
    let slot = TaskSlot::new(2).unwrap();
    let report = report_of(&[(slot, 100, 100)], 100);
    assert_eq!(report.occupancy()[slot.index()], vec![(100, 100)]);
    let g = report.gantt(40);
    let row = g.lines().nth(slot.index()).unwrap();
    assert!(!row.contains('#'), "zero-length interval painted: {row}");
}

#[test]
fn gantt_interval_past_final_cycle_paints_nothing() {
    // Out-of-range intervals (a stale final_cycle below the jobs' cycles)
    // must clamp instead of painting the last column or slicing out of
    // bounds.
    let slot = TaskSlot::new(1).unwrap();
    let report = report_of(&[(slot, 150, 300)], 100);
    let g = report.gantt(40);
    let row = g.lines().nth(slot.index()).unwrap();
    assert!(!row.contains('#'), "out-of-range interval painted: {row}");
}

#[test]
fn gantt_paints_last_column_only_for_real_occupancy() {
    let busy = TaskSlot::new(0).unwrap();
    let idle = TaskSlot::new(3).unwrap();
    let report = report_of(&[(busy, 0, 100), (idle, 100, 100)], 100);
    let g = report.gantt(40);
    let busy_row = g.lines().nth(busy.index()).unwrap();
    let idle_row = g.lines().nth(idle.index()).unwrap();
    // The full-span interval paints every cell including the last column;
    // the zero-length one at the end paints none.
    assert_eq!(busy_row.matches('#').count(), 40, "{busy_row}");
    assert!(!idle_row.contains('#'), "{idle_row}");
}

/// Occupancy folded from a lifecycle trace exactly as `Report::occupancy`
/// once folded the engine's `Event` log: a slot holds the datapath from
/// `JobStarted`/`Resumed` to `Preempted`/`JobFinished`, and a job still
/// open runs to `final_cycle`.
fn occupancy_of_trace(events: &[TraceEvent], final_cycle: u64) -> [Vec<(u64, u64)>; TASK_SLOTS] {
    let mut out: [Vec<(u64, u64)>; TASK_SLOTS] = Default::default();
    let mut open: [Option<u64>; TASK_SLOTS] = [None; TASK_SLOTS];
    for e in events {
        let (slot, cycle, opens) = match *e {
            TraceEvent::JobStarted { cycle, slot } => (slot, cycle, true),
            TraceEvent::Resumed { slot, restore_start, t4 } => (slot, restore_start + t4, true),
            TraceEvent::Preempted { victim, request, t1, t2, .. } => {
                (victim, request + t1 + t2, false)
            }
            TraceEvent::JobFinished { cycle, slot, .. } => (slot, cycle, false),
            _ => continue,
        };
        if opens {
            open[slot.index()] = Some(cycle);
        } else if let Some(s) = open[slot.index()].take() {
            out[slot.index()].push((s, cycle));
        }
    }
    for (i, o) in open.into_iter().enumerate() {
        if let Some(s) = o {
            out[i].push((s, final_cycle));
        }
    }
    out
}

/// `Report::occupancy` is derived from `completed_jobs` and `interrupts`
/// alone; it must paint what the lifecycle trace says, under every
/// strategy, both for victims that paused and resumed (two back-to-back
/// jobs on the victim slot) and for victims drained to completion
/// (`NonPreemptive`, and `LayerByLayer` asked inside the last layer).
#[test]
fn occupancy_matches_the_lifecycle_trace() {
    let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
    let (hi_program, lo_program) = (program(16), program(64));
    // The solo run's makespan and the start of its last instruction (a
    // request is observed at instruction boundaries only).
    let cfg = AccelConfig::paper_small();
    let span = analysis::predicted_span(&cfg, &lo_program);
    let charges = analysis::charges(&cfg, &lo_program).filter(|(i, _)| !i.op.is_virtual());
    let last = span - charges.last().unwrap().1;
    let resumed = [span / 3, 2 * span / 3, 4 * span / 3];
    let drained = [last];
    for strategy in [
        InterruptStrategy::NonPreemptive,
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::VirtualInstruction,
    ] {
        for (arrivals, lo_jobs) in [(&resumed[..], 2), (&drained[..], 1)] {
            let mut e = engine(strategy);
            let (tracer, ring) = Tracer::ring(1 << 12);
            e.set_probe(tracer.into());
            e.load(hi, Arc::clone(&hi_program)).unwrap();
            e.load(lo, Arc::clone(&lo_program)).unwrap();
            for k in 0..lo_jobs {
                e.request_at(k, lo).unwrap();
            }
            for &at in arrivals {
                e.request_at(at, hi).unwrap();
            }
            let r = e.run().unwrap();
            let traced = occupancy_of_trace(&ring.drain(), r.final_cycle);
            assert_eq!(r.occupancy(), traced, "{strategy} with {lo_jobs} victim job(s)");
            let paused = r.interrupts.iter().any(|i| i.resumed_at.is_some());
            if lo_jobs == 2 {
                assert_eq!(paused, strategy != InterruptStrategy::NonPreemptive, "{strategy}");
            } else if matches!(
                strategy,
                InterruptStrategy::NonPreemptive | InterruptStrategy::LayerByLayer
            ) {
                assert_eq!(r.interrupts.len(), 1, "{strategy}");
                assert!(!paused, "{strategy}: the victim finished during the drain");
            }
        }
    }
}

#[test]
fn simultaneous_requests_resolve_by_priority() {
    let mut e = engine(InterruptStrategy::VirtualInstruction);
    let (a, b) = (TaskSlot::new(1).unwrap(), TaskSlot::new(2).unwrap());
    e.load(a, program(16)).unwrap();
    e.load(b, program(16)).unwrap();
    e.request_at(100, b).unwrap();
    e.request_at(100, a).unwrap(); // same cycle, higher priority
    let r = e.run().unwrap();
    assert_eq!(r.completed_jobs[0].slot, a);
    assert_eq!(r.completed_jobs[1].slot, b);
    assert!(r.interrupts.is_empty(), "no preemption when both are pending");
}
