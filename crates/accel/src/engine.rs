//! The execution engine: four priority task slots in front of one
//! accelerator datapath, with the IAU's interrupt machinery.
//!
//! The engine advances a virtual cycle clock instruction by instruction.
//! When a request for a higher-priority slot is observed while a
//! lower-priority task runs, the configured [`InterruptStrategy`] decides
//! how the datapath is handed over:
//!
//! * [`InterruptStrategy::CpuLike`] — finish the in-flight instruction,
//!   then move the *entire* on-chip cache set to DDR (and back on resume);
//! * [`InterruptStrategy::LayerByLayer`] — run to the end of the current
//!   layer; nothing to back up or restore;
//! * [`InterruptStrategy::VirtualInstruction`] — run to the next interrupt
//!   point, materialise its `VIR_SAVE`s (patching the later real `SAVE`s so
//!   no output byte is written twice), and materialise the point's
//!   `VIR_LOAD`s on resume.
//!
//! Every interrupt is probed with the paper's four phases: `t1` (finish
//! current operation), `t2` (backup), `t3` (the high-priority task itself)
//! and `t4` (restore); response latency is `t1 + t2`, extra cost is
//! `t2 + t4` (§IV-B).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use inca_isa::{Instr, InterruptPoint, Opcode, Program, TaskSlot, TASK_SLOTS};
use inca_obs::{ascii, HostComponent, Metrics, Probe, SpanStage, TraceEvent};

use crate::{instr_cycles, AccelConfig, Backend, SimError, SpanSupport};

/// How the accelerator hands the datapath to a higher-priority task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum InterruptStrategy {
    /// The native, non-interruptible accelerator (the paper's baseline
    /// motivation): a higher-priority request waits until the running
    /// task finishes its whole network.
    NonPreemptive,
    /// Dump/restore all on-chip caches, like a CPU spilling registers.
    CpuLike,
    /// Switch only at layer boundaries.
    LayerByLayer,
    /// The paper's virtual-instruction method: switch at interrupt points
    /// inside layers.
    VirtualInstruction,
}

impl std::fmt::Display for InterruptStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InterruptStrategy::NonPreemptive => "non-preemptive",
            InterruptStrategy::CpuLike => "cpu-like",
            InterruptStrategy::LayerByLayer => "layer-by-layer",
            InterruptStrategy::VirtualInstruction => "virtual-instruction",
        })
    }
}

/// Lifecycle of a slot's current job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// No job in flight.
    Idle,
    /// Released, waiting for the datapath.
    Ready,
    /// Executing.
    Running,
    /// Preempted, awaiting resume.
    Preempted,
}

/// Scheduler/lifecycle events, in cycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Event {
    /// A job was released into a slot.
    Submitted {
        /// Cycle.
        cycle: u64,
        /// Slot.
        slot: TaskSlot,
    },
    /// A job started for the first time.
    Started {
        /// Cycle.
        cycle: u64,
        /// Slot.
        slot: TaskSlot,
    },
    /// A job was preempted.
    Preempted {
        /// Cycle (end of backup).
        cycle: u64,
        /// The victim.
        slot: TaskSlot,
        /// The winner that requested the datapath.
        by: TaskSlot,
    },
    /// A preempted job resumed.
    Resumed {
        /// Cycle (end of restore).
        cycle: u64,
        /// Slot.
        slot: TaskSlot,
    },
    /// A job finished.
    Completed {
        /// Cycle.
        cycle: u64,
        /// Slot.
        slot: TaskSlot,
    },
}

/// One preemption, probed with the paper's four phases (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct InterruptEvent {
    /// Cycle the high-priority request was released.
    pub request_cycle: u64,
    /// The preempted (victim) slot.
    pub victim: TaskSlot,
    /// The requesting (winner) slot.
    pub winner: TaskSlot,
    /// Layer of the victim at the moment of the request.
    pub layer: u16,
    /// Victim pc at the moment of the request.
    pub request_pc: u32,
    /// `t1`: cycles to finish the current operation (up to the switch
    /// point the strategy allows).
    pub t1: u64,
    /// `t2`: backup cycles.
    pub t2: u64,
    /// `t4`: restore cycles (0 until the victim resumes).
    pub t4: u64,
    /// Cycle the victim resumed, if it has.
    pub resumed_at: Option<u64>,
}

impl InterruptEvent {
    /// Interrupt response latency `t1 + t2` (paper §IV-B).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.t1 + self.t2
    }

    /// Extra scheduling cost `t2 + t4` (paper §IV-B).
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.t2 + self.t4
    }
}

/// A completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct JobRecord {
    /// Slot.
    pub slot: TaskSlot,
    /// Release cycle.
    pub release: u64,
    /// First-execution cycle.
    pub start: u64,
    /// Completion cycle.
    pub finish: u64,
    /// Cycles spent executing this job's instructions.
    pub busy_cycles: u64,
    /// Extra cycles spent on interrupt backup/restore for this job.
    pub extra_cost_cycles: u64,
    /// Times this job was preempted.
    pub preemptions: u32,
}

impl JobRecord {
    /// Response time (release → finish) in cycles.
    #[must_use]
    pub fn response(&self) -> u64 {
        self.finish - self.release
    }
}

/// Cycle attribution collected when profiling is enabled
/// ([`Engine::set_profiling`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Profile {
    /// Cycles per `(slot index, layer id)`.
    pub per_layer: HashMap<(u8, u16), u64>,
    /// Cycles per opcode (indexed by the order of `Opcode::ALL`).
    pub per_opcode: [u64; 8],
    /// Cycles spent on interrupt backup (`t2`) and restore (`t4`).
    pub interrupt_overhead: u64,
}

impl Profile {
    fn charge(&mut self, slot: TaskSlot, instr: &Instr, cycles: u64) {
        *self.per_layer.entry((slot.index() as u8, instr.layer)).or_insert(0) += cycles;
        let idx = Opcode::ALL.iter().position(|o| *o == instr.op).expect("known opcode");
        self.per_opcode[idx] += cycles;
    }

    /// Cycles attributed to a slot, summed over layers.
    #[must_use]
    pub fn slot_cycles(&self, slot: TaskSlot) -> u64 {
        self.per_layer
            .iter()
            .filter(|((s, _), _)| usize::from(*s) == slot.index())
            .map(|(_, c)| *c)
            .sum()
    }

    /// Layers of a slot ranked by cycles, descending.
    #[must_use]
    pub fn hottest_layers(&self, slot: TaskSlot) -> Vec<(u16, u64)> {
        let mut v: Vec<(u16, u64)> = self
            .per_layer
            .iter()
            .filter(|((s, _), _)| usize::from(*s) == slot.index())
            .map(|((_, l), c)| (*l, *c))
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }
}

/// Simulation outcome.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Report {
    /// Scheduler events in cycle order.
    pub events: Vec<Event>,
    /// All preemptions with their phase probes.
    pub interrupts: Vec<InterruptEvent>,
    /// Completed jobs in completion order.
    pub completed_jobs: Vec<JobRecord>,
    /// Cycle the simulation stopped at.
    pub final_cycle: u64,
    /// Cycle attribution, when profiling was enabled.
    pub profile: Option<Profile>,
}

impl Report {
    /// Completed jobs of one slot.
    pub fn jobs_of(&self, slot: TaskSlot) -> impl Iterator<Item = &JobRecord> {
        self.completed_jobs.iter().filter(move |j| j.slot == slot)
    }

    /// Per-slot occupancy intervals `(start, end)` derived from the event
    /// log (running between Start/Resume and Preempt/Complete).
    #[must_use]
    pub fn occupancy(&self) -> [Vec<(u64, u64)>; TASK_SLOTS] {
        let mut out: [Vec<(u64, u64)>; TASK_SLOTS] = Default::default();
        let mut open: [Option<u64>; TASK_SLOTS] = [None; TASK_SLOTS];
        for e in &self.events {
            match *e {
                Event::Started { cycle, slot } | Event::Resumed { cycle, slot } => {
                    open[slot.index()] = Some(cycle);
                }
                Event::Preempted { cycle, slot, .. } | Event::Completed { cycle, slot } => {
                    if let Some(s) = open[slot.index()].take() {
                        out[slot.index()].push((s, cycle));
                    }
                }
                Event::Submitted { .. } => {}
            }
        }
        for (i, o) in open.into_iter().enumerate() {
            if let Some(s) = o {
                out[i].push((s, self.final_cycle));
            }
        }
        out
    }

    /// An ASCII Gantt chart of slot occupancy, `width` characters wide.
    /// Each row is one task slot; `#` marks cycles where the slot holds
    /// the datapath. Rendering (and its interval clamping) lives in
    /// `inca_obs::ascii`.
    #[must_use]
    pub fn gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let span = self.final_cycle.max(1);
        let rows: Vec<ascii::TimelineRow> = self
            .occupancy()
            .iter()
            .enumerate()
            .map(|(i, intervals)| {
                let preemptions =
                    self.interrupts.iter().filter(|ev| ev.victim.index() == i).count();
                ascii::TimelineRow::new(
                    format!("slot{i}"),
                    intervals.clone(),
                    format!("{preemptions:>6} preemptions"),
                )
            })
            .collect();
        ascii::render(&rows, span, width)
    }
}

/// What a request programs into the IAU besides its slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct JobParams {
    /// IAU `InputOffset` register: shifts loads from the network-input
    /// region (lets software point the same program at another frame).
    input_offset: u64,
    /// IAU `OutputOffset` register: shifts saves to the designated-output
    /// region.
    output_offset: u64,
    /// Request tag for causal-span emission (`RequestId::raw`); untagged
    /// jobs emit no spans (DESIGN.md §5.7).
    tag: Option<u64>,
}

#[derive(Debug, Default)]
struct ActiveJob {
    release: u64,
    params: JobParams,
    start: Option<u64>,
    pc: usize,
    /// `save_id -> absolute end channel` already flushed by `VIR_SAVE`s.
    flushed: HashMap<u32, u16>,
    resume_loads: Vec<Instr>,
    needs_cpu_restore: bool,
    preempted: bool,
    preemptions: u32,
    busy_cycles: u64,
    extra_cost_cycles: u64,
    last_interrupt: Option<usize>,
    /// Compute cycles accumulated since the last transfer, available to
    /// hide DMA under when `AccelConfig::dma_overlap` is set.
    dma_credit: u64,
    spans: JobSpans,
}

impl ActiveJob {
    fn new(release: u64, params: JobParams) -> Self {
        Self { release, params, ..Self::default() }
    }

    /// The job ran instructions of `layer` over `ran` and stands at
    /// `self.pc`. A tagged job opens its Layer span at the layer's first
    /// instruction and closes it at the last retiring one (peeking past
    /// free virtual groups), so the emission position is the same whether
    /// the layer was stepped or committed whole.
    fn ran_layer(&mut self, out: &Probe, program: &Program, layer: u16, ran: std::ops::Range<u64>) {
        let Some(tag) = self.params.tag else { return };
        self.spans.layer_open.get_or_insert((layer, ran.start));
        let next = program.instrs.get(next_original(program, self.pc));
        if next.is_none_or(|i| i.layer != layer) {
            self.spans.close_layer(out, tag, ran.end);
        }
    }
}

/// The open causal spans of one tagged job (DESIGN.md §5.7). Span ids are
/// `(tag, stage, per-stage sequence number)`, hence deterministic.
#[derive(Debug, Default)]
struct JobSpans {
    /// Open Exec segment: `(start cycle, sequence number)`.
    exec_open: Option<(u64, u32)>,
    /// Open Layer span: `(layer id, start cycle)`.
    layer_open: Option<(u16, u64)>,
    /// Pause cycle of the pending Preempted span (closed at resume).
    preempt_pause: Option<u64>,
    exec_seq: u32,
    preempt_seq: u32,
    layer_seq: u32,
}

impl JobSpans {
    /// Closes the open Layer span (if any) at `end`, under the open Exec
    /// segment.
    fn close_layer(&mut self, out: &Probe, tag: u64, end: u64) {
        if let Some((layer, start)) = self.layer_open.take() {
            let parent = self.exec_open.map(|(_, seq)| seq);
            out.span(tag, SpanStage::Layer, self.layer_seq, parent, start..end, u64::from(layer));
            self.layer_seq += 1;
        }
    }

    /// Closes the open Exec segment (if any) at `end`.
    fn close_exec(&mut self, out: &Probe, tag: u64, slot: TaskSlot, end: u64) {
        if let Some((start, seq)) = self.exec_open.take() {
            out.span(tag, SpanStage::Exec, seq, None, start..end, slot.index() as u64);
        }
    }

    /// The job got the datapath at `now`: closes its pending Preempted
    /// span and opens the next Exec segment.
    fn dispatched(&mut self, out: &Probe, tag: u64, now: u64) {
        if let Some(pause) = self.preempt_pause.take() {
            out.span(tag, SpanStage::Preempted, self.preempt_seq, None, pause..now, 0);
            self.preempt_seq += 1;
        }
        if self.exec_open.is_none() {
            self.exec_open = Some((now, self.exec_seq));
            self.exec_seq += 1;
        }
    }
}

/// Cheap always-on event counters (plain `u64` adds on the hot path;
/// the structured [`Metrics`] view is built on demand).
#[derive(Debug, Default)]
struct ObsCounters {
    instrs_retired: u64,
    vis_materialized: u64,
    saves_patched: u64,
    saves_elided: u64,
}

/// Everything that watches instructions retire.
#[derive(Debug)]
struct Observers {
    counters: ObsCounters,
    profile: Option<Profile>,
    out: Probe,
}

impl Observers {
    /// Records one retired instruction: the retired counter and the
    /// `InstrRetired` event (an elided SAVE retires nothing) and the
    /// profile charge. Stepping and an instruction-by-instruction span
    /// commit both account through here, which is what keeps their
    /// observables equal.
    fn retire(&mut self, slot: TaskSlot, instr: &Instr, start: u64, cycles: u64, elided: bool) {
        if !elided {
            self.counters.instrs_retired += 1;
            let (op, layer) = (instr.op, instr.layer);
            let retired = || TraceEvent::InstrRetired { start, cycles, slot, op, layer };
            self.out.tracer.emit_instr(retired);
        }
        if let Some(p) = self.profile.as_mut() {
            p.charge(slot, instr, cycles);
        }
    }

    /// Whether someone needs every instruction reported one by one.
    fn per_instr(&self) -> bool {
        self.profile.is_some() || self.out.tracer.per_instr()
    }
}

#[derive(Debug, Default)]
struct Slot {
    /// The loaded program, behind its cycle table.
    table: Option<Arc<CycleTable>>,
    job: Option<ActiveJob>,
    /// Queued jobs: `(release, parameters)`.
    backlog: VecDeque<(u64, JobParams)>,
    auto_resubmit: bool,
}

/// The engine only schedules a slot that holds a program and a job.
impl Slot {
    /// The program with its cycle table, and the job, borrowed side by
    /// side (no reference count moves on the per-instruction path).
    fn scheduled(&mut self) -> (&CycleTable, &mut ActiveJob) {
        (
            self.table.as_deref().expect("scheduled slot has a program"),
            self.job.as_mut().expect("scheduled slot has a job"),
        )
    }

    /// A handle on the program that outlives a borrow of the engine, for
    /// the once-per-interrupt paths.
    fn program(&self) -> Arc<Program> {
        Arc::clone(&self.table.as_ref().expect("scheduled slot has a program").program)
    }

    fn job(&self) -> &ActiveJob {
        self.job.as_ref().expect("scheduled slot has a job")
    }

    fn job_mut(&mut self) -> &mut ActiveJob {
        self.job.as_mut().expect("scheduled slot has a job")
    }
}

/// Applies the IAU's per-job `InputOffset`/`OutputOffset` registers to an
/// instruction's DDR address: loads from the network-input region and
/// saves to the designated-output region are shifted.
fn apply_job_offsets(program: &Program, params: JobParams, instr: &mut Instr) {
    if params.input_offset == 0 && params.output_offset == 0 {
        return;
    }
    let len = u64::from(instr.ddr.bytes);
    match instr.op {
        Opcode::LoadD | Opcode::VirLoadD if program.memory.in_input_region(instr.ddr.addr, len) => {
            instr.ddr.addr += params.input_offset;
        }
        Opcode::Save | Opcode::VirSave if program.memory.in_output_region(instr.ddr.addr, len) => {
            instr.ddr.addr += params.output_offset;
        }
        _ => {}
    }
}

/// The first original (non-virtual) pc at or after `pc`, or
/// `program.instrs.len()`: the IAU discards virtual groups for free in
/// normal flow.
fn next_original(program: &Program, mut pc: usize) -> usize {
    while program.instrs.get(pc).is_some_and(|i| i.op.is_virtual()) {
        pc += 1;
    }
    pc
}

/// What one executed original instruction adds to the clock: its modelled
/// cost, less — under `AccelConfig::dma_overlap` — the part of a transfer
/// hidden behind the compute cycles banked in `credit` (a `CALC` banks its
/// cycles, a transfer spends what it hides behind).
pub(crate) fn charge(cfg: &AccelConfig, program: &Program, instr: &Instr, credit: &mut u64) -> u64 {
    let mut cycles = instr_cycles(cfg, program.layer_of(instr), instr);
    if cfg.dma_overlap {
        if instr.op.is_calc() {
            *credit = credit.saturating_add(cycles);
        } else {
            let hidden = cycles.min(*credit);
            *credit -= hidden;
            cycles -= hidden;
        }
    }
    cycles
}

/// Folds [`charge`] over the original instructions of `program` from a
/// cold pipeline, handing `each` every `(pc, cycles)`, and returns the sum:
/// the uncontended makespan. The one walk behind both the admission model
/// ([`crate::analysis::predicted_span`]) and the engine's [`CycleTable`].
pub(crate) fn fold_charges(
    cfg: &AccelConfig,
    program: &Program,
    mut each: impl FnMut(usize, u64),
) -> u64 {
    let (mut credit, mut total) = (0, 0);
    for (pc, instr) in program.original_instrs() {
        let cycles = charge(cfg, program, instr, &mut credit);
        each(pc, cycles);
        total += cycles;
    }
    total
}

/// How many programs' tables an engine keeps for reloads (oldest dropped
/// first; a slot keeps its own table alive regardless).
const TABLES_KEPT: usize = 16;

/// Prefix sums over one program's instruction stream under one
/// [`AccelConfig`]: between two events a job's clock is a function of its
/// pc alone, and this is that function (12 bytes per instruction). Virtual
/// instructions weigh nothing. Read only while `dma_overlap` is off — the
/// overlap credit depends on where the job last resumed, not on its pc.
#[derive(Debug)]
pub(crate) struct CycleTable {
    program: Arc<Program>,
    /// `cycles[pc]`: summed cost of the original instructions in `[0, pc)`.
    cycles: Box<[u64]>,
    /// `originals[pc]`: how many instructions in `[0, pc)` are original.
    originals: Box<[u32]>,
}

impl CycleTable {
    pub(crate) fn new(cfg: &AccelConfig, program: Arc<Program>) -> Self {
        let n = program.instrs.len();
        let mut cycles = vec![0u64; n + 1].into_boxed_slice();
        let mut originals = vec![0u32; n + 1].into_boxed_slice();
        fold_charges(cfg, &program, |pc, c| (cycles[pc + 1], originals[pc + 1]) = (c, 1));
        for pc in 0..n {
            cycles[pc + 1] += cycles[pc];
            originals[pc + 1] += originals[pc];
        }
        Self { program, cycles, originals }
    }

    /// The cost of the whole program.
    #[cfg(test)]
    pub(crate) fn total(&self) -> u64 {
        self.cycles[self.program.instrs.len()]
    }

    /// The first pc in `[pc0, limit]` that a job standing at `pc0` reaches
    /// `budget` cycles or more from now (`limit` when it gets that far
    /// sooner): every instruction before it starts inside the budget.
    fn reach(&self, pc0: usize, limit: usize, budget: u64) -> usize {
        let base = self.cycles[pc0];
        pc0 + self.cycles[pc0..limit].partition_point(|&c| c - base < budget)
    }
}

/// The accelerator engine: four priority task slots in front of one
/// datapath (see the module-level documentation at the top of this file).
#[derive(Debug)]
pub struct Engine<B: Backend> {
    cfg: AccelConfig,
    strategy: InterruptStrategy,
    backend: B,
    slots: [Slot; TASK_SLOTS],
    now: u64,
    /// Pending requests as `(cycle, seq, slot, parameters)`; `seq` is
    /// unique, so the order never reaches the last two fields.
    arrivals: BinaryHeap<Reverse<(u64, u64, TaskSlot, JobParams)>>,
    seq: u64,
    running: Option<TaskSlot>,
    events: Vec<Event>,
    interrupts: Vec<InterruptEvent>,
    completed: Vec<JobRecord>,
    obs: Observers,
    /// The cycle tables of the programs loaded so far, found again by
    /// `Arc::ptr_eq`: a reload is a lookup, never a rebuild.
    tables: Vec<Arc<CycleTable>>,
}

impl<B: Backend> Engine<B> {
    /// Creates an engine.
    #[must_use]
    pub fn new(cfg: AccelConfig, strategy: InterruptStrategy, backend: B) -> Self {
        Self {
            cfg,
            strategy,
            backend,
            slots: Default::default(),
            now: 0,
            arrivals: BinaryHeap::new(),
            seq: 0,
            running: None,
            events: Vec::new(),
            interrupts: Vec::new(),
            completed: Vec::new(),
            obs: Observers {
                counters: ObsCounters::default(),
                profile: None,
                out: Probe::default(),
            },
            tables: Vec::new(),
        }
    }

    /// Installs who watches this engine: the tracer its [`TraceEvent`]s
    /// go through, the core id stamped on its spans and the host
    /// self-profiler (one `Instant::now` pair per engine advance when
    /// present). The default [`Probe`] costs one discriminant check per
    /// site and nothing it records changes a deterministic output. An
    /// enabled tracer immediately receives one [`TraceEvent::EngineMeta`]
    /// naming the interrupt strategy and clock, so recorded traces are
    /// self-describing for the analysis layer.
    pub fn set_probe(&mut self, probe: Probe) {
        self.obs.out = probe;
        self.obs.out.tracer.emit(|| TraceEvent::EngineMeta {
            cycle: self.now,
            strategy: self.strategy.to_string(),
            clock_hz: self.cfg.clock_hz,
        });
    }

    /// A deterministic metrics snapshot of everything observed so far.
    /// Keys are prefixed `engine.`; histograms use the fixed
    /// `inca_obs::CYCLE_BUCKETS` ladder.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.inc("engine.cycles", self.now);
        m.inc("engine.instrs.retired", self.obs.counters.instrs_retired);
        m.inc("engine.instrs.vi_materialized", self.obs.counters.vis_materialized);
        m.inc("engine.saves.patched", self.obs.counters.saves_patched);
        m.inc("engine.saves.elided", self.obs.counters.saves_elided);
        m.inc("engine.jobs.completed", self.completed.len() as u64);
        m.inc(
            "engine.jobs.preempted",
            self.events.iter().filter(|e| matches!(e, Event::Preempted { .. })).count() as u64,
        );
        m.inc("engine.interrupts.probed", self.interrupts.len() as u64);
        let mut busy = 0u64;
        for j in &self.completed {
            busy += j.busy_cycles;
            m.observe("engine.job.response_cycles", j.response());
            m.observe("engine.job.busy_cycles", j.busy_cycles);
        }
        for i in &self.interrupts {
            m.observe("engine.interrupt.latency_cycles", i.latency());
            m.observe("engine.interrupt.cost_cycles", i.cost());
        }
        if self.now > 0 {
            m.set_gauge("engine.utilization", busy as f64 / self.now as f64);
        }
        m
    }

    /// Enables or disables per-layer/per-opcode cycle attribution (small
    /// per-instruction overhead; off by default).
    pub fn set_profiling(&mut self, enabled: bool) {
        self.obs.profile = if enabled { Some(Profile::default()) } else { None };
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// The strategy in use.
    #[must_use]
    pub fn strategy(&self) -> InterruptStrategy {
        self.strategy
    }

    /// Current virtual cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The next cycle this engine can make progress, or `None` when it is
    /// quiescent: no running job, no ready/preempted job in any slot, no
    /// pending arrival. Advancing a quiescent engine is a state no-op,
    /// which is what lets the event engine skip it entirely
    /// ([`CorePool`](crate::CorePool) in
    /// [`AdvanceMode::EventDriven`](crate::AdvanceMode)).
    ///
    /// With work in a slot the answer is the current cycle; otherwise it
    /// is the earliest pending arrival (which may lie in the past for a
    /// late-submitted request — the value orders wakes, it does not gate
    /// them).
    #[must_use]
    pub fn next_event(&self) -> Option<u64> {
        if self.running.is_some() || self.best_ready().is_some() {
            return Some(self.now);
        }
        self.arrivals.peek().map(|&Reverse((t, ..))| t)
    }

    /// The completed-job log, oldest first — the allocation-free way to
    /// drain completions incrementally (drivers keep a cursor into this
    /// slice instead of cloning the full [`Report`] per advance).
    #[must_use]
    pub fn completed_jobs(&self) -> &[JobRecord] {
        &self.completed
    }

    /// Access to the backend (e.g. to install or inspect DDR images).
    #[must_use]
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Backend accessor.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Installs `program` in `slot` (replacing any previous program; the
    /// slot must be idle). Accepts `Program` or a shared `Arc<Program>` —
    /// share the `Arc` when loading one large program into many engines.
    ///
    /// # Errors
    ///
    /// [`SimError::Engine`] when the slot has a job in flight.
    pub fn load(
        &mut self,
        slot: TaskSlot,
        program: impl Into<Arc<Program>>,
    ) -> Result<(), SimError> {
        let s = &mut self.slots[slot.index()];
        if s.job.is_some() {
            return Err(SimError::Engine(format!("{slot} has a job in flight")));
        }
        let program = program.into();
        if s.table.as_ref().is_some_and(|t| Arc::ptr_eq(&t.program, &program)) {
            return Ok(());
        }
        let known = self.tables.iter().find(|t| Arc::ptr_eq(&t.program, &program));
        s.table = Some(match known {
            Some(table) => Arc::clone(table),
            None => {
                let table = Arc::new(CycleTable::new(&self.cfg, program));
                if self.tables.len() == TABLES_KEPT {
                    self.tables.remove(0);
                }
                self.tables.push(Arc::clone(&table));
                table
            }
        });
        // A same-slot reload keeps ownership, so the backend's on_switch
        // clear never fires — it must invalidate the slot's staged
        // buffers here or the new program would read the old one's.
        self.backend.on_load(slot);
        Ok(())
    }

    /// State of a slot.
    #[must_use]
    pub fn task_state(&self, slot: TaskSlot) -> TaskState {
        let s = &self.slots[slot.index()];
        match &s.job {
            None => TaskState::Idle,
            Some(j) if self.running == Some(slot) => {
                debug_assert!(!j.preempted);
                TaskState::Running
            }
            Some(j) if j.preempted => TaskState::Preempted,
            Some(_) => TaskState::Ready,
        }
    }

    /// When a job of `slot` completes, immediately release the next one.
    pub fn set_auto_resubmit(&mut self, slot: TaskSlot, enabled: bool) {
        self.slots[slot.index()].auto_resubmit = enabled;
    }

    /// Schedules an execution request for `slot` at `cycle`.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptySlot`] when no program is loaded.
    pub fn request_at(&mut self, cycle: u64, slot: TaskSlot) -> Result<(), SimError> {
        self.request_job(cycle, slot, 0, 0)
    }

    /// Like [`Engine::request_at`], additionally programming the IAU's
    /// per-job `InputOffset`/`OutputOffset` registers: loads from the
    /// program's network-input region and saves to its designated-output
    /// region are shifted by the given byte offsets, so software can run
    /// the same program against different frame buffers.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptySlot`] when no program is loaded.
    pub fn request_job(
        &mut self,
        cycle: u64,
        slot: TaskSlot,
        input_offset: u64,
        output_offset: u64,
    ) -> Result<(), SimError> {
        self.request_job_tagged(cycle, slot, input_offset, output_offset, None)
    }

    /// Like [`Engine::request_job`], additionally carrying a request tag:
    /// the job emits causal [`TraceEvent::Span`]s (Exec / Preempted /
    /// Layer) attributed to that request. Untagged jobs emit none, so
    /// legacy traces stay byte-identical.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptySlot`] when no program is loaded.
    pub fn request_job_tagged(
        &mut self,
        cycle: u64,
        slot: TaskSlot,
        input_offset: u64,
        output_offset: u64,
        tag: Option<u64>,
    ) -> Result<(), SimError> {
        if self.slots[slot.index()].table.is_none() {
            return Err(SimError::EmptySlot(slot));
        }
        let params = JobParams { input_offset, output_offset, tag };
        self.arrivals.push(Reverse((cycle, self.seq, slot, params)));
        self.seq += 1;
        Ok(())
    }

    fn release_due(&mut self) {
        while let Some(&Reverse((t, _, slot, params))) = self.arrivals.peek() {
            if t > self.now {
                break;
            }
            self.arrivals.pop();
            let st = &mut self.slots[slot.index()];
            if st.job.is_none() {
                st.job = Some(ActiveJob::new(t, params));
            } else {
                st.backlog.push_back((t, params));
            }
            self.events.push(Event::Submitted { cycle: t, slot });
            self.obs.out.tracer.emit(|| TraceEvent::JobReleased { cycle: t, slot });
        }
    }

    fn best_ready(&self) -> Option<TaskSlot> {
        TaskSlot::all().find(|s| self.slots[s.index()].job.is_some())
    }

    /// Executes one virtual instruction of a taken interrupt (a `t2`
    /// `VIR_SAVE` or a `t4` `VIR_LOAD_*`) starting at `start`, and returns
    /// the cycles it costs. The caller owns the clock.
    fn materialize(
        &mut self,
        slot: TaskSlot,
        program: &Program,
        vi: &Instr,
        start: u64,
    ) -> Result<u64, SimError> {
        self.backend.execute(slot, program, vi)?;
        let cycles = instr_cycles(&self.cfg, program.layer_of(vi), vi);
        self.obs.counters.vis_materialized += 1;
        let (op, layer) = (vi.op, vi.layer);
        self.obs.out.tracer.emit(|| TraceEvent::ViMaterialized { start, cycles, slot, op, layer });
        if let Some(p) = self.obs.profile.as_mut() {
            p.charge(slot, vi, cycles);
        }
        Ok(cycles)
    }

    /// Executes one *original* instruction at the victim's pc (virtual
    /// instructions are skipped for free, SAVE patches applied), advancing
    /// the clock. Returns `true` when the job's stream is exhausted.
    fn exec_step(&mut self, slot: TaskSlot) -> Result<bool, SimError> {
        #[cfg(test)]
        tests::count(|c| c.steps += 1);
        let Self { slots, backend, cfg, now, obs, .. } = self;
        let (table, job) = slots[slot.index()].scheduled();
        let program = &*table.program;
        job.pc = next_original(program, job.pc);
        let Some(&(mut instr)) = program.instrs.get(job.pc) else {
            return Ok(true);
        };
        let mut elided = false;
        // `is_empty` first: most SAVEs find the map empty, and
        // `HashMap::remove` hashes its key even then.
        if instr.op == Opcode::Save && !job.flushed.is_empty() {
            if let Some(flushed_end) = job.flushed.remove(&instr.save_id) {
                let meta = program.layer_of(&instr);
                let plane = u64::from(meta.out_shape.h) * u64::from(meta.out_shape.w);
                let c0 = instr.tile.c0;
                let end = c0 + instr.tile.chans;
                let new_c0 = flushed_end.max(c0).min(end);
                let cut = u32::from(new_c0 - c0);
                elided = new_c0 >= end;
                if !elided {
                    instr.tile.c0 = new_c0;
                    instr.tile.chans = end - new_c0;
                    instr.ddr.addr += u64::from(cut) * plane;
                    instr.ddr.bytes -= cut * u32::from(instr.tile.rows) * meta.out_shape.w;
                }
                obs.counters.saves_patched += 1;
                obs.counters.saves_elided += u64::from(elided);
                let (cycle, save_id) = (*now, instr.save_id);
                obs.out.tracer.emit(|| TraceEvent::SavePatched { cycle, slot, save_id, elided });
            }
        }
        apply_job_offsets(program, job.params, &mut instr);
        let cycles = if elided {
            0
        } else {
            backend.execute(slot, program, &instr)?;
            charge(cfg, program, &instr, &mut job.dma_credit)
        };
        let start = *now;
        *now += cycles;
        obs.retire(slot, &instr, start, cycles, elided);
        job.busy_cycles += cycles;
        job.pc += 1;
        job.ran_layer(&obs.out, program, instr.layer, start..*now);
        Ok(job.pc >= program.instrs.len())
    }

    /// Attempts to advance the running job by one *span commit*: every
    /// original instruction that starts before `barrier` (the deadline or
    /// the earliest pending arrival; the caller holds `now < barrier`), as
    /// far as the backend's [`SpanSupport`] reaches — to the barrier for a
    /// timing-only job, through one whole layer from its first instruction
    /// for a trace-compiled one (DESIGN.md §5.6).
    ///
    /// Returns `Ok(None)` to fall back to [`Engine::exec_step`] — always
    /// safe — and `Ok(Some(done))` after a commit, which leaves clock, pc,
    /// counters, trace, profile and DMA-overlap credit exactly where
    /// stepping the span would: a span never crosses a pending SAVE patch,
    /// and none of its instructions starts at or after the barrier. Its
    /// clock comes off the slot's [`CycleTable`] in O(log n). Where cost is
    /// not a function of the pc (`dma_overlap`) or someone wants each
    /// instruction (a profile, a per-instruction tracer), a layer is priced
    /// and retired by one walk over [`charge`] instead, and a timing-only
    /// job — like a tagged one, which owes Layer spans — is left to
    /// `exec_step`.
    fn try_span(&mut self, slot: TaskSlot, barrier: u64) -> Result<Option<bool>, SimError> {
        let Self { slots, backend, cfg, now, obs, .. } = self;
        let support = backend.supports_spans();
        let (table, job) = slots[slot.index()].scheduled();
        // Stepping applies SAVE patches instruction by instruction; never
        // span across pending ones.
        if support == SpanSupport::None || !job.flushed.is_empty() {
            return Ok(None);
        }
        let program = &*table.program;
        // Effective pc after the free virtual skip, computed without
        // mutating the job (exec_step does its own skip when we decline).
        let pc0 = next_original(program, job.pc);
        let Some(first) = program.instrs.get(pc0) else {
            return Ok(None);
        };
        let walk = cfg.dma_overlap || obs.per_instr();
        let whole_layer = support == SpanSupport::Layer;
        let limit = if whole_layer {
            let range = program.layer_pc_range(first.layer);
            if range.start != pc0 || range.end > program.instrs.len() {
                return Ok(None); // mid-layer (e.g. resumed after a preemption)
            }
            range.end
        } else if walk || job.params.tag.is_some() {
            return Ok(None);
        } else {
            program.instrs.len()
        };
        let originals = || program.instrs[pc0..limit].iter().filter(|i| !i.op.is_virtual());
        // `reached`: the first pc of the span that would start at or after
        // the barrier (the first instruction starts at `now`, before it).
        let budget = barrier - *now;
        let reached = if walk {
            let (mut t, mut credit) = (0, job.dma_credit);
            for instr in originals() {
                if t >= budget {
                    return Ok(None);
                }
                t += charge(cfg, program, instr, &mut credit);
            }
            limit
        } else {
            table.reach(pc0, limit, budget)
        };
        // Land right after the last original instruction before it, where
        // stepping stands: a trailing virtual group is the next step's to
        // skip (or an arriving interrupt's to take).
        let mut end = reached;
        while program.instrs[end - 1].op.is_virtual() {
            end -= 1;
        }
        let range = if whole_layer {
            if table.originals[end] != table.originals[limit] {
                return Ok(None); // an arrival or the deadline could land mid-layer
            }
            pc0..limit
        } else {
            pc0..end
        };
        let (in_off, out_off) = (job.params.input_offset, job.params.output_offset);
        if !backend.execute_span(slot, program, range, in_off, out_off)? {
            return Ok(None);
        }
        let start = *now;
        if walk {
            for instr in originals() {
                let cycles = charge(cfg, program, instr, &mut job.dma_credit);
                obs.retire(slot, instr, *now, cycles, false);
                *now += cycles;
            }
        } else {
            *now += table.cycles[end] - table.cycles[pc0];
            obs.counters.instrs_retired += u64::from(table.originals[end] - table.originals[pc0]);
        }
        job.busy_cycles += *now - start;
        job.pc = end;
        job.ran_layer(&obs.out, program, first.layer, start..*now);
        Ok(Some(job.pc >= program.instrs.len()))
    }

    fn complete_job(&mut self, slot: TaskSlot) {
        let s = &mut self.slots[slot.index()];
        let mut job = s.job.take().expect("completing job exists");
        self.completed.push(JobRecord {
            slot,
            release: job.release,
            start: job.start.unwrap_or(job.release),
            finish: self.now,
            busy_cycles: job.busy_cycles,
            extra_cost_cycles: job.extra_cost_cycles,
            preemptions: job.preemptions,
        });
        self.events.push(Event::Completed { cycle: self.now, slot });
        if let Some(tag) = job.params.tag {
            // Close the job's open spans at the completion cycle (a
            // VI point that closes the program can leave a layer open).
            job.spans.close_layer(&self.obs.out, tag, self.now);
            job.spans.close_exec(&self.obs.out, tag, slot, self.now);
        }
        let (cycle, busy_cycles, preemptions) = (self.now, job.busy_cycles, job.preemptions);
        self.obs.out.tracer.emit(|| TraceEvent::JobFinished {
            cycle,
            slot,
            busy_cycles,
            preemptions,
        });
        if let Some((release, params)) = s.backlog.pop_front() {
            s.job = Some(ActiveJob::new(release, params));
        } else if s.auto_resubmit {
            // Auto-resubmission reuses the completed job's offsets (the
            // new job is a fresh, untagged release).
            s.job = Some(ActiveJob::new(cycle, JobParams { tag: None, ..job.params }));
            self.events.push(Event::Submitted { cycle, slot });
            self.obs.out.tracer.emit(|| TraceEvent::JobReleased { cycle, slot });
        }
        if self.running == Some(slot) {
            self.running = None;
        }
    }

    /// Starts or resumes `slot` on the datapath.
    fn dispatch(&mut self, slot: TaskSlot) -> Result<(), SimError> {
        self.backend.on_switch(slot);
        let program = self.slots[slot.index()].program();
        let job = self.slots[slot.index()].job_mut();
        if job.start.is_none() {
            job.start = Some(self.now);
            self.events.push(Event::Started { cycle: self.now, slot });
            let cycle = self.now;
            self.obs.out.tracer.emit(|| TraceEvent::JobStarted { cycle, slot });
        }
        if job.preempted {
            let restore_start = self.now;
            let mut t4 = 0u64;
            if job.needs_cpu_restore {
                job.needs_cpu_restore = false;
                t4 = self.cfg.dma_cycles(u64::from(self.cfg.arch.onchip_bytes()));
                self.backend.restore(slot)?;
            }
            let mut loads = std::mem::take(&mut job.resume_loads);
            let params = job.params;
            let last_interrupt = job.last_interrupt.take();
            job.preempted = false;
            job.dma_credit = 0; // the double-buffer pipeline restarts cold
            for l in &mut loads {
                apply_job_offsets(&program, params, l);
                t4 += self.materialize(slot, &program, l, restore_start + t4)?;
            }
            self.now += t4;
            if let Some(p) = self.obs.profile.as_mut() {
                p.interrupt_overhead += t4;
            }
            self.slots[slot.index()].job_mut().extra_cost_cycles += t4;
            if let Some(idx) = last_interrupt {
                self.interrupts[idx].t4 = t4;
                self.interrupts[idx].resumed_at = Some(self.now);
            }
            self.events.push(Event::Resumed { cycle: self.now, slot });
            self.obs.out.tracer.emit(|| TraceEvent::Resumed { slot, restore_start, t4 });
        }
        // Close the request's pending Preempted span and open its next
        // Exec segment at the cycle execution actually (re)starts.
        let job = self.slots[slot.index()].job_mut();
        if let Some(tag) = job.params.tag {
            job.spans.dispatched(&self.obs.out, tag, self.now);
        }
        self.running = Some(slot);
        Ok(())
    }

    /// Steps `slot` until `stop(pc)` holds at an instruction boundary
    /// (`Ok(false)`) or its stream is exhausted (`Ok(true)`).
    fn step_until(
        &mut self,
        slot: TaskSlot,
        stop: impl Fn(usize) -> bool,
    ) -> Result<bool, SimError> {
        while !stop(self.slots[slot.index()].job().pc) {
            if self.exec_step(slot)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// `t2` of the VI method: materialises the `VIR_SAVE`s of `point`
    /// (skipping channels an earlier point already flushed), parks its
    /// `VIR_LOAD_*`s for the resume and moves the victim's pc past it.
    /// Returns `(t2, finished)`; the point may close the program.
    fn backup_at(
        &mut self,
        victim: TaskSlot,
        program: &Program,
        point: InterruptPoint,
    ) -> Result<(u64, bool), SimError> {
        let t2_base = self.now;
        let mut t2 = 0u64;
        let mut resume_loads = Vec::new();
        for idx in point.vir_range() {
            let mut vi = program.instrs[idx];
            let job = self.slots[victim.index()].job();
            apply_job_offsets(program, job.params, &mut vi);
            match vi.op {
                Opcode::VirSave => {
                    let end = vi.tile.c0 + vi.tile.chans;
                    if end <= job.flushed.get(&vi.save_id).copied().unwrap_or(0) {
                        continue;
                    }
                    t2 += self.materialize(victim, program, &vi, t2_base + t2)?;
                    self.slots[victim.index()].job_mut().flushed.insert(vi.save_id, end);
                }
                Opcode::VirLoadD | Opcode::VirLoadW => resume_loads.push(vi),
                other => {
                    return Err(SimError::Engine(format!(
                        "non-virtual {other} inside interrupt point"
                    )))
                }
            }
        }
        self.now += t2;
        let job = self.slots[victim.index()].job_mut();
        job.pc = point.resume_pc() as usize;
        let finished = job.pc >= program.instrs.len();
        if !finished {
            job.resume_loads = resume_loads;
        }
        Ok((t2, finished))
    }

    /// Preempts `victim` in favour of `winner` per the strategy.
    fn preempt(&mut self, victim: TaskSlot, winner: TaskSlot) -> Result<(), SimError> {
        let program = self.slots[victim.index()].program();
        let request_cycle = self.slots[winner.index()].job().release;
        let request_pc = self.slots[victim.index()].job().pc;
        let layer = program.instrs.get(request_pc).map_or(0, |i| i.layer);

        // `t1`: drain to the switch point the strategy allows; `t2`: backup.
        let never = |_| false;
        let (t2, finished) = match self.strategy {
            // Run the victim's whole remaining program.
            InterruptStrategy::NonPreemptive => (0, self.step_until(victim, never)?),
            InterruptStrategy::CpuLike => {
                // The in-flight instruction already completed (the engine
                // only observes requests at instruction boundaries).
                let t2 = self.cfg.dma_cycles(u64::from(self.cfg.arch.onchip_bytes()));
                self.now += t2;
                self.backend.snapshot(victim);
                self.slots[victim.index()].job_mut().needs_cpu_restore = true;
                (t2, false)
            }
            InterruptStrategy::LayerByLayer => {
                // Stop where the next original instruction opens another layer.
                let at_boundary = |pc| {
                    let next = program.instrs.get(next_original(&program, pc));
                    next.is_some_and(|i| i.layer != layer)
                };
                (0, self.step_until(victim, at_boundary)?)
            }
            InterruptStrategy::VirtualInstruction => {
                match program.next_interrupt_point(request_pc).copied() {
                    // No point ahead: run to completion.
                    None => (0, self.step_until(victim, never)?),
                    Some(p) => {
                        if self.step_until(victim, |pc| pc >= p.vir_start as usize)? {
                            (0, true)
                        } else {
                            self.backup_at(victim, &program, p)?
                        }
                    }
                }
            }
        };

        let t1 = self.now.saturating_sub(request_cycle).saturating_sub(t2);
        let probe = InterruptEvent {
            request_cycle,
            victim,
            winner,
            layer,
            request_pc: request_pc as u32,
            t1,
            t2,
            t4: 0,
            resumed_at: None,
        };
        if finished {
            // Completion, not preemption: still record the latency the
            // winner observed, with no restore to come.
            self.complete_job(victim);
            self.interrupts.push(probe);
            return Ok(());
        }

        if let Some(p) = self.obs.profile.as_mut() {
            p.interrupt_overhead += t2;
        }
        // The victim stops executing where t1 ended; backup (t2) counts as
        // preempted-out time, so the Exec segment closes at `now − t2`.
        let pause = self.now.saturating_sub(t2);
        let job = self.slots[victim.index()].job_mut();
        job.preempted = true;
        job.preemptions += 1;
        job.extra_cost_cycles += t2;
        job.last_interrupt = Some(self.interrupts.len());
        if let Some(tag) = job.params.tag {
            job.spans.close_layer(&self.obs.out, tag, pause);
            job.spans.close_exec(&self.obs.out, tag, victim, pause);
            job.spans.preempt_pause = Some(pause);
        }
        self.interrupts.push(probe);
        self.events.push(Event::Preempted { cycle: self.now, slot: victim, by: winner });
        let request = request_cycle;
        self.obs.out.tracer.emit(|| TraceEvent::Preempted {
            victim,
            winner,
            layer,
            request,
            t1,
            t2,
        });
        self.running = None;
        Ok(())
    }

    /// Runs until `deadline` cycles or until all work is done, whichever
    /// comes first.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn run_until(&mut self, deadline: u64) -> Result<(), SimError> {
        self.run_inner(deadline, false).map(|_| ())
    }

    /// Like [`Engine::run_until`], but additionally stops right after any
    /// job completes. Returns `true` when it stopped because of a
    /// completion (a slot-virtualizing scheduler uses this to re-bind
    /// freed slots at the exact completion cycle instead of at the next
    /// deadline barrier).
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn run_until_complete(&mut self, deadline: u64) -> Result<bool, SimError> {
        self.run_inner(deadline, true)
    }

    fn run_inner(&mut self, deadline: u64, stop_on_complete: bool) -> Result<bool, SimError> {
        let completed_base = self.completed.len();
        loop {
            #[cfg(test)]
            tests::count(|c| c.iterations += 1);
            if stop_on_complete && self.completed.len() > completed_base {
                return Ok(true);
            }
            if self.now >= deadline {
                return Ok(false);
            }
            self.release_due();
            let best = self.best_ready();
            match (self.running, best) {
                (None, None) => {
                    // Idle: jump to the next arrival, or stop.
                    match self.arrivals.peek() {
                        Some(&Reverse((t, ..))) => self.now = t.min(deadline),
                        None => return Ok(false),
                    }
                }
                (None, Some(s)) => self.dispatch(s)?,
                (Some(r), Some(s)) if s.preempts(r) => {
                    // Note: slot 0 can never be a victim — nothing preempts it.
                    self.preempt(r, s)?;
                }
                (Some(r), _) => {
                    // Host self-profiling is wall-clock only: it never
                    // touches the virtual clock or any trace output.
                    let prof = self.obs.out.host.clone();
                    let t0 = prof.as_ref().map(|_| std::time::Instant::now());
                    let cyc0 = self.now;
                    let arrival = self.arrivals.peek().map_or(u64::MAX, |&Reverse((t, ..))| t);
                    let spanned = self.try_span(r, deadline.min(arrival))?;
                    let done = match spanned {
                        Some(done) => done,
                        None => self.exec_step(r)?,
                    };
                    if let (Some(p), Some(t0)) = (prof.as_ref(), t0) {
                        let comp = if spanned.is_some() {
                            HostComponent::Tier1Batch
                        } else {
                            HostComponent::EngineStep
                        };
                        p.add(comp, t0.elapsed().as_nanos() as u64, self.now - cyc0);
                    }
                    if done {
                        self.complete_job(r);
                    }
                }
            }
        }
    }

    /// Runs until all submitted work completes.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn run(&mut self) -> Result<Report, SimError> {
        self.run_until(u64::MAX)?;
        Ok(self.report())
    }

    /// Snapshot of the current report.
    #[must_use]
    pub fn report(&self) -> Report {
        Report {
            events: self.events.clone(),
            interrupts: self.interrupts.clone(),
            completed_jobs: self.completed.clone(),
            final_cycle: self.now,
            profile: self.obs.profile.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimingBackend;
    use inca_compiler::Compiler;
    use inca_model::{zoo, Shape3};

    /// What the engine did on this thread, counted rather than timed.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Counts {
        /// Iterations of `run_inner`'s loop.
        pub iterations: u64,
        /// Calls of `exec_step` (from the loop and from `t1` drains).
        pub steps: u64,
    }

    thread_local! {
        static COUNTS: std::cell::Cell<Counts> = const { std::cell::Cell::new(Counts { iterations: 0, steps: 0 }) };
    }

    pub(super) fn count(bump: impl FnOnce(&mut Counts)) {
        COUNTS.with(|c| {
            let mut counts = c.get();
            bump(&mut counts);
            c.set(counts);
        });
    }

    fn engine(strategy: InterruptStrategy) -> Engine<TimingBackend> {
        Engine::new(AccelConfig::paper_big(), strategy, TimingBackend::new())
    }

    fn tiny_vi() -> inca_isa::Program {
        let c = Compiler::new(AccelConfig::paper_big().arch);
        c.compile_vi(&zoo::tiny(Shape3::new(3, 32, 32)).unwrap()).unwrap()
    }

    #[test]
    fn single_task_runs_to_completion() {
        let mut e = engine(InterruptStrategy::VirtualInstruction);
        let slot = TaskSlot::new(2).unwrap();
        e.load(slot, tiny_vi()).unwrap();
        e.request_at(100, slot).unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.completed_jobs.len(), 1);
        assert!(r.interrupts.is_empty());
        let j = &r.completed_jobs[0];
        assert_eq!(j.release, 100);
        assert_eq!(j.start, 100);
        assert!(j.finish > 100);
        assert_eq!(j.preemptions, 0);
        assert_eq!(j.extra_cost_cycles, 0);
    }

    #[test]
    fn request_before_load_is_rejected() {
        let mut e = engine(InterruptStrategy::CpuLike);
        assert!(matches!(e.request_at(0, TaskSlot::new(1).unwrap()), Err(SimError::EmptySlot(_))));
    }

    #[test]
    fn high_priority_preempts_low() {
        for strategy in [
            InterruptStrategy::CpuLike,
            InterruptStrategy::LayerByLayer,
            InterruptStrategy::VirtualInstruction,
        ] {
            let mut e = engine(strategy);
            let hi = TaskSlot::new(1).unwrap();
            let lo = TaskSlot::new(3).unwrap();
            e.load(hi, tiny_vi()).unwrap();
            e.load(lo, tiny_vi()).unwrap();
            e.request_at(0, lo).unwrap();
            e.request_at(2_000, hi).unwrap();
            let r = e.run().unwrap();
            assert_eq!(r.completed_jobs.len(), 2, "{strategy}");
            assert_eq!(r.interrupts.len(), 1, "{strategy}");
            let ev = &r.interrupts[0];
            assert_eq!(ev.victim, lo);
            assert_eq!(ev.winner, hi);
            // The high-priority job starts right after latency elapses.
            let hi_job = r.jobs_of(hi).next().unwrap();
            assert_eq!(hi_job.start, ev.request_cycle + ev.latency(), "{strategy}");
            // The low job finishes after the high one.
            let lo_job = r.jobs_of(lo).next().unwrap();
            assert!(lo_job.finish > hi_job.finish, "{strategy}");
        }
    }

    #[test]
    fn strategies_order_latency_and_cost_as_the_paper() {
        let mut results = Vec::new();
        for strategy in [
            InterruptStrategy::CpuLike,
            InterruptStrategy::LayerByLayer,
            InterruptStrategy::VirtualInstruction,
        ] {
            let mut e = engine(strategy);
            let hi = TaskSlot::new(1).unwrap();
            let lo = TaskSlot::new(3).unwrap();
            e.load(hi, tiny_vi()).unwrap();
            e.load(lo, tiny_vi()).unwrap();
            e.request_at(0, lo).unwrap();
            e.request_at(2_000, hi).unwrap();
            let r = e.run().unwrap();
            let ev = r.interrupts[0];
            results.push((strategy, ev.latency(), ev.cost()));
        }
        let (_, lat_cpu, cost_cpu) = results[0];
        let (_, lat_lbl, cost_lbl) = results[1];
        let (_, lat_vi, cost_vi) = results[2];
        assert_eq!(cost_lbl, 0, "layer-by-layer has no extra cost");
        assert!(cost_vi < cost_cpu, "VI cost below CPU-like");
        assert!(lat_vi < lat_lbl, "VI latency below layer-by-layer");
        assert!(lat_cpu > 0 && lat_vi > 0);
    }

    #[test]
    fn slot0_is_never_preempted() {
        let mut e = engine(InterruptStrategy::VirtualInstruction);
        let top = TaskSlot::HIGHEST;
        let lo = TaskSlot::new(1).unwrap();
        e.load(top, tiny_vi()).unwrap();
        e.load(lo, tiny_vi()).unwrap();
        e.request_at(0, top).unwrap();
        // Another request for slot 0 while slot 0 runs cannot preempt it,
        // and nothing can preempt slot 0 anyway.
        e.request_at(10, lo).unwrap();
        let r = e.run().unwrap();
        assert!(r.interrupts.is_empty());
        let first = r.completed_jobs[0];
        assert_eq!(first.slot, top);
    }

    #[test]
    fn backlog_queues_jobs_fifo() {
        let mut e = engine(InterruptStrategy::LayerByLayer);
        let slot = TaskSlot::new(2).unwrap();
        e.load(slot, tiny_vi()).unwrap();
        e.request_at(0, slot).unwrap();
        e.request_at(1, slot).unwrap();
        e.request_at(2, slot).unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.completed_jobs.len(), 3);
        let finishes: Vec<u64> = r.completed_jobs.iter().map(|j| j.finish).collect();
        assert!(finishes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn auto_resubmit_fills_run_until_window() {
        let mut e = engine(InterruptStrategy::VirtualInstruction);
        let slot = TaskSlot::new(3).unwrap();
        e.load(slot, tiny_vi()).unwrap();
        e.set_auto_resubmit(slot, true);
        e.request_at(0, slot).unwrap();
        e.run_until(3_000_000).unwrap();
        let r = e.report();
        assert!(r.completed_jobs.len() > 2, "got {}", r.completed_jobs.len());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = engine(InterruptStrategy::VirtualInstruction);
        let slot = TaskSlot::new(3).unwrap();
        e.load(slot, tiny_vi()).unwrap();
        e.request_at(0, slot).unwrap();
        e.run_until(10).unwrap();
        assert!(e.now() >= 10);
        // A single instruction may overshoot, but not by more than one
        // instruction's cost.
        assert!(e.now() < 10 + 100_000);
    }

    #[test]
    fn profiling_accounts_for_all_cycles() {
        let mut e = engine(InterruptStrategy::VirtualInstruction);
        e.set_profiling(true);
        let hi = TaskSlot::new(1).unwrap();
        let lo = TaskSlot::new(3).unwrap();
        e.load(hi, tiny_vi()).unwrap();
        e.load(lo, tiny_vi()).unwrap();
        e.request_at(0, lo).unwrap();
        e.request_at(2_000, hi).unwrap();
        let r = e.run().unwrap();
        let p = r.profile.clone().expect("profiling enabled");
        // Per-slot totals equal busy + extra cycles of the jobs.
        for slot in [hi, lo] {
            let job = r.jobs_of(slot).next().unwrap();
            assert_eq!(p.slot_cycles(slot), job.busy_cycles + job.extra_cost_cycles, "{slot}");
        }
        // Opcode breakdown sums to the same grand total.
        let grand: u64 = p.per_opcode.iter().sum();
        let jobs: u64 = r.completed_jobs.iter().map(|j| j.busy_cycles + j.extra_cost_cycles).sum();
        assert_eq!(grand, jobs);
        // The overhead counter equals the probes' t2+t4 sum (possibly 0
        // when the interrupt lands on an empty point).
        let probed: u64 = r.interrupts.iter().map(InterruptEvent::cost).sum();
        assert_eq!(p.interrupt_overhead, probed);
        assert!(!p.hottest_layers(lo).is_empty());
    }

    #[test]
    fn dma_overlap_shortens_but_preserves_work() {
        let run = |overlap: bool| {
            let mut cfg = AccelConfig::paper_big();
            cfg.dma_overlap = overlap;
            let mut e =
                Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
            let slot = TaskSlot::new(2).unwrap();
            e.load(slot, tiny_vi()).unwrap();
            e.request_at(0, slot).unwrap();
            let r = e.run().unwrap();
            r.completed_jobs[0].finish
        };
        let sequential = run(false);
        let overlapped = run(true);
        assert!(overlapped < sequential, "{overlapped} !< {sequential}");
        // Overlap can at best hide all transfers, not compute.
        assert!(overlapped * 3 > sequential, "implausible speedup");
    }

    #[test]
    fn gantt_renders_all_slots() {
        let mut e = engine(InterruptStrategy::VirtualInstruction);
        let hi = TaskSlot::new(1).unwrap();
        let lo = TaskSlot::new(3).unwrap();
        e.load(hi, tiny_vi()).unwrap();
        e.load(lo, tiny_vi()).unwrap();
        e.request_at(0, lo).unwrap();
        e.request_at(2_000, hi).unwrap();
        let r = e.run().unwrap();
        let g = r.gantt(60);
        assert_eq!(g.lines().count(), TASK_SLOTS + 1);
        assert!(g.contains('#'));
        // The preempted slot shows at least two occupancy intervals.
        let occ = r.occupancy();
        assert!(occ[lo.index()].len() >= 2);
        assert_eq!(occ[hi.index()].len(), 1);
        assert!(occ[0].is_empty() && occ[2].is_empty());
    }

    /// Runs `f` and returns what the engine counted on this thread meanwhile.
    fn counted(f: impl FnOnce()) -> Counts {
        COUNTS.with(|c| c.set(Counts::default()));
        f();
        COUNTS.with(std::cell::Cell::get)
    }

    fn gem_resnet101_120x160() -> Arc<Program> {
        let c = Compiler::new(AccelConfig::paper_big().arch);
        Arc::new(c.compile_vi(&zoo::gem_resnet101(Shape3::new(3, 120, 160)).unwrap()).unwrap())
    }

    /// Counted, not timed: an uncontended GeM/ResNet101 120×160 job is one
    /// span commit. Before the cycle table `run_inner` went round once per
    /// original instruction — 236 988 iterations for this program.
    #[test]
    fn solo_run_takes_a_handful_of_loop_iterations() {
        let program = gem_resnet101_120x160();
        let originals = program.original_instrs().count() as u64;
        assert!(originals > 200_000, "{originals}");
        let mut e = engine(InterruptStrategy::VirtualInstruction);
        e.load(TaskSlot::LOWEST, Arc::clone(&program)).unwrap();
        e.request_at(100, TaskSlot::LOWEST).unwrap();
        let counts = counted(|| {
            e.run_until(u64::MAX).unwrap();
        });
        assert_eq!(e.metrics().counter("engine.instrs.retired"), originals);
        assert!(counts.iterations <= 8, "{counts:?}");
        assert_eq!(counts.steps, 0, "{counts:?}");
    }

    /// The same job preempted by a `tiny` requester every frame period:
    /// the loop goes round a bounded number of times per scheduling event
    /// (arrival, completion) plus once per instruction that has to be
    /// stepped — `t1` drains to the interrupt point and the instructions
    /// under pending SAVE patches after a resume — and those are a sliver
    /// of the program. The per-instruction engine took one iteration per
    /// original instruction here too (236 988 + the requester's).
    #[test]
    fn preempted_run_iterates_per_event_not_per_instruction() {
        let program = gem_resnet101_120x160();
        let originals = program.original_instrs().count() as u64;
        let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::LOWEST);
        let mut e = engine(InterruptStrategy::VirtualInstruction);
        e.load(lo, Arc::clone(&program)).unwrap();
        e.load(hi, tiny_vi()).unwrap();
        e.request_at(0, lo).unwrap();
        let period = e.config().us_to_cycles(50_000.0 / 16.0);
        let span = crate::analysis::predicted_span(e.config(), &program);
        let arrivals = span / period;
        assert!(arrivals >= 8, "the requester must fire often: {arrivals}");
        for k in 1..=arrivals {
            e.request_at(k * period, hi).unwrap();
        }
        let counts = counted(|| {
            e.run_until(u64::MAX).unwrap();
        });
        let report = e.report();
        assert_eq!(report.completed_jobs.len() as u64, arrivals + 1);
        assert_eq!(report.interrupts.len() as u64, arrivals);
        let events = arrivals + report.completed_jobs.len() as u64;
        assert!(counts.iterations <= 4 * events + counts.steps, "{counts:?} for {events} events");
        assert!(counts.steps < originals / 20, "{counts:?}: stepping {originals} instructions");
    }

    /// A reload finds the program's table by `Arc::ptr_eq` instead of
    /// rebuilding it, and an engine fed ever new programs lets the oldest
    /// tables (and the programs they hold) go.
    #[test]
    fn reload_is_a_table_lookup_and_old_tables_age_out() {
        let mut e = engine(InterruptStrategy::VirtualInstruction);
        let slot = TaskSlot::LOWEST;
        let programs: Vec<Arc<Program>> =
            (0..TABLES_KEPT + 2).map(|_| Arc::new(tiny_vi())).collect();
        for p in [&programs[0], &programs[1], &programs[0]] {
            e.load(slot, Arc::clone(p)).unwrap();
        }
        assert_eq!(e.tables.len(), 2);
        assert!(Arc::ptr_eq(e.slots[slot.index()].table.as_ref().unwrap(), &e.tables[0]));
        for p in &programs {
            e.load(slot, Arc::clone(p)).unwrap();
        }
        assert_eq!(e.tables.len(), TABLES_KEPT);
        assert_eq!(Arc::strong_count(&programs[0]), 1, "evicted and not in the slot");
        assert_eq!(Arc::strong_count(programs.last().unwrap()), 2, "held by its table");
    }

    #[test]
    fn load_busy_slot_is_rejected() {
        let mut e = engine(InterruptStrategy::VirtualInstruction);
        let slot = TaskSlot::new(3).unwrap();
        e.load(slot, tiny_vi()).unwrap();
        e.request_at(0, slot).unwrap();
        e.run_until(10).unwrap();
        assert!(matches!(e.load(slot, tiny_vi()), Err(SimError::Engine(_))));
    }
}
