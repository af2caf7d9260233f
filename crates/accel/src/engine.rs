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
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

use inca_isa::{Instr, InterruptPoint, Opcode, Program, TaskSlot, TASK_SLOTS};
use inca_obs::{ascii, Histogram, Metrics, Probe, SpanStage, TraceEvent};

use crate::{instr_cycles, AccelConfig, Backend, SavePatch, SimError, SpanSupport};

/// How the accelerator hands the datapath to a higher-priority task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// One preemption, probed with the paper's four phases (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One [`InterruptEvent`] as the engine stores it: 32 bytes instead of 56.
/// `resumed` is `resumed_at − request_cycle`, [`Packed::NEVER`] while the
/// victim has not resumed.
#[derive(Debug, Clone, Copy)]
struct Packed {
    request_cycle: u64,
    t1: u32,
    t2: u32,
    t4: u32,
    resumed: u32,
    request_pc: u32,
    layer: u16,
    victim: TaskSlot,
    winner: TaskSlot,
}

const _: () = assert!(std::mem::size_of::<Packed>() == 32);

impl Packed {
    const NEVER: u32 = u32::MAX;

    /// What a spilled event leaves in [`InterruptLog::packed`]; never read.
    const SPILLED: Self = Self {
        request_cycle: 0,
        t1: 0,
        t2: 0,
        t4: 0,
        resumed: Self::NEVER,
        request_pc: 0,
        layer: 0,
        victim: TaskSlot::HIGHEST,
        winner: TaskSlot::HIGHEST,
    };

    /// `ev` exactly, or `None` when a value is too wide for its field.
    fn pack(ev: &InterruptEvent) -> Option<Self> {
        let resumed = match ev.resumed_at {
            None => Self::NEVER,
            Some(at) => {
                let delta = u32::try_from(at.checked_sub(ev.request_cycle)?).ok()?;
                (delta != Self::NEVER).then_some(delta)?
            }
        };
        Some(Self {
            request_cycle: ev.request_cycle,
            t1: ev.t1.try_into().ok()?,
            t2: ev.t2.try_into().ok()?,
            t4: ev.t4.try_into().ok()?,
            resumed,
            request_pc: ev.request_pc,
            layer: ev.layer,
            victim: ev.victim,
            winner: ev.winner,
        })
    }

    fn unpack(&self) -> InterruptEvent {
        InterruptEvent {
            request_cycle: self.request_cycle,
            victim: self.victim,
            winner: self.winner,
            layer: self.layer,
            request_pc: self.request_pc,
            t1: self.t1.into(),
            t2: self.t2.into(),
            t4: self.t4.into(),
            resumed_at: (self.resumed != Self::NEVER)
                .then(|| self.request_cycle + u64::from(self.resumed)),
        }
    }
}

/// The engine's interrupt log, in probe order: one [`Packed`] record per
/// event, and the few events a [`Packed`] cannot hold exactly kept whole
/// in `wide`, by index (their packed slot holds [`Packed::SPILLED`]).
#[derive(Debug, Default)]
struct InterruptLog {
    packed: Vec<Packed>,
    wide: BTreeMap<usize, InterruptEvent>,
}

impl InterruptLog {
    fn len(&self) -> usize {
        self.packed.len()
    }

    fn get(&self, i: usize) -> InterruptEvent {
        match self.wide.get(&i) {
            Some(ev) => *ev,
            None => self.packed[i].unpack(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = InterruptEvent> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends `ev`; returns its index.
    fn push(&mut self, ev: InterruptEvent) -> usize {
        let i = self.len();
        self.packed.push(Packed::SPILLED);
        self.set(i, ev);
        i
    }

    fn set(&mut self, i: usize, ev: InterruptEvent) {
        match Packed::pack(&ev) {
            Some(p) => {
                self.packed[i] = p;
                self.wide.remove(&i);
            }
            None => {
                self.wide.insert(i, ev);
            }
        }
    }

    /// Records that the victim of event `i` resumed at `at` after `t4`
    /// restore cycles.
    fn resume(&mut self, i: usize, t4: u64, at: u64) {
        let ev = InterruptEvent { t4, resumed_at: Some(at), ..self.get(i) };
        self.set(i, ev);
    }
}

/// A completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Simulation outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All preemptions with their phase probes, in probe order. The
    /// engine stores them packed (32 bytes each, exact for every value)
    /// and unpacks them here.
    pub interrupts: Vec<InterruptEvent>,
    /// Completed jobs in completion order, less the ones a driver already
    /// retired ([`Engine::retire_completed`]).
    pub completed_jobs: Vec<JobRecord>,
    /// Per slot, the preemptions of the retired jobs: the first that many
    /// resumed interrupts of the slot paused jobs no longer listed.
    pub retired_preemptions: [u64; TASK_SLOTS],
    /// Cycle the simulation stopped at.
    pub final_cycle: u64,
}

impl Report {
    /// Completed jobs of one slot.
    pub fn jobs_of(&self, slot: TaskSlot) -> impl Iterator<Item = &JobRecord> {
        self.completed_jobs.iter().filter(move |j| j.slot == slot)
    }

    /// Per-slot occupancy intervals `(start, end)`: each completed job
    /// holds the datapath over `[start, finish]` less one pause per
    /// preemption, from the end of its backup (`request_cycle + t1 + t2`)
    /// to `resumed_at`. A job's pauses are the next `preemptions` resumed
    /// interrupts of its slot (a victim that finished during the drain
    /// never paused), after the pauses of its slot's retired jobs. Jobs
    /// still in flight, and retired ones, are not painted.
    #[must_use]
    pub fn occupancy(&self) -> [Vec<(u64, u64)>; TASK_SLOTS] {
        let mut out: [Vec<(u64, u64)>; TASK_SLOTS] = Default::default();
        let mut pauses: [_; TASK_SLOTS] = std::array::from_fn(|s| {
            self.interrupts
                .iter()
                .filter(move |i| i.victim.index() == s)
                .filter_map(|i| Some((i.request_cycle + i.latency(), i.resumed_at?)))
                .skip(self.retired_preemptions[s] as usize)
        });
        for job in &self.completed_jobs {
            let (slot, mut from) = (job.slot.index(), job.start);
            for (pause, resumed) in pauses[slot].by_ref().take(job.preemptions as usize) {
                out[slot].push((from, pause));
                from = resumed;
            }
            out[slot].push((from, job.finish));
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

/// What a request carries besides its slot: the tag for causal-span
/// emission (`RequestId::raw`); untagged jobs emit no spans (DESIGN.md
/// §5.7).
type RequestTag = Option<u64>;

#[derive(Debug, Default)]
struct ActiveJob {
    release: u64,
    tag: RequestTag,
    start: Option<u64>,
    pc: usize,
    /// The SAVE patches taken interrupt points left pending, by pc.
    flushed: Vec<SavePatch>,
    resume_loads: Vec<Instr>,
    needs_cpu_restore: bool,
    preempted: bool,
    preemptions: u32,
    busy_cycles: u64,
    extra_cost_cycles: u64,
    last_interrupt: Option<usize>,
    spans: JobSpans,
}

impl ActiveJob {
    fn new(release: u64, tag: RequestTag) -> Self {
        Self { release, tag, ..Self::default() }
    }

    /// The instruction at `pc` as the datapath executes it: with the job's
    /// pending patch applied, `None` when that patch elides it.
    fn executed(&self, program: &Program, pc: usize) -> Option<Instr> {
        match self.flushed.iter().find(|p| p.pc == pc) {
            Some(patch) => patch_save(program, &program.instrs[pc], patch),
            None => Some(program.instrs[pc]),
        }
    }

    /// [`ActiveJob::executed`], consuming the patch — counted and traced
    /// as applied to a SAVE starting at `cycle`.
    fn take_patch(
        &mut self,
        obs: &mut Observers,
        slot: TaskSlot,
        program: &Program,
        pc: usize,
        cycle: u64,
    ) -> Option<Instr> {
        let Some(i) = self.flushed.iter().position(|p| p.pc == pc) else {
            return Some(program.instrs[pc]);
        };
        let patch = self.flushed.remove(i);
        let executed = patch_save(program, &program.instrs[pc], &patch);
        let (save_id, elided) = (patch.save_id, executed.is_none());
        obs.counters.saves_patched += 1;
        obs.counters.saves_elided += u64::from(elided);
        obs.out.tracer.emit(|| TraceEvent::SavePatched { cycle, slot, save_id, elided });
        executed
    }

    /// The job ran instructions of `layer` over `ran` and stands at
    /// `self.pc`. A tagged job opens its Layer span at the layer's first
    /// instruction and closes it at the last retiring one (peeking past
    /// free virtual groups), so the emission position is the same whether
    /// the layer was stepped or committed whole.
    fn ran_layer(&mut self, out: &Probe, program: &Program, layer: u16, ran: std::ops::Range<u64>) {
        let Some(tag) = self.tag else { return };
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
    jobs_preempted: u64,
    /// `busy_cycles` summed over the completed jobs.
    busy_cycles: u64,
    /// Completed jobs, and their response and busy cycles: kept as they
    /// complete, so they outlive the records a driver retires.
    jobs_completed: u64,
    response_cycles: Histogram,
    job_busy_cycles: Histogram,
}

/// Everything that watches instructions retire.
#[derive(Debug)]
struct Observers {
    counters: ObsCounters,
    out: Probe,
}

#[derive(Debug, Default)]
struct Slot {
    /// The loaded program and its cycle table.
    loaded: Option<(Arc<Program>, Arc<CycleTable>)>,
    job: Option<ActiveJob>,
    /// Queued jobs: `(release, tag)`.
    backlog: VecDeque<(u64, RequestTag)>,
    auto_resubmit: bool,
}

/// The engine only schedules a slot that holds a program and a job.
impl Slot {
    /// The program, its cycle table and the job, borrowed side by side (no
    /// reference count moves on the per-instruction path).
    fn scheduled(&mut self) -> (&Program, &CycleTable, &mut ActiveJob) {
        let (program, table) = self.loaded.as_ref().expect("scheduled slot has a program");
        (program, table, self.job.as_mut().expect("scheduled slot has a job"))
    }

    /// A handle on the program that outlives a borrow of the engine, for
    /// the once-per-interrupt paths.
    fn program(&self) -> Arc<Program> {
        Arc::clone(&self.loaded.as_ref().expect("scheduled slot has a program").0)
    }

    fn job(&self) -> &ActiveJob {
        self.job.as_ref().expect("scheduled slot has a job")
    }

    fn job_mut(&mut self) -> &mut ActiveJob {
        self.job.as_mut().expect("scheduled slot has a job")
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

/// One past the last original instruction before `pc`: where a job that
/// ran up to `pc` stands (a trailing virtual group is the next step's to
/// skip, or an arriving interrupt's to take).
fn original_end(program: &Program, mut pc: usize) -> usize {
    while pc > 0 && program.instrs[pc - 1].op.is_virtual() {
        pc -= 1;
    }
    pc
}

/// Where the layer-by-layer drain of a job at `pc` in `layer` stops: right
/// after the last of the consecutive original instructions of `layer`
/// ahead (virtual groups skipped) — at `pc` when the next original
/// instruction opens another layer, and nowhere (`usize::MAX`: run to
/// completion) when no other layer follows.
fn layer_boundary(program: &Program, pc: usize, layer: u16) -> usize {
    let run = program.layer_pc_range(layer);
    let (mut stop, mut next) = (pc, next_original(program, pc));
    while let Some(instr) = program.instrs.get(next) {
        if instr.layer != layer {
            return stop;
        }
        stop = if run.contains(&next) { original_end(program, run.end) } else { next + 1 };
        next = next_original(program, stop);
    }
    usize::MAX
}

/// The pc of the first SAVE at or after `pc` with `save_id` — the one a
/// flush of that id patches — or `usize::MAX` when none follows.
fn covering_save(program: &Program, pc: usize, save_id: u32) -> usize {
    let is_it = |i: &Instr| i.op == Opcode::Save && i.save_id == save_id;
    program.instrs[pc..].iter().position(is_it).map_or(usize::MAX, |k| pc + k)
}

/// The IAU's SAVE patch, one rule for stepping and span commits: `save`
/// less the output channels `patch` says an earlier `VIR_SAVE` flushed, or
/// `None` when none are left and the SAVE is elided.
fn patch_save(program: &Program, save: &Instr, patch: &SavePatch) -> Option<Instr> {
    let first = patch.first_channel(save.tile.c0, save.tile.chans)?;
    let meta = program.layer_of(save);
    let plane = u64::from(meta.out_shape.h) * u64::from(meta.out_shape.w);
    let cut = first - save.tile.c0;
    let mut patched = *save;
    patched.tile.c0 = first;
    patched.tile.chans -= cut;
    patched.ddr.addr += u64::from(cut) * plane;
    patched.ddr.bytes -= u32::from(cut) * u32::from(save.tile.rows) * meta.out_shape.w;
    Some(patched)
}

/// Prefix sums over one program's instruction stream under one
/// [`AccelConfig`]: between two events a job's clock is a function of its
/// pc alone, and this is that function (12 bytes per instruction). Virtual
/// instructions weigh nothing. Every run of the program, contended or not,
/// is priced off it; its total is the uncontended makespan, the admission
/// model's [`crate::analysis::predicted_span`].
///
/// A program is priced once: the first table built for it is memoised on
/// the program ([`Program::prices`]) and shared by every engine that loads
/// it under the same configuration. It holds no `Arc<Program>` — the
/// program owns it.
#[derive(Debug)]
pub(crate) struct CycleTable {
    /// The configuration the table was priced under.
    cfg: AccelConfig,
    /// `cycles[pc]`: summed cost of the original instructions in `[0, pc)`.
    cycles: Box<[u64]>,
    /// `originals[pc]`: how many instructions in `[0, pc)` are original.
    originals: Box<[u32]>,
    /// The pc of the last original instruction (`None` for a program of
    /// virtual instructions only).
    last: Option<usize>,
}

impl CycleTable {
    /// `program`'s table under `cfg`: the one memoised on the program when
    /// that was priced under `cfg` (compared exactly), a private one
    /// otherwise.
    pub(crate) fn of(cfg: &AccelConfig, program: &Program) -> Arc<Self> {
        let memo = program.prices(|| Arc::new(Self::price(cfg, program)));
        match Arc::clone(memo).downcast::<Self>() {
            Ok(table) if table.cfg == *cfg => table,
            _ => Arc::new(Self::price(cfg, program)),
        }
    }

    /// Sums [`instr_cycles`] over the original instructions of `program`.
    fn price(cfg: &AccelConfig, program: &Program) -> Self {
        let n = program.instrs.len();
        let (mut cycles, mut originals) = (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1));
        let (mut total, mut count) = (0, 0);
        cycles.push(0);
        originals.push(0);
        for instr in &program.instrs {
            if !instr.op.is_virtual() {
                total += instr_cycles(cfg, program.layer_of(instr), instr);
                count += 1;
            }
            cycles.push(total);
            originals.push(count);
        }
        let last = program.instrs.iter().rposition(|i| !i.op.is_virtual());
        Self { cfg: *cfg, cycles: cycles.into(), originals: originals.into(), last }
    }

    /// The cost of the whole program.
    pub(crate) fn total(&self) -> u64 {
        *self.cycles.last().expect("one entry past the last pc")
    }

    /// What the instruction at `pc` costs (0 for a virtual one).
    pub(crate) fn at(&self, pc: usize) -> u64 {
        self.cycles[pc + 1] - self.cycles[pc]
    }

    /// The cycles from `pc` to the start of the program's last original
    /// instruction, unpatched; `None` when no original instruction lies at
    /// or after `pc`.
    fn to_last(&self, pc: usize) -> Option<u64> {
        self.last.filter(|&last| last >= pc).map(|last| self.cycles[last] - self.cycles[pc])
    }

    /// The first pc in `[pc0, limit]` that `job`, standing at `pc0` of
    /// `program`, reaches `budget` cycles or more from now (`limit` when it
    /// gets that far sooner): every instruction before it starts inside the
    /// budget. Each pending SAVE patch on the way moves what follows it
    /// earlier by its [`CycleTable::saving`].
    fn reach(
        &self,
        program: &Program,
        job: &ActiveJob,
        pc0: usize,
        limit: usize,
        budget: u64,
    ) -> usize {
        let first_at = |lo: usize, hi: usize, target: u64| {
            lo + self.cycles[lo..hi].partition_point(|&c| c < target)
        };
        let (mut lo, mut target) = (pc0, self.cycles[pc0].saturating_add(budget));
        for patch in job.flushed.iter().filter(|p| (pc0..limit).contains(&p.pc)) {
            let at = first_at(lo, patch.pc + 1, target);
            if at <= patch.pc {
                return at;
            }
            let saving = self.saving(program, job, patch.pc);
            (lo, target) = (patch.pc + 1, target.saturating_add(saving));
        }
        first_at(lo, limit, target)
    }

    /// The cycles `job`'s pending patch of the SAVE at `pc` takes off the
    /// table's price for it (the table holds what an unpatched SAVE costs).
    fn saving(&self, program: &Program, job: &ActiveJob, pc: usize) -> u64 {
        let executed = job.executed(program, pc);
        let cost = executed.map_or(0, |i| instr_cycles(&self.cfg, program.layer_of(&i), &i));
        self.cycles[pc + 1] - self.cycles[pc] - cost
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
    /// Pending requests as `(cycle, seq, slot, tag)`; `seq` is unique, so
    /// the order never reaches the last two fields.
    arrivals: BinaryHeap<Reverse<(u64, u64, TaskSlot, RequestTag)>>,
    seq: u64,
    running: Option<TaskSlot>,
    interrupts: InterruptLog,
    /// Completion records not yet retired, oldest first.
    completed: Vec<JobRecord>,
    /// Per slot, the preemptions of the retired records
    /// ([`Report::retired_preemptions`]).
    retired_preemptions: [u64; TASK_SLOTS],
    obs: Observers,
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
            interrupts: InterruptLog::default(),
            completed: Vec::new(),
            retired_preemptions: [0; TASK_SLOTS],
            obs: Observers { counters: ObsCounters::default(), out: Probe::default() },
        }
    }

    /// Installs who watches this engine: the tracer its [`TraceEvent`]s
    /// go through and the core id stamped on its spans. The default
    /// [`Probe`] costs one discriminant check per site and nothing it
    /// records changes a deterministic output. An enabled tracer
    /// immediately receives one [`TraceEvent::EngineMeta`] naming the
    /// interrupt strategy and clock, so recorded traces are
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
        let c = &self.obs.counters;
        m.inc("engine.jobs.completed", c.jobs_completed);
        m.inc("engine.jobs.preempted", c.jobs_preempted);
        m.inc("engine.interrupts.probed", self.interrupts.len() as u64);
        if c.jobs_completed > 0 {
            m.insert_histogram("engine.job.response_cycles", c.response_cycles.clone());
            m.insert_histogram("engine.job.busy_cycles", c.job_busy_cycles.clone());
        }
        for i in self.interrupts.iter() {
            m.observe("engine.interrupt.latency_cycles", i.latency());
            m.observe("engine.interrupt.cost_cycles", i.cost());
        }
        if self.now > 0 {
            m.set_gauge("engine.utilization", self.busy_cycles() as f64 / self.now as f64);
        }
        m
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
    /// which is what lets the event engine skip it entirely (a
    /// [`CorePool`](crate::CorePool) over any backend but
    /// [`Stepped`](crate::Stepped)).
    ///
    /// With work in a slot the answer is the current cycle; otherwise it
    /// is the earliest pending arrival (which may lie in the past for a
    /// late-submitted request, or past the next barrier, which then only
    /// moves the idle clock). [`Engine::next_change`] is the finer
    /// answer a scheduling tier gates its cores on.
    #[must_use]
    pub fn next_event(&self) -> Option<u64> {
        if self.running.is_some() || self.best_ready().is_some() {
            return Some(self.now);
        }
        self.next_arrival()
    }

    /// The earliest deadline at which [`Engine::run_until`] can do more
    /// than move the clock and the running job's pc: the earlier of the
    /// next arrival and the cycle after the running job's last original
    /// instruction starts (a deadline past that start completes the job),
    /// read off the program's cycle table. `None` when quiescent.
    ///
    /// A run to an earlier deadline is pure progress: a later run to the
    /// same deadlines reproduces it exactly, and the cycle table predicts
    /// the clock it leaves. Due at once, at the current cycle: a ready job
    /// that is not running (its dispatch), and a running job that is
    /// tagged (its Layer spans go into a tracer other cores may share, in
    /// the order barriers visit them) or has a SAVE patch pending (applying
    /// it is counted and traced).
    #[must_use]
    pub fn next_change(&self) -> Option<u64> {
        let Some(r) = self.running else {
            return if self.best_ready().is_some() { Some(self.now) } else { self.next_arrival() };
        };
        let slot = &self.slots[r.index()];
        let (_, table) = slot.loaded.as_ref().expect("scheduled slot has a program");
        let job = slot.job();
        if job.tag.is_some() || !job.flushed.is_empty() {
            return Some(self.now);
        }
        let finish = table.to_last(job.pc).map_or(self.now, |c| self.now + c + 1);
        Some(self.next_arrival().map_or(finish, |t| t.min(finish)))
    }

    /// The clock [`Engine::run_until`]`(deadline)` leaves when no change is
    /// due before `deadline` ([`Engine::next_change`]): the running job
    /// stops at the first instruction boundary at or after it, an idle
    /// engine waiting on an arrival rests at it, and a clock already past
    /// it stays. Computed off the cycle table, without running anything.
    pub(crate) fn clock_at(&self, deadline: u64) -> u64 {
        if self.now >= deadline {
            return self.now;
        }
        let Some(r) = self.running else {
            return if self.arrivals.is_empty() { self.now } else { deadline };
        };
        let slot = &self.slots[r.index()];
        let (program, table) = slot.loaded.as_ref().expect("scheduled slot has a program");
        let job = slot.job();
        debug_assert!(job.flushed.is_empty(), "a job with a pending patch is due at once");
        let pc0 = next_original(program, job.pc);
        let reached = table.reach(program, job, pc0, program.instrs.len(), deadline - self.now);
        self.now + table.cycles[reached] - table.cycles[pc0]
    }

    fn next_arrival(&self) -> Option<u64> {
        self.arrivals.peek().map(|&Reverse((t, ..))| t)
    }

    /// The completion records not yet retired, oldest first — the
    /// allocation-free way to drain completions incrementally (drivers
    /// keep a cursor into this slice instead of cloning the full
    /// [`Report`] per advance).
    #[must_use]
    pub fn completed_jobs(&self) -> &[JobRecord] {
        &self.completed
    }

    /// Forgets the oldest `n` records of [`Engine::completed_jobs`] (all of
    /// them when it holds fewer): the ones a driver already consumed, so a
    /// serving engine's memory stays flat however many requests it
    /// completes. Nothing else moves: the interrupts stay, and the metrics,
    /// [`CorePool::busy_cycles`](crate::CorePool::busy_cycles) and the
    /// occupancy of the jobs still listed ([`Report::retired_preemptions`])
    /// are running totals.
    pub fn retire_completed(&mut self, n: usize) {
        let n = n.min(self.completed.len());
        for job in self.completed.drain(..n) {
            self.retired_preemptions[job.slot.index()] += u64::from(job.preemptions);
        }
    }

    /// Cycles spent executing instructions across the completed jobs (the
    /// sum of their [`JobRecord::busy_cycles`], kept as they complete).
    pub(crate) fn busy_cycles(&self) -> u64 {
        self.obs.counters.busy_cycles
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
    /// share the `Arc` (or clone the `Program`) when loading one large
    /// program into many engines: its cycle table is built by the first
    /// load and shared by every later one under the same configuration.
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
        if s.loaded.as_ref().is_some_and(|(p, _)| Arc::ptr_eq(p, &program)) {
            return Ok(());
        }
        let table = CycleTable::of(&self.cfg, &program);
        s.loaded = Some((program, table));
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
        self.request_job_tagged(cycle, slot, None)
    }

    /// Like [`Engine::request_at`], additionally carrying a request tag:
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
        tag: Option<u64>,
    ) -> Result<(), SimError> {
        if self.slots[slot.index()].loaded.is_none() {
            return Err(SimError::EmptySlot(slot));
        }
        self.arrivals.push(Reverse((cycle, self.seq, slot, tag)));
        self.seq += 1;
        Ok(())
    }

    fn release_due(&mut self) {
        while let Some(&Reverse((t, _, slot, tag))) = self.arrivals.peek() {
            if t > self.now {
                break;
            }
            self.arrivals.pop();
            let st = &mut self.slots[slot.index()];
            if st.job.is_none() {
                st.job = Some(ActiveJob::new(t, tag));
            } else {
                st.backlog.push_back((t, tag));
            }
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
        Ok(cycles)
    }

    /// Executes one *original* instruction at the victim's pc (virtual
    /// instructions are skipped for free, SAVE patches applied), advancing
    /// the clock. Returns `true` when the job's stream is exhausted.
    fn exec_step(&mut self, slot: TaskSlot) -> Result<bool, SimError> {
        #[cfg(test)]
        tests::count(|c| c.steps += 1);
        let Self { slots, backend, cfg, now, obs, .. } = self;
        let (program, _, job) = slots[slot.index()].scheduled();
        job.pc = next_original(program, job.pc);
        let Some(&original) = program.instrs.get(job.pc) else {
            return Ok(true);
        };
        let executed = job.take_patch(obs, slot, program, job.pc, *now);
        let elided = executed.is_none();
        let instr = executed.unwrap_or(original);
        let cycles = if elided {
            0
        } else {
            backend.execute(slot, program, &instr)?;
            instr_cycles(cfg, program.layer_of(&instr), &instr)
        };
        let start = *now;
        *now += cycles;
        obs.counters.instrs_retired += u64::from(!elided);
        job.busy_cycles += cycles;
        job.pc += 1;
        job.ran_layer(&obs.out, program, instr.layer, start..*now);
        Ok(job.pc >= program.instrs.len())
    }

    /// Attempts to advance the running job by one *span commit*: every
    /// original instruction that starts before `barrier` (the deadline or
    /// the earliest pending arrival; the caller holds `now < barrier`) and
    /// before pc `until`, as far as the backend's [`SpanSupport`] reaches —
    /// to the barrier for a timing-only job; for a trace-compiled one, from
    /// the layer's first instruction or a cut to the layer's end or the last
    /// interrupt point before the barrier (DESIGN.md §5.6).
    ///
    /// Returns `Ok(None)` to fall back to [`Engine::exec_step`] — always
    /// safe — and `Ok(Some(done))` after a commit, which leaves clock, pc,
    /// counters, trace and pending SAVE patches exactly where stepping the
    /// span would: none of its instructions starts at or after the barrier,
    /// and each patched SAVE inside it is priced, counted and traced as
    /// stepping patches it. Its clock comes off the slot's [`CycleTable`]
    /// in O(log n) plus one lookup per patch. A tagged timing-only job,
    /// which owes Layer spans, is left to `exec_step`.
    fn try_span(
        &mut self,
        slot: TaskSlot,
        barrier: u64,
        until: usize,
    ) -> Result<Option<bool>, SimError> {
        let Self { slots, backend, now, obs, .. } = self;
        let support = backend.supports_spans();
        if support == SpanSupport::None {
            return Ok(None);
        }
        let (program, table, job) = slots[slot.index()].scheduled();
        // Effective pc after the free virtual skip, computed without
        // mutating the job (exec_step does its own skip when we decline).
        let pc0 = next_original(program, job.pc);
        let Some(first) = program.instrs.get(pc0) else {
            return Ok(None);
        };
        // A group span starts at its layer's first instruction or right
        // after an interrupt point's group, and stays in the layer: `layer`
        // is the layer's pc range and where its original instructions end.
        let layer = match support {
            SpanSupport::Group => {
                let range = program.layer_pc_range(first.layer);
                let resumes = |p: &InterruptPoint| p.vir_end as usize == pc0;
                let at_cut = pc0 == range.start
                    || range.contains(&pc0)
                        && program.last_interrupt_point(pc0).is_some_and(resumes);
                if !at_cut {
                    return Ok(None);
                }
                Some((range.end, original_end(program, range.end)))
            }
            _ if job.tag.is_some() => return Ok(None),
            _ => None,
        };
        let limit = layer.map_or(program.instrs.len(), |(end, _)| end).min(until);
        if limit <= pc0 {
            return Ok(None);
        }
        // `reached`: the first pc of the span that would start at or after
        // the barrier (the first instruction starts at `now`, before it).
        let reached = table.reach(program, job, pc0, limit, barrier - *now);
        // Land right after the last original instruction before it, where
        // stepping stands — for a group span, at the layer's end or at the
        // last interrupt point on the way.
        let mut end = original_end(program, reached);
        if layer.is_some_and(|(_, originals_end)| end < originals_end) {
            match program.last_interrupt_point(reached) {
                Some(p) if p.vir_start as usize > pc0 => end = p.vir_start as usize,
                _ => return Ok(None), // no cut before the barrier
            }
        }
        if !backend.execute_span(slot, program, pc0..end, &job.flushed)? {
            return Ok(None);
        }
        let start = *now;
        #[cfg(test)]
        tests::count(|c| {
            c.patched_spans += u64::from(job.flushed.first().is_some_and(|p| p.pc < end))
        });
        // Pending patches all lie ahead of the job, sorted by pc.
        let (mut saved, mut elided) = (0, 0);
        while let Some(pc) = job.flushed.first().map(|p| p.pc).filter(|&pc| pc < end) {
            let saving = table.saving(program, job, pc);
            let at = start + (table.cycles[pc] - table.cycles[pc0]) - saved;
            elided += u64::from(job.take_patch(obs, slot, program, pc, at).is_none());
            saved += saving;
        }
        *now += table.cycles[end] - table.cycles[pc0] - saved;
        let originals = u64::from(table.originals[end] - table.originals[pc0]);
        obs.counters.instrs_retired += originals - elided;
        job.busy_cycles += *now - start;
        job.pc = end;
        job.ran_layer(&obs.out, program, first.layer, start..*now);
        Ok(Some(job.pc >= program.instrs.len()))
    }

    fn complete_job(&mut self, slot: TaskSlot) {
        let s = &mut self.slots[slot.index()];
        let mut job = s.job.take().expect("completing job exists");
        let record = JobRecord {
            slot,
            release: job.release,
            start: job.start.unwrap_or(job.release),
            finish: self.now,
            busy_cycles: job.busy_cycles,
            extra_cost_cycles: job.extra_cost_cycles,
            preemptions: job.preemptions,
        };
        let c = &mut self.obs.counters;
        c.busy_cycles += record.busy_cycles;
        c.jobs_completed += 1;
        c.response_cycles.observe(record.response());
        c.job_busy_cycles.observe(record.busy_cycles);
        self.completed.push(record);
        if let Some(tag) = job.tag {
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
        if let Some((release, tag)) = s.backlog.pop_front() {
            s.job = Some(ActiveJob::new(release, tag));
        } else if s.auto_resubmit {
            // An auto-resubmitted job is a fresh, untagged release.
            s.job = Some(ActiveJob::new(cycle, None));
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
            let loads = std::mem::take(&mut job.resume_loads);
            let last_interrupt = job.last_interrupt.take();
            job.preempted = false;
            for l in &loads {
                t4 += self.materialize(slot, &program, l, restore_start + t4)?;
            }
            self.now += t4;
            self.slots[slot.index()].job_mut().extra_cost_cycles += t4;
            if let Some(idx) = last_interrupt {
                self.interrupts.resume(idx, t4, self.now);
            }
            self.obs.out.tracer.emit(|| TraceEvent::Resumed { slot, restore_start, t4 });
        }
        // Close the request's pending Preempted span and open its next
        // Exec segment at the cycle execution actually (re)starts.
        let job = self.slots[slot.index()].job_mut();
        if let Some(tag) = job.tag {
            job.spans.dispatched(&self.obs.out, tag, self.now);
        }
        self.running = Some(slot);
        Ok(())
    }

    /// The `t1` drain of every strategy: advances `slot` — by span commits
    /// where the backend takes them, else step by step, looking at no
    /// arrival meanwhile — until its pc reaches `until` at an instruction
    /// boundary (`Ok(false)`) or its stream is exhausted (`Ok(true)`).
    fn drain(&mut self, slot: TaskSlot, until: usize) -> Result<bool, SimError> {
        while self.slots[slot.index()].job().pc < until {
            let done = match self.try_span(slot, u64::MAX, until)? {
                Some(done) => done,
                None => self.exec_step(slot)?,
            };
            if done {
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
            let vi = program.instrs[idx];
            match vi.op {
                Opcode::VirSave => {
                    let end = vi.tile.c0 + vi.tile.chans;
                    let of_save = |p: &&mut SavePatch| p.save_id == vi.save_id;
                    let job = self.slots[victim.index()].job_mut();
                    if end <= job.flushed.iter_mut().find(of_save).map_or(0, |p| p.end) {
                        continue;
                    }
                    t2 += self.materialize(victim, program, &vi, t2_base + t2)?;
                    let flushed = &mut self.slots[victim.index()].job_mut().flushed;
                    match flushed.iter_mut().find(of_save) {
                        Some(patch) => patch.end = end,
                        None => {
                            let pc = covering_save(program, point.resume_pc() as usize, vi.save_id);
                            let at = flushed.partition_point(|p| p.pc < pc);
                            flushed.insert(at, SavePatch { pc, save_id: vi.save_id, end });
                        }
                    }
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
        let (t2, finished) = match self.strategy {
            // Run the victim's whole remaining program.
            InterruptStrategy::NonPreemptive => (0, self.drain(victim, usize::MAX)?),
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
                (0, self.drain(victim, layer_boundary(&program, request_pc, layer))?)
            }
            InterruptStrategy::VirtualInstruction => {
                match program.next_interrupt_point(request_pc).copied() {
                    // No point ahead: run to completion.
                    None => (0, self.drain(victim, usize::MAX)?),
                    Some(p) => {
                        if self.drain(victim, p.vir_start as usize)? {
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

        // The victim stops executing where t1 ended; backup (t2) counts as
        // preempted-out time, so the Exec segment closes at `now − t2`.
        let pause = self.now.saturating_sub(t2);
        let job = self.slots[victim.index()].job_mut();
        job.preempted = true;
        job.preemptions += 1;
        job.extra_cost_cycles += t2;
        if let Some(tag) = job.tag {
            job.spans.close_layer(&self.obs.out, tag, pause);
            job.spans.close_exec(&self.obs.out, tag, victim, pause);
            job.spans.preempt_pause = Some(pause);
        }
        job.last_interrupt = Some(self.interrupts.push(probe));
        self.obs.counters.jobs_preempted += 1;
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
        // A run with no change due before its deadline is pure progress:
        // it must stop where the cycle table says ([`Engine::clock_at`]),
        // which is what a tier that skipped this engine reports for it.
        #[cfg(debug_assertions)]
        let predicted =
            self.next_change().is_none_or(|t| t > deadline).then(|| self.clock_at(deadline));
        let stopped = self.run_loop(deadline, stop_on_complete)?;
        #[cfg(debug_assertions)]
        if let Some(clock) = predicted {
            assert_eq!(self.now, clock, "a pure-progress run stopped off the table's clock");
        }
        Ok(stopped)
    }

    fn run_loop(&mut self, deadline: u64, stop_on_complete: bool) -> Result<bool, SimError> {
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
                    let arrival = self.arrivals.peek().map_or(u64::MAX, |&Reverse((t, ..))| t);
                    let done = match self.try_span(r, deadline.min(arrival), usize::MAX)? {
                        Some(done) => done,
                        None => self.exec_step(r)?,
                    };
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
            interrupts: self.interrupts.iter().collect(),
            completed_jobs: self.completed.clone(),
            retired_preemptions: self.retired_preemptions,
            final_cycle: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stepped, TimingBackend};
    use inca_compiler::Compiler;
    use inca_model::{zoo, Shape3};

    /// What the engine did on this thread, counted rather than timed.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Counts {
        /// Iterations of `run_inner`'s loop.
        pub iterations: u64,
        /// Calls of `exec_step` (from the loop and from `t1` drains).
        pub steps: u64,
        /// Span commits that applied a pending SAVE patch.
        pub patched_spans: u64,
    }

    thread_local! {
        static COUNTS: std::cell::Cell<Counts> =
            const { std::cell::Cell::new(Counts { iterations: 0, steps: 0, patched_spans: 0 }) };
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
    fn busy_cycles_is_the_running_sum_of_completed_jobs() {
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
            e.request_at(1, lo).unwrap();
            e.request_at(2_000, hi).unwrap();
            e.request_at(4_000, hi).unwrap();
            let fold = |e: &Engine<TimingBackend>| {
                e.completed_jobs().iter().map(|j| j.busy_cycles).sum::<u64>()
            };
            while e.run_until_complete(u64::MAX).unwrap() {
                assert_eq!(e.busy_cycles(), fold(&e), "{strategy}: after each completion");
            }
            assert_eq!(e.completed_jobs().len(), 4, "{strategy}");
            assert!(e.completed_jobs().iter().any(|j| j.preemptions > 0), "{strategy}");
            assert_eq!(e.busy_cycles(), fold(&e), "{strategy}");
        }
    }

    /// A driver that consumed its completions retires them. The engine
    /// then lists only the newer records, and nothing derived from the
    /// retired ones moves: the interrupts, the metrics, the busy cycles,
    /// and the occupancy of the jobs still listed (their pauses come after
    /// the retired jobs' in the interrupt log).
    #[test]
    fn retiring_records_keeps_every_running_total() {
        for strategy in [
            InterruptStrategy::CpuLike,
            InterruptStrategy::LayerByLayer,
            InterruptStrategy::VirtualInstruction,
        ] {
            let mut e = engine(strategy);
            let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::new(3).unwrap());
            let small = Compiler::new(e.config().arch)
                .compile_vi(&zoo::tiny(Shape3::new(3, 16, 16)).unwrap())
                .unwrap();
            e.load(hi, small).unwrap();
            e.load(lo, tiny_vi()).unwrap();
            let span = crate::analysis::predicted_span(e.config(), &tiny_vi());
            for k in 0..3 {
                e.request_at(k, lo).unwrap();
            }
            // Far enough apart that a CPU-like victim resumes in between.
            let backup = e.config().dma_cycles(u64::from(e.config().arch.onchip_bytes()));
            let gap =
                span / 2 + if strategy == InterruptStrategy::CpuLike { 2 * backup } else { 0 };
            for k in 0..12 {
                e.request_at(span / 3 + k * gap, hi).unwrap();
            }
            e.run_until(u64::MAX).unwrap();
            let (full, metrics, busy) = (e.report(), e.metrics(), e.busy_cycles());
            let preempted = full.jobs_of(lo).filter(|j| j.preemptions > 1).count();
            assert!(preempted > 1, "{strategy}: {:?}", full.completed_jobs);
            let painted = full.occupancy();
            let mut dropped = [0; TASK_SLOTS];
            for n in 1..=full.completed_jobs.len() {
                let retired = full.completed_jobs[n - 1];
                dropped[retired.slot.index()] += retired.preemptions as usize + 1;
                e.retire_completed(1);
                let r = e.report();
                assert_eq!(r.completed_jobs, full.completed_jobs[n..], "{strategy}");
                assert_eq!(r.interrupts, full.interrupts, "{strategy}");
                for s in 0..TASK_SLOTS {
                    assert_eq!(r.occupancy()[s], painted[s][dropped[s]..], "{strategy} slot {s}");
                }
                assert_eq!(e.metrics(), metrics, "{strategy}: after retiring {n}");
                assert_eq!(e.busy_cycles(), busy, "{strategy}");
            }
            e.retire_completed(usize::MAX);
            assert_eq!(e.metrics(), metrics, "{strategy}: retiring past the end");
        }
    }

    /// The log stores every event exactly: values that fit their packed
    /// field round-trip through it, wider ones (and a resume delta equal
    /// to the never-resumed marker) spill whole, at push or at resume.
    #[test]
    fn interrupt_log_round_trips_every_value() {
        let edges = [0, u64::from(u32::MAX) - 1, u64::from(u32::MAX), u64::MAX / 2];
        let base = InterruptEvent {
            request_cycle: 7,
            victim: TaskSlot::LOWEST,
            winner: TaskSlot::new(1).unwrap(),
            layer: u16::MAX,
            request_pc: u32::MAX,
            t1: 1,
            t2: 2,
            t4: 3,
            resumed_at: Some(107),
        };
        let mut want = vec![InterruptEvent { t4: 0, resumed_at: None, ..base }];
        for v in edges {
            want.extend([
                InterruptEvent { t1: v, ..base },
                InterruptEvent { t2: v, ..base },
                InterruptEvent { t4: v, ..base },
                InterruptEvent { resumed_at: Some(base.request_cycle + v), ..base },
                InterruptEvent { request_cycle: v, resumed_at: Some(v + 100), ..base },
            ]);
        }
        let mut log = InterruptLog::default();
        for ev in &want {
            log.push(*ev);
        }
        // t1, t2, t4 and the resume delta at u64::MAX / 2; the delta at
        // u32::MAX (the marker).
        assert_eq!(log.wide.len(), 5);
        // Resumes land exactly too, spilling when they do not fit.
        for v in edges {
            let never = InterruptEvent { t4: 0, resumed_at: None, ..base };
            let i = log.push(never);
            log.resume(i, v, base.request_cycle + v);
            want.push(InterruptEvent { t4: v, resumed_at: Some(base.request_cycle + v), ..base });
        }
        let spilled =
            log.push(InterruptEvent { t1: u64::MAX / 2, t4: 0, resumed_at: None, ..base });
        log.resume(spilled, 9, 11);
        want.push(InterruptEvent { t1: u64::MAX / 2, t4: 9, resumed_at: Some(11), ..base });
        // A spilled event whose new values fit is packed again.
        let marker = Some(base.request_cycle + u64::from(u32::MAX));
        let packs = log.push(InterruptEvent { resumed_at: marker, ..base });
        log.resume(packs, 9, 11);
        want.push(InterruptEvent { t4: 9, resumed_at: Some(11), ..base });
        assert_eq!(log.wide.len(), 5 + 2 + 1);
        assert_eq!(log.iter().collect::<Vec<_>>(), want);
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

    /// A tracer watches without slowing the engine: an untagged solo job
    /// on the timing backend runs as span commits with a ring installed,
    /// and reports and counts exactly what the untraced run does.
    #[test]
    fn traced_solo_run_takes_span_commits() {
        let program = Arc::new(tiny_vi());
        let run = |probe: Option<Probe>| {
            let mut e = engine(InterruptStrategy::VirtualInstruction);
            if let Some(probe) = probe {
                e.set_probe(probe);
            }
            e.load(TaskSlot::LOWEST, Arc::clone(&program)).unwrap();
            e.request_at(0, TaskSlot::LOWEST).unwrap();
            let counts = counted(|| {
                e.run_until(u64::MAX).unwrap();
            });
            (counts, e.report(), e.metrics())
        };
        let (tracer, buffer) = inca_obs::Tracer::ring(1 << 10);
        let (counts, traced, traced_metrics) = run(Some(tracer.into()));
        assert_eq!(counts.steps, 0, "{counts:?}: a tracer made the engine step");
        assert!(!buffer.is_empty(), "the ring recorded the run");
        let (_, untraced, untraced_metrics) = run(None);
        assert_eq!((traced, traced_metrics), (untraced, untraced_metrics));
    }

    /// The same job preempted by a `tiny` requester every frame period:
    /// the loop goes round a bounded number of times per scheduling event
    /// (arrival, completion), and nothing is stepped — the `t1` drain to
    /// the interrupt point is a span commit, and so is the resumed run
    /// through its pending SAVE patches. The per-instruction engine took
    /// one iteration per original instruction here too (236 988 + the
    /// requester's); before drains and patches joined the span commit,
    /// 3 475 iterations and 4 018 steps.
    #[test]
    fn preempted_run_loops_once_per_event() {
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
        assert!(counts.iterations <= 4 * events, "{counts:?} for {events} events");
        assert_eq!(counts.steps, 0, "{counts:?}: stepping some of {originals} instructions");
        assert!(counts.patched_spans > 0, "{counts:?}");
    }

    /// A victim resumed under the VI method holds pending SAVE patches. Its
    /// next span commit applies them — pricing, counting and tracing each
    /// patched SAVE as stepping does — instead of leaving them to
    /// `exec_step`, on the timing backend (an `Any` span) and the
    /// functional one (a `Group` span from the resume cut), and the run
    /// equals the per-instruction oracle's.
    #[test]
    fn span_commits_apply_pending_save_patches() {
        let cfg = AccelConfig::paper_small();
        let (hi_slot, lo_slot) = (TaskSlot::new(1).unwrap(), TaskSlot::LOWEST);
        let compile = |side| {
            let net = zoo::tiny(Shape3::new(3, side, side)).unwrap();
            Arc::new(Compiler::new(cfg.arch).compile_vi(&net).unwrap())
        };
        let programs = [(hi_slot, compile(16)), (lo_slot, compile(32))];
        let func = || {
            let mut b = crate::FuncBackend::with_threads(1);
            for (slot, p) in &programs {
                b.install_image(*slot, crate::DdrImage::for_program(p, 7));
            }
            b
        };
        // The victim (last) from cycle 0, one request for the other at `at`.
        fn run<B: Backend>(
            mut e: Engine<B>,
            programs: &[(TaskSlot, Arc<Program>)],
            at: u64,
        ) -> Engine<B> {
            for (slot, p) in programs {
                e.load(*slot, Arc::clone(p)).unwrap();
            }
            e.request_at(0, programs[1].0).unwrap();
            e.request_at(at, programs[0].0).unwrap();
            e.run_until(u64::MAX).unwrap();
            e
        }
        fn observed<B: Backend>(e: &Engine<B>) -> (Report, Metrics) {
            (e.report(), e.metrics())
        }
        let vi = InterruptStrategy::VirtualInstruction;
        let span = crate::analysis::predicted_span(&cfg, &programs[1].1);
        let (mut patched, mut counts) = (0, Counts::default());
        for k in 1..24 {
            let at = span * k / 24;
            let (mut timing, mut fused) = (None, None);
            counts.patched_spans += counted(|| {
                timing = Some(run(Engine::new(cfg, vi, TimingBackend::new()), &programs, at));
                fused = Some(run(Engine::new(cfg, vi, func()), &programs, at));
            })
            .patched_spans;
            let (timing, fused) = (timing.unwrap(), fused.unwrap());
            let steps = run(Engine::new(cfg, vi, Stepped(TimingBackend::new())), &programs, at);
            let tier0 = run(Engine::new(cfg, vi, Stepped(func())), &programs, at);
            assert_eq!(observed(&timing), observed(&steps), "timing, request at {at}");
            assert_eq!(observed(&fused), observed(&tier0), "functional, request at {at}");
            let image = fused.backend().image(lo_slot);
            assert_eq!(image, tier0.backend().0.image(lo_slot), "request at {at}");
            patched += steps.metrics().counter("engine.saves.patched");
        }
        assert!(patched > 0, "no interrupt of the sweep left a SAVE to patch");
        assert!(counts.patched_spans > 0, "no span commit applied a pending patch");
    }

    /// Under one configuration a program is priced once: engines loading
    /// it side by side, an engine made after they are gone and one loading
    /// a clone of the program all hold the same table, and the table does
    /// not keep the program alive.
    #[test]
    fn engines_share_one_cycle_table_per_program() {
        let slot = TaskSlot::LOWEST;
        let loaded = |program: Arc<Program>| {
            let mut e = engine(InterruptStrategy::VirtualInstruction);
            e.load(slot, program).unwrap();
            e
        };
        let table = |e: &Engine<TimingBackend>| {
            Arc::clone(&e.slots[slot.index()].loaded.as_ref().expect("loaded").1)
        };
        let program = Arc::new(tiny_vi());
        let (a, b) = (loaded(Arc::clone(&program)), loaded(Arc::clone(&program)));
        let first = table(&a);
        assert!(Arc::ptr_eq(&first, &table(&b)));
        drop((a, b));
        assert!(Arc::ptr_eq(&first, &table(&loaded(Arc::clone(&program)))));
        let clone = (*program).clone();
        assert!(Arc::ptr_eq(&first, &table(&loaded(Arc::new(clone)))), "a clone shares it");
        assert_eq!(Arc::strong_count(&program), 1);
    }

    /// The memoised table answers only for the configuration it was priced
    /// under: loaded under another, in either order, the program is priced
    /// again and the engine still equals its per-instruction oracle and the
    /// admission model.
    #[test]
    fn a_table_serves_only_its_own_config() {
        fn run<B: Backend>(cfg: AccelConfig, b: B, p: &Arc<Program>, at: Option<u64>) -> Report {
            let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::LOWEST);
            let mut e = Engine::new(cfg, InterruptStrategy::VirtualInstruction, b);
            e.load(lo, Arc::clone(p)).unwrap();
            e.load(hi, Arc::clone(p)).unwrap();
            e.request_at(0, lo).unwrap();
            if let Some(at) = at {
                e.request_at(at, hi).unwrap();
            }
            e.run().unwrap()
        }
        let small = AccelConfig::paper_small();
        let slow_ddr = AccelConfig { ddr_bytes_per_cycle: 4, ..small };
        let net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
        for (first, then) in [(small, slow_ddr), (slow_ddr, small)] {
            let program = Arc::new(Compiler::new(small.arch).compile_vi(&net).unwrap());
            let priced = crate::analysis::predicted_span(&first, &program);
            for cfg in [first, then] {
                let what = format!(
                    "priced at {} B/cycle, run at {}",
                    first.ddr_bytes_per_cycle, cfg.ddr_bytes_per_cycle
                );
                let span = crate::analysis::predicted_span(&cfg, &program);
                for at in [None, Some(span / 3), Some(span * 2 / 3)] {
                    let report = run(cfg, TimingBackend::new(), &program, at);
                    let oracle = run(cfg, Stepped(TimingBackend::new()), &program, at);
                    assert_eq!(report, oracle, "{what}, request at {at:?}");
                    if at.is_none() {
                        assert_eq!(report.completed_jobs[0].busy_cycles, span, "{what}");
                    }
                }
            }
            assert_ne!(crate::analysis::predicted_span(&then, &program), priced);
        }
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
