//! [`Runtime`] with an installed [`Scheduler`]: the two seams where the
//! shared drive loop ([`Scheduler::step`] / [`Scheduler::take_completion`])
//! meets the middleware — the completion cursor handed over at install
//! time, and the clock the scheduler is pumped at.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use inca_accel::{AccelConfig, InterruptStrategy, JobRecord, TimingBackend};
use inca_compiler::Compiler;
use inca_isa::{Program, TaskSlot};
use inca_model::{zoo, Shape3};
use inca_runtime::{
    JobHandle, Node, NodeContext, Runtime, SchedPolicy, Scheduler, TaskId, TaskSpec,
};

fn cfg() -> AccelConfig {
    AccelConfig::paper_big()
}

fn runtime() -> Runtime<(), TimingBackend> {
    Runtime::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new())
}

fn tiny(side: u32) -> Arc<Program> {
    let c = Compiler::new(cfg().arch);
    Arc::new(c.compile_vi(&zoo::tiny(Shape3::new(3, side, side)).unwrap()).unwrap())
}

/// Timer 0 submits on the raw slot, timer `t > 0` one job of
/// `tasks[t - 1]` (out of range: a pure clock event). Records every
/// completion's finish cycle.
struct Submitter {
    slot: TaskSlot,
    tasks: Vec<TaskId>,
    finishes: Rc<RefCell<Vec<u64>>>,
}

impl Node<()> for Submitter {
    fn name(&self) -> &str {
        "submitter"
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_, ()>, t: u32) {
        if t == 0 {
            let _ = ctx.submit_accel(self.slot);
        } else if let Some(&task) = self.tasks.get(t as usize - 1) {
            let _ = ctx.submit_task(task);
        }
    }
    fn on_accel_done(&mut self, _ctx: &mut NodeContext<'_, ()>, _j: JobHandle, r: &JobRecord) {
        self.finishes.borrow_mut().push(r.finish);
    }
}

#[test]
fn install_scheduler_does_not_replay_raw_completions() {
    let mut rt = runtime();
    // Slot 1 is also the first slot the scheduler binds, so a replayed
    // raw record would be taken for the task's completion.
    let slot = TaskSlot::new(1).unwrap();
    let program = tiny(16);
    rt.engine_mut().load(slot, Arc::clone(&program)).unwrap();
    let finishes = Rc::new(RefCell::new(Vec::new()));
    let tasks = vec![TaskId::default()];
    let node = rt.add_node(Submitter { slot, tasks, finishes: Rc::clone(&finishes) });
    rt.schedule_timer(node, 0, 0);
    rt.run_until(50_000_000).unwrap();
    assert_eq!(finishes.borrow().len(), 1, "the raw job completed before the install");

    rt.install_scheduler(Scheduler::new(cfg(), SchedPolicy::FixedPriority));
    assert_eq!(rt.register_task(TaskSpec::new("t", program)).unwrap(), TaskId::default());
    rt.schedule_timer(node, 1, 60_000_000);
    rt.run_until(200_000_000).unwrap();
    assert_eq!(rt.scheduler().unwrap().totals().completed, 1);
    let finishes = finishes.borrow();
    assert_eq!(finishes.len(), 2);
    assert!(finishes[1] > 60_000_000, "the task's own record, not the stale raw one");
}

#[test]
fn task_deadline_counts_from_the_submit_cycle_despite_engine_overshoot() {
    let mut rt = runtime();
    rt.install_scheduler(Scheduler::new(cfg(), SchedPolicy::FixedPriority));
    let program = tiny(32);
    let relative = 100_000_000;
    let bg = rt.register_task(TaskSpec::new("bg", Arc::clone(&program))).unwrap();
    let fe = rt.register_task(TaskSpec::new("fe", program).priority(0).deadline(relative)).unwrap();
    let slot = TaskSlot::LOWEST;
    let node = rt.add_node(Submitter { slot, tasks: vec![bg, fe], finishes: Rc::default() });
    // The background job is mid-instruction at cycle 1000, so the engine
    // overshoots that horizon past 1001. The scheduler must still be
    // pumped at the middleware clock: pumped at the engine's, its clock
    // would pass 1001 and inflate the deadline below.
    rt.schedule_timer(node, 1, 0);
    rt.schedule_timer(node, 3, 1_000);
    rt.schedule_timer(node, 2, 1_001);
    rt.run_until(relative).unwrap();
    let report = rt.report();
    assert_eq!(report.deadlines.len(), 1);
    assert_eq!(report.deadlines[0].deadline, 1_001 + relative);
    assert!(report.deadlines[0].met());
}
