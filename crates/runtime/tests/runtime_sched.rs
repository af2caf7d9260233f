//! [`Runtime`] deadline accounting for a job that is still outstanding
//! when the report is built.

use inca_accel::{AccelConfig, InterruptStrategy, TimingBackend};
use inca_compiler::Compiler;
use inca_isa::TaskSlot;
use inca_model::{zoo, Shape3};
use inca_runtime::{Node, NodeContext, Runtime};

/// Sends one raw-slot job with an absolute deadline when its timer fires.
struct DeadlineSubmitter {
    slot: TaskSlot,
    deadline: u64,
}

impl Node<()> for DeadlineSubmitter {
    fn name(&self) -> &str {
        "deadline-submitter"
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_, ()>, _t: u32) {
        let _ = ctx.submit_accel_with_deadline(self.slot, self.deadline);
    }
}

#[test]
fn outstanding_raw_deadline_job_is_reported_on_its_own_slot() {
    let cfg = AccelConfig::paper_big();
    let program =
        Compiler::new(cfg.arch).compile_vi(&zoo::tiny(Shape3::new(3, 32, 32)).unwrap()).unwrap();
    let mut rt: Runtime<(), _> =
        Runtime::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
    let slot = TaskSlot::new(3).unwrap();
    rt.engine_mut().load(slot, program).unwrap();
    let node = rt.add_node(DeadlineSubmitter { slot, deadline: 2_000 });
    rt.schedule_timer(node, 0, 0);
    // Far short of the job's makespan: it still waits in slot 3's queue.
    rt.run_until(1_000).unwrap();
    let report = rt.report();
    assert!(report.completed_jobs().is_empty());
    assert_eq!(report.deadlines.len(), 1);
    assert_eq!(report.deadlines[0].slot, slot);
    assert_eq!(report.deadlines[0].finish, None);
    assert!(!report.deadlines[0].met());
}
