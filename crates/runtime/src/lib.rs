//! # inca-runtime — ROS-like middleware over the INCA accelerator
//!
//! The paper deploys DSLAM as independent ROS nodes: "different threads
//! should have independent access to the accelerator without knowing the
//! status of others". This crate reproduces that contract with a
//! deterministic discrete-event runtime sharing one virtual clock with the
//! accelerator engine:
//!
//! * [`Node`] — a ROS-node-like unit reacting to topic messages, timers and
//!   accelerator-job completions;
//! * [`Runtime`] — the executor: topic pub/sub, timers, and an embedded
//!   [`inca_accel::Engine`] advanced in lock-step so accelerator
//!   completions interleave correctly with middleware events; nodes
//!   submit jobs on fixed physical slots, as the paper's ROS nodes do;
//! * deadline accounting — jobs carry optional deadlines
//!   ([`NodeContext::submit_accel_with_deadline`]) and the report counts
//!   misses, reproducing the paper's "finishing before deadline"
//!   requirement for FE;
//! * [`sched`] — a slot-virtualizing admission scheduler multiplexing any
//!   number of logical tasks (own program, period, deadline, priority)
//!   onto the 4 physical IAU slots, with PREMA-style predicted-span
//!   admission control and pluggable binding/preemption policies, driven
//!   by [`ScheduledEngine`] and by each `inca-serve` gateway core.
//!
//! ## Example
//!
//! ```
//! use inca_accel::{AccelConfig, InterruptStrategy, TimingBackend};
//! use inca_compiler::Compiler;
//! use inca_isa::TaskSlot;
//! use inca_model::{zoo, Shape3};
//! use inca_runtime::{Node, NodeContext, Runtime};
//!
//! struct Camera;
//! impl Node<u32> for Camera {
//!     fn name(&self) -> &str { "camera" }
//!     fn on_timer(&mut self, ctx: &mut NodeContext<'_, u32>, _timer: u32) {
//!         ctx.publish("frames", 1);
//!     }
//! }
//! struct Fe;
//! impl Node<u32> for Fe {
//!     fn name(&self) -> &str { "fe" }
//!     fn on_message(&mut self, ctx: &mut NodeContext<'_, u32>, _t: &str, _m: &u32) {
//!         let slot = TaskSlot::new(1).unwrap();
//!         let _job = ctx.submit_accel(slot);
//!     }
//! }
//!
//! let cfg = AccelConfig::paper_big();
//! let compiler = Compiler::new(cfg.arch);
//! let program = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 16, 16))?)?;
//! let mut rt = Runtime::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
//! rt.engine_mut().load(TaskSlot::new(1)?, program)?;
//! let cam = rt.add_node(Camera);
//! let fe = rt.add_node(Fe);
//! rt.subscribe(fe, "frames");
//! rt.schedule_timer(cam, 0, 1_000);
//! rt.run_until(10_000_000)?;
//! assert_eq!(rt.report().completed_jobs().len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runtime;
pub mod sched;

pub use runtime::{DeadlineRecord, JobHandle, Node, NodeContext, NodeId, Runtime, RuntimeReport};
pub use sched::{
    reload_penalty, Admission, DropPolicy, RejectReason, SchedCompletion, SchedJob, SchedPolicy,
    ScheduledEngine, Scheduler, TaskId, TaskSpec, TaskStats,
};

pub use inca_accel::{AccelConfig, InterruptStrategy};
pub use inca_isa::TaskSlot;
