//! # inca-accel — the interruptible CNN accelerator, simulated
//!
//! This crate is the paper's hardware, rebuilt as a simulator:
//!
//! * [`AccelConfig`] — an Angel-Eye-class accelerator at 300 MHz with
//!   configurable parallelism (`Para_in`/`Para_out`/`Para_height`), a DDR
//!   DMA model and a compute-array cost model calibrated against the
//!   paper's per-layer timing table (see `EXPERIMENTS.md`, E5);
//! * [`Engine`] — instruction-level execution of VI-ISA [`Program`]s over
//!   four priority task slots, with the IAU's interrupt handling:
//!   [`InterruptStrategy::CpuLike`], [`InterruptStrategy::LayerByLayer`]
//!   and the proposed [`InterruptStrategy::VirtualInstruction`];
//! * [`TimingBackend`] — pure cycle accounting (no data), fast enough for
//!   full ResNet101 sweeps;
//! * [`FuncBackend`] — bit-exact int8 execution of the *same* instruction
//!   stream against a DDR image, used to prove interrupt transparency
//!   (an interrupted run produces byte-identical output);
//! * [`analysis`] — the paper's closed-form worst-case latency model
//!   (Eq. 1: `R_l = (Para_out × Para_height) / (Ch_out × H)`);
//! * [`resources`] — FPGA resource estimates anchored to the paper's
//!   Vivado report (IAU ≈ 3 % of the accelerator's LUTs, zero DSPs).
//!
//! ## Example: preempting ResNet-ish work with a high-priority task
//!
//! ```
//! use inca_accel::{AccelConfig, Engine, InterruptStrategy, TimingBackend};
//! use inca_compiler::Compiler;
//! use inca_isa::TaskSlot;
//! use inca_model::{zoo, Shape3};
//!
//! let compiler = Compiler::new(AccelConfig::paper_big().arch);
//! let fe = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 32, 32))?)?;
//! let pr = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 64, 64))?)?;
//!
//! let mut engine = Engine::new(
//!     AccelConfig::paper_big(),
//!     InterruptStrategy::VirtualInstruction,
//!     TimingBackend::new(),
//! );
//! let hi = TaskSlot::new(1)?;
//! let lo = TaskSlot::new(3)?;
//! engine.load(hi, fe)?;
//! engine.load(lo, pr)?;
//! engine.request_at(0, lo)?;        // PR starts first...
//! engine.request_at(5_000, hi)?;    // ...FE preempts it mid-layer
//! let report = engine.run()?;
//! assert_eq!(report.interrupts.len(), 1);
//! assert_eq!(report.completed_jobs.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// The one exception is the run-time dispatch of the int8 GEMM and
// depthwise kernels to their AVX2 / AVX-512BW builds
// (`func::kernels::run_upto`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod cost;
mod engine;
mod func;
mod multicore;

pub mod analysis;
pub mod energy;
pub mod event;
pub mod resources;

pub use backend::{Backend, SavePatch, SimError, SpanSupport, Stepped, TimingBackend};
pub use config::AccelConfig;
pub use cost::instr_cycles;
pub use engine::{Engine, InterruptEvent, InterruptStrategy, JobRecord, Report, TaskState};
pub use event::{AdvanceStats, Barrier, Tier};
pub use func::{DdrImage, FuncBackend};
pub use multicore::{CoreId, CorePool};

pub use inca_isa::{ArchSpec, Parallelism, Program, TaskSlot};
