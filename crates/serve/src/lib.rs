//! `inca-serve`: a multi-core inference serving gateway for the INCA
//! accelerator — priority lanes, same-network batching, deadline-aware
//! admission, pluggable placement and bounded backpressure.
//!
//! The INCA paper (DAC 2020) gives a *single* accelerator core the
//! ability to multi-task: four fixed-priority hardware task slots and an
//! IAU that preempts the datapath mid-network. The repo's scheduler
//! layer ([`inca_runtime::sched`]) virtualizes those four slots over any
//! number of logical tasks on one core. This crate closes the remaining
//! gap to a *deployment*: many tenants, many cores, a request stream —
//! the serving-system shape (Clipper/Triton-style) in front of the
//! paper's hardware model.
//!
//! The pipeline, per request:
//!
//! 1. **Admission** — bounded per-tenant outstanding-request budgets with
//!    the scheduler's shed vocabulary ([`DropPolicy`]): reject, drop
//!    oldest, or degrade to a skipped (no-compute) response.
//! 2. **Batching** — best-effort requests of the same network coalesce
//!    in a batch buffer until a window expires or the batch fills; one
//!    placement decision then dispatches the whole batch to one core,
//!    keeping the program resident (no per-request LOAD_W reload).
//!    Hard-deadline requests **bypass** batching entirely.
//! 3. **Placement** — [`PlacePolicy`]: round-robin, least-loaded by
//!    modelled backlog (the analytical cost model), or tenant affinity.
//! 4. **Execution** — each core pairs an [`inca_accel::Engine`] with a
//!    slot-virtualizing [`inca_runtime::Scheduler`]; hard-lane tenants
//!    are priority 0, so they take the reserved slot 0 and preempt
//!    running best-effort work through the IAU (under the VI strategy,
//!    at virtual-instruction boundaries).
//!
//! Everything is virtual-cycle deterministic: the [`Gateway`] is
//! single-threaded, its caller owns the virtual clock, and a run is
//! reproducible to the byte.
//!
//! ```
//! use std::sync::Arc;
//! use inca_accel::{AccelConfig, CorePool, InterruptStrategy, TimingBackend};
//! use inca_compiler::Compiler;
//! use inca_model::{zoo, Shape3};
//! use inca_runtime::SchedPolicy;
//! use inca_serve::{Gateway, PlacePolicy, TenantSpec};
//!
//! let cfg = AccelConfig::paper_big();
//! let program = Arc::new(
//!     Compiler::new(cfg.arch).compile_vi(&zoo::tiny(Shape3::new(3, 16, 16))?)?,
//! );
//! let pool = CorePool::new(2, cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new);
//! let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded);
//! let cam = gw.register(TenantSpec::new("camera", Arc::clone(&program)));
//! let stop = gw.register(TenantSpec::new("estop", program).hard(2_000_000));
//! gw.submit(0, cam)?;
//! gw.submit(10, stop)?;
//! gw.run_to_idle(u64::MAX)?;
//! assert_eq!(gw.totals().completed, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gateway;
mod place;
mod request;
mod slab;

pub use gateway::{Accepted, Gateway, DEFAULT_BATCH_WINDOW, DEFAULT_MAX_BATCH};
pub use place::PlacePolicy;
pub use request::{Lane, RequestId, Response, ShedReason, TenantId, TenantSpec};

pub use inca_accel::AdvanceStats;
pub use inca_obs::analyze::SloSpec;
pub use inca_obs::{FlightRecorder, Sampler, TimeSeries, Violation};
pub use inca_runtime::{DropPolicy, SchedPolicy, TaskStats as TenantStats};
