//! # inca-dslam — distributed SLAM on a shared CNN accelerator
//!
//! Reproduces the paper's evaluation application (§V): two agents explore
//! a pillared arena (the AirSim scene is substituted with a deterministic
//! synthetic world, see DESIGN.md), each running
//!
//! * **FE** — CNN feature-point extraction (SuperPoint backbone) on every
//!   20 fps camera frame, *high priority, hard deadline*;
//! * **VO** — visual odometry from matched feature points, on the CPU;
//! * **PR** — CNN place recognition (GeM/ResNet101), *low priority,
//!   interruptible*, running whenever the accelerator would otherwise be
//!   idle;
//!
//! with both CNNs time-shared on one INCA accelerator per agent. PR codes
//! are exchanged between agents; a cross-agent match triggers map merging
//! ([`map::merge_maps`]).
//!
//! The crate layers cleanly:
//!
//! * [`geometry`], [`world`], [`camera`], [`trajectory`] — the simulated
//!   robot environment;
//! * [`features`], [`vo`], [`pr`] — the perception algorithms (real NMS,
//!   matching, rigid alignment and GeM pooling over synthetic CNN
//!   responses);
//! * [`mission`] — the full two-agent mission wired through
//!   [`inca_runtime::Runtime`] nodes onto the accelerator engine, FE and
//!   PR each on a fixed task slot (FE's preempts PR's).
//!
//! ## Example
//!
//! ```no_run
//! use inca_dslam::mission::{Mission, MissionConfig};
//!
//! let mut cfg = MissionConfig::default();
//! cfg.duration_s = 5.0;
//! let outcome = Mission::new(cfg)?.run()?;
//! println!(
//!     "agent 0: {} frames, PR every {:.1} frames, {} deadline misses",
//!     outcome.agents[0].frames,
//!     outcome.agents[0].frames_per_pr(),
//!     outcome.agents[0].deadline_misses,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod camera;
pub mod features;
pub mod geometry;
pub mod map;
pub mod mission;
pub mod posegraph;
pub mod pr;
pub mod trajectory;
pub mod vo;
pub mod world;

pub use geometry::{Point2, Pose2};
pub use world::World;

/// Errors surfaced by the DSLAM stack.
#[derive(Debug)]
pub enum DslamError {
    /// Compiling one of the CNN tasks failed.
    Compile(inca_compiler::CompileError),
    /// The accelerator simulation failed.
    Sim(inca_accel::SimError),
    /// Invalid mission configuration.
    Config(String),
}

impl std::fmt::Display for DslamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DslamError::Compile(e) => write!(f, "compile error: {e}"),
            DslamError::Sim(e) => write!(f, "simulation error: {e}"),
            DslamError::Config(m) => write!(f, "config error: {m}"),
        }
    }
}

impl std::error::Error for DslamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DslamError::Compile(e) => Some(e),
            DslamError::Sim(e) => Some(e),
            DslamError::Config(_) => None,
        }
    }
}

impl From<inca_compiler::CompileError> for DslamError {
    fn from(e: inca_compiler::CompileError) -> Self {
        DslamError::Compile(e)
    }
}

impl From<inca_accel::SimError> for DslamError {
    fn from(e: inca_accel::SimError) -> Self {
        DslamError::Sim(e)
    }
}
