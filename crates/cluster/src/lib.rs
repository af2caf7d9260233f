//! `inca-cluster`: the fleet layer over [`inca_serve`] — N serving
//! gateways (each fronting its own core pool) behind one router, all
//! advanced on a single virtual clock.
//!
//! A single [`Gateway`] already closes the gap
//! from the INCA paper's interruptible core to a serving deployment.
//! This crate closes the next gap: a *fleet* of such machines, with the
//! coordination problems real fleets have —
//!
//! 1. **Weight-cache-aware routing** — tenants get a home gateway from
//!    a consistent-hash ring; each dispatch minimizes, per gateway, its
//!    [`Gateway::modelled_backlog`] **plus the LOAD_W reload cycles** it
//!    quotes for the request ([`Gateway::reload_cost`]: zero when the
//!    program is resident on the core it would place it on). The router
//!    keeps no model of its own. A tenant sticks to warm weights until
//!    load imbalance exceeds the cost of re-streaming them.
//! 2. **Deterministic shed cascades** — an overloaded gateway's refusal
//!    walks the ring in a fixed order; a request is only refused
//!    fleet-wide when every gateway refused it.
//! 3. **Cross-gateway work stealing** — idle gateways recall batched
//!    best-effort work from the most backlogged gateway; the hard lane
//!    never migrates.
//! 4. **Elastic core-pool scaling** — per-gateway grow/shrink driven by
//!    queue-depth and utilization telemetry, via the gateway's
//!    park/unpark (`set_active_cores`) hook.
//!
//! Stealing and elastic scaling run together under one switch,
//! [`Cluster::set_rebalance`], off by default; their thresholds are fixed
//! policy.
//! 5. **One virtual clock** — [`Cluster::run_until`] extends the
//!    event-engine skip rule to gateway granularity: a gateway with
//!    nothing due by a fleet barrier (no core's completion or arrival, no
//!    batch flush, no timeline boundary) only records it, in O(1), and
//!    one with nothing outstanding costs nothing at all.
//!
//! Every decision above is a pure function of cycle-domain state, so a
//! cluster run is byte-identical across repeat runs, functional-backend
//! thread counts and the stepping reference — the same determinism contract as
//! every layer below it.
//!
//! ```
//! use std::sync::Arc;
//! use inca_accel::{AccelConfig, CorePool, InterruptStrategy, TimingBackend};
//! use inca_cluster::{Cluster, RoutePolicy};
//! use inca_compiler::Compiler;
//! use inca_model::{zoo, Shape3};
//! use inca_runtime::SchedPolicy;
//! use inca_serve::{Gateway, PlacePolicy, TenantSpec};
//!
//! let cfg = AccelConfig::paper_big();
//! let program = Arc::new(
//!     Compiler::new(cfg.arch).compile_vi(&zoo::tiny(Shape3::new(3, 16, 16))?)?,
//! );
//! let gateways = (0..2)
//!     .map(|_| {
//!         let pool =
//!             CorePool::new(2, cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new);
//!         Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::TenantAffinity)
//!     })
//!     .collect();
//! let mut cluster = Cluster::new(gateways, RoutePolicy::WeightCacheAware);
//! let cam = cluster.register(TenantSpec::new("camera", Arc::clone(&program)));
//! let stop = cluster.register(TenantSpec::new("estop", program).hard(2_000_000));
//! cluster.submit(0, cam)?;
//! cluster.submit(10, stop)?;
//! cluster.run_to_idle(u64::MAX)?;
//! assert_eq!(cluster.totals().completed, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod route;

pub use cluster::{Cluster, GatewayId};
pub use route::{RoutePolicy, RouteStats};

pub use inca_accel::AdvanceStats;
pub use inca_serve::{
    Accepted, Gateway, Lane, PlacePolicy, Response, SchedPolicy, ShedReason, TenantId, TenantSpec,
    TenantStats,
};
