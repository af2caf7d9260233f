//! Host-time self-profiling of the simulator's advance loops.
//!
//! [`HostProf`] attributes **wall-clock** host time (and the virtual
//! cycles advanced during it) to the simulator components that spend it:
//! per-instruction engine stepping, Tier-1 batched layer execution, the
//! admission scheduler, and the serving gateway. The headline figure is
//! *cycles per host second* per component — the measured justification
//! for a discrete-event engine core (ROADMAP item 1).
//!
//! The profiler is gated at runtime: components hold an
//! `Option<HostProf>` that defaults to `None`, so the disabled cost is
//! one discriminant check per hook — the same contract as
//! [`crate::Tracer`]. Because it measures wall time, its output is
//! **explicitly excluded from every deterministic artifact**: nothing it
//! records enters trace streams or `metrics-v1` cycle counters, and its
//! own report uses gauges only (which regression gates ignore under
//! `gauges.hostprof*`). A differential test proves enabling it changes
//! no deterministic byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::Metrics;

/// A simulator component host time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostComponent {
    /// Per-instruction stepping (`Engine::exec_step` from the run loop).
    EngineStep,
    /// Span commits (`Engine::try_span`): Tier-1 trace-compiled layer
    /// batches of the functional backend and the timing backend's jumps to
    /// the next event alike. The name and its `tier1_batch` metric key
    /// predate the latter and stay: committed baselines carry the key.
    Tier1Batch,
    /// The admission scheduler's `pump` (queue ranking + slot binding).
    Sched,
    /// The serving gateway's run loop, net of the components above.
    Gateway,
}

impl HostComponent {
    /// All components, in report order.
    pub const ALL: [HostComponent; 4] = [
        HostComponent::EngineStep,
        HostComponent::Tier1Batch,
        HostComponent::Sched,
        HostComponent::Gateway,
    ];

    /// Stable snake_case name (used in metric keys).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HostComponent::EngineStep => "engine_step",
            HostComponent::Tier1Batch => "tier1_batch",
            HostComponent::Sched => "sched",
            HostComponent::Gateway => "gateway",
        }
    }

    fn index(self) -> usize {
        match self {
            HostComponent::EngineStep => 0,
            HostComponent::Tier1Batch => 1,
            HostComponent::Sched => 2,
            HostComponent::Gateway => 3,
        }
    }
}

impl std::fmt::Display for HostComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Default)]
struct Cell {
    nanos: AtomicU64,
    calls: AtomicU64,
    cycles: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    cells: [Cell; 4],
}

/// A cloneable handle accumulating per-component host time. All clones
/// share one set of atomic counters, so the gateway, its schedulers and
/// their engines can feed a single report.
#[derive(Debug, Clone, Default)]
pub struct HostProf {
    inner: Arc<Inner>,
}

impl HostProf {
    /// A fresh profiler with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one call of `component` taking `nanos` of host time while
    /// advancing `cycles` virtual cycles.
    pub fn add(&self, component: HostComponent, nanos: u64, cycles: u64) {
        let cell = &self.inner.cells[component.index()];
        cell.nanos.fetch_add(nanos, Ordering::Relaxed);
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Starts a timer whose drop records into `component`. The guard owns
    /// a clone of the handle, so it outlives any `&mut self` the timed
    /// scope needs. `cycles` advanced must be reported via [`HostProf::add`]
    /// directly when known; the guard itself records zero cycles.
    #[must_use]
    pub fn timer(&self, component: HostComponent) -> HostTimer {
        HostTimer { prof: self.clone(), component, cycles: 0, t0: Instant::now() }
    }

    /// A point-in-time report of everything accumulated.
    #[must_use]
    pub fn report(&self) -> HostProfReport {
        let mut components = [ComponentStats::default(); 4];
        for c in HostComponent::ALL {
            let cell = &self.inner.cells[c.index()];
            components[c.index()] = ComponentStats {
                nanos: cell.nanos.load(Ordering::Relaxed),
                calls: cell.calls.load(Ordering::Relaxed),
                cycles: cell.cycles.load(Ordering::Relaxed),
            };
        }
        HostProfReport { components }
    }
}

/// Drop guard started by [`HostProf::timer`].
#[derive(Debug)]
pub struct HostTimer {
    prof: HostProf,
    component: HostComponent,
    cycles: u64,
    t0: Instant,
}

impl HostTimer {
    /// Attributes `cycles` virtual cycles to this timed scope (recorded
    /// together with the elapsed host time on drop).
    pub fn add_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }
}

impl Drop for HostTimer {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.prof.add(self.component, nanos, self.cycles);
    }
}

/// Accumulated host time of one component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentStats {
    /// Host nanoseconds spent inside the component's hooks.
    pub nanos: u64,
    /// Hook invocations.
    pub calls: u64,
    /// Virtual cycles advanced while inside the hooks.
    pub cycles: u64,
}

impl ComponentStats {
    /// Host seconds.
    #[must_use]
    pub fn host_seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Virtual cycles advanced per host second (0 when nothing ran).
    #[must_use]
    pub fn cycles_per_host_second(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.cycles as f64 / self.host_seconds()
        }
    }
}

/// A rendered view over [`HostProf`]'s counters.
///
/// Nested hooks overlap: the gateway hook encloses the scheduler and
/// engine hooks, so [`HostProfReport::stats`] of
/// [`HostComponent::Gateway`] reports **self time** (enclosing time minus
/// the inner components), while the raw inclusive numbers stay available
/// via the component array.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfReport {
    components: [ComponentStats; 4],
}

impl HostProfReport {
    /// Stats for one component. [`HostComponent::Gateway`] is self time:
    /// its hook's inclusive time minus engine/Tier-1/scheduler time.
    #[must_use]
    pub fn stats(&self, component: HostComponent) -> ComponentStats {
        let raw = self.components[component.index()];
        if component != HostComponent::Gateway {
            return raw;
        }
        let inner_nanos: u64 =
            [HostComponent::EngineStep, HostComponent::Tier1Batch, HostComponent::Sched]
                .iter()
                .map(|c| self.components[c.index()].nanos)
                .sum();
        ComponentStats { nanos: raw.nanos.saturating_sub(inner_nanos), ..raw }
    }

    /// Gauge-only metrics under `hostprof.*` — **wall-clock figures**,
    /// excluded from exact regression comparison by the default gate
    /// rules (`gauges.hostprof*` is ignored).
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        for c in HostComponent::ALL {
            let s = self.stats(c);
            m.set_gauge(&format!("hostprof.{c}.host_s"), s.host_seconds());
            m.set_gauge(&format!("hostprof.{c}.calls"), s.calls as f64);
            m.set_gauge(&format!("hostprof.{c}.cycles_per_host_s"), s.cycles_per_host_second());
        }
        m
    }

    /// A fixed-width text table (for `perf_smoke`'s human output).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("hostprof: component      host_s      calls    cycles/host_s\n");
        for c in HostComponent::ALL {
            let s = self.stats(c);
            out.push_str(&format!(
                "hostprof: {:<12} {:>9.4} {:>10} {:>16.3e}\n",
                c.as_str(),
                s.host_seconds(),
                s.calls,
                s.cycles_per_host_second(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_report_accumulate() {
        let p = HostProf::new();
        p.add(HostComponent::EngineStep, 1_000_000_000, 300);
        p.add(HostComponent::EngineStep, 1_000_000_000, 300);
        let r = p.report();
        let s = r.stats(HostComponent::EngineStep);
        assert_eq!(s.calls, 2);
        assert_eq!(s.cycles, 600);
        assert!((s.cycles_per_host_second() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn gateway_reports_self_time() {
        let p = HostProf::new();
        p.add(HostComponent::Gateway, 10_000, 0);
        p.add(HostComponent::Sched, 3_000, 0);
        p.add(HostComponent::EngineStep, 4_000, 0);
        let r = p.report();
        assert_eq!(r.stats(HostComponent::Gateway).nanos, 3_000);
    }

    #[test]
    fn timer_guard_records_on_drop() {
        let p = HostProf::new();
        {
            let mut t = p.timer(HostComponent::Sched);
            t.add_cycles(42);
        }
        let s = p.report().stats(HostComponent::Sched);
        assert_eq!(s.calls, 1);
        assert_eq!(s.cycles, 42);
    }

    #[test]
    fn clones_share_counters() {
        let p = HostProf::new();
        let q = p.clone();
        q.add(HostComponent::Tier1Batch, 5, 7);
        assert_eq!(p.report().stats(HostComponent::Tier1Batch).cycles, 7);
    }
}
