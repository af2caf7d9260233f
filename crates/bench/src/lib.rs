//! # inca-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index E1–E10) plus `perf_smoke`, the kernel throughput probe.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig_latency_positions` | Fig. barresult(a): latency & cost at 12 random ResNet101 positions (E1, E7) |
//! | `fig_latency_networks`  | Fig. barresult(b): VI vs layer-by-layer across networks & accelerators (E2) |
//! | `tab_instruction_semantics` | Table I (E3) |
//! | `tab_rl_analysis`       | §IV-C worked example, Eq. 1 (E4) |
//! | `tab_backup_vs_conv`    | draft table "timecompare" (E5) |
//! | `tab_degradation`       | abstract's ≤0.3 % multi-task overhead (E6) |
//! | `fig_dslam_mission`     | §V-C DSLAM run (E8) |
//! | `tab_resources`         | draft table "hardware" (E9) |
//! | `fig_t1_sweep`          | draft fig. t1all/t1after (E10) |
//! | `fig_event_engine`      | event-driven vs stepping advance: wall-clock speedup and events-vs-cycles ratio on a mostly-idle 64-core fleet |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workload;

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use inca_accel::{
    analysis, AccelConfig, Backend, CoreId, CorePool, DdrImage, Engine, FuncBackend,
    InterruptEvent, InterruptStrategy, Program, TimingBackend,
};
use inca_compiler::Compiler;
use inca_isa::TaskSlot;
use inca_model::{zoo, Network, Shape3};
use inca_obs::analyze::SloSpec;
use inca_obs::{
    timeline, FlightRecorder, MetricsSnapshot, TimeSeries, TraceEvent, Tracer, Violation,
};
use inca_serve::{DropPolicy, Gateway, PlacePolicy, SchedPolicy, TenantSpec};

/// The paper's camera resolution.
pub const CAMERA: Shape3 = Shape3 { c: 3, h: 480, w: 640 };

/// A compiled workload pair: the original-ISA and VI-ISA forms of the same
/// network (layer-by-layer/CPU-like strategies run the original; the VI
/// strategy runs the VI form).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Network name.
    pub name: String,
    /// Original-ISA program.
    pub original: Arc<Program>,
    /// VI-ISA program.
    pub vi: Arc<Program>,
}

impl Workload {
    /// Compiles both forms of `net` for `cfg`'s architecture.
    ///
    /// # Panics
    ///
    /// Panics on compile errors (bench harness context).
    #[must_use]
    pub fn compile(cfg: &AccelConfig, net: &Network) -> Self {
        let compiler = Compiler::new(cfg.arch);
        let original = Arc::new(compiler.compile(net).expect("compile original"));
        let vi = Arc::new(compiler.compile_vi(net).expect("compile vi"));
        Self { name: net.name.clone(), original, vi }
    }

    /// The program form the given strategy executes.
    #[must_use]
    pub fn for_strategy(&self, strategy: InterruptStrategy) -> Arc<Program> {
        match strategy {
            InterruptStrategy::VirtualInstruction => Arc::clone(&self.vi),
            _ => Arc::clone(&self.original),
        }
    }
}

/// Builds a minimal high-priority "requester" program (its content is
/// irrelevant for latency probing — only the request matters).
#[must_use]
pub fn tiny_requester(cfg: &AccelConfig) -> Arc<Program> {
    let net = zoo::tiny(Shape3::new(3, 16, 16)).expect("tiny net");
    Arc::new(Compiler::new(cfg.arch).compile_vi(&net).expect("compile tiny"))
}

/// Nearest-rank p99 of `values` in integer arithmetic (sorts `values`).
///
/// # Panics
///
/// Panics when `values` is empty.
#[must_use]
pub fn p99(values: &mut [u64]) -> u64 {
    assert!(!values.is_empty(), "p99 of no values");
    values.sort_unstable();
    values[(99 * values.len()).div_ceil(100) - 1]
}

/// `n` deterministic interrupt-request cycles spread over `[lo, hi)`.
#[must_use]
pub fn sample_positions(lo: u64, hi: u64, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut v: Vec<u64> = (0..n).map(|_| rng.gen_range(lo..hi.max(lo + 1))).collect();
    v.sort_unstable();
    v
}

/// Runs the victim under `strategy`, requests the high-priority task at
/// `request_cycle`, runs to completion and returns the (single) interrupt
/// event.
///
/// # Panics
///
/// Panics on simulation errors or if no interrupt occurred (request past
/// the victim's completion).
#[must_use]
pub fn probe_interrupt(
    cfg: &AccelConfig,
    strategy: InterruptStrategy,
    victim: &Workload,
    requester: &Arc<Program>,
    request_cycle: u64,
) -> InterruptEvent {
    let hi = TaskSlot::new(1).expect("slot 1");
    let lo = TaskSlot::new(3).expect("slot 3");
    let mut engine = Engine::new(*cfg, strategy, TimingBackend::new());
    engine.load(hi, Arc::clone(requester)).expect("load hi");
    engine.load(lo, victim.for_strategy(strategy)).expect("load lo");
    engine.request_at(0, lo).expect("request lo");
    engine.request_at(request_cycle, hi).expect("request hi");
    let report = engine.run().expect("run");
    assert_eq!(
        report.interrupts.len(),
        1,
        "expected exactly one interrupt at cycle {request_cycle}"
    );
    report.interrupts[0]
}

/// Outcome of the canonical serve-spans scenario
/// ([`serve_spans_scenario`]).
#[derive(Debug)]
pub struct SpansScenario {
    /// Every trace event the run emitted, in emission order.
    pub events: Vec<TraceEvent>,
    /// Events the ring dropped (0 unless the capacity was exceeded).
    pub dropped: u64,
    /// The accelerator clock, for µs rendering.
    pub clock_hz: u64,
    /// Responses produced (completed requests).
    pub responses: u64,
}

/// The canonical request-span scenario: the hard-lane isolation cell of
/// `fig_serve_load` in miniature. One core serves a hard-deadline tenant
/// probed once per round while a best-effort tenant's batched pairs keep
/// the datapath busy, so every tagged hard request crosses the full
/// lifecycle — queue, batch (for the best-effort pairs), program reload,
/// execution and preemption — and its span breakdown exercises every
/// stage. Fully deterministic: the same `(strategy, trace_sample)` yields
/// byte-identical event streams on any host or thread count, and over
/// the [`Stepped`](inca_accel::Stepped) reference.
///
/// `trace_sample` is the gateway's span-sampling modulus (1 = every
/// request, 0 = spans off); `wrap` builds each core's backend around its
/// timing backend (`|b| b` for the product, `Stepped` for the reference).
///
/// # Panics
///
/// Panics on compile or simulation errors (bench harness context).
#[must_use]
pub fn serve_spans_scenario<B: Backend>(
    strategy: InterruptStrategy,
    trace_sample: u64,
    wrap: fn(TimingBackend) -> B,
) -> SpansScenario {
    let cfg = AccelConfig::paper_big();
    let hard_w = Workload::compile(&cfg, &zoo::tiny(Shape3::new(3, 48, 48)).expect("hard net"));
    let be_w = Workload::compile(&cfg, &zoo::tiny(Shape3::new(3, 96, 96)).expect("be net"));
    let hard_prog = hard_w.for_strategy(strategy);
    let be_prog = be_w.for_strategy(strategy);
    let be_span = analysis::predicted_span(&cfg, &be_prog);

    let pool = CorePool::new(1, cfg, strategy, || wrap(TimingBackend::new()));
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded);
    gw.set_batch_window(be_span / 8);
    gw.set_max_batch(4);
    let (tracer, buf) = Tracer::ring(1 << 16);
    gw.set_probe(tracer.into(), trace_sample);

    let hard = gw.register(
        TenantSpec::new("estop", Arc::clone(&hard_prog))
            .hard(1_000_000_000)
            .queue(8, DropPolicy::Reject),
    );
    let be = gw.register(
        TenantSpec::new("bg", Arc::clone(&be_prog)).weight(3).queue(64, DropPolicy::Reject),
    );

    let rounds = 8u64;
    let gap = be_span * 2;
    let mut now = 0;
    for i in 0..rounds {
        let t0 = i * gap;
        gw.run_until(t0).expect("engine");
        // A best-effort pair early in the round fills a batch buffer...
        let _ = gw.submit(t0 + be_span / 16, be);
        let _ = gw.submit(t0 + be_span / 8, be);
        // ...then the hard probe lands mid-flight and preempts.
        now = t0 + be_span / 2;
        gw.run_until(now).expect("engine");
        gw.submit(now, hard).expect("hard lane admits");
    }
    gw.run_to_idle(now + gap * rounds * 4).expect("engine");
    let responses = gw.drain_responses().len() as u64;
    SpansScenario { dropped: buf.dropped(), events: buf.drain(), clock_hz: cfg.clock_hz, responses }
}

/// Outcome of the canonical timeline scenario
/// ([`serve_timeline_scenario`]).
#[derive(Debug)]
pub struct TimelineRun {
    /// The exported timeline (trailing partial frame flushed).
    pub series: TimeSeries,
    /// metrics-v1 snapshot of the gateway (includes `event.*` and
    /// `timeline.*` counters).
    pub metrics_json: String,
    /// The flight-recorder violation, when one tripped.
    pub violation: Option<Violation>,
    /// Perfetto dump of the frozen recorder window (None = no trip).
    pub chrome_dump: Option<String>,
    /// timeseries-v1 slice of the frozen window, advance columns
    /// stripped (None = no trip).
    pub slice_dump: Option<String>,
    /// Completed responses.
    pub responses: u64,
}

/// The recorder spec the canonical timeline scenario arms: a hard-lane
/// instantaneous queue-depth bound.
pub const TIMELINE_SLO: &str = "hard=depth:4";

/// The canonical cycle-domain timeline scenario: two functional cores
/// behind the gateway, a hard-deadline tenant probed each round while a
/// best-effort tenant's batched pairs keep the datapath busy, with the
/// timeline sampler and flight recorder armed ([`TIMELINE_SLO`]). With
/// `spike`, round 3 injects a burst of hard-lane requests that drives
/// the hard queue depth over the bound — the recorder MUST trip.
///
/// `wrap` builds each core's backend around its functional backend and
/// `func` reaches it again (`|b| b` twice for the product; `Stepped` and
/// `|b| &mut b.0` for the reference).
///
/// Everything returned is deterministic in the cycle domain: the same
/// `(strategy, spike)` yields byte-identical series frames (advance
/// columns excepted against the reference) and byte-identical recorder
/// dumps over either backend and any functional-backend thread count.
///
/// # Panics
///
/// Panics on compile or simulation errors (bench harness context).
#[must_use]
pub fn serve_timeline_scenario<B: Backend>(
    strategy: InterruptStrategy,
    wrap: fn(FuncBackend) -> B,
    func: fn(&mut B) -> &mut FuncBackend,
    threads: usize,
    spike: bool,
) -> TimelineRun {
    let cfg = AccelConfig::paper_small();
    let hard_w = Workload::compile(&cfg, &zoo::tiny(Shape3::new(3, 24, 24)).expect("hard net"));
    let be_w = Workload::compile(&cfg, &zoo::tiny(Shape3::new(3, 48, 48)).expect("be net"));
    let hard_prog = hard_w.for_strategy(strategy);
    let be_prog = be_w.for_strategy(strategy);
    let be_span = analysis::predicted_span(&cfg, &be_prog);
    let interval = (be_span / 8).max(1);

    let pool = CorePool::new(2, cfg, strategy, move || wrap(FuncBackend::with_threads(threads)));
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded);
    gw.set_batch_window(be_span / 8);
    gw.set_max_batch(4);
    let (tracer, buf) = Tracer::ring(1 << 16);
    gw.set_probe(tracer.into(), 0);
    gw.enable_timeline(interval, 4096).arm(FlightRecorder::new(
        vec![SloSpec::parse(TIMELINE_SLO, &[], cfg.clock_hz).expect("timeline slo")],
        4 * interval,
        4 * interval,
    ));

    let hard = gw.register(
        TenantSpec::new("estop", Arc::clone(&hard_prog))
            .hard(1_000_000_000)
            .queue(16, DropPolicy::Reject),
    );
    let be = gw.register(
        TenantSpec::new("bg", Arc::clone(&be_prog)).weight(3).queue(64, DropPolicy::Reject),
    );
    for core in 0..2 {
        for (t, prog) in [(hard, &hard_prog), (be, &be_prog)] {
            func(gw.pool_mut().core_mut(CoreId(core)).backend_mut())
                .install_ctx_image(t.ctx(), DdrImage::for_program(prog, 40 + t.ctx()));
        }
    }

    let rounds = 6u64;
    let gap = be_span * 2;
    let mut now = 0;
    for i in 0..rounds {
        let t0 = i * gap;
        gw.run_until(t0).expect("engine");
        let _ = gw.submit(t0 + be_span / 16, be);
        let _ = gw.submit(t0 + be_span / 8, be);
        now = t0 + be_span / 2;
        gw.run_until(now).expect("engine");
        gw.submit(now, hard).expect("hard lane admits");
        if spike && i == 3 {
            // The injected overload: a burst of hard requests at one
            // cycle drives the hard queue depth over TIMELINE_SLO's
            // bound at the next sample boundary.
            for _ in 0..12 {
                let _ = gw.submit(now, hard);
            }
        }
    }
    gw.run_to_idle(now + gap * rounds * 4).expect("engine");

    let responses = gw.drain_responses().len() as u64;
    let violation = gw.violation().cloned();
    let window = gw.sampler().and_then(|s| s.recorder()).and_then(|r| r.window());
    let series = gw.take_timeline("serve_timeline").expect("timeline enabled");
    let metrics_json = MetricsSnapshot::new("serve_timeline", gw.metrics()).to_json();
    let ring_dropped = buf.dropped();
    let events = buf.drain();
    let (chrome_dump, slice_dump) = match (&violation, window) {
        (Some(v), Some(w)) => (
            Some(timeline::dump_chrome(&events, cfg.clock_hz, v, w, ring_dropped)),
            Some(timeline::dump_slice(&series, w)),
        ),
        _ => (None, None),
    };
    TimelineRun { series, metrics_json, violation, chrome_dump, slice_dump, responses }
}

/// Mean over a slice of cycle counts, in microseconds.
#[must_use]
pub fn mean_us(cfg: &AccelConfig, cycles: &[u64]) -> f64 {
    if cycles.is_empty() {
        return 0.0;
    }
    cfg.cycles_to_us(cycles.iter().sum::<u64>()) / cycles.len() as f64
}

/// Simple fixed-width table printer.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> =
        cells.iter().zip(widths.iter()).map(|(c, w)| format!("{c:>w$}", w = *w)).collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_positions_are_sorted_in_range() {
        let v = sample_positions(100, 1000, 16, 7);
        assert_eq!(v.len(), 16);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        assert!(v.iter().all(|&x| (100..1000).contains(&x)));
        assert_eq!(v, sample_positions(100, 1000, 16, 7));
    }

    #[test]
    fn probe_produces_an_interrupt() {
        let cfg = AccelConfig::paper_small();
        let w = Workload::compile(&cfg, &zoo::tiny(Shape3::new(3, 32, 32)).unwrap());
        let req = tiny_requester(&cfg);
        let span = analysis::predicted_span(&cfg, &w.vi);
        let ev = probe_interrupt(&cfg, InterruptStrategy::VirtualInstruction, &w, &req, span / 2);
        assert!(ev.latency() > 0);
    }

    #[test]
    fn workload_picks_program_by_strategy() {
        let cfg = AccelConfig::paper_small();
        let w = Workload::compile(&cfg, &zoo::tiny(Shape3::new(3, 64, 64)).unwrap());
        assert!(Arc::ptr_eq(&w.for_strategy(InterruptStrategy::VirtualInstruction), &w.vi));
        assert!(Arc::ptr_eq(&w.for_strategy(InterruptStrategy::LayerByLayer), &w.original));
        assert!(w.vi.stats().virtual_instrs > w.original.stats().virtual_instrs);
    }

    #[test]
    fn timeline_scenario_trips_only_with_the_spike() {
        let quiet =
            serve_timeline_scenario(InterruptStrategy::VirtualInstruction, |b| b, |b| b, 1, false);
        assert!(quiet.violation.is_none(), "no spike, no trip: {:?}", quiet.violation);
        assert!(quiet.series.len() > 4, "scenario produces frames");
        assert!(quiet.responses > 0);

        let spiked =
            serve_timeline_scenario(InterruptStrategy::VirtualInstruction, |b| b, |b| b, 1, true);
        let v = spiked.violation.expect("the injected spike must trip the recorder");
        assert_eq!(v.spec, "hard");
        assert!(v.clause.contains("depth"), "{}", v.clause);
        assert!(spiked.chrome_dump.is_some() && spiked.slice_dump.is_some());
    }

    #[test]
    fn mean_us_of_known_values() {
        let cfg = AccelConfig::paper_big();
        assert!((mean_us(&cfg, &[300, 300]) - 1.0).abs() < 1e-9);
        assert_eq!(mean_us(&cfg, &[]), 0.0);
    }
}
