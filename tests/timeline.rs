//! The timeline acceptance bar (DESIGN.md §5.9): cycle-domain frames
//! are pure functions of the virtual clock, so the sampled series, the
//! flight-recorder dumps and the metrics snapshot must be
//! **byte-identical** across repeat runs and FuncBackend thread counts,
//! under every interrupt strategy, for the product and for the [`Stepped`]
//! reference. Between the two the only permitted difference is *work*:
//! the `advance.*` columns (and the `event.*` counters they reconcile
//! with) may differ, so the advance-stripped series and the recorder
//! dumps — which strip them by construction — must match to the byte.
//!
//! A property test closes the accounting loop: summing per-frame counter
//! deltas over any observation stream reproduces the final cumulative
//! snapshot, and gauge columns end on the final instantaneous value.

use inca::accel::{Backend, FuncBackend, InterruptStrategy, Stepped};
use inca::obs::analyze::SloSpec;
use inca::obs::{CoreObs, Metrics, MetricsSnapshot, Observation, Sampler, TenantObs, TimeSeries};
use inca_bench::{serve_timeline_scenario, TimelineRun, TIMELINE_SLO};
use proptest::prelude::*;

mod common;

fn prop_cases(default_cases: u32) -> ProptestConfig {
    let cases =
        std::env::var("INCA_PROP_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

/// Everything a run exports, as bytes.
fn exported(run: &TimelineRun) -> (String, Option<String>, Option<String>, String) {
    (
        run.series.to_json(),
        run.chrome_dump.clone(),
        run.slice_dump.clone(),
        run.metrics_json.clone(),
    )
}

/// The advance-stripped exports of one base run.
type Stripped = (String, Option<String>, Option<String>);

/// Repeat runs and thread counts must reproduce every export
/// byte-for-byte (including the `advance.*` columns) over one backend
/// type; returns the base run's advance-stripped series and dumps.
fn assert_repeatable<B: Backend>(
    strategy: InterruptStrategy,
    wrap: fn(FuncBackend) -> B,
    func: fn(&mut B) -> &mut FuncBackend,
) -> Stripped {
    let what = if B::STEPPED { "Stepped" } else { "product" };
    let base = serve_timeline_scenario(strategy, wrap, func, 1, true);
    let repeat = serve_timeline_scenario(strategy, wrap, func, 1, true);
    assert_eq!(exported(&base), exported(&repeat), "{strategy}/{what}: repeat run differs");
    let threaded = serve_timeline_scenario(strategy, wrap, func, 4, true);
    assert_eq!(
        exported(&base),
        exported(&threaded),
        "{strategy}/{what}: 4-thread FuncBackend differs from 1-thread"
    );

    let v = base
        .violation
        .as_ref()
        .unwrap_or_else(|| panic!("{strategy}/{what}: injected spike did not trip the recorder"));
    assert_eq!(v.spec, "hard");
    assert!(v.clause.contains("depth"), "unexpected clause {:?}", v.clause);
    assert!(base.chrome_dump.is_some() && base.slice_dump.is_some());

    common::assert_well_formed(&base.series.to_json(), base.series.tenants());

    (base.series.without_advance().to_json(), base.chrome_dump, base.slice_dump)
}

/// The full determinism matrix for one strategy: each backend type is
/// repeatable, and the product agrees with the [`Stepped`] reference on
/// the advance-stripped series and on both recorder dumps.
fn assert_matrix(strategy: InterruptStrategy) {
    let product = assert_repeatable(strategy, |b| b, |b| b);
    let reference = assert_repeatable(strategy, Stepped, |b| &mut b.0);
    assert_eq!(
        product, reference,
        "{strategy}: product and Stepped reference differ beyond advance.* columns"
    );
}

#[test]
fn timeline_matrix_non_preemptive() {
    assert_matrix(InterruptStrategy::NonPreemptive);
}

#[test]
fn timeline_matrix_cpu_like() {
    assert_matrix(InterruptStrategy::CpuLike);
}

#[test]
fn timeline_matrix_layer_by_layer() {
    assert_matrix(InterruptStrategy::LayerByLayer);
}

#[test]
fn timeline_matrix_virtual_instruction() {
    assert_matrix(InterruptStrategy::VirtualInstruction);
}

/// The scenario's own metrics snapshot reconciles with the series: the
/// cumulative `event.*` counters equal the summed `advance.*` frame
/// deltas, and the `timeline.*` bookkeeping counters match the ring.
#[test]
fn scenario_columns_reconcile_with_the_metrics_snapshot() {
    let run = serve_timeline_scenario(InterruptStrategy::VirtualInstruction, |b| b, |b| b, 1, true);
    let snap = MetricsSnapshot::from_json(&run.metrics_json).expect("metrics-v1");
    let sum = |col: &str| run.series.column(col).expect(col).iter().sum::<u64>();
    assert_eq!(snap.metrics.counter("event.barriers"), sum("advance.barriers"));
    assert_eq!(snap.metrics.counter("event.wakes"), sum("advance.wakes"));
    assert_eq!(snap.metrics.counter("event.skips"), sum("advance.skips"));
    assert_eq!(snap.metrics.counter("timeline.frames"), run.series.len() as u64);
    assert_eq!(snap.metrics.counter("timeline.dropped"), run.series.dropped);
    assert_eq!(snap.metrics.counter("timeline.recorder.tripped"), 1);
}

/// The exported series' evaluator and the live flight recorder apply one
/// rule: on the spiked scenario the first frame `eval_spec` fails is the
/// boundary the recorder tripped at, for the product and the reference.
#[test]
fn eval_spec_fails_first_at_the_recorder_violation() {
    for strategy in [InterruptStrategy::VirtualInstruction, InterruptStrategy::LayerByLayer] {
        let product = serve_timeline_scenario(strategy, |b| b, |b| b, 1, true);
        let reference = serve_timeline_scenario(strategy, Stepped, |b| &mut b.0, 1, true);
        for (run, what) in [(product, "product"), (reference, "Stepped")] {
            let series = &run.series;
            assert_eq!(series.dropped, 0, "{strategy}/{what}: frames were evicted");
            let spec = SloSpec::parse(TIMELINE_SLO, &[], series.clock_hz).expect("timeline slo");
            let first_fail = series.eval_spec(&spec).iter().position(|ok| !ok);
            let violation = run.violation.as_ref().expect("the spike trips the recorder");
            assert_eq!(
                first_fail.map(|i| series.cycles[i]),
                Some(violation.cycle),
                "{strategy}/{what}"
            );
        }
    }
}

/// `slice` (the window the slice dump exports) partitions the series:
/// two adjacent windows hold every frame once, and their column deltas
/// add back to the whole series'.
#[test]
fn adjacent_slices_partition_the_series() {
    let run = serve_timeline_scenario(InterruptStrategy::VirtualInstruction, |b| b, |b| b, 1, true);
    let whole = &run.series;
    assert!(whole.len() >= 2, "the scenario samples more than one frame");
    let mid = whole.cycles[whole.len() / 2];
    let (lo, hi) = (whole.slice(0, mid), whole.slice(mid + 1, u64::MAX));
    assert_eq!(lo.len() + hi.len(), whole.len());
    assert_eq!(lo.cycles.last(), Some(&mid));
    assert_eq!([&lo.cycles[..], &hi.cycles[..]].concat(), whole.cycles);
    for (name, col) in &whole.columns {
        let sum = |s: &TimeSeries| s.column(name).expect("column").iter().sum::<u64>();
        assert_eq!(sum(&lo) + sum(&hi), col.iter().sum::<u64>(), "{name}");
    }
    assert_eq!((lo.cores(), lo.tenants()), (whole.cores(), whole.tenants()));
    common::assert_well_formed(&hi.to_json(), hi.tenants());
}

/// Step layout for the property test: 17 small increments per step.
/// Indices 0-3 drive the two cores' cumulative busy/reload counters;
/// 4/9 and 5/10 are the tenants' instantaneous gauges; the rest are
/// cumulative tenant counters and advance counters.
fn obs_from(cycle: u64, cum: &[u64], raw: &[u64]) -> Observation {
    Observation {
        cycle,
        cores: vec![
            CoreObs { busy_cycles: cum[0], reload_cycles: cum[1] },
            CoreObs { busy_cycles: cum[2], reload_cycles: cum[3] },
        ],
        tenants: vec![
            TenantObs {
                hard: true,
                queue_depth: raw[4],
                outstanding: raw[5],
                missed: cum[6],
                shed: cum[7],
                completed: cum[8],
            },
            TenantObs {
                hard: false,
                queue_depth: raw[9],
                outstanding: raw[10],
                missed: cum[11],
                shed: cum[12],
                completed: cum[13],
            },
        ],
        barriers: cum[14],
        wakes: cum[15],
        skips: cum[16],
    }
}

proptest! {
    #![proptest_config(prop_cases(48))]

    /// Summing a column's per-frame deltas over ANY observation stream
    /// reproduces the final cumulative snapshot; gauge columns carry the
    /// final instantaneous value in their last frame.
    #[test]
    fn frame_deltas_reconcile_with_the_final_snapshot(
        interval in 1u64..=64,
        steps in prop::collection::vec(
            (1u64..=40, prop::collection::vec(0u64..=5, 17..18)),
            1..40,
        ),
    ) {
        let mut sampler = Sampler::new(interval, 4096);
        let mut cum = vec![0u64; 17];
        let mut cycle = 0u64;
        let mut last_raw = vec![0u64; 17];
        for (gap, raw) in &steps {
            cycle += gap;
            for (c, r) in cum.iter_mut().zip(raw) {
                *c += r;
            }
            sampler.record(obs_from(cycle, &cum, raw));
            last_raw.clone_from(raw);
        }
        sampler.flush(obs_from(cycle + 1, &cum, &last_raw));
        let series = sampler.series("prop", 1_000_000);
        prop_assert_eq!(series.dropped, 0);

        // The "final metrics snapshot": the cumulative counters as a
        // gateway would report them at the end of the run.
        let mut m = Metrics::new();
        let names = [
            ("core0.busy", 0usize), ("core0.reload_cycles", 1),
            ("core1.busy", 2), ("core1.reload_cycles", 3),
            ("tenant0.missed", 6), ("tenant0.shed", 7), ("tenant0.completed", 8),
            ("tenant1.missed", 11), ("tenant1.shed", 12), ("tenant1.completed", 13),
            ("advance.barriers", 14), ("advance.wakes", 15), ("advance.skips", 16),
        ];
        for (name, idx) in names {
            m.inc(name, cum[idx]);
        }
        for (name, _) in names {
            let col = series.column(name).expect(name);
            prop_assert_eq!(
                col.iter().sum::<u64>(),
                m.counter(name),
                "column {} does not reconcile", name
            );
        }
        for (name, idx) in
            [("tenant0.queue_depth", 4usize), ("tenant0.outstanding", 5),
             ("tenant1.queue_depth", 9), ("tenant1.outstanding", 10)]
        {
            let col = series.column(name).expect(name);
            prop_assert_eq!(*col.last().unwrap(), last_raw[idx], "gauge {}", name);
        }
    }
}
