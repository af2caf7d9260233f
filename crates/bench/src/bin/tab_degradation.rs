//! E6: the abstract's claim that "INCA enables multi-task scheduling on
//! the CNN accelerator with negligible performance degradation (within
//! 0.3%)".
//!
//! Setup: one GeM/ResNet101 PR inference (low priority) while SuperPoint
//! FE jobs (high priority) arrive at 20 fps — the DSLAM steady state. The
//! degradation is the extra work the interrupt machinery adds to PR
//! beyond PR's own compute: `Σ(t2 + t4) / PR busy cycles`. The makespan
//! view (PR response minus FE service minus PR compute) is printed too.
//!
//! Pass `--json` for a machine-readable metrics-snapshot line
//! (`inca-obs/metrics-v1`) with per-strategy counters and gauges.

use inca_accel::analysis::predicted_span;
use inca_accel::{AccelConfig, Engine, InterruptStrategy, TimingBackend};
use inca_bench::{Workload, CAMERA};
use inca_isa::{Shape3, TaskSlot};
use inca_model::zoo;
use inca_obs::{Metrics, MetricsSnapshot};

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cfg = AccelConfig::paper_big();
    if !json {
        println!("E6: multi-task scheduling degradation (PR preempted by 20 fps FE)\n");
    }
    // FE on the 2x-downsampled image, as in the DSLAM mission (fits 50 ms).
    let fe_net = zoo::superpoint(Shape3::new(1, 240, 320)).expect("superpoint");
    let pr_net = zoo::gem_resnet101(CAMERA).expect("gem");
    let fe = Workload::compile(&cfg, &fe_net);
    let pr = Workload::compile(&cfg, &pr_net);

    let fe_solo = predicted_span(&cfg, &fe.vi);
    let pr_solo = predicted_span(&cfg, &pr.vi);
    let period = cfg.us_to_cycles(50_000.0);
    if !json {
        println!("FE (SuperPoint) solo: {:>8.2} ms", cfg.cycles_to_ms(fe_solo));
        println!("PR (GeM/ResNet101) solo: {:>5.2} ms", cfg.cycles_to_ms(pr_solo));
        println!("FE duty cycle at 20 fps: {:.0}%\n", 100.0 * fe_solo as f64 / period as f64);
        println!(
            "{:<20} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "strategy", "preempts", "PR resp(ms)", "extra(us)", "degrade%", "makespan-ovh%"
        );
    }
    let mut m = Metrics::new();
    m.inc("fe.solo_cycles", fe_solo);
    m.inc("pr.solo_cycles", pr_solo);
    for strategy in [
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::VirtualInstruction,
    ] {
        let (hi, lo) = (TaskSlot::new(1).expect("slot"), TaskSlot::new(3).expect("slot"));
        let mut engine = Engine::new(cfg, strategy, TimingBackend::new());
        engine.load(hi, fe.for_strategy(strategy)).expect("load fe");
        engine.load(lo, pr.for_strategy(strategy)).expect("load pr");
        engine.request_at(0, lo).expect("pr request");
        // More FE frames than the PR window could need.
        let frames = 2 + 2 * pr_solo / period;
        for f in 0..frames {
            engine.request_at(f * period + 1_000, hi).expect("fe request");
        }
        let report = engine.run().expect("run");
        let pr_job = *report.jobs_of(lo).next().expect("PR completed");
        let fe_busy_in_window: u64 =
            report.jobs_of(hi).filter(|j| j.release < pr_job.finish).map(|j| j.busy_cycles).sum();
        let degrade = 100.0 * pr_job.extra_cost_cycles as f64 / pr_job.busy_cycles as f64;
        let makespan_ovh = 100.0
            * (pr_job.response() as f64 - fe_busy_in_window as f64 - pr_job.busy_cycles as f64)
            / pr_job.busy_cycles as f64;
        m.inc(&format!("{strategy}.preempts"), u64::from(pr_job.preemptions));
        m.inc(&format!("{strategy}.pr_response_cycles"), pr_job.response());
        m.inc(&format!("{strategy}.pr_extra_cycles"), pr_job.extra_cost_cycles);
        m.inc(&format!("{strategy}.pr_busy_cycles"), pr_job.busy_cycles);
        m.set_gauge(&format!("{strategy}.degrade_pct"), degrade);
        m.set_gauge(&format!("{strategy}.makespan_overhead_pct"), makespan_ovh);
        if !json {
            println!(
                "{:<20} {:>10} {:>12.2} {:>12.1} {:>12.3} {:>12.3}",
                strategy.to_string(),
                pr_job.preemptions,
                cfg.cycles_to_ms(pr_job.response()),
                cfg.cycles_to_us(pr_job.extra_cost_cycles),
                degrade,
                makespan_ovh,
            );
        }
    }
    if json {
        println!("{}", MetricsSnapshot::new("tab_degradation", m).to_json());
        return;
    }
    println!("\npaper claim: degradation within 0.3% for the VI method.");
}
