//! E10 / draft figure "t1all vs t1after": the waiting time t1 as a
//! function of *where inside one convolution layer* the interrupt request
//! lands, for the layer-by-layer method vs the VI method.
//!
//! Uses the paper's example medium layer (80×60, Ch_in 48 → Ch_out 32) on
//! the small accelerator; the paper reports the VI waiting time dropping
//! to ≈1.6 % of layer-by-layer on its example layer.
//!
//! Pass `--json` for a machine-readable metrics-snapshot line
//! (`inca-obs/metrics-v1`): the per-position `t1` samples as cycle
//! histograms plus the mean-reduction gauge.

use inca_accel::analysis::predicted_span;
use inca_accel::{AccelConfig, InterruptStrategy};
use inca_bench::{probe_interrupt, tiny_requester, Workload};
use inca_isa::Shape3;
use inca_model::NetworkBuilder;
use inca_obs::{Metrics, MetricsSnapshot};

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cfg = AccelConfig::paper_small();
    let mut b = NetworkBuilder::new("medium", Shape3::new(48, 60, 80));
    let x = b.input_id();
    let c = b.conv("conv", x, 32, 3, 1, 1, true).expect("conv");
    let net = b.finish(vec![c]).expect("net");
    let workload = Workload::compile(&cfg, &net);
    let requester = tiny_requester(&cfg);
    let span = predicted_span(&cfg, &workload.original);
    if !json {
        println!(
            "E10: t1 across interrupt positions inside one conv layer (48ch 80x60 -> 32ch),\n\
             small accelerator; whole layer alone takes {:.2} ms\n",
            cfg.cycles_to_ms(span)
        );
        println!("{:>9} {:>14} {:>12} {:>9}", "pos(%)", "t1 lbl (us)", "t1 vi (us)", "ratio");
    }
    let n = 24;
    let mut sum_lbl = 0u64;
    let mut sum_vi = 0u64;
    let mut m = Metrics::new();
    for i in 0..n {
        let pos = span * (2 * i + 1) / (2 * n);
        let lbl =
            probe_interrupt(&cfg, InterruptStrategy::LayerByLayer, &workload, &requester, pos).t1;
        let vi = probe_interrupt(
            &cfg,
            InterruptStrategy::VirtualInstruction,
            &workload,
            &requester,
            pos,
        )
        .t1;
        sum_lbl += lbl;
        sum_vi += vi;
        m.observe("t1.layer_by_layer_cycles", lbl);
        m.observe("t1.vi_cycles", vi);
        if !json {
            println!(
                "{:>8.1}% {:>14.1} {:>12.1} {:>8.1}%",
                100.0 * pos as f64 / span as f64,
                cfg.cycles_to_us(lbl),
                cfg.cycles_to_us(vi),
                100.0 * vi as f64 / lbl.max(1) as f64,
            );
        }
    }
    if json {
        m.inc("positions", n);
        m.inc("layer.span_cycles", span);
        m.set_gauge("t1.mean_reduction_pct", 100.0 * sum_vi as f64 / sum_lbl as f64);
        println!("{}", MetricsSnapshot::new("fig_t1_sweep", m).to_json());
        return;
    }
    println!(
        "\nmean t1: layer-by-layer {:.1} µs, VI {:.1} µs  ->  mean waiting reduced to {:.1}%",
        cfg.cycles_to_us(sum_lbl / n),
        cfg.cycles_to_us(sum_vi / n),
        100.0 * sum_vi as f64 / sum_lbl as f64
    );
    println!("(paper example figure: reduced to ~1.6%; exact value depends on position,");
    println!(" since layer-by-layer waits for the *remaining* part of the layer.)");
}
