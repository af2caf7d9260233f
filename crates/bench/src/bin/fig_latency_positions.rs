//! E1 / Fig. "barresult(a)": interrupt response latency and extra cost at
//! 12 randomly sampled positions of a ResNet101 (GeM PR backbone) run,
//! 480×640 input, big accelerator (16/16/8) at 300 MHz, under the three
//! interrupt implementations.
//!
//! Also prints E7: the mean VI latency as a fraction of layer-by-layer
//! (the paper's abstract claims ≈2 %).

use inca_accel::analysis::predicted_span;
use inca_accel::{AccelConfig, InterruptStrategy};
use inca_bench::{
    mean_us, print_row, probe_interrupt, sample_positions, tiny_requester, Workload, CAMERA,
};
use inca_model::zoo;

fn main() {
    let cfg = AccelConfig::paper_big();
    println!(
        "E1: interrupt latency & cost at 12 random ResNet101 positions ({} @300 MHz)\n",
        cfg.arch.parallelism
    );
    let net = zoo::resnet101(CAMERA).expect("resnet101");
    let workload = Workload::compile(&cfg, &net);
    let requester = tiny_requester(&cfg);
    let span = predicted_span(&cfg, &workload.original);
    println!(
        "uninterrupted PR inference: {:.1} ms ({} original instructions)\n",
        cfg.cycles_to_ms(span),
        workload.original.len()
    );
    let positions = sample_positions(span / 100, span * 99 / 100, 12, 0xDAC2020);

    let strategies = [
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::VirtualInstruction,
    ];
    let widths = [10usize, 6, 12, 12, 12, 12, 12, 12];
    print_row(
        &[
            "pos(ms)".into(),
            "layer".into(),
            "cpu lat".into(),
            "cpu cost".into(),
            "lbl lat".into(),
            "lbl cost".into(),
            "vi lat".into(),
            "vi cost".into(),
        ],
        &widths,
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));

    let mut lat = [Vec::new(), Vec::new(), Vec::new()];
    let mut cost = [Vec::new(), Vec::new(), Vec::new()];
    for &pos in &positions {
        let mut cells = vec![format!("{:.1}", cfg.cycles_to_ms(pos)), String::new()];
        for (si, &strategy) in strategies.iter().enumerate() {
            let ev = probe_interrupt(&cfg, strategy, &workload, &requester, pos);
            if si == 0 {
                cells[1] = format!("{}", ev.layer);
            }
            cells.push(format!("{:.1}us", cfg.cycles_to_us(ev.latency())));
            cells.push(format!("{:.1}us", cfg.cycles_to_us(ev.cost())));
            lat[si].push(ev.latency());
            cost[si].push(ev.cost());
        }
        print_row(&cells, &widths);
    }

    println!("\nmeans over the 12 positions:");
    for (si, &strategy) in strategies.iter().enumerate() {
        println!(
            "  {:<20} latency {:>9.1} µs   cost {:>9.1} µs",
            strategy.to_string(),
            mean_us(&cfg, &lat[si]),
            mean_us(&cfg, &cost[si]),
        );
    }
    let ratio = mean_us(&cfg, &lat[2]) / mean_us(&cfg, &lat[1]).max(1e-12);
    println!(
        "\nE7: VI mean latency / layer-by-layer mean latency = {:.1}%  (paper: ~2%)",
        ratio * 100.0
    );
    println!("shape checks: CPU-like has the largest cost; layer-by-layer zero cost but");
    println!("largest latency; VI is orders of magnitude lower latency at near-zero cost.");
}
