//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **SAVE-group size** (`max_blobs_per_save`) — larger groups mean
//!    fewer `SAVE`s but bigger `VIR_SAVE` sets at interrupt points
//!    (backup t2 grows with the unsaved prefix).
//! 2. **Loop order** — height-outer keeps input rows resident (restore =
//!    `VIR_LOAD_D`); channel-outer keeps weights resident (restore needs
//!    `VIR_LOAD_W`), trading DDR weight traffic for data traffic.
//! 3. **DDR bandwidth** — sensitivity of the makespan and of interrupt
//!    latency/cost to `AccelConfig::ddr_bytes_per_cycle` (transfers run
//!    one after another, as in the calibration table).

use inca_accel::analysis::predicted_span;
use inca_accel::{AccelConfig, InterruptStrategy};
use inca_bench::{mean_us, probe_interrupt, sample_positions, tiny_requester, Workload};
use inca_compiler::{CompileOptions, Compiler, LoopOrder};
use inca_isa::Shape3;
use inca_model::zoo;
use std::sync::Arc;

fn workload_with(cfg: &AccelConfig, options: CompileOptions) -> Workload {
    let net = zoo::resnet18(Shape3::new(3, 240, 320)).expect("resnet18");
    let compiler = Compiler::with_options(cfg.arch, options);
    Workload {
        name: net.name.clone(),
        original: Arc::new(compiler.compile(&net).expect("compile")),
        vi: Arc::new(compiler.compile_vi(&net).expect("compile vi")),
    }
}

fn probe_stats(cfg: &AccelConfig, w: &Workload) -> (f64, f64, f64) {
    let requester = tiny_requester(cfg);
    let span = predicted_span(cfg, &w.vi);
    let positions = sample_positions(span / 20, span * 19 / 20, 10, 0xAB1A);
    let mut lat = Vec::new();
    let mut t2 = Vec::new();
    let mut t4 = Vec::new();
    for &p in &positions {
        let ev = probe_interrupt(cfg, InterruptStrategy::VirtualInstruction, w, &requester, p);
        lat.push(ev.latency());
        t2.push(ev.t2);
        t4.push(ev.t4);
    }
    (mean_us(cfg, &lat), mean_us(cfg, &t2), mean_us(cfg, &t4))
}

fn main() {
    let cfg = AccelConfig::paper_big();
    println!("ablation 1: SAVE-group size (ResNet18 @240x320, big accelerator, VI)\n");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "group", "instrs", "saves", "latency(us)", "t2(us)", "t4(us)"
    );
    for group in [1u16, 2, 4, 8, 16] {
        let w = workload_with(&cfg, CompileOptions::default().with_max_blobs_per_save(group));
        let saves = w.vi.instrs.iter().filter(|i| i.op == inca_isa::Opcode::Save).count();
        let (lat, t2, t4) = probe_stats(&cfg, &w);
        println!("{group:>6} {:>10} {saves:>10} {lat:>12.1} {t2:>12.1} {t4:>12.1}", w.vi.len());
    }

    println!("\nablation 2: loop order (same network)\n");
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "order", "instrs", "latency(us)", "t2(us)", "t4(us)", "ddr traffic MB"
    );
    for (name, order) in
        [("height-outer", LoopOrder::HeightOuter), ("channel-outer", LoopOrder::ChannelOuter)]
    {
        let w = workload_with(&cfg, CompileOptions::default().with_loop_order(order));
        let (lat, t2, t4) = probe_stats(&cfg, &w);
        println!(
            "{name:>14} {:>10} {lat:>12.1} {t2:>12.1} {t4:>12.1} {:>14.2}",
            w.vi.len(),
            w.original.stats().ddr_bytes as f64 / 1e6
        );
    }

    println!("\nablation 3: DDR bandwidth (default workload)\n");
    println!(
        "{:>14} {:>14} {:>12} {:>12}",
        "bytes/cycle", "predicted_span(ms)", "latency(us)", "cost(us)"
    );
    let w = workload_with(&cfg, CompileOptions::default());
    for bpc in [4u32, 8, 12, 24] {
        let c = AccelConfig { ddr_bytes_per_cycle: bpc, ..cfg };
        let requester = tiny_requester(&c);
        let span = predicted_span(&c, &w.vi);
        let ev =
            probe_interrupt(&c, InterruptStrategy::VirtualInstruction, &w, &requester, span / 3);
        println!(
            "{bpc:>14} {:>14.2} {:>12.1} {:>12.1}",
            c.cycles_to_ms(span),
            c.cycles_to_us(ev.latency()),
            c.cycles_to_us(ev.cost()),
        );
    }
    println!(
        "\nreadings: small SAVE groups bound t2 tightly (fewer unsaved blobs) at the\n\
         price of more SAVE instructions; channel-outer has cheap interrupts (data\n\
         is re-loaded per blob anyway, so restores are nearly free) but nearly 2x\n\
         the steady-state DDR traffic — exactly why Angel-Eye uses height-outer;\n\
         bandwidth moves both the makespan and the interrupt cost."
    );
}
