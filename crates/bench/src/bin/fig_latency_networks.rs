//! E2 / Fig. "barresult(b)": average interrupt response latency of the
//! layer-by-layer method vs the VI method, across networks (ResNet101,
//! VGG16, MobileNetV1 at 480×640) and accelerator sizes (big 16/16/8 and
//! small 8/8/4).
//!
//! Paper shape: layer-by-layer = ms to tens of ms on ResNet/VGG and ~1 ms
//! on MobileNet; VI < 100 µs on the big accelerator — a 2–3
//! order-of-magnitude reduction, consistent with Eq. 1.

use inca_accel::analysis::predicted_span;
use inca_accel::{AccelConfig, InterruptStrategy};
use inca_bench::{
    mean_us, print_row, probe_interrupt, sample_positions, tiny_requester, Workload, CAMERA,
};
use inca_model::zoo;

fn main() {
    let positions_n = 12;
    let widths = [12usize, 12, 14, 14, 12];
    println!("E2: mean interrupt response latency, layer-by-layer vs VI\n");
    print_row(
        &[
            "network".into(),
            "accel".into(),
            "lbl mean".into(),
            "vi mean".into(),
            "reduction".into(),
        ],
        &widths,
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));

    for cfg in [AccelConfig::paper_big(), AccelConfig::paper_small()] {
        for (name, net) in [
            ("resnet101", zoo::resnet101(CAMERA).expect("resnet101")),
            ("vgg16", zoo::vgg16(CAMERA, false).expect("vgg16")),
            ("mobilenet", zoo::mobilenet_v1(CAMERA).expect("mobilenet")),
        ] {
            let workload = Workload::compile(&cfg, &net);
            let requester = tiny_requester(&cfg);
            let span = predicted_span(&cfg, &workload.original);
            let positions =
                sample_positions(span / 100, span * 99 / 100, positions_n, 0xBA5E + span);
            let mut lbl = Vec::new();
            let mut vi = Vec::new();
            for &p in &positions {
                lbl.push(
                    probe_interrupt(
                        &cfg,
                        InterruptStrategy::LayerByLayer,
                        &workload,
                        &requester,
                        p,
                    )
                    .latency(),
                );
                vi.push(
                    probe_interrupt(
                        &cfg,
                        InterruptStrategy::VirtualInstruction,
                        &workload,
                        &requester,
                        p,
                    )
                    .latency(),
                );
            }
            let (ml, mv) = (mean_us(&cfg, &lbl), mean_us(&cfg, &vi));
            print_row(
                &[
                    name.into(),
                    cfg.arch.parallelism.to_string(),
                    format!("{:.2} ms", ml / 1e3),
                    format!("{mv:.1} µs"),
                    format!("{:.0}x", ml / mv.max(1e-9)),
                ],
                &widths,
            );
        }
    }
    println!("\npaper shape: LbL ms–tens of ms (ResNet/VGG), ~1 ms (MobileNet);");
    println!("VI < 100 µs on the big accelerator; 2–3 orders of magnitude reduction.");
}
