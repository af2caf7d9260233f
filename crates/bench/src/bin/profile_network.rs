//! Per-layer profiler: where do a network's cycles go on the simulated
//! accelerator? Prints the hottest layers, the opcode breakdown and the
//! compute-array utilisation of a solo run, grouped from the per-instruction
//! charges of `inca_accel::analysis::charges`.
//!
//! ```sh
//! cargo run --release -p inca-bench --bin profile_network -- resnet101
//! ```
//!
//! Pass `--json` to emit a single machine-readable metrics-snapshot line
//! (`inca-obs/metrics-v1`, the schema shared by all bench bins) instead of
//! the human-readable report.

use inca_accel::{analysis, AccelConfig, Engine, InterruptStrategy, TimingBackend};
use inca_bench::{Workload, CAMERA};
use inca_isa::{Opcode, TaskSlot};
use inca_model::{zoo, Network, Shape3};
use inca_obs::MetricsSnapshot;

fn pick(name: &str) -> Network {
    match name {
        "vgg16" => zoo::vgg16(CAMERA, false),
        "superpoint" => zoo::superpoint(Shape3::new(1, CAMERA.h, CAMERA.w)),
        "resnet18" => zoo::resnet18(CAMERA),
        "resnet50" => zoo::resnet50(CAMERA),
        "resnet101" => zoo::resnet101(CAMERA),
        "gem" => zoo::gem_resnet101(CAMERA),
        "mobilenet" => zoo::mobilenet_v1(CAMERA),
        "squeezenet" => zoo::squeezenet(CAMERA),
        _ => zoo::resnet101(CAMERA),
    }
    .expect("zoo network")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let name = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "resnet101".into());
    let cfg = AccelConfig::paper_big();
    let net = pick(&name);
    let workload = Workload::compile(&cfg, &net);
    let slot = TaskSlot::LOWEST;

    let mut engine = Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
    engine.load(slot, workload.vi.clone()).expect("load");
    engine.request_at(0, slot).expect("request");
    let total = engine.run().expect("run").final_cycle;

    let mut per_layer = vec![0u64; workload.vi.layers.len()];
    let mut per_opcode = [0u64; Opcode::ALL.len()];
    for (instr, cycles) in analysis::charges(&cfg, &workload.vi) {
        let op = Opcode::ALL.iter().position(|o| *o == instr.op).expect("known opcode");
        per_layer[usize::from(instr.layer)] += cycles;
        per_opcode[op] += cycles;
    }

    let calc: u64 = Opcode::ALL
        .iter()
        .zip(per_opcode.iter())
        .filter(|(op, _)| op.is_calc())
        .map(|(_, c)| *c)
        .sum();
    let macs_per_s = net.total_macs() as f64 / (total as f64 / cfg.clock_hz as f64);

    if json {
        let mut m = engine.metrics();
        for (op, cycles) in Opcode::ALL.iter().zip(per_opcode.iter()) {
            if *cycles > 0 {
                m.inc(&format!("profile.opcode.{}.cycles", op.mnemonic()), *cycles);
            }
        }
        m.inc("profile.macs", net.total_macs());
        m.set_gauge("profile.calc_occupancy", calc as f64 / total as f64);
        m.set_gauge("profile.gmacs_per_s", macs_per_s / 1e9);
        m.set_gauge("profile.total_ms", cfg.cycles_to_ms(total));
        println!("{}", MetricsSnapshot::new(format!("profile_network/{}", net.name), m).to_json());
        return;
    }

    println!(
        "profile of `{}` at {} ({:.2} GMACs): {:.2} ms total\n",
        net.name,
        CAMERA,
        net.total_macs() as f64 / 1e9,
        cfg.cycles_to_ms(total)
    );

    println!("opcode breakdown:");
    for (op, cycles) in Opcode::ALL.iter().zip(per_opcode.iter()) {
        if *cycles == 0 {
            continue;
        }
        println!(
            "  {:<10} {:>10.2} ms  {:>5.1}%",
            op.mnemonic(),
            cfg.cycles_to_ms(*cycles),
            100.0 * *cycles as f64 / total as f64
        );
    }

    // Utilisation: CALC cycles vs wall clock.
    println!(
        "\ncompute-array occupancy: {:.1}% of wall-clock cycles are CALC",
        100.0 * calc as f64 / total as f64
    );
    println!(
        "effective MAC rate: {:.2} GMAC/s of the array's {:.2} GMAC/s peak\n",
        macs_per_s / 1e9,
        f64::from(cfg.arch.parallelism.pe_count())
            * f64::from(cfg.convolver_kernel as u32 * cfg.convolver_kernel as u32)
            * cfg.clock_hz as f64
            / 1e9
    );

    println!("hottest layers:");
    let mut hottest: Vec<(usize, u64)> = per_layer.into_iter().enumerate().collect();
    hottest.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (layer, cycles) in hottest.into_iter().filter(|&(_, c)| c > 0).take(12) {
        let meta = &workload.vi.layers[layer];
        println!(
            "  {:<22} {:?} {:>14} -> {:<14} {:>9.2} ms  {:>5.1}%",
            meta.name,
            meta.kind,
            meta.in_shape.to_string(),
            meta.out_shape.to_string(),
            cfg.cycles_to_ms(cycles),
            100.0 * cycles as f64 / total as f64
        );
    }
}
