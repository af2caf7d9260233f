//! Tiered-execution equivalence figure: a contended two-slot functional
//! engine run — a MobileNetV1 background task preempted twice by a
//! high-priority CNN — replayed under every interrupt strategy on both
//! execution tiers (Tier-0 per-instruction stepping,
//! `Engine<Stepped<FuncBackend>>`, vs Tier-1 trace-compiled layer programs,
//! `Engine<FuncBackend>`).
//!
//! Everything reported is cycle-domain and therefore deterministic: final
//! cycle, interrupt count, completed jobs, per-slot DDR bytes written, an
//! FNV-1a digest of every layer output, the Tier-1 compile/deopt/exec
//! counters, and — the acceptance shape — a per-strategy `divergence`
//! counter that is **0** iff the two tiers produced bit-identical worlds.
//! The regression gate compares these exactly, so any future change that
//! breaks tier equivalence (or silently stops engaging the fused path)
//! trips CI.
//!
//! Pass `--json` to emit a single machine-readable metrics-snapshot line
//! (`inca-obs/metrics-v1`) instead of the table.

use inca_accel::{
    AccelConfig, Backend, DdrImage, Engine, FuncBackend, InterruptStrategy, Program, Stepped,
    TaskSlot, TimingBackend,
};
use inca_compiler::Compiler;
use inca_model::{zoo, Shape3};
use inca_obs::{Metrics, MetricsSnapshot};

const STRATEGIES: [InterruptStrategy; 4] = [
    InterruptStrategy::NonPreemptive,
    InterruptStrategy::CpuLike,
    InterruptStrategy::LayerByLayer,
    InterruptStrategy::VirtualInstruction,
];

/// What one engine run leaves behind, reduced to exact cycle-domain facts.
struct Outcome {
    final_cycle: u64,
    interrupts: u64,
    jobs: u64,
    bytes: [u64; 2],
    digest: u64,
    tier1: Metrics,
}

fn image_for(program: &Program, seed: u64) -> DdrImage {
    let mut img = DdrImage::for_program(program, seed);
    let first = &program.layers[0];
    let n = first.in_shape.bytes();
    let data: Vec<u8> = (0..n).map(|i| ((i * 7 + 3) % 15) as u8).collect();
    img.write(first.input_addr, &data);
    img
}

/// FNV-1a over every layer output of both tasks — one number that moves
/// if any output byte moves.
fn fnv1a(digest: &mut u64, bytes: &[i8]) {
    for &b in bytes {
        *digest ^= u64::from(b as u8);
        *digest = digest.wrapping_mul(0x100_0000_01b3);
    }
}

/// One contended run on the tier `wrap` selects: the identity for Tier-1,
/// [`Stepped`] for Tier-0 (`func` reaches the functional backend inside).
fn run<B: Backend>(
    wrap: fn(FuncBackend) -> B,
    func: fn(&B) -> &FuncBackend,
    strategy: InterruptStrategy,
    lo: &Program,
    hi: &Program,
    span: u64,
) -> Outcome {
    let (lo_slot, hi_slot) = (TaskSlot::new(3).unwrap(), TaskSlot::new(1).unwrap());
    let mut backend = FuncBackend::with_threads(1);
    backend.install_image(lo_slot, image_for(lo, 0xF1C5));
    backend.install_image(hi_slot, image_for(hi, 0x0DDC));
    let mut e = Engine::new(AccelConfig::paper_small(), strategy, wrap(backend));
    e.load(lo_slot, lo.clone()).unwrap();
    e.load(hi_slot, hi.clone()).unwrap();
    e.request_at(0, lo_slot).unwrap();
    e.request_at(span / 3, hi_slot).unwrap();
    e.request_at(span * 2 / 3, hi_slot).unwrap();
    let report = e.run().unwrap();

    let backend = func(e.backend());
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (p, s) in [(lo, lo_slot), (hi, hi_slot)] {
        let img = backend.image(s).unwrap();
        for m in &p.layers {
            fnv1a(&mut digest, &img.read_output(m));
        }
    }
    Outcome {
        final_cycle: report.final_cycle,
        interrupts: report.interrupts.len() as u64,
        jobs: report.completed_jobs.len() as u64,
        bytes: [backend.bytes_written(lo_slot), backend.bytes_written(hi_slot)],
        digest,
        tier1: backend.metrics(),
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let c = Compiler::new(AccelConfig::paper_small().arch);
    // MobileNetV1 covers Conv, DwConv, Pool, GlobalPool and FC plans.
    let lo = c.compile_vi(&zoo::mobilenet_v1(Shape3::new(3, 16, 16)).unwrap()).unwrap();
    let hi = c.compile_vi(&zoo::tiny(Shape3::new(3, 12, 12)).unwrap()).unwrap();

    // Uncontended makespan of the background task, to place the two
    // preemption points mid-network (cost is address-independent, so the
    // timing backend predicts the functional engines' clock).
    let span = {
        let slot = TaskSlot::LOWEST;
        let mut e = Engine::new(
            AccelConfig::paper_small(),
            InterruptStrategy::VirtualInstruction,
            TimingBackend::new(),
        );
        e.load(slot, lo.clone()).unwrap();
        e.request_at(0, slot).unwrap();
        e.run().unwrap().completed_jobs[0].finish
    };

    let mut m = Metrics::new();
    let mut rows = Vec::new();
    for strategy in STRATEGIES {
        let t0 = run(Stepped, |b| &b.0, strategy, &lo, &hi, span);
        let t1 = run(|b| b, |b| b, strategy, &lo, &hi, span);
        assert_eq!(t0.tier1.counter("tier1.exec_layers"), 0, "{strategy}: Tier-0 fused a layer");
        let divergence = u64::from(
            t0.final_cycle != t1.final_cycle
                || t0.interrupts != t1.interrupts
                || t0.jobs != t1.jobs
                || t0.bytes != t1.bytes
                || t0.digest != t1.digest,
        );
        let k = format!("{strategy}.");
        m.inc(&format!("{k}final_cycle"), t1.final_cycle);
        m.inc(&format!("{k}interrupts"), t1.interrupts);
        m.inc(&format!("{k}jobs"), t1.jobs);
        m.inc(&format!("{k}bytes_lo"), t1.bytes[0]);
        m.inc(&format!("{k}bytes_hi"), t1.bytes[1]);
        m.inc(&format!("{k}digest"), t1.digest);
        m.inc(&format!("{k}tier1.exec_layers"), t1.tier1.counter("tier1.exec_layers"));
        m.inc(&format!("{k}tier1.deopt_layers"), t1.tier1.counter("tier1.deopt_layers"));
        m.inc(&format!("{k}tier1.deopt_dynamic"), t1.tier1.counter("tier1.deopt_dynamic"));
        m.inc(&format!("{k}divergence"), divergence);
        rows.push((strategy, t0, t1, divergence));
    }

    if json {
        println!("{}", MetricsSnapshot::new("fig_func_tiers", m).to_json());
        return;
    }

    println!(
        "tiered execution under contention: MobileNetV1 (slot 3) preempted twice by a\n\
         high-priority CNN (slot 1), per interrupt strategy, Tier-0 stepping vs Tier-1\n\
         trace-compiled layer programs (span = {span} cycles)\n"
    );
    println!(
        "{:>20} {:>12} {:>10} {:>5} {:>11} {:>13} {:>11} {:>7} {:>9}",
        "strategy",
        "final cycle",
        "interrupts",
        "jobs",
        "bytes lo/hi",
        "digest",
        "fused lyrs",
        "deopts",
        "diverge"
    );
    for (strategy, _t0, t1, divergence) in &rows {
        println!(
            "{:>20} {:>12} {:>10} {:>5} {:>11} {:>13x} {:>11} {:>7} {:>9}",
            strategy.to_string(),
            t1.final_cycle,
            t1.interrupts,
            t1.jobs,
            format!("{}/{}", t1.bytes[0], t1.bytes[1]),
            t1.digest,
            t1.tier1.counter("tier1.exec_layers"),
            t1.tier1.counter("tier1.deopt_layers") + t1.tier1.counter("tier1.deopt_dynamic"),
            divergence,
        );
    }
    println!(
        "\npaper shape: divergence = 0 under every strategy — the compiled tier is\n\
         observationally identical to the interpreter, including mid-layer preemption."
    );
}
