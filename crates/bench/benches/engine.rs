//! Criterion micro-benchmarks of the timing engine: instructions retired
//! per second for an uninterrupted inference on a fresh engine (load + run:
//! the program's cycle table is built by the first iteration and memoised
//! on the program, so after it a load clones two `Arc`s and a run is a
//! table lookup — these time the engine's per-job overhead, not the
//! table build), and for the DSLAM mission's engine
//! shape without the runtime — one loaded engine, GeM/ResNet101 480×640
//! preempted by SuperPoint every 50 ms — where the cost is per scheduling
//! event plus the instructions stepped around each interrupt.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

use inca_accel::{AccelConfig, Engine, InterruptStrategy, TimingBackend};
use inca_bench::{Workload, CAMERA};
use inca_isa::TaskSlot;
use inca_model::{zoo, Shape3};

fn bench_engine(c: &mut Criterion) {
    let cfg = AccelConfig::paper_big();
    let mobilenet = Workload::compile(&cfg, &zoo::mobilenet_v1(Shape3::new(3, 96, 96)).unwrap());
    let resnet = Workload::compile(&cfg, &zoo::resnet18(Shape3::new(3, 96, 96)).unwrap());

    let gem = Workload::compile(&cfg, &zoo::gem_resnet101(CAMERA).unwrap());

    let mut g = c.benchmark_group("engine");
    for (name, w) in
        [("mobilenet_96", &mobilenet), ("resnet18_96", &resnet), ("gem_resnet101_480x640", &gem)]
    {
        g.throughput(Throughput::Elements(w.vi.original_instrs().count() as u64));
        g.bench_function(format!("run_{name}"), |b| {
            b.iter(|| {
                let slot = TaskSlot::LOWEST;
                let mut engine =
                    Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
                engine.load(slot, Arc::clone(&w.vi)).unwrap();
                engine.request_at(0, slot).unwrap();
                engine.run().unwrap().final_cycle
            })
        });
    }

    // The mission's shape: both programs loaded once, every iteration one
    // PR job under a 20 fps FE requester (the engine's logs grow by ~3 KB
    // per iteration, a few tens of MB over the measurement).
    let fe = Workload::compile(&cfg, &zoo::superpoint(Shape3::new(1, 240, 320)).unwrap());
    let (hi, lo) = (TaskSlot::new(1).unwrap(), TaskSlot::LOWEST);
    let mut engine = Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
    engine.load(hi, Arc::clone(&fe.vi)).unwrap();
    engine.load(lo, Arc::clone(&gem.vi)).unwrap();
    let frame = cfg.us_to_cycles(50_000.0);
    let frames = inca_accel::analysis::predicted_span(&cfg, &gem.vi) / frame;
    let per_frame = fe.vi.original_instrs().count() as u64;
    let per_job = gem.vi.original_instrs().count() as u64;
    g.throughput(Throughput::Elements(per_job + frames * per_frame));
    g.bench_function("run_gem_preempted_20fps", |b| {
        b.iter(|| {
            let t0 = engine.now();
            engine.request_at(t0, lo).unwrap();
            for k in 1..=frames {
                engine.request_at(t0 + k * frame, hi).unwrap();
            }
            engine.run_until(u64::MAX).unwrap();
            engine.now()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
