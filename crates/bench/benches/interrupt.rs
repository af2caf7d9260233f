//! Criterion micro-benchmarks of the interrupt machinery: one full
//! preempt-and-resume under each strategy.

use criterion::{criterion_group, criterion_main, Criterion};

use inca_accel::analysis::predicted_span;
use inca_accel::{AccelConfig, InterruptStrategy};
use inca_bench::{probe_interrupt, tiny_requester, Workload};
use inca_model::{zoo, Shape3};

fn bench_interrupt(c: &mut Criterion) {
    let cfg = AccelConfig::paper_big();
    let victim = Workload::compile(&cfg, &zoo::mobilenet_v1(Shape3::new(3, 96, 96)).unwrap());
    let requester = tiny_requester(&cfg);
    let span = predicted_span(&cfg, &victim.original);

    let mut g = c.benchmark_group("interrupt");
    for strategy in [
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::VirtualInstruction,
    ] {
        g.bench_function(format!("preempt_resume_{strategy}"), |b| {
            b.iter(|| probe_interrupt(&cfg, strategy, &victim, &requester, span / 2).latency())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_interrupt);
criterion_main!(benches);
