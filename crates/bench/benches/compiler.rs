//! Criterion micro-benchmarks of the compiler pipeline: lowering + code
//! generation, and the VI insertion pass.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use inca_accel::AccelConfig;
use inca_compiler::{vi, Compiler};
use inca_model::{zoo, Shape3};

fn bench_compiler(c: &mut Criterion) {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    let tiny = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let mobilenet = zoo::mobilenet_v1(Shape3::new(3, 96, 96)).unwrap();
    let resnet = zoo::resnet18(Shape3::new(3, 96, 96)).unwrap();

    let mut g = c.benchmark_group("compiler");
    g.bench_function("compile_tiny", |b| {
        b.iter(|| black_box(compiler.compile(black_box(&tiny)).unwrap()))
    });
    g.bench_function("compile_mobilenet_96", |b| {
        b.iter(|| black_box(compiler.compile(black_box(&mobilenet)).unwrap()))
    });
    g.bench_function("compile_resnet18_96", |b| {
        b.iter(|| black_box(compiler.compile(black_box(&resnet)).unwrap()))
    });

    let original = compiler.compile(&resnet).unwrap();
    g.bench_function("vi_pass_resnet18_96", |b| {
        b.iter(|| {
            black_box(
                vi::vi_pass(black_box(&original), compiler.arch(), compiler.options()).unwrap(),
            )
        })
    });
    // The mission's own PR program: the largest stream the VI pass sees.
    let gem = zoo::gem_resnet101(Shape3::new(3, 480, 640)).unwrap();
    let original = compiler.compile(&gem).unwrap();
    g.bench_function("vi_pass_gem_resnet101_480x640", |b| {
        b.iter(|| {
            black_box(
                vi::vi_pass(black_box(&original), compiler.arch(), compiler.options()).unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_compiler);
criterion_main!(benches);
