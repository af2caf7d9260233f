//! Differential correctness for the serving gateway: a network served
//! through the full pipeline — admission, batching, placement, per-core
//! slot-virtualizing schedulers, IAU preemption — produces bit-identical
//! outputs to a dedicated, uncontended run, under all three preemptive
//! interrupt strategies, on single- and multi-core pools.
//!
//! Plus the determinism acceptance bar: two identical serving runs
//! export byte-identical Chrome traces and metrics JSON.

use std::sync::Arc;

use inca_accel::analysis::predicted_span;
use inca_accel::{AccelConfig, CorePool, DdrImage, Engine, FuncBackend, InterruptStrategy};
use inca_compiler::Compiler;
use inca_isa::{Program, TaskSlot};
use inca_model::{zoo, Shape3};
use inca_obs::{ChromeTrace, MetricsSnapshot, Tracer};
use inca_serve::{Gateway, PlacePolicy, SchedPolicy, TenantSpec};

fn cfg() -> AccelConfig {
    AccelConfig::paper_small()
}

/// Same distributive input as the accel transparency suite: accumulators
/// stay far from saturation, so tiled and golden sums agree exactly.
fn image_with_input(program: &Program, seed: u64) -> DdrImage {
    let mut img = DdrImage::for_program(program, seed);
    let first = &program.layers[0];
    let n = first.in_shape.bytes();
    let data: Vec<u8> = (0..n).map(|i| ((i * 7 + 3) % 15) as u8).collect();
    img.write(first.input_addr, &data);
    img
}

fn all_outputs(program: &Program, image: &DdrImage) -> Vec<Vec<i8>> {
    program.layers.iter().map(|m| image.read_output(m)).collect()
}

/// The reference: the program on its own engine, its own slot, zero
/// contention.
fn dedicated_run(strategy: InterruptStrategy, program: &Program, seed: u64) -> Vec<Vec<i8>> {
    let slot = TaskSlot::new(3).unwrap();
    let mut backend = FuncBackend::new();
    backend.install_image(slot, image_with_input(program, seed));
    let mut e = Engine::new(cfg(), strategy, backend);
    e.load(slot, program.clone()).unwrap();
    e.request_at(0, slot).unwrap();
    e.run().unwrap();
    all_outputs(program, e.backend().image(slot).unwrap())
}

fn compile(strategy: InterruptStrategy, net: &inca_model::Network) -> Arc<Program> {
    let compiler = Compiler::new(cfg().arch);
    Arc::new(match strategy {
        InterruptStrategy::VirtualInstruction => compiler.compile_vi(net).unwrap(),
        _ => compiler.compile(net).unwrap(),
    })
}

#[test]
fn served_contended_run_is_bit_identical_to_dedicated() {
    let lo_net = zoo::tiny(Shape3::new(3, 32, 32)).unwrap();
    let mid_net = zoo::tiny(Shape3::new(3, 24, 24)).unwrap();
    let hi_net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();

    for strategy in [
        InterruptStrategy::VirtualInstruction,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::CpuLike,
    ] {
        for cores in [1usize, 2] {
            let lo_prog = compile(strategy, &lo_net);
            let mid_prog = compile(strategy, &mid_net);
            let hi_prog = compile(strategy, &hi_net);

            // (name, program, weight, hard, seed) — five tenants.
            let plan: [(&str, &Arc<Program>, u8, bool, u64); 5] = [
                ("bg0", &lo_prog, 3, false, 1_007),
                ("bg1", &lo_prog, 3, false, 2_007),
                ("mid0", &mid_prog, 2, false, 3_007),
                ("mid1", &mid_prog, 2, false, 4_007),
                ("estop", &hi_prog, 0, true, 5_007),
            ];

            let expected: Vec<Vec<Vec<i8>>> = plan
                .iter()
                .map(|(_, program, _, _, seed)| dedicated_run(strategy, program, *seed))
                .collect();

            let pool = CorePool::new(cores, cfg(), strategy, FuncBackend::new);
            let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::LeastLoaded);
            gw.set_batch_window(5_000);
            let tenants: Vec<_> = plan
                .iter()
                .map(|(name, program, weight, hard, _)| {
                    let mut spec = TenantSpec::new(*name, Arc::clone(program)).weight(*weight);
                    if *hard {
                        spec = spec.hard(2_000_000_000);
                    }
                    gw.register(spec)
                })
                .collect();
            // The tenant index is the rebind ctx id on every core: one
            // image install per (core, tenant) covers all placements.
            for core in 0..cores {
                for (t, (_, program, _, _, seed)) in tenants.iter().zip(plan.iter()) {
                    gw.pool_mut()
                        .core_mut(inca_accel::CoreId(core))
                        .backend_mut()
                        .install_ctx_image(t.ctx(), image_with_input(program, *seed));
                }
            }

            // Backgrounds land first (batched together — same network),
            // the mids arrive mid-run, the hard request arrives while the
            // datapath is busy (true IAU preemption through slot 0).
            let span = predicted_span(&cfg(), &lo_prog);
            gw.submit(0, tenants[0]).unwrap();
            gw.submit(0, tenants[1]).unwrap();
            gw.run_until(span / 4).unwrap();
            gw.submit(span / 4, tenants[2]).unwrap();
            gw.submit(span / 4, tenants[3]).unwrap();
            gw.run_until(span / 2).unwrap();
            gw.submit(span / 2, tenants[4]).unwrap();
            gw.run_to_idle(u64::MAX).unwrap();

            let totals = gw.totals();
            assert_eq!(totals.completed, 5, "{strategy}/{cores}c: all five requests completed");
            assert_eq!(gw.outstanding(), 0);
            let responses = gw.drain_responses();
            assert_eq!(responses.len(), 5);
            if cores == 1 {
                let interrupts = gw.pool().core(inca_accel::CoreId(0)).report().interrupts;
                assert!(
                    !interrupts.is_empty(),
                    "{strategy}/1c: the hard request must actually preempt"
                );
            }

            for (i, (name, program, _, _, _)) in plan.iter().enumerate() {
                let resp = responses
                    .iter()
                    .find(|r| r.tenant == tenants[i])
                    .unwrap_or_else(|| panic!("{strategy}/{cores}c: no response for {name}"));
                let core = resp.core.expect("executed requests carry their core");
                let image =
                    gw.pool().core(core).backend().ctx_image(tenants[i].ctx()).unwrap_or_else(
                        || panic!("{strategy}/{cores}c: ctx image for {name} gone"),
                    );
                assert_eq!(
                    all_outputs(program, image),
                    expected[i],
                    "{strategy}/{cores}c: tenant {name} output differs between served and \
                     dedicated runs"
                );
            }
        }
    }
}

/// One full deterministic serving run, returning the exported Chrome
/// trace and metrics JSON.
fn traced_serve_run() -> (String, String) {
    let strategy = InterruptStrategy::VirtualInstruction;
    let program = compile(strategy, &zoo::tiny(Shape3::new(3, 24, 24)).unwrap());
    let hi_prog = compile(strategy, &zoo::tiny(Shape3::new(3, 16, 16)).unwrap());
    let pool = CorePool::new(2, cfg(), strategy, FuncBackend::new);
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::TenantAffinity);
    gw.set_batch_window(20_000);
    gw.set_max_batch(3);
    let (tracer, buf) = Tracer::ring(4096);
    gw.set_probe(tracer.into(), 0);

    let cam = gw.register(TenantSpec::new("camera", Arc::clone(&program)).weight(2));
    let lidar = gw.register(TenantSpec::new("lidar", program).weight(3));
    let estop = gw.register(TenantSpec::new("estop", hi_prog).hard(2_000_000_000));
    for core in gw.pool().core_ids().collect::<Vec<_>>() {
        for t in [cam, lidar, estop] {
            let p = Arc::clone(&gw.spec(t).program);
            gw.pool_mut()
                .core_mut(core)
                .backend_mut()
                .install_ctx_image(t.ctx(), image_with_input(&p, 90 + t.index() as u64));
        }
    }

    let mut now = 0u64;
    for i in 0..12u64 {
        now += 37_000 + (i % 3) * 11_000;
        let tenant = match i % 4 {
            0 | 1 => cam,
            2 => lidar,
            _ => estop,
        };
        let _ = gw.submit(now, tenant);
        gw.run_until(now).unwrap();
    }
    gw.run_to_idle(u64::MAX).unwrap();

    let mut chrome = ChromeTrace::new(cfg().clock_hz as f64 / 1e6);
    chrome.add_process(0, "serve", &buf.snapshot());
    (chrome.finish(), MetricsSnapshot::new("serve_run", gw.metrics()).to_json())
}

#[test]
fn identical_serving_runs_export_byte_identical_artifacts() {
    let (trace_a, metrics_a) = traced_serve_run();
    let (trace_b, metrics_b) = traced_serve_run();
    assert!(!trace_a.is_empty() && trace_a.contains("serve"), "trace has gateway events");
    assert_eq!(trace_a, trace_b, "Chrome trace must be byte-identical across runs");
    assert_eq!(metrics_a, metrics_b, "metrics JSON must be byte-identical across runs");
}
