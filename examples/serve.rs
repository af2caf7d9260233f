//! Inference serving on a multi-core INCA pool: priority lanes,
//! batching, backpressure.
//!
//! A [`inca::serve::Gateway`] fronts a 2-core accelerator pool. Three
//! tenants share it: a camera and a lidar stream in the best-effort lane
//! (coalesced into batches, stale frames dropped under backpressure) and
//! an emergency-stop network in the hard lane (bypasses batching, binds
//! the reserved slot 0 and preempts running work through the IAU's
//! virtual-instruction machinery).
//!
//! The gateway runs in-process on the virtual clock — same inputs, same
//! cycle counts, every run.
//!
//! Pass `--trace-sample N` to record request-scoped causal spans for
//! every request whose id is divisible by N (1 = all) and print the
//! per-stage latency breakdown — the "explain a slow request" workflow
//! from the README.
//!
//! ```sh
//! cargo run --release --example serve
//! cargo run --release --example serve -- --trace-sample 1  # span breakdowns
//! ```

use std::sync::Arc;

use inca::accel::{AccelConfig, CorePool, InterruptStrategy, TimingBackend};
use inca::compiler::Compiler;
use inca::model::{zoo, Shape3};
use inca::obs::{Analyzer, Tracer};
use inca::serve::{DropPolicy, Gateway, PlacePolicy, SchedPolicy, TenantId, TenantSpec};

fn build_gateway() -> Result<(Gateway<TimingBackend>, [TenantId; 3]), Box<dyn std::error::Error>> {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    let cam_net = Arc::new(compiler.compile_vi(&zoo::tiny(Shape3::new(3, 48, 48))?)?);
    let estop_net = Arc::new(compiler.compile_vi(&zoo::tiny(Shape3::new(3, 24, 24))?)?);

    let pool = CorePool::new(2, cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new);
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::TenantAffinity);

    // Camera frames: a stale frame is worthless — drop the oldest queued
    // one instead of refusing the new one. Lidar degrades to a skip.
    let camera = gw.register(
        TenantSpec::new("camera", Arc::clone(&cam_net)).weight(2).queue(4, DropPolicy::DropOldest),
    );
    let lidar = gw
        .register(TenantSpec::new("lidar", cam_net).weight(3).queue(2, DropPolicy::DegradeToSkip));
    // The emergency stop: hard lane, generous absolute deadline; its
    // arrival preempts best-effort work instead of queueing behind it.
    let estop = gw.register(TenantSpec::new("estop", estop_net).hard(50_000_000));
    Ok((gw, [camera, lidar, estop]))
}

fn report(gw: &Gateway<TimingBackend>, tenants: &[TenantId; 3]) {
    println!("\ndeterministic: per-tenant accounting");
    println!(
        "{:>8} {:>10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
        "tenant", "lane", "subm", "done", "rej", "shed", "drop", "skip", "dl miss"
    );
    for &t in tenants {
        let spec = gw.spec(t);
        let s = gw.stats(t);
        println!(
            "{:>8} {:>10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
            spec.name,
            spec.lane.to_string(),
            s.submitted,
            s.completed,
            s.rejected,
            s.shed,
            s.dropped,
            s.skipped,
            s.deadline_missed,
        );
    }
}

/// Serves 40 sensor frames and one emergency stop, advancing the
/// gateway's virtual clock itself (`now`).
fn run_deterministic(trace_sample: u64) -> Result<(), Box<dyn std::error::Error>> {
    let (mut gw, tenants) = build_gateway()?;
    let [camera, lidar, estop] = tenants;
    let buf = (trace_sample > 0).then(|| {
        let (tracer, buf) = Tracer::ring(1 << 16);
        gw.set_probe(tracer.into(), trace_sample);
        buf
    });

    // 40 sensor frames; an emergency fires a third of the way in.
    let mut now = 0u64;
    for i in 0..40u64 {
        now += 120_000 + (i % 5) * 30_000;
        let _ = gw.submit(now, if i % 3 == 2 { lidar } else { camera });
        if i == 13 {
            gw.submit(now, estop).expect("the hard lane admits the emergency");
        }
        gw.run_until(now)?;
    }
    gw.run_to_idle(now + 10_000_000_000)?;

    let responses = gw.drain_responses();
    let estop_resp = responses.iter().find(|r| r.tenant == estop).expect("estop completed");
    println!(
        "deterministic: {} responses; estop latency {} cycles (met deadline: {}), \
         batched best-effort dispatches: {}",
        responses.len(),
        estop_resp.latency(),
        estop_resp.met(),
        responses.iter().filter(|r| r.batched > 1).count(),
    );
    report(&gw, &tenants);
    if let Some(buf) = buf {
        if buf.dropped() > 0 {
            eprintln!(
                "WARNING: trace ring overflowed — {} event(s) dropped; span \
                 breakdowns below cover an INCOMPLETE trace",
                buf.dropped()
            );
        }
        let mut analyzer = Analyzer::new();
        analyzer.consume(&buf.drain());
        println!("\nrequest spans (1/{trace_sample} sampled):");
        print!("{}", analyzer.spans.render(AccelConfig::paper_big().clock_hz));
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let trace_sample = args
        .iter()
        .position(|a| a == "--trace-sample")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    run_deterministic(trace_sample)
}
