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
//! Default mode is the in-process deterministic frontend on the virtual
//! clock — same inputs, same cycle counts, every run. Pass `--live` to
//! serve the same workload through the thread-based frontend instead
//! (bounded command channel, responses fanning out over a bounded bus).
//!
//! Pass `--trace-sample N` (deterministic mode) to record request-scoped
//! causal spans for every request whose id is divisible by N (1 = all)
//! and print the per-stage latency breakdown — the "explain a slow
//! request" workflow from the README.
//!
//! Pass `--live --watch` for the top-like dashboard: the gateway samples
//! a cycle-domain timeline and the client periodically renders per-lane
//! queue-depth sparklines from [`inca::serve::LiveServer::snapshot`].
//!
//! ```sh
//! cargo run --release --example serve                      # deterministic
//! cargo run --release --example serve -- --live            # thread-based
//! cargo run --release --example serve -- --live --watch    # live dashboard
//! cargo run --release --example serve -- --trace-sample 1  # span breakdowns
//! ```

use std::sync::Arc;

use inca::accel::{AccelConfig, CorePool, InterruptStrategy, TimingBackend};
use inca::compiler::Compiler;
use inca::model::{zoo, Shape3};
use inca::obs::{Analyzer, Tracer};
use inca::serve::{
    DropPolicy, Gateway, LiveConfig, LiveServer, PlacePolicy, SchedPolicy, TenantId, TenantSpec,
    TenantSummary,
};

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

fn report(name: &str, gw: &Gateway<TimingBackend>, tenants: &[TenantId; 3]) {
    println!("\n{name}: per-tenant accounting");
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

/// The deterministic frontend: the caller owns the virtual clock.
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
    report("deterministic", &gw, &tenants);
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

/// The per-lane summary for the live frontend, printed from snapshot or
/// report data so it is available on every exit path.
fn report_live(name: &str, tenants: &[TenantSummary]) {
    println!("\n{name}: per-tenant accounting");
    println!(
        "{:>8} {:>10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
        "tenant", "lane", "subm", "done", "rej", "shed", "drop", "skip", "dl miss"
    );
    for t in tenants {
        let lane = if t.hard { "hard" } else { "best-effort" };
        println!(
            "{:>8} {:>10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
            t.name,
            lane,
            t.stats.submitted,
            t.stats.completed,
            t.stats.rejected,
            t.stats.shed,
            t.stats.dropped,
            t.stats.skipped,
            t.stats.deadline_missed,
        );
    }
}

/// The thread-based frontend: same gateway behind a bounded command
/// channel, responses over a bounded bus. With `watch`, the gateway
/// samples a cycle-domain timeline and the client renders a top-like
/// per-lane dashboard between submission bursts.
fn run_live(watch: bool) -> Result<(), Box<dyn std::error::Error>> {
    let (mut gw, tenants) = build_gateway()?;
    if watch {
        gw.enable_timeline(50_000, 1024);
    }
    let [camera, lidar, estop] = tenants;
    let server = LiveServer::spawn(gw, LiveConfig::default());
    let responses = server.responses();

    // The submission loop may be cut short (a wedged driver, an estop
    // refusal): `interrupted` routes every such path through the same
    // drain-and-report tail below instead of bailing without a summary.
    let mut interrupted = false;
    'submit: for i in 0..40u64 {
        if server.submit(if i % 3 == 2 { lidar } else { camera }).is_err() && !watch {
            // Best-effort shed/backpressure is expected; driver loss ends
            // the run early but must still produce the summary.
            if server.snapshot().is_err() {
                interrupted = true;
                break 'submit;
            }
        }
        if i == 13 {
            if let Err(e) = server.submit(estop) {
                eprintln!("live: emergency-stop submission failed ({e}); stopping early");
                interrupted = true;
                break 'submit;
            }
        }
        if watch && (i + 1) % 10 == 0 {
            let snap = server.snapshot()?;
            println!("-- watch @ request {} --", i + 1);
            print!("{}", snap.render(40));
        }
    }

    // Interrupted or not, the drain path ends with per-lane accounting.
    match server.shutdown() {
        Ok(live_report) => {
            let received = responses.try_iter().count();
            println!(
                "live{}: {} responses published, {} received before shutdown; totals: \
                 {} completed, {} shed/dropped",
                if interrupted { " (interrupted early)" } else { "" },
                live_report.responses_published,
                received,
                live_report.totals.completed,
                live_report.totals.shed + live_report.totals.dropped,
            );
            report_live("live", &live_report.tenants);
        }
        Err(e) => {
            eprintln!("live: shutdown failed ({e}); summary unavailable");
            return Err(Box::new(e));
        }
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
    if args.iter().any(|a| a == "--live") {
        run_live(args.iter().any(|a| a == "--watch"))
    } else {
        run_deterministic(trace_sample)
    }
}
