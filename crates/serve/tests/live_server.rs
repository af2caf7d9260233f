//! The thread-based frontend end to end: two client threads submit into
//! one [`LiveServer`] over a 2-core timing gateway, then the server shuts
//! down. The final report must balance the serving ledger, publish one
//! response per completed or skipped request, and agree with what the
//! clients were told.

use std::sync::Arc;
use std::thread;

use inca_accel::{AccelConfig, CorePool, InterruptStrategy, TimingBackend};
use inca_compiler::Compiler;
use inca_model::{zoo, Shape3};
use inca_serve::{DropPolicy, Gateway, LiveServer, PlacePolicy, SchedPolicy, TenantId, TenantSpec};

const PER_CLIENT: usize = 24;

#[test]
fn live_server_balances_its_ledger_across_client_threads() {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    let net = Arc::new(compiler.compile_vi(&zoo::tiny(Shape3::new(3, 16, 16)).unwrap()).unwrap());
    let pool = CorePool::new(2, cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new);
    let mut gw = Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::TenantAffinity);
    // One tenant per shed policy plus a hard lane, so every ledger column
    // can move.
    let tenants: [TenantId; 4] = [
        gw.register(TenantSpec::new("reject", Arc::clone(&net)).queue(1, DropPolicy::Reject)),
        gw.register(TenantSpec::new("oldest", Arc::clone(&net)).queue(1, DropPolicy::DropOldest)),
        gw.register(TenantSpec::new("skip", Arc::clone(&net)).queue(1, DropPolicy::DegradeToSkip)),
        gw.register(TenantSpec::new("hard", net).hard(50_000_000)),
    ];

    let server = LiveServer::spawn(gw);
    let oks: usize = thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let server = &server;
                s.spawn(move || {
                    (0..PER_CLIENT)
                        .filter(|i| server.submit(tenants[(i + c) % tenants.len()]).is_ok())
                        .count()
                })
            })
            .collect();
        clients.into_iter().map(|h| h.join().expect("client thread")).sum()
    });
    let report = server.shutdown().expect("driver reachable");

    let t = report.totals;
    assert_eq!(t.submitted, (2 * PER_CLIENT) as u64, "every submit reached the gateway");
    assert_eq!(t.submitted, t.admitted + t.shed + t.rejected);
    assert_eq!(t.outstanding(), 0, "shutdown drains the gateway");
    assert_eq!(report.responses_published, t.completed + t.skipped);
    assert_eq!(oks as u64, t.admitted, "clients saw Ok exactly for admitted requests");
}
