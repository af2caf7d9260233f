//! The two serving workloads — `fleet_steady` (a `Cluster` of 4 gateways ×
//! 4 cores at ≈30 % utilisation) and `gateway_overload` (one 2-core
//! `Gateway` at 1.5–2× capacity) — and the layer ladder that drives one
//! identical stream at four heights of the same stack.
//!
//! Traffic is open-loop on the virtual clock: arrival cycles come from
//! [`Lcg`] alone and never wait for the system, and latency is counted
//! from the scheduled arrival cycle. A rep is a fixed number of requests,
//! so simulated statistics repeat exactly for a seed and host time is work
//! per host-second at that size.

use std::sync::Arc;
use std::time::Instant;

use inca_accel::{
    Backend, CoreId, CorePool, Engine, InterruptStrategy, Program, TaskSlot, TimingBackend,
};
use inca_cluster::{Cluster, GatewayId, RoutePolicy};
use inca_compiler::Compiler;
use inca_model::{zoo, Shape3};
use inca_obs::MetricsSnapshot;
use inca_runtime::{ScheduledEngine, Scheduler, TaskSpec};
use inca_serve::{
    DropPolicy, Gateway, Lane, PlacePolicy, Response, SchedPolicy, TenantId, TenantSpec,
};

use crate::calib::{fast_quarter_seconds, CalClock, Timing};
use crate::gen::Lcg;
use crate::spans::Spans;
use crate::stats::{median, percentile, Fnv};
use crate::{accel, compile_metrics, hi_slot, lo_slot, Cfg, Layer, Rep, Workload};

/// Responses are drained (and the harness's tally updated) this often, so
/// memory the harness holds stays flat over a rep.
const DRAIN_EVERY: u64 = 4096;
/// Deterministic span sampling on the two serving loops.
const SAMPLE_EVERY: u64 = 16;
/// Requests in one ladder rung.
const LADDER_REQUESTS: u64 = 200_000;
/// Times the ladder is climbed.
const LADDER_RUNS: usize = 5;

/// One tenant of a serving workload.
#[derive(Debug, Clone)]
struct Tenant {
    name: String,
    program: Arc<Program>,
    /// Modelled MACs of one inference.
    macs: u64,
    /// Relative deadline when the tenant is on the hard lane.
    hard: Option<u64>,
    weight: u8,
    queue: usize,
    policy: DropPolicy,
}

impl Tenant {
    fn spec(&self) -> TenantSpec {
        let spec = TenantSpec::new(self.name.clone(), Arc::clone(&self.program))
            .weight(self.weight)
            .queue(self.queue, self.policy);
        match self.hard {
            Some(deadline) => spec.hard(deadline),
            None => spec,
        }
    }

    /// The same tenant as a bare scheduler task (ladder rung R1), with the
    /// slot priority the gateway would give it.
    fn task(&self) -> TaskSpec {
        let spec = TaskSpec::new(self.name.clone(), Arc::clone(&self.program))
            .priority(if self.hard.is_some() { 0 } else { self.weight.clamp(1, 3) })
            .queue(self.queue, self.policy);
        match self.hard {
            Some(deadline) => spec.deadline(deadline),
            None => spec,
        }
    }
}

/// An arrival stream: who arrives when. The last tenant is the hard one
/// and takes every `hard_every`-th arrival; the rest are drawn uniformly.
#[derive(Debug, Clone)]
struct Stream {
    tenants: Vec<Tenant>,
    hard_every: u64,
    mean_gap: u64,
    requests: u64,
    seed: u64,
}

struct Arrivals<'a> {
    stream: &'a Stream,
    lcg: Lcg,
    i: u64,
    now: u64,
}

impl Iterator for Arrivals<'_> {
    /// `(request index, arrival cycle, tenant index)`
    type Item = (u64, u64, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let s = self.stream;
        if self.i == s.requests {
            return None;
        }
        let i = self.i;
        self.i += 1;
        self.now += self.lcg.gap(s.mean_gap);
        let hard = s.tenants.len() - 1;
        let tenant = if i % s.hard_every == s.hard_every - 1 {
            hard
        } else {
            self.lcg.pick(hard as u64) as usize
        };
        Some((i, self.now, tenant))
    }
}

impl Stream {
    fn arrivals(&self) -> Arrivals<'_> {
        Arrivals { stream: self, lcg: Lcg::new(self.seed), i: 0, now: 0 }
    }

    /// Instructions of the distinct programs the tenants run.
    fn compiled_instrs(&self) -> usize {
        let mut seen: Vec<&Arc<Program>> = Vec::new();
        for t in &self.tenants {
            if !seen.iter().any(|p| Arc::ptr_eq(p, &t.program)) {
                seen.push(&t.program);
            }
        }
        seen.iter().map(|p| p.instrs.len()).sum()
    }

    /// The same tenants and seed at another rate and length.
    fn resized(&self, mean_gap: u64, requests: u64) -> Stream {
        Stream { mean_gap, requests, ..self.clone() }
    }
}

fn compile_tiny(
    compiler: &Compiler,
    side: u32,
    spans: &mut Spans,
) -> Result<(Arc<Program>, u64), String> {
    let net = spans
        .time(true, "model.build", u64::from(side), || zoo::tiny(Shape3::new(3, side, side)))
        .map_err(|e| format!("zoo::tiny({side}): {e}"))?;
    let program = spans
        .time(true, "compiler.compile_vi", u64::from(side), || compiler.compile_vi(&net))
        .map_err(|e| format!("compile_vi tiny({side}): {e}"))?;
    Ok((Arc::new(program), net.total_macs()))
}

/// Uninterrupted makespan of `program` on a dedicated timing engine.
pub fn makespan(program: &Arc<Program>) -> Result<u64, String> {
    let slot = TaskSlot::LOWEST;
    let mut e = Engine::new(accel(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
    e.load(slot, Arc::clone(program)).map_err(|e| e.to_string())?;
    e.request_at(0, slot).map_err(|e| e.to_string())?;
    e.run_until(u64::MAX).map_err(|e| e.to_string())?;
    e.completed_jobs()
        .first()
        .map(|j| j.finish)
        .ok_or_else(|| "makespan: no job completed".to_owned())
}

fn new_gateway(cores: usize, place: PlacePolicy) -> Gateway<TimingBackend> {
    let pool =
        CorePool::new(cores, accel(), InterruptStrategy::VirtualInstruction, TimingBackend::new);
    Gateway::new(pool, SchedPolicy::FixedPriority, place)
}

/// What the harness learns from the response stream.
#[derive(Debug, Default)]
struct Tally {
    digest: Fnv,
    responses: u64,
    skipped: u64,
    hard_lat: Vec<u64>,
    hard_met: u64,
    be_completed: u64,
    batched_sum: u64,
    macs: u64,
    last_finish: u64,
}

impl Tally {
    fn note(&mut self, gateway: usize, r: &Response, tenants: &[Tenant]) {
        let d = &mut self.digest;
        d.u64(gateway as u64);
        d.u64(r.request.raw());
        d.u64(r.tenant.index() as u64);
        d.u64(r.arrival);
        d.u64(r.start);
        d.u64(r.finish);
        d.u64(u64::from(r.batched));
        self.responses += 1;
        self.last_finish = self.last_finish.max(r.finish);
        if r.skipped {
            self.skipped += 1;
            return;
        }
        self.macs += tenants[r.tenant.index()].macs;
        match r.lane {
            Lane::Hard => {
                self.hard_lat.push(r.latency());
                self.hard_met += u64::from(r.met());
            }
            Lane::BestEffort => {
                self.be_completed += 1;
                self.batched_sum += u64::from(r.batched);
            }
        }
    }
}

/// What the harness itself submitted, by lane and by answer.
#[derive(Debug, Default)]
struct Sent {
    hard: u64,
    best_effort: u64,
    refused: u64,
}

impl Sent {
    fn note(&mut self, hard: bool, refused: bool) {
        if hard {
            self.hard += 1;
        } else {
            self.best_effort += 1;
        }
        self.refused += u64::from(refused);
    }

    fn total(&self) -> u64 {
        self.hard + self.best_effort
    }
}

/// Simulated-domain facts read off the engines after a run.
#[derive(Debug, Default)]
struct EngineFacts {
    instrs: u64,
    preempt_lat: Vec<u64>,
    preempt_cost: u64,
}

impl EngineFacts {
    /// `Engine::report` clones the engine's whole event log; it is called
    /// once per core, after the timed section.
    fn absorb<B: Backend>(&mut self, engine: &Engine<B>) {
        self.instrs += engine.metrics().counter("engine.instrs.retired");
        for ev in engine.report().interrupts {
            self.preempt_lat.push(ev.latency());
            self.preempt_cost += ev.cost();
        }
    }

    fn absorb_gateway<B: Backend>(&mut self, gw: &Gateway<B>) {
        for core in gw.pool().core_ids() {
            self.absorb(gw.pool().core(core));
        }
    }
}

/// Conservation ledgers of one gateway, per tenant and summed, after it
/// went idle. Every broken law is one fault.
fn check_gateway_ledgers<B: Backend>(
    gw: &Gateway<B>,
    label: &str,
    ids: &[TenantId],
    faults: &mut Vec<String>,
) {
    let mut laws = |who: String, s: inca_serve::TenantStats| {
        if s.submitted != s.admitted + s.rejected + s.shed {
            faults.push(format!("{label} {who}: submitted != admitted + rejected + shed ({s:?})"));
        }
        // After `run_to_idle` nothing may be outstanding, so the second law
        // holds without that term.
        if s.admitted != s.completed + s.dropped + s.skipped {
            faults.push(format!(
                "{label} {who}: admitted != completed + dropped + skipped, with nothing outstanding ({s:?})"
            ));
        }
        if s.completed < s.deadline_met + s.deadline_missed {
            faults.push(format!(
                "{label} {who}: deadline_met + deadline_missed exceed completed ({s:?})"
            ));
        }
    };
    for &t in ids {
        laws(t.to_string(), gw.stats(t));
    }
    laws("totals".to_owned(), gw.totals());
    if gw.outstanding() != 0 || gw.pending_batched() != 0 {
        faults.push(format!(
            "{label}: outstanding {} / pending_batched {} after run_to_idle",
            gw.outstanding(),
            gw.pending_batched()
        ));
    }
}

/// Folds the pieces every serving rep shares into a [`Rep`].
#[allow(clippy::too_many_arguments)]
fn serving_rep(
    wall: Timing,
    sent: &Sent,
    tally: Tally,
    facts: EngineFacts,
    totals: inca_serve::TenantStats,
    sched_reload_cycles: u64,
    sched_reloads: u64,
    mut faults: Vec<String>,
) -> Rep {
    if tally.responses != totals.completed + totals.skipped {
        faults.push(format!(
            "responses drained {} != totals completed {} + skipped {}",
            tally.responses, totals.completed, totals.skipped
        ));
    }
    let mut digest = tally.digest;
    for v in [
        totals.submitted,
        totals.admitted,
        totals.rejected,
        totals.shed,
        totals.dropped,
        totals.skipped,
        totals.completed,
        totals.deadline_met,
        totals.deadline_missed,
        sched_reload_cycles,
        facts.instrs,
    ] {
        digest.u64(v);
    }
    let completed = totals.completed.max(1) as f64;
    let mut layer = Layer::new();
    layer.insert("runtime.sched.reloads_per_req", sched_reloads as f64 / completed);
    layer.insert(
        "serve.batch_size_mean",
        tally.batched_sum as f64 / tally.be_completed.max(1) as f64,
    );
    layer.insert(
        "serve.shed_share",
        (totals.shed + totals.rejected) as f64 / totals.submitted.max(1) as f64,
    );
    layer.insert("serve.dropped_share", totals.dropped as f64 / totals.submitted.max(1) as f64);
    Rep {
        wall,
        requests: sent.total(),
        macs: tally.macs,
        sim_s: tally.last_finish as f64 / accel().clock_hz as f64,
        instrs: facts.instrs,
        hard_lat: tally.hard_lat,
        hard_submitted: sent.hard,
        hard_met: tally.hard_met,
        be_submitted: sent.best_effort,
        be_completed: tally.be_completed,
        completed: totals.completed,
        reload_cycles: sched_reload_cycles + facts.preempt_cost,
        preempt_lat: facts.preempt_lat,
        // Every submission is one operation; the ledger check is one more.
        attempted: sent.total() + 1,
        failed: faults.len() as u64,
        faults,
        digest: digest.0,
        layer,
    }
}

// ---------------------------------------------------------------- fleet

/// `fleet_steady`: 4 gateways × 4 cores behind a weight-cache-aware router
/// at ≈30 % utilisation. Tiny programs make the control plane (router →
/// gateway → scheduler → pool barriers) do nearly all the host work.
pub struct FleetSteady {
    stream: Stream,
    batch_window: u64,
}

const FLEET_GATEWAYS: usize = 4;
const FLEET_CORES: usize = 4;
const FLEET_REQUESTS: u64 = 750_000;

impl Workload for FleetSteady {
    const NAME: &'static str = "fleet_steady";
    type State = (Cluster<TimingBackend>, Vec<TenantId>);

    fn prepare(cfg: &Cfg, spans: &mut Spans) -> Result<Self, String> {
        let compiler = Compiler::new(accel().arch);
        let mut tenants = Vec::new();
        // Eight distinct programs: more than one core's task slots, so
        // placement churn shows as real LOAD_W reloads.
        for i in 0..8u32 {
            let (program, macs) = compile_tiny(&compiler, 16 + 4 * i, spans)?;
            tenants.push(Tenant {
                name: format!("t{i}"),
                program,
                macs,
                hard: None,
                weight: 1 + (i % 3) as u8,
                queue: 8,
                policy: DropPolicy::Reject,
            });
        }
        let largest = makespan(&tenants[7].program)?;
        let hard = Tenant {
            name: "estop".to_owned(),
            hard: Some(2 * largest),
            weight: 2,
            queue: 4,
            ..tenants[0].clone()
        };
        tenants.push(hard);
        // 16 cores, one arrival per largest/8 cycles: ≈30 % utilisation.
        let stream = Stream {
            tenants,
            hard_every: 16,
            mean_gap: largest / 8,
            requests: FLEET_REQUESTS / cfg.shrink(),
            seed: cfg.seed,
        };
        Ok(Self { stream, batch_window: largest / 8 })
    }

    fn build(&self) -> Result<Self::State, String> {
        let gws = (0..FLEET_GATEWAYS)
            .map(|_| new_gateway(FLEET_CORES, PlacePolicy::TenantAffinity))
            .collect();
        let mut cluster = Cluster::new(gws, RoutePolicy::WeightCacheAware);
        cluster.set_batch_window(self.batch_window);
        let ids = self.stream.tenants.iter().map(|t| cluster.register(t.spec())).collect();
        Ok((cluster, ids))
    }

    fn rep(&self, (mut cluster, ids): Self::State, spans: &mut Spans) -> Result<Rep, String> {
        let tenants = &self.stream.tenants;
        let hard = tenants.len() - 1;
        let (mut tally, mut sent) = (Tally::default(), Sent::default());
        let rep_span = spans.begin(0);
        let mut clock = CalClock::default();
        clock.begin();
        for (i, now, tenant) in self.stream.arrivals() {
            let sampled = i % SAMPLE_EVERY == 0;
            spans
                .time(sampled, "cluster.run_until", i, || cluster.run_until(now))
                .map_err(|e| format!("cluster.run_until: {e}"))?;
            let answer =
                spans.time(sampled, "cluster.submit", i, || cluster.submit(now, ids[tenant]));
            sent.note(tenant == hard, answer.is_err());
            if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
                let drained =
                    spans.time(true, "cluster.drain_responses", i, || cluster.drain_responses());
                drained.iter().for_each(|(g, r)| tally.note(g.index(), r, tenants));
                clock.lap();
            }
        }
        spans
            .time(true, "cluster.run_to_idle", sent.total(), || cluster.run_to_idle(u64::MAX))
            .map_err(|e| format!("cluster.run_to_idle: {e}"))?;
        let drained =
            spans.time(true, "cluster.drain_responses", sent.total(), || cluster.drain_responses());
        drained.iter().for_each(|(g, r)| tally.note(g.index(), r, tenants));
        clock.end();
        spans.end(rep_span, "rep");

        let mut faults = Vec::new();
        let mut facts = EngineFacts::default();
        for g in 0..cluster.gateway_count() {
            let gw = cluster.gateway(GatewayId(g));
            check_gateway_ledgers(gw, &format!("gw{g}"), &ids, &mut faults);
            facts.absorb_gateway(gw);
        }
        let totals = cluster.totals();
        // Fleet-wide: every cascade hop is one more gateway-level
        // submission, and each hop follows one gateway-level refusal.
        if totals.submitted != sent.total() + cluster.cascades() {
            faults.push(format!(
                "fleet: gateway submissions {} != harness submissions {} + cascades {}",
                totals.submitted,
                sent.total(),
                cluster.cascades()
            ));
        }
        if totals.rejected + totals.shed != sent.refused + cluster.cascades() {
            faults.push(format!(
                "fleet: rejected {} + shed {} != refusals seen {} + cascades {}",
                totals.rejected,
                totals.shed,
                sent.refused,
                cluster.cascades()
            ));
        }
        if cluster.outstanding() != 0 {
            faults.push(format!("fleet: {} outstanding after run_to_idle", cluster.outstanding()));
        }
        let (reload_cycles, reloads) = (cluster.reload_cycles(), cluster.reloads());
        let route = cluster.route_stats();
        let adv = cluster.advance_stats();
        let (cascades, stolen, resizes) = (cluster.cascades(), cluster.stolen(), cluster.resizes());

        // A guard, not a hot-path number: the snapshot is taken once after
        // the timed section and must stay out of it.
        let t0 = Instant::now();
        let snapshot = MetricsSnapshot::new("fleet_steady", cluster.metrics()).to_json();
        let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(snapshot);
        drop(cluster);

        let mut rep = serving_rep(
            clock.into_timing(),
            &sent,
            tally,
            facts,
            totals,
            reload_cycles,
            reloads,
            faults,
        );
        let routed = (route.hits + route.misses).max(1) as f64;
        rep.layer.insert("cluster.route_hit_share", route.hits as f64 / routed);
        rep.layer.insert("cluster.miss_cycles_per_req", route.miss_cycles as f64 / routed);
        rep.layer
            .insert("cluster.skip_share", adv.skips as f64 / (adv.skips + adv.wakes).max(1) as f64);
        rep.layer.insert("cluster.cascades", cascades as f64);
        rep.layer.insert("cluster.stolen", stolen as f64);
        rep.layer.insert("cluster.resizes", resizes as f64);
        rep.layer.insert("obs.metrics_snapshot_ms", snapshot_ms);
        Ok(rep)
    }

    fn layers(&self, cfg: &Cfg, spans: &mut Spans, out: &mut Layer) -> Result<(), String> {
        per_call(
            spans,
            out,
            "cluster.submit",
            "cluster.submit_ns_p50",
            "cluster.submit_ns_p99",
            "cluster.submit_samples",
        );
        out.insert("cluster.run_until_ns_per_call", mean_ns(spans, "cluster.run_until"));
        let (drain_ns, _) = spans.total("cluster.drain_responses");
        let traced_responses = self.stream.requests as f64 * spans.total("rep").1.max(1) as f64;
        out.insert("cluster.drain_ns_per_resp", drain_ns as f64 / traced_responses);
        out.insert("cluster.run_to_idle_ms", mean_ns(spans, "cluster.run_to_idle") / 1e6);

        // One core at the fleet's utilisation: 16× the fleet's gap.
        let stream = self.stream.resized(
            self.stream.mean_gap * (FLEET_GATEWAYS * FLEET_CORES) as u64,
            LADDER_REQUESTS / cfg.shrink(),
        );
        let ladder = Ladder {
            stream: &stream,
            place: PlacePolicy::TenantAffinity,
            batch_window: self.batch_window,
            max_batch: None,
            with_cluster: true,
        };
        ladder.run(spans, out)?;
        pool_barriers(&self.stream.tenants[7].program, cfg, out)?;
        compile_metrics(spans, self.stream.compiled_instrs(), out);
        generator_cost(&self.stream, out);
        Ok(())
    }
}

// ------------------------------------------------------------- overload

/// `gateway_overload`: one 2-core gateway at 1.5–2× capacity. The same
/// `serve`/`runtime` code as the fleet, used differently — shed,
/// drop-oldest, batch-flush and preempt paths instead of the admit path —
/// with no cluster above it.
pub struct GatewayOverload {
    stream: Stream,
    /// Makespan of the largest (96 px) program; windows, deadlines and
    /// gaps are stated in it.
    span: u64,
}

const OVERLOAD_CORES: usize = 2;
const OVERLOAD_REQUESTS: u64 = 750_000;
const OVERLOAD_MAX_BATCH: usize = 4;

impl Workload for GatewayOverload {
    const NAME: &'static str = "gateway_overload";
    type State = (Gateway<TimingBackend>, Vec<TenantId>);

    fn prepare(cfg: &Cfg, spans: &mut Spans) -> Result<Self, String> {
        let compiler = Compiler::new(accel().arch);
        let (a, a_macs) = compile_tiny(&compiler, 96, spans)?;
        let (b, b_macs) = compile_tiny(&compiler, 64, spans)?;
        let (h, h_macs) = compile_tiny(&compiler, 48, spans)?;
        let span = makespan(&a)?;
        let tenants = vec![
            Tenant {
                name: "a".to_owned(),
                program: a,
                macs: a_macs,
                hard: None,
                weight: 3,
                queue: 16,
                policy: DropPolicy::DropOldest,
            },
            Tenant {
                name: "b".to_owned(),
                program: b,
                macs: b_macs,
                hard: None,
                weight: 2,
                queue: 16,
                policy: DropPolicy::Reject,
            },
            Tenant {
                name: "estop".to_owned(),
                program: h,
                macs: h_macs,
                hard: Some(4 * span),
                weight: 2,
                queue: 8,
                policy: DropPolicy::Reject,
            },
        ];
        let stream = Stream {
            tenants,
            hard_every: 8,
            mean_gap: span / 4,
            requests: OVERLOAD_REQUESTS / cfg.shrink(),
            seed: cfg.seed,
        };
        Ok(Self { stream, span })
    }

    fn build(&self) -> Result<Self::State, String> {
        let mut gw = new_gateway(OVERLOAD_CORES, PlacePolicy::LeastLoaded);
        gw.set_batch_window(self.span / 8);
        gw.set_max_batch(OVERLOAD_MAX_BATCH);
        let ids = self.stream.tenants.iter().map(|t| gw.register(t.spec())).collect();
        Ok((gw, ids))
    }

    fn rep(&self, (mut gw, ids): Self::State, spans: &mut Spans) -> Result<Rep, String> {
        let tenants = &self.stream.tenants;
        let hard = tenants.len() - 1;
        let (mut tally, mut sent) = (Tally::default(), Sent::default());
        let rep_span = spans.begin(0);
        let mut clock = CalClock::default();
        clock.begin();
        for (i, now, tenant) in self.stream.arrivals() {
            let sampled = i % SAMPLE_EVERY == 0;
            spans
                .time(sampled, "serve.run_until", i, || gw.run_until(now))
                .map_err(|e| format!("gateway.run_until: {e}"))?;
            let open = spans.begin_if(sampled, i);
            let answer = gw.submit(now, ids[tenant]);
            spans
                .end(open, if answer.is_ok() { "serve.submit.admit" } else { "serve.submit.shed" });
            sent.note(tenant == hard, answer.is_err());
            if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
                let drained = spans.time(true, "serve.drain_responses", i, || gw.drain_responses());
                drained.iter().for_each(|r| tally.note(0, r, tenants));
                clock.lap();
            }
        }
        spans
            .time(true, "serve.run_to_idle", sent.total(), || gw.run_to_idle(u64::MAX))
            .map_err(|e| format!("gateway.run_to_idle: {e}"))?;
        let drained =
            spans.time(true, "serve.drain_responses", sent.total(), || gw.drain_responses());
        drained.iter().for_each(|r| tally.note(0, r, tenants));
        clock.end();
        spans.end(rep_span, "rep");

        let mut faults = Vec::new();
        check_gateway_ledgers(&gw, "gw", &ids, &mut faults);
        let totals = gw.totals();
        if totals.submitted != sent.total() {
            faults.push(format!(
                "gateway submissions {} != harness submissions {}",
                totals.submitted,
                sent.total()
            ));
        }
        if totals.rejected + totals.shed != sent.refused {
            faults.push(format!(
                "rejected {} + shed {} != refusals seen {}",
                totals.rejected, totals.shed, sent.refused
            ));
        }
        let mut facts = EngineFacts::default();
        facts.absorb_gateway(&gw);
        let scheds = || gw.pool().core_ids().map(|c| gw.scheduler(c));
        let reload_cycles = scheds().map(Scheduler::reload_cycles).sum();
        let reloads = scheds().map(Scheduler::reloads).sum();
        drop(gw);
        Ok(serving_rep(
            clock.into_timing(),
            &sent,
            tally,
            facts,
            totals,
            reload_cycles,
            reloads,
            faults,
        ))
    }

    fn layers(&self, cfg: &Cfg, spans: &mut Spans, out: &mut Layer) -> Result<(), String> {
        per_call(
            spans,
            out,
            "serve.submit.admit",
            "serve.submit_admit_ns_p50",
            "serve.submit_admit_ns_p99",
            "serve.submit_admit_samples",
        );
        per_call(
            spans,
            out,
            "serve.submit.shed",
            "serve.submit_shed_ns_p50",
            "serve.submit_shed_ns_p99",
            "serve.submit_shed_samples",
        );
        out.insert("serve.run_until_ns_per_call", mean_ns(spans, "serve.run_until"));
        let (drain_ns, _) = spans.total("serve.drain_responses");
        let traced_requests = self.stream.requests as f64 * spans.total("rep").1.max(1) as f64;
        out.insert("serve.drain_ns_per_resp", drain_ns as f64 / traced_requests);

        // One core at an admissible ≈30 % utilisation, so every rung does
        // the same simulated work and adjacent rungs differ by one layer.
        let stream = self.stream.resized(self.span * 2, LADDER_REQUESTS / cfg.shrink());
        let ladder = Ladder {
            stream: &stream,
            place: PlacePolicy::LeastLoaded,
            batch_window: self.span / 8,
            max_batch: Some(OVERLOAD_MAX_BATCH),
            with_cluster: false,
        };
        ladder.run(spans, out)?;
        // Requesters two victim spans apart: each finds a fresh victim running.
        preempt_cost(
            &self.stream.tenants[0].program,
            &self.stream.tenants[2].program,
            2000 / cfg.shrink(),
            2 * self.span,
            out,
        )?;
        compile_metrics(spans, self.stream.compiled_instrs(), out);
        generator_cost(&self.stream, out);
        Ok(())
    }
}

// --------------------------------------------------------------- ladder

/// The layer ladder: one stream, one core, driven at four heights of the
/// stack. Adjacent differences in host ns/request are each layer's
/// self-cost at equal simulated work.
///
/// The rungs climb in lock-step: every chunk of 4096 arrivals is fed to
/// R0, then R1, then R2, then R3, each call bracketed by probes, so the
/// rungs of one climb see the same host at the same moment and the
/// *ratio* of two adjacent rungs' times is free of the host's phases.
struct Ladder<'a> {
    stream: &'a Stream,
    place: PlacePolicy,
    batch_window: u64,
    max_batch: Option<usize>,
    /// R3 (a `Cluster` of one gateway) is only climbed where the workload
    /// has a cluster.
    with_cluster: bool,
}

/// `(request index, arrival cycle, tenant index)`
type Arrival = (u64, u64, usize);

/// One height of the stack, fed the stream chunk by chunk.
trait Rung {
    fn feed(&mut self, chunk: &[Arrival], spans: &mut Spans) -> Result<(), String>;
    /// Runs to idle, drains, and returns `engine.instrs.retired`.
    fn finish(&mut self, spans: &mut Spans) -> Result<u64, String>;
}

/// R0: bare engines, one per tenant; each arrival is one `request_at` +
/// `run_until` on its tenant's engine — the same jobs back-to-back, the
/// floor no layer above can go below.
struct R0(Vec<Engine<TimingBackend>>);

impl Rung for R0 {
    fn feed(&mut self, chunk: &[Arrival], _: &mut Spans) -> Result<(), String> {
        for &(_, _, tenant) in chunk {
            let e = &mut self.0[tenant];
            e.request_at(e.now(), TaskSlot::LOWEST).map_err(|e| e.to_string())?;
            e.run_until(u64::MAX).map_err(|e| format!("ladder R0: {e}"))?;
        }
        Ok(())
    }

    fn finish(&mut self, _: &mut Spans) -> Result<u64, String> {
        Ok(self.0.iter().map(|e| e.metrics().counter("engine.instrs.retired")).sum())
    }
}

/// R1: the same stream through `ScheduledEngine`.
struct R1(ScheduledEngine<TimingBackend>, Vec<inca_runtime::TaskId>);

impl Rung for R1 {
    fn feed(&mut self, chunk: &[Arrival], _: &mut Spans) -> Result<(), String> {
        for &(_, now, tenant) in chunk {
            std::hint::black_box(self.0.run_until(now).map_err(|e| format!("ladder R1: {e}"))?);
            let _ = self.0.submit(now, self.1[tenant]);
        }
        Ok(())
    }

    fn finish(&mut self, _: &mut Spans) -> Result<u64, String> {
        std::hint::black_box(self.0.run_to_idle(u64::MAX).map_err(|e| format!("ladder R1: {e}"))?);
        Ok(self.0.engine().metrics().counter("engine.instrs.retired"))
    }
}

/// R2: the same stream through a one-core `Gateway`. The spans here are
/// the only place a workload that sits behind a cluster gets per-call
/// `Gateway` timings from.
struct R2(Gateway<TimingBackend>, Vec<TenantId>);

impl Rung for R2 {
    fn feed(&mut self, chunk: &[Arrival], spans: &mut Spans) -> Result<(), String> {
        let R2(gw, ids) = self;
        for &(i, now, tenant) in chunk {
            let sampled = i % SAMPLE_EVERY == 0;
            spans
                .time(sampled, "ladder.r2.run_until", i, || gw.run_until(now))
                .map_err(|e| format!("ladder R2: {e}"))?;
            let open = spans.begin_if(sampled, i);
            let answer = gw.submit(now, ids[tenant]);
            spans.end(
                open,
                if answer.is_ok() { "ladder.r2.submit.admit" } else { "ladder.r2.submit.shed" },
            );
        }
        std::hint::black_box(
            spans.time(true, "ladder.r2.drain_responses", 0, || gw.drain_responses()),
        );
        Ok(())
    }

    fn finish(&mut self, spans: &mut Spans) -> Result<u64, String> {
        self.0.run_to_idle(u64::MAX).map_err(|e| format!("ladder R2: {e}"))?;
        std::hint::black_box(
            spans.time(true, "ladder.r2.drain_responses", 0, || self.0.drain_responses()),
        );
        Ok(instrs_of_gateway(&self.0))
    }
}

/// R3: the same stream through a `Cluster` of that one gateway.
struct R3(Cluster<TimingBackend>, Vec<TenantId>);

impl Rung for R3 {
    fn feed(&mut self, chunk: &[Arrival], _: &mut Spans) -> Result<(), String> {
        for &(_, now, tenant) in chunk {
            self.0.run_until(now).map_err(|e| format!("ladder R3: {e}"))?;
            let _ = self.0.submit(now, self.1[tenant]);
        }
        std::hint::black_box(self.0.drain_responses());
        Ok(())
    }

    fn finish(&mut self, _: &mut Spans) -> Result<u64, String> {
        self.0.run_to_idle(u64::MAX).map_err(|e| format!("ladder R3: {e}"))?;
        std::hint::black_box(self.0.drain_responses());
        Ok(instrs_of_gateway(self.0.gateway(GatewayId(0))))
    }
}

fn instrs_of_gateway<B: Backend>(gw: &Gateway<B>) -> u64 {
    gw.pool().core_ids().map(|c| gw.pool().core(c).metrics().counter("engine.instrs.retired")).sum()
}

impl Ladder<'_> {
    /// Fresh rungs, bottom up.
    fn rungs(&self) -> Result<Vec<Box<dyn Rung>>, String> {
        let tenants = &self.stream.tenants;
        let engine =
            || Engine::new(accel(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
        let mut engines = Vec::new();
        for t in tenants {
            let mut e = engine();
            e.load(TaskSlot::LOWEST, Arc::clone(&t.program)).map_err(|e| e.to_string())?;
            engines.push(e);
        }
        let mut se =
            ScheduledEngine::new(engine(), Scheduler::new(accel(), SchedPolicy::FixedPriority));
        let tasks = tenants.iter().map(|t| se.register(t.task())).collect();
        let mut gw = new_gateway(1, self.place);
        let mut cluster =
            Cluster::new(vec![new_gateway(1, self.place)], RoutePolicy::WeightCacheAware);
        gw.set_batch_window(self.batch_window);
        cluster.set_batch_window(self.batch_window);
        if let Some(n) = self.max_batch {
            gw.set_max_batch(n);
            cluster.set_max_batch(n);
        }
        let gw_ids = tenants.iter().map(|t| gw.register(t.spec())).collect();
        let cluster_ids = tenants.iter().map(|t| cluster.register(t.spec())).collect();
        let mut rungs: Vec<Box<dyn Rung>> =
            vec![Box::new(R0(engines)), Box::new(R1(se, tasks)), Box::new(R2(gw, gw_ids))];
        if self.with_cluster {
            rungs.push(Box::new(R3(cluster, cluster_ids)));
        }
        Ok(rungs)
    }

    fn run(&self, spans: &mut Spans, out: &mut Layer) -> Result<(), String> {
        let arrivals: Vec<Arrival> = self.stream.arrivals().collect();
        let heights = if self.with_cluster { 4 } else { 3 };
        // `climbs[h][c]` — rung h's timing in climb c.
        let mut climbs: Vec<Vec<Timing>> = vec![Vec::new(); heights];
        let mut instrs = vec![0u64; heights];
        for _ in 0..LADDER_RUNS {
            let mut rungs = self.rungs()?;
            let mut clocks: Vec<CalClock> = (0..heights).map(|_| CalClock::default()).collect();
            for chunk in arrivals.chunks(DRAIN_EVERY as usize) {
                for (rung, clock) in rungs.iter_mut().zip(&mut clocks) {
                    clock.time(|| rung.feed(chunk, spans)).0?;
                }
            }
            for (h, (rung, mut clock)) in rungs.iter_mut().zip(clocks).enumerate() {
                instrs[h] = clock.time(|| rung.finish(spans)).0?;
                climbs[h].push(clock.into_timing());
            }
        }
        // R0 from its fast-quarter time; each rung above from the rung
        // below times the median, over climbs, of their paired ratio.
        let floor = fast_quarter_seconds(&climbs[0].iter().collect::<Vec<_>>())
            .ok_or("ladder climbs differ in chunks")?;
        let mut ns = vec![floor * 1e9 / self.stream.requests as f64];
        for h in 1..heights {
            let ratios: Vec<f64> = climbs[h]
                .iter()
                .zip(&climbs[h - 1])
                .map(|(up, down)| up.total.cal / down.total.cal.max(1e-12))
                .collect();
            ns.push(ns[h - 1] * median(&ratios));
        }
        const NS_KEYS: [&str; 4] = [
            "ladder.r0_ns_per_req",
            "ladder.r1_ns_per_req",
            "ladder.r2_ns_per_req",
            "ladder.r3_ns_per_req",
        ];
        const INSTR_KEYS: [&str; 4] =
            ["ladder.r0_instrs", "ladder.r1_instrs", "ladder.r2_instrs", "ladder.r3_instrs"];
        for h in 0..heights {
            out.insert(NS_KEYS[h], ns[h]);
            out.insert(INSTR_KEYS[h], instrs[h] as f64);
        }
        out.insert("accel.engine.ns_per_req", ns[0]);
        out.insert("runtime.sched.self_ns_per_req", ns[1] - ns[0]);
        out.insert("serve.self_ns_per_req", ns[2] - ns[1]);
        if self.with_cluster {
            out.insert("cluster.self_ns_per_req", ns[3] - ns[2]);
            // Behind a cluster the harness never calls a gateway itself,
            // so per-call gateway timings come from rung R2.
            per_call(
                spans,
                out,
                "ladder.r2.submit.admit",
                "serve.submit_admit_ns_p50",
                "serve.submit_admit_ns_p99",
                "serve.submit_admit_samples",
            );
            per_call(
                spans,
                out,
                "ladder.r2.submit.shed",
                "serve.submit_shed_ns_p50",
                "serve.submit_shed_ns_p99",
                "serve.submit_shed_samples",
            );
            out.insert("serve.run_until_ns_per_call", mean_ns(spans, "ladder.r2.run_until"));
            let (drain_ns, _) = spans.total("ladder.r2.drain_responses");
            out.insert(
                "serve.drain_ns_per_resp",
                drain_ns as f64 / (self.stream.requests * LADDER_RUNS as u64) as f64,
            );
        }
        Ok(())
    }
}

// ------------------------------------------------- small layer probes

fn mean_ns(spans: &Spans, name: &str) -> f64 {
    let (ns, n) = spans.total(name);
    ns as f64 / n.max(1) as f64
}

/// p50/p99/sample count of the spans called `name`.
fn per_call(
    spans: &Spans,
    out: &mut Layer,
    name: &str,
    p50: &'static str,
    p99: &'static str,
    samples: &'static str,
) {
    let mut d = spans.durations(name);
    out.insert(samples, d.len() as f64);
    out.insert(p99, percentile(&mut d, 99) as f64);
    out.insert(p50, percentile(&mut d, 50) as f64);
}

/// `CorePool::run_until` in fixed strides over 16 cores of which one is
/// busy: what a barrier costs when almost every core can be skipped.
fn pool_barriers(program: &Arc<Program>, cfg: &Cfg, out: &mut Layer) -> Result<(), String> {
    let span = makespan(program)?;
    let jobs = 2_000 / cfg.shrink();
    let strides_per_job = 16;
    let mut pool =
        CorePool::new(16, accel(), InterruptStrategy::VirtualInstruction, TimingBackend::new);
    let slot = TaskSlot::LOWEST;
    pool.load(CoreId(0), slot, Arc::clone(program)).map_err(|e| e.to_string())?;
    for _ in 0..jobs {
        pool.request_at(0, CoreId(0), slot).map_err(|e| e.to_string())?;
    }
    let stride = span / strides_per_job;
    let barriers = jobs * strides_per_job;
    let (ran, seconds) =
        CalClock::default().time(|| (1..=barriers).try_for_each(|k| pool.run_until(k * stride)));
    ran.map_err(|e| format!("pool.run_until: {e}"))?;
    let adv = pool.advance_stats();
    out.insert("accel.pool.ns_per_barrier", seconds.cal * 1e9 / barriers as f64);
    out.insert("accel.pool.skip_share", adv.skips as f64 / (adv.skips + adv.wakes).max(1) as f64);
    Ok(())
}

/// The arrival generator alone — shows the numbers measure the program.
fn generator_cost(stream: &Stream, out: &mut Layer) {
    let (acc, seconds) = CalClock::default().time(|| {
        stream.arrivals().fold(0u64, |acc, (_, now, tenant)| acc.wrapping_add(now ^ tenant as u64))
    });
    std::hint::black_box(acc);
    out.insert("harness.generator_ns_per_req", seconds.cal * 1e9 / stream.requests as f64);
}

/// Host cost of one preemption on a bare timing engine: the same victim
/// and requester jobs run once interleaved (requesters arrive `gap` cycles
/// apart while victims run back-to-back) and once apart (requesters arrive
/// after the last victim finished); the difference per probed interrupt is
/// what backup, restore and virtual-instruction materialisation cost the
/// host.
fn preempt_cost(
    victim: &Arc<Program>,
    requester: &Arc<Program>,
    arrivals: u64,
    gap: u64,
    out: &mut Layer,
) -> Result<(), String> {
    let (lo, hi) = (lo_slot(), hi_slot());
    let (v_span, r_span) = (makespan(victim)?, makespan(requester)?);
    // Enough victim jobs queued that every requester finds one running.
    let victims = arrivals * (gap + r_span) / v_span + 2;
    let run = |interleaved: bool| -> Result<(f64, u64), String> {
        let mut e =
            Engine::new(accel(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
        e.load(lo, Arc::clone(victim)).map_err(|e| e.to_string())?;
        e.load(hi, Arc::clone(requester)).map_err(|e| e.to_string())?;
        for _ in 0..victims {
            e.request_at(0, lo).map_err(|e| e.to_string())?;
        }
        let base = if interleaved { v_span / 3 } else { (victims + 1) * v_span };
        for k in 0..arrivals {
            e.request_at(base + k * gap.max(r_span + 1), hi).map_err(|e| e.to_string())?;
        }
        let (ran, seconds) = CalClock::default().time(|| e.run_until(u64::MAX));
        ran.map_err(|e| format!("preempt probe: {e}"))?;
        Ok((seconds.cal * 1e9, e.metrics().counter("engine.interrupts.probed")))
    };
    let mut diffs = Vec::new();
    let mut preempts = 0;
    for _ in 0..5 {
        let (apart_ns, none) = run(false)?;
        let (mixed_ns, probed) = run(true)?;
        if none != 0 || probed == 0 {
            return Err(format!("preempt probe: {none} interrupts apart, {probed} interleaved"));
        }
        preempts = probed;
        diffs.push((mixed_ns - apart_ns) / probed as f64);
    }
    out.insert("accel.engine.ns_per_preempt", median(&diffs));
    out.insert("accel.engine.preempts", preempts as f64);
    Ok(())
}
