//! The metric tables: every name the benchmark reports, with its unit,
//! its direction and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` is
//! printed from these tables (`--print-manifest`), so the two cannot
//! drift.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Wall clock of the host running the simulator; noisy.
    Host,
    /// Virtual cycles and counts; exact for a fixed seed.
    Sim,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening of the value, as a share of the parent's.
    /// Simulated-domain metrics repeat exactly for one seed (checked by
    /// `--check-repeat`); their bound covers what a *different* seed moves
    /// them by, because acceptance runs vary the seed.
    pub bound: f64,
    pub domain: Domain,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        domain: Domain::Host,
        what: "rep start to first timed op: model build, compile, fleet construction, registration",
    },
    EndToEnd {
        name: "req_per_host_s",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
        domain: Domain::Host,
        what: "accelerator requests submitted (admitted or refused) per host-second of the timed section",
    },
    EndToEnd {
        name: "macs_per_host_s",
        unit: "MAC/s",
        better: Better::Higher,
        bound: 0.25,
        domain: Domain::Host,
        what: "modelled MACs of all completed inferences per host-second",
    },
    EndToEnd {
        name: "realtime_factor",
        unit: "sim_s/s",
        better: Better::Higher,
        bound: 0.25,
        domain: Domain::Host,
        what: "simulated seconds (agent-seconds on dslam_mission) per host-second",
    },
    EndToEnd {
        name: "instr_per_host_s",
        unit: "instr/s",
        better: Better::Higher,
        bound: 0.25,
        domain: Domain::Host,
        what: "engine.instrs.retired summed over every engine, per host-second",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        domain: Domain::Host,
        what: "VmHWM at the end of the untraced run",
    },
    EndToEnd {
        name: "hard_p99_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.20,
        domain: Domain::Sim,
        what: "nearest-rank p99 response latency of the hard lane / requester / FE",
    },
    EndToEnd {
        name: "hard_met_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.05,
        domain: Domain::Sim,
        what: "hard requests completed within their deadline over hard requests submitted (1 - hard_miss_share; a refusal is a miss)",
    },
    EndToEnd {
        name: "be_goodput_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.05,
        domain: Domain::Sim,
        what: "best-effort requests completed over best-effort requests submitted",
    },
    EndToEnd {
        name: "reload_cycles_per_req",
        unit: "cycles/req",
        better: Better::Lower,
        bound: 0.25,
        domain: Domain::Sim,
        what: "scheduler LOAD_W reload cycles plus engine backup/restore cycles (t2+t4), per completed request",
    },
    EndToEnd {
        name: "preempt_p99_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.25,
        domain: Domain::Sim,
        what: "nearest-rank p99 of InterruptEvent::latency() (t1+t2)",
    },
    EndToEnd {
        name: "frames_per_pr",
        unit: "frames/pr",
        better: Better::Lower,
        bound: 0.05,
        domain: Domain::Sim,
        what: "hard requests submitted per completed best-effort request (camera frames per completed PR on dslam_mission; paper 7-10)",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this layer metric should move, and where.
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 68] = [
    l("model.build_ms", "ms", Lower, "setup_s on all"),
    l("compiler.compile_vi_ms", "ms", Lower, "setup_s on dslam_mission, func_infer"),
    l("compiler.instrs_per_s", "instr/s", Higher, "setup_s on dslam_mission, func_infer"),
    l("isa.plan_compile_ms", "ms", Lower, "macs_per_host_s, setup_s on func_infer"),
    l("isa.plan_compiled_layer_share", "share", Higher, "macs_per_host_s on func_infer"),
    l(
        "accel.engine.instr_per_host_s",
        "instr/s",
        Higher,
        "realtime_factor, instr_per_host_s on dslam_mission",
    ),
    l("accel.engine.ns_per_req", "ns", Lower, "req_per_host_s on fleet_steady, gateway_overload"),
    l("accel.engine.ns_per_preempt", "ns", Lower, "req_per_host_s on gateway_overload"),
    l("accel.engine.preempts", "count", Higher, "sample count of accel.engine.ns_per_preempt"),
    l("accel.func.conv3x3_macs_per_s", "MAC/s", Higher, "macs_per_host_s on func_infer"),
    l("accel.func.depthwise_macs_per_s", "MAC/s", Higher, "macs_per_host_s on func_infer"),
    l("accel.func.pointwise_macs_per_s", "MAC/s", Higher, "macs_per_host_s on func_infer"),
    l("accel.func.fc_macs_per_s", "MAC/s", Higher, "macs_per_host_s on func_infer"),
    l("accel.func.net_macs_per_s.mobilenet_v1", "MAC/s", Higher, "macs_per_host_s on func_infer"),
    l("accel.func.net_macs_per_s.resnet18", "MAC/s", Higher, "macs_per_host_s on func_infer"),
    l("accel.func.net_macs_per_s.superpoint", "MAC/s", Higher, "macs_per_host_s on func_infer"),
    l("accel.func.tier1_layer_share", "share", Higher, "macs_per_host_s on func_infer"),
    l("accel.func.plan_cache_hit_share", "share", Higher, "macs_per_host_s on func_infer"),
    l(
        "accel.func.threads2_speedup",
        "x",
        Higher,
        "macs_per_host_s on func_infer, only if default threads change",
    ),
    l("accel.pool.ns_per_barrier", "ns", Lower, "req_per_host_s on fleet_steady"),
    l("accel.pool.skip_share", "share", Higher, "req_per_host_s on fleet_steady"),
    l(
        "runtime.sched.self_ns_per_req",
        "ns",
        Lower,
        "req_per_host_s on fleet_steady, gateway_overload",
    ),
    l(
        "runtime.sched.reloads_per_req",
        "count",
        Lower,
        "reload_cycles_per_req on fleet_steady, gateway_overload",
    ),
    l("serve.self_ns_per_req", "ns", Lower, "req_per_host_s on fleet_steady, gateway_overload"),
    l("serve.submit_admit_ns_p50", "ns", Lower, "req_per_host_s on fleet_steady"),
    l("serve.submit_admit_ns_p99", "ns", Lower, "req_per_host_s on fleet_steady"),
    l("serve.submit_admit_samples", "count", Higher, "sample count of serve.submit_admit_ns_*"),
    l("serve.submit_shed_ns_p50", "ns", Lower, "req_per_host_s on gateway_overload"),
    l("serve.submit_shed_ns_p99", "ns", Lower, "req_per_host_s on gateway_overload"),
    l("serve.submit_shed_samples", "count", Higher, "sample count of serve.submit_shed_ns_*"),
    l("serve.run_until_ns_per_call", "ns", Lower, "req_per_host_s on gateway_overload"),
    l("serve.drain_ns_per_resp", "ns", Lower, "req_per_host_s, peak_rss_mb on gateway_overload"),
    l(
        "serve.batch_size_mean",
        "count",
        Higher,
        "be_goodput_share, hard_p99_cycles on gateway_overload",
    ),
    l("serve.shed_share", "share", Lower, "be_goodput_share on gateway_overload"),
    l("serve.dropped_share", "share", Lower, "be_goodput_share on gateway_overload"),
    l("cluster.self_ns_per_req", "ns", Lower, "req_per_host_s on fleet_steady"),
    l("cluster.submit_ns_p50", "ns", Lower, "req_per_host_s on fleet_steady"),
    l("cluster.submit_ns_p99", "ns", Lower, "req_per_host_s on fleet_steady"),
    l("cluster.submit_samples", "count", Higher, "sample count of cluster.submit_ns_*"),
    l("cluster.run_until_ns_per_call", "ns", Lower, "req_per_host_s on fleet_steady"),
    l("cluster.drain_ns_per_resp", "ns", Lower, "req_per_host_s on fleet_steady"),
    l("cluster.run_to_idle_ms", "ms", Lower, "req_per_host_s on fleet_steady"),
    l("cluster.route_hit_share", "share", Higher, "reload_cycles_per_req on fleet_steady"),
    l("cluster.miss_cycles_per_req", "cycles/req", Lower, "reload_cycles_per_req on fleet_steady"),
    l("cluster.skip_share", "share", Higher, "req_per_host_s on fleet_steady"),
    l("cluster.cascades", "count", Lower, "hard_p99_cycles on fleet_steady"),
    l("cluster.stolen", "count", Lower, "hard_p99_cycles on fleet_steady"),
    l("cluster.resizes", "count", Lower, "hard_p99_cycles on fleet_steady"),
    l(
        "obs.metrics_snapshot_ms",
        "ms",
        Lower,
        "nothing in the timed section (guard) on fleet_steady",
    ),
    l(
        "obs.trace_overhead_share",
        "share",
        Lower,
        "realtime_factor when tracing is on, dslam_mission",
    ),
    l("obs.chrome_export_ms", "ms", Lower, "nothing in the timed section, dslam_mission"),
    l("obs.trace_events", "count", Higher, "size of the traced mission's event stream"),
    l("obs.trace_dropped", "count", Lower, "events the traced mission's rings dropped"),
    l("dslam.nonaccel_share", "share", Lower, "realtime_factor on dslam_mission"),
    l("dslam.frames", "count", Higher, "frames_per_pr on dslam_mission"),
    l("dslam.pr_completed", "count", Higher, "frames_per_pr on dslam_mission"),
    l("dslam.preemptions", "count", Lower, "preempt_p99_cycles on dslam_mission"),
    l(
        "dslam.merged",
        "count",
        Higher,
        "mission result: 1 when the cross-agent map merge succeeded",
    ),
    l(
        "harness.trace_overhead_share",
        "share",
        Lower,
        "none: shows the numbers measure the program",
    ),
    l("harness.generator_ns_per_req", "ns", Lower, "none: shows the numbers measure the program"),
    l("ladder.r0_ns_per_req", "ns", Lower, "rung R0, bare Engine"),
    l("ladder.r1_ns_per_req", "ns", Lower, "rung R1, ScheduledEngine"),
    l("ladder.r2_ns_per_req", "ns", Lower, "rung R2, Gateway"),
    l("ladder.r3_ns_per_req", "ns", Lower, "rung R3, Cluster of one gateway"),
    l("ladder.r0_instrs", "count", Lower, "engine.instrs.retired on rung R0"),
    l("ladder.r1_instrs", "count", Lower, "engine.instrs.retired on rung R1"),
    l("ladder.r2_instrs", "count", Lower, "engine.instrs.retired on rung R2"),
    l("ladder.r3_instrs", "count", Lower, "engine.instrs.retired on rung R3"),
];

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fleet_steady",
        "tiny programs through a 4x4 Cluster at 30% load: router, gateway, scheduler and pool barriers do nearly all the host work, kernels none",
    ),
    (
        "gateway_overload",
        "one 2-core Gateway at 1.5-2x capacity: the shed, drop-oldest, batch-flush and preempt paths of the same serve/runtime code, no cluster above",
    ),
    (
        "func_infer",
        "MobileNetV1, ResNet-18 and SuperPoint on Engine<FuncBackend>, each run preempted 7x and compared byte-for-byte with its solo run: kernel-bound",
    ),
    (
        "dslam_mission",
        "the paper's own experiment (2 agents, FE SuperPoint hard, PR GeM/ResNet101 preemptible): long programs, engine stepping, runtime pub/sub, compiler in setup",
    ),
];

/// `BENCHMARK.json`, printed from the tables above.
pub fn manifest(run_seconds: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {run_seconds},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the benchmark contract puts on names, units and counts.
    #[test]
    fn tables_fit_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(n), "name {n}");
            assert!(unit_ok(u), "unit {u} of {n}");
            assert!(seen.insert(n), "duplicate {n}");
        }
        for (n, why) in WORKLOADS {
            assert!(name_ok(n) && seen.insert(n));
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {n} is {} chars", why.len());
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128 && manifest(17).len() < 64 * 1024);
    }
}
