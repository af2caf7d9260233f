//! `inca-analyze` — the trace-analysis CLI (DESIGN.md §5.4).
//!
//! Four modes, one of which must be named:
//!
//! * **mission**: `inca-analyze --mission [--seconds N] [--strategy S|all]
//!   [--trace FILE] [--slo SPEC]... [--json]` — runs the DSLAM mission
//!   in-process under each interrupt strategy, reports per-strategy
//!   t1/t2/t4 distributions and checks the measured backup cost `t2`
//!   against the analytical model (`inca_accel::analysis::t2_worst`):
//!   exact strategies must match exactly, the VI bound must hold. Exits 2
//!   on model drift. SLO specs (`fe=50ms`, `pr=deadline:1s+latency:200us`,
//!   …; `fe`→slot 1, `pr`→slot 3) are evaluated per strategy; exits 1
//!   when any clause fails. `--trace` writes the Chrome trace for
//!   Perfetto.
//! * **gate**: `inca-analyze --gate BASELINE FRESH` — compares two
//!   `metrics-v1` snapshots under the default tolerance rules
//!   (deterministic cycle metrics exact, wall-clock throughput ±45%).
//!   Exits 1 on regression. `scripts/bench_gate.sh` wraps this.
//! * **spans**: `inca-analyze --spans [--strategy S] [--trace-sample N]
//!   [--quantile Q] [--trace FILE] [--slo SPEC]... [--json]` — runs the
//!   canonical serve-spans scenario in-process with request spans on,
//!   prints each lane's per-request critical path (exact latency
//!   decomposition: queue/batch/reload/exec/preempted cycles summing to
//!   the end-to-end latency), optionally writes the Perfetto-loadable
//!   Chrome trace (`--trace`, span tracks + flow arrows), and with
//!   `--json` emits an `inca-obs/spans-v1` snapshot the regression gate
//!   can diff against `BENCH_spans.json`. SLO specs may use the lane
//!   selectors (`hard=queue_share:<0.2`).
//! * **timeline**: `inca-analyze --timeline [--strategy S]
//!   [--inject-spike] [--export FILE] [--trace FILE] [--slo SPEC]...
//!   [--json]` — runs the canonical serve-timeline scenario with the
//!   cycle-domain sampler and an armed flight recorder
//!   (`hard=depth:4`), renders one sparkline per timeseries column plus
//!   per-frame SLO-over-time verdict strips, exports the
//!   `timeseries-v1` series (`--export`), writes the recorder's
//!   violation-window Chrome trace when it tripped (`--trace`), and with
//!   `--json` emits the `metrics-v1` snapshot the regression gate diffs
//!   against `BENCH_timeline.json`. `--inject-spike` adds the hard-lane
//!   queue-depth burst and exits 1 if the recorder does not trip.

use inca_accel::{analysis, InterruptStrategy};
use inca_bench::{serve_spans_scenario, serve_timeline_scenario};
use inca_dslam::mission::{Mission, MissionConfig};
use inca_obs::analyze::{self, Analyzer, SloSpec, T2Model, TaskSel};
use inca_obs::{spark, Metrics, MetricsSnapshot};
use std::process::ExitCode;

const USAGE: &str = "usage:
  inca-analyze --mission [--seconds N] [--strategy S|all] [--trace FILE] [--slo SPEC]... [--json]
  inca-analyze --gate <baseline.json> <fresh.json>
  inca-analyze --spans [--strategy S] [--trace-sample N] [--quantile Q] [--trace FILE] [--slo SPEC]... [--json]
  inca-analyze --timeline [--strategy S] [--inject-spike] [--export FILE] [--trace FILE] [--slo SPEC]... [--json]
SLO spec: name=50ms or name=deadline:50ms+latency:200us+queue:1ms+depth:N+jobs:N+miss:0.01+period:50ms
          (names: fe, pr, slotN, taskN, hard, be; units cy/us/ms/s;
           span clauses: queue_share:<0.2 batch_share:… reload_share:… preempt_share:…)";

/// `fe`/`pr` resolve to the mission's fixed slots.
const ALIASES: [(&str, TaskSel); 2] = [("fe", TaskSel::Slot(1)), ("pr", TaskSel::Slot(3))];

struct Args {
    mission: bool,
    spans: bool,
    timeline: bool,
    inject_spike: bool,
    export: Option<String>,
    gate: Option<(String, String)>,
    trace_out: Option<String>,
    slo: Vec<String>,
    json: bool,
    seconds: f64,
    strategy: Option<String>,
    trace_sample: u64,
    quantile: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        mission: false,
        spans: false,
        timeline: false,
        inject_spike: false,
        export: None,
        gate: None,
        trace_out: None,
        slo: Vec::new(),
        json: false,
        seconds: 3.0,
        strategy: None,
        trace_sample: 1,
        quantile: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--mission" => out.mission = true,
            "--gate" => {
                let a = value(&mut i, "--gate")?;
                let b = value(&mut i, "--gate")?;
                out.gate = Some((a, b));
            }
            "--slo" => out.slo.push(value(&mut i, "--slo")?),
            "--json" => out.json = true,
            "--seconds" => {
                out.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
            }
            "--strategy" => out.strategy = Some(value(&mut i, "--strategy")?),
            "--trace" => out.trace_out = Some(value(&mut i, "--trace")?),
            "--spans" => out.spans = true,
            "--timeline" => out.timeline = true,
            "--inject-spike" => out.inject_spike = true,
            "--export" => out.export = Some(value(&mut i, "--export")?),
            "--trace-sample" => {
                out.trace_sample = value(&mut i, "--trace-sample")?
                    .parse()
                    .map_err(|_| "--trace-sample needs an integer".to_owned())?;
            }
            "--quantile" => {
                let q: f64 = value(&mut i, "--quantile")?
                    .parse()
                    .map_err(|_| "--quantile needs a number in 0..=1".to_owned())?;
                if !(0.0..=1.0).contains(&q) {
                    return Err("--quantile needs a number in 0..=1".to_owned());
                }
                out.quantile = Some(q);
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            arg => return Err(format!("unknown argument {arg}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(out)
}

fn parse_strategy(name: &str) -> Result<Vec<InterruptStrategy>, String> {
    let all = [
        InterruptStrategy::NonPreemptive,
        InterruptStrategy::CpuLike,
        InterruptStrategy::LayerByLayer,
        InterruptStrategy::VirtualInstruction,
    ];
    if name == "all" {
        return Ok(all.to_vec());
    }
    all.into_iter()
        .find(|s| s.to_string() == name)
        .map(|s| vec![s])
        .ok_or_else(|| format!("unknown strategy {name:?} (non-preemptive, cpu-like, layer-by-layer, virtual-instruction, all)"))
}

fn parse_slos(specs: &[String], clock_hz: u64) -> Result<Vec<SloSpec>, String> {
    let mut out = Vec::new();
    for s in specs {
        out.extend(SloSpec::parse_list(s, &ALIASES, clock_hz)?);
    }
    Ok(out)
}

/// Evaluates `specs` against one analyzed stream; prints verdicts and
/// returns whether all passed.
fn run_slos(specs: &[SloSpec], analyzer: &Analyzer, label: &str) -> bool {
    let mut all_ok = true;
    let spans = (!analyzer.spans.is_empty()).then_some(&analyzer.spans);
    for spec in specs {
        let report = spec.evaluate_with_spans(&analyzer.attribution, &analyzer.preemption, spans);
        println!("SLO {label}/{}: {}", report.name, if report.passed { "PASS" } else { "FAIL" });
        for c in &report.clauses {
            println!("    [{}] {} — {}", if c.passed { "ok" } else { "FAIL" }, c.label, c.detail);
        }
        if report.slack.count() > 0 {
            println!(
                "    slack: p50 {}cy, p95 {}cy, min {}cy over {} jobs",
                report.slack.p50(),
                report.slack.p95(),
                report.slack.min(),
                report.slack.count()
            );
        }
        all_ok &= report.passed;
    }
    all_ok
}

fn gate_mode(baseline: &str, fresh: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<MetricsSnapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        MetricsSnapshot::from_json(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let base = load(baseline)?;
    let new = load(fresh)?;
    let report = analyze::compare(&base, &new, &analyze::default_rules());
    print!("{}", report.render());
    Ok(if report.passed { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn mission_mode(args: &Args) -> Result<ExitCode, String> {
    let strategies = parse_strategy(args.strategy.as_deref().unwrap_or("all"))?;
    let mut combined = Metrics::new();
    let mut drift_ok = true;
    let mut slo_ok = true;
    for strategy in &strategies {
        let cfg = MissionConfig {
            duration_s: args.seconds,
            strategy: *strategy,
            ..MissionConfig::default()
        };
        let accel = cfg.accel;
        let mission = Mission::new(cfg).map_err(|e| e.to_string())?;
        let (_outcome, trace) = mission.run_traced(200_000).map_err(|e| e.to_string())?;

        // The mission's victim is always PR (FE outranks it, and nothing
        // outranks FE), so the analytical t2 model is evaluated on the PR
        // program.
        let model = T2Model {
            strategy: strategy.to_string(),
            worst_t2: analysis::t2_worst(&accel, *strategy, mission.pr_program()),
            exact: !matches!(strategy, InterruptStrategy::VirtualInstruction),
        };

        // Agent 0's stream: one engine, precise per-slot pairing.
        let mut a = Analyzer::new();
        a.consume(&trace.agents[0].events);
        let drift = a.preemption.t2_drift(&model);

        if args.json {
            combined.absorb(&format!("{strategy}."), &a.metrics());
            combined.set_gauge(&format!("{strategy}.t2_drift_ratio"), drift.ratio);
            combined.inc(&format!("{strategy}.t2_model_cycles"), drift.model_worst_t2);
            combined.inc(&format!("{strategy}.t2_within_model"), u64::from(drift.within));
        } else {
            println!("== strategy {strategy} ({} s mission, agent0) ==", args.seconds);
            print!("{}", a.render());
            println!(
                "t2 model: measured worst {} cy vs model {} cy ({}) — ratio {:.4} — {}",
                drift.measured_worst_t2,
                drift.model_worst_t2,
                if model.exact { "exact" } else { "upper bound" },
                drift.ratio,
                if drift.within { "WITHIN MODEL" } else { "MODEL VIOLATED" },
            );
            let specs = parse_slos(&args.slo, accel.clock_hz)?;
            slo_ok &= run_slos(&specs, &a, &strategy.to_string());
            println!();
        }
        drift_ok &= drift.within;

        if let Some(out) = &args.trace_out {
            if strategies.len() == 1 || *strategy == InterruptStrategy::VirtualInstruction {
                std::fs::write(out, trace.chrome_json())
                    .map_err(|e| format!("writing {out}: {e}"))?;
                if !args.json {
                    println!("wrote mission trace to {out}\n");
                }
            }
        }
    }
    if args.json {
        println!("{}", MetricsSnapshot::new("inca-analyze-mission", combined).to_json());
    }
    Ok(if !drift_ok {
        ExitCode::from(2)
    } else if !slo_ok {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// One request breakdown, printed as a single line.
fn print_breakdown(label: &str, b: &inca_obs::analyze::RequestBreakdown, clock_hz: u64) {
    let us = |cy: u64| cy as f64 / (clock_hz as f64 / 1e6);
    let parts: Vec<String> =
        b.parts().iter().map(|(name, cy)| format!("{name} {cy}cy ({:.1}us)", us(*cy))).collect();
    println!(
        "{label}: request {} (tenant {}, core {}) total {}cy ({:.1}us) = {}",
        b.request,
        b.tenant,
        b.core,
        b.total(),
        us(b.total()),
        parts.join(" + "),
    );
}

fn spans_mode(args: &Args) -> Result<ExitCode, String> {
    let strategy = match parse_strategy(args.strategy.as_deref().unwrap_or("virtual-instruction"))?
        .as_slice()
    {
        [one] => *one,
        _ => return Err("--spans takes a single strategy, not `all`".to_owned()),
    };
    let out = serve_spans_scenario(strategy, args.trace_sample, |b| b);
    let mut a = Analyzer::new();
    a.consume(&out.events);
    a.clock_hz = Some(out.clock_hz);
    if let Some(path) = &args.trace_out {
        let mut chrome = inca_obs::ChromeTrace::new(out.clock_hz as f64 / 1e6);
        chrome.add_process(0, "serve-core0", &out.events);
        chrome.note_dropped(0, out.dropped);
        std::fs::write(path, chrome.finish()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (load in Perfetto; arrows = span flows)");
    }
    if args.json {
        let snap = MetricsSnapshot::new("inca-analyze-spans", a.spans.metrics())
            .with_schema(inca_obs::SPANS_SCHEMA)
            .with_trace_drops(out.dropped);
        println!("{}", snap.to_json());
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "== canonical serve-spans scenario ({strategy}, sample 1/{}, {} responses) ==",
        args.trace_sample.max(1),
        out.responses,
    );
    print!("{}", a.spans.render(out.clock_hz));
    if let Some(q) = args.quantile {
        for (lane, hard) in [("hard", true), ("be", false)] {
            if let Some(b) = a.spans.quantile(hard, q) {
                print_breakdown(&format!("{lane} p{:.4}", q * 100.0), &b, out.clock_hz);
            }
        }
    }
    let specs = parse_slos(&args.slo, out.clock_hz)?;
    let slo_ok = run_slos(&specs, &a, "spans");
    Ok(if slo_ok { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn timeline_mode(args: &Args) -> Result<ExitCode, String> {
    let strategy = match parse_strategy(args.strategy.as_deref().unwrap_or("virtual-instruction"))?
        .as_slice()
    {
        [one] => *one,
        _ => return Err("--timeline takes a single strategy, not `all`".to_owned()),
    };
    let run = serve_timeline_scenario(strategy, |b| b, |b| b, 1, args.inject_spike);
    if args.json {
        // The deterministic metrics-v1 snapshot the regression gate diffs
        // against BENCH_timeline.json.
        println!("{}", run.metrics_json);
        return Ok(ExitCode::SUCCESS);
    }

    let s = &run.series;
    println!(
        "== cycle-domain timeline ({strategy}, interval {} cy, {} frames, {} dropped, \
         {} responses, recorder armed on {:?}) ==",
        s.interval,
        s.len(),
        s.dropped,
        run.responses,
        inca_bench::TIMELINE_SLO,
    );
    if s.dropped > 0 {
        eprintln!(
            "WARNING: timeline ring overflowed — {} frame(s) dropped; sparklines below \
             cover an INCOMPLETE series",
            s.dropped
        );
    }
    let width = 60usize;
    let label_w = s.columns.keys().map(String::len).max().unwrap_or(0);
    for (name, vals) in &s.columns {
        let max = vals.iter().copied().max().unwrap_or(0);
        println!("{name:<label_w$} |{}| max {max}", spark(vals, width));
    }
    match &run.violation {
        Some(v) => println!(
            "flight recorder: TRIPPED at cycle {} — spec {} ({})",
            v.cycle, v.spec, v.clause
        ),
        None => println!("flight recorder: armed, no violation"),
    }

    if let Some(path) = &args.export {
        std::fs::write(path, s.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote timeseries-v1 series to {path}");
    }
    if let Some(path) = &args.trace_out {
        match &run.chrome_dump {
            Some(dump) => {
                std::fs::write(path, dump).map_err(|e| format!("write {path}: {e}"))?;
                eprintln!("wrote flight-recorder Chrome trace to {path} (load in Perfetto)");
            }
            None => eprintln!("--trace: recorder did not trip; no violation window to write"),
        }
    }

    // SLO-over-time: each spec is evaluated per frame; the strip resamples
    // failing frames with the same bucket-max rule as the sparklines, so a
    // single bad frame survives the compression.
    let specs = parse_slos(&args.slo, s.clock_hz)?;
    let mut slo_ok = true;
    for spec in &specs {
        let passes = s.eval_spec(spec);
        let fails: Vec<u64> = passes.iter().map(|p| u64::from(!*p)).collect();
        let failing = fails.iter().sum::<u64>();
        println!(
            "SLO timeline/{}: {} ({failing}/{} failing frames) |{}|",
            spec.name,
            if failing == 0 { "PASS" } else { "FAIL" },
            passes.len(),
            spark(&fails, width),
        );
        slo_ok &= failing == 0;
    }

    if args.inject_spike && run.violation.is_none() {
        eprintln!("inject-spike: the flight recorder did NOT trip");
        return Ok(ExitCode::from(1));
    }
    Ok(if slo_ok { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((base, fresh)) = &args.gate {
        gate_mode(base, fresh)
    } else if args.timeline {
        timeline_mode(&args)
    } else if args.spans {
        spans_mode(&args)
    } else if args.mission {
        mission_mode(&args)
    } else {
        Err(format!("no mode given\n{USAGE}"))
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("inca-analyze: {e}");
            ExitCode::from(2)
        }
    }
}
