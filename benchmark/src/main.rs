//! The repo's benchmark: four workloads, twelve end-to-end metrics and an
//! outside-in ladder of per-layer metrics, measured on two clocks — the
//! host's wall clock and the simulator's virtual cycles. See `README.md`
//! for the tables; every later performance claim is made in these names.
//!
//! The product is driven only through public functions of its crates.
//! One harness thread; `FuncBackend` at one thread unless a metric says
//! otherwise.

mod calib;
mod dslam;
mod func;
mod gen;
mod metrics;
mod serving;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use calib::{fast_quarter, fast_quarter_seconds, CalClock, Timing};
use metrics::{Domain, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Spans;
use stats::{percentile, Quartiles};

/// Seconds of timed work one run measures unless `--seconds` says
/// otherwise; with ≈2.5 s reps this gives 7 reps.
const DEFAULT_SECONDS: u64 = 17;
/// Full set-up (model build, compile, construction) is repeated and timed
/// in this many reps; later reps reuse the immutable compiled programs and
/// rebuild only mutable state.
const SETUP_REPS: usize = 3;
/// A cheap set-up is sampled again, without running, until this many
/// seconds or samples of it have been taken.
const SETUP_SAMPLING_S: f64 = 1.0;
const SETUP_SAMPLES_MAX: usize = 64;
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 64;
/// Traced reps of the traced run, interleaved with as many untraced ones.
const TRACED_REPS: usize = 3;
/// Spans the recorder has room for; more are counted as dropped.
const SPAN_CAPACITY: usize = 1 << 20;

/// What every workload is told.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

impl Cfg {
    /// Divides every workload size: 1, or 10 under `--quick`.
    pub fn shrink(&self) -> u64 {
        if self.quick {
            10
        } else {
            1
        }
    }
}

/// The accelerator every workload simulates.
pub fn accel() -> inca_accel::AccelConfig {
    inca_accel::AccelConfig::paper_big()
}

/// The slot of the task that preempts (requester, FE).
pub fn hi_slot() -> inca_accel::TaskSlot {
    inca_accel::TaskSlot::new(1).expect("slot 1 exists")
}

/// The slot of the task that is preempted (victim, PR).
pub fn lo_slot() -> inca_accel::TaskSlot {
    inca_accel::TaskSlot::new(3).expect("slot 3 exists")
}

/// Per-layer metric values by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// One repetition: fresh mutable state, one timed section, and what the
/// harness read off the simulation afterwards.
#[derive(Debug, Default)]
pub struct Rep {
    /// The timed section, chunk by chunk.
    pub wall: Timing,
    pub requests: u64,
    pub macs: u64,
    pub sim_s: f64,
    pub instrs: u64,
    pub hard_lat: Vec<u64>,
    pub hard_submitted: u64,
    pub hard_met: u64,
    pub be_submitted: u64,
    pub be_completed: u64,
    pub completed: u64,
    pub reload_cycles: u64,
    pub preempt_lat: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub faults: Vec<String>,
    pub digest: u64,
    /// Per-layer values read from this rep's simulated state.
    pub layer: Layer,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// The mutable state of one rep: engines, a gateway, a fleet.
    type State;
    /// Builds everything immutable a rep needs (models, compiled
    /// programs). Timed as set-up.
    fn prepare(cfg: &Cfg, spans: &mut Spans) -> Result<Self, String>;
    /// Builds one rep's fresh mutable state. Timed as set-up.
    fn build(&self) -> Result<Self::State, String>;
    /// Runs the timed section on `state`, then checks outputs.
    fn rep(&self, state: Self::State, spans: &mut Spans) -> Result<Rep, String>;
    /// The traced run's extra measurements: per-call numbers from
    /// `spans`, the ladder, single-layer probes.
    fn layers(&self, cfg: &Cfg, spans: &mut Spans, out: &mut Layer) -> Result<(), String>;
}

/// `model.*` and `compiler.*` from the `model.build` and
/// `compiler.compile_vi` spans of the traced run; `instrs` is the number of
/// instructions those compiles produced.
pub fn compile_metrics(spans: &Spans, instrs: usize, out: &mut Layer) {
    let (build_ns, _) = spans.total("model.build");
    let (compile_ns, _) = spans.total("compiler.compile_vi");
    out.insert("model.build_ms", build_ns as f64 / 1e6);
    out.insert("compiler.compile_vi_ms", compile_ns as f64 / 1e6);
    out.insert("compiler.instrs_per_s", instrs as f64 / (compile_ns as f64 / 1e9).max(1e-9));
}

/// The simulated-domain end-to-end values of one rep.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sim {
    hard_p99: u64,
    hard_samples: usize,
    hard_met_share: f64,
    be_goodput_share: f64,
    reload_cycles_per_req: f64,
    preempt_p99: u64,
    preempt_samples: usize,
    frames_per_pr: f64,
}

impl Sim {
    fn of(rep: &mut Rep) -> Self {
        Self {
            hard_p99: percentile(&mut rep.hard_lat, 99),
            hard_samples: rep.hard_lat.len(),
            hard_met_share: rep.hard_met as f64 / rep.hard_submitted.max(1) as f64,
            be_goodput_share: rep.be_completed as f64 / rep.be_submitted.max(1) as f64,
            reload_cycles_per_req: rep.reload_cycles as f64 / rep.completed.max(1) as f64,
            preempt_p99: percentile(&mut rep.preempt_lat, 99),
            preempt_samples: rep.preempt_lat.len(),
            frames_per_pr: rep.hard_submitted as f64 / rep.be_completed.max(1) as f64,
        }
    }
}

/// A host-domain end-to-end metric: the value reported, and the spread of
/// the per-rep values behind it.
#[derive(Debug, Clone, Copy, Default)]
struct HostValue {
    /// From the fast-quarter time (see `calib`).
    value: f64,
    /// The same metric computed rep by rep, from calibrated seconds.
    reps: Quartiles,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
struct Outcome {
    name: &'static str,
    reps: usize,
    host: BTreeMap<&'static str, HostValue>,
    sim: Option<Sim>,
    layer: Layer,
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
    digest: u64,
    /// Median raw-over-calibrated seconds of the reps.
    slowdown: f64,
}

impl Outcome {
    fn fault(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.faults.push(what);
    }

    /// Books one rep.
    fn absorb(&mut self, mut rep: Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.faults.append(&mut rep.faults);
        let sim = Sim::of(&mut rep);
        if self.reps == 0 {
            self.digest = rep.digest;
            self.sim = Some(sim);
            self.layer.append(&mut rep.layer);
        } else {
            // Same seed, fresh state: the simulation must repeat exactly.
            self.attempted += 1;
            if rep.digest != self.digest || Some(sim) != self.sim {
                self.failed += 1;
                self.faults.push(format!(
                    "rep {} diverged from rep 0: digest {:016x} vs {:016x}",
                    self.reps, rep.digest, self.digest
                ));
            }
        }
        self.reps += 1;
    }

    /// The value of an end-to-end metric.
    fn end_to_end(&self, name: &str) -> f64 {
        if let Some(h) = self.host.get(name) {
            return h.value;
        }
        let Some(s) = &self.sim else { return 0.0 };
        match name {
            "hard_p99_cycles" => s.hard_p99 as f64,
            "hard_met_share" => s.hard_met_share,
            "be_goodput_share" => s.be_goodput_share,
            "reload_cycles_per_req" => s.reload_cycles_per_req,
            "preempt_p99_cycles" => s.preempt_p99 as f64,
            "frames_per_pr" => s.frames_per_pr,
            _ => 0.0,
        }
    }
}

/// What the untraced reps gave the host-domain metrics.
#[derive(Debug, Default)]
struct HostSamples {
    /// Calibrated seconds of each full set-up.
    setup_s: Vec<f64>,
    /// The timed section of each rep.
    timings: Vec<Timing>,
    /// `[requests, MACs, simulated seconds, instructions]` of one rep —
    /// the same for every rep of a seed.
    work: [f64; 4],
}

impl HostSamples {
    fn note(&mut self, rep: &mut Rep) {
        self.work = [rep.requests as f64, rep.macs as f64, rep.sim_s, rep.instrs as f64];
        self.timings.push(std::mem::take(&mut rep.wall));
    }

    /// Median raw-over-calibrated seconds: how much slower than the
    /// reference the host ran.
    fn slowdown(&self) -> f64 {
        let ratios: Vec<f64> =
            self.timings.iter().map(|t| t.total.raw / t.total.cal.max(1e-12)).collect();
        stats::median(&ratios)
    }

    fn into_values(self, peak_rss_mb: f64) -> Result<BTreeMap<&'static str, HostValue>, String> {
        let reps: Vec<&Timing> = self.timings.iter().collect();
        let seconds = fast_quarter_seconds(&reps)
            .ok_or("reps of one workload were timed in different chunks")?;
        let throughput = |work: f64| HostValue {
            value: work / seconds.max(1e-12),
            reps: Quartiles::of(
                &reps.iter().map(|t| work / t.total.cal.max(1e-12)).collect::<Vec<_>>(),
            ),
        };
        Ok(BTreeMap::from([
            (
                "setup_s",
                HostValue {
                    value: fast_quarter(&self.setup_s),
                    reps: Quartiles::of(&self.setup_s),
                },
            ),
            ("req_per_host_s", throughput(self.work[0])),
            ("macs_per_host_s", throughput(self.work[1])),
            ("realtime_factor", throughput(self.work[2])),
            ("instr_per_host_s", throughput(self.work[3])),
            ("peak_rss_mb", HostValue { value: peak_rss_mb, reps: Quartiles::of(&[peak_rss_mb]) }),
        ]))
    }
}

/// One full set-up: `prepare` plus `build`, with the calibrated seconds
/// it took.
fn set_up<W: Workload>(cfg: &Cfg, spans: &mut Spans) -> Result<(W, W::State, f64), String> {
    let (made, seconds) = CalClock::default().time(|| {
        let workload = W::prepare(cfg, spans).map_err(|e| format!("prepare: {e}"))?;
        let state = workload.build().map_err(|e| format!("build: {e}"))?;
        Ok::<_, String>((workload, state))
    });
    let (workload, state) = made?;
    Ok((workload, state, seconds.cal))
}

/// The untraced run: the end-to-end metrics.
fn run_untraced<W: Workload>(cfg: &Cfg) -> Outcome {
    let mut out = Outcome { name: W::NAME, ..Outcome::default() };
    if let Err(e) = untraced_reps::<W>(cfg, &mut out) {
        out.fault(e);
    }
    out
}

fn untraced_reps<W: Workload>(cfg: &Cfg, out: &mut Outcome) -> Result<(), String> {
    let mut spans = Spans::off();
    let mut host = HostSamples::default();
    let (mut workload, mut state, setup_s) = set_up::<W>(cfg, &mut spans)?;
    host.setup_s.push(setup_s);
    let mut timed = 0.0;
    let (min_reps, max_reps) = if cfg.quick { (1, 1) } else { (MIN_REPS, MAX_REPS) };
    loop {
        let mut rep =
            workload.rep(state, &mut spans).map_err(|e| format!("rep {}: {e}", out.reps))?;
        let t = rep.wall.total;
        timed += t.raw;
        eprintln!("# {} rep {}: {:.3} s raw, {:.3} s calibrated", W::NAME, out.reps, t.raw, t.cal);
        host.note(&mut rep);
        out.absorb(rep);
        if out.reps >= max_reps || (out.reps >= min_reps && timed >= cfg.seconds) {
            break;
        }
        // The first reps set up from scratch, for `setup_s`; later ones
        // reuse the immutable compiled programs.
        if out.reps < SETUP_REPS {
            let setup_s;
            (workload, state, setup_s) = set_up::<W>(cfg, &mut spans)?;
            host.setup_s.push(setup_s);
        } else {
            state = workload.build().map_err(|e| format!("build: {e}"))?;
        }
    }
    // A set-up of milliseconds needs more than three samples to be
    // steady: keep sampling it, without running, for a while.
    let mut sampled: f64 = host.setup_s.iter().sum();
    while !cfg.quick && sampled < SETUP_SAMPLING_S && host.setup_s.len() < SETUP_SAMPLES_MAX {
        let (_, _, setup_s) = set_up::<W>(cfg, &mut spans)?;
        host.setup_s.push(setup_s);
        sampled += setup_s;
    }
    out.slowdown = host.slowdown();
    out.host = host.into_values(stats::peak_rss_mb().unwrap_or(0.0))?;
    Ok(())
}

/// The traced run: the per-layer metrics, and the trace file.
fn run_traced<W: Workload>(cfg: &Cfg) -> Outcome {
    let mut out = Outcome { name: W::NAME, ..Outcome::default() };
    let mut spans = Spans::with_capacity(SPAN_CAPACITY);
    if let Err(e) = traced_reps::<W>(cfg, &mut spans, &mut out) {
        out.fault(e);
    }
    let path = format!("{}/out/{}.trace.json", package_dir(), W::NAME);
    let written = std::fs::create_dir_all(format!("{}/out", package_dir()))
        .and_then(|()| std::fs::write(&path, spans.to_json(W::NAME, cfg.seed)));
    match written {
        Ok(()) => eprintln!("# wrote {path} ({} spans dropped)", spans.dropped()),
        Err(e) => out.fault(format!("writing {path}: {e}")),
    }
    out
}

fn traced_reps<W: Workload>(cfg: &Cfg, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    let workload = W::prepare(cfg, spans).map_err(|e| format!("prepare: {e}"))?;
    // Traced and untraced reps alternate, so the overhead share compares
    // neighbours in time.
    let reps = if cfg.quick { 1 } else { 2 * TRACED_REPS };
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for k in 0..reps {
        let on = k % 2 == 0;
        spans.set_enabled(on);
        let state = workload.build().map_err(|e| format!("build: {e}"))?;
        let rep = workload.rep(state, spans).map_err(|e| format!("rep {k}: {e}"))?;
        if on { &mut traced } else { &mut untraced }.push(rep.wall.clone());
        out.absorb(rep);
    }
    spans.set_enabled(true);
    let seconds = |reps: &[Timing]| {
        fast_quarter_seconds(&reps.iter().collect::<Vec<_>>())
            .ok_or("reps of one workload were timed in different chunks")
    };
    // Under `--quick` there is no untraced rep to compare with.
    if !untraced.is_empty() {
        out.layer
            .insert("harness.trace_overhead_share", seconds(&traced)? / seconds(&untraced)? - 1.0);
    }
    workload.layers(cfg, spans, &mut out.layer).map_err(|e| format!("layers: {e}"))
}

fn run(name: &str, cfg: &Cfg, traced: bool) -> Outcome {
    macro_rules! dispatch {
        ($($w:ty),*) => {
            $(if name == <$w>::NAME {
                return if traced { run_traced::<$w>(cfg) } else { run_untraced::<$w>(cfg) };
            })*
        };
    }
    dispatch!(serving::FleetSteady, serving::GatewayOverload, func::FuncInfer, dslam::DslamMission);
    unreachable!("workload names are validated at start-up")
}

/// The benchmark's own directory, relative to where it is run from: the
/// repo root (`benchmark/`) or the package itself (`.`).
fn package_dir() -> &'static str {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark"
    } else {
        "."
    }
}

/// The `[profile.release]` keys of a manifest.
fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect()
}

/// The benchmark must measure what release ships: its `[profile.release]`
/// has to equal the root manifest's.
fn check_profile_drift() -> Result<(), String> {
    let dir = package_dir();
    let read = |p: String| std::fs::read_to_string(&p).map_err(|e| format!("{p}: {e}"));
    let own = release_profile(&read(format!("{dir}/Cargo.toml"))?);
    let root = release_profile(&read(format!("{dir}/../Cargo.toml"))?);
    if own.is_empty() || own != root {
        return Err(format!("[profile.release] drifted: benchmark {own:?} vs root {root:?}"));
    }
    Ok(())
}

// ------------------------------------------------------------ reporting

fn print_untraced(o: &Outcome) {
    println!("\n== {} (untraced, {} reps) ==", o.name, o.reps);
    println!(
        "{:<22} {:>20} {:>10}  {:>46}  definition",
        "end-to-end metric", "value", "unit", "per rep: q1 / median / q3 (n, spread)"
    );
    for m in END_TO_END {
        let per_rep = match o.host.get(m.name) {
            Some(HostValue { reps: q, .. }) if q.n > 1 => {
                format!(
                    "{:.6} / {:.6} / {:.6} ({}, {:.1}%)",
                    q.q1,
                    q.median,
                    q.q3,
                    q.n,
                    100.0 * q.spread()
                )
            }
            Some(_) => "one reading per run".to_owned(),
            None => "simulated: exact for the seed".to_owned(),
        };
        println!(
            "{:<22} {:>20.6} {:>10}  {:>46}  {}",
            m.name,
            o.end_to_end(m.name),
            m.unit,
            per_rep,
            m.what
        );
    }
    if let Some(s) = &o.sim {
        println!(
            "hard_p99_cycles over {} samples, preempt_p99_cycles over {} samples",
            s.hard_samples, s.preempt_samples
        );
    }
    println!(
        "host seconds are calibrated (probe = {} ns) and taken per chunk from its fastest quarter of reps; \
         raw wall seconds were {:.3}x the calibrated ones",
        calib::REF_PROBE_NS,
        o.slowdown
    );
    print_footer(o);
}

fn print_traced(o: &Outcome) {
    println!("\n== {} (traced, {} reps) ==", o.name, o.reps);
    println!("{:<44} {:>18} {:>10}  should move", "per-layer metric", "value", "unit");
    for m in PER_LAYER {
        if let Some(v) = o.layer.get(m.name) {
            println!("{:<44} {:>18.4} {:>10}  {}", m.name, v, m.unit, m.moves);
        }
    }
    print_footer(o);
}

fn print_footer(o: &Outcome) {
    println!(
        "ops_attempted {}  ops_failed {}  sim_digest {:016x}",
        o.attempted, o.failed, o.digest
    );
    for f in &o.faults {
        println!("FAULT {}: {f}", o.name);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line the driver reads: the last line of standard output.
fn result_line(o: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = o.layer.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(o.end_to_end(m.name)),
                    m.unit
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// One measurement is one process, as the driver runs it: peak RSS and
/// every once-per-process cache then belong to that workload alone. This
/// runs `--workload name --trace t` in a child, echoes what it printed and
/// returns it with whether the child succeeded.
fn measure_in_child(name: &str, cfg: &Cfg, traced: bool) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name, "--trace", if traced { "1" } else { "0" }]);
    cmd.args(["--seed", &cfg.seed.to_string(), "--seconds", &cfg.seconds.to_string()]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running {name} in a child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{stdout}");
    Ok((stdout, out.status.success()))
}

/// The value of `metric` in a result line.
fn value_in(result: &str, metric: &str) -> Option<f64> {
    let rest = &result[result.find(&format!("\"{metric}\": {{\"value\": "))?..];
    let number = rest.split_once("\"value\": ")?.1;
    number[..number.find(',')?].parse().ok()
}

/// `--check-repeat`: every workload's untraced run twice; host-domain
/// values must agree within each metric's bound, simulated-domain values
/// and digests exactly.
fn check_repeat(names: &[&str], cfg: &Cfg) -> Result<bool, String> {
    let mut ok = true;
    let mut table = format!(
        "\n{:<18} {:<24} {:>22} {:>22} {:>8} {:>6}  verdict\n",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for name in names {
        let (first, first_ok) = measure_in_child(name, cfg, false)?;
        let (second, second_ok) = measure_in_child(name, cfg, false)?;
        ok &= first_ok && second_ok;
        let result = |out: &str| out.lines().last().unwrap_or_default().to_owned();
        let digest = |out: &str| {
            out.lines().rev().find_map(|l| l.split_once("sim_digest ").map(|(_, d)| d.to_owned()))
        };
        for m in END_TO_END {
            let (Some(x), Some(y)) =
                (value_in(&result(&first), m.name), value_in(&result(&second), m.name))
            else {
                return Err(format!("{name}: no {} in a result line", m.name));
            };
            let gap = if x == 0.0 { 0.0 } else { (y - x).abs() / x.abs() };
            let (pass, bound) = match m.domain {
                Domain::Host => (gap <= m.bound, m.bound),
                Domain::Sim => (x == y, 0.0),
            };
            ok &= pass;
            let verdict = if pass { "PASS" } else { "FAIL" };
            table += &format!(
                "{name:<18} {:<24} {x:>22.6} {y:>22.6} {:>7.2}% {:>5.0}%  {verdict}\n",
                m.name,
                100.0 * gap,
                100.0 * bound
            );
        }
        let (a, b) = (digest(&first), digest(&second));
        let same = a.is_some() && a == b;
        ok &= same;
        table += &format!(
            "{name:<18} {:<24} {:>22} {:>22} {:>16}  {}\n",
            "sim_digest",
            a.unwrap_or_default(),
            b.unwrap_or_default(),
            "",
            if same { "PASS" } else { "FAIL" }
        );
    }
    print!("{table}");
    Ok(ok)
}

const USAGE: &str =
    "usage: inca-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
                      [--quick] [--check-repeat] [--print-manifest]
  no --workload: all four; no --trace: the untraced run, then the traced run.
  With --workload and --trace the last line of stdout is the JSON result.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Cfg { seed: 2020, seconds: DEFAULT_SECONDS as f64, quick: false };
    let (mut workload, mut trace, mut repeat) = (None, None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let parsed: Result<(), String> = (|| {
            match arg.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                "--quick" => cfg.quick = true,
                "--check-repeat" => repeat = true,
                "--print-manifest" => {
                    print!("{}", metrics::manifest(DEFAULT_SECONDS));
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        eprintln!("--seconds must be in (0, 600]\n{USAGE}");
        return ExitCode::from(2);
    }
    let names: Vec<&str> = match &workload {
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
        Some(w) => match WORKLOADS.iter().find(|(n, _)| n == w) {
            Some((n, _)) => vec![*n],
            None => {
                eprintln!("unknown workload {w}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    if let Err(e) = check_profile_drift() {
        eprintln!("start-up check failed: {e}");
        return ExitCode::from(3);
    }
    println!(
        "# inca-benchmark seed {} seconds {} quick {} nproc {}",
        cfg.seed,
        cfg.seconds,
        cfg.quick,
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    // A single measurement: in this process, result line last.
    if let (Some(name), Some(traced), false) =
        (names.first().filter(|_| workload.is_some()), trace, repeat)
    {
        let o = run(name, &cfg, traced);
        if traced {
            print_traced(&o);
        } else {
            print_untraced(&o);
        }
        println!("{}", result_line(&o, traced));
        return if o.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    // Anything more: one child process per measurement.
    let all = if repeat {
        check_repeat(&names, &cfg)
    } else {
        let jobs = names.iter().flat_map(|n| [(n, false), (n, true)]);
        jobs.filter(|(_, traced)| trace.is_none_or(|only| only == *traced))
            .try_fold(true, |ok, (name, traced)| Ok(ok & measure_in_child(name, &cfg, traced)?.1))
    };
    match all {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_read_back() {
        let mut o = Outcome::default();
        o.host.insert("setup_s", HostValue { value: 0.125, reps: Quartiles::default() });
        let line = result_line(&o, false);
        assert_eq!(value_in(&line, "setup_s"), Some(0.125));
        assert_eq!(value_in(&line, "frames_per_pr"), Some(0.0));
        assert_eq!(value_in(&line, "no_such_metric"), None);
    }

    #[test]
    fn release_profile_is_parsed_per_section() {
        let m = "[package]\nname = \"x\"\n\n# c\n[profile.release]\n# why\nlto = \"thin\"\ncodegen-units = 1\n\n[profile.bench]\ninherits = \"release\"\n";
        let p = release_profile(m);
        assert_eq!(p.len(), 2);
        assert_eq!(p["lto"], "\"thin\"");
        assert_eq!(p["codegen-units"], "1");
        assert!(release_profile("[package]\n").is_empty());
    }
}
