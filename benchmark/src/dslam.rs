//! `dslam_mission`: the paper's own experiment — `Mission::run` with two
//! agents, FE (SuperPoint 240×320 @ 20 fps, hard) preempting PR
//! (GeM/ResNet101 480×640). Long programs make `accel::engine` instruction
//! stepping, `runtime` pub/sub and `dslam`'s CPU-side work dominate the
//! timed section, and `compiler` dominates set-up.

use std::sync::{Arc, OnceLock};

use inca_accel::{Engine, TimingBackend};
use inca_compiler::Compiler;
use inca_dslam::mission::{Mission, MissionConfig, MissionOutcome, MissionTrace};
use inca_model::zoo;

use crate::calib::{fast_quarter, CalClock};
use crate::spans::Spans;
use crate::stats::{median, Fnv};
use crate::{compile_metrics, hi_slot, lo_slot, Cfg, Layer, Rep, Workload};

/// Simulated seconds per agent. `Mission::run` is one atomic call, so a
/// rep is one chunk for the calibrated clock, and the host's slow phases
/// last about a second: 10 s (≈0.7 host-seconds) keeps a rep short enough
/// to fall inside a quiet phase, and gives a run some two dozen of them.
const DURATION_S: f64 = 10.0;
/// Events kept per agent by the traced mission run.
const TRACE_EVENTS_PER_AGENT: usize = 65_536;
/// Solo engine runs of the FE and PR programs in the traced run.
const SOLO_RUNS: usize = 16;
/// Untraced / traced / replayed mission runs compared side by side.
const PAIRED_RUNS: usize = 5;

/// One `Mission::run_traced` per process. `Mission::run` does not expose
/// `engine.instrs.retired`; the traced run's metrics do, and the mission
/// is deterministic, so the count is read here once. The run also gives
/// the `obs.*` numbers, and its digest must equal every untraced run's:
/// tracing may not move the simulation.
struct Calibration {
    instrs: u64,
    digest: u64,
    trace: MissionTrace,
}

static CALIBRATION: OnceLock<Calibration> = OnceLock::new();

pub struct DslamMission {
    mission: Mission,
    config: MissionConfig,
    fe_macs: u64,
    pr_macs: u64,
    period_cycles: u64,
}

fn digest_of(outcome: &MissionOutcome) -> u64 {
    let mut d = Fnv::default();
    for a in &outcome.agents {
        for v in [
            u64::from(a.frames),
            u64::from(a.fe_completed),
            u64::from(a.fe_dropped),
            a.deadline_misses as u64,
            u64::from(a.pr_completed),
            u64::from(a.vo_failures),
            a.loop_closures as u64,
            a.ate_before_optimization.to_bits(),
        ] {
            d.u64(v);
        }
        for j in &a.jobs {
            for v in [
                j.slot.index() as u64,
                j.release,
                j.start,
                j.finish,
                j.busy_cycles,
                j.extra_cost_cycles,
                u64::from(j.preemptions),
            ] {
                d.u64(v);
            }
        }
        for ev in &a.interrupts {
            for v in [ev.request_cycle, u64::from(ev.layer), ev.t1, ev.t2, ev.t4] {
                d.u64(v);
            }
        }
    }
    match &outcome.merge {
        Some(m) => {
            d.u64(u64::from(m.frame_a));
            d.u64(u64::from(m.frame_b));
            d.u64(m.alignment_rmse_m.to_bits());
        }
        None => d.u64(u64::MAX),
    }
    d.0
}

impl DslamMission {
    fn calibration(&self) -> Result<&Calibration, String> {
        if CALIBRATION.get().is_none() {
            let (outcome, trace) = self
                .mission
                .run_traced(TRACE_EVENTS_PER_AGENT)
                .map_err(|e| format!("Mission::run_traced: {e}"))?;
            let metrics = trace.metrics();
            let instrs = (0..outcome.agents.len())
                .map(|i| metrics.counter(&format!("agent{i}.engine.instrs.retired")))
                .sum();
            let _ = CALIBRATION.set(Calibration { instrs, digest: digest_of(&outcome), trace });
        }
        Ok(CALIBRATION.get().expect("set above"))
    }

    fn deadline_cycles(&self) -> u64 {
        self.config.accel.us_to_cycles(self.config.duration_s * 1e6)
    }

    /// Calibrated seconds a bare timing engine per agent needs to replay the
    /// outcome's accelerator jobs at their release cycles: the mission
    /// without `runtime` pub/sub and `dslam`'s CPU-side work.
    fn replay_s(&self, outcome: &MissionOutcome) -> Result<f64, String> {
        let fe = Arc::new(self.mission.fe_program().clone());
        let pr = Arc::new(self.mission.pr_program().clone());
        let mut total = 0.0;
        for agent in &outcome.agents {
            let mut e = Engine::new(self.config.accel, self.config.strategy, TimingBackend::new());
            e.load(hi_slot(), Arc::clone(&fe)).map_err(|e| e.to_string())?;
            e.load(lo_slot(), Arc::clone(&pr)).map_err(|e| e.to_string())?;
            for j in &agent.jobs {
                e.request_at(j.release, j.slot).map_err(|e| e.to_string())?;
            }
            let (ran, seconds) = CalClock::default().time(|| e.run_until(self.deadline_cycles()));
            ran.map_err(|e| format!("replay: {e}"))?;
            total += seconds.cal;
        }
        Ok(total)
    }
}

impl Workload for DslamMission {
    const NAME: &'static str = "dslam_mission";
    /// `Mission::run` builds its own runtimes; nothing to hand over.
    type State = ();

    fn prepare(cfg: &Cfg, spans: &mut Spans) -> Result<Self, String> {
        let config = MissionConfig {
            duration_s: DURATION_S / cfg.shrink() as f64,
            seed: cfg.seed,
            ..MissionConfig::default()
        };
        let mission = spans
            .time(true, "mission.new", 0, || Mission::new(config.clone()))
            .map_err(|e| format!("Mission::new: {e}"))?;
        let period_cycles = config.accel.us_to_cycles(config.camera.period_s() * 1e6);
        let (fe_macs, pr_macs) =
            (mission.fe_program().stats().macs, mission.pr_program().stats().macs);
        Ok(Self { mission, config, fe_macs, pr_macs, period_cycles })
    }

    fn build(&self) -> Result<(), String> {
        Ok(())
    }

    fn rep(&self, (): (), spans: &mut Spans) -> Result<Rep, String> {
        let calibration = self.calibration()?;
        // One atomic call, so one chunk: probes can only bracket it.
        let mut clock = CalClock::default();
        let (ran, _) = clock.time(|| spans.time(true, "mission.run", 0, || self.mission.run()));
        let outcome = ran.map_err(|e| format!("Mission::run: {e}"))?;

        let mut rep = Rep {
            wall: clock.into_timing(),
            instrs: calibration.instrs,
            digest: digest_of(&outcome),
            ..Rep::default()
        };
        let (mut frames, mut pr_completed, mut preemptions) = (0u64, 0u64, 0u64);
        for a in &outcome.agents {
            frames += u64::from(a.frames);
            pr_completed += u64::from(a.pr_completed);
            preemptions += a.interrupts.len() as u64;
            // A dropped frame never reached the accelerator; it is a hard
            // request all the same, and it missed.
            rep.hard_submitted += u64::from(a.frames);
            rep.requests += u64::from(a.frames - a.fe_dropped);
            // PR resubmits the moment it completes: one is always in flight.
            rep.be_submitted += u64::from(a.pr_completed) + 1;
            for j in &a.jobs {
                rep.completed += 1;
                if j.slot == hi_slot() {
                    rep.hard_lat.push(j.response());
                    rep.hard_met += u64::from(j.response() <= self.period_cycles);
                    rep.macs += self.fe_macs;
                } else {
                    rep.be_completed += 1;
                    rep.macs += self.pr_macs;
                }
            }
            for ev in &a.interrupts {
                rep.preempt_lat.push(ev.latency());
                rep.reload_cycles += ev.cost();
            }
        }
        rep.requests += rep.be_submitted;
        rep.sim_s = outcome.agents.len() as f64 * self.config.duration_s;
        // One operation per accelerator job, one for the mission, one for
        // the traced-equals-untraced check.
        rep.attempted = rep.completed + 2;
        if rep.digest != calibration.digest {
            rep.faults.push(format!(
                "untraced mission digest {:016x} differs from the traced run's {:016x}",
                rep.digest, calibration.digest
            ));
        }
        if rep.be_completed != pr_completed {
            rep.faults.push(format!(
                "{} PR jobs in the job list, {pr_completed} PR passes counted",
                rep.be_completed
            ));
        }
        rep.failed = rep.faults.len() as u64;
        rep.layer.insert("dslam.frames", frames as f64);
        rep.layer.insert("dslam.pr_completed", pr_completed as f64);
        rep.layer.insert("dslam.preemptions", preemptions as f64);
        rep.layer.insert("dslam.merged", f64::from(u8::from(outcome.merge.is_some())));
        Ok(rep)
    }

    fn layers(&self, _cfg: &Cfg, spans: &mut Spans, out: &mut Layer) -> Result<(), String> {
        // What Mission::new does inside, taken apart from outside.
        let (fe_net, pr_net) = spans.time(true, "model.build", 0, || {
            (zoo::superpoint(self.config.fe_input), zoo::gem_resnet101(self.config.pr_input))
        });
        let (fe_net, pr_net) =
            (fe_net.map_err(|e| e.to_string())?, pr_net.map_err(|e| e.to_string())?);
        let compiler = Compiler::new(self.config.accel.arch);
        let mut instrs = 0usize;
        for net in [&fe_net, &pr_net] {
            let p = spans
                .time(true, "compiler.compile_vi", 0, || compiler.compile_vi(net))
                .map_err(|e| e.to_string())?;
            instrs += p.instrs.len();
        }
        compile_metrics(spans, instrs, out);

        // The bare engine on the two programs, solo.
        let fe = Arc::new(self.mission.fe_program().clone());
        let pr = Arc::new(self.mission.pr_program().clone());
        let mut solo_instrs = 0u64;
        let mut solo_s = Vec::new();
        for _ in 0..SOLO_RUNS {
            let mut clock = CalClock::default();
            solo_instrs = 0;
            for program in [&fe, &pr] {
                let mut e =
                    Engine::new(self.config.accel, self.config.strategy, TimingBackend::new());
                e.load(lo_slot(), Arc::clone(program)).map_err(|e| e.to_string())?;
                e.request_at(0, lo_slot()).map_err(|e| e.to_string())?;
                let (ran, _) =
                    clock.time(|| spans.time(true, "engine.run", 0, || e.run_until(u64::MAX)));
                ran.map_err(|e| format!("solo engine: {e}"))?;
                solo_instrs += e.metrics().counter("engine.instrs.retired");
            }
            solo_s.push(clock.total().cal);
        }
        out.insert(
            "accel.engine.instr_per_host_s",
            solo_instrs as f64 / fast_quarter(&solo_s).max(1e-9),
        );

        // Untraced, traced and replayed runs side by side, so each ratio
        // compares neighbours in time; the median ratio is kept.
        let c = self.calibration()?;
        let (mut traced_over_run, mut replay_over_run) = (Vec::new(), Vec::new());
        for _ in 0..PAIRED_RUNS {
            let (ran, run) = CalClock::default().time(|| self.mission.run());
            let outcome = ran.map_err(|e| format!("Mission::run: {e}"))?;
            let (ran, traced) =
                CalClock::default().time(|| self.mission.run_traced(TRACE_EVENTS_PER_AGENT));
            ran.map_err(|e| format!("Mission::run_traced: {e}"))?;
            traced_over_run.push(traced.cal / run.cal.max(1e-9));
            replay_over_run.push(self.replay_s(&outcome)? / run.cal.max(1e-9));
        }
        out.insert("obs.trace_overhead_share", median(&traced_over_run) - 1.0);
        out.insert("dslam.nonaccel_share", 1.0 - median(&replay_over_run));
        out.insert(
            "obs.trace_events",
            c.trace.agents.iter().map(|a| a.events.len()).sum::<usize>() as f64,
        );
        out.insert(
            "obs.trace_dropped",
            c.trace.agents.iter().map(|a| a.dropped).sum::<u64>() as f64,
        );
        let (chrome, seconds) = CalClock::default()
            .time(|| spans.time(true, "obs.chrome_json", 0, || c.trace.chrome_json()));
        out.insert("obs.chrome_export_ms", seconds.cal * 1e3);
        std::hint::black_box(chrome);
        Ok(())
    }
}
