//! The full two-agent DSLAM mission on INCA accelerators (paper §V).
//!
//! Per agent, on its own accelerator (as on the paper's two ZCU102
//! boards):
//!
//! * a camera node publishes frames at 20 fps;
//! * the FE node submits the SuperPoint backbone on **slot 1** (high
//!   priority) for every frame, with the next frame period as deadline,
//!   then runs NMS/descriptor post-processing;
//! * the VO node integrates relative poses on the CPU;
//! * the PR node keeps the GeM/ResNet101 backbone running on **slot 3**
//!   (low priority, interruptible) whenever the accelerator has cycles,
//!   encoding the newest frame each time a pass completes.
//!
//! After both agents run, PR codes are matched across agents and a match
//! above a fixed similarity threshold triggers map merging.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use inca_accel::{AccelConfig, InterruptEvent, InterruptStrategy, JobRecord, TimingBackend};
use inca_compiler::Compiler;
use inca_isa::{Program, Shape3, TaskSlot};
use inca_model::zoo;
use inca_obs::{ChromeTrace, Metrics, TraceEvent, Tracer};
use inca_runtime::{JobHandle, Node, NodeContext, Runtime};

use crate::camera::{Camera, CameraConfig, Frame};
use crate::features::{FeatureExtractor, Keypoint};
use crate::map::{merge_maps, AgentMap, MergeResult};
use crate::pr::{code_similarity, PlaceDatabase, PlaceRecognizer};
use crate::trajectory::Trajectory;
use crate::vo::VisualOdometry;
use crate::world::World;
use crate::DslamError;

/// PR similarity threshold for a loop closure within an agent and for a
/// cross-agent match.
const MERGE_THRESHOLD: f32 = 0.90;

/// Mission parameters.
#[derive(Debug, Clone)]
pub struct MissionConfig {
    /// Mission length in seconds.
    pub duration_s: f64,
    /// World/noise seed.
    pub seed: u64,
    /// Camera model.
    pub camera: CameraConfig,
    /// Accelerator configuration (per agent).
    pub accel: AccelConfig,
    /// Interrupt strategy.
    pub strategy: InterruptStrategy,
    /// FE backbone input shape (SuperPoint; paper: 1×480×640).
    pub fe_input: Shape3,
    /// PR backbone input shape (GeM/ResNet101; paper: 3×480×640).
    pub pr_input: Shape3,
    /// Run intra-agent loop-closure pose-graph relaxation after the
    /// mission (bounds VO drift before merging).
    pub loop_closure: bool,
}

impl Default for MissionConfig {
    fn default() -> Self {
        Self {
            duration_s: 30.0,
            seed: 2020,
            camera: CameraConfig::default(),
            accel: AccelConfig::paper_big(),
            strategy: InterruptStrategy::VirtualInstruction,
            // FE runs on a 2x-downsampled camera image so a SuperPoint pass
            // fits the 50 ms frame budget (~22 ms on the simulated
            // accelerator) — the SuperPoint paper's own real-time
            // configuration downsamples even further, to 120x160.
            fe_input: Shape3::new(1, 240, 320),
            pr_input: Shape3::new(3, 480, 640),
            loop_closure: true,
        }
    }
}

impl MissionConfig {
    /// A reduced configuration for fast tests: short mission, small
    /// backbone resolutions.
    #[must_use]
    pub fn small_test() -> Self {
        Self {
            duration_s: 2.0,
            fe_input: Shape3::new(1, 120, 160),
            pr_input: Shape3::new(3, 120, 160),
            ..Self::default()
        }
    }
}

/// Per-agent results.
#[derive(Debug, Clone)]
pub struct AgentOutcome {
    /// Camera frames produced.
    pub frames: u32,
    /// FE jobs completed.
    pub fe_completed: u32,
    /// Frames dropped because FE was still busy.
    pub fe_dropped: u32,
    /// FE deadline misses.
    pub deadline_misses: usize,
    /// PR passes completed.
    pub pr_completed: u32,
    /// VO tracking failures.
    pub vo_failures: u32,
    /// Intra-agent loop closures applied by the pose-graph relaxation.
    pub loop_closures: usize,
    /// Trajectory ATE before loop-closure optimisation (equals the final
    /// ATE when `loop_closure` is disabled or no closure was found).
    pub ate_before_optimization: f64,
    /// The agent's map.
    pub map: AgentMap,
    /// The agent's PR code database.
    pub codes: PlaceDatabase,
    /// All preemptions on this agent's accelerator.
    pub interrupts: Vec<InterruptEvent>,
    /// All completed accelerator jobs.
    pub jobs: Vec<JobRecord>,
}

impl AgentOutcome {
    /// Camera frames per completed PR pass (paper: 7–10).
    #[must_use]
    pub fn frames_per_pr(&self) -> f64 {
        f64::from(self.frames) / f64::from(self.pr_completed.max(1))
    }
}

/// Whole-mission results.
#[derive(Debug, Clone)]
pub struct MissionOutcome {
    /// Both agents' results.
    pub agents: Vec<AgentOutcome>,
    /// Cross-agent merge, if a PR match succeeded.
    pub merge: Option<MergeResult>,
}

/// Messages on the per-agent bus.
#[derive(Clone)]
enum Msg {
    Frame(Arc<Frame>),
    Features { frame: Arc<Frame>, keypoints: Arc<Vec<Keypoint>> },
}

#[derive(Default)]
struct AgentState {
    frames: u32,
    fe_dropped: u32,
    fe_completed: u32,
    pr_completed: u32,
    vo: Option<VisualOdometry>,
    map: AgentMap,
    codes: PlaceDatabase,
    last_frame: Option<Arc<Frame>>,
}

type Shared = Rc<RefCell<AgentState>>;

struct CameraNode {
    world: Arc<World>,
    trajectory: Trajectory,
    camera: Camera,
    period_cycles: u64,
    frames_total: u32,
    state: Shared,
}

impl Node<Msg> for CameraNode {
    fn name(&self) -> &str {
        "camera"
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_, Msg>, _t: u32) {
        let mut st = self.state.borrow_mut();
        if st.frames >= self.frames_total {
            return;
        }
        let idx = st.frames;
        st.frames += 1;
        drop(st);
        let time_s = ctx.now() as f64 / ctx.config().clock_hz as f64;
        let pose = self.trajectory.pose_at(time_s);
        let frame = Arc::new(self.camera.capture(&self.world, pose, idx, time_s));
        ctx.publish("camera/image", Msg::Frame(frame));
        ctx.schedule_timer(self.period_cycles, 0);
    }
}

struct FeNode {
    slot: TaskSlot,
    period_cycles: u64,
    extractor: FeatureExtractor,
    pending: Option<Arc<Frame>>,
    state: Shared,
}

impl Node<Msg> for FeNode {
    fn name(&self) -> &str {
        "fe"
    }
    fn on_message(&mut self, ctx: &mut NodeContext<'_, Msg>, _t: &str, m: &Msg) {
        let Msg::Frame(frame) = m else { return };
        self.state.borrow_mut().last_frame = Some(Arc::clone(frame));
        if self.pending.is_some() {
            self.state.borrow_mut().fe_dropped += 1;
            return;
        }
        self.pending = Some(Arc::clone(frame));
        let _ = ctx.submit_accel_with_deadline(self.slot, ctx.now() + self.period_cycles);
    }
    fn on_accel_done(&mut self, ctx: &mut NodeContext<'_, Msg>, _j: JobHandle, _r: &JobRecord) {
        // The CNN backbone finished; the FE post-processing block (NMS +
        // descriptor sampling, 200 MHz PL logic in the paper) takes a
        // little longer before features are available.
        let Some(frame) = &self.pending else { return };
        let post_s = self.extractor.post_processing_s(frame.observations.len());
        let delay = ctx.config().us_to_cycles(post_s * 1e6).max(1);
        ctx.schedule_timer(delay, FE_POST_TIMER);
    }
    fn on_timer(&mut self, ctx: &mut NodeContext<'_, Msg>, timer: u32) {
        if timer != FE_POST_TIMER {
            return;
        }
        let Some(frame) = self.pending.take() else { return };
        let keypoints = Arc::new(self.extractor.extract(&frame));
        self.state.borrow_mut().fe_completed += 1;
        ctx.publish("fe/features", Msg::Features { frame, keypoints });
    }
}

/// Timer id of the FE post-processing completion.
const FE_POST_TIMER: u32 = 1;

struct VoNode {
    state: Shared,
}

impl Node<Msg> for VoNode {
    fn name(&self) -> &str {
        "vo"
    }
    fn on_message(&mut self, _ctx: &mut NodeContext<'_, Msg>, _t: &str, m: &Msg) {
        let Msg::Features { frame, keypoints } = m else { return };
        let mut st = self.state.borrow_mut();
        let mut vo = st.vo.take().unwrap_or_else(|| VisualOdometry::new(frame.truth_pose));
        let pose = vo.process(keypoints.as_ref().clone());
        st.vo = Some(vo);
        st.map.record(frame, pose);
    }
}

struct PrNode {
    slot: TaskSlot,
    recognizer: PlaceRecognizer,
    snapshot: Option<Arc<Frame>>,
    started: bool,
    state: Shared,
    tracer: Tracer,
}

impl PrNode {
    fn submit(&mut self, ctx: &mut NodeContext<'_, Msg>, frame: Arc<Frame>) {
        self.snapshot = Some(frame);
        self.started = true;
        let _ = ctx.submit_accel(self.slot);
    }
}

impl Node<Msg> for PrNode {
    fn name(&self) -> &str {
        "pr"
    }
    fn on_message(&mut self, ctx: &mut NodeContext<'_, Msg>, _t: &str, m: &Msg) {
        let Msg::Frame(frame) = m else { return };
        if !self.started {
            self.submit(ctx, Arc::clone(frame));
        }
    }
    fn on_accel_done(&mut self, ctx: &mut NodeContext<'_, Msg>, _j: JobHandle, _r: &JobRecord) {
        if let Some(frame) = self.snapshot.take() {
            let mut st = self.state.borrow_mut();
            let pose = st
                .map
                .sample_of(frame.index)
                .map(|s| s.estimate)
                .or_else(|| st.vo.as_ref().map(|v| v.pose()))
                .unwrap_or(frame.truth_pose);
            let code = self.recognizer.encode(&frame, pose);
            st.codes.insert(code);
            st.pr_completed += 1;
            let (cycle, frame_idx, pass) = (ctx.now(), frame.index, st.pr_completed);
            self.tracer.emit(|| TraceEvent::Milestone {
                cycle,
                label: "pr.encode".into(),
                detail: format!("pass {pass} encoded frame {frame_idx}"),
            });
        }
        let next = self.state.borrow().last_frame.clone();
        if let Some(frame) = next {
            self.submit(ctx, frame);
        } else {
            self.started = false;
        }
    }
}

/// The mission driver.
pub struct Mission {
    config: MissionConfig,
    fe_program: Arc<Program>,
    pr_program: Arc<Program>,
    world: Arc<World>,
}

impl Mission {
    /// Compiles the FE and PR backbones and builds the world.
    ///
    /// # Errors
    ///
    /// [`DslamError::Config`] unless `duration_s` is positive and finite
    /// (a NaN duration would run no frame, an infinite one never end);
    /// otherwise propagates model/compiler errors (e.g. a resolution too
    /// small for the backbone's downsampling stack).
    pub fn new(config: MissionConfig) -> Result<Self, DslamError> {
        if !(config.duration_s > 0.0 && config.duration_s.is_finite()) {
            return Err(DslamError::Config("duration must be positive and finite".into()));
        }
        let compiler = Compiler::new(config.accel.arch);
        let fe_net =
            zoo::superpoint(config.fe_input).map_err(inca_compiler::CompileError::Model)?;
        let pr_net =
            zoo::gem_resnet101(config.pr_input).map_err(inca_compiler::CompileError::Model)?;
        let fe_program = Arc::new(compiler.compile_vi(&fe_net)?);
        let pr_program = Arc::new(compiler.compile_vi(&pr_net)?);
        let world = Arc::new(World::paper_arena(config.seed));
        Ok(Self { config, fe_program, pr_program, world })
    }

    /// The compiled FE program (for inspection).
    #[must_use]
    pub fn fe_program(&self) -> &Program {
        &self.fe_program
    }

    /// The compiled PR program (for inspection).
    #[must_use]
    pub fn pr_program(&self) -> &Program {
        &self.pr_program
    }

    fn run_agent(
        &self,
        agent: usize,
        tracer: &Tracer,
    ) -> Result<(AgentOutcome, Metrics), DslamError> {
        let cfg = &self.config;
        let mut rt: Runtime<Msg, TimingBackend> =
            Runtime::new(cfg.accel, cfg.strategy, TimingBackend::new());
        rt.set_tracer(tracer.clone());
        let period_cycles = cfg.accel.us_to_cycles(cfg.camera.period_s() * 1e6);

        // FE and PR own fixed physical slots, exactly as the paper deploys
        // them.
        let fe_slot = TaskSlot::new(1).expect("slot 1");
        let pr_slot = TaskSlot::new(3).expect("slot 3");
        rt.engine_mut().load(fe_slot, Arc::clone(&self.fe_program))?;
        rt.engine_mut().load(pr_slot, Arc::clone(&self.pr_program))?;

        let state: Shared = Rc::default();
        let frames_total = (cfg.duration_s * cfg.camera.fps).floor() as u32;
        let trajectory = if agent == 0 { Trajectory::agent0() } else { Trajectory::agent1() };
        let camera = Camera::new(cfg.camera, cfg.seed ^ ((agent as u64 + 1) * 0x9e37));

        let cam = rt.add_node(CameraNode {
            world: Arc::clone(&self.world),
            trajectory,
            camera,
            period_cycles,
            frames_total,
            state: Rc::clone(&state),
        });
        let fe = rt.add_node(FeNode {
            slot: fe_slot,
            period_cycles,
            extractor: FeatureExtractor::default(),
            pending: None,
            state: Rc::clone(&state),
        });
        let vo = rt.add_node(VoNode { state: Rc::clone(&state) });
        let pr = rt.add_node(PrNode {
            slot: pr_slot,
            recognizer: PlaceRecognizer::default(),
            snapshot: None,
            started: false,
            state: Rc::clone(&state),
            tracer: tracer.clone(),
        });
        rt.subscribe(fe, "camera/image");
        rt.subscribe(pr, "camera/image");
        rt.subscribe(vo, "fe/features");
        rt.schedule_timer(cam, 0, 0);

        let deadline = cfg.accel.us_to_cycles(cfg.duration_s * 1e6);
        rt.run_until(deadline)?;
        let report = rt.report();
        let mut metrics = rt.metrics();
        drop(rt); // release the nodes' clones of the shared state

        let mut st = Rc::try_unwrap(state)
            .map_err(|_| DslamError::Config("agent state still shared".into()))?
            .into_inner();
        let ate_before = st.map.ate();
        let mut loop_closures = 0;
        if cfg.loop_closure {
            let closures =
                crate::posegraph::detect_loop_closures(&st.map, &st.codes, MERGE_THRESHOLD, 40);
            loop_closures = crate::posegraph::optimize_trajectory(&mut st.map, &closures, 5);
            if loop_closures > 0 {
                tracer.emit(|| TraceEvent::Milestone {
                    cycle: deadline,
                    label: "posegraph.optimize".into(),
                    detail: format!("agent {agent}: {loop_closures} loop closures applied"),
                });
            }
        }
        metrics.inc("dslam.frames", u64::from(st.frames));
        metrics.inc("dslam.fe.completed", u64::from(st.fe_completed));
        metrics.inc("dslam.fe.dropped", u64::from(st.fe_dropped));
        metrics.inc("dslam.pr.completed", u64::from(st.pr_completed));
        metrics
            .inc("dslam.vo.failures", u64::from(st.vo.as_ref().map_or(0, |v| v.tracking_failures)));
        metrics.inc("dslam.loop_closures", loop_closures as u64);
        let outcome = AgentOutcome {
            frames: st.frames,
            fe_completed: st.fe_completed,
            fe_dropped: st.fe_dropped,
            deadline_misses: report.deadline_misses(),
            pr_completed: st.pr_completed,
            vo_failures: st.vo.as_ref().map_or(0, |v| v.tracking_failures),
            loop_closures,
            ate_before_optimization: ate_before,
            map: st.map,
            codes: st.codes,
            interrupts: report.accel.interrupts.clone(),
            jobs: report.accel.completed_jobs.clone(),
        };
        Ok((outcome, metrics))
    }

    /// Runs both agents and attempts the cross-agent merge.
    ///
    /// # Errors
    ///
    /// Propagates accelerator simulation errors.
    pub fn run(&self) -> Result<MissionOutcome, DslamError> {
        Ok(self.run_inner(None)?.0)
    }

    /// Like [`Mission::run`], additionally recording up to
    /// `events_per_agent` trace events per agent (oldest dropped first)
    /// and per-agent metrics, packaged as a [`MissionTrace`].
    ///
    /// # Errors
    ///
    /// Propagates accelerator simulation errors.
    pub fn run_traced(
        &self,
        events_per_agent: usize,
    ) -> Result<(MissionOutcome, MissionTrace), DslamError> {
        let (outcome, trace) = self.run_inner(Some(events_per_agent))?;
        Ok((outcome, trace.expect("tracing was enabled")))
    }

    fn run_inner(
        &self,
        trace_capacity: Option<usize>,
    ) -> Result<(MissionOutcome, Option<MissionTrace>), DslamError> {
        let recorder = |cap: Option<usize>| match cap {
            Some(c) => {
                let (tracer, buffer) = Tracer::ring(c);
                (tracer, Some(buffer))
            }
            None => (Tracer::disabled(), None),
        };
        let (tracer_a, buf_a) = recorder(trace_capacity);
        let (tracer_b, buf_b) = recorder(trace_capacity);
        let (a, metrics_a) = self.run_agent(0, &tracer_a)?;
        let (b, metrics_b) = self.run_agent(1, &tracer_b)?;
        let deadline = self.config.accel.us_to_cycles(self.config.duration_s * 1e6);

        // Cross-agent PR matching: rank all (code_b, code_a) pairs by
        // similarity and take the best mergeable one.
        let mut candidates: Vec<(f32, u32, u32)> = Vec::new();
        for cb in &b.codes.codes {
            for ca in &a.codes.codes {
                let s = code_similarity(cb, ca);
                if s >= MERGE_THRESHOLD {
                    candidates.push((s, ca.frame, cb.frame));
                }
            }
        }
        candidates.sort_by(|x, y| y.0.total_cmp(&x.0));
        let merge = candidates
            .iter()
            .take(20)
            .find_map(|&(s, fa, fb)| merge_maps(&a.map, &b.map, fa, fb, s));

        let trace = match (buf_a, buf_b) {
            (Some(buf_a), Some(buf_b)) => {
                let mut mission_events = Vec::new();
                if let Some((s, fa, fb)) = candidates.first() {
                    mission_events.push(TraceEvent::Milestone {
                        cycle: deadline,
                        label: "pr.match".into(),
                        detail: format!(
                            "best cross-agent match: a#{fa} ~ b#{fb} (similarity {s:.3}, {} candidates)",
                            candidates.len()
                        ),
                    });
                }
                if let Some(m) = &merge {
                    mission_events.push(TraceEvent::Milestone {
                        cycle: deadline,
                        label: "map.merge".into(),
                        detail: format!(
                            "maps merged on a#{} ~ b#{} (similarity {:.3})",
                            m.frame_a, m.frame_b, m.similarity
                        ),
                    });
                }
                Some(MissionTrace {
                    agents: vec![
                        AgentTrace {
                            events: buf_a.snapshot(),
                            dropped: buf_a.dropped(),
                            metrics: metrics_a,
                        },
                        AgentTrace {
                            events: buf_b.snapshot(),
                            dropped: buf_b.dropped(),
                            metrics: metrics_b,
                        },
                    ],
                    mission_events,
                    cycles_per_us: self.config.accel.clock_hz as f64 / 1e6,
                })
            }
            _ => None,
        };
        Ok((MissionOutcome { agents: vec![a, b], merge }, trace))
    }
}

/// Trace + metrics captured from one agent's runtime.
#[derive(Debug)]
pub struct AgentTrace {
    /// Retained trace events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Events dropped because the per-agent ring was full.
    pub dropped: u64,
    /// The agent runtime's metrics (engine + runtime + dslam counters).
    pub metrics: Metrics,
}

/// Everything [`Mission::run_traced`] records: per-agent event streams
/// plus cross-agent milestones (PR match, map merge).
#[derive(Debug)]
pub struct MissionTrace {
    /// One trace per agent, in agent order.
    pub agents: Vec<AgentTrace>,
    /// Cross-agent milestones, stamped with the mission deadline cycle.
    pub mission_events: Vec<TraceEvent>,
    cycles_per_us: f64,
}

impl MissionTrace {
    /// Combined metrics: each agent's registry under an `agentN.` prefix.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        for (i, a) in self.agents.iter().enumerate() {
            m.absorb(&format!("agent{i}."), &a.metrics);
        }
        m
    }

    /// The Chrome trace-event JSON document (one process per agent, plus
    /// a `mission` process for cross-agent milestones), loadable in
    /// Perfetto. Byte-identical for identical missions.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut builder = ChromeTrace::new(self.cycles_per_us);
        for (i, a) in self.agents.iter().enumerate() {
            builder.add_process(i as u32, &format!("agent{i}"), &a.events);
        }
        if !self.mission_events.is_empty() {
            builder.add_process(self.agents.len() as u32, "mission", &self.mission_events);
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        for duration_s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let cfg = MissionConfig { duration_s, ..MissionConfig::small_test() };
            assert!(
                matches!(Mission::new(cfg), Err(DslamError::Config(_))),
                "duration {duration_s} must be rejected"
            );
        }
    }

    #[test]
    fn small_mission_runs_and_schedules_both_tasks() {
        let mission = Mission::new(MissionConfig::small_test()).unwrap();
        let outcome = mission.run().unwrap();
        assert_eq!(outcome.agents.len(), 2);
        for (i, agent) in outcome.agents.iter().enumerate() {
            assert!(agent.frames >= 30, "agent {i} frames {}", agent.frames);
            assert!(agent.fe_completed > 0, "agent {i} no FE completed");
            assert!(agent.pr_completed > 0, "agent {i} no PR completed");
            assert!(!agent.interrupts.is_empty(), "agent {i}: PR should have been preempted by FE");
            assert_eq!(agent.deadline_misses, 0, "agent {i} missed FE deadlines");
            assert!(!agent.map.trajectory.is_empty());
        }
    }

    #[test]
    fn mission_runs_under_layer_by_layer_too() {
        let mut cfg = MissionConfig::small_test();
        cfg.duration_s = 1.0;
        cfg.strategy = InterruptStrategy::LayerByLayer;
        let outcome = Mission::new(cfg).unwrap().run().unwrap();
        for a in &outcome.agents {
            assert!(a.fe_completed > 0);
            assert!(a.pr_completed > 0);
        }
    }

    #[test]
    fn mission_is_deterministic() {
        let cfg = {
            let mut c = MissionConfig::small_test();
            c.duration_s = 1.0;
            c
        };
        let a = Mission::new(cfg.clone()).unwrap().run().unwrap();
        let b = Mission::new(cfg).unwrap().run().unwrap();
        assert_eq!(a.agents[0].frames, b.agents[0].frames);
        assert_eq!(a.agents[0].pr_completed, b.agents[0].pr_completed);
        assert_eq!(a.agents[0].map.trajectory.len(), b.agents[0].map.trajectory.len());
        assert_eq!(
            a.agents[0].map.trajectory.last().map(|s| s.estimate),
            b.agents[0].map.trajectory.last().map(|s| s.estimate),
        );
    }

    /// FNV-1a over every agent's accelerator schedule (jobs, preemptions,
    /// deadline verdicts).
    fn schedule_digest(outcome: &MissionOutcome) -> u64 {
        let mut words = Vec::new();
        for a in &outcome.agents {
            for j in &a.jobs {
                let slot = j.slot.index() as u64;
                words.extend([slot, j.release, j.start, j.finish, u64::from(j.preemptions)]);
            }
            for i in &a.interrupts {
                words.extend([i.request_cycle, i.t1, i.t2, i.t4]);
            }
            words.push(a.deadline_misses as u64);
        }
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn classic_mission_schedule_is_pinned() {
        let mut cfg = MissionConfig::small_test();
        cfg.duration_s = 1.0;
        let outcome = Mission::new(cfg).unwrap().run().unwrap();
        // The only `cargo test` pin on the `Runtime` schedule: both
        // agents' jobs, preemptions and deadline verdicts.
        assert_eq!(schedule_digest(&outcome), 0x78f1_16ae_abec_a441);
    }

    #[test]
    fn runs_share_the_compiled_programs() {
        let mut cfg = MissionConfig::small_test();
        cfg.duration_s = 0.5;
        let mission = Mission::new(cfg).unwrap();
        let (a, b) = (mission.run().unwrap(), mission.run().unwrap());
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        for (x, y) in a.agents.iter().zip(&b.agents) {
            assert!(x.fe_completed > 0);
            assert_eq!(
                (x.frames, x.fe_completed, x.pr_completed),
                (y.frames, y.fe_completed, y.pr_completed)
            );
        }
        // Every engine that borrowed a program is gone.
        for program in [&mission.fe_program, &mission.pr_program] {
            assert_eq!(Arc::strong_count(program), 1, "{}", program.name);
        }
    }

    #[test]
    fn fe_keeps_up_at_small_resolution() {
        let mission = Mission::new(MissionConfig::small_test()).unwrap();
        let outcome = mission.run().unwrap();
        let a = &outcome.agents[0];
        // Every frame should be consumed (the small FE fits in a period).
        assert_eq!(a.fe_dropped, 0, "dropped {} frames", a.fe_dropped);
    }
}
