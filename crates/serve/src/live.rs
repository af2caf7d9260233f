//! The thread-based frontend: a driver thread owns the [`Gateway`],
//! clients talk to it over a **bounded** command channel (backpressure
//! instead of unbounded buffering), and completed responses fan out over
//! a bounded [`LiveBus`] — the shape a ROS deployment would take.
//!
//! Liveness contracts:
//!
//! * client submissions retry with exponential backoff a bounded number
//!   of times when the command channel is full, then give up with
//!   [`LiveError::Busy`];
//! * every reply is awaited with a timeout ([`LiveError::TimedOut`]);
//! * the driver keeps advancing the virtual clock between commands, so
//!   batch windows expire even when no new requests arrive.

use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use inca_accel::Backend;
use inca_obs::{spark, Metrics, TimeSeries};
use inca_runtime::live::LiveBus;

use crate::gateway::{Accepted, Gateway};
use crate::{Lane, Response, ShedReason, TenantId, TenantStats};

/// Topic completed responses are published on.
pub const RESPONSE_TOPIC: &str = "serve/responses";

/// Capacity of the bounded command channel clients submit into.
const COMMAND_CAPACITY: usize = 64;
/// Submission retries when the command channel is full before the client
/// gives up with [`LiveError::Busy`].
const RETRY_LIMIT: u32 = 5;
/// Initial backoff between submission retries (doubles per retry).
const RETRY_BACKOFF: Duration = Duration::from_micros(50);
/// How long a client waits for the driver's reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-subscriber capacity of the response bus.
const BUS_CAPACITY: usize = 256;
/// Virtual cycles the driver's clock advances per received command and per
/// idle poll (so batch windows expire without traffic).
const CYCLES_PER_TICK: u64 = 1_000;
/// Wall-clock interval of the driver's idle poll.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Why a live submission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveError {
    /// The gateway shed or rejected the request.
    Shed(ShedReason),
    /// The command channel stayed full through every retry.
    Busy,
    /// The driver did not reply within the timeout.
    TimedOut,
    /// The driver thread is gone.
    Disconnected,
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Shed(r) => write!(f, "shed: {r}"),
            LiveError::Busy => f.write_str("command channel full (retries exhausted)"),
            LiveError::TimedOut => f.write_str("timed out waiting for the driver"),
            LiveError::Disconnected => f.write_str("driver thread is gone"),
        }
    }
}

impl std::error::Error for LiveError {}

/// One tenant's identity and counters, as seen by a snapshot or the
/// final report.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Registered tenant name.
    pub name: String,
    /// Hard-deadline lane (`false` = best-effort).
    pub hard: bool,
    /// Lifetime counters at capture time.
    pub stats: TenantStats,
}

/// Final accounting returned by [`LiveServer::shutdown`].
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Lifetime counters summed over all tenants.
    pub totals: TenantStats,
    /// Per-tenant identity and counters — so callers can print a
    /// per-lane summary even when the run was interrupted early.
    pub tenants: Vec<TenantSummary>,
    /// Responses published on the bus.
    pub responses_published: u64,
    /// The gateway's final metrics (`serve.*` plus per-core `sched.*`),
    /// with the bus's `bus.*` metrics absorbed.
    pub metrics: Metrics,
}

/// A point-in-time view of the live gateway, for top-like dashboards
/// ([`LiveServer::snapshot`]). Capturing one is cheap and does not stall
/// the request path beyond one driver-loop turn.
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    /// The gateway clock at capture.
    pub now: u64,
    /// Per-tenant identity and counters.
    pub tenants: Vec<TenantSummary>,
    /// Lifetime counters summed over all tenants.
    pub totals: TenantStats,
    /// Responses published on the bus so far.
    pub responses_published: u64,
    /// The gateway timeline (flushed through the capture cycle), when
    /// `enable_timeline` was called before spawning.
    pub timeline: Option<TimeSeries>,
}

impl LiveSnapshot {
    /// Renders the snapshot as a fixed-width top-like dashboard: one row
    /// per tenant with a queue-depth sparkline (when the timeline is
    /// enabled) and the live counters. Pure function of the snapshot —
    /// deterministic given deterministic inputs.
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Ring-overflow accounting rides in the header whenever the
        // timeline is on: a nonzero drop count means the sparklines
        // below cover an incomplete series and must not be read as the
        // whole run.
        let dropped = self
            .timeline
            .as_ref()
            .map_or_else(String::new, |ts| format!("  dropped {}", ts.dropped));
        let _ = writeln!(
            out,
            "cycle {:>12}  done {}  miss {}  shed {}  outstanding {}{dropped}",
            self.now,
            self.totals.completed,
            self.totals.deadline_missed,
            self.totals.shed,
            self.totals.outstanding(),
        );
        let name_w = self.tenants.iter().map(|t| t.name.len()).max().unwrap_or(0).max(4);
        for (i, t) in self.tenants.iter().enumerate() {
            let lane = if t.hard { "hard" } else { "be  " };
            let bar = self
                .timeline
                .as_ref()
                .and_then(|ts| ts.column(&format!("tenant{i}.queue_depth")))
                .map_or_else(|| " ".repeat(width), |depths| spark(depths, width));
            let _ = writeln!(
                out,
                "{:<name_w$} {lane} |{bar}| q={} done={} miss={} shed={}",
                t.name,
                t.stats.outstanding(),
                t.stats.completed,
                t.stats.deadline_missed,
                t.stats.shed,
            );
        }
        out
    }
}

#[derive(Debug)]
enum Cmd {
    Submit { tenant: TenantId, reply: Sender<Result<Accepted, ShedReason>> },
    Snapshot { reply: Sender<LiveSnapshot> },
    Shutdown { reply: Sender<LiveReport> },
}

/// A running live frontend: the driver thread plus the client handle
/// state. Dropping the server without [`LiveServer::shutdown`] detaches
/// the driver (it exits once every client handle is gone).
#[derive(Debug)]
pub struct LiveServer {
    tx: Sender<Cmd>,
    bus: LiveBus<Response>,
    handle: Option<JoinHandle<()>>,
}

impl LiveServer {
    /// Spawns the driver thread over `gateway`.
    #[must_use]
    pub fn spawn<B>(gateway: Gateway<B>) -> Self
    where
        B: Backend + Send + 'static,
    {
        let (tx, rx) = bounded::<Cmd>(COMMAND_CAPACITY);
        let bus: LiveBus<Response> = LiveBus::with_capacity(BUS_CAPACITY);
        let driver_bus = bus.clone();
        let handle = thread::spawn(move || drive(gateway, rx, driver_bus));
        Self { tx, bus, handle: Some(handle) }
    }

    /// Subscribes to the bounded response bus. Slow subscribers miss
    /// messages (counted on the bus) instead of buffering without bound.
    #[must_use]
    pub fn responses(&self) -> Receiver<(String, Response)> {
        self.bus.subscribe(RESPONSE_TOPIC)
    }

    /// Submits one request of `tenant`, retrying with exponential backoff
    /// while the command channel is full.
    ///
    /// # Errors
    ///
    /// [`LiveError::Shed`] when the gateway refused it, [`LiveError::Busy`]
    /// when every retry found the channel full, [`LiveError::TimedOut`] /
    /// [`LiveError::Disconnected`] on driver loss.
    pub fn submit(&self, tenant: TenantId) -> Result<Accepted, LiveError> {
        let (reply, rx) = bounded(1);
        let mut cmd = Cmd::Submit { tenant, reply };
        let mut backoff = RETRY_BACKOFF;
        for attempt in 0..=RETRY_LIMIT {
            match self.tx.try_send(cmd) {
                Ok(()) => {
                    return match rx.recv_timeout(REPLY_TIMEOUT) {
                        Ok(Ok(accepted)) => Ok(accepted),
                        Ok(Err(reason)) => Err(LiveError::Shed(reason)),
                        Err(RecvTimeoutError::Timeout) => Err(LiveError::TimedOut),
                        Err(RecvTimeoutError::Disconnected) => Err(LiveError::Disconnected),
                    };
                }
                Err(TrySendError::Full(back)) => {
                    cmd = back;
                    if attempt < RETRY_LIMIT {
                        thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                }
                Err(TrySendError::Disconnected(_)) => return Err(LiveError::Disconnected),
            }
        }
        Err(LiveError::Busy)
    }

    /// Captures a point-in-time [`LiveSnapshot`] for a top-like display.
    ///
    /// # Errors
    ///
    /// [`LiveError::TimedOut`] / [`LiveError::Disconnected`] when the
    /// driver cannot be reached.
    pub fn snapshot(&self) -> Result<LiveSnapshot, LiveError> {
        let (reply, rx) = bounded(1);
        self.tx.send(Cmd::Snapshot { reply }).map_err(|_| LiveError::Disconnected)?;
        match rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(s) => Ok(s),
            Err(RecvTimeoutError::Timeout) => Err(LiveError::TimedOut),
            Err(RecvTimeoutError::Disconnected) => Err(LiveError::Disconnected),
        }
    }

    /// Drains the gateway to idle, stops the driver and returns the final
    /// accounting.
    ///
    /// # Errors
    ///
    /// [`LiveError::TimedOut`] / [`LiveError::Disconnected`] when the
    /// driver cannot be reached.
    pub fn shutdown(mut self) -> Result<LiveReport, LiveError> {
        let (reply, rx) = bounded(1);
        self.tx.send(Cmd::Shutdown { reply }).map_err(|_| LiveError::Disconnected)?;
        let report = match rx.recv_timeout(REPLY_TIMEOUT.saturating_mul(4)) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => return Err(LiveError::TimedOut),
            Err(RecvTimeoutError::Disconnected) => return Err(LiveError::Disconnected),
        };
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        Ok(report)
    }
}

/// The driver loop: apply commands, advance the virtual clock, publish
/// completions.
fn drive<B: Backend>(mut gateway: Gateway<B>, rx: Receiver<Cmd>, bus: LiveBus<Response>) {
    let mut clock = gateway.now();
    let mut published = 0u64;
    loop {
        match rx.recv_timeout(POLL_INTERVAL) {
            Ok(Cmd::Submit { tenant, reply }) => {
                clock += CYCLES_PER_TICK;
                let outcome = gateway.submit(clock, tenant);
                let _ = reply.send(outcome);
                // Serve whatever is ready without waiting for the poll.
                clock = clock.max(gateway.now());
                if gateway.run_until(clock).is_err() {
                    break;
                }
                published += publish(&mut gateway, &bus);
            }
            Ok(Cmd::Snapshot { reply }) => {
                let _ = reply.send(LiveSnapshot {
                    now: gateway.now(),
                    tenants: summaries(&gateway),
                    totals: gateway.totals(),
                    responses_published: published,
                    timeline: gateway.take_timeline("live"),
                });
            }
            Ok(Cmd::Shutdown { reply }) => {
                let _ = gateway.run_to_idle(u64::MAX);
                published += publish(&mut gateway, &bus);
                let mut metrics = gateway.metrics();
                metrics.absorb("", &bus.metrics());
                let _ = reply.send(LiveReport {
                    totals: gateway.totals(),
                    tenants: summaries(&gateway),
                    responses_published: published,
                    metrics,
                });
                break;
            }
            Err(RecvTimeoutError::Timeout) => {
                // Idle tick: expire batch windows, finish in-flight work.
                clock = clock.max(gateway.now()) + CYCLES_PER_TICK;
                if gateway.run_until(clock).is_err() {
                    break;
                }
                published += publish(&mut gateway, &bus);
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

fn summaries<B: Backend>(gateway: &Gateway<B>) -> Vec<TenantSummary> {
    (0..gateway.tenant_count())
        .map(|i| {
            let id = TenantId(i);
            let spec = gateway.spec(id);
            TenantSummary {
                name: spec.name.clone(),
                hard: spec.lane == Lane::Hard,
                stats: gateway.stats(id),
            }
        })
        .collect()
}

fn publish<B: Backend>(gateway: &mut Gateway<B>, bus: &LiveBus<Response>) -> u64 {
    let mut n = 0u64;
    for r in gateway.drain_responses() {
        bus.publish(RESPONSE_TOPIC, r);
        n += 1;
    }
    n
}
