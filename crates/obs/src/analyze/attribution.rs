//! Where did each job's latency go? Per-slot occupancy/utilization and a
//! queued / loading / computing / preempted breakdown, plus scheduler
//! queue-delay attribution for runs routed through the admission
//! scheduler.

use std::collections::{BTreeMap, VecDeque};

use inca_isa::TASK_SLOTS;

use crate::metrics::Histogram;
use crate::trace::TraceEvent;

/// Per-slot accounting.
#[derive(Debug, Clone, Default)]
pub struct SlotAttribution {
    /// Jobs released into the slot.
    pub released: u64,
    /// Jobs that began executing.
    pub started: u64,
    /// Jobs that completed.
    pub finished: u64,
    /// Summed busy cycles of completed jobs.
    pub busy_cycles: u64,
    /// Release→start wait per job.
    pub queue_wait: Histogram,
    /// Release→finish response per job.
    pub response: Histogram,
    /// Distribution of completed jobs' busy cycles.
    pub busy: Histogram,
    /// Preemption pause per (preempt, resume) pair.
    pub paused: Histogram,
    /// Cycles spent stalled finishing the current op before backup (Σ t1).
    pub t1_cycles: u64,
    /// Cycles spent backing up (Σ t2).
    pub backup_cycles: u64,
    /// Cycles spent restoring (Σ t4).
    pub restore_cycles: u64,
    /// Program-reload DMA cycles charged by the scheduler on rebinds.
    pub reload_cycles: u64,
    /// `(finish_cycle, response_cycles)` per completed job, in completion
    /// order — the raw samples SLO evaluation runs on.
    pub responses: Vec<(u64, u64)>,
}

/// One job's latency, split by where it was spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Released but not yet started (slot busy or scheduler queue).
    pub queued: u64,
    /// State movement: backup + restore + program reloads.
    pub loading: u64,
    /// Executing instructions.
    pub computing: u64,
    /// Parked by a preemption (victim paused, winner running).
    pub preempted: u64,
}

/// Scheduler-level (logical task) accounting.
#[derive(Debug, Clone, Default)]
pub struct TaskAttribution {
    /// Jobs admitted into the task queue.
    pub admitted: u64,
    /// Jobs rejected or dropped.
    pub rejected: u64,
    /// Jobs bound to a physical slot.
    pub bound: u64,
    /// Admission→bind queue delay per job.
    pub queue_delay: Histogram,
    /// Σ reload cycles charged to this task's binds.
    pub reload_cycles: u64,
}

/// Whole-trace attribution state.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Per physical slot.
    pub slots: [SlotAttribution; TASK_SLOTS],
    /// Per logical scheduler task (empty without a scheduler).
    pub tasks: BTreeMap<u32, TaskAttribution>,
    /// First cycle seen.
    pub first_cycle: u64,
    /// Last cycle seen (end of spans included).
    pub last_cycle: u64,
    seen_any: bool,
    pending_release: [VecDeque<u64>; TASK_SLOTS],
    in_flight_release: [Option<u64>; TASK_SLOTS],
    paused_since: [Option<u64>; TASK_SLOTS],
    pending_admit: BTreeMap<(u32, u64), u64>,
}

impl Attribution {
    fn window(&mut self, cycle: u64) {
        if !self.seen_any {
            self.first_cycle = cycle;
            self.seen_any = true;
        }
        self.first_cycle = self.first_cycle.min(cycle);
        self.last_cycle = self.last_cycle.max(cycle);
    }

    /// Folds one event into the attribution.
    pub fn push(&mut self, ev: &TraceEvent) {
        self.window(ev.cycle());
        match ev {
            TraceEvent::JobReleased { cycle, slot } => {
                self.slots[slot.index()].released += 1;
                self.pending_release[slot.index()].push_back(*cycle);
            }
            TraceEvent::JobStarted { cycle, slot } => {
                let i = slot.index();
                // A start while a job is already in flight is a resumed
                // segment from an imported trace — keep the original job.
                if self.in_flight_release[i].is_none() {
                    self.slots[i].started += 1;
                    let release = self.pending_release[i].pop_front().unwrap_or(*cycle);
                    self.slots[i].queue_wait.observe(cycle.saturating_sub(release));
                    self.in_flight_release[i] = Some(release);
                }
            }
            TraceEvent::JobFinished { cycle, slot, busy_cycles, .. } => {
                let i = slot.index();
                let s = &mut self.slots[i];
                s.finished += 1;
                s.busy_cycles += busy_cycles;
                s.busy.observe(*busy_cycles);
                let release = self.in_flight_release[i].take().unwrap_or(*cycle);
                let response = cycle.saturating_sub(release);
                s.response.observe(response);
                s.responses.push((*cycle, response));
                self.paused_since[i] = None;
            }
            TraceEvent::Preempted { victim, request, t1, t2, .. } => {
                let i = victim.index();
                let end = request + t1 + t2;
                self.window(end);
                self.slots[i].t1_cycles += t1;
                self.slots[i].backup_cycles += t2;
                self.paused_since[i] = Some(end);
            }
            TraceEvent::Resumed { slot, restore_start, t4 } => {
                let i = slot.index();
                self.window(restore_start + t4);
                self.slots[i].restore_cycles += t4;
                if let Some(since) = self.paused_since[i].take() {
                    self.slots[i].paused.observe(restore_start.saturating_sub(since));
                }
            }
            TraceEvent::SchedAdmitted { cycle, task, job, .. } => {
                self.tasks.entry(*task).or_default().admitted += 1;
                self.pending_admit.insert((*task, *job), *cycle);
            }
            TraceEvent::SchedRejected { task, .. } => {
                self.tasks.entry(*task).or_default().rejected += 1;
            }
            TraceEvent::SchedBound { cycle, task, job, slot, reload_cycles, .. } => {
                let t = self.tasks.entry(*task).or_default();
                t.bound += 1;
                t.reload_cycles += reload_cycles;
                self.slots[slot.index()].reload_cycles += reload_cycles;
                if let Some(admit) = self.pending_admit.remove(&(*task, *job)) {
                    t.queue_delay.observe(cycle.saturating_sub(admit));
                }
            }
            TraceEvent::ViMaterialized { start, cycles, .. } => {
                self.window(start + cycles);
            }
            _ => {}
        }
    }

    /// The observed trace window, in cycles (0 for an empty trace).
    #[must_use]
    pub fn window_cycles(&self) -> u64 {
        self.last_cycle.saturating_sub(self.first_cycle)
    }

    /// Fraction of the trace window `slot` spent executing instructions.
    #[must_use]
    pub fn utilization(&self, slot: usize) -> f64 {
        let w = self.window_cycles();
        if w == 0 {
            0.0
        } else {
            self.slots[slot].busy_cycles as f64 / w as f64
        }
    }

    /// Aggregate queued/loading/computing/preempted split for `slot`.
    #[must_use]
    pub fn breakdown(&self, slot: usize) -> LatencyBreakdown {
        let s = &self.slots[slot];
        LatencyBreakdown {
            queued: s.queue_wait.sum() as u64,
            loading: s.backup_cycles + s.restore_cycles + s.reload_cycles,
            computing: s.busy_cycles,
            preempted: s.paused.sum() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_isa::TaskSlot;

    fn slot(i: u8) -> TaskSlot {
        TaskSlot::new(i).unwrap()
    }

    #[test]
    fn queue_wait_response_and_busy_track_one_job() {
        let mut a = Attribution::default();
        a.push(&TraceEvent::JobReleased { cycle: 100, slot: slot(1) });
        a.push(&TraceEvent::JobStarted { cycle: 150, slot: slot(1) });
        a.push(&TraceEvent::JobFinished {
            cycle: 500,
            slot: slot(1),
            busy_cycles: 350,
            preemptions: 0,
        });
        let s = &a.slots[1];
        assert_eq!((s.released, s.started, s.finished), (1, 1, 1));
        assert_eq!(s.queue_wait.max(), 50);
        assert_eq!(s.response.max(), 400);
        assert_eq!(s.responses, vec![(500, 400)]);
        assert_eq!(a.window_cycles(), 400);
        assert!((a.utilization(1) - 350.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn preemption_pause_and_breakdown() {
        let mut a = Attribution::default();
        a.push(&TraceEvent::JobReleased { cycle: 0, slot: slot(3) });
        a.push(&TraceEvent::JobStarted { cycle: 0, slot: slot(3) });
        a.push(&TraceEvent::Preempted {
            victim: slot(3),
            winner: slot(1),
            layer: 0,
            request: 100,
            t1: 20,
            t2: 30,
        });
        a.push(&TraceEvent::Resumed { slot: slot(3), restore_start: 400, t4: 10 });
        a.push(&TraceEvent::JobFinished {
            cycle: 600,
            slot: slot(3),
            busy_cycles: 440,
            preemptions: 1,
        });
        let b = a.breakdown(3);
        // Paused from backup end (150) to restore start (400).
        assert_eq!(b.preempted, 250);
        assert_eq!(b.loading, 30 + 10);
        assert_eq!(b.computing, 440);
        assert_eq!(b.queued, 0);
    }

    #[test]
    fn scheduler_queue_delay_pairs_admit_and_bind() {
        let mut a = Attribution::default();
        a.push(&TraceEvent::SchedAdmitted { cycle: 10, task: 2, job: 7, queue_depth: 1 });
        a.push(&TraceEvent::SchedRejected { cycle: 11, task: 2, reason: "queue-full" });
        a.push(&TraceEvent::SchedBound {
            cycle: 60,
            task: 2,
            job: 7,
            slot: slot(2),
            preempting: false,
            reload_cycles: 17,
        });
        let t = &a.tasks[&2];
        assert_eq!((t.admitted, t.rejected, t.bound), (1, 1, 1));
        assert_eq!(t.queue_delay.max(), 50);
        assert_eq!(t.reload_cycles, 17);
        assert_eq!(a.slots[2].reload_cycles, 17);
    }

    #[test]
    fn imported_resume_segments_do_not_double_count_starts() {
        let mut a = Attribution::default();
        a.push(&TraceEvent::JobReleased { cycle: 0, slot: slot(3) });
        a.push(&TraceEvent::JobStarted { cycle: 5, slot: slot(3) });
        // An imported trace may emit a second start for a resumed segment.
        a.push(&TraceEvent::JobStarted { cycle: 300, slot: slot(3) });
        a.push(&TraceEvent::JobFinished {
            cycle: 700,
            slot: slot(3),
            busy_cycles: 100,
            preemptions: 1,
        });
        let s = &a.slots[3];
        assert_eq!(s.started, 1);
        assert_eq!(s.response.max(), 700);
    }
}
