//! Calibrated host time.
//!
//! The sandbox this benchmark runs in slows down and speeds up by tens of
//! percent in phases of one to tens of seconds (a neighbour on the sibling
//! hyper-thread, most likely: a dependent multiply chain does not feel it,
//! everything else does). A phase is longer than a rep and often longer
//! than a run, so no median over reps removes it. What does remove most of
//! it is to measure the machine while measuring the program: a fixed probe
//! kernel owned by the harness runs before and after every chunk of timed
//! work (a few milliseconds to, where a call is atomic, a few seconds),
//! and the chunk's wall time is scaled by `REF_PROBE_NS / probe time`.
//!
//! A *calibrated host-second* is therefore a wall second of a host on
//! which the probe takes [`REF_PROBE_NS`]. The probe shares no code with
//! the product, so a change to the product cannot move it.
//!
//! The probe is less sensitive to a noisy neighbour than the product is, so
//! a slow phase still reads slow, only less so. The second half of the
//! remedy is [`fast_quarter_seconds`]: every rep does the same work in the
//! same chunks, so each chunk is observed once per rep, and the time
//! reported for it is the mean of the fastest quarter of its calibrated
//! observations. Disturbance only ever adds time; a chunk needs one quiet
//! moment in one rep to be measured well, where a rep would need seconds.
//! Every host-domain metric is computed from that time; per-rep quartiles
//! and the raw wall seconds are printed beside it.

use std::time::Instant;

/// What the probe takes on this class of host when nothing disturbs it.
pub const REF_PROBE_NS: f64 = 150_000.0;

const PROBE_WORDS: usize = 1 << 12;
const PROBE_STEPS: u64 = 50_000;

/// The probe kernel: data-dependent loads, stores and branches over 32 KB.
#[derive(Debug)]
pub struct Calib {
    buf: Vec<u64>,
    x: u64,
}

impl Default for Calib {
    fn default() -> Self {
        Self { buf: vec![1; PROBE_WORDS], x: 0x9E37_79B9_7F4A_7C15 }
    }
}

impl Calib {
    fn half(&mut self) -> f64 {
        let t0 = Instant::now();
        let mask = PROBE_WORDS - 1;
        let mut x = self.x;
        for _ in 0..PROBE_STEPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 40) as usize & mask;
            let v = self.buf[i];
            if v & 1 == 0 {
                self.buf[i] = v.wrapping_add(x | 1);
            } else {
                self.buf[(i * 7 + 1) & mask] ^= v >> 3;
            }
        }
        self.x = x;
        t0.elapsed().as_nanos() as f64
    }

    /// Nanoseconds the probe takes right now: two halves, the faster one
    /// doubled, so a single interrupt does not read as a slow machine.
    pub fn probe(&mut self) -> f64 {
        2.0 * self.half().min(self.half())
    }
}

/// Raw and calibrated seconds of the same work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Seconds {
    pub raw: f64,
    pub cal: f64,
}

impl std::ops::AddAssign for Seconds {
    fn add_assign(&mut self, other: Self) {
        self.raw += other.raw;
        self.cal += other.cal;
    }
}

/// The timed section of one rep: its totals and its chunks' calibrated
/// seconds. Reps of one workload have the same chunks in the same order.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub total: Seconds,
    pub chunks: Vec<f64>,
}

/// Mean of the fastest quarter (at least one) of `samples`.
pub fn fast_quarter(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = ((v.len() + 2) / 4).max(1).min(v.len().max(1));
    v.iter().take(k).sum::<f64>() / k as f64
}

/// Calibrated seconds of one rep's work, from several reps of it: per
/// chunk, the [`fast_quarter`] of its observations; summed over chunks.
/// `None` when the reps do not have the same chunks.
pub fn fast_quarter_seconds(reps: &[&Timing]) -> Option<f64> {
    let chunks = reps.first()?.chunks.len();
    if reps.iter().any(|t| t.chunks.len() != chunks) {
        return None;
    }
    let mut column = Vec::with_capacity(reps.len());
    let mut total = 0.0;
    for j in 0..chunks {
        column.clear();
        column.extend(reps.iter().map(|t| t.chunks[j]));
        total += fast_quarter(&column);
    }
    Some(total)
}

/// A stopwatch that brackets every chunk of timed work with probes.
#[derive(Debug, Default)]
pub struct CalClock {
    calib: Calib,
    total: Seconds,
    /// Calibrated seconds of each booked chunk, in order.
    chunks: Vec<f64>,
    /// Probe reading and start instant of the open chunk.
    open: Option<(f64, Instant)>,
}

impl CalClock {
    /// Probes, then starts timing a chunk.
    pub fn begin(&mut self) {
        let before = self.calib.probe();
        self.open = Some((before, Instant::now()));
    }

    /// Stops timing the open chunk, probes, and books the chunk.
    pub fn end(&mut self) {
        let Some((before, start)) = self.open.take() else { return };
        let raw = start.elapsed().as_secs_f64();
        let after = self.calib.probe();
        self.book(raw, before, after);
    }

    /// [`CalClock::end`] and [`CalClock::begin`] sharing one probe: for
    /// chunks that follow each other directly.
    pub fn lap(&mut self) {
        let Some((before, start)) = self.open.take() else { return self.begin() };
        let raw = start.elapsed().as_secs_f64();
        let after = self.calib.probe();
        self.book(raw, before, after);
        self.open = Some((after, Instant::now()));
    }

    fn book(&mut self, raw: f64, before: f64, after: f64) {
        let probe = 0.5 * (before + after);
        let cal = raw * REF_PROBE_NS / probe.max(1.0);
        self.total += Seconds { raw, cal };
        self.chunks.push(cal);
    }

    /// Everything booked so far, chunk by chunk.
    pub fn into_timing(self) -> Timing {
        Timing { total: self.total, chunks: self.chunks }
    }

    /// Everything booked so far.
    pub fn total(&self) -> Seconds {
        self.total
    }

    /// Times one call as one chunk.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Seconds) {
        let before = self.total;
        self.begin();
        let r = f();
        self.end();
        (r, Seconds { raw: self.total.raw - before.raw, cal: self.total.cal - before.cal })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_add_up_and_scale() {
        let mut c = CalClock::default();
        c.begin();
        std::hint::black_box((0..10_000u64).sum::<u64>());
        c.lap();
        c.end();
        let t = c.total();
        assert!(t.raw > 0.0 && t.cal > 0.0);
        let ((), s) = c.time(|| ());
        assert!(s.raw >= 0.0 && c.total().raw >= t.raw);
        // A probe twice as slow as the reference halves the seconds.
        let mut c = CalClock::default();
        c.book(1.0, 2.0 * REF_PROBE_NS, 2.0 * REF_PROBE_NS);
        assert_eq!(c.total(), Seconds { raw: 1.0, cal: 0.5 });
        assert_eq!(c.into_timing().chunks, vec![0.5]);
    }

    #[test]
    fn fast_quarter_picks_quiet_observations() {
        assert_eq!(fast_quarter(&[3.0]), 3.0);
        assert_eq!(fast_quarter(&[5.0, 1.0, 3.0]), 1.0);
        // Seven reps: the two fastest.
        assert_eq!(fast_quarter(&[9.0, 2.0, 8.0, 4.0, 7.0, 6.0, 5.0]), 3.0);
        let rep = |chunks: &[f64]| Timing { total: Seconds::default(), chunks: chunks.to_vec() };
        // Each chunk takes its own quiet rep.
        let (a, b, c) = (rep(&[1.0, 9.0]), rep(&[9.0, 2.0]), rep(&[9.0, 9.0]));
        assert_eq!(fast_quarter_seconds(&[&a, &b, &c]), Some(3.0));
        assert_eq!(fast_quarter_seconds(&[&a, &rep(&[1.0])]), None);
        assert_eq!(fast_quarter_seconds(&[]), None);
    }
}
