//! Order statistics, the FNV-1a digest and the RSS probe.

/// Median and quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them (exclusive method), so the spread printed here is the spread the
/// acceptance rule computes. One sample is its own quartiles.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => Self::default(),
            1 => Self { q1: v[0], median: v[0], q3: v[0], n },
            _ => {
                // Python's exclusive method, extrapolation included.
                let at = |k: usize| {
                    let j = (k * (n + 1) / 4).clamp(1, n - 1);
                    let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Self { q1: at(1), median: at(2), q3: at(3), n }
            }
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// Nearest-rank percentile (`pct` in 1..=100) of unsorted integer samples;
/// 0 when empty.
pub fn percentile(values: &mut [u64], pct: usize) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[(pct * values.len()).div_ceil(100) - 1]
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` off
/// Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn nearest_rank() {
        let mut v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&mut v, 99), 198);
        assert_eq!(percentile(&mut [7], 99), 7);
        assert_eq!(percentile(&mut [], 99), 0);
    }
}
