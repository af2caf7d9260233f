//! The benchmark's own arrival generator: an integer LCG indexing a table
//! of exponential quantiles. Same construction as the product's load
//! benches use, re-implemented here so `crates/bench` stays free to change
//! without moving a benchmark number. No floating point anywhere, so a
//! seed yields the same stream on every host.

/// Exponential quantiles at the midpoints of 16 equiprobable bins, in
/// permille of the mean.
const EXP_Q_PERMILLE: [u64; 16] =
    [32, 98, 170, 247, 330, 421, 521, 632, 758, 901, 1068, 1268, 1520, 1856, 2367, 3466];

#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Seeds are scrambled (golden-ratio multiply, forced odd) so small
    /// consecutive seeds give uncorrelated streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 }
    }

    fn step(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 33
    }

    /// Next inter-arrival gap around `mean`; never zero, so arrival cycles
    /// stay strictly increasing.
    pub fn gap(&mut self, mean: u64) -> u64 {
        let q = EXP_Q_PERMILLE[(self.step() % 16) as usize];
        (mean * q / 1000).max(1)
    }

    /// Uniform-ish draw in `0..bound` (`bound > 0`).
    pub fn pick(&mut self, bound: u64) -> u64 {
        self.step() % bound
    }
}
