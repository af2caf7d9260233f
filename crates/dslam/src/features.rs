//! Feature-point extraction (FE): the SuperPoint post-processing pipeline
//! over synthetic CNN responses.
//!
//! The CNN *backbone* runs on the accelerator (timing); its detector
//! response is synthesised from the frame's landmark observations (each
//! observation contributes a peak at its pixel, with appearance-seeded
//! score), which preserves exactly what the scheduling evaluation needs:
//! a real heatmap → NMS → keypoint → descriptor pipeline with stable,
//! matchable descriptors.

use crate::camera::{Frame, Observation};
use crate::geometry::Point2;

/// Descriptor dimensionality (SuperPoint uses 256; 32 keeps the synthetic
/// pipeline cheap while preserving matching behaviour).
pub const DESC_DIM: usize = 32;

/// A unit-norm keypoint descriptor.
pub type Descriptor = [f32; DESC_DIM];

/// An extracted feature point.
#[derive(Debug, Clone, PartialEq)]
pub struct Keypoint {
    /// Pixel column.
    pub u: f64,
    /// Pixel row.
    pub v: f64,
    /// Detector score.
    pub score: f32,
    /// Unit-norm descriptor.
    pub descriptor: Descriptor,
    /// Back-projected position in the robot frame (from the depth cue).
    pub local: Point2,
}

/// Deterministic unit-norm descriptor from an appearance seed.
#[must_use]
pub fn descriptor_from_appearance(seed: u64) -> Descriptor {
    let mut d = [0f32; DESC_DIM];
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc0ff_ee11;
    let mut norm = 0f32;
    for slot in &mut d {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        // Map to [-1, 1).
        let v = ((z >> 40) as i32 - (1 << 23)) as f32 / (1 << 23) as f32;
        *slot = v;
        norm += v * v;
    }
    let norm = norm.sqrt().max(1e-12);
    for v in &mut d {
        *v /= norm;
    }
    d
}

/// Cosine similarity of two descriptors.
#[must_use]
pub fn descriptor_similarity(a: &Descriptor, b: &Descriptor) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// SuperPoint-style post-processing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureConfig {
    /// Non-maximum-suppression radius in pixels.
    pub nms_radius: f64,
    /// Keep at most this many keypoints.
    pub max_keypoints: usize,
    /// Minimum detector score.
    pub score_threshold: f32,
    /// Clock of the FE post-processing block in Hz (the paper runs it on
    /// the PL side at 200 MHz, next to the 300 MHz CNN accelerator).
    pub post_clock_hz: u64,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self {
            nms_radius: 8.0,
            max_keypoints: 200,
            score_threshold: 0.1,
            post_clock_hz: 200_000_000,
        }
    }
}

/// The FE post-processing block (the paper implements this as a small
/// FPGA accelerator next to the CNN; here it is the same algorithm in
/// software).
#[derive(Debug, Clone, Default)]
pub struct FeatureExtractor {
    /// Configuration.
    pub config: FeatureConfig,
}

impl FeatureExtractor {
    /// Creates an extractor.
    #[must_use]
    pub fn new(config: FeatureConfig) -> Self {
        Self { config }
    }

    /// Detector score: derives from appearance (stable across frames),
    /// modulated by range (closer = stronger response).
    fn score(obs: &Observation) -> f32 {
        let a = (obs.appearance >> 17) as u32;
        let base = 0.3 + 0.7 * (f64::from(a % 1000) / 1000.0) as f32;
        let range_gain = (1.0 / (1.0 + obs.range / 6.0)) as f32;
        base * (0.5 + 0.5 * range_gain)
    }

    fn keypoint(obs: &Observation, score: f32) -> Keypoint {
        let local = Point2::new(obs.range * obs.bearing.cos(), obs.range * obs.bearing.sin());
        Keypoint {
            u: obs.u,
            v: obs.v,
            score,
            descriptor: descriptor_from_appearance(obs.appearance),
            local,
        }
    }

    /// Latency of the post-processing hardware block for a frame with
    /// `candidates` detector responses, in *seconds* (convert with the
    /// accelerator clock for scheduling). Model: a fixed pipeline fill
    /// plus a streaming pass per candidate through the sorter and the NMS
    /// comparator array.
    #[must_use]
    pub fn post_processing_s(&self, candidates: usize) -> f64 {
        let cycles = 2_000 + 40 * candidates as u64;
        cycles as f64 / self.config.post_clock_hz as f64
    }

    /// Extracts keypoints from a frame: candidate responses, greedy NMS by
    /// score, then the top-k cut.
    #[must_use]
    pub fn extract(&self, frame: &Frame) -> Vec<Keypoint> {
        // Score and pixel decide selection; a survivor alone gets its
        // descriptor and back-projection.
        let mut candidates: Vec<(f32, &Observation)> = frame
            .observations
            .iter()
            .map(|obs| (Self::score(obs), obs))
            .filter(|(score, _)| *score >= self.config.score_threshold)
            .collect();
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut kept: Vec<Keypoint> = Vec::new();
        let r2 = self.config.nms_radius * self.config.nms_radius;
        for (score, obs) in candidates {
            if kept.len() >= self.config.max_keypoints {
                break;
            }
            let suppressed =
                kept.iter().any(|k| (k.u - obs.u).powi(2) + (k.v - obs.v).powi(2) < r2);
            if !suppressed {
                kept.push(Self::keypoint(obs, score));
            }
        }
        kept
    }
}

/// Candidates scored side by side: `LANES` descriptors, transposed.
const LANES: usize = 8;

/// `LANES` candidates' descriptors, dimension-major: `block[d][l]` is
/// component `d` of candidate `l`.
type Block = [[f32; LANES]; DESC_DIM];

/// One side of a match, its descriptors transposed into lane blocks so a
/// query is scored against `LANES` candidates at once.
///
/// Each lane sums `x[d] * y[d]` in `d` order from −0.0, as
/// [`descriptor_similarity`]'s `Iterator::sum` does, so every similarity is
/// bit-identical to it: lanes run side by side, never inside one dot
/// product.
#[derive(Debug, Clone)]
pub struct Candidates {
    blocks: Vec<Block>,
    count: usize,
}

impl Candidates {
    /// Transposes `keypoints`' descriptors; the last block is zero-padded.
    #[must_use]
    pub fn new(keypoints: &[Keypoint]) -> Self {
        let mut blocks = vec![[[0f32; LANES]; DESC_DIM]; keypoints.len().div_ceil(LANES)];
        for (j, k) in keypoints.iter().enumerate() {
            for (row, v) in blocks[j / LANES].iter_mut().zip(&k.descriptor) {
                row[j % LANES] = *v;
            }
        }
        Self { blocks, count: keypoints.len() }
    }

    /// Sets `row` to `descriptor_similarity(x, c)` for every candidate `c`,
    /// in order, bit for bit.
    pub fn similarities(&self, x: &Descriptor, row: &mut Vec<f32>) {
        row.resize(self.blocks.len() * LANES, 0.0);
        for (block, out) in self.blocks.iter().zip(row.chunks_exact_mut(LANES)) {
            let mut acc = [-0.0f32; LANES];
            for (xd, yd) in x.iter().zip(block) {
                for (a, y) in acc.iter_mut().zip(yd) {
                    *a += xd * y;
                }
            }
            out.copy_from_slice(&acc);
        }
        row.truncate(self.count);
    }
}

/// The best and runner-up similarity one keypoint has seen so far.
#[derive(Debug, Clone, Copy)]
struct Nearest {
    best: f32,
    second: f32,
    index: Option<usize>,
}

impl Default for Nearest {
    fn default() -> Self {
        Self { best: f32::MIN, second: f32::MIN, index: None }
    }
}

impl Nearest {
    fn offer(&mut self, s: f32, index: usize) {
        if s > self.best {
            self.second = self.best;
            self.best = s;
            self.index = Some(index);
        } else if s > self.second {
            self.second = s;
        }
    }

    /// Ratio test on angular distance: the best must be clearly better
    /// than the runner-up.
    fn accepted(&self, ratio: f32) -> Option<usize> {
        self.index
            .filter(|_| self.best > 0.6 && (self.second <= 0.0 || self.second < self.best * ratio))
    }
}

/// Mutual-nearest-neighbour descriptor matching with Lowe's ratio test.
/// Returns index pairs `(i into a, j into b)`.
///
/// Each similarity is computed once: the row of `a[i]` against all of `b`
/// feeds `a[i]`'s nearest neighbour and, in the same pass, every
/// `b[j]`'s, which sees the `a` side in index order as a separate scan
/// would. Scratch is one row and one state per `b` keypoint.
#[must_use]
pub fn match_keypoints(a: &[Keypoint], b: &[Keypoint], ratio: f32) -> Vec<(usize, usize)> {
    let candidates = Candidates::new(b);
    let mut row = Vec::new();
    let mut from_b = vec![Nearest::default(); b.len()];
    let from_a: Vec<Option<usize>> = a
        .iter()
        .enumerate()
        .map(|(i, k)| {
            candidates.similarities(&k.descriptor, &mut row);
            let mut nearest = Nearest::default();
            for (j, (&s, back)) in row.iter().zip(&mut from_b).enumerate() {
                nearest.offer(s, j);
                back.offer(s, i);
            }
            nearest.accepted(ratio)
        })
        .collect();
    from_a
        .iter()
        .enumerate()
        .filter_map(|(i, j)| {
            let j = (*j)?;
            (from_b[j].accepted(ratio) == Some(i)).then_some((i, j))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{Camera, CameraConfig};
    use crate::geometry::Pose2;
    use crate::world::World;

    fn test_frame(pose: Pose2, index: u32) -> Frame {
        let w = World::paper_arena(1);
        Camera::new(CameraConfig::default(), 11).capture(&w, pose, index, 0.0)
    }

    #[test]
    fn descriptors_are_unit_norm_and_stable() {
        let d1 = descriptor_from_appearance(42);
        let d2 = descriptor_from_appearance(42);
        assert_eq!(d1, d2);
        let n: f32 = d1.iter().map(|v| v * v).sum();
        assert!((n - 1.0).abs() < 1e-5);
        assert!(descriptor_similarity(&d1, &d2) > 0.999);
        let d3 = descriptor_from_appearance(43);
        assert!(descriptor_similarity(&d1, &d3) < 0.9);
    }

    #[test]
    fn post_processing_latency_grows_with_candidates() {
        let fx = FeatureExtractor::default();
        let a = fx.post_processing_s(0);
        let b = fx.post_processing_s(100);
        assert!(b > a);
        // Stays well under a millisecond even for dense frames — the
        // paper runs this block in PL at 200 MHz next to the accelerator.
        assert!(fx.post_processing_s(1_000) < 1e-3);
    }

    #[test]
    fn nms_enforces_radius() {
        let pose = Pose2::new(0.0, 0.0, std::f64::consts::PI);
        let kps = FeatureExtractor::default().extract(&test_frame(pose, 0));
        let r = FeatureConfig::default().nms_radius;
        for (i, a) in kps.iter().enumerate() {
            for b in kps.iter().skip(i + 1) {
                let d = ((a.u - b.u).powi(2) + (a.v - b.v).powi(2)).sqrt();
                assert!(d >= r, "keypoints {d:.1}px apart, NMS radius {r}");
            }
        }
    }

    #[test]
    fn max_keypoints_respected() {
        let cfg = FeatureConfig { max_keypoints: 3, ..Default::default() };
        let pose = Pose2::new(0.0, 0.0, std::f64::consts::PI);
        let kps = FeatureExtractor::new(cfg).extract(&test_frame(pose, 0));
        assert!(kps.len() <= 3);
    }

    #[test]
    fn same_scene_matches_well() {
        let pose = Pose2::new(0.0, -2.0, std::f64::consts::PI / 2.0);
        let fx = FeatureExtractor::default();
        let a = fx.extract(&test_frame(pose, 0));
        let b = fx.extract(&test_frame(Pose2::new(0.1, -2.0, std::f64::consts::PI / 2.0), 1));
        let matches = match_keypoints(&a, &b, 0.9);
        assert!(
            matches.len() >= a.len().min(b.len()) / 2,
            "only {} matches of {}/{} keypoints",
            matches.len(),
            a.len(),
            b.len()
        );
    }

    #[test]
    fn an_empty_side_matches_nothing() {
        let pose = Pose2::new(0.0, -2.0, std::f64::consts::PI / 2.0);
        let kps = FeatureExtractor::default().extract(&test_frame(pose, 0));
        assert!(!kps.is_empty());
        assert!(match_keypoints(&kps, &[], 0.9).is_empty());
        assert!(match_keypoints(&[], &kps, 0.9).is_empty());
        assert!(match_keypoints(&[], &[], 0.9).is_empty());
        let mut row = vec![1.0];
        Candidates::new(&[]).similarities(&kps[0].descriptor, &mut row);
        assert!(row.is_empty());
    }

    #[test]
    fn disjoint_scenes_do_not_match() {
        let fx = FeatureExtractor::default();
        let a = fx.extract(&test_frame(Pose2::new(-8.0, -4.0, 0.0), 0));
        let b = fx.extract(&test_frame(Pose2::new(8.0, 4.0, std::f64::consts::PI), 1));
        let matches = match_keypoints(&a, &b, 0.9);
        // Different landmark sets -> (almost) no mutual matches.
        assert!(matches.len() <= 2, "unexpected {} matches", matches.len());
    }
}
