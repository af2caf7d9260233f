//! Place recognition (PR): GeM-pooled scene codes and cross-agent
//! matching.
//!
//! The GeM/ResNet101 backbone runs on the accelerator (timing); the code
//! itself is synthesised by GeM-pooling per-landmark response vectors —
//! exactly the pooling math of the paper's PR head, over synthetic CNN
//! responses. Frames that see the same physical landmarks produce nearby
//! codes regardless of viewpoint, which is the property map merging needs.

use crate::camera::Frame;
use crate::geometry::Pose2;

/// Place-code dimensionality (GeM/ResNet101 yields 2048-d; 256 keeps the
/// synthetic pipeline cheap with the same matching behaviour).
pub const CODE_DIM: usize = 256;

/// A GeM place code with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceCode {
    /// Frame index the code was computed from.
    pub frame: u32,
    /// Capture time (seconds).
    pub time_s: f64,
    /// The agent's pose *estimate* when the frame was captured.
    pub pose_estimate: Pose2,
    /// L2-normalised code.
    pub vector: Vec<f32>,
}

/// The GeM encoder.
#[derive(Debug, Clone, Copy)]
pub struct PlaceRecognizer {
    /// GeM exponent (3 in the paper's PR model).
    pub p: f32,
}

impl Default for PlaceRecognizer {
    fn default() -> Self {
        Self { p: 3.0 }
    }
}

impl PlaceRecognizer {
    /// Creates an encoder with exponent `p`.
    #[must_use]
    pub fn new(p: f32) -> Self {
        Self { p }
    }

    fn response(appearance: u64) -> [f32; CODE_DIM] {
        let mut out = [0f32; CODE_DIM];
        let mut z = appearance ^ 0x5ca1_ab1e_0000_0001;
        for v in &mut out {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            // Non-negative, *sparse* responses like post-ReLU features:
            // each landmark activates only ~5% of the code's dimensions,
            // so the pooled code depends on which landmarks are visible.
            let raw = ((z >> 40) & 0xffff) as f32 / 65536.0;
            *v = if raw > 0.95 { (raw - 0.95) * 20.0 } else { 0.0 };
        }
        out
    }

    /// Encodes a frame into a GeM place code.
    #[must_use]
    pub fn encode(&self, frame: &Frame, pose_estimate: Pose2) -> PlaceCode {
        let mut pooled = [0f64; CODE_DIM];
        let n = frame.observations.len().max(1) as f64;
        // For p > 0 a zero response pools to +0.0, which leaves the
        // non-negative sum's bits alone: only the ≈5 % non-zero ones are
        // raised to p.
        let sparse = self.p > 0.0;
        for obs in &frame.observations {
            for (acc, v) in pooled.iter_mut().zip(Self::response(obs.appearance)) {
                if !sparse || v != 0.0 {
                    *acc += f64::from(v).powf(f64::from(self.p));
                }
            }
        }
        let mut vector = Vec::with_capacity(CODE_DIM);
        let mut norm = 0f64;
        for acc in pooled {
            let v = (acc / n).powf(1.0 / f64::from(self.p));
            norm += v * v;
            vector.push(v as f32);
        }
        let norm = (norm.sqrt() as f32).max(1e-12);
        for v in &mut vector {
            *v /= norm;
        }
        PlaceCode { frame: frame.index, time_s: frame.time_s, pose_estimate, vector }
    }
}

/// Cosine similarity of two codes.
///
/// # Panics
///
/// Panics when dimensions differ.
#[must_use]
pub fn code_similarity(a: &PlaceCode, b: &PlaceCode) -> f32 {
    assert_eq!(a.vector.len(), b.vector.len(), "code dimensions differ");
    a.vector.iter().zip(b.vector.iter()).map(|(x, y)| x * y).sum()
}

/// An agent's database of place codes.
#[derive(Debug, Clone, Default)]
pub struct PlaceDatabase {
    /// Codes in insertion order.
    pub codes: Vec<PlaceCode>,
}

impl PlaceDatabase {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a code.
    pub fn insert(&mut self, code: PlaceCode) {
        self.codes.push(code);
    }

    /// Best match for `query`: `(index, similarity)`.
    #[must_use]
    pub fn best_match(&self, query: &PlaceCode) -> Option<(usize, f32)> {
        self.codes
            .iter()
            .enumerate()
            .map(|(i, c)| (i, code_similarity(query, c)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{Camera, CameraConfig};
    use crate::world::World;

    fn frame_at(pose: Pose2, index: u32) -> Frame {
        let w = World::paper_arena(1);
        Camera::new(CameraConfig::default(), 3).capture(&w, pose, index, 0.0)
    }

    #[test]
    fn codes_are_unit_norm() {
        let pr = PlaceRecognizer::default();
        let c = pr.encode(&frame_at(Pose2::new(0.0, -2.0, 1.5), 0), Pose2::default());
        let n: f32 = c.vector.iter().map(|v| v * v).sum();
        assert!((n - 1.0).abs() < 1e-4);
        assert_eq!(c.vector.len(), CODE_DIM);
    }

    #[test]
    fn same_place_similar_code_distinct_place_dissimilar() {
        let pr = PlaceRecognizer::default();
        let here = pr.encode(&frame_at(Pose2::new(0.0, -2.0, 1.5), 0), Pose2::default());
        let near = pr.encode(&frame_at(Pose2::new(0.3, -2.1, 1.45), 1), Pose2::default());
        let far = pr.encode(
            &frame_at(Pose2::new(8.0, 4.0, -std::f64::consts::PI / 2.0), 2),
            Pose2::default(),
        );
        let s_near = code_similarity(&here, &near);
        let s_far = code_similarity(&here, &far);
        assert!(s_near > 0.85, "same place similarity {s_near}");
        assert!(s_near > s_far + 0.1, "near {s_near} vs far {s_far}");
    }

    #[test]
    fn database_returns_the_best() {
        let pr = PlaceRecognizer::default();
        let mut db = PlaceDatabase::new();
        for (i, pose) in
            [Pose2::new(-6.0, -4.0, 0.0), Pose2::new(0.0, -2.0, 1.5), Pose2::new(6.0, 4.0, 3.0)]
                .iter()
                .enumerate()
        {
            db.insert(pr.encode(&frame_at(*pose, i as u32), Pose2::default()));
        }
        let query = pr.encode(&frame_at(Pose2::new(0.2, -2.0, 1.5), 9), Pose2::default());
        let (idx, sim) = db.best_match(&query).unwrap();
        assert_eq!(idx, 1);
        assert!(sim > 0.8);
    }

    #[test]
    fn empty_database_has_no_match() {
        let pr = PlaceRecognizer::default();
        let q = pr.encode(&frame_at(Pose2::new(0.0, 0.0, 0.0), 0), Pose2::default());
        assert!(PlaceDatabase::new().best_match(&q).is_none());
    }
}
