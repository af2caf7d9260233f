//! Per-agent maps and cross-agent map merging.

use std::collections::HashMap;

use crate::camera::Frame;
use crate::geometry::{align_rigid_2d, Point2, Pose2};

/// One trajectory sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoseSample {
    /// Frame index.
    pub frame: u32,
    /// Time (seconds).
    pub time_s: f64,
    /// Estimated pose.
    pub estimate: Pose2,
    /// Ground-truth pose (evaluation only).
    pub truth: Pose2,
}

/// An agent's accumulated map: trajectory + per-frame landmark
/// observations (local coordinates + appearance).
#[derive(Debug, Clone, Default)]
pub struct AgentMap {
    /// Trajectory samples in frame order.
    pub trajectory: Vec<PoseSample>,
    /// Per frame: `(appearance, local position)` of observed landmarks.
    pub frame_landmarks: HashMap<u32, Vec<(u64, Point2)>>,
}

impl AgentMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a frame's estimate and observations.
    pub fn record(&mut self, frame: &Frame, estimate: Pose2) {
        self.trajectory.push(PoseSample {
            frame: frame.index,
            time_s: frame.time_s,
            estimate,
            truth: frame.truth_pose,
        });
        let lms = frame
            .observations
            .iter()
            .map(|o| {
                (o.appearance, Point2::new(o.range * o.bearing.cos(), o.range * o.bearing.sin()))
            })
            .collect();
        self.frame_landmarks.insert(frame.index, lms);
    }

    /// Absolute trajectory error: RMSE of position error after aligning
    /// the estimate to ground truth at the first sample.
    #[must_use]
    pub fn ate(&self) -> f64 {
        if self.trajectory.is_empty() {
            return 0.0;
        }
        let first = &self.trajectory[0];
        // Express both in the first frame's coordinates.
        let t_est = first.estimate;
        let t_tru = first.truth;
        let mut sum = 0.0;
        for s in &self.trajectory {
            let e = t_est.between(s.estimate);
            let g = t_tru.between(s.truth);
            sum += e.t.distance(g.t).powi(2);
        }
        (sum / self.trajectory.len() as f64).sqrt()
    }

    /// The pose sample of a frame.
    #[must_use]
    pub fn sample_of(&self, frame: u32) -> Option<&PoseSample> {
        self.trajectory.iter().find(|s| s.frame == frame)
    }
}

/// A successful cross-agent merge.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeResult {
    /// Matching frame of agent A.
    pub frame_a: u32,
    /// Matching frame of agent B.
    pub frame_b: u32,
    /// PR code similarity of the match.
    pub similarity: f32,
    /// Estimated transform mapping agent B's map frame into agent A's.
    pub b_to_a: Pose2,
    /// RMSE (metres) of agent B's merged trajectory against ground truth
    /// expressed in agent A's ground-truth frame.
    pub alignment_rmse_m: f64,
}

/// Attempts to merge two maps at a PR-matched frame pair.
///
/// Shared landmarks (same appearance) observed in both matched frames give
/// point pairs in the two robots' local frames; rigid alignment yields the
/// relative pose between the agents at those frames, which composed with
/// both pose estimates gives the map-to-map transform.
#[must_use]
pub fn merge_maps(
    map_a: &AgentMap,
    map_b: &AgentMap,
    frame_a: u32,
    frame_b: u32,
    similarity: f32,
) -> Option<MergeResult> {
    let obs_a = map_a.frame_landmarks.get(&frame_a)?;
    let obs_b = map_b.frame_landmarks.get(&frame_b)?;
    let by_app: HashMap<u64, Point2> = obs_a.iter().copied().collect();
    let pairs: Vec<(Point2, Point2)> =
        obs_b.iter().filter_map(|(app, p_b)| by_app.get(app).map(|p_a| (*p_b, *p_a))).collect();
    if pairs.len() < 3 {
        return None;
    }
    // T_ab: B's camera frame -> A's camera frame.
    let t_ab = align_rigid_2d(&pairs)?;
    let pose_a = map_a.sample_of(frame_a)?.estimate;
    let pose_b = map_b.sample_of(frame_b)?.estimate;
    // Map-frame transform: world_A <- world_B.
    let b_to_a = pose_a.compose(t_ab).compose(pose_b.inverse());

    // Evaluate: B's merged estimates vs B's ground truth, both expressed
    // in A's (ground-truth == world) frame.
    let mut sum = 0.0;
    for s in &map_b.trajectory {
        let merged = b_to_a.compose(s.estimate);
        sum += merged.t.distance(s.truth.t).powi(2);
    }
    let alignment_rmse_m = (sum / map_b.trajectory.len().max(1) as f64).sqrt();
    Some(MergeResult { frame_a, frame_b, similarity, b_to_a, alignment_rmse_m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{Camera, CameraConfig};
    use crate::world::World;

    #[test]
    fn ate_zero_for_perfect_estimates() {
        let w = World::paper_arena(1);
        let cam = Camera::new(CameraConfig::default(), 2);
        let mut m = AgentMap::new();
        for i in 0..10 {
            let pose = Pose2::new(f64::from(i) * 0.1, -2.0, 1.0);
            let f = cam.capture(&w, pose, i as u32, f64::from(i) * 0.05);
            m.record(&f, pose);
        }
        assert!(m.ate() < 1e-9);
    }

    #[test]
    fn merge_recovers_identity_for_same_world() {
        // Two agents observing the same spot from nearby poses, perfect
        // estimates: the merge transform should be near identity (both
        // maps already share the world frame).
        let w = World::paper_arena(1);
        let cam = Camera::new(CameraConfig::default(), 2);
        let pose_a = Pose2::new(0.0, -1.5, 1.57);
        let pose_b = Pose2::new(0.4, -1.3, 1.45);
        let fa = cam.capture(&w, pose_a, 0, 0.0);
        let fb = cam.capture(&w, pose_b, 0, 0.0);
        let mut ma = AgentMap::new();
        let mut mb = AgentMap::new();
        ma.record(&fa, pose_a);
        mb.record(&fb, pose_b);
        let merge = merge_maps(&ma, &mb, 0, 0, 0.95).expect("shared landmarks");
        assert!(merge.b_to_a.t.distance(Point2::default()) < 0.2, "{:?}", merge.b_to_a);
        assert!(merge.alignment_rmse_m < 0.2, "rmse {}", merge.alignment_rmse_m);
    }

    #[test]
    fn merge_fails_without_shared_landmarks() {
        let w = World::paper_arena(1);
        let cam = Camera::new(CameraConfig::default(), 2);
        let pose_a = Pose2::new(-8.0, -4.0, 0.0);
        let pose_b = Pose2::new(8.0, 4.0, std::f64::consts::PI);
        let fa = cam.capture(&w, pose_a, 0, 0.0);
        let fb = cam.capture(&w, pose_b, 0, 0.0);
        let mut ma = AgentMap::new();
        let mut mb = AgentMap::new();
        ma.record(&fa, pose_a);
        mb.record(&fb, pose_b);
        assert!(merge_maps(&ma, &mb, 0, 0, 0.5).is_none());
    }
}
