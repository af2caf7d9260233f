//! Visual odometry: relative pose from matched feature points (the CPU
//! part of the paper's pipeline — VO consumes FE's keypoints while the
//! accelerator moves on to PR).
//!
//! Tracking is *keyframe-based*: each frame is aligned against the last
//! keyframe rather than the previous frame, so heading error accumulates
//! per keyframe switch instead of per frame — an order of magnitude less
//! drift for the same per-alignment noise.

use crate::features::{match_keypoints, Keypoint};
use crate::geometry::{align_rigid_2d, Pose2};

/// Lowe's ratio for descriptor matching.
const MATCH_RATIO: f32 = 0.95;
/// Promote a new keyframe when fewer matches than this survive.
const MIN_KEYFRAME_MATCHES: usize = 12;
/// Promote a new keyframe beyond this displacement (metres).
const MAX_KEYFRAME_DISTANCE: f64 = 0.8;
/// Promote a new keyframe beyond this rotation (radians).
const MAX_KEYFRAME_ROTATION: f64 = 0.35;

/// Visual-odometry state and estimator.
#[derive(Debug, Clone)]
pub struct VisualOdometry {
    keyframe: Option<(Vec<Keypoint>, Pose2)>,
    pose: Pose2,
    /// Frames processed.
    pub frames: u32,
    /// Frames where tracking failed (too few matches; the pose was held).
    pub tracking_failures: u32,
    /// Keyframe promotions.
    pub keyframes: u32,
}

impl Default for VisualOdometry {
    fn default() -> Self {
        Self::new(Pose2::default())
    }
}

impl VisualOdometry {
    /// Creates a VO starting at `origin`.
    #[must_use]
    pub fn new(origin: Pose2) -> Self {
        Self { keyframe: None, pose: origin, frames: 0, tracking_failures: 0, keyframes: 0 }
    }

    /// Current pose estimate.
    #[must_use]
    pub fn pose(&self) -> Pose2 {
        self.pose
    }

    fn promote_keyframe(&mut self, keypoints: Vec<Keypoint>) {
        self.keyframe = Some((keypoints, self.pose));
        self.keyframes += 1;
    }

    /// Processes one frame's keypoints, returning the updated pose
    /// estimate.
    pub fn process(&mut self, keypoints: Vec<Keypoint>) -> Pose2 {
        self.frames += 1;
        let Some((kf_kps, kf_pose)) = &self.keyframe else {
            self.promote_keyframe(keypoints);
            return self.pose;
        };
        let matches = match_keypoints(kf_kps, &keypoints, MATCH_RATIO);
        // Static world points: p_keyframe = D · p_current, with D the
        // motion of the camera since the keyframe.
        let pairs: Vec<_> =
            matches.iter().map(|&(i, j)| (keypoints[j].local, kf_kps[i].local)).collect();
        match align_rigid_2d(&pairs) {
            Some(delta) if pairs.len() >= 3 => {
                self.pose = kf_pose.compose(delta);
                let moved = (delta.t.x.powi(2) + delta.t.y.powi(2)).sqrt();
                if matches.len() < MIN_KEYFRAME_MATCHES
                    || moved > MAX_KEYFRAME_DISTANCE
                    || delta.theta.abs() > MAX_KEYFRAME_ROTATION
                {
                    self.promote_keyframe(keypoints);
                }
            }
            _ => {
                self.tracking_failures += 1;
                // Re-anchor on the current view so tracking can recover.
                self.promote_keyframe(keypoints);
            }
        }
        self.pose
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{Camera, CameraConfig};
    use crate::features::FeatureExtractor;
    use crate::trajectory::Trajectory;
    use crate::world::World;

    fn run_vo(seconds: f64) -> (VisualOdometry, Pose2) {
        let world = World::paper_arena(1);
        let cam = Camera::new(CameraConfig::default(), 5);
        let fx = FeatureExtractor::default();
        let traj = Trajectory::agent0();
        let mut vo = VisualOdometry::new(traj.pose_at(0.0));
        let dt = cam.config.period_s();
        let steps = (seconds / dt) as u32;
        for i in 0..steps {
            let t = f64::from(i) * dt;
            let frame = cam.capture(&world, traj.pose_at(t), i, t);
            vo.process(fx.extract(&frame));
        }
        (vo, traj.pose_at(f64::from(steps - 1) * dt))
    }

    #[test]
    fn vo_tracks_a_straight_run() {
        let (vo, truth) = run_vo(2.0);
        let err = vo.pose().t.distance(truth.t);
        assert!(err < 0.3, "VO drifted {err:.3} m over 2 s");
        assert!(vo.tracking_failures <= 2);
    }

    #[test]
    fn keyframing_bounds_longer_drift() {
        let (vo, truth) = run_vo(20.0);
        let err = vo.pose().t.distance(truth.t);
        assert!(err < 2.0, "VO drifted {err:.3} m over 20 s");
        // Keyframes promoted far less often than once per frame.
        assert!(
            vo.keyframes < vo.frames / 3,
            "{} keyframes for {} frames",
            vo.keyframes,
            vo.frames
        );
    }

    #[test]
    fn vo_without_matches_flags_failure() {
        let mut vo = VisualOdometry::new(Pose2::default());
        vo.process(vec![]);
        vo.process(vec![]); // second frame with nothing to match
        assert_eq!(vo.tracking_failures, 1);
        assert_eq!(vo.pose(), Pose2::default());
    }
}
