//! A pinhole camera observing world landmarks.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::geometry::Pose2;
use crate::world::World;

/// Camera intrinsics/extrinsics (the paper's AirSim camera: 640×480 at
/// 20 fps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraConfig {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Horizontal field of view in radians.
    pub fov: f64,
    /// Maximum observation range in metres.
    pub max_range: f64,
    /// Frame rate (Hz).
    pub fps: f64,
    /// Camera mounting height (metres).
    pub mount_height: f64,
    /// Pixel noise standard deviation.
    pub pixel_noise: f64,
    /// Relative range (depth-cue) noise, as a fraction of range.
    pub range_noise: f64,
    /// Bearing noise in radians.
    pub bearing_noise: f64,
}

impl Default for CameraConfig {
    fn default() -> Self {
        Self {
            width: 640,
            height: 480,
            fov: 1.3963, // 80°
            max_range: 12.0,
            fps: 20.0,
            mount_height: 1.0,
            pixel_noise: 0.3,
            range_noise: 0.01,
            bearing_noise: 0.002,
        }
    }
}

impl CameraConfig {
    /// Frame period in seconds.
    #[must_use]
    pub fn period_s(&self) -> f64 {
        1.0 / self.fps
    }

    /// Focal length in pixels implied by width and FOV.
    #[must_use]
    fn focal_px(&self) -> f64 {
        f64::from(self.width) / (2.0 * (self.fov / 2.0).tan())
    }
}

/// One landmark observation in a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Observed landmark's id (ground truth; perception must not use it
    /// except through the appearance descriptor).
    pub landmark: u32,
    /// Appearance seed of the landmark.
    pub appearance: u64,
    /// Pixel column.
    pub u: f64,
    /// Pixel row.
    pub v: f64,
    /// Range to the landmark (metres) — as a depth/stereo cue.
    pub range: f64,
    /// Bearing in the camera frame (radians).
    pub bearing: f64,
}

/// A camera frame: all visible landmark observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Frame index.
    pub index: u32,
    /// Capture time (seconds).
    pub time_s: f64,
    /// Ground-truth pose at capture (perception must not read it; kept
    /// for evaluation).
    pub truth_pose: Pose2,
    /// Observations.
    pub observations: Vec<Observation>,
}

/// The camera sensor model.
#[derive(Debug, Clone)]
pub struct Camera {
    /// The configuration.
    pub config: CameraConfig,
    noise_seed: u64,
}

impl Camera {
    /// Creates a camera with a deterministic noise stream.
    #[must_use]
    pub fn new(config: CameraConfig, noise_seed: u64) -> Self {
        Self { config, noise_seed }
    }

    /// Captures a frame from `pose` in `world`.
    #[must_use]
    pub fn capture(&self, world: &World, pose: Pose2, index: u32, time_s: f64) -> Frame {
        let mut rng = ChaCha8Rng::seed_from_u64(self.noise_seed ^ (u64::from(index) << 20));
        let f_px = self.config.focal_px();
        let mut observations = Vec::new();
        let view = pose.local_frame();
        // For x > 0, |atan2(y, x)| > fov/2 exactly when |y| > x·tan(fov/2):
        // a landmark clearly past that edge skips atan2. The 1e-9 margin,
        // far wider than libm's rounding, leaves every landmark near the
        // edge to the exact test.
        let half_fov = self.config.fov / 2.0;
        let edge = if half_fov < std::f64::consts::FRAC_PI_2 {
            half_fov.tan() * (1.0 + 1e-9)
        } else {
            f64::INFINITY
        };
        for lm in &world.landmarks {
            let local = view.map(lm.position);
            let range = (local.x * local.x + local.y * local.y).sqrt();
            if range < 0.3 || range > self.config.max_range || local.x <= 0.05 {
                continue;
            }
            if local.y.abs() > local.x * edge {
                continue;
            }
            let bearing = local.y.atan2(local.x);
            if bearing.abs() > half_fov {
                continue;
            }
            if world.occluded(pose.t, lm.position) {
                continue;
            }
            // Pinhole projection: u from bearing, v from height over range.
            let u = f64::from(self.config.width) / 2.0 - f_px * bearing.tan();
            let v = f64::from(self.config.height) / 2.0
                - f_px * (lm.height - self.config.mount_height) / range;
            if !(0.0..f64::from(self.config.width)).contains(&u)
                || !(0.0..f64::from(self.config.height)).contains(&v)
            {
                continue;
            }
            let nu = u + rng.gen_range(-1.0..1.0) * self.config.pixel_noise;
            let nv = v + rng.gen_range(-1.0..1.0) * self.config.pixel_noise;
            let nrange = range * (1.0 + rng.gen_range(-1.0..1.0) * self.config.range_noise);
            let nbearing = bearing + rng.gen_range(-1.0..1.0) * self.config.bearing_noise;
            observations.push(Observation {
                landmark: lm.id,
                appearance: lm.appearance,
                u: nu,
                v: nv,
                range: nrange,
                bearing: nbearing,
            });
        }
        observations.sort_by_key(|a| a.landmark);
        Frame { index, time_s, truth_pose: pose, observations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point2;

    #[test]
    fn default_matches_paper_camera() {
        let c = CameraConfig::default();
        assert_eq!((c.width, c.height), (640, 480));
        assert!((c.fps - 20.0).abs() < 1e-12);
        assert!((c.period_s() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn capture_is_deterministic() {
        let w = World::paper_arena(1);
        let cam = Camera::new(CameraConfig::default(), 9);
        let pose = Pose2::new(0.0, -4.0, 1.2);
        let a = cam.capture(&w, pose, 3, 0.15);
        let b = cam.capture(&w, pose, 3, 0.15);
        assert_eq!(a, b);
    }

    #[test]
    fn sees_something_from_arena_center_facing_pillar() {
        let w = World::paper_arena(1);
        let cam = Camera::new(CameraConfig::default(), 9);
        // Stand near the middle facing the (-6,-3) pillar.
        let dir = (Point2::new(-6.0, -3.0) - Point2::new(0.0, 0.0)).y.atan2(-6.0);
        let pose = Pose2::new(0.0, 0.0, dir);
        let f = cam.capture(&w, pose, 0, 0.0);
        assert!(
            f.observations.len() >= 5,
            "expected several landmarks, saw {}",
            f.observations.len()
        );
        for o in &f.observations {
            assert!(o.range <= cam.config.max_range * (1.0 + cam.config.range_noise));
            assert!(o.bearing.abs() <= cam.config.fov / 2.0 + 0.01);
        }
    }

    #[test]
    fn landmarks_behind_camera_are_invisible() {
        let w = World::paper_arena(1);
        let cam = Camera::new(CameraConfig::default(), 9);
        // Face away from everything: point toward the nearest wall from
        // just inside it.
        let pose = Pose2::new(9.8, 0.0, 0.0); // facing +x, wall at x=10
        let f = cam.capture(&w, pose, 0, 0.0);
        // Only wall landmarks directly ahead can be seen; none from behind.
        for o in &f.observations {
            assert!(o.bearing.abs() <= cam.config.fov / 2.0 + 0.01);
        }
    }
}
