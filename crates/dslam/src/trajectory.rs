//! Agent trajectories: smooth waypoint loops through the arena.

use crate::geometry::{wrap_angle, Point2, Pose2};

/// A constant-speed waypoint-loop trajectory with heading along the path.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Waypoints (closed loop).
    pub waypoints: Vec<Point2>,
    /// Speed in m/s.
    pub speed: f64,
}

impl Trajectory {
    /// Creates a loop trajectory.
    ///
    /// # Panics
    ///
    /// Panics with fewer than 2 waypoints or non-positive speed.
    #[must_use]
    pub fn new(waypoints: Vec<Point2>, speed: f64) -> Self {
        assert!(waypoints.len() >= 2, "trajectory needs at least 2 waypoints");
        assert!(speed > 0.0, "speed must be positive");
        Self { waypoints, speed }
    }

    /// Agent 0's patrol loop around the lower half of the paper arena.
    #[must_use]
    pub fn agent0() -> Self {
        Self::new(
            vec![
                Point2::new(-8.0, -4.5),
                Point2::new(8.0, -4.5),
                Point2::new(8.0, -1.0),
                Point2::new(-8.0, -1.0),
            ],
            1.2,
        )
    }

    /// Agent 1's patrol loop around the upper half, overlapping agent 0's
    /// region near the centre (so place recognition can find a match).
    #[must_use]
    pub fn agent1() -> Self {
        Self::new(
            vec![
                Point2::new(8.0, 4.5),
                Point2::new(-8.0, 4.5),
                Point2::new(-8.0, 0.0),
                Point2::new(8.0, 0.0),
            ],
            1.1,
        )
    }

    /// Total loop length in metres.
    #[must_use]
    pub fn loop_length(&self) -> f64 {
        let n = self.waypoints.len();
        (0..n).map(|i| self.waypoints[i].distance(self.waypoints[(i + 1) % n])).sum()
    }

    /// Heading blend distance at corners (metres): the robot rotates
    /// smoothly through a corner instead of instantaneously, so a camera
    /// tracker keeps view overlap between consecutive frames.
    const TURN_BLEND_M: f64 = 0.8;

    fn segment_heading(&self, i: usize) -> f64 {
        let n = self.waypoints.len();
        let a = self.waypoints[i % n];
        let b = self.waypoints[(i + 1) % n];
        (b.y - a.y).atan2(b.x - a.x)
    }

    /// Ground-truth pose at time `t` seconds.
    #[must_use]
    pub fn pose_at(&self, t: f64) -> Pose2 {
        let total = self.loop_length();
        let mut s = (self.speed * t).rem_euclid(total);
        let n = self.waypoints.len();
        for i in 0..n {
            let a = self.waypoints[i];
            let b = self.waypoints[(i + 1) % n];
            let seg = a.distance(b);
            if s <= seg {
                let f = if seg > 0.0 { s / seg } else { 0.0 };
                let heading = self.segment_heading(i);
                // Blend heading near both corners of the segment.
                let blend = Self::TURN_BLEND_M.min(seg / 4.0).max(1e-9);
                let theta = if s < blend {
                    let prev = self.segment_heading((i + n - 1) % n);
                    let d = wrap_angle(heading - prev);
                    // 0.5..1.0 of the turn happens in this segment's start.
                    prev + d * (0.5 + 0.5 * s / blend)
                } else if s > seg - blend {
                    let next = self.segment_heading((i + 1) % n);
                    let d = wrap_angle(next - heading);
                    // 0.0..0.5 of the next turn happens at this segment's end.
                    heading + d * (0.5 * (s - (seg - blend)) / blend)
                } else {
                    heading
                };
                return Pose2::new(a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f, wrap_angle(theta));
            }
            s -= seg;
        }
        Pose2::new(self.waypoints[0].x, self.waypoints[0].y, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pose_progresses_along_path() {
        let t = Trajectory::agent0();
        let p0 = t.pose_at(0.0);
        let p1 = t.pose_at(1.0);
        assert!((p0.t.distance(p1.t) - t.speed).abs() < 1e-9);
    }

    #[test]
    fn loops_wrap_around() {
        let t = Trajectory::agent0();
        let period = t.loop_length() / t.speed;
        let a = t.pose_at(0.5);
        let b = t.pose_at(0.5 + period);
        assert!(a.t.distance(b.t) < 1e-9);
    }

    #[test]
    fn heading_follows_segments_mid_segment() {
        let t = Trajectory::new(vec![Point2::new(0.0, 0.0), Point2::new(4.0, 0.0)], 1.0);
        assert!((t.pose_at(2.0).theta - 0.0).abs() < 1e-9);
        // On the way back (second segment of the loop).
        assert!((t.pose_at(6.0).theta.abs() - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn heading_turns_smoothly_at_corners() {
        let t = Trajectory::agent0();
        // Sample at 20 fps over a whole loop: per-frame heading change
        // must stay well under the camera FOV.
        let dt = 0.05;
        let steps = (t.loop_length() / t.speed / dt) as u32 + 1;
        let mut max_step = 0.0f64;
        for i in 1..steps {
            let a = t.pose_at(f64::from(i - 1) * dt);
            let b = t.pose_at(f64::from(i) * dt);
            max_step = max_step.max(wrap_angle(b.theta - a.theta).abs());
        }
        assert!(max_step < 0.25, "heading jumps {:.1}° between frames", max_step.to_degrees());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_degenerate() {
        let _ = Trajectory::new(vec![Point2::new(0.0, 0.0)], 1.0);
    }

    #[test]
    fn agent_loops_overlap_near_centre() {
        // Both agents pass near y≈0 so PR can find a shared scene.
        let a = Trajectory::agent0();
        let b = Trajectory::agent1();
        let near_a =
            (0..2000).map(|i| a.pose_at(f64::from(i) * 0.1)).filter(|p| p.t.y > -1.5).count();
        let near_b =
            (0..2000).map(|i| b.pose_at(f64::from(i) * 0.1)).filter(|p| p.t.y < 0.5).count();
        assert!(near_a > 0 && near_b > 0);
    }
}
