//! Planar geometry: points, SE(2) poses and rigid alignment.

/// A 2-D point (metres).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Point2 {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    #[must_use]
    pub fn distance(&self, other: Point2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

impl std::ops::Add for Point2 {
    type Output = Point2;
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

/// Normalises an angle to `(-π, π]`.
#[must_use]
pub fn wrap_angle(a: f64) -> f64 {
    let mut a = a % (2.0 * std::f64::consts::PI);
    if a <= -std::f64::consts::PI {
        a += 2.0 * std::f64::consts::PI;
    } else if a > std::f64::consts::PI {
        a -= 2.0 * std::f64::consts::PI;
    }
    a
}

/// An SE(2) pose: translation + heading.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Pose2 {
    /// Position.
    pub t: Point2,
    /// Heading in radians.
    pub theta: f64,
}

impl Pose2 {
    /// Creates a pose.
    #[must_use]
    pub fn new(x: f64, y: f64, theta: f64) -> Self {
        Self { t: Point2::new(x, y), theta: wrap_angle(theta) }
    }

    /// Composition `self ∘ rhs` (apply `rhs` in `self`'s frame).
    #[must_use]
    pub fn compose(&self, rhs: Pose2) -> Pose2 {
        let (s, c) = self.theta.sin_cos();
        Pose2::new(
            self.t.x + c * rhs.t.x - s * rhs.t.y,
            self.t.y + s * rhs.t.x + c * rhs.t.y,
            self.theta + rhs.theta,
        )
    }

    /// Inverse pose.
    #[must_use]
    pub fn inverse(&self) -> Pose2 {
        let (s, c) = self.theta.sin_cos();
        Pose2::new(-(c * self.t.x + s * self.t.y), s * self.t.x - c * self.t.y, -self.theta)
    }

    /// Relative pose `self⁻¹ ∘ other`.
    #[must_use]
    pub fn between(&self, other: Pose2) -> Pose2 {
        self.inverse().compose(other)
    }

    /// Maps a point from this pose's local frame to the world frame.
    #[must_use]
    pub fn transform(&self, p: Point2) -> Point2 {
        let (s, c) = self.theta.sin_cos();
        Point2::new(self.t.x + c * p.x - s * p.y, self.t.y + s * p.x + c * p.y)
    }

    /// Maps a world point into this pose's local frame.
    #[must_use]
    pub fn transform_inv(&self, p: Point2) -> Point2 {
        self.local_frame().map(p)
    }

    /// This pose's local frame, for mapping many world points into it with
    /// one sine and cosine.
    #[must_use]
    pub(crate) fn local_frame(&self) -> LocalFrame {
        let (sin, cos) = self.theta.sin_cos();
        LocalFrame { origin: self.t, sin, cos }
    }
}

/// A pose's local frame with its heading's sine and cosine taken once
/// ([`Pose2::local_frame`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocalFrame {
    origin: Point2,
    sin: f64,
    cos: f64,
}

impl LocalFrame {
    /// Maps a world point into this frame.
    #[must_use]
    pub(crate) fn map(&self, p: Point2) -> Point2 {
        let d = p - self.origin;
        let (s, c) = (self.sin, self.cos);
        Point2::new(c * d.x + s * d.y, -s * d.x + c * d.y)
    }
}

/// Least-squares rigid alignment (2-D Kabsch/Umeyama without scale):
/// returns the pose `T` minimising `Σ ‖T·a_i − b_i‖²` for paired points,
/// or `None` with fewer than 2 pairs.
#[must_use]
pub fn align_rigid_2d(pairs: &[(Point2, Point2)]) -> Option<Pose2> {
    if pairs.len() < 2 {
        return None;
    }
    let n = pairs.len() as f64;
    let (mut ca, mut cb) = (Point2::default(), Point2::default());
    for (a, b) in pairs {
        ca = ca + *a;
        cb = cb + *b;
    }
    ca = Point2::new(ca.x / n, ca.y / n);
    cb = Point2::new(cb.x / n, cb.y / n);
    let (mut sxx, mut sxy, mut syx, mut syy) = (0.0, 0.0, 0.0, 0.0);
    for (a, b) in pairs {
        let da = *a - ca;
        let db = *b - cb;
        sxx += da.x * db.x;
        sxy += da.x * db.y;
        syx += da.y * db.x;
        syy += da.y * db.y;
    }
    let theta = (sxy - syx).atan2(sxx + syy);
    let (s, c) = theta.sin_cos();
    let tx = cb.x - (c * ca.x - s * ca.y);
    let ty = cb.y - (s * ca.x + c * ca.y);
    Some(Pose2::new(tx, ty, theta))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn compose_inverse_is_identity() {
        let p = Pose2::new(3.0, -2.0, 1.2);
        let id = p.compose(p.inverse());
        assert!(close(id.t.x, 0.0) && close(id.t.y, 0.0) && close(id.theta, 0.0));
    }

    #[test]
    fn between_recovers_composition() {
        let a = Pose2::new(1.0, 2.0, 0.3);
        let d = Pose2::new(0.5, -0.1, -0.2);
        let b = a.compose(d);
        let rec = a.between(b);
        assert!(close(rec.t.x, d.t.x) && close(rec.t.y, d.t.y) && close(rec.theta, d.theta));
    }

    #[test]
    fn transform_round_trip() {
        let p = Pose2::new(-1.0, 4.0, 2.1);
        let q = Point2::new(0.7, -0.3);
        let back = p.transform_inv(p.transform(q));
        assert!(close(back.x, q.x) && close(back.y, q.y));
    }

    #[test]
    fn wrap_angle_range() {
        for a in [-10.0, -3.2, 0.0, 3.2, 10.0, 100.0] {
            let w = wrap_angle(a);
            assert!(w > -std::f64::consts::PI - 1e-12 && w <= std::f64::consts::PI + 1e-12);
            assert!(close((w - a).rem_euclid(2.0 * std::f64::consts::PI), 0.0));
        }
    }

    #[test]
    fn rigid_alignment_recovers_transform() {
        let truth = Pose2::new(2.0, -1.0, 0.8);
        let pts = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(2.0, 3.0),
        ];
        let pairs: Vec<_> = pts.iter().map(|p| (*p, truth.transform(*p))).collect();
        let est = align_rigid_2d(&pairs).unwrap();
        assert!(close(est.t.x, truth.t.x));
        assert!(close(est.t.y, truth.t.y));
        assert!(close(est.theta, truth.theta));
    }

    #[test]
    fn rigid_alignment_needs_two_points() {
        assert!(align_rigid_2d(&[]).is_none());
        assert!(align_rigid_2d(&[(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0))]).is_none());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_pose() -> impl Strategy<Value = Pose2> {
        (-50.0..50.0f64, -50.0..50.0f64, -3.1..3.1f64).prop_map(|(x, y, t)| Pose2::new(x, y, t))
    }

    proptest! {
        #[test]
        fn compose_is_associative(a in arb_pose(), b in arb_pose(), c in arb_pose()) {
            let left = a.compose(b).compose(c);
            let right = a.compose(b.compose(c));
            prop_assert!((left.t.x - right.t.x).abs() < 1e-6);
            prop_assert!((left.t.y - right.t.y).abs() < 1e-6);
            prop_assert!(wrap_angle(left.theta - right.theta).abs() < 1e-9);
        }

        #[test]
        fn inverse_is_involutive(a in arb_pose()) {
            let back = a.inverse().inverse();
            prop_assert!((back.t.x - a.t.x).abs() < 1e-9);
            prop_assert!((back.t.y - a.t.y).abs() < 1e-9);
            prop_assert!(wrap_angle(back.theta - a.theta).abs() < 1e-12);
        }

        #[test]
        fn between_then_compose_round_trips(a in arb_pose(), b in arb_pose()) {
            let rec = a.compose(a.between(b));
            prop_assert!((rec.t.x - b.t.x).abs() < 1e-8);
            prop_assert!((rec.t.y - b.t.y).abs() < 1e-8);
            prop_assert!(wrap_angle(rec.theta - b.theta).abs() < 1e-9);
        }

        #[test]
        fn alignment_recovers_random_transforms(
            truth in arb_pose(),
            pts in prop::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 3..20),
        ) {
            // Degenerate (all-collinear or coincident) point sets can be
            // ill-conditioned; inject spread points to guarantee rank.
            let mut pts: Vec<Point2> = pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            pts.push(Point2::new(11.0, 0.0));
            pts.push(Point2::new(0.0, 11.0));
            let pairs: Vec<_> = pts.iter().map(|p| (*p, truth.transform(*p))).collect();
            let est = align_rigid_2d(&pairs).unwrap();
            prop_assert!((est.t.x - truth.t.x).abs() < 1e-6, "{est:?} vs {truth:?}");
            prop_assert!((est.t.y - truth.t.y).abs() < 1e-6);
            prop_assert!(wrap_angle(est.theta - truth.theta).abs() < 1e-8);
        }

        #[test]
        fn transform_preserves_distances(a in arb_pose(), p in (-9.0..9.0f64, -9.0..9.0f64), q in (-9.0..9.0f64, -9.0..9.0f64)) {
            let p = Point2::new(p.0, p.1);
            let q = Point2::new(q.0, q.1);
            let d0 = p.distance(q);
            let d1 = a.transform(p).distance(a.transform(q));
            prop_assert!((d0 - d1).abs() < 1e-9);
        }
    }
}
