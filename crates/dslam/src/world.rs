//! The synthetic exploration arena (AirSim-scene substitute).
//!
//! The paper's scene (Fig. "env(a)") is "a simple rectangle area with four
//! different pillars, and some chairs at the center". The substitute is a
//! deterministic world of visual landmarks placed on pillar surfaces, the
//! central furniture cluster and the arena walls, each carrying a stable
//! id and a deterministic appearance seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::geometry::Point2;

/// A visual landmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Landmark {
    /// Stable id.
    pub id: u32,
    /// World position.
    pub position: Point2,
    /// Height above ground (metres) — drives the image-row coordinate.
    pub height: f64,
    /// Appearance seed (drives the synthetic descriptor).
    pub appearance: u64,
}

/// A cylindrical pillar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pillar {
    /// Centre.
    pub center: Point2,
    /// Radius (metres).
    pub radius: f64,
}

/// The rectangular arena with pillars and a central cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    /// Arena half-extent in x (metres); the arena spans `[-x, x]`.
    pub half_x: f64,
    /// Arena half-extent in y.
    pub half_y: f64,
    /// The pillars.
    pub pillars: Vec<Pillar>,
    /// All landmarks.
    pub landmarks: Vec<Landmark>,
}

impl World {
    /// The paper-style arena: a 20 m × 12 m rectangle, four pillars, and a
    /// furniture cluster at the centre, deterministically seeded.
    #[must_use]
    pub fn paper_arena(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (half_x, half_y) = (10.0, 6.0);
        let pillars = vec![
            Pillar { center: Point2::new(-6.0, -3.0), radius: 0.6 },
            Pillar { center: Point2::new(6.0, -3.0), radius: 0.6 },
            Pillar { center: Point2::new(-6.0, 3.0), radius: 0.6 },
            Pillar { center: Point2::new(6.0, 3.0), radius: 0.6 },
        ];
        let mut landmarks = Vec::new();
        let mut id = 0u32;
        let mut push = |p: Point2, h: f64, rng: &mut ChaCha8Rng, out: &mut Vec<Landmark>| {
            out.push(Landmark { id, position: p, height: h, appearance: rng.gen() });
            id += 1;
        };
        // Landmarks around each pillar surface.
        for pillar in &pillars {
            for k in 0..16 {
                let a = 2.0 * std::f64::consts::PI * f64::from(k) / 16.0;
                let p = Point2::new(
                    pillar.center.x + pillar.radius * a.cos(),
                    pillar.center.y + pillar.radius * a.sin(),
                );
                let h = rng.gen_range(0.3..2.2);
                push(p, h, &mut rng, &mut landmarks);
            }
        }
        // Central "chairs" cluster.
        for _ in 0..40 {
            let p = Point2::new(rng.gen_range(-2.0..2.0), rng.gen_range(-1.5..1.5));
            let h = rng.gen_range(0.2..1.0);
            push(p, h, &mut rng, &mut landmarks);
        }
        // Wall texture landmarks.
        for k in 0..40 {
            let f = f64::from(k) / 40.0;
            let (p, h) = match k % 4 {
                0 => (Point2::new(-half_x + 2.0 * half_x * f, -half_y), 1.0 + f),
                1 => (Point2::new(-half_x + 2.0 * half_x * f, half_y), 1.5 - f),
                2 => (Point2::new(-half_x, -half_y + 2.0 * half_y * f), 0.8 + f),
                _ => (Point2::new(half_x, -half_y + 2.0 * half_y * f), 1.2 + f / 2.0),
            };
            push(p, h, &mut rng, &mut landmarks);
        }
        Self { half_x, half_y, pillars, landmarks }
    }

    /// Whether a straight segment between two points is blocked by a
    /// pillar (simple circle-segment intersection).
    #[must_use]
    pub fn occluded(&self, from: Point2, to: Point2) -> bool {
        for pillar in &self.pillars {
            let d = to - from;
            let f = from - pillar.center;
            let a = d.x * d.x + d.y * d.y;
            if a < 1e-12 {
                continue;
            }
            let b = 2.0 * (f.x * d.x + f.y * d.y);
            let c = f.x * f.x + f.y * f.y - pillar.radius * pillar.radius;
            let disc = b * b - 4.0 * a * c;
            if disc < 0.0 {
                continue;
            }
            let sq = disc.sqrt();
            for t in [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)] {
                // Exclude the endpoints themselves (landmarks sit *on*
                // pillar surfaces).
                if t > 0.02 && t < 0.98 {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_is_deterministic() {
        let a = World::paper_arena(5);
        let b = World::paper_arena(5);
        assert_eq!(a, b);
        let c = World::paper_arena(6);
        assert_ne!(a, c);
    }

    #[test]
    fn arena_has_four_pillars_and_many_landmarks() {
        let w = World::paper_arena(0);
        assert_eq!(w.pillars.len(), 4);
        assert!(w.landmarks.len() > 100);
        // Unique ids.
        let mut ids: Vec<u32> = w.landmarks.iter().map(|l| l.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), w.landmarks.len());
    }

    #[test]
    fn occlusion_blocks_through_pillar() {
        let w = World::paper_arena(0);
        let p = w.pillars[0].center;
        // A segment passing straight through the pillar centre.
        let from = Point2::new(p.x - 2.0, p.y);
        let to = Point2::new(p.x + 2.0, p.y);
        assert!(w.occluded(from, to));
        // A segment far from any pillar.
        assert!(!w.occluded(Point2::new(0.0, 5.5), Point2::new(1.0, 5.5)));
    }

    #[test]
    fn landmarks_inside_arena() {
        let w = World::paper_arena(3);
        for l in &w.landmarks {
            assert!(l.position.x >= -w.half_x - 1e-9 && l.position.x <= w.half_x + 1e-9);
            assert!(l.position.y >= -w.half_y - 1e-9 && l.position.y <= w.half_y + 1e-9);
        }
    }
}
