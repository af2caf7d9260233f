//! The DSLAM host side against its reference (`common/dslam_reference.rs`),
//! bit for bit: the one-pass matcher and its lane-parallel similarities,
//! GeM pooling over non-zero responses only, one rotation per captured
//! frame, and descriptors built for selected keypoints only. The mission's
//! simulated time never sees these algorithms' host cost, but its
//! `sim_digest` hashes the trajectory error they produce, so this suite
//! lives in the root package where `cargo test` runs it.
//!
//! Case count defaults to a CI-friendly bound; set `INCA_PROP_CASES` for
//! a deeper sweep.

#[path = "common/dslam_reference.rs"]
mod reference;

use inca_dslam::camera::{Camera, CameraConfig, Frame};
use inca_dslam::features::{
    descriptor_from_appearance, descriptor_similarity, match_keypoints, Candidates, Descriptor,
    FeatureConfig, FeatureExtractor, Keypoint, DESC_DIM,
};
use inca_dslam::pr::PlaceRecognizer;
use inca_dslam::trajectory::Trajectory;
use inca_dslam::{Point2, Pose2, World};
use proptest::prelude::*;

fn prop_cases(default_cases: u32) -> ProptestConfig {
    let cases =
        std::env::var("INCA_PROP_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

/// Ratios at and around the test's edges: no runner-up allowed, ties
/// (`second == best`) rejected at 1.0 and accepted just above it, and
/// values no similarity reaches.
fn ratios() -> Vec<f32> {
    vec![0.0, -1.0, 0.5, 0.9, 0.95, 1.0, f32::from_bits(1.0f32.to_bits() + 1), 2.0, f32::NAN]
}

/// Descriptor `id` of a small pool, so a side holds duplicates (ties): a
/// few unit-norm ones, zeros of both signs, a negated and a tiny one
/// (subnormal products), and an all-positive one, whose similarity with
/// the −0.0 one is −0.0 only when summed from −0.0. Ids past the pool are
/// fresh unit-norm ones.
fn descriptor(id: u8, seed: u64) -> Descriptor {
    match id {
        0..=7 => descriptor_from_appearance(u64::from(id)),
        8 => [0.0; DESC_DIM],
        9 => [-0.0; DESC_DIM],
        10 => descriptor_from_appearance(0).map(|v| -v),
        11 => descriptor_from_appearance(1).map(|v| v * 1e-20),
        12 => [(DESC_DIM as f32).sqrt().recip(); DESC_DIM],
        _ => descriptor_from_appearance(seed ^ u64::from(id)),
    }
}

fn keypoints(ids: &[(u8, u64)]) -> Vec<Keypoint> {
    ids.iter()
        .map(|&(id, seed)| Keypoint {
            u: 0.0,
            v: 0.0,
            score: 1.0,
            descriptor: descriptor(id, seed),
            local: Point2::default(),
        })
        .collect()
}

/// The matcher's pairs equal the reference's for every ratio, and each
/// lane-parallel similarity has `descriptor_similarity`'s bits.
fn check_matcher(a: &[Keypoint], b: &[Keypoint]) -> Result<(), TestCaseError> {
    for ratio in ratios() {
        prop_assert_eq!(
            match_keypoints(a, b, ratio),
            reference::match_keypoints(a, b, ratio),
            "|a| = {}, |b| = {}, ratio {}",
            a.len(),
            b.len(),
            ratio
        );
    }
    let candidates = Candidates::new(b);
    let mut row = Vec::new();
    for x in a {
        candidates.similarities(&x.descriptor, &mut row);
        let want: Vec<u32> = b
            .iter()
            .map(|y| descriptor_similarity(&x.descriptor, &y.descriptor).to_bits())
            .collect();
        let got: Vec<u32> = row.iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
    Ok(())
}

proptest! {
    #![proptest_config(prop_cases(64))]

    #[test]
    fn matcher_equals_the_reference(
        a in prop::collection::vec((0u8..18, any::<u64>()), 0..40),
        b in prop::collection::vec((0u8..18, any::<u64>()), 0..40),
    ) {
        check_matcher(&keypoints(&a), &keypoints(&b))?;
    }
}

/// `n` keypoints, half of them from the tie pool.
fn side(n: usize, salt: u64) -> Vec<Keypoint> {
    let ids: Vec<(u8, u64)> =
        (0..n).map(|i| ((i % 2 * 13 + i % 13) as u8, salt + i as u64)).collect();
    keypoints(&ids)
}

/// An empty side matches nothing and leaves an empty similarity row,
/// whatever the row held before: with no `b` keypoint there is no lane
/// block to fill.
#[test]
fn matcher_handles_an_empty_side() {
    for n in [0, 1, 8, 9] {
        let kps = side(n, 7);
        assert_eq!(match_keypoints(&kps, &[], 0.9), Vec::new());
        assert_eq!(match_keypoints(&[], &kps, 0.9), Vec::new());
        check_matcher(&kps, &[]).unwrap();
        check_matcher(&[], &kps).unwrap();
    }
    let mut row = vec![1.0; 5];
    Candidates::new(&[]).similarities(&descriptor(0, 0), &mut row);
    assert!(row.is_empty(), "{row:?}");
}

/// Both sides at 1, one lane short of, at and past a lane block, and at
/// the extractor's 200-keypoint cap.
#[test]
fn matcher_equals_the_reference_at_block_edges() {
    for na in [1, 7, 8, 9, 200] {
        for nb in [1, 7, 8, 9, 200] {
            check_matcher(&side(na, 0), &side(nb, 1 << 32)).unwrap();
        }
    }
}

/// Sides made of one repeated descriptor: every similarity in a row ties,
/// so the first index wins and the ratio test sees `second == best`.
#[test]
fn matcher_breaks_ties_like_the_reference() {
    for id in [0, 8, 9, 11, 12] {
        for (na, nb) in [(1, 2), (2, 1), (3, 3), (9, 8), (17, 17)] {
            let a = keypoints(&vec![(id, 0); na]);
            let b = keypoints(&vec![(id, 1); nb]);
            check_matcher(&a, &b).unwrap();
        }
    }
}

/// The ratio test's edges, with the pairs spelled out rather than read
/// off the reference: a tie is rejected at ratio 1.0 and accepted just
/// above it, a runner-up at or below 0.0 never blocks a match, and no
/// ratio rescues a best similarity of 0.6 or less.
#[test]
fn matcher_decides_ratio_edges() {
    let just_above_one = f32::from_bits(1.0f32.to_bits() + 1);
    let tie = (keypoints(&[(0, 0)]), keypoints(&[(0, 0), (0, 0)]));
    assert_eq!(match_keypoints(&tie.0, &tie.1, 1.0), Vec::new());
    assert_eq!(match_keypoints(&tie.0, &tie.1, just_above_one), vec![(0, 0)]);

    // The negated descriptor scores −1 against its original, so at any
    // ratio, even 0.0 and NaN, the original is matched alone.
    let opposed = (keypoints(&[(0, 0)]), keypoints(&[(10, 0), (0, 0)]));
    for ratio in [0.0, 0.5, 1.0, f32::NAN] {
        assert_eq!(match_keypoints(&opposed.0, &opposed.1, ratio), vec![(0, 1)], "ratio {ratio}");
    }

    // A zero descriptor scores ±0.0 against everything: never a match.
    let zeros = (keypoints(&[(8, 0), (9, 0)]), keypoints(&[(8, 0), (9, 0), (0, 0)]));
    for ratio in [0.0, 1.0, 2.0] {
        assert_eq!(match_keypoints(&zeros.0, &zeros.1, ratio), Vec::new(), "ratio {ratio}");
    }
}

fn arena_frames(seed: u64) -> Vec<Frame> {
    let world = World::paper_arena(seed);
    let camera = Camera::new(CameraConfig::default(), seed ^ 0x9e37);
    let mut frames = Vec::new();
    for (k, trajectory) in [Trajectory::agent0(), Trajectory::agent1()].iter().enumerate() {
        for i in 0..40u32 {
            let t = f64::from(i) * 0.35;
            frames.push(camera.capture(&world, trajectory.pose_at(t), i + 100 * k as u32, t));
        }
    }
    frames
}

fn keypoint_bits(kps: &[Keypoint]) -> Vec<Vec<u64>> {
    kps.iter()
        .map(|k| {
            let mut bits = vec![k.u.to_bits(), k.v.to_bits(), u64::from(k.score.to_bits())];
            bits.extend([k.local.x.to_bits(), k.local.y.to_bits()]);
            bits.extend(k.descriptor.iter().map(|d| u64::from(d.to_bits())));
            bits
        })
        .collect()
}

/// Extraction and matching on real frames: consecutive views of the arena
/// along both agents' paths. Extraction also under a top-k cut and under a
/// threshold equal to a candidate's own score.
#[test]
fn extract_and_match_equal_the_reference_on_arena_frames() {
    let config = FeatureConfig::default();
    let mut kps = Vec::new();
    for f in &arena_frames(2020) {
        let full = FeatureExtractor::new(config).extract(f);
        let middle = full.get(full.len() / 2).map_or(config.score_threshold, |k| k.score);
        for cut in [
            config,
            FeatureConfig { max_keypoints: 5, ..config },
            FeatureConfig { score_threshold: middle, ..config },
        ] {
            assert_eq!(
                keypoint_bits(&FeatureExtractor::new(cut).extract(f)),
                keypoint_bits(&reference::extract(&cut, f)),
                "frame {}, {cut:?}",
                f.index
            );
        }
        kps.push(full);
    }
    assert!(kps.iter().any(|k| k.len() > 9), "no frame fills more than one lane block");
    for pair in kps.windows(2) {
        check_matcher(&pair[0], &pair[1]).unwrap();
    }
}

/// GeM over non-zero responses equals the dense loop, for the paper's
/// p = 3 and for exponents where a zero response does not pool to +0.0.
#[test]
fn encode_equals_the_dense_loop_on_arena_frames() {
    let pose = Pose2::new(1.0, -2.0, 0.3);
    let mut frames = arena_frames(2021);
    frames.push(Frame { index: 999, time_s: 0.0, truth_pose: pose, observations: Vec::new() });
    for p in [3.0, 1.0, 0.5, 0.0, -1.0, f32::NAN] {
        let pr = PlaceRecognizer::new(p);
        for f in &frames {
            let got = pr.encode(f, pose);
            let want = reference::encode(p, f, pose);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.vector), bits(&want.vector), "p {p}, frame {}", f.index);
            assert_eq!((got.frame, got.time_s, got.pose_estimate), (want.frame, want.time_s, pose));
        }
    }
}

fn observation_bits(f: &Frame) -> Vec<(u32, u64, [u64; 4])> {
    f.observations
        .iter()
        .map(|o| (o.landmark, o.appearance, [o.u, o.v, o.range, o.bearing].map(f64::to_bits)))
        .collect()
}

/// One rotation per frame, and no `atan2` for a landmark clearly outside
/// the field of view, see what one `transform_inv` and one `atan2` per
/// landmark saw: at the paper's 80° and at fields of view from none to
/// past 180°.
#[test]
fn capture_equals_per_landmark_transform_inv() {
    let fovs = [CameraConfig::default().fov, 0.0, 0.5, 3.0, std::f64::consts::PI, 4.0, -1.0];
    for (seed, fov) in [1, 2020, 2021].into_iter().flat_map(|s| fovs.map(|f| (s, f))) {
        let config = CameraConfig { fov, ..CameraConfig::default() };
        let world = World::paper_arena(seed);
        let camera = Camera::new(config, seed ^ 0x5a5a);
        let mut poses = Vec::new();
        for trajectory in [Trajectory::agent0(), Trajectory::agent1()] {
            poses.extend((0..60).map(|i| trajectory.pose_at(f64::from(i) * 0.5)));
        }
        poses.extend((0..64).map(|k| {
            let a = f64::from(k) * 0.1;
            Pose2::new(9.0 * a.sin(), 5.0 * (1.3 * a).cos(), 7.0 * a - 3.0)
        }));
        for (i, pose) in poses.into_iter().enumerate() {
            let index = i as u32;
            let got = camera.capture(&world, pose, index, 0.05 * f64::from(index));
            let want = reference::capture(
                &config,
                seed ^ 0x5a5a,
                &world,
                pose,
                index,
                0.05 * f64::from(index),
            );
            assert_eq!(
                observation_bits(&got),
                observation_bits(&want),
                "seed {seed}, fov {fov}, pose {pose:?}"
            );
            assert_eq!((got.index, got.time_s, got.truth_pose), (want.index, want.time_s, pose));
        }
    }
}

/// Landmarks on the edge of the field of view, within a few ulps of the
/// half-angle on either side: the exact `atan2` test decides each.
#[test]
fn capture_decides_the_field_of_view_edge_exactly() {
    let config = CameraConfig::default();
    let world = World::paper_arena(2020);
    let camera = Camera::new(config, 3);
    let (mut seen, mut unseen) = (0, 0);
    for lm in world.landmarks.iter().step_by(7) {
        // Stand 4 m from the landmark, towards the arena centre.
        let inward = Point2::new(-lm.position.x, -lm.position.y);
        let scale = 4.0 / inward.x.hypot(inward.y).max(1e-9);
        let at = lm.position + Point2::new(inward.x * scale, inward.y * scale);
        let toward = (lm.position.y - at.y).atan2(lm.position.x - at.x);
        for side in [-1.0, 1.0] {
            let edge = toward + side * (config.fov / 2.0);
            for k in -4..=4 {
                let pose = Pose2 { t: at, theta: edge + f64::from(k) * edge.abs() * f64::EPSILON };
                let got = camera.capture(&world, pose, 0, 0.0);
                let want = reference::capture(&config, 3, &world, pose, 0, 0.0);
                assert_eq!(observation_bits(&got), observation_bits(&want), "pose {pose:?}");
                if want.observations.iter().any(|o| o.landmark == lm.id) {
                    seen += 1;
                } else {
                    unseen += 1;
                }
            }
        }
    }
    assert!(seen > 0 && unseen > 0, "{seen} edge poses see their landmark, {unseen} do not");
}
