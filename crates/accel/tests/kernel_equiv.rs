//! Property test: the staged, multi-threaded CALC kernels are
//! bit-identical to the golden model (`common/golden.rs`), the naive
//! per-pixel evaluator of a lowered layer.
//!
//! Random single-layer programs (Conv/DwConv/MaxPool/AvgPool with random
//! kernel/stride/pad, GeM global pools with `p` in {1, 2, 3}, quantisation
//! shift and ReLU, and random row/channel/input-channel tilings) are run
//! through `FuncBackend` stepped (Tier-0) and batched (Tier-1) at thread
//! counts {1, 2, 8}; every output byte must match the golden layer over
//! the case's image.
//!
//! Because the golden accumulates in exact `i64` while the kernels use
//! wrapping `i32`, equality here is also the "no silent overflow"
//! assertion of DESIGN.md §2: with int8 operands the per-instruction
//! partial sums provably fit an `i32`, and any regression of that bound
//! would show up as a mismatch.
//!
//! Convolutions run through the blocked GEMM, so the generator reaches its
//! edges: `K = c_in·k²` below one vector and across 8/16-lane boundaries,
//! odd output-channel counts (the 2-channel block's remainder), planes whose
//! pixel count is not a multiple of 4, strides 2 and 3, `k = 7`. Directed
//! cases add what random small shapes cannot: planes and channel counts
//! larger than one operand block, worker spawns, extreme operand values,
//! and pools requantised with a shift and ReLU over negative inputs.
//!
//! A deterministic companion test runs whole compiled networks (covering
//! GlobalPool, Add, FullyConnected, Concat lowering and the compiler's
//! real tilings) against the golden model layer by layer.

mod common;

use common::golden::{reference_layer, reference_run};
use inca_accel::{AccelConfig, Backend, DdrImage, FuncBackend};
use inca_compiler::Compiler;
use inca_isa::{
    DdrRange, Instr, LayerKind, LayerMeta, MemoryMap, Opcode, PoolKind, Program, Shape3, TaskSlot,
    Tile,
};
use inca_model::zoo;
use proptest::prelude::*;

/// splitmix64 — deterministic data/tiling stream from a proptest seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Splits `0..total` into contiguous random-length `(start, len)` chunks.
fn splits(total: u16, seed: u64) -> Vec<(u16, u16)> {
    let mut out = Vec::new();
    let mut start = 0u16;
    let mut i = 0u64;
    while start < total {
        let remaining = u64::from(total - start);
        let len = 1 + (mix(seed, i) % remaining) as u16;
        out.push((start, len));
        start += len;
        i += 1;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn build_case(
    kind_sel: u8,
    k: u8,
    s: u8,
    p: u8,
    h_in: u32,
    w_in: u32,
    c_in: u32,
    c_out: u32,
    quant_shift: u8,
    relu: bool,
    data_seed: u64,
    // `None`: one CALC per layer (whole-plane, whole-channel tile).
    tile_seed: Option<u64>,
) -> (Program, DdrImage) {
    let (kind, c_out) = match kind_sel {
        0 => (LayerKind::Conv { kernel: k, stride: s, pad: p }, c_out),
        1 => (LayerKind::DwConv { kernel: k, stride: s, pad: p }, c_in),
        2 => (LayerKind::Pool { kind: PoolKind::Max, kernel: k, stride: s, pad: p }, c_in),
        3 => (LayerKind::Pool { kind: PoolKind::Avg, kernel: k, stride: s, pad: p }, c_in),
        // GeM with p = 1, 2, 3; the window geometry is unused.
        4..=6 => (LayerKind::GlobalPool { p: kind_sel - 3 }, c_in),
        other => panic!("no layer kind {other}"),
    };
    // Ensure at least one output row/column exists.
    let min_dim = u32::from(k).saturating_sub(2 * u32::from(p)).max(1);
    let h_in = h_in.max(min_dim);
    let w_in = w_in.max(min_dim);
    let out_dim = |x: u32| match kind {
        LayerKind::GlobalPool { .. } => 1,
        _ => (x + 2 * u32::from(p) - u32::from(k)) / u32::from(s) + 1,
    };
    let (h_out, w_out) = (out_dim(h_in), out_dim(w_in));
    let k2 = u64::from(k) * u64::from(k);
    let weight_bytes = match kind {
        LayerKind::Conv { .. } => u64::from(c_out) * u64::from(c_in) * k2,
        LayerKind::DwConv { .. } => u64::from(c_in) * k2,
        _ => 0,
    };
    let in_shape = Shape3::new(c_in, h_in, w_in);
    let out_shape = Shape3::new(c_out, h_out, w_out);
    let input_bytes = in_shape.bytes();
    let weight_addr = input_bytes;
    let output_addr = weight_addr + weight_bytes;
    let total = output_addr + out_shape.bytes();

    let meta = LayerMeta {
        id: 0,
        name: format!("rand_{kind_sel}"),
        kind,
        in_shape,
        out_shape,
        input_addr: 0,
        input2_addr: None,
        output_addr,
        weight_addr,
        weight_bytes,
        quant_shift,
        relu,
    };
    assert!(meta.shapes_consistent(), "generator produced inconsistent shapes: {meta:?}");

    let mut image = DdrImage::new(total);
    for addr in 0..weight_addr + weight_bytes {
        image.write(addr, &[(mix(data_seed, addr) >> 33) as u8]);
    }

    let mut b = Program::builder("kernel_equiv");
    b.layers.push(meta);
    // Whole input and (if any) whole weights up front.
    b.push(Instr::transfer(
        Opcode::LoadD,
        0,
        0,
        Tile::rows_chans(0, h_in as u16, 0, c_in as u16),
        DdrRange::new(0, input_bytes as u32),
    ));
    if weight_bytes > 0 {
        b.push(Instr::transfer(
            Opcode::LoadW,
            0,
            0,
            Tile::new(0, 0, 0, c_out as u16, 0, c_in as u16),
            DdrRange::new(weight_addr, weight_bytes as u32),
        ));
    }
    // Random row × channel tiling; conv additionally splits input channels
    // into a CalcI…CalcF accumulation chain per blob.
    let tiling = |total: u32, stream: u64| match tile_seed {
        Some(seed) => splits(total as u16, mix(seed, stream)),
        None => vec![(0, total as u16)],
    };
    let mut blob = 0u32;
    for &(h0, rows) in &tiling(h_out, 1) {
        for &(c0, chans) in &tiling(c_out, 2) {
            if matches!(kind, LayerKind::Conv { .. }) {
                let ic_splits = tiling(c_in, 3 + u64::from(blob));
                let last = ic_splits.len() - 1;
                for (i, &(ic0, ics)) in ic_splits.iter().enumerate() {
                    let op = if i == last { Opcode::CalcF } else { Opcode::CalcI };
                    b.push(Instr::calc(op, 0, blob, Tile::new(h0, rows, c0, chans, ic0, ics)));
                }
            } else {
                b.push(Instr::calc(
                    Opcode::CalcF,
                    0,
                    blob,
                    Tile::new(h0, rows, c0, chans, 0, c_in as u16),
                ));
            }
            let sid = b.alloc_save_id();
            let addr = output_addr
                + u64::from(c0) * u64::from(h_out) * u64::from(w_out)
                + u64::from(h0) * u64::from(w_out);
            b.push(
                Instr::transfer(
                    Opcode::Save,
                    0,
                    blob,
                    Tile::rows_chans(h0, rows, c0, chans),
                    DdrRange::new(addr, u32::from(chans) * u32::from(rows) * w_out),
                )
                .with_save_id(sid),
            );
            blob += 1;
        }
    }
    b.memory = MemoryMap {
        weights_base: weight_addr,
        weights_bytes: weight_bytes,
        activations_base: 0,
        activations_bytes: total,
        ..MemoryMap::default()
    };
    (b.build().expect("generated program validates"), image)
}

/// Runs every instruction of a single-layer program directly through the
/// backend and returns the layer's output feature map.
fn run(mut backend: FuncBackend, program: &Program, image: &DdrImage) -> Vec<i8> {
    let slot = TaskSlot::new(3).unwrap();
    backend.install_image(slot, image.clone());
    backend.on_switch(slot);
    for instr in &program.instrs {
        backend
            .execute(slot, program, instr)
            .unwrap_or_else(|e| panic!("{:?} failed on:\n{}", e, program.listing()));
    }
    backend.image(slot).unwrap().read_output(&program.layers[0])
}

/// Runs the whole program through `FuncBackend::run_program` on Tier-1
/// and returns the layer's output feature map; the layer must have been
/// batched, not stepped.
fn run_tier1(threads: usize, program: &Program, image: &DdrImage) -> Vec<i8> {
    let slot = TaskSlot::new(3).unwrap();
    let mut backend = FuncBackend::with_threads(threads);
    backend.install_image(slot, image.clone());
    backend.run_program(slot, program).unwrap();
    assert_eq!(backend.metrics().counter("tier1.exec_layers"), 1, "layer was not batched");
    backend.image(slot).unwrap().read_output(&program.layers[0])
}

/// The golden layer over `image`: the single layer's expected output.
fn golden(program: &Program, image: &DdrImage) -> Vec<i8> {
    reference_layer(&program.layers[0], image)
}

/// The golden layer vs the kernels stepped (Tier-0) and batched (Tier-1),
/// each at thread counts 1, 2 and 8.
fn assert_all_paths_match(what: &str, program: &Program, image: &DdrImage) {
    let want = golden(program, image);
    for threads in [1usize, 2, 8] {
        let tier0 = FuncBackend::with_threads(threads);
        assert_eq!(run(tier0, program, image), want, "{what}: tier-0, threads={threads}");
        assert_eq!(run_tier1(threads, program, image), want, "{what}: tier-1, threads={threads}");
    }
}

/// Convolution shapes the random generator cannot reach: the im2col block
/// holds `2¹⁷ / K` pixels and the weight block as many output channels, and
/// a block spawns workers from 2¹⁸ MACs.
#[test]
fn gemm_blocks_and_remainders_match_reference() {
    // (k, s, p, h_in, w_in, c_in, c_out)
    let shapes: [(u8, u8, u8, u32, u32, u32, u32); 6] = [
        // K = 1960: 64-pixel blocks over a 9×11 plane (64 + 35, remainder
        // 3) and 66-channel weight blocks under 67 channels (66 + an odd 1).
        (7, 1, 3, 9, 11, 40, 67),
        // The same K strided: 5×6 plane from a 14×17 input.
        (7, 3, 3, 14, 17, 40, 9),
        // K = 333 (16-lane remainder 13), 19×21 plane = 399 pixels.
        (3, 1, 1, 19, 21, 37, 33),
        // Pointwise, K = 24, one 29×31 plane (899 pixels, remainder 3).
        (1, 1, 0, 29, 31, 24, 41),
        // K below one vector, stride 2.
        (2, 2, 0, 31, 33, 1, 7),
        // A single output pixel and a single output channel.
        (5, 1, 0, 5, 5, 13, 1),
    ];
    for (i, (k, s, p, h_in, w_in, c_in, c_out)) in shapes.into_iter().enumerate() {
        let what = format!("shape {i}");
        let seed = 0xB10C_0000 + i as u64;
        // Whole-layer tiles (one CALC covers every block) and a random
        // row × channel × input-channel tiling.
        for tile_seed in [None, Some(seed)] {
            let (program, image) =
                build_case(0, k, s, p, h_in, w_in, c_in, c_out, 9, i % 2 == 0, seed, tile_seed);
            assert_all_paths_match(&what, &program, &image);
        }
    }
}

/// Extreme operands at ResNet-18's largest reduction (`K = 512·3² = 4608`).
/// `(−128)²` needs 15 bits and a pair of them 16, so this pins that
/// products and pair sums are formed in `i32`, never `i16`; the shifts put
/// the exact sums inside the int8 range, where one wrapped pair (2¹⁶) shows.
#[test]
fn extreme_operands_accumulate_exactly() {
    let (c_in, c_out, k, hw) = (512u32, 3u32, 3u8, 3u32);
    let input_bytes = (c_in * hw * hw) as usize;
    let weight_bytes = (c_out * c_in) as usize * usize::from(k) * usize::from(k);
    let fill = |quant_shift: u8, input: &dyn Fn(usize) -> i8, weight: &dyn Fn(usize) -> i8| {
        let (program, mut image) =
            build_case(0, k, 1, 1, hw, hw, c_in, c_out, quant_shift, false, 0, None);
        let bytes: Vec<u8> = (0..input_bytes)
            .map(input)
            .chain((0..weight_bytes).map(weight))
            .map(|v| v as u8)
            .collect();
        image.write(0, &bytes);
        (program, image)
    };

    // Everything −128: the centre pixel sums 4608 · 2¹⁴ = 75 497 472.
    let (program, image) = fill(20, &|_| -128, &|_| -128);
    let out = golden(&program, &image);
    assert_eq!(i32::from(out[4]), (4608 << 14) >> 20, "golden centre pixel");
    assert_all_paths_match("all -128", &program, &image);

    // Inputs −128 against weights alternating −128 / +127: each pair sums
    // 2¹⁴ − 16 256 = 128, the centre pixel 2304 · 128 = 294 912.
    let (program, image) = fill(12, &|_| -128, &|i| if i % 2 == 0 { -128 } else { 127 });
    let out = golden(&program, &image);
    assert_eq!(i32::from(out[4]), (2304 * 128) >> 12, "golden centre pixel");
    assert_all_paths_match("-128 x -128/+127", &program, &image);

    // Mixed signs on both sides: ±127 / −128 inputs against the same weights.
    let (program, image) =
        fill(10, &|i| [127, -128, -127][i % 3], &|i| if i % 2 == 0 { -128 } else { 127 });
    assert_all_paths_match("mixed +-127/-128", &program, &image);
}

/// Pools are requantised like every other kind: CalcF's `>> quant_shift`,
/// ReLU and int8 clamp apply to Max, Avg and GeM pools too. Two
/// all-negative channels and three mixed-sign ones, shift 2 and ReLU:
/// every output must land in `0..=31` and the negative channels must pool
/// to 0 — a golden that skipped the pools' requantisation would keep
/// negative and unshifted values.
#[test]
fn pools_requantise_with_shift_and_relu() {
    let (c_in, h_in, w_in) = (5u32, 9u32, 11u32);
    let plane = (h_in * w_in) as usize;
    let input: Vec<u8> = (0..c_in as usize * plane)
        .map(|i| {
            let (c, px) = (i / plane, i % plane);
            let v = if c < 2 { -1 - (px * 7 % 128) as i32 } else { (c * 131 + px * 37) as i32 };
            v as u8
        })
        .collect();
    let pools =
        [(2u8, "max pool"), (3, "avg pool"), (4, "GeM p=1"), (5, "GeM p=2"), (6, "GeM p=3")];
    // A random row × channel tiling, then one whole-plane tile.
    for ((kind_sel, what), tile_seed) in
        pools.into_iter().flat_map(|k| [(k, Some(0x9001)), (k, None)])
    {
        let (program, mut image) =
            build_case(kind_sel, 3, 2, 1, h_in, w_in, c_in, 1, 2, true, 0, tile_seed);
        image.write(0, &input);
        let want = golden(&program, &image);
        assert!(want.iter().all(|v| (0..=31).contains(v)), "{what}: golden {want:?}");
        let out_plane = want.len() / c_in as usize;
        assert!(want[..2 * out_plane].iter().all(|&v| v == 0), "{what}: ReLU over negatives");
        assert!(want.iter().any(|&v| v > 0), "{what}: the mixed channels pool above 0");
        assert_all_paths_match(what, &program, &image);
    }
}

proptest! {
    // 32 expected draws for each of the seven kinds.
    #![proptest_config(ProptestConfig::with_cases(224))]
    #[test]
    fn fast_kernel_matches_reference_oracle(
        kind_sel in 0u8..7,
        k in prop::sample::select(vec![1u8, 2, 3, 5, 7]),
        s in 1u8..=3,
        p in 0u8..=3,
        h_in in 1u32..=14,
        w_in in 1u32..=14,
        c_in in 1u32..=40,
        c_out in 1u32..=9,
        quant_shift in 0u8..=6,
        relu in any::<bool>(),
        data_seed in any::<u64>(),
        tile_seed in any::<u64>(),
    ) {
        let (program, image) = build_case(
            kind_sel, k, s, p, h_in, w_in, c_in, c_out, quant_shift, relu, data_seed,
            Some(tile_seed),
        );
        let want = golden(&program, &image);
        for threads in [1usize, 2, 8] {
            let tier0 = run(FuncBackend::with_threads(threads), &program, &image);
            let tier1 = run_tier1(threads, &program, &image);
            for (tier, got) in [(0, &tier0), (1, &tier1)] {
                prop_assert_eq!(
                    got,
                    &want,
                    "tier-{} (threads={}) diverged from the golden on kind_sel={} k={} s={} p={}",
                    tier, threads, kind_sel, k, s, p
                );
            }
        }
    }
}

/// A small residual network exercising the layer kinds the proptest
/// leaves out: Add (shortcut join), global pooling and FullyConnected.
fn tiny_residual() -> inca_model::Network {
    let mut b = inca_model::NetworkBuilder::new("tiny_residual", Shape3::new(3, 24, 24));
    let x = b.input_id();
    let stem = b.conv("stem", x, 8, 3, 2, 1, true).unwrap();
    let c1 = b.conv("c1", stem, 8, 3, 1, 1, true).unwrap();
    let join = b.add("join", stem, c1, true).unwrap();
    let g = b.gem_pool("gap", join, 1).unwrap();
    let fc = b.fully_connected("fc", g, 10, false).unwrap();
    b.finish(vec![fc]).unwrap()
}

/// Whole compiled networks — covering GlobalPool, Add, FullyConnected,
/// Concat lowering and the compiler's real tilings — match the golden model
/// layer by layer at thread counts 1, 2 and the default (available
/// parallelism).
#[test]
fn full_networks_match_golden_at_all_thread_counts() {
    let compiler = Compiler::new(AccelConfig::paper_small().arch);
    let nets = [
        zoo::tiny(Shape3::new(3, 32, 32)).unwrap(),
        zoo::mobilenet_v1(Shape3::new(3, 32, 32)).unwrap(),
        tiny_residual(),
    ];
    for net in nets {
        let program = compiler.compile_vi(&net).unwrap();
        let mut image = DdrImage::for_program(&program, 0x5EED_0001);
        let first = &program.layers[0];
        let input: Vec<u8> =
            (0..first.in_shape.bytes()).map(|i| ((i * 7 + 3) % 15) as u8).collect();
        image.write(first.input_addr, &input);
        let outputs = |img: &DdrImage| -> Vec<Vec<i8>> {
            program.layers.iter().map(|m| img.read_output(m)).collect()
        };
        let mut golden_img = image.clone();
        reference_run(&program, &mut golden_img);
        let want = outputs(&golden_img);
        for mut backend in
            [FuncBackend::with_threads(1), FuncBackend::with_threads(2), FuncBackend::new()]
        {
            let threads = backend.threads();
            let slot = TaskSlot::new(3).unwrap();
            backend.install_image(slot, image.clone());
            backend.on_switch(slot);
            for instr in &program.instrs {
                if !instr.op.is_virtual() {
                    backend.execute(slot, &program, instr).unwrap();
                }
            }
            let got = outputs(backend.image(slot).unwrap());
            for (l, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    a, b,
                    "{}: layer {l} `{}` differs from the golden (threads={threads})",
                    net.name, program.layers[l].name
                );
            }
        }
    }
}
