//! Property-based tests over the core invariants (DESIGN.md §6), using
//! randomly generated networks, instruction fields and interrupt
//! schedules.

use proptest::prelude::*;

use inca::accel::{
    AccelConfig, CoreId, CorePool, DdrImage, Engine, FuncBackend, InterruptStrategy, SimError,
    TimingBackend,
};
use inca::compiler::{CompileOptions, Compiler, LoopOrder};
use inca::isa::{DdrRange, Instr, Opcode, Program, TaskSlot, Tile};
use inca::model::{zoo, Network, NetworkBuilder, Shape3};

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    prop::sample::select(Opcode::ALL.to_vec())
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    (
        arb_opcode(),
        any::<u16>(),
        any::<u32>(),
        any::<(u16, u16, u16, u16, u16, u16)>(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(op, layer, blob, t, addr, bytes, save_id)| Instr {
            op,
            layer,
            blob,
            tile: Tile::new(t.0, t.1, t.2, t.3, t.4, t.5),
            ddr: DdrRange::new(addr, bytes),
            save_id,
        })
}

/// A small random network: input shape + a handful of layers drawn from
/// the supported ops, with shapes kept legal by construction.
fn arb_network() -> impl Strategy<Value = Network> {
    let dims = (1u32..=8, 4u32..=5, 4u32..=5); // channels, log2ish h, w
    (dims, prop::collection::vec(0u8..5, 1..5), any::<bool>()).prop_map(
        |((c, hpow, wpow), ops, residual)| {
            let shape = Shape3::new(c, 1 << hpow, 1 << wpow);
            let mut b = NetworkBuilder::new("prop", shape);
            let mut x = b.input_id();
            let mut idx = 0;
            for op in ops {
                idx += 1;
                let name = format!("l{idx}");
                x = match op {
                    0 => b.conv(&name, x, 8, 3, 1, 1, true).unwrap(),
                    1 => b.conv(&name, x, 12, 1, 1, 0, false).unwrap(),
                    2 => b.dw_conv(&name, x, 3, 1, 1, true).unwrap(),
                    3 => b.max_pool(&name, x, 2, 2, 0).unwrap(),
                    _ => b.avg_pool(&name, x, 2, 2, 0).unwrap(),
                };
            }
            if residual {
                let y = b.conv("res_a", x, 8, 3, 1, 1, false).unwrap();
                let z = b.conv("res_b", y, 8, 3, 1, 1, false).unwrap();
                let y2 = b.conv("res_c", x, 8, 1, 1, 0, false).unwrap();
                x = b.add("res_add", y2, z, true).unwrap();
            }
            b.finish(vec![x]).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn instr_encoding_round_trips(instr in arb_instr()) {
        let bytes = instr.encode();
        let back = Instr::decode(&bytes).unwrap();
        prop_assert_eq!(back, instr);
    }

    #[test]
    fn compiled_programs_validate_and_cover_outputs(net in arb_network()) {
        let cfg = AccelConfig::paper_small();
        let compiler = Compiler::new(cfg.arch);
        let p = compiler.compile(&net).unwrap();
        p.validate().unwrap();
        // Every layer's output region is saved exactly once.
        for meta in &p.layers {
            let saved: u64 = p
                .instrs
                .iter()
                .filter(|i| i.op == Opcode::Save && i.layer == meta.id)
                .map(|i| u64::from(i.ddr.bytes))
                .sum();
            prop_assert_eq!(saved, meta.out_shape.bytes());
        }
        // Every CalcBlob has exactly one CALC_F.
        for br in &p.blobs {
            let n = p.instrs[br.start as usize..br.end as usize]
                .iter()
                .filter(|i| i.op == Opcode::CalcF)
                .count();
            prop_assert_eq!(n, 1);
        }
    }

    #[test]
    fn vi_erasure_holds(net in arb_network()) {
        let cfg = AccelConfig::paper_small();
        let compiler = Compiler::new(cfg.arch);
        let original = compiler.compile(&net).unwrap();
        let vi = compiler.compile_vi(&net).unwrap();
        let stripped: Vec<Instr> = vi.original_instrs().map(|(_, i)| *i).collect();
        prop_assert_eq!(stripped, original.instrs);
        // Points sit only after CALC_F or SAVE.
        for point in &vi.interrupt_points {
            let before = vi.instrs[point.vir_start as usize - 1].op;
            prop_assert!(matches!(before, Opcode::CalcF | Opcode::Save));
        }
    }

    #[test]
    fn interrupt_transparency_random_schedule(
        net in arb_network(),
        frac in 1u64..99,
        strategy_idx in 0usize..3,
        loop_order_idx in 0usize..2,
    ) {
        let cfg = AccelConfig::paper_small();
        let loop_order = [LoopOrder::HeightOuter, LoopOrder::ChannelOuter][loop_order_idx];
        let compiler = Compiler::with_options(
            cfg.arch,
            CompileOptions::default().with_loop_order(loop_order),
        );
        let strategy = [
            InterruptStrategy::VirtualInstruction,
            InterruptStrategy::LayerByLayer,
            InterruptStrategy::CpuLike,
        ][strategy_idx];
        let lo_prog = if matches!(strategy, InterruptStrategy::VirtualInstruction) {
            compiler.compile_vi(&net).unwrap()
        } else {
            compiler.compile(&net).unwrap()
        };
        let hi_prog = compiler
            .compile_vi(&inca::model::zoo::tiny(Shape3::new(3, 16, 16)).unwrap())
            .unwrap();
        let lo = TaskSlot::new(3).unwrap();
        let hi = TaskSlot::new(1).unwrap();

        // Uninterrupted reference.
        let expected = {
            let mut backend = FuncBackend::new();
            backend.install_image(lo, DdrImage::for_program(&lo_prog, 5));
            let mut e = Engine::new(cfg, strategy, backend);
            e.load(lo, lo_prog.clone()).unwrap();
            e.request_at(0, lo).unwrap();
            e.run().unwrap();
            let img = e.backend().image(lo).unwrap();
            lo_prog.layers.iter().map(|m| img.read_output(m)).collect::<Vec<_>>()
        };

        // Makespan to position the request.
        let span = {
            let mut e = Engine::new(cfg, strategy, TimingBackend::new());
            e.load(lo, lo_prog.clone()).unwrap();
            e.request_at(0, lo).unwrap();
            e.run().unwrap().completed_jobs[0].finish
        };

        let mut backend = FuncBackend::new();
        backend.install_image(lo, DdrImage::for_program(&lo_prog, 5));
        backend.install_image(hi, DdrImage::for_program(&hi_prog, 6));
        let mut e = Engine::new(cfg, strategy, backend);
        e.load(lo, lo_prog.clone()).unwrap();
        e.load(hi, hi_prog).unwrap();
        e.request_at(0, lo).unwrap();
        e.request_at(span * frac / 100, hi).unwrap();
        e.run().unwrap();
        let img = e.backend().image(lo).unwrap();
        for (meta, exp) in lo_prog.layers.iter().zip(&expected) {
            prop_assert_eq!(&img.read_output(meta), exp, "layer `{}`", meta.name);
        }
    }

    #[test]
    fn timing_is_deterministic(net in arb_network(), at in 0u64..100_000) {
        let cfg = AccelConfig::paper_small();
        let p = Compiler::new(cfg.arch).compile_vi(&net).unwrap();
        let run = || {
            let lo = TaskSlot::new(3).unwrap();
            let mut e = Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
            e.load(lo, p.clone()).unwrap();
            e.request_at(at, lo).unwrap();
            e.run().unwrap().final_cycle
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A caller's core id past the pool is an engine error from `load`
    /// and `request_at`, never a panic, and arms nothing: only a job on a
    /// real core completes.
    #[test]
    fn core_ids_past_the_pool_are_errors_not_panics(cores in 1usize..=4, core in 0usize..8) {
        let cfg = AccelConfig::paper_small();
        let tiny = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
        let program = Compiler::new(cfg.arch).compile_vi(&tiny).unwrap();
        let mut pool =
            CorePool::new(cores, cfg, InterruptStrategy::NonPreemptive, TimingBackend::new);
        let slot = TaskSlot::LOWEST;
        let load = pool.load(CoreId(core), slot, program);
        let request = pool.request_at(0, CoreId(core), slot);
        if core < cores {
            prop_assert!(load.is_ok() && request.is_ok(), "{:?} {:?}", load, request);
        } else {
            prop_assert!(matches!(load, Err(SimError::Engine(_))), "{:?}", load);
            prop_assert!(matches!(request, Err(SimError::Engine(_))), "{:?}", request);
        }
        let done: usize = pool.run().unwrap().iter().map(|r| r.completed_jobs.len()).sum();
        prop_assert_eq!(done, usize::from(core < cores));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tile_ranges_are_consistent(t in any::<(u16, u16, u16, u16, u16, u16)>()) {
        let tile = Tile::new(t.0, t.1, t.2, t.3, t.4, t.5);
        prop_assert_eq!(tile.row_range().len(), usize::from(t.1));
        prop_assert_eq!(tile.chan_range().len(), usize::from(t.3));
        prop_assert_eq!(tile.ic_range().len(), usize::from(t.5));
    }

    #[test]
    fn program_stream_encoding_round_trips(instrs in prop::collection::vec(arb_instr(), 0..64)) {
        let b = Program::builder("p");
        // Bypass validation: use raw encode/decode of the stream.
        for i in &instrs {
            let _ = b; // builder unused for raw stream
            let _ = i;
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&inca::isa::encode::MAGIC);
        bytes.extend_from_slice(&inca::isa::encode::VERSION.to_le_bytes());
        bytes.extend_from_slice(&40u16.to_le_bytes());
        bytes.extend_from_slice(&(instrs.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        for i in &instrs {
            bytes.extend_from_slice(&i.encode());
        }
        let decoded = inca::isa::encode::decode_stream(&bytes).unwrap();
        prop_assert_eq!(decoded, instrs);
    }
}

/// FNV-1a over the encoded VI stream followed by every interrupt point.
fn vi_stream_digest(p: &Program) -> u64 {
    let points =
        p.interrupt_points.iter().flat_map(|ip| [ip.vir_start, ip.vir_end, u32::from(ip.layer)]);
    inca::isa::encode::encode_program(p)
        .into_iter()
        .chain(points.flat_map(u32::to_le_bytes))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Root `cargo test -q` does not run `crates/compiler`'s unit tests (where
/// the VI pass is held equal to its quadratic reference), so these digests,
/// recorded at 87f6bd1 before load liveness was indexed, are the Tier-1
/// witness that the emitted VI streams did not move.
#[test]
fn vi_streams_are_pinned() {
    use inca::model::zoo;
    let compiler = Compiler::new(inca::isa::ArchSpec::angel_eye_big());
    for (net, instrs, points, digest) in [
        (zoo::tiny(Shape3::new(3, 32, 32)).unwrap(), 46, 12, 0x26a3_0283_d525_8187u64),
        (zoo::mobilenet_v1(Shape3::new(3, 96, 96)).unwrap(), 55_361, 963, 0x89b1_f746_1994_7717),
        (zoo::superpoint(Shape3::new(1, 120, 160)).unwrap(), 8_450, 450, 0x34f7_4849_b8a3_4c68),
        (
            zoo::gem_resnet101(Shape3::new(3, 120, 160)).unwrap(),
            368_204,
            6_416,
            0xfca2_011e_3e57_ea03,
        ),
    ] {
        let p = compiler.compile_vi(&net).unwrap();
        assert_eq!(
            (p.len(), p.interrupt_points.len(), vi_stream_digest(&p)),
            (instrs, points, digest),
            "{}",
            net.name
        );
    }
}
