//! Closed-form worst-case latency analysis (paper §IV-C).
//!
//! For an interrupt request arriving at the start of a convolution layer:
//!
//! * layer-by-layer must finish the layer:
//!   `t1_layer = Ch_in·Ch_out·H / (Para_in·Para_out·Para_height) · t_instr(W)`
//! * the VI method must only finish the current CalcBlob:
//!   `t1_VI = Ch_in / Para_in · t_instr(W)`
//! * the ratio (Eq. 1): `R_l = (Para_out·Para_height) / (Ch_out·H)`.
//!
//! The module evaluates the pure ratio and its two terms through the
//! calibrated cost model. The VI term is the paper's per-CalcBlob cost,
//! not a bound on a measured `t1`: a compiled layer can run many CalcBlobs
//! between two interrupt points. A measured VI `t1` is [`charges`], the
//! engine's own price of every instruction, summed up to the next
//! interrupt point.

use inca_isa::{Instr, InterruptPoint, LayerMeta, Opcode, Parallelism, Program, Tile};

use crate::engine::CycleTable;
use crate::{instr_cycles, AccelConfig, InterruptStrategy};

/// Eq. 1 of the paper: worst-case VI latency as a fraction of
/// layer-by-layer latency for a convolution layer.
#[must_use]
pub fn latency_reduction_ratio(p: Parallelism, ch_out: u32, h_out: u32) -> f64 {
    f64::from(u32::from(p.output) * u32::from(p.height)) / (f64::from(ch_out) * f64::from(h_out))
}

/// Cycle cost of a single `CALC` of this layer under `cfg` (the paper's
/// `t_instr(W)`).
#[must_use]
pub fn t_instr(cfg: &AccelConfig, meta: &LayerMeta) -> u64 {
    let p = cfg.arch.parallelism;
    let rows = u32::from(p.height).min(meta.out_shape.h) as u16;
    let calc = Instr::calc(
        Opcode::CalcF,
        meta.id,
        0,
        Tile::new(0, rows, 0, p.output.min(meta.out_shape.c as u16), 0, p.input),
    );
    instr_cycles(cfg, meta, &calc)
}

/// Worst-case wait (cycles) for the layer-by-layer method: the whole layer.
#[must_use]
pub fn t1_layer_worst(cfg: &AccelConfig, meta: &LayerMeta) -> u64 {
    let p = cfg.arch.parallelism;
    let calcs = u64::from(meta.in_shape.c.div_ceil(u32::from(p.input)))
        * u64::from(meta.out_shape.c.div_ceil(u32::from(p.output)))
        * u64::from(meta.out_shape.h.div_ceil(u32::from(p.height)));
    calcs * t_instr(cfg, meta)
}

/// Eq. 1's VI term (cycles): one CalcBlob, `Ch_in / Para_in` CALCs.
///
/// This is the paper's per-CalcBlob cost, not a bound on a measured `t1`:
/// the uninterruptible run a request waits out can span many CalcBlobs.
/// GeM/ResNet101 at 480×640 under `paper_big` has a 62 464-cycle run in
/// `res5b0_proj`, where this gives 2 176. A measured `t1` is the sum of
/// [`charges`] from the request's pc to the next interrupt point.
#[must_use]
pub fn t1_vi_worst(cfg: &AccelConfig, meta: &LayerMeta) -> u64 {
    let p = cfg.arch.parallelism;
    u64::from(meta.in_shape.c.div_ceil(u32::from(p.input))) * t_instr(cfg, meta)
}

/// The analytical execution-span model the scheduler's admission control
/// runs on: the engine's own per-instruction cost summed over every
/// **original** (non-virtual) instruction. Virtual instructions are free
/// unless an interrupt materialises them, so this is the uncontended
/// makespan of the program body; measured `busy_cycles` of an uncontended
/// job matches it exactly. It is the total of the engine's own cycle
/// table, memoised on the program: a program is priced once per process,
/// not once per caller.
#[must_use]
pub fn predicted_span(cfg: &AccelConfig, program: &Program) -> u64 {
    CycleTable::of(cfg, program).total()
}

/// Each instruction of `program` with the cycles every run charges it
/// under `cfg` (0 for a virtual instruction; a preempted run adds the
/// interrupt's backup and restore on top), in program order: the terms of
/// [`predicted_span`], read off the same memoised cycle table.
pub fn charges<'p>(
    cfg: &AccelConfig,
    program: &'p Program,
) -> impl Iterator<Item = (&'p Instr, u64)> {
    let table = CycleTable::of(cfg, program);
    program.instrs.iter().enumerate().map(move |(pc, i)| (i, table.at(pc)))
}

/// The backup cost `t2` charged for taking the interrupt point starting
/// at `vir_start` under the VI method: the summed DMA cost of the point's
/// materialised `VIR_SAVE`s. `None` when no point starts there.
#[must_use]
pub fn vi_t2_point(cfg: &AccelConfig, program: &Program, vir_start: u32) -> Option<u64> {
    let point = program.next_interrupt_point(vir_start as usize)?;
    (point.vir_start == vir_start).then(|| t2_of(cfg, program, point))
}

/// Per-interrupt-point backup costs for the VI method, in program order.
#[must_use]
pub fn vi_t2_points(cfg: &AccelConfig, program: &Program) -> Vec<u64> {
    program.interrupt_points.iter().map(|p| t2_of(cfg, program, p)).collect()
}

fn t2_of(cfg: &AccelConfig, program: &Program, point: &InterruptPoint) -> u64 {
    program.instrs[point.vir_range()]
        .iter()
        .filter(|i| i.op == Opcode::VirSave)
        .map(|i| instr_cycles(cfg, program.layer_of(i), i))
        .sum()
}

/// Worst-case backup cost `t2` the analytical model predicts for
/// `program` under `strategy` (paper §IV-B):
///
/// * non-preemptive — never backs up (`0`);
/// * layer-by-layer — drains to a layer boundary, nothing to back up
///   (`0`);
/// * CPU-like — dumps the whole on-chip state over DMA, position
///   independent;
/// * virtual-instruction — the most expensive interrupt point's
///   `VIR_SAVE`s.
///
/// Every measured [`crate::InterruptEvent::t2`] is bounded by this value;
/// for the CPU-like strategy it is exact.
#[must_use]
pub fn t2_worst(cfg: &AccelConfig, strategy: InterruptStrategy, program: &Program) -> u64 {
    match strategy {
        InterruptStrategy::NonPreemptive | InterruptStrategy::LayerByLayer => 0,
        InterruptStrategy::CpuLike => cfg.dma_cycles(u64::from(cfg.arch.onchip_bytes())),
        InterruptStrategy::VirtualInstruction => {
            vi_t2_points(cfg, program).into_iter().max().unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_isa::{LayerKind, Shape3};

    fn paper_medium_layer() -> LayerMeta {
        // §IV-C worked example: 80x60 input, Ch_in = 48, Ch_out = 32.
        LayerMeta {
            id: 0,
            name: "medium".into(),
            kind: LayerKind::Conv { kernel: 3, stride: 1, pad: 1 },
            in_shape: Shape3::new(48, 60, 80),
            out_shape: Shape3::new(32, 60, 80),
            input_addr: 0,
            input2_addr: None,
            output_addr: 0,
            weight_addr: 0,
            weight_bytes: 0,
            quant_shift: 8,
            relu: true,
        }
    }

    #[test]
    fn paper_worked_example_gives_1_7_percent() {
        // Small accelerator: Para_in=8, Para_out=8, Para_height=4.
        let p = Parallelism::new(8, 8, 4);
        let r = latency_reduction_ratio(p, 32, 60);
        assert!((r - 8.0 * 4.0 / (32.0 * 60.0)).abs() < 1e-12);
        assert!((r - 0.0167).abs() < 0.001, "R_l = {r}, paper says 1.7%");
    }

    #[test]
    fn cycle_accurate_ratio_tracks_the_formula() {
        let cfg = AccelConfig::paper_small();
        let m = paper_medium_layer();
        let ratio = t1_vi_worst(&cfg, &m) as f64 / t1_layer_worst(&cfg, &m) as f64;
        let formula = latency_reduction_ratio(cfg.arch.parallelism, 32, 60);
        // The cycle model includes pipeline overheads, so allow slack.
        assert!(
            (ratio - formula).abs() / formula < 0.2,
            "cycle ratio {ratio} vs formula {formula}"
        );
    }

    #[test]
    fn span_model_matches_uncontended_run() {
        use crate::{Engine, TimingBackend};
        use inca_compiler::Compiler;
        use inca_isa::TaskSlot;

        let net = inca_model::zoo::tiny(Shape3::new(3, 32, 32)).expect("net");
        let cfg = AccelConfig::paper_small();
        for program in [
            Compiler::new(cfg.arch).compile(&net).expect("compile"),
            Compiler::new(cfg.arch).compile_vi(&net).expect("compile vi"),
        ] {
            let program = std::sync::Arc::new(program);
            let span = predicted_span(&cfg, &program);
            let slot = TaskSlot::LOWEST;
            let mut engine =
                Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
            engine.load(slot, std::sync::Arc::clone(&program)).expect("load");
            engine.request_at(0, slot).expect("request");
            let report = engine.run().expect("run");
            let what = &program.name;
            assert_eq!(report.completed_jobs[0].busy_cycles, span, "{what}");
            let bare: u64 = program
                .original_instrs()
                .map(|(_, i)| instr_cycles(&cfg, program.layer_of(i), i))
                .sum();
            assert_eq!(span, bare, "{what}");
        }
    }

    #[test]
    fn charges_sum_to_the_span_and_to_a_solo_run() {
        use crate::{Engine, TimingBackend};
        use inca_compiler::Compiler;
        use inca_isa::TaskSlot;
        use inca_model::zoo;

        let input = Shape3::new(3, 64, 64);
        let nets = [zoo::tiny(input), zoo::mobilenet_v1(input), zoo::resnet18(input)];
        for net in nets.map(|n| n.expect("net")) {
            for cfg in [AccelConfig::paper_big(), AccelConfig::paper_small()] {
                let program = Compiler::new(cfg.arch).compile_vi(&net).expect("compile vi");
                let what = format!("{} {:?}", net.name, cfg.arch);
                let mut sum = 0;
                for (instr, cycles) in charges(&cfg, &program) {
                    assert!(!instr.op.is_virtual() || cycles == 0, "{what}: {instr:?}");
                    sum += cycles;
                }
                assert_eq!(sum, predicted_span(&cfg, &program), "{what}");
                let slot = TaskSlot::LOWEST;
                let mut engine =
                    Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
                engine.load(slot, program).expect("load");
                engine.request_at(0, slot).expect("request");
                let report = engine.run().expect("run");
                assert_eq!(report.final_cycle, sum, "{what}");
                assert_eq!(report.completed_jobs[0].busy_cycles, sum, "{what}");
            }
        }
    }

    #[test]
    fn t2_model_per_strategy() {
        use inca_compiler::Compiler;

        let cfg = AccelConfig::paper_small();
        let net = inca_model::zoo::tiny(Shape3::new(3, 32, 32)).expect("net");
        let vi = Compiler::new(cfg.arch).compile_vi(&net).expect("compile vi");
        assert_eq!(t2_worst(&cfg, InterruptStrategy::NonPreemptive, &vi), 0);
        assert_eq!(t2_worst(&cfg, InterruptStrategy::LayerByLayer, &vi), 0);
        assert_eq!(
            t2_worst(&cfg, InterruptStrategy::CpuLike, &vi),
            cfg.dma_cycles(u64::from(cfg.arch.onchip_bytes()))
        );
        let points = vi_t2_points(&cfg, &vi);
        assert!(!points.is_empty(), "VI program has interrupt points");
        assert_eq!(
            t2_worst(&cfg, InterruptStrategy::VirtualInstruction, &vi),
            points.iter().copied().max().unwrap()
        );
        // The quadratic per-point lookup this replaced, as the oracle.
        let worst = vi
            .interrupt_points
            .iter()
            .map(|p| {
                let found = vi.interrupt_points.iter().find(|q| q.vir_start == p.vir_start);
                vi.instrs[found.unwrap().vir_range()]
                    .iter()
                    .filter(|i| i.op == Opcode::VirSave)
                    .map(|i| instr_cycles(&cfg, vi.layer_of(i), i))
                    .sum::<u64>()
            })
            .max();
        assert_eq!(Some(t2_worst(&cfg, InterruptStrategy::VirtualInstruction, &vi)), worst);
        for (p, &t2) in vi.interrupt_points.iter().zip(&points) {
            assert_eq!(vi_t2_point(&cfg, &vi, p.vir_start), Some(t2));
        }
        // A pc that starts no point is an answer, not a panic.
        let original = vi.original_instrs().next().unwrap().0 as u32;
        assert_eq!(vi_t2_point(&cfg, &vi, original), None);
        assert_eq!(vi_t2_point(&cfg, &vi, u32::MAX), None);
        // Backing up a point is cheaper than dumping all on-chip state.
        assert!(
            t2_worst(&cfg, InterruptStrategy::VirtualInstruction, &vi)
                <= t2_worst(&cfg, InterruptStrategy::CpuLike, &vi)
        );
    }

    #[test]
    fn vi_worst_case_is_blob_sized() {
        let cfg = AccelConfig::paper_big();
        let m = paper_medium_layer();
        // Ch_in=48 / Para_in=16 = 3 CALCs.
        assert_eq!(t1_vi_worst(&cfg, &m), 3 * t_instr(&cfg, &m));
        assert!(t1_vi_worst(&cfg, &m) < t1_layer_worst(&cfg, &m));
    }
}
