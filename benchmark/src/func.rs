//! `func_infer`: real int8 inference on `Engine<FuncBackend>`. Per rep,
//! six passes over MobileNetV1 96², ResNet-18 64² and SuperPoint 48²; each
//! run is preempted seven times by a high-priority `zoo::tiny` 16²
//! requester, and every layer output of every interrupted run is compared
//! byte-for-byte with an uninterrupted run on the same input — the paper's
//! bit-identical-resume property, under load. Kernel-bound: `accel::func`
//! and `isa::plan` do the host work; serve and cluster do nothing.

use std::sync::{Arc, OnceLock};

use inca_accel::{analysis, DdrImage, Engine, FuncBackend, InterruptStrategy, Program};
use inca_compiler::Compiler;
use inca_isa::plan::compile_program;
use inca_model::{zoo, Network, NetworkBuilder, Shape3};

use crate::calib::{fast_quarter, CalClock};
use crate::gen::Lcg;
use crate::serving::makespan;
use crate::spans::Spans;
use crate::stats::Fnv;
use crate::{accel, compile_metrics, hi_slot, lo_slot, Cfg, Layer, Rep, Workload};

const PASSES: u64 = 7;
/// Requester arrivals per inference.
const PREEMPTS: u64 = 7;
/// The requester counts as on time within this many of its solo spans.
const REQUESTER_DEADLINE_SPANS: u64 = 4;

/// Every layer's output feature map, in layer order.
type Outputs = Vec<Vec<i8>>;

fn outputs_of(image: &DdrImage, program: &Program) -> Outputs {
    program.layers.iter().map(|m| image.read_output(m)).collect()
}

struct Net {
    name: &'static str,
    program: Arc<Program>,
    macs: u64,
    /// Weights filled from the seed, activations zero.
    base: DdrImage,
    /// Analytical uninterrupted span; requester arrivals are placed in it.
    span: u64,
}

impl Net {
    fn new(name: &'static str, net: &Network, program: Program, seed: u64) -> Self {
        let base = DdrImage::for_program(&program, seed);
        let span = analysis::predicted_span(&accel(), &program);
        Self { name, program: Arc::new(program), macs: net.total_macs(), base, span }
    }

    /// The image of one pass: the base image with that pass's input.
    fn image(&self, seed: u64, pass: u64) -> DdrImage {
        let first = &self.program.layers[0];
        let mut lcg = Lcg::new(seed ^ (pass + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let input: Vec<u8> = (0..first.in_shape.bytes()).map(|_| lcg.pick(16) as u8).collect();
        let mut image = self.base.clone();
        image.write(first.input_addr, &input);
        image
    }

    /// Requester arrival offsets of one pass: one per eighth of the span,
    /// jittered inside it.
    fn arrivals(&self, seed: u64, pass: u64) -> Vec<u64> {
        let mut lcg = Lcg::new(seed ^ (pass + 1).wrapping_mul(0x9FB2_1C65_1E98_DF25) ^ self.span);
        let w = self.span / (PREEMPTS + 1);
        (0..PREEMPTS).map(|k| k * w + w / 4 + lcg.pick(w)).collect()
    }
}

/// Solo outputs per net per pass, computed once per process: verification
/// data of the harness, not set-up of the product.
struct Reference {
    nets: Vec<Vec<Outputs>>,
    requester: Outputs,
}

static REFERENCE: OnceLock<Reference> = OnceLock::new();

pub struct FuncInfer {
    seed: u64,
    passes: u64,
    nets: Vec<Net>,
    requester: Net,
    requester_deadline: u64,
}

impl FuncInfer {
    fn reference(&self) -> Result<&Reference, String> {
        if REFERENCE.get().is_none() {
            let mut backend = FuncBackend::new();
            backend.set_threads(1);
            let solo = |backend: &mut FuncBackend,
                        net: &Net,
                        image: DdrImage|
             -> Result<Outputs, String> {
                backend.install_image(lo_slot(), image);
                backend
                    .run_program(lo_slot(), &net.program)
                    .map_err(|e| format!("solo {}: {e}", net.name))?;
                Ok(outputs_of(backend.image(lo_slot()).expect("installed above"), &net.program))
            };
            let mut nets = Vec::new();
            for net in &self.nets {
                let per_pass: Result<Vec<Outputs>, String> = (0..self.passes)
                    .map(|p| solo(&mut backend, net, net.image(self.seed, p)))
                    .collect();
                nets.push(per_pass?);
            }
            let requester = solo(&mut backend, &self.requester, self.requester.base.clone())?;
            let _ = REFERENCE.set(Reference { nets, requester });
        }
        Ok(REFERENCE.get().expect("set above"))
    }

    /// One engine per net, requester in the high slot, at `threads`
    /// backend threads.
    fn engines(&self, threads: usize) -> Result<Vec<Engine<FuncBackend>>, String> {
        let mut engines = Vec::new();
        for net in &self.nets {
            let mut backend = FuncBackend::new();
            backend.set_threads(threads);
            backend.install_image(hi_slot(), self.requester.base.clone());
            let mut e = Engine::new(accel(), InterruptStrategy::VirtualInstruction, backend);
            e.load(hi_slot(), Arc::clone(&self.requester.program)).map_err(|e| e.to_string())?;
            e.load(lo_slot(), Arc::clone(&net.program)).map_err(|e| e.to_string())?;
            engines.push(e);
        }
        Ok(engines)
    }

    /// `passes` passes over the three nets.
    fn run(
        &self,
        mut engines: Vec<Engine<FuncBackend>>,
        passes: u64,
        spans: &mut Spans,
    ) -> Result<Rep, String> {
        let reference = self.reference()?;
        let mut rep = Rep::default();
        let mut clock = CalClock::default();
        let rep_span = spans.begin(0);
        for pass in 0..passes {
            for (n, (net, e)) in self.nets.iter().zip(&mut engines).enumerate() {
                // Untimed: the harness's input for this inference.
                e.backend_mut().install_image(lo_slot(), net.image(self.seed, pass));
                let start = e.now();
                e.request_at(start, lo_slot()).map_err(|e| e.to_string())?;
                for at in net.arrivals(self.seed, pass) {
                    e.request_at(start + at, hi_slot()).map_err(|e| e.to_string())?;
                }
                clock.begin();
                let ran =
                    spans.time(true, "engine.run", pass * 3 + n as u64, || e.run_until(u64::MAX));
                clock.end();
                ran.map_err(|e| format!("{} pass {pass}: {e}", net.name))?;
                rep.attempted += 1 + PREEMPTS;

                // Untimed: resumed vs solo, every layer, byte for byte.
                let image = e.backend().image(lo_slot()).expect("installed above");
                if outputs_of(image, &net.program) != reference.nets[n][pass as usize] {
                    rep.faults.push(format!(
                        "{} pass {pass}: resumed output differs from its solo run",
                        net.name
                    ));
                }
                let image = e.backend().image(hi_slot()).expect("installed at build");
                if outputs_of(image, &self.requester.program) != reference.requester {
                    rep.faults.push(format!(
                        "{} pass {pass}: requester output differs from its solo run",
                        net.name
                    ));
                }
            }
        }
        spans.end(rep_span, "rep");
        rep.wall = clock.into_timing();

        let mut digest = Fnv::default();
        let (mut layers_run, mut tier1_layers, mut plan_hits, mut plan_compiles) =
            (0u64, 0u64, 0u64, 0u64);
        for (net, e) in self.nets.iter().zip(&engines) {
            rep.instrs += e.metrics().counter("engine.instrs.retired");
            rep.sim_s += e.now() as f64 / accel().clock_hz as f64;
            for j in e.completed_jobs() {
                for v in [
                    j.slot.index() as u64,
                    j.release,
                    j.start,
                    j.finish,
                    j.busy_cycles,
                    j.extra_cost_cycles,
                    u64::from(j.preemptions),
                ] {
                    digest.u64(v);
                }
                rep.completed += 1;
                if j.slot == hi_slot() {
                    rep.hard_lat.push(j.response());
                    rep.hard_met += u64::from(j.response() <= self.requester_deadline);
                    rep.macs += self.requester.macs;
                    layers_run += self.requester.program.layers.len() as u64;
                } else {
                    rep.be_completed += 1;
                    rep.macs += net.macs;
                    layers_run += net.program.layers.len() as u64;
                }
            }
            for ev in e.report().interrupts {
                for v in [ev.request_cycle, u64::from(ev.layer), ev.t1, ev.t2, ev.t4] {
                    digest.u64(v);
                }
                rep.preempt_lat.push(ev.latency());
                rep.reload_cycles += ev.cost();
            }
            let tier1 = e.backend().metrics();
            tier1_layers += tier1.counter("tier1.exec_layers");
            plan_hits += tier1.counter("tier1.compile_cache_hits");
            plan_compiles += tier1.counter("tier1.compile_programs");
        }
        rep.be_submitted = passes * self.nets.len() as u64;
        rep.hard_submitted = rep.be_submitted * PREEMPTS;
        rep.requests = rep.be_submitted + rep.hard_submitted;
        if rep.completed != rep.requests {
            rep.faults.push(format!("{} of {} jobs completed", rep.completed, rep.requests));
        }
        digest.u64(rep.instrs);
        rep.digest = digest.0;
        rep.failed = rep.faults.len() as u64;
        rep.layer
            .insert("accel.func.tier1_layer_share", tier1_layers as f64 / layers_run.max(1) as f64);
        rep.layer.insert(
            "accel.func.plan_cache_hit_share",
            plan_hits as f64 / (plan_hits + plan_compiles).max(1) as f64,
        );
        Ok(rep)
    }
}

impl Workload for FuncInfer {
    const NAME: &'static str = "func_infer";
    type State = Vec<Engine<FuncBackend>>;

    fn prepare(cfg: &Cfg, spans: &mut Spans) -> Result<Self, String> {
        let compiler = Compiler::new(accel().arch);
        let models = spans.time(true, "model.build", 0, || {
            (
                zoo::mobilenet_v1(Shape3::new(3, 96, 96)),
                zoo::resnet18(Shape3::new(3, 64, 64)),
                zoo::superpoint(Shape3::new(1, 48, 48)),
                zoo::tiny(Shape3::new(3, 16, 16)),
            )
        });
        let mut build = |name: &'static str,
                         net: Result<Network, inca_model::ModelError>|
         -> Result<Net, String> {
            let net = net.map_err(|e| format!("{name}: {e}"))?;
            let program = spans
                .time(true, "compiler.compile_vi", 0, || compiler.compile_vi(&net))
                .map_err(|e| format!("compile_vi {name}: {e}"))?;
            Ok(Net::new(name, &net, program, cfg.seed))
        };
        let nets = vec![
            build("mobilenet_v1", models.0)?,
            build("resnet18", models.1)?,
            build("superpoint", models.2)?,
        ];
        let requester = build("requester", models.3)?;
        let requester_deadline = REQUESTER_DEADLINE_SPANS * makespan(&requester.program)?;
        Ok(Self {
            seed: cfg.seed,
            passes: (PASSES / cfg.shrink()).max(1),
            nets,
            requester,
            requester_deadline,
        })
    }

    fn build(&self) -> Result<Self::State, String> {
        self.engines(1)
    }

    fn rep(&self, engines: Self::State, spans: &mut Spans) -> Result<Rep, String> {
        self.run(engines, self.passes, spans)
    }

    fn layers(&self, _cfg: &Cfg, spans: &mut Spans, out: &mut Layer) -> Result<(), String> {
        let instrs =
            self.nets.iter().chain([&self.requester]).map(|n| n.program.instrs.len()).sum();
        compile_metrics(spans, instrs, out);

        // isa::plan on the three programs.
        let mut clock = CalClock::default();
        let (mut compiled, mut layers) = (0usize, 0usize);
        for net in &self.nets {
            let (plan, _) = clock.time(|| {
                spans.time(true, "isa.plan.compile_program", 0, || compile_program(&net.program))
            });
            compiled += plan.compiled_layers();
            layers += plan.compiled_layers() + plan.deopt_layers();
        }
        out.insert("isa.plan_compile_ms", clock.total().cal * 1e3);
        out.insert("isa.plan_compiled_layer_share", compiled as f64 / layers.max(1) as f64);

        // Whole nets, uninterrupted: end-to-end minus this is what the
        // engine and the preemptions cost.
        const NET_KEYS: [&str; 3] = [
            "accel.func.net_macs_per_s.mobilenet_v1",
            "accel.func.net_macs_per_s.resnet18",
            "accel.func.net_macs_per_s.superpoint",
        ];
        for (net, key) in self.nets.iter().zip(NET_KEYS) {
            out.insert(key, solo_macs_per_s(&net.program, net.macs, &net.base, spans)?);
        }
        for (key, net) in kernel_nets()? {
            let program =
                Compiler::new(accel().arch).compile_vi(&net).map_err(|e| format!("{key}: {e}"))?;
            let base = DdrImage::for_program(&program, self.seed);
            out.insert(key, solo_macs_per_s(&program, net.total_macs(), &base, spans)?);
        }

        // One pass at two backend threads over the same pass at one.
        let mut quiet = Spans::off();
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            one.push(self.run(self.engines(1)?, 1, &mut quiet)?.wall.total.cal);
            two.push(self.run(self.engines(2)?, 1, &mut quiet)?.wall.total.cal);
        }
        out.insert(
            "accel.func.threads2_speedup",
            fast_quarter(&one) / fast_quarter(&two).max(1e-12),
        );

        let (n, seconds) = CalClock::default().time(|| {
            let mut n = 0u64;
            for pass in 0..self.passes {
                for net in &self.nets {
                    n += std::hint::black_box(net.arrivals(self.seed, pass)).len() as u64;
                }
            }
            n
        });
        out.insert("harness.generator_ns_per_req", seconds.cal * 1e9 / n.max(1) as f64);
        Ok(())
    }
}

/// MACs per calibrated host-second of `FuncBackend::run_program` on `program`:
/// one warm-up (which also compiles and caches the layer plans), then the
/// fastest quarter of runs filling ≈0.15 s.
fn solo_macs_per_s(
    program: &Program,
    macs: u64,
    base: &DdrImage,
    spans: &mut Spans,
) -> Result<f64, String> {
    let mut backend = FuncBackend::new();
    backend.set_threads(1);
    let mut clock = CalClock::default();
    let mut once = |spans: &mut Spans| -> Result<f64, String> {
        backend.install_image(lo_slot(), base.clone());
        let (ran, seconds) = clock.time(|| {
            spans.time(true, "func.run_program", 0, || backend.run_program(lo_slot(), program))
        });
        ran.map_err(|e| e.to_string())?;
        Ok(seconds.cal)
    };
    let warm = once(spans)?;
    let runs = ((0.15 / warm.max(1e-6)) as usize).clamp(3, 200);
    let times: Result<Vec<f64>, String> = (0..runs).map(|_| once(spans)).collect();
    Ok(macs as f64 / fast_quarter(&times?).max(1e-12))
}

/// One-layer networks, one per kernel family.
fn kernel_nets() -> Result<[(&'static str, Network); 4], String> {
    let one = |name: &str,
               input: Shape3,
               f: &dyn Fn(
        &mut NetworkBuilder,
        inca_model::NodeId,
    ) -> Result<inca_model::NodeId, inca_model::ModelError>| {
        let mut b = NetworkBuilder::new(name, input);
        let x = b.input_id();
        let y = f(&mut b, x).map_err(|e| format!("{name}: {e}"))?;
        b.finish(vec![y]).map_err(|e| format!("{name}: {e}"))
    };
    Ok([
        (
            "accel.func.conv3x3_macs_per_s",
            one("conv3x3", Shape3::new(64, 28, 28), &|b, x| b.conv("c", x, 64, 3, 1, 1, true))?,
        ),
        (
            "accel.func.depthwise_macs_per_s",
            one("depthwise", Shape3::new(128, 28, 28), &|b, x| b.dw_conv("c", x, 3, 1, 1, true))?,
        ),
        (
            "accel.func.pointwise_macs_per_s",
            one("pointwise", Shape3::new(128, 28, 28), &|b, x| b.conv("c", x, 128, 1, 1, 0, true))?,
        ),
        (
            "accel.func.fc_macs_per_s",
            one("fc", Shape3::new(1024, 1, 1), &|b, x| b.fully_connected("c", x, 1000, false))?,
        ),
    ])
}
