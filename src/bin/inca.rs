//! `inca` — the command-line front end to the INCA toolchain.
//!
//! ```text
//! inca networks                              list the model zoo
//! inca compile resnet18 -o prog.bin          compile to a VI-ISA container
//!      [--arch big|small] [--input C,H,W] [--no-vi]
//! inca stats prog.bin                        program statistics + memory map
//! inca disasm prog.bin [--limit N]           assembly listing
//! inca dot resnet18                          Graphviz DOT of the graph
//! inca run prog.bin [--interrupt-at CYC] [--strategy vi|lbl|cpu|none]
//!                                            timing run (+ Gantt with an interrupt)
//! ```

use std::fmt;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use inca::accel::{AccelConfig, ArchSpec, Engine, InterruptStrategy, TimingBackend};
use inca::compiler::Compiler;
use inca::isa::{container, Program, TaskSlot};
use inca::model::{zoo, Network, Shape3};

const ZOO: &[&str] = &[
    "tiny",
    "vgg16",
    "superpoint",
    "resnet18",
    "resnet50",
    "resnet101",
    "gem",
    "mobilenet",
    "squeezenet",
];

fn network_by_name(name: &str, input: Shape3) -> Result<Network, String> {
    let r = match name {
        "tiny" => zoo::tiny(input),
        "vgg16" => zoo::vgg16(input, false),
        "superpoint" => zoo::superpoint(Shape3::new(1, input.h, input.w)),
        "resnet18" => zoo::resnet18(input),
        "resnet50" => zoo::resnet50(input),
        "resnet101" => zoo::resnet101(input),
        "gem" => zoo::gem_resnet101(input),
        "mobilenet" => zoo::mobilenet_v1(input),
        "squeezenet" => zoo::squeezenet(input),
        other => return Err(format!("unknown network `{other}`; see `inca networks`")),
    };
    r.map_err(|e| e.to_string())
}

fn parse_shape(s: &str) -> Result<Shape3, String> {
    let parts: Vec<&str> = s.split([',', 'x']).collect();
    if parts.len() != 3 {
        return Err(format!("expected C,H,W, got `{s}`"));
    }
    let mut v = [0u32; 3];
    for (o, p) in v.iter_mut().zip(parts) {
        *o = p.parse().map_err(|_| format!("bad dimension `{p}`"))?;
    }
    Ok(Shape3::new(v[0], v[1], v[2]))
}

fn parse_arch(s: &str) -> Result<ArchSpec, String> {
    match s {
        "big" => Ok(ArchSpec::angel_eye_big()),
        "small" => Ok(ArchSpec::angel_eye_small()),
        other => Err(format!("unknown arch `{other}` (use big|small)")),
    }
}

fn parse_strategy(s: &str) -> Result<InterruptStrategy, String> {
    match s {
        "vi" => Ok(InterruptStrategy::VirtualInstruction),
        "lbl" => Ok(InterruptStrategy::LayerByLayer),
        "cpu" => Ok(InterruptStrategy::CpuLike),
        "none" => Ok(InterruptStrategy::NonPreemptive),
        other => Err(format!("unknown strategy `{other}` (use vi|lbl|cpu|none)")),
    }
}

/// Writes `text` to the command's output. A reader that closed the pipe
/// early (`inca disasm prog.bin | head -1`) has all it asked for: the
/// command ends there with exit 0 instead of panicking as `print!` does.
fn emit(out: &mut dyn Write, text: fmt::Arguments) -> Result<(), String> {
    match out.write_fmt(text) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        r => r.map_err(|e| format!("writing output: {e}")),
    }
}

/// `println!` into a command's output, through [`emit`].
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        emit($out, format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// Fetches the value following `--flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn cmd_networks(out: &mut dyn Write) -> Result<(), String> {
    outln!(out, "{:<12} {:>10} {:>12} {:>12}", "network", "layers", "GMACs@480p", "params MB");
    for name in ZOO {
        let input = Shape3::new(3, 480, 640);
        let net = network_by_name(name, input)?;
        let s = net.stats();
        outln!(
            out,
            "{name:<12} {:>10} {:>12.2} {:>12.2}",
            s.layers,
            s.macs as f64 / 1e9,
            s.param_bytes as f64 / 1e6
        );
    }
    Ok(())
}

fn cmd_compile(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let name = args.first().ok_or("usage: inca compile <network> -o <file>")?;
    let path = flag_value(args, "-o").ok_or("missing -o <file>")?;
    let arch = parse_arch(flag_value(args, "--arch").unwrap_or("big"))?;
    let input = parse_shape(flag_value(args, "--input").unwrap_or("3,480,640"))?;
    let no_vi = args.iter().any(|a| a == "--no-vi");

    let net = network_by_name(name, input)?;
    let compiler = Compiler::new(arch);
    let program = if no_vi { compiler.compile(&net) } else { compiler.compile_vi(&net) }
        .map_err(|e| e.to_string())?;
    let bytes = container::encode_container(&program);
    std::fs::write(path, &bytes).map_err(|e| e.to_string())?;
    let s = program.stats();
    outln!(
        out,
        "wrote {path}: {} instructions ({} virtual), {} layers, {} bytes",
        s.instrs,
        s.virtual_instrs,
        s.layers,
        bytes.len()
    );
    Ok(())
}

fn load_container(path: &str) -> Result<Program, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    container::decode_container(&bytes).map_err(|e| e.to_string())
}

fn cmd_stats(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let path = args.first().ok_or("usage: inca stats <file>")?;
    let p = load_container(path)?;
    let s = p.stats();
    outln!(out, "program `{}`", p.name);
    outln!(out, "  instructions     : {} ({} virtual)", s.instrs, s.virtual_instrs);
    outln!(out, "  CalcBlobs        : {}", s.blobs);
    outln!(out, "  interrupt points : {}", s.interrupt_points);
    outln!(out, "  layers           : {}", s.layers);
    outln!(out, "  MACs             : {:.3} G", s.macs as f64 / 1e9);
    outln!(out, "  DDR traffic      : {:.2} MB per pass", s.ddr_bytes as f64 / 1e6);
    let m = &p.memory;
    outln!(
        out,
        "  memory map       : weights {:#x}+{}, activations {:#x}+{}",
        m.weights_base,
        m.weights_bytes,
        m.activations_base,
        m.activations_bytes
    );
    outln!(
        out,
        "  input / output   : {:#x}+{} / {:#x}+{}",
        m.input_base,
        m.input_bytes,
        m.output_base,
        m.output_bytes
    );
    Ok(())
}

fn cmd_disasm(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let path = args.first().ok_or("usage: inca disasm <file> [--limit N]")?;
    let limit: usize = flag_value(args, "--limit")
        .map(|v| v.parse().map_err(|_| format!("bad --limit `{v}`")))
        .transpose()?
        .unwrap_or(200);
    let p = load_container(path)?;
    for line in p.listing().lines().take(limit) {
        outln!(out, "{line}");
    }
    if p.len() > limit {
        outln!(out, "... ({} more instructions; raise --limit)", p.len() - limit);
    }
    Ok(())
}

fn cmd_dot(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let name = args.first().ok_or("usage: inca dot <network> [--input C,H,W]")?;
    let input = parse_shape(flag_value(args, "--input").unwrap_or("3,480,640"))?;
    let net = network_by_name(name, input)?;
    emit(out, format_args!("{}", net.to_dot()))
}

fn cmd_run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let path = args.first().ok_or("usage: inca run <file> [--interrupt-at CYC] [--strategy S]")?;
    let strategy = parse_strategy(flag_value(args, "--strategy").unwrap_or("vi"))?;
    let interrupt_at: Option<u64> = flag_value(args, "--interrupt-at")
        .map(|v| v.parse().map_err(|_| format!("bad --interrupt-at `{v}`")))
        .transpose()?;
    let program = load_container(path)?;
    let cfg = AccelConfig::paper_big();

    let lo = TaskSlot::new(3).map_err(|e| e.to_string())?;
    let mut engine = Engine::new(cfg, strategy, TimingBackend::new());
    engine.load(lo, program).map_err(|e| e.to_string())?;
    engine.request_at(0, lo).map_err(|e| e.to_string())?;
    if let Some(at) = interrupt_at {
        // A minimal high-priority requester.
        let hi = TaskSlot::new(1).map_err(|e| e.to_string())?;
        let tiny = Compiler::new(cfg.arch)
            .compile_vi(&zoo::tiny(Shape3::new(3, 16, 16)).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        engine.load(hi, tiny).map_err(|e| e.to_string())?;
        engine.request_at(at, hi).map_err(|e| e.to_string())?;
    }
    let report = engine.run().map_err(|e| e.to_string())?;
    for job in &report.completed_jobs {
        outln!(
            out,
            "{}: released @{} cycles, finished @{} ({:.3} ms response, {} preemptions)",
            job.slot,
            job.release,
            job.finish,
            cfg.cycles_to_ms(job.response()),
            job.preemptions
        );
    }
    for ev in &report.interrupts {
        outln!(
            out,
            "interrupt in layer {}: latency {:.1} µs (t1 {:.1} + t2 {:.1}), cost {:.1} µs",
            ev.layer,
            cfg.cycles_to_us(ev.latency()),
            cfg.cycles_to_us(ev.t1),
            cfg.cycles_to_us(ev.t2),
            cfg.cycles_to_us(ev.cost()),
        );
    }
    if interrupt_at.is_some() {
        outln!(out, "\n{}", report.gantt(72));
    }
    Ok(())
}

fn dispatch(cmd: &str, rest: &[String], out: &mut dyn Write) -> Result<(), String> {
    match cmd {
        "networks" => cmd_networks(out),
        "compile" => cmd_compile(rest, out),
        "stats" => cmd_stats(rest, out),
        "disasm" => cmd_disasm(rest, out),
        "dot" => cmd_dot(rest, out),
        "run" => cmd_run(rest, out),
        other => Err(format!("unknown command `{other}`; see the module docs")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: inca <networks|compile|stats|disasm|dot|run> ...");
        return ExitCode::FAILURE;
    };
    match dispatch(cmd, &args[1..], &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_parsing() {
        assert_eq!(parse_shape("3,480,640").unwrap(), Shape3::new(3, 480, 640));
        assert_eq!(parse_shape("1x32x32").unwrap(), Shape3::new(1, 32, 32));
        assert!(parse_shape("3,480").is_err());
        assert!(parse_shape("a,b,c").is_err());
    }

    #[test]
    fn strategy_and_arch_parsing() {
        assert_eq!(parse_strategy("vi").unwrap(), InterruptStrategy::VirtualInstruction);
        assert_eq!(parse_strategy("none").unwrap(), InterruptStrategy::NonPreemptive);
        assert!(parse_strategy("bogus").is_err());
        assert_eq!(parse_arch("small").unwrap(), ArchSpec::angel_eye_small());
        assert!(parse_arch("huge").is_err());
    }

    #[test]
    fn flag_value_lookup() {
        let args: Vec<String> =
            ["a", "-o", "out.bin", "--limit", "5"].iter().map(ToString::to_string).collect();
        assert_eq!(flag_value(&args, "-o"), Some("out.bin"));
        assert_eq!(flag_value(&args, "--limit"), Some("5"));
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn every_zoo_name_resolves() {
        for name in ZOO {
            network_by_name(name, Shape3::new(3, 64, 64)).unwrap();
        }
        assert!(network_by_name("nope", Shape3::new(3, 64, 64)).is_err());
    }

    #[test]
    fn compile_stats_disasm_round_trip_via_files() {
        let dir = std::env::temp_dir().join("inca_cli_test");
        let _ = std::fs::create_dir_all(&dir);
        let out = dir.join("tiny.bin");
        let args: Vec<String> =
            ["tiny", "-o", out.to_str().unwrap(), "--arch", "small", "--input", "3,32,32"]
                .iter()
                .map(ToString::to_string)
                .collect();
        let mut text = Vec::new();
        cmd_compile(&args, &mut text).unwrap();
        let stat_args = vec![out.to_str().unwrap().to_string()];
        cmd_stats(&stat_args, &mut text).unwrap();
        cmd_disasm(&stat_args, &mut text).unwrap();
        assert!(String::from_utf8(text).unwrap().contains("instructions"));
        let p = load_container(out.to_str().unwrap()).unwrap();
        assert!(p.stats().instrs > 0);
        let _ = std::fs::remove_file(&out);
    }
}
