//! Prints compiled program sizes and compile times for the paper-scale
//! networks (used to size the benchmark harness): lowering + code
//! generation next to the VI pass over the original program, the VI pass's
//! instruction rate, and end-to-end `compile_vi`, which streams each layer
//! through the same pass without building the original program. Asserts
//! that the two paths build the same program.
use inca_compiler::{vi, Compiler};
use inca_isa::ArchSpec;
use inca_model::{zoo, Shape3};
use std::time::Instant;

fn main() {
    let rgb = Shape3::new(3, 480, 640);
    let compiler = Compiler::new(ArchSpec::angel_eye_big());
    println!(
        "{:<14} {:>9} {:>9} {:>12} {:>10} {:>10} {:>13}",
        "network", "instrs", "virtual", "lower+gen ms", "vi_pass ms", "Minstr/s", "compile_vi ms"
    );
    for (name, net) in [
        ("gem_resnet101", zoo::gem_resnet101(rgb).unwrap()),
        ("resnet101", zoo::resnet101(rgb).unwrap()),
        ("vgg16", zoo::vgg16(rgb, false).unwrap()),
        ("mobilenet", zoo::mobilenet_v1(rgb).unwrap()),
        ("superpoint", zoo::superpoint(Shape3::new(1, 480, 640)).unwrap()),
    ] {
        let t = Instant::now();
        let original = compiler.compile(&net).unwrap();
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let p = vi::vi_pass(&original).unwrap();
        let vi_s = t.elapsed().as_secs_f64();
        drop(original);
        let t = Instant::now();
        let streamed = compiler.compile_vi(&net).unwrap();
        let stream_s = t.elapsed().as_secs_f64();
        assert!(streamed == p, "{name}: compile_vi differs from vi_pass(compile)");
        let s = p.stats();
        println!(
            "{name:<14} {:>9} {:>9} {:>12.1} {:>10.1} {:>10.2} {:>13.1}",
            s.instrs,
            s.virtual_instrs,
            gen_s * 1e3,
            vi_s * 1e3,
            s.instrs as f64 / vi_s / 1e6,
            stream_s * 1e3
        );
    }
}
