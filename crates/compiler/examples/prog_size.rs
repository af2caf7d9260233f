//! Prints compiled program sizes and compile times for the paper-scale
//! networks (used to size the benchmark harness): lowering + code
//! generation next to the VI pass, and the VI pass's instruction rate.
use inca_compiler::{vi, Compiler};
use inca_isa::ArchSpec;
use inca_model::{zoo, Shape3};
use std::time::Instant;

fn main() {
    let rgb = Shape3::new(3, 480, 640);
    let compiler = Compiler::new(ArchSpec::angel_eye_big());
    println!(
        "{:<14} {:>9} {:>9} {:>12} {:>10} {:>10}",
        "network", "instrs", "virtual", "lower+gen ms", "vi_pass ms", "Minstr/s"
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
        let p = vi::vi_pass(&original, compiler.arch(), compiler.options()).unwrap();
        let vi_s = t.elapsed().as_secs_f64();
        let s = p.stats();
        println!(
            "{name:<14} {:>9} {:>9} {:>12.1} {:>10.1} {:>10.2}",
            s.instrs,
            s.virtual_instrs,
            gen_s * 1e3,
            vi_s * 1e3,
            s.instrs as f64 / vi_s / 1e6
        );
    }
}
