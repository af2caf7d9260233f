//! The golden model: the tree's one naive int8 evaluator of lowered
//! layers, the ground truth every fast path is held to.
//!
//! It executes a program's layers straight against a DDR image — no
//! tiling, no instructions, no on-chip buffers — reading each layer's
//! input and weights at their canonical addresses and writing its output
//! where the next layer reads it. Sums are exact `i64`, so a fast path's
//! wrapping `i32` accumulation agrees with it only where no sum overflows.
//!
//! Shared by the accel integration tests (`mod common;`) and, through
//! `#[path]`, by the root `tests/differential_smoke.rs`.

use inca_accel::DdrImage;
use inca_isa::{LayerKind, LayerMeta, PoolKind, Program};

/// Executes the lowered layers of `program` in order against `image`,
/// each layer's output written back where its consumers read it.
pub fn reference_run(program: &Program, image: &mut DdrImage) {
    for meta in &program.layers {
        let out = reference_layer(meta, image);
        let bytes: Vec<u8> = out.iter().map(|&v| v as u8).collect();
        image.write(meta.output_addr, &bytes);
    }
}

fn read_plane(image: &DdrImage, addr: u64, c: u32, h: u32, w: u32) -> Vec<i8> {
    image.read(addr, u64::from(c) * u64::from(h) * u64::from(w)).iter().map(|&b| b as i8).collect()
}

/// CalcF's requantisation, applied to every layer kind: `>> shift`, ReLU,
/// clamp to int8.
fn finalize(acc: i64, shift: u8, relu: bool) -> i8 {
    let mut x = acc >> shift;
    if relu {
        x = x.max(0);
    }
    x.clamp(-128, 127) as i8
}

/// One lowered layer evaluated straight from `image`: every output pixel
/// from its whole window and every input channel at once, accumulated in
/// exact `i64`, then finalised from `meta`.
#[allow(clippy::too_many_lines)]
pub fn reference_layer(meta: &LayerMeta, image: &DdrImage) -> Vec<i8> {
    let (ci, hi, wi) = (meta.in_shape.c, meta.in_shape.h, meta.in_shape.w);
    let (co, ho, wo) = (meta.out_shape.c, meta.out_shape.h, meta.out_shape.w);
    let input = read_plane(image, meta.input_addr, ci, hi, wi);
    let at = |c: u32, y: i64, x: i64| -> i64 {
        if y < 0 || x < 0 || y >= i64::from(hi) || x >= i64::from(wi) {
            0
        } else {
            i64::from(input[((c as i64 * i64::from(hi) + y) * i64::from(wi) + x) as usize])
        }
    };
    let k = i64::from(meta.kind.kernel());
    let s = i64::from(meta.kind.stride());
    let p = i64::from(meta.kind.pad());
    let mut out = vec![0i8; (co * ho * wo) as usize];
    let oidx = |c: u32, y: u32, x: u32| ((c * ho + y) * wo + x) as usize;

    match meta.kind {
        LayerKind::Conv { .. } => {
            let weights = image.read(meta.weight_addr, meta.weight_bytes);
            for oc in 0..co {
                for y in 0..ho {
                    for x in 0..wo {
                        let mut acc = 0i64;
                        for ic in 0..ci {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let wv =
                                        weights[(((u64::from(oc) * u64::from(ci) + u64::from(ic))
                                            * k as u64
                                            + ky as u64)
                                            * k as u64
                                            + kx as u64)
                                            as usize] as i8;
                                    acc += i64::from(wv)
                                        * at(
                                            ic,
                                            i64::from(y) * s - p + ky,
                                            i64::from(x) * s - p + kx,
                                        );
                                }
                            }
                        }
                        out[oidx(oc, y, x)] = finalize(acc, meta.quant_shift, meta.relu);
                    }
                }
            }
        }
        LayerKind::DwConv { .. } => {
            let weights = image.read(meta.weight_addr, meta.weight_bytes);
            for c in 0..co {
                for y in 0..ho {
                    for x in 0..wo {
                        let mut acc = 0i64;
                        for ky in 0..k {
                            for kx in 0..k {
                                let wv = weights[((u64::from(c) * k as u64 + ky as u64) * k as u64
                                    + kx as u64)
                                    as usize] as i8;
                                acc += i64::from(wv)
                                    * at(c, i64::from(y) * s - p + ky, i64::from(x) * s - p + kx);
                            }
                        }
                        out[oidx(c, y, x)] = finalize(acc, meta.quant_shift, meta.relu);
                    }
                }
            }
        }
        LayerKind::Pool { kind, .. } => {
            for c in 0..co {
                for y in 0..ho {
                    for x in 0..wo {
                        let mut max = i64::MIN;
                        let mut sum = 0i64;
                        let mut count = 0i64;
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = i64::from(y) * s - p + ky;
                                let ix = i64::from(x) * s - p + kx;
                                if iy < 0 || ix < 0 || iy >= i64::from(hi) || ix >= i64::from(wi) {
                                    continue;
                                }
                                let v = at(c, iy, ix);
                                max = max.max(v);
                                sum += v;
                                count += 1;
                            }
                        }
                        let v = match kind {
                            PoolKind::Max => {
                                if count == 0 {
                                    0
                                } else {
                                    max
                                }
                            }
                            PoolKind::Avg => {
                                if count == 0 {
                                    0
                                } else {
                                    sum / count
                                }
                            }
                        };
                        out[oidx(c, y, x)] = finalize(v, meta.quant_shift, meta.relu);
                    }
                }
            }
        }
        LayerKind::GlobalPool { p } => {
            let n = i64::from(hi) * i64::from(wi);
            for c in 0..co {
                let mut powered = 0f64;
                for y in 0..hi {
                    for x in 0..wi {
                        let v = at(c, i64::from(y), i64::from(x));
                        powered += f64::from(v.max(0) as i32).powi(i32::from(p));
                    }
                }
                let v = (powered / n.max(1) as f64).powf(1.0 / f64::from(p)).round() as i64;
                out[oidx(c, 0, 0)] = finalize(v, meta.quant_shift, meta.relu);
            }
        }
        LayerKind::Add => {
            let b = read_plane(image, meta.input2_addr.expect("add input2"), ci, hi, wi);
            for i in 0..out.len() {
                out[i] =
                    finalize(i64::from(input[i]) + i64::from(b[i]), meta.quant_shift, meta.relu);
            }
        }
        LayerKind::FullyConnected => {
            let weights = image.read(meta.weight_addr, meta.weight_bytes);
            for oc in 0..co {
                let mut acc = 0i64;
                for ic in 0..ci {
                    let wv =
                        weights[(u64::from(oc) * u64::from(ci) + u64::from(ic)) as usize] as i8;
                    acc += i64::from(wv) * i64::from(input[ic as usize]);
                }
                out[oidx(oc, 0, 0)] = finalize(acc, meta.quant_shift, meta.relu);
            }
        }
    }
    out
}
