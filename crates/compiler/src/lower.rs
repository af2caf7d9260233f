//! Lowering: network graph → per-layer execution metadata + DDR layout.
//!
//! This stage corresponds to the "quantize weights / analyze network
//! topology" box of the paper's toolchain: it fixes per-layer power-of-two
//! quantisation shifts and assigns every weight tensor and feature map a
//! task-relative DDR address.

use inca_isa::{LayerKind, LayerMeta, MemoryMap, Shape3};
use inca_model::{Network, Op};

use crate::{CompileError, CompileOptions};
use inca_isa::ArchSpec;

/// Result of lowering a network.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// Execution metadata per layer, in program order.
    pub layers: Vec<LayerMeta>,
    /// Task memory map.
    pub memory: MemoryMap,
    /// Maps a node index to its layer id (`None` for the input node).
    pub node_to_layer: Vec<Option<u16>>,
    /// DDR address of each node's output feature map.
    pub node_output_addr: Vec<u64>,
}

impl Lowered {
    /// DDR address and shape of the network input feature map.
    #[must_use]
    pub fn input_region(&self, network: &Network) -> (u64, Shape3) {
        let input = network.input();
        (self.node_output_addr[input.id.index()], input.out_shape)
    }
}

fn align_up(addr: u64, alignment: u32) -> u64 {
    let a = u64::from(alignment);
    addr.div_ceil(a) * a
}

/// Quantisation shift heuristic: half the accumulator growth bits plus a
/// headroom constant, so int8 outputs neither vanish nor saturate for
/// roughly unit-variance int8 inputs.
fn quant_shift(macs_per_output: u64) -> u8 {
    let bits = 64 - macs_per_output.max(1).leading_zeros();
    u8::try_from((bits / 2 + 5).min(24)).expect("shift fits u8")
}

fn lower_kind(op: &Op) -> LayerKind {
    match *op {
        Op::Conv { kernel, stride, pad, .. } => LayerKind::Conv { kernel, stride, pad },
        Op::DwConv { kernel, stride, pad, .. } => LayerKind::DwConv { kernel, stride, pad },
        Op::Pool(p) => {
            LayerKind::Pool { kind: p.kind, kernel: p.kernel, stride: p.stride, pad: p.pad }
        }
        Op::Add { .. } => LayerKind::Add,
        Op::FullyConnected { .. } => LayerKind::FullyConnected,
        Op::GemPool { p } => LayerKind::GlobalPool { p },
        Op::Concat | Op::Input => unreachable!("lowered separately"),
    }
}

/// Identity copy used to lower `Concat` parts: a 1×1/1 max pool moves a
/// feature map unchanged (max over a single element).
fn identity_copy_kind() -> LayerKind {
    LayerKind::Pool { kind: inca_isa::PoolKind::Max, kernel: 1, stride: 1, pad: 0 }
}

/// Lowers a validated network.
///
/// # Errors
///
/// * [`CompileError::Model`] when the network fails validation;
/// * [`CompileError::Unsupported`] when an FC input flattens to more than
///   65535 features (the tile encoding's channel-index limit).
pub fn lower(
    network: &Network,
    _arch: &ArchSpec,
    options: &CompileOptions,
) -> Result<Lowered, CompileError> {
    network.validate()?;

    let n = network.nodes.len();
    let mut node_to_layer = vec![None; n];
    let mut node_output_addr = vec![0u64; n];
    let mut layers = Vec::new();

    // Pass 1: weights region.
    let mut cursor = 0u64;
    let mut weight_addr = vec![0u64; n];
    let mut weight_bytes = vec![0u64; n];
    for node in &network.nodes {
        if !node.op.has_weights() {
            continue;
        }
        let in_shape = network.in_shape(node.id);
        let bytes = node.param_bytes(in_shape);
        weight_addr[node.id.index()] = cursor;
        weight_bytes[node.id.index()] = bytes;
        cursor = align_up(cursor + bytes, options.alignment);
    }
    let weights_bytes = cursor;

    // Pass 2: activation region (every node output, input included).
    let activations_base = align_up(cursor, options.alignment);
    cursor = activations_base;
    for node in &network.nodes {
        node_output_addr[node.id.index()] = cursor;
        cursor = align_up(cursor + node.out_shape.bytes(), options.alignment);
    }
    let activations_bytes = cursor - activations_base;

    // Pass 3: layer metadata.
    let mut next_layer: u16 = 0;
    for node in &network.nodes {
        if matches!(node.op, Op::Input) {
            continue;
        }
        if matches!(node.op, Op::Concat) {
            // Channel concatenation lowers to one identity-copy layer per
            // operand, each writing its channel planes into the concat
            // buffer at the right offset (CHW layout keeps them adjacent).
            let out_base = node_output_addr[node.id.index()];
            let mut c_off = 0u64;
            for (part, &src) in node.inputs.iter().enumerate() {
                let s = network.node(src).out_shape;
                let meta = LayerMeta {
                    id: next_layer,
                    name: format!("{}_part{part}", node.name),
                    kind: identity_copy_kind(),
                    in_shape: s,
                    out_shape: s,
                    input_addr: node_output_addr[src.index()],
                    input2_addr: None,
                    output_addr: out_base + c_off * u64::from(s.h) * u64::from(s.w),
                    weight_addr: 0,
                    weight_bytes: 0,
                    quant_shift: 0,
                    relu: false,
                };
                debug_assert!(meta.shapes_consistent());
                layers.push(meta);
                node_to_layer[node.id.index()] = Some(next_layer);
                next_layer = next_layer
                    .checked_add(1)
                    .ok_or_else(|| CompileError::Unsupported("more than 65535 layers".into()))?;
                c_off += u64::from(s.c);
            }
            continue;
        }
        let src = node.inputs[0];
        let raw_in = network.node(src).out_shape;
        let kind = lower_kind(&node.op);
        // FC consumes a flattened input.
        let in_shape = if matches!(kind, LayerKind::FullyConnected) {
            let flat = raw_in.elems();
            if flat > u64::from(u16::MAX) {
                return Err(CompileError::Unsupported(format!(
                    "FC layer `{}` flattens to {flat} features; the tile encoding supports at most {}",
                    node.name,
                    u16::MAX
                )));
            }
            Shape3::new(u32::try_from(flat).expect("checked above"), 1, 1)
        } else {
            raw_in
        };
        if node.out_shape.c > u32::from(u16::MAX) || node.out_shape.h > u32::from(u16::MAX) {
            return Err(CompileError::Unsupported(format!(
                "layer `{}` output {} exceeds the tile encoding",
                node.name, node.out_shape
            )));
        }
        let macs_per_output = match node.op {
            Op::Conv { kernel, .. } => {
                u64::from(in_shape.c) * u64::from(kernel) * u64::from(kernel)
            }
            Op::FullyConnected { .. } => u64::from(in_shape.c),
            Op::DwConv { kernel, .. } => u64::from(kernel) * u64::from(kernel),
            _ => 1,
        };
        let relu = match node.op {
            Op::Conv { relu, .. }
            | Op::DwConv { relu, .. }
            | Op::Add { relu }
            | Op::FullyConnected { relu, .. } => relu,
            _ => false,
        };
        let meta = LayerMeta {
            id: next_layer,
            name: node.name.clone(),
            kind,
            in_shape,
            out_shape: node.out_shape,
            input_addr: node_output_addr[src.index()],
            input2_addr: node.inputs.get(1).map(|s| node_output_addr[s.index()]),
            output_addr: node_output_addr[node.id.index()],
            weight_addr: weight_addr[node.id.index()],
            weight_bytes: weight_bytes[node.id.index()],
            quant_shift: if node.op.has_weights() { quant_shift(macs_per_output) } else { 0 },
            relu,
        };
        debug_assert!(meta.shapes_consistent(), "lowered layer `{}` inconsistent", meta.name);
        node_to_layer[node.id.index()] = Some(next_layer);
        layers.push(meta);
        next_layer = next_layer
            .checked_add(1)
            .ok_or_else(|| CompileError::Unsupported("more than 65535 layers".into()))?;
    }

    let input_node = network.input();
    let primary_output = *network.outputs.first().expect("validated: has outputs");
    Ok(Lowered {
        layers,
        memory: MemoryMap {
            weights_base: 0,
            weights_bytes,
            activations_base,
            activations_bytes,
            input_base: node_output_addr[input_node.id.index()],
            input_bytes: input_node.out_shape.bytes(),
            output_base: node_output_addr[primary_output.index()],
            output_bytes: network.node(primary_output).out_shape.bytes(),
        },
        node_to_layer,
        node_output_addr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_model::zoo;

    fn lowered(net: &Network) -> Lowered {
        lower(net, &ArchSpec::angel_eye_big(), &CompileOptions::default()).unwrap()
    }

    #[test]
    fn tiny_layout_is_disjoint_and_aligned() {
        let net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
        let l = lowered(&net);
        assert_eq!(l.layers.len(), 5);
        // Regions: weights below activations.
        assert!(l.memory.activations_base >= l.memory.weights_bytes);
        // All addresses aligned.
        for m in &l.layers {
            assert_eq!(m.output_addr % 64, 0);
            assert_eq!(m.weight_addr % 64, 0);
        }
        // Output regions pairwise disjoint.
        let mut regions: Vec<(u64, u64)> =
            l.layers.iter().map(|m| (m.output_addr, m.output_addr + m.out_shape.bytes())).collect();
        let (inp_addr, inp_shape) = l.input_region(&net);
        regions.push((inp_addr, inp_addr + inp_shape.bytes()));
        regions.sort_unstable();
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping activation regions {w:?}");
        }
    }

    #[test]
    fn add_gets_second_input() {
        let net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
        let l = lowered(&net);
        let add = l.layers.iter().find(|m| matches!(m.kind, LayerKind::Add)).unwrap();
        assert!(add.input2_addr.is_some());
        assert_ne!(add.input_addr, add.input2_addr.unwrap());
    }

    #[test]
    fn fc_is_flattened() {
        let net = zoo::mobilenet_v1(Shape3::new(3, 224, 224)).unwrap();
        let l = lowered(&net);
        let fc = l.layers.iter().find(|m| matches!(m.kind, LayerKind::FullyConnected)).unwrap();
        assert_eq!(fc.in_shape, Shape3::new(1024, 1, 1));
        assert_eq!(fc.out_shape, Shape3::new(1000, 1, 1));
        assert_eq!(fc.weight_bytes, 1024 * 1000);
    }

    #[test]
    fn oversized_fc_is_rejected() {
        // VGG16 classifier at 480x640 flattens 512x15x20 = 153600 > u16::MAX.
        let net = zoo::vgg16(Shape3::new(3, 480, 640), true).unwrap();
        let err = lower(&net, &ArchSpec::angel_eye_big(), &CompileOptions::default());
        assert!(matches!(err, Err(CompileError::Unsupported(_))));
    }

    #[test]
    fn weights_accounted() {
        let net = zoo::resnet18(Shape3::new(3, 64, 64)).unwrap();
        let l = lowered(&net);
        let total: u64 = l.layers.iter().map(|m| m.weight_bytes).sum();
        assert!(l.memory.weights_bytes >= total); // padding makes it >=
        assert!(l.memory.weights_bytes < total + 64 * l.layers.len() as u64);
    }

    #[test]
    fn concat_lowers_to_adjacent_identity_copies() {
        let mut b = inca_model::NetworkBuilder::new("c", Shape3::new(3, 16, 16));
        let x = b.input_id();
        let a = b.conv("a", x, 8, 1, 1, 0, true).unwrap();
        let c = b.conv("c", x, 4, 3, 1, 1, true).unwrap();
        let cat = b.concat("cat", a, c).unwrap();
        let head = b.conv("head", cat, 8, 1, 1, 0, false).unwrap();
        let net = b.finish(vec![head]).unwrap();
        let l = lowered(&net);
        // Two copy parts between the convs.
        let parts: Vec<_> = l.layers.iter().filter(|m| m.name.starts_with("cat_part")).collect();
        assert_eq!(parts.len(), 2);
        // Part 1's plane sits right after part 0's channels in CHW layout.
        let plane = u64::from(parts[0].out_shape.h) * u64::from(parts[0].out_shape.w);
        assert_eq!(
            parts[1].output_addr,
            parts[0].output_addr + u64::from(parts[0].out_shape.c) * plane
        );
        // The consumer reads the 12-channel concat buffer from part 0's base.
        let head_meta = l.layers.iter().find(|m| m.name == "head").unwrap();
        assert_eq!(head_meta.input_addr, parts[0].output_addr);
        assert_eq!(head_meta.in_shape.c, 12);
        // Identity copies carry no quantisation and no weights.
        for p in parts {
            assert_eq!(p.quant_shift, 0);
            assert_eq!(p.weight_bytes, 0);
            assert!(p.shapes_consistent());
        }
    }

    #[test]
    fn memory_map_records_io_regions() {
        let net = zoo::tiny(Shape3::new(3, 16, 16)).unwrap();
        let l = lowered(&net);
        assert_eq!(l.memory.input_bytes, 3 * 16 * 16);
        let (inp_addr, _) = l.input_region(&net);
        assert_eq!(l.memory.input_base, inp_addr);
        let last = l.layers.last().unwrap();
        assert_eq!(l.memory.output_base, last.output_addr);
        assert_eq!(l.memory.output_bytes, last.out_shape.bytes());
    }

    #[test]
    fn quant_shift_monotonic_in_fanin() {
        assert!(quant_shift(3 * 9) <= quant_shift(512 * 9));
        assert!(quant_shift(1) >= 5);
        assert!(quant_shift(u64::MAX) <= 24);
    }
}
