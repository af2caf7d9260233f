//! The network DAG with shape inference.

use crate::{ModelError, Op, Shape3};

/// Identifier of a node within its [`Network`] (also its topological
/// position: inputs of a node always have smaller ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index into [`Network::nodes`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of the DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node id (== index in [`Network::nodes`]).
    pub id: NodeId,
    /// Human-readable name.
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Data inputs (length == `op.arity()`).
    pub inputs: Vec<NodeId>,
    /// Inferred output shape.
    pub out_shape: Shape3,
}

impl Node {
    /// Number of weight parameters (int8 bytes) of the node.
    #[must_use]
    pub fn param_bytes(&self, in_shape: Shape3) -> u64 {
        let k2 = |k: u8| u64::from(k) * u64::from(k);
        match self.op {
            Op::Conv { out_channels, kernel, .. } => {
                u64::from(out_channels) * u64::from(in_shape.c) * k2(kernel)
            }
            Op::DwConv { kernel, .. } => u64::from(in_shape.c) * k2(kernel),
            Op::FullyConnected { out_features, .. } => u64::from(out_features) * in_shape.elems(),
            _ => 0,
        }
    }

    /// Multiply-accumulate operations of the node.
    #[must_use]
    pub fn macs(&self, in_shape: Shape3) -> u64 {
        let k2 = |k: u8| u64::from(k) * u64::from(k);
        match self.op {
            Op::Conv { kernel, .. } => self.out_shape.elems() * u64::from(in_shape.c) * k2(kernel),
            Op::DwConv { kernel, .. } => self.out_shape.elems() * k2(kernel),
            Op::Pool(p) => self.out_shape.elems() * k2(p.kernel),
            Op::Add { .. } => self.out_shape.elems(),
            Op::Concat => self.out_shape.elems(),
            Op::FullyConnected { .. } => self.out_shape.elems() * in_shape.elems(),
            Op::GemPool { .. } => in_shape.elems(),
            Op::Input => 0,
        }
    }
}

/// Aggregate statistics of a network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Non-input nodes.
    pub layers: usize,
    /// Convolution nodes (incl. depthwise and FC).
    pub conv_layers: usize,
    /// Total MACs.
    pub macs: u64,
    /// Total parameter bytes (int8).
    pub param_bytes: u64,
    /// Total activation bytes (every node output, int8).
    pub activation_bytes: u64,
}

/// A validated CNN computation graph.
///
/// Built through [`crate::NetworkBuilder`]; node ids are topologically
/// ordered by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Network name.
    pub name: String,
    /// Nodes in topological order.
    pub nodes: Vec<Node>,
    /// Designated outputs (at least one).
    pub outputs: Vec<NodeId>,
}

impl Network {
    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics when the id does not belong to this network.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Input shape of a node (first input's output shape; the network
    /// input's own shape for the input node).
    #[must_use]
    pub fn in_shape(&self, id: NodeId) -> Shape3 {
        let node = self.node(id);
        match node.inputs.first() {
            Some(&src) => self.node(src).out_shape,
            None => node.out_shape,
        }
    }

    /// The single input node.
    ///
    /// # Panics
    ///
    /// Panics if the network has no input node (impossible through the
    /// builder).
    #[must_use]
    pub fn input(&self) -> &Node {
        self.nodes.iter().find(|n| matches!(n.op, Op::Input)).expect("network has an input node")
    }

    /// Number of non-input layers.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.nodes.iter().filter(|n| !matches!(n.op, Op::Input)).count()
    }

    /// Number of weighted layers (conv + dwconv + fc).
    #[must_use]
    pub fn conv_layer_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.has_weights()).count()
    }

    /// Total multiply-accumulates over the whole network.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.nodes.iter().map(|n| n.macs(self.in_shape(n.id))).sum()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        let mut s = NetworkStats::default();
        for n in &self.nodes {
            if matches!(n.op, Op::Input) {
                continue;
            }
            let in_shape = self.in_shape(n.id);
            s.layers += 1;
            if n.op.has_weights() {
                s.conv_layers += 1;
            }
            s.macs += n.macs(in_shape);
            s.param_bytes += n.param_bytes(in_shape);
            s.activation_bytes += n.out_shape.bytes();
        }
        s
    }

    /// One-line-per-layer summary table.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "network `{}`", self.name);
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "  {:<4} {:<22} {:<7} -> {:<14} {:>14} MACs",
                n.id.to_string(),
                n.name,
                n.op.kind_name(),
                n.out_shape.to_string(),
                n.macs(self.in_shape(n.id)),
            );
        }
        out
    }

    /// Graphviz DOT rendering of the network (nodes labelled with op kind
    /// and output shape; outputs drawn with a double border).
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  rankdir=TB; node [shape=box, fontname=monospace];");
        for n in &self.nodes {
            let peripheries = if self.outputs.contains(&n.id) { 2 } else { 1 };
            let _ = writeln!(
                out,
                "  {} [label=\"{}\\n{} {}\", peripheries={}];",
                n.id,
                n.name,
                n.op.kind_name(),
                n.out_shape,
                peripheries
            );
            for src in &n.inputs {
                let _ = writeln!(out, "  {} -> {};", src, n.id);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Validates structural invariants (acyclicity by id-ordering, arity,
    /// Add shape agreement, designated outputs exist).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.outputs.is_empty() {
            return Err(ModelError::Invalid("network has no outputs".into()));
        }
        for (idx, n) in self.nodes.iter().enumerate() {
            if n.id.0 != idx {
                return Err(ModelError::Invalid(format!("node {} stored at index {idx}", n.id)));
            }
            if n.inputs.len() != n.op.arity() {
                return Err(ModelError::Invalid(format!(
                    "node {} has {} inputs, op needs {}",
                    n.name,
                    n.inputs.len(),
                    n.op.arity()
                )));
            }
            for &src in &n.inputs {
                if src.0 >= idx {
                    return Err(ModelError::Invalid(format!(
                        "node {} consumes later/self node {src}",
                        n.name
                    )));
                }
            }
            if let Op::GemPool { p: 0 } = n.op {
                return Err(ModelError::Invalid(format!("GeM pool `{}` has exponent 0", n.name)));
            }
            if let Op::Add { .. } = n.op {
                let a = self.node(n.inputs[0]).out_shape;
                let b = self.node(n.inputs[1]).out_shape;
                if a != b {
                    return Err(ModelError::ShapeMismatch(format!(
                        "Add `{}` inputs {a} vs {b}",
                        n.name
                    )));
                }
            }
            if let Op::Concat = n.op {
                let a = self.node(n.inputs[0]).out_shape;
                let b = self.node(n.inputs[1]).out_shape;
                if a.h != b.h || a.w != b.w {
                    return Err(ModelError::ShapeMismatch(format!(
                        "Concat `{}` spatial extents {a} vs {b}",
                        n.name
                    )));
                }
                if n.out_shape.c != a.c + b.c {
                    return Err(ModelError::ShapeMismatch(format!(
                        "Concat `{}` output channels {} != {} + {}",
                        n.name, n.out_shape.c, a.c, b.c
                    )));
                }
            }
        }
        for &o in &self.outputs {
            if o.0 >= self.nodes.len() {
                return Err(ModelError::UnknownNode(o.0));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    fn small_net() -> Network {
        let mut b = NetworkBuilder::new("t", Shape3::new(3, 16, 16));
        let x = b.input_id();
        let c1 = b.conv("c1", x, 8, 3, 1, 1, true).unwrap();
        let c2 = b.conv("c2", c1, 8, 3, 1, 1, false).unwrap();
        let a = b.add("a", c1, c2, true).unwrap();
        b.finish(vec![a]).unwrap()
    }

    #[test]
    fn shapes_inferred() {
        let n = small_net();
        assert_eq!(n.node(NodeId(1)).out_shape, Shape3::new(8, 16, 16));
        assert_eq!(n.in_shape(NodeId(2)), Shape3::new(8, 16, 16));
        assert_eq!(n.layer_count(), 3);
        assert_eq!(n.conv_layer_count(), 2);
    }

    #[test]
    fn stats_add_up() {
        let n = small_net();
        let s = n.stats();
        let conv1_macs = 8 * 16 * 16 * 3 * 9;
        let conv2_macs = 8 * 16 * 16 * 8 * 9;
        let add_macs = 8 * 16 * 16;
        assert_eq!(s.macs, conv1_macs + conv2_macs + add_macs);
        assert_eq!(s.param_bytes, (8 * 3 * 9) + (8 * 8 * 9));
        assert_eq!(n.total_macs(), s.macs);
    }

    #[test]
    fn summary_lists_all_nodes() {
        let n = small_net();
        let s = n.summary();
        assert!(s.contains("c1"));
        assert!(s.contains("add"));
        assert_eq!(s.lines().count(), 1 + n.nodes.len());
    }

    #[test]
    fn validate_passes_for_builder_output() {
        assert_eq!(small_net().validate(), Ok(()));
    }

    /// The fields are public, so a network the builder would refuse can
    /// still be written by hand; `validate` refuses it too.
    #[test]
    fn validate_rejects_a_gem_exponent_of_zero() {
        let mut b = NetworkBuilder::new("t", Shape3::new(3, 16, 16));
        let x = b.input_id();
        let g = b.gem_pool("g", x, 3).unwrap();
        let mut n = b.finish(vec![g]).unwrap();
        assert_eq!(n.validate(), Ok(()));
        n.nodes[g.0].op = Op::GemPool { p: 0 };
        assert!(matches!(n.validate(), Err(ModelError::Invalid(m)) if m.contains("exponent 0")));
    }

    #[test]
    fn dot_export_mentions_every_node_and_edge() {
        let n = small_net();
        let dot = n.to_dot();
        assert!(dot.starts_with("digraph"));
        for node in &n.nodes {
            assert!(dot.contains(&node.name), "missing node `{}`", node.name);
        }
        // One edge line per input reference.
        let edges: usize = n.nodes.iter().map(|x| x.inputs.len()).sum();
        assert_eq!(dot.matches(" -> ").count(), edges);
        // Output node is double-bordered.
        assert!(dot.contains("peripheries=2"));
    }
}
