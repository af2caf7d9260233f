//! Fluent construction of [`Network`]s with eager shape inference.

use inca_isa::PoolKind;

use crate::{ModelError, Network, Node, NodeId, Op, PoolOp, Shape3};

/// Builder for [`Network`].
///
/// Every `conv`/`pool`/... call appends a node, infers its output shape and
/// returns its [`NodeId`] for wiring; [`NetworkBuilder::finish`] validates
/// the result.
///
/// ```
/// use inca_model::{NetworkBuilder, Shape3};
///
/// let mut b = NetworkBuilder::new("toy", Shape3::new(3, 32, 32));
/// let x = b.input_id();
/// let c = b.conv("c1", x, 16, 3, 1, 1, true)?;
/// let p = b.max_pool("p1", c, 2, 2, 0)?;
/// let net = b.finish(vec![p])?;
/// assert_eq!(net.node(p).out_shape, Shape3::new(16, 16, 16));
/// # Ok::<(), inca_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    nodes: Vec<Node>,
    input: NodeId,
}

impl NetworkBuilder {
    /// Starts a network with a single input of the given shape.
    #[must_use]
    pub fn new(name: impl Into<String>, input_shape: Shape3) -> Self {
        let input = Node {
            id: NodeId(0),
            name: "input".into(),
            op: Op::Input,
            inputs: vec![],
            out_shape: input_shape,
        };
        Self { name: name.into(), nodes: vec![input], input: NodeId(0) }
    }

    /// The input node's id.
    #[must_use]
    pub fn input_id(&self) -> NodeId {
        self.input
    }

    /// Output shape of an already-added node.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownNode`] when the id has not been added.
    pub fn shape_of(&self, id: NodeId) -> Result<Shape3, ModelError> {
        self.nodes.get(id.0).map(|n| n.out_shape).ok_or(ModelError::UnknownNode(id.0))
    }

    fn push(&mut self, name: &str, op: Op, inputs: Vec<NodeId>, out_shape: Shape3) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { id, name: name.to_owned(), op, inputs, out_shape });
        id
    }

    fn spatial_out(extent: u32, kernel: u8, stride: u8, pad: u8) -> Result<u32, ModelError> {
        let e = i64::from(extent) + 2 * i64::from(pad) - i64::from(kernel);
        if e < 0 || stride == 0 {
            return Err(ModelError::ShapeMismatch(format!(
                "kernel {kernel} (pad {pad}, stride {stride}) larger than extent {extent}"
            )));
        }
        Ok((e / i64::from(stride) + 1) as u32)
    }

    /// Appends a convolution.
    ///
    /// # Errors
    ///
    /// Unknown input node or a kernel that does not fit the input extent.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        &mut self,
        name: &str,
        input: NodeId,
        out_channels: u32,
        kernel: u8,
        stride: u8,
        pad: u8,
        relu: bool,
    ) -> Result<NodeId, ModelError> {
        let s = self.shape_of(input)?;
        let out = Shape3::new(
            out_channels,
            Self::spatial_out(s.h, kernel, stride, pad)?,
            Self::spatial_out(s.w, kernel, stride, pad)?,
        );
        Ok(self.push(name, Op::Conv { out_channels, kernel, stride, pad, relu }, vec![input], out))
    }

    /// Appends a depthwise convolution.
    ///
    /// # Errors
    ///
    /// Unknown input node or a kernel that does not fit the input extent.
    pub fn dw_conv(
        &mut self,
        name: &str,
        input: NodeId,
        kernel: u8,
        stride: u8,
        pad: u8,
        relu: bool,
    ) -> Result<NodeId, ModelError> {
        let s = self.shape_of(input)?;
        let out = Shape3::new(
            s.c,
            Self::spatial_out(s.h, kernel, stride, pad)?,
            Self::spatial_out(s.w, kernel, stride, pad)?,
        );
        Ok(self.push(name, Op::DwConv { kernel, stride, pad, relu }, vec![input], out))
    }

    /// Appends a pooling layer.
    ///
    /// # Errors
    ///
    /// Unknown input node or a window that does not fit the input extent.
    pub fn pool(
        &mut self,
        name: &str,
        input: NodeId,
        kind: PoolKind,
        kernel: u8,
        stride: u8,
        pad: u8,
    ) -> Result<NodeId, ModelError> {
        let s = self.shape_of(input)?;
        let out = Shape3::new(
            s.c,
            Self::spatial_out(s.h, kernel, stride, pad)?,
            Self::spatial_out(s.w, kernel, stride, pad)?,
        );
        Ok(self.push(name, Op::Pool(PoolOp { kind, kernel, stride, pad }), vec![input], out))
    }

    /// Appends a max pooling layer.
    ///
    /// # Errors
    ///
    /// See [`NetworkBuilder::pool`].
    pub fn max_pool(
        &mut self,
        name: &str,
        input: NodeId,
        kernel: u8,
        stride: u8,
        pad: u8,
    ) -> Result<NodeId, ModelError> {
        self.pool(name, input, PoolKind::Max, kernel, stride, pad)
    }

    /// Appends an average pooling layer.
    ///
    /// # Errors
    ///
    /// See [`NetworkBuilder::pool`].
    pub fn avg_pool(
        &mut self,
        name: &str,
        input: NodeId,
        kernel: u8,
        stride: u8,
        pad: u8,
    ) -> Result<NodeId, ModelError> {
        self.pool(name, input, PoolKind::Avg, kernel, stride, pad)
    }

    /// Appends an element-wise addition of two same-shape nodes.
    ///
    /// # Errors
    ///
    /// Unknown inputs or differing shapes.
    pub fn add(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        relu: bool,
    ) -> Result<NodeId, ModelError> {
        let sa = self.shape_of(a)?;
        let sb = self.shape_of(b)?;
        if sa != sb {
            return Err(ModelError::ShapeMismatch(format!("Add `{name}` inputs {sa} vs {sb}")));
        }
        Ok(self.push(name, Op::Add { relu }, vec![a, b], sa))
    }

    /// Appends a channel-axis concatenation of two nodes with identical
    /// spatial extents.
    ///
    /// # Errors
    ///
    /// Unknown inputs or differing spatial extents.
    pub fn concat(&mut self, name: &str, a: NodeId, b: NodeId) -> Result<NodeId, ModelError> {
        let sa = self.shape_of(a)?;
        let sb = self.shape_of(b)?;
        if sa.h != sb.h || sa.w != sb.w {
            return Err(ModelError::ShapeMismatch(format!(
                "Concat `{name}` spatial extents {sa} vs {sb}"
            )));
        }
        let out = Shape3::new(sa.c + sb.c, sa.h, sa.w);
        Ok(self.push(name, Op::Concat, vec![a, b], out))
    }

    /// Appends a fully connected layer (flattens the input).
    ///
    /// # Errors
    ///
    /// Unknown input node.
    pub fn fully_connected(
        &mut self,
        name: &str,
        input: NodeId,
        out_features: u32,
        relu: bool,
    ) -> Result<NodeId, ModelError> {
        let _ = self.shape_of(input)?;
        let out = Shape3::new(out_features, 1, 1);
        Ok(self.push(name, Op::FullyConnected { out_features, relu }, vec![input], out))
    }

    /// Appends a global GeM pooling layer (output `Cx1x1`).
    ///
    /// # Errors
    ///
    /// Unknown input node, or an exponent `p` of 0 (every channel would
    /// pool to the same value whatever its input).
    pub fn gem_pool(&mut self, name: &str, input: NodeId, p: u8) -> Result<NodeId, ModelError> {
        let s = self.shape_of(input)?;
        if p == 0 {
            return Err(ModelError::Invalid(format!("GeM pool `{name}` has exponent 0")));
        }
        Ok(self.push(name, Op::GemPool { p }, vec![input], Shape3::new(s.c, 1, 1)))
    }

    /// Finalises the network with the given designated outputs.
    ///
    /// # Errors
    ///
    /// Propagates [`Network::validate`] failures (e.g. unknown output ids).
    pub fn finish(self, outputs: Vec<NodeId>) -> Result<Network, ModelError> {
        let net = Network { name: self.name, nodes: self.nodes, outputs };
        net.validate()?;
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shapes() {
        let mut b = NetworkBuilder::new("t", Shape3::new(3, 480, 640));
        let x = b.input_id();
        let c = b.conv("c", x, 64, 7, 2, 3, true).unwrap();
        assert_eq!(b.shape_of(c).unwrap(), Shape3::new(64, 240, 320));
    }

    #[test]
    fn pool_shapes() {
        let mut b = NetworkBuilder::new("t", Shape3::new(64, 240, 320));
        let x = b.input_id();
        let p = b.max_pool("p", x, 3, 2, 1).unwrap();
        assert_eq!(b.shape_of(p).unwrap(), Shape3::new(64, 120, 160));
    }

    #[test]
    fn add_rejects_mismatch() {
        let mut b = NetworkBuilder::new("t", Shape3::new(3, 8, 8));
        let x = b.input_id();
        let a = b.conv("a", x, 4, 3, 1, 1, false).unwrap();
        let c = b.conv("c", x, 8, 3, 1, 1, false).unwrap();
        assert!(matches!(b.add("bad", a, c, false), Err(ModelError::ShapeMismatch(_))));
    }

    #[test]
    fn kernel_larger_than_input_is_rejected() {
        let mut b = NetworkBuilder::new("t", Shape3::new(3, 4, 4));
        let x = b.input_id();
        assert!(b.conv("c", x, 4, 7, 1, 0, false).is_err());
    }

    #[test]
    fn fc_and_gem_shapes() {
        let mut b = NetworkBuilder::new("t", Shape3::new(2048, 15, 20));
        let x = b.input_id();
        let g = b.gem_pool("g", x, 3).unwrap();
        assert_eq!(b.shape_of(g).unwrap(), Shape3::new(2048, 1, 1));
        let f = b.fully_connected("f", g, 2048, false).unwrap();
        assert_eq!(b.shape_of(f).unwrap(), Shape3::new(2048, 1, 1));
    }

    #[test]
    fn gem_exponent_zero_is_rejected() {
        let mut b = NetworkBuilder::new("t", Shape3::new(8, 4, 4));
        let x = b.input_id();
        assert!(matches!(b.gem_pool("g", x, 0), Err(ModelError::Invalid(_))));
    }

    #[test]
    fn unknown_node_is_reported() {
        let b = NetworkBuilder::new("t", Shape3::new(1, 1, 1));
        assert_eq!(b.shape_of(NodeId(9)), Err(ModelError::UnknownNode(9)));
    }
}
