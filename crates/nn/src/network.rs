//! Sequential network container.

use cscnn_ir::{IrError, ModelIr};
use cscnn_tensor::Tensor;

use crate::layers::{Conv2d, Layer, Param};

/// A sequential stack of layers.
///
/// # Example
///
/// ```
/// use cscnn_nn::{Network, Relu, Flatten, Linear};
/// use cscnn_tensor::Tensor;
/// use cscnn_rng::rngs::StdRng;
/// use cscnn_rng::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Network::new();
/// net.push(Flatten::new());
/// net.push(Linear::new(&mut rng, 4, 2));
/// net.push(Relu::new());
/// let out = net.forward(&Tensor::zeros(&[1, 1, 2, 2]));
/// assert_eq!(out.shape().dims(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the forward pass through all layers, caching for backward.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.forward_observed(input, |_, _, _| {})
    }

    /// Runs the forward pass, invoking `observe(layer_index, layer_name,
    /// input)` with each layer's *input* tensor before that layer runs.
    /// Used to extract measured activation sparsity for the simulator.
    pub fn forward_observed(
        &mut self,
        input: &Tensor,
        mut observe: impl FnMut(usize, &'static str, &Tensor),
    ) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        observe(0, first.name(), input);
        let mut x = first.forward(input);
        for (i, layer) in rest.iter_mut().enumerate() {
            observe(i + 1, layer.name(), &x);
            x = layer.forward(&x);
        }
        x
    }

    /// Runs the backward pass, filling every parameter gradient; must
    /// follow a `forward` call. The first layer runs
    /// [`Layer::backward_params`]: nothing reads the gradient w.r.t. the
    /// network input, so it is not computed.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_out.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    /// All trainable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Shared view of all trainable parameters.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Iterates over the conv layers (used by the centrosymmetric and
    /// pruning passes).
    pub fn conv_layers_mut(&mut self) -> impl Iterator<Item = &mut Conv2d> {
        self.layers.iter_mut().filter_map(|l| l.as_conv_mut())
    }

    /// Iterates over the fully-connected layers (used by the pruning pass).
    pub fn linear_layers_mut(&mut self) -> impl Iterator<Item = &mut crate::layers::Linear> {
        self.layers.iter_mut().filter_map(|l| l.as_linear_mut())
    }

    /// Borrows layer `i` as a trait object (reach concrete types through
    /// the typed accessors [`Layer::as_conv_mut`] / [`Layer::as_linear_mut`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn layer_mut(&mut self, i: usize) -> &mut dyn Layer {
        self.layers[i].as_mut()
    }

    /// Shared borrow of layer `i` as a trait object.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn layer(&self, i: usize) -> &dyn Layer {
        self.layers[i].as_ref()
    }

    /// Lowers this network to typed IR (`Network → Ir`).
    ///
    /// Runs a zero-valued probe batch of shape `[1, c, h, w]` through the
    /// network to observe every layer's input shape, then asks each layer
    /// to [`Layer::describe`] itself. Nodes are named `L{i}` after their
    /// layer index so lowering errors and simulator reports can point back
    /// to the offending layer.
    ///
    /// # Errors
    ///
    /// [`IrError::UnsupportedLayer`] naming the offending layer when a
    /// layer rejects its observed input shape.
    pub fn to_ir(
        &mut self,
        name: &str,
        input_chw: (usize, usize, usize),
    ) -> Result<ModelIr, IrError> {
        let (c, h, w) = input_chw;
        let probe = Tensor::zeros(&[1, c, h, w]);
        let mut shapes: Vec<Vec<usize>> = Vec::with_capacity(self.layers.len());
        let _ = self.forward_observed(&probe, |_, _, input| {
            shapes.push(input.shape().dims().to_vec());
        });
        let mut ir = ModelIr::new(name, Vec::new());
        for (i, shape) in shapes.iter().enumerate() {
            let node = self
                .layer(i)
                .describe(shape)
                .map_err(|e| IrError::UnsupportedLayer {
                    layer: format!("L{i}"),
                    kind: e.kind.to_string(),
                    reason: e.reason,
                })?;
            ir.nodes.push(node.with_name(&format!("L{i}")));
        }
        Ok(ir)
    }

    /// Layer kind names, in order (useful for debugging and reports).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Relu};
    use cscnn_rng::rngs::StdRng;
    use cscnn_rng::SeedableRng;
    use cscnn_tensor::ConvSpec;

    #[test]
    fn forward_backward_shapes_compose() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Network::new();
        net.push(Conv2d::new(
            &mut rng,
            1,
            4,
            ConvSpec::new(3, 3).with_padding(1),
        ));
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(Linear::new(&mut rng, 4 * 6 * 6, 3));
        let x = Tensor::from_fn(&[2, 1, 6, 6], |i| (i as f32 * 0.05).sin());
        let y = net.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 3]);
        // `Network::backward` skips the input gradient; each layer's full
        // `backward`, in reverse, still composes to the input's shape.
        let mut g = Tensor::full(&[2, 3], 1.0);
        for i in (0..net.len()).rev() {
            g = net.layer_mut(i).backward(&g);
        }
        assert_eq!(g.shape().dims(), &[2, 1, 6, 6]);
        assert_eq!(net.params().len(), 4); // conv w/b + linear w/b
    }

    /// Bit patterns of every parameter gradient, in `params` order.
    fn grad_bits(net: &Network) -> Vec<Vec<u32>> {
        net.params()
            .iter()
            .map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// `Network::backward` (first layer through `backward_params`) fills
    /// every parameter gradient with the same bits as each layer's full
    /// `backward` called in reverse order.
    fn assert_backward_matches_full_chain(mut net: Network, x: &Tensor, what: &str) {
        let out = net.forward(x);
        let go = Tensor::from_fn(out.shape().dims(), |i| ((i as f32) * 0.37).sin());
        net.backward(&go);
        let got = grad_bits(&net);
        assert!(
            got[0].iter().any(|&b| b != 0),
            "{what}: first layer got no gradient"
        );
        let _ = net.forward(x);
        let mut g = go;
        for i in (0..net.len()).rev() {
            g = net.layer_mut(i).backward(&g);
        }
        assert_eq!(got, grad_bits(&net), "{what}");
    }

    #[test]
    fn first_layer_skip_keeps_every_parameter_gradient() {
        let image =
            |c: usize, hw: usize| Tensor::from_fn(&[4, c, hw, hw], |i| ((i as f32) * 0.21).sin());
        assert_backward_matches_full_chain(
            crate::models::mobile_cnn(3, 8, 8, 5, 11),
            &image(3, 8),
            "mobile_cnn",
        );
        let mut centro = crate::models::mobile_cnn(3, 8, 8, 5, 12);
        crate::centrosymmetric::centrosymmetrize(&mut centro).expect("finite weights");
        assert_backward_matches_full_chain(centro, &image(3, 8), "centrosymmetric mobile_cnn");
        assert_backward_matches_full_chain(
            crate::models::tiny_cnn(1, 8, 8, 4, 13),
            &image(1, 8),
            "tiny_cnn",
        );
        let mut rng = StdRng::seed_from_u64(14);
        let mut linear_first = Network::new();
        linear_first.push(Linear::new(&mut rng, 12, 6));
        linear_first.push(Relu::new());
        linear_first.push(Linear::new(&mut rng, 6, 3));
        let x = Tensor::from_fn(&[4, 12], |i| ((i as f32) * 0.29).cos());
        assert_backward_matches_full_chain(linear_first, &x, "linear first");
    }

    #[test]
    fn to_ir_names_nodes_by_layer_index() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Network::new();
        net.push(Conv2d::new(
            &mut rng,
            1,
            4,
            ConvSpec::new(3, 3).with_padding(1),
        ));
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(Linear::new(&mut rng, 4 * 6 * 6, 3));
        let ir = net.to_ir("tiny", (1, 6, 6)).expect("network lowers to IR");
        assert_eq!(ir.name, "tiny");
        assert_eq!(ir.nodes.len(), 4);
        assert_eq!(ir.nodes[0].name(), Some("L0"));
        assert_eq!(ir.nodes[3].name(), Some("L3"));
        assert_eq!(ir.num_weight_nodes(), 2);
        assert_eq!(ir.nodes[1].kind_label(), "activation");
    }

    #[test]
    fn conv_layers_mut_finds_only_convs() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Network::new();
        net.push(Conv2d::new(&mut rng, 1, 2, ConvSpec::new(3, 3)));
        net.push(Relu::new());
        net.push(Conv2d::new(&mut rng, 2, 2, ConvSpec::new(3, 3)));
        assert_eq!(net.conv_layers_mut().count(), 2);
        assert_eq!(net.layer_names(), vec!["conv2d", "relu", "conv2d"]);
    }
}
