//! Layer and model descriptors.

use cscnn_ir::ConvGeom;
use std::fmt;

/// The kind of a weight-bearing layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Standard (possibly grouped) 2-D convolution.
    Conv,
    /// Depthwise convolution (`groups == in_channels`).
    Depthwise,
    /// Fully-connected layer (modeled as `1×1` conv over a `1×1` map).
    FullyConnected,
}

/// One weight-bearing layer: its name, its kind and its geometry.
///
/// All shape arithmetic (output extent, weight and MAC counts,
/// centrosymmetric eligibility) lives on [`ConvGeom`]; an FC layer is the
/// `1×1` conv over a `1×1` map with `c` inputs and `k` outputs.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerDesc {
    /// Human-readable layer name (e.g. `"C1"`, `"conv4_2"`).
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Layer geometry.
    pub geom: ConvGeom,
}

impl LayerDesc {
    /// A standard convolution layer descriptor.
    ///
    /// # Panics
    ///
    /// Panics on zero extents or when `c % groups != 0 || k % groups != 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        name: &str,
        c: usize,
        k: usize,
        r: usize,
        s: usize,
        h: usize,
        w: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self::grouped(name, c, k, r, s, h, w, stride, padding, 1)
    }

    /// A grouped convolution layer descriptor.
    ///
    /// # Panics
    ///
    /// Panics on zero extents or indivisible groups.
    #[allow(clippy::too_many_arguments)]
    pub fn grouped(
        name: &str,
        c: usize,
        k: usize,
        r: usize,
        s: usize,
        h: usize,
        w: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Self {
        Self::from_geom(
            name,
            ConvGeom::new(c, k, r, s, h, w, stride, padding, groups),
        )
    }

    /// A convolution layer descriptor over `geom`: depthwise when
    /// [`ConvGeom::is_depthwise`], a standard conv otherwise.
    pub(crate) fn from_geom(name: &str, geom: ConvGeom) -> Self {
        let kind = if geom.is_depthwise() {
            LayerKind::Depthwise
        } else {
            LayerKind::Conv
        };
        LayerDesc {
            name: name.to_string(),
            kind,
            geom,
        }
    }

    /// A fully-connected layer descriptor (`in → out`).
    ///
    /// # Panics
    ///
    /// Panics on zero extents.
    pub fn fc(name: &str, inputs: usize, outputs: usize) -> Self {
        LayerDesc {
            name: name.to_string(),
            kind: LayerKind::FullyConnected,
            geom: ConvGeom::new(inputs, outputs, 1, 1, 1, 1, 1, 0, 1),
        }
    }

    /// Output activation element count ([`ConvGeom::output_activations`]).
    pub fn output_activations(&self) -> u64 {
        self.geom.output_activations()
    }
}

impl fmt::Display for LayerDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = &self.geom;
        write!(
            f,
            "{}: {}x{}x{}x{} over {}x{} (stride {}, pad {}, groups {})",
            self.name, g.k, g.c, g.r, g.s, g.h, g.w, g.stride, g.padding, g.groups
        )
    }
}

/// A whole benchmark network: its name and weight-bearing layers in order.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelDesc {
    /// Canonical model name (`"AlexNet"`, `"VGG16"`, …).
    pub name: String,
    /// Weight-bearing layers in execution order.
    pub layers: Vec<LayerDesc>,
}

impl ModelDesc {
    /// Creates a model descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(name: &str, layers: Vec<LayerDesc>) -> Self {
        assert!(!layers.is_empty(), "model must have at least one layer");
        ModelDesc {
            name: name.to_string(),
            layers,
        }
    }

    /// Total dense multiply count per inference.
    pub fn dense_mults(&self) -> u64 {
        self.layers.iter().map(|l| l.geom.dense_mults()).sum()
    }

    /// Total weight count.
    pub fn weights(&self) -> u64 {
        self.layers.iter().map(|l| l.geom.weights()).sum()
    }

    /// Convolutional (non-FC) layers only.
    pub fn conv_layers(&self) -> impl Iterator<Item = &LayerDesc> {
        self.layers
            .iter()
            .filter(|l| l.kind != LayerKind::FullyConnected)
    }

    /// Fully-connected layers only.
    pub fn fc_layers(&self) -> impl Iterator<Item = &LayerDesc> {
        self.layers
            .iter()
            .filter(|l| l.kind == LayerKind::FullyConnected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_c1_shape_math() {
        // 96 filters of 11x11x3, stride 4, 224x224 input with pad 2 → 55x55.
        let c1 = LayerDesc::conv("C1", 3, 96, 11, 11, 224, 224, 4, 2);
        assert_eq!(c1.geom.output_dim(), (55, 55));
        assert_eq!(c1.geom.weights(), 96 * 3 * 11 * 11);
        assert_eq!(c1.geom.dense_mults(), 96 * 3 * 11 * 11 * 55 * 55);
        assert!(!c1.geom.centro_eligible(), "stride 4 is ineligible");
    }

    #[test]
    fn fc_layer_is_ineligible_and_one_mult_per_weight() {
        let fc = LayerDesc::fc("FC6", 9216, 4096);
        assert!(!fc.geom.centro_eligible());
        assert_eq!(fc.geom.dense_mults(), fc.geom.weights());
        assert_eq!(fc.geom.weights(), 9216 * 4096);
    }

    #[test]
    fn centro_weights_halve_odd_kernels() {
        let conv = LayerDesc::conv("c", 64, 128, 3, 3, 56, 56, 1, 1);
        assert!(conv.geom.centro_eligible());
        // 5 unique of 9 weights.
        assert_eq!(conv.geom.centro_weights(), 128 * 64 * 5);
        let ratio = conv.geom.weights() as f64 / conv.geom.centro_weights() as f64;
        assert!((ratio - 1.8).abs() < 1e-12);
    }

    #[test]
    fn depthwise_detection_and_weight_count() {
        let dw = LayerDesc::grouped("dw", 116, 116, 3, 3, 28, 28, 1, 1, 116);
        assert_eq!(dw.kind, LayerKind::Depthwise);
        assert_eq!(dw.geom.weights(), 116 * 9);
    }

    #[test]
    fn grouped_conv_weight_count() {
        // ResNeXt-style: 256→256, groups 32 → each group 8→8.
        let g = LayerDesc::grouped("gc", 256, 256, 3, 3, 56, 56, 1, 1, 32);
        assert_eq!(g.geom.weights(), 256 * 8 * 9);
        assert_eq!(g.kind, LayerKind::Conv);
    }

    #[test]
    #[should_panic(expected = "channels must divide groups")]
    fn grouped_conv_rejects_indivisible_channels() {
        let _ = LayerDesc::grouped("bad", 10, 10, 3, 3, 8, 8, 1, 1, 3);
    }
}
