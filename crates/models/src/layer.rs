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

/// Geometry of one weight-bearing layer.
///
/// Uses the paper's notation: `C`/`K` input/output channels, `R×S` kernel,
/// `H×W` *input* spatial extent.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerDesc {
    /// Human-readable layer name (e.g. `"C1"`, `"conv4_2"`).
    pub name: String,
    /// Layer kind.
    pub kind: LayerKind,
    /// Input channels (`C`).
    pub c: usize,
    /// Output channels (`K`).
    pub k: usize,
    /// Kernel height (`R`).
    pub r: usize,
    /// Kernel width (`S`).
    pub s: usize,
    /// Input feature-map height (`H`).
    pub h: usize,
    /// Input feature-map width (`W`).
    pub w: usize,
    /// Stride (both spatial dims).
    pub stride: usize,
    /// Zero padding (both spatial dims).
    pub padding: usize,
    /// Convolution groups (1 = dense conv; `c` = depthwise).
    pub groups: usize,
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
        assert!(c > 0 && k > 0 && r > 0 && s > 0 && h > 0 && w > 0 && stride > 0 && groups > 0);
        assert!(
            c.is_multiple_of(groups) && k.is_multiple_of(groups),
            "channels must divide groups: c={c} k={k} groups={groups}"
        );
        let geom = ConvGeom {
            c,
            k,
            r,
            s,
            h,
            w,
            stride,
            padding,
            groups,
        };
        let kind = if geom.is_depthwise() {
            LayerKind::Depthwise
        } else {
            LayerKind::Conv
        };
        LayerDesc {
            name: name.to_string(),
            kind,
            c,
            k,
            r,
            s,
            h,
            w,
            stride,
            padding,
            groups,
        }
    }

    /// A fully-connected layer descriptor (`in → out`).
    ///
    /// # Panics
    ///
    /// Panics on zero extents.
    pub fn fc(name: &str, inputs: usize, outputs: usize) -> Self {
        assert!(inputs > 0 && outputs > 0);
        LayerDesc {
            name: name.to_string(),
            kind: LayerKind::FullyConnected,
            c: inputs,
            k: outputs,
            r: 1,
            s: 1,
            h: 1,
            w: 1,
            stride: 1,
            padding: 0,
            groups: 1,
        }
    }

    /// Output spatial extent `(H', W')`.
    pub fn output_dim(&self) -> (usize, usize) {
        let ph = self.h + 2 * self.padding;
        let pw = self.w + 2 * self.padding;
        assert!(
            ph >= self.r && pw >= self.s,
            "layer {}: padded input smaller than kernel",
            self.name
        );
        (
            (ph - self.r) / self.stride + 1,
            (pw - self.s) / self.stride + 1,
        )
    }

    /// Number of output pixels `H'·W'`.
    pub fn output_pixels(&self) -> u64 {
        let (oh, ow) = self.output_dim();
        (oh * ow) as u64
    }

    /// Number of weights (grouping-aware): `K·(C/groups)·R·S`.
    pub fn weights(&self) -> u64 {
        (self.k * (self.c / self.groups) * self.r * self.s) as u64
    }

    /// Dense multiply count per inference: `weights · H'·W'`.
    pub fn dense_mults(&self) -> u64 {
        self.weights() * self.output_pixels()
    }

    /// Whether the centrosymmetric constraint applies (paper §II-A):
    /// unit-stride convolution with a multi-weight kernel. FC layers and
    /// strided convolutions are excluded; `1×1` kernels gain nothing.
    pub fn centro_eligible(&self) -> bool {
        self.kind != LayerKind::FullyConnected && self.stride == 1 && self.r * self.s > 1
    }

    /// Number of independent weights under the centrosymmetric constraint:
    /// `⌈R·S/2⌉` per kernel slice for eligible layers, all weights otherwise.
    pub fn centro_weights(&self) -> u64 {
        if self.centro_eligible() {
            let unique = (self.r * self.s).div_ceil(2);
            (self.k * (self.c / self.groups)) as u64 * unique as u64
        } else {
            self.weights()
        }
    }

    /// Input activation element count `C·H·W`.
    pub fn input_activations(&self) -> u64 {
        (self.c * self.h * self.w) as u64
    }

    /// Output activation element count `K·H'·W'`.
    pub fn output_activations(&self) -> u64 {
        self.k as u64 * self.output_pixels()
    }
}

impl fmt::Display for LayerDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x{}x{}x{} over {}x{} (stride {}, pad {}, groups {})",
            self.name,
            self.k,
            self.c,
            self.r,
            self.s,
            self.h,
            self.w,
            self.stride,
            self.padding,
            self.groups
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
        self.layers.iter().map(|l| l.dense_mults()).sum()
    }

    /// Total weight count.
    pub fn weights(&self) -> u64 {
        self.layers.iter().map(|l| l.weights()).sum()
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
        assert_eq!(c1.output_dim(), (55, 55));
        assert_eq!(c1.weights(), 96 * 3 * 11 * 11);
        assert_eq!(c1.dense_mults(), 96 * 3 * 11 * 11 * 55 * 55);
        assert!(!c1.centro_eligible(), "stride 4 is ineligible");
    }

    #[test]
    fn fc_layer_is_ineligible_and_one_mult_per_weight() {
        let fc = LayerDesc::fc("FC6", 9216, 4096);
        assert!(!fc.centro_eligible());
        assert_eq!(fc.dense_mults(), fc.weights());
        assert_eq!(fc.weights(), 9216 * 4096);
    }

    #[test]
    fn centro_weights_halve_odd_kernels() {
        let conv = LayerDesc::conv("c", 64, 128, 3, 3, 56, 56, 1, 1);
        assert!(conv.centro_eligible());
        // 5 unique of 9 weights.
        assert_eq!(conv.centro_weights(), 128 * 64 * 5);
        let ratio = conv.weights() as f64 / conv.centro_weights() as f64;
        assert!((ratio - 1.8).abs() < 1e-12);
    }

    #[test]
    fn depthwise_detection_and_weight_count() {
        let dw = LayerDesc::grouped("dw", 116, 116, 3, 3, 28, 28, 1, 1, 116);
        assert_eq!(dw.kind, LayerKind::Depthwise);
        assert_eq!(dw.weights(), 116 * 9);
    }

    #[test]
    fn grouped_conv_weight_count() {
        // ResNeXt-style: 256→256, groups 32 → each group 8→8.
        let g = LayerDesc::grouped("gc", 256, 256, 3, 3, 56, 56, 1, 1, 32);
        assert_eq!(g.weights(), 256 * 8 * 9);
        assert_eq!(g.kind, LayerKind::Conv);
    }

    #[test]
    #[should_panic(expected = "channels must divide groups")]
    fn grouped_conv_rejects_indivisible_channels() {
        let _ = LayerDesc::grouped("bad", 10, 10, 3, 3, 8, 8, 1, 1, 3);
    }
}
