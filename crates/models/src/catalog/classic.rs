//! Sequential classics: LeNet-5, cuda-convnet ConvNet, AlexNet, VGG-16.
//!
//! Each model is authored as typed IR (`*_ir`) and its `ModelDesc` is
//! obtained by the `Ir → ModelDesc` geometry lowering, so catalog models
//! flow through the same pipeline as trained networks.

use crate::lower::to_model_desc;
use crate::{LayerNode, ModelDesc, ModelIr};

/// LeNet-5 for MNIST (`1×28×28`) as typed IR.
pub fn lenet5_ir() -> ModelIr {
    ModelIr::new(
        "LeNet-5",
        vec![
            LayerNode::conv("C1", 1, 6, 5, 5, 28, 28, 1, 2), // → 28x28
            LayerNode::conv("C3", 6, 16, 5, 5, 14, 14, 1, 0), // → 10x10 (after 2x2 pool)
            LayerNode::fc("F5", 16 * 5 * 5, 120),
            LayerNode::fc("F6", 120, 84),
            LayerNode::fc("F7", 84, 10),
        ],
    )
}

/// LeNet-5 for MNIST (`1×28×28`).
pub fn lenet5() -> ModelDesc {
    to_model_desc(&lenet5_ir()).expect("catalog model has weight layers")
}

/// The cuda-convnet "ConvNet" for CIFAR-10 (`3×32×32`) as typed IR: three
/// 5×5 conv layers with pooling, one FC classifier.
pub fn convnet_ir() -> ModelIr {
    ModelIr::new(
        "ConvNet",
        vec![
            LayerNode::conv("conv1", 3, 32, 5, 5, 32, 32, 1, 2), // → 32x32
            LayerNode::conv("conv2", 32, 32, 5, 5, 16, 16, 1, 2), // → 16x16
            LayerNode::conv("conv3", 32, 64, 5, 5, 8, 8, 1, 2),  // → 8x8
            LayerNode::fc("fc", 64 * 4 * 4, 10),
        ],
    )
}

/// The cuda-convnet "ConvNet" for CIFAR-10 (`3×32×32`).
pub fn convnet() -> ModelDesc {
    to_model_desc(&convnet_ir()).expect("catalog model has weight layers")
}

/// AlexNet for ImageNet (`3×224×224`, the classic Krizhevsky two-tower
/// shapes: C2/C4/C5 are 2-way grouped) as typed IR.
///
/// C1 has stride 4, which makes it ineligible for the centrosymmetric
/// constraint (paper §II-A) — the source of the Fig. 8 C1 behaviour.
pub fn alexnet_ir() -> ModelIr {
    ModelIr::new(
        "AlexNet",
        vec![
            LayerNode::conv("C1", 3, 96, 11, 11, 224, 224, 4, 2), // → 55x55
            LayerNode::grouped("C2", 96, 256, 5, 5, 27, 27, 1, 2, 2), // → 27x27
            LayerNode::conv("C3", 256, 384, 3, 3, 13, 13, 1, 1),  // → 13x13
            LayerNode::grouped("C4", 384, 384, 3, 3, 13, 13, 1, 1, 2),
            LayerNode::grouped("C5", 384, 256, 3, 3, 13, 13, 1, 1, 2),
            LayerNode::fc("FC6", 256 * 6 * 6, 4096),
            LayerNode::fc("FC7", 4096, 4096),
            LayerNode::fc("FC8", 4096, 1000),
        ],
    )
}

/// AlexNet for ImageNet (`3×224×224`).
pub fn alexnet() -> ModelDesc {
    to_model_desc(&alexnet_ir()).expect("catalog model has weight layers")
}

/// VGG-16 for ImageNet (`3×224×224`) as typed IR: thirteen 3×3 conv
/// layers, three FC.
pub fn vgg16_ir() -> ModelIr {
    let mut nodes = Vec::new();
    let blocks: [(usize, usize, usize, usize); 13] = [
        // (c, k, input h/w, index-in-block) flattened per conv layer.
        (3, 64, 224, 1),
        (64, 64, 224, 2),
        (64, 128, 112, 1),
        (128, 128, 112, 2),
        (128, 256, 56, 1),
        (256, 256, 56, 2),
        (256, 256, 56, 3),
        (256, 512, 28, 1),
        (512, 512, 28, 2),
        (512, 512, 28, 3),
        (512, 512, 14, 1),
        (512, 512, 14, 2),
        (512, 512, 14, 3),
    ];
    let mut stage = 1;
    let mut prev_hw = 0;
    for (c, k, hw, idx) in blocks {
        if hw != prev_hw {
            if prev_hw != 0 {
                stage += 1;
            }
            prev_hw = hw;
        }
        nodes.push(LayerNode::conv(
            &format!("conv{stage}_{idx}"),
            c,
            k,
            3,
            3,
            hw,
            hw,
            1,
            1,
        ));
    }
    nodes.push(LayerNode::fc("FC6", 512 * 7 * 7, 4096));
    nodes.push(LayerNode::fc("FC7", 4096, 4096));
    nodes.push(LayerNode::fc("FC8", 4096, 1000));
    ModelIr::new("VGG16", nodes)
}

/// VGG-16 for ImageNet (`3×224×224`).
pub fn vgg16() -> ModelDesc {
    to_model_desc(&vgg16_ir()).expect("catalog model has weight layers")
}

/// VGG-16 adapted for CIFAR-10 (`3×32×32`, 13 conv layers + one FC), the
/// variant in Table II, as typed IR.
pub fn vgg16_cifar_ir() -> ModelIr {
    let mut nodes = Vec::new();
    let blocks: [(usize, usize, usize, usize); 13] = [
        (3, 64, 32, 1),
        (64, 64, 32, 2),
        (64, 128, 16, 1),
        (128, 128, 16, 2),
        (128, 256, 8, 1),
        (256, 256, 8, 2),
        (256, 256, 8, 3),
        (256, 512, 4, 1),
        (512, 512, 4, 2),
        (512, 512, 4, 3),
        (512, 512, 2, 1),
        (512, 512, 2, 2),
        (512, 512, 2, 3),
    ];
    let mut stage = 1;
    let mut prev_hw = 0;
    for (c, k, hw, idx) in blocks {
        if hw != prev_hw {
            if prev_hw != 0 {
                stage += 1;
            }
            prev_hw = hw;
        }
        nodes.push(LayerNode::conv(
            &format!("conv{stage}_{idx}"),
            c,
            k,
            3,
            3,
            hw,
            hw,
            1,
            1,
        ));
    }
    nodes.push(LayerNode::fc("FC", 512, 10));
    ModelIr::new("VGG16-CIFAR", nodes)
}

/// VGG-16 adapted for CIFAR-10 (`3×32×32`).
pub fn vgg16_cifar() -> ModelDesc {
    to_model_desc(&vgg16_cifar_ir()).expect("catalog model has weight layers")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_mac_count_is_canonical() {
        // Classic grouped AlexNet is ~0.66 GMACs conv + ~59 MMACs FC.
        let m = alexnet();
        let conv: u64 = m.conv_layers().map(|l| l.geom.dense_mults()).sum();
        let fc: u64 = m.fc_layers().map(|l| l.geom.dense_mults()).sum();
        assert!((580_000_000..780_000_000).contains(&conv), "conv={conv}");
        assert_eq!(fc, (9216 * 4096 + 4096 * 4096 + 4096 * 1000) as u64);
    }

    #[test]
    fn vgg16_mac_count_is_canonical() {
        // VGG-16 is ~15.3 GMACs of conv.
        let conv: u64 = vgg16().conv_layers().map(|l| l.geom.dense_mults()).sum();
        assert!(
            (14_500_000_000..16_000_000_000).contains(&conv),
            "conv={conv}"
        );
    }

    #[test]
    fn vgg16_weight_count_is_canonical() {
        // ~138 M parameters total, ~14.7 M of them convolutional.
        let m = vgg16();
        let conv: u64 = m.conv_layers().map(|l| l.geom.weights()).sum();
        assert!((14_000_000..15_500_000).contains(&conv), "conv={conv}");
        assert!((130_000_000..145_000_000).contains(&m.weights()));
    }

    #[test]
    fn lenet_layer_chain_is_consistent() {
        let m = lenet5();
        assert_eq!(m.layers[0].geom.output_dim(), (28, 28));
        assert_eq!(m.layers[1].geom.output_dim(), (10, 10));
    }

    #[test]
    fn alexnet_only_c1_is_strided() {
        let m = alexnet();
        let strided: Vec<_> = m
            .conv_layers()
            .filter(|l| l.geom.stride > 1)
            .map(|l| l.name.clone())
            .collect();
        assert_eq!(strided, vec!["C1"]);
    }
}
