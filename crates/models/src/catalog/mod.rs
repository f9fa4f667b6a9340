//! Shape catalogs of the benchmark CNNs.
//!
//! Each model is authored as typed IR: the `*_ir` function returns a
//! [`crate::ModelIr`] and the plain function lowers it to a
//! [`crate::ModelDesc`] listing every weight-bearing layer of the network
//! with its exact geometry, from which MAC counts, storage and simulator
//! workloads are derived. Shapes follow the canonical published
//! architectures (torchvision conventions where the paper does not
//! specify).

mod classic;
mod extra;
mod mobile;
mod resnet;

pub use classic::{
    alexnet, alexnet_ir, convnet, convnet_ir, lenet5, lenet5_ir, vgg16, vgg16_cifar,
    vgg16_cifar_ir, vgg16_ir,
};
pub use extra::{googlenet, googlenet_ir, mobilenet_v1, mobilenet_v1_ir};
pub use mobile::{
    efficientnet_b7, efficientnet_b7_ir, shufflenet_v2, shufflenet_v2_ir, squeezenet, squeezenet_ir,
};
pub use resnet::{
    resnet152, resnet152_ir, resnet18, resnet18_ir, resnet50, resnet50_ir, resnext101,
    resnext101_ir, wide_resnet28_10, wide_resnet28_10_ir,
};

use crate::ModelDesc;

/// All ImageNet-scale models used in the accelerator evaluation (Fig. 7/9).
pub fn evaluation_suite() -> Vec<ModelDesc> {
    vec![
        lenet5(),
        convnet(),
        alexnet(),
        vgg16(),
        resnet18(),
        resnet50(),
        resnet152(),
        shufflenet_v2(),
        efficientnet_b7(),
    ]
}

/// Looks a model up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<ModelDesc> {
    let lower = name.to_ascii_lowercase();
    let model = match lower.as_str() {
        "lenet5" | "lenet-5" => lenet5(),
        "convnet" => convnet(),
        "alexnet" => alexnet(),
        "vgg16" | "vgg-16" => vgg16(),
        "vgg16-cifar" => vgg16_cifar(),
        "resnet18" | "resnet-18" => resnet18(),
        "resnet50" | "resnet-50" => resnet50(),
        "resnet152" | "resnet-152" => resnet152(),
        "resnext101" | "resnext-101" => resnext101(),
        "wideresnet" | "wrn-28-10" => wide_resnet28_10(),
        "squeezenet" => squeezenet(),
        "googlenet" => googlenet(),
        "mobilenet" | "mobilenetv1" | "mobilenet-v1" => mobilenet_v1(),
        "shufflenetv2" | "shufflenet-v2" => shufflenet_v2(),
        "efficientnetb7" | "efficientnet-b7" => efficientnet_b7(),
        _ => return None,
    };
    Some(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_resolves_aliases() {
        assert_eq!(by_name("AlexNet").map(|m| m.name), Some("AlexNet".into()));
        assert_eq!(
            by_name("resnet-50").map(|m| m.name),
            Some("ResNet-50".into())
        );
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn evaluation_suite_has_nine_models() {
        assert_eq!(evaluation_suite().len(), 9);
    }

    /// Spatial chaining sanity for *sequential* models: each conv layer's
    /// input extent must be producible from the previous layer's output
    /// (allowing pooling — i.e. input never larger than previous output).
    /// Branchy models (ResNets etc.) list parallel branches in sequence, so
    /// the monotonicity argument only applies to the sequential catalogs.
    #[test]
    fn layer_chains_never_grow_spatially() {
        for model in [lenet5(), convnet(), alexnet(), vgg16(), vgg16_cifar()] {
            let mut prev: Option<(usize, usize)> = None;
            for layer in model.conv_layers() {
                if let Some((ph, pw)) = prev {
                    assert!(
                        layer.geom.h <= ph && layer.geom.w <= pw,
                        "{}/{}: input {}x{} grew beyond previous output {}x{}",
                        model.name,
                        layer.name,
                        layer.geom.h,
                        layer.geom.w,
                        ph,
                        pw
                    );
                }
                prev = Some(layer.geom.output_dim());
            }
        }
    }
}
