//! Per-layer sparsity profiles.
//!
//! The paper's compression tables report overall multiplication-reduction
//! factors; its simulator consumes per-layer weight/activation densities.
//! Real per-layer numbers are not published, so profiles here are
//! *calibrated*: a plausible depth-dependent shape (early layers denser,
//! deep layers and FC layers much sparser — the universal Deep Compression
//! observation) whose global scale is solved by bisection so the model-level
//! reduction matches the paper's reported factor. See DESIGN.md §2.

use cscnn_ir::{ModelIr, SparsityAnnotation};

use crate::{LayerKind, ModelDesc};

/// Per-layer density assignments for one model under one compression scheme.
#[derive(Clone, Debug, PartialEq)]
pub struct SparsityProfile {
    /// Density of *stored* weights per layer (fraction of non-zeros among
    /// the weights the scheme keeps: all weights for dense/DC, unique
    /// weights for CSCNN schemes).
    pub weight_density: Vec<f64>,
    /// Density of each layer's *input* activations (post-ReLU of the
    /// previous layer; the first layer sees the dense input image).
    pub activation_density: Vec<f64>,
}

impl SparsityProfile {
    /// Fully dense weights with the standard activation profile.
    pub fn dense(model: &ModelDesc) -> Self {
        SparsityProfile {
            weight_density: vec![1.0; model.layers.len()],
            activation_density: activation_profile(model),
        }
    }

    /// Unpruned CSCNN: stored (unique) weights are fully dense; the
    /// reduction comes from the centrosymmetric structure alone.
    pub fn cscnn(model: &ModelDesc) -> Self {
        Self::dense(model)
    }

    /// Deep-Compression magnitude pruning calibrated to `target_reduction`
    /// (overall `dense_mults / pruned_mults`).
    ///
    /// # Panics
    ///
    /// Panics if `target_reduction < 1`.
    pub fn deep_compression(model: &ModelDesc, target_reduction: f64) -> Self {
        assert!(target_reduction >= 1.0, "reduction must be >= 1");
        let keep = calibrate(model, target_reduction, false);
        SparsityProfile {
            weight_density: keep,
            activation_density: activation_profile(model),
        }
    }

    /// CSCNN + pruning calibrated to `target_reduction`: densities apply to
    /// *unique* weights of eligible layers, whose count is already halved
    /// by the structure.
    ///
    /// # Panics
    ///
    /// Panics if `target_reduction` is below the structural reduction the
    /// centrosymmetric constraint alone provides (the pruning keep fraction
    /// would exceed 1).
    pub fn cscnn_pruned(model: &ModelDesc, target_reduction: f64) -> Self {
        assert!(target_reduction >= 1.0, "reduction must be >= 1");
        let keep = calibrate(model, target_reduction, true);
        SparsityProfile {
            weight_density: keep,
            activation_density: activation_profile(model),
        }
    }

    /// Attaches entry `i` of this profile to the `i`-th weight-bearing node
    /// of `ir`, as a [`SparsityAnnotation`] — what `Runner::run_ir` needs
    /// to simulate the IR with these densities.
    ///
    /// Returns `false` and leaves `ir` untouched when the profile does not
    /// hold exactly one entry per weight-bearing node.
    #[must_use]
    pub fn annotate(&self, ir: &mut ModelIr) -> bool {
        let n = ir.num_weight_nodes();
        if self.weight_density.len() != n || self.activation_density.len() != n {
            return false;
        }
        let densities = self.weight_density.iter().zip(&self.activation_density);
        for (node, (&weight_density, &activation_density)) in ir.weight_nodes_mut().zip(densities) {
            node.set_sparsity(SparsityAnnotation {
                weight_density,
                activation_density,
            });
        }
        true
    }
}

/// Depth-dependent input-activation densities: the first layer sees the
/// dense image; deeper layers see increasingly sparse post-ReLU maps
/// (roughly 80 % → 48 % non-zero, the range SCNN/Cnvlutin report for
/// ImageNet CNNs).
pub fn activation_profile(model: &ModelDesc) -> Vec<f64> {
    let n = model.layers.len();
    (0..n)
        .map(|i| {
            if i == 0 {
                1.0
            } else {
                let frac = i as f64 / n.max(2) as f64;
                0.80 - 0.32 * frac
            }
        })
        .collect()
}

/// Relative prunability shape: early conv layers keep more, deep conv
/// layers keep less, FC layers keep far less (Deep Compression's universal
/// finding). Returned values are *relative* multipliers, scaled globally by
/// the calibration.
fn prunability_shape(model: &ModelDesc) -> Vec<f64> {
    let n = model.layers.len();
    model
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let frac = i as f64 / n.max(2) as f64;
            match l.kind {
                LayerKind::FullyConnected => 0.35,
                // Depthwise layers are tiny and sensitive; keep them denser.
                LayerKind::Depthwise => 1.5,
                LayerKind::Conv => 1.3 - 0.6 * frac,
            }
        })
        .collect()
}

/// Solves for per-layer keep fractions achieving the target reduction by
/// bisecting a global scale on the prunability shape.
fn calibrate(model: &ModelDesc, target: f64, centro: bool) -> Vec<f64> {
    let shape = prunability_shape(model);
    let keeps_at = |scale: f64| -> Vec<f64> {
        shape
            .iter()
            .map(|&s| (scale * s).clamp(0.01, 1.0))
            .collect()
    };
    let reduction_at = |keeps: &[f64]| -> f64 {
        let dense: f64 = model
            .layers
            .iter()
            .map(|l| l.geom.dense_mults() as f64)
            .sum();
        let compressed: f64 = model
            .layers
            .iter()
            .zip(keeps)
            .map(|(l, &k)| {
                let stored = if centro {
                    l.geom.centro_weights() as f64
                } else {
                    l.geom.weights() as f64
                };
                stored * k * l.geom.output_pixels() as f64
            })
            .sum();
        dense / compressed
    };
    let mut lo = 0.001f64;
    let mut hi = 1.0f64;
    // reduction is decreasing in scale; check feasibility at scale=1.
    let max_feasible = reduction_at(&keeps_at(lo));
    let min_feasible = reduction_at(&keeps_at(hi));
    assert!(
        target <= max_feasible * 1.0001,
        "target {target} exceeds the feasible reduction {max_feasible:.2} for {}",
        model.name
    );
    if target <= min_feasible {
        // Structure alone (or nothing) already reduces at least this much.
        return keeps_at(hi);
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if reduction_at(&keeps_at(mid)) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    keeps_at(0.5 * (lo + hi))
}

/// Paper-reported multiplication-reduction targets (Tables II and III).
///
/// Returns `(deep_compression, cscnn_pruned)` for known models; models
/// without a published number get representative defaults.
pub fn paper_reduction_targets(model_name: &str) -> (f64, f64) {
    match model_name {
        "LeNet-5" => (3.0, 4.0),
        "ConvNet" => (3.8, 5.8),
        "VGG16-CIFAR" => (5.3, 7.2),
        "WideResNet" => (2.5, 3.0),
        "ResNet-18" => (2.0, 2.8),
        "VGG16" => (3.0, 4.3),
        "AlexNet" => (2.2, 2.9),
        "SqueezeNet" => (4.2, 5.9),
        "ResNeXt-101" => (2.2, 2.9),
        "ResNet-50" => (2.2, 2.8),
        "ResNet-152" => (2.3, 2.7),
        "ShuffleNet-V2" => (2.2, 3.2),
        "EfficientNet-B7" => (3.1, 4.3),
        _ => (2.5, 3.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn activation_profile_starts_dense_and_decays() {
        let m = catalog::vgg16();
        let a = activation_profile(&m);
        assert_eq!(a[0], 1.0);
        assert!(a[1] > *a.last().expect("non-empty"));
        assert!(a.iter().all(|&d| (0.0..=1.0).contains(&d)));
    }

    #[test]
    fn deep_compression_hits_target_reduction() {
        for (model, target) in [
            (catalog::alexnet(), 2.2),
            (catalog::vgg16(), 3.0),
            (catalog::resnet18(), 2.0),
        ] {
            let p = SparsityProfile::deep_compression(&model, target);
            let dense: f64 = model
                .layers
                .iter()
                .map(|l| l.geom.dense_mults() as f64)
                .sum();
            let compressed: f64 = model
                .layers
                .iter()
                .zip(&p.weight_density)
                .map(|(l, &k)| l.geom.weights() as f64 * k * l.geom.output_pixels() as f64)
                .sum();
            let red = dense / compressed;
            assert!(
                (red - target).abs() / target < 0.02,
                "{}: got {red:.3}, want {target}",
                model.name
            );
        }
    }

    #[test]
    fn cscnn_pruned_hits_target_reduction() {
        let model = catalog::vgg16();
        let p = SparsityProfile::cscnn_pruned(&model, 4.3);
        let dense: f64 = model
            .layers
            .iter()
            .map(|l| l.geom.dense_mults() as f64)
            .sum();
        let compressed: f64 = model
            .layers
            .iter()
            .zip(&p.weight_density)
            .map(|(l, &k)| l.geom.centro_weights() as f64 * k * l.geom.output_pixels() as f64)
            .sum();
        let red = dense / compressed;
        assert!((red - 4.3).abs() / 4.3 < 0.02, "got {red:.3}");
    }

    #[test]
    fn fc_layers_are_pruned_harder_than_conv() {
        let model = catalog::alexnet();
        let p = SparsityProfile::deep_compression(&model, 2.2);
        let fc_density = p.weight_density.last().expect("fc layer");
        let conv_density = p.weight_density[1];
        assert!(*fc_density < conv_density);
    }

    #[test]
    fn calibration_is_monotone_in_target() {
        let model = catalog::resnet50();
        let p1 = SparsityProfile::deep_compression(&model, 1.5);
        let p2 = SparsityProfile::deep_compression(&model, 3.0);
        for (a, b) in p1.weight_density.iter().zip(&p2.weight_density) {
            assert!(a >= b, "higher target must prune at least as much");
        }
    }

    #[test]
    fn annotate_fills_weight_nodes_in_order_and_rejects_bad_lengths() {
        let model = catalog::lenet5();
        let p = SparsityProfile::deep_compression(&model, 3.0);
        let mut ir = crate::lower::to_ir(&model);
        assert!(p.annotate(&mut ir));
        for (i, node) in ir.weight_nodes().enumerate() {
            let ann = node.sparsity().expect("annotated");
            assert_eq!(ann.weight_density, p.weight_density[i]);
            assert_eq!(ann.activation_density, p.activation_density[i]);
        }
        let mut bare = crate::lower::to_ir(&model);
        let mut short = p.clone();
        short.weight_density.pop();
        assert!(!short.annotate(&mut bare), "one density short");
        let mut long = p;
        long.activation_density.push(0.5);
        assert!(!long.annotate(&mut bare), "one density over");
        assert!(bare.weight_nodes().all(|n| n.sparsity().is_none()));
    }

    #[test]
    fn targets_exist_for_all_suite_models() {
        for m in catalog::evaluation_suite() {
            let (dc, cp) = paper_reduction_targets(&m.name);
            assert!(dc > 1.0 && cp > 1.0);
        }
    }
}
