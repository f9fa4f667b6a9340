//! Multiplication-reduction arithmetic (the math behind Tables II/III).

use crate::sparsity::{paper_reduction_targets, SparsityProfile};
use crate::ModelDesc;

/// A compression scheme from Table IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompressionScheme {
    /// No compression.
    Dense,
    /// Deep Compression magnitude pruning (Han et al.).
    DeepCompression,
    /// Centrosymmetric filters only (no pruning).
    Cscnn,
    /// Centrosymmetric filters + magnitude pruning.
    CscnnPruning,
}

impl CompressionScheme {
    /// Whether stored-weight counts are halved by the centrosymmetric
    /// structure under this scheme.
    pub fn uses_centrosymmetric(self) -> bool {
        matches!(
            self,
            CompressionScheme::Cscnn | CompressionScheme::CscnnPruning
        )
    }

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            CompressionScheme::Dense => "Dense",
            CompressionScheme::DeepCompression => "Deep compression",
            CompressionScheme::Cscnn => "CSCNN",
            CompressionScheme::CscnnPruning => "CSCNN+Pruning",
        }
    }
}

/// A model paired with a compression scheme and its calibrated sparsity
/// profile — enough to answer every "how many multiplications / weights"
/// question in the compression tables and to feed the simulator.
#[derive(Clone, Debug)]
pub struct ModelCompression {
    /// The network shapes.
    pub model: ModelDesc,
    /// The scheme applied.
    pub scheme: CompressionScheme,
    /// Calibrated per-layer densities.
    pub profile: SparsityProfile,
}

impl ModelCompression {
    /// Builds the scheme's calibrated profile for `model`, using the
    /// paper-reported reduction targets for the pruned schemes.
    pub fn new(model: ModelDesc, scheme: CompressionScheme) -> Self {
        let (dc_target, cp_target) = paper_reduction_targets(&model.name);
        let profile = match scheme {
            CompressionScheme::Dense => SparsityProfile::dense(&model),
            CompressionScheme::Cscnn => SparsityProfile::cscnn(&model),
            CompressionScheme::DeepCompression => {
                SparsityProfile::deep_compression(&model, dc_target)
            }
            CompressionScheme::CscnnPruning => SparsityProfile::cscnn_pruned(&model, cp_target),
        };
        ModelCompression {
            model,
            scheme,
            profile,
        }
    }

    /// Stored weights in layer `i` under this scheme (pruning- and
    /// structure-aware).
    pub fn stored_weights(&self, i: usize) -> f64 {
        let l = &self.model.layers[i];
        let base = if self.scheme.uses_centrosymmetric() {
            l.geom.centro_weights() as f64
        } else {
            l.geom.weights() as f64
        };
        base * self.profile.weight_density[i]
    }

    /// Multiplications required for layer `i` (zero-activation savings
    /// deliberately excluded, per the tables' footnote).
    pub fn layer_mults(&self, i: usize) -> f64 {
        self.stored_weights(i) * self.model.layers[i].geom.output_pixels() as f64
    }

    /// Total multiplications for the model under this scheme.
    pub fn total_mults(&self) -> f64 {
        (0..self.model.layers.len())
            .map(|i| self.layer_mults(i))
            .sum()
    }

    /// Overall multiplication-reduction factor vs dense.
    pub fn reduction(&self) -> f64 {
        self.model.dense_mults() as f64 / self.total_mults()
    }

    /// Total stored weight count (for storage comparisons).
    pub fn total_stored_weights(&self) -> f64 {
        (0..self.model.layers.len())
            .map(|i| self.stored_weights(i))
            .sum()
    }

    /// Weight-storage compression factor vs dense.
    pub fn weight_compression(&self) -> f64 {
        self.model.weights() as f64 / self.total_stored_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn vgg16_cscnn_reduction_matches_paper_headline() {
        // All of VGG-16's conv layers are unit-stride 3x3 → exactly 1.8x on
        // conv; FC layers dilute it slightly. Paper reports 1.8x.
        let mc = ModelCompression::new(catalog::vgg16(), CompressionScheme::Cscnn);
        let red = mc.reduction();
        assert!((1.75..=1.80).contains(&red), "red={red:.3}");
    }

    #[test]
    fn alexnet_cscnn_reduction_close_to_paper() {
        // Paper reports 1.5x; C1 (stride 4) and the FC layers are
        // ineligible. Expect ~1.5-1.65.
        let mc = ModelCompression::new(catalog::alexnet(), CompressionScheme::Cscnn);
        let red = mc.reduction();
        assert!((1.45..=1.70).contains(&red), "red={red:.3}");
    }

    #[test]
    fn resnet18_cscnn_reduction_close_to_paper() {
        // Paper reports 1.7x. With torchvision shapes (stride on the first
        // 3x3 of each stage, which disqualifies it) the structural bound is
        // ~1.58; the paper's variant presumably strides elsewhere. Accept
        // the 1.55-1.85 band — ordering vs other schemes is what matters.
        let mc = ModelCompression::new(catalog::resnet18(), CompressionScheme::Cscnn);
        let red = mc.reduction();
        assert!((1.55..=1.85).contains(&red), "red={red:.3}");
    }

    #[test]
    fn pruned_schemes_hit_paper_targets() {
        for model in catalog::evaluation_suite() {
            let (dc_t, cp_t) = paper_reduction_targets(&model.name);
            let dc = ModelCompression::new(model.clone(), CompressionScheme::DeepCompression);
            assert!(
                (dc.reduction() - dc_t).abs() / dc_t < 0.02,
                "{} DC: {} vs {}",
                model.name,
                dc.reduction(),
                dc_t
            );
            let cp = ModelCompression::new(model.clone(), CompressionScheme::CscnnPruning);
            assert!(
                (cp.reduction() - cp_t).abs() / cp_t < 0.02,
                "{} CSCNN+P: {} vs {}",
                model.name,
                cp.reduction(),
                cp_t
            );
        }
    }

    #[test]
    fn dense_scheme_is_identity() {
        let mc = ModelCompression::new(catalog::lenet5(), CompressionScheme::Dense);
        assert!((mc.reduction() - 1.0).abs() < 1e-9);
        assert!((mc.weight_compression() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cscnn_weight_compression_near_two_for_vgg() {
        let mc = ModelCompression::new(catalog::vgg16_cifar(), CompressionScheme::Cscnn);
        // Conv weights halve (1.8x for 3x3); the single small FC barely
        // dilutes it.
        let wc = mc.weight_compression();
        assert!((1.7..=1.85).contains(&wc), "wc={wc:.3}");
    }
}
