//! Deep-Compression-style magnitude pruning (paper §II-C).
//!
//! The paper combines centrosymmetric filters with the pruning pipeline of
//! Han et al.: (1) train, (2) prune weights below a threshold, (3) retrain.
//! For CSCNN layers, dual weights share one value so they are pruned
//! *together*, preserving the centrosymmetric structure (the paper notes the
//! pruned network "will maintain the centrosymmetric structure").
//!
//! Thresholds are chosen per layer from a target keep-fraction (quantile of
//! absolute weight values), mirroring Deep Compression's per-layer
//! sensitivity-derived rates.

use cscnn_ir::IrError;
use cscnn_tensor::Tensor;

use crate::layers::{Conv2d, Linear};
use crate::Network;

/// Per-layer pruning targets: the fraction of weights to *keep* in conv and
/// FC layers respectively.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PruneConfig {
    /// Keep fraction for conv layers (e.g. `0.35` keeps 35 % of weights).
    pub conv_keep: f64,
    /// Keep fraction for fully-connected layers (typically far lower).
    pub fc_keep: f64,
}

impl Default for PruneConfig {
    /// Deep Compression's AlexNet-like defaults: ~35 % of conv weights and
    /// ~10 % of FC weights survive.
    fn default() -> Self {
        PruneConfig {
            conv_keep: 0.35,
            fc_keep: 0.10,
        }
    }
}

/// The absolute-value threshold that keeps `keep` fraction of `values`.
///
/// # Panics
///
/// Panics if `keep` is outside `[0, 1]` or `values` is empty.
pub fn magnitude_threshold(values: &[f32], keep: f64) -> f32 {
    assert!(
        (0.0..=1.0).contains(&keep),
        "keep fraction must be in [0,1]"
    );
    assert!(!values.is_empty(), "cannot derive threshold of empty slice");
    let mut mags: Vec<f32> = values.iter().map(|v| v.abs()).collect();
    mags.sort_by(|a, b| a.partial_cmp(b).expect("NaN weight"));
    let prune_count = ((values.len() as f64) * (1.0 - keep)).round() as usize;
    if prune_count == 0 {
        return -1.0; // keep everything (all |w| > -1)
    }
    if prune_count >= mags.len() {
        return f32::INFINITY;
    }
    // Keep weights strictly above the magnitude of the last pruned weight.
    mags[prune_count - 1]
}

/// Builds a 0/1 mask keeping values with `|w| > threshold`.
pub fn magnitude_mask(values: &Tensor, threshold: f32) -> Tensor {
    values.map(|v| if v.abs() > threshold { 1.0 } else { 0.0 })
}

/// Prunes one conv layer to the target keep fraction, installing a mask and
/// zeroing pruned weights. Returns the achieved keep fraction.
///
/// For centrosymmetric layers the threshold is computed over the canonical
/// half only, and the resulting mask is automatically symmetric because dual
/// weights share the same value (verified in tests).
pub fn prune_conv(conv: &mut Conv2d, keep: f64) -> f64 {
    let threshold = magnitude_threshold(conv.weight().value.as_slice(), keep);
    let mask = magnitude_mask(&conv.weight().value, threshold);
    conv.weight_mut().mask = Some(mask);
    conv.weight_mut().enforce_mask();
    conv.weight().kept_fraction()
}

/// Prunes one FC layer to the target keep fraction. Returns the achieved
/// keep fraction.
pub fn prune_linear(linear: &mut Linear, keep: f64) -> f64 {
    let threshold = magnitude_threshold(linear.weight().value.as_slice(), keep);
    let mask = magnitude_mask(&linear.weight().value, threshold);
    linear.weight_mut().mask = Some(mask);
    linear.weight_mut().enforce_mask();
    linear.weight().kept_fraction()
}

/// Prunes the whole network per [`PruneConfig`]. Returns the overall kept
/// fraction of prunable weights.
///
/// # Errors
///
/// [`IrError::NonFiniteWeights`] naming the offending layer (`L{i}` by
/// network index) when a prunable layer's weights contain NaN/infinite
/// values — a magnitude threshold over such weights is meaningless.
pub fn prune_network(net: &mut Network, config: &PruneConfig) -> Result<f64, IrError> {
    for i in 0..net.len() {
        let layer = net.layer_mut(i);
        let (kind, finite) = if let Some(conv) = layer.as_conv_mut() {
            (
                "conv2d",
                conv.weight().value.as_slice().iter().all(|x| x.is_finite()),
            )
        } else if let Some(linear) = layer.as_linear_mut() {
            (
                "linear",
                linear
                    .weight()
                    .value
                    .as_slice()
                    .iter()
                    .all(|x| x.is_finite()),
            )
        } else {
            continue;
        };
        if !finite {
            return Err(IrError::NonFiniteWeights {
                layer: format!("L{i}"),
                kind: kind.to_string(),
            });
        }
    }
    let mut kept = 0.0f64;
    let mut total = 0.0f64;
    for conv in net.conv_layers_mut() {
        let n = conv.weight().value.len() as f64;
        kept += prune_conv(conv, config.conv_keep) * n;
        total += n;
    }
    for linear in net.linear_layers_mut() {
        let n = linear.weight().value.len() as f64;
        kept += prune_linear(linear, config.fc_keep) * n;
        total += n;
    }
    Ok(if total == 0.0 { 1.0 } else { kept / total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centrosymmetric::centrosymmetrize_conv;
    use cscnn_rng::rngs::StdRng;
    use cscnn_rng::SeedableRng;
    use cscnn_sparse::centro;
    use cscnn_tensor::ConvSpec;

    #[test]
    fn threshold_keeps_requested_fraction() {
        let values: Vec<f32> = (1..=100).map(|x| x as f32).collect();
        let thr = magnitude_threshold(&values, 0.25);
        let kept = values.iter().filter(|v| v.abs() > thr).count();
        assert_eq!(kept, 25);
    }

    #[test]
    fn keep_all_and_keep_none_edge_cases() {
        let values = vec![1.0f32, -2.0, 3.0];
        assert_eq!(magnitude_threshold(&values, 1.0), -1.0);
        let thr0 = magnitude_threshold(&values, 0.0);
        assert!(values.iter().all(|v| v.abs() <= thr0));
    }

    #[test]
    fn pruned_centrosymmetric_layer_keeps_symmetric_mask() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = Conv2d::new(&mut rng, 3, 4, ConvSpec::new(3, 3).with_padding(1));
        centrosymmetrize_conv(&mut conv);
        prune_conv(&mut conv, 0.4);
        // Both the weights and the mask must remain centrosymmetric.
        let w = conv.weight().value.as_slice();
        for slice in w.chunks(9) {
            assert!(centro::is_centrosymmetric(slice, 3, 3, 0.0));
        }
        let m = conv.weight().mask.as_ref().expect("mask installed");
        for slice in m.as_slice().chunks(9) {
            assert!(centro::is_centrosymmetric(slice, 3, 3, 0.0));
        }
    }

    #[test]
    fn achieved_keep_fraction_is_close_to_target() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut conv = Conv2d::new(&mut rng, 8, 16, ConvSpec::new(3, 3));
        let achieved = prune_conv(&mut conv, 0.3);
        assert!((achieved - 0.3).abs() < 0.05, "achieved={achieved}");
    }

    #[test]
    fn prune_network_rejects_non_finite_weights() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut net = Network::new();
        net.push(Conv2d::new(&mut rng, 1, 2, ConvSpec::new(3, 3)));
        let conv = net.layer_mut(0).as_conv_mut().expect("conv layer");
        conv.weight_mut().value.as_mut_slice()[0] = f32::NAN;
        let err = prune_network(&mut net, &PruneConfig::default()).expect_err("NaN weight");
        assert!(matches!(err, IrError::NonFiniteWeights { .. }));
        assert!(err.to_string().contains("L0"));
    }
}
