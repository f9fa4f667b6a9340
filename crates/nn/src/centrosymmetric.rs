//! The CSCNN centrosymmetric training pass (paper §II-B).
//!
//! Converting a pre-trained conventional network into a CSCNN model is a
//! two-step process:
//!
//! 1. [`centrosymmetrize`] — project every *eligible* conv layer's filters
//!    with the Eq. 5 mean initialization and turn on Eq. 7 gradient tying in
//!    that layer. Eligibility (paper §II-A): convolutional layers with unit
//!    stride; FC layers and strided convolutions are skipped because the
//!    structured reuse does not apply there.
//! 2. Retrain the network (the usual [`crate::trainer::Trainer`] loop); the
//!    tied gradients keep the structure intact while recovering accuracy.

use cscnn_ir::IrError;
use cscnn_sparse::centro;
use cscnn_tensor::Tensor;

use crate::layers::Conv2d;
use crate::Network;

/// Whether a conv layer is eligible for the centrosymmetric constraint
/// ([`centro::is_eligible`]: unit stride and a multi-weight kernel).
pub fn is_eligible(conv: &Conv2d) -> bool {
    let spec = conv.spec();
    centro::is_eligible(spec.stride, spec.kernel_h, spec.kernel_w)
}

/// Projects one conv layer's filters with the Eq. 5 mean initialization and
/// enables gradient tying. Returns `false` (and does nothing) when the layer
/// is not eligible.
pub fn centrosymmetrize_conv(conv: &mut Conv2d) -> bool {
    if !is_eligible(conv) {
        return false;
    }
    let dims = conv.weight().value.shape().dims().to_vec();
    let (k, c, r, s) = (dims[0], dims[1], dims[2], dims[3]);
    let mut new = conv.weight().value.as_slice().to_vec();
    for slice_idx in 0..k * c {
        let base = slice_idx * r * s;
        let projected = centro::project_mean(&new[base..base + r * s], r, s);
        new[base..base + r * s].copy_from_slice(&projected);
    }
    // Construction-site invariant (Eq. 2): every slice of the new weight
    // tensor must satisfy W(u,v) == W(R-1-u,S-1-v) exactly before the layer
    // is flagged centrosymmetric.
    debug_assert!(
        new.chunks_exact(r * s)
            .all(|slice| centro::is_centrosymmetric(slice, r, s, 0.0)),
        "centrosymmetrize_conv produced a non-centrosymmetric filter"
    );
    conv.weight_mut().value = Tensor::from_vec(new, &dims);
    conv.set_centrosymmetric(true);
    true
}

/// Applies [`centrosymmetrize_conv`] to every conv layer in the network;
/// returns the number of layers converted.
///
/// # Errors
///
/// [`IrError::NonFiniteWeights`] naming the offending layer (`L{i}` by
/// network index) when a conv layer's weights contain NaN/infinite values
/// — projecting such a filter would silently spread the poison across its
/// dual positions.
pub fn centrosymmetrize(net: &mut Network) -> Result<usize, IrError> {
    let mut converted = 0;
    for i in 0..net.len() {
        let Some(conv) = net.layer_mut(i).as_conv_mut() else {
            continue;
        };
        if !conv.weight().value.as_slice().iter().all(|x| x.is_finite()) {
            return Err(IrError::NonFiniteWeights {
                layer: format!("L{i}"),
                kind: "conv2d".to_string(),
            });
        }
        converted += usize::from(centrosymmetrize_conv(conv));
    }
    Ok(converted)
}

/// Verifies that every centrosymmetric-flagged conv layer still satisfies
/// Eq. 2 within `tol`. Used by tests and as a training-time invariant check.
pub fn check_invariant(net: &mut Network, tol: f32) -> bool {
    for conv in net.conv_layers_mut() {
        if !conv.is_centrosymmetric() {
            continue;
        }
        let dims = conv.weight().value.shape().dims().to_vec();
        let (k, c, r, s) = (dims[0], dims[1], dims[2], dims[3]);
        let w = conv.weight().value.as_slice();
        for slice_idx in 0..k * c {
            let base = slice_idx * r * s;
            if !centro::is_centrosymmetric(&w[base..base + r * s], r, s, tol) {
                return false;
            }
        }
    }
    true
}

/// Counts the multiplications a network's conv layers require per inference
/// under three regimes, mirroring the "Multiplication Reduction" columns of
/// Tables II/III (weight-driven only — zero activations are deliberately not
/// counted, as the paper's footnote specifies).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MultCount {
    /// Dense multiplications (all weights).
    pub dense: u64,
    /// After the centrosymmetric constraint (unique weights only, in
    /// eligible layers).
    pub centrosymmetric: u64,
    /// After centrosymmetric + pruning (unique *non-zero* weights).
    pub pruned: u64,
}

impl MultCount {
    /// `dense / centrosymmetric` — the CSCNN-only reduction factor.
    pub fn centro_reduction(&self) -> f64 {
        self.dense as f64 / self.centrosymmetric as f64
    }

    /// `dense / pruned` — the CSCNN+Pruning reduction factor.
    pub fn pruned_reduction(&self) -> f64 {
        self.dense as f64 / self.pruned as f64
    }
}

/// Computes [`MultCount`] for a trained network given the spatial input size
/// of each conv layer (`inputs[i]` is the `(h, w)` fed to the i-th conv
/// layer, in network order).
///
/// # Errors
///
/// [`IrError::MissingConvInput`] naming the starved layer (`L{i}` by
/// network index) when `inputs` has fewer entries than there are conv
/// layers.
pub fn count_multiplications(
    net: &mut Network,
    inputs: &[(usize, usize)],
) -> Result<MultCount, IrError> {
    let mut out = MultCount::default();
    let mut idx = 0;
    for i in 0..net.len() {
        let Some(conv) = net.layer_mut(i).as_conv_mut() else {
            continue;
        };
        let Some(&(h, w)) = inputs.get(idx) else {
            return Err(IrError::MissingConvInput {
                layer: format!("L{i}"),
            });
        };
        idx += 1;
        let geom = conv.geom(h, w);
        let pixels = geom.output_pixels();
        out.dense += geom.dense_mults();
        let (k, c, r, s) = (geom.k, geom.c / geom.groups, geom.r, geom.s);
        let eligible = conv.is_centrosymmetric();
        let unique_per_slice = if eligible {
            centro::unique_weight_count(r, s) as u64
        } else {
            (r * s) as u64
        };
        out.centrosymmetric += (k * c) as u64 * unique_per_slice * pixels;
        // Pruned: count unique non-zero weights.
        let wv = conv.weight().value.as_slice();
        let mut nnz_unique: u64 = 0;
        for slice_idx in 0..k * c {
            let base = slice_idx * r * s;
            let slice = &wv[base..base + r * s];
            if eligible {
                nnz_unique += centro::unique_positions(r, s)
                    .iter()
                    .filter(|&&(u, v)| slice[u * s + v] != 0.0)
                    .count() as u64;
            } else {
                nnz_unique += slice.iter().filter(|x| **x != 0.0).count() as u64;
            }
        }
        out.pruned += nnz_unique * pixels;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscnn_rng::rngs::StdRng;
    use cscnn_rng::SeedableRng;
    use cscnn_tensor::ConvSpec;

    fn conv(stride: usize, kernel: usize) -> Conv2d {
        let mut rng = StdRng::seed_from_u64(11);
        Conv2d::new(
            &mut rng,
            2,
            3,
            ConvSpec::new(kernel, kernel).with_stride(stride),
        )
    }

    #[test]
    fn unit_stride_layers_are_eligible() {
        assert!(is_eligible(&conv(1, 3)));
        assert!(!is_eligible(&conv(2, 3)), "strided conv must be skipped");
        assert!(!is_eligible(&conv(1, 1)), "1x1 conv gains nothing");
        assert!(is_eligible(&conv(1, 2)), "even kernels pair every weight");
    }

    #[test]
    fn projection_makes_filters_centrosymmetric() {
        let mut c = conv(1, 3);
        assert!(centrosymmetrize_conv(&mut c));
        assert!(c.is_centrosymmetric());
        let w = c.weight().value.as_slice();
        for slice in w.chunks(9) {
            assert!(centro::is_centrosymmetric(slice, 3, 3, 1e-6));
        }
    }

    #[test]
    fn strided_conv_is_left_untouched() {
        let mut c = conv(4, 3);
        let before = c.weight().value.clone();
        assert!(!centrosymmetrize_conv(&mut c));
        assert_eq!(c.weight().value, before);
        assert!(!c.is_centrosymmetric());
    }

    #[test]
    fn network_pass_counts_converted_layers() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Network::new();
        net.push(Conv2d::new(&mut rng, 1, 2, ConvSpec::new(3, 3)));
        net.push(Conv2d::new(
            &mut rng,
            2,
            2,
            ConvSpec::new(3, 3).with_stride(2),
        ));
        net.push(Conv2d::new(&mut rng, 2, 2, ConvSpec::new(5, 5)));
        assert_eq!(centrosymmetrize(&mut net).expect("finite weights"), 2);
        assert!(check_invariant(&mut net, 1e-6));
    }

    #[test]
    fn walkers_name_the_offending_layer() {
        use crate::layers::Relu;
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = Network::new();
        net.push(Relu::new());
        net.push(Conv2d::new(&mut rng, 1, 2, ConvSpec::new(3, 3)));
        let err = count_multiplications(&mut net, &[]).expect_err("no input sizes");
        assert_eq!(err, IrError::MissingConvInput { layer: "L1".into() });
        let conv = net.layer_mut(1).as_conv_mut().expect("conv layer");
        conv.weight_mut().value.as_mut_slice()[0] = f32::NAN;
        let err = centrosymmetrize(&mut net).expect_err("NaN weight");
        assert!(matches!(err, IrError::NonFiniteWeights { .. }));
        assert!(err.to_string().contains("L1"));
    }

    #[test]
    fn mult_count_reduction_is_about_two_for_odd_kernels() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = Network::new();
        net.push(Conv2d::new(
            &mut rng,
            4,
            8,
            ConvSpec::new(3, 3).with_padding(1),
        ));
        centrosymmetrize(&mut net).expect("finite weights");
        let mc = count_multiplications(&mut net, &[(16, 16)]).expect("input sizes provided");
        // 3x3: 9 dense vs 5 unique → 1.8x.
        assert!((mc.centro_reduction() - 1.8).abs() < 1e-9);
        assert_eq!(mc.pruned, mc.centrosymmetric, "no pruning applied yet");
    }
}
