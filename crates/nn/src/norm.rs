//! Batch normalization and average-pooling layers.

use cscnn_ir::{DescribeError, LayerNode, PoolKind};
use cscnn_tensor::{avg_pool2d, avg_pool2d_backward, PoolSpec, Tensor};

use crate::layers::{Layer, Param};

/// 2-D batch normalization over `[N, C, H, W]` with learnable scale/shift
/// and running statistics for evaluation.
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    training: bool,
    cache: Option<BnCache>,
}

struct BnCache {
    normalized: Tensor,
    std_inv: Vec<f32>,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::full(&[channels], 1.0)),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            training: true,
            cache: None,
        }
    }

    /// Switches between training (batch statistics) and evaluation
    /// (running statistics) modes.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }
}

impl Layer for BatchNorm2d {
    #[allow(clippy::needless_range_loop)] // strided plane indexing is clearer than iterators here
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let dims = input.shape().dims().to_vec();
        assert_eq!(dims.len(), 4, "BatchNorm2d expects [N,C,H,W]");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let src = input.as_slice();
        let mut out = Tensor::zeros(&dims);
        let mut normalized = Tensor::zeros(&dims);
        let mut std_inv = vec![0.0f32; c];
        for ci in 0..c {
            let (mean, var) = if self.training {
                let mut sum = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    sum += src[base..base + plane]
                        .iter()
                        .map(|&x| x as f64)
                        .sum::<f64>();
                }
                let mean = (sum / count as f64) as f32;
                let mut var_sum = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    var_sum += src[base..base + plane]
                        .iter()
                        .map(|&x| ((x - mean) as f64).powi(2))
                        .sum::<f64>();
                }
                let var = (var_sum / count as f64) as f32;
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ci], self.running_var[ci])
            };
            let inv = 1.0 / (var + self.eps).sqrt();
            std_inv[ci] = inv;
            let g = self.gamma.value.as_slice()[ci];
            let b = self.beta.value.as_slice()[ci];
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    let x_hat = (src[i] - mean) * inv;
                    normalized.as_mut_slice()[i] = x_hat;
                    out.as_mut_slice()[i] = g * x_hat + b;
                }
            }
        }
        if self.training {
            self.cache = Some(BnCache {
                normalized,
                std_inv,
                dims,
            });
        }
        out
    }

    #[allow(clippy::needless_range_loop)] // strided plane indexing is clearer than iterators here
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward called before forward");
        let dims = cache.dims;
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let go = grad_out.as_slice();
        let x_hat = cache.normalized.as_slice();
        let mut grad_in = Tensor::zeros(&dims);
        let mut d_gamma = Tensor::zeros(&[c]);
        let mut d_beta = Tensor::zeros(&[c]);
        for ci in 0..c {
            // Channel-wise sums for the batch-norm backward identity.
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    sum_dy += go[i] as f64;
                    sum_dy_xhat += (go[i] * x_hat[i]) as f64;
                }
            }
            d_beta.as_mut_slice()[ci] = sum_dy as f32;
            d_gamma.as_mut_slice()[ci] = sum_dy_xhat as f32;
            let g = self.gamma.value.as_slice()[ci];
            let inv = cache.std_inv[ci];
            let k1 = (sum_dy / count as f64) as f32;
            let k2 = (sum_dy_xhat / count as f64) as f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    grad_in.as_mut_slice()[i] = g * inv * (go[i] - k1 - x_hat[i] * k2);
                }
            }
        }
        self.gamma.grad = d_gamma;
        self.beta.grad = d_beta;
        grad_in
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn describe(&self, input: &[usize]) -> Result<LayerNode, DescribeError> {
        let channels = self.gamma.value.len();
        if input.len() != 4 {
            return Err(DescribeError::new(
                "batchnorm2d",
                format!("expected rank-4 [N,C,H,W] input, got rank {}", input.len()),
            ));
        }
        if input[1] != channels {
            return Err(DescribeError::new(
                "batchnorm2d",
                format!("input has {} channels, layer expects {channels}", input[1]),
            ));
        }
        Ok(LayerNode::Norm { channels })
    }
}

/// Average-pooling layer.
pub struct AvgPool {
    spec: PoolSpec,
    cached_dims: Option<Vec<usize>>,
}

impl AvgPool {
    /// Creates an average-pooling layer.
    pub fn new(spec: PoolSpec) -> Self {
        AvgPool {
            spec,
            cached_dims: None,
        }
    }
}

impl Layer for AvgPool {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_dims = Some(input.shape().dims().to_vec());
        avg_pool2d(input, &self.spec)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .cached_dims
            .take()
            .expect("backward called before forward");
        avg_pool2d_backward(grad_out, &dims, &self.spec)
    }

    fn name(&self) -> &'static str {
        "avgpool"
    }

    fn describe(&self, input: &[usize]) -> Result<LayerNode, DescribeError> {
        if input.len() != 4 {
            return Err(DescribeError::new(
                "avgpool",
                format!("expected rank-4 [N,C,H,W] input, got rank {}", input.len()),
            ));
        }
        Ok(LayerNode::Pool {
            kind: PoolKind::Avg,
            window: self.spec.window,
            stride: self.spec.stride,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batchnorm_normalizes_channel_statistics() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::from_fn(&[4, 2, 3, 3], |i| (i as f32 * 0.37).sin() * 3.0 + 1.0);
        let y = bn.forward(&x);
        // Per-channel mean ≈ 0, var ≈ 1 after normalization (γ=1, β=0).
        for ci in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                for p in 0..9 {
                    vals.push(y.as_slice()[(ni * 2 + ci) * 9 + p]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean={mean}");
            assert!((var - 1.0).abs() < 1e-2, "var={var}");
        }
    }

    #[test]
    fn batchnorm_backward_matches_finite_differences() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_fn(&[2, 1, 2, 2], |i| (i as f32 * 0.7).cos());
        // Loss = Σ out²/2 so dL/dout = out.
        let y = bn.forward(&x);
        let grad_in = bn.backward(&y);
        let eps = 1e-3;
        for idx in 0..8 {
            let mut bn2 = BatchNorm2d::new(1);
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp: f32 = bn2
                .forward(&xp)
                .as_slice()
                .iter()
                .map(|v| v * v * 0.5)
                .sum();
            let mut bn3 = BatchNorm2d::new(1);
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lm: f32 = bn3
                .forward(&xm)
                .as_slice()
                .iter()
                .map(|v| v * v * 0.5)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad_in.as_slice()[idx]).abs() < 2e-2,
                "idx={idx}: fd={fd} an={}",
                grad_in.as_slice()[idx]
            );
        }
    }

    #[test]
    fn eval_mode_uses_running_statistics() {
        let mut bn = BatchNorm2d::new(1);
        // Train on data with mean 5 to build running stats.
        for _ in 0..50 {
            let x = Tensor::from_fn(&[8, 1, 2, 2], |i| 5.0 + ((i * 13 % 7) as f32 - 3.0) * 0.1);
            let _ = bn.forward(&x);
        }
        bn.set_training(false);
        // A batch with a very different mean must be normalized with the
        // *running* mean, not its own.
        let shifted = Tensor::full(&[2, 1, 2, 2], 5.0);
        let y = bn.forward(&shifted);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / y.len() as f32;
        assert!(
            mean.abs() < 0.5,
            "running stats should center 5.0 near 0, got {mean}"
        );
    }

    #[test]
    fn avgpool_layer_round_trips_gradient_mass() {
        let mut pool = AvgPool::new(PoolSpec::new(2));
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let y = pool.forward(&x);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        let g = pool.backward(&Tensor::full(&[1, 1, 2, 2], 1.0));
        // Gradient mass is preserved.
        assert!((g.sum() - 4.0).abs() < 1e-6);
    }
}
