//! SGD with momentum and the paper's step learning-rate schedule.

use cscnn_tensor::Tensor;

use crate::layers::Param;

/// Step learning-rate decay: the paper retrains CSCNN models for 30 epochs
/// with the learning rate decaying "by a factor of 5 every 5 epochs".
///
/// # Example
///
/// ```
/// use cscnn_nn::optimizer::LrSchedule;
///
/// let sched = LrSchedule::step(0.1, 5.0, 5);
/// assert!((sched.lr_at(0) - 0.1).abs() < 1e-9);
/// assert!((sched.lr_at(5) - 0.02).abs() < 1e-9);
/// assert!((sched.lr_at(10) - 0.004).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LrSchedule {
    initial: f32,
    decay_factor: f32,
    decay_every: usize,
}

impl LrSchedule {
    /// Decays the rate by `factor` every `every` epochs.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` or `every == 0`.
    pub fn step(initial: f32, factor: f32, every: usize) -> Self {
        assert!(factor >= 1.0, "decay factor must be >= 1");
        assert!(every > 0, "decay interval must be positive");
        LrSchedule {
            initial,
            decay_factor: factor,
            decay_every: every,
        }
    }

    /// Learning rate for a 0-based epoch index.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let steps = (epoch / self.decay_every) as i32;
        self.initial / self.decay_factor.powi(steps)
    }
}

/// Stochastic gradient descent with classical momentum and optional L2
/// weight decay.
///
/// Velocities are kept per parameter and identified positionally, so the
/// same parameter list (same order) must be passed to every [`Sgd::step`].
pub struct Sgd {
    momentum: f32,
    weight_decay: f32,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is not in `[0, 1)` or `weight_decay < 0`.
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        assert!(weight_decay >= 0.0, "weight_decay must be non-negative");
        Sgd {
            momentum,
            weight_decay,
            velocities: Vec::new(),
        }
    }

    /// Applies one update: `v ← μ·v + (g + λ·w)`, `w ← w − lr·v`, then
    /// re-applies pruning masks so pruned weights stay zero.
    ///
    /// # Panics
    ///
    /// Panics if the parameter list's shapes change between calls.
    pub fn step(&mut self, params: &mut [&mut Param], lr: f32) {
        if self.velocities.is_empty() {
            self.velocities = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().dims()))
                .collect();
        }
        assert_eq!(
            self.velocities.len(),
            params.len(),
            "parameter list changed between steps"
        );
        for (p, v) in params.iter_mut().zip(&mut self.velocities) {
            assert_eq!(v.shape(), p.value.shape(), "parameter shape changed");
            let vs = v.as_mut_slice();
            let ws = p.value.as_mut_slice();
            let gs = p.grad.as_slice();
            for i in 0..ws.len() {
                let g = gs[i] + self.weight_decay * ws[i];
                vs[i] = self.momentum * vs[i] + g;
                ws[i] -= lr * vs[i];
            }
            p.enforce_mask();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(vals: &[f32], grads: &[f32]) -> Param {
        let mut p = Param::new(Tensor::from_vec(vals.to_vec(), &[vals.len()]));
        p.grad = Tensor::from_vec(grads.to_vec(), &[grads.len()]);
        p
    }

    #[test]
    fn plain_sgd_descends_gradient() {
        let mut p = param(&[1.0, 2.0], &[0.5, -0.5]);
        let mut opt = Sgd::new(0.0, 0.0);
        opt.step(&mut [&mut p], 0.1);
        assert!((p.value.as_slice()[0] - 0.95).abs() < 1e-6);
        assert!((p.value.as_slice()[1] - 2.05).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut p = param(&[0.0], &[1.0]);
        let mut opt = Sgd::new(0.5, 0.0);
        opt.step(&mut [&mut p], 1.0); // v=1, w=-1
        p.grad = Tensor::from_vec(vec![1.0], &[1]);
        opt.step(&mut [&mut p], 1.0); // v=1.5, w=-2.5
        assert!((p.value.as_slice()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = param(&[10.0], &[0.0]);
        let mut opt = Sgd::new(0.0, 0.1);
        opt.step(&mut [&mut p], 1.0);
        assert!((p.value.as_slice()[0] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn masked_weights_stay_zero_through_updates() {
        let mut p = param(&[1.0, 1.0], &[1.0, 1.0]);
        p.mask = Some(Tensor::from_vec(vec![1.0, 0.0], &[2]));
        p.enforce_mask();
        let mut opt = Sgd::new(0.9, 0.0);
        for _ in 0..5 {
            p.grad = Tensor::from_vec(vec![1.0, 1.0], &[2]);
            opt.step(&mut [&mut p], 0.1);
        }
        assert_eq!(p.value.as_slice()[1], 0.0);
        assert!(p.value.as_slice()[0] < 1.0);
    }

    #[test]
    fn schedule_matches_paper_configuration() {
        // 30 epochs, decay by 5 every 5 epochs.
        let s = LrSchedule::step(0.01, 5.0, 5);
        assert!((s.lr_at(4) - 0.01).abs() < 1e-9);
        assert!((s.lr_at(29) - 0.01 / 5.0_f32.powi(5)).abs() < 1e-12);
    }
}
