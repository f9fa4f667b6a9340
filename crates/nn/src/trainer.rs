//! Mini-batch training loop.

use cscnn_rng::rngs::StdRng;
use cscnn_rng::SeedableRng;

use crate::datasets::SyntheticImages;
use crate::metrics::{accuracy, softmax_cross_entropy};
use crate::optimizer::{LrSchedule, Sgd};
use crate::Network;

/// Training hyper-parameters.
///
/// The defaults mirror the paper's retraining configuration scaled down for
/// the proxy tasks: step LR decay by 5× every 5 epochs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// LR decay factor (paper: 5).
    pub lr_decay_factor: f32,
    /// Decay interval in epochs (paper: 5).
    pub lr_decay_every: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay_factor: 5.0,
            lr_decay_every: 5,
            seed: 0,
        }
    }
}

/// Per-epoch statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f64,
    /// Training accuracy (computed on the fly over training batches).
    pub train_accuracy: f64,
    /// Held-out accuracy after this epoch.
    pub test_accuracy: f64,
}

/// The result of a training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Statistics for every epoch.
    pub history: Vec<EpochStats>,
    /// Final training accuracy.
    pub final_train_accuracy: f64,
    /// Final held-out accuracy.
    pub final_test_accuracy: f64,
}

/// Drives mini-batch SGD training of a [`Network`].
///
/// # Example
///
/// ```
/// use cscnn_nn::datasets::SyntheticImages;
/// use cscnn_nn::models;
/// use cscnn_nn::trainer::{TrainConfig, Trainer};
///
/// let data = SyntheticImages::generate(1, 8, 8, 2, 20, 0.1, 0);
/// let (train, test) = data.split(0.25);
/// let mut net = models::tiny_cnn(1, 8, 8, 2, 0);
/// let report = Trainer::new(TrainConfig { epochs: 1, ..Default::default() })
///     .fit(&mut net, &train, &test);
/// assert_eq!(report.history.len(), 1);
/// ```
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Trains `net` on `train`, evaluating on `test` each epoch.
    pub fn fit(
        &self,
        net: &mut Network,
        train: &SyntheticImages,
        test: &SyntheticImages,
    ) -> TrainReport {
        let cfg = &self.config;
        let schedule = LrSchedule::step(cfg.lr, cfg.lr_decay_factor, cfg.lr_decay_every);
        let mut opt = Sgd::new(cfg.momentum, cfg.weight_decay);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut report = TrainReport::default();
        for epoch in 0..cfg.epochs {
            let lr = schedule.lr_at(epoch);
            let indices = train.shuffled_indices(&mut rng);
            let mut loss_sum = 0.0f64;
            let mut acc_sum = 0.0f64;
            let mut batches = 0usize;
            for chunk in indices.chunks(cfg.batch_size) {
                let (x, labels) = train.batch(chunk);
                let logits = net.forward(&x);
                let (loss, grad) = softmax_cross_entropy(&logits, &labels);
                net.backward(&grad);
                let mut params = net.params_mut();
                opt.step(&mut params, lr);
                loss_sum += loss as f64;
                acc_sum += accuracy(&logits, &labels);
                batches += 1;
            }
            let test_accuracy = evaluate(net, test, cfg.batch_size);
            report.history.push(EpochStats {
                epoch,
                train_loss: loss_sum / batches as f64,
                train_accuracy: acc_sum / batches as f64,
                test_accuracy,
            });
        }
        if let Some(last) = report.history.last() {
            report.final_train_accuracy = last.train_accuracy;
            report.final_test_accuracy = last.test_accuracy;
        }
        report
    }
}

/// Accuracy of `net` over a full dataset, evaluated in batches.
pub fn evaluate(net: &mut Network, data: &SyntheticImages, batch_size: usize) -> f64 {
    let indices: Vec<usize> = (0..data.len()).collect();
    let mut correct_weighted = 0.0f64;
    for chunk in indices.chunks(batch_size.max(1)) {
        let (x, labels) = data.batch(chunk);
        let logits = net.forward(&x);
        correct_weighted += accuracy(&logits, &labels) * chunk.len() as f64;
    }
    correct_weighted / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let data = SyntheticImages::generate(1, 8, 8, 3, 40, 0.1, 21);
        let (train, test) = data.split(0.2);
        let mut net = models::tiny_cnn(1, 8, 8, 3, 21);
        let report = Trainer::new(TrainConfig {
            epochs: 6,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        })
        .fit(&mut net, &train, &test);
        let first = report.history.first().expect("history");
        let last = report.history.last().expect("history");
        assert!(last.train_loss < first.train_loss, "loss should fall");
        assert!(
            report.final_test_accuracy > 0.5,
            "should beat 1/3 chance clearly, got {}",
            report.final_test_accuracy
        );
    }

    #[test]
    fn evaluate_handles_uneven_batches() {
        let data = SyntheticImages::generate(1, 8, 8, 2, 7, 0.1, 3);
        let mut net = models::tiny_cnn(1, 8, 8, 2, 3);
        let acc = evaluate(&mut net, &data, 4);
        assert!((0.0..=1.0).contains(&acc));
    }
}
