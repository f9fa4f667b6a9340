//! High-level co-design pipelines.

use cscnn_models::ModelDesc;
use cscnn_nn::centrosymmetric::{self, MultCount};
use cscnn_nn::datasets::SyntheticImages;
use cscnn_nn::pruning::{self, PruneConfig};
use cscnn_nn::trainer::{evaluate, TrainConfig, Trainer};
use cscnn_nn::{IrError, Network};
use cscnn_sim::{geomean, RunStats, Runner, SimError};

/// Results of the end-to-end algorithm pipeline (paper Fig. 2).
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Test accuracy of the dense baseline after initial training.
    pub baseline_accuracy: f64,
    /// Test accuracy immediately after the Eq. 5 centrosymmetric
    /// projection (before retraining) — the paper's "drops drastically"
    /// data point (99.2 % → 71.6 % for LeNet-5).
    pub post_projection_accuracy: f64,
    /// Test accuracy after centrosymmetric retraining.
    pub retrained_accuracy: f64,
    /// Test accuracy after pruning + final retraining (if pruning ran).
    pub pruned_accuracy: Option<f64>,
    /// Fraction of prunable weights kept by pruning (1.0 if disabled).
    pub kept_fraction: f64,
    /// Multiplication counts of the final network.
    pub mults: MultCount,
}

/// The paper's two-step compression flow (§II-B/§II-C, Fig. 2): train a
/// conventional network, project filters to centrosymmetric form (Eq. 5),
/// retrain with tied gradients (Eq. 7), optionally prune and retrain again.
///
/// # Example
///
/// ```no_run
/// use cscnn::nn::datasets::SyntheticImages;
/// use cscnn::nn::models;
/// use cscnn::nn::trainer::TrainConfig;
/// use cscnn::CompressionPipeline;
///
/// let data = SyntheticImages::generate(1, 16, 16, 4, 100, 0.15, 1);
/// let net = models::tiny_cnn(1, 16, 16, 4, 1);
/// let report = CompressionPipeline::new(TrainConfig::default())
///     .with_pruning(Default::default())
///     .run(net, &data, &models::tiny_cnn_conv_inputs(16, 16))
///     .expect("network lowers");
/// assert!(report.retrained_accuracy > report.post_projection_accuracy);
/// ```
pub struct CompressionPipeline {
    train: TrainConfig,
    prune: Option<PruneConfig>,
}

impl CompressionPipeline {
    /// Creates a pipeline; `train` is used for both the dense phase and the
    /// retraining phases.
    pub fn new(train: TrainConfig) -> Self {
        CompressionPipeline { train, prune: None }
    }

    /// Enables the pruning stage.
    pub fn with_pruning(mut self, config: PruneConfig) -> Self {
        self.prune = Some(config);
        self
    }

    /// Runs the full flow on `net` over `data` (split 80/20 train/test).
    /// `conv_inputs` lists the spatial input extent of each conv layer (for
    /// multiplication counting).
    ///
    /// # Errors
    ///
    /// [`IrError`] naming the offending layer when projection, pruning, or
    /// multiplication counting rejects the network (non-finite weights or
    /// a missing conv-input entry).
    pub fn run(
        &self,
        mut net: Network,
        data: &SyntheticImages,
        conv_inputs: &[(usize, usize)],
    ) -> Result<PipelineReport, IrError> {
        let (train_set, test_set) = data.split(0.2);
        // Phase 1: conventional training.
        let trainer = Trainer::new(self.train);
        let base = trainer.fit(&mut net, &train_set, &test_set);
        // Phase 2: Eq. 5 projection — accuracy collapses.
        centrosymmetric::centrosymmetrize(&mut net)?;
        let post_projection = evaluate(&mut net, &test_set, self.train.batch_size);
        // Phase 3: Eq. 7 retraining recovers accuracy.
        let retrained = trainer.fit(&mut net, &train_set, &test_set);
        // Phase 4 (optional): prune + retrain.
        let (pruned_accuracy, kept_fraction) = if let Some(cfg) = &self.prune {
            let kept = pruning::prune_network(&mut net, cfg)?;
            let rep = trainer.fit(&mut net, &train_set, &test_set);
            (Some(rep.final_test_accuracy), kept)
        } else {
            (None, 1.0)
        };
        debug_assert!(centrosymmetric::check_invariant(&mut net, 1e-4));
        let mults = centrosymmetric::count_multiplications(&mut net, conv_inputs)?;
        Ok(PipelineReport {
            baseline_accuracy: base.final_test_accuracy,
            post_projection_accuracy: post_projection,
            retrained_accuracy: retrained.final_test_accuracy,
            pruned_accuracy,
            kept_fraction,
            mults,
        })
    }
}

/// One accelerator's results relative to the DCNN baseline.
#[derive(Clone, Debug)]
pub struct HardwareComparison {
    /// Accelerator name.
    pub accelerator: String,
    /// Per-model run statistics, in catalog order.
    pub runs: Vec<RunStats>,
    /// Geometric-mean speedup over DCNN.
    pub speedup_over_dcnn: f64,
    /// Geometric-mean on-chip energy gain over DCNN.
    pub energy_gain_over_dcnn: f64,
    /// Geometric-mean EDP gain over DCNN.
    pub edp_gain_over_dcnn: f64,
}

/// Runs the paper's full accelerator comparison (Fig. 7 / Fig. 9) for the
/// given models, returning one [`HardwareComparison`] per accelerator in
/// plotting order (DCNN first, CSCNN last).
///
/// # Errors
///
/// [`SimError::WorkerPanicked`] naming the model whose simulation worker
/// panicked, if any did.
pub fn evaluate_hardware(
    models: &[ModelDesc],
    seed: u64,
) -> Result<Vec<HardwareComparison>, SimError> {
    let runner = Runner::new(seed);
    let accs = cscnn_sim::baselines::evaluation_accelerators();
    let results = runner.run_suite(&accs, models)?;
    Ok((0..accs.len())
        .map(|ai| {
            let runs: Vec<RunStats> = results.iter().map(|row| row[ai].clone()).collect();
            let speedups: Vec<f64> = results
                .iter()
                .map(|row| row[0].total_time_s() / row[ai].total_time_s())
                .collect();
            let energy: Vec<f64> = results
                .iter()
                .map(|row| row[0].total_on_chip_pj() / row[ai].total_on_chip_pj())
                .collect();
            let edp: Vec<f64> = results
                .iter()
                .map(|row| row[0].edp() / row[ai].edp())
                .collect();
            HardwareComparison {
                accelerator: accs[ai].name().to_string(),
                runs,
                speedup_over_dcnn: geomean(&speedups),
                energy_gain_over_dcnn: geomean(&energy),
                edp_gain_over_dcnn: geomean(&edp),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscnn_models::catalog;
    use cscnn_nn::models;

    #[test]
    fn pipeline_reproduces_collapse_and_recovery() {
        let data = SyntheticImages::generate(1, 8, 8, 3, 50, 0.1, 11);
        let net = models::tiny_cnn(1, 8, 8, 3, 11);
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        };
        let report = CompressionPipeline::new(cfg)
            .run(net, &data, &[(8, 8), (4, 4)])
            .expect("network lowers");
        assert!(report.baseline_accuracy > 0.55, "baseline should learn");
        assert!(
            report.retrained_accuracy > report.post_projection_accuracy - 0.05,
            "retraining must not end below the projected network"
        );
        assert!(report.mults.centro_reduction() > 1.5);
    }

    #[test]
    fn hardware_evaluation_orders_accelerators() {
        let comparisons = evaluate_hardware(&[catalog::lenet5()], 5).expect("no worker panics");
        assert_eq!(comparisons.len(), 9);
        assert_eq!(comparisons[0].accelerator, "DCNN");
        assert!((comparisons[0].speedup_over_dcnn - 1.0).abs() < 1e-9);
        let cscnn = comparisons.last().expect("nine accelerators");
        assert_eq!(cscnn.accelerator, "CSCNN");
        assert!(cscnn.speedup_over_dcnn > 1.0);
    }
}
