//! Trained-network → simulator bridge.
//!
//! The paper's simulator "takes the weights and activations extracted from
//! PyTorch as input" (§IV). This module is that extraction for our stack,
//! phrased as explicit IR lowering passes: a trained [`Network`] lowers to
//! typed [`ModelIr`] (`Network → Ir`, via each layer's `Layer::describe`),
//! measured per-layer densities are attached as
//! [`SparsityAnnotation`](cscnn_ir::SparsityAnnotation)s, and the annotated IR drives the simulator
//! (`Ir → LayerWorkload`, via `Runner::run_ir`) — closing the
//! algorithm→hardware loop without any calibrated profile (or `Any`
//! downcast) in between.

use cscnn_ir::{IrError, ModelIr};
use cscnn_models::{lower, ModelDesc, SparsityProfile};
use cscnn_nn::datasets::SyntheticImages;
use cscnn_nn::Network;
use cscnn_sim::{Accelerator, RunStats, Runner, SimError};

/// Activation magnitude below which a value counts as zero when measuring
/// density (post-ReLU zeros are exact; this guards against denormals).
const ZERO_EPS: f32 = 1e-9;

/// A bridge failure: either the network would not lower to IR, or the
/// simulator rejected the lowered workloads.
#[derive(Clone, Debug, PartialEq)]
pub enum BridgeError {
    /// The `Network → Ir` (or `Ir → ModelDesc`) lowering failed.
    Ir(IrError),
    /// The `Ir → LayerWorkload` lowering or the simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::Ir(e) => write!(f, "lowering failed: {e}"),
            BridgeError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<IrError> for BridgeError {
    fn from(e: IrError) -> Self {
        BridgeError::Ir(e)
    }
}

impl From<SimError> for BridgeError {
    fn from(e: SimError) -> Self {
        BridgeError::Sim(e)
    }
}

/// Derives the weight-bearing layer descriptions of a trained network fed
/// with `(channels, height, width)` inputs: `Network → Ir → ModelDesc`.
///
/// # Errors
///
/// [`IrError`] naming the offending layer when the network contains a
/// layer that rejects its observed input shape, or has no weight-bearing
/// layers at all.
pub fn describe_network(
    net: &mut Network,
    name: &str,
    input: (usize, usize, usize),
) -> Result<ModelDesc, IrError> {
    let ir = net.to_ir(name, input)?;
    lower::to_model_desc(&ir)
}

/// Measures per-layer stored-weight and input-activation densities over a
/// batch of real data.
///
/// Weight densities come from each layer's typed
/// [`cscnn_nn::Layer::weight_density`] hook — measured over the *unique*
/// (canonical-half) positions for centrosymmetric conv layers, which is
/// the quantity the simulator's `centro` workloads expect.
pub fn measure_profile(net: &mut Network, data: &SyntheticImages, batch: usize) -> SparsityProfile {
    let indices: Vec<usize> = (0..data.len().min(batch)).collect();
    let (x, _) = data.batch(&indices);
    // Input-activation density of every layer (weight-bearing or not).
    let mut input_density = vec![0.0f64; net.len()];
    let _ = net.forward_observed(&x, |i, _, input| {
        input_density[i] = input.density(ZERO_EPS);
    });
    // Keep the pairs where the layer reports a stored-weight density.
    let mut weight_density = Vec::new();
    let mut activation_density = Vec::new();
    for i in 0..net.len() {
        if let Some(wd) = net.layer(i).weight_density(ZERO_EPS) {
            weight_density.push(wd);
            activation_density.push(input_density[i]);
        }
    }
    SparsityProfile {
        weight_density,
        activation_density,
    }
}

/// Lowers a trained network to typed IR with measured sparsity attached to
/// every weight-bearing node — the input `Runner::run_ir` expects.
///
/// # Errors
///
/// [`IrError`] when the network does not lower (see [`describe_network`]).
pub fn annotated_ir(
    net: &mut Network,
    name: &str,
    input: (usize, usize, usize),
    data: &SyntheticImages,
) -> Result<ModelIr, IrError> {
    let mut ir = net.to_ir(name, input)?;
    // One measured entry per weight-bearing layer, so the counts agree; a
    // mismatch would leave the IR unannotated and `run_ir` would name the
    // first bare layer.
    let annotated = measure_profile(net, data, 16).annotate(&mut ir);
    debug_assert!(annotated, "measured profile covers every weight layer");
    Ok(ir)
}

/// Simulates a *trained* network on an accelerator using measured shapes
/// and densities (no calibrated profiles anywhere in the path):
/// `Network → Ir → LayerWorkload`.
///
/// # Errors
///
/// [`BridgeError`] naming the offending layer when the network does not
/// lower to IR or the simulator rejects the annotated workloads.
pub fn simulate_trained(
    net: &mut Network,
    name: &str,
    input: (usize, usize, usize),
    data: &SyntheticImages,
    accelerator: &dyn Accelerator,
    seed: u64,
) -> Result<RunStats, BridgeError> {
    let ir = annotated_ir(net, name, input, data)?;
    Ok(Runner::new(seed).run_ir(accelerator, &ir)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscnn_nn::centrosymmetric;
    use cscnn_nn::models;
    use cscnn_nn::pruning;
    use cscnn_nn::trainer::{TrainConfig, Trainer};
    use cscnn_sim::{baselines, CartesianAccelerator};

    #[test]
    fn describe_recovers_tiny_cnn_geometry() {
        let mut net = models::tiny_cnn(1, 16, 16, 4, 61);
        let desc = describe_network(&mut net, "tiny", (1, 16, 16)).expect("network lowers");
        assert_eq!(desc.layers.len(), 3); // 2 convs + 1 fc
        assert_eq!(desc.layers[0].geom.c, 1);
        assert_eq!(desc.layers[0].geom.k, 8);
        assert_eq!((desc.layers[0].geom.h, desc.layers[0].geom.w), (16, 16));
        assert_eq!(
            (desc.layers[1].geom.h, desc.layers[1].geom.w),
            (8, 8),
            "after pooling"
        );
        assert_eq!(desc.layers[2].kind, cscnn_models::LayerKind::FullyConnected);
        assert_eq!(desc.layers[2].geom.c, 16 * 4 * 4);
    }

    #[test]
    fn describe_reports_empty_networks() {
        let mut net = Network::new();
        net.push(cscnn_nn::Relu::new());
        net.push(cscnn_nn::Flatten::new());
        let err = describe_network(&mut net, "empty", (1, 4, 4)).expect_err("no weight layers");
        assert_eq!(
            err,
            cscnn_ir::IrError::EmptyModel {
                model: "empty".into()
            }
        );
    }

    #[test]
    fn measured_profile_reflects_pruning_and_relu() {
        let data = SyntheticImages::generate(1, 16, 16, 3, 40, 0.12, 62);
        let (train, test) = data.split(0.25);
        let mut net = models::tiny_cnn(1, 16, 16, 3, 62);
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            ..Default::default()
        });
        let _ = trainer.fit(&mut net, &train, &test);
        let before = measure_profile(&mut net, &test, 16);
        // First layer input is the dense image; deeper inputs are post-ReLU.
        assert!(before.activation_density[0] > 0.95);
        assert!(before.activation_density[1] < 0.95);
        assert!(before.weight_density.iter().all(|&d| d > 0.95), "unpruned");
        // Prune and re-measure: weight densities must drop accordingly.
        for conv in net.conv_layers_mut() {
            pruning::prune_conv(conv, 0.4);
        }
        let after = measure_profile(&mut net, &test, 16);
        assert!(after.weight_density[0] < 0.5);
        assert!(after.weight_density[1] < 0.5);
    }

    #[test]
    fn centrosymmetric_density_is_measured_over_unique_positions() {
        let mut net = models::tiny_cnn(1, 16, 16, 3, 63);
        centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
        let data = SyntheticImages::generate(1, 16, 16, 3, 10, 0.12, 63);
        let profile = measure_profile(&mut net, &data, 8);
        // Unpruned centrosymmetric layers are fully dense over the unique
        // half.
        assert!(profile.weight_density[0] > 0.99);
    }

    #[test]
    fn annotated_ir_carries_measured_sparsity() {
        let data = SyntheticImages::generate(1, 16, 16, 3, 10, 0.12, 65);
        let mut net = models::tiny_cnn(1, 16, 16, 3, 65);
        let ir = annotated_ir(&mut net, "tiny", (1, 16, 16), &data).expect("network lowers");
        assert_eq!(ir.num_weight_nodes(), 3);
        for node in ir.weight_nodes() {
            let ann = node.sparsity().expect("annotated");
            assert!(ann.weight_density > 0.0 && ann.weight_density <= 1.0);
            assert!(ann.activation_density > 0.0 && ann.activation_density <= 1.0);
        }
    }

    #[test]
    fn trained_network_end_to_end_simulation_favors_cscnn() {
        let data = SyntheticImages::generate(1, 16, 16, 3, 40, 0.12, 64);
        let (train, test) = data.split(0.25);
        let mut net = models::tiny_cnn(1, 16, 16, 3, 64);
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            ..Default::default()
        });
        let _ = trainer.fit(&mut net, &train, &test);
        centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
        let _ = trainer.fit(&mut net, &train, &test);
        for conv in net.conv_layers_mut() {
            pruning::prune_conv(conv, 0.5);
        }
        let dcnn = simulate_trained(&mut net, "tiny", (1, 16, 16), &test, &baselines::dcnn(), 7)
            .expect("network simulates");
        let cscnn = simulate_trained(
            &mut net,
            "tiny",
            (1, 16, 16),
            &test,
            &CartesianAccelerator::cscnn(),
            7,
        )
        .expect("network simulates");
        assert!(
            cscnn.speedup_over(&dcnn) > 1.0,
            "measured-profile CSCNN speedup {}",
            cscnn.speedup_over(&dcnn)
        );
    }
}
