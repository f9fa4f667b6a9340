//! End-to-end algorithm-side integration test: the paper's Fig. 2 flow
//! (train → Eq. 5 projection → Eq. 7 retraining → pruning → retraining)
//! across `cscnn-nn`, `cscnn-sparse`, and the `cscnn` facade.

use cscnn::nn::centrosymmetric;
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::models;
use cscnn::nn::pruning::PruneConfig;
use cscnn::nn::trainer::TrainConfig;
use cscnn::CompressionPipeline;

fn fast_config() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        batch_size: 16,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        lr_decay_factor: 5.0,
        lr_decay_every: 5,
        seed: 7,
    }
}

#[test]
fn projection_collapses_and_retraining_recovers() {
    let data = SyntheticImages::generate(1, 8, 8, 4, 60, 0.12, 31);
    let net = models::tiny_cnn(1, 8, 8, 4, 31);
    let report = CompressionPipeline::new(fast_config())
        .run(net, &data, &models::tiny_cnn_conv_inputs(8, 8))
        .expect("network lowers");
    // The dense baseline must genuinely learn the task.
    assert!(
        report.baseline_accuracy > 0.6,
        "baseline accuracy {}",
        report.baseline_accuracy
    );
    // Retraining must recover to near the baseline (the paper reports
    // "marginal accuracy loss").
    assert!(
        report.retrained_accuracy > report.baseline_accuracy - 0.15,
        "retrained {} vs baseline {}",
        report.retrained_accuracy,
        report.baseline_accuracy
    );
    // The centrosymmetric structure must deliver the structural reduction.
    assert!(report.mults.centro_reduction() > 1.5);
}

#[test]
fn pruning_composes_with_centrosymmetric_filters() {
    let data = SyntheticImages::generate(1, 8, 8, 3, 60, 0.12, 32);
    let net = models::tiny_cnn(1, 8, 8, 3, 32);
    let report = CompressionPipeline::new(fast_config())
        .with_pruning(PruneConfig {
            conv_keep: 0.5,
            fc_keep: 0.3,
        })
        .run(net, &data, &models::tiny_cnn_conv_inputs(8, 8))
        .expect("network lowers");
    let pruned = report.pruned_accuracy.expect("pruning ran");
    // Pruned-and-retrained accuracy stays within a reasonable band of the
    // retrained model.
    assert!(
        pruned > report.retrained_accuracy - 0.2,
        "pruned {} vs retrained {}",
        pruned,
        report.retrained_accuracy
    );
    // Roughly half the conv weights must be gone.
    assert!(report.kept_fraction < 0.75, "kept {}", report.kept_fraction);
    // Combined reduction beats the structural reduction alone.
    assert!(report.mults.pruned_reduction() > report.mults.centro_reduction());
}

#[test]
fn centrosymmetric_networks_memorize_random_labels() {
    // §II-D's theory note: CSCNNs retain the universal approximation
    // property. A numerical proxy for expressivity: a centrosymmetric
    // network must still be able to *memorize* a small randomly-labeled
    // dataset (fit capacity survives the constraint).
    use cscnn::nn::metrics::softmax_cross_entropy;
    use cscnn::nn::optimizer::Sgd;
    use cscnn::tensor::Tensor;
    use cscnn_rng::Rng;
    use cscnn_rng::SeedableRng;

    let mut rng = cscnn_rng::rngs::StdRng::seed_from_u64(34);
    let n = 16usize;
    let x = Tensor::from_fn(&[n, 1, 8, 8], |_| rng.gen_range(-1.0..1.0f32));
    let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3)).collect();
    let mut net = models::tiny_cnn(1, 8, 8, 3, 34);
    centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
    let mut opt = Sgd::new(0.9, 0.0);
    let mut final_acc = 0.0;
    for _ in 0..300 {
        let logits = net.forward(&x);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        net.backward(&grad);
        let mut params = net.params_mut();
        opt.step(&mut params, 0.02);
        final_acc = cscnn::nn::metrics::accuracy(&net.forward(&x), &labels);
        if final_acc == 1.0 {
            break;
        }
    }
    assert!(
        final_acc > 0.9,
        "constrained network should memorize random labels, got {final_acc}"
    );
    assert!(centrosymmetric::check_invariant(&mut net, 1e-4));
}

#[test]
fn lenet_projection_drop_mirrors_paper_anecdote() {
    // §II-B: LeNet-5 drops drastically after projection and retraining
    // recovers. We reproduce the *shape* on the synthetic digits proxy.
    let data = SyntheticImages::generate(1, 28, 28, 5, 30, 0.15, 33);
    let (train, test) = data.split(0.2);
    let mut net = models::lenet5(5, 33);
    let trainer = cscnn::nn::trainer::Trainer::new(TrainConfig {
        epochs: 4,
        batch_size: 16,
        lr: 0.03,
        ..Default::default()
    });
    let base = trainer.fit(&mut net, &train, &test);
    assert!(base.final_test_accuracy > 0.5, "LeNet proxy must learn");
    let converted = centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
    assert_eq!(converted, 2, "both LeNet conv layers are eligible");
    assert!(centrosymmetric::check_invariant(&mut net, 1e-6));
    let dropped = cscnn::nn::trainer::evaluate(&mut net, &test, 16);
    let recovered = trainer.fit(&mut net, &train, &test);
    assert!(
        recovered.final_test_accuracy >= dropped - 0.05,
        "recovered {} vs dropped {}",
        recovered.final_test_accuracy,
        dropped
    );
    // The invariant must survive retraining (tied gradients preserve Eq. 2).
    assert!(centrosymmetric::check_invariant(&mut net, 1e-4));
}

/// FNV-1a over the bits of every parameter, in `Network::params` order.
fn param_digest(net: &cscnn::nn::Network) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in net.params() {
        for v in p.value.as_slice() {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn mobile_cnn_pipeline_trains_to_pinned_weights() {
    // The training kernels promise bit-identical results to the naive
    // reference kernels, so a kernel speedup must not move a single weight.
    // Train → Eq. 5 projection → retrain → prune → retrain on `mobile_cnn`
    // (dense 3×3, depthwise 3×3 and 1×1 convolutions) at the benchmark's
    // input shape, one epoch per phase. Values recorded with the kernels
    // that preceded the row-segment im2col and `small_gemm`'s `A·Bᵀ` panel.
    const GOLDEN: (u64, f64, f64) = (0x6aaf_7ae3_d3ad_9e8e, 0.625, 0.775);
    let data = SyntheticImages::generate(3, 16, 16, 10, 16, 0.3, 42);
    let (train, test) = data.split(0.2);
    let mut net = models::mobile_cnn(3, 16, 16, 10, 42);
    let trainer = cscnn::nn::trainer::Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 32,
        seed: 42,
        ..Default::default()
    });
    let dense = trainer.fit(&mut net, &train, &test);
    centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
    trainer.fit(&mut net, &train, &test);
    cscnn::nn::pruning::prune_network(&mut net, &PruneConfig::default()).expect("finite weights");
    let pruned = trainer.fit(&mut net, &train, &test);
    let got = (
        param_digest(&net),
        dense.final_test_accuracy,
        pruned.final_test_accuracy,
    );
    assert_eq!(got, GOLDEN, "{got:#x?}");
}
