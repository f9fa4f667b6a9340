//! Integration coverage of the extension features: the CSCNN+EIE hybrid,
//! report export, and the filter-shape constraints — exercised together as
//! a user would.

use cscnn::models::catalog;
use cscnn::nn::constraints::{apply_upper_triangular, FilterScheme};
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::trainer::{TrainConfig, Trainer};
use cscnn::nn::{Conv2d, Flatten, Linear, MaxPool, Network, Relu};
use cscnn::sim::export;
use cscnn::sim::hybrid::CscnnEie;
use cscnn::sim::{baselines, Accelerator, CartesianAccelerator, Runner};
use cscnn::tensor::{ConvSpec, PoolSpec};
use cscnn_rng::rngs::StdRng;
use cscnn_rng::SeedableRng;

#[test]
fn hybrid_joins_the_lineup_without_breaking_orderings() {
    let runner = Runner::new(51);
    let model = catalog::alexnet();
    let dcnn = runner.run_model(&baselines::dcnn(), &model);
    let cscnn = runner.run_model(&CartesianAccelerator::cscnn(), &model);
    let hybrid = runner.run_model(&CscnnEie::new(), &model);
    assert!(hybrid.speedup_over(&dcnn) >= cscnn.speedup_over(&dcnn) * 0.999);
    assert!(hybrid.total_cycles() <= cscnn.total_cycles());
    assert_eq!(hybrid.layers.len(), model.layers.len());
    assert_eq!(hybrid.accelerator, "CSCNN+EIE");
}

#[test]
fn export_round_trips_a_full_suite_run() {
    let runner = Runner::new(52);
    let models = [catalog::lenet5(), catalog::convnet()];
    let accs: Vec<Box<dyn Accelerator>> = vec![
        Box::new(baselines::dcnn()),
        Box::new(CartesianAccelerator::cscnn()),
        Box::new(CscnnEie::new()),
    ];
    let mut runs = Vec::new();
    for m in &models {
        for a in &accs {
            runs.push(runner.run_model(a.as_ref(), m));
        }
    }
    let json = export::to_json(&runs).expect("serializable");
    let parsed: cscnn_json::Value = cscnn_json::from_str(&json).expect("valid");
    assert_eq!(parsed.as_array().expect("array").len(), 6);
    let csv = export::to_csv(&runs);
    let expected_rows: usize = runs.iter().map(|r| r.layers.len()).sum();
    assert_eq!(csv.lines().count(), expected_rows + 1);
}

#[test]
fn constrained_conv_stacks_train_and_keep_triangular_zeros() {
    // A two-conv stack of upper-triangular filters must train and keep its
    // structural zeros.
    let mut rng = StdRng::seed_from_u64(53);
    let mut net = Network::new();
    net.push(Conv2d::new(
        &mut rng,
        1,
        8,
        ConvSpec::new(3, 3).with_padding(1),
    ));
    net.push(Relu::new());
    net.push(MaxPool::new(PoolSpec::new(2)));
    net.push(Conv2d::new(
        &mut rng,
        8,
        16,
        ConvSpec::new(3, 3).with_padding(1),
    ));
    net.push(Relu::new());
    net.push(MaxPool::new(PoolSpec::new(2)));
    net.push(Flatten::new());
    net.push(Linear::new(&mut rng, 16 * 4 * 4, 3));
    for conv in net.conv_layers_mut() {
        apply_upper_triangular(conv);
    }
    let data = SyntheticImages::generate(1, 16, 16, 3, 40, 0.12, 53);
    let (train, test) = data.split(0.25);
    let report = Trainer::new(TrainConfig {
        epochs: 5,
        batch_size: 16,
        lr: 0.03,
        ..Default::default()
    })
    .fit(&mut net, &train, &test);
    assert!(
        report.final_test_accuracy > 0.5,
        "acc {}",
        report.final_test_accuracy
    );
    for conv in net.conv_layers_mut() {
        for slice in conv.weight().value.as_slice().chunks(9) {
            assert_eq!(slice[3], 0.0, "triangular zeros must survive training");
            assert_eq!(slice[6], 0.0);
            assert_eq!(slice[7], 0.0);
        }
    }
}

#[test]
fn scheme_parameter_accounting_is_internally_consistent() {
    // FilterScheme's parameter math must agree with the mask-based
    // implementations' surviving-weight counts.
    let mut rng = StdRng::seed_from_u64(54);
    let mut conv = Conv2d::new(&mut rng, 4, 4, ConvSpec::new(3, 3).with_padding(1));
    let free = apply_upper_triangular(&mut conv);
    assert_eq!(free, FilterScheme::UpperTriangular.params_per_slice(3, 3));
    let mask = conv.weight().mask.as_ref().expect("mask");
    let kept_per_slice = mask.as_slice()[..9].iter().filter(|&&m| m == 1.0).count();
    assert_eq!(kept_per_slice, free);
}
