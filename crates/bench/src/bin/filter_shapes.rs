//! §II-D — filter-parameterization comparison: centrosymmetric filters vs
//! smaller (`2×2`) filters vs upper-triangular filters at comparable
//! parameter counts.
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin filter_shapes
//! ```
//!
//! The fifteen trainings (five schemes, three seeds each) run as jobs on
//! the process's thread budget (`CSCNN_NUM_THREADS`); the output does not
//! depend on it.
//!
//! The paper's claim to check: at equal effective parameters, the
//! zero-center centrosymmetric `3×3` (4 params, full receptive field)
//! outperforms the `2×2` filter (4 params, shrunken receptive field), and
//! plain centrosymmetric (5 params) outperforms upper-triangular (6
//! params).

use cscnn::nn::centrosymmetric;
use cscnn::nn::constraints::{
    apply_upper_triangular, apply_zero_center_centrosymmetric, FilterScheme,
};
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::models;
use cscnn::nn::trainer::{TrainConfig, Trainer};
use cscnn::nn::Network;
use cscnn::tensor::run_jobs;
use cscnn_bench::table::Table;

fn main() {
    println!("== §II-D: filter parameterization comparison ==\n");
    let config = TrainConfig {
        epochs: 10,
        batch_size: 32,
        lr: 0.03,
        ..Default::default()
    };
    // Average over several seeds — the differences are small by design.
    let seeds = [1u64, 2, 3];
    let mut t = Table::new(&["scheme", "params/slice", "mean test accuracy"]);
    let schemes: Vec<(&str, FilterScheme)> = vec![
        ("full 3x3", FilterScheme::Full),
        ("centrosymmetric 3x3", FilterScheme::Centrosymmetric),
        (
            "centro 3x3, zero center",
            FilterScheme::CentrosymmetricZeroCenter,
        ),
        ("upper-triangular 3x3", FilterScheme::UpperTriangular),
        ("smaller 2x2", FilterScheme::Full),
    ];
    // The 15 trainings are independent: run them as jobs, scheme-major.
    let accuracies = run_jobs(schemes.len() * seeds.len(), |job| {
        let (label, seed) = (schemes[job / seeds.len()].0, seeds[job % seeds.len()]);
        let data = SyntheticImages::generate(1, 16, 16, 8, 60, 0.55, seed);
        let (train, test) = data.split(0.2);
        let mut net: Network = if label == "smaller 2x2" {
            models::tiny_cnn_2x2(1, 16, 16, 8, seed)
        } else {
            models::tiny_cnn(1, 16, 16, 8, seed)
        };
        match label {
            "centrosymmetric 3x3" => {
                centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
            }
            "centro 3x3, zero center" => {
                for conv in net.conv_layers_mut() {
                    apply_zero_center_centrosymmetric(conv);
                }
            }
            "upper-triangular 3x3" => {
                for conv in net.conv_layers_mut() {
                    apply_upper_triangular(conv);
                }
            }
            _ => {}
        }
        Trainer::new(config)
            .fit(&mut net, &train, &test)
            .final_test_accuracy
    });
    for ((label, scheme), accs) in schemes.iter().zip(accuracies.chunks(seeds.len())) {
        // Summed in seed order, as one training after another would.
        let mut acc_sum = 0.0;
        for acc in accs {
            acc_sum += acc;
        }
        let params = if *label == "smaller 2x2" {
            scheme.params_per_slice(2, 2)
        } else {
            scheme.params_per_slice(3, 3)
        };
        t.row(vec![
            label.to_string(),
            params.to_string(),
            format!("{:.1} %", 100.0 * acc_sum / seeds.len() as f64),
        ]);
    }
    t.print();
    println!("\npaper's claim: centrosymmetric > smaller filters at equal parameters");
    println!("(receptive field), and > triangular at comparable parameters (coverage).");
    println!("At this proxy scale differences are small; the ordering is the check.");
}
