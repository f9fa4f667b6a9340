//! The full co-design loop with *measured* sparsity: train a CNN, compress
//! it with the CSCNN pipeline, extract its real shapes and densities, and
//! simulate the resulting workload on the accelerator suite — the same
//! flow the paper drives from PyTorch extracts (§IV).
//!
//! ```sh
//! cargo run --release --example trained_to_hardware
//! ```

use cscnn::nn::centrosymmetric;
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::models;
use cscnn::nn::pruning::{self, PruneConfig};
use cscnn::nn::trainer::{evaluate, TrainConfig, Trainer};
use cscnn::sim::{baselines, Accelerator, CartesianAccelerator};
use cscnn::{describe_network, measure_profile, simulate_trained};

fn main() {
    println!("== trained network -> hardware, with measured sparsity ==\n");

    // 1) Train and compress.
    let data = SyntheticImages::generate(3, 16, 16, 4, 100, 0.12, 99);
    let (train, test) = data.split(0.2);
    let mut net = models::convnet_s(4, 99);
    let trainer = Trainer::new(TrainConfig {
        epochs: 8,
        batch_size: 32,
        lr: 0.05,
        ..Default::default()
    });
    println!("[1/4] training ConvNet-S...");
    let base = trainer.fit(&mut net, &train, &test);
    println!(
        "      baseline accuracy {:.1} %",
        100.0 * base.final_test_accuracy
    );
    centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
    let _ = trainer.fit(&mut net, &train, &test);
    pruning::prune_network(
        &mut net,
        &PruneConfig {
            conv_keep: 0.5,
            fc_keep: 0.25,
        },
    )
    .expect("finite weights");
    let _ = trainer.fit(&mut net, &train, &test);
    let final_acc = evaluate(&mut net, &test, 32);
    println!("      compressed accuracy {:.1} %\n", 100.0 * final_acc);

    // 2) Extract shapes + measured densities.
    println!("[2/4] extracting shapes and measured densities:");
    let desc = describe_network(&mut net, "ConvNet-S", (3, 16, 16)).expect("network lowers");
    let profile = measure_profile(&mut net, &test, 16);
    println!(
        "      {:8} {:>24} {:>12} {:>12}",
        "layer", "shape (KxCxRxS @ HxW)", "w density", "a density"
    );
    for (i, l) in desc.layers.iter().enumerate() {
        let g = &l.geom;
        println!(
            "      {:8} {:>24} {:>11.1} % {:>11.1} %",
            l.name,
            format!("{}x{}x{}x{} @ {}x{}", g.k, g.c, g.r, g.s, g.h, g.w),
            100.0 * profile.weight_density[i],
            100.0 * profile.activation_density[i],
        );
    }

    // 3) Simulate on the suite with those measured numbers.
    println!("\n[3/4] simulating the measured workload:");
    let accs: Vec<Box<dyn Accelerator>> = vec![
        Box::new(baselines::dcnn()),
        Box::new(CartesianAccelerator::scnn()),
        Box::new(baselines::sparten()),
        Box::new(CartesianAccelerator::cscnn()),
    ];
    let dcnn_time = simulate_trained(
        &mut net,
        "ConvNet-S",
        (3, 16, 16),
        &test,
        &baselines::dcnn(),
        7,
    )
    .expect("network simulates")
    .total_time_s();
    println!("      {:10} {:>12} {:>10}", "accel", "time (us)", "speedup");
    for acc in &accs {
        let stats = simulate_trained(&mut net, "ConvNet-S", (3, 16, 16), &test, acc.as_ref(), 7)
            .expect("network simulates");
        println!(
            "      {:10} {:>12.2} {:>9.2}x",
            stats.accelerator,
            stats.total_time_s() * 1e6,
            dcnn_time / stats.total_time_s()
        );
    }

    // 4) The point.
    println!("\n[4/4] no calibrated profiles were involved: every density above was");
    println!("measured from the trained, centrosymmetric, pruned network itself.");
}
