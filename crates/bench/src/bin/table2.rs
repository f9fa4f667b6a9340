//! Table II — CIFAR-10 compression: accuracy and multiplication reduction.
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin table2 [-- --train]
//! ```
//!
//! Multiplication reductions are *measured* from the shape catalogs and
//! calibrated sparsity profiles; accuracy columns show the paper's reported
//! values. With `--train`, scaled-down proxy models (ConvNet-S / VGG-S) are
//! additionally trained on synthetic data to measure the accuracy *deltas*
//! of the CSCNN pipeline (see DESIGN.md §2 for the dataset substitution).

use cscnn::models::{catalog, CompressionScheme, ModelCompression};
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::models;
use cscnn::nn::pruning::PruneConfig;
use cscnn::nn::trainer::TrainConfig;
use cscnn::tensor::run_jobs;
use cscnn::CompressionPipeline;
use cscnn_bench::paper;
use cscnn_bench::table::{fmt_factor, fmt_pct, Table};

fn main() {
    println!("== Table II: compression methods on CIFAR-10 ==\n");
    let mut t = Table::new(&[
        "model",
        "technique",
        "top-1 base",
        "top-1",
        "drop",
        "paper mult red.",
        "measured",
    ]);
    for row in paper::table2_rows() {
        let measured = catalog::by_name(row.model).map(|model| {
            let scheme = match row.technique {
                "Deep compression" => Some(CompressionScheme::DeepCompression),
                "CSCNN" => Some(CompressionScheme::Cscnn),
                "CSCNN+Pruning" => Some(CompressionScheme::CscnnPruning),
                _ => None,
            };
            scheme.map(|s| ModelCompression::new(model, s).reduction())
        });
        let drop = match (row.top1_baseline, row.top1) {
            (Some(b), Some(a)) => Some(b - a),
            _ => None,
        };
        t.row(vec![
            row.model.to_string(),
            row.technique.to_string(),
            fmt_pct(row.top1_baseline),
            fmt_pct(row.top1),
            fmt_pct(drop),
            fmt_factor(row.mult_reduction),
            fmt_factor(measured.flatten()),
        ]);
    }
    t.print();
    println!("\naccuracy columns: paper-reported; reductions: measured from shapes + profiles.");

    if std::env::args().any(|a| a == "--train") {
        proxy_training();
    } else {
        println!("run with `-- --train` for the proxy accuracy experiment.");
    }
}

/// Trains scaled-down CIFAR proxies through the full CSCNN pipeline and
/// reports the accuracy trajectory (baseline → projected → retrained →
/// pruned), the quantity Table II's accuracy columns characterize.
fn proxy_training() {
    println!("\n-- proxy accuracy experiment (synthetic data, scaled models) --\n");
    let mut t = Table::new(&[
        "proxy",
        "baseline",
        "projected",
        "retrained",
        "pruned",
        "kept",
        "mult red.",
    ]);
    // The deeper VGG-S needs a gentler learning rate to converge. The two
    // proxies train independently: run them as jobs.
    let proxies = [("ConvNet-S", 0.05), ("VGG-S", 0.01)];
    let reports = run_jobs(proxies.len(), |job| {
        let (net, conv_inputs) = if job == 0 {
            (models::convnet_s(4, 1), models::convnet_s_conv_inputs())
        } else {
            (models::vgg_s(4, 2), models::vgg_s_conv_inputs())
        };
        let config = TrainConfig {
            epochs: 8,
            batch_size: 32,
            lr: proxies[job].1,
            ..Default::default()
        };
        let data = SyntheticImages::generate(3, 16, 16, 4, 80, 0.12, 9);
        CompressionPipeline::new(config)
            .with_pruning(PruneConfig {
                conv_keep: 0.5,
                fc_keep: 0.25,
            })
            .run(net, &data, &conv_inputs)
            .expect("network lowers")
    });
    for ((name, _), report) in proxies.iter().zip(reports) {
        t.row(vec![
            name.to_string(),
            format!("{:.1} %", 100.0 * report.baseline_accuracy),
            format!("{:.1} %", 100.0 * report.post_projection_accuracy),
            format!("{:.1} %", 100.0 * report.retrained_accuracy),
            format!(
                "{:.1} %",
                100.0 * report.pruned_accuracy.unwrap_or(f64::NAN)
            ),
            format!("{:.0} %", 100.0 * report.kept_fraction),
            format!("{:.1}x", report.mults.pruned_reduction()),
        ]);
    }
    t.print();
    println!("\nexpected shape: projected << baseline; retrained ~= baseline (paper §II-B).");
}
