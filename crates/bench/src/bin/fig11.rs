//! Fig. 11 — impact of the spatial tiling strategies:
//! (a) CSCNN with planar / output-channel / mixed tiling;
//! (b) SCNN with and without the tiling optimizations;
//! (c) SparTen (greedy balancing, no tiling change) against the
//!     tiling-optimized SCNN+mixed and CSCNN.
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin fig11
//! ```

use cscnn::models::catalog;
use cscnn::sim::tiling::TilingStrategy;
use cscnn::sim::{baselines, geomean, Accelerator, CartesianAccelerator};
use cscnn_bench::table::Table;
use cscnn_bench::{paper, run_suite};

/// The six distinct machines the three parts compare, in the column order
/// of the suite's rows: CSCNN planar, CSCNN output-channel, CSCNN (its
/// default tiling is mixed), SCNN, SCNN+mixed, SparTen.
fn accelerators() -> Vec<Box<dyn Accelerator>> {
    let cscnn = CartesianAccelerator::cscnn;
    vec![
        Box::new(cscnn().with_tiling(TilingStrategy::Planar)),
        Box::new(cscnn().with_tiling(TilingStrategy::OutputChannel)),
        Box::new(cscnn()),
        Box::new(CartesianAccelerator::scnn()),
        Box::new(
            CartesianAccelerator::scnn()
                .with_tiling(TilingStrategy::Mixed)
                .with_name("SCNN+mixed"),
        ),
        Box::new(baselines::sparten()),
    ]
}

fn main() {
    let models = [
        catalog::lenet5(),
        catalog::convnet(),
        catalog::alexnet(),
        catalog::vgg16(),
    ];
    // times[model][accelerator], in seconds.
    let times: Vec<[f64; 6]> = run_suite(&accelerators(), &models)
        .iter()
        .map(|row| std::array::from_fn(|i| row[i].total_time_s()))
        .collect();

    // (a) CSCNN under the three strategies.
    println!("== Fig. 11(a): CSCNN tiling strategies (speedup over planar) ==\n");
    let mut t = Table::new(&["model", "planar", "output-channel", "mixed"]);
    let mut oc_all = Vec::new();
    let mut mixed_all = Vec::new();
    for (model, &[planar, oc, mixed, ..]) in models.iter().zip(&times) {
        let (oc, mixed) = (planar / oc, planar / mixed);
        oc_all.push(oc);
        mixed_all.push(mixed);
        t.row(vec![
            model.name.clone(),
            "1.00".into(),
            format!("{oc:.2}"),
            format!("{mixed:.2}"),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        "1.00".into(),
        format!("{:.2}", geomean(&oc_all)),
        format!("{:.2}", geomean(&mixed_all)),
    ]);
    t.print();
    println!(
        "\npaper: mixed = {:.2}x over planar, {:.2}x over output-channel.\n",
        paper::FIG11_MIXED_OVER_PLANAR,
        paper::FIG11_MIXED_OVER_PLANAR / paper::FIG11_MIXED_OVER_OUTPUT_CHANNEL
    );

    // (b) SCNN with the mixed-tiling optimization grafted on.
    println!("== Fig. 11(b): SCNN with/without tiling optimizations ==\n");
    let mut t = Table::new(&["model", "SCNN", "SCNN+mixed", "gain"]);
    let mut gains = Vec::new();
    for (model, &[.., base, tuned, _]) in models.iter().zip(&times) {
        gains.push(base / tuned);
        t.row(vec![
            model.name.clone(),
            "1.00".into(),
            format!("{:.2}", base / tuned),
            format!("{:.2}x", base / tuned),
        ]);
    }
    t.print();
    println!(
        "\ngeomean gain {:.2}x (paper: {:.1}x); CSCNN still leads SCNN+mixed via reuse.\n",
        geomean(&gains),
        paper::FIG11_SCNN_TILING_GAIN
    );

    // (c) SparTen's greedy balancing is its own answer to load imbalance:
    // SparTen against the two Cartesian machines that get the mixed tiling,
    // SCNN+mixed from (b) and CSCNN (mixed) from (a), as speedups over
    // SparTen.
    println!("== Fig. 11(c): SparTen vs tiling-optimized peers ==\n");
    let mut t = Table::new(&["model", "SparTen", "SCNN+mixed", "CSCNN"]);
    for (model, &[_, _, cscnn, _, scnn_mixed, sparten]) in models.iter().zip(&times) {
        t.row(vec![
            model.name.clone(),
            "1.00".into(),
            format!("{:.2}", sparten / scnn_mixed),
            format!("{:.2}", sparten / cscnn),
        ]);
    }
    t.print();
    println!("\npaper's reading: SparTen benefits only marginally from tiling");
    println!("optimizations (its greedy balancing already addresses imbalance);");
    println!("CSCNN outperforms SCNN even after granting SCNN the mixed tiling.");
}
