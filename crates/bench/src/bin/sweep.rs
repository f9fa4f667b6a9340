//! Design-space sweeps around the paper's evaluated configuration —
//! ablations for the design choices DESIGN.md calls out: PE array scale,
//! multiplier-array aspect ratio, and the number of mixed-tiling
//! sub-arrays.
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin sweep
//! ```

use cscnn::models::catalog;
use cscnn::sim::{Accelerator, ArchConfig, CartesianAccelerator};
use cscnn_bench::run_suite;
use cscnn_bench::table::Table;

/// One swept design axis: a table with one CSCNN configuration per row,
/// each row led by its `labels` cells, followed by notes.
struct Sweep {
    title: &'static str,
    labels: &'static [&'static str],
    rows: Vec<(Vec<String>, ArchConfig)>,
    notes: &'static [&'static str],
}

fn sweeps() -> Vec<Sweep> {
    let paper = ArchConfig::paper;
    vec![
        // Total multipliers grow 16x across the sweep.
        Sweep {
            title: "== sweep 1: PE array scale (CSCNN, mixed tiling) ==",
            labels: &["array", "mults"],
            rows: [(1, 1), (2, 2), (4, 4), (8, 8)]
                .map(|(rows, cols)| {
                    let cfg = ArchConfig {
                        pe_rows: rows,
                        pe_cols: cols,
                        mixed_subarrays: rows.max(1),
                        ..paper()
                    };
                    let mults = cfg.total_multipliers().to_string();
                    (vec![format!("{rows}x{cols}"), mults], cfg)
                })
                .into(),
            notes: &[
                "expected: near-linear scaling until fragmentation/imbalance and the",
                "DRAM bound flatten the curve (small nets saturate first).",
            ],
        },
        Sweep {
            title: "== sweep 2: multiplier array aspect ratio (Px x Py = 16) ==",
            labels: &["shape"],
            rows: [(2, 8), (4, 4), (8, 2), (16, 1)]
                .map(|(mult_px, mult_py)| {
                    let cfg = ArchConfig {
                        mult_px,
                        mult_py,
                        ..paper()
                    };
                    (vec![format!("{mult_px}x{mult_py}")], cfg)
                })
                .into(),
            notes: &[
                "expected: square-ish arrays fragment least; a 16x1 array wastes",
                "weight-vector slots whenever a channel has <16 stored non-zeros.",
            ],
        },
        Sweep {
            title: "== sweep 3: mixed-tiling sub-arrays (4x4 PE array) ==",
            labels: &["sub-arrays"],
            rows: [1, 2, 4, 8, 16]
                .map(|mixed_subarrays| {
                    let cfg = ArchConfig {
                        pe_rows: 4,
                        pe_cols: 4,
                        mixed_subarrays,
                        ..paper()
                    };
                    (vec![mixed_subarrays.to_string()], cfg)
                })
                .into(),
            notes: &[
                "expected: nearly flat — the adaptive per-layer inner split (§III-C's",
                "layer-wise tile sizing) compensates for the sub-array choice; the rigid",
                "strategies in Fig. 11 show the raw effect this adaptivity removes.",
            ],
        },
    ]
}

fn main() {
    let models = [
        catalog::alexnet(),
        catalog::vgg16_cifar(),
        catalog::resnet18(),
    ];
    let model_headers = ["AlexNet (ms)", "VGG16-C (ms)", "ResNet-18 (ms)"];
    let sweeps = sweeps();
    // Every row of every sweep is one accelerator of a single suite.
    let accs: Vec<Box<dyn Accelerator>> = sweeps
        .iter()
        .flat_map(|sweep| &sweep.rows)
        .map(|(_, cfg)| {
            Box::new(CartesianAccelerator::cscnn().with_config(cfg.clone())) as Box<dyn Accelerator>
        })
        .collect();
    let results = run_suite(&accs, &models);

    // The suite's columns, taken in order by the rows of the sweeps.
    let mut columns = 0..;
    for (i, sweep) in sweeps.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{}\n", sweep.title);
        let mut t = Table::new(&[sweep.labels, &model_headers[..]].concat());
        for ((labels, _), j) in sweep.rows.iter().zip(&mut columns) {
            let mut cells = labels.clone();
            for row in &results {
                cells.push(format!("{:.3}", row[j].total_time_s() * 1e3));
            }
            t.row(cells);
        }
        t.print();
        println!();
        for line in sweep.notes {
            println!("{line}");
        }
    }
}
