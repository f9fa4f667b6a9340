//! Fig. 8 — layer-wise speedup over DCNN on AlexNet and VGG16 for SCNN,
//! SparTen, and CSCNN.
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin fig8
//! ```
//!
//! The paper's qualitative reading to check: C1 of AlexNet (dense inputs,
//! stride 4) leaves the Cartesian-product accelerators *behind* DCNN; C2
//! (moderate density) shows CSCNN's ~2x reuse edge; the sparsest deep
//! layers show CSCNN ~ SparTen >> SCNN.

use cscnn::models::{catalog, LayerKind};
use cscnn::sim::{baselines, Accelerator, CartesianAccelerator};
use cscnn_bench::run_suite;
use cscnn_bench::table::Table;

fn main() {
    println!("== Fig. 8: layer-wise speedup over DCNN ==");
    // DCNN first: every other column is a speedup over it.
    let accs: Vec<Box<dyn Accelerator>> = vec![
        Box::new(baselines::dcnn()),
        Box::new(CartesianAccelerator::scnn()),
        Box::new(baselines::sparten()),
        Box::new(CartesianAccelerator::cscnn()),
    ];
    let models = [catalog::alexnet(), catalog::vgg16()];
    let results = run_suite(&accs, &models);
    for (model, runs) in models.iter().zip(&results) {
        println!("\n-- {} --\n", model.name);
        let (dcnn, contenders) = runs.split_first().expect("DCNN runs first");
        let mut t = Table::new(&["layer", "SCNN", "SparTen", "CSCNN"]);
        for (li, base_layer) in dcnn.layers.iter().enumerate() {
            // Fig. 8 plots conv layers only.
            if model.layers[li].kind == LayerKind::FullyConnected {
                continue;
            }
            let mut cells = vec![base_layer.name.clone()];
            for run in contenders {
                cells.push(format!("{:.2}", base_layer.time_s / run.layers[li].time_s));
            }
            t.row(cells);
        }
        t.print();
    }
    println!("\nreading guide: AlexNet C1 < 1.0-ish for SCNN/CSCNN (stride-4 waste);");
    println!("C2 shows CSCNN's reuse gain; deep sparse layers: CSCNN ~ SparTen > SCNN.");
}
