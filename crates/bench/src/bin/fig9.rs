//! Fig. 9 — on-chip energy of each accelerator, normalized to DCNN, split
//! into compute / memory / others (DRAM excluded, as in the paper).
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin fig9
//! ```

use cscnn::models::catalog;
use cscnn::sim::{baselines, geomean};
use cscnn_bench::run_suite;
use cscnn_bench::table::Table;

fn main() {
    println!("== Fig. 9: energy consumption normalized to DCNN ==");
    println!("(each cell: total = compute/memory/others shares)\n");
    let accs = baselines::evaluation_accelerators();
    let results = run_suite(&accs, &catalog::evaluation_suite());

    for row in &results {
        println!("-- {} --", row[0].model);
        let dcnn = row[0].total_on_chip_pj();
        let mut t = Table::new(&["accelerator", "normalized", "compute", "memory", "others"]);
        for stats in row {
            let e = stats.energy_breakdown();
            let total = e.on_chip_pj();
            t.row(vec![
                stats.accelerator.clone(),
                format!("{:.3}", total / dcnn),
                format!("{:.0} %", 100.0 * e.compute_pj / total),
                format!("{:.0} %", 100.0 * e.memory_pj / total),
                format!("{:.0} %", 100.0 * e.others_pj / total),
            ]);
        }
        t.print();
        println!();
    }

    println!("geomean energy gain over DCNN per accelerator:");
    let mut t = Table::new(&["accelerator", "energy gain"]);
    for (i, acc) in accs.iter().enumerate() {
        let gains: Vec<f64> = results
            .iter()
            .map(|row| row[0].total_on_chip_pj() / row[i].total_on_chip_pj())
            .collect();
        t.row(vec![
            acc.name().to_string(),
            format!("{:.2}x", geomean(&gains)),
        ]);
    }
    t.print();
    println!("\npaper's headline: CSCNN saves 2.4x over DCNN, 1.7x over SCNN, 1.5x over");
    println!("SparTen; the GEMM accelerators pay ~2.5x extra memory energy (im2col).");
}
