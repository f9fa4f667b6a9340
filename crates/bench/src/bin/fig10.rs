//! Fig. 10 — per-component energy breakdown of the SCNN and CSCNN PEs
//! (multiplier array, IB+OB, WB, AB, scatter crossbar, CCU, PPU).
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin fig10
//! ```

use cscnn::models::catalog;
use cscnn::sim::{geomean, Accelerator, CartesianAccelerator};
use cscnn_bench::run_suite;
use cscnn_bench::table::Table;

fn main() {
    println!("== Fig. 10: energy breakdown by PE component (SCNN vs CSCNN) ==\n");
    let accs: Vec<Box<dyn Accelerator>> = vec![
        Box::new(CartesianAccelerator::scnn()),
        Box::new(CartesianAccelerator::cscnn()),
    ];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); 7];
    for row in run_suite(&accs, &catalog::evaluation_suite()) {
        let (scnn, cscnn) = (&row[0], &row[1]);
        let es = scnn.energy_breakdown();
        let ec = cscnn.energy_breakdown();
        let components = [
            ("MulArray", es.mul_array_pj, ec.mul_array_pj),
            ("IB+OB", es.ib_ob_pj, ec.ib_ob_pj),
            ("WB", es.wb_pj, ec.wb_pj),
            ("AB", es.ab_pj, ec.ab_pj),
            ("Scatter", es.crossbar_pj, ec.crossbar_pj),
            ("CCU", es.ccu_pj, ec.ccu_pj),
            ("PPU", es.ppu_pj, ec.ppu_pj),
        ];
        println!("-- {} --", scnn.model);
        let mut t = Table::new(&["component", "SCNN (uJ)", "CSCNN (uJ)", "SCNN/CSCNN"]);
        for (i, (name, s, c)) in components.into_iter().enumerate() {
            ratios[i].push((s / c).max(1e-9));
            t.row(vec![
                name.to_string(),
                format!("{:.1}", s * 1e-6),
                format!("{:.1}", c * 1e-6),
                format!("{:.2}x", s / c),
            ]);
        }
        t.print();
        println!();
    }
    println!("geomean SCNN/CSCNN energy ratio per component:");
    let names = ["MulArray", "IB+OB", "WB", "AB", "Scatter", "CCU", "PPU"];
    let mut t = Table::new(&["component", "measured", "paper"]);
    let paper = ["1.5x", "1.9x", "3.4x", "1.3x", "-", "-", "-"];
    for (i, name) in names.iter().enumerate() {
        t.row(vec![
            name.to_string(),
            format!("{:.2}x", geomean(&ratios[i])),
            paper[i].to_string(),
        ]);
    }
    t.print();
    println!("\npaper's reading: the multiplier array saves 1.5x (reuse), WB 3.4x");
    println!("(halved, index-free dual weights); AB savings are hindered by the");
    println!("second accumulator buffer.");
}
