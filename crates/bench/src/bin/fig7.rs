//! Fig. 7 — speedup over the dense accelerator (DCNN) for all nine
//! accelerators across the benchmark networks, plus the abstract's
//! headline factors.
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin fig7 [-- --edp]
//! ```

use cscnn::models::catalog;
use cscnn::sim::{baselines, geomean};
use cscnn_bench::table::Table;
use cscnn_bench::{paper, run_suite};

fn main() {
    println!("== Fig. 7: speedup over DCNN ==\n");
    let accs = baselines::evaluation_accelerators();
    let results = run_suite(&accs, &catalog::evaluation_suite());

    let mut header: Vec<&str> = vec!["model"];
    let names: Vec<&str> = accs.iter().map(|a| a.name()).collect();
    header.extend(&names);
    let mut t = Table::new(&header);
    let mut per_acc: Vec<Vec<f64>> = vec![Vec::new(); accs.len()];
    for row in &results {
        let dcnn = row[0].total_time_s();
        let mut cells = vec![row[0].model.clone()];
        for (i, stats) in row.iter().enumerate() {
            let speedup = dcnn / stats.total_time_s();
            per_acc[i].push(speedup);
            cells.push(format!("{speedup:.2}"));
        }
        t.row(cells);
    }
    let mut cells = vec!["geomean".to_string()];
    for v in &per_acc {
        cells.push(format!("{:.2}", geomean(v)));
    }
    t.row(cells);
    t.print();

    println!("\nheadline: CSCNN's geomean gain over each baseline (paper vs measured):\n");
    let mut h = Table::new(&[
        "baseline",
        "paper speedup",
        "measured",
        "paper energy",
        "measured ",
    ]);
    let cscnn_idx = accs.len() - 1;
    for (bi, (name, sp_ref, en_ref, _)) in paper::headline_factors().into_iter().enumerate() {
        let sp: Vec<f64> = results
            .iter()
            .map(|row| row[bi].total_time_s() / row[cscnn_idx].total_time_s())
            .collect();
        let en: Vec<f64> = results
            .iter()
            .map(|row| row[bi].total_on_chip_pj() / row[cscnn_idx].total_on_chip_pj())
            .collect();
        h.row(vec![
            name.to_string(),
            format!("{sp_ref:.1}x"),
            format!("{:.2}x", geomean(&sp)),
            format!("{en_ref:.1}x"),
            format!("{:.2}x", geomean(&en)),
        ]);
    }
    h.print();

    if std::env::args().any(|a| a == "--edp") {
        println!("\nEDP (energy-delay product) gains of CSCNN:\n");
        let mut e = Table::new(&["baseline", "paper EDP", "measured EDP"]);
        for (bi, (name, _, _, edp_ref)) in paper::headline_factors().into_iter().enumerate() {
            let edp: Vec<f64> = results
                .iter()
                .map(|row| row[bi].edp() / row[cscnn_idx].edp())
                .collect();
            e.row(vec![
                name.to_string(),
                edp_ref
                    .map(|x| format!("{x:.1}x"))
                    .unwrap_or_else(|| "-".into()),
                format!("{:.2}x", geomean(&edp)),
            ]);
        }
        e.print();
    } else {
        println!("\nrun with `-- --edp` for the EDP comparison (paper: 8.9x/2.8x/2.0x).");
    }
}
