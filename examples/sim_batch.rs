//! Batched serving-style simulation from on-disk IR artifacts: write
//! annotated `ModelIr` JSON files, load a directory of them, and drive the
//! whole request stream through `BatchRunner` — workloads synthesized once
//! per unique structure, requests scheduled across a worker pool (see
//! `docs/batching.md`).
//!
//! ```sh
//! cargo run --release --example sim_batch            # demo artifacts
//! cargo run --release --example sim_batch -- DIR     # your own artifacts
//! ```

use std::path::{Path, PathBuf};

use cscnn::ir::ModelIr;
use cscnn::models::{catalog, lower, ModelCompression};
use cscnn::sim::{Accelerator, BatchRunner, CartesianAccelerator, Runner};

/// Annotates a catalog model's IR with the densities the compression
/// pipeline calibrates for the accelerator's scheme.
fn calibrated_ir(model: &cscnn::models::ModelDesc, acc: &dyn Accelerator) -> ModelIr {
    let mut ir = lower::to_ir(model);
    let mc = ModelCompression::new(model.clone(), acc.scheme());
    assert!(mc.profile.annotate(&mut ir));
    ir
}

/// Writes demo artifacts (LeNet-5, ConvNet, AlexNet) into `dir`.
fn write_demo_artifacts(dir: &Path, acc: &dyn Accelerator) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for model in [catalog::lenet5(), catalog::convnet(), catalog::alexnet()] {
        let ir = calibrated_ir(&model, acc);
        let file = dir.join(format!("{}.json", model.name.to_lowercase()));
        std::fs::write(&file, ir.to_json_pretty())?;
        println!("  wrote {}", file.display());
    }
    Ok(())
}

/// Loads every `*.json` artifact under `dir`, sorted by file name so the
/// request stream is deterministic.
fn load_artifacts(dir: &Path) -> std::io::Result<Vec<ModelIr>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut irs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        match ModelIr::from_json_str(&text) {
            Ok(ir) => {
                println!(
                    "  {} -> {} ({} nodes, {} weight-bearing)",
                    path.display(),
                    ir.name,
                    ir.nodes.len(),
                    ir.num_weight_nodes()
                );
                irs.push(ir);
            }
            Err(err) => println!("  {} REJECTED: {err}", path.display()),
        }
    }
    Ok(irs)
}

fn main() {
    let acc = CartesianAccelerator::cscnn();
    let dir = match std::env::args().nth(1) {
        Some(arg) => PathBuf::from(arg),
        None => {
            let dir = PathBuf::from("target/ir_artifacts");
            println!("[1/3] writing demo artifacts to {}", dir.display());
            write_demo_artifacts(&dir, &acc).expect("demo artifacts are writable");
            dir
        }
    };

    println!("[2/3] loading artifacts from {}", dir.display());
    let irs = load_artifacts(&dir).expect("artifact directory is readable");
    assert!(!irs.is_empty(), "no artifacts found in {}", dir.display());

    // A serving-style stream: many requests over few unique structures.
    const REQUESTS: usize = 12;
    let requests: Vec<ModelIr> = (0..REQUESTS).map(|i| irs[i % irs.len()].clone()).collect();

    println!(
        "[3/3] simulating {} requests ({} unique structures) on {}\n",
        requests.len(),
        irs.len(),
        acc.name()
    );
    let batch = BatchRunner::new(Runner::new(42));
    let stats = batch
        .run_batch(&acc, &requests)
        .expect("artifacts are annotated");

    println!(
        "  {:<10} {:>14} {:>14} {:>12}",
        "request", "model", "cycles", "latency (ms)"
    );
    for (i, run) in stats.runs.iter().enumerate() {
        println!(
            "  {:<10} {:>14} {:>14} {:>12.4}",
            i,
            run.model,
            run.total_cycles(),
            run.total_time_s() * 1e3
        );
    }
    println!(
        "\n  workload cache: {} hits / {} misses ({} syntheses saved)",
        stats.cache_hits, stats.cache_misses, stats.cache_hits
    );
    println!("\naggregate report:");
    println!(
        "{}",
        cscnn::json::to_string_pretty(&stats.summary()).expect("summary serializes")
    );
}
