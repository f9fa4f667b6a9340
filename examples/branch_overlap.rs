//! Branch overlap on DAG-shaped models: run the wired `resnet18_ir`
//! (real skip edges into `Add` joins) through
//! `Runner::run_ir_overlapped`, scheduling independent branches across
//! PE sub-arrays. Per-node results stay bit-identical to sequential
//! `run_ir`; only the makespan changes (see `docs/simulator.md`).
//!
//! ```sh
//! cargo run --release --example branch_overlap
//! ```

use cscnn::ir::ModelIr;
use cscnn::models::{catalog, ModelCompression, ModelDesc};
use cscnn::sim::{Accelerator, CartesianAccelerator, Runner};

/// Annotates an IR's weight nodes with the compression pipeline's
/// calibrated densities for the accelerator's scheme.
fn annotate(ir: &mut ModelIr, model: &ModelDesc, acc: &dyn Accelerator) {
    let mc = ModelCompression::new(model.clone(), acc.scheme());
    assert!(mc.profile.annotate(ir));
}

fn main() {
    let acc = CartesianAccelerator::cscnn();
    let runner = Runner::new(42);

    for (ir, model) in [
        (catalog::resnet18_ir(), catalog::resnet18()),
        (catalog::resnet50_ir(), catalog::resnet50()),
        (catalog::googlenet_ir(), catalog::googlenet()),
    ] {
        let mut ir = ir;
        annotate(&mut ir, &model, &acc);
        println!(
            "{} — {} nodes, {} edges",
            ir.name,
            ir.nodes.len(),
            ir.edges.len()
        );

        let sequential = runner.run_ir(&acc, &ir).expect("annotated IR simulates");
        println!(
            "  sequential latency: {:>10.3} ms",
            sequential.total_time_s() * 1e3
        );

        for sub_arrays in [2usize, 4] {
            let sched = runner
                .run_ir_overlapped(&acc, &ir, sub_arrays)
                .expect("annotated IR overlaps");
            // Scheduling never perturbs per-node results.
            assert_eq!(sched.run.total_cycles(), sequential.total_cycles());
            println!(
                "  {} sub-arrays makespan: {:>10.3} ms  (overlap speedup {:.3}x)",
                sub_arrays,
                sched.makespan_s * 1e3,
                sched.overlap_speedup()
            );
        }
        println!();
    }
}
