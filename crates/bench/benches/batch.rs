//! Batch-intake throughput: `BatchRunner::run_batch` over a request stream
//! versus the same requests simulated sequentially with `Runner::run_ir`.
//! Measures the workload-cache and worker-pool payoff (docs/batching.md).
//!
//! Plain `main()` harness (`harness = false`): each benchmark warms up,
//! then runs batches until ~0.2 s elapses and reports the mean ns/iter.
//! Run with `cargo bench -p cscnn-bench --bench batch`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cscnn::ir::ModelIr;
use cscnn::models::{catalog, lower, ModelCompression, ModelDesc};
use cscnn::sim::{Accelerator, BatchRunner, CartesianAccelerator, Runner};

fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let target = Duration::from_millis(200);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < target {
        f();
        iters += 1;
    }
    let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<36} {per_iter:>14.0} ns/iter  ({iters} iters)");
}

fn calibrated_ir(model: &ModelDesc, acc: &dyn Accelerator) -> ModelIr {
    let mut ir = lower::to_ir(model);
    let mc = ModelCompression::new(model.clone(), acc.scheme());
    assert!(mc.profile.annotate(&mut ir));
    ir
}

fn main() {
    let acc = CartesianAccelerator::cscnn();
    let irs: Vec<ModelIr> = [catalog::lenet5(), catalog::convnet(), catalog::alexnet()]
        .iter()
        .map(|m| calibrated_ir(m, &acc))
        .collect();

    const REQUESTS: usize = 12;
    let requests: Vec<ModelIr> = (0..REQUESTS).map(|i| irs[i % irs.len()].clone()).collect();
    let runner = Runner::new(1);

    bench("batch_12req_sequential_run_ir", || {
        for ir in &requests {
            black_box(runner.run_ir(&acc, black_box(ir)).expect("annotated"));
        }
    });

    for workers in [1usize, 4] {
        let batch = BatchRunner::new(Runner::new(1)).with_workers(workers);
        bench(&format!("batch_12req_pool_{workers}w"), || {
            black_box(
                batch
                    .run_batch(&acc, black_box(&requests))
                    .expect("annotated"),
            );
        });
    }

    // Cache-only effect: one worker, so any win over sequential run_ir is
    // pure workload-cache dedup (3 syntheses instead of 12).
    let batch = BatchRunner::new(Runner::new(1)).with_workers(1);
    let unique: Vec<ModelIr> = irs.to_vec();
    bench("batch_3req_unique_structures", || {
        black_box(
            batch
                .run_batch(&acc, black_box(&unique))
                .expect("annotated"),
        );
    });
}
