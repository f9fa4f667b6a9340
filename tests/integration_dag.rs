//! DAG execution integration: the wired catalog graphs (`resnet18_ir`
//! with real skip edges into `Add` joins, `googlenet_ir` with four-way
//! Inception fan-outs into `Concat` joins) must simulate node for node
//! like their flattened (linear) variants, and the batch workload cache
//! must never conflate a wired graph with its flattened variant.

use cscnn::ir::ModelIr;
use cscnn::models::{catalog, lower, ModelCompression, ModelDesc};
use cscnn::sim::{Accelerator, BatchRunner, CartesianAccelerator, Runner};

/// Annotates an IR's weight nodes with `model`'s calibrated profile. The
/// wired and flattened variants share the same weight-node order, so one
/// profile fits both.
fn annotate(ir: &mut ModelIr, model: ModelDesc, acc: &dyn Accelerator) {
    let mc = ModelCompression::new(model, acc.scheme());
    assert!(mc.profile.annotate(ir));
}

#[test]
fn per_node_cycles_survive_flattening() {
    // Name-keyed workload seeding: the wired DAG and its flattened linear
    // variant sample identical workloads per layer, so compute cycles and
    // issued multiplications agree node for node even though the graphs
    // differ.
    let acc = CartesianAccelerator::cscnn();
    let runner = Runner::new(7);
    let cases: [(fn() -> ModelIr, fn() -> ModelDesc); 2] = [
        (catalog::resnet18_ir, catalog::resnet18),
        (catalog::googlenet_ir, catalog::googlenet),
    ];
    for (wired_ir, model) in cases {
        let mut wired = wired_ir();
        assert!(!wired.is_linear(), "{} carries real branches", wired.name);
        annotate(&mut wired, model(), &acc);
        let mut flat = lower::to_ir(&model());
        annotate(&mut flat, model(), &acc);
        assert!(flat.is_linear());

        let from_wired = runner.run_ir(&acc, &wired).expect("wired simulates");
        let from_flat = runner.run_ir(&acc, &flat).expect("flattened simulates");
        assert_eq!(from_wired.layers.len(), from_flat.layers.len());
        for (w, f) in from_wired.layers.iter().zip(&from_flat.layers) {
            assert_eq!(w.name, f.name);
            assert_eq!(w.compute_cycles, f.compute_cycles, "{}", w.name);
            assert_eq!(w.effective_mults, f.effective_mults, "{}", w.name);
        }
    }
}

#[test]
fn workload_cache_distinguishes_wired_from_flattened() {
    let acc = CartesianAccelerator::cscnn();
    let mut wired = catalog::resnet18_ir();
    annotate(&mut wired, catalog::resnet18(), &acc);
    let mut flat = lower::to_ir(&catalog::resnet18());
    annotate(&mut flat, catalog::resnet18(), &acc);

    // Same node multiset of weight layers, different wiring: the hashes
    // must disagree so the cache can never alias them.
    assert_ne!(wired.annotated_hash(), flat.annotated_hash());
    assert_ne!(wired.structural_hash(), flat.structural_hash());

    let stats = BatchRunner::new(Runner::new(11))
        .with_workers(2)
        .run_batch(&acc, &[wired.clone(), flat, wired])
        .expect("annotated batch");
    assert_eq!(stats.requests(), 3);
    assert_eq!(
        stats.unique_structures(),
        2,
        "wired and flattened are distinct cache entries"
    );
    assert_eq!(stats.cache_hits, 1, "the repeated wired request hits");
}
