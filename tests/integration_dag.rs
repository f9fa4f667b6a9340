//! DAG execution integration: the wired `resnet18_ir` (real skip edges
//! into `Add` joins) must overlap its residual branches across PE
//! sub-arrays — strictly beating the sequential sum — while every
//! per-node number stays bit-identical to sequential execution, and the
//! batch workload cache must never conflate the wired graph with its
//! flattened (linear) variant.

use cscnn::ir::ModelIr;
use cscnn::models::{catalog, lower, ModelCompression};
use cscnn::sim::{Accelerator, BatchRunner, CartesianAccelerator, Runner};

/// Annotates an IR's weight nodes with the calibrated ResNet-18 profile.
/// The wired and flattened variants share the same weight-node order, so
/// one profile fits both.
fn annotate_resnet18(ir: &mut ModelIr, acc: &dyn Accelerator) {
    let mc = ModelCompression::new(catalog::resnet18(), acc.scheme());
    assert!(mc.profile.annotate(ir));
}

#[test]
fn resnet18_branches_overlap_without_perturbing_per_node_results() {
    let acc = CartesianAccelerator::cscnn();
    let mut ir = catalog::resnet18_ir();
    assert!(!ir.is_linear(), "catalog ResNet-18 carries real skip edges");
    annotate_resnet18(&mut ir, &acc);

    let runner = Runner::new(42);
    let sequential = runner.run_ir(&acc, &ir).expect("annotated IR simulates");
    let sched = runner
        .run_ir_overlapped(&acc, &ir, 2)
        .expect("annotated IR overlaps");

    // Overlap is a scheduling property only: the per-node report must be
    // bit-identical to the sequential run, field for field.
    assert_eq!(
        cscnn::json::to_string(&sched.run).expect("stats serialize"),
        cscnn::json::to_string(&sequential).expect("stats serialize"),
    );

    // The downsample projections run concurrently with the main path, so
    // the makespan lands strictly below the sequential sum.
    let seq_s = sched.sequential_time_s();
    assert!(
        sched.makespan_s < seq_s,
        "makespan {} must beat sequential {}",
        sched.makespan_s,
        seq_s
    );
    assert!(sched.overlap_speedup() > 1.0);
    // Every timed node got placed, on a valid sub-array, within the span.
    assert_eq!(sched.placements.len(), sequential.layers.len());
    for p in &sched.placements {
        assert!(p.sub_array < 2);
        assert!(p.start_s <= p.finish_s && p.finish_s <= sched.makespan_s);
    }
}

#[test]
fn per_node_cycles_survive_flattening() {
    // Name-keyed workload seeding: the wired DAG and its flattened linear
    // variant sample identical workloads per layer, so compute cycles and
    // issued multiplications agree node for node even though the graphs
    // differ.
    let acc = CartesianAccelerator::cscnn();
    let mut wired = catalog::resnet18_ir();
    annotate_resnet18(&mut wired, &acc);
    let mut flat = lower::to_ir(&catalog::resnet18());
    annotate_resnet18(&mut flat, &acc);
    assert!(flat.is_linear());

    let runner = Runner::new(7);
    let from_wired = runner.run_ir(&acc, &wired).expect("wired simulates");
    let from_flat = runner.run_ir(&acc, &flat).expect("flattened simulates");
    assert_eq!(from_wired.layers.len(), from_flat.layers.len());
    for (w, f) in from_wired.layers.iter().zip(&from_flat.layers) {
        assert_eq!(w.name, f.name);
        assert_eq!(w.compute_cycles, f.compute_cycles, "{}", w.name);
        assert_eq!(w.effective_mults, f.effective_mults, "{}", w.name);
    }
}

#[test]
fn workload_cache_distinguishes_wired_from_flattened() {
    let acc = CartesianAccelerator::cscnn();
    let mut wired = catalog::resnet18_ir();
    annotate_resnet18(&mut wired, &acc);
    let mut flat = lower::to_ir(&catalog::resnet18());
    annotate_resnet18(&mut flat, &acc);

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

#[test]
fn googlenet_inception_branches_overlap_too() {
    // Four-way Concat fan-outs: with four sub-arrays the Inception modules
    // must compress the makespan below the sequential sum.
    let acc = CartesianAccelerator::cscnn();
    let mut ir = catalog::googlenet_ir();
    assert!(!ir.is_linear());
    let mc = ModelCompression::new(catalog::googlenet(), acc.scheme());
    assert!(mc.profile.annotate(&mut ir));
    let sched = Runner::new(13)
        .run_ir_overlapped(&acc, &ir, 4)
        .expect("annotated IR overlaps");
    assert!(sched.makespan_s < sched.sequential_time_s());
    assert!(sched.overlap_speedup() > 1.0);
}
