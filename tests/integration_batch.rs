//! Batched intake integration: `BatchRunner` must be an exact,
//! cache-deduplicated equivalent of sequential `Runner::run_ir`, and the
//! on-disk IR artifact schema must round-trip every catalog model
//! losslessly (see docs/batching.md).

use cscnn::ir::{ArtifactError, ModelIr, SparsityAnnotation};
use cscnn::json::ToJson;
use cscnn::models::{catalog, lower, ModelCompression, ModelDesc};
use cscnn::sim::{Accelerator, BatchRunner, CartesianAccelerator, Runner};

fn all_catalog_models() -> Vec<ModelDesc> {
    vec![
        catalog::lenet5(),
        catalog::convnet(),
        catalog::alexnet(),
        catalog::vgg16(),
        catalog::vgg16_cifar(),
        catalog::resnet18(),
        catalog::resnet50(),
        catalog::resnet152(),
        catalog::resnext101(),
        catalog::wide_resnet28_10(),
        catalog::squeezenet(),
        catalog::googlenet(),
        catalog::mobilenet_v1(),
        catalog::shufflenet_v2(),
        catalog::efficientnet_b7(),
    ]
}

fn calibrated_ir(model: &ModelDesc, acc: &dyn Accelerator) -> ModelIr {
    let mut ir = lower::to_ir(model);
    let mc = ModelCompression::new(model.clone(), acc.scheme());
    assert!(mc.profile.annotate(&mut ir));
    ir
}

/// Bit-exact comparison of two run results via their canonical JSON form
/// (`RunStats` intentionally has no `PartialEq`; JSON covers every field,
/// and float formatting is deterministic).
fn stats_json<T: ToJson>(stats: &T) -> String {
    cscnn::json::to_string(stats).expect("stats serialize")
}

#[test]
fn batch_of_copies_is_bit_identical_to_sequential_run_ir() {
    let acc = CartesianAccelerator::cscnn();
    let runner = Runner::new(42);
    let ir = calibrated_ir(&catalog::lenet5(), &acc);

    const COPIES: usize = 16;
    let requests = vec![ir.clone(); COPIES];
    let stats = BatchRunner::new(runner.clone())
        .with_workers(4)
        .run_batch(&acc, &requests)
        .expect("annotated batch");

    // Workloads synthesized exactly once for the whole batch.
    assert_eq!(stats.cache_misses, 1, "one unique structure");
    assert_eq!(stats.cache_hits, COPIES - 1);
    assert_eq!(stats.unique_structures(), 1);

    let sequential = runner.run_ir(&acc, &ir).expect("annotated IR");
    let expected = stats_json(&sequential);
    for (i, run) in stats.runs.iter().enumerate() {
        assert_eq!(
            stats_json(run),
            expected,
            "request {i} must be bit-identical to sequential run_ir"
        );
    }
}

#[test]
fn mixed_batch_matches_sequential_per_request_and_dedups_per_structure() {
    let acc = CartesianAccelerator::cscnn();
    let runner = Runner::new(7);
    let irs: Vec<ModelIr> = [catalog::lenet5(), catalog::convnet(), catalog::alexnet()]
        .iter()
        .map(|m| calibrated_ir(m, &acc))
        .collect();
    let requests: Vec<ModelIr> = (0..9).map(|i| irs[i % irs.len()].clone()).collect();

    let stats = BatchRunner::new(runner.clone())
        .with_workers(3)
        .run_batch(&acc, &requests)
        .expect("annotated batch");
    assert_eq!(stats.cache_misses, 3);
    assert_eq!(stats.cache_hits, 6);
    for (i, (run, request)) in stats.runs.iter().zip(&requests).enumerate() {
        let sequential = runner.run_ir(&acc, request).expect("annotated IR");
        assert_eq!(stats_json(run), stats_json(&sequential), "request {i}");
    }
}

#[test]
fn every_catalog_model_round_trips_through_json_losslessly() {
    let acc = CartesianAccelerator::cscnn();
    for model in all_catalog_models() {
        let ir = calibrated_ir(&model, &acc);
        for text in [ir.to_json_string(), ir.to_json_pretty()] {
            let back = ModelIr::from_json_str(&text).unwrap_or_else(|e| {
                panic!("{} must parse back: {e}", model.name);
            });
            assert_eq!(back, ir, "{} must round-trip losslessly", model.name);
            assert_eq!(
                back.annotated_hash(),
                ir.annotated_hash(),
                "{} hash must survive the trip",
                model.name
            );
        }
    }
}

#[test]
fn parsed_artifacts_simulate_identically_to_their_sources() {
    let acc = CartesianAccelerator::cscnn();
    let runner = Runner::new(3);
    let ir = calibrated_ir(&catalog::alexnet(), &acc);
    let reloaded = ModelIr::from_json_str(&ir.to_json_string()).expect("artifact parses");
    let direct = runner.run_ir(&acc, &ir).expect("annotated IR");
    let via_disk = runner.run_ir(&acc, &reloaded).expect("reloaded IR");
    assert_eq!(stats_json(&direct), stats_json(&via_disk));
}

#[test]
fn artifact_errors_name_the_offending_node_and_field() {
    // Density out of range on a named layer.
    let mut ir = calibrated_ir(&catalog::lenet5(), &CartesianAccelerator::cscnn());
    for node in ir.weight_nodes_mut() {
        node.set_sparsity(SparsityAnnotation {
            weight_density: 1.5,
            activation_density: 0.5,
        });
        break;
    }
    let err = ModelIr::from_json_str(&ir.to_json_string()).expect_err("density over 1");
    match err {
        ArtifactError::Node {
            index,
            layer,
            field,
            ..
        } => {
            assert_eq!(index, 0);
            assert_eq!(field, "sparsity.weight_density");
            assert!(layer.is_some(), "node errors carry the layer name");
        }
        other => panic!("expected a node error, got {other}"),
    }

    // Document-level schema mismatch.
    let err = ModelIr::from_json_str(r#"{"format":"not-cscnn","version":1,"name":"x","nodes":[]}"#)
        .expect_err("wrong format tag");
    assert!(matches!(
        err,
        ArtifactError::Document {
            field: "format",
            ..
        }
    ));
}
