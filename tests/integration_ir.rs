//! IR lowering integration: the typed `ModelIr` must be a faithful hub
//! between the four layer representations — catalog descriptors, trainable
//! networks, simulator workloads, and the compression math.

use cscnn::ir::{IrError, LayerNode};
use cscnn::models::{catalog, lower, LayerDesc, ModelDesc};
use cscnn::nn::centrosymmetric;
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::models;
use cscnn::nn::trainer::{TrainConfig, Trainer};
use cscnn::sim::{baselines, CartesianAccelerator};
use cscnn::{describe_network, simulate_trained};

#[test]
fn every_catalog_model_round_trips_through_ir_bit_identically() {
    let descs = [
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
    ];
    for desc in descs {
        let back = lower::to_model_desc(&lower::to_ir(&desc));
        assert_eq!(back, Ok(desc.clone()), "{} must round-trip", desc.name);
    }
}

#[test]
fn catalog_ir_authors_agree_with_their_lowered_descriptors() {
    // The catalog is authored as IR; its plain functions are the lowering.
    assert_eq!(
        lower::to_model_desc(&catalog::lenet5_ir()),
        Ok(catalog::lenet5())
    );
    assert_eq!(
        lower::to_model_desc(&catalog::mobilenet_v1_ir()),
        Ok(catalog::mobilenet_v1())
    );
    // Depthwise survives the trip both ways.
    let mobilenet = catalog::mobilenet_v1_ir();
    assert!(mobilenet
        .nodes
        .iter()
        .any(|n| matches!(n, LayerNode::Depthwise { .. })));
}

#[test]
fn trained_lenet_describes_field_for_field() {
    // The bridge (Network → Ir → ModelDesc) must recover LeNet-5's exact
    // published geometry, layer names keyed by network index.
    let mut net = models::lenet5(10, 21);
    let desc = describe_network(&mut net, "LeNet-5", (1, 28, 28)).expect("network lowers");
    let expected = ModelDesc::new(
        "LeNet-5",
        vec![
            LayerDesc::conv("L0", 1, 6, 5, 5, 28, 28, 1, 2),
            LayerDesc::conv("L3", 6, 16, 5, 5, 14, 14, 1, 0),
            LayerDesc::fc("L7", 400, 120),
            LayerDesc::fc("L9", 120, 84),
            LayerDesc::fc("L11", 84, 10),
        ],
    );
    assert_eq!(desc, expected);
}

#[test]
fn depthwise_network_flows_end_to_end_through_ir() {
    // The MobileNet-style network (standard conv → depthwise conv →
    // pointwise conv) must train, centro-project, lower, and simulate —
    // exercising grouped convolution through every representation.
    let data = SyntheticImages::generate(3, 8, 8, 3, 40, 0.12, 91);
    let (train, test) = data.split(0.25);
    let mut net = models::mobile_cnn(3, 8, 8, 3, 91);
    let trainer = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: 16,
        lr: 0.05,
        ..Default::default()
    });
    let _ = trainer.fit(&mut net, &train, &test);

    // The 3x3 standard and 3x3 depthwise convs are eligible; the 1x1
    // pointwise conv is not (r·s == 1).
    let converted = centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
    assert_eq!(converted, 2);
    let _ = trainer.fit(&mut net, &train, &test);

    // Network → Ir: the depthwise layer must lower to its own variant and
    // the centrosymmetric flags must mirror eligibility.
    let ir = net.to_ir("MobileCNN", (3, 8, 8)).expect("network lowers");
    assert!(matches!(
        &ir.nodes[2],
        LayerNode::Depthwise {
            centrosymmetric: true,
            ..
        }
    ));
    assert!(matches!(
        &ir.nodes[4],
        LayerNode::Conv {
            centrosymmetric: false,
            ..
        }
    ));

    // Per-layer mult parity: each conv node's IR arithmetic must match the
    // catalog descriptor it lowers to, and their sum must match the
    // network-level walker.
    let mut ir_dense_total = 0u64;
    for node in &ir.nodes {
        if let LayerNode::Conv { geom, .. } | LayerNode::Depthwise { geom, .. } = node {
            let desc = lower::layer_desc(node).expect("conv nodes lower");
            assert_eq!(desc.geom, *geom, "{:?}", node.name());
            ir_dense_total += geom.dense_mults();
        }
    }
    let counted =
        centrosymmetric::count_multiplications(&mut net, &models::mobile_cnn_conv_inputs(8, 8))
            .expect("conv inputs cover every conv");
    assert_eq!(ir_dense_total, counted.dense);

    // Ir → LayerWorkload: simulate on the dense baseline and CSCNN.
    let dcnn = simulate_trained(
        &mut net,
        "MobileCNN",
        (3, 8, 8),
        &test,
        &baselines::dcnn(),
        9,
    )
    .expect("network simulates");
    let cscnn = simulate_trained(
        &mut net,
        "MobileCNN",
        (3, 8, 8),
        &test,
        &CartesianAccelerator::cscnn(),
        9,
    )
    .expect("network simulates");
    assert!(
        cscnn.speedup_over(&dcnn) > 1.0,
        "CSCNN speedup on depthwise net {}",
        cscnn.speedup_over(&dcnn)
    );
}

#[test]
fn lowering_errors_name_the_offending_layer() {
    // A flattened-only network has no weight-bearing nodes.
    let mut net = cscnn::nn::Network::new();
    net.push(cscnn::nn::Flatten::new());
    let err = describe_network(&mut net, "hollow", (1, 4, 4)).expect_err("no weight layers");
    assert_eq!(
        err,
        IrError::EmptyModel {
            model: "hollow".into()
        }
    );
}
