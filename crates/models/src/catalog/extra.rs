//! Additional common benchmarks beyond the paper's own suite: GoogLeNet
//! (evaluated by SCNN, the paper's direct baseline) and MobileNetV1 — so
//! downstream users can run the standard sparse-accelerator workloads.
//!
//! Authored as typed IR (`*_ir`); the `ModelDesc` variants lower via
//! `Ir → ModelDesc`. GoogLeNet carries its real Inception topology: the
//! four branches of every module fan out from the module input and merge
//! in a `Concat` join.

use crate::lower::to_model_desc;
use crate::{ConvGeom, IrBuilder, LayerNode, ModelDesc, ModelIr};

/// Appends one Inception module: the four parallel branches of GoogLeNet
/// (`1×1`, `1×1→3×3`, `1×1→5×5`, `pool→1×1`), fanning out from `prev` and
/// merging in a `Concat` join. Returns the join index and output channels.
#[allow(clippy::too_many_arguments)]
fn inception(
    g: &mut IrBuilder,
    prev: usize,
    name: &str,
    cin: usize,
    c1: usize,
    c3r: usize,
    c3: usize,
    c5r: usize,
    c5: usize,
    pool_proj: usize,
    hw: usize,
) -> (usize, usize) {
    let n = |part: &str| format!("{name}/{part}");
    let b1 = g.push_after(
        LayerNode::conv(&n("1x1"), cin, c1, 1, 1, hw, hw, 1, 0),
        &[prev],
    );
    let r3 = g.push_after(
        LayerNode::conv(&n("3x3_reduce"), cin, c3r, 1, 1, hw, hw, 1, 0),
        &[prev],
    );
    let b3 = g.push_after(
        LayerNode::conv(&n("3x3"), c3r, c3, 3, 3, hw, hw, 1, 1),
        &[r3],
    );
    let r5 = g.push_after(
        LayerNode::conv(&n("5x5_reduce"), cin, c5r, 1, 1, hw, hw, 1, 0),
        &[prev],
    );
    let b5 = g.push_after(
        LayerNode::conv(&n("5x5"), c5r, c5, 5, 5, hw, hw, 1, 2),
        &[r5],
    );
    let bp = g.push_after(
        LayerNode::conv(&n("pool_proj"), cin, pool_proj, 1, 1, hw, hw, 1, 0),
        &[prev],
    );
    let cat = g.push_after(LayerNode::concat(&n("concat")), &[b1, b3, b5, bp]);
    (cat, c1 + c3 + c5 + pool_proj)
}

/// GoogLeNet (Inception v1) for ImageNet (`3×224×224`) as typed IR — the
/// workload SCNN's own evaluation used alongside AlexNet and VGG.
pub fn googlenet_ir() -> ModelIr {
    let mut g = IrBuilder::new("GoogLeNet");
    let conv1 = g.push(LayerNode::conv("conv1", 3, 64, 7, 7, 224, 224, 2, 3)); // → 112
                                                                               // maxpool → 56
    let reduce = g.push_after(
        LayerNode::conv("conv2_reduce", 64, 64, 1, 1, 56, 56, 1, 0),
        &[conv1],
    );
    let mut tail = g.push_after(
        LayerNode::conv("conv2", 64, 192, 3, 3, 56, 56, 1, 1),
        &[reduce],
    );
    // maxpool → 28
    let mut c = 192;
    (tail, c) = inception(&mut g, tail, "inception_3a", c, 64, 96, 128, 16, 32, 32, 28);
    (tail, c) = inception(
        &mut g,
        tail,
        "inception_3b",
        c,
        128,
        128,
        192,
        32,
        96,
        64,
        28,
    );
    // maxpool → 14
    (tail, c) = inception(
        &mut g,
        tail,
        "inception_4a",
        c,
        192,
        96,
        208,
        16,
        48,
        64,
        14,
    );
    (tail, c) = inception(
        &mut g,
        tail,
        "inception_4b",
        c,
        160,
        112,
        224,
        24,
        64,
        64,
        14,
    );
    (tail, c) = inception(
        &mut g,
        tail,
        "inception_4c",
        c,
        128,
        128,
        256,
        24,
        64,
        64,
        14,
    );
    (tail, c) = inception(
        &mut g,
        tail,
        "inception_4d",
        c,
        112,
        144,
        288,
        32,
        64,
        64,
        14,
    );
    (tail, c) = inception(
        &mut g,
        tail,
        "inception_4e",
        c,
        256,
        160,
        320,
        32,
        128,
        128,
        14,
    );
    // maxpool → 7
    (tail, c) = inception(
        &mut g,
        tail,
        "inception_5a",
        c,
        256,
        160,
        320,
        32,
        128,
        128,
        7,
    );
    (tail, c) = inception(
        &mut g,
        tail,
        "inception_5b",
        c,
        384,
        192,
        384,
        48,
        128,
        128,
        7,
    );
    g.push_after(LayerNode::fc("fc", c, 1000), &[tail]);
    g.finish().expect("catalog GoogLeNet topology is valid")
}

/// GoogLeNet (Inception v1) for ImageNet (`3×224×224`).
pub fn googlenet() -> ModelDesc {
    to_model_desc(&googlenet_ir()).expect("catalog model has weight layers")
}

/// MobileNetV1 (×1.0) for ImageNet (`3×224×224`) as typed IR: depthwise-
/// separable stacks — the canonical pointwise-dominated workload.
pub fn mobilenet_v1_ir() -> ModelIr {
    let mut nodes = vec![LayerNode::conv("conv1", 3, 32, 3, 3, 224, 224, 2, 1)]; // → 112
                                                                                 // (cin, cout, stride, input hw) per depthwise-separable block.
    let blocks: [(usize, usize, usize, usize); 13] = [
        (32, 64, 1, 112),
        (64, 128, 2, 112),
        (128, 128, 1, 56),
        (128, 256, 2, 56),
        (256, 256, 1, 28),
        (256, 512, 2, 28),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 1024, 2, 14),
        (1024, 1024, 1, 7),
    ];
    for (i, &(cin, cout, stride, hw)) in blocks.iter().enumerate() {
        let dw = ConvGeom::new(cin, cin, 3, 3, hw, hw, stride, 1, cin);
        let (out_hw, _) = dw.output_dim();
        nodes.push(LayerNode::from_geom(&format!("dw{}", i + 1), dw));
        nodes.push(LayerNode::conv(
            &format!("pw{}", i + 1),
            cin,
            cout,
            1,
            1,
            out_hw,
            out_hw,
            1,
            0,
        ));
    }
    nodes.push(LayerNode::fc("fc", 1024, 1000));
    ModelIr::new("MobileNetV1", nodes)
}

/// MobileNetV1 (×1.0) for ImageNet (`3×224×224`).
pub fn mobilenet_v1() -> ModelDesc {
    to_model_desc(&mobilenet_v1_ir()).expect("catalog model has weight layers")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn googlenet_mac_count_is_canonical() {
        // ~1.5 GMACs.
        let total = googlenet().dense_mults();
        assert!(
            (1_300_000_000..1_800_000_000).contains(&total),
            "total={total}"
        );
    }

    #[test]
    fn googlenet_has_nine_inception_modules() {
        let m = googlenet();
        let modules: std::collections::BTreeSet<String> = m
            .layers
            .iter()
            .filter(|l| l.name.starts_with("inception_"))
            .map(|l| l.name.split('/').next().expect("module prefix").to_string())
            .collect();
        assert_eq!(modules.len(), 9);
        // Each module contributes six conv layers.
        let inception_layers = m
            .layers
            .iter()
            .filter(|l| l.name.starts_with("inception_"))
            .count();
        assert_eq!(inception_layers, 9 * 6);
    }

    #[test]
    fn googlenet_modules_concat_four_branches() {
        let ir = googlenet_ir();
        assert!(!ir.is_linear());
        ir.validate().expect("valid inception topology");
        let concats: Vec<usize> = ir
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_join())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(concats.len(), 9, "one concat per module");
        for i in concats {
            assert_eq!(ir.predecessors(i).len(), 4, "node {i}");
        }
    }

    #[test]
    fn mobilenet_mac_count_is_canonical() {
        // ~570 MMACs.
        let total = mobilenet_v1().dense_mults();
        assert!((450_000_000..680_000_000).contains(&total), "total={total}");
    }

    #[test]
    fn mobilenet_is_pointwise_dominated() {
        let m = mobilenet_v1();
        let pw: u64 = m
            .layers
            .iter()
            .filter(|l| l.geom.r == 1 && l.geom.s == 1)
            .map(|l| l.geom.dense_mults())
            .sum();
        assert!(
            pw as f64 / m.dense_mults() as f64 > 0.9,
            "pointwise carries >90% of MACs"
        );
    }
}
