//! Residual families: ResNet-18/50/152, ResNeXt-101, WideResNet-28-10.
//!
//! Authored as typed IR (`*_ir`) with *real skip topology*: each residual
//! block's shortcut is an explicit edge into an `Add` join, so the
//! downsample projection (or identity skip) is a genuine parallel branch
//! beside the main path. The `ModelDesc` variants
//! lower via `Ir → ModelDesc`, which flattens the DAG in list order — the
//! weight-bearing layer sequence (and thus every MAC/weight count) is
//! identical to the historical linear authoring.

use crate::lower::to_model_desc;
use crate::{ConvGeom, IrBuilder, LayerNode, ModelDesc, ModelIr};

/// Builds a basic-block stage (two 3×3 convs per block), wiring each
/// block's skip edge into an `Add` join. Returns the join node index that
/// tails the stage and the output spatial extent.
///
/// `prev` is the node feeding the stage; `h` is the stage's input spatial
/// extent; the first block applies `stride` (and a 1×1 projection shortcut
/// when stride ≠ 1 or channels change — otherwise the skip is the identity
/// edge from `prev`).
#[allow(clippy::too_many_arguments)]
fn basic_stage(
    g: &mut IrBuilder,
    prev: usize,
    stage: usize,
    blocks: usize,
    cin: usize,
    cout: usize,
    h: usize,
    stride: usize,
) -> (usize, usize) {
    let mut c = cin;
    let mut hw = h;
    let mut tail = prev;
    for b in 0..blocks {
        let s = if b == 0 { stride } else { 1 };
        let name = |part: &str| format!("conv{stage}_{b}_{part}");
        let a = ConvGeom::new(c, cout, 3, 3, hw, hw, s, 1, 1);
        let (out_hw, _) = a.output_dim();
        let a = g.push_after(LayerNode::from_geom(&name("a"), a), &[tail]);
        let main = g.push_after(
            LayerNode::conv(&name("b"), cout, cout, 3, 3, out_hw, out_hw, 1, 1),
            &[a],
        );
        let skip = if b == 0 && (s != 1 || c != cout) {
            g.push_after(
                LayerNode::conv(&name("ds"), c, cout, 1, 1, hw, hw, s, 0),
                &[tail],
            )
        } else {
            tail
        };
        tail = g.push_after(LayerNode::add(&name("add")), &[main, skip]);
        c = cout;
        hw = out_hw;
    }
    (tail, hw)
}

/// Builds a bottleneck stage (1×1 reduce, 3×3, 1×1 expand ×4), optionally
/// grouped in the 3×3 (ResNeXt), with explicit skip edges per block.
/// Returns the stage's tail join index and output spatial extent.
#[allow(clippy::too_many_arguments)]
fn bottleneck_stage(
    g: &mut IrBuilder,
    prev: usize,
    stage: usize,
    blocks: usize,
    cin: usize,
    width: usize,
    cout: usize,
    h: usize,
    stride: usize,
    groups: usize,
) -> (usize, usize) {
    let mut c = cin;
    let mut hw = h;
    let mut tail = prev;
    for b in 0..blocks {
        let s = if b == 0 { stride } else { 1 };
        let name = |part: &str| format!("conv{stage}_{b}_{part}");
        let reduce = g.push_after(
            LayerNode::conv(&name("1x1a"), c, width, 1, 1, hw, hw, 1, 0),
            &[tail],
        );
        let mid = ConvGeom::new(width, width, 3, 3, hw, hw, s, 1, groups);
        let (out_hw, _) = mid.output_dim();
        let mid = g.push_after(LayerNode::from_geom(&name("3x3"), mid), &[reduce]);
        let expand = g.push_after(
            LayerNode::conv(&name("1x1b"), width, cout, 1, 1, out_hw, out_hw, 1, 0),
            &[mid],
        );
        let skip = if b == 0 && (s != 1 || c != cout) {
            g.push_after(
                LayerNode::conv(&name("ds"), c, cout, 1, 1, hw, hw, s, 0),
                &[tail],
            )
        } else {
            tail
        };
        tail = g.push_after(LayerNode::add(&name("add")), &[expand, skip]);
        c = cout;
        hw = out_hw;
    }
    (tail, hw)
}

/// ResNet-18 for ImageNet (`3×224×224`) as typed IR, with explicit skip
/// edges per residual block.
pub fn resnet18_ir() -> ModelIr {
    let mut g = IrBuilder::new("ResNet-18");
    let stem = g.push(LayerNode::conv("conv1", 3, 64, 7, 7, 224, 224, 2, 3));
    // maxpool 112 → 56.
    let mut hw = 56;
    let mut tail = stem;
    (tail, hw) = basic_stage(&mut g, tail, 2, 2, 64, 64, hw, 1);
    (tail, hw) = basic_stage(&mut g, tail, 3, 2, 64, 128, hw, 2);
    (tail, hw) = basic_stage(&mut g, tail, 4, 2, 128, 256, hw, 2);
    (tail, _) = basic_stage(&mut g, tail, 5, 2, 256, 512, hw, 2);
    g.push_after(LayerNode::fc("fc", 512, 1000), &[tail]);
    g.finish().expect("catalog ResNet-18 topology is valid")
}

/// ResNet-18 for ImageNet (`3×224×224`).
pub fn resnet18() -> ModelDesc {
    to_model_desc(&resnet18_ir()).expect("catalog model has weight layers")
}

/// ResNet-50 for ImageNet as typed IR.
pub fn resnet50_ir() -> ModelIr {
    resnet_bottleneck("ResNet-50", &[3, 4, 6, 3], 1)
}

/// ResNet-50 for ImageNet.
pub fn resnet50() -> ModelDesc {
    to_model_desc(&resnet50_ir()).expect("catalog model has weight layers")
}

/// ResNet-152 for ImageNet as typed IR.
pub fn resnet152_ir() -> ModelIr {
    resnet_bottleneck("ResNet-152", &[3, 8, 36, 3], 1)
}

/// ResNet-152 for ImageNet.
pub fn resnet152() -> ModelDesc {
    to_model_desc(&resnet152_ir()).expect("catalog model has weight layers")
}

/// ResNeXt-101 (32×4d) for ImageNet as typed IR: ResNet-101 stage depths
/// with 32-way grouped 3×3 convs and doubled internal width.
pub fn resnext101_ir() -> ModelIr {
    // 32x4d: internal widths 128/256/512/1024, outputs 256/512/1024/2048.
    bottleneck_family("ResNeXt-101", &[3, 4, 23, 3], &[128, 256, 512, 1024], 32)
}

/// ResNeXt-101 (32×4d) for ImageNet.
pub fn resnext101() -> ModelDesc {
    to_model_desc(&resnext101_ir()).expect("catalog model has weight layers")
}

fn resnet_bottleneck(name: &str, depths: &[usize; 4], groups: usize) -> ModelIr {
    bottleneck_family(name, depths, &[64, 128, 256, 512], groups)
}

/// Shared ImageNet bottleneck scaffold (stem, four stages, classifier)
/// parameterized by depth, internal width, and 3×3 grouping.
fn bottleneck_family(
    name: &str,
    depths: &[usize; 4],
    widths: &[usize; 4],
    groups: usize,
) -> ModelIr {
    let mut g = IrBuilder::new(name);
    let mut tail = g.push(LayerNode::conv("conv1", 3, 64, 7, 7, 224, 224, 2, 3));
    let mut hw = 56;
    let mut cin = 64;
    let couts = [256usize, 512, 1024, 2048];
    for (i, &blocks) in depths.iter().enumerate() {
        let stride = if i == 0 { 1 } else { 2 };
        (tail, hw) = bottleneck_stage(
            &mut g,
            tail,
            i + 2,
            blocks,
            cin,
            widths[i],
            couts[i],
            hw,
            stride,
            groups,
        );
        cin = couts[i];
    }
    g.push_after(LayerNode::fc("fc", 2048, 1000), &[tail]);
    g.finish()
        .unwrap_or_else(|e| panic!("catalog {name} topology is valid: {e}"))
}

/// WideResNet-28-10 for CIFAR-10 (`3×32×32`), the Table II entry, as typed
/// IR.
pub fn wide_resnet28_10_ir() -> ModelIr {
    let mut g = IrBuilder::new("WideResNet");
    let mut tail = g.push(LayerNode::conv("conv1", 3, 16, 3, 3, 32, 32, 1, 1));
    let mut hw = 32;
    (tail, hw) = basic_stage(&mut g, tail, 2, 4, 16, 160, hw, 1);
    (tail, hw) = basic_stage(&mut g, tail, 3, 4, 160, 320, hw, 2);
    (tail, _) = basic_stage(&mut g, tail, 4, 4, 320, 640, hw, 2);
    g.push_after(LayerNode::fc("fc", 640, 10), &[tail]);
    g.finish().expect("catalog WideResNet topology is valid")
}

/// WideResNet-28-10 for CIFAR-10 (`3×32×32`).
pub fn wide_resnet28_10() -> ModelDesc {
    to_model_desc(&wide_resnet28_10_ir()).expect("catalog model has weight layers")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_mac_count_is_canonical() {
        // ~1.8 GMACs.
        let total = resnet18().dense_mults();
        assert!(
            (1_600_000_000..2_000_000_000).contains(&total),
            "total={total}"
        );
    }

    #[test]
    fn resnet50_mac_count_is_canonical() {
        // ~4.1 GMACs.
        let total = resnet50().dense_mults();
        assert!(
            (3_700_000_000..4_400_000_000).contains(&total),
            "total={total}"
        );
    }

    #[test]
    fn resnet152_mac_count_is_canonical() {
        // ~11.5 GMACs.
        let total = resnet152().dense_mults();
        assert!(
            (10_500_000_000..12_500_000_000).contains(&total),
            "total={total}"
        );
    }

    #[test]
    fn resnet152_has_50_blocks_worth_of_layers() {
        // 1 stem + 3·(3+8+36+3) bottleneck convs + 4 downsamples + fc.
        let m = resnet152();
        let convs = m.conv_layers().count();
        assert_eq!(convs, 1 + 3 * 50 + 4);
    }

    #[test]
    fn resnext_groups_reduce_weights() {
        let rx = resnext101();
        let grouped: Vec<_> = rx.layers.iter().filter(|l| l.geom.groups == 32).collect();
        assert!(!grouped.is_empty());
        // A grouped 3x3 at width 128 has 128·4·9 weights, not 128·128·9.
        let first = grouped[0];
        assert_eq!(
            first.geom.weights(),
            (first.geom.k * (first.geom.c / 32) * 9) as u64
        );
    }

    #[test]
    fn wide_resnet_parameter_count_is_canonical() {
        // WRN-28-10 has ~36.5 M parameters.
        let w = wide_resnet28_10().weights();
        assert!((35_000_000..38_000_000).contains(&w), "w={w}");
    }

    #[test]
    fn residual_irs_carry_real_skip_topology() {
        for ir in [
            resnet18_ir(),
            resnet50_ir(),
            resnet152_ir(),
            resnext101_ir(),
            wide_resnet28_10_ir(),
        ] {
            assert!(!ir.is_linear(), "{} must carry edges", ir.name);
            ir.validate().unwrap_or_else(|e| panic!("{}: {e}", ir.name));
            let joins = ir.nodes.iter().filter(|n| n.is_join()).count();
            assert!(joins > 0, "{} has Add joins", ir.name);
            // Every join merges exactly a main path and a skip.
            for (i, node) in ir.nodes.iter().enumerate() {
                if node.is_join() {
                    assert_eq!(ir.predecessors(i).len(), 2, "{} node {i}", ir.name);
                }
            }
        }
    }

    #[test]
    fn resnet18_has_one_add_per_block() {
        let ir = resnet18_ir();
        let adds = ir.nodes.iter().filter(|n| n.is_join()).count();
        assert_eq!(adds, 8, "2 blocks x 4 stages");
    }

    #[test]
    fn final_stage_spatial_extent_is_seven() {
        for m in [resnet18(), resnet50(), resnet152()] {
            let last_conv = m
                .conv_layers()
                .last()
                .expect("model has conv layers")
                .clone();
            assert_eq!(last_conv.geom.output_dim().0, 7, "{}", m.name);
        }
    }
}
