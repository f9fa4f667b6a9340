//! Compact/mobile families: SqueezeNet, ShuffleNet-V2, EfficientNet-B7.
//!
//! Authored as typed IR (`*_ir`); the `ModelDesc` variants lower via
//! `Ir → ModelDesc`.

use crate::lower::to_model_desc;
use crate::{ConvGeom, LayerNode, ModelDesc, ModelIr};

/// Appends a SqueezeNet fire module: 1×1 squeeze, then parallel 1×1 and 3×3
/// expands.
fn fire(
    nodes: &mut Vec<LayerNode>,
    idx: usize,
    cin: usize,
    squeeze: usize,
    expand: usize,
    hw: usize,
) {
    let name = |part: &str| format!("fire{idx}/{part}");
    nodes.push(LayerNode::conv(
        &name("squeeze1x1"),
        cin,
        squeeze,
        1,
        1,
        hw,
        hw,
        1,
        0,
    ));
    nodes.push(LayerNode::conv(
        &name("expand1x1"),
        squeeze,
        expand,
        1,
        1,
        hw,
        hw,
        1,
        0,
    ));
    nodes.push(LayerNode::conv(
        &name("expand3x3"),
        squeeze,
        expand,
        3,
        3,
        hw,
        hw,
        1,
        1,
    ));
}

/// SqueezeNet 1.0 for ImageNet (`3×224×224`) as typed IR.
pub fn squeezenet_ir() -> ModelIr {
    let mut nodes = vec![LayerNode::conv("conv1", 3, 96, 7, 7, 224, 224, 2, 0)]; // → 109
                                                                                 // maxpool 3/2 → 54.
    fire(&mut nodes, 2, 96, 16, 64, 54);
    fire(&mut nodes, 3, 128, 16, 64, 54);
    fire(&mut nodes, 4, 128, 32, 128, 54);
    // maxpool → 27.
    fire(&mut nodes, 5, 256, 32, 128, 27);
    fire(&mut nodes, 6, 256, 48, 192, 27);
    fire(&mut nodes, 7, 384, 48, 192, 27);
    fire(&mut nodes, 8, 384, 64, 256, 27);
    // maxpool → 13.
    fire(&mut nodes, 9, 512, 64, 256, 13);
    nodes.push(LayerNode::conv("conv10", 512, 1000, 1, 1, 13, 13, 1, 0));
    ModelIr::new("SqueezeNet", nodes)
}

/// SqueezeNet 1.0 for ImageNet (`3×224×224`).
pub fn squeezenet() -> ModelDesc {
    to_model_desc(&squeezenet_ir()).expect("catalog model has weight layers")
}

/// Appends one ShuffleNet-V2 stage: a stride-2 downsample unit followed by
/// `units - 1` stride-1 units. Returns the stage's output spatial extent.
fn shuffle_stage(
    nodes: &mut Vec<LayerNode>,
    stage: usize,
    cin: usize,
    cout: usize,
    units: usize,
    hw: usize,
) -> usize {
    let half = cout / 2;
    let name = |u: usize, part: &str| format!("stage{stage}_{u}/{part}");
    // Downsample unit: two branches, both stride 2.
    let b1_dw = ConvGeom::new(cin, cin, 3, 3, hw, hw, 2, 1, cin);
    let (out_hw, _) = b1_dw.output_dim();
    nodes.push(LayerNode::from_geom(&name(0, "b1_dw"), b1_dw));
    nodes.push(LayerNode::conv(
        &name(0, "b1_pw"),
        cin,
        half,
        1,
        1,
        out_hw,
        out_hw,
        1,
        0,
    ));
    nodes.push(LayerNode::conv(
        &name(0, "b2_pw1"),
        cin,
        half,
        1,
        1,
        hw,
        hw,
        1,
        0,
    ));
    nodes.push(LayerNode::grouped(
        &name(0, "b2_dw"),
        half,
        half,
        3,
        3,
        hw,
        hw,
        2,
        1,
        half,
    ));
    nodes.push(LayerNode::conv(
        &name(0, "b2_pw2"),
        half,
        half,
        1,
        1,
        out_hw,
        out_hw,
        1,
        0,
    ));
    // Stride-1 units: only one branch carries weights (the other half of the
    // channels passes through the channel shuffle).
    for u in 1..units {
        nodes.push(LayerNode::conv(
            &name(u, "pw1"),
            half,
            half,
            1,
            1,
            out_hw,
            out_hw,
            1,
            0,
        ));
        nodes.push(LayerNode::grouped(
            &name(u, "dw"),
            half,
            half,
            3,
            3,
            out_hw,
            out_hw,
            1,
            1,
            half,
        ));
        nodes.push(LayerNode::conv(
            &name(u, "pw2"),
            half,
            half,
            1,
            1,
            out_hw,
            out_hw,
            1,
            0,
        ));
    }
    out_hw
}

/// ShuffleNet-V2 ×1.0 for ImageNet (`3×224×224`) as typed IR.
pub fn shufflenet_v2_ir() -> ModelIr {
    let mut nodes = vec![LayerNode::conv("conv1", 3, 24, 3, 3, 224, 224, 2, 1)]; // → 112
                                                                                 // maxpool → 56.
    let mut hw = 56;
    hw = shuffle_stage(&mut nodes, 2, 24, 116, 4, hw);
    hw = shuffle_stage(&mut nodes, 3, 116, 232, 8, hw);
    hw = shuffle_stage(&mut nodes, 4, 232, 464, 4, hw);
    nodes.push(LayerNode::conv("conv5", 464, 1024, 1, 1, hw, hw, 1, 0));
    nodes.push(LayerNode::fc("fc", 1024, 1000));
    ModelIr::new("ShuffleNet-V2", nodes)
}

/// ShuffleNet-V2 ×1.0 for ImageNet (`3×224×224`).
pub fn shufflenet_v2() -> ModelDesc {
    to_model_desc(&shufflenet_v2_ir()).expect("catalog model has weight layers")
}

/// Rounds a scaled channel count to the nearest multiple of 8 (the
/// EfficientNet `round_filters` rule, never dropping below 90 %).
fn round_filters(c: usize, width: f64) -> usize {
    let scaled = c as f64 * width;
    let mut new = ((scaled + 4.0) / 8.0).floor() as usize * 8;
    if (new as f64) < 0.9 * scaled {
        new += 8;
    }
    new.max(8)
}

/// EfficientNet-B7 for ImageNet (`3×600×600`) as typed IR: B0's MBConv
/// stages scaled by width 2.0 and depth 3.1. Squeeze-excite sub-layers are
/// omitted (they contribute < 1 % of MACs; documented in DESIGN.md).
pub fn efficientnet_b7_ir() -> ModelIr {
    const WIDTH: f64 = 2.0;
    const DEPTH: f64 = 3.1;
    // B0 stage table: (expand, channels, repeats, stride, kernel).
    const STAGES: [(usize, usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1, 3),
        (6, 24, 2, 2, 3),
        (6, 40, 2, 2, 5),
        (6, 80, 3, 2, 3),
        (6, 112, 3, 1, 5),
        (6, 192, 4, 2, 5),
        (6, 320, 1, 1, 3),
    ];
    let stem = round_filters(32, WIDTH);
    let mut nodes = vec![LayerNode::conv("stem", 3, stem, 3, 3, 600, 600, 2, 1)]; // → 300
    let mut hw = 300;
    let mut cin = stem;
    for (si, &(t, c, n, s, k)) in STAGES.iter().enumerate() {
        let cout = round_filters(c, WIDTH);
        let repeats = (n as f64 * DEPTH).ceil() as usize;
        for b in 0..repeats {
            let stride = if b == 0 { s } else { 1 };
            let name = |part: &str| format!("mb{}_{b}/{part}", si + 1);
            let expanded = cin * t;
            if t != 1 {
                nodes.push(LayerNode::conv(
                    &name("expand"),
                    cin,
                    expanded,
                    1,
                    1,
                    hw,
                    hw,
                    1,
                    0,
                ));
            }
            let dw = ConvGeom::new(
                expanded,
                expanded,
                k,
                k,
                hw,
                hw,
                stride,
                (k - 1) / 2,
                expanded,
            );
            let (out_hw, _) = dw.output_dim();
            nodes.push(LayerNode::from_geom(&name("dw"), dw));
            nodes.push(LayerNode::conv(
                &name("project"),
                expanded,
                cout,
                1,
                1,
                out_hw,
                out_hw,
                1,
                0,
            ));
            cin = cout;
            hw = out_hw;
        }
    }
    let head = round_filters(1280, WIDTH);
    nodes.push(LayerNode::conv("head", cin, head, 1, 1, hw, hw, 1, 0));
    nodes.push(LayerNode::fc("fc", head, 1000));
    ModelIr::new("EfficientNet-B7", nodes)
}

/// EfficientNet-B7 for ImageNet (`3×600×600`).
pub fn efficientnet_b7() -> ModelDesc {
    to_model_desc(&efficientnet_b7_ir()).expect("catalog model has weight layers")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    #[test]
    fn squeezenet_mac_count_is_canonical() {
        // ~0.8 GMACs.
        let total = squeezenet().dense_mults();
        assert!(
            (600_000_000..1_000_000_000).contains(&total),
            "total={total}"
        );
    }

    #[test]
    fn shufflenet_mac_count_is_canonical() {
        // ~146 MMACs.
        let total = shufflenet_v2().dense_mults();
        assert!((110_000_000..180_000_000).contains(&total), "total={total}");
    }

    #[test]
    fn efficientnet_b7_mac_count_is_canonical() {
        // torchvision reports 37.75 GMACs for EfficientNet-B7 at 600x600;
        // we omit squeeze-excite (<1 % of MACs), so expect ~35-39 G.
        let total = efficientnet_b7().dense_mults();
        assert!(
            (34_000_000_000..40_000_000_000).contains(&total),
            "total={total}"
        );
    }

    #[test]
    fn depthwise_layers_are_marked() {
        let m = shufflenet_v2();
        assert!(m.layers.iter().any(|l| l.kind == LayerKind::Depthwise));
        let e = efficientnet_b7();
        assert!(e.layers.iter().any(|l| l.kind == LayerKind::Depthwise));
    }

    #[test]
    fn round_filters_matches_reference_rule() {
        assert_eq!(round_filters(32, 2.0), 64);
        assert_eq!(round_filters(1280, 2.0), 2560);
        assert_eq!(round_filters(16, 1.0), 16);
        // 0.9 floor: 24·1.1 = 26.4 → nearest 8 is 24, 24 ≥ 23.76 → 24.
        assert_eq!(round_filters(24, 1.1), 24);
    }

    #[test]
    fn fire_modules_have_paired_expands() {
        let m = squeezenet();
        let e1: Vec<_> = m
            .layers
            .iter()
            .filter(|l| l.name.contains("expand1x1"))
            .collect();
        let e3: Vec<_> = m
            .layers
            .iter()
            .filter(|l| l.name.contains("expand3x3"))
            .collect();
        assert_eq!(e1.len(), 8);
        assert_eq!(e3.len(), 8);
        for (a, b) in e1.iter().zip(&e3) {
            assert_eq!(a.geom.k, b.geom.k, "expand widths match");
        }
    }
}
