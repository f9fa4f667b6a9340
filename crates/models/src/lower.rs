//! Lowering passes between the typed IR and the geometry catalog.
//!
//! `Ir → ModelDesc` ([`to_model_desc`]) validates the graph topology, then
//! keeps the weight-bearing nodes in (topological) list order and drops
//! the shape-routing and join ones — flattening a DAG into the sequential
//! geometry view; `ModelDesc → Ir` ([`to_ir`]) raises a descriptor back to
//! a linear-chain IR, and is an exact right inverse, so
//! `to_model_desc(&to_ir(&desc)) == Ok(desc)` holds bit-identically for
//! every catalog model (see `tests/integration_ir.rs`).

use cscnn_ir::{IrError, LayerNode, ModelIr};

use crate::layer::{LayerDesc, LayerKind, ModelDesc};

/// Lowers one IR node to its geometry descriptor, or `None` for nodes that
/// carry no weights (pool / activation / flatten / norm / dropout, and the
/// `Add` / `Concat` joins — merges move data, not MACs).
pub fn layer_desc(node: &LayerNode) -> Option<LayerDesc> {
    match node {
        LayerNode::Conv { name, geom, .. } | LayerNode::Depthwise { name, geom, .. } => {
            Some(LayerDesc::from_geom(name, *geom))
        }
        LayerNode::FullyConnected {
            name,
            inputs,
            outputs,
            ..
        } => Some(LayerDesc::fc(name, *inputs, *outputs)),
        _ => None,
    }
}

/// `Ir → ModelDesc` geometry lowering: validates the topology, then keeps
/// the weight-bearing nodes in list order (which validation guarantees is
/// a topological order, so the flattened view is a legal schedule).
///
/// # Errors
///
/// [`IrError::BadTopology`] if the graph is malformed;
/// [`IrError::EmptyModel`] if the IR has no weight-bearing nodes.
pub fn to_model_desc(ir: &ModelIr) -> Result<ModelDesc, IrError> {
    ir.validate().map_err(|error| IrError::BadTopology {
        model: ir.name.clone(),
        error,
    })?;
    let layers: Vec<LayerDesc> = ir.nodes.iter().filter_map(layer_desc).collect();
    if layers.is_empty() {
        return Err(IrError::EmptyModel {
            model: ir.name.clone(),
        });
    }
    Ok(ModelDesc::new(&ir.name, layers))
}

/// `ModelDesc → Ir` raising: one weight-bearing node per descriptor.
///
/// Depthwise inference is deterministic on both sides (`groups == c == k
/// > 1`), so this is a bit-exact right inverse of [`to_model_desc`].
pub fn to_ir(model: &ModelDesc) -> ModelIr {
    let nodes = model
        .layers
        .iter()
        .map(|l| match l.kind {
            LayerKind::FullyConnected => LayerNode::fc(&l.name, l.geom.c, l.geom.k),
            LayerKind::Conv | LayerKind::Depthwise => LayerNode::from_geom(&l.name, l.geom),
        })
        .collect();
    ModelIr::new(&model.name, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscnn_ir::{ActivationKind, PoolKind};

    #[test]
    fn weightless_nodes_are_dropped_by_geometry_lowering() {
        let ir = ModelIr::new(
            "m",
            vec![
                LayerNode::conv("C1", 1, 6, 5, 5, 28, 28, 1, 2),
                LayerNode::Activation {
                    kind: ActivationKind::Relu,
                },
                LayerNode::Pool {
                    kind: PoolKind::Max,
                    window: 2,
                    stride: 2,
                },
                LayerNode::Flatten,
                LayerNode::fc("F5", 1176, 10),
            ],
        );
        let desc = to_model_desc(&ir).expect("has weight layers");
        assert_eq!(desc.layers.len(), 2);
        assert_eq!(desc.layers[0].name, "C1");
        assert_eq!(desc.layers[1].kind, LayerKind::FullyConnected);
    }

    #[test]
    fn empty_ir_reports_model_name() {
        let ir = ModelIr::new("hollow", vec![LayerNode::Flatten]);
        let err = to_model_desc(&ir).expect_err("no weight layers");
        assert_eq!(
            err,
            IrError::EmptyModel {
                model: "hollow".into()
            }
        );
    }

    #[test]
    fn malformed_topology_is_rejected_before_flattening() {
        // An Add join in an implicit chain has fan-in 1 — invalid.
        let ir = ModelIr::new(
            "res",
            vec![
                LayerNode::conv("C1", 1, 4, 3, 3, 8, 8, 1, 1),
                LayerNode::add("join"),
            ],
        );
        let err = to_model_desc(&ir).expect_err("starved join");
        assert!(
            matches!(err, IrError::BadTopology { ref model, .. } if model == "res"),
            "{err}"
        );
        assert!(err.to_string().contains("join"), "{err}");
    }

    #[test]
    fn dag_ir_flattens_in_list_order() {
        let mut g = cscnn_ir::IrBuilder::new("diamond");
        let stem = g.push(LayerNode::conv("a", 1, 4, 3, 3, 8, 8, 1, 1));
        let branch = g.push_after(LayerNode::conv("b", 4, 4, 3, 3, 8, 8, 1, 1), &[stem]);
        let join = g.push_after(LayerNode::add("j"), &[branch]);
        g.edge(stem, join);
        let ir = g.finish().expect("valid diamond");
        let desc = to_model_desc(&ir).expect("flattens");
        let names: Vec<_> = desc.layers.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["a", "b"], "joins are dropped, order preserved");
    }

    #[test]
    fn round_trip_preserves_grouping_and_kind() {
        let desc = ModelDesc::new(
            "g",
            vec![
                LayerDesc::conv("C1", 3, 96, 11, 11, 224, 224, 4, 2),
                LayerDesc::grouped("C2", 96, 256, 5, 5, 27, 27, 1, 2, 2),
                LayerDesc::grouped("dw", 116, 116, 3, 3, 28, 28, 1, 1, 116),
                LayerDesc::fc("FC", 1024, 1000),
            ],
        );
        let back = to_model_desc(&to_ir(&desc)).expect("round trip");
        assert_eq!(back, desc);
        assert_eq!(back.layers[2].kind, LayerKind::Depthwise);
    }
}
