//! On-disk JSON artifacts for annotated [`ModelIr`]s.
//!
//! A trained + annotated model travels to the simulator as a single JSON
//! document (the paper's "PyTorch extract" file, typed — see
//! `docs/batching.md` for the field-by-field schema):
//!
//! ```json
//! {
//!   "format": "cscnn-ir",
//!   "version": 2,
//!   "name": "ResNet-ish",
//!   "nodes": [
//!     {"kind": "conv", "name": "C1", "c": 1, "k": 6, "r": 5, "s": 5,
//!      "h": 28, "w": 28, "stride": 1, "padding": 2, "groups": 1,
//!      "centrosymmetric": true,
//!      "sparsity": {"weight_density": 0.4, "activation_density": 1.0}},
//!     {"kind": "conv", "name": "C2", "c": 6, "k": 6, "r": 3, "s": 3,
//!      "h": 28, "w": 28, "stride": 1, "padding": 1, "groups": 1,
//!      "centrosymmetric": false, "sparsity": null},
//!     {"kind": "add", "name": "C2_add"}
//!   ],
//!   "edges": [
//!     {"from": 0, "to": 1}, {"from": 1, "to": 2}, {"from": 0, "to": 2}
//!   ]
//! }
//! ```
//!
//! Schema version 2 adds DAG topology: the `edges` array and the `add` /
//! `concat` join node kinds. Version-1 artifacts (linear node lists, no
//! `edges`) still load — the upgrade is lossless because an absent edge
//! list *is* the implicit linear chain — while `edges` or join nodes in a
//! document declaring `"version": 1` are rejected.
//!
//! Serialization ([`ModelIr::to_json_string`] / [`ModelIr::to_json_pretty`])
//! cannot fail; parsing ([`ModelIr::from_json_str`]) is strict and returns
//! an [`ArtifactError`] naming the offending node and field, so a bad
//! artifact in a directory of thousands is actionable. A parsed artifact is
//! always *valid* IR: geometry extents are non-zero, groups divide
//! channels, depthwise nodes satisfy `groups == c == k`, densities lie in
//! `[0, 1]`, and the topology passes [`ModelIr::validate`] (in-bounds,
//! acyclic, topologically ordered, join arity respected).

use std::fmt;

use cscnn_json::Value;

use crate::{
    ActivationKind, ConvGeom, IrEdge, LayerNode, ModelIr, PoolKind, SparsityAnnotation,
    TopologyError,
};

/// The artifact schema version this crate writes (and the newest it reads).
pub const SCHEMA_VERSION: u64 = 2;

/// The oldest artifact schema version this crate still reads.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// The `format` tag every artifact carries.
pub const SCHEMA_FORMAT: &str = "cscnn-ir";

/// Why a JSON artifact could not be read back as a [`ModelIr`]. Node-level
/// variants name the offending node (by index, and by layer name when one
/// was parsed) and the offending field, so errors deep in a large artifact
/// are actionable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The document is not well-formed JSON.
    Syntax(cscnn_json::Error),
    /// A top-level field is missing, mistyped, or unsupported.
    Document {
        /// The offending top-level field (`"format"`, `"version"`, …).
        field: &'static str,
        /// Why it is rejected.
        reason: String,
    },
    /// A node entry is missing a field, carries a mistyped field, or fails
    /// validation.
    Node {
        /// Index of the offending node in `nodes` (execution order).
        index: usize,
        /// The node's layer name, when one was parsed before the failure.
        layer: Option<String>,
        /// The offending field (`"kind"`, `"geom.groups"`, …).
        field: &'static str,
        /// Why it is rejected.
        reason: String,
    },
    /// The document parsed but its graph topology is malformed (dangling
    /// or backward edge, cycle, bad join arity); the inner error names the
    /// offending node or edge.
    Topology(TopologyError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Syntax(e) => write!(f, "malformed JSON: {e}"),
            ArtifactError::Document { field, reason } => {
                write!(f, "artifact field `{field}`: {reason}")
            }
            ArtifactError::Node {
                index,
                layer,
                field,
                reason,
            } => match layer {
                Some(name) => {
                    write!(f, "node {index} (`{name}`), field `{field}`: {reason}")
                }
                None => write!(f, "node {index}, field `{field}`: {reason}"),
            },
            ArtifactError::Topology(e) => write!(f, "artifact topology: {e}"),
        }
    }
}

impl From<TopologyError> for ArtifactError {
    fn from(e: TopologyError) -> Self {
        ArtifactError::Topology(e)
    }
}

impl std::error::Error for ArtifactError {}

impl From<cscnn_json::Error> for ArtifactError {
    fn from(e: cscnn_json::Error) -> Self {
        ArtifactError::Syntax(e)
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

impl cscnn_json::ToJson for SparsityAnnotation {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("weight_density".into(), Value::F64(self.weight_density)),
            (
                "activation_density".into(),
                Value::F64(self.activation_density),
            ),
        ])
    }
}

fn geom_fields(geom: &ConvGeom, out: &mut Vec<(String, Value)>) {
    for (key, value) in [
        ("c", geom.c),
        ("k", geom.k),
        ("r", geom.r),
        ("s", geom.s),
        ("h", geom.h),
        ("w", geom.w),
        ("stride", geom.stride),
        ("padding", geom.padding),
        ("groups", geom.groups),
    ] {
        out.push((key.into(), Value::U64(value as u64)));
    }
}

impl cscnn_json::ToJson for LayerNode {
    fn to_json(&self) -> Value {
        let mut obj: Vec<(String, Value)> = Vec::new();
        let kind = |obj: &mut Vec<(String, Value)>, k: &str| {
            obj.push(("kind".into(), Value::Str(k.into())));
        };
        match self {
            LayerNode::Conv {
                name,
                geom,
                centrosymmetric,
                sparsity,
            }
            | LayerNode::Depthwise {
                name,
                geom,
                centrosymmetric,
                sparsity,
            } => {
                kind(
                    &mut obj,
                    if matches!(self, LayerNode::Conv { .. }) {
                        "conv"
                    } else {
                        "depthwise"
                    },
                );
                obj.push(("name".into(), Value::Str(name.clone())));
                geom_fields(geom, &mut obj);
                obj.push(("centrosymmetric".into(), Value::Bool(*centrosymmetric)));
                obj.push(("sparsity".into(), sparsity.to_json()));
            }
            LayerNode::FullyConnected {
                name,
                inputs,
                outputs,
                sparsity,
            } => {
                kind(&mut obj, "fc");
                obj.push(("name".into(), Value::Str(name.clone())));
                obj.push(("inputs".into(), Value::U64(*inputs as u64)));
                obj.push(("outputs".into(), Value::U64(*outputs as u64)));
                obj.push(("sparsity".into(), sparsity.to_json()));
            }
            LayerNode::Pool {
                kind: pool,
                window,
                stride,
            } => {
                kind(&mut obj, "pool");
                let label = match pool {
                    PoolKind::Max => "max",
                    PoolKind::Avg => "avg",
                };
                obj.push(("pool".into(), Value::Str(label.into())));
                obj.push(("window".into(), Value::U64(*window as u64)));
                obj.push(("stride".into(), Value::U64(*stride as u64)));
            }
            LayerNode::Activation { kind: act } => {
                kind(&mut obj, "activation");
                let label = match act {
                    ActivationKind::Relu => "relu",
                };
                obj.push(("activation".into(), Value::Str(label.into())));
            }
            LayerNode::Flatten => kind(&mut obj, "flatten"),
            LayerNode::Norm { channels } => {
                kind(&mut obj, "norm");
                obj.push(("channels".into(), Value::U64(*channels as u64)));
            }
            LayerNode::Dropout { p } => {
                kind(&mut obj, "dropout");
                obj.push(("p".into(), Value::F64(*p)));
            }
            LayerNode::Add { name } => {
                kind(&mut obj, "add");
                obj.push(("name".into(), Value::Str(name.clone())));
            }
            LayerNode::Concat { name } => {
                kind(&mut obj, "concat");
                obj.push(("name".into(), Value::Str(name.clone())));
            }
        }
        Value::Obj(obj)
    }
}

impl cscnn_json::ToJson for ModelIr {
    fn to_json(&self) -> Value {
        let mut obj = vec![
            ("format".into(), Value::Str(SCHEMA_FORMAT.into())),
            ("version".into(), Value::U64(SCHEMA_VERSION)),
            ("name".into(), Value::Str(self.name.clone())),
            (
                "nodes".into(),
                Value::Arr(self.nodes.iter().map(|n| n.to_json()).collect()),
            ),
        ];
        // An implicit linear chain carries no edge list — the absent field
        // round-trips to an empty `edges`, keeping v1-era linear artifacts
        // and their v2 re-serializations structurally identical.
        if !self.edges.is_empty() {
            obj.push((
                "edges".into(),
                Value::Arr(
                    self.edges
                        .iter()
                        .map(|e| {
                            Value::Obj(vec![
                                ("from".into(), Value::U64(e.from as u64)),
                                ("to".into(), Value::U64(e.to as u64)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Value::Obj(obj)
    }
}

// ---------------------------------------------------------------------------
// Parsing + validation
// ---------------------------------------------------------------------------

/// Per-node parse cursor: accumulates the context every error must name.
struct NodeCx<'a> {
    index: usize,
    layer: Option<String>,
    obj: &'a Value,
}

impl NodeCx<'_> {
    fn err(&self, field: &'static str, reason: impl Into<String>) -> ArtifactError {
        ArtifactError::Node {
            index: self.index,
            layer: self.layer.clone(),
            field,
            reason: reason.into(),
        }
    }

    fn field(&self, field: &'static str) -> Result<&Value, ArtifactError> {
        self.obj
            .get(field)
            .ok_or_else(|| self.err(field, "missing"))
    }

    fn str_field(&self, field: &'static str) -> Result<String, ArtifactError> {
        self.field(field)?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| self.err(field, "expected a string"))
    }

    fn usize_field(&self, field: &'static str) -> Result<usize, ArtifactError> {
        let n = self
            .field(field)?
            .as_u64()
            .ok_or_else(|| self.err(field, "expected a non-negative integer"))?;
        usize::try_from(n).map_err(|_| self.err(field, format!("{n} out of range")))
    }

    fn positive_field(&self, field: &'static str) -> Result<usize, ArtifactError> {
        let n = self.usize_field(field)?;
        if n == 0 {
            return Err(self.err(field, "must be non-zero"));
        }
        Ok(n)
    }

    fn bool_field(&self, field: &'static str) -> Result<bool, ArtifactError> {
        self.field(field)?
            .as_bool()
            .ok_or_else(|| self.err(field, "expected a boolean"))
    }

    fn f64_field(&self, field: &'static str) -> Result<f64, ArtifactError> {
        self.field(field)?
            .as_f64()
            .ok_or_else(|| self.err(field, "expected a number"))
    }

    fn density(&self, v: &Value, field: &'static str) -> Result<f64, ArtifactError> {
        let d = v
            .as_f64()
            .ok_or_else(|| self.err(field, "expected a number"))?;
        if !(0.0..=1.0).contains(&d) {
            return Err(self.err(field, format!("density {d} outside [0, 1]")));
        }
        Ok(d)
    }

    fn sparsity(&self) -> Result<Option<SparsityAnnotation>, ArtifactError> {
        let v = self.field("sparsity")?;
        if v.is_null() {
            return Ok(None);
        }
        let wd = v
            .get("weight_density")
            .ok_or_else(|| self.err("sparsity.weight_density", "missing"))?;
        let ad = v
            .get("activation_density")
            .ok_or_else(|| self.err("sparsity.activation_density", "missing"))?;
        Ok(Some(SparsityAnnotation {
            weight_density: self.density(wd, "sparsity.weight_density")?,
            activation_density: self.density(ad, "sparsity.activation_density")?,
        }))
    }

    fn geom(&self) -> Result<ConvGeom, ArtifactError> {
        let geom = ConvGeom {
            c: self.positive_field("c")?,
            k: self.positive_field("k")?,
            r: self.positive_field("r")?,
            s: self.positive_field("s")?,
            h: self.positive_field("h")?,
            w: self.positive_field("w")?,
            stride: self.positive_field("stride")?,
            padding: self.usize_field("padding")?,
            groups: self.positive_field("groups")?,
        };
        geom.check()
            .map_err(|(field, reason)| self.err(field, reason))?;
        Ok(geom)
    }
}

fn parse_node(index: usize, obj: &Value) -> Result<LayerNode, ArtifactError> {
    let mut cx = NodeCx {
        index,
        layer: None,
        obj,
    };
    if obj.as_object().is_none() {
        return Err(cx.err("kind", "node is not a JSON object"));
    }
    let kind = cx.str_field("kind")?;
    // Weight-bearing and join nodes have a name; record it so later
    // errors name it.
    if matches!(
        kind.as_str(),
        "conv" | "depthwise" | "fc" | "add" | "concat"
    ) {
        cx.layer = Some(cx.str_field("name")?);
    }
    match kind.as_str() {
        "conv" | "depthwise" => {
            let geom = cx.geom()?;
            let depthwise = kind == "depthwise";
            if depthwise && !geom.is_depthwise() {
                return Err(cx.err(
                    "groups",
                    format!(
                        "depthwise requires groups == c == k > 1 (got groups={}, c={}, k={})",
                        geom.groups, geom.c, geom.k
                    ),
                ));
            }
            if !depthwise && geom.is_depthwise() {
                return Err(cx.err(
                    "kind",
                    "groups == c == k > 1 must be declared `depthwise`, not `conv`",
                ));
            }
            let name = cx.layer.clone().unwrap_or_default();
            let centrosymmetric = cx.bool_field("centrosymmetric")?;
            let sparsity = cx.sparsity()?;
            Ok(if depthwise {
                LayerNode::Depthwise {
                    name,
                    geom,
                    centrosymmetric,
                    sparsity,
                }
            } else {
                LayerNode::Conv {
                    name,
                    geom,
                    centrosymmetric,
                    sparsity,
                }
            })
        }
        "fc" => Ok(LayerNode::FullyConnected {
            name: cx.layer.clone().unwrap_or_default(),
            inputs: cx.positive_field("inputs")?,
            outputs: cx.positive_field("outputs")?,
            sparsity: cx.sparsity()?,
        }),
        "pool" => {
            let pool = match cx.str_field("pool")?.as_str() {
                "max" => PoolKind::Max,
                "avg" => PoolKind::Avg,
                other => {
                    return Err(cx.err("pool", format!("unknown pool kind `{other}`")));
                }
            };
            Ok(LayerNode::Pool {
                kind: pool,
                window: cx.positive_field("window")?,
                stride: cx.positive_field("stride")?,
            })
        }
        "activation" => match cx.str_field("activation")?.as_str() {
            "relu" => Ok(LayerNode::Activation {
                kind: ActivationKind::Relu,
            }),
            other => Err(cx.err("activation", format!("unknown activation `{other}`"))),
        },
        "flatten" => Ok(LayerNode::Flatten),
        "norm" => Ok(LayerNode::Norm {
            channels: cx.positive_field("channels")?,
        }),
        "dropout" => {
            let p = cx.f64_field("p")?;
            if !(0.0..=1.0).contains(&p) {
                return Err(cx.err("p", format!("probability {p} outside [0, 1]")));
            }
            Ok(LayerNode::Dropout { p })
        }
        "add" => Ok(LayerNode::Add {
            name: cx.layer.clone().unwrap_or_default(),
        }),
        "concat" => Ok(LayerNode::Concat {
            name: cx.layer.clone().unwrap_or_default(),
        }),
        other => Err(cx.err("kind", format!("unknown node kind `{other}`"))),
    }
}

impl ModelIr {
    /// Serializes to the compact single-line artifact form.
    pub fn to_json_string(&self) -> String {
        cscnn_json::to_string(self).unwrap_or_default()
    }

    /// Serializes to the pretty (2-space indented) artifact form — the
    /// layout `sim_batch` and the docs use.
    pub fn to_json_pretty(&self) -> String {
        cscnn_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parses and validates an artifact document.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] naming the offending node and field: JSON syntax
    /// errors, missing/mistyped fields, unknown kinds, zero extents,
    /// indivisible groups, mis-declared depthwise nodes, and out-of-range
    /// densities are all rejected.
    pub fn from_json_str(text: &str) -> Result<Self, ArtifactError> {
        let doc: Value = cscnn_json::from_str(text)?;
        Self::from_json_value(&doc)
    }

    /// Like [`ModelIr::from_json_str`], but from an already-parsed
    /// [`Value`] (e.g. an artifact embedded in a larger report).
    ///
    /// # Errors
    ///
    /// See [`ModelIr::from_json_str`].
    pub fn from_json_value(doc: &Value) -> Result<Self, ArtifactError> {
        let doc_err = |field: &'static str, reason: &str| ArtifactError::Document {
            field,
            reason: reason.into(),
        };
        if doc.as_object().is_none() {
            return Err(doc_err("format", "artifact is not a JSON object"));
        }
        let format = doc
            .get("format")
            .and_then(Value::as_str)
            .ok_or_else(|| doc_err("format", "missing or not a string"))?;
        if format != SCHEMA_FORMAT {
            return Err(doc_err("format", &format!("expected `{SCHEMA_FORMAT}`")));
        }
        let version = doc
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| doc_err("version", "missing or not an integer"))?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
            return Err(ArtifactError::Document {
                field: "version",
                reason: format!(
                    "unsupported version {version} \
                     (this build reads {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
                ),
            });
        }
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| doc_err("name", "missing or not a string"))?;
        let nodes = doc
            .get("nodes")
            .and_then(Value::as_array)
            .ok_or_else(|| doc_err("nodes", "missing or not an array"))?;
        let nodes = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| parse_node(i, n))
            .collect::<Result<Vec<_>, _>>()?;
        if version < 2 {
            // Joins and explicit edges are version-2 schema surface; a v1
            // document carrying them is corrupt, not merely old.
            if let Some(i) = nodes.iter().position(LayerNode::is_join) {
                return Err(ArtifactError::Node {
                    index: i,
                    layer: nodes[i].name().map(str::to_owned),
                    field: "kind",
                    reason: format!("`{}` joins require schema version 2", nodes[i].kind_label()),
                });
            }
            if doc.get("edges").is_some() {
                return Err(doc_err("edges", "explicit edges require schema version 2"));
            }
        }
        let edges = match doc.get("edges") {
            None => Vec::new(),
            Some(v) => {
                let arr = v
                    .as_array()
                    .ok_or_else(|| doc_err("edges", "expected an array"))?;
                arr.iter()
                    .enumerate()
                    .map(|(i, e)| {
                        let endpoint = |key: &str| {
                            e.get(key).and_then(Value::as_u64).ok_or_else(|| {
                                ArtifactError::Document {
                                    field: "edges",
                                    reason: format!(
                                        "edge {i}: `{key}` missing or not a non-negative integer"
                                    ),
                                }
                            })
                        };
                        Ok(IrEdge::new(
                            endpoint("from")? as usize,
                            endpoint("to")? as usize,
                        ))
                    })
                    .collect::<Result<Vec<_>, ArtifactError>>()?
            }
        };
        let ir = ModelIr::with_edges(name, nodes, edges);
        ir.validate()?;
        Ok(ir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn annotated_ir() -> ModelIr {
        let mut ir = ModelIr::new(
            "m",
            vec![
                LayerNode::conv("C1", 3, 8, 3, 3, 16, 16, 1, 1).with_centrosymmetric(true),
                LayerNode::Pool {
                    kind: PoolKind::Max,
                    window: 2,
                    stride: 2,
                },
                LayerNode::Activation {
                    kind: ActivationKind::Relu,
                },
                LayerNode::grouped("DW", 8, 8, 3, 3, 8, 8, 1, 1, 8),
                LayerNode::Norm { channels: 8 },
                LayerNode::Dropout { p: 0.5 },
                LayerNode::Flatten,
                LayerNode::fc("F1", 512, 10),
            ],
        );
        for (i, node) in ir.weight_nodes_mut().enumerate() {
            node.set_sparsity(SparsityAnnotation {
                weight_density: 0.25 + 0.1 * i as f64,
                activation_density: 0.75,
            });
        }
        ir
    }

    #[test]
    fn round_trip_is_lossless_compact_and_pretty() {
        let ir = annotated_ir();
        assert_eq!(ModelIr::from_json_str(&ir.to_json_string()), Ok(ir.clone()));
        assert_eq!(ModelIr::from_json_str(&ir.to_json_pretty()), Ok(ir));
    }

    #[test]
    fn unannotated_nodes_serialize_as_null_sparsity() {
        let ir = ModelIr::new("m", vec![LayerNode::fc("F", 4, 2)]);
        let text = ir.to_json_string();
        assert!(text.contains("\"sparsity\":null"), "{text}");
        assert_eq!(ModelIr::from_json_str(&text), Ok(ir));
    }

    #[test]
    fn errors_name_node_and_field() {
        let mut bad = annotated_ir().to_json_string();
        bad = bad.replace("\"window\":2", "\"window\":0");
        let err = ModelIr::from_json_str(&bad).expect_err("zero window");
        assert_eq!(
            err,
            ArtifactError::Node {
                index: 1,
                layer: None,
                field: "window",
                reason: "must be non-zero".into(),
            }
        );
        assert!(err.to_string().contains("node 1"), "{err}");

        let mut bad = annotated_ir().to_json_string();
        bad = bad.replace("0.75", "1.75");
        let err = ModelIr::from_json_str(&bad).expect_err("density out of range");
        let ArtifactError::Node {
            layer: Some(layer),
            field,
            ..
        } = &err
        else {
            panic!("wrong variant: {err:?}");
        };
        assert_eq!(layer, "C1");
        assert_eq!(*field, "sparsity.activation_density");
        assert!(err.to_string().contains("C1"), "{err}");
    }

    #[test]
    fn document_level_errors_are_typed() {
        assert!(matches!(
            ModelIr::from_json_str("{nope"),
            Err(ArtifactError::Syntax(_))
        ));
        let err = ModelIr::from_json_str(r#"{"format":"other","version":1,"name":"m","nodes":[]}"#)
            .expect_err("wrong format");
        assert!(matches!(
            err,
            ArtifactError::Document {
                field: "format",
                ..
            }
        ));
        let err =
            ModelIr::from_json_str(r#"{"format":"cscnn-ir","version":99,"name":"m","nodes":[]}"#)
                .expect_err("future version");
        assert!(err.to_string().contains("99"), "{err}");
    }

    fn residual_ir() -> ModelIr {
        let mut b = crate::IrBuilder::new("res");
        let stem = b.push(LayerNode::conv("C1", 3, 8, 3, 3, 16, 16, 1, 1));
        let branch = b.push_after(LayerNode::conv("C2", 8, 8, 3, 3, 16, 16, 1, 1), &[stem]);
        let join = b.push_after(LayerNode::add("C2_add"), &[branch]);
        b.edge(stem, join);
        b.finish().expect("valid residual block")
    }

    #[test]
    fn dag_artifacts_round_trip_with_edges_and_joins() {
        let ir = residual_ir();
        for text in [ir.to_json_string(), ir.to_json_pretty()] {
            assert!(text.contains("\"edges\""), "{text}");
            assert!(text.contains("\"kind\":\"add\"") || text.contains("\"kind\": \"add\""));
            assert_eq!(ModelIr::from_json_str(&text), Ok(ir.clone()));
        }
        // Linear chains omit the edge list entirely.
        let linear = annotated_ir();
        assert!(!linear.to_json_string().contains("\"edges\""));
    }

    #[test]
    fn v1_artifacts_upgrade_losslessly_but_reject_v2_surface() {
        // A v1 document (what pre-DAG builds wrote) still loads, as the
        // implicit linear chain.
        let v1 = annotated_ir()
            .to_json_string()
            .replace("\"version\":2", "\"version\":1");
        let loaded = ModelIr::from_json_str(&v1).expect("v1 artifacts still load");
        assert_eq!(loaded, annotated_ir());
        assert!(loaded.is_linear());

        // But v2 surface under a v1 version tag is corruption, not age.
        let joined = residual_ir().to_json_string();
        let err = ModelIr::from_json_str(&joined.replace("\"version\":2", "\"version\":1"))
            .expect_err("joins need v2");
        assert!(err.to_string().contains("schema version 2"), "{err}");

        let edges_only = annotated_ir()
            .to_json_string()
            .replace("\"version\":2", "\"version\":1")
            .replace("\"nodes\":", "\"edges\":[],\"nodes\":");
        let err = ModelIr::from_json_str(&edges_only).expect_err("edges need v2");
        assert!(matches!(
            err,
            ArtifactError::Document { field: "edges", .. }
        ));
    }

    #[test]
    fn topology_errors_surface_through_the_parser() {
        let mut ir = residual_ir();
        ir.edges.push(crate::IrEdge::new(1, 99));
        let err = ModelIr::from_json_str(&ir.to_json_string()).expect_err("dangling edge");
        assert!(
            matches!(
                err,
                ArtifactError::Topology(TopologyError::DanglingEdge { to: 99, .. })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("99"), "{err}");

        let mut ir = residual_ir();
        ir.edges.retain(|e| !(e.from == 0 && e.to == 2));
        let err = ModelIr::from_json_str(&ir.to_json_string()).expect_err("starved join");
        assert!(err.to_string().contains("C2_add"), "{err}");
    }

    #[test]
    fn depthwise_declaration_must_match_geometry() {
        let text = annotated_ir()
            .to_json_string()
            .replace("\"kind\":\"depthwise\"", "\"kind\":\"conv\"");
        let err = ModelIr::from_json_str(&text).expect_err("mis-declared depthwise");
        assert!(err.to_string().contains("depthwise"), "{err}");

        let text = annotated_ir().to_json_string().replacen(
            "\"kind\":\"conv\"",
            "\"kind\":\"depthwise\"",
            1,
        );
        let err = ModelIr::from_json_str(&text).expect_err("conv declared depthwise");
        assert!(err.to_string().contains("groups == c == k"), "{err}");
    }

    #[test]
    fn geometry_errors_name_their_field_and_reason() {
        let base = ConvGeom {
            c: 6,
            k: 16,
            r: 5,
            s: 5,
            h: 14,
            w: 14,
            stride: 1,
            padding: 0,
            groups: 1,
        };
        let cases = [
            (ConvGeom { stride: 0, ..base }, "stride", "must be non-zero"),
            (
                ConvGeom { groups: 4, ..base },
                "groups",
                "groups 4 must divide channels (c=6, k=16)",
            ),
            (
                ConvGeom { s: 15, ..base },
                "r",
                "kernel 5x15 larger than padded input 14x14",
            ),
        ];
        for (geom, field, reason) in cases {
            assert_eq!(geom.check(), Err((field, reason.to_string())));
            let node = LayerNode::Conv {
                name: "G".into(),
                geom,
                centrosymmetric: false,
                sparsity: None,
            };
            let text = ModelIr::new("m", vec![node]).to_json_string();
            assert_eq!(
                ModelIr::from_json_str(&text),
                Err(ArtifactError::Node {
                    index: 0,
                    layer: Some("G".into()),
                    field,
                    reason: reason.into(),
                })
            );
        }
        assert_eq!(base.check(), Ok(()));
    }
}
