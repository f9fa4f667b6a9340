#![warn(missing_docs)]

//! # cscnn-ir
//!
//! The typed layer/model intermediate representation that unifies the
//! repo's four historical layer descriptions (trainable `cscnn_nn` layers,
//! `cscnn_models::LayerDesc` geometry, `cscnn_sim::LayerWorkload` sparse
//! structure, and the old downcasting bridge in `cscnn`).
//!
//! A [`ModelIr`] is a DAG: an ordered list of [`LayerNode`]s — every layer
//! of a network, weight-bearing or not — each carrying exact geometry
//! ([`ConvGeom`]), grouping, the centrosymmetric flag, and an optional
//! measured [`SparsityAnnotation`] — plus a list of directed [`IrEdge`]s
//! wiring them together. An IR with no edges is an implicit linear chain
//! (the historical form, and what sequential networks lower to); residual
//! and branching networks carry explicit edges and the [`LayerNode::Add`] /
//! [`LayerNode::Concat`] join nodes, validated by [`ModelIr::validate`]
//! (the node list must be a topological order of the edges). Producers and
//! consumers are explicit lowering passes (see `docs/ir.md`):
//!
//! - `Network → Ir` — `cscnn_nn::Network::to_ir` via each layer's typed
//!   `Layer::describe`;
//! - `Ir → ModelDesc` — `cscnn_models::lower::to_model_desc` (geometry
//!   lowering: keeps the weight-bearing nodes);
//! - `Ir → LayerWorkload` — `cscnn_sim::LayerWorkload::from_node`
//!   (sparse-structure lowering, consumed by `Runner::run_ir`).
//!
//! Annotated IRs also have an on-disk form: the [`artifact`] module defines
//! the versioned JSON schema (serialize / parse / validate with typed
//! [`ArtifactError`]s naming the offending node and field) that ships
//! trained + annotated models to the simulator, and
//! [`ModelIr::annotated_hash`] is the grouping key batched simulation uses
//! to synthesize workloads once per unique annotated network
//! (`docs/batching.md`).
//!
//! [`ConvGeom`] is the workspace's one layer-geometry type: the catalog's
//! `cscnn_models::LayerDesc` is a name, a kind and a `ConvGeom`, and every
//! shape count (output extent, weights, MACs, activations, centrosymmetric
//! weights) is defined on it once.
//!
//! This crate depends only on the std-only `cscnn-json` document model and
//! on `cscnn-sparse`'s centrosymmetric arithmetic (the §II-A eligibility
//! rule and `⌈R·S/2⌉`, themselves on `cscnn-rng` alone), so every layer of
//! the stack can speak IR without cycles.

pub mod artifact;

pub use artifact::{ArtifactError, MIN_SCHEMA_VERSION, SCHEMA_FORMAT, SCHEMA_VERSION};

use cscnn_sparse::centro;
use std::fmt;

/// Geometry of a (possibly grouped) 2-D convolution, in the paper's
/// notation: `C`/`K` input/output channels, `R×S` kernel, `H×W` *input*
/// spatial extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels (`C`).
    pub c: usize,
    /// Output channels (`K`).
    pub k: usize,
    /// Kernel height (`R`).
    pub r: usize,
    /// Kernel width (`S`).
    pub s: usize,
    /// Input feature-map height (`H`).
    pub h: usize,
    /// Input feature-map width (`W`).
    pub w: usize,
    /// Stride (both spatial dims).
    pub stride: usize,
    /// Zero padding (both spatial dims).
    pub padding: usize,
    /// Convolution groups (1 = dense conv; `c` = depthwise).
    pub groups: usize,
}

impl ConvGeom {
    /// A (possibly grouped) convolution geometry.
    ///
    /// # Panics
    ///
    /// Panics on zero extents or when `c % groups != 0 || k % groups != 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        c: usize,
        k: usize,
        r: usize,
        s: usize,
        h: usize,
        w: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Self {
        assert!(c > 0 && k > 0 && r > 0 && s > 0 && h > 0 && w > 0 && stride > 0 && groups > 0);
        assert!(
            c.is_multiple_of(groups) && k.is_multiple_of(groups),
            "channels must divide groups: c={c} k={k} groups={groups}"
        );
        ConvGeom {
            c,
            k,
            r,
            s,
            h,
            w,
            stride,
            padding,
            groups,
        }
    }

    /// Checks that the geometry describes a convolution that can run: every
    /// extent but `padding` non-zero, `groups` dividing both `c` and `k`,
    /// and the kernel fitting the padded input. The artifact parser and the
    /// simulator's workload lowering both reject through this one check.
    ///
    /// # Errors
    ///
    /// The first offending field and why it is rejected.
    pub fn check(&self) -> Result<(), (&'static str, String)> {
        for (field, value) in [
            ("c", self.c),
            ("k", self.k),
            ("r", self.r),
            ("s", self.s),
            ("h", self.h),
            ("w", self.w),
            ("stride", self.stride),
            ("groups", self.groups),
        ] {
            if value == 0 {
                return Err((field, "must be non-zero".into()));
            }
        }
        if self.c % self.groups != 0 || self.k % self.groups != 0 {
            return Err((
                "groups",
                format!(
                    "groups {} must divide channels (c={}, k={})",
                    self.groups, self.c, self.k
                ),
            ));
        }
        let (ph, pw) = (self.h + 2 * self.padding, self.w + 2 * self.padding);
        if ph < self.r || pw < self.s {
            return Err((
                "r",
                format!(
                    "kernel {}x{} larger than padded input {ph}x{pw}",
                    self.r, self.s
                ),
            ));
        }
        Ok(())
    }

    /// Whether this is a depthwise convolution: one filter per input
    /// channel, `groups == c == k > 1`. The IR's `depthwise` node, the
    /// artifact parser and `cscnn-models`' layer kind all classify by it.
    pub fn is_depthwise(&self) -> bool {
        self.groups == self.c && self.groups == self.k && self.groups > 1
    }

    /// Output spatial extent `(H', W')`.
    ///
    /// # Panics
    ///
    /// Panics when the kernel is larger than the padded input.
    pub fn output_dim(&self) -> (usize, usize) {
        let ph = self.h + 2 * self.padding;
        let pw = self.w + 2 * self.padding;
        assert!(
            ph >= self.r && pw >= self.s,
            "padded input smaller than kernel: {ph}x{pw} < {}x{}",
            self.r,
            self.s
        );
        (
            (ph - self.r) / self.stride + 1,
            (pw - self.s) / self.stride + 1,
        )
    }

    /// Number of output pixels `H'·W'`.
    pub fn output_pixels(&self) -> u64 {
        let (oh, ow) = self.output_dim();
        (oh * ow) as u64
    }

    /// Number of weights (grouping-aware): `K·(C/groups)·R·S`.
    pub fn weights(&self) -> u64 {
        (self.k * (self.c / self.groups) * self.r * self.s) as u64
    }

    /// Dense multiply count per inference: `weights · H'·W'`.
    pub fn dense_mults(&self) -> u64 {
        self.weights() * self.output_pixels()
    }

    /// Whether the centrosymmetric constraint applies
    /// ([`cscnn_sparse::centro::is_eligible`]).
    pub fn centro_eligible(&self) -> bool {
        centro::is_eligible(self.stride, self.r, self.s)
    }

    /// Number of independent weights under the centrosymmetric constraint:
    /// [`cscnn_sparse::centro::unique_weight_count`] per kernel slice for
    /// eligible layers, all weights otherwise.
    pub fn centro_weights(&self) -> u64 {
        if self.centro_eligible() {
            (self.k * (self.c / self.groups) * centro::unique_weight_count(self.r, self.s)) as u64
        } else {
            self.weights()
        }
    }

    /// Input activation element count `C·H·W`.
    pub fn input_activations(&self) -> u64 {
        (self.c * self.h * self.w) as u64
    }

    /// Output activation element count `K·H'·W'`.
    pub fn output_activations(&self) -> u64 {
        self.k as u64 * self.output_pixels()
    }
}

/// Measured per-layer sparsity, attached to weight-bearing nodes by the
/// trained-network bridge (densities in `[0, 1]`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SparsityAnnotation {
    /// Density of *stored* weights (over the unique half for layers
    /// trained under the centrosymmetric constraint).
    pub weight_density: f64,
    /// Density of the layer's input activations.
    pub activation_density: f64,
}

/// Pooling flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// Max pooling.
    Max,
}

/// Elementwise activation flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivationKind {
    /// Rectified linear unit.
    Relu,
}

/// One layer of a model, typed.
///
/// Weight-bearing variants (`Conv`, `Depthwise`, `FullyConnected`) carry a
/// name, exact geometry and an optional measured [`SparsityAnnotation`];
/// the remaining variants describe the shape-preserving / shape-routing
/// layers the simulator does not time but the lowering passes must not
/// lose (they fix layer indices and activation provenance).
#[derive(Clone, Debug, PartialEq)]
pub enum LayerNode {
    /// Standard (possibly grouped, `groups < C`) 2-D convolution.
    Conv {
        /// Layer name (e.g. `"C1"`, `"L3"`).
        name: String,
        /// Convolution geometry.
        geom: ConvGeom,
        /// Whether the filters are centrosymmetric-constrained (Eq. 2).
        centrosymmetric: bool,
        /// Measured sparsity, when known.
        sparsity: Option<SparsityAnnotation>,
    },
    /// Depthwise convolution (`groups == C == K`).
    Depthwise {
        /// Layer name.
        name: String,
        /// Convolution geometry (`groups == c == k`).
        geom: ConvGeom,
        /// Whether the filters are centrosymmetric-constrained.
        centrosymmetric: bool,
        /// Measured sparsity, when known.
        sparsity: Option<SparsityAnnotation>,
    },
    /// Fully-connected layer (`inputs → outputs`).
    FullyConnected {
        /// Layer name.
        name: String,
        /// Input features.
        inputs: usize,
        /// Output features.
        outputs: usize,
        /// Measured sparsity, when known.
        sparsity: Option<SparsityAnnotation>,
    },
    /// Spatial pooling.
    Pool {
        /// Pooling flavour.
        kind: PoolKind,
        /// Square window side.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Elementwise activation.
    Activation {
        /// Which activation.
        kind: ActivationKind,
    },
    /// `[N, ...] → [N, features]` reshape.
    Flatten,
    /// Elementwise addition join (residual merge). Requires at least two
    /// in-edges in a DAG-shaped IR.
    Add {
        /// Join name (e.g. `"conv2_0_add"`).
        name: String,
    },
    /// Channel concatenation join (inception merge). Requires at least two
    /// in-edges in a DAG-shaped IR.
    Concat {
        /// Join name (e.g. `"inception_3a/concat"`).
        name: String,
    },
}

impl LayerNode {
    /// A standard convolution node.
    ///
    /// # Panics
    ///
    /// Panics on zero extents.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        name: &str,
        c: usize,
        k: usize,
        r: usize,
        s: usize,
        h: usize,
        w: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self::grouped(name, c, k, r, s, h, w, stride, padding, 1)
    }

    /// A grouped convolution node. Infers the [`LayerNode::Depthwise`]
    /// variant when `groups == c == k > 1`.
    ///
    /// # Panics
    ///
    /// Panics on zero extents or indivisible groups.
    #[allow(clippy::too_many_arguments)]
    pub fn grouped(
        name: &str,
        c: usize,
        k: usize,
        r: usize,
        s: usize,
        h: usize,
        w: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Self {
        Self::from_geom(
            name,
            ConvGeom::new(c, k, r, s, h, w, stride, padding, groups),
        )
    }

    /// A convolution node over `geom`: the [`LayerNode::Depthwise`]
    /// variant when [`ConvGeom::is_depthwise`], [`LayerNode::Conv`]
    /// otherwise.
    pub fn from_geom(name: &str, geom: ConvGeom) -> Self {
        if geom.is_depthwise() {
            LayerNode::Depthwise {
                name: name.to_string(),
                geom,
                centrosymmetric: false,
                sparsity: None,
            }
        } else {
            LayerNode::Conv {
                name: name.to_string(),
                geom,
                centrosymmetric: false,
                sparsity: None,
            }
        }
    }

    /// A fully-connected node.
    ///
    /// # Panics
    ///
    /// Panics on zero extents.
    pub fn fc(name: &str, inputs: usize, outputs: usize) -> Self {
        assert!(inputs > 0 && outputs > 0);
        LayerNode::FullyConnected {
            name: name.to_string(),
            inputs,
            outputs,
            sparsity: None,
        }
    }

    /// An elementwise-addition join node (residual merge).
    pub fn add(name: &str) -> Self {
        LayerNode::Add {
            name: name.to_string(),
        }
    }

    /// A channel-concatenation join node (inception merge).
    pub fn concat(name: &str) -> Self {
        LayerNode::Concat {
            name: name.to_string(),
        }
    }

    /// Renames a named (weight-bearing or join) node — no-op on the
    /// anonymous shape-routing variants.
    #[must_use]
    pub fn with_name(mut self, new_name: &str) -> Self {
        match &mut self {
            LayerNode::Conv { name, .. }
            | LayerNode::Depthwise { name, .. }
            | LayerNode::FullyConnected { name, .. }
            | LayerNode::Add { name }
            | LayerNode::Concat { name } => *name = new_name.to_string(),
            _ => {}
        }
        self
    }

    /// Sets the centrosymmetric flag on a conv/depthwise node (no-op on
    /// the other variants).
    #[must_use]
    pub fn with_centrosymmetric(mut self, on: bool) -> Self {
        match &mut self {
            LayerNode::Conv {
                centrosymmetric, ..
            }
            | LayerNode::Depthwise {
                centrosymmetric, ..
            } => *centrosymmetric = on,
            _ => {}
        }
        self
    }

    /// Attaches a measured sparsity annotation to a weight-bearing node
    /// (no-op on the other variants).
    pub fn set_sparsity(&mut self, annotation: SparsityAnnotation) {
        match self {
            LayerNode::Conv { sparsity, .. }
            | LayerNode::Depthwise { sparsity, .. }
            | LayerNode::FullyConnected { sparsity, .. } => *sparsity = Some(annotation),
            _ => {}
        }
    }

    /// The node's name, for named (weight-bearing or join) variants.
    pub fn name(&self) -> Option<&str> {
        match self {
            LayerNode::Conv { name, .. }
            | LayerNode::Depthwise { name, .. }
            | LayerNode::FullyConnected { name, .. }
            | LayerNode::Add { name }
            | LayerNode::Concat { name } => Some(name),
            _ => None,
        }
    }

    /// The measured sparsity annotation, if any.
    pub fn sparsity(&self) -> Option<SparsityAnnotation> {
        match self {
            LayerNode::Conv { sparsity, .. }
            | LayerNode::Depthwise { sparsity, .. }
            | LayerNode::FullyConnected { sparsity, .. } => *sparsity,
            _ => None,
        }
    }

    /// Whether `self` and `other` are equal but for their annotations.
    pub fn same_structure(&self, other: &LayerNode) -> bool {
        use LayerNode::{Conv, Depthwise, FullyConnected};
        match (self, other) {
            (
                Conv {
                    name,
                    geom,
                    centrosymmetric,
                    ..
                },
                Conv {
                    name: name2,
                    geom: geom2,
                    centrosymmetric: centro2,
                    ..
                },
            )
            | (
                Depthwise {
                    name,
                    geom,
                    centrosymmetric,
                    ..
                },
                Depthwise {
                    name: name2,
                    geom: geom2,
                    centrosymmetric: centro2,
                    ..
                },
            ) => name == name2 && geom == geom2 && centrosymmetric == centro2,
            (
                FullyConnected {
                    name,
                    inputs,
                    outputs,
                    ..
                },
                FullyConnected {
                    name: name2,
                    inputs: inputs2,
                    outputs: outputs2,
                    ..
                },
            ) => name == name2 && inputs == inputs2 && outputs == outputs2,
            _ => self == other,
        }
    }

    /// Whether this node carries weights (and therefore lowers to a
    /// `LayerDesc` / `LayerWorkload`).
    pub fn is_weight_bearing(&self) -> bool {
        matches!(
            self,
            LayerNode::Conv { .. } | LayerNode::Depthwise { .. } | LayerNode::FullyConnected { .. }
        )
    }

    /// Whether this node is a multi-input join (`Add` / `Concat`), the
    /// only variants [`ModelIr::validate`] allows a fan-in above one.
    pub fn is_join(&self) -> bool {
        matches!(self, LayerNode::Add { .. } | LayerNode::Concat { .. })
    }

    /// A short kind label (`"conv"`, `"fc"`, `"pool"`, …).
    pub fn kind_label(&self) -> &'static str {
        match self {
            LayerNode::Conv { .. } => "conv",
            LayerNode::Depthwise { .. } => "depthwise",
            LayerNode::FullyConnected { .. } => "fc",
            LayerNode::Pool { .. } => "pool",
            LayerNode::Activation { .. } => "activation",
            LayerNode::Flatten => "flatten",
            LayerNode::Add { .. } => "add",
            LayerNode::Concat { .. } => "concat",
        }
    }
}

/// A directed edge between two nodes of a [`ModelIr`], by node index:
/// the activations produced by `from` feed `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrEdge {
    /// Producer node index.
    pub from: usize,
    /// Consumer node index.
    pub to: usize,
}

impl IrEdge {
    /// Creates an edge `from → to`.
    pub fn new(from: usize, to: usize) -> Self {
        IrEdge { from, to }
    }
}

/// A whole model in IR form: name plus every layer, in a topological
/// execution order, optionally wired into a DAG by explicit [`IrEdge`]s.
///
/// When `edges` is empty the IR is an *implicit linear chain* — node `i`
/// feeds node `i + 1` — which is the historical form and what sequential
/// networks lower to. A non-empty `edges` list makes the topology
/// explicit; [`ModelIr::validate`] checks it is a well-formed DAG whose
/// node list is a topological order.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ModelIr {
    /// Canonical model name.
    pub name: String,
    /// All layers, weight-bearing or not, in (topological) execution order.
    pub nodes: Vec<LayerNode>,
    /// Explicit dataflow edges; empty means the implicit linear chain.
    pub edges: Vec<IrEdge>,
}

impl ModelIr {
    /// Creates a linear-chain model IR (no explicit edges).
    pub fn new(name: &str, nodes: Vec<LayerNode>) -> Self {
        ModelIr {
            name: name.to_string(),
            nodes,
            edges: Vec::new(),
        }
    }

    /// Creates a DAG-shaped model IR with explicit edges. The result is
    /// not validated; call [`ModelIr::validate`] (the lowering passes and
    /// the artifact parser do).
    pub fn with_edges(name: &str, nodes: Vec<LayerNode>, edges: Vec<IrEdge>) -> Self {
        ModelIr {
            name: name.to_string(),
            nodes,
            edges,
        }
    }

    /// Whether this IR is an implicit linear chain (no explicit edges).
    pub fn is_linear(&self) -> bool {
        self.edges.is_empty()
    }

    /// The indices of the nodes feeding node `i` — edge sources in a
    /// DAG-shaped IR, or `i - 1` under the implicit linear chain.
    pub fn predecessors(&self, i: usize) -> Vec<usize> {
        if self.edges.is_empty() {
            if i == 0 {
                Vec::new()
            } else {
                vec![i - 1]
            }
        } else {
            self.edges
                .iter()
                .filter(|e| e.to == i)
                .map(|e| e.from)
                .collect()
        }
    }

    /// A human-readable label for node `i`: its name when it has one,
    /// otherwise `#i(kind)`.
    pub fn node_label(&self, i: usize) -> String {
        match self.nodes.get(i).and_then(LayerNode::name) {
            Some(name) => name.to_string(),
            None => format!(
                "#{i}({})",
                self.nodes.get(i).map_or("missing", LayerNode::kind_label)
            ),
        }
    }

    /// Validates the topology. An implicit linear chain is valid iff it
    /// contains no join nodes (joins need a fan-in of at least two). An
    /// explicit edge list must satisfy:
    ///
    /// - every edge endpoint is in bounds ([`TopologyError::DanglingEdge`]);
    /// - no edge is repeated ([`TopologyError::DuplicateEdge`]);
    /// - every edge points forward in the node list — the list is a
    ///   topological order. A backward edge is diagnosed precisely: if the
    ///   graph has a cycle the error names a node on it
    ///   ([`TopologyError::Cycle`]), otherwise the list is merely
    ///   mis-ordered ([`TopologyError::NotTopological`]);
    /// - join nodes (`Add`/`Concat`) have fan-in ≥ 2
    ///   ([`TopologyError::JoinUnderArity`]) and every other node has
    ///   fan-in ≤ 1 ([`TopologyError::FanInTooHigh`]).
    pub fn validate(&self) -> Result<(), TopologyError> {
        let n = self.nodes.len();
        if self.edges.is_empty() {
            // Implicit chain: fan-in is 1 everywhere past the input, so
            // any join node is under-fed.
            for (i, node) in self.nodes.iter().enumerate() {
                if node.is_join() {
                    return Err(TopologyError::JoinUnderArity {
                        node: i,
                        name: self.node_label(i),
                        fan_in: usize::from(i > 0),
                    });
                }
            }
            return Ok(());
        }

        let mut seen = std::collections::HashSet::with_capacity(self.edges.len());
        let mut fan_in = vec![0usize; n];
        let mut backward = None;
        for (ei, e) in self.edges.iter().enumerate() {
            if e.from >= n || e.to >= n {
                return Err(TopologyError::DanglingEdge {
                    edge: ei,
                    from: e.from,
                    to: e.to,
                    nodes: n,
                });
            }
            if !seen.insert((e.from, e.to)) {
                return Err(TopologyError::DuplicateEdge {
                    edge: ei,
                    from: e.from,
                    to: e.to,
                });
            }
            if e.from >= e.to && backward.is_none() {
                backward = Some(ei);
            }
            fan_in[e.to] += 1;
        }

        if let Some(ei) = backward {
            // Distinguish a genuine cycle from a merely mis-ordered list
            // with Kahn's algorithm over the full edge set.
            let mut indeg = fan_in.clone();
            let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
            let mut processed = 0usize;
            while let Some(v) = ready.pop() {
                processed += 1;
                for e in &self.edges {
                    if e.from == v {
                        indeg[e.to] -= 1;
                        if indeg[e.to] == 0 {
                            ready.push(e.to);
                        }
                    }
                }
            }
            if processed < n {
                let node = (0..n)
                    .find(|&i| indeg[i] > 0)
                    .expect("some node remains on the cycle");
                return Err(TopologyError::Cycle {
                    node,
                    name: self.node_label(node),
                });
            }
            let e = self.edges[ei];
            return Err(TopologyError::NotTopological {
                edge: ei,
                from: e.from,
                to: e.to,
            });
        }

        for (i, node) in self.nodes.iter().enumerate() {
            if node.is_join() {
                if fan_in[i] < 2 {
                    return Err(TopologyError::JoinUnderArity {
                        node: i,
                        name: self.node_label(i),
                        fan_in: fan_in[i],
                    });
                }
            } else if fan_in[i] > 1 {
                return Err(TopologyError::FanInTooHigh {
                    node: i,
                    name: self.node_label(i),
                    fan_in: fan_in[i],
                });
            }
        }
        Ok(())
    }

    /// The weight-bearing nodes, in order.
    pub fn weight_nodes(&self) -> impl Iterator<Item = &LayerNode> {
        self.nodes.iter().filter(|n| n.is_weight_bearing())
    }

    /// Mutable view of the weight-bearing nodes, in order (used to attach
    /// measured sparsity annotations).
    pub fn weight_nodes_mut(&mut self) -> impl Iterator<Item = &mut LayerNode> {
        self.nodes.iter_mut().filter(|n| n.is_weight_bearing())
    }

    /// Number of weight-bearing nodes.
    pub fn num_weight_nodes(&self) -> usize {
        self.weight_nodes().count()
    }

    /// FNV-1a hash of the model's *structure*: node kinds, layer names,
    /// geometry, grouping, and centrosymmetric flags — excluding the model
    /// name and any [`SparsityAnnotation`]s.
    ///
    /// Two IRs with equal structural hashes describe the same network
    /// shape, so batched simulation can group requests that share workload
    /// geometry even when their measured densities differ
    /// (`docs/batching.md` documents the full dedup key).
    pub fn structural_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for node in &self.nodes {
            node.hash_structure(&mut h);
        }
        self.hash_topology(&mut h);
        h.0
    }

    /// Whether `self` and `other` have the same structure: what
    /// [`ModelIr::structural_hash`] hashes (node kinds, layer names,
    /// geometry, grouping, centrosymmetric flags and edges), compared
    /// exactly. Model names and annotations are ignored.
    pub fn same_structure(&self, other: &ModelIr) -> bool {
        self.edges == other.edges
            && self.nodes.len() == other.nodes.len()
            && self
                .nodes
                .iter()
                .zip(&other.nodes)
                .all(|(a, b)| a.same_structure(b))
    }

    /// Feeds the edge list into the hash stream, so two IRs with the same
    /// node multiset but different wiring (e.g. real skip edges vs a
    /// flattened chain) never share a structural or annotated hash.
    fn hash_topology(&self, h: &mut Fnv) {
        h.write(self.edges.len() as u64);
        for e in &self.edges {
            h.write(e.from as u64);
            h.write(e.to as u64);
        }
    }

    /// FNV-1a hash of the *annotated* model: the structural hash extended
    /// with the model name and the exact bits of every
    /// [`SparsityAnnotation`]. Equal annotated IRs hash equally; batched
    /// simulation uses this as the fast probe when it groups requests that
    /// share workloads (with full `==` confirmation, so a collision can
    /// never alias two requests).
    pub fn annotated_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str(&self.name);
        for node in &self.nodes {
            node.hash_structure(&mut h);
            match node.sparsity() {
                Some(ann) => {
                    h.write(1);
                    h.write(ann.weight_density.to_bits());
                    h.write(ann.activation_density.to_bits());
                }
                None => h.write(0),
            }
        }
        self.hash_topology(&mut h);
        h.0
    }
}

/// Incremental [`ModelIr`] construction for DAG-shaped networks: push
/// nodes, get their indices back, and wire edges by index. `finish`
/// validates the topology so catalog authoring mistakes fail loudly.
#[derive(Debug, Default)]
pub struct IrBuilder {
    name: String,
    nodes: Vec<LayerNode>,
    edges: Vec<IrEdge>,
}

impl IrBuilder {
    /// Starts a builder for a model with the given name.
    pub fn new(name: &str) -> Self {
        IrBuilder {
            name: name.to_string(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Appends a node with no in-edges (a source until wired) and returns
    /// its index.
    pub fn push(&mut self, node: LayerNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Appends a node fed by every index in `preds` and returns its index.
    pub fn push_after(&mut self, node: LayerNode, preds: &[usize]) -> usize {
        let i = self.push(node);
        for &p in preds {
            self.edges.push(IrEdge::new(p, i));
        }
        i
    }

    /// Adds an explicit edge `from → to`.
    pub fn edge(&mut self, from: usize, to: usize) -> &mut Self {
        self.edges.push(IrEdge::new(from, to));
        self
    }

    /// Index of the most recently pushed node.
    ///
    /// # Panics
    ///
    /// Panics if no node has been pushed yet.
    pub fn last(&self) -> usize {
        assert!(!self.nodes.is_empty(), "no nodes pushed yet");
        self.nodes.len() - 1
    }

    /// Finishes the build, validating the topology.
    pub fn finish(self) -> Result<ModelIr, TopologyError> {
        let ir = ModelIr {
            name: self.name,
            nodes: self.nodes,
            edges: self.edges,
        };
        ir.validate()?;
        Ok(ir)
    }
}

/// A malformed [`ModelIr`] topology, diagnosed by [`ModelIr::validate`].
/// Every variant names the offending node or edge so corrupted artifacts
/// and authoring bugs are actionable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge endpoint is outside the node list.
    DanglingEdge {
        /// Index of the offending edge in `edges`.
        edge: usize,
        /// The edge's producer index.
        from: usize,
        /// The edge's consumer index.
        to: usize,
        /// Number of nodes in the IR.
        nodes: usize,
    },
    /// The same `from → to` edge appears twice.
    DuplicateEdge {
        /// Index of the second occurrence in `edges`.
        edge: usize,
        /// The edge's producer index.
        from: usize,
        /// The edge's consumer index.
        to: usize,
    },
    /// The graph contains a dependency cycle.
    Cycle {
        /// Index of a node on the cycle.
        node: usize,
        /// That node's label.
        name: String,
    },
    /// The graph is acyclic but the node list is not a topological order
    /// (an edge points backward in list order).
    NotTopological {
        /// Index of the offending edge in `edges`.
        edge: usize,
        /// The edge's producer index.
        from: usize,
        /// The edge's consumer index.
        to: usize,
    },
    /// An `Add`/`Concat` join has fewer than two in-edges.
    JoinUnderArity {
        /// Index of the join node.
        node: usize,
        /// The join's label.
        name: String,
        /// Its actual fan-in.
        fan_in: usize,
    },
    /// A non-join node has more than one in-edge.
    FanInTooHigh {
        /// Index of the node.
        node: usize,
        /// The node's label.
        name: String,
        /// Its actual fan-in.
        fan_in: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DanglingEdge {
                edge,
                from,
                to,
                nodes,
            } => write!(
                f,
                "edge {edge} ({from} -> {to}) dangles: model has {nodes} nodes"
            ),
            TopologyError::DuplicateEdge { edge, from, to } => {
                write!(f, "edge {edge} ({from} -> {to}) duplicates an earlier edge")
            }
            TopologyError::Cycle { node, name } => {
                write!(f, "dependency cycle through node {node} (`{name}`)")
            }
            TopologyError::NotTopological { edge, from, to } => write!(
                f,
                "edge {edge} ({from} -> {to}) points backward: node list is not a topological order"
            ),
            TopologyError::JoinUnderArity { node, name, fan_in } => write!(
                f,
                "join node {node} (`{name}`) has fan-in {fan_in}, needs at least 2"
            ),
            TopologyError::FanInTooHigh { node, name, fan_in } => write!(
                f,
                "node {node} (`{name}`) has fan-in {fan_in}, but only Add/Concat joins may merge"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Minimal FNV-1a accumulator for the structural/annotated hashes (kept
/// local so the dependency-light crate needs no `std::hash` plumbing and
/// the stream is stable across Rust versions).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn write(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }

    fn write_str(&mut self, s: &str) {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
        // Length terminator so "ab"+"c" and "a"+"bc" cannot collide.
        self.write(s.len() as u64);
    }
}

impl LayerNode {
    /// Feeds this node's structure (kind tag, layer name for weight-bearing
    /// nodes, geometry, centro flag) into the hash stream.
    fn hash_structure(&self, h: &mut Fnv) {
        let geom_into = |h: &mut Fnv, g: &ConvGeom| {
            for v in [g.c, g.k, g.r, g.s, g.h, g.w, g.stride, g.padding, g.groups] {
                h.write(v as u64);
            }
        };
        match self {
            LayerNode::Conv {
                name,
                geom,
                centrosymmetric,
                ..
            } => {
                h.write(1);
                h.write_str(name);
                geom_into(h, geom);
                h.write(u64::from(*centrosymmetric));
            }
            LayerNode::Depthwise {
                name,
                geom,
                centrosymmetric,
                ..
            } => {
                h.write(2);
                h.write_str(name);
                geom_into(h, geom);
                h.write(u64::from(*centrosymmetric));
            }
            LayerNode::FullyConnected {
                name,
                inputs,
                outputs,
                ..
            } => {
                h.write(3);
                h.write_str(name);
                h.write(*inputs as u64);
                h.write(*outputs as u64);
            }
            LayerNode::Pool {
                kind,
                window,
                stride,
            } => {
                h.write(4);
                h.write(match kind {
                    PoolKind::Max => 0,
                });
                h.write(*window as u64);
                h.write(*stride as u64);
            }
            LayerNode::Activation { kind } => {
                h.write(5);
                h.write(match kind {
                    ActivationKind::Relu => 0,
                });
            }
            LayerNode::Flatten => h.write(6),
            LayerNode::Add { name } => {
                h.write(9);
                h.write_str(name);
            }
            LayerNode::Concat { name } => {
                h.write(10);
                h.write_str(name);
            }
        }
    }
}

/// Why a layer could not be described as IR (returned by
/// `cscnn_nn::Layer::describe`; wrapped into [`IrError::UnsupportedLayer`]
/// by `Network::to_ir`, which knows the layer's index).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DescribeError {
    /// The layer kind that failed to describe itself.
    pub kind: &'static str,
    /// Why.
    pub reason: String,
}

impl DescribeError {
    /// Creates a describe error.
    pub fn new(kind: &'static str, reason: impl Into<String>) -> Self {
        DescribeError {
            kind,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for DescribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} layer cannot be described: {}",
            self.kind, self.reason
        )
    }
}

impl std::error::Error for DescribeError {}

/// A model (or network) the IR passes cannot process. Every variant names
/// the offending layer so a failure in a deep stack is actionable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IrError {
    /// The model has no weight-bearing layers to lower.
    EmptyModel {
        /// The model's name.
        model: String,
    },
    /// A layer could not be described as a typed [`LayerNode`].
    UnsupportedLayer {
        /// The offending layer (e.g. `"L3"`).
        layer: String,
        /// The layer's kind label.
        kind: String,
        /// Why it is unsupported.
        reason: String,
    },
    /// A layer's weights contain NaN/infinite values, which the
    /// compression walkers cannot threshold or project.
    NonFiniteWeights {
        /// The offending layer.
        layer: String,
        /// The layer's kind label.
        kind: String,
    },
    /// A conv layer has no spatial input extent to count over.
    MissingConvInput {
        /// The offending layer.
        layer: String,
    },
    /// The IR's graph topology is malformed (see [`TopologyError`]).
    BadTopology {
        /// The model's name.
        model: String,
        /// The underlying topology diagnosis, naming the node or edge.
        error: TopologyError,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::EmptyModel { model } => {
                write!(f, "model `{model}` has no weight-bearing layers")
            }
            IrError::UnsupportedLayer {
                layer,
                kind,
                reason,
            } => write!(f, "layer {layer} ({kind}): {reason}"),
            IrError::NonFiniteWeights { layer, kind } => {
                write!(f, "layer {layer} ({kind}) has non-finite weights")
            }
            IrError::MissingConvInput { layer } => {
                write!(f, "layer {layer}: no spatial input extent provided")
            }
            IrError::BadTopology { model, error } => {
                write!(f, "model `{model}`: {error}")
            }
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_constructor_infers_depthwise() {
        let dw = LayerNode::grouped("dw", 8, 8, 3, 3, 14, 14, 1, 1, 8);
        assert!(matches!(dw, LayerNode::Depthwise { .. }));
        let gc = LayerNode::grouped("gc", 8, 16, 3, 3, 14, 14, 1, 1, 2);
        assert!(matches!(gc, LayerNode::Conv { .. }));
        let pw = LayerNode::conv("pw", 8, 16, 1, 1, 14, 14, 1, 0);
        assert!(matches!(pw, LayerNode::Conv { .. }));
    }

    #[test]
    fn geometry_math_matches_paper_shapes() {
        let geom = ConvGeom {
            c: 64,
            k: 128,
            r: 3,
            s: 3,
            h: 56,
            w: 56,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        assert_eq!(geom.output_dim(), (56, 56));
        assert_eq!(geom.weights(), 128 * 64 * 9);
        assert_eq!(geom.dense_mults(), 128 * 64 * 9 * 56 * 56);
        assert!(geom.centro_eligible());
        let strided = ConvGeom { stride: 4, ..geom };
        assert!(!strided.centro_eligible());
    }

    #[test]
    fn annotations_attach_only_to_weight_nodes() {
        let mut ir = ModelIr::new(
            "m",
            vec![
                LayerNode::conv("c", 1, 4, 3, 3, 8, 8, 1, 1),
                LayerNode::Activation {
                    kind: ActivationKind::Relu,
                },
                LayerNode::fc("f", 16, 4),
            ],
        );
        assert_eq!(ir.num_weight_nodes(), 2);
        let ann = SparsityAnnotation {
            weight_density: 0.5,
            activation_density: 0.8,
        };
        for node in ir.weight_nodes_mut() {
            node.set_sparsity(ann);
        }
        assert!(ir.nodes[0].sparsity().is_some());
        assert!(ir.nodes[1].sparsity().is_none());
        let mut relu = ir.nodes[1].clone();
        relu.set_sparsity(ann);
        assert!(relu.sparsity().is_none(), "non-weight nodes stay bare");
    }

    #[test]
    fn with_name_and_centrosymmetric_are_noops_off_target() {
        let named = LayerNode::Flatten
            .with_name("L9")
            .with_centrosymmetric(true);
        assert_eq!(named, LayerNode::Flatten);
        let conv = LayerNode::conv("c", 1, 4, 3, 3, 8, 8, 1, 1)
            .with_name("L2")
            .with_centrosymmetric(true);
        assert_eq!(conv.name(), Some("L2"));
        assert!(matches!(
            conv,
            LayerNode::Conv {
                centrosymmetric: true,
                ..
            }
        ));
    }

    #[test]
    fn errors_name_the_offending_layer() {
        let e = IrError::UnsupportedLayer {
            layer: "L3".into(),
            kind: "custom".into(),
            reason: "no geometry".into(),
        };
        assert!(e.to_string().contains("L3"));
        let e = IrError::NonFiniteWeights {
            layer: "L1".into(),
            kind: "conv2d".into(),
        };
        assert!(e.to_string().contains("non-finite"));
        assert!(DescribeError::new("conv2d", "bad rank")
            .to_string()
            .contains("conv2d"));
    }

    #[test]
    #[should_panic(expected = "channels must divide groups")]
    fn grouped_rejects_indivisible_channels() {
        let _ = LayerNode::grouped("bad", 10, 10, 3, 3, 8, 8, 1, 1, 3);
    }

    #[test]
    fn structural_hash_ignores_annotations_and_model_name() {
        let nodes = vec![
            LayerNode::conv("c", 1, 4, 3, 3, 8, 8, 1, 1),
            LayerNode::fc("f", 16, 4),
        ];
        let bare = ModelIr::new("a", nodes.clone());
        let mut annotated = ModelIr::new("b", nodes);
        for node in annotated.weight_nodes_mut() {
            node.set_sparsity(SparsityAnnotation {
                weight_density: 0.5,
                activation_density: 0.8,
            });
        }
        assert_eq!(bare.structural_hash(), annotated.structural_hash());
        assert!(bare.same_structure(&annotated));
        assert_ne!(bare.annotated_hash(), annotated.annotated_hash());
        // The annotated hash of equal IRs is equal (cache-probe soundness).
        assert_eq!(
            annotated.annotated_hash(),
            annotated.clone().annotated_hash()
        );
    }

    /// A minimal residual diamond: conv → (conv, identity) → add.
    fn diamond() -> ModelIr {
        let mut b = IrBuilder::new("diamond");
        let stem = b.push(LayerNode::conv("stem", 1, 4, 3, 3, 8, 8, 1, 1));
        let branch = b.push_after(LayerNode::conv("branch", 4, 4, 3, 3, 8, 8, 1, 1), &[stem]);
        let join = b.push_after(LayerNode::add("join"), &[branch]);
        b.edge(stem, join);
        b.finish().expect("valid diamond")
    }

    #[test]
    fn builder_wires_a_valid_diamond() {
        let ir = diamond();
        assert!(!ir.is_linear());
        assert_eq!(ir.predecessors(0), Vec::<usize>::new());
        assert_eq!(ir.predecessors(1), vec![0]);
        let mut preds = ir.predecessors(2);
        preds.sort_unstable();
        assert_eq!(preds, vec![0, 1]);
        assert_eq!(ir.node_label(2), "join");
    }

    #[test]
    fn linear_chains_validate_and_report_implicit_predecessors() {
        let ir = ModelIr::new(
            "chain",
            vec![
                LayerNode::conv("c", 1, 4, 3, 3, 8, 8, 1, 1),
                LayerNode::Flatten,
                LayerNode::fc("f", 144, 4),
            ],
        );
        assert!(ir.is_linear());
        ir.validate().expect("implicit chains are valid");
        assert_eq!(ir.predecessors(0), Vec::<usize>::new());
        assert_eq!(ir.predecessors(2), vec![1]);
        assert_eq!(ir.node_label(1), "#1(flatten)");
    }

    #[test]
    fn validate_rejects_malformed_topologies_naming_the_culprit() {
        let good = diamond();

        let mut dangling = good.clone();
        dangling.edges.push(IrEdge::new(1, 9));
        match dangling.validate().expect_err("edge out of bounds") {
            TopologyError::DanglingEdge { edge, to, .. } => {
                assert_eq!((edge, to), (3, 9));
            }
            other => panic!("expected dangling edge, got {other}"),
        }

        let mut duplicated = good.clone();
        duplicated.edges.push(IrEdge::new(0, 2));
        assert!(matches!(
            duplicated.validate().expect_err("repeated edge"),
            TopologyError::DuplicateEdge { from: 0, to: 2, .. }
        ));

        let mut cyclic = good.clone();
        cyclic.edges.push(IrEdge::new(2, 1));
        match cyclic.validate().expect_err("cycle") {
            TopologyError::Cycle { name, .. } => {
                assert!(
                    name == "branch" || name == "join",
                    "on-cycle node, got {name}"
                );
            }
            other => panic!("expected cycle, got {other}"),
        }

        // Swap two independent nodes so an edge points backward without
        // creating a cycle: the error must blame the ordering, not a cycle.
        let mut misordered = good.clone();
        misordered.nodes.swap(1, 2);
        for e in &mut misordered.edges {
            for end in [&mut e.from, &mut e.to] {
                *end = match *end {
                    1 => 2,
                    2 => 1,
                    v => v,
                };
            }
        }
        assert!(matches!(
            misordered.validate().expect_err("backward edge"),
            TopologyError::NotTopological { .. }
        ));

        let mut starved = good.clone();
        starved.edges.retain(|e| !(e.from == 0 && e.to == 2));
        match starved.validate().expect_err("join with one input") {
            TopologyError::JoinUnderArity { name, fan_in, .. } => {
                assert_eq!((name.as_str(), fan_in), ("join", 1));
            }
            other => panic!("expected join arity, got {other}"),
        }

        let mut b = IrBuilder::new("fanin");
        let a = b.push(LayerNode::conv("a", 1, 4, 3, 3, 8, 8, 1, 1));
        let c = b.push(LayerNode::conv("c", 1, 4, 3, 3, 8, 8, 1, 1));
        b.push_after(LayerNode::conv("sink", 4, 4, 3, 3, 8, 8, 1, 1), &[a, c]);
        assert!(matches!(
            b.finish().expect_err("non-join merge"),
            TopologyError::FanInTooHigh { fan_in: 2, .. }
        ));

        let with_join_in_chain = ModelIr::new(
            "chain",
            vec![
                LayerNode::conv("c", 1, 4, 3, 3, 8, 8, 1, 1),
                LayerNode::add("join"),
            ],
        );
        assert!(matches!(
            with_join_in_chain.validate().expect_err("join in chain"),
            TopologyError::JoinUnderArity { fan_in: 1, .. }
        ));
    }

    #[test]
    fn hashes_see_topology() {
        let wired = diamond();
        let flattened = ModelIr::new("diamond", wired.nodes.clone());
        assert_ne!(
            wired.structural_hash(),
            flattened.structural_hash(),
            "same node multiset, different wiring"
        );
        assert_ne!(wired.annotated_hash(), flattened.annotated_hash());
        assert!(!wired.same_structure(&flattened));

        let mut rewired = wired.clone();
        rewired.edges.swap(0, 1);
        assert_ne!(
            wired.structural_hash(),
            rewired.structural_hash(),
            "edge order is part of the identity"
        );
        assert!(!wired.same_structure(&rewired));
    }

    #[test]
    fn joins_are_named_but_not_weight_bearing() {
        let add = LayerNode::add("a").with_name("renamed");
        assert_eq!(add.name(), Some("renamed"));
        assert!(add.is_join());
        assert!(!add.is_weight_bearing());
        assert_eq!(add.kind_label(), "add");
        assert_eq!(LayerNode::concat("c").kind_label(), "concat");
        let mut concat = LayerNode::concat("c");
        concat.set_sparsity(SparsityAnnotation {
            weight_density: 0.5,
            activation_density: 0.5,
        });
        assert!(concat.sparsity().is_none(), "joins stay bare");
    }

    #[test]
    fn structural_hash_sees_geometry_and_centro_changes() {
        let base = ModelIr::new("m", vec![LayerNode::conv("c", 1, 4, 3, 3, 8, 8, 1, 1)]);
        let wider = ModelIr::new("m", vec![LayerNode::conv("c", 1, 8, 3, 3, 8, 8, 1, 1)]);
        let centro = ModelIr::new(
            "m",
            vec![LayerNode::conv("c", 1, 4, 3, 3, 8, 8, 1, 1).with_centrosymmetric(true)],
        );
        let renamed = ModelIr::new("m", vec![LayerNode::conv("d", 1, 4, 3, 3, 8, 8, 1, 1)]);
        let fc = |outputs| ModelIr::new("m", vec![LayerNode::fc("f", 16, outputs)]);
        for other in [&wider, &centro, &renamed] {
            assert_ne!(base.structural_hash(), other.structural_hash());
            assert!(!base.same_structure(other));
        }
        assert_ne!(fc(4).structural_hash(), fc(5).structural_hash());
        assert!(!fc(4).same_structure(&fc(5)));
        assert!(!fc(4).same_structure(&base));
        assert!(fc(4).same_structure(&fc(4)));
    }
}
