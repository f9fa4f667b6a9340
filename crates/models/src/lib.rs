#![warn(missing_docs)]

//! # cscnn-models
//!
//! Layer-shape catalogs of the CNNs the paper evaluates (Tables II/III and
//! Figs. 7–11), per-layer sparsity profiles, and the multiplication-
//! reduction arithmetic behind the compression tables.
//!
//! Unlike `cscnn-nn`, nothing here is trainable: a [`ModelDesc`] is a pure
//! description from which MAC counts, weight counts, centrosymmetric
//! eligibility and simulator workloads are derived. Each [`LayerDesc`] is a
//! name, a [`LayerKind`] and a [`ConvGeom`], `cscnn-ir`'s one
//! layer-geometry type, which defines every shape count (`layer.geom.*`).
//!
//! [`ModelDesc`] is the *catalog-side entry point* of the workspace's
//! lowering chain: [`lower::to_ir`] raises a descriptor into the typed
//! `cscnn-ir` `ModelIr` (the hub every representation meets at), and
//! [`lower::to_model_desc`] lowers back losslessly for the round-trip
//! tests.
//!
//! # Example
//!
//! ```
//! use cscnn_models::catalog;
//!
//! let alexnet = catalog::alexnet();
//! // AlexNet C1 has stride 4, so it is not centrosymmetric-eligible.
//! assert!(!alexnet.layers[0].geom.centro_eligible());
//! assert!(alexnet.layers[1].geom.centro_eligible());
//! ```

pub mod catalog;
mod layer;
pub mod lower;
pub mod mults;
pub mod sparsity;

pub use cscnn_ir::{ConvGeom, IrBuilder, IrEdge, IrError, LayerNode, ModelIr, TopologyError};
pub use layer::{LayerDesc, LayerKind, ModelDesc};
pub use mults::{CompressionScheme, ModelCompression};
pub use sparsity::SparsityProfile;
