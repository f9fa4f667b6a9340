#![warn(missing_docs)]

//! # cscnn-nn
//!
//! A small CNN training stack built on [`cscnn-tensor`](cscnn_tensor),
//! providing everything the CSCNN algorithm experiments need:
//!
//! - layers with explicit backward passes ([`Conv2d`], [`Linear`], [`Relu`],
//!   [`MaxPool`], [`Flatten`]) composed into a [`Network`] — the layers every
//!   network in [`models`] is built from; none switches between training and
//!   evaluation behaviour, so a [`Network`] has no train/eval mode;
//! - SGD with momentum and the paper's step learning-rate decay
//!   ([`optimizer`]);
//! - the centrosymmetric filter constraint ([`centrosymmetric`]): Eq. 5 mean
//!   initialization and Eq. 7 gradient tying, applied only to eligible
//!   (unit-stride) conv layers;
//! - Deep-Compression-style magnitude pruning ([`pruning`]) that prunes dual
//!   weights together so the centrosymmetric structure survives;
//! - synthetic labeled image datasets ([`datasets`]) standing in for
//!   MNIST/CIFAR (offline substitution, see DESIGN.md §2);
//! - reference model builders ([`models`]) and a batch [`trainer`].
//!
//! A trained [`Network`] is the *trained-weights entry point* of the
//! workspace's lowering chain: `Network::to_ir` lowers it into the typed
//! `cscnn-ir` `ModelIr` (measured shapes and centrosymmetric flags), from
//! which workload synthesis and simulation proceed exactly as for catalog
//! models.
//!
//! # Example
//!
//! ```
//! use cscnn_nn::models;
//! use cscnn_nn::datasets::SyntheticImages;
//! use cscnn_nn::trainer::{TrainConfig, Trainer};
//!
//! let data = SyntheticImages::generate(1, 8, 8, 3, 60, 0.1, 7);
//! let mut net = models::tiny_cnn(1, 8, 8, 3, 7);
//! let report = Trainer::new(TrainConfig { epochs: 2, batch_size: 10, ..Default::default() })
//!     .fit(&mut net, &data, &data);
//! assert!(report.final_train_accuracy >= 0.0);
//! ```

pub mod centrosymmetric;
pub mod codebook;
pub mod constraints;
pub mod datasets;
mod layers;
pub mod metrics;
pub mod models;
mod network;
pub mod optimizer;
pub mod pruning;
pub mod trainer;

pub use cscnn_ir::{DescribeError, IrError, LayerNode, ModelIr};
pub use layers::{Conv2d, Flatten, Layer, Linear, MaxPool, Param, Relu};
pub use network::Network;
