#![warn(missing_docs)]
// Accounting exactness: narrowing casts in this crate must go through
// `util`'s checked helpers (see docs/static_analysis.md). The workspace
// sets these clippy lints to "warn"; the accounting crates escalate.
#![deny(clippy::cast_possible_truncation)]
#![deny(clippy::cast_sign_loss)]
#![deny(clippy::cast_possible_wrap)]

//! # cscnn-sim
//!
//! A cycle-level simulator of the CSCNN accelerator (HPCA 2021) and its
//! eight published baselines, with energy, area and DRAM models — the
//! substrate for every hardware figure in the paper's evaluation.
//!
//! The simulator follows the paper's own methodology (customized TimeLoop +
//! DRAMSim2, §IV): per-layer dataflow models driven by synthesized sparse
//! workloads at profiled densities, with compute time derived from the
//! structural round/stall/barrier behaviour of each dataflow and memory
//! time from a bank/row DRAM model; layer latency is
//! `max(compute, memory)`.
//!
//! Module map:
//! - [`ArchConfig`] — §IV architecture parameters.
//! - [`workload`] — synthesized per-layer sparse structure.
//! - [`pe`] + [`crossbar`] — Cartesian-product PE rounds, fragmentation,
//!   accumulator-bank contention, CSCNN dual accumulation.
//! - [`tiling`] — planar / output-channel / mixed spatial tiling (§III-C).
//! - [`CartesianAccelerator`] — SCNN and CSCNN (and the Fig. 11 ablations).
//! - [`baselines`] — DCNN, Cnvlutin, Cambricon-X/S, SparTen, SIGMA, SpArch.
//! - [`energy`] / [`area`] / [`dram`] — the cost models.
//! - [`Runner`] — whole-network and suite simulation.
//! - [`BatchRunner`] — batched intake of annotated IR requests: identical
//!   requests share one workload synthesis on a worker pool (see
//!   `docs/batching.md`).
//!
//! # Example
//!
//! ```
//! use cscnn_models::catalog;
//! use cscnn_sim::{baselines, CartesianAccelerator, Runner};
//!
//! let runner = Runner::new(7);
//! let model = catalog::lenet5();
//! let dcnn = runner.run_model(&baselines::dcnn(), &model);
//! let cscnn = runner.run_model(&CartesianAccelerator::cscnn(), &model);
//! assert!(cscnn.speedup_over(&dcnn) > 1.0);
//! ```

mod accelerator;
pub mod area;
pub mod baselines;
pub mod batch;
mod config;
pub mod crossbar;
pub mod dram;
pub mod energy;
pub mod error;
pub mod export;
pub mod hybrid;
pub mod interface;
pub mod pe;
pub mod pe_detailed;
pub mod report;
pub mod roofline;
mod runner;
pub mod tiling;
pub mod trace;
pub mod util;
pub mod validation;
pub mod workload;

pub use accelerator::CartesianAccelerator;
pub use batch::{BatchRunner, BatchStats};
pub use config::ArchConfig;
pub use error::SimError;
pub use interface::{Accelerator, Characteristics, LayerContext};
pub use report::{geomean, LayerStats, RunStats};
pub use runner::Runner;
