#![warn(missing_docs)]

//! Shared support for the table/figure harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index); this library holds the plumbing
//! they share: paper-reported reference numbers, table formatting, the
//! one suite run every simulating harness makes, and the wall-clock benches' report columns.
//!
//! The harnesses sit at the *top* of the workspace's lowering chain,
//! driving it end to end: catalog `ModelDesc` → `ModelIr` →
//! `LayerWorkload` → simulation → formatted table, all from the single
//! [`SEED`].

pub mod paper;
pub mod report;
pub mod table;

use cscnn::models::ModelDesc;
use cscnn::sim::{Accelerator, RunStats, Runner};

/// The workload seed used by every harness binary, so all tables/figures
/// come from the same synthesized workloads.
pub const SEED: u64 = 42;

/// Simulates every accelerator of `accs` on every model of `models` in one
/// [`Runner::run_suite`] call at [`SEED`]. Returns `[model][accelerator]`
/// results in the order of the two lists.
///
/// # Panics
///
/// Panics if a model does not simulate ([`cscnn::sim::SimError`]); the
/// harnesses only pass catalog models, which always do.
pub fn run_suite(accs: &[Box<dyn Accelerator>], models: &[ModelDesc]) -> Vec<Vec<RunStats>> {
    Runner::new(SEED)
        .run_suite(accs, models)
        .unwrap_or_else(|e| panic!("catalog suite failed to simulate: {e}"))
}

#[cfg(test)]
mod tests {
    use cscnn::models::catalog;

    #[test]
    fn evaluation_models_match_paper_suite() {
        let names: Vec<String> = catalog::evaluation_suite()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert!(names.contains(&"AlexNet".to_string()));
        assert!(names.contains(&"EfficientNet-B7".to_string()));
        assert_eq!(names.len(), 9);
    }
}
