//! Seeded random sparse tensor synthesis.
//!
//! The simulator evaluates accelerators on workloads whose *sparsity
//! structure* matters (per-slice non-zero counts drive load balance and
//! fragmentation) but whose numeric values do not affect timing. These
//! helpers synthesize slices at a target density with a seeded RNG so every
//! experiment is reproducible.

use cscnn_rng::rngs::StdRng;
use cscnn_rng::{Rng, SeedableRng};

use crate::cast::to_coord;
use crate::centro::{dual, unique_positions};
use crate::SparseSlice;

/// Deterministic RNG for workload synthesis; `seed` identifies the
/// experiment, so equal seeds give identical workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a `rows × cols` slice where each element is independently non-zero
/// with probability `density`; non-zero values are uniform in `[0.1, 1.0]`
/// (magnitude only — timing models never read values, but keeping them
/// non-zero and bounded makes dense/sparse cross-checks meaningful).
///
/// # Panics
///
/// Panics if `density` is not within `[0, 1]`.
pub fn bernoulli_slice<R: Rng>(rng: &mut R, rows: usize, cols: usize, density: f64) -> SparseSlice {
    assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
    let mut entries = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if rng.gen_bool(density) {
                entries.push((to_coord(r), to_coord(c), rng.gen_range(0.1..=1.0f32)));
            }
        }
    }
    SparseSlice::from_entries(entries, rows, cols)
}

/// Samples a slice with *exactly* `nnz` non-zeros placed uniformly at random.
///
/// # Panics
///
/// Panics if `nnz > rows * cols`.
pub fn exact_nnz_slice<R: Rng>(rng: &mut R, rows: usize, cols: usize, nnz: usize) -> SparseSlice {
    let len = rows * cols;
    assert!(nnz <= len, "nnz {nnz} exceeds slice size {len}");
    // Floyd's algorithm for a uniform k-subset.
    let mut chosen = std::collections::BTreeSet::new();
    for j in (len - nnz)..len {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let entries = chosen
        .into_iter()
        .map(|i| {
            (
                to_coord(i / cols),
                to_coord(i % cols),
                rng.gen_range(0.1..=1.0f32),
            )
        })
        .collect();
    SparseSlice::from_entries(entries, rows, cols)
}

/// Samples a *centrosymmetric* sparse `rows × cols` filter slice at target
/// density: each dual pair is jointly non-zero with probability `density`
/// (so the dense-position density equals `density` while only the canonical
/// half carries independent values — exactly the structure CSCNN pruning
/// produces, where dual weights are pruned together).
///
/// # Panics
///
/// Panics if `density` is not within `[0, 1]`.
pub fn centro_slice<R: Rng>(rng: &mut R, rows: usize, cols: usize, density: f64) -> SparseSlice {
    assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
    let mut dense = vec![0.0f32; rows * cols];
    for (u, v) in unique_positions(rows, cols) {
        if rng.gen_bool(density) {
            let w = rng.gen_range(0.1..=1.0f32);
            let (du, dv) = dual(u, v, rows, cols);
            dense[u * cols + v] = w;
            dense[du * cols + dv] = w;
        }
    }
    SparseSlice::from_dense(&dense, rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centro::is_centrosymmetric;

    #[test]
    fn bernoulli_density_is_close_on_average() {
        let mut r = rng(1);
        let s = bernoulli_slice(&mut r, 100, 100, 0.3);
        assert!((s.density() - 0.3).abs() < 0.03);
    }

    #[test]
    fn exact_nnz_is_exact() {
        let mut r = rng(2);
        for nnz in [0usize, 1, 7, 25] {
            let s = exact_nnz_slice(&mut r, 5, 5, nnz);
            assert_eq!(s.nnz(), nnz);
        }
    }

    #[test]
    fn centro_slice_is_centrosymmetric_in_pattern_and_value() {
        let mut r = rng(3);
        let s = centro_slice(&mut r, 3, 3, 0.6);
        let dense = s.to_dense();
        assert!(is_centrosymmetric(&dense, 3, 3, 0.0));
    }

    #[test]
    fn equal_seeds_reproduce_workloads() {
        let a = bernoulli_slice(&mut rng(42), 10, 10, 0.5);
        let b = bernoulli_slice(&mut rng(42), 10, 10, 0.5);
        assert_eq!(a, b);
    }
}
