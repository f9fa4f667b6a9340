//! Centrosymmetric filter arithmetic (paper §II).
//!
//! A filter slice `W` of size `R×S` is *centrosymmetric* when
//! `W(u, v) == W(R-1-u, S-1-v)` for all positions (Eq. 2). The pair of
//! positions `(u,v)` and `(R-1-u, S-1-v)` are called *dual weights*; for odd
//! `R·S` the central position is its own dual.
//!
//! This module provides the dual-coordinate map, the canonical "unique half"
//! enumeration used by the compressed representation, the Eq. 5 mean
//! projection used to initialize CSCNN training, and the Eq. 7 gradient tying
//! used during retraining.

/// The dual coordinate of `(u, v)` in an `r × s` slice: `(r-1-u, s-1-v)`.
///
/// # Panics
///
/// Panics (in debug builds) when the coordinate is out of range.
#[inline]
pub fn dual(u: usize, v: usize, r: usize, s: usize) -> (usize, usize) {
    debug_assert!(u < r && v < s, "coordinate ({u},{v}) out of {r}x{s}");
    (r - 1 - u, s - 1 - v)
}

/// Number of independent weights in a centrosymmetric `r × s` slice:
/// `⌈r·s / 2⌉`.
pub fn unique_weight_count(r: usize, s: usize) -> usize {
    (r * s).div_ceil(2)
}

/// Whether the centrosymmetric constraint applies to an `r × s` kernel at
/// `stride` (paper §II-A): unit stride and a multi-weight kernel. Strided
/// convolutions are excluded because the structured reuse does not apply;
/// a `1×1` kernel (and so an FC layer) is its own dual and saves nothing.
pub fn is_eligible(stride: usize, r: usize, s: usize) -> bool {
    stride == 1 && r * s > 1
}

/// Enumerates the canonical half of an `r × s` slice: every position whose
/// row-major linear index is ≤ its dual's. The list has
/// [`unique_weight_count`] entries and is in row-major order.
pub fn unique_positions(r: usize, s: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(unique_weight_count(r, s));
    for u in 0..r {
        for v in 0..s {
            let (du, dv) = dual(u, v, r, s);
            if (u, v) <= (du, dv) {
                out.push((u, v));
            }
        }
    }
    out
}

/// Checks the centrosymmetric constraint (Eq. 2) within `tol`.
///
/// # Panics
///
/// Panics if `dense.len() != r * s`.
pub fn is_centrosymmetric(dense: &[f32], r: usize, s: usize, tol: f32) -> bool {
    assert_eq!(dense.len(), r * s, "slice length mismatch");
    unique_positions(r, s).iter().all(|&(u, v)| {
        let (du, dv) = dual(u, v, r, s);
        (dense[u * s + v] - dense[du * s + dv]).abs() <= tol
    })
}

/// Eq. 5 projection: replaces each dual-weight pair by its mean, producing
/// the centrosymmetric initialization of CSCNN training.
///
/// # Panics
///
/// Panics if `dense.len() != r * s`.
pub fn project_mean(dense: &[f32], r: usize, s: usize) -> Vec<f32> {
    assert_eq!(dense.len(), r * s, "slice length mismatch");
    let mut out = dense.to_vec();
    for (u, v) in unique_positions(r, s) {
        let (du, dv) = dual(u, v, r, s);
        let m = 0.5 * (dense[u * s + v] + dense[du * s + dv]);
        out[u * s + v] = m;
        out[du * s + dv] = m;
    }
    // Postcondition (Eq. 2): the projection must land exactly on the
    // centrosymmetric subspace — both members of a pair were assigned the
    // same `m`, so exact equality is required, not a tolerance.
    debug_assert!(
        is_centrosymmetric(&out, r, s, 0.0),
        "project_mean produced a non-centrosymmetric slice"
    );
    out
}

/// Eq. 7 gradient tying: sets each gradient (and its dual) to half the sum of
/// the pair, making the gradient centrosymmetric. Updating both tied copies
/// with this averaged value is equivalent to updating one shared weight with
/// the full chain-rule sum.
///
/// # Panics
///
/// Panics if `grad.len() != r * s`.
pub fn tie_gradients(grad: &mut [f32], r: usize, s: usize) {
    assert_eq!(grad.len(), r * s, "gradient length mismatch");
    for (u, v) in unique_positions(r, s) {
        let (du, dv) = dual(u, v, r, s);
        let m = 0.5 * (grad[u * s + v] + grad[du * s + dv]);
        grad[u * s + v] = m;
        grad[du * s + dv] = m;
    }
    // Postcondition (Eq. 7): a tied gradient is itself centrosymmetric, so
    // updates can never push a filter off the constraint surface.
    debug_assert!(
        is_centrosymmetric(grad, r, s, 0.0),
        "tie_gradients produced a non-centrosymmetric gradient"
    );
}

/// Compressed storage for one centrosymmetric `r × s` filter slice: only the
/// canonical half is stored, in [`unique_positions`] order.
///
/// Because the mapping from stored index to both dense coordinates is purely
/// positional, no per-weight index metadata is needed — the property the
/// paper highlights ("it does not impose indexing overhead").
///
/// # Example
///
/// ```
/// use cscnn_sparse::centro::CentroFilter;
///
/// let dense = vec![1.0, 2.0, 3.0, 4.0, 5.0, 4.0, 3.0, 2.0, 1.0];
/// let cf = CentroFilter::from_dense(&dense, 3, 3).unwrap();
/// assert_eq!(cf.stored_len(), 5);
/// assert_eq!(cf.expand(), dense);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CentroFilter {
    rows: usize,
    cols: usize,
    half: Vec<f32>,
}

impl CentroFilter {
    /// Compresses a dense slice, verifying the constraint first.
    ///
    /// Returns `None` when the slice is not centrosymmetric (within
    /// `1e-6`), in which case it cannot be stored in half form.
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != rows * cols`.
    pub fn from_dense(dense: &[f32], rows: usize, cols: usize) -> Option<Self> {
        if !is_centrosymmetric(dense, rows, cols, 1e-6) {
            return None;
        }
        let half = unique_positions(rows, cols)
            .into_iter()
            .map(|(u, v)| dense[u * cols + v])
            .collect();
        Some(CentroFilter { rows, cols, half })
    }

    /// Number of stored (independent) weights.
    pub fn stored_len(&self) -> usize {
        self.half.len()
    }

    /// Row extent of the dense slice.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column extent of the dense slice.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The stored canonical-half values.
    pub fn half(&self) -> &[f32] {
        &self.half
    }

    /// Expands back to the dense `rows × cols` slice.
    pub fn expand(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for ((u, v), &w) in unique_positions(self.rows, self.cols)
            .into_iter()
            .zip(&self.half)
        {
            let (du, dv) = dual(u, v, self.rows, self.cols);
            out[u * self.cols + v] = w;
            out[du * self.cols + dv] = w;
        }
        // Half-form storage is centrosymmetric by construction (Eq. 2);
        // verify the positional expansion preserved that.
        debug_assert!(
            is_centrosymmetric(&out, self.rows, self.cols, 0.0),
            "expanded CentroFilter violates W(u,v) == W(R-1-u,S-1-v)"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_is_involutive() {
        for r in 1..=5 {
            for s in 1..=5 {
                for u in 0..r {
                    for v in 0..s {
                        let (du, dv) = dual(u, v, r, s);
                        assert_eq!(dual(du, dv, r, s), (u, v));
                    }
                }
            }
        }
    }

    #[test]
    fn unique_count_matches_formula() {
        assert_eq!(unique_weight_count(3, 3), 5);
        assert_eq!(unique_weight_count(2, 2), 2);
        assert_eq!(unique_weight_count(5, 5), 13);
        assert_eq!(unique_weight_count(1, 1), 1);
        for r in 1..=7 {
            for s in 1..=7 {
                assert_eq!(unique_positions(r, s).len(), unique_weight_count(r, s));
            }
        }
    }

    #[test]
    fn center_of_odd_slice_is_self_dual() {
        assert_eq!(dual(1, 1, 3, 3), (1, 1));
        assert_ne!(dual(0, 0, 3, 3), (0, 0));
        // Even slices have no self-dual position.
        for u in 0..2 {
            for v in 0..2 {
                assert_ne!(dual(u, v, 2, 2), (u, v));
            }
        }
    }

    #[test]
    fn projection_produces_centrosymmetric_slice() {
        let dense: Vec<f32> = (0..9).map(|x| x as f32).collect();
        let proj = project_mean(&dense, 3, 3);
        assert!(is_centrosymmetric(&proj, 3, 3, 0.0));
        // Every projected pair is the mean of the originals: all become 4.0
        // here because dense[i] + dense[8-i] == 8.
        assert!(proj.iter().all(|&x| (x - 4.0).abs() < 1e-6));
    }

    #[test]
    fn projection_is_idempotent() {
        let dense: Vec<f32> = (0..15).map(|x| (x as f32).sin()).collect();
        let once = project_mean(&dense, 3, 5);
        let twice = project_mean(&once, 3, 5);
        assert_eq!(once, twice);
    }

    #[test]
    fn gradient_tying_preserves_total_update() {
        let mut g: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let before: f32 = g.iter().sum();
        tie_gradients(&mut g, 3, 3);
        let after: f32 = g.iter().sum();
        assert!((before - after).abs() < 1e-5);
        assert!(is_centrosymmetric(&g, 3, 3, 0.0));
        // Pair (0,0)/(2,2): (1+9)/2 = 5.
        assert_eq!(g[0], 5.0);
        assert_eq!(g[8], 5.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of 3x3")]
    fn dual_rejects_out_of_range_coordinates_in_debug() {
        let _ = dual(3, 0, 3, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-centrosymmetric gradient")]
    fn tie_gradients_detects_nan_poisoning_in_debug() {
        // A NaN gradient cannot be tied into a centrosymmetric pair
        // (NaN != NaN); the Eq. 7 postcondition must catch it rather than
        // let a poisoned update silently break the constraint surface.
        let mut g = vec![0.0f32; 9];
        g[0] = f32::NAN;
        tie_gradients(&mut g, 3, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-centrosymmetric slice")]
    fn project_mean_detects_nan_poisoning_in_debug() {
        let mut d = vec![1.0f32; 9];
        d[4] = f32::NAN;
        let _ = project_mean(&d, 3, 3);
    }

    #[test]
    fn centro_filter_rejects_asymmetric_input() {
        let dense: Vec<f32> = (0..9).map(|x| x as f32).collect();
        assert!(CentroFilter::from_dense(&dense, 3, 3).is_none());
    }

    #[test]
    fn centro_filter_round_trips_pruned_slice() {
        // Centrosymmetric with zeros: dual zeros stay paired.
        let dense = vec![0.0, 2.0, 0.0, 3.0, 7.0, 3.0, 0.0, 2.0, 0.0];
        let cf = CentroFilter::from_dense(&dense, 3, 3).expect("slice is centrosymmetric");
        assert_eq!(cf.expand(), dense);
        assert_eq!(cf.stored_len(), 5);
    }
}
