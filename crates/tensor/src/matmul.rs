//! Dense matrix multiplication kernels.
//!
//! Three variants cover every use in the NN stack without materializing
//! transposes: `A·B`, `Aᵀ·B` (weight gradients), and `A·Bᵀ` (input
//! gradients). All three dispatch to the cache-blocked GEMM in
//! [`crate::kernels`]; results are **bit-identical** to the naive
//! [`crate::reference`] kernels (see `docs/kernels.md` for the
//! determinism contract).
//!
//! All variants return the reference's result, which skips products
//! whose left-operand element is exactly `0.0` (so a `0·∞`/`0·NaN` term is
//! skipped rather than propagated). Where the right operand is finite the
//! skip cannot change a bit, and the blocked kernels add every product
//! without a per-element branch.

use crate::kernels::{self, Gemm, Lhs, Rhs};
use crate::Tensor;

/// `C = A · B` for row-major matrices.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use cscnn_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
/// let c = matmul(&a, &b);
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    product(Lhs::RowMajor, Rhs::RowMajor, a, b, "matmul")
}

/// `C = Aᵀ · B` without materializing `Aᵀ`.
///
/// `A` is `[k, m]`, `B` is `[k, n]`, result is `[m, n]`.
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    product(Lhs::Transposed, Rhs::RowMajor, a, b, "matmul_at")
}

/// `C = A · Bᵀ` without materializing `Bᵀ`.
///
/// `A` is `[m, k]`, `B` is `[n, k]`, result is `[m, n]`.
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    product(Lhs::RowMajor, Rhs::Transposed, a, b, "matmul_bt")
}

/// The one body of the three variants: the reference kernel under
/// [`kernels::set_reference_mode`], else a rank and inner-dimension check
/// and the blocked GEMM with `A` and `B` stored as `lhs` and `rhs` say.
fn product(lhs: Lhs, rhs: Rhs, a: &Tensor, b: &Tensor, what: &str) -> Tensor {
    if kernels::reference_mode() {
        return match (lhs, rhs) {
            (Lhs::RowMajor, Rhs::RowMajor) => crate::reference::matmul(a, b),
            (Lhs::Transposed, _) => crate::reference::matmul_at(a, b),
            (Lhs::RowMajor, Rhs::Transposed) => crate::reference::matmul_bt(a, b),
        };
    }
    let (m, k) = match (lhs, dims2(a, what, "lhs")) {
        (Lhs::RowMajor, (m, k)) | (Lhs::Transposed, (k, m)) => (m, k),
    };
    let (k2, n) = match (rhs, dims2(b, what, "rhs")) {
        (Rhs::RowMajor, (k2, n)) | (Rhs::Transposed, (n, k2)) => (k2, n),
    };
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    Gemm::new(lhs, rhs, m, k, n).run(a.as_slice(), b.as_slice(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

fn dims2(t: &Tensor, what: &str, side: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "{what} {side} must be rank 2, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

impl Tensor {
    /// Method form of [`matmul`].
    ///
    /// # Panics
    ///
    /// See [`matmul`].
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        matmul(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(&[i, p]) * b.at(&[p, j]);
                }
                out.set(&[i, j], s);
            }
        }
        out
    }

    fn seq(dims: &[usize]) -> Tensor {
        Tensor::from_fn(dims, |i| (i as f32 * 0.37).sin())
    }

    #[test]
    fn matches_naive_reference() {
        let a = seq(&[5, 7]);
        let b = seq(&[7, 3]);
        let got = matmul(&a, &b);
        let want = naive(&a, &b);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-5);
        }
    }

    #[test]
    fn transposed_variants_agree_with_plain() {
        let a = seq(&[6, 4]);
        let b = seq(&[6, 5]);
        let via_at = matmul_at(&a, &b);
        let plain = matmul(&a.transpose(), &b);
        assert_eq!(via_at.shape().dims(), &[4, 5]);
        for (x, y) in via_at.as_slice().iter().zip(plain.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = seq(&[3, 4]);
        let d = seq(&[5, 4]);
        let via_bt = matmul_bt(&c, &d);
        let plain = matmul(&c, &d.transpose());
        for (x, y) in via_bt.as_slice().iter().zip(plain.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn all_variants_bit_match_naive_reference_oracle() {
        let a = seq(&[37, 45]);
        let b = seq(&[45, 29]);
        let (fast, slow) = (matmul(&a, &b), crate::reference::matmul(&a, &b));
        assert_eq!(bits(&fast), bits(&slow));

        let at = seq(&[45, 37]);
        let (fast, slow) = (matmul_at(&at, &b), crate::reference::matmul_at(&at, &b));
        assert_eq!(bits(&fast), bits(&slow));

        let bt = seq(&[29, 45]);
        let (fast, slow) = (matmul_bt(&a, &bt), crate::reference::matmul_bt(&a, &bt));
        assert_eq!(bits(&fast), bits(&slow));
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn zero_rows_are_skipped_identically_in_every_variant() {
        // A zero left-operand row must yield an exactly-zero output row in
        // all variants (the sparsity short-circuit contract).
        let mut a = seq(&[4, 6]);
        for v in &mut a.as_mut_slice()[6..12] {
            *v = 0.0;
        }
        let b = seq(&[6, 5]);
        let c = matmul(&a, &b);
        assert!(c.as_slice()[5..10].iter().all(|v| v.to_bits() == 0));
        let bt = seq(&[5, 6]);
        let c = matmul_bt(&a, &bt);
        assert!(c.as_slice()[5..10].iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn rejects_mismatched_inner_dims() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }
}
