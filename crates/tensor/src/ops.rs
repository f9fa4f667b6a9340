//! Element-wise tensor operations.
//!
//! These operate in place or produce new tensors; shapes must match exactly
//! (no broadcasting — the NN layers never need it and explicit shapes catch
//! more bugs).

use crate::Tensor;

impl Tensor {
    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(
            self.as_slice().iter().map(|&x| f(x)).collect(),
            self.shape().dims(),
        )
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.as_mut_slice() {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equally shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        Tensor::from_vec(
            self.as_slice()
                .iter()
                .zip(other.as_slice())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            self.shape().dims(),
        )
    }

    /// `self += alpha * other`, element-wise (the BLAS `axpy` primitive).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        self.map_inplace(|x| x * alpha);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Maximum element. At least one element always exists.
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element (first occurrence).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.as_slice().iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Number of elements whose absolute value is at most `eps`.
    pub fn count_near_zero(&self, eps: f32) -> usize {
        self.as_slice().iter().filter(|x| x.abs() <= eps).count()
    }

    /// Fraction of non-zero elements (|x| > eps).
    pub fn density(&self, eps: f32) -> f64 {
        1.0 - self.count_near_zero(eps) as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_zip_compose() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        let b = a.map(|x| x * 2.0);
        assert_eq!(b.as_slice(), &[2.0, -4.0, 6.0]);
        let c = a.zip(&b, |x, y| x + y);
        assert_eq!(c.as_slice(), &[3.0, -6.0, 9.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::full(&[4], 1.0);
        let b = Tensor::full(&[4], 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0; 4]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 0.0, -3.0, 2.0], &[4]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.argmax(), 3);
        assert_eq!(a.count_near_zero(1e-9), 1);
        assert!((a.density(1e-9) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_rejects_mismatched_shapes() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.zip(&b, |x, _| x);
    }
}
