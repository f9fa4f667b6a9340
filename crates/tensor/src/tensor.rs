//! The dense `f32` tensor type.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::Shape;

/// A dense, row-major, owned `f32` tensor.
///
/// `Tensor` is the single data container used throughout the training stack.
/// It keeps its element buffer contiguous so kernels (`matmul`, `conv2d`,
/// pooling) can operate on raw slices.
///
/// # Example
///
/// ```
/// use cscnn_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates a square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t[&[i, i]] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the element count of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// Builds a tensor by evaluating `f` at every multi-index, in row-major
    /// order. `f` receives the linear element index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(&mut f).collect();
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: tensors have at least one element.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a copy reinterpreted with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.data.len(),
            "cannot reshape {} elements into {shape}",
            self.data.len()
        );
        Tensor {
            data: self.data.clone(),
            shape,
        }
    }

    /// Element at a multi-index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-index.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Returns the 2-D transpose of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose requires a rank-2 tensor");
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }
}

impl Index<&[usize]> for Tensor {
    type Output = f32;

    fn index(&self, index: &[usize]) -> &f32 {
        &self.data[self.shape.offset(index)]
    }
}

impl IndexMut<&[usize]> for Tensor {
    fn index_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", {:?})", self.data)
        } else {
            write!(
                f,
                ", [{:.4}, {:.4}, .., {:.4}])",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[3, 4]);
        t.set(&[2, 1], 7.5);
        assert_eq!(t.at(&[2, 1]), 7.5);
        assert_eq!(t[&[2, 1]], 7.5);
        t[&[0, 3]] = -1.0;
        assert_eq!(t.at(&[0, 3]), -1.0);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape().dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_wrong_length() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn transpose_swaps_axes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 0]), 3.0);
        assert_eq!(tt.at(&[0, 1]), 4.0);
    }
}
