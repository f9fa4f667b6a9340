#![warn(missing_docs)]

//! # cscnn-tensor
//!
//! A minimal, dependency-light N-dimensional `f32` tensor library providing
//! exactly the kernels the CSCNN reproduction needs: element-wise ops,
//! matrix multiplication, 2-D convolution (forward and backward, via im2col),
//! max pooling, and weight initialization.
//!
//! Matmul and convolution run on the cache-blocked GEMM in [`kernels`],
//! with results **bit-identical** to the frozen naive kernels in
//! [`mod@reference`] — see `docs/kernels.md`. Convolutions share one
//! im2col lowering between forward and backward through [`ConvScratch`];
//! depthwise ones at unit stride, and narrow ones, run direct per-plane
//! kernels instead. Every kernel runs on its calling thread; the
//! process's thread budget ([`set_num_threads`] / `CSCNN_NUM_THREADS`)
//! goes to whole jobs, such as independent trainings, through
//! [`run_jobs`].
//!
//! The library is deliberately *not* an autograd engine: each NN layer in
//! [`cscnn-nn`](../cscnn_nn/index.html) implements its own backward pass on
//! top of these kernels, mirroring how the paper's algorithmic contribution
//! (centrosymmetric gradient tying, Eq. 7) manipulates raw gradients.
//!
//! In the workspace's lowering chain (`Network`/`ModelDesc` → `ModelIr` →
//! `LayerWorkload` → simulation) this crate sits *below* the chain's entry
//! point: it supplies the numeric kernels `cscnn-nn` trains with and knows
//! nothing about the IR or the simulator.
//!
//! # Example
//!
//! ```
//! use cscnn_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```

mod conv;
mod init;
pub mod kernels;
mod matmul;
mod ops;
mod pool;
pub mod reference;
mod shape;
mod tensor;
pub mod threads;

pub use conv::{
    conv2d, conv2d_backward, conv2d_grouped, conv2d_grouped_backward, Conv2dGrads, ConvScratch,
    ConvSpec,
};
pub use init::{kaiming_uniform, uniform};
pub use matmul::{matmul, matmul_at, matmul_bt};
pub use pool::{max_pool2d, max_pool2d_backward, PoolSpec};
pub use shape::Shape;
pub use tensor::Tensor;
pub use threads::{num_threads, reset_num_threads, run_jobs, set_num_threads, MAX_THREADS};
