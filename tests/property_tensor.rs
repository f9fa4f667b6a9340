//! Property-style tests of the tensor kernels: algebraic identities
//! (linearity, distributivity) and pooling invariants over seeded
//! randomized values.
//!
//! These were originally `proptest` properties; the workspace is std-only,
//! so each property now runs as a fixed loop over deterministic seeds with
//! values drawn from `cscnn-rng`. Coverage is comparable (32+ cases per
//! property) and failures are exactly reproducible from the seed.

use cscnn::tensor::{conv2d, matmul, matmul_at, matmul_bt, max_pool2d, ConvSpec, PoolSpec, Tensor};
use cscnn_rng::rngs::StdRng;
use cscnn_rng::{Rng, SeedableRng};

/// Tensor with elements uniform in [-2, 2), matching the old strategy.
fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    let v: Vec<f32> = (0..n)
        .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0)
        .collect();
    Tensor::from_vec(v, dims)
}

/// Convolution is linear in the input: conv(a + b) == conv(a) + conv(b)
/// with a zero bias.
#[test]
fn conv_is_linear_in_input() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x7e_0000 + seed);
        let a = random_tensor(&mut rng, &[1, 2, 6, 6]);
        let b = random_tensor(&mut rng, &[1, 2, 6, 6]);
        let w = random_tensor(&mut rng, &[3, 2, 3, 3]);
        let spec = ConvSpec::new(3, 3).with_padding(1);
        let bias = Tensor::zeros(&[3]);
        let sum_in = a.zip(&b, |x, y| x + y);
        let lhs = conv2d(&sum_in, &w, &bias, &spec);
        let mut rhs = conv2d(&a, &w, &bias, &spec);
        rhs.axpy(1.0, &conv2d(&b, &w, &bias, &spec));
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((l - r).abs() < 1e-3, "seed {seed}: {l} vs {r}");
        }
    }
}

/// Convolution is linear in the weights too.
#[test]
fn conv_is_linear_in_weights() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x7e_1000 + seed);
        let x = random_tensor(&mut rng, &[1, 2, 6, 6]);
        let w1 = random_tensor(&mut rng, &[3, 2, 3, 3]);
        let w2 = random_tensor(&mut rng, &[3, 2, 3, 3]);
        let spec = ConvSpec::new(3, 3);
        let bias = Tensor::zeros(&[3]);
        let w_sum = w1.zip(&w2, |a, b| a + b);
        let lhs = conv2d(&x, &w_sum, &bias, &spec);
        let mut rhs = conv2d(&x, &w1, &bias, &spec);
        rhs.axpy(1.0, &conv2d(&x, &w2, &bias, &spec));
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((l - r).abs() < 1e-3, "seed {seed}: {l} vs {r}");
        }
    }
}

/// Matmul distributes over addition, and the transposed variants agree
/// with explicit transposes.
#[test]
fn matmul_identities() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x7e_3000 + seed);
        let a = random_tensor(&mut rng, &[4, 5]);
        let b = random_tensor(&mut rng, &[5, 3]);
        let c = random_tensor(&mut rng, &[5, 3]);
        let b_plus_c = b.zip(&c, |x, y| x + y);
        let lhs = matmul(&a, &b_plus_c);
        let mut rhs = matmul(&a, &b);
        rhs.axpy(1.0, &matmul(&a, &c));
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((l - r).abs() < 1e-3, "seed {seed}");
        }
        let at = matmul_at(&a, &a); // aᵀ·a : symmetric PSD
        for i in 0..5 {
            for j in 0..5 {
                assert!((at.at(&[i, j]) - at.at(&[j, i])).abs() < 1e-3);
            }
            assert!(at.at(&[i, i]) >= -1e-4, "diagonal of aᵀa is non-negative");
        }
        let bt = matmul_bt(&a, &Tensor::eye(5));
        for (l, r) in bt.as_slice().iter().zip(a.as_slice()) {
            assert!((l - r).abs() < 1e-5, "a·Iᵀ == a");
        }
    }
}

/// Each max-pool output dominates every element of its window and lies
/// within the input's range.
#[test]
fn pooling_order_and_range() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x7e_4000 + seed);
        let x = random_tensor(&mut rng, &[1, 2, 8, 8]);
        let spec = PoolSpec::new(2);
        let (mx, _) = max_pool2d(&x, &spec);
        let hi = x
            .as_slice()
            .iter()
            .fold(f32::NEG_INFINITY, |h, &v| h.max(v));
        for (o, &m) in mx.as_slice().iter().enumerate() {
            let (plane, oy, ox) = (o / 16, o / 4 % 4, o % 4);
            for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                assert!(
                    m >= x.at(&[0, plane, 2 * oy + dy, 2 * ox + dx]),
                    "max >= window"
                );
            }
            assert!(m <= hi, "max <= input maximum");
        }
    }
}
