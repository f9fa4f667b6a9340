//! Micro-benchmarks of the kernel hot paths: dense convolution, matmul,
//! sparse encodings and the centrosymmetric transforms.
//!
//! Plain `main()` harness (`harness = false`): each benchmark warms up,
//! then runs batches until ~0.2 s elapses and reports the mean ns/iter.
//! Run with `cargo bench -p cscnn-bench --bench kernels`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cscnn::nn::codebook;
use cscnn::sparse::formats::{BitmaskVector, CscVector};
use cscnn::sparse::{centro, RleVector, SparseSlice};
use cscnn::tensor::{conv2d, matmul, ConvSpec, Tensor};

fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let target = Duration::from_millis(200);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < target {
        f();
        iters += 1;
    }
    let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<36} {per_iter:>14.0} ns/iter  ({iters} iters)");
}

fn main() {
    let input = Tensor::from_fn(&[1, 16, 32, 32], |i| (i as f32 * 0.01).sin());
    let weight = Tensor::from_fn(&[32, 16, 3, 3], |i| (i as f32 * 0.02).cos());
    let bias = Tensor::zeros(&[32]);
    let spec = ConvSpec::new(3, 3).with_padding(1);
    bench("conv2d_16x32x32_to_32", || {
        black_box(conv2d(black_box(&input), black_box(&weight), &bias, &spec));
    });

    let a = Tensor::from_fn(&[128, 256], |i| (i as f32 * 0.01).sin());
    let b2 = Tensor::from_fn(&[256, 64], |i| (i as f32 * 0.02).cos());
    bench("matmul_128x256x64", || {
        black_box(matmul(black_box(&a), black_box(&b2)));
    });

    let dense: Vec<f32> = (0..4096)
        .map(|i| if i % 3 == 0 { (i as f32).sin() } else { 0.0 })
        .collect();
    bench("rle_encode_4096", || {
        black_box(RleVector::encode(black_box(&dense), 15));
    });
    let encoded = RleVector::encode(&dense, 15);
    bench("rle_decode_4096", || {
        black_box(black_box(&encoded).decode());
    });

    let slice: Vec<f32> = (0..25).map(|i| (i as f32).sin()).collect();
    bench("centro_project_5x5", || {
        black_box(centro::project_mean(black_box(&slice), 5, 5));
    });
    let mut grad: Vec<f32> = (0..9).map(|i| i as f32).collect();
    bench("centro_tie_gradients_3x3", || {
        centro::tie_gradients(black_box(&mut grad), 3, 3);
    });

    let half: Vec<f32> = (0..28 * 28)
        .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
        .collect();
    bench("sparse_slice_from_dense_28x28", || {
        black_box(SparseSlice::from_dense(black_box(&half), 28, 28));
    });

    bench("bitmask_encode_4096", || {
        black_box(BitmaskVector::encode(black_box(&dense)));
    });
    bench("csc_encode_4096", || {
        black_box(CscVector::encode(black_box(&dense), 4));
    });
    let bm = BitmaskVector::encode(&dense);
    let other: Vec<f32> = (0..4096)
        .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
        .collect();
    let bvec = BitmaskVector::encode(&other);
    bench("bitmask_inner_join_4096", || {
        black_box(black_box(&bm).inner_join(black_box(&bvec)));
    });

    let values: Vec<f32> = (0..8192)
        .map(|i| {
            if i % 3 == 0 {
                0.0
            } else {
                ((i % 17) as f32 - 8.0) * 0.05
            }
        })
        .collect();
    bench("kmeans_codebook_8192_k32", || {
        black_box(codebook::kmeans_codebook(black_box(&values), 32, 10));
    });
    let symbols: Vec<usize> = (0..8192).map(|i| i % 17).collect();
    bench("huffman_bits_8192", || {
        black_box(codebook::huffman_bits(black_box(&symbols)));
    });
}
