//! Weight sharing and Huffman coding — the storage stages of Deep
//! Compression (Han et al.), against which the paper positions
//! centrosymmetric storage ("the filters can be easily compressed by about
//! 2× … it does not impose indexing overhead").
//!
//! Pipeline: prune (see [`crate::pruning`]) → cluster surviving weights to
//! a small codebook (1-D k-means with linear initialization, as in the
//! original) → entropy-code the cluster indices (Huffman). This module
//! implements the clustering and the exact Huffman-coded size, plus
//! side-by-side storage accounting for dense, pruned+RLE, clustered, and
//! centrosymmetric representations.

use std::collections::BinaryHeap;

use cscnn_tensor::Tensor;

/// 1-D k-means over the non-zero values, with Deep Compression's linear
/// initialization over `[min, max]`.
///
/// Returns the `k` centroids (some may be unused if the data has fewer
/// distinct values).
///
/// # Panics
///
/// Panics if `k == 0` or no non-zero values exist.
pub fn kmeans_codebook(values: &[f32], k: usize, iterations: usize) -> Vec<f32> {
    assert!(k > 0, "codebook must have at least one entry");
    let nonzero: Vec<f32> = values.iter().copied().filter(|v| *v != 0.0).collect();
    assert!(!nonzero.is_empty(), "no non-zero values to cluster");
    let min = nonzero.iter().copied().fold(f32::INFINITY, f32::min);
    let max = nonzero.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut centroids: Vec<f32> = (0..k)
        .map(|i| min + (max - min) * (i as f32 + 0.5) / k as f32)
        .collect();
    for _ in 0..iterations {
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0u64; k];
        for &v in &nonzero {
            let c = nearest(&centroids, v);
            sums[c] += v as f64;
            counts[c] += 1;
        }
        for i in 0..k {
            if counts[i] > 0 {
                centroids[i] = (sums[i] / counts[i] as f64) as f32;
            }
        }
    }
    centroids
}

/// Index of the nearest centroid.
fn nearest(centroids: &[f32], v: f32) -> usize {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for (i, &c) in centroids.iter().enumerate() {
        let d = (c - v).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Replaces every non-zero value by its nearest codebook entry, returning
/// the quantized tensor and the per-value cluster indices of the non-zeros.
pub fn quantize_to_codebook(t: &Tensor, codebook: &[f32]) -> (Tensor, Vec<usize>) {
    let mut indices = Vec::new();
    let data: Vec<f32> = t
        .as_slice()
        .iter()
        .map(|&v| {
            if v == 0.0 {
                0.0
            } else {
                let i = nearest(codebook, v);
                indices.push(i);
                codebook[i]
            }
        })
        .collect();
    (Tensor::from_vec(data, t.shape().dims()), indices)
}

/// Exact Huffman-coded size in bits for a symbol stream (canonical Huffman
/// over observed frequencies). Returns 0 for an empty stream; a
/// single-symbol stream costs 1 bit per symbol.
pub fn huffman_bits(symbols: &[usize]) -> u64 {
    if symbols.is_empty() {
        return 0;
    }
    let max = symbols.iter().copied().max().expect("non-empty") + 1;
    let mut freq = vec![0u64; max];
    for &s in symbols {
        freq[s] += 1;
    }
    // Huffman via a min-heap of (count, id); total bits = Σ merges.
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = freq
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(i, &f)| std::cmp::Reverse((f, i)))
        .collect();
    if heap.len() == 1 {
        return symbols.len() as u64;
    }
    let mut total = 0u64;
    let mut next_id = max;
    while heap.len() > 1 {
        let std::cmp::Reverse((a, _)) = heap.pop().expect("len > 1");
        let std::cmp::Reverse((b, _)) = heap.pop().expect("len > 1");
        total += a + b;
        heap.push(std::cmp::Reverse((a + b, next_id)));
        next_id += 1;
    }
    total
}

/// Storage accounting for one weight tensor under the representations the
/// paper compares (bits).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StorageReport {
    /// Dense 16-bit storage.
    pub dense_bits: u64,
    /// Pruned, zero-run-length encoded (16-bit values + 4-bit runs).
    pub pruned_rle_bits: u64,
    /// Pruned + clustered: RLE runs + fixed-width codebook indices +
    /// the codebook itself.
    pub clustered_bits: u64,
    /// Pruned + clustered + Huffman over the indices.
    pub huffman_total_bits: u64,
}

/// Computes the [`StorageReport`] for a weight tensor with `codebook_bits`
/// of cluster index (Deep Compression used 8 for conv, 5 for FC).
pub fn storage_report(t: &Tensor, codebook_bits: u32, kmeans_iters: usize) -> StorageReport {
    let word = 16u64;
    let run = 4u64;
    let n = t.len() as u64;
    let nnz = t.as_slice().iter().filter(|v| **v != 0.0).count() as u64;
    let dense_bits = n * word;
    let pruned_rle_bits = nnz * (word + run);
    let k = 1usize << codebook_bits;
    let codebook = kmeans_codebook(t.as_slice(), k, kmeans_iters);
    let (_, indices) = quantize_to_codebook(t, &codebook);
    let codebook_storage = k as u64 * word;
    let clustered_bits = nnz * (codebook_bits as u64 + run) + codebook_storage;
    let huffman_total_bits = huffman_bits(&indices) + nnz * run + codebook_storage;
    StorageReport {
        dense_bits,
        pruned_rle_bits,
        clustered_bits,
        huffman_total_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_recovers_well_separated_clusters() {
        let mut values = Vec::new();
        for _ in 0..100 {
            values.push(1.0);
            values.push(-2.0);
            values.push(5.0);
        }
        let cb = kmeans_codebook(&values, 3, 20);
        let mut sorted = cb.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!((sorted[0] + 2.0).abs() < 1e-3);
        assert!((sorted[1] - 1.0).abs() < 1e-3);
        assert!((sorted[2] - 5.0).abs() < 1e-3);
    }

    #[test]
    fn quantization_preserves_zeros_and_snaps_values() {
        let t = Tensor::from_vec(vec![0.0, 1.1, 0.0, 4.9, -2.1], &[5]);
        let cb = vec![-2.0, 1.0, 5.0];
        let (q, indices) = quantize_to_codebook(&t, &cb);
        assert_eq!(q.as_slice(), &[0.0, 1.0, 0.0, 5.0, -2.0]);
        assert_eq!(indices, vec![1, 2, 0]);
    }

    /// Shannon entropy lower bound in bits for a symbol stream.
    fn entropy_bits(symbols: &[usize]) -> f64 {
        if symbols.is_empty() {
            return 0.0;
        }
        let max = symbols.iter().copied().max().expect("non-empty") + 1;
        let mut freq = vec![0u64; max];
        for &s in symbols {
            freq[s] += 1;
        }
        let n = symbols.len() as f64;
        freq.iter()
            .filter(|&&f| f > 0)
            .map(|&f| {
                let p = f as f64 / n;
                -(f as f64) * p.log2()
            })
            .sum()
    }

    #[test]
    fn huffman_is_between_entropy_and_fixed_width() {
        // Skewed distribution: Huffman must beat fixed-width and respect
        // the entropy lower bound.
        let mut symbols = vec![0usize; 900];
        for s in 1..=4 {
            for _ in 0..25 {
                symbols.push(s);
            }
        }
        let h = huffman_bits(&symbols) as f64;
        let entropy = entropy_bits(&symbols);
        let fixed = symbols.len() as f64 * 3.0; // 5 symbols → 3 bits
        assert!(h >= entropy - 1e-6, "h={h} entropy={entropy}");
        assert!(h <= entropy + symbols.len() as f64, "within 1 bit/symbol");
        assert!(h < fixed, "h={h} fixed={fixed}");
    }

    #[test]
    fn huffman_handles_degenerate_streams() {
        assert_eq!(huffman_bits(&[]), 0);
        assert_eq!(huffman_bits(&[3, 3, 3, 3]), 4, "1 bit per symbol");
    }

    #[test]
    fn storage_report_orders_representations() {
        // A pruned, clusterable tensor: Deep Compression's stages must
        // monotonically shrink it.
        let t = Tensor::from_fn(&[4096], |i| {
            if i % 3 == 0 {
                0.0
            } else {
                ((i % 7) as f32 - 3.0) * 0.1
            }
        });
        let r = storage_report(&t, 5, 15);
        assert!(r.pruned_rle_bits < r.dense_bits);
        assert!(r.clustered_bits < r.pruned_rle_bits);
        assert!(r.huffman_total_bits <= r.clustered_bits);
        assert!(r.dense_bits as f64 / r.huffman_total_bits as f64 > 2.0);
    }
}
