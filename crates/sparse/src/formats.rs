//! The sparse storage formats of the baseline accelerators.
//!
//! Table IV's machines differ not just in dataflow but in how they encode
//! sparsity; storage efficiency drives both their DRAM traffic and their
//! on-chip metadata energy:
//!
//! - [`crate::RleVector`] — SCNN/CSCNN's zero-run-length format
//!   (value + small run field per non-zero).
//! - [`BitmaskVector`] — SparTen's format: one presence bit per *dense*
//!   position plus packed non-zero values.
//! - [`CscVector`] — EIE's compressed-sparse-column style: packed non-zero
//!   values plus a 4-bit relative index per non-zero (with zero-padding
//!   entries when a gap exceeds the field, exactly like EIE).
//!
//! [`storage_bits_comparison`] computes the storage of all three at a given
//! density, exposing the crossover SparTen's paper argues about: bitmasks
//! win at moderate density (1 bit/position beats 4+ bits/non-zero), run
//! encodings win when very sparse.

use crate::cast::{to_bits, to_run};
use crate::RleVector;

/// SparTen-style bitmask encoding: a dense presence bitmap plus the packed
/// non-zero values.
#[derive(Clone, Debug, PartialEq)]
pub struct BitmaskVector {
    mask: Vec<bool>,
    values: Vec<f32>,
}

impl BitmaskVector {
    /// Encodes a dense slice.
    pub fn encode(dense: &[f32]) -> Self {
        let mask: Vec<bool> = dense.iter().map(|&v| v != 0.0).collect();
        let values = dense.iter().copied().filter(|&v| v != 0.0).collect();
        BitmaskVector { mask, values }
    }

    /// Number of non-zero values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Logical (dense) length.
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    /// `true` if the logical vector is empty.
    pub fn is_empty(&self) -> bool {
        self.mask.is_empty()
    }

    /// Storage in bits: one mask bit per dense position + packed values.
    pub fn storage_bits(&self, value_bits: usize) -> u64 {
        to_bits(self.mask.len()) + to_bits(self.values.len() * value_bits)
    }

    /// Reconstructs the dense vector.
    pub fn decode(&self) -> Vec<f32> {
        let mut vi = 0;
        self.mask
            .iter()
            .map(|&m| {
                if m {
                    let v = self.values[vi];
                    vi += 1;
                    v
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// EIE-style compressed storage: packed non-zero values with a bounded
/// relative index per entry; gaps larger than the field insert explicit
/// zero padding entries (as in the EIE paper).
#[derive(Clone, Debug, PartialEq)]
pub struct CscVector {
    /// `(relative_gap, value)`; `value == 0.0` marks a padding entry.
    entries: Vec<(u8, f32)>,
    len: usize,
    index_bits: u32,
}

impl CscVector {
    /// Encodes a dense slice with `index_bits`-wide relative indices
    /// (EIE used 4).
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or > 8.
    pub fn encode(dense: &[f32], index_bits: u32) -> Self {
        assert!((1..=8).contains(&index_bits), "index field of 1-8 bits");
        let max_gap = (1u32 << index_bits) - 1;
        let mut entries = Vec::new();
        let mut gap = 0u32;
        for &v in dense {
            if v == 0.0 {
                gap += 1;
                if gap > max_gap {
                    entries.push((to_run(max_gap), 0.0));
                    gap = 0;
                }
                continue;
            }
            entries.push((to_run(gap), v));
            gap = 0;
        }
        CscVector {
            entries,
            len: dense.len(),
            index_bits,
        }
    }

    /// Genuine non-zeros (padding excluded).
    pub fn nnz(&self) -> usize {
        self.entries.iter().filter(|(_, v)| *v != 0.0).count()
    }

    /// Stored entries including padding.
    pub fn stored_entries(&self) -> usize {
        self.entries.len()
    }

    /// Logical length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the logical vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Storage in bits.
    pub fn storage_bits(&self, value_bits: usize) -> u64 {
        to_bits(self.entries.len() * (value_bits + crate::cast::to_index(self.index_bits)))
    }

    /// Reconstructs the dense vector.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        let mut pos = 0usize;
        for &(gap, v) in &self.entries {
            pos += usize::from(gap);
            if v != 0.0 {
                out[pos] = v;
            }
            pos += 1;
        }
        out
    }
}

/// Storage (bits) of the three formats for the same dense data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FormatComparison {
    /// SCNN/CSCNN zero-run-length.
    pub rle_bits: u64,
    /// SparTen bitmask.
    pub bitmask_bits: u64,
    /// EIE CSC.
    pub csc_bits: u64,
    /// Uncompressed.
    pub dense_bits: u64,
}

/// Encodes `dense` in all three formats at 16-bit values / 4-bit indices.
pub fn storage_bits_comparison(dense: &[f32]) -> FormatComparison {
    let rle = RleVector::encode(dense, 15);
    let bm = BitmaskVector::encode(dense);
    let csc = CscVector::encode(dense, 4);
    FormatComparison {
        rle_bits: to_bits(rle.storage_bits(16)),
        bitmask_bits: bm.storage_bits(16),
        csc_bits: csc.storage_bits(16),
        dense_bits: to_bits(dense.len() * 16),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample;

    #[test]
    fn bitmask_round_trips() {
        let dense = vec![0.0, 1.5, 0.0, 0.0, -2.0, 3.0];
        let bm = BitmaskVector::encode(&dense);
        assert_eq!(bm.decode(), dense);
        assert_eq!(bm.nnz(), 3);
        // 6 mask bits + 3×16 value bits.
        assert_eq!(bm.storage_bits(16), 6 + 48);
    }

    #[test]
    fn csc_round_trips_with_padding() {
        let mut dense = vec![0.0f32; 40];
        dense[0] = 1.0;
        dense[39] = 2.0; // gap of 38 > 15 → padding entries
        let csc = CscVector::encode(&dense, 4);
        assert_eq!(csc.decode(), dense);
        assert_eq!(csc.nnz(), 2);
        assert!(csc.stored_entries() > 2, "padding inserted");
    }

    #[test]
    fn format_crossover_matches_the_literature() {
        // Moderately sparse (50 %): bitmask wins (1 bit/position beats
        // 4 bits/nnz when nnz is half of positions… plus equal value bits).
        let mut rng = sample::rng(5);
        let moderate = sample::bernoulli_slice(&mut rng, 32, 32, 0.5).to_dense();
        let m = storage_bits_comparison(&moderate);
        assert!(m.bitmask_bits < m.rle_bits, "bitmask wins at 50%: {m:?}");
        assert!(m.bitmask_bits < m.dense_bits);
        // Sparse (12 %): per-non-zero encodings win — this is the regime
        // pruned conv layers live in. (At *extreme* sparsity the 4-bit run
        // field overflows into padding entries and the bitmask catches up
        // again; a wider run field moves that boundary.)
        let sparse = sample::bernoulli_slice(&mut rng, 32, 32, 0.12).to_dense();
        let s = storage_bits_comparison(&sparse);
        assert!(s.rle_bits < s.bitmask_bits, "rle wins at 12%: {s:?}");
        assert!(s.csc_bits < s.bitmask_bits);
    }

    #[test]
    fn all_formats_agree_on_random_data() {
        let mut rng = sample::rng(6);
        for density in [0.1, 0.4, 0.9] {
            let dense = sample::bernoulli_slice(&mut rng, 16, 16, density).to_dense();
            assert_eq!(BitmaskVector::encode(&dense).decode(), dense);
            assert_eq!(CscVector::encode(&dense, 4).decode(), dense);
            assert_eq!(RleVector::encode(&dense, 15).decode(), dense);
        }
    }
}
