//! Weight-storage comparison: Deep Compression's full stack (prune →
//! cluster → Huffman) vs centrosymmetric half-storage, on a trained proxy
//! network — quantifying the paper's "compressed by about 2× … does not
//! impose indexing overhead" storage claim next to the heavier-machinery
//! alternative.
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin storage
//! ```

use cscnn::nn::centrosymmetric;
use cscnn::nn::codebook;
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::models;
use cscnn::nn::pruning;
use cscnn::nn::trainer::{TrainConfig, Trainer};
use cscnn::sparse::centro;
use cscnn::tensor::run_jobs;
use cscnn_bench::table::Table;

/// One table row: representation, bits, decode machinery.
type Row = (&'static str, u64, &'static str);

fn main() {
    println!("== weight storage: Deep Compression stack vs centrosymmetric ==\n");
    let data = SyntheticImages::generate(3, 16, 16, 4, 80, 0.12, 77);
    let (train, test) = data.split(0.2);
    let config = TrainConfig {
        epochs: 6,
        batch_size: 32,
        lr: 0.05,
        ..Default::default()
    };
    // The two branches train independent networks: run them as jobs.
    let rows = run_jobs(2, |branch| {
        let trainer = Trainer::new(config);
        if branch == 0 {
            deep_compression(&trainer, &train, &test)
        } else {
            centrosymmetric_storage(&trainer, &train, &test)
        }
    })
    .concat();

    let dense_bits = rows[0].1;
    let mut t = Table::new(&["representation", "bits", "vs dense", "machinery"]);
    for (name, bits, machinery) in rows {
        t.row(vec![
            name.to_string(),
            bits.to_string(),
            format!("{:.2}x", dense_bits as f64 / bits as f64),
            machinery.to_string(),
        ]);
    }
    t.print();

    println!("\nreading: the centrosymmetric halving is free of decode machinery and");
    println!("composes with pruning; Deep Compression compresses further but needs a");
    println!("codebook lookup and a Huffman decoder in the critical path.");
}

/// Branch A: Deep Compression (prune + cluster + Huffman).
fn deep_compression(
    trainer: &Trainer,
    train: &SyntheticImages,
    test: &SyntheticImages,
) -> Vec<Row> {
    let mut dc_net = models::convnet_s(4, 77);
    let _ = trainer.fit(&mut dc_net, train, test);
    for conv in dc_net.conv_layers_mut() {
        pruning::prune_conv(conv, 0.35);
    }
    let _ = trainer.fit(&mut dc_net, train, test);
    let mut dense_bits = 0u64;
    let mut rle_bits = 0u64;
    let mut clustered_bits = 0u64;
    let mut huffman_bits = 0u64;
    for conv in dc_net.conv_layers_mut() {
        let r = codebook::storage_report(&conv.weight().value, 8, 15);
        dense_bits += r.dense_bits;
        rle_bits += r.pruned_rle_bits;
        clustered_bits += r.clustered_bits;
        huffman_bits += r.huffman_total_bits;
    }
    vec![
        ("dense 16-bit", dense_bits, "-"),
        ("DC: prune + RLE", rle_bits, "indices"),
        (
            "DC: + 256-entry codebook",
            clustered_bits,
            "indices + codebook",
        ),
        (
            "DC: + Huffman",
            huffman_bits,
            "indices + codebook + decoder",
        ),
    ]
}

/// Branch B: CSCNN (+ pruning) half storage, no dual indices.
fn centrosymmetric_storage(
    trainer: &Trainer,
    train: &SyntheticImages,
    test: &SyntheticImages,
) -> Vec<Row> {
    let mut cs_net = models::convnet_s(4, 77);
    let _ = trainer.fit(&mut cs_net, train, test);
    centrosymmetric::centrosymmetrize(&mut cs_net).expect("finite weights");
    let _ = trainer.fit(&mut cs_net, train, test);
    let mut cs_unique_bits = 0u64;
    for conv in cs_net.conv_layers_mut() {
        let dims = conv.weight().value.shape().dims().to_vec();
        let (k, c, r, s) = (dims[0], dims[1], dims[2], dims[3]);
        let unique = centro::unique_weight_count(r, s) as u64;
        // Unpruned centrosymmetric: unique values, positional (no index).
        cs_unique_bits += (k * c) as u64 * unique * 16;
    }
    for conv in cs_net.conv_layers_mut() {
        pruning::prune_conv(conv, 0.5);
    }
    let _ = trainer.fit(&mut cs_net, train, test);
    let mut cs_pruned_bits = 0u64;
    for conv in cs_net.conv_layers_mut() {
        let dims = conv.weight().value.shape().dims().to_vec();
        let (k, c, r, s) = (dims[0], dims[1], dims[2], dims[3]);
        let wv = conv.weight().value.as_slice();
        let positions = centro::unique_positions(r, s);
        let mut nnz = 0u64;
        for slice_idx in 0..k * c {
            let base = slice_idx * r * s;
            nnz += positions
                .iter()
                .filter(|&&(u, v)| wv[base + u * s + v] != 0.0)
                .count() as u64;
        }
        // Pruned centrosymmetric: RLE over the unique half (16-bit value +
        // 4-bit run); duals need no index at all.
        cs_pruned_bits += nnz * 20;
    }
    vec![
        ("CSCNN (unique half)", cs_unique_bits, "none (positional)"),
        (
            "CSCNN + pruning (RLE)",
            cs_pruned_bits,
            "indices (half as many)",
        ),
    ]
}
