//! Failure-injection and degenerate-input coverage: extremes of density,
//! shape, and configuration that a robust simulator and training stack must
//! either handle gracefully or reject loudly.

use cscnn::models::LayerDesc;
use cscnn::nn::pruning::magnitude_threshold;
use cscnn::sim::dram::DramConfig;
use cscnn::sim::energy::EnergyTable;
use cscnn::sim::workload::LayerWorkload;
use cscnn::sim::{baselines, Accelerator, CartesianAccelerator, LayerContext};

fn simulate(acc: &dyn Accelerator, layer: &LayerDesc, wd: f64, ad: f64) -> cscnn::sim::LayerStats {
    let wl = LayerWorkload::synthesize(layer, wd, ad, acc.scheme().uses_centrosymmetric(), 1);
    let cfg = acc.config();
    let dram = DramConfig::default();
    let energy = EnergyTable::default();
    let ctx = LayerContext {
        cfg: &cfg,
        dram: &dram,
        energy: &energy,
        workload: &wl,
        input_on_chip: false,
        output_fits_on_chip: false,
    };
    acc.simulate_layer(&ctx)
}

#[test]
fn fully_pruned_layer_costs_only_overheads() {
    // Weight density 0: a sparse accelerator should do (almost) nothing.
    let layer = LayerDesc::conv("z", 16, 16, 3, 3, 14, 14, 1, 1);
    let stats = simulate(&CartesianAccelerator::cscnn(), &layer, 0.0, 0.5);
    assert_eq!(stats.effective_mults, 0);
    // Drain/output handling still costs some cycles but no products.
    assert!(stats.compute_cycles < 10_000);
}

#[test]
fn dead_activations_cost_only_overheads() {
    let layer = LayerDesc::conv("d", 16, 16, 3, 3, 14, 14, 1, 1);
    let stats = simulate(&CartesianAccelerator::scnn(), &layer, 0.5, 0.0);
    assert_eq!(stats.effective_mults, 0);
}

#[test]
fn fully_dense_extremes_are_finite_and_consistent() {
    let layer = LayerDesc::conv("f", 8, 8, 3, 3, 16, 16, 1, 1);
    for acc in baselines::evaluation_accelerators() {
        let stats = simulate(acc.as_ref(), &layer, 1.0, 1.0);
        assert!(stats.compute_cycles > 0, "{}", acc.name());
        assert!(stats.time_s.is_finite() && stats.time_s > 0.0);
        assert!(stats.energy.on_chip_pj().is_finite());
    }
}

#[test]
fn single_pixel_and_single_channel_layers_simulate() {
    // Degenerate geometries: 1x1 spatial, K=1, C=1.
    let cases = [
        LayerDesc::conv("px", 64, 64, 1, 1, 1, 1, 1, 0),
        LayerDesc::conv("k1", 16, 1, 3, 3, 8, 8, 1, 1),
        LayerDesc::conv("c1", 1, 16, 3, 3, 8, 8, 1, 1),
    ];
    for layer in cases {
        let stats = simulate(&CartesianAccelerator::cscnn(), &layer, 0.5, 0.5);
        assert!(stats.compute_cycles > 0, "{}", layer.name);
        assert!(stats.time_s.is_finite());
    }
}

#[test]
fn plane_smaller_than_pe_grid_still_covers_all_work() {
    // A 3-row plane split across a 2x2 array leaves some PEs starved but
    // the work must be conserved and the simulation finite.
    let layer = LayerDesc::conv("tiny", 8, 8, 3, 3, 3, 3, 1, 1);
    for acc in [CartesianAccelerator::scnn(), CartesianAccelerator::cscnn()] {
        let stats = simulate(&acc, &layer, 1.0, 1.0);
        assert!(stats.effective_mults > 0, "{}", acc.name());
        assert!(stats.compute_cycles > 0);
    }
}

#[test]
fn tiny_global_buffer_forces_restreaming_not_divergence() {
    // A pathological 1 KB GLB: traffic explodes but stays finite and the
    // simulation completes.
    let layer = LayerDesc::conv("big", 64, 64, 3, 3, 56, 56, 1, 1);
    let wl = LayerWorkload::synthesize(&layer, 0.5, 0.8, false, 2);
    let acc = CartesianAccelerator::scnn();
    let mut cfg = acc.config();
    cfg.glb_bytes = 1024;
    cfg.wb_bytes = 256;
    let dram = DramConfig::default();
    let energy = EnergyTable::default();
    let ctx = LayerContext {
        cfg: &cfg,
        dram: &dram,
        energy: &energy,
        workload: &wl,
        input_on_chip: false,
        output_fits_on_chip: false,
    };
    let stats = acc.simulate_layer(&ctx);
    assert!(stats.dram_time_s.is_finite() && stats.dram_time_s > 0.0);
    assert!(stats.counters.dram_bits > wl.weight_storage_bytes(16, 4) * 8);
}

#[test]
#[should_panic(expected = "NaN weight")]
fn pruning_rejects_nan_weights() {
    let _ = magnitude_threshold(&[1.0, f32::NAN, 2.0], 0.5);
}

#[test]
#[should_panic(expected = "weight density in [0,1]")]
fn workload_rejects_out_of_range_density() {
    let layer = LayerDesc::conv("bad", 1, 1, 3, 3, 8, 8, 1, 1);
    let _ = LayerWorkload::synthesize(&layer, 1.5, 0.5, false, 0);
}

#[test]
#[should_panic(expected = "padded input smaller than kernel")]
fn layer_desc_rejects_impossible_geometry() {
    let l = LayerDesc::conv("imp", 1, 1, 7, 7, 3, 3, 1, 0);
    let _ = l.geom.output_dim();
}

#[test]
fn huffman_of_uniform_stream_costs_log2_bits() {
    use cscnn::nn::codebook::huffman_bits;
    // 4 equally likely symbols → exactly 2 bits each.
    let symbols: Vec<usize> = (0..1000).map(|i| i % 4).collect();
    assert_eq!(huffman_bits(&symbols), 2000);
}

#[test]
fn centro_projection_of_all_zero_slice_is_zero() {
    use cscnn::sparse::centro;
    let zeros = vec![0.0f32; 25];
    let p = centro::project_mean(&zeros, 5, 5);
    assert!(p.iter().all(|&x| x == 0.0));
    assert!(centro::is_centrosymmetric(&p, 5, 5, 0.0));
}
