//! Layer-level cross-validation of the fast analytic model against the
//! cycle-by-cycle detailed PE model.
//!
//! [`simulate_layer_detailed`] runs an entire (small, unit-stride) layer
//! through [`crate::pe_detailed`]: it materializes coordinate fibers whose
//! non-zero counts match the fast path's [`LayerWorkload`] exactly, plans
//! the same output-channel tiling, simulates every PE cycle by cycle, and
//! takes the same inter-PE barrier. Tests then assert that the fast model's
//! cycles and work counts track the detailed model — the grounding for the
//! calibrated constants the fast model uses.

use cscnn_rng::rngs::StdRng;
use cscnn_rng::seq::SliceRandom;
use cscnn_rng::SeedableRng;
use cscnn_sparse::centro::unique_positions;

use crate::energy::EnergyCounters;
use crate::error::SimError;
use crate::pe_detailed::{simulate_detailed, ChannelFibers, PeGeometry, WeightEntry};
use crate::tiling::{self, TilingStrategy};
use crate::util::{to_coord, to_index, to_lane};
use crate::workload::LayerWorkload;
use crate::ArchConfig;

/// Result of a detailed whole-layer simulation.
#[derive(Clone, Debug)]
pub struct DetailedLayerResult {
    /// Layer compute cycles (barrier: max over PEs).
    pub compute_cycles: u64,
    /// Aggregated event counts.
    pub counters: EnergyCounters,
}

/// Simulates a unit-stride conv layer cycle by cycle across all PEs, with
/// fibers drawn to match `workload`'s non-zero counts exactly.
///
/// Uses output-channel tiling (every PE sees the whole plane), which gives
/// the detailed and fast paths identical tile geometry to compare on.
///
/// # Panics
///
/// Panics for FC layers, strided or grouped layers (the validation scope is
/// unit-stride dense convolution).
///
/// # Errors
///
/// Propagates [`SimError::FiberOutOfRange`] from the detailed PE model if a
/// materialized fiber falls outside the layer geometry.
pub fn simulate_layer_detailed(
    cfg: &ArchConfig,
    workload: &LayerWorkload,
    dual: bool,
    seed: u64,
) -> Result<DetailedLayerResult, SimError> {
    let layer = &workload.layer;
    let geom = &layer.geom;
    assert_eq!(geom.stride, 1, "validation covers unit-stride layers");
    assert_eq!(geom.groups, 1, "validation covers ungrouped layers");
    assert_ne!(
        layer.kind,
        cscnn_models::LayerKind::FullyConnected,
        "validation covers conv layers"
    );
    let dual_here = dual && workload.centro;
    let plan = tiling::plan(cfg, workload, TilingStrategy::OutputChannel, true);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xde7a11);
    // Candidate weight positions: the canonical half when storing
    // centrosymmetric-compressed, all positions otherwise.
    let positions: Vec<(usize, usize)> = if dual_here {
        unique_positions(geom.r, geom.s)
    } else {
        (0..geom.r)
            .flat_map(|r| (0..geom.s).map(move |s| (r, s)))
            .collect()
    };
    let mut max_cycles = 0u64;
    let mut counters = EnergyCounters::default();
    for assign in &plan {
        let geo = PeGeometry {
            px: cfg.mult_px,
            py: cfg.mult_py,
            kernel_h: geom.r,
            kernel_w: geom.s,
            tile_h: geom.h,
            tile_w: geom.w,
            k_count: assign.k_set.len(),
            dual: dual_here,
        };
        let mut channels = Vec::with_capacity(geom.c);
        for c in 0..geom.c {
            // Weights: for each assigned filter, draw exactly the
            // workload's nnz positions for this (k, c) slice.
            let mut weights = Vec::new();
            for (local_k, &k) in assign.k_set.iter().enumerate() {
                let nnz = to_index(workload.weight_nnz(k, c));
                let mut pos = positions.clone();
                pos.shuffle(&mut rng);
                for &(r, s) in pos.iter().take(nnz) {
                    weights.push(WeightEntry {
                        k: to_lane(local_k),
                        r: to_coord(r),
                        s: to_coord(s),
                        value: 1.0,
                    });
                }
            }
            // The fast path streams weights in fiber order; sort to match.
            weights.sort_by_key(|w| (w.k, w.r, w.s));
            // Activations: exactly the workload's tile nnz.
            let a_nnz = to_index(workload.act_tile_nnz(c, assign.tile_id, assign.tile_pixels));
            let mut act_pos: Vec<(u16, u16)> = (0..geom.h)
                .flat_map(|y| (0..geom.w).map(move |x| (to_lane(y), to_lane(x))))
                .collect();
            act_pos.shuffle(&mut rng);
            let acts = act_pos
                .into_iter()
                .take(a_nnz)
                .map(|(y, x)| (y, x, 1.0))
                .collect();
            channels.push(ChannelFibers { weights, acts });
        }
        let result = simulate_detailed(&geo, &channels)?;
        max_cycles = max_cycles.max(result.cycles);
        counters.merge(&result.counters);
    }
    Ok(DetailedLayerResult {
        compute_cycles: max_cycles,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;
    use crate::energy::EnergyTable;
    use crate::interface::{Accelerator, LayerContext};
    use crate::CartesianAccelerator;
    use cscnn_models::LayerDesc;

    fn fast_cycles_and_mults(acc: &CartesianAccelerator, wl: &LayerWorkload) -> (u64, u64) {
        let cfg = acc.config();
        let dram = DramConfig::default();
        let energy = EnergyTable::default();
        let ctx = LayerContext {
            cfg: &cfg,
            dram: &dram,
            energy: &energy,
            workload: wl,
            input_on_chip: true,
            output_fits_on_chip: true,
        };
        let stats = acc.simulate_layer(&ctx);
        (stats.compute_cycles, stats.effective_mults)
    }

    #[test]
    fn fast_layer_model_tracks_detailed_scnn() {
        let layer = LayerDesc::conv("v", 6, 8, 3, 3, 12, 12, 1, 1);
        let wl = LayerWorkload::synthesize(&layer, 0.5, 0.5, false, 21);
        let acc = CartesianAccelerator::scnn().with_tiling(TilingStrategy::OutputChannel);
        let (fast_cycles, fast_mults) = fast_cycles_and_mults(&acc, &wl);
        let detailed =
            simulate_layer_detailed(&acc.config(), &wl, false, 21).expect("fibers in range");
        assert_eq!(
            fast_mults, detailed.counters.mults,
            "work counts must agree exactly"
        );
        let ratio = fast_cycles as f64 / detailed.compute_cycles as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "fast {fast_cycles} vs detailed {} (ratio {ratio:.3})",
            detailed.compute_cycles
        );
    }

    #[test]
    fn fast_layer_model_tracks_detailed_cscnn() {
        let layer = LayerDesc::conv("v", 6, 8, 3, 3, 12, 12, 1, 1);
        let wl = LayerWorkload::synthesize(&layer, 0.6, 0.5, true, 22);
        assert!(wl.centro);
        let acc = CartesianAccelerator::cscnn().with_tiling(TilingStrategy::OutputChannel);
        let (fast_cycles, fast_mults) = fast_cycles_and_mults(&acc, &wl);
        let detailed =
            simulate_layer_detailed(&acc.config(), &wl, true, 22).expect("fibers in range");
        assert_eq!(fast_mults, detailed.counters.mults);
        // Dual accumulations agree within the self-dual estimate (the fast
        // model uses an expected fraction; the detailed model counts the
        // actual center weights drawn).
        let fast_ratio = fast_cycles as f64 / detailed.compute_cycles as f64;
        assert!(
            (0.8..=1.25).contains(&fast_ratio),
            "fast {fast_cycles} vs detailed {} (ratio {fast_ratio:.3})",
            detailed.compute_cycles
        );
        let add_ratio = detailed.counters.adds as f64 / detailed.counters.mults as f64;
        assert!(
            (1.5..=2.0).contains(&add_ratio),
            "dual accumulation ratio {add_ratio:.3}"
        );
    }
}
