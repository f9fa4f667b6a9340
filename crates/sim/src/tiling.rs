//! Spatial tiling strategies (paper §III-C).
//!
//! Three ways to spread a layer across the PE array:
//!
//! - [`TilingStrategy::Planar`] — SCNN's scheme: every PE holds *all*
//!   filters and a `T_w × T_h` tile of the activation plane.
//! - [`TilingStrategy::OutputChannel`] — every PE holds the whole plane and
//!   `K / #PE` filters.
//! - [`TilingStrategy::Mixed`] — CSCNN's scheme: output channels are split
//!   across PE *sub-arrays* (density-sorted for balance), and each
//!   sub-array planar-tiles the plane across its PEs.

use crate::workload::LayerWorkload;
use crate::ArchConfig;

/// How a layer's work is spread across the PE array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TilingStrategy {
    /// Planar tiling only (SCNN).
    Planar,
    /// Output-channel tiling only.
    OutputChannel,
    /// Mixed: global output-channel tiling across sub-arrays + local planar
    /// tiling inside each (CSCNN).
    Mixed,
}

/// Work assigned to one PE for one layer.
#[derive(Clone, Debug, PartialEq)]
pub struct PeAssignment {
    /// Filters (output channels) this PE computes.
    pub k_set: Vec<usize>,
    /// Identifier of the activation tile it holds (PEs sharing a tile id
    /// see the same activations).
    pub tile_id: usize,
    /// Input pixels in its tile.
    pub tile_pixels: usize,
    /// Output pixels it produces per filter.
    pub out_pixels: usize,
    /// Incomplete partial-sum pixels per filter in the tile's halo region,
    /// exchanged with neighbour PEs through the PPU (§III-A); zero for
    /// whole-plane assignments.
    pub halo_out_pixels: usize,
}

/// Splits `total` into `parts` nearly equal positive chunks.
fn split(total: usize, parts: usize) -> Vec<usize> {
    let base = total / parts;
    let rem = total % parts;
    (0..parts).map(|i| base + usize::from(i < rem)).collect()
}

/// Greedy longest-processing-time balancing: assigns items (by weight,
/// descending) to the currently lightest group. This is both SparTen's
/// "greedy balancing" and CSCNN's offline density-sorted filter assignment.
pub fn balance_groups(weights: &[u64], groups: usize) -> Vec<Vec<usize>> {
    assert!(groups > 0, "need at least one group");
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut result: Vec<Vec<usize>> = vec![Vec::new(); groups];
    let mut loads = vec![0u64; groups];
    for i in order {
        let g = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .map(|(g, _)| g)
            .expect("at least one group");
        result[g].push(i);
        loads[g] += weights[i];
    }
    result
}

/// Round-robin (unbalanced) grouping — what rigid tiling does without the
/// density sort; used for the Fig. 11 ablations.
pub fn naive_groups(n: usize, groups: usize) -> Vec<Vec<usize>> {
    let mut result: Vec<Vec<usize>> = vec![Vec::new(); groups];
    for i in 0..n {
        result[i % groups].push(i);
    }
    result
}

/// Plans per-PE assignments for a layer.
///
/// `balanced` selects density-sorted filter grouping (on for CSCNN and for
/// baselines when the SparTen greedy-balancing courtesy is applied, §IV).
pub fn plan(
    cfg: &ArchConfig,
    workload: &LayerWorkload,
    strategy: TilingStrategy,
    balanced: bool,
) -> Vec<PeAssignment> {
    let n_pes = cfg.num_pes();
    let geom = &workload.layer.geom;
    let (oh, ow) = geom.output_dim();
    let all_k: Vec<usize> = (0..geom.k).collect();
    let filter_weights = workload.filter_nnz_all();
    let group_k = |groups: usize| -> Vec<Vec<usize>> {
        if balanced {
            balance_groups(filter_weights, groups)
        } else {
            naive_groups(geom.k, groups)
        }
    };
    // Splitting the plane gives each PE an *input* tile inflated by the
    // kernel halo (`T_w+S-1 × T_h+R-1`, \[66\]): every activation in the halo
    // participates in that PE's products. This inflation is the structural
    // cost of planar tiling, and dominates when tiles shrink (deep layers /
    // many PEs) — the Fig. 11 effect.
    let halo_h = geom.r.saturating_sub(1);
    let halo_w = geom.s.saturating_sub(1);
    match strategy {
        TilingStrategy::Planar => {
            // Grid-split the input plane across all PEs; all K everywhere.
            let rows = split(geom.h, cfg.pe_rows);
            let cols = split(geom.w, cfg.pe_cols);
            let orows = split(oh, cfg.pe_rows);
            let ocols = split(ow, cfg.pe_cols);
            let mut out = Vec::with_capacity(n_pes);
            for (ri, &rh) in rows.iter().enumerate() {
                for (ci, &cw) in cols.iter().enumerate() {
                    let th = (rh + halo_h).min(geom.h);
                    let tw = (cw + halo_w).min(geom.w);
                    let core = orows[ri] * ocols[ci];
                    out.push(PeAssignment {
                        k_set: all_k.clone(),
                        tile_id: ri * cfg.pe_cols + ci,
                        tile_pixels: th * tw,
                        out_pixels: core,
                        halo_out_pixels: (orows[ri] + halo_h) * (ocols[ci] + halo_w) - core,
                    });
                }
            }
            out
        }
        TilingStrategy::OutputChannel => {
            let groups = group_k(n_pes);
            groups
                .into_iter()
                .map(|k_set| PeAssignment {
                    k_set,
                    tile_id: 0,
                    tile_pixels: geom.h * geom.w,
                    out_pixels: oh * ow,
                    halo_out_pixels: 0,
                })
                .collect()
        }
        TilingStrategy::Mixed => {
            let subarrays = cfg.mixed_subarrays.clamp(1, n_pes);
            let pes_per_sub = n_pes / subarrays;
            let k_groups = group_k(subarrays);
            // Adaptive per-layer tile sizing (§III-C: "the tile size may
            // change layer to layer"): inside each sub-array, choose
            // between planar-splitting the plane (costs the kernel halo)
            // and channel-splitting the filters (costs residual imbalance
            // and weight-vector fragmentation), whichever is estimated
            // cheaper for this layer's shape.
            let rows_per_pe = (geom.h / pes_per_sub).max(1);
            let halo_cost = (rows_per_pe + halo_h) as f64 / rows_per_pe as f64;
            let k_split_cost = {
                // Imbalance of splitting a sub-array's filter share across
                // its PEs, approximated from the whole-layer filter weights.
                let per_sub = geom.k.div_ceil(subarrays);
                let per_pe = (per_sub as f64 / pes_per_sub as f64).max(1e-9);
                per_pe.ceil() / per_pe
            };
            let halo_ok = halo_cost <= k_split_cost && geom.h >= pes_per_sub;
            let mut out = Vec::with_capacity(n_pes);
            if halo_ok && pes_per_sub > 1 {
                let rows = split(geom.h, pes_per_sub);
                let orows = split(oh, pes_per_sub);
                for (sa, k_set) in k_groups.into_iter().enumerate() {
                    for (pi, &rh) in rows.iter().enumerate() {
                        let th = (rh + halo_h).min(geom.h);
                        out.push(PeAssignment {
                            k_set: k_set.clone(),
                            tile_id: sa * pes_per_sub + pi,
                            tile_pixels: th * geom.w,
                            out_pixels: orows[pi] * ow,
                            halo_out_pixels: halo_h * ow,
                        });
                    }
                }
            } else {
                // Channel-split within each sub-array: every PE sees the
                // whole plane and a quarter of the filters.
                for (sa, k_set) in k_groups.into_iter().enumerate() {
                    let sub_weights: Vec<u64> = k_set.iter().map(|&k| filter_weights[k]).collect();
                    let inner = if balanced {
                        balance_groups(&sub_weights, pes_per_sub)
                    } else {
                        naive_groups(k_set.len(), pes_per_sub)
                    };
                    for idx_group in inner {
                        out.push(PeAssignment {
                            k_set: idx_group.iter().map(|&i| k_set[i]).collect(),
                            tile_id: sa * pes_per_sub, // whole plane, shared per sub-array
                            tile_pixels: geom.h * geom.w,
                            out_pixels: oh * ow,
                            halo_out_pixels: 0,
                        });
                    }
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscnn_models::LayerDesc;

    fn workload() -> LayerWorkload {
        let layer = LayerDesc::conv("t", 16, 32, 3, 3, 28, 28, 1, 1);
        LayerWorkload::synthesize(&layer, 0.5, 0.5, false, 9)
    }

    #[test]
    fn split_distributes_remainder() {
        assert_eq!(split(10, 3), vec![4, 3, 3]);
        assert_eq!(split(8, 4), vec![2, 2, 2, 2]);
    }

    #[test]
    fn planar_covers_plane_with_all_filters() {
        let cfg = ArchConfig::paper();
        let w = workload();
        let plan = plan(&cfg, &w, TilingStrategy::Planar, false);
        assert_eq!(plan.len(), 4);
        // Each input tile is 14x14 plus the 2-pixel kernel halo → 16x16.
        assert!(plan.iter().all(|p| p.tile_pixels == 16 * 16));
        assert!(plan.iter().all(|p| p.k_set.len() == 32));
        // Output pixels are halo-free and cover the plane exactly.
        let out: usize = plan.iter().map(|p| p.out_pixels).sum();
        assert_eq!(out, 28 * 28);
    }

    #[test]
    fn output_channel_partitions_filters() {
        let cfg = ArchConfig::paper();
        let w = workload();
        let plan = plan(&cfg, &w, TilingStrategy::OutputChannel, true);
        let mut all: Vec<usize> = plan.iter().flat_map(|p| p.k_set.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..32).collect::<Vec<_>>());
        assert!(plan.iter().all(|p| p.tile_pixels == 28 * 28));
    }

    #[test]
    fn mixed_adapts_inner_split_to_layer_shape() {
        let cfg = ArchConfig::paper();
        // Plenty of filters (32) and a halo-heavy 3x3 on a 28x28 plane:
        // the cost model picks channel-splitting inside sub-arrays (the
        // k-split is perfectly balanced, the halo costs 16/14).
        let w = workload();
        let plan_k = plan(&cfg, &w, TilingStrategy::Mixed, true);
        assert_eq!(plan_k.len(), 4);
        let total_k: usize = plan_k.iter().map(|p| p.k_set.len()).sum();
        assert_eq!(total_k, 32, "each filter on exactly one PE");
        assert!(plan_k.iter().all(|p| p.tile_pixels == 28 * 28));

        // Few filters (2) force planar-splitting inside sub-arrays: the
        // k-split would leave PEs idle (cost 2.0 > halo cost).
        let starved = LayerDesc::conv("s", 16, 2, 3, 3, 28, 28, 1, 1);
        let ws = LayerWorkload::synthesize(&starved, 0.5, 0.5, false, 10);
        let plan_p = plan(&cfg, &ws, TilingStrategy::Mixed, true);
        assert!(plan_p.iter().all(|p| p.tile_pixels == 16 * 28));
        let total_k: usize = plan_p.iter().map(|p| p.k_set.len()).sum();
        assert_eq!(
            total_k,
            2 * 2,
            "each filter replicated per sub-array PE pair"
        );
    }

    #[test]
    fn balance_groups_beats_naive_on_skewed_weights() {
        let weights: Vec<u64> = vec![100, 1, 1, 1, 90, 1, 1, 1];
        let balanced = balance_groups(&weights, 2);
        let naive = naive_groups(8, 2);
        let load = |groups: &[Vec<usize>]| -> u64 {
            groups
                .iter()
                .map(|g| g.iter().map(|&i| weights[i]).sum::<u64>())
                .max()
                .expect("nonempty")
        };
        assert!(load(&balanced) < load(&naive));
        // LPT: 100 alone in one group, 90 plus the six 1s in the other.
        assert_eq!(load(&balanced), 100);
        assert_eq!(load(&naive), 192);
    }
}
