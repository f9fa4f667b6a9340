//! The Cartesian-product accelerator model, covering both SCNN (no
//! multiplication reuse, planar tiling) and CSCNN (dual accumulation, mixed
//! tiling) plus every tiling ablation of Fig. 11.

use cscnn_models::{CompressionScheme, LayerKind};

use crate::crossbar;
use crate::interface::{Accelerator, Characteristics, LayerContext, TrafficModel};
use crate::pe::{CartesianPe, PeResult};
use crate::report::LayerStats;
use crate::tiling::{self, TilingStrategy};
use crate::util::{count_from_f64, to_count};
use crate::workload::LayerWorkload;
use crate::ArchConfig;

/// A configurable Cartesian-product accelerator.
///
/// # Example
///
/// ```
/// use cscnn_sim::CartesianAccelerator;
/// use cscnn_sim::interface::Accelerator;
///
/// let cscnn = CartesianAccelerator::cscnn();
/// assert_eq!(cscnn.name(), "CSCNN");
/// let scnn = CartesianAccelerator::scnn();
/// assert_eq!(scnn.characteristics().sparsity, "A+W");
/// ```
#[derive(Clone, Debug)]
pub struct CartesianAccelerator {
    name: &'static str,
    scheme: CompressionScheme,
    tiling: TilingStrategy,
    dual: bool,
    balanced: bool,
    config: ArchConfig,
}

impl CartesianAccelerator {
    /// The paper's CSCNN accelerator: multiplication reuse, mixed tiling,
    /// density-sorted filter assignment, running the CSCNN+Pruning model.
    pub fn cscnn() -> Self {
        CartesianAccelerator {
            name: "CSCNN",
            scheme: CompressionScheme::CscnnPruning,
            tiling: TilingStrategy::Mixed,
            dual: true,
            balanced: true,
            config: ArchConfig::paper(),
        }
    }

    /// SCNN: planar tiling, no reuse, running the Deep-Compression model.
    /// (The SparTen greedy-balancing courtesy of §IV does not change planar
    /// tiling, which has no filter grouping.)
    pub fn scnn() -> Self {
        CartesianAccelerator {
            name: "SCNN",
            scheme: CompressionScheme::DeepCompression,
            tiling: TilingStrategy::Planar,
            dual: false,
            balanced: true,
            config: ArchConfig::paper_scnn(),
        }
    }

    /// Overrides the tiling strategy (Fig. 11 ablations).
    pub fn with_tiling(mut self, tiling: TilingStrategy) -> Self {
        self.tiling = tiling;
        self
    }

    /// Enables/disables density-sorted filter balancing.
    pub fn with_balancing(mut self, balanced: bool) -> Self {
        self.balanced = balanced;
        self
    }

    /// Renames the variant (for ablation reporting).
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Overrides the architecture configuration (design-space sweeps).
    pub fn with_config(mut self, config: ArchConfig) -> Self {
        self.config = config;
        self
    }

    /// The tiling strategy in use.
    pub fn tiling(&self) -> TilingStrategy {
        self.tiling
    }
}

impl CartesianAccelerator {
    /// The fast PE model for one layer: crossbar stalls and dual
    /// accumulation depend on whether this layer's weights are stored
    /// centrosymmetric.
    fn pe(&self, cfg: &ArchConfig, wl: &LayerWorkload) -> CartesianPe {
        let dual_here = self.dual && wl.centro;
        let buffers = if dual_here { 2 } else { 1 };
        let self_dual_frac = if dual_here && (wl.layer.geom.r * wl.layer.geom.s) % 2 == 1 {
            1.0 / wl.stored_per_slice as f64
        } else {
            0.0
        };
        CartesianPe {
            px: cfg.mult_px,
            py: cfg.mult_py,
            stall_factor: crossbar::stall_factor(cfg.mult_px, cfg.mult_py, buffers),
            dual: dual_here,
            self_dual_frac,
        }
    }

    /// Executes a conv-layer plan on the fast PE model.
    ///
    /// Each PE needs, per input channel, the stored-weight non-zeros of
    /// its filters in that channel. Filter `k` of conv group `g` meets
    /// channels `g·c_per_group ..` only, so one pass over the `k_set`'s
    /// slices fills the whole per-channel vector. Adjacent assignments
    /// often share a `k_set` (every PE under planar tiling, every PE of a
    /// sub-array under mixed tiling's planar inner split), so the vector
    /// is rebuilt only when the `k_set` changes: a layer costs
    /// O(K·C/groups + C·PEs), not O(PEs·K·C). Each assignment queries its
    /// tile's activation count for every channel with weights.
    fn run_conv_plan(
        &self,
        pe: &CartesianPe,
        wl: &LayerWorkload,
        plan: &[tiling::PeAssignment],
    ) -> Vec<PeResult> {
        let c_per_group = wl.c_per_group();
        let k_per_group = wl.layer.geom.k / wl.layer.geom.groups;
        let mut weights = vec![0u64; wl.layer.geom.c];
        let mut weights_of: Option<&[usize]> = None;
        let mut results = Vec::with_capacity(plan.len());
        for assign in plan {
            if weights_of != Some(assign.k_set.as_slice()) {
                weights.fill(0);
                for &k in &assign.k_set {
                    let base = (k / k_per_group) * c_per_group;
                    for (c_local, w) in weights[base..base + c_per_group].iter_mut().enumerate() {
                        *w += u64::from(wl.weight_nnz(k, c_local));
                    }
                }
                weights_of = Some(&assign.k_set);
            }
            let act = |c| u64::from(wl.act_tile_nnz(c, assign.tile_id, assign.tile_pixels));
            results.push(run_assignment(pe, wl, assign, &weights, act));
        }
        results
    }
}

/// Runs one PE assignment given its per-input-channel stored-weight
/// non-zeros and its tile's non-zero activations per channel (`act(c)`,
/// asked only for channels with weights), including the stride phase
/// decomposition and halo exchange.
fn run_assignment(
    pe: &CartesianPe,
    wl: &LayerWorkload,
    assign: &tiling::PeAssignment,
    weights: &[u64],
    act: impl Fn(usize) -> u64,
) -> PeResult {
    let layer = &wl.layer;
    // Strided convolutions break the Cartesian product's premise that
    // every weight meets every activation of a channel. The dataflow
    // decomposes them into stride² phase sub-convolutions (weights and
    // activations partitioned by coordinate parity); the ragged phase
    // sub-kernels (an 11x11 at stride 4 shatters into 2x2/3x3
    // fragments) leave roughly half the fetched operand pairs useless —
    // the "unnecessary computations" the paper blames for SCNN/CSCNN
    // falling behind DCNN on AlexNet C1 (Fig. 8).
    let phases = to_count(layer.geom.stride * layer.geom.stride);
    const STRIDE_WASTE: f64 = 2.0;
    let mut channels = Vec::with_capacity(layer.geom.c * layer.geom.stride * layer.geom.stride);
    for (c, &w) in weights.iter().enumerate() {
        if w == 0 {
            continue;
        }
        let a = act(c);
        if phases == 1 {
            channels.push((w, a));
        } else {
            let w_p = count_from_f64(((w as f64 * STRIDE_WASTE) / phases as f64).ceil());
            let a_p = a.div_ceil(phases);
            for _ in 0..phases {
                channels.push((w_p, a_p));
            }
        }
    }
    let outputs = to_count(assign.k_set.len() * assign.out_pixels);
    let mut result = pe.run_conv(&channels, outputs);
    // Halo value exchange with neighbour PEs (§III-A).
    let halo = to_count(assign.k_set.len() * assign.halo_out_pixels);
    let exchange = pe.halo_exchange(halo);
    result.cycles += exchange.cycles;
    result.counters.merge(&exchange.counters);
    result
}

impl Accelerator for CartesianAccelerator {
    fn name(&self) -> &'static str {
        self.name
    }

    fn scheme(&self) -> CompressionScheme {
        self.scheme
    }

    fn config(&self) -> ArchConfig {
        self.config.clone()
    }

    fn characteristics(&self) -> Characteristics {
        if self.dual {
            Characteristics {
                compression: "Centrosymmetric filters",
                sparsity: "A+W",
                dataflow: "Cartesian product",
            }
        } else {
            Characteristics {
                compression: "Deep compression",
                sparsity: "A+W",
                dataflow: "Cartesian product",
            }
        }
    }

    fn simulate_layer(&self, ctx: &LayerContext<'_>) -> LayerStats {
        let cfg = ctx.cfg;
        let wl = ctx.workload;
        let layer = &wl.layer;
        let pe = self.pe(cfg, wl);
        let mut results: Vec<PeResult> = Vec::new();
        if layer.kind == LayerKind::FullyConnected {
            // Distribute output neurons across PEs (density-balanced).
            let nnz = wl.filter_nnz_all();
            let groups = if self.balanced {
                tiling::balance_groups(nnz, cfg.num_pes())
            } else {
                tiling::naive_groups(layer.geom.k, cfg.num_pes())
            };
            for g in groups {
                let w: u64 = g.iter().map(|&k| nnz[k]).sum();
                results.push(pe.run_fc(w, wl.act_density, to_count(g.len())));
            }
        } else {
            let plan = tiling::plan(cfg, wl, self.tiling, self.balanced);
            results = self.run_conv_plan(&pe, wl, &plan);
        }
        // Inter-PE barrier: the layer completes when the slowest PE does.
        let compute_cycles = results.iter().map(|r| r.cycles).max().unwrap_or(0);
        let mut counters = crate::energy::EnergyCounters::default();
        for r in &results {
            counters.merge(&r.counters);
        }
        let traffic = TrafficModel {
            compressed_acts: true,
            compressed_weights: true,
            act_amplification: 1.0,
        };
        counters.dram_bits = traffic.dram_bits(ctx);
        let dram_time_s = ctx.dram.transfer_time_s(counters.dram_bits / 8);
        let compute_time_s = compute_cycles as f64 * cfg.cycle_time();
        let energy = crate::energy::energy_of(&counters, cfg, ctx.energy);
        LayerStats {
            name: layer.name.clone(),
            compute_cycles,
            dram_time_s,
            time_s: compute_time_s.max(dram_time_s),
            effective_mults: counters.mults,
            counters,
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;
    use crate::energy::EnergyTable;
    use cscnn_models::LayerDesc;
    use cscnn_rng::rngs::StdRng;
    use cscnn_rng::{Rng, SeedableRng};

    fn context<'a>(
        cfg: &'a ArchConfig,
        dram: &'a DramConfig,
        energy: &'a EnergyTable,
        wl: &'a LayerWorkload,
    ) -> LayerContext<'a> {
        LayerContext {
            cfg,
            dram,
            energy,
            workload: wl,
            input_on_chip: true,
            output_fits_on_chip: true,
        }
    }

    #[test]
    fn cscnn_outruns_scnn_on_an_eligible_layer() {
        let layer = LayerDesc::conv("c", 64, 64, 3, 3, 28, 28, 1, 1);
        let dram = DramConfig::default();
        let energy = EnergyTable::default();
        // SCNN runs DC-pruned weights at 0.4 density over all 9 positions;
        // CSCNN runs the same effective weights over 5 unique positions.
        let scnn = CartesianAccelerator::scnn();
        let scnn_cfg = scnn.config();
        let wl_scnn = LayerWorkload::synthesize(&layer, 0.4, 0.5, false, 7);
        let s = scnn.simulate_layer(&context(&scnn_cfg, &dram, &energy, &wl_scnn));

        let cscnn = CartesianAccelerator::cscnn();
        let cscnn_cfg = cscnn.config();
        let wl_cscnn = LayerWorkload::synthesize(&layer, 0.4, 0.5, true, 7);
        let c = cscnn.simulate_layer(&context(&cscnn_cfg, &dram, &energy, &wl_cscnn));

        assert!(
            c.compute_cycles < s.compute_cycles,
            "CSCNN {} vs SCNN {}",
            c.compute_cycles,
            s.compute_cycles
        );
        assert!(c.effective_mults < s.effective_mults);
    }

    #[test]
    fn fc_layer_uses_degenerate_path() {
        let layer = LayerDesc::fc("fc", 1024, 64);
        let wl = LayerWorkload::synthesize(&layer, 0.1, 0.5, true, 8);
        let acc = CartesianAccelerator::cscnn();
        let cfg = acc.config();
        let dram = DramConfig::default();
        let energy = EnergyTable::default();
        let stats = acc.simulate_layer(&context(&cfg, &dram, &energy, &wl));
        assert!(stats.compute_cycles > 0);
        // Zero activations are still skipped: mults ≈ nnzW × act density.
        let expect = wl.total_weight_nnz() as f64 * 0.5;
        assert!((stats.effective_mults as f64 - expect).abs() / expect < 0.2);
    }

    #[test]
    fn depthwise_layer_simulates() {
        let layer = LayerDesc::grouped("dw", 32, 32, 3, 3, 14, 14, 1, 1, 32);
        let wl = LayerWorkload::synthesize(&layer, 0.8, 0.5, true, 9);
        let acc = CartesianAccelerator::cscnn();
        let cfg = acc.config();
        let dram = DramConfig::default();
        let energy = EnergyTable::default();
        let stats = acc.simulate_layer(&context(&cfg, &dram, &energy, &wl));
        assert!(stats.compute_cycles > 0);
        assert!(stats.effective_mults > 0);
    }

    #[test]
    fn mults_match_structural_expectation() {
        // Dense weights, dense acts, unit stride: products on SCNN must be
        // close to dense MACs (padding halos aside).
        let layer = LayerDesc::conv("c", 8, 8, 3, 3, 16, 16, 1, 1);
        let wl = LayerWorkload::synthesize(&layer, 1.0, 1.0, false, 10);
        let acc = CartesianAccelerator::scnn();
        let cfg = acc.config();
        let dram = DramConfig::default();
        let energy = EnergyTable::default();
        let stats = acc.simulate_layer(&context(&cfg, &dram, &energy, &wl));
        let dense = layer.geom.dense_mults() as f64;
        let ratio = stats.effective_mults as f64 / dense;
        // Full-mode Cartesian product computes all pairs, and planar tiles
        // re-process halo activations: expect dense MACs inflated by the
        // boundary products plus the ~(10·10)/(8·8) halo factor.
        assert!((0.9..=1.7).contains(&ratio), "ratio={ratio}");
    }

    /// The per-channel scan `run_conv_plan` replaced: for every input
    /// channel, filter the whole `k_set` down to the channel's conv group —
    /// O(C·|k_set|) per assignment. Kept as the oracle for the bucketed
    /// sums.
    fn reference_channels(wl: &LayerWorkload, assign: &tiling::PeAssignment) -> Vec<u64> {
        let c_per_group = wl.c_per_group();
        let k_per_group = wl.layer.geom.k / wl.layer.geom.groups;
        (0..wl.layer.geom.c)
            .map(|c| {
                let conv_group = c / c_per_group;
                let c_local = c % c_per_group;
                assign
                    .k_set
                    .iter()
                    .filter(|&&k| k / k_per_group == conv_group)
                    .map(|&k| u64::from(wl.weight_nnz(k, c_local)))
                    .sum()
            })
            .collect()
    }

    /// The oracle `run_conv_plan` must match bit for bit: every
    /// assignment of `plan` run on `reference_channels`' sums, with each
    /// channel's activation count queried from `act_tile_nnz`.
    fn reference_plan(
        pe: &CartesianPe,
        wl: &LayerWorkload,
        plan: &[tiling::PeAssignment],
    ) -> Vec<PeResult> {
        plan.iter()
            .map(|assign| {
                let act = |c| u64::from(wl.act_tile_nnz(c, assign.tile_id, assign.tile_pixels));
                run_assignment(pe, wl, assign, &reference_channels(wl, assign), act)
            })
            .collect()
    }

    /// Seeded dense, grouped (2–8 groups) and depthwise layers at stride 1
    /// and 2.
    fn random_layer(rng: &mut StdRng, case: usize) -> LayerDesc {
        let stride = 1 + (case / 3) % 2;
        let kernel = if rng.gen_bool(0.5) { 1 } else { 3 };
        let hw = rng.gen_range(6usize..=20);
        let (c, k, groups) = match case % 3 {
            0 => (rng.gen_range(1usize..=24), rng.gen_range(1usize..=24), 1),
            1 => {
                let g = rng.gen_range(2usize..=8);
                (
                    g * rng.gen_range(1usize..=4),
                    g * rng.gen_range(1usize..=4),
                    g,
                )
            }
            _ => {
                let g = rng.gen_range(2usize..=24);
                (g, g, g)
            }
        };
        LayerDesc::grouped(
            "p",
            c,
            k,
            kernel,
            kernel,
            hw,
            hw,
            stride,
            kernel / 2,
            groups,
        )
    }

    #[test]
    fn bucketed_channel_weights_match_the_per_channel_scan() {
        const STRATEGIES: [TilingStrategy; 3] = [
            TilingStrategy::Planar,
            TilingStrategy::OutputChannel,
            TilingStrategy::Mixed,
        ];
        let mut rng = StdRng::seed_from_u64(0xc5c0);
        for case in 0..36 {
            let layer = random_layer(&mut rng, case);
            let (wd, ad) = (rng.gen_range(0.1..=1.0), rng.gen_range(0.1..=1.0));
            let seed = rng.gen_range(0u64..1000);
            for base in [CartesianAccelerator::scnn(), CartesianAccelerator::cscnn()] {
                let centro = base.scheme().uses_centrosymmetric();
                let wl = LayerWorkload::synthesize(&layer, wd, ad, centro, seed);
                let cfg = base.config();
                let pe = base.pe(&cfg, &wl);
                let at = format!("case {case}: {} {layer:?}", base.name());
                for balanced in [false, true] {
                    for strategy in STRATEGIES {
                        let plan = tiling::plan(&cfg, &wl, strategy, balanced);
                        assert_eq!(
                            base.run_conv_plan(&pe, &wl, &plan),
                            reference_plan(&pe, &wl, &plan),
                            "{at}: {strategy:?}, balanced {balanced}"
                        );
                    }
                }
            }
        }
    }
}
