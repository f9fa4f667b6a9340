//! Baseline accelerator models (Table IV).
//!
//! Each baseline mimics its publication's dataflow at the granularity the
//! paper's own methodology uses ("we mimic their dataflow in our simulator
//! taking their design details as input"): an analytic cycle model driven by
//! the layer's synthesized sparse workload, with per-design utilization and
//! operand-reuse constants documented in each constructor. SCNN and CSCNN
//! use the detailed Cartesian-product model in
//! [`crate::CartesianAccelerator`] instead.

mod cambricon;
mod cnvlutin;
mod dcnn;
mod eie;
mod gemm;
mod sparten;

pub use cambricon::{cambricon_s, cambricon_x};
pub use cnvlutin::cnvlutin;
pub use dcnn::dcnn;
pub use eie::eie;
pub use gemm::{sigma, sparch};
pub use sparten::sparten;

use cscnn_models::{CompressionScheme, LayerKind};

use crate::interface::{Accelerator, Characteristics, LayerContext, TrafficModel};
use crate::report::LayerStats;
use crate::util::{count_from_f64, cycles_from_f64, to_index};

/// Which structural dimension limits lane utilization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FragDim {
    /// Output pixels map onto lanes (output-stationary dense arrays).
    Pixels,
    /// Output channels map onto lanes (vector dot/scalar designs).
    OutputChannels,
}

/// Parameters of an analytic baseline model.
#[derive(Clone, Debug)]
pub struct AnalyticParams {
    /// Display name.
    pub name: &'static str,
    /// Model variant the accelerator runs.
    pub scheme: CompressionScheme,
    /// Table IV row.
    pub characteristics: Characteristics,
    /// Skips zero activations.
    pub exploits_act_sparsity: bool,
    /// Skips zero weights.
    pub exploits_weight_sparsity: bool,
    /// Weight-density inflation relative to the synthesized profile
    /// (Cambricon-S's coarse-grained pruning keeps ~17 % more weights for
    /// the same accuracy; §V-B).
    pub weight_density_inflation: f64,
    /// Sustained fraction of peak multiplier throughput, net of the
    /// design's internal overheads (front-end matching, select networks,
    /// load imbalance after greedy balancing).
    pub base_utilization: f64,
    /// Lane-group width for edge fragmentation.
    pub lane_width: usize,
    /// Fragmentation dimension.
    pub frag_dim: FragDim,
    /// MACs amortized per weight-buffer word read (broadcast/reuse factor).
    pub weight_reuse: f64,
    /// MACs amortized per input-buffer word read.
    pub act_reuse: f64,
    /// Weights travel compressed (affects DRAM + index energy).
    pub compressed_weights: bool,
    /// Activations travel compressed.
    pub compressed_acts: bool,
    /// Per-MAC auxiliary operations (index matching, prefix sums) charged
    /// to the "others" energy bucket.
    pub others_ops_per_mac: f64,
    /// Accumulator-access multiplier (outer-product designs merge partial
    /// sums repeatedly).
    pub ab_access_factor: f64,
    /// `true` for GEMM accelerators that lower convolution with im2col,
    /// amplifying activation traffic by `R·S/stride²`.
    pub im2col: bool,
}

/// An accelerator modeled analytically from [`AnalyticParams`].
#[derive(Clone, Debug)]
pub struct AnalyticBaseline {
    params: AnalyticParams,
}

impl AnalyticBaseline {
    /// Wraps a parameter set.
    pub fn new(params: AnalyticParams) -> Self {
        AnalyticBaseline { params }
    }

    /// The parameter set.
    pub fn params(&self) -> &AnalyticParams {
        &self.params
    }
}

impl Accelerator for AnalyticBaseline {
    fn name(&self) -> &'static str {
        self.params.name
    }

    fn scheme(&self) -> CompressionScheme {
        self.params.scheme
    }

    fn characteristics(&self) -> Characteristics {
        self.params.characteristics.clone()
    }

    fn simulate_layer(&self, ctx: &LayerContext<'_>) -> LayerStats {
        let p = &self.params;
        let cfg = ctx.cfg;
        let wl = ctx.workload;
        let layer = &wl.layer;
        let dense = layer.geom.dense_mults() as f64;
        let dw = if p.exploits_weight_sparsity {
            (wl.weight_density * p.weight_density_inflation).min(1.0)
        } else {
            1.0
        };
        let da = if p.exploits_act_sparsity {
            wl.act_density
        } else {
            1.0
        };
        let macs = dense * dw * da;
        // Edge fragmentation on the lane dimension. FC layers always map
        // their output neurons onto lanes (matrix-vector product), whatever
        // the conv dataflow fragments on.
        let frag_extent = if layer.kind == LayerKind::FullyConnected {
            layer.geom.k
        } else {
            match p.frag_dim {
                FragDim::Pixels => to_index(layer.geom.output_pixels()),
                FragDim::OutputChannels => layer.geom.k,
            }
        };
        let lanes = p.lane_width.max(1);
        let frag = frag_extent as f64 / ((frag_extent as f64 / lanes as f64).ceil() * lanes as f64);
        let util = p.base_utilization * frag;
        let peak = cfg.total_multipliers() as f64;
        let compute_cycles = cycles_from_f64((macs / (peak * util)).ceil());
        // Event counts.
        let outputs = layer.output_activations();
        let mut c = crate::energy::EnergyCounters::default();
        c.mults = count_from_f64(macs.round());
        c.adds = c.mults;
        c.wb_reads = count_from_f64((macs / p.weight_reuse).round());
        c.ib_reads = count_from_f64((macs / p.act_reuse).round());
        c.index_reads = if p.compressed_weights { c.wb_reads } else { 0 }
            + if p.compressed_acts { c.ib_reads } else { 0 };
        c.ab_accesses = count_from_f64((macs * p.ab_access_factor).round()) + outputs;
        c.ob_writes = outputs;
        c.ppu_ops = outputs;
        c.ccu_ops = count_from_f64((macs * p.others_ops_per_mac).round());
        let act_amplification = if p.im2col && layer.kind != LayerKind::FullyConnected {
            (layer.geom.r * layer.geom.s) as f64 / (layer.geom.stride * layer.geom.stride) as f64
        } else {
            1.0
        };
        let traffic = TrafficModel {
            compressed_acts: p.compressed_acts,
            compressed_weights: p.compressed_weights,
            act_amplification: act_amplification.max(1.0),
        };
        c.dram_bits = traffic.dram_bits(ctx);
        let dram_time_s = ctx.dram.transfer_time_s(c.dram_bits / 8);
        let compute_time_s = compute_cycles as f64 * cfg.cycle_time();
        let energy = crate::energy::energy_of(&c, cfg, ctx.energy);
        LayerStats {
            name: layer.name.clone(),
            compute_cycles,
            dram_time_s,
            time_s: compute_time_s.max(dram_time_s),
            effective_mults: c.mults,
            counters: c,
            energy,
        }
    }
}

/// All nine accelerators of the evaluation (Figs. 7 and 9), in the paper's
/// plotting order.
pub fn evaluation_accelerators() -> Vec<Box<dyn Accelerator>> {
    vec![
        Box::new(dcnn()),
        Box::new(cnvlutin()),
        Box::new(cambricon_x()),
        Box::new(crate::CartesianAccelerator::scnn()),
        Box::new(sparten()),
        Box::new(cambricon_s()),
        Box::new(sigma()),
        Box::new(sparch()),
        Box::new(crate::CartesianAccelerator::cscnn()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;
    use crate::energy::EnergyTable;
    use crate::workload::LayerWorkload;
    use cscnn_models::LayerDesc;

    fn run(acc: &dyn Accelerator, wd: f64, ad: f64) -> LayerStats {
        let layer = LayerDesc::conv("c", 64, 64, 3, 3, 28, 28, 1, 1);
        let wl = LayerWorkload::synthesize(&layer, wd, ad, acc.scheme().uses_centrosymmetric(), 3);
        let cfg = acc.config();
        let dram = DramConfig::default();
        let energy = EnergyTable::default();
        let ctx = LayerContext {
            cfg: &cfg,
            dram: &dram,
            energy: &energy,
            workload: &wl,
            input_on_chip: true,
            output_fits_on_chip: true,
        };
        acc.simulate_layer(&ctx)
    }

    #[test]
    fn suite_has_nine_accelerators_in_paper_order() {
        let accs = evaluation_accelerators();
        let names: Vec<_> = accs.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "DCNN",
                "Cnvlutin",
                "Cambricon-X",
                "SCNN",
                "SparTen",
                "Cambricon-S",
                "SIGMA",
                "SpArch",
                "CSCNN"
            ]
        );
    }

    #[test]
    fn one_sided_accelerators_sit_between_dense_and_two_sided() {
        let d = run(&dcnn(), 0.4, 0.5);
        let a_only = run(&cnvlutin(), 0.4, 0.5);
        let w_only = run(&cambricon_x(), 0.4, 0.5);
        let two = run(&sparten(), 0.4, 0.5);
        assert!(a_only.compute_cycles < d.compute_cycles);
        assert!(w_only.compute_cycles < d.compute_cycles);
        assert!(two.compute_cycles < a_only.compute_cycles);
        assert!(two.compute_cycles < w_only.compute_cycles);
    }

    #[test]
    fn dense_accelerator_ignores_sparsity() {
        let sparse = run(&dcnn(), 0.2, 0.3);
        let dense = run(&dcnn(), 1.0, 1.0);
        assert_eq!(sparse.compute_cycles, dense.compute_cycles);
    }

    #[test]
    fn gemm_accelerators_pay_im2col_traffic() {
        let layer = LayerDesc::conv("c", 64, 64, 3, 3, 28, 28, 1, 1);
        let wl = LayerWorkload::synthesize(&layer, 0.4, 0.5, false, 3);
        let dram = DramConfig::default();
        let energy = EnergyTable::default();
        let sg = sigma();
        let sp = sparten();
        let cfg_sg = sg.config();
        let cfg_sp = sp.config();
        let ctx_sg = LayerContext {
            cfg: &cfg_sg,
            dram: &dram,
            energy: &energy,
            workload: &wl,
            input_on_chip: false,
            output_fits_on_chip: true,
        };
        let ctx_sp = LayerContext {
            cfg: &cfg_sp,
            dram: &dram,
            energy: &energy,
            workload: &wl,
            input_on_chip: false,
            output_fits_on_chip: true,
        };
        let s1 = sg.simulate_layer(&ctx_sg);
        let s2 = sp.simulate_layer(&ctx_sp);
        assert!(
            s1.counters.dram_bits > 2 * s2.counters.dram_bits,
            "im2col traffic should dominate: {} vs {}",
            s1.counters.dram_bits,
            s2.counters.dram_bits
        );
    }

    #[test]
    fn cambricon_s_keeps_more_weights_than_sparten() {
        let cs = run(&cambricon_s(), 0.4, 0.5);
        let sp = run(&sparten(), 0.4, 0.5);
        assert!(cs.effective_mults > sp.effective_mults);
    }
}
