//! The accelerator abstraction shared by CSCNN and all baselines.

use cscnn_models::CompressionScheme;

use crate::dram::DramConfig;
use crate::energy::EnergyTable;
use crate::report::LayerStats;
use crate::util;
use crate::workload::LayerWorkload;
use crate::ArchConfig;

/// Everything an accelerator model needs to simulate one layer.
#[derive(Clone, Debug)]
pub struct LayerContext<'a> {
    /// Architecture parameters (multiplier budget is equalized across
    /// accelerators, §IV).
    pub cfg: &'a ArchConfig,
    /// DRAM timing model.
    pub dram: &'a DramConfig,
    /// Energy constants.
    pub energy: &'a EnergyTable,
    /// The layer's synthesized sparse workload under this accelerator's
    /// compression scheme.
    pub workload: &'a LayerWorkload,
    /// Whether the layer's input activations are already resident in the
    /// global buffer (previous layer's output fit on-chip).
    pub input_on_chip: bool,
    /// Whether the layer's output fits in the global buffer (skips the
    /// DRAM write-back).
    pub output_fits_on_chip: bool,
}

/// A Table IV row: the qualitative characteristics of an accelerator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Characteristics {
    /// Compression approach.
    pub compression: &'static str,
    /// Exploited sparsity: `"-"`, `"A"`, `"W"`, or `"A+W"`.
    pub sparsity: &'static str,
    /// Inner spatial dataflow.
    pub dataflow: &'static str,
}

cscnn_json::impl_to_json!(Characteristics {
    compression,
    sparsity,
    dataflow,
});

/// A simulated accelerator.
pub trait Accelerator: Send + Sync {
    /// Display name.
    fn name(&self) -> &'static str;

    /// The compression scheme whose model variant this accelerator runs
    /// (drives workload synthesis).
    fn scheme(&self) -> CompressionScheme;

    /// The architecture configuration this accelerator is evaluated with.
    /// Multiplier counts are equalized across accelerators (§IV); buffer
    /// sizing may differ (e.g. SCNN's 16 KB vs CSCNN's 10 KB weight buffer).
    fn config(&self) -> ArchConfig {
        ArchConfig::paper()
    }

    /// Table IV characteristics.
    fn characteristics(&self) -> Characteristics;

    /// Simulates one layer. Must be a deterministic function of `self` and
    /// `ctx`: the batch pool simulates an accelerator once per shared
    /// workload and copies the result to every job that repeats it.
    fn simulate_layer(&self, ctx: &LayerContext<'_>) -> LayerStats;
}

/// DRAM traffic (bits) common to all accelerators: weight read (compressed
/// per scheme), activation read (compressed where the front-end supports
/// it), output write — with on-chip reuse suppressing input/output legs.
pub struct TrafficModel {
    /// Read activations in compressed form (A-sparsity front ends).
    pub compressed_acts: bool,
    /// Read weights in compressed form (W-sparsity front ends).
    pub compressed_weights: bool,
    /// Activation read amplification (im2col-based GEMM accelerators pay
    /// `R·S`-fold re-reads when lowering convolution to GEMM).
    pub act_amplification: f64,
}

impl TrafficModel {
    /// Computes DRAM traffic in bits for a layer.
    ///
    /// When neither operand's working set fits on chip (weights exceed the
    /// aggregate weight buffers *and* activations exceed the global
    /// buffer), the layer must be temporally tiled and one operand
    /// re-streamed per pass of the other (§III-D: "the input and output
    /// channel dimension can be temporally tiled"). The model charges the
    /// cheaper of the two stationary choices, as a reasonable scheduler
    /// would.
    pub fn dram_bits(&self, ctx: &LayerContext<'_>) -> u64 {
        let w = ctx.workload;
        let cfg = ctx.cfg;
        let word = util::to_count(cfg.word_bits);
        let weight_bits = if self.compressed_weights {
            w.weight_storage_bytes(cfg.word_bits, cfg.index_bits) * 8
        } else {
            let stored = util::to_count(w.layer.geom.k)
                * util::to_count(w.layer.geom.c / w.layer.geom.groups)
                * util::to_count(w.stored_per_slice);
            stored * word
        };
        let act_bits_base = if self.compressed_acts {
            w.act_storage_bytes(cfg.word_bits, cfg.index_bits) * 8
        } else {
            w.layer.geom.input_activations() * word
        };
        let act_bits = if ctx.input_on_chip {
            0
        } else {
            util::count_from_f64(act_bits_base as f64 * self.act_amplification)
        };
        let out_bits = if ctx.output_fits_on_chip {
            0
        } else {
            util::count_from_f64(w.layer.output_activations() as f64 * w.act_density) * word
        };
        let wb_total_bits = util::to_bytes(cfg.wb_bytes * cfg.num_pes()) * 8;
        let glb_bits = util::to_bytes(cfg.glb_bytes) * 8;
        let streamed = if weight_bits > wb_total_bits && act_bits > glb_bits {
            let weight_passes = act_bits.div_ceil(glb_bits);
            let act_passes = weight_bits.div_ceil(wb_total_bits);
            (weight_bits * weight_passes + act_bits).min(weight_bits + act_bits * act_passes)
        } else {
            weight_bits + act_bits
        };
        streamed + out_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscnn_models::LayerDesc;

    fn ctx_parts() -> (ArchConfig, DramConfig, EnergyTable, LayerWorkload) {
        let layer = LayerDesc::conv("t", 8, 16, 3, 3, 14, 14, 1, 1);
        let wl = LayerWorkload::synthesize(&layer, 0.5, 0.5, false, 1);
        (
            ArchConfig::paper(),
            DramConfig::default(),
            EnergyTable::default(),
            wl,
        )
    }

    #[test]
    fn compressed_weights_reduce_traffic() {
        let (cfg, dram, energy, wl) = ctx_parts();
        let ctx = LayerContext {
            cfg: &cfg,
            dram: &dram,
            energy: &energy,
            workload: &wl,
            input_on_chip: false,
            output_fits_on_chip: false,
        };
        let dense = TrafficModel {
            compressed_acts: false,
            compressed_weights: false,
            act_amplification: 1.0,
        };
        let sparse = TrafficModel {
            compressed_acts: true,
            compressed_weights: true,
            act_amplification: 1.0,
        };
        assert!(sparse.dram_bits(&ctx) < dense.dram_bits(&ctx));
    }

    #[test]
    fn on_chip_reuse_eliminates_activation_legs() {
        let (cfg, dram, energy, wl) = ctx_parts();
        let model = TrafficModel {
            compressed_acts: false,
            compressed_weights: false,
            act_amplification: 1.0,
        };
        let off = LayerContext {
            cfg: &cfg,
            dram: &dram,
            energy: &energy,
            workload: &wl,
            input_on_chip: false,
            output_fits_on_chip: false,
        };
        let on = LayerContext {
            input_on_chip: true,
            output_fits_on_chip: true,
            ..off.clone()
        };
        assert!(model.dram_bits(&on) < model.dram_bits(&off));
    }

    #[test]
    fn temporal_tiling_charges_restreaming_when_nothing_fits() {
        // A layer whose compressed weights exceed the aggregate WB and
        // whose activations exceed the GLB must pay re-streaming traffic.
        let layer = LayerDesc::conv("big", 256, 256, 3, 3, 112, 112, 1, 1);
        let wl = LayerWorkload::synthesize(&layer, 0.6, 0.8, false, 2);
        let cfg = ArchConfig::paper();
        let dram = DramConfig::default();
        let energy = EnergyTable::default();
        let ctx = LayerContext {
            cfg: &cfg,
            dram: &dram,
            energy: &energy,
            workload: &wl,
            input_on_chip: false,
            output_fits_on_chip: true,
        };
        let model = TrafficModel {
            compressed_acts: true,
            compressed_weights: true,
            act_amplification: 1.0,
        };
        let weight_bits = wl.weight_storage_bytes(16, 4) * 8;
        let act_bits = wl.act_storage_bytes(16, 4) * 8;
        assert!(weight_bits > (cfg.wb_bytes * cfg.num_pes() * 8) as u64);
        assert!(act_bits > (cfg.glb_bytes * 8) as u64);
        let total = model.dram_bits(&ctx);
        assert!(
            total > weight_bits + act_bits,
            "re-streaming must add traffic: {total} vs {}",
            weight_bits + act_bits
        );
        // And it charges the cheaper stationary choice, not the pricier.
        let weight_passes = act_bits.div_ceil((cfg.glb_bytes * 8) as u64);
        let act_passes = weight_bits.div_ceil((cfg.wb_bytes * cfg.num_pes() * 8) as u64);
        let cheaper =
            (weight_bits * weight_passes + act_bits).min(weight_bits + act_bits * act_passes);
        assert_eq!(total, cheaper);
    }

    #[test]
    fn im2col_amplification_multiplies_act_traffic() {
        let (cfg, dram, energy, wl) = ctx_parts();
        let ctx = LayerContext {
            cfg: &cfg,
            dram: &dram,
            energy: &energy,
            workload: &wl,
            input_on_chip: false,
            output_fits_on_chip: true,
        };
        let base = TrafficModel {
            compressed_acts: false,
            compressed_weights: false,
            act_amplification: 1.0,
        };
        let amp = TrafficModel {
            act_amplification: 9.0,
            ..TrafficModel {
                compressed_acts: false,
                compressed_weights: false,
                act_amplification: 1.0,
            }
        };
        let weight_bits = (16 * 8 * 9 * 16) as u64;
        let base_acts = base.dram_bits(&ctx) - weight_bits;
        let amp_acts = amp.dram_bits(&ctx) - weight_bits;
        assert!((amp_acts as f64 / base_acts as f64 - 9.0).abs() < 0.01);
    }
}
