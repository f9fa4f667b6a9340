//! Roofline analysis: per-layer arithmetic intensity vs the accelerator's
//! compute and memory ceilings.
//!
//! The evaluation's `max(compute, memory)` layer-latency model *is* a
//! roofline; this module makes it explicit so layers can be classified as
//! compute- or memory-bound and the `fig7`-style results explained in
//! roofline terms (FC layers sit far left of the ridge; pruned conv layers
//! sit right of it).

use cscnn_models::LayerDesc;

use crate::dram::DramConfig;
use crate::ArchConfig;

/// One layer's position on the roofline.
#[derive(Clone, Debug)]
pub struct RooflinePoint {
    /// Layer name.
    pub layer: String,
    /// Effective MACs the accelerator must execute.
    pub macs: f64,
    /// Off-chip bytes moved.
    pub bytes: f64,
    /// Arithmetic intensity in MACs/byte.
    pub intensity: f64,
    /// Attainable MAC/s under the roofline.
    pub attainable_macs_per_s: f64,
    /// `true` when the memory ceiling binds.
    pub memory_bound: bool,
}

cscnn_json::impl_to_json!(RooflinePoint {
    layer,
    macs,
    bytes,
    intensity,
    attainable_macs_per_s,
    memory_bound,
});

/// The machine's roofline parameters.
#[derive(Clone, Copy, Debug)]
pub struct Roofline {
    /// Peak MAC/s (multipliers × frequency).
    pub peak_macs_per_s: f64,
    /// Peak DRAM bytes/s.
    pub peak_bytes_per_s: f64,
}

cscnn_json::impl_to_json!(Roofline {
    peak_macs_per_s,
    peak_bytes_per_s,
});

impl Roofline {
    /// Builds the roofline of an architecture + DRAM pairing.
    pub fn of(cfg: &ArchConfig, dram: &DramConfig) -> Self {
        Roofline {
            peak_macs_per_s: cfg.total_multipliers() as f64 * cfg.frequency_hz,
            peak_bytes_per_s: dram.peak_bytes_per_s,
        }
    }

    /// Arithmetic intensity (MACs/byte) at the ridge point: layers below
    /// it are memory-bound, above it compute-bound.
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_macs_per_s / self.peak_bytes_per_s
    }

    /// Classifies one layer given its effective MAC count and DRAM bytes.
    pub fn point(&self, layer: &LayerDesc, macs: f64, bytes: f64) -> RooflinePoint {
        let intensity = if bytes > 0.0 {
            macs / bytes
        } else {
            f64::INFINITY
        };
        let memory_ceiling = intensity * self.peak_bytes_per_s;
        let attainable = memory_ceiling.min(self.peak_macs_per_s);
        RooflinePoint {
            layer: layer.name.clone(),
            macs,
            bytes,
            intensity,
            attainable_macs_per_s: attainable,
            memory_bound: memory_ceiling < self.peak_macs_per_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roofline() -> Roofline {
        Roofline::of(&ArchConfig::paper(), &DramConfig::default())
    }

    #[test]
    fn paper_config_roofline_parameters() {
        let r = roofline();
        // 64 multipliers × 800 MHz = 51.2 GMAC/s; DDR3-1600 = 12.8 GB/s.
        assert!((r.peak_macs_per_s - 51.2e9).abs() < 1e6);
        assert!(
            (r.ridge_intensity() - 4.0).abs() < 1e-9,
            "ridge at 4 MACs/byte"
        );
    }

    #[test]
    fn fc_layers_are_memory_bound_conv_layers_compute_bound() {
        let r = roofline();
        // FC: one MAC per weight, each weight read once → intensity ~0.5
        // MACs/byte at 16-bit.
        let fc = LayerDesc::fc("fc", 4096, 4096);
        let fc_macs = fc.geom.dense_mults() as f64;
        let fc_bytes = fc.geom.weights() as f64 * 2.0;
        let p = r.point(&fc, fc_macs, fc_bytes);
        assert!(p.memory_bound, "FC must be memory-bound");
        assert!(p.attainable_macs_per_s < r.peak_macs_per_s);
        // Conv: weights reused across the whole plane → intensity >> ridge.
        let conv = LayerDesc::conv("c", 64, 64, 3, 3, 56, 56, 1, 1);
        let macs = conv.geom.dense_mults() as f64;
        let bytes = (conv.geom.weights()
            + conv.geom.input_activations()
            + conv.output_activations()) as f64
            * 2.0;
        let p = r.point(&conv, macs, bytes);
        assert!(!p.memory_bound, "conv must be compute-bound");
        assert_eq!(p.attainable_macs_per_s, r.peak_macs_per_s);
    }

    #[test]
    fn sparsity_moves_layers_toward_the_ridge() {
        // Pruning removes MACs faster than bytes (indices remain), so
        // effective intensity falls — the roofline view of why sparse
        // accelerators inch toward memory-bound.
        let r = roofline();
        let conv = LayerDesc::conv("c", 64, 64, 3, 3, 14, 14, 1, 1);
        let dense_macs = conv.geom.dense_mults() as f64;
        let bytes = (conv.geom.weights() + conv.geom.input_activations()) as f64 * 2.0;
        let dense = r.point(&conv, dense_macs, bytes);
        let sparse = r.point(&conv, dense_macs * 0.2, bytes * 0.5);
        assert!(sparse.intensity < dense.intensity);
    }
}
