//! Per-layer sparse workload synthesis.
//!
//! The simulator's timing depends on the *structure* of sparsity — how many
//! non-zeros each filter slice and activation tile holds — not on values.
//! A [`LayerWorkload`] synthesizes that structure deterministically from a
//! seed at the profiled densities (DESIGN.md §2): per-(k, c) stored-weight
//! non-zero counts are sampled binomially, and activation-tile non-zero
//! counts are derived on demand from a counter-based hash so any tiling can
//! query them without pre-materialization.

use cscnn_ir::{LayerNode, SparsityAnnotation};
use cscnn_models::LayerDesc;
use cscnn_rng::rngs::StdRng;
use cscnn_rng::{Rng, SeedableRng};

use crate::util::{count_from_f64, nnz_from_f64, to_count, to_nnz, to_slice_nnz};

/// Synthesized sparse structure of one layer under one compression scheme.
#[derive(Clone, Debug)]
pub struct LayerWorkload {
    /// The layer geometry.
    pub layer: LayerDesc,
    /// Density of stored weights (fraction non-zero among stored positions).
    pub weight_density: f64,
    /// Density of input activations.
    pub act_density: f64,
    /// Whether weights are stored centrosymmetric-compressed (unique half).
    pub centro: bool,
    /// Stored weight positions per (k, c) slice (`⌈R·S/2⌉` when
    /// centrosymmetric-eligible and `centro`, else `R·S`).
    pub stored_per_slice: usize,
    /// Non-zero stored weights per `(k, c_local)` slice, row-major
    /// `k * c_per_group + c_local`. A slice holds at most
    /// `stored_per_slice ≤ R·S` weights, so `u16` suffices and halves the
    /// workload. Empty for FC layers (see
    /// [`LayerWorkload::fc_weight_nnz`]).
    weight_nnz: Vec<u16>,
    /// For FC layers: non-zero weights per output neuron `k`.
    fc_nnz: Vec<u32>,
    seed: u64,
}

impl LayerWorkload {
    /// Synthesizes a workload.
    ///
    /// `centro` should be `true` only for CSCNN schemes; it takes effect on
    /// centrosymmetric-eligible layers (unit-stride convs), where the
    /// stored positions per slice drop to `⌈R·S/2⌉`.
    ///
    /// # Panics
    ///
    /// Panics if a density lies outside `[0, 1]`, or if a conv kernel
    /// stores more than `u16::MAX` positions per slice
    /// ([`LayerWorkload::from_node`] reports both as typed errors).
    pub fn synthesize(
        layer: &LayerDesc,
        weight_density: f64,
        act_density: f64,
        centro: bool,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&weight_density),
            "weight density in [0,1]"
        );
        assert!((0.0..=1.0).contains(&act_density), "act density in [0,1]");
        let effective_centro = centro && layer.centro_eligible();
        let rs = layer.r * layer.s;
        let stored_per_slice = if effective_centro { rs.div_ceil(2) } else { rs };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
        let (weight_nnz, fc_nnz) = if layer.kind == cscnn_models::LayerKind::FullyConnected {
            let fc: Vec<u32> = (0..layer.k)
                .map(|_| binomial(&mut rng, layer.c, weight_density))
                .collect();
            (Vec::new(), fc)
        } else {
            let c_local = layer.c / layer.groups;
            let slices = layer.k * c_local;
            assert!(
                stored_per_slice <= usize::from(u16::MAX),
                "{}: {stored_per_slice} stored weights per slice exceed the u16 slice counts",
                layer.name
            );
            let w: Vec<u16> = (0..slices)
                .map(|_| to_slice_nnz(binomial(&mut rng, stored_per_slice, weight_density)))
                .collect();
            (w, Vec::new())
        };
        LayerWorkload {
            layer: layer.clone(),
            weight_density,
            act_density,
            centro: effective_centro,
            stored_per_slice,
            weight_nnz,
            fc_nnz,
            seed,
        }
    }

    /// Lowers a typed IR node to a workload (`Ir → LayerWorkload`).
    ///
    /// Returns `Ok(None)` for nodes the simulator does not time (pool,
    /// activation, flatten, norm, dropout). Weight-bearing nodes must carry
    /// a measured [`cscnn_ir::SparsityAnnotation`]; geometry is lowered via
    /// [`cscnn_models::lower::layer_desc`] so IR- and `ModelDesc`-driven
    /// simulation stay bit-identical.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::BadGeometry`] naming the layer and field when
    /// the node's geometry fails [`cscnn_ir::ConvGeom::check`] (or an FC
    /// node has zero inputs or outputs);
    /// [`crate::SimError::MissingSparsity`] naming the layer when a
    /// weight-bearing node has no annotation;
    /// [`crate::SimError::DensityOutOfRange`] when an annotated density is
    /// NaN or outside `[0, 1]`; [`crate::SimError::KernelTooLarge`] when the
    /// kernel has more than `u16::MAX` positions.
    pub fn from_node(
        node: &LayerNode,
        centro: bool,
        seed: u64,
    ) -> Result<Option<Self>, crate::SimError> {
        Ok(Self::check_node(node)?.map(|(desc, ann)| {
            let (w, a) = (ann.weight_density, ann.activation_density);
            Self::synthesize(&desc, w, a, centro, seed)
        }))
    }

    /// Every check of [`LayerWorkload::from_node`], without the synthesis:
    /// the lowered layer and its annotation, or `None` for an untimed node.
    pub(crate) fn check_node(
        node: &LayerNode,
    ) -> Result<Option<(LayerDesc, SparsityAnnotation)>, crate::SimError> {
        let layer = || node.name().unwrap_or("<unnamed>").to_string();
        let non_zero = |field| Err((field, "must be non-zero".to_string()));
        match node {
            LayerNode::Conv { geom, .. } | LayerNode::Depthwise { geom, .. } => geom.check(),
            LayerNode::FullyConnected { inputs: 0, .. } => non_zero("inputs"),
            LayerNode::FullyConnected { outputs: 0, .. } => non_zero("outputs"),
            _ => Ok(()),
        }
        .map_err(|(field, reason)| crate::SimError::BadGeometry {
            layer: layer(),
            field,
            reason,
        })?;
        let Some(desc) = cscnn_models::lower::layer_desc(node) else {
            return Ok(None);
        };
        let Some(ann) = node.sparsity() else {
            return Err(crate::SimError::MissingSparsity { layer: layer() });
        };
        for (field, value) in [
            ("weight_density", ann.weight_density),
            ("activation_density", ann.activation_density),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(crate::SimError::DensityOutOfRange {
                    layer: layer(),
                    field,
                    value,
                });
            }
        }
        let positions = desc.r * desc.s;
        if positions > usize::from(u16::MAX) {
            return Err(crate::SimError::KernelTooLarge {
                layer: layer(),
                positions,
            });
        }
        Ok(Some((desc, ann)))
    }

    /// Input channels per convolution group.
    pub fn c_per_group(&self) -> usize {
        self.layer.c / self.layer.groups
    }

    /// Non-zero stored weights in the `(k, c_local)` slice.
    ///
    /// # Panics
    ///
    /// Panics for FC layers or out-of-range indices.
    pub fn weight_nnz(&self, k: usize, c_local: usize) -> u32 {
        u32::from(self.weight_nnz[k * self.c_per_group() + c_local])
    }

    /// Non-zero stored weights feeding output neuron `k` of an FC layer.
    pub fn fc_weight_nnz(&self, k: usize) -> u32 {
        self.fc_nnz[k]
    }

    /// Total non-zero stored weights in this layer.
    pub fn total_weight_nnz(&self) -> u64 {
        if self.fc_nnz.is_empty() {
            self.weight_nnz.iter().map(|&x| u64::from(x)).sum()
        } else {
            self.fc_nnz.iter().map(|&x| u64::from(x)).sum()
        }
    }

    /// Non-zero stored weights of filter `k` (summed over its input
    /// channels) — the quantity density-sorted load balancing uses.
    pub fn filter_nnz(&self, k: usize) -> u64 {
        if self.fc_nnz.is_empty() {
            let cg = self.c_per_group();
            (0..cg).map(|c| u64::from(self.weight_nnz(k, c))).sum()
        } else {
            u64::from(self.fc_nnz[k])
        }
    }

    /// Deterministic non-zero count for an activation tile of `tile_len`
    /// pixels in input channel `c` at tile index `tile_id`.
    ///
    /// Derived from a counter-based hash of `(seed, c, tile_id)`, so every
    /// tiling strategy sees a consistent, reproducible sparsity pattern.
    ///
    /// Activation sparsity is spatially *correlated* (objects vs
    /// background), so a tile's local density deviates from the layer mean
    /// by a factor whose spread shrinks with tile size (correlation length
    /// ≈ 64 pixels). This systematic per-tile variation is what makes
    /// planar tiling load-imbalance — the inter-PE barrier of §III-C.
    pub fn act_tile_nnz(&self, c: usize, tile_id: usize, tile_len: usize) -> u32 {
        let h = splitmix(self.seed ^ (to_count(c) << 32) ^ to_count(tile_id).wrapping_mul(0x9e37));
        let mut rng = StdRng::seed_from_u64(h);
        let sigma = 0.5 / (tile_len as f64 / 64.0).max(1.0).sqrt();
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let factor = (1.0 + sigma * z).clamp(0.3, 1.7);
        let density = (self.act_density * factor).clamp(0.0, 1.0);
        binomial(&mut rng, tile_len, density)
    }

    /// Total non-zero input activations (expected value, used for traffic).
    pub fn total_act_nnz(&self) -> u64 {
        count_from_f64((self.layer.input_activations() as f64 * self.act_density).round())
    }

    /// Bytes of stored weights including run-length index metadata.
    pub fn weight_storage_bytes(&self, word_bits: usize, index_bits: usize) -> u64 {
        let nnz = self.total_weight_nnz();
        (nnz * to_count(word_bits + index_bits)).div_ceil(8)
    }

    /// Bytes of compressed input activations including indices.
    pub fn act_storage_bytes(&self, word_bits: usize, index_bits: usize) -> u64 {
        let nnz = self.total_act_nnz();
        (nnz * to_count(word_bits + index_bits)).div_ceil(8)
    }
}

/// Fast binomial sampler: exact for small `n`, normal approximation above.
fn binomial<R: Rng>(rng: &mut R, n: usize, p: f64) -> u32 {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return to_nnz(n);
    }
    let np = n as f64 * p;
    if n <= 64 || np < 10.0 || (n as f64 * (1.0 - p)) < 10.0 {
        to_nnz((0..n).filter(|_| rng.gen_bool(p)).count())
    } else {
        let sigma = (np * (1.0 - p)).sqrt();
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        nnz_from_f64((np + sigma * z).round().clamp(0.0, n as f64))
    }
}

/// SplitMix64 hash step for deterministic derived seeds.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscnn_models::LayerDesc;

    fn conv_layer() -> LayerDesc {
        LayerDesc::conv("c", 64, 128, 3, 3, 28, 28, 1, 1)
    }

    #[test]
    fn centro_halves_stored_positions_on_eligible_layers() {
        let w = LayerWorkload::synthesize(&conv_layer(), 1.0, 0.5, true, 1);
        assert_eq!(w.stored_per_slice, 5);
        assert!(w.centro);
        let strided = LayerDesc::conv("s", 3, 96, 11, 11, 224, 224, 4, 2);
        let ws = LayerWorkload::synthesize(&strided, 1.0, 0.5, true, 1);
        assert_eq!(ws.stored_per_slice, 121, "strided layers stay full");
        assert!(!ws.centro);
    }

    #[test]
    fn full_density_fills_every_slice() {
        let w = LayerWorkload::synthesize(&conv_layer(), 1.0, 0.5, false, 2);
        assert_eq!(w.weight_nnz(0, 0), 9);
        assert_eq!(w.total_weight_nnz(), (128 * 64 * 9) as u64);
    }

    #[test]
    fn sampled_density_is_close_to_target() {
        let w = LayerWorkload::synthesize(&conv_layer(), 0.4, 0.5, false, 3);
        let frac = w.total_weight_nnz() as f64 / (128.0 * 64.0 * 9.0);
        assert!((frac - 0.4).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn act_tiles_are_deterministic_and_plausible() {
        let w = LayerWorkload::synthesize(&conv_layer(), 0.4, 0.5, false, 4);
        let a = w.act_tile_nnz(3, 1, 196);
        let b = w.act_tile_nnz(3, 1, 196);
        assert_eq!(a, b, "same query must reproduce");
        let other = w.act_tile_nnz(4, 1, 196);
        // Different channels almost surely differ.
        let mean: f64 = (0..64)
            .map(|c| w.act_tile_nnz(c, 0, 196) as f64)
            .sum::<f64>()
            / 64.0;
        assert!((mean - 98.0).abs() < 10.0, "mean={mean}");
        let _ = other;
    }

    #[test]
    fn from_node_matches_synthesize_and_demands_annotations() {
        use cscnn_ir::{LayerNode, SparsityAnnotation};
        let mut node = LayerNode::conv("c", 64, 128, 3, 3, 28, 28, 1, 1);
        // Weight-bearing but unannotated → typed error naming the layer.
        let err = LayerWorkload::from_node(&node, true, 1).expect_err("no annotation");
        assert!(err.to_string().contains('c'));
        node.set_sparsity(SparsityAnnotation {
            weight_density: 0.4,
            activation_density: 0.5,
        });
        let from_ir = LayerWorkload::from_node(&node, true, 1)
            .expect("annotated")
            .expect("weight-bearing");
        let direct = LayerWorkload::synthesize(&conv_layer(), 0.4, 0.5, true, 1);
        assert_eq!(from_ir.total_weight_nnz(), direct.total_weight_nnz());
        assert_eq!(from_ir.stored_per_slice, direct.stored_per_slice);
        // Non-weight nodes lower to nothing.
        assert!(LayerWorkload::from_node(&LayerNode::Flatten, true, 1)
            .expect("flatten is fine")
            .is_none());
    }

    #[test]
    fn kernels_beyond_u16_slice_counts_are_refused() {
        use cscnn_ir::{LayerNode, SparsityAnnotation};
        // 256·256 = 65536 positions: one more than a u16 slice count holds.
        let mut node = LayerNode::conv("huge", 1, 1, 256, 256, 256, 256, 1, 0);
        node.set_sparsity(SparsityAnnotation {
            weight_density: 1.0,
            activation_density: 1.0,
        });
        let err = LayerWorkload::from_node(&node, false, 1).expect_err("too large");
        assert_eq!(
            err,
            crate::SimError::KernelTooLarge {
                layer: "huge".into(),
                positions: 65536,
            }
        );
        // 255·257 = 65535 still fits, and full density fills it exactly.
        let widest = LayerDesc::conv("widest", 1, 1, 255, 257, 255, 257, 1, 0);
        let w = LayerWorkload::synthesize(&widest, 1.0, 1.0, false, 1);
        assert_eq!(w.weight_nnz(0, 0), 65535);
    }

    #[test]
    #[should_panic(expected = "exceed the u16 slice counts")]
    fn synthesize_panics_instead_of_truncating_slice_counts() {
        let huge = LayerDesc::conv("huge", 1, 1, 256, 256, 256, 256, 1, 0);
        let _ = LayerWorkload::synthesize(&huge, 1.0, 1.0, false, 1);
    }

    #[test]
    fn fc_layers_use_per_neuron_counts() {
        let fc = LayerDesc::fc("fc", 1024, 256);
        let w = LayerWorkload::synthesize(&fc, 0.1, 0.5, true, 5);
        assert!(!w.centro, "FC is never centrosymmetric");
        let mean: f64 = (0..256).map(|k| w.fc_weight_nnz(k) as f64).sum::<f64>() / 256.0;
        assert!((mean - 102.4).abs() < 10.0, "mean={mean}");
        assert_eq!(w.filter_nnz(0), w.fc_weight_nnz(0) as u64);
    }

    #[test]
    fn storage_accounts_for_index_bits() {
        let w = LayerWorkload::synthesize(&conv_layer(), 0.5, 0.5, false, 6);
        let plain = w.weight_storage_bytes(16, 0);
        let indexed = w.weight_storage_bytes(16, 4);
        assert!((indexed as f64 / plain as f64 - 1.25).abs() < 0.01);
    }

    #[test]
    fn binomial_normal_approx_matches_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<u32> = (0..500).map(|_| binomial(&mut rng, 10_000, 0.3)).collect();
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64;
        assert!((mean - 3000.0).abs() < 30.0, "mean={mean}");
    }
}
