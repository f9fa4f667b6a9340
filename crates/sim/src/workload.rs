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
            let fc = Binomial::new(layer.c, weight_density).samples(&mut rng, layer.k, |x| x);
            (Vec::new(), fc)
        } else {
            let c_local = layer.c / layer.groups;
            let slices = layer.k * c_local;
            assert!(
                stored_per_slice <= usize::from(u16::MAX),
                "{}: {stored_per_slice} stored weights per slice exceed the u16 slice counts",
                layer.name
            );
            let w = Binomial::new(stored_per_slice, weight_density).samples(
                &mut rng,
                slices,
                to_slice_nnz,
            );
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
        Binomial::new(tile_len, density).sample(&mut rng)
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

/// Binomial `(n, p)` sampler whose path is chosen once, at construction:
/// exact for small `n`, normal approximation above.
///
/// A workload draws one count per slice of a layer, with `n` and `p` the
/// same for every slice, so the range and path tests run once per layer,
/// not once per slice. Counts and the random stream are bit-identical to
/// drawing each slice's count with `gen_bool` trials (the `binomial` test
/// oracle): the exact path draws `n` numbers, the normal path two and a
/// constant path none.
#[derive(Clone, Copy, Debug)]
enum Binomial {
    /// `p ≤ 0` or `p ≥ 1`: the count is certain.
    Const(u32),
    /// `n` Bernoulli trials, each `(x >> 11) < threshold` with
    /// `threshold = ⌈p·2^53⌉`. That is `gen_bool(p)`'s test
    /// `(x >> 11)·2^-53 < p` with both sides scaled by `2^53`, which is
    /// exact for a power of two, so every trial agrees with `gen_bool`.
    Exact { n: usize, threshold: u64 },
    /// Box–Muller normal draw with mean `np` and deviation `sigma`, rounded
    /// and clamped to `[0, n]`.
    Normal { n: f64, np: f64, sigma: f64 },
}

impl Binomial {
    fn new(n: usize, p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p), "binomial p={p} out of [0,1]");
        if p <= 0.0 {
            return Self::Const(0);
        }
        if p >= 1.0 {
            return Self::Const(to_nnz(n));
        }
        let np = n as f64 * p;
        if n <= 64 || np < 10.0 || (n as f64 * (1.0 - p)) < 10.0 {
            const SCALE: f64 = (1u64 << 53) as f64;
            let threshold = count_from_f64((p * SCALE).ceil());
            Self::Exact { n, threshold }
        } else {
            let sigma = (np * (1.0 - p)).sqrt();
            Self::Normal {
                n: n as f64,
                np,
                sigma,
            }
        }
    }

    /// One count.
    #[inline]
    fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        match *self {
            Self::Const(count) => count,
            Self::Exact { n, threshold } => exact_count(rng, n, threshold),
            Self::Normal { n, np, sigma } => normal_count(rng, n, np, sigma),
        }
    }

    /// `count` counts, each passed through `convert`, with the path matched
    /// once outside the loop.
    fn samples<R: Rng, T: Clone>(
        &self,
        rng: &mut R,
        count: usize,
        convert: impl Fn(u32) -> T,
    ) -> Vec<T> {
        match *self {
            Self::Const(c) => vec![convert(c); count],
            Self::Exact { n, threshold } => (0..count)
                .map(|_| convert(exact_count(rng, n, threshold)))
                .collect(),
            Self::Normal { n, np, sigma } => (0..count)
                .map(|_| convert(normal_count(rng, n, np, sigma)))
                .collect(),
        }
    }
}

#[inline]
fn exact_count<R: Rng>(rng: &mut R, n: usize, threshold: u64) -> u32 {
    to_nnz(
        (0..n)
            .filter(|_| (rng.next_u64() >> 11) < threshold)
            .count(),
    )
}

#[inline]
fn normal_count<R: Rng>(rng: &mut R, n: f64, np: f64, sigma: f64) -> u32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    nnz_from_f64((np + sigma * z).round().clamp(0.0, n))
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
        let b = Binomial::new(10_000, 0.3);
        assert!(matches!(b, Binomial::Normal { .. }));
        let samples = b.samples(&mut rng, 500, f64::from);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 3000.0).abs() < 30.0, "mean={mean}");
    }

    /// The per-draw sampler `Binomial` replaces: every call repeats the
    /// path choice and draws each exact trial through `gen_bool`.
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

    fn path_name(b: &Binomial) -> &'static str {
        match b {
            Binomial::Const(_) => "const",
            Binomial::Exact { .. } => "exact",
            Binomial::Normal { .. } => "normal",
        }
    }

    #[test]
    fn binomial_matches_the_per_draw_oracle_count_for_count() {
        // (n, p, expected path): exact with n ≤ 64, exact with n > 64 on
        // either tail, normal, both constants, n = 0 and 1, tiny p and the
        // largest p below 1.
        let cases: [(usize, f64, &str); 16] = [
            (9, 0.35, "exact"),
            (5, 0.4, "exact"),
            (64, 0.5, "exact"),
            (1000, 0.005, "exact"),
            (1000, 0.995, "exact"),
            (4096, 0.1, "normal"),
            (10_000, 0.3, "normal"),
            (65, 0.5, "normal"),
            (9, 0.0, "const"),
            (9, 1.0, "const"),
            (10_000, 1.0, "const"),
            (0, 0.5, "exact"),
            (1, 0.5, "exact"),
            (9, 1e-300, "exact"),
            (9, f64::from_bits(1), "exact"),
            (9, 1.0 - 1e-16, "exact"),
        ];
        for (n, p, path) in cases {
            let b = Binomial::new(n, p);
            assert_eq!(path_name(&b), path, "n={n} p={p}");
            for seed in 0..64 {
                let mut oracle = StdRng::seed_from_u64(seed);
                let mut single = oracle.clone();
                let mut batch = oracle.clone();
                let want: Vec<u32> = (0..40).map(|_| binomial(&mut oracle, n, p)).collect();
                let one_by_one: Vec<u32> = (0..40).map(|_| b.sample(&mut single)).collect();
                let at_once = b.samples(&mut batch, 40, |x| x);
                assert_eq!(one_by_one, want, "sample: n={n} p={p} seed={seed}");
                assert_eq!(at_once, want, "samples: n={n} p={p} seed={seed}");
                assert_eq!(single, oracle, "stream position: n={n} p={p}");
                assert_eq!(batch, oracle, "stream position: n={n} p={p}");
            }
        }
    }

    #[test]
    fn exact_threshold_agrees_with_gen_bool_at_its_boundary() {
        /// A generator that returns one raw value forever.
        struct Fixed(u64);
        impl Rng for Fixed {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        // One draw on either side of the threshold: a threshold off by one
        // would almost never show in sampled counts.
        for p in [0.3, 0.5, 0.1 + 0.2, 1.0 - 1e-16, 1e-300, f64::from_bits(1)] {
            let Binomial::Exact { threshold, .. } = Binomial::new(9, p) else {
                panic!("p={p} takes the exact path");
            };
            for m in [threshold - 1, threshold] {
                let x = m << 11;
                let want = Fixed(x).gen_bool(p);
                assert_eq!(
                    exact_count(&mut Fixed(x), 1, threshold),
                    u32::from(want),
                    "p={p} m={m}"
                );
            }
        }
    }

    /// FNV-1a over a workload's per-slice and per-neuron counts.
    fn counts_hash(w: &LayerWorkload) -> u64 {
        let counts = w
            .weight_nnz
            .iter()
            .map(|&x| u32::from(x))
            .chain(w.fc_nnz.iter().copied());
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in counts.flat_map(u32::to_le_bytes) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    #[test]
    fn synthesized_counts_match_the_pinned_hashes() {
        // Seed 42, the harness seed. `GOLDEN` pins cycle and energy totals;
        // these pin the counts themselves, one layer per sampling path.
        let conv3 = LayerDesc::conv("conv3", 128, 256, 3, 3, 28, 28, 1, 1);
        let pointwise = LayerDesc::conv("pw", 256, 512, 1, 1, 14, 14, 1, 0);
        let fc = LayerDesc::fc("fc6", 9216, 4096);
        let cases = [
            (
                "dense 3x3",
                &conv3,
                1.0,
                false,
                "const",
                0xf0af_9dee_a746_2325u64,
            ),
            (
                "deep compression 3x3",
                &conv3,
                0.35,
                false,
                "exact",
                0xb019_baee_e106_fffc,
            ),
            (
                "centrosymmetric 3x3",
                &conv3,
                0.35,
                true,
                "exact",
                0x51cd_a5cb_cedd_2755,
            ),
            (
                "pointwise 1x1",
                &pointwise,
                0.3,
                false,
                "exact",
                0x36a3_349b_187a_e3d4,
            ),
            ("wide fc", &fc, 0.09, false, "normal", 0x0133_c7aa_d269_0a30),
        ];
        for (name, layer, density, centro, path, want) in cases {
            let w = LayerWorkload::synthesize(layer, density, 0.5, centro, 42);
            let n = if w.fc_nnz.is_empty() {
                w.stored_per_slice
            } else {
                layer.c
            };
            assert_eq!(path_name(&Binomial::new(n, density)), path, "{name}");
            let got = counts_hash(&w);
            assert_eq!(got, want, "{name}: counts hash {got:#018x}");
        }
    }
}
