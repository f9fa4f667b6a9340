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
use cscnn_sparse::centro;

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
    /// workload. Empty for FC layers, whose one row per output neuron is
    /// [`LayerWorkload::filter_nnz`].
    weight_nnz: Vec<u16>,
    /// Non-zero stored weights per filter `k` (its `c_per_group` slices
    /// summed; per output neuron for FC), filled during synthesis so
    /// planning and traffic never rescan the slice counts.
    filter_nnz: Vec<u64>,
    /// Sum of `filter_nnz`.
    total_weight_nnz: u64,
    seed: u64,
}

/// What one synthesis of a layer depends on besides the layer and the seed:
/// one variant of [`LayerWorkload::synthesize_each`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct WorkloadSpec {
    /// Density of stored weights.
    pub weight_density: f64,
    /// Density of input activations.
    pub act_density: f64,
    /// The scheme's centrosymmetric flag (see [`LayerWorkload::synthesize`]).
    pub centro: bool,
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
        let spec = WorkloadSpec {
            weight_density,
            act_density,
            centro,
        };
        let mut one = None;
        Self::synthesize_each(layer, &[spec], seed, |_, workload| one = Some(workload));
        one.expect("one spec gives one workload")
    }

    /// Synthesizes `layer` under each of `specs` from one seed and hands
    /// each workload to `visit` with its spec's index: the workload of
    /// `specs[i]` equals [`LayerWorkload::synthesize`] of it bit for bit.
    /// Every spec draws its slice counts from the same seeded stream, so
    /// two specs of exact trials with equal `n` (`Binomial::pairs_with`)
    /// share one slot-by-slot pass over it, each draw compared against
    /// both thresholds: on the 1×1 layers that hold most of a suite's
    /// draws, Deep Compression and CSCNN+Pruning pair this way. Every other
    /// spec takes its own pass from a fresh generator, and constant counts
    /// draw nothing. One plan's workloads are visited, in spec order,
    /// before the next plan is drawn, so at most two workloads are alive
    /// at a time.
    ///
    /// # Panics
    ///
    /// As [`LayerWorkload::synthesize`], for any spec.
    pub(crate) fn synthesize_each(
        layer: &LayerDesc,
        specs: &[WorkloadSpec],
        seed: u64,
        mut visit: impl FnMut(usize, Self),
    ) {
        let fc = layer.kind == cscnn_models::LayerKind::FullyConnected;
        let geom = &layer.geom;
        let rs = geom.r * geom.s;
        let c_local = geom.c / geom.groups;
        let shapes: Vec<(bool, usize, Binomial)> = specs
            .iter()
            .map(|spec| {
                assert!(
                    (0.0..=1.0).contains(&spec.weight_density),
                    "weight density in [0,1]"
                );
                assert!(
                    (0.0..=1.0).contains(&spec.act_density),
                    "act density in [0,1]"
                );
                let effective_centro = spec.centro && geom.centro_eligible();
                let stored_per_slice = if effective_centro {
                    centro::unique_weight_count(geom.r, geom.s)
                } else {
                    rs
                };
                let n = if fc {
                    geom.c
                } else {
                    assert!(
                        stored_per_slice <= usize::from(u16::MAX),
                        "{}: {stored_per_slice} stored weights per slice exceed the u16 slice counts",
                        layer.name
                    );
                    stored_per_slice
                };
                let binomial = Binomial::new(n, spec.weight_density);
                (effective_centro, stored_per_slice, binomial)
            })
            .collect();
        // Draw plans in spec order: two exact specs with equal `n` share
        // one pass, and every other spec takes its own.
        let mut plans: Vec<Vec<usize>> = Vec::new();
        for (i, (_, _, b)) in shapes.iter().enumerate() {
            let pairs = |p: &&mut Vec<usize>| p.len() == 1 && shapes[p[0]].2.pairs_with(b);
            match plans.iter_mut().find(pairs) {
                Some(plan) => plan.push(i),
                None => plans.push(vec![i]),
            }
        }
        for plan in plans {
            let bins: Vec<Binomial> = plan.iter().map(|&i| shapes[i].2).collect();
            let rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
            // Per spec: slice counts and the per-filter sums. An FC row is
            // one slot, the neuron's count, so its sum is all it keeps.
            let counts = if fc {
                let drawn = draw_rows(&bins, rng, geom.k, 1, |_| ());
                drawn
                    .into_iter()
                    .map(|(_, sums)| (Vec::new(), sums))
                    .collect()
            } else {
                draw_rows(&bins, rng, geom.k, c_local, to_slice_nnz)
            };
            for (&i, (weight_nnz, filter_nnz)) in plan.iter().zip(counts) {
                let (centro, stored_per_slice, _) = shapes[i];
                let spec = &specs[i];
                let workload = LayerWorkload {
                    layer: layer.clone(),
                    weight_density: spec.weight_density,
                    act_density: spec.act_density,
                    centro,
                    stored_per_slice,
                    weight_nnz,
                    total_weight_nnz: filter_nnz.iter().sum(),
                    filter_nnz,
                    seed,
                };
                visit(i, workload);
            }
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
        let positions = desc.geom.r * desc.geom.s;
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
        self.layer.geom.c / self.layer.geom.groups
    }

    /// Non-zero stored weights in the `(k, c_local)` slice.
    ///
    /// # Panics
    ///
    /// Panics for FC layers or out-of-range indices.
    pub fn weight_nnz(&self, k: usize, c_local: usize) -> u32 {
        u32::from(self.weight_nnz[k * self.c_per_group() + c_local])
    }

    /// Total non-zero stored weights in this layer.
    pub fn total_weight_nnz(&self) -> u64 {
        self.total_weight_nnz
    }

    /// Non-zero stored weights of filter `k` (summed over its input
    /// channels; those feeding output neuron `k` of an FC layer) — the
    /// quantity density-sorted load balancing uses.
    pub fn filter_nnz(&self, k: usize) -> u64 {
        self.filter_nnz[k]
    }

    /// [`LayerWorkload::filter_nnz`] of every filter, indexed by `k`.
    pub(crate) fn filter_nnz_all(&self) -> &[u64] {
        &self.filter_nnz
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
        let z = standard_normal(&mut rng);
        let factor = (1.0 + sigma * z).clamp(0.3, 1.7);
        let density = (self.act_density * factor).clamp(0.0, 1.0);
        Binomial::new(tile_len, density).sample(&mut rng)
    }

    /// Total non-zero input activations (expected value, used for traffic).
    pub fn total_act_nnz(&self) -> u64 {
        count_from_f64((self.layer.geom.input_activations() as f64 * self.act_density).round())
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

    /// Whether `self` and `other` can share each draw of one pass: both
    /// exact with equal, non-zero `n`, so both take `n` draws per count
    /// from the same stream and differ in their thresholds only.
    fn pairs_with(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Exact { n: a, .. }, Self::Exact { n: b, .. }) => a == b && *a > 0,
            _ => false,
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

    /// Fills `out` with one count per element, each passed through
    /// `convert`, and returns the counts' sum, with the path matched once
    /// outside the loop. A single trial (`n = 1`, every slice of a 1×1
    /// conv) is one draw and one compare per element.
    fn fill<R: Rng, T: Copy>(&self, rng: &mut R, out: &mut [T], convert: impl Fn(u32) -> T) -> u64 {
        let mut sum = 0;
        let mut put = |slot: &mut T, count: u32| {
            sum += u64::from(count);
            *slot = convert(count);
        };
        match *self {
            Self::Const(c) => {
                out.fill(convert(c));
                return u64::from(c) * to_count(out.len());
            }
            Self::Exact { n: 1, threshold } => {
                for slot in out {
                    put(slot, u32::from((rng.next_u64() >> 11) < threshold));
                }
            }
            Self::Exact { n, threshold } => {
                for slot in out {
                    put(slot, exact_count(rng, n, threshold));
                }
            }
            Self::Normal { n, np, sigma } => {
                for slot in out {
                    put(slot, normal_count(rng, n, np, sigma));
                }
            }
        }
        sum
    }
}

/// `n` Bernoulli trials, one draw each, counted without a branch.
#[inline]
fn exact_count<R: Rng>(rng: &mut R, n: usize, threshold: u64) -> u32 {
    let mut c = 0u32;
    for _ in 0..n {
        c += u32::from((rng.next_u64() >> 11) < threshold);
    }
    c
}

#[inline]
fn normal_count<R: Rng>(rng: &mut R, n: f64, np: f64, sigma: f64) -> u32 {
    let z = standard_normal(rng);
    nnz_from_f64((np + sigma * z).round().clamp(0.0, n))
}

/// One Box–Muller standard normal from two uniform draws.
#[inline]
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws `rows` rows of `row_len` counts for each binomial of one draw
/// plan from `rng`'s stream, and returns each binomial's counts, passed
/// through `convert`, with its per-row sums. A plan is a lone binomial,
/// which fills row by row with `Binomial::fill` (a constant is written
/// once, without draws), or two that
/// `Binomial::pairs_with` each other, which share each draw in one fused
/// loop.
fn draw_rows<R: Rng, T: Copy>(
    bins: &[Binomial],
    mut rng: R,
    rows: usize,
    row_len: usize,
    convert: impl Fn(u32) -> T + Copy,
) -> Vec<(Vec<T>, Vec<u64>)> {
    let slots = rows * row_len;
    match *bins {
        // A certain count: no draws, and every row sums alike.
        [Binomial::Const(c)] => {
            vec![(
                vec![convert(c); slots],
                vec![u64::from(c) * to_count(row_len); rows],
            )]
        }
        [bin] => {
            let mut out = vec![convert(0); slots];
            let sums = out
                .chunks_exact_mut(row_len)
                .map(|row| bin.fill(&mut rng, row, convert))
                .collect();
            vec![(out, sums)]
        }
        [Binomial::Exact { n, threshold: t0 }, Binomial::Exact { threshold: t1, .. }] => {
            let (mut out0, mut out1) = (vec![convert(0); slots], vec![convert(0); slots]);
            let (mut sums0, mut sums1) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
            let rows0 = out0.chunks_exact_mut(row_len);
            for (row0, row1) in rows0.zip(out1.chunks_exact_mut(row_len)) {
                let (sum0, sum1) = count_pair(&mut rng, n, [t0, t1], row0, row1, convert);
                sums0.push(sum0);
                sums1.push(sum1);
            }
            vec![(out0, sums0), (out1, sums1)]
        }
        _ => unreachable!("a draw plan is one binomial or an exact pair"),
    }
}

/// One row of exact counts for two thresholds, `n` trials a slot, each
/// draw compared against both; returns the two row sums. The generator
/// and the rows are separate `&mut` arguments, so the compiler knows they
/// do not alias and keeps the generator's state in registers.
fn count_pair<R: Rng, T>(
    rng: &mut R,
    n: usize,
    [t0, t1]: [u64; 2],
    row0: &mut [T],
    row1: &mut [T],
    convert: impl Fn(u32) -> T,
) -> (u64, u64) {
    let (mut sum0, mut sum1) = (0, 0);
    let mut put = |slot0: &mut T, slot1: &mut T, (c0, c1): (u32, u32)| {
        sum0 += u64::from(c0);
        sum1 += u64::from(c1);
        *slot0 = convert(c0);
        *slot1 = convert(c1);
    };
    let slots = row0.iter_mut().zip(row1);
    if n == 1 {
        // The single trial of a 1×1 conv, most of all draws: no inner loop.
        for (slot0, slot1) in slots {
            let x = rng.next_u64() >> 11;
            put(slot0, slot1, (u32::from(x < t0), u32::from(x < t1)));
        }
    } else {
        for (slot0, slot1) in slots {
            let (mut c0, mut c1) = (0, 0);
            for _ in 0..n {
                let x = rng.next_u64() >> 11;
                c0 += u32::from(x < t0);
                c1 += u32::from(x < t1);
            }
            put(slot0, slot1, (c0, c1));
        }
    }
    (sum0, sum1)
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
        // Even kernels have no self-dual center: 2 of 4 positions stored.
        let even = LayerDesc::conv("e", 8, 16, 2, 2, 14, 14, 1, 0);
        let we = LayerWorkload::synthesize(&even, 1.0, 0.5, true, 1);
        assert_eq!(we.stored_per_slice, 2);
        assert!(we.centro);
        // A 1×1 kernel is its own dual: not centro, its one weight stored.
        let pointwise = LayerDesc::conv("p", 8, 16, 1, 1, 14, 14, 1, 0);
        let wp = LayerWorkload::synthesize(&pointwise, 1.0, 0.5, true, 1);
        assert_eq!(wp.stored_per_slice, 1);
        assert!(!wp.centro, "1x1 layers gain nothing");
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
        let mean: f64 = (0..64)
            .map(|c| w.act_tile_nnz(c, 0, 196) as f64)
            .sum::<f64>()
            / 64.0;
        assert!((mean - 98.0).abs() < 10.0, "mean={mean}");
        // One activation pattern per tile: workloads of one layer and seed
        // that differ in weight density and centrosymmetric storage (as
        // SCNN's and CSCNN's do) but share the activation density see the
        // same count for every query, so the two machines compare on equal
        // activations.
        for (density, centro) in [(0.0, false), (0.35, true), (0.6, false), (1.0, true)] {
            let other = LayerWorkload::synthesize(&conv_layer(), density, 0.5, centro, 4);
            for c in 0..64 {
                for (tile_id, tile_len) in [(0, 196), (1, 196), (3, 49), (17, 7), (0, 784)] {
                    assert_eq!(
                        other.act_tile_nnz(c, tile_id, tile_len),
                        w.act_tile_nnz(c, tile_id, tile_len),
                        "density {density}, centro {centro}: ({c}, {tile_id}, {tile_len})"
                    );
                }
            }
        }
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
        let mean: f64 = (0..256).map(|k| w.filter_nnz(k) as f64).sum::<f64>() / 256.0;
        assert!((mean - 102.4).abs() < 10.0, "mean={mean}");
        assert!((0..256).all(|k| w.filter_nnz(k) <= 1024));
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
        let mut samples = vec![0.0; 500];
        b.fill(&mut rng, &mut samples, f64::from);
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
        // either tail, normal, both constants, n = 0, the single-trial arm
        // (n = 1) across p, tiny p and the largest p below 1.
        let cases: [(usize, f64, &str); 20] = [
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
            (1, 1e-300, "exact"),
            (1, 0.02, "exact"),
            (1, 0.98, "exact"),
            (1, 1.0 - 1e-16, "exact"),
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
                let mut at_once = vec![0; 40];
                let sum = b.fill(&mut batch, &mut at_once, |x| x);
                assert_eq!(
                    sum,
                    want.iter().map(|&x| u64::from(x)).sum(),
                    "sum: n={n} p={p}"
                );
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
                // The single-trial arm makes the same compare.
                let mut single = [0];
                Binomial::new(1, p).fill(&mut Fixed(x), &mut single, |c| c);
                assert_eq!(single, [u32::from(want)], "n=1: p={p} m={m}");
            }
        }
    }

    #[test]
    fn stored_totals_match_a_full_scan_of_the_counts() {
        // (layer, weight density, centro, expected path of the slice counts).
        let cases = [
            (conv_layer(), 1.0, false, "const"),
            (conv_layer(), 0.0, false, "const"),
            (
                LayerDesc::conv("pw", 96, 40, 1, 1, 14, 14, 1, 0),
                0.3,
                false,
                "exact",
            ),
            (conv_layer(), 0.35, false, "exact"),
            (conv_layer(), 0.35, true, "exact"),
            (
                LayerDesc::conv("k11", 3, 24, 11, 11, 56, 56, 4, 2),
                0.5,
                false,
                "normal",
            ),
            (
                LayerDesc::grouped("g4", 64, 32, 3, 3, 14, 14, 1, 1, 4),
                0.4,
                false,
                "exact",
            ),
            (
                LayerDesc::grouped("dw", 48, 48, 3, 3, 14, 14, 1, 1, 48),
                0.6,
                true,
                "exact",
            ),
            (LayerDesc::fc("fc", 1024, 96), 0.1, false, "normal"),
            (LayerDesc::fc("fc_tiny", 40, 12), 0.2, false, "exact"),
        ];
        for (layer, density, centro, path) in &cases {
            let fc = layer.kind == cscnn_models::LayerKind::FullyConnected;
            for seed in [1, 7, 42, 1234] {
                let w = LayerWorkload::synthesize(layer, *density, 0.5, *centro, seed);
                let n = if fc { layer.geom.c } else { w.stored_per_slice };
                let name = &layer.name;
                assert_eq!(path_name(&Binomial::new(n, *density)), *path, "{name}");
                if fc {
                    // An FC row is one slot: its filter total is its count.
                    assert!(w.weight_nnz.is_empty(), "{name}");
                    assert_eq!(w.filter_nnz_all().len(), layer.geom.k, "{name}");
                    let sum: u64 = w.filter_nnz_all().iter().sum();
                    assert_eq!(w.total_weight_nnz(), sum, "{name} seed={seed}");
                    continue;
                }
                let scanned: Vec<u64> = (0..layer.geom.k)
                    .map(|k| {
                        (0..w.c_per_group())
                            .map(|c| u64::from(w.weight_nnz(k, c)))
                            .sum()
                    })
                    .collect();
                assert_eq!(w.filter_nnz_all(), scanned, "{name} seed={seed}");
                for (k, &want) in scanned.iter().enumerate() {
                    assert_eq!(w.filter_nnz(k), want, "{name} seed={seed} k={k}");
                }
                let slices: u64 = w.weight_nnz.iter().map(|&x| u64::from(x)).sum();
                assert_eq!(w.total_weight_nnz(), slices, "{name} seed={seed}");
            }
        }
    }

    /// FNV-1a over a workload's per-slice counts, or an FC layer's
    /// per-neuron counts as `u32`s.
    fn counts_hash(w: &LayerWorkload) -> u64 {
        let fc = w.layer.kind == cscnn_models::LayerKind::FullyConnected;
        let per_neuron: &[u64] = if fc { &w.filter_nnz } else { &[] };
        let counts = w
            .weight_nnz
            .iter()
            .map(|&x| u32::from(x))
            .chain(per_neuron.iter().map(|&x| to_nnz(x)));
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
            let n = if layer.kind == cscnn_models::LayerKind::FullyConnected {
                layer.geom.c
            } else {
                w.stored_per_slice
            };
            assert_eq!(path_name(&Binomial::new(n, density)), path, "{name}");
            let got = counts_hash(&w);
            assert_eq!(got, want, "{name}: counts hash {got:#018x}");
        }
    }

    /// A seeded random layer for the joint-synthesis property: dense,
    /// grouped and depthwise convs (1×1, 3×3, 5×5 and 11×11 kernels at
    /// stride 1 or 2) and FC layers from 1 to 1200 inputs.
    fn random_layer(rng: &mut StdRng) -> LayerDesc {
        if rng.gen_bool(0.25) {
            let inputs = [1, 5, 40, 200, 1200][rng.gen_range(0usize..5)];
            return LayerDesc::fc("fc", inputs, rng.gen_range(1usize..=24));
        }
        let kernel = [1, 1, 3, 5, 11][rng.gen_range(0usize..5)];
        let stride = 1 + usize::from(rng.gen_bool(0.3));
        let groups = [1, 1, 2, 3][rng.gen_range(0usize..4)];
        let (c, k) = if rng.gen_bool(0.2) {
            let c = groups * rng.gen_range(2usize..=8);
            (c, c)
        } else {
            let c = groups * rng.gen_range(1usize..=8);
            (c, groups * rng.gen_range(1usize..=8))
        };
        let hw = kernel + rng.gen_range(0usize..8);
        let groups = if c == k && rng.gen_bool(0.5) {
            c
        } else {
            groups
        };
        LayerDesc::grouped("conv", c, k, kernel, kernel, hw, hw, stride, 0, groups)
    }

    #[test]
    fn joint_synthesis_matches_solo_synthesis() {
        // Densities that reach every path: constants (0 and 1), exact
        // trials on either tail and in the middle, and normal draws on wide
        // kernels and FC layers; repeats make exact specs pair up.
        const DENSITIES: [f64; 8] = [0.0, 1.0, 0.02, 0.3, 0.35, 0.5, 0.9, 0.97];
        let mut rng = StdRng::seed_from_u64(0x10_1775);
        let mut seen = std::collections::HashSet::new();
        for case in 0..400 {
            let layer = random_layer(&mut rng);
            let specs: Vec<WorkloadSpec> = (0..rng.gen_range(1usize..=4))
                .map(|_| WorkloadSpec {
                    weight_density: if rng.gen_bool(0.8) {
                        DENSITIES[rng.gen_range(0usize..DENSITIES.len())]
                    } else {
                        rng.gen_range(0.0..=1.0)
                    },
                    act_density: rng.gen_range(0.0..=1.0),
                    centro: rng.gen_bool(0.5),
                })
                .collect();
            let seed = rng.gen_range(0u64..1 << 40);
            let mut visits = vec![0; specs.len()];
            LayerWorkload::synthesize_each(&layer, &specs, seed, |i, joint| {
                visits[i] += 1;
                let spec = specs[i];
                let (w, a) = (spec.weight_density, spec.act_density);
                let solo = LayerWorkload::synthesize(&layer, w, a, spec.centro, seed);
                let at = format!("case {case}: spec {i} of {specs:?} on {layer:?}");
                assert_eq!(joint.layer, solo.layer, "{at}");
                assert_eq!(joint.weight_density.to_bits(), w.to_bits(), "{at}");
                assert_eq!(joint.act_density.to_bits(), a.to_bits(), "{at}");
                assert_eq!(joint.centro, solo.centro, "{at}");
                assert_eq!(joint.stored_per_slice, solo.stored_per_slice, "{at}");
                assert_eq!(joint.weight_nnz, solo.weight_nnz, "{at}");
                assert_eq!(joint.filter_nnz, solo.filter_nnz, "{at}");
                assert_eq!(joint.total_weight_nnz, solo.total_weight_nnz, "{at}");
                assert_eq!(joint.seed, solo.seed, "{at}");
                let fc = layer.kind == cscnn_models::LayerKind::FullyConnected;
                let binomial = |s: &WorkloadSpec| {
                    let rs = layer.geom.r * layer.geom.s;
                    let n = match (fc, s.centro && layer.geom.centro_eligible()) {
                        (true, _) => layer.geom.c,
                        (false, true) => rs.div_ceil(2),
                        (false, false) => rs,
                    };
                    (n, Binomial::new(n, s.weight_density))
                };
                let (n, own) = binomial(&spec);
                assert_eq!(
                    n,
                    if fc {
                        layer.geom.c
                    } else {
                        solo.stored_per_slice
                    }
                );
                let path = path_name(&own);
                let alike = specs
                    .iter()
                    .filter(|s| {
                        let (m, other) = binomial(s);
                        m == n && path_name(&other) == path
                    })
                    .count();
                seen.insert((path, n == 1, alike.min(3)));
            });
            assert_eq!(visits, vec![1; specs.len()], "case {case}: each spec once");
        }
        // Every drawing path ran alone and beside specs of its own path and
        // `n`: exact pairs share their draws, a third exact spec and every
        // normal one take their own pass; single trials included.
        for want in [
            ("const", false, 1),
            ("exact", false, 1),
            ("exact", false, 2),
            ("exact", false, 3),
            ("exact", true, 1),
            ("exact", true, 2),
            ("exact", true, 3),
            ("normal", false, 1),
            ("normal", false, 2),
        ] {
            assert!(seen.contains(&want), "{want:?} not covered: {seen:?}");
        }
    }
}
