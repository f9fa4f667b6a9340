//! Cycle-by-cycle micro-architectural PE simulation.
//!
//! [`crate::pe::CartesianPe`] is the *fast* model: closed-form rounds per
//! channel with a pre-calibrated stall factor. This module is the *detailed*
//! model: it walks actual compressed weight/activation fibers through the
//! PE pipeline one cycle at a time — front-end vector fetch, CCU coordinate
//! computation (Fig. 6's `Xcoord0/Ycoord0` and the dual `Xcoord1/Ycoord1`),
//! the scatter crossbar(s), and banked accumulator FIFOs — and *verifies the
//! computed partial sums* against a reference convolution.
//!
//! The fast model is validated against this one in tests (they must agree
//! on work counts exactly and on cycles within a calibration tolerance);
//! the detailed model is what gives the calibrated constants their
//! grounding.

use crate::crossbar::bank_hash;
use crate::energy::EnergyCounters;
use crate::error::SimError;
use crate::util::to_count;

/// FIFO depth per accumulator bank (matches [`crate::crossbar`]).
const FIFO_DEPTH: usize = 6;

/// A weight entry in the PE's weight buffer: output channel and kernel
/// coordinates, plus the value for result verification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightEntry {
    /// Output channel (`k`).
    pub k: u16,
    /// Kernel row (`r`).
    pub r: u8,
    /// Kernel column (`s`).
    pub s: u8,
    /// Weight value.
    pub value: f32,
}

/// One input channel's worth of PE work: the channel's non-zero weights
/// (across all filters assigned to the PE) and non-zero activations (in the
/// PE's tile).
#[derive(Clone, Debug, Default)]
pub struct ChannelFibers {
    /// Non-zero weights in `(k, r, s)` fiber order.
    pub weights: Vec<WeightEntry>,
    /// Non-zero activations as `(x, y, value)`.
    pub acts: Vec<(u16, u16, f32)>,
}

/// Static description of the PE assignment being simulated.
#[derive(Clone, Copy, Debug)]
pub struct PeGeometry {
    /// Weight-vector width (`Px`).
    pub px: usize,
    /// Activation-vector width (`Py`).
    pub py: usize,
    /// Kernel height (`R`).
    pub kernel_h: usize,
    /// Kernel width (`S`).
    pub kernel_w: usize,
    /// Activation tile height.
    pub tile_h: usize,
    /// Activation tile width.
    pub tile_w: usize,
    /// Number of output channels the PE computes.
    pub k_count: usize,
    /// CSCNN multiplication reuse (dual accumulation) enabled.
    pub dual: bool,
}

impl PeGeometry {
    /// Halo-extended accumulator plane height (`T_h + R - 1`).
    pub fn acc_h(&self) -> usize {
        self.tile_h + self.kernel_h - 1
    }

    /// Halo-extended accumulator plane width (`T_w + S - 1`).
    pub fn acc_w(&self) -> usize {
        self.tile_w + self.kernel_w - 1
    }
}

/// Result of a detailed PE run.
#[derive(Clone, Debug)]
pub struct DetailedResult {
    /// Total cycles including stalls and the final drain.
    pub cycles: u64,
    /// Cycles lost to accumulator-bank FIFO back-pressure.
    pub stall_cycles: u64,
    /// Event counts (compatible with the fast model's counters).
    pub counters: EnergyCounters,
    /// The accumulated partial-sum planes, `[k][acc_h * acc_w]`, for
    /// verification against a reference convolution.
    pub partial_sums: Vec<Vec<f32>>,
}

/// The coordinate-computation unit (Fig. 6): output coordinates of a
/// product in the halo-extended accumulator plane.
///
/// Buffer 0 receives the ordinary contribution at
/// `(x + R-1-r, y + S-1-s)`; buffer 1 (CSCNN only) receives the dual
/// weight's contribution at `(x + r, y + s)`. For the self-dual central
/// weight the CCU emits *nil* (no dual accumulation).
pub fn ccu_coords(
    geo: &PeGeometry,
    w: &WeightEntry,
    x: usize,
    y: usize,
) -> ((usize, usize), Option<(usize, usize)>) {
    let (r, s) = (usize::from(w.r), usize::from(w.s));
    let primary = (x + geo.kernel_h - 1 - r, y + geo.kernel_w - 1 - s);
    let dual = if geo.dual {
        let self_dual = r * 2 == geo.kernel_h - 1 && s * 2 == geo.kernel_w - 1;
        if self_dual {
            None
        } else {
            Some((x + r, y + s))
        }
    } else {
        None
    };
    (primary, dual)
}

/// Runs the detailed simulation of one PE over all input channels.
///
/// # Errors
///
/// Returns [`SimError::FiberOutOfRange`] if any fiber coordinate is out of
/// range for the geometry (malformed compressed data must not silently
/// corrupt accounting, and the hot path must not panic).
pub fn simulate_detailed(
    geo: &PeGeometry,
    channels: &[ChannelFibers],
) -> Result<DetailedResult, SimError> {
    let banks = 2 * geo.px * geo.py;
    let buffers = if geo.dual { 2 } else { 1 };
    let acc_len = geo.acc_h() * geo.acc_w();
    let mut partial_sums = vec![vec![0.0f32; acc_len]; geo.k_count];
    // Per-buffer, per-bank FIFO occupancy (timing only; values are applied
    // immediately for verification — bank conflicts delay, not reorder).
    let mut fifos = vec![vec![0usize; banks]; buffers];
    let mut cycles: u64 = 0;
    let mut stalls: u64 = 0;
    let mut c = EnergyCounters::default();

    for fibers in channels {
        if fibers.weights.is_empty() || fibers.acts.is_empty() {
            continue;
        }
        // Channel setup: fiber pointer swap (matches the fast model).
        cycles += crate::util::cycles_from_f64(crate::pe::CHANNEL_SETUP_CYCLES);
        // Input-stationary order: hold an activation vector, stream all
        // weight vectors past it.
        for act_vec in fibers.acts.chunks(geo.py) {
            c.ib_reads += to_count(geo.py);
            for w_vec in fibers.weights.chunks(geo.px) {
                c.wb_reads += to_count(geo.px);
                c.index_reads += to_count(geo.px);
                // Compute all products of the round and their bank targets.
                let mut incoming = vec![vec![0usize; banks]; buffers];
                for w in w_vec {
                    let (r, sc, k) = (usize::from(w.r), usize::from(w.s), usize::from(w.k));
                    if r >= geo.kernel_h {
                        return Err(fiber_err("weight kernel row", r, geo.kernel_h));
                    }
                    if sc >= geo.kernel_w {
                        return Err(fiber_err("weight kernel column", sc, geo.kernel_w));
                    }
                    if k >= geo.k_count {
                        return Err(fiber_err("weight output channel", k, geo.k_count));
                    }
                    for &(x, y, a) in act_vec {
                        let (xi, yi) = (usize::from(x), usize::from(y));
                        if xi >= geo.tile_h {
                            return Err(fiber_err("activation row", xi, geo.tile_h));
                        }
                        if yi >= geo.tile_w {
                            return Err(fiber_err("activation column", yi, geo.tile_w));
                        }
                        let product = w.value * a;
                        c.mults += 1;
                        let (p, dual) = ccu_coords(geo, w, xi, yi);
                        let addr = p.0 * geo.acc_w() + p.1;
                        partial_sums[k][addr] += product;
                        c.adds += 1;
                        c.ab_accesses += 1;
                        c.crossbar_words += 1;
                        c.ccu_ops += 1;
                        incoming[0][bank_hash(k, p.0, p.1, banks)] += 1;
                        if let Some(d) = dual {
                            let daddr = d.0 * geo.acc_w() + d.1;
                            partial_sums[k][daddr] += product;
                            c.adds += 1;
                            c.ab_accesses += 1;
                            c.crossbar_words += 1;
                            c.ccu_ops += 1;
                            incoming[1][bank_hash(k, d.0, d.1, banks)] += 1;
                        }
                    }
                }
                // Timing: stall until every target FIFO can absorb the
                // round, draining one entry per bank per cycle.
                loop {
                    let fits = fifos.iter().zip(&incoming).all(|(f, inc)| {
                        f.iter()
                            .zip(inc)
                            .all(|(&q, &i)| q + i <= FIFO_DEPTH || (q == 0 && i > FIFO_DEPTH))
                    });
                    cycles += 1;
                    for f in &mut fifos {
                        for q in f.iter_mut() {
                            *q = q.saturating_sub(1);
                        }
                    }
                    if fits {
                        for (f, inc) in fifos.iter_mut().zip(&incoming) {
                            for (q, &i) in f.iter_mut().zip(inc) {
                                *q += i;
                            }
                        }
                        break;
                    }
                    stalls += 1;
                }
            }
        }
    }
    // Drain the accumulator planes through the PPU into the OB.
    let outputs = to_count(geo.k_count * acc_len);
    let drain_ops: u64 = if geo.dual { 3 } else { 1 };
    c.ob_writes += outputs;
    c.ppu_ops += outputs * drain_ops;
    c.ab_accesses += outputs * drain_ops;
    cycles += outputs / to_count(geo.px * geo.py);
    Ok(DetailedResult {
        cycles,
        stall_cycles: stalls,
        counters: c,
        partial_sums,
    })
}

#[inline]
fn fiber_err(what: &'static str, got: usize, limit: usize) -> SimError {
    SimError::FiberOutOfRange { what, got, limit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::CartesianPe;
    use crate::util::{to_coord, to_lane};
    use cscnn_sparse::sample;
    use cscnn_sparse::SparseSlice;

    /// Builds [`ChannelFibers`] from per-channel sparse slices: one weight
    /// slice per `(k)` filter for this channel and the channel's activation
    /// tile.
    fn fibers_from_slices(weight_slices: &[SparseSlice], act_tile: &SparseSlice) -> ChannelFibers {
        let mut weights = Vec::new();
        for (k, slice) in weight_slices.iter().enumerate() {
            for (r, s, v) in slice.iter() {
                weights.push(WeightEntry {
                    k: to_lane(k),
                    r: to_coord(r),
                    s: to_coord(s),
                    value: v,
                });
            }
        }
        let acts = act_tile
            .iter()
            .map(|(x, y, v)| (to_lane(x), to_lane(y), v))
            .collect();
        ChannelFibers { weights, acts }
    }

    /// Reference full-mode convolution of one channel into halo-extended
    /// partial-sum planes — the functional ground truth the detailed PE must
    /// reproduce.
    fn reference_partial_sums(geo: &PeGeometry, channels: &[ChannelFibers]) -> Vec<Vec<f32>> {
        let acc_len = geo.acc_h() * geo.acc_w();
        let mut out = vec![vec![0.0f32; acc_len]; geo.k_count];
        for fibers in channels {
            for w in &fibers.weights {
                let (r, s) = (usize::from(w.r), usize::from(w.s));
                for &(x, y, a) in &fibers.acts {
                    let (xi, yi) = (usize::from(x), usize::from(y));
                    let ox = xi + geo.kernel_h - 1 - r;
                    let oy = yi + geo.kernel_w - 1 - s;
                    out[usize::from(w.k)][ox * geo.acc_w() + oy] += w.value * a;
                    if geo.dual {
                        // The dual weight has the same value; its contribution
                        // lands at the mirrored offset (Eq. 3) — unless this is
                        // the self-dual center.
                        let self_dual = r * 2 == geo.kernel_h - 1 && s * 2 == geo.kernel_w - 1;
                        if !self_dual {
                            out[usize::from(w.k)][(xi + r) * geo.acc_w() + (yi + s)] += w.value * a;
                        }
                    }
                }
            }
        }
        out
    }

    fn geometry(dual: bool) -> PeGeometry {
        PeGeometry {
            px: 4,
            py: 4,
            kernel_h: 3,
            kernel_w: 3,
            tile_h: 12,
            tile_w: 12,
            k_count: 4,
            dual,
        }
    }

    fn random_channels(
        geo: &PeGeometry,
        n: usize,
        wd: f64,
        ad: f64,
        seed: u64,
    ) -> Vec<ChannelFibers> {
        let mut rng = sample::rng(seed);
        (0..n)
            .map(|_| {
                let slices: Vec<SparseSlice> = (0..geo.k_count)
                    .map(|_| {
                        if geo.dual {
                            // CSCNN stores unique weights: sample over the
                            // canonical half by sampling a centro slice and
                            // keeping the unique positions.
                            let full =
                                sample::centro_slice(&mut rng, geo.kernel_h, geo.kernel_w, wd);
                            let dense = full.to_dense();
                            let mut half = vec![0.0f32; dense.len()];
                            for (u, v) in
                                cscnn_sparse::centro::unique_positions(geo.kernel_h, geo.kernel_w)
                            {
                                half[u * geo.kernel_w + v] = dense[u * geo.kernel_w + v];
                            }
                            SparseSlice::from_dense(&half, geo.kernel_h, geo.kernel_w)
                        } else {
                            sample::bernoulli_slice(&mut rng, geo.kernel_h, geo.kernel_w, wd)
                        }
                    })
                    .collect();
                let acts = sample::bernoulli_slice(&mut rng, geo.tile_h, geo.tile_w, ad);
                fibers_from_slices(&slices, &acts)
            })
            .collect()
    }

    #[test]
    fn partial_sums_match_reference_scnn_mode() {
        let geo = geometry(false);
        let channels = random_channels(&geo, 6, 0.5, 0.5, 1);
        let result = simulate_detailed(&geo, &channels).expect("fibers in range");
        let reference = reference_partial_sums(&geo, &channels);
        for (got, want) in result.partial_sums.iter().zip(&reference) {
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-4, "partial sum mismatch");
            }
        }
    }

    #[test]
    fn partial_sums_match_reference_cscnn_mode() {
        let geo = geometry(true);
        let channels = random_channels(&geo, 6, 0.6, 0.5, 2);
        let result = simulate_detailed(&geo, &channels).expect("fibers in range");
        let reference = reference_partial_sums(&geo, &channels);
        for (got, want) in result.partial_sums.iter().zip(&reference) {
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-4, "dual partial sum mismatch");
            }
        }
    }

    #[test]
    fn dual_mode_equals_expanded_filter_convolution() {
        // The CSCNN PE computing with unique weights + dual scatter must
        // produce the same partial sums as an SCNN PE computing with the
        // fully expanded centrosymmetric filter.
        let geo_dual = geometry(true);
        let channels_dual = random_channels(&geo_dual, 3, 0.7, 0.6, 3);
        // Expand: for each channel, mirror every non-central weight.
        let geo_full = geometry(false);
        let channels_full: Vec<ChannelFibers> = channels_dual
            .iter()
            .map(|f| {
                let mut weights = Vec::new();
                for w in &f.weights {
                    weights.push(*w);
                    let self_dual = (w.r as usize) * 2 == geo_full.kernel_h - 1
                        && (w.s as usize) * 2 == geo_full.kernel_w - 1;
                    if !self_dual {
                        weights.push(WeightEntry {
                            k: w.k,
                            r: (geo_full.kernel_h - 1 - w.r as usize) as u8,
                            s: (geo_full.kernel_w - 1 - w.s as usize) as u8,
                            value: w.value,
                        });
                    }
                }
                ChannelFibers {
                    weights,
                    acts: f.acts.clone(),
                }
            })
            .collect();
        let dual = simulate_detailed(&geo_dual, &channels_dual).expect("fibers in range");
        let full = simulate_detailed(&geo_full, &channels_full).expect("fibers in range");
        for (a, b) in dual.partial_sums.iter().zip(&full.partial_sums) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-4, "reuse must be numerically exact");
            }
        }
        // The dual PE does strictly fewer multiplications…
        assert!(dual.counters.mults < full.counters.mults);
        // …but the same number of accumulations.
        assert_eq!(dual.counters.adds, full.counters.adds);
    }

    #[test]
    fn fast_model_work_counts_match_detailed_exactly() {
        let geo = geometry(false);
        let channels = random_channels(&geo, 8, 0.4, 0.5, 4);
        let detailed = simulate_detailed(&geo, &channels).expect("fibers in range");
        let fast = CartesianPe {
            px: geo.px,
            py: geo.py,
            stall_factor: 1.0,
            dual: false,
            self_dual_frac: 0.0,
        };
        let per_channel: Vec<(u64, u64)> = channels
            .iter()
            .map(|f| (f.weights.len() as u64, f.acts.len() as u64))
            .collect();
        let outputs = (geo.k_count * geo.acc_h() * geo.acc_w()) as u64;
        let fast_result = fast.run_conv(&per_channel, outputs);
        assert_eq!(fast_result.counters.mults, detailed.counters.mults);
        assert_eq!(fast_result.counters.adds, detailed.counters.adds);
        assert_eq!(fast_result.counters.wb_reads, detailed.counters.wb_reads);
        assert_eq!(fast_result.counters.ib_reads, detailed.counters.ib_reads);
        assert_eq!(fast_result.counters.ob_writes, detailed.counters.ob_writes);
    }

    #[test]
    fn fast_model_cycles_track_detailed_within_tolerance() {
        for (dual, seed) in [(false, 5u64), (true, 6), (false, 7), (true, 8)] {
            let geo = geometry(dual);
            let channels = random_channels(&geo, 10, 0.5, 0.5, seed);
            let detailed = simulate_detailed(&geo, &channels).expect("fibers in range");
            let stall = crate::crossbar::stall_factor(geo.px, geo.py, if dual { 2 } else { 1 });
            let fast = CartesianPe {
                px: geo.px,
                py: geo.py,
                stall_factor: stall,
                dual,
                self_dual_frac: if dual { 1.0 / 5.0 } else { 0.0 },
            };
            let per_channel: Vec<(u64, u64)> = channels
                .iter()
                .map(|f| (f.weights.len() as u64, f.acts.len() as u64))
                .collect();
            let outputs = (geo.k_count * geo.acc_h() * geo.acc_w()) as u64;
            let fast_result = fast.run_conv(&per_channel, outputs);
            let ratio = fast_result.cycles as f64 / detailed.cycles as f64;
            assert!(
                (0.85..=1.15).contains(&ratio),
                "dual={dual} seed={seed}: fast {} vs detailed {} (ratio {ratio:.3})",
                fast_result.cycles,
                detailed.cycles
            );
        }
    }

    #[test]
    fn stalls_are_rare_with_double_banking() {
        let geo = geometry(true);
        let channels = random_channels(&geo, 10, 0.6, 0.6, 9);
        let result = simulate_detailed(&geo, &channels).expect("fibers in range");
        // Dual mode at a tiny k-range (4 output channels) is the worst
        // case for bank spread; even so the 2x banking keeps stalls in the
        // low tens of percent, not a serialization collapse.
        let stall_frac = result.stall_cycles as f64 / result.cycles as f64;
        assert!(stall_frac < 0.15, "stall fraction {stall_frac}");
    }

    #[test]
    fn ccu_self_dual_center_emits_nil() {
        let geo = geometry(true);
        let center = WeightEntry {
            k: 0,
            r: 1,
            s: 1,
            value: 1.0,
        };
        let (_, dual) = ccu_coords(&geo, &center, 5, 5);
        assert!(dual.is_none(), "center weight must not dual-accumulate");
        let corner = WeightEntry {
            k: 0,
            r: 0,
            s: 0,
            value: 1.0,
        };
        let ((px, py), dual) = ccu_coords(&geo, &corner, 5, 5);
        assert_eq!((px, py), (7, 7));
        assert_eq!(dual, Some((5, 5)));
    }
}
