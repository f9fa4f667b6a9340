//! Cache-blocked, register-tiled GEMM kernels.
//!
//! This is the workhorse under [`crate::matmul`]/[`crate::conv2d`]: a
//! classic three-level blocked GEMM (Goto-style `NC`/`KC`/`MC` panels with
//! packed operands and an `MR×NR` register microkernel), behind a direct
//! loop nest for the shapes whose packing cannot pay off. `Gemm::small`
//! picks between the two from the product's shape alone. Every product
//! runs on its calling thread.
//!
//! # Determinism contract
//!
//! Results are **bit-identical** to the naive kernels in
//! [`crate::reference`]:
//!
//! * each element accumulates its `k` products in ascending-`p` order —
//!   the `KC` blocks are visited in ascending order and the microkernel
//!   loads the running value, appends the block's products in order, and
//!   stores it back (f32 store/load is lossless, so splitting the
//!   reduction across blocks does not change the rounding sequence);
//! * every product the reference kernels compute is computed here too.
//!   The reference skips products whose left-operand element is exactly
//!   `0.0`. Where the right operand is finite, such a product is `±0`,
//!   and adding `±0` to a running sum that started at `+0` changes
//!   nothing (see `Gemm::run`); there the blocked kernels skip no
//!   product and need no branch. Where the right operand holds an
//!   infinity or a NaN, they skip the same products the reference skips.
//!
//! See `docs/kernels.md`.

use std::sync::atomic::{AtomicBool, Ordering};

/// Microkernel tile height (rows of `C` held in registers).
pub const MR: usize = 4;
/// Microkernel tile width (columns of `C` held in registers).
pub const NR: usize = 8;
/// Row-panel height packed per `A` block (L2-resident).
const MC: usize = 128;
/// Reduction-dimension block depth (shared by both packed panels).
const KC: usize = 256;
/// Column-panel width packed per `B` block (L2/L3-resident).
const NC: usize = 512;
/// Below this many multiply-accumulates a GEMM skips packing entirely and
/// runs the direct loop nest ([`small_gemm`]): at this size the operands
/// fit in cache and pack-buffer allocation would dominate. Same
/// accumulation order, so bit-identical either way.
const SMALL_GEMM_MACS: usize = 1 << 15;
/// Longest reduction for which an `A·B` or `Aᵀ·B` product whose `C` has
/// at least as many columns as rows takes [`small_gemm`] at any size:
/// each [`COLS`]-wide block of a `C` row is summed in registers from `k`
/// rows of `B`, while the packed path packs all of `A` and `B` for `k`
/// products per element. A taller `C` (a convolution's `dCol` GEMM)
/// keeps the packed path, whose `MR×NR` tiles share each load of `A` and
/// `B` among more products.
const SHORT_K: usize = 32;
/// Most columns for which an `A·Bᵀ` product takes [`small_gemm`] at any
/// size: `Bᵀ` fills at most two `NR`-wide panels, so a packed copy of `A`
/// would serve at most two panel passes.
const THIN_N: usize = 2 * NR;
/// Columns of a `C` row the small `A·B` tier sums in registers at once.
const COLS: usize = 32;

/// When set, the public kernel entry points dispatch to the naive
/// [`crate::reference`] implementations. Benchmark/debug hook.
static REFERENCE_MODE: AtomicBool = AtomicBool::new(false);

/// Routes `matmul*`/`conv2d*` through the naive [`crate::reference`]
/// kernels (`true`) or the blocked kernels (`false`, the default).
/// Intended for benchmarking the two stacks against each other and for
/// bisecting kernel regressions; not a tuning knob.
pub fn set_reference_mode(on: bool) {
    REFERENCE_MODE.store(on, Ordering::SeqCst);
}

/// Whether [`set_reference_mode`] routed the kernels to the naive oracle.
pub fn reference_mode() -> bool {
    REFERENCE_MODE.load(Ordering::SeqCst)
}

/// Storage layout of the left GEMM operand.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Lhs {
    /// `A` is `[m, k]` row-major (`A·B`, `A·Bᵀ`).
    RowMajor,
    /// `A` is `[k, m]` row-major and used as `Aᵀ` (`Aᵀ·B`).
    Transposed,
}

/// Storage layout of the right GEMM operand.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Rhs {
    /// `B` is `[k, n]` row-major (`A·B`, `Aᵀ·B`).
    RowMajor,
    /// `B` is `[n, k]` row-major and used as `Bᵀ` (`A·Bᵀ`).
    Transposed,
}

/// The shape of one product `C = op(A) · op(B)`: `C` is `[m, n]`, the
/// reduction is `k` long, and `A` and `B` are stored as `lhs` and `rhs`
/// say.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Gemm {
    lhs: Lhs,
    rhs: Rhs,
    m: usize,
    k: usize,
    n: usize,
}

impl Gemm {
    /// The product of an `m×k` `op(A)` and a `k×n` `op(B)`.
    pub(crate) fn new(lhs: Lhs, rhs: Rhs, m: usize, k: usize, n: usize) -> Self {
        Gemm { lhs, rhs, m, k, n }
    }

    /// The product's multiply-accumulates, `m·k·n`.
    fn macs(&self) -> usize {
        self.m.saturating_mul(self.k).saturating_mul(self.n)
    }

    /// Whether the product runs the direct loop nest [`small_gemm`]
    /// rather than the packed nest: below [`SMALL_GEMM_MACS`], or at any
    /// size for an `A·B`/`Aᵀ·B` with a reduction of at most [`SHORT_K`]
    /// into a `C` no taller than wide, or an `A·Bᵀ` with at most
    /// [`THIN_N`] columns. The shape alone decides.
    fn small(&self) -> bool {
        self.macs() <= SMALL_GEMM_MACS
            || match self.rhs {
                Rhs::RowMajor => self.k <= SHORT_K && self.n >= self.m,
                Rhs::Transposed => self.n <= THIN_N,
            }
    }

    /// `C = op(A) · op(B)` into `c`, on the tier [`Gemm::small`] picks.
    ///
    /// `c` must hold `m·n` elements, all `+0.0`; the products are
    /// accumulated into it. Starting from `+0` is what makes the
    /// skip-free paths exact: a sum that starts at `+0` never becomes `−0`
    /// under round-to-nearest (`+0 + −0` and `x + −x` are both `+0`), so
    /// adding the `±0` product of a zero `a` and a finite `b` never
    /// changes it.
    pub(crate) fn run(&self, a: &[f32], b: &[f32], c: &mut [f32]) {
        let (m, k, n) = (self.m, self.k, self.n);
        assert_eq!(a.len(), m * k, "lhs buffer disagrees with m×k");
        assert_eq!(b.len(), k * n, "rhs buffer disagrees with k×n");
        assert_eq!(c.len(), m * n, "dst buffer disagrees with m×n");
        debug_assert!(
            c.iter().all(|v| v.to_bits() == 0),
            "dst buffer must start at +0.0"
        );
        if self.macs() == 0 {
            return;
        }
        if self.small() {
            small_gemm(self, a, b, c);
        } else {
            gemm_blocked(self, a, b, c);
        }
    }
}

/// Direct (unpacked) GEMM into `c`, for the shapes [`Gemm::small`]
/// admits. Accumulates each `C` element in
/// ascending-`p` order from `+0` — the exact sequence the blocked path
/// and the naive reference produce, so all three are bit-identical. `C`
/// starts at `+0`, so no sum loads `C`.
///
/// `A·B` sums each [`COLS`]-wide block of a `C` row in registers from the
/// matching blocks of `B`'s rows, skipping the row of a zero `a` as the
/// reference does; the fringe columns stream rows of `B` into `C`. `A·Bᵀ`
/// would be a dot product per element, one dependent add chain; instead
/// `NR` columns of `Bᵀ` at a time are transposed into a `p`-major panel
/// (as [`pack_b`] lays them out) and [`panel_tile`] sums `MR` rows of `C`
/// against it, `MR×NR` independent lanes. A panel found all finite while
/// transposing runs without the zero skip (see [`Gemm::run`]); one
/// holding an infinity or a NaN keeps it.
fn small_gemm(g: &Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (m, k, n) = (g.m, g.k, g.n);
    let a_at = |i: usize, p: usize| match g.lhs {
        Lhs::RowMajor => a[i * k + p],
        Lhs::Transposed => a[p * m + i],
    };
    match g.rhs {
        Rhs::RowMajor => {
            for (i, row) in c.chunks_mut(n).enumerate() {
                let (blocks, rest) = row.as_chunks_mut::<COLS>();
                for (jb, dst) in blocks.iter_mut().enumerate() {
                    let mut acc = [0.0f32; COLS];
                    for p in 0..k {
                        let x = a_at(i, p);
                        if x == 0.0 {
                            continue;
                        }
                        let brow = &b[p * n + jb * COLS..][..COLS];
                        for (s, &y) in acc.iter_mut().zip(brow) {
                            *s += x * y;
                        }
                    }
                    *dst = acc;
                }
                let j0 = n - rest.len();
                for p in 0..k {
                    let x = a_at(i, p);
                    if x == 0.0 {
                        continue;
                    }
                    for (d, &y) in rest.iter_mut().zip(&b[p * n + j0..(p + 1) * n]) {
                        *d += x * y;
                    }
                }
            }
        }
        Rhs::Transposed => {
            let mut panel = vec![[0.0f32; NR]; k];
            for j0 in (0..n).step_by(NR) {
                let nr = NR.min(n - j0);
                let cols = &b[j0 * k..(j0 + nr) * k];
                for (jj, col) in cols.chunks_exact(k).enumerate() {
                    for (lanes, &y) in panel.iter_mut().zip(col) {
                        lanes[jj] = y;
                    }
                }
                let finite = all_finite(cols);
                // Fringe lanes hold zeros: their sums are computed, never stored.
                if nr < NR {
                    for lanes in &mut panel {
                        lanes[nr..].fill(0.0);
                    }
                }
                for (i0, rows) in (0..).step_by(MR).zip(c.chunks_mut(MR * n)) {
                    let acc = panel_tile(g, a, i0, &panel, finite);
                    for (row, accr) in rows.chunks_mut(n).zip(&acc) {
                        row[j0..j0 + nr].copy_from_slice(&accr[..nr]);
                    }
                }
            }
        }
    }
}

/// `MR` rows of `C`, from row `i0`, against one transposed `NR`-column
/// panel of `Bᵀ`: each of the `MR×NR` sums starts at `+0` and adds its
/// products in ascending `p`, skipping a zero `a` unless the panel is
/// `finite`. Rows past `m` repeat row `m − 1`; their sums are never
/// stored. `inline(never)` keeps the tile in registers, as for
/// [`microkernel`].
#[inline(never)]
fn panel_tile(
    g: &Gemm,
    a: &[f32],
    i0: usize,
    panel: &[[f32; NR]],
    finite: bool,
) -> [[f32; NR]; MR] {
    // `a(i, p)` sits at `i·k + p` in a row-major `A`, at `p·m + i` in `Aᵀ`.
    let (scale, step) = match g.lhs {
        Lhs::RowMajor => (g.k, 1),
        Lhs::Transposed => (1, g.m),
    };
    let rows: [usize; MR] = std::array::from_fn(|r| (i0 + r).min(g.m - 1) * scale);
    let mut acc = [[0.0f32; NR]; MR];
    for (p, lanes) in panel.iter().enumerate() {
        for (accr, &row) in acc.iter_mut().zip(&rows) {
            let x = a[row + p * step];
            if !finite && x == 0.0 {
                continue;
            }
            for (slot, &y) in accr.iter_mut().zip(lanes) {
                *slot += x * y;
            }
        }
    }
    acc
}

/// Blocked GEMM into `c`.
fn gemm_blocked(g: &Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
    let (m, k, n) = (g.m, g.k, g.n);
    // Sized to the largest block this problem actually uses, not the
    // MC/KC/NC maxima — small problems must not pay for 640 KB of zeroed
    // scratch they never touch.
    let kc_max = KC.min(k);
    let mut apack = vec![0.0f32; MC.min(m).div_ceil(MR) * MR * kc_max];
    let mut bpack = vec![0.0f32; NC.min(n).div_ceil(NR) * NR * kc_max];
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let b_panels = nc.div_ceil(NR);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let b_finite = pack_b(g, b, pc, kc, jc, nc, &mut bpack);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a(g, a, ic, mc, pc, kc, &mut apack);
                let a_panels = mc.div_ceil(MR);
                for pj in 0..b_panels {
                    let jr = pj * NR;
                    let nr = NR.min(nc - jr);
                    let bpanel = &bpack[pj * kc * NR..(pj + 1) * kc * NR];
                    for pi in 0..a_panels {
                        let ir = pi * MR;
                        let mr = MR.min(mc - ir);
                        let apanel = &apack[pi * kc * MR..(pi + 1) * kc * MR];
                        let (row0, col0) = (ic + ir, jc + jr);
                        microkernel(apanel, bpanel, kc, b_finite, mr, nr, c, row0, n, col0);
                    }
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Packs the `[ic..ic+mc) × [pc..pc+kc)` block of `A` into `MR`-row
/// panels, `p`-major within each panel; fringe rows are zero-padded
/// (their accumulator rows are computed but never stored).
fn pack_a(g: &Gemm, a: &[f32], ic: usize, mc: usize, pc: usize, kc: usize, apack: &mut [f32]) {
    for pi in 0..mc.div_ceil(MR) {
        let rows = MR.min(mc - pi * MR);
        let row0 = ic + pi * MR;
        let dst = &mut apack[pi * kc * MR..(pi + 1) * kc * MR];
        let (m, k) = (g.m, g.k);
        match g.lhs {
            Lhs::RowMajor => {
                for r in 0..MR {
                    let slots = dst[r..].iter_mut().step_by(MR);
                    if r < rows {
                        let src = &a[(row0 + r) * k + pc..(row0 + r) * k + pc + kc];
                        for (d, &v) in slots.zip(src) {
                            *d = v;
                        }
                    } else {
                        slots.for_each(|d| *d = 0.0);
                    }
                }
            }
            Lhs::Transposed => {
                for (p, d) in dst.chunks_exact_mut(MR).enumerate() {
                    let src = &a[(pc + p) * m + row0..(pc + p) * m + row0 + rows];
                    if rows == MR {
                        d.copy_from_slice(src);
                    } else {
                        d[..rows].copy_from_slice(src);
                        d[rows..].fill(0.0);
                    }
                }
            }
        }
    }
}

/// Packs the `[pc..pc+kc) × [jc..jc+nc)` block of `B` into `NR`-column
/// panels, `p`-major within each panel; fringe columns are zero-padded
/// (their accumulator lanes are computed but never stored). Returns
/// whether every packed element is finite.
fn pack_b(
    g: &Gemm,
    b: &[f32],
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bpack: &mut [f32],
) -> bool {
    for pj in 0..nc.div_ceil(NR) {
        let cols = NR.min(nc - pj * NR);
        let col0 = jc + pj * NR;
        let dst = &mut bpack[pj * kc * NR..(pj + 1) * kc * NR];
        let (k, n) = (g.k, g.n);
        match g.rhs {
            Rhs::RowMajor => {
                for (p, d) in dst.chunks_exact_mut(NR).enumerate() {
                    let src = &b[(pc + p) * n + col0..(pc + p) * n + col0 + cols];
                    if cols == NR {
                        d.copy_from_slice(src);
                    } else {
                        d[..cols].copy_from_slice(src);
                        d[cols..].fill(0.0);
                    }
                }
            }
            Rhs::Transposed => {
                for j in 0..NR {
                    let slots = dst[j..].iter_mut().step_by(NR);
                    if j < cols {
                        let src = &b[(col0 + j) * k + pc..(col0 + j) * k + pc + kc];
                        for (d, &v) in slots.zip(src) {
                            *d = v;
                        }
                    } else {
                        slots.for_each(|d| *d = 0.0);
                    }
                }
            }
        }
    }
    all_finite(&bpack[..nc.div_ceil(NR) * kc * NR])
}

/// Whether no element of `v` is infinite or NaN.
pub(crate) fn all_finite(v: &[f32]) -> bool {
    // Folding each chunk without an early exit lets the test vectorize.
    v.chunks(64)
        .all(|ch| ch.iter().fold(true, |ok, x| ok & x.is_finite()))
}

/// The `MR×NR` register microkernel: loads the running `C` tile, appends
/// this `KC` block's products in ascending-`p` order, stores the tile back.
/// When the packed `B` block is all finite (`b_finite`) every product is
/// added, branch-free; when it holds an infinity or a NaN, terms with
/// `a == 0.0` are skipped exactly like the reference kernels skip them.
///
/// `inline(never)` is deliberate and load-bearing: inlined into
/// `gemm_blocked`'s loop nest, LLVM spills the accumulator tile to the stack
/// (~7× slower); as a standalone function the tile stays in registers.
/// Full tiles load and store fixed-size rows: a copy of a runtime length
/// `nr` compiles to a `memcpy` call per row, which dominates products with
/// a short `kc`.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn microkernel(
    apanel: &[f32],
    bpanel: &[f32],
    kc: usize,
    b_finite: bool,
    mr: usize,
    nr: usize,
    c: &mut [f32],
    row0: usize,
    ldc: usize,
    col0: usize,
) {
    let full = mr == MR && nr == NR;
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate().take(mr) {
        let base = (row0 + r) * ldc + col0;
        if full {
            accr.copy_from_slice(&c[base..base + NR]);
        } else {
            accr[..nr].copy_from_slice(&c[base..base + nr]);
        }
    }
    let (arows, _) = apanel.as_chunks::<MR>();
    let (brows, _) = bpanel.as_chunks::<NR>();
    if b_finite {
        for (av, bv) in arows.iter().zip(brows).take(kc) {
            for (&a, accr) in av.iter().zip(acc.iter_mut()) {
                for (slot, &bj) in accr.iter_mut().zip(bv) {
                    *slot += a * bj;
                }
            }
        }
    } else {
        for (av, bv) in arows.iter().zip(brows).take(kc) {
            for (&a, accr) in av.iter().zip(acc.iter_mut()) {
                if a == 0.0 {
                    continue;
                }
                for (slot, &bj) in accr.iter_mut().zip(bv) {
                    *slot += a * bj;
                }
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let base = (row0 + r) * ldc + col0;
        if full {
            c[base..base + NR].copy_from_slice(accr);
        } else {
            c[base..base + nr].copy_from_slice(&accr[..nr]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, scale: f32, zero_every: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if zero_every != 0 && i % zero_every == 0 {
                    0.0
                } else {
                    ((i as f32) * scale).sin()
                }
            })
            .collect()
    }

    fn reference_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn blocked_gemm_bits_match_reference_across_fringe_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (MR, KC, NR),
            (MR + 1, KC + 3, NR + 5),
            (2 * MR + 3, 2 * KC + 1, 2 * NR + 7),
            (130, 70, 33),
        ] {
            let a = fill(m * k, 0.13, 7);
            let b = fill(k * n, 0.29, 5);
            let want = reference_nn(&a, &b, m, k, n);
            let mut c = vec![0.0f32; m * n];
            Gemm::new(Lhs::RowMajor, Rhs::RowMajor, m, k, n).run(&a, &b, &mut c);
            assert!(
                c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                "m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn transposed_layouts_match_row_major() {
        let (m, k, n) = (9usize, 11usize, 13usize);
        let a = fill(m * k, 0.17, 6);
        let b = fill(k * n, 0.23, 4);
        let want = reference_nn(&a, &b, m, k, n);
        // Aᵀ layout: store A as [k, m].
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c = vec![0.0f32; m * n];
        Gemm::new(Lhs::Transposed, Rhs::RowMajor, m, k, n).run(&at, &b, &mut c);
        assert!(c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()));
        // Bᵀ layout: store B as [n, k].
        let mut bt = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut c = vec![0.0f32; m * n];
        Gemm::new(Lhs::RowMajor, Rhs::Transposed, m, k, n).run(&a, &bt, &mut c);
        assert!(c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn gemm_tier_is_chosen_by_shape() {
        // `mobile_cnn`'s linear layer at batch 32: its forward and its two
        // gradients, 320 Ki multiply-accumulates each, take the small tier.
        let linear = [
            (Lhs::RowMajor, Rhs::Transposed, 32, 1024, 10),
            (Lhs::Transposed, Rhs::RowMajor, 10, 32, 1024),
            (Lhs::RowMajor, Rhs::RowMajor, 32, 10, 1024),
        ];
        for (lhs, rhs, m, k, n) in linear {
            let g = Gemm::new(lhs, rhs, m, k, n);
            assert!(g.small(), "{g:?}");
        }
        // A convolution's tall `dCol` GEMM keeps the packed tier.
        let dcol = Gemm::new(Lhs::Transposed, Rhs::RowMajor, 288, 32, 196);
        assert!(!dcol.small());
    }

    #[test]
    fn reference_mode_toggle_round_trips() {
        assert!(!reference_mode());
        set_reference_mode(true);
        assert!(reference_mode());
        set_reference_mode(false);
        assert!(!reference_mode());
    }
}
