//! 2-D convolution, forward and backward, via im2col or, for depthwise
//! and narrow layers, direct per-plane kernels.
//!
//! Tensor layouts follow the paper's notation (§II-A): inputs are
//! `[N, C, H, W]`, filters are `[K, C, R, S]`, outputs are `[N, K, H', W']`.
//!
//! # One check, one router per direction
//!
//! Every entry point, the free functions and [`ConvScratch`] alike, runs
//! one shape check and then one router per direction. The forward router
//! runs the naive [`crate::reference`] kernels under
//! [`kernels::set_reference_mode`], else the direct kernels when the
//! shapes admit them (see below), else im2col and the blocked GEMMs. The
//! backward router makes the same choice on the same predicate, and
//! computes the input gradient only when asked for it. The route depends
//! on the shapes alone. [`conv2d`] and [`conv2d_backward`] are the
//! grouped functions at `groups = 1`.
//!
//! # Lowering
//!
//! The im2col route lowers the input into one block-contiguous buffer
//! holding one `[C/g·R·S, H'·W']` column block per `(batch item, group)`
//! task; the forward GEMMs and all three backward GEMMs read from that
//! single buffer. The routers take the buffer as a slot: [`ConvScratch`]
//! keeps its slot (and allocation) alive across calls so a
//! forward/backward pair — or repeated training steps at a fixed
//! geometry — lowers each input exactly once and never reallocates; the
//! free functions pass a fresh slot per call.
//!
//! The lowering works in row segments. For each kernel tap `(r, s)` it
//! computes once the output rows and columns whose input pixel lies inside
//! the image; each in-bounds output row then copies one input-row segment
//! (`copy_from_slice` at unit stride, a strided walk otherwise) and the
//! padding is the buffer's zero fill. The backward `col2im` scatter-adds
//! over the same segments, in the reference's `(ci, r, s)` order, through
//! one `dCol` scratch.
//!
//! The GEMMs themselves are the cache-blocked kernels in
//! [`crate::kernels`]. Every route runs its `(item, group)` tasks in
//! ascending order on the calling thread.
//!
//! # Direct kernels
//!
//! A depthwise convolution at unit stride (`groups == C == K`), and a
//! narrow one (a short reduction `C/g·R·S` over large enough planes),
//! skip im2col and the GEMMs in both directions: each task's input planes
//! are zero-padded once and every kernel tap is one flat multiply-add
//! loop over them (see [`Direct`]). The forward and the narrow backward
//! run `(item, group)` tasks, the depthwise backward whole items, whose
//! channels it holds side by side.
//!
//! Results are **bit-identical** to the naive per-item / per-group
//! reference implementations in [`crate::reference`]; see
//! `docs/kernels.md` for why the accumulation orders match.

use crate::kernels::{self, Gemm, Lhs, Rhs};
use crate::{reference, Tensor};

/// Static description of a convolution: filter geometry, stride and padding.
///
/// # Example
///
/// ```
/// use cscnn_tensor::ConvSpec;
///
/// let spec = ConvSpec::new(3, 3).with_stride(1).with_padding(1);
/// assert_eq!(spec.output_dim(32, 32), (32, 32)); // "same" convolution
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    /// Filter height (`R` in the paper).
    pub kernel_h: usize,
    /// Filter width (`S` in the paper).
    pub kernel_w: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every spatial border.
    pub padding: usize,
}

impl ConvSpec {
    /// Creates a unit-stride, unpadded convolution spec.
    ///
    /// # Panics
    ///
    /// Panics if either kernel extent is zero.
    pub fn new(kernel_h: usize, kernel_w: usize) -> Self {
        assert!(
            kernel_h > 0 && kernel_w > 0,
            "kernel extents must be positive"
        );
        ConvSpec {
            kernel_h,
            kernel_w,
            stride: 1,
            padding: 0,
        }
    }

    /// Sets the stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn with_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        self.stride = stride;
        self
    }

    /// Sets the zero padding.
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Output spatial extent for an `(h, w)` input.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn output_dim(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel_h && pw >= self.kernel_w,
            "input {h}x{w} (+pad {}) smaller than kernel {}x{}",
            self.padding,
            self.kernel_h,
            self.kernel_w
        );
        (
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        )
    }
}

/// Gradients produced by [`conv2d_grouped_backward`] and
/// [`ConvScratch::backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the layer input, `[N, C, H, W]`.
    pub input: Tensor,
    /// Gradient w.r.t. the filters, `[K, C/groups, R, S]`.
    pub weight: Tensor,
    /// Gradient w.r.t. the bias, `[K]`.
    pub bias: Tensor,
}

/// The geometry of one convolution call, as [`check`] validated it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Geometry {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    groups: usize,
    oh: usize,
    ow: usize,
    spec: ConvSpec,
}

impl Geometry {
    /// Input channels per group, `C/g`.
    fn cg(&self) -> usize {
        self.c / self.groups
    }

    /// Filters per group, `K/g`.
    fn kg(&self) -> usize {
        self.k / self.groups
    }

    /// The reduction `C/g·R·S`: rows of one lowered column block.
    fn rows_g(&self) -> usize {
        self.cg() * self.spec.kernel_h * self.spec.kernel_w
    }

    /// Output pixels per plane, `H'·W'`.
    fn cols_len(&self) -> usize {
        self.oh * self.ow
    }

    /// `(item, group)` tasks, `N·groups`.
    fn tasks(&self) -> usize {
        self.n * self.groups
    }

    /// Whether this is a depthwise convolution at unit stride: one filter
    /// per channel (`groups == C == K`).
    fn direct_depthwise(&self) -> bool {
        self.groups == self.c && self.groups == self.k && self.spec.stride == 1
    }

    /// Whether both directions run the direct kernels instead of im2col
    /// and GEMMs: a direct depthwise convolution, or one at unit stride
    /// whose reduction `C/g·R·S` is at most [`DIRECT_MAX_REDUCTION`] over
    /// output planes of at least [`DIRECT_MIN_PIXELS`].
    fn direct_forward(&self) -> bool {
        self.direct_depthwise()
            || (self.spec.stride == 1
                && self.rows_g() <= DIRECT_MAX_REDUCTION
                && self.cols_len() >= DIRECT_MIN_PIXELS)
    }
}

/// The tensor a convolution call pairs with its input and weight.
enum Operand<'a> {
    /// The forward's bias, `K` elements.
    Bias(&'a Tensor),
    /// The backward's output gradient, `[N, K, H', W']`.
    GradOut(&'a Tensor),
}

/// The shape check of every convolution call: `input` is `[N, C, H, W]`,
/// `weight` is `[K, C/groups, R, S]` with `groups` dividing both `C` and
/// `K` and `R×S` the spec's kernel, the padded input is no smaller than
/// the kernel, and `operand` fits them.
///
/// # Panics
///
/// Panics on any mismatch.
fn check(
    input: &Tensor,
    weight: &Tensor,
    operand: Operand,
    spec: &ConvSpec,
    groups: usize,
) -> Geometry {
    let (n, c, h, w) = dims4(input, "conv input");
    let (k, wc, wr, ws) = dims4(weight, "conv weight");
    assert!(
        groups > 0 && c % groups == 0 && k % groups == 0,
        "groups={groups} must divide C={c} and K={k}"
    );
    assert_eq!(
        wc,
        c / groups,
        "channel mismatch: input C={c} in {groups} group(s), weight C={wc}"
    );
    assert_eq!(
        (wr, ws),
        (spec.kernel_h, spec.kernel_w),
        "weight spatial dims disagree with spec"
    );
    let (oh, ow) = spec.output_dim(h, w);
    match operand {
        Operand::Bias(bias) => assert_eq!(bias.len(), k, "bias length must equal K={k}"),
        Operand::GradOut(grad_out) => assert_eq!(
            grad_out.shape().dims(),
            &[n, k, oh, ow],
            "grad_out shape mismatch"
        ),
    }
    Geometry {
        n,
        c,
        h,
        w,
        k,
        groups,
        oh,
        ow,
        spec: *spec,
    }
}

fn dims4(t: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.shape().rank(),
        4,
        "{what} must be rank 4, got {}",
        t.shape()
    );
    let d = t.shape().dims();
    (d[0], d[1], d[2], d[3])
}

/// The forward router: `[N, K, H', W']` from the reference kernels under
/// [`kernels::set_reference_mode`], else from the direct kernels when
/// [`Geometry::direct_forward`] admits the shapes, else from im2col into
/// `lowering` and the GEMMs.
fn route_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
    groups: usize,
    lowering: &mut ConvLowering,
) -> Tensor {
    let geom = check(input, weight, Operand::Bias(bias), spec, groups);
    if kernels::reference_mode() {
        return reference::conv2d_grouped(input, weight, bias, spec, groups);
    }
    if geom.direct_forward() {
        return direct_forward(&geom, input, weight, bias);
    }
    lowered_forward(&geom, lowering.lower(&geom, input), weight, bias)
}

/// The backward router: `(dW, dBias)`, and `dX` into `d_input` (a zeroed
/// `[N, C, H, W]` buffer) when given. Runs the reference kernels under
/// [`kernels::set_reference_mode`], else the direct kernels when
/// [`Geometry::direct_forward`] admits the shapes, else im2col into
/// `lowering` (unless it already holds `input`'s lowering) and the GEMMs.
fn route_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
    groups: usize,
    lowering: &mut ConvLowering,
    d_input: Option<&mut [f32]>,
) -> (Tensor, Tensor) {
    let geom = check(input, weight, Operand::GradOut(grad_out), spec, groups);
    if kernels::reference_mode() {
        let grads = reference::conv2d_grouped_backward(input, weight, grad_out, spec, groups);
        if let Some(din) = d_input {
            din.copy_from_slice(grads.input.as_slice());
        }
        return (grads.weight, grads.bias);
    }
    if geom.direct_forward() {
        return direct_backward(&geom, input, weight, grad_out, d_input);
    }
    lowered_grads(
        &geom,
        lowering.lower(&geom, input),
        weight,
        grad_out,
        d_input,
    )
}

/// [`route_backward`] with the input gradient.
fn route_backward_full(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
    groups: usize,
    lowering: &mut ConvLowering,
) -> Conv2dGrads {
    let mut d_input = Tensor::zeros(input.shape().dims());
    let (weight, bias) = route_backward(
        input,
        weight,
        grad_out,
        spec,
        groups,
        lowering,
        Some(d_input.as_mut_slice()),
    );
    Conv2dGrads {
        input: d_input,
        weight,
        bias,
    }
}

/// A slot for one input lowered to im2col form.
///
/// The buffer holds `N·groups` contiguous blocks in `(item, group)`-major
/// order; block `(ni, g)` is the `[C/g·R·S, H'·W']` column matrix of batch
/// item `ni` restricted to input-channel group `g`. The forward and every
/// backward GEMM read it, so a caller that keeps the slot around (as
/// [`ConvScratch`] does) pays the im2col cost once per input instead of
/// once per direction.
#[derive(Debug, Clone, Default)]
struct ConvLowering {
    /// `n·groups` blocks of `rows_g·cols_len` each, `(item, group)`-major.
    cols: Vec<f32>,
    /// The geometry `cols` holds a lowering at; `None` when it holds none.
    /// The slot never reads the input's values to decide reuse, so its
    /// holder must reset this whenever the lowered input is replaced.
    geom: Option<Geometry>,
}

impl ConvLowering {
    /// The column blocks of `input` at `geom`, lowered into the existing
    /// buffer unless it already holds them.
    fn lower(&mut self, geom: &Geometry, input: &Tensor) -> &[f32] {
        if self.geom != Some(*geom) {
            let block_len = geom.rows_g() * geom.cols_len();
            self.cols.clear();
            self.cols.resize(geom.tasks() * block_len, 0.0);
            // Task `ni·groups + g` reads the `C/g` input planes at flat
            // offset `task·C/g·H·W`.
            let (src, image) = (input.as_slice(), geom.cg() * geom.h * geom.w);
            for (task, block) in self.cols.chunks_mut(block_len).enumerate() {
                im2col_block(geom, &src[task * image..(task + 1) * image], block);
            }
            self.geom = Some(*geom);
        }
        &self.cols
    }
}

/// Forward convolution over lowered column blocks: `[N, K, H', W']`,
/// bit-identical to [`crate::reference::conv2d_grouped`].
fn lowered_forward(geom: &Geometry, cols: &[f32], weight: &Tensor, bias: &Tensor) -> Tensor {
    let (groups, kg, rows_g, cols_len) = (geom.groups, geom.kg(), geom.rows_g(), geom.cols_len());
    let mut out = Tensor::zeros(&[geom.n, geom.k, geom.oh, geom.ow]);
    let (wv, bias_v) = (weight.as_slice(), bias.as_slice());
    let gemm = Gemm::new(Lhs::RowMajor, Rhs::RowMajor, kg, rows_g, cols_len);
    // Each (item, group) task owns the contiguous output chunk
    // [ni, g·kg..(g+1)·kg, :, :].
    let block = rows_g * cols_len;
    for (task, dst) in out.as_mut_slice().chunks_mut(kg * cols_len).enumerate() {
        let g = task % groups;
        let col = &cols[task * block..(task + 1) * block];
        gemm.run(&wv[g * kg * rows_g..(g + 1) * kg * rows_g], col, dst);
        for (row, &b) in dst.chunks_mut(cols_len).zip(&bias_v[g * kg..(g + 1) * kg]) {
            for d in row {
                *d += b;
            }
        }
    }
    out
}

/// The per-task chunks of an input gradient, `chunk` elements each; all
/// `tasks` of them `None` without one.
fn input_grad_chunks(
    d_input: Option<&mut [f32]>,
    chunk: usize,
    tasks: usize,
) -> Vec<Option<&mut [f32]>> {
    match d_input {
        Some(din) => din.chunks_mut(chunk).map(Some).collect(),
        None => (0..tasks).map(|_| None).collect(),
    }
}

/// Backward convolution over lowered column blocks: `(dW, dBias)`, and
/// `dX` into `d_input` (a zeroed `[N, C, H, W]` buffer) when given;
/// without it the `dCol` GEMM and `col2im` do not run. Bit-identical to
/// [`crate::reference::conv2d_grouped_backward`]: each task's partial
/// gradients are computed from `+0` and reduced in ascending task order,
/// which is ascending batch order within each group.
fn lowered_grads(
    geom: &Geometry,
    cols: &[f32],
    weight: &Tensor,
    grad_out: &Tensor,
    d_input: Option<&mut [f32]>,
) -> (Tensor, Tensor) {
    let (groups, kg, rows_g, cols_len) = (geom.groups, geom.kg(), geom.rows_g(), geom.cols_len());
    let mut d_weight = vec![0.0f32; geom.k * rows_g];
    let mut d_bias = vec![0.0f32; geom.k];
    let (gov, wv) = (grad_out.as_slice(), weight.as_slice());
    // One task's partials: a [kg, rows_g] dW block followed by kg dBias
    // slots, kept out of the shared gradients until the task is done.
    let mut part = vec![0.0f32; kg * rows_g + kg];
    // A `[rows_g, cols_len]` scratch (empty without `din`).
    let col_len = if d_input.is_some() {
        rows_g * cols_len
    } else {
        0
    };
    let mut d_col = vec![0.0f32; col_len];
    // dW part = dOut · colᵀ (reference: matmul_bt(go, col)); dCol = Wᵀ ·
    // dOut (reference: matmul_at(w, go)).
    let dw = Gemm::new(Lhs::RowMajor, Rhs::Transposed, kg, cols_len, rows_g);
    let dcol = Gemm::new(Lhs::Transposed, Rhs::RowMajor, rows_g, kg, cols_len);
    let dins = input_grad_chunks(d_input, geom.cg() * geom.h * geom.w, geom.tasks());
    for (task, din) in dins.into_iter().enumerate() {
        let (dw_part, db_part) = part.split_at_mut(kg * rows_g);
        // The task's dOut planes [ni, g·kg..(g+1)·kg] start at task·kg.
        let goslab = &gov[task * kg * cols_len..(task + 1) * kg * cols_len];
        let col = &cols[task * rows_g * cols_len..(task + 1) * rows_g * cols_len];
        dw_part.fill(0.0);
        dw.run(goslab, col, dw_part);
        // dCol is scattered back into this task's disjoint dX chunk.
        if let Some(din) = din {
            let g = task % groups;
            let wg = &wv[g * kg * rows_g..(g + 1) * kg * rows_g];
            d_col.fill(0.0);
            dcol.run(wg, goslab, &mut d_col);
            col2im_block(geom, &d_col, din);
        }
        // dBias part = row sums of dOut, in the reference's order.
        for (db, row) in db_part.iter_mut().zip(goslab.chunks(cols_len)) {
            *db = row.iter().sum();
        }
        reduce_part(task, &part, groups, kg, rows_g, &mut d_weight, &mut d_bias);
    }
    let spec = geom.spec;
    (
        Tensor::from_vec(d_weight, &[geom.k, geom.cg(), spec.kernel_h, spec.kernel_w]),
        Tensor::from_vec(d_bias, &[geom.k]),
    )
}

/// Folds one task's `(dW part, dBias part)` into the shared gradients.
/// Called in ascending task order, which is ascending batch order within
/// each group — the reference reduction order.
fn reduce_part(
    task: usize,
    part: &[f32],
    groups: usize,
    kg: usize,
    rows_g: usize,
    d_weight: &mut [f32],
    d_bias: &mut [f32],
) {
    let g = task % groups;
    let (dw_part, db_part) = part.split_at(kg * rows_g);
    let dw = &mut d_weight[g * kg * rows_g..(g + 1) * kg * rows_g];
    for (d, &p) in dw.iter_mut().zip(dw_part) {
        *d += p;
    }
    let db = &mut d_bias[g * kg..(g + 1) * kg];
    for (d, &p) in db.iter_mut().zip(db_part) {
        *d += p;
    }
}

/// Output indices `[lo, hi)` of one spatial axis whose input index
/// `o·stride + tap − pad` lies inside `[0, extent)`; outputs outside the
/// range read the zero padding. `tap` is the kernel row `r` or column `s`.
fn valid_range(tap: usize, spec: &ConvSpec, extent: usize, out: usize) -> (usize, usize) {
    let lo = spec
        .padding
        .saturating_sub(tap)
        .div_ceil(spec.stride)
        .min(out);
    let hi = (extent + spec.padding)
        .saturating_sub(tap)
        .div_ceil(spec.stride)
        .min(out);
    (lo, hi.max(lo))
}

/// Lowers one task's `C/g` input planes `src` into its (pre-zeroed)
/// `[C/g·R·S, H'·W']` column block. Each kernel tap `(r, s)` copies, per
/// output row, the one input-row segment its in-bounds output columns
/// read (a plain `copy_from_slice` at unit stride); the padding is the
/// block's zero fill.
fn im2col_block(geom: &Geometry, src: &[f32], block: &mut [f32]) {
    let (h, w, oh, ow, spec) = (geom.h, geom.w, geom.oh, geom.ow, &geom.spec);
    let cols = oh * ow;
    let stride = spec.stride;
    for (ci, plane) in src.chunks_exact(h * w).enumerate() {
        for r in 0..spec.kernel_h {
            let (y0, y1) = valid_range(r, spec, h, oh);
            for s in 0..spec.kernel_w {
                let (x0, x1) = valid_range(s, spec, w, ow);
                if x0 == x1 {
                    continue;
                }
                let row = (ci * spec.kernel_h + r) * spec.kernel_w + s;
                let out_row = &mut block[row * cols..(row + 1) * cols];
                let ix0 = x0 * stride + s - spec.padding;
                for oy in y0..y1 {
                    let iy = oy * stride + r - spec.padding;
                    let src_row = &plane[iy * w + ix0..(iy + 1) * w];
                    let dst = &mut out_row[oy * ow + x0..oy * ow + x1];
                    if stride == 1 {
                        dst.copy_from_slice(&src_row[..x1 - x0]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src_row.iter().step_by(stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Scatter-adds one task's `[C/g·R·S, H'·W']` column-gradient block into
/// its `[C/g, H, W]` input-gradient chunk `dst`, over the same row
/// segments [`im2col_block`] copies. Every image element receives its
/// `(ci, r, s)` contributions in ascending order, as in the reference
/// `col2im`.
fn col2im_block(geom: &Geometry, col: &[f32], dst: &mut [f32]) {
    let (h, w, oh, ow, spec) = (geom.h, geom.w, geom.oh, geom.ow, &geom.spec);
    let cols = oh * ow;
    let stride = spec.stride;
    for (ci, plane) in dst.chunks_exact_mut(h * w).enumerate() {
        for r in 0..spec.kernel_h {
            let (y0, y1) = valid_range(r, spec, h, oh);
            for s in 0..spec.kernel_w {
                let (x0, x1) = valid_range(s, spec, w, ow);
                if x0 == x1 {
                    continue;
                }
                let row = (ci * spec.kernel_h + r) * spec.kernel_w + s;
                let src_row = &col[row * cols..(row + 1) * cols];
                let ix0 = x0 * stride + s - spec.padding;
                for oy in y0..y1 {
                    let iy = oy * stride + r - spec.padding;
                    let dst_row = &mut plane[iy * w + ix0..(iy + 1) * w];
                    let seg = &src_row[oy * ow + x0..oy * ow + x1];
                    if stride == 1 {
                        for (d, &v) in dst_row.iter_mut().zip(seg) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst_row.iter_mut().step_by(stride).zip(seg) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Geometry of the direct kernels: `h×w` image planes of a unit-stride
/// convolution, each zero-padded to `ph×pw`.
///
/// Output rows are laid out at the padded width: output pixel `(oy, ox)`
/// sits at flat offset `oy·pw + ox`, and kernel tap `(r, s)` pairs it with
/// the padded-plane element at that offset plus `r·pw + s`. Every tap is
/// therefore one flat multiply-add over [`Direct::span`] elements. With
/// `C/g` input planes, plane `c`'s taps read the padded plane `c`. The
/// `pw − ow` slots after each laid-out row pair with padding or with the
/// next row; the forward never stores them, and the backward's laid-out
/// `dOut` holds zeros there.
///
/// * **Forward:** [`PIXELS`]-wide blocks of laid-out outputs add up every
///   non-zero tap in registers, in ascending `(c, r, s)`, then `+ bias`.
/// * **`dW`:** `dOut` is laid out pixel-major with [`LANES`] filters side
///   by side (for a depthwise convolution, `LANES` channels, whose padded
///   input planes are interleaved the same way), and one pass sums
///   [`TAPS`] taps over every laid-out pixel in ascending order.
/// * **`dX`:** per input plane and tap, in ascending `(r, s)`, a line
///   sums `w·dOut` over the group's filters in ascending `k`; the line is
///   then added into a zeroed padded gradient plane whose interior is
///   `dX`. A depthwise convolution's filters have one tap weight per
///   line, so with finite weights and `dOut` each `dX` element instead
///   gathers its taps' products in ascending order, `LANES` channels side
///   by side.
///
/// Bit-identity with the reference (`docs/kernels.md`): the forward and
/// `dW` perform the reference's products (its im2col columns hold the
/// same padding zeros) in its order. `dW` also adds the `±0` products of
/// zero `dOut`, which the reference GEMM skips; over finite input planes
/// they leave a sum that started at `+0` unchanged, and a task whose
/// planes hold an infinity or a NaN sums over its non-zero `dOut` pixels
/// only. Each `dX` line is the reference's `dCol` row, and the lines
/// reach a `dX` element in the order `col2im` adds them; the row-gap
/// slots a line pairs with zeros are zeroed before it is added.
#[derive(Clone, Copy, Debug)]
struct Direct {
    h: usize,
    w: usize,
    pad: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
    oh: usize,
    ow: usize,
}

/// Filters (for a depthwise convolution, channels) a direct `dW` pass
/// holds side by side, one running sum each per tap.
const LANES: usize = 8;

/// Taps a direct `dW` pass sums at once: `TAPS × LANES` running sums stay
/// in registers while the laid-out pixels stream past.
const TAPS: usize = 4;

/// Taps a depthwise `dW` pass sums at once, a 3×3 kernel's row: with
/// one input vector per tap, `ROW_TAPS × LANES` sums fill the registers.
const ROW_TAPS: usize = 3;

/// Positions a depthwise `dX` gather sums at once, `GATHER × LANES`
/// independent sums.
const GATHER: usize = 4;

/// Laid-out output pixels the direct forward (and a `dX` line) keeps in
/// registers while it adds up all their terms.
const PIXELS: usize = 32;

/// Longest reduction `C/g·R·S` for which a unit-stride convolution runs
/// the direct kernels instead of im2col and GEMMs. Per product both do
/// one multiply and one add in registers; the GEMM path also writes all
/// `C/g·R·S` lowered copies of the input first and pays a `C` tile load
/// and store per register tile, which only a long reduction amortizes.
/// This admits the 3-channel 3×3 first convs (27) and 1×1 convs over up
/// to 32 channels; the 4-channel 3×3 (36) is where the two paths meet on
/// 16×16 planes.
const DIRECT_MAX_REDUCTION: usize = 32;

/// Fewest output pixels per plane for which a non-depthwise convolution
/// runs the direct kernels: [`PIXELS`]-wide blocks over a small plane
/// compute mostly padding and row-gap slots, and an 8×8 plane already
/// runs faster on the GEMM.
const DIRECT_MIN_PIXELS: usize = 3 * PIXELS;

/// Buffers of the direct kernels, sized on first use. Every task of one
/// call writes the same slots, so the slots none writes (padding, row
/// gaps, unused lanes, tails) stay zero.
#[derive(Default)]
struct PlaneBufs {
    /// The zero-padded input planes, `ph·pw` each, plus `PIXELS` slots of
    /// tail.
    xpad: Vec<f32>,
    /// One filter's non-zero taps, or one tap's non-zero filters:
    /// `(offset, weight)`.
    terms: Vec<(usize, f32)>,
    /// The `(laid-out offset, dOut)` of a plane's non-zero `dOut` pixels.
    hits: Vec<(usize, f32)>,
    /// One plane laid out at the padded width: `span` slots, rounded up
    /// to whole `PIXELS` blocks.
    line: Vec<f32>,
    /// The `dOut` planes laid out at the padded width, one `line` each.
    lines: Vec<f32>,
    /// `dOut` laid out pixel-major, `LANES` planes side by side: `span`
    /// pixels per group of `LANES` planes.
    lanes: Vec<[f32; LANES]>,
    /// A depthwise item's padded input planes, interleaved as `lanes`:
    /// `ph·pw` pixels per group of `LANES` channels.
    xlanes: Vec<[f32; LANES]>,
    /// A depthwise item's `dX` planes interleaved as `lanes`, laid out at
    /// the padded width from the first interior pixel.
    dlanes: Vec<[f32; LANES]>,
    /// Per tap, the start of its `dX` gather in `lanes` and the weights of
    /// a group of `LANES` depthwise filters.
    tap_lanes: Vec<(usize, [f32; LANES])>,
    /// The padded input-gradient plane, `ph·pw`.
    dpad: Vec<f32>,
}

impl Direct {
    fn new(geom: &Geometry) -> Self {
        let pad = geom.spec.padding;
        Direct {
            h: geom.h,
            w: geom.w,
            pad,
            kh: geom.spec.kernel_h,
            kw: geom.spec.kernel_w,
            ph: geom.h + 2 * pad,
            pw: geom.w + 2 * pad,
            oh: geom.oh,
            ow: geom.ow,
        }
    }

    /// Length of one tap's loop: `oh` laid-out rows, the last cut at `ow`.
    fn span(&self) -> usize {
        (self.oh - 1) * self.pw + self.ow
    }

    /// Elements of one padded plane.
    fn padded(&self) -> usize {
        self.ph * self.pw
    }

    /// Kernel taps per filter plane, `R·S`.
    fn taps(&self) -> usize {
        self.kh * self.kw
    }

    /// Sizes `xpad` and `line` for tasks of `planes` input planes.
    fn size_bufs(&self, planes: usize, buf: &mut PlaneBufs) {
        buf.xpad.resize(planes * self.padded() + PIXELS, 0.0);
        buf.line.resize(self.span().next_multiple_of(PIXELS), 0.0);
    }

    /// Copies `h×w` planes into the interiors of `xpad`'s padded planes.
    fn pad_planes(&self, x: &[f32], xpad: &mut [f32]) {
        for (plane, dst) in x
            .chunks_exact(self.h * self.w)
            .zip(xpad.chunks_mut(self.padded()))
        {
            for (y, row) in plane.chunks_exact(self.w).enumerate() {
                let at = (y + self.pad) * self.pw + self.pad;
                dst[at..at + self.w].copy_from_slice(row);
            }
        }
    }

    /// Flat offset of tap `t = r·S + s` in the padded plane.
    fn tap_offset(&self, t: usize) -> usize {
        (t / self.kw) * self.pw + t % self.kw
    }

    /// Flat offset of reduction index `t = (c·R + r)·S + s` in a group's
    /// padded planes.
    fn reduction_offset(&self, t: usize) -> usize {
        (t / self.taps()) * self.padded() + self.tap_offset(t % self.taps())
    }

    /// Writes `planes` of `rows×width` elements side by side into `lanes`:
    /// plane `i` into lane `i mod LANES` of the `i / LANES`-th run of
    /// `run` pixels, its row `y` from pixel `at + y·pw`. Slots no row
    /// reaches keep their value.
    fn interleave(
        &self,
        planes: &[f32],
        (rows, width): (usize, usize),
        at: usize,
        run: usize,
        lanes: &mut [[f32; LANES]],
    ) {
        let plane = rows * width;
        for (group, dst) in planes.chunks(LANES * plane).zip(lanes.chunks_mut(run)) {
            for y in 0..rows {
                let dst = &mut dst[at + y * self.pw..][..width];
                if group.len() == LANES * plane {
                    // A whole group gathers each slot from its planes at once.
                    let rows: [&[f32]; LANES] =
                        std::array::from_fn(|l| &group[l * plane + y * width..][..width]);
                    for (x, slot) in dst.iter_mut().enumerate() {
                        *slot = rows.map(|row| row[x]);
                    }
                    continue;
                }
                for (lane, src) in group.chunks_exact(plane).enumerate() {
                    for (slot, &v) in dst.iter_mut().zip(&src[y * width..][..width]) {
                        slot[lane] = v;
                    }
                }
            }
        }
    }

    /// One `(item, group)` task: `out` holds the group's `kg` output
    /// planes, `x` its `C/g` input planes, `weights` its `[kg, C/g, R, S]`
    /// filters. Each output pixel is `Σ w·x` over the filter's taps in
    /// ascending `(c, r, s)`, zero weights skipped as the reference GEMM
    /// skips them, then `+ bias`.
    fn forward_group(
        &self,
        x: &[f32],
        weights: &[f32],
        bias: &[f32],
        buf: &mut PlaneBufs,
        out: &mut [f32],
    ) {
        self.pad_planes(x, &mut buf.xpad);
        for ((filter, &b), out) in weights
            .chunks_exact(weights.len() / bias.len())
            .zip(bias)
            .zip(out.chunks_exact_mut(self.oh * self.ow))
        {
            buf.terms.clear();
            for (t, &wt) in filter.iter().enumerate() {
                if wt != 0.0 {
                    buf.terms.push((self.reduction_offset(t), wt));
                }
            }
            // The last block runs past `span` into the padded planes'
            // tail; those sums are never stored.
            weighted_blocks(&buf.xpad, &buf.terms, &mut buf.line);
            for (row, acc) in out.chunks_exact_mut(self.ow).zip(buf.line.chunks(self.pw)) {
                for (d, &a) in row.iter_mut().zip(acc) {
                    *d = a + b;
                }
            }
        }
    }

    /// One `(item, group)` task of the backward: `x` holds its `C/g` input
    /// planes, `go` its `kg` `dOut` planes, `weights` its
    /// `[kg, C/g, R, S]` filters. Writes its `dW` partial to
    /// `part[..kg·C/g·R·S]`, its `dBias` partial to the `kg` slots after
    /// it and, when given, its `dX` planes to `din`.
    fn backward_group(
        &self,
        x: &[f32],
        go: &[f32],
        weights: &[f32],
        buf: &mut PlaneBufs,
        din: Option<&mut [f32]>,
        part: &mut [f32],
    ) {
        let out_plane = self.oh * self.ow;
        let kg = go.len() / out_plane;
        let rows = weights.len() / kg;
        let span = self.span();
        let (dw, db) = part.split_at_mut(kg * rows);
        buf.lanes.resize(kg.div_ceil(LANES) * span, [0.0; LANES]);
        self.interleave(go, (self.oh, self.ow), 0, span, &mut buf.lanes);
        for (lanes, db) in buf.lanes.chunks_exact(span).zip(db.chunks_mut(LANES)) {
            db.copy_from_slice(&self.plane_sums(lanes)[..db.len()]);
        }
        self.size_bufs(x.len() / (self.h * self.w), buf);
        self.pad_planes(x, &mut buf.xpad);
        // A fringe pass repeats the last tap; its sums are never stored.
        let offset = |t: usize| self.reduction_offset(t.min(rows - 1));
        if kernels::all_finite(x) {
            for (lanes, dw) in buf
                .lanes
                .chunks_exact(span)
                .zip(dw.chunks_mut(LANES * rows))
            {
                for t0 in (0..rows).step_by(TAPS) {
                    let sums =
                        filter_sums(&buf.xpad, std::array::from_fn(|i| offset(t0 + i)), lanes);
                    for (dw_row, l) in dw.chunks_exact_mut(rows).zip(0..) {
                        for (d, sum) in dw_row[t0..].iter_mut().zip(&sums) {
                            *d = sum[l];
                        }
                    }
                }
            }
        } else {
            for (dw_row, plane) in dw.chunks_exact_mut(rows).zip(go.chunks_exact(out_plane)) {
                self.hit_sums(&buf.xpad, plane, &mut buf.hits, offset, dw_row);
            }
        }
        if let Some(din) = din {
            self.input_grads(go, weights, buf, din);
        }
    }

    /// One item of a depthwise backward: `x` and `go` hold its `C` input
    /// and `dOut` planes, `weights` all `C` filters. Writes each channel's
    /// `dW` partial (`R·S` slots) and `dBias` partial (one slot) to
    /// consecutive runs of `part` and, when given, its `dX` planes to
    /// `din`. The channels are the lanes of `dW` and, over finite
    /// weights and `dOut`, of `dX`.
    fn backward_channels(
        &self,
        x: &[f32],
        go: &[f32],
        weights: &[f32],
        buf: &mut PlaneBufs,
        din: Option<&mut [f32]>,
        part: &mut [f32],
    ) {
        let (plane, out_plane, taps) = (self.h * self.w, self.oh * self.ow, self.taps());
        let (span, padded) = (self.span(), self.padded());
        // `dOut` is laid out after a margin as long as the largest tap
        // offset, so the `dX` gather below reads zeros before pixel 0.
        let margin = self.tap_offset(taps - 1);
        let run = margin + padded + GATHER;
        let blocks = (go.len() / out_plane).div_ceil(LANES);
        buf.lanes.resize(blocks * run, [0.0; LANES]);
        buf.xlanes.resize(blocks * padded, [0.0; LANES]);
        self.interleave(go, (self.oh, self.ow), margin, run, &mut buf.lanes);
        let interior = self.pad * self.pw + self.pad;
        self.interleave(x, (self.h, self.w), interior, padded, &mut buf.xlanes);
        let offset = |t: usize| self.tap_offset(t.min(taps - 1));
        let runs = buf
            .lanes
            .chunks_exact(run)
            .zip(buf.xlanes.chunks_exact(padded));
        for ((lanes, xlanes), part) in runs.zip(part.chunks_mut(LANES * (taps + 1))) {
            let lanes = &lanes[margin..margin + span];
            let totals = self.plane_sums(lanes);
            for (slots, total) in part.chunks_exact_mut(taps + 1).zip(totals) {
                slots[taps] = total;
            }
            for t0 in (0..taps).step_by(ROW_TAPS) {
                let sums = channel_sums(xlanes, std::array::from_fn(|i| offset(t0 + i)), lanes);
                for (slots, l) in part.chunks_exact_mut(taps + 1).zip(0..) {
                    for (d, sum) in slots[t0..taps].iter_mut().zip(&sums) {
                        *d = sum[l];
                    }
                }
            }
        }
        self.size_bufs(1, buf);
        let channels = x.chunks_exact(plane).zip(go.chunks_exact(out_plane));
        for (slots, (x, go)) in part.chunks_exact_mut(taps + 1).zip(channels) {
            if !kernels::all_finite(x) {
                self.pad_planes(x, &mut buf.xpad);
                self.hit_sums(&buf.xpad, go, &mut buf.hits, offset, &mut slots[..taps]);
            }
        }
        let Some(din) = din else {
            return;
        };
        if !(kernels::all_finite(weights) && kernels::all_finite(go)) {
            let planes = din.chunks_exact_mut(plane).zip(go.chunks_exact(out_plane));
            for ((din, go), filter) in planes.zip(weights.chunks_exact(taps)) {
                self.input_grads(go, filter, buf, din);
            }
            return;
        }
        // dX element `q` of the padded plane (from the first interior one)
        // gathers `w·dOut` from laid-out pixel `q − tap offset` of every
        // tap in ascending order: the order `col2im` adds them in. Pixels
        // that do not exist read zeros; a zero weight meets finite `dOut`.
        // Both give `±0` products, which leave the sums unchanged.
        let len = (self.h - 1) * self.pw + self.w;
        buf.dlanes.resize(len, [0.0; LANES]);
        let filters = weights.chunks(LANES * taps);
        let planes = din
            .chunks_mut(LANES * plane)
            .zip(buf.lanes.chunks_exact(run));
        for ((din, lanes), filters) in planes.zip(filters) {
            buf.tap_lanes.clear();
            for t in 0..taps {
                let mut w = [0.0f32; LANES];
                for (wl, filter) in w.iter_mut().zip(filters.chunks_exact(taps)) {
                    *wl = filter[t];
                }
                buf.tap_lanes
                    .push((margin + interior - self.tap_offset(t), w));
            }
            channel_grads(lanes, &buf.tap_lanes, &mut buf.dlanes);
            for (l, din) in din.chunks_exact_mut(plane).enumerate() {
                for (row, src) in din.chunks_exact_mut(self.w).zip(buf.dlanes.chunks(self.pw)) {
                    for (d, g) in row.iter_mut().zip(src) {
                        *d = g[l];
                    }
                }
            }
        }
    }

    /// Each lane's sum over the laid-out pixels of `lanes`, row gaps left
    /// out: `LANES` planes' `iter().sum()`, side by side, each from the
    /// same start (`−0`) in the same order.
    fn plane_sums(&self, lanes: &[[f32; LANES]]) -> [f32; LANES] {
        let mut acc = [-0.0f32; LANES];
        for row in lanes.chunks(self.pw) {
            for g in &row[..self.ow] {
                for (a, &v) in acc.iter_mut().zip(g) {
                    *a += v;
                }
            }
        }
        acc
    }

    /// The `dW` row of one filter over input planes that may hold an
    /// infinity or a NaN: `dw[t] = Σ g·xpad[at + offset(t)]` over the
    /// non-zero `dOut` pixels `g` of `go` (laid-out offset `at`) in
    /// ascending order, the products the reference computes.
    fn hit_sums(
        &self,
        xpad: &[f32],
        go: &[f32],
        hits: &mut Vec<(usize, f32)>,
        offset: impl Fn(usize) -> usize,
        dw: &mut [f32],
    ) {
        hits.clear();
        for (oy, row) in go.chunks_exact(self.ow).enumerate() {
            for (ox, &g) in row.iter().enumerate() {
                if g != 0.0 {
                    hits.push((oy * self.pw + ox, g));
                }
            }
        }
        for (t, d) in dw.iter_mut().enumerate() {
            let off = offset(t);
            *d = hits
                .iter()
                .fold(0.0, |acc, &(at, g)| acc + g * xpad[at + off]);
        }
    }

    /// The input gradient of one task into `din` (its `C/g` planes), from
    /// its `kg` `dOut` planes `go` and `[kg, C/g, R, S]` filters: per
    /// plane and tap in ascending `(r, s)`, the line `Σ_k w·dOut` over the
    /// filters in ascending `k` (zero weights skipped, as the reference's
    /// `dCol` GEMM skips them), added into the zeroed padded plane, whose
    /// interior is then copied out (`din`, zeroed, is that plane when
    /// there is no padding). A line's row-gap slots pair weights with
    /// zeros; they are zeroed before the line is added, so an infinite
    /// weight adds no NaN there.
    fn input_grads(&self, go: &[f32], weights: &[f32], buf: &mut PlaneBufs, din: &mut [f32]) {
        let (out_plane, taps, span) = (self.oh * self.ow, self.taps(), self.span());
        let line_len = buf.line.len();
        let kg = go.len() / out_plane;
        let cg = weights.len() / (kg * taps);
        // `dOut` planes whose rows already sit at the padded width and fill
        // whole blocks are their own lines.
        let lines = if self.pw == self.ow && line_len == out_plane {
            go
        } else {
            buf.lines.resize(kg * line_len, 0.0);
            for (src, dst) in go
                .chunks_exact(out_plane)
                .zip(buf.lines.chunks_exact_mut(line_len))
            {
                for (row, src) in dst.chunks_mut(self.pw).zip(src.chunks_exact(self.ow)) {
                    row[..self.ow].copy_from_slice(src);
                }
            }
            &buf.lines
        };
        buf.dpad.resize(self.padded(), 0.0);
        for (c, din) in din.chunks_exact_mut(self.h * self.w).enumerate() {
            // Without padding the padded plane is the zeroed `dX` plane.
            let dpad = if self.pad == 0 {
                &mut *din
            } else {
                buf.dpad.fill(0.0);
                &mut buf.dpad
            };
            for t in 0..taps {
                buf.terms.clear();
                for (k, filter) in weights.chunks_exact(cg * taps).enumerate() {
                    let wt = filter[c * taps + t];
                    if wt != 0.0 {
                        buf.terms.push((k * line_len, wt));
                    }
                }
                // An all-zero line would add `+0`: nothing.
                if buf.terms.is_empty() {
                    continue;
                }
                weighted_blocks(lines, &buf.terms, &mut buf.line);
                for row in buf.line[..span].chunks_mut(self.pw) {
                    row[self.ow..].fill(0.0);
                }
                let dst = &mut dpad[self.tap_offset(t)..][..span];
                for (d, &v) in dst.iter_mut().zip(&buf.line) {
                    *d += v;
                }
            }
            if self.pad > 0 {
                for (y, row) in din.chunks_exact_mut(self.w).enumerate() {
                    let at = (y + self.pad) * self.pw + self.pad;
                    row.copy_from_slice(&buf.dpad[at..at + self.w]);
                }
            }
        }
    }
}

/// Fills `line` in [`PIXELS`]-wide blocks held in registers: block `i` is
/// `Σ wt·src[at + i·PIXELS..][..PIXELS]` over `terms` in order, each sum
/// starting at `+0`.
fn weighted_blocks(src: &[f32], terms: &[(usize, f32)], line: &mut [f32]) {
    for (i, dst) in line.chunks_exact_mut(PIXELS).enumerate() {
        let p0 = i * PIXELS;
        let mut acc = [0.0f32; PIXELS];
        for &(at, wt) in terms {
            let src = &src[at + p0..at + p0 + PIXELS];
            for (a, &v) in acc.iter_mut().zip(src) {
                *a += wt * v;
            }
        }
        dst.copy_from_slice(&acc);
    }
}

/// `TAPS × LANES` sums over the laid-out pixels `p` of `lanes`, each
/// starting at `+0` and adding in ascending `p`: sum `(t, l)` adds
/// `x[offsets[t] + p] · lanes[p][l]`. One input element meets `LANES`
/// filters' `dOut`.
///
/// `inline(never)` keeps the sums in registers, as for the GEMM
/// microkernel.
#[inline(never)]
fn filter_sums(x: &[f32], offsets: [usize; TAPS], lanes: &[[f32; LANES]]) -> [[f32; LANES]; TAPS] {
    let [x0, x1, x2, x3] = offsets.map(|o| &x[o..o + lanes.len()]);
    let mut acc = [[0.0f32; LANES]; TAPS];
    let pixels = lanes.iter().zip(x0).zip(x1).zip(x2).zip(x3);
    for ((((g, &v0), &v1), &v2), &v3) in pixels {
        for (sums, v) in acc.iter_mut().zip([v0, v1, v2, v3]) {
            for (s, &gl) in sums.iter_mut().zip(g) {
                *s += v * gl;
            }
        }
    }
    acc
}

/// [`filter_sums`] with one input plane per lane, as a depthwise
/// convolution pairs them, over [`ROW_TAPS`] taps: sum `(t, l)` adds
/// `x[offsets[t] + p][l] · lanes[p][l]`.
#[inline(never)]
fn channel_sums(
    x: &[[f32; LANES]],
    offsets: [usize; ROW_TAPS],
    lanes: &[[f32; LANES]],
) -> [[f32; LANES]; ROW_TAPS] {
    let [x0, x1, x2] = offsets.map(|o| &x[o..o + lanes.len()]);
    let mut acc = [[0.0f32; LANES]; ROW_TAPS];
    for (((g, v0), v1), v2) in lanes.iter().zip(x0).zip(x1).zip(x2) {
        for (sums, v) in acc.iter_mut().zip([v0, v1, v2]) {
            for ((s, &vl), &gl) in sums.iter_mut().zip(v).zip(g) {
                *s += vl * gl;
            }
        }
    }
    acc
}

/// A depthwise `dX` gather over `LANES` channels:
/// `out[q] = Σ w ⊙ lanes[start + q]` over `taps` `(start, w)` in order,
/// each lane's sum starting at `+0`.
#[inline(never)]
fn channel_grads(lanes: &[[f32; LANES]], taps: &[(usize, [f32; LANES])], out: &mut [[f32; LANES]]) {
    // `GATHER` positions at a time keep as many independent sums in
    // flight; a tail block gathers from further (zero or unused) pixels
    // and stores only its own positions.
    for (i, dst) in out.chunks_mut(GATHER).enumerate() {
        let q0 = i * GATHER;
        let mut acc = [[0.0f32; LANES]; GATHER];
        for (start, w) in taps {
            let src = &lanes[start + q0..][..GATHER];
            for (a, g) in acc.iter_mut().zip(src) {
                for ((s, &wl), &gl) in a.iter_mut().zip(w).zip(g) {
                    *s += wl * gl;
                }
            }
        }
        dst.copy_from_slice(&acc[..dst.len()]);
    }
}

/// Direct forward (see [`Direct`]): `[N, K, H', W']`. Each `(item, group)`
/// task pads its `C/g` input planes once and computes its `K/g` output
/// planes from them.
fn direct_forward(geom: &Geometry, input: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
    let direct = Direct::new(geom);
    let (cg, kg) = (geom.cg(), geom.kg());
    let (x_len, w_len) = (cg * geom.h * geom.w, kg * geom.rows_g());
    let mut out = Tensor::zeros(&[geom.n, geom.k, geom.oh, geom.ow]);
    let (x, wv, bv) = (input.as_slice(), weight.as_slice(), bias.as_slice());
    let mut buf = PlaneBufs::default();
    direct.size_bufs(cg, &mut buf);
    for (task, dst) in out
        .as_mut_slice()
        .chunks_mut(kg * geom.cols_len())
        .enumerate()
    {
        let g = task % geom.groups;
        direct.forward_group(
            &x[task * x_len..(task + 1) * x_len],
            &wv[g * w_len..(g + 1) * w_len],
            &bv[g * kg..(g + 1) * kg],
            &mut buf,
            dst,
        );
    }
    out
}

/// Direct backward (see [`Direct`]): `(dW, dBias)`, and `dX` into
/// `d_input` (a zeroed `[N, C, H, W]` buffer) when given. A depthwise
/// convolution's units of work are whole items, their channels side by
/// side; any other's are `(item, group)` tasks. The per-task partials
/// are reduced in ascending task order, i.e. ascending batch order per
/// group, as the reference accumulates them.
fn direct_backward(
    geom: &Geometry,
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    d_input: Option<&mut [f32]>,
) -> (Tensor, Tensor) {
    let direct = Direct::new(geom);
    let (groups, kg, rows) = (geom.groups, geom.kg(), geom.rows_g());
    let unit = if geom.direct_depthwise() { groups } else { 1 };
    let x_len = unit * geom.cg() * geom.h * geom.w;
    let (go_len, w_len, part_len) = (unit * kg * geom.cols_len(), kg * rows, kg * rows + kg);
    let (x, go, wv) = (input.as_slice(), grad_out.as_slice(), weight.as_slice());
    let units = geom.tasks() / unit;
    let mut parts = vec![0.0f32; geom.tasks() * part_len];
    let mut buf = PlaneBufs::default();
    let dins = input_grad_chunks(d_input, x_len, units).into_iter();
    for (u, (din, part)) in dins.zip(parts.chunks_mut(unit * part_len)).enumerate() {
        let (x, go) = (
            &x[u * x_len..(u + 1) * x_len],
            &go[u * go_len..(u + 1) * go_len],
        );
        if unit > 1 {
            direct.backward_channels(x, go, wv, &mut buf, din, part);
        } else {
            let g = u % groups;
            let filters = &wv[g * w_len..(g + 1) * w_len];
            direct.backward_group(x, go, filters, &mut buf, din, part);
        }
    }
    let mut d_weight = vec![0.0f32; geom.k * rows];
    let mut d_bias = vec![0.0f32; geom.k];
    for (task, part) in parts.chunks(part_len).enumerate() {
        reduce_part(task, part, groups, kg, rows, &mut d_weight, &mut d_bias);
    }
    (
        Tensor::from_vec(d_weight, &[geom.k, geom.cg(), direct.kh, direct.kw]),
        Tensor::from_vec(d_bias, &[geom.k]),
    )
}

/// Whether two tensors have the same shape and the same bit pattern in
/// every element. Unlike float `==`, `-0.0` differs from `0.0` and a NaN
/// matches an identical NaN.
fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    // OR-ing XORs per chunk instead of stopping at the first difference
    // lets the comparison vectorize.
    a.shape() == b.shape()
        && a.as_slice()
            .chunks(64)
            .zip(b.as_slice().chunks(64))
            .all(|(x, y)| {
                x.iter()
                    .zip(y)
                    .fold(0, |d, (p, q)| d | (p.to_bits() ^ q.to_bits()))
                    == 0
            })
}

/// A reusable convolution arena for one layer's training steps: a copy of
/// the most recent forward input and the lowering slot the routers fill
/// on the im2col route (its buffer is reused across calls).
///
/// [`ConvScratch::forward`] copies its input. A following
/// [`ConvScratch::backward`] keeps that copy, and any lowering of it, when
/// its `input` has the same shape and bit pattern (so `-0.0` is not
/// `0.0`), and copies and re-lowers otherwise.
/// [`ConvScratch::backward_last`] and [`ConvScratch::param_grads_last`]
/// run on the copy itself: a `Conv2d` layer owns one scratch and keeps no
/// copy of its input besides it, so a training step copies and lowers
/// each input at most once. Only the im2col route lowers: convolutions on
/// the direct kernels (depthwise or narrow, at unit stride) never do.
#[derive(Debug, Clone)]
pub struct ConvScratch {
    /// The most recent forward input (a rank-1 placeholder before the first).
    input: Tensor,
    lowering: ConvLowering,
}

impl Default for ConvScratch {
    fn default() -> Self {
        ConvScratch {
            input: Tensor::zeros(&[1]),
            lowering: ConvLowering::default(),
        }
    }
}

impl ConvScratch {
    /// Creates an empty scratch (no buffer held yet).
    pub fn new() -> Self {
        ConvScratch::default()
    }

    /// Replaces the held input with a copy of `input` (into the existing
    /// allocation when the shape is unchanged); the slot's lowering, if
    /// any, goes stale.
    fn hold(&mut self, input: &Tensor) {
        if self.input.shape() == input.shape() {
            self.input.as_mut_slice().copy_from_slice(input.as_slice());
        } else {
            self.input = input.clone();
        }
        self.lowering.geom = None;
    }

    /// Grouped forward convolution through the scratch (use `groups = 1`
    /// for dense). Results are identical to [`conv2d_grouped`].
    ///
    /// # Panics
    ///
    /// As [`conv2d_grouped`].
    pub fn forward(
        &mut self,
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        spec: &ConvSpec,
        groups: usize,
    ) -> Tensor {
        self.hold(input);
        route_forward(input, weight, bias, spec, groups, &mut self.lowering)
    }

    /// Grouped backward convolution through the scratch; when `input` is
    /// bit for bit the input of the last [`ConvScratch::forward`], that
    /// call's lowering is reused. Results are identical to
    /// [`conv2d_grouped_backward`].
    ///
    /// # Panics
    ///
    /// As [`conv2d_grouped_backward`].
    pub fn backward(
        &mut self,
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: &ConvSpec,
        groups: usize,
    ) -> Conv2dGrads {
        if !same_bits(&self.input, input) {
            self.hold(input);
        }
        self.backward_last(weight, grad_out, spec, groups)
    }

    /// [`ConvScratch::backward`] over the input of the last
    /// [`ConvScratch::forward`], reusing its lowering.
    ///
    /// # Panics
    ///
    /// Panics if no forward call came first, and as
    /// [`conv2d_grouped_backward`].
    pub fn backward_last(
        &mut self,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: &ConvSpec,
        groups: usize,
    ) -> Conv2dGrads {
        assert_eq!(
            self.input.shape().rank(),
            4,
            "backward called before forward"
        );
        route_backward_full(
            &self.input,
            weight,
            grad_out,
            spec,
            groups,
            &mut self.lowering,
        )
    }

    /// The weight and bias gradients of [`ConvScratch::backward_last`]
    /// without the input gradient, whose GEMM and `col2im` (or direct
    /// pass) are skipped — for a network's first layer, whose input
    /// gradient nothing reads.
    ///
    /// # Panics
    ///
    /// As [`ConvScratch::backward_last`].
    pub fn param_grads_last(
        &mut self,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: &ConvSpec,
        groups: usize,
    ) -> (Tensor, Tensor) {
        assert_eq!(
            self.input.shape().rank(),
            4,
            "backward called before forward"
        );
        route_backward(
            &self.input,
            weight,
            grad_out,
            spec,
            groups,
            &mut self.lowering,
            None,
        )
    }
}

/// Forward 2-D convolution: [`conv2d_grouped`] with `groups = 1`.
///
/// `input` is `[N, C, H, W]`, `weight` is `[K, C, R, S]`, `bias` is `[K]`;
/// returns `[N, K, H', W']`. To share the input's lowering with the
/// backward pass, hold a [`ConvScratch`] instead of calling this free
/// function.
///
/// # Panics
///
/// Panics if any shape is inconsistent with `spec`.
///
/// # Example
///
/// ```
/// use cscnn_tensor::{conv2d, ConvSpec, Tensor};
///
/// let input = Tensor::full(&[1, 1, 3, 3], 1.0);
/// let weight = Tensor::full(&[1, 1, 3, 3], 1.0);
/// let bias = Tensor::zeros(&[1]);
/// let out = conv2d(&input, &weight, &bias, &ConvSpec::new(3, 3));
/// assert_eq!(out.as_slice(), &[9.0]);
/// ```
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Tensor {
    conv2d_grouped(input, weight, bias, spec, 1)
}

/// Backward 2-D convolution: [`conv2d_grouped_backward`] with
/// `groups = 1`.
///
/// `grad_out` must be `[N, K, H', W']` for the same `input`/`weight`/`spec`
/// that produced the forward output. This free function lowers the input
/// itself; a [`ConvScratch`] reuses the forward pass's lowering instead.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
) -> Conv2dGrads {
    conv2d_grouped_backward(input, weight, grad_out, spec, 1)
}

/// Forward grouped 2-D convolution (`groups == C` is depthwise).
///
/// `input` is `[N, C, H, W]`, `weight` is `[K, C/groups, R, S]`, `bias` is
/// `[K]`; returns `[N, K, H', W']`. Filters `K/groups·g .. K/groups·(g+1)`
/// see only input channels `C/groups·g .. C/groups·(g+1)`. On the im2col
/// route all groups are lowered into one fused buffer and the
/// `(batch × group)` tasks run in parallel.
///
/// # Panics
///
/// Panics if any shape is inconsistent with `spec` or `groups` does not
/// divide the channel counts.
pub fn conv2d_grouped(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
    groups: usize,
) -> Tensor {
    route_forward(
        input,
        weight,
        bias,
        spec,
        groups,
        &mut ConvLowering::default(),
    )
}

/// Backward grouped 2-D convolution: gradients w.r.t. input, weight and
/// bias.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn conv2d_grouped_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
    groups: usize,
) -> Conv2dGrads {
    route_backward_full(
        input,
        weight,
        grad_out,
        spec,
        groups,
        &mut ConvLowering::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(dims: &[usize], scale: f32) -> Tensor {
        Tensor::from_fn(dims, |i| ((i as f32) * scale).sin())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Direct (loop-nest) convolution used as a reference.
    fn conv_ref(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Tensor {
        let d = input.shape().dims();
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let wd = weight.shape().dims();
        let k = wd[0];
        let (oh, ow) = spec.output_dim(h, w);
        let mut out = Tensor::zeros(&[n, k, oh, ow]);
        for ni in 0..n {
            for ki in 0..k {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.at(&[ki]);
                        for ci in 0..c {
                            for r in 0..spec.kernel_h {
                                for s in 0..spec.kernel_w {
                                    let iy =
                                        (oy * spec.stride + r) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + s) as isize - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[ni, ci, iy as usize, ix as usize])
                                        * weight.at(&[ki, ci, r, s]);
                                }
                            }
                        }
                        out.set(&[ni, ki, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_reference_padded_strided() {
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 1), (2, 0)] {
            let spec = ConvSpec::new(3, 3)
                .with_stride(stride)
                .with_padding(padding);
            let input = seq(&[2, 3, 7, 8], 0.13);
            let weight = seq(&[4, 3, 3, 3], 0.29);
            let bias = seq(&[4], 0.7);
            let got = conv2d(&input, &weight, &bias, &spec);
            let want = conv_ref(&input, &weight, &bias, &spec);
            assert_eq!(got.shape(), want.shape());
            for (g, v) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((g - v).abs() < 1e-4, "stride={stride} pad={padding}");
            }
        }
    }

    #[test]
    fn forward_and_backward_bit_match_naive_oracle() {
        let spec = ConvSpec::new(3, 3).with_stride(2).with_padding(1);
        let input = seq(&[3, 5, 9, 11], 0.13);
        let weight = seq(&[4, 5, 3, 3], 0.29);
        let bias = seq(&[4], 0.7);
        let fast = conv2d(&input, &weight, &bias, &spec);
        let slow = crate::reference::conv2d(&input, &weight, &bias, &spec);
        assert_eq!(bits(&fast), bits(&slow));

        let go = Tensor::from_fn(fast.shape().dims(), |i| ((i as f32) * 0.17).cos());
        let fast = conv2d_backward(&input, &weight, &go, &spec);
        let slow = crate::reference::conv2d_backward(&input, &weight, &go, &spec);
        assert_eq!(bits(&fast.input), bits(&slow.input));
        assert_eq!(bits(&fast.weight), bits(&slow.weight));
        assert_eq!(bits(&fast.bias), bits(&slow.bias));
    }

    #[test]
    fn grouped_bit_matches_naive_oracle() {
        for &(c, k, groups) in &[(6usize, 6usize, 3usize), (4, 4, 4), (8, 4, 2)] {
            let spec = ConvSpec::new(3, 3).with_padding(1);
            let input = seq(&[2, c, 6, 7], 0.19);
            let weight = seq(&[k, c / groups, 3, 3], 0.37);
            let bias = seq(&[k], 0.61);
            let fast = conv2d_grouped(&input, &weight, &bias, &spec, groups);
            let slow = crate::reference::conv2d_grouped(&input, &weight, &bias, &spec, groups);
            assert_eq!(bits(&fast), bits(&slow), "c={c} k={k} g={groups}");

            let go = Tensor::from_fn(fast.shape().dims(), |i| ((i as f32) * 0.11).cos());
            let fast = conv2d_grouped_backward(&input, &weight, &go, &spec, groups);
            let slow =
                crate::reference::conv2d_grouped_backward(&input, &weight, &go, &spec, groups);
            assert_eq!(bits(&fast.input), bits(&slow.input));
            assert_eq!(bits(&fast.weight), bits(&slow.weight));
            assert_eq!(bits(&fast.bias), bits(&slow.bias));
        }
    }

    /// A strided grouped convolution on a batch of 16 runs on im2col and
    /// the GEMMs. The backward reduces each task's partial gradients in
    /// the reference's order, with or without `dX`; the name is kept from
    /// when those tasks also ran in budgeted blocks across threads.
    #[test]
    fn lowered_grads_in_budgeted_blocks_bit_match_reference() {
        let spec = ConvSpec::new(3, 3).with_stride(2).with_padding(1);
        let (input, weight) = (seq(&[16, 16, 32, 32], 0.13), seq(&[32, 8, 3, 3], 0.29));
        let go = Tensor::from_fn(&[16, 32, 16, 16], |i| ((i as f32) * 0.17).cos());
        let geom = check(&input, &weight, Operand::GradOut(&go), &spec, 2);
        assert!(!geom.direct_forward());
        let want = reference::conv2d_grouped_backward(&input, &weight, &go, &spec, 2);
        let bias = seq(&[32], 0.7);
        let want_out = reference::conv2d_grouped(&input, &weight, &bias, &spec, 2);
        assert_eq!(
            bits(&conv2d_grouped(&input, &weight, &bias, &spec, 2)),
            bits(&want_out)
        );
        let mut lowering = ConvLowering::default();
        let cols = lowering.lower(&geom, &input);
        let mut din = Tensor::zeros(input.shape().dims());
        let (dw, db) = lowered_grads(&geom, cols, &weight, &go, Some(din.as_mut_slice()));
        assert_eq!(bits(&din), bits(&want.input));
        assert_eq!(bits(&dw), bits(&want.weight));
        assert_eq!(bits(&db), bits(&want.bias));
        let (dw, db) = lowered_grads(&geom, cols, &weight, &go, None);
        assert_eq!(bits(&dw), bits(&want.weight));
        assert_eq!(bits(&db), bits(&want.bias));
    }

    /// A narrow and a depthwise convolution on batches of 64 and 32 run on
    /// the direct kernels and match the reference bit for bit, forward and
    /// backward; the name is kept from when those kernels split their
    /// tasks across threads.
    #[test]
    fn direct_routes_split_across_threads_bit_match_reference() {
        let spec = ConvSpec::new(3, 3).with_padding(1);
        for (n, c, k, groups) in [(64, 3, 32, 1), (32, 64, 64, 64)] {
            let input = seq(&[n, c, 16, 16], 0.13);
            let weight = seq(&[k, c / groups, 3, 3], 0.29);
            let (bias, go) = (seq(&[k], 0.7), seq(&[n, k, 16, 16], 0.31));
            let geom = check(&input, &weight, Operand::Bias(&bias), &spec, groups);
            assert!(geom.direct_forward());
            let want = reference::conv2d_grouped(&input, &weight, &bias, &spec, groups);
            let grads = reference::conv2d_grouped_backward(&input, &weight, &go, &spec, groups);
            let out = conv2d_grouped(&input, &weight, &bias, &spec, groups);
            assert_eq!(bits(&out), bits(&want), "c={c}");
            let got = conv2d_grouped_backward(&input, &weight, &go, &spec, groups);
            assert_eq!(bits(&got.input), bits(&grads.input), "c={c}");
            assert_eq!(bits(&got.weight), bits(&grads.weight), "c={c}");
            assert_eq!(bits(&got.bias), bits(&grads.bias), "c={c}");
        }
    }

    /// Adds 1 to every element of the scratch's lowering: a backward that
    /// reuses it then gets a different `dW` than one that re-lowers.
    fn poison_lowering(scratch: &mut ConvScratch) {
        assert!(scratch.lowering.geom.is_some(), "forward lowered");
        for v in &mut scratch.lowering.cols {
            *v += 1.0;
        }
    }

    /// The backward reuses the forward's lowering for a bit-identical
    /// input only: one changed element, or one `+0.0` flipped to `-0.0`,
    /// re-lowers.
    #[test]
    fn scratch_reuses_forward_lowering_in_backward() {
        let spec = ConvSpec::new(3, 3).with_padding(1);
        let mut input = seq(&[2, 4, 6, 6], 0.23);
        input.as_mut_slice()[5] = 0.0;
        let weight = seq(&[6, 4, 3, 3], 0.41);
        let bias = seq(&[6], 0.3);
        let go = Tensor::from_fn(&[2, 6, 6, 6], |i| ((i as f32) * 0.07).cos());
        let reference = |x: &Tensor| crate::reference::conv2d_backward(x, &weight, &go, &spec);
        let mut scratch = ConvScratch::new();

        // Same input: the forward's (here poisoned) lowering is reused.
        let _ = scratch.forward(&input, &weight, &bias, &spec, 1);
        poison_lowering(&mut scratch);
        let reused = scratch.backward(&input, &weight, &go, &spec, 1);
        assert_ne!(bits(&reused.weight), bits(&reference(&input).weight));

        // One element changed, or one +0.0 flipped to -0.0 (float `==`
        // would call that equal): the backward re-lowers.
        let mut changed = input.clone();
        changed.as_mut_slice()[17] += 0.5;
        let mut negative_zero = input.clone();
        negative_zero.as_mut_slice()[5] = -0.0;
        for other in [&changed, &negative_zero] {
            let _ = scratch.forward(&input, &weight, &bias, &spec, 1);
            poison_lowering(&mut scratch);
            let got = scratch.backward(other, &weight, &go, &spec, 1);
            let want = reference(other);
            assert_eq!(bits(&got.input), bits(&want.input));
            assert_eq!(bits(&got.weight), bits(&want.weight));
            assert_eq!(bits(&got.bias), bits(&want.bias));
        }
    }

    #[test]
    fn param_grads_last_match_backward_last() {
        // Dense, grouped, direct depthwise and strided depthwise (im2col).
        for &(c, groups, stride) in &[(4usize, 1usize, 1usize), (4, 2, 1), (4, 4, 1), (4, 4, 2)] {
            let spec = ConvSpec::new(3, 3).with_stride(stride).with_padding(1);
            let input = seq(&[3, c, 7, 6], 0.19);
            let weight = seq(&[c, c / groups, 3, 3], 0.37);
            let bias = seq(&[c], 0.61);
            let mut scratch = ConvScratch::new();
            let out = scratch.forward(&input, &weight, &bias, &spec, groups);
            let go = Tensor::from_fn(out.shape().dims(), |i| ((i as f32) * 0.13).sin());
            let full = scratch.backward_last(&weight, &go, &spec, groups);
            let (dw, db) = scratch.param_grads_last(&weight, &go, &spec, groups);
            let want =
                crate::reference::conv2d_grouped_backward(&input, &weight, &go, &spec, groups);
            assert_eq!(
                bits(&full.input),
                bits(&want.input),
                "g={groups} s={stride}"
            );
            assert_eq!(
                bits(&full.weight),
                bits(&want.weight),
                "g={groups} s={stride}"
            );
            assert_eq!(bits(&dw), bits(&want.weight), "g={groups} s={stride}");
            assert_eq!(bits(&db), bits(&want.bias), "g={groups} s={stride}");
        }
    }

    /// `mobile_cnn`'s three convolutions run the direct kernels in both
    /// directions: a training step through a scratch never lowers.
    #[test]
    fn mobile_cnn_step_never_lowers() {
        let same3 = ConvSpec::new(3, 3).with_padding(1);
        for (c, k, spec, groups) in [
            (3, 8, same3, 1),
            (8, 8, same3, 8),
            (8, 16, ConvSpec::new(1, 1), 1),
        ] {
            let input = seq(&[4, c, 16, 16], 0.19);
            let weight = seq(&[k, c / groups, spec.kernel_h, spec.kernel_w], 0.37);
            let bias = seq(&[k], 0.61);
            let mut scratch = ConvScratch::new();
            let out = scratch.forward(&input, &weight, &bias, &spec, groups);
            let go = Tensor::from_fn(out.shape().dims(), |i| ((i as f32) * 0.13).sin());
            let _ = scratch.param_grads_last(&weight, &go, &spec, groups);
            let _ = scratch.backward_last(&weight, &go, &spec, groups);
            let _ = scratch.backward(&input, &weight, &go, &spec, groups);
            assert!(
                scratch.lowering.geom.is_none() && scratch.lowering.cols.is_empty(),
                "c={c} k={k} g={groups} lowered"
            );
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_last_without_forward_panics() {
        let _ = ConvScratch::new().backward_last(
            &Tensor::zeros(&[1, 1, 3, 3]),
            &Tensor::zeros(&[1, 1, 1, 1]),
            &ConvSpec::new(3, 3),
            1,
        );
    }

    /// A strided grouped convolution (the im2col route) through one
    /// scratch, whose backward reads the forward's lowering, matches the
    /// free functions, which lower once per call.
    #[test]
    fn shared_lowering_matches_free_functions() {
        let spec = ConvSpec::new(3, 3).with_stride(2).with_padding(1);
        let input = seq(&[2, 6, 8, 8], 0.19);
        let weight = seq(&[4, 3, 3, 3], 0.37);
        let bias = seq(&[4], 0.61);
        let mut scratch = ConvScratch::new();
        let out = scratch.forward(&input, &weight, &bias, &spec, 2);
        assert!(scratch.lowering.geom.is_some(), "forward lowered");
        assert_eq!(
            bits(&out),
            bits(&conv2d_grouped(&input, &weight, &bias, &spec, 2))
        );
        let go = Tensor::from_fn(out.shape().dims(), |i| ((i as f32) * 0.13).sin());
        let grads = scratch.backward_last(&weight, &go, &spec, 2);
        let want = conv2d_grouped_backward(&input, &weight, &go, &spec, 2);
        assert_eq!(bits(&grads.input), bits(&want.input));
        assert_eq!(bits(&grads.weight), bits(&want.weight));
        assert_eq!(bits(&grads.bias), bits(&want.bias));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let spec = ConvSpec::new(3, 3).with_padding(1);
        let input = seq(&[1, 2, 5, 5], 0.17);
        let weight = seq(&[3, 2, 3, 3], 0.31);
        let bias = seq(&[3], 0.5);
        // Loss = sum of outputs; dLoss/dOut = 1 everywhere.
        let out = conv2d(&input, &weight, &bias, &spec);
        let go = Tensor::full(out.shape().dims(), 1.0);
        let grads = conv2d_backward(&input, &weight, &go, &spec);

        let eps = 5e-3;
        // Spot-check weight gradient entries with central differences.
        for &idx in &[0usize, 7, 23, 53] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = weight.clone();
            wm.as_mut_slice()[idx] -= eps;
            let lp = conv2d(&input, &wp, &bias, &spec).sum();
            let lm = conv2d(&input, &wm, &bias, &spec).sum();
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads.weight.as_slice()[idx];
            assert!((fd - an).abs() < 3e-2, "weight[{idx}]: fd={fd} an={an}");
        }
        // Spot-check input gradient entries.
        for &idx in &[0usize, 11, 31, 49] {
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let lp = conv2d(&ip, &weight, &bias, &spec).sum();
            let lm = conv2d(&im, &weight, &bias, &spec).sum();
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads.input.as_slice()[idx];
            assert!((fd - an).abs() < 3e-2, "input[{idx}]: fd={fd} an={an}");
        }
        // Bias gradient of a sum loss is the number of output pixels per k.
        let per_k = out.len() as f32 / 3.0;
        for &g in grads.bias.as_slice() {
            assert!((g - per_k).abs() < 1e-3);
        }
    }

    #[test]
    fn output_dim_math() {
        let spec = ConvSpec::new(11, 11).with_stride(4).with_padding(2);
        assert_eq!(spec.output_dim(224, 224), (55, 55));
    }

    /// Expands a grouped `[K, C/g, R, S]` weight to the block-diagonal
    /// dense `[K, C, R, S]` equivalent.
    fn expand_grouped_weight(weight: &Tensor, c: usize, groups: usize) -> Tensor {
        let wd = weight.shape().dims();
        let (k, cg, r, s) = (wd[0], wd[1], wd[2], wd[3]);
        assert_eq!(cg, c / groups);
        let kg = k / groups;
        let mut dense = Tensor::zeros(&[k, c, r, s]);
        for ki in 0..k {
            let g = ki / kg;
            for ci in 0..cg {
                for ri in 0..r {
                    for si in 0..s {
                        dense.set(&[ki, g * cg + ci, ri, si], weight.at(&[ki, ci, ri, si]));
                    }
                }
            }
        }
        dense
    }

    #[test]
    fn grouped_forward_matches_block_diagonal_dense() {
        for &(c, k, groups, stride, padding) in &[
            (4usize, 6usize, 2usize, 1usize, 1usize),
            (6, 6, 6, 1, 1),
            (4, 4, 4, 2, 1),
        ] {
            let spec = ConvSpec::new(3, 3)
                .with_stride(stride)
                .with_padding(padding);
            let input = seq(&[2, c, 6, 6], 0.19);
            let weight = seq(&[k, c / groups, 3, 3], 0.37);
            let bias = seq(&[k], 0.61);
            let got = conv2d_grouped(&input, &weight, &bias, &spec, groups);
            let dense = expand_grouped_weight(&weight, c, groups);
            let want = conv2d(&input, &dense, &bias, &spec);
            assert_eq!(got.shape(), want.shape());
            for (g, v) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((g - v).abs() < 1e-4, "c={c} k={k} groups={groups}");
            }
        }
    }

    #[test]
    fn grouped_backward_matches_block_diagonal_dense() {
        let (c, k, groups) = (6usize, 6usize, 3usize);
        let spec = ConvSpec::new(3, 3).with_padding(1);
        let input = seq(&[2, c, 5, 5], 0.23);
        let weight = seq(&[k, c / groups, 3, 3], 0.41);
        let bias = seq(&[k], 0.3);
        let out = conv2d_grouped(&input, &weight, &bias, &spec, groups);
        let go = Tensor::from_fn(out.shape().dims(), |i| ((i as f32) * 0.11).cos());
        let grads = conv2d_grouped_backward(&input, &weight, &go, &spec, groups);

        let dense = expand_grouped_weight(&weight, c, groups);
        let dense_grads = conv2d_backward(&input, &dense, &go, &spec);
        for (g, v) in grads
            .input
            .as_slice()
            .iter()
            .zip(dense_grads.input.as_slice())
        {
            assert!((g - v).abs() < 1e-4);
        }
        for (g, v) in grads
            .bias
            .as_slice()
            .iter()
            .zip(dense_grads.bias.as_slice())
        {
            assert!((g - v).abs() < 1e-3);
        }
        // The grouped weight gradient equals the dense gradient at the
        // block-diagonal positions.
        let cg = c / groups;
        let kg = k / groups;
        for ki in 0..k {
            let g = ki / kg;
            for ci in 0..cg {
                for ri in 0..3 {
                    for si in 0..3 {
                        let a = grads.weight.at(&[ki, ci, ri, si]);
                        let b = dense_grads.weight.at(&[ki, g * cg + ci, ri, si]);
                        assert!((a - b).abs() < 1e-3, "weight[{ki},{ci},{ri},{si}]");
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_with_one_group_is_dense_conv() {
        let spec = ConvSpec::new(3, 3).with_padding(1);
        let input = seq(&[1, 3, 5, 5], 0.17);
        let weight = seq(&[4, 3, 3, 3], 0.29);
        let bias = seq(&[4], 0.5);
        let a = conv2d_grouped(&input, &weight, &bias, &spec, 1);
        let b = conv2d(&input, &weight, &bias, &spec);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn grouped_rejects_indivisible_channels() {
        let spec = ConvSpec::new(3, 3);
        let _ = conv2d_grouped(
            &Tensor::zeros(&[1, 5, 5, 5]),
            &Tensor::zeros(&[4, 2, 3, 3]),
            &Tensor::zeros(&[4]),
            &spec,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_channel_mismatch() {
        let spec = ConvSpec::new(3, 3);
        let _ = conv2d(
            &Tensor::zeros(&[1, 2, 5, 5]),
            &Tensor::zeros(&[1, 3, 3, 3]),
            &Tensor::zeros(&[1]),
            &spec,
        );
    }

    /// `ConvScratch::forward` runs the same shape check as the free
    /// functions: a bias of the wrong length and a `groups` that does not
    /// divide `C` both panic through it.
    #[test]
    fn scratch_forward_rejects_bad_bias_and_groups() {
        let spec = ConvSpec::new(3, 3);
        let input = Tensor::zeros(&[1, 4, 5, 5]);
        let weight = Tensor::zeros(&[6, 2, 3, 3]);
        for (bias_len, groups, expected) in [(5, 2, "bias length"), (6, 3, "must divide")] {
            let bias = Tensor::zeros(&[bias_len]);
            let panic = std::panic::catch_unwind(|| {
                ConvScratch::new().forward(&input, &weight, &bias, &spec, groups)
            })
            .expect_err("forward must panic");
            let message = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(message.contains(expected), "{expected}: got {message:?}");
        }
    }
}
