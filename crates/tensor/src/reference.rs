//! Frozen naive reference kernels — the correctness oracle.
//!
//! These are the original triple-loop matmul and per-item im2col
//! convolution kernels that shipped before the blocked/multithreaded
//! [`crate::kernels`] layer existed. They are kept verbatim (modulo the
//! documented zero-skip fix below) as the oracle that the fast kernels are
//! **bit-identical** to: `tests/property_kernels.rs` compares the two
//! stacks with `f32::to_bits` equality across random shapes, strides,
//! paddings, groups and thread counts.
//!
//! They are also reachable at runtime via
//! [`crate::kernels::set_reference_mode`], which the `kernels` bench binary
//! uses to time the seed implementation against the blocked one inside a
//! single binary.
//!
//! # Zero-skip contract
//!
//! All three matmul variants skip products whose **left operand** element
//! is exactly `0.0` (the sparsity short-circuit that makes pruned CSCNN
//! weights cheaper). Historically [`matmul_bt`] lacked the skip; since
//! `acc + ±0.0` can never change a running sum that starts at `+0.0`, for
//! finite inputs the skip is a pure win and the variants now agree. The
//! blocked kernels reproduce the skip's results: on finite right operands
//! by adding the `±0` terms, which cannot change a sum that starts at
//! `+0`, and on non-finite ones by skipping the same terms.

use crate::{Conv2dGrads, ConvSpec, Tensor};

/// Naive `C = A · B` for row-major matrices (`i`,`p`,`j` loop order,
/// ascending-`p` accumulation, `a == 0.0` skip).
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let (av, bv) = (a.as_slice(), b.as_slice());
    for i in 0..m {
        let a_row = &av[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &bv[p * n..(p + 1) * n];
            for (o, &b_pn) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * b_pn;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Naive `C = Aᵀ · B` without materializing `Aᵀ`.
///
/// `A` is `[k, m]`, `B` is `[k, n]`, result is `[m, n]`.
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_at lhs");
    let (k2, n) = dims2(b, "matmul_at rhs");
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let (av, bv) = (a.as_slice(), b.as_slice());
    for p in 0..k {
        let a_row = &av[p * m..(p + 1) * m];
        let b_row = &bv[p * n..(p + 1) * n];
        for (i, &a_pi) in a_row.iter().enumerate() {
            if a_pi == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &b_pn) in out_row.iter_mut().zip(b_row) {
                *o += a_pi * b_pn;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Naive `C = A · Bᵀ` without materializing `Bᵀ`.
///
/// `A` is `[m, k]`, `B` is `[n, k]`, result is `[m, n]`. Applies the same
/// left-operand zero skip as the other variants (see the module docs).
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_bt lhs");
    let (n, k2) = dims2(b, "matmul_bt rhs");
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    let (av, bv) = (a.as_slice(), b.as_slice());
    for i in 0..m {
        let a_row = &av[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &bv[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                if x == 0.0 {
                    continue;
                }
                acc += x * y;
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "{what} must be rank 2, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

/// Lowers one batch item to a `[C·R·S, H'·W']` column matrix (allocating).
pub(crate) fn im2col(input: &Tensor, n: usize, spec: &ConvSpec) -> Tensor {
    let dims = input.shape().dims();
    let (c, h, w) = (dims[1], dims[2], dims[3]);
    let (oh, ow) = spec.output_dim(h, w);
    let rows = c * spec.kernel_h * spec.kernel_w;
    let cols = oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    let src = input.as_slice();
    let base = n * c * h * w;
    let pad = spec.padding as isize;
    for ci in 0..c {
        for r in 0..spec.kernel_h {
            for s in 0..spec.kernel_w {
                let row = (ci * spec.kernel_h + r) * spec.kernel_w + s;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + r as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_row = base + (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + s as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out_row[oy * ow + ox] = src[src_row + ix as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols])
}

/// Scatter-adds a `[C·R·S, H'·W']` column-gradient matrix back into image space.
fn col2im_add(col: &Tensor, grad: &mut Tensor, n: usize, spec: &ConvSpec) {
    let dims = grad.shape().dims();
    let (c, h, w) = (dims[1], dims[2], dims[3]);
    let (oh, ow) = spec.output_dim(h, w);
    let cols = oh * ow;
    let src = col.as_slice();
    let base = n * c * h * w;
    let pad = spec.padding as isize;
    let dst = grad.as_mut_slice();
    for ci in 0..c {
        for r in 0..spec.kernel_h {
            for s in 0..spec.kernel_w {
                let row = (ci * spec.kernel_h + r) * spec.kernel_w + s;
                let src_row = &src[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + r as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_row = base + (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + s as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[dst_row + ix as usize] += src_row[oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Naive forward 2-D convolution: per-item im2col (freshly allocated each
/// call) followed by [`matmul`].
///
/// # Panics
///
/// Panics if any shape is inconsistent with `spec`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Tensor {
    let (n, c, h, w) = dims4(input, "conv2d input");
    let (k, wc, wr, ws) = dims4(weight, "conv2d weight");
    assert_eq!(c, wc, "channel mismatch: input C={c}, weight C={wc}");
    assert_eq!(
        (wr, ws),
        (spec.kernel_h, spec.kernel_w),
        "weight spatial dims disagree with spec"
    );
    assert_eq!(bias.len(), k, "bias length must equal K={k}");
    let (oh, ow) = spec.output_dim(h, w);
    let w_mat = weight.reshape(&[k, c * wr * ws]);
    let mut out = Tensor::zeros(&[n, k, oh, ow]);
    let bias_v = bias.as_slice();
    for ni in 0..n {
        let col = im2col(input, ni, spec);
        let res = matmul(&w_mat, &col); // [K, oh*ow]
        let dst = out.as_mut_slice();
        let base = ni * k * oh * ow;
        for ki in 0..k {
            let src = &res.as_slice()[ki * oh * ow..(ki + 1) * oh * ow];
            let b = bias_v[ki];
            for (d, &s) in dst[base + ki * oh * ow..base + (ki + 1) * oh * ow]
                .iter_mut()
                .zip(src)
            {
                *d = s + b;
            }
        }
    }
    out
}

/// Naive backward 2-D convolution. Re-lowers each batch item with im2col
/// (the redundancy [`crate::ConvScratch`] exists to remove) and reduces
/// `dW` per item in ascending batch order via `axpy`.
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
    let (n, c, h, w) = dims4(input, "conv2d_backward input");
    let (k, _, wr, ws) = dims4(weight, "conv2d_backward weight");
    let (oh, ow) = spec.output_dim(h, w);
    assert_eq!(
        grad_out.shape().dims(),
        &[n, k, oh, ow],
        "grad_out shape mismatch"
    );
    let w_mat = weight.reshape(&[k, c * wr * ws]);
    let mut d_input = Tensor::zeros(&[n, c, h, w]);
    let mut d_weight = Tensor::zeros(&[k, c * wr * ws]);
    let mut d_bias = Tensor::zeros(&[k]);
    for ni in 0..n {
        let col = im2col(input, ni, spec);
        let go = Tensor::from_vec(
            grad_out.as_slice()[ni * k * oh * ow..(ni + 1) * k * oh * ow].to_vec(),
            &[k, oh * ow],
        );
        // dW += dOut · colᵀ
        d_weight.axpy(1.0, &matmul_bt(&go, &col));
        // dCol = Wᵀ · dOut, scattered back to image space.
        let d_col = matmul_at(&w_mat, &go);
        col2im_add(&d_col, &mut d_input, ni, spec);
        // dBias += row sums of dOut.
        for ki in 0..k {
            let s: f32 = go.as_slice()[ki * oh * ow..(ki + 1) * oh * ow].iter().sum();
            d_bias.as_mut_slice()[ki] += s;
        }
    }
    Conv2dGrads {
        input: d_input,
        weight: d_weight.reshape(&[k, c, wr, ws]),
        bias: d_bias,
    }
}

/// Copies `count` channels starting at `start` out of a `[N, C, H, W]`
/// tensor into a dense `[N, count, H, W]` tensor.
fn take_channels(t: &Tensor, start: usize, count: usize) -> Tensor {
    let (n, c, h, w) = dims4(t, "take_channels");
    assert!(start + count <= c, "channel slice out of range");
    let plane = h * w;
    let mut out = Tensor::zeros(&[n, count, h, w]);
    let src = t.as_slice();
    let dst = out.as_mut_slice();
    for ni in 0..n {
        let s0 = (ni * c + start) * plane;
        let d0 = ni * count * plane;
        dst[d0..d0 + count * plane].copy_from_slice(&src[s0..s0 + count * plane]);
    }
    out
}

/// Writes a `[N, count, H, W]` tensor into the channel window starting at
/// `start` of a `[N, C, H, W]` tensor (plain copy — groups are disjoint).
fn put_channels(dst_t: &mut Tensor, src_t: &Tensor, start: usize) {
    let (n, c, h, w) = dims4(dst_t, "put_channels dst");
    let (sn, count, sh, sw) = dims4(src_t, "put_channels src");
    assert!(sn == n && sh == h && sw == w, "spatial/batch mismatch");
    assert!(start + count <= c, "channel slice out of range");
    let plane = h * w;
    let src = src_t.as_slice();
    let dst = dst_t.as_mut_slice();
    for ni in 0..n {
        let d0 = (ni * c + start) * plane;
        let s0 = ni * count * plane;
        dst[d0..d0 + count * plane].copy_from_slice(&src[s0..s0 + count * plane]);
    }
}

/// Naive grouped forward convolution: a literal per-group loop of channel
/// slicing + [`conv2d`] (`groups == C` is depthwise).
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
    assert!(groups > 0, "groups must be positive");
    if groups == 1 {
        return conv2d(input, weight, bias, spec);
    }
    let (n, c, h, w) = dims4(input, "conv2d_grouped input");
    let (k, wc, wr, ws) = dims4(weight, "conv2d_grouped weight");
    assert!(
        c % groups == 0 && k % groups == 0,
        "groups={groups} must divide C={c} and K={k}"
    );
    let cg = c / groups;
    let kg = k / groups;
    assert_eq!(wc, cg, "weight C={wc} must be C/groups={cg}");
    assert_eq!(bias.len(), k, "bias length must equal K={k}");
    let (oh, ow) = spec.output_dim(h, w);
    let mut out = Tensor::zeros(&[n, k, oh, ow]);
    let slab = kg * cg * wr * ws;
    for g in 0..groups {
        let gi = take_channels(input, g * cg, cg);
        // Filters of one group are a contiguous [kg, cg, R, S] slab.
        let gw = Tensor::from_vec(
            weight.as_slice()[g * slab..(g + 1) * slab].to_vec(),
            &[kg, cg, wr, ws],
        );
        let gb = Tensor::from_vec(bias.as_slice()[g * kg..(g + 1) * kg].to_vec(), &[kg]);
        let go = conv2d(&gi, &gw, &gb, spec);
        put_channels(&mut out, &go, g * kg);
    }
    out
}

/// Naive grouped backward convolution: a literal per-group loop of channel
/// slicing + [`conv2d_backward`].
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
    assert!(groups > 0, "groups must be positive");
    if groups == 1 {
        return conv2d_backward(input, weight, grad_out, spec);
    }
    let (n, c, h, w) = dims4(input, "conv2d_grouped_backward input");
    let (k, wc, wr, ws) = dims4(weight, "conv2d_grouped_backward weight");
    assert!(
        c % groups == 0 && k % groups == 0,
        "groups={groups} must divide C={c} and K={k}"
    );
    let cg = c / groups;
    let kg = k / groups;
    assert_eq!(wc, cg, "weight C={wc} must be C/groups={cg}");
    let (oh, ow) = spec.output_dim(h, w);
    assert_eq!(
        grad_out.shape().dims(),
        &[n, k, oh, ow],
        "grad_out shape mismatch"
    );
    let mut d_input = Tensor::zeros(&[n, c, h, w]);
    let mut d_weight = Tensor::zeros(&[k, cg, wr, ws]);
    let mut d_bias = Tensor::zeros(&[k]);
    let slab = kg * cg * wr * ws;
    for g in 0..groups {
        let gi = take_channels(input, g * cg, cg);
        let gw = Tensor::from_vec(
            weight.as_slice()[g * slab..(g + 1) * slab].to_vec(),
            &[kg, cg, wr, ws],
        );
        let ggo = take_channels(grad_out, g * kg, kg);
        let grads = conv2d_backward(&gi, &gw, &ggo, spec);
        put_channels(&mut d_input, &grads.input, g * cg);
        d_weight.as_mut_slice()[g * slab..(g + 1) * slab].copy_from_slice(grads.weight.as_slice());
        d_bias.as_mut_slice()[g * kg..(g + 1) * kg].copy_from_slice(grads.bias.as_slice());
    }
    Conv2dGrads {
        input: d_input,
        weight: d_weight,
        bias: d_bias,
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
