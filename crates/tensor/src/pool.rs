//! 2-D max pooling, forward and backward.

use crate::Tensor;

/// Pooling window geometry.
///
/// # Example
///
/// ```
/// use cscnn_tensor::PoolSpec;
///
/// let p = PoolSpec::new(2); // 2x2 window, stride 2
/// assert_eq!(p.output_dim(8, 8), (4, 4));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolSpec {
    /// Square window side.
    pub window: usize,
    /// Stride (defaults to the window side — non-overlapping pooling).
    pub stride: usize,
}

impl PoolSpec {
    /// Non-overlapping pooling with a square `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        PoolSpec {
            window,
            stride: window,
        }
    }

    /// Overrides the stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn with_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "pool stride must be positive");
        self.stride = stride;
        self
    }

    /// Output spatial extent for an `(h, w)` input.
    pub fn output_dim(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.window && w >= self.window,
            "input smaller than window"
        );
        (
            (h - self.window) / self.stride + 1,
            (w - self.window) / self.stride + 1,
        )
    }
}

/// Max pooling over `[N, C, H, W]`; also returns the argmax index map used by
/// the backward pass.
///
/// Each window is scanned row by row, and an element replaces the running
/// maximum (which starts at `−∞`) only if it is strictly greater, so ties go
/// to the first. A window with no such element (all `−∞` or NaN) outputs
/// `−∞` and records its own first element as the argmax.
///
/// # Panics
///
/// Panics if `input` is not rank 4 or is smaller than the window.
pub fn max_pool2d(input: &Tensor, spec: &PoolSpec) -> (Tensor, Vec<usize>) {
    let d = input.shape().dims();
    assert_eq!(d.len(), 4, "max_pool2d expects [N,C,H,W]");
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = spec.output_dim(h, w);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    if spec.window == 2 && spec.stride == 2 {
        max_pool_2x2(src, (h, w), (oh, ow), dst, &mut argmax);
        return (out, argmax);
    }
    let mut o = 0usize;
    for ni in 0..n {
        for ci in 0..c {
            let plane = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = plane + oy * spec.stride * w + ox * spec.stride;
                    for dy in 0..spec.window {
                        for dx in 0..spec.window {
                            let idx = plane + (oy * spec.stride + dy) * w + ox * spec.stride + dx;
                            if src[idx] > best {
                                best = src[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    dst[o] = best;
                    argmax[o] = best_idx;
                    o += 1;
                }
            }
        }
    }
    (out, argmax)
}

/// [`max_pool2d`] for 2×2 windows at stride 2, over every `h×w` plane of
/// `src`. Each window's four elements go through the generic scan's
/// strict-`>` update in its order, as selects rather than branches.
fn max_pool_2x2(
    src: &[f32],
    (h, w): (usize, usize),
    (oh, ow): (usize, usize),
    dst: &mut [f32],
    argmax: &mut [usize],
) {
    let out_rows = dst.chunks_exact_mut(ow).zip(argmax.chunks_exact_mut(ow));
    for (row, (drow, arow)) in out_rows.enumerate() {
        let (plane, oy) = (row / oh, row % oh);
        let top = (plane * h + 2 * oy) * w;
        let pairs = src[top..top + 2 * ow]
            .chunks_exact(2)
            .zip(src[top + w..top + w + 2 * ow].chunks_exact(2));
        for (ox, ((d, a), (t, b))) in drow.iter_mut().zip(arow).zip(pairs).enumerate() {
            let first = top + 2 * ox;
            let (mut best, mut idx) = (f32::NEG_INFINITY, first);
            for (v, i) in [
                (t[0], first),
                (t[1], first + 1),
                (b[0], first + w),
                (b[1], first + w + 1),
            ] {
                let take = v > best;
                best = if take { v } else { best };
                idx = if take { i } else { idx };
            }
            *d = best;
            *a = idx;
        }
    }
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the input
/// position recorded in `argmax`.
///
/// # Panics
///
/// Panics if `grad_out.len() != argmax.len()`.
pub fn max_pool2d_backward(grad_out: &Tensor, argmax: &[usize], input_dims: &[usize]) -> Tensor {
    assert_eq!(grad_out.len(), argmax.len(), "grad/argmax length mismatch");
    let mut grad_in = Tensor::zeros(input_dims);
    let dst = grad_in.as_mut_slice();
    for (&g, &idx) in grad_out.as_slice().iter().zip(argmax) {
        dst[idx] += g;
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_window_maxima() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, 9.0, 0.25, 0.75,
            ],
            &[1, 1, 4, 4],
        );
        let (out, argmax) = max_pool2d(&input, &PoolSpec::new(2));
        assert_eq!(out.as_slice(), &[4.0, 8.0, 9.0, 0.75]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let input = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let (out, argmax) = max_pool2d(&input, &PoolSpec::new(2));
        let go = Tensor::full(out.shape().dims(), 2.0);
        let gi = max_pool2d_backward(&go, &argmax, &[1, 1, 4, 4]);
        // Maxima are bottom-right of each window: indices 5, 7, 13, 15.
        let mut expect = [0.0f32; 16];
        for idx in [5usize, 7, 13, 15] {
            expect[idx] = 2.0;
        }
        assert_eq!(gi.as_slice(), &expect[..]);
    }

    /// A window with no element above `−∞` (all NaN or `−∞`) records its
    /// own first element, so its gradient stays in its own plane: on the
    /// 2×2/stride-2 path and on the generic one.
    #[test]
    fn max_pool_window_without_winner_routes_to_its_first_element() {
        let mut v: Vec<f32> = (0..32).map(|i| i as f32).collect();
        v[16..20].fill(f32::NAN);
        v[20..24].fill(f32::NEG_INFINITY);
        v[24] = f32::NAN;
        v[25] = f32::NEG_INFINITY;
        let input = Tensor::from_vec(v, &[1, 2, 4, 4]);
        // The second plane's top windows hold only NaN and -inf.
        let (out, argmax) = max_pool2d(&input, &PoolSpec::new(2));
        assert_eq!(argmax, vec![5, 7, 13, 15, 16, 18, 29, 31]);
        assert_eq!(out.as_slice()[4], f32::NEG_INFINITY);
        assert_eq!(out.as_slice()[5], f32::NEG_INFINITY);
        // Generic path: 2x2 windows at stride 1 over the same planes.
        let (out, argmax) = max_pool2d(&input, &PoolSpec::new(2).with_stride(1));
        assert_eq!(&argmax[9..12], &[16, 17, 18]);
        assert_eq!(out.as_slice()[9], f32::NEG_INFINITY);
        let go = Tensor::full(out.shape().dims(), 1.0);
        let gi = max_pool2d_backward(&go, &argmax, &[1, 2, 4, 4]);
        assert_eq!(gi.as_slice()[0], 0.0);
        assert_eq!(gi.as_slice()[16], 1.0);
    }

    /// The 2×2/stride-2 path returns the generic scan's maxima and argmax,
    /// ties to the first element, on odd extents too.
    #[test]
    fn max_pool_2x2_path_matches_generic_scan() {
        let input = Tensor::from_fn(&[2, 3, 5, 7], |i| ((i * 7 % 11) as f32 - 5.0).max(0.0));
        let (out, argmax) = max_pool2d(&input, &PoolSpec::new(2));
        let src = input.as_slice();
        let mut o = 0;
        for plane in 0..6 {
            for oy in 0..2 {
                for ox in 0..3 {
                    let first = plane * 35 + 2 * oy * 7 + 2 * ox;
                    let (mut best, mut idx) = (f32::NEG_INFINITY, first);
                    for i in [first, first + 1, first + 7, first + 8] {
                        if src[i] > best {
                            (best, idx) = (src[i], i);
                        }
                    }
                    assert_eq!((out.as_slice()[o], argmax[o]), (best, idx));
                    o += 1;
                }
            }
        }
    }

    #[test]
    fn overlapping_pooling_dimension_math() {
        // AlexNet-style 3x3 stride-2 pooling.
        let spec = PoolSpec::new(3).with_stride(2);
        assert_eq!(spec.output_dim(55, 55), (27, 27));
    }
}
