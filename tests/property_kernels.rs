//! Property suite for the blocked/threaded kernels' determinism contract:
//! `matmul*`/`conv2d*`/`ConvScratch` results must be **bit-identical** to
//! the frozen naive oracles in `cscnn::tensor::reference` at every thread
//! count, over randomized shapes, strides, paddings, groups and sparsity.
//!
//! Seeded via `CSCNN_PROP_SEED` (default 1), like the other property
//! suites; `ci.sh` runs this file under several seeds *and* several
//! `CSCNN_NUM_THREADS` settings. [`set_num_threads`] is a process-wide
//! knob, so tests in this binary race on it — which is itself part of the
//! property: because every thread count computes identical bits, the races
//! cannot change any expected value.

use cscnn::tensor::{
    conv2d, conv2d_backward, conv2d_grouped, conv2d_grouped_backward, matmul, matmul_at, matmul_bt,
    reference, reset_num_threads, set_num_threads, ConvScratch, ConvSpec, Tensor,
};
use cscnn_rng::rngs::StdRng;
use cscnn_rng::{Rng, SeedableRng};

/// Thread counts every property is checked under: single-threaded, the
/// smallest parallel count, and a prime that never divides the row blocks
/// evenly (worst case for the partition arithmetic).
const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn prop_seed() -> u64 {
    std::env::var("CSCNN_PROP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Tensor with elements uniform in [-2, 2), a fraction forced to exactly
/// `0.0` so the kernels' sparsity short-circuit is exercised on every run.
fn random_tensor(rng: &mut StdRng, dims: &[usize], zero_fraction: f64) -> Tensor {
    let n: usize = dims.iter().product();
    let v: Vec<f32> = (0..n)
        .map(|_| {
            if rng.gen_bool(zero_fraction) {
                0.0
            } else {
                (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
            }
        })
        .collect();
    Tensor::from_vec(v, dims)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn matmul_variants_bit_match_reference_at_every_thread_count() {
    let seed = prop_seed();
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5a10_0000 + case));
        // Mix of sizes so every dispatch tier is hit: the direct small
        // path, the inline blocked path, and (last case) a GEMM with work
        // for two threads (4 Mi multiply-accumulates, twice the kernels'
        // per-thread floor), whose row blocks split unevenly.
        let (m, k, n) = if case == 7 {
            (130, 200, 170)
        } else {
            (
                rng.gen_range(1..24),
                rng.gen_range(1..24),
                rng.gen_range(1..24),
            )
        };
        let a = random_tensor(&mut rng, &[m, k], 0.3);
        let b = random_tensor(&mut rng, &[k, n], 0.3);
        let at = random_tensor(&mut rng, &[k, m], 0.3);
        let bt = random_tensor(&mut rng, &[n, k], 0.3);
        let want = bits(&reference::matmul(&a, &b));
        let want_at = bits(&reference::matmul_at(&at, &b));
        let want_bt = bits(&reference::matmul_bt(&a, &bt));
        for t in THREAD_COUNTS {
            set_num_threads(t);
            assert_eq!(
                bits(&matmul(&a, &b)),
                want,
                "matmul {m}x{k}x{n} diverged at {t} threads (seed {seed}, case {case})"
            );
            assert_eq!(
                bits(&matmul_at(&at, &b)),
                want_at,
                "matmul_at {m}x{k}x{n} diverged at {t} threads (seed {seed}, case {case})"
            );
            assert_eq!(
                bits(&matmul_bt(&a, &bt)),
                want_bt,
                "matmul_bt {m}x{k}x{n} diverged at {t} threads (seed {seed}, case {case})"
            );
        }
    }
    reset_num_threads();
}

/// Random conv geometry: kernel, stride, padding, spatial dims that are
/// always mutually consistent (`h >= r`, so output dims stay positive).
fn random_spec(rng: &mut StdRng) -> (ConvSpec, usize, usize) {
    let r = rng.gen_range(1..4);
    let s = rng.gen_range(1..4);
    let spec = ConvSpec::new(r, s)
        .with_stride(rng.gen_range(1..3))
        .with_padding(rng.gen_range(0..2));
    let h = rng.gen_range(r..r + 9);
    let w = rng.gen_range(s..s + 9);
    (spec, h, w)
}

#[test]
fn conv2d_forward_and_backward_bit_match_reference_at_every_thread_count() {
    let seed = prop_seed();
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xc0f0_0000 + case));
        let (spec, h, w) = random_spec(&mut rng);
        let n = rng.gen_range(1..3);
        let c = rng.gen_range(1..5);
        let k = rng.gen_range(1..6);
        let input = random_tensor(&mut rng, &[n, c, h, w], 0.3);
        let weight = random_tensor(&mut rng, &[k, c, spec.kernel_h, spec.kernel_w], 0.3);
        let bias = random_tensor(&mut rng, &[k], 0.0);
        let (oh, ow) = spec.output_dim(h, w);
        let grad_out = random_tensor(&mut rng, &[n, k, oh, ow], 0.3);
        let want = bits(&reference::conv2d(&input, &weight, &bias, &spec));
        let want_grads = reference::conv2d_backward(&input, &weight, &grad_out, &spec);
        for t in THREAD_COUNTS {
            set_num_threads(t);
            assert_eq!(
                bits(&conv2d(&input, &weight, &bias, &spec)),
                want,
                "conv2d {spec:?} [{n},{c},{h},{w}] diverged at {t} threads (seed {seed}, case {case})"
            );
            let got = conv2d_backward(&input, &weight, &grad_out, &spec);
            assert_eq!(
                bits(&got.input),
                bits(&want_grads.input),
                "input grad, case {case}, {t} threads"
            );
            assert_eq!(
                bits(&got.weight),
                bits(&want_grads.weight),
                "weight grad, case {case}, {t} threads"
            );
            assert_eq!(
                bits(&got.bias),
                bits(&want_grads.bias),
                "bias grad, case {case}, {t} threads"
            );
        }
    }
    reset_num_threads();
}

#[test]
fn grouped_fused_path_bit_matches_per_group_reference() {
    let seed = prop_seed();
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x9409_0000 + case));
        let (spec, h, w) = random_spec(&mut rng);
        let groups = [1usize, 2, 4][rng.gen_range(0..3usize)];
        let c = groups * rng.gen_range(1..4usize);
        let k = groups * rng.gen_range(1..4usize);
        // Up to twelve (batch × group) tasks. Shapes this small sit below
        // the kernels' parallel floor and run on one thread at any count;
        // the tensor crate's unit tests split convolutions with the work
        // for several threads.
        let n = rng.gen_range(1..4);
        let input = random_tensor(&mut rng, &[n, c, h, w], 0.3);
        let weight = random_tensor(
            &mut rng,
            &[k, c / groups, spec.kernel_h, spec.kernel_w],
            0.3,
        );
        let bias = random_tensor(&mut rng, &[k], 0.0);
        let (oh, ow) = spec.output_dim(h, w);
        let grad_out = random_tensor(&mut rng, &[n, k, oh, ow], 0.3);
        // The reference implementation *is* the per-group loop: it slices
        // each group's channels out and runs the naive dense kernel.
        let want = bits(&reference::conv2d_grouped(
            &input, &weight, &bias, &spec, groups,
        ));
        let want_grads =
            reference::conv2d_grouped_backward(&input, &weight, &grad_out, &spec, groups);
        for t in THREAD_COUNTS {
            set_num_threads(t);
            assert_eq!(
                bits(&conv2d_grouped(&input, &weight, &bias, &spec, groups)),
                want,
                "conv2d_grouped g={groups} diverged at {t} threads (seed {seed}, case {case})"
            );
            let got = conv2d_grouped_backward(&input, &weight, &grad_out, &spec, groups);
            assert_eq!(
                bits(&got.input),
                bits(&want_grads.input),
                "input grad, case {case}, {t} threads"
            );
            assert_eq!(
                bits(&got.weight),
                bits(&want_grads.weight),
                "weight grad, case {case}, {t} threads"
            );
            assert_eq!(
                bits(&got.bias),
                bits(&want_grads.bias),
                "bias grad, case {case}, {t} threads"
            );
        }
    }
    reset_num_threads();
}

/// Grouped forward and backward (input, weight and bias gradients) of one
/// convolution, compared bit for bit with the reference at every entry of
/// [`THREAD_COUNTS`].
fn assert_conv_bits_match_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
    groups: usize,
    what: &str,
) {
    let want = bits(&reference::conv2d_grouped(
        input, weight, bias, spec, groups,
    ));
    let want_grads = reference::conv2d_grouped_backward(input, weight, grad_out, spec, groups);
    for t in THREAD_COUNTS {
        set_num_threads(t);
        assert_eq!(
            bits(&conv2d_grouped(input, weight, bias, spec, groups)),
            want,
            "{what}: forward diverged at {t} threads"
        );
        let got = conv2d_grouped_backward(input, weight, grad_out, spec, groups);
        assert_eq!(
            bits(&got.input),
            bits(&want_grads.input),
            "{what}: input grad diverged at {t} threads"
        );
        assert_eq!(
            bits(&got.weight),
            bits(&want_grads.weight),
            "{what}: weight grad diverged at {t} threads"
        );
        assert_eq!(
            bits(&got.bias),
            bits(&want_grads.bias),
            "{what}: bias grad diverged at {t} threads"
        );
    }
    reset_num_threads();
}

/// Random input, weight, bias and output gradient for an
/// `[n, c, h, w] → k` convolution, then [`assert_conv_bits_match_reference`].
fn check_random_conv(
    rng: &mut StdRng,
    [n, c, h, w]: [usize; 4],
    k: usize,
    spec: ConvSpec,
    groups: usize,
    what: &str,
) {
    let input = random_tensor(rng, &[n, c, h, w], 0.3);
    let weight = random_tensor(rng, &[k, c / groups, spec.kernel_h, spec.kernel_w], 0.3);
    let bias = random_tensor(rng, &[k], 0.0);
    let (oh, ow) = spec.output_dim(h, w);
    let grad_out = random_tensor(rng, &[n, k, oh, ow], 0.3);
    assert_conv_bits_match_reference(&input, &weight, &bias, &grad_out, &spec, groups, what);
}

/// One [`ConvScratch`] forward→backward pair, then the input-free
/// `backward_last` and `param_grads_last`, compared bit for bit with the
/// reference at every entry of [`THREAD_COUNTS`].
fn assert_scratch_bits_match_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
    groups: usize,
    what: &str,
) {
    let want = bits(&reference::conv2d_grouped(
        input, weight, bias, spec, groups,
    ));
    let want_grads = reference::conv2d_grouped_backward(input, weight, grad_out, spec, groups);
    let mut scratch = ConvScratch::new();
    for t in THREAD_COUNTS {
        set_num_threads(t);
        let out = scratch.forward(input, weight, bias, spec, groups);
        assert_eq!(bits(&out), want, "{what}: scratch forward, {t} threads");
        let got = scratch.backward(input, weight, grad_out, spec, groups);
        let last = scratch.backward_last(weight, grad_out, spec, groups);
        let (dw, db) = scratch.param_grads_last(weight, grad_out, spec, groups);
        for (name, got, want) in [
            ("input grad", &got.input, &want_grads.input),
            ("weight grad", &got.weight, &want_grads.weight),
            ("bias grad", &got.bias, &want_grads.bias),
            ("backward_last input grad", &last.input, &want_grads.input),
            (
                "backward_last weight grad",
                &last.weight,
                &want_grads.weight,
            ),
            ("backward_last bias grad", &last.bias, &want_grads.bias),
            ("param_grads_last weight grad", &dw, &want_grads.weight),
            ("param_grads_last bias grad", &db, &want_grads.bias),
        ] {
            assert_eq!(bits(got), bits(want), "{what}: scratch {name}, {t} threads");
        }
    }
    reset_num_threads();
}

/// Depthwise convolutions (`groups == C == K`): kernels 1, 3 and 5 at
/// every padding up to `k/2`, at stride 1 (the direct kernels) and 2 (the
/// im2col fallback), over odd batches and up to 24 channels. Inputs and
/// output gradients are ~40% exact zeros; the weights are ~30% zeros plus
/// one all-zero filter. Free functions and a `ConvScratch` pair both run
/// at every thread count.
#[test]
fn depthwise_conv_bit_matches_reference() {
    let seed = prop_seed();
    let mut case = 0u64;
    for kernel in [1usize, 3, 5] {
        for padding in 0..=kernel / 2 {
            for stride in [1usize, 2] {
                let mut rng = StdRng::seed_from_u64(seed ^ (0xd3b7_0000 + case));
                case += 1;
                let n = 2 * rng.gen_range(0..3usize) + 1;
                let c = rng.gen_range(1..25usize);
                let h = rng.gen_range(kernel..kernel + 9);
                let w = rng.gen_range(kernel..kernel + 9);
                let spec = ConvSpec::new(kernel, kernel)
                    .with_stride(stride)
                    .with_padding(padding);
                let input = random_tensor(&mut rng, &[n, c, h, w], 0.4);
                let mut weight = random_tensor(&mut rng, &[c, 1, kernel, kernel], 0.3);
                let zero_filter = rng.gen_range(0..c);
                weight.as_mut_slice()[zero_filter * kernel * kernel..][..kernel * kernel].fill(0.0);
                let bias = random_tensor(&mut rng, &[c], 0.0);
                let (oh, ow) = spec.output_dim(h, w);
                let grad_out = random_tensor(&mut rng, &[n, c, oh, ow], 0.4);
                let what = format!("depthwise {spec:?} on [{n},{c},{h},{w}] (seed {seed})");
                assert_conv_bits_match_reference(
                    &input, &weight, &bias, &grad_out, &spec, c, &what,
                );
                assert_scratch_bits_match_reference(
                    &input, &weight, &bias, &grad_out, &spec, c, &what,
                );
            }
        }
    }
}

/// `mobile_cnn`'s three convolutions at the benchmark's 16×16 input: their
/// per-item products are the ones training runs. The dense 3×3 weight
/// gradient (`8×256·(27×256)ᵀ`) takes the packed path, and the 1×1 and
/// depthwise ones (`16×256·(8×256)ᵀ`, `1×256·(9×256)ᵀ`) take the small
/// `A·Bᵀ` tier, the latter with a fringe column block.
#[test]
fn mobile_cnn_conv_shapes_bit_match_reference() {
    let seed = prop_seed();
    let same3 = ConvSpec::new(3, 3).with_padding(1);
    let point = ConvSpec::new(1, 1);
    for (case, &(c, k, spec, groups)) in [(3, 8, same3, 1), (8, 8, same3, 8), (8, 16, point, 1)]
        .iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x30b1_0000 + case as u64));
        let what = format!("mobile_cnn conv {case} (seed {seed})");
        check_random_conv(&mut rng, [4, c, 16, 16], k, spec, groups, &what);
    }
}

/// The kernels' per-thread work floor (`PARALLEL_MAC_FLOOR` in
/// `cscnn::tensor::kernels`): a call runs on `t` threads only with at
/// least `t` times this many multiply-accumulates and `t` tasks.
const SPLIT_FLOOR_MACS: usize = 1 << 21;

/// The shapes above sit far below [`SPLIT_FLOOR_MACS`], so every entry of
/// [`THREAD_COUNTS`] runs them on one thread. These two have work for
/// seven threads in both directions, so the kernels really deal them to
/// each parallel count: an im2col convolution (`[8, 16, 32, 32]`, 16
/// filters, 18 Mi multiply-accumulates per direction over 8 item tasks)
/// and a direct depthwise one (`[8, 64, 64, 64]`, 18 Mi per direction over
/// 512 `(item, channel)` forward tasks and 8 whole-item backward units).
/// The forward, the backward with `dX` and a `ConvScratch` forward→backward
/// pair each match the reference bit for bit at every count above one
/// (one thread runs every shape inline, as the cases above do).
#[test]
fn convs_with_work_for_every_thread_count_bit_match_reference() {
    let seed = prop_seed();
    let spec = ConvSpec::new(3, 3).with_padding(1);
    let most = THREAD_COUNTS.into_iter().max().unwrap_or(1);
    for (case, &([n, c, h, w], k, groups)) in [([8, 16, 32, 32], 16, 1), ([8, 64, 64, 64], 64, 64)]
        .iter()
        .enumerate()
    {
        // Each direction has at least `n` tasks (the depthwise backward
        // deals whole items) and `macs` multiply-accumulates.
        let macs = n * k * (c / groups) * 9 * h * w;
        assert!(macs >= most * SPLIT_FLOOR_MACS && n >= most, "case {case}");
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5b11_0000 + case as u64));
        let input = random_tensor(&mut rng, &[n, c, h, w], 0.3);
        let weight = random_tensor(&mut rng, &[k, c / groups, 3, 3], 0.3);
        let bias = random_tensor(&mut rng, &[k], 0.0);
        let grad_out = random_tensor(&mut rng, &[n, k, h, w], 0.3);
        let want = bits(&reference::conv2d_grouped(
            &input, &weight, &bias, &spec, groups,
        ));
        let want_grads =
            reference::conv2d_grouped_backward(&input, &weight, &grad_out, &spec, groups);
        for t in THREAD_COUNTS.into_iter().filter(|&t| t > 1) {
            set_num_threads(t);
            let what = format!("split conv {case} at {t} threads (seed {seed})");
            let free = conv2d_grouped_backward(&input, &weight, &grad_out, &spec, groups);
            let mut scratch = ConvScratch::new();
            let out = scratch.forward(&input, &weight, &bias, &spec, groups);
            let pair = scratch.backward(&input, &weight, &grad_out, &spec, groups);
            assert_eq!(
                bits(&conv2d_grouped(&input, &weight, &bias, &spec, groups)),
                want,
                "{what}: forward"
            );
            assert_eq!(bits(&out), want, "{what}: scratch forward");
            for (name, got) in [("free", &free), ("scratch", &pair)] {
                assert_eq!(
                    bits(&got.input),
                    bits(&want_grads.input),
                    "{what}: {name} dX"
                );
                assert_eq!(
                    bits(&got.weight),
                    bits(&want_grads.weight),
                    "{what}: {name} dW"
                );
                assert_eq!(
                    bits(&got.bias),
                    bits(&want_grads.bias),
                    "{what}: {name} dBias"
                );
            }
        }
    }
    reset_num_threads();
}

/// Geometries at the edges of the im2col/col2im row-segment ranges: stride
/// 2 with padding on odd and even extents, taps that reach past both
/// borders, a kernel column whose whole range is padding (1-wide input,
/// 5×5 kernel), and stride 3.
#[test]
fn strided_padded_edges_bit_match_reference() {
    let seed = prop_seed();
    let cases: [([usize; 4], usize, ConvSpec, usize); 5] = [
        (
            [4, 6, 15, 16],
            4,
            ConvSpec::new(3, 3).with_stride(2).with_padding(1),
            2,
        ),
        (
            [4, 8, 16, 16],
            8,
            ConvSpec::new(3, 3).with_stride(2).with_padding(1),
            8,
        ),
        (
            [2, 3, 9, 7],
            5,
            ConvSpec::new(5, 5).with_stride(2).with_padding(2),
            1,
        ),
        ([2, 2, 3, 1], 3, ConvSpec::new(5, 5).with_padding(2), 1),
        (
            [3, 4, 11, 10],
            4,
            ConvSpec::new(3, 2).with_stride(3).with_padding(1),
            4,
        ),
    ];
    for (case, &(dims, k, spec, groups)) in cases.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xed9e_0000 + case as u64));
        let what = format!("{spec:?} on {dims:?} g={groups} (seed {seed}, case {case})");
        check_random_conv(&mut rng, dims, k, spec, groups, &what);
    }
}

/// Both entry points, the free functions and `ConvScratch`, reach every
/// route of the conv routers and match the reference bit for bit there at
/// every thread count: the direct narrow forward, the direct depthwise
/// kernels, the im2col route (dense and grouped, a short reduction over a
/// small plane too), strided convolutions and a dense `C = K = 1` one,
/// which is depthwise. Then random shapes through one scratch over two
/// training-style steps.
#[test]
fn conv_scratch_reuse_bit_matches_free_functions() {
    let seed = prop_seed();
    let same3 = ConvSpec::new(3, 3).with_padding(1);
    let strided = ConvSpec::new(3, 3).with_stride(2).with_padding(1);
    let routes: [(&str, [usize; 4], usize, ConvSpec, usize); 9] = [
        ("direct narrow", [2, 3, 16, 16], 8, same3, 1),
        ("direct depthwise", [3, 6, 9, 9], 6, same3, 6),
        ("lowered dense", [2, 8, 8, 8], 8, same3, 1),
        ("lowered grouped", [3, 8, 12, 12], 4, same3, 2),
        ("lowered small plane", [2, 3, 6, 6], 4, same3, 1),
        ("strided dense", [2, 4, 11, 10], 6, strided, 1),
        ("strided depthwise", [2, 4, 9, 9], 4, strided, 4),
        ("dense C = K = 1", [3, 1, 10, 9], 1, same3, 1),
        (
            "dense C = K = 1, 5x5",
            [2, 1, 7, 8],
            1,
            ConvSpec::new(5, 5).with_padding(2),
            1,
        ),
    ];
    for (case, &(route, [n, c, h, w], k, spec, groups)) in routes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x4a7e_0000 + case as u64));
        let input = training_tensor(&mut rng, &[n, c, h, w], 0.4);
        let weight = training_tensor(
            &mut rng,
            &[k, c / groups, spec.kernel_h, spec.kernel_w],
            0.3,
        );
        let bias = random_tensor(&mut rng, &[k], 0.0);
        let (oh, ow) = spec.output_dim(h, w);
        let grad_out = training_tensor(&mut rng, &[n, k, oh, ow], 0.4);
        let what =
            format!("{route}: {spec:?} on [{n},{c},{h},{w}] -> {k} g={groups} (seed {seed})");
        assert_conv_bits_match_reference(&input, &weight, &bias, &grad_out, &spec, groups, &what);
        assert_scratch_bits_match_reference(
            &input, &weight, &bias, &grad_out, &spec, groups, &what,
        );
    }
    for case in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5c3a_0000 + case));
        let (spec, h, w) = random_spec(&mut rng);
        let groups = [1usize, 2][rng.gen_range(0..2usize)];
        let c = groups * rng.gen_range(1..4usize);
        let k = groups * rng.gen_range(1..4usize);
        let weight = random_tensor(
            &mut rng,
            &[k, c / groups, spec.kernel_h, spec.kernel_w],
            0.3,
        );
        let bias = random_tensor(&mut rng, &[k], 0.0);
        let mut scratch = ConvScratch::new();
        // Two training-style steps on different inputs: forward then
        // backward reuse one lowering per input; the second input must
        // invalidate the first's lowering, not reuse it.
        for step in 0..2u64 {
            let mut rng_step = StdRng::seed_from_u64(seed ^ (case << 8) ^ step);
            let input = random_tensor(&mut rng_step, &[2, c, h, w], 0.3);
            let (oh, ow) = spec.output_dim(h, w);
            let grad_out = random_tensor(&mut rng_step, &[2, k, oh, ow], 0.3);
            let want = bits(&conv2d_grouped(&input, &weight, &bias, &spec, groups));
            let want_grads = conv2d_grouped_backward(&input, &weight, &grad_out, &spec, groups);
            for t in THREAD_COUNTS {
                set_num_threads(t);
                let out = scratch.forward(&input, &weight, &bias, &spec, groups);
                assert_eq!(
                    bits(&out),
                    want,
                    "scratch forward, step {step}, {t} threads"
                );
                let got = scratch.backward(&input, &weight, &grad_out, &spec, groups);
                assert_eq!(bits(&got.input), bits(&want_grads.input), "step {step}");
                assert_eq!(bits(&got.weight), bits(&want_grads.weight), "step {step}");
                assert_eq!(bits(&got.bias), bits(&want_grads.bias), "step {step}");
            }
        }
    }
    reset_num_threads();
}

/// `ConvScratch::backward` after a forward on another input — one element
/// changed, or one `+0.0` flipped to `-0.0` (equal under float `==`) —
/// must re-lower and match the reference on the input it was given; after
/// a forward on the same input it reuses the lowering and matches too.
/// (Flipping a zero's sign rarely changes a gradient, so only the unit
/// test in `conv.rs`, which poisons the held lowering, can tell the reuse
/// apart; here every answer must simply be right.)
#[test]
fn conv_scratch_backward_relowers_changed_input() {
    let seed = prop_seed();
    for case in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x2e10_0000 + case));
        let (spec, h, w) = random_spec(&mut rng);
        let c = rng.gen_range(1..5usize);
        let groups = [1, c][rng.gen_range(0..2usize)];
        let k = c;
        let n = rng.gen_range(1..4);
        let mut input = random_tensor(&mut rng, &[n, c, h, w], 0.3);
        let zero_at = rng.gen_range(0..input.len());
        input.as_mut_slice()[zero_at] = 0.0;
        let weight = random_tensor(
            &mut rng,
            &[k, c / groups, spec.kernel_h, spec.kernel_w],
            0.3,
        );
        let bias = random_tensor(&mut rng, &[k], 0.0);
        let (oh, ow) = spec.output_dim(h, w);
        let grad_out = random_tensor(&mut rng, &[n, k, oh, ow], 0.3);
        let mut changed = input.clone();
        let change_at = rng.gen_range(0..changed.len());
        changed.as_mut_slice()[change_at] += 1.0;
        let mut flipped = input.clone();
        flipped.as_mut_slice()[zero_at] = -0.0;
        let forward_want = bits(&reference::conv2d_grouped(
            &input, &weight, &bias, &spec, groups,
        ));
        let mut scratch = ConvScratch::new();
        for t in THREAD_COUNTS {
            set_num_threads(t);
            for (name, other) in [("same", &input), ("changed", &changed), ("-0.0", &flipped)] {
                let what = format!("{name} input, {spec:?} g={groups}, case {case}, {t} threads");
                let out = scratch.forward(&input, &weight, &bias, &spec, groups);
                assert_eq!(bits(&out), forward_want, "{what}: forward");
                let got = scratch.backward(other, &weight, &grad_out, &spec, groups);
                let want =
                    reference::conv2d_grouped_backward(other, &weight, &grad_out, &spec, groups);
                assert_eq!(bits(&got.input), bits(&want.input), "{what}: input grad");
                assert_eq!(bits(&got.weight), bits(&want.weight), "{what}: weight grad");
                assert_eq!(bits(&got.bias), bits(&want.bias), "{what}: bias grad");
            }
        }
    }
    reset_num_threads();
}

/// Elements as training feeds them to the kernels: exact `0.0` with
/// probability `zeros`, at random positions (post-ReLU activations,
/// ReLU-masked gradients, pruned weights); of the rest, one in sixteen is
/// `-0.0`, one in sixteen a subnormal of either sign, and the others
/// uniform in [-2, 2).
fn training_tensor(rng: &mut StdRng, dims: &[usize], zeros: f64) -> Tensor {
    let n: usize = dims.iter().product();
    let v: Vec<f32> = (0..n)
        .map(|_| {
            if rng.gen_bool(zeros) {
                return 0.0;
            }
            match rng.gen_range(0..16u32) {
                0 => -0.0,
                1 => {
                    let sign = if rng.gen_bool(0.5) { 1u32 << 31 } else { 0 };
                    f32::from_bits(sign | rng.gen_range(1..0x0080_0000u32))
                }
                _ => (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0,
            }
        })
        .collect();
    Tensor::from_vec(v, dims)
}

/// Overwrites `count` random elements of `t` with `+∞`, `−∞` or NaN.
fn poison(rng: &mut StdRng, t: &mut Tensor, count: usize) {
    let len = t.len();
    for i in 0..count {
        let at = rng.gen_range(0..len);
        t.as_mut_slice()[at] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][i % 3];
    }
}

/// Both zero-skip paths of every `matmul` layout, in the direct small tier
/// (by size, and by shape: a short reduction or a thin `Bᵀ`) and the
/// packed tier (whose `k = 300` spans two `KC` blocks): left
/// operands with half their elements zero at random positions plus `-0.0`
/// and subnormals; right operands likewise, once all finite (the kernels
/// take the branch-free path) and once holding infinities and NaNs (they
/// skip the zero-`a` products the reference skips, so no `0·∞` NaN
/// appears).
#[test]
fn matmul_zero_skip_paths_bit_match_reference() {
    let seed = prop_seed();
    // The last three take the small tier by shape on one thread: `A·B`
    // and `Aᵀ·B` with `k ≤ 32` into a wide `C` (the linear layer's
    // gradients, one with fringe columns), `A·Bᵀ` with at most 16 columns
    // (its forward).
    let shapes = [
        (5usize, 13usize, 11usize),
        (9, 30, 20),
        (37, 300, 41),
        (6, 1024, 10),
        (10, 32, 1024),
        (33, 10, 1000),
    ];
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        for non_finite in [false, true] {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x2e70_0000 + 2 * case as u64));
            let a = training_tensor(&mut rng, &[m, k], 0.5);
            let at = training_tensor(&mut rng, &[k, m], 0.5);
            let mut b = training_tensor(&mut rng, &[k, n], 0.5);
            let mut bt = training_tensor(&mut rng, &[n, k], 0.5);
            if non_finite {
                poison(&mut rng, &mut b, 3);
                poison(&mut rng, &mut bt, 3);
            }
            let want = bits(&reference::matmul(&a, &b));
            let want_at = bits(&reference::matmul_at(&at, &b));
            let want_bt = bits(&reference::matmul_bt(&a, &bt));
            let what = format!("{m}x{k}x{n}, non-finite rhs {non_finite} (seed {seed})");
            for t in THREAD_COUNTS {
                set_num_threads(t);
                assert_eq!(bits(&matmul(&a, &b)), want, "matmul {what}, {t} threads");
                assert_eq!(
                    bits(&matmul_at(&at, &b)),
                    want_at,
                    "matmul_at {what}, {t} threads"
                );
                assert_eq!(
                    bits(&matmul_bt(&a, &bt)),
                    want_bt,
                    "matmul_bt {what}, {t} threads"
                );
            }
        }
    }
    reset_num_threads();
}

/// Where a direct backward case puts one non-finite element.
#[derive(Clone, Copy, Debug)]
enum Poison {
    Input(f32),
    Weight(f32),
    GradOut(f32),
}

/// Overwrites one random element of `t` with `value`.
fn poison_one(rng: &mut StdRng, t: &mut Tensor, value: f32) {
    let at = rng.gen_range(0..t.len());
    t.as_mut_slice()[at] = value;
}

/// Convolutions that run the direct kernels in both directions (unit
/// stride, a short `C/g·R·S`, planes of 100 or more output pixels):
/// `mobile_cnn`'s 3→8 3×3 and 8→16 1×1, a 1-channel 5×5, a grouped 3×3
/// and a 1×1 over 32 channels, each with training-like operands and once
/// with a ≥90%-pruned weight; the last case also holds infinities and
/// NaNs in its input, which `dW` reads. Then the backward's cases:
/// `mobile_cnn`'s three convs (depthwise too) and a grouped narrow 3×3,
/// with half of `dOut` zero, clean and with one infinity or NaN in the
/// input (the path `dW` takes on non-finite planes), in the weight or in
/// `dOut` (the paths of `dX`). Free functions and a `ConvScratch` pair
/// with `backward_last` and `param_grads_last` all run at every thread
/// count.
#[test]
fn direct_narrow_conv_bit_matches_reference() {
    let seed = prop_seed();
    let same3 = ConvSpec::new(3, 3).with_padding(1);
    let cases: [([usize; 4], usize, ConvSpec, usize); 6] = [
        ([3, 3, 16, 16], 8, same3, 1),
        ([2, 8, 16, 16], 16, ConvSpec::new(1, 1), 1),
        ([2, 1, 14, 13], 4, ConvSpec::new(5, 5).with_padding(2), 1),
        ([3, 6, 11, 10], 4, same3, 2),
        ([1, 32, 10, 12], 8, ConvSpec::new(1, 1).with_padding(1), 1),
        ([2, 3, 12, 12], 5, ConvSpec::new(3, 3), 1),
    ];
    for (case, &([n, c, h, w], k, spec, groups)) in cases.iter().enumerate() {
        for pruned in [false, true] {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xd14e_0000 + 2 * case as u64));
            let mut input = training_tensor(&mut rng, &[n, c, h, w], 0.5);
            if case + 1 == cases.len() {
                poison(&mut rng, &mut input, 3);
            }
            let zeros = if pruned { 0.92 } else { 0.1 };
            let weight = training_tensor(
                &mut rng,
                &[k, c / groups, spec.kernel_h, spec.kernel_w],
                zeros,
            );
            let bias = random_tensor(&mut rng, &[k], 0.0);
            let (oh, ow) = spec.output_dim(h, w);
            let grad_out = training_tensor(&mut rng, &[n, k, oh, ow], 0.5);
            let what = format!(
                "direct {spec:?} on [{n},{c},{h},{w}] -> {k} g={groups}, pruned {pruned} (seed {seed})"
            );
            assert_conv_bits_match_reference(
                &input, &weight, &bias, &grad_out, &spec, groups, &what,
            );
            assert_scratch_bits_match_reference(
                &input, &weight, &bias, &grad_out, &spec, groups, &what,
            );
        }
    }
    let backward_cases: [([usize; 4], usize, ConvSpec, usize); 4] = [
        ([3, 3, 16, 16], 8, same3, 1),
        ([2, 8, 16, 16], 16, ConvSpec::new(1, 1), 1),
        ([2, 4, 12, 12], 8, same3, 2),
        ([3, 8, 16, 16], 8, same3, 8),
    ];
    let poisons = [
        None,
        Some(Poison::Input(f32::INFINITY)),
        Some(Poison::Input(f32::NAN)),
        Some(Poison::Weight(f32::NEG_INFINITY)),
        Some(Poison::GradOut(f32::NAN)),
    ];
    for (case, &([n, c, h, w], k, spec, groups)) in backward_cases.iter().enumerate() {
        for (p, &poisoned) in poisons.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xdb4c_0000 + 8 * case as u64 + p as u64));
            let mut input = training_tensor(&mut rng, &[n, c, h, w], 0.5);
            let mut weight = training_tensor(
                &mut rng,
                &[k, c / groups, spec.kernel_h, spec.kernel_w],
                0.2,
            );
            let bias = random_tensor(&mut rng, &[k], 0.0);
            let (oh, ow) = spec.output_dim(h, w);
            let mut grad_out = training_tensor(&mut rng, &[n, k, oh, ow], 0.5);
            match poisoned {
                Some(Poison::Input(v)) => poison_one(&mut rng, &mut input, v),
                Some(Poison::Weight(v)) => poison_one(&mut rng, &mut weight, v),
                Some(Poison::GradOut(v)) => poison_one(&mut rng, &mut grad_out, v),
                None => {}
            }
            let what = format!(
                "direct backward {spec:?} on [{n},{c},{h},{w}] -> {k} g={groups}, \
                 poison {poisoned:?} (seed {seed})"
            );
            assert_conv_bits_match_reference(
                &input, &weight, &bias, &grad_out, &spec, groups, &what,
            );
            assert_scratch_bits_match_reference(
                &input, &weight, &bias, &grad_out, &spec, groups, &what,
            );
        }
    }
}
