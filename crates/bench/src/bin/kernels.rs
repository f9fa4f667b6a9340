//! Kernel timing sweep: naive reference vs blocked/threaded kernels.
//!
//! Times `matmul`/`conv2d`/`conv2d_grouped` at paper-relevant layer shapes
//! (AlexNet conv2, VGG conv3-scale, MobileNet depthwise + pointwise), the
//! kernels of one `mobile_cnn` training step at the `compress_pipeline`
//! benchmark workload's `[32, 3, 16, 16]` batch on post-ReLU operands
//! (zeros at random positions, as training sees them), a GEMM with a
//! 90%-pruned left operand, and full `mobile_cnn` training steps, each in
//! three configurations:
//!
//! * `naive` — the frozen reference kernels, selected through
//!   [`cscnn::tensor::kernels::set_reference_mode`];
//! * `blocked_1t` — the cache-blocked, register-tiled kernels pinned to a
//!   single thread;
//! * `blocked_mt` — the same kernels at the default thread count.
//!
//! All three configurations compute bit-identical results; only wall-clock
//! time differs. Plain timing (a warm-up call, then the median of five
//! batch means within a wall-clock budget, the two blocked configurations
//! alternating batch by batch), no external benchmark harness.
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin kernels -- \
//!     [--smoke] [--label NAME] [--baseline FILE]
//! ```
//!
//! Output: a human-readable table on stdout and a machine-readable
//! `BENCH_kernels.json` (schema `cscnn-bench-kernels-v2`). One report holds
//! one or more *columns*, each a full sweep on one build together with the
//! machine's `available_parallelism`: `--label` names the new column
//! (default `current`), and `--baseline FILE` copies the last column of an
//! earlier report (for instance one written by this binary built at the
//! parent commit, on the same machine) in front of it and adds the new
//! column's per-entry speedups over it. `--smoke` runs tiny shapes with a
//! tiny time budget and writes to `target/BENCH_kernels_smoke.json`
//! instead, so CI can exercise the binary and the JSON schema without
//! clobbering the committed full-run numbers.
//!
//! A full run also times one run of each training harness (`table2
//! --train`, `filter_shapes`, `storage`) at the default thread count and
//! records its wall time in the column. It runs the harness executables
//! next to this one, so build them first:
//! `cargo build --release -p cscnn-bench --bins`.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cscnn::json::Value;
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::metrics::softmax_cross_entropy;
use cscnn::nn::models;
use cscnn::nn::optimizer::Sgd;
use cscnn::tensor::kernels::set_reference_mode;
use cscnn::tensor::{
    conv2d_grouped, matmul, matmul_at, matmul_bt, max_pool2d, num_threads, reset_num_threads,
    set_num_threads, ConvScratch, ConvSpec, PoolSpec, Tensor,
};
use cscnn_bench::report::{self, obj, Options};

const SCHEMA: &str = "cscnn-bench-kernels-v2";

/// One measured workload: the same closure timed under all three kernel
/// configurations.
struct Sample {
    name: String,
    kind: &'static str,
    shape: String,
    naive_ms: f64,
    blocked_1t_ms: f64,
    blocked_mt_ms: f64,
}

impl Sample {
    fn speedup_1t(&self) -> f64 {
        self.naive_ms / self.blocked_1t_ms
    }

    fn speedup_mt(&self) -> f64 {
        self.naive_ms / self.blocked_mt_ms
    }
}

/// Batches [`time_ms`] splits each configuration's budget into.
const BATCHES: u32 = 5;

/// Wall-clock milliseconds per call of `f` at each kernel thread count in
/// `threads`: one warm-up call per count, then [`BATCHES`] rounds that run
/// one batch per count in turn, each batch repeating the call until its
/// share of `budget` elapses (at least once). Returns each count's median
/// batch mean, so a burst of load from other processes on a shared
/// machine moves one batch, not the result, and the host's drift over the
/// run reaches every count alike instead of reading as a thread-count
/// effect.
fn time_ms(budget: Duration, threads: &[usize], f: &mut dyn FnMut()) -> Vec<f64> {
    for &t in threads {
        set_num_threads(t);
        f();
    }
    let share = budget / BATCHES;
    let mut means = vec![Vec::new(); threads.len()];
    for _ in 0..BATCHES {
        for (&t, batch_means) in threads.iter().zip(&mut means) {
            set_num_threads(t);
            let start = Instant::now();
            let mut iters = 0u32;
            loop {
                f();
                iters += 1;
                if start.elapsed() >= share {
                    break;
                }
            }
            batch_means.push(start.elapsed().as_secs_f64() * 1_000.0 / f64::from(iters));
        }
    }
    means
        .into_iter()
        .map(|mut m| {
            m.sort_by(f64::total_cmp);
            m[m.len() / 2]
        })
        .collect()
}

/// Times `f` under naive / blocked-1-thread / blocked-multithread kernels,
/// the two blocked configurations in alternating batches.
fn measure(
    name: &str,
    kind: &'static str,
    shape: String,
    budget: Duration,
    mt_threads: usize,
    f: &mut dyn FnMut(),
) -> Sample {
    set_reference_mode(true);
    let naive_ms = time_ms(budget, &[1], f)[0];
    set_reference_mode(false);
    let blocked = time_ms(budget, &[1, mt_threads], f);
    let (blocked_1t_ms, blocked_mt_ms) = (blocked[0], blocked[1]);
    reset_num_threads();
    let sample = Sample {
        name: name.to_string(),
        kind,
        shape,
        naive_ms,
        blocked_1t_ms,
        blocked_mt_ms,
    };
    println!(
        "{:<28} {:>10.3} {:>12.3} {:>12.3} {:>8.2}x {:>8.2}x",
        sample.name,
        sample.naive_ms,
        sample.blocked_1t_ms,
        sample.blocked_mt_ms,
        sample.speedup_1t(),
        sample.speedup_mt(),
    );
    sample
}

/// Deterministic dense test tensor (no RNG state shared across entries).
fn filled(dims: &[usize], scale: f32) -> Tensor {
    Tensor::from_fn(dims, |i| ((i as f32) * scale).sin())
}

/// Uniform `[0, 1)` from a splitmix64 hash of `(seed, i)`: a fixed
/// pseudo-random stream per element, with no RNG state shared across
/// entries.
fn hash_unit(seed: u64, i: usize) -> f32 {
    let mut z = (seed ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e4b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

/// A tensor whose elements are `0.0` with probability `zeros`, at random
/// positions, and otherwise uniform in `(-1, 1)` (`signed`) or `[0, 1)`:
/// a post-ReLU activation, a ReLU-masked gradient or a pruned weight.
fn sparse_filled(dims: &[usize], zeros: f32, signed: bool, seed: u64) -> Tensor {
    Tensor::from_fn(dims, |i| {
        if hash_unit(seed, 2 * i) < zeros {
            0.0
        } else {
            let v = hash_unit(seed, 2 * i + 1);
            if signed {
                2.0 * v - 1.0
            } else {
                v
            }
        }
    })
}

struct MatmulShape {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

struct ConvShape {
    name: &'static str,
    input: [usize; 4],
    filters: usize,
    kernel: usize,
    padding: usize,
    stride: usize,
    groups: usize,
    /// Also time forward + backward through a shared [`ConvScratch`].
    train: bool,
}

fn matmul_entries(smoke: bool, budget: Duration, mt: usize, out: &mut Vec<Sample>) {
    let shapes: &[MatmulShape] = if smoke {
        &[MatmulShape {
            name: "matmul_smoke",
            m: 24,
            k: 24,
            n: 24,
        }]
    } else {
        &[
            MatmulShape {
                name: "matmul_512",
                m: 512,
                k: 512,
                n: 512,
            },
            MatmulShape {
                name: "matmul_fc_alexnet",
                m: 64,
                k: 4096,
                n: 1000,
            },
        ]
    };
    for s in shapes {
        let a = filled(&[s.m, s.k], 1e-3);
        let b = filled(&[s.k, s.n], 2e-3);
        let at = filled(&[s.k, s.m], 1e-3);
        let bt = filled(&[s.n, s.k], 2e-3);
        let shape = format!("[{},{}]x[{},{}]", s.m, s.k, s.k, s.n);
        out.push(measure(
            s.name,
            "matmul",
            shape.clone(),
            budget,
            mt,
            &mut || {
                black_box(matmul(black_box(&a), black_box(&b)));
            },
        ));
        out.push(measure(
            &format!("{}_at", s.name),
            "matmul_at",
            shape.clone(),
            budget,
            mt,
            &mut || {
                black_box(matmul_at(black_box(&at), black_box(&b)));
            },
        ));
        out.push(measure(
            &format!("{}_bt", s.name),
            "matmul_bt",
            shape,
            budget,
            mt,
            &mut || {
                black_box(matmul_bt(black_box(&a), black_box(&bt)));
            },
        ));
    }
}

fn conv_entries(smoke: bool, budget: Duration, mt: usize, out: &mut Vec<Sample>) {
    let shapes: &[ConvShape] = if smoke {
        &[
            ConvShape {
                name: "conv_smoke",
                input: [1, 4, 10, 10],
                filters: 6,
                kernel: 3,
                padding: 1,
                stride: 1,
                groups: 1,
                train: true,
            },
            ConvShape {
                name: "depthwise_smoke",
                input: [2, 8, 8, 8],
                filters: 8,
                kernel: 3,
                padding: 1,
                stride: 1,
                groups: 8,
                train: false,
            },
        ]
    } else {
        &[
            ConvShape {
                name: "alexnet_conv2",
                input: [1, 96, 27, 27],
                filters: 256,
                kernel: 5,
                padding: 2,
                stride: 1,
                groups: 1,
                train: false,
            },
            ConvShape {
                name: "vgg_conv3",
                input: [1, 256, 56, 56],
                filters: 256,
                kernel: 3,
                padding: 1,
                stride: 1,
                groups: 1,
                train: true,
            },
            ConvShape {
                name: "mobilenet_dw_14",
                input: [4, 256, 14, 14],
                filters: 256,
                kernel: 3,
                padding: 1,
                stride: 1,
                groups: 256,
                train: true,
            },
            ConvShape {
                name: "mobilenet_pw_14",
                input: [4, 256, 14, 14],
                filters: 256,
                kernel: 1,
                padding: 0,
                stride: 1,
                groups: 1,
                train: false,
            },
        ]
    };
    for s in shapes {
        let spec = ConvSpec::new(s.kernel, s.kernel)
            .with_stride(s.stride)
            .with_padding(s.padding);
        let input = filled(&s.input, 1e-3);
        let weight = filled(
            &[s.filters, s.input[1] / s.groups, s.kernel, s.kernel],
            2e-3,
        );
        let bias = filled(&[s.filters], 1e-2);
        let shape = format!(
            "{:?} -> K={} {}x{} p{} s{} g{}",
            s.input, s.filters, s.kernel, s.kernel, s.padding, s.stride, s.groups
        );
        let kind = if s.groups > 1 {
            "conv2d_grouped"
        } else {
            "conv2d"
        };
        out.push(measure(
            s.name,
            kind,
            shape.clone(),
            budget,
            mt,
            &mut || {
                black_box(conv2d_grouped(
                    black_box(&input),
                    black_box(&weight),
                    &bias,
                    &spec,
                    s.groups,
                ));
            },
        ));
        if s.train {
            let (oh, ow) = spec.output_dim(s.input[2], s.input[3]);
            let grad_out = filled(&[s.input[0], s.filters, oh, ow], 3e-3);
            let mut scratch = ConvScratch::new();
            out.push(measure(
                &format!("{}_train", s.name),
                "conv_fwd_bwd",
                shape,
                budget,
                mt,
                &mut || {
                    black_box(scratch.forward(&input, &weight, &bias, &spec, s.groups));
                    black_box(scratch.backward(&input, &weight, &grad_out, &spec, s.groups));
                },
            ));
        }
    }
}

/// The kernels of one `mobile_cnn` training step at the
/// `compress_pipeline` batch (`smoke`: 2 items), on operands with half
/// their elements zero at random positions: conv0 (3→8 3×3) forward and
/// forward + `dW` (its input gradient is never computed) and `dW` alone,
/// the depthwise 3×3 backward, the 8→16 1×1 conv forward, forward +
/// backward and backward alone, the linear layer's three products
/// and the 2×2 max-pool. Then a GEMM whose left operand is 90% zeros, as
/// a pruned weight is.
fn mobile_cnn_entries(smoke: bool, budget: Duration, mt: usize, out: &mut Vec<Sample>) {
    let n = if smoke { 2 } else { 32 };
    let same3 = ConvSpec::new(3, 3).with_padding(1);
    let point = ConvSpec::new(1, 1);
    let images = filled(&[n, 3, 16, 16], 1e-3);
    let conv0_w = sparse_filled(&[8, 3, 3, 3], 0.0, true, 1);
    let bias8 = filled(&[8], 1e-2);
    let conv0_go = sparse_filled(&[n, 8, 16, 16], 0.5, true, 2);
    let dw_x = sparse_filled(&[n, 8, 16, 16], 0.5, false, 12);
    let dw_w = sparse_filled(&[8, 1, 3, 3], 0.0, true, 13);
    let dw_go = sparse_filled(&[n, 8, 16, 16], 0.5, true, 14);
    let pw_x = sparse_filled(&[n, 8, 16, 16], 0.5, false, 3);
    let pw_w = sparse_filled(&[16, 8, 1, 1], 0.0, true, 4);
    let bias16 = filled(&[16], 1e-2);
    let pw_go = sparse_filled(&[n, 16, 16, 16], 0.5, true, 5);
    let fc_x = sparse_filled(&[n, 1024], 0.5, false, 6);
    let fc_w = sparse_filled(&[10, 1024], 0.0, true, 7);
    let fc_go = sparse_filled(&[n, 10], 0.0, true, 8);
    let pool_x = sparse_filled(&[n, 16, 16, 16], 0.5, false, 9);
    let mut scratch = ConvScratch::new();
    let conv0 = format!("[{n},3,16,16] -> K=8 3x3 p1");
    let conv0_shape = conv0.clone();
    let pw = format!("[{n},8,16,16] -> K=16 1x1");
    let pw_shape = pw.clone();
    let fc = format!("[{n},1024] x [10,1024]^T");
    out.push(measure(
        "mcnn_conv0_fwd",
        "conv2d",
        conv0.clone(),
        budget,
        mt,
        &mut || {
            black_box(scratch.forward(&images, &conv0_w, &bias8, &same3, 1));
        },
    ));
    out.push(measure(
        "mcnn_conv0_fwd_dw",
        "conv_fwd_dw",
        conv0,
        budget,
        mt,
        &mut || {
            black_box(scratch.forward(&images, &conv0_w, &bias8, &same3, 1));
            black_box(scratch.param_grads_last(&conv0_w, &conv0_go, &same3, 1));
        },
    ));
    // The backward alone, on the input the forward above left held.
    out.push(measure(
        "mcnn_conv0_bwd",
        "conv_dw",
        conv0_shape.clone(),
        budget,
        mt,
        &mut || {
            black_box(scratch.param_grads_last(&conv0_w, &conv0_go, &same3, 1));
        },
    ));
    let _ = scratch.forward(&dw_x, &dw_w, &bias8, &same3, 8);
    out.push(measure(
        "mcnn_dw_bwd",
        "conv_bwd",
        format!("[{n},8,16,16] -> K=8 3x3 p1 g8"),
        budget,
        mt,
        &mut || {
            black_box(scratch.backward_last(&dw_w, &dw_go, &same3, 8));
        },
    ));
    out.push(measure(
        "mcnn_pw_fwd",
        "conv2d",
        pw.clone(),
        budget,
        mt,
        &mut || {
            black_box(scratch.forward(&pw_x, &pw_w, &bias16, &point, 1));
        },
    ));
    out.push(measure(
        "mcnn_pw_fwd_bwd",
        "conv_fwd_bwd",
        pw,
        budget,
        mt,
        &mut || {
            black_box(scratch.forward(&pw_x, &pw_w, &bias16, &point, 1));
            black_box(scratch.backward_last(&pw_w, &pw_go, &point, 1));
        },
    ));
    out.push(measure(
        "mcnn_pw_bwd",
        "conv_bwd",
        pw_shape,
        budget,
        mt,
        &mut || {
            black_box(scratch.backward_last(&pw_w, &pw_go, &point, 1));
        },
    ));
    out.push(measure(
        "mcnn_linear_bt",
        "matmul_bt",
        fc.clone(),
        budget,
        mt,
        &mut || {
            black_box(matmul_bt(black_box(&fc_x), black_box(&fc_w)));
        },
    ));
    out.push(measure(
        "mcnn_linear_at",
        "matmul_at",
        fc.clone(),
        budget,
        mt,
        &mut || {
            black_box(matmul_at(black_box(&fc_go), black_box(&fc_x)));
        },
    ));
    out.push(measure(
        "mcnn_linear_nn",
        "matmul",
        fc,
        budget,
        mt,
        &mut || {
            black_box(matmul(black_box(&fc_go), black_box(&fc_w)));
        },
    ));
    out.push(measure(
        "mcnn_max_pool",
        "max_pool2d",
        format!("[{n},16,16,16] 2x2 s2"),
        budget,
        mt,
        &mut || {
            black_box(max_pool2d(black_box(&pool_x), &PoolSpec::new(2)));
        },
    ));
    let (m, k, cols) = if smoke { (8, 72, 16) } else { (64, 576, 256) };
    let pruned = sparse_filled(&[m, k], 0.9, true, 10);
    let x = sparse_filled(&[k, cols], 0.5, false, 11);
    out.push(measure(
        "pruned_gemm_90",
        "matmul",
        format!("[{m},{k}] (90% zeros) x [{k},{cols}]"),
        budget,
        mt,
        &mut || {
            black_box(matmul(black_box(&pruned), black_box(&x)));
        },
    ));
}

fn train_step_entries(smoke: bool, budget: Duration, mt: usize, out: &mut Vec<Sample>) {
    // (name, channels, height, width, classes, batch)
    let shapes: &[(&str, usize, usize, usize, usize, usize)] = if smoke {
        &[("mobile_cnn_train_step", 1, 8, 8, 2, 4)]
    } else {
        &[
            ("mobile_cnn_train_step", 3, 32, 32, 5, 8),
            // The `compress_pipeline` benchmark workload's training batch.
            ("mobile_cnn_train_step_16", 3, 16, 16, 10, 32),
        ]
    };
    for &(name, channels, h, w, classes, batch) in shapes {
        let data =
            SyntheticImages::generate(channels, h, w, classes, batch, 0.12, cscnn_bench::SEED);
        let indices: Vec<usize> = (0..batch).collect();
        let (x, labels) = data.batch(&indices);
        let mut net = models::mobile_cnn(channels, h, w, classes, cscnn_bench::SEED);
        let mut opt = Sgd::new(0.9, 1e-4);
        out.push(measure(
            name,
            "train_step",
            format!("mobile_cnn batch [{batch},{channels},{h},{w}]"),
            budget,
            mt,
            &mut || {
                let logits = net.forward(black_box(&x));
                let (_, grad) = softmax_cross_entropy(&logits, &labels);
                net.backward(&grad);
                let mut params = net.params_mut();
                opt.step(&mut params, 1e-3);
            },
        ));
    }
}

/// The training harnesses timed by a full run: binary and arguments.
const HARNESSES: [(&str, &[&str]); 3] = [
    ("table2", &["--train"]),
    ("filter_shapes", &[]),
    ("storage", &[]),
];

/// Wall seconds of one run of each of [`HARNESSES`], stdout discarded,
/// from the executables next to this one. A missing or failing harness
/// records `null`.
fn harness_walls() -> Vec<(String, Option<f64>)> {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from));
    HARNESSES
        .iter()
        .map(|&(bin, args)| {
            let name = std::iter::once(bin)
                .chain(args.iter().copied())
                .collect::<Vec<_>>()
                .join(" ");
            let start = Instant::now();
            let ok = dir.as_ref().is_some_and(|dir| {
                Command::new(dir.join(bin))
                    .args(args)
                    .stdout(Stdio::null())
                    .status()
                    .is_ok_and(|status| status.success())
            });
            let wall = ok.then(|| start.elapsed().as_secs_f64());
            match wall {
                Some(s) => println!("{name:<28} {s:>10.2} s wall"),
                None => println!("{name:<28} not run (build the harness binaries first)"),
            }
            (name, wall)
        })
        .collect()
}

/// One column: every sample of this build and the harness wall times,
/// with the machine's core count.
fn column(
    samples: &[Sample],
    harnesses: &[(String, Option<f64>)],
    label: &str,
    mt: usize,
) -> Value {
    let entries = samples
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Value::Str(s.name.clone())),
                ("kind", Value::Str(s.kind.to_string())),
                ("shape", Value::Str(s.shape.clone())),
                ("naive_ms", Value::F64(s.naive_ms)),
                ("blocked_1t_ms", Value::F64(s.blocked_1t_ms)),
                ("blocked_mt_ms", Value::F64(s.blocked_mt_ms)),
                ("speedup_blocked_1t_vs_naive", Value::F64(s.speedup_1t())),
                ("speedup_blocked_mt_vs_naive", Value::F64(s.speedup_mt())),
            ])
        })
        .collect();
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    obj(vec![
        ("label", Value::Str(label.to_string())),
        ("available_parallelism", Value::U64(parallelism as u64)),
        ("threads", obj(vec![("blocked_mt", Value::U64(mt as u64))])),
        ("entries", Value::Arr(entries)),
        (
            "harness_wall_s",
            Value::Arr(
                harnesses
                    .iter()
                    .map(|(name, wall)| {
                        obj(vec![
                            ("name", Value::Str(name.clone())),
                            ("wall_s", wall.map_or(Value::Null, Value::F64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Per-entry speedups of column `new` over column `old` (old time / new
/// time) for both blocked configurations.
fn speedups(old: &Value, new: &Value) -> Value {
    fn entries(column: &Value) -> &[Value] {
        let list = column.get("entries").and_then(Value::as_array);
        list.expect("column has entries")
    }
    let ms = |e: &Value, key: &str| e.get(key).and_then(Value::as_f64).expect("entry has times");
    let (old, new) = (entries(old), entries(new));
    assert_eq!(old.len(), new.len(), "baseline lists different entries");
    let per_entry = old
        .iter()
        .zip(new)
        .map(|(o, n)| {
            let name = o.get("name").cloned().unwrap_or(Value::Null);
            assert!(
                n.get("name") == Some(&name),
                "baseline lists different entries"
            );
            obj(vec![
                ("name", name),
                (
                    "blocked_1t",
                    Value::F64(ms(o, "blocked_1t_ms") / ms(n, "blocked_1t_ms")),
                ),
                (
                    "blocked_mt",
                    Value::F64(ms(o, "blocked_mt_ms") / ms(n, "blocked_mt_ms")),
                ),
            ])
        })
        .collect();
    Value::Arr(per_entry)
}

fn main() {
    let opts = Options::from_args();
    let smoke = opts.smoke;
    let mut columns: Vec<Value> = opts.baseline_column(SCHEMA).into_iter().collect();
    let budget = if smoke {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(150)
    };
    // The multi-thread configuration uses the process default (the
    // validated CSCNN_NUM_THREADS, else available parallelism).
    reset_num_threads();
    let mt = num_threads();
    println!(
        "[{}] kernel sweep ({}), blocked_mt = {mt} thread(s)",
        opts.label,
        opts.mode()
    );
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>9} {:>9}",
        "workload", "naive ms", "blocked 1t", "blocked mt", "1t spdup", "mt spdup"
    );
    let mut samples = Vec::new();
    matmul_entries(smoke, budget, mt, &mut samples);
    conv_entries(smoke, budget, mt, &mut samples);
    mobile_cnn_entries(smoke, budget, mt, &mut samples);
    train_step_entries(smoke, budget, mt, &mut samples);
    reset_num_threads();
    set_reference_mode(false);
    let harnesses = if smoke { Vec::new() } else { harness_walls() };
    columns.push(column(&samples, &harnesses, &opts.label, mt));

    let mut fields = vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        ("mode", Value::Str(opts.mode().to_string())),
    ];
    if let [old, new] = columns.as_slice() {
        fields.push(("speedup", speedups(old, new)));
    }
    fields.push(("columns", Value::Arr(columns)));

    let path = if smoke {
        PathBuf::from("target/BENCH_kernels_smoke.json")
    } else {
        PathBuf::from("BENCH_kernels.json")
    };
    report::write(&path, &obj(fields), SCHEMA);
}
