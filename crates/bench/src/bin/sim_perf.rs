//! Simulator wall-clock benchmark: the Fig. 7 suite through
//! `Runner::run_suite`, plus sequential per-accelerator `Runner::run_model`
//! times on the two largest evaluation networks (EfficientNet-B7 and
//! ResNet-152).
//!
//! ```sh
//! cargo run --release -p cscnn-bench --bin sim_perf -- \
//!     [--smoke] [--label NAME] [--baseline FILE]
//! ```
//!
//! Every simulated figure is seeded ([`cscnn_bench::SEED`]), so only
//! wall-clock time differs between runs. One report holds one or more
//! *columns*, each a full measurement on one build: `--label` names the new
//! column (default `current`), and `--baseline FILE` copies the last column
//! of an earlier report (for instance one written by this binary built at
//! the parent commit, on the same machine) in front of it and adds the new
//! column's speedups over it.
//!
//! Output: a human-readable log on stdout and `BENCH_sim.json` (schema
//! `cscnn-bench-sim-v1`). `--smoke` runs LeNet-5 and ConvNet once each and
//! writes `target/BENCH_sim_smoke.json` instead, so CI can exercise the
//! binary and the JSON schema without clobbering the committed numbers.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use cscnn::json::Value;
use cscnn::models::{catalog, ModelDesc};
use cscnn::sim::{baselines, util, Runner};
use cscnn_bench::report::{self, obj, Options};
use cscnn_bench::SEED;

const SCHEMA: &str = "cscnn-bench-sim-v1";

/// `(q1, median, q3)` of `samples`, linearly interpolated between ranks.
fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |quarter: usize| {
        // Rank `(n-1)·quarter/4`, kept in quarters to stay in integers.
        let rank4 = (s.len() - 1) * quarter;
        let lo = rank4 / 4;
        let hi = (lo + 1).min(s.len() - 1);
        s[lo] + (s[hi] - s[lo]) * (rank4 % 4) as f64 / 4.0
    };
    (at(1), at(2), at(3))
}

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process so far (`VmHWM`), where the OS
/// reports it.
fn peak_rss_mib() -> Value {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(Value::F64(kib / 1024.0))
        })
        .unwrap_or(Value::Null)
}

fn num(v: f64) -> Value {
    Value::F64(v)
}

/// One column: every timing of this build.
fn measure(opts: &Options) -> Value {
    let (models, suite_runs, per_model, model_runs): (Vec<ModelDesc>, usize, &[&str], usize) =
        if opts.smoke {
            (
                vec![catalog::lenet5(), catalog::convnet()],
                1,
                &["LeNet-5"],
                1,
            )
        } else {
            (
                catalog::evaluation_suite(),
                5,
                &["EfficientNet-B7", "ResNet-152"],
                3,
            )
        };
    let runner = Runner::new(SEED);
    let accs = baselines::evaluation_accelerators();
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = util::configured_workers();
    println!(
        "[{}] {} models x {} accelerators, {parallelism} core(s), {workers} suite worker(s)",
        opts.label,
        models.len(),
        accs.len()
    );

    let wall: Vec<f64> = (0..suite_runs)
        .map(|i| {
            let s = seconds(|| {
                black_box(runner.run_suite(&accs, &models).expect("suite simulates"));
            });
            println!("  run_suite #{i}: {s:.3} s");
            s
        })
        .collect();
    let (q1, median, q3) = quartiles(&wall);
    let suite = obj(vec![
        ("models", Value::U64(models.len() as u64)),
        ("accelerators", Value::U64(accs.len() as u64)),
        ("workers", Value::U64(workers as u64)),
        (
            "wall_s",
            Value::Arr(wall.iter().copied().map(num).collect()),
        ),
        ("median_s", num(median)),
        ("q1_s", num(q1)),
        ("q3_s", num(q3)),
        ("peak_rss_mib", peak_rss_mib()),
    ]);

    let mut run_model = Vec::new();
    for &name in per_model {
        let model = models
            .iter()
            .find(|m| m.name == name)
            .expect("per-model entry is in the suite");
        for acc in &accs {
            let times: Vec<f64> = (0..model_runs)
                .map(|_| seconds(|| drop(black_box(runner.run_model(acc.as_ref(), model)))))
                .collect();
            let (_, median, _) = quartiles(&times);
            println!(
                "  run_model {name:<16} {:<12} {:.1} ms",
                acc.name(),
                median * 1e3
            );
            run_model.push(obj(vec![
                ("model", Value::Str(name.to_string())),
                ("accelerator", Value::Str(acc.name().to_string())),
                ("runs", Value::U64(model_runs as u64)),
                ("median_s", num(median)),
            ]));
        }
    }

    obj(vec![
        ("label", Value::Str(opts.label.clone())),
        ("available_parallelism", Value::U64(parallelism as u64)),
        ("suite", suite),
        ("run_model", Value::Arr(run_model)),
    ])
}

fn median_s(v: &Value) -> f64 {
    v.get("median_s")
        .and_then(Value::as_f64)
        .expect("entry has median_s")
}

/// Speedups of column `new` over column `old` (old time / new time).
fn speedups(old: &Value, new: &Value) -> Value {
    let suite = |c: &Value| median_s(c.get("suite").expect("column has suite"));
    let entries = |c: &Value| -> Vec<Value> {
        let list = c.get("run_model").and_then(Value::as_array);
        list.expect("column has run_model").clone()
    };
    let per_model = entries(old)
        .into_iter()
        .zip(entries(new))
        .map(|(o, n)| {
            let (model, acc) = (o.get("model").cloned(), o.get("accelerator").cloned());
            assert!(
                (&model, &acc) == (&n.get("model").cloned(), &n.get("accelerator").cloned()),
                "baseline lists different run_model entries"
            );
            obj(vec![
                ("model", model.unwrap_or(Value::Null)),
                ("accelerator", acc.unwrap_or(Value::Null)),
                ("speedup", num(median_s(&o) / median_s(&n))),
            ])
        })
        .collect();
    obj(vec![
        ("suite_median", num(suite(old) / suite(new))),
        ("run_model", Value::Arr(per_model)),
    ])
}

fn main() {
    let opts = Options::from_args();
    let mut columns: Vec<Value> = opts.baseline_column(SCHEMA).into_iter().collect();
    columns.push(measure(&opts));

    let mut fields = vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        ("mode", Value::Str(opts.mode().to_string())),
        ("seed", Value::U64(SEED)),
    ];
    if let [old, new] = columns.as_slice() {
        let s = speedups(old, new);
        println!(
            "suite median speedup over the baseline: {:.2}x",
            s.get("suite_median")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        );
        fields.push(("speedup", s));
    }
    fields.push(("columns", Value::Arr(columns)));

    let path = if opts.smoke {
        PathBuf::from("target/BENCH_sim_smoke.json")
    } else {
        PathBuf::from("BENCH_sim.json")
    };
    report::write(&path, &obj(fields), SCHEMA);
}
