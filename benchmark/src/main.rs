//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_suite --seed 42 --seconds 36 --trace 0
//! ```
//!
//! Three workloads call the public API from one client thread:
//! `paper_suite` (the Fig. 7/9 suite), `batch_serving` (closed-loop
//! `BatchRunner` traffic) and `compress_pipeline` (train → centro-project →
//! prune → simulate). A run sets the workload up several times, then
//! repeats its pass for `--seconds`, timing more set-ups between passes,
//! and checks every output. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced re-drive with `--trace 1` (its spans are
//! written to `.bench_out/`). `benchmark/METRICS.md` says which layer
//! metric should move which end-to-end metric on which workload.

mod compress;
mod metrics;
mod redrive;
mod serving;
mod suite;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Metrics;
use trace::Tracer;
use util::{median, percentile, Checks, MachineFacts};

/// Set-ups before the first pass.
const SETUP_REPS: usize = 15;
/// After each measured pass, set-ups repeat for this share of the pass's
/// time (once at least), so that `setup_s`, the median of all of them,
/// samples the shared host over the whole run as `wall_s` does: set-ups
/// timed in one burst read up to 30% apart between runs of the same code.
const SETUP_SHARE: f64 = 0.02;

/// Threads the library may use: tensor-kernel threads and batch workers
/// both. The benchmark shares a few cores with other tenants, and a second
/// thread measured their load more than the program: beside a one-core
/// busy loop on a 2-core host, batch latency rose 48% at two threads and
/// 21% at one. `paper_suite` still runs `run_suite`'s thread per model.
pub const THREADS: usize = 1;

const USAGE: &str =
    "usage: cscnn-benchmark --workload <paper_suite|batch_serving|compress_pipeline> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// One benchmark workload.
pub trait Workload: Sized {
    /// Untimed passes before measuring, so lazily built state is warm.
    const WARMUP_PASSES: usize;

    /// Builds the workload's inputs from the seed; timed as `setup_s`.
    /// Spans go to `tracer`, which is enabled only on the last set-up of a
    /// traced run.
    fn setup(seed: u64, tracer: &Tracer) -> Self;

    /// One client call of the untraced run, checked against the calls
    /// before it.
    fn pass(&mut self, checks: &mut Checks) -> Pass;

    /// Checks the passes' outputs against the library's reference entry
    /// point, after measuring.
    fn verify(&mut self, checks: &mut Checks);

    /// The traced run: re-drives the workload's layer calls with spans,
    /// checks that their results equal the library's, and sets the
    /// per-layer metrics it exercises.
    fn traced(&mut self, tracer: &Tracer, checks: &mut Checks, metrics: &mut Metrics);
}

/// One timed client call.
pub struct Pass {
    /// Host seconds of the call.
    pub seconds: f64,
    /// Simulation results it delivered.
    pub requests: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run<W: Workload>(args: &Args, facts: &MachineFacts) -> (Checks, Metrics) {
    let mut checks = Checks::default();
    let tracer = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let time_setup = |setups: &mut Vec<f64>, spans_to: &Tracer| {
        let start = Instant::now();
        let state = W::setup(args.seed, spans_to);
        setups.push(start.elapsed().as_secs_f64());
        state
    };
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPS {
        drop(time_setup(&mut setups, &off));
    }
    let mut state = time_setup(&mut setups, &tracer);

    if args.trace {
        let mut m = Metrics::per_layer();
        state.traced(&tracer, &mut checks, &mut m);
        let spans = tracer.spans();
        m.set("models.lower_s", trace::total(&spans, "models.lower"));
        m.set("models.profile_s", trace::total(&spans, "models.profile"));
        let path = PathBuf::from(format!(
            ".bench_out/trace_{}_seed{}.json",
            args.workload, args.seed
        ));
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"machine\": {}",
            args.workload,
            args.seed,
            facts.to_json()
        );
        match trace::write_json(&path, &header, &spans) {
            Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        eprintln!(
            "{:<44} {:>8} {:>12} {:>12}",
            "span", "calls", "total_s", "self_s"
        );
        let mut rows: Vec<_> = trace::summary(&spans).into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        for (name, (calls, total_s, self_s)) in rows.iter().take(20) {
            eprintln!("{name:<44} {calls:>8} {total_s:>12.4} {self_s:>12.4}");
        }
        return (checks, m);
    }

    for _ in 0..W::WARMUP_PASSES {
        state.pass(&mut checks);
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut latencies, mut requests) = (Vec::new(), 0usize);
    // No pass starts that the last one says would end past the budget, so
    // a run of long passes does not overrun it by up to a pass.
    let mut last = 0.0;
    while latencies.is_empty() || start.elapsed().as_secs_f64() + last < budget.as_secs_f64() {
        let pass = state.pass(&mut checks);
        last = pass.seconds;
        latencies.push(pass.seconds);
        requests += pass.requests;
        let slice = Instant::now();
        loop {
            drop(time_setup(&mut setups, &off));
            if slice.elapsed().as_secs_f64() >= SETUP_SHARE * pass.seconds {
                break;
            }
        }
    }
    state.verify(&mut checks);
    let busy: f64 = latencies.iter().sum();
    let mut m = Metrics::end_to_end();
    m.set("setup_s", median(&setups));
    m.set("wall_s", median(&latencies));
    m.set("requests_per_s", requests as f64 / busy);
    m.set("batch_latency_p50_ms", 1e3 * percentile(&latencies, 50.0));
    m.set("batch_latency_p90_ms", 1e3 * percentile(&latencies, 90.0));
    eprintln!(
        "passes: {} (median {:.4} s), requests: {requests}, set-ups: {}",
        latencies.len(),
        median(&latencies),
        setups.len()
    );
    (checks, m)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    cscnn::tensor::set_num_threads(THREADS);
    let facts = MachineFacts::collect();
    println!("{{\"machine\": {}}}", facts.to_json());
    let (checks, metrics) = match args.workload.as_str() {
        "paper_suite" => run::<suite::PaperSuite>(&args, &facts),
        "batch_serving" => run::<serving::BatchServing>(&args, &facts),
        "compress_pipeline" => run::<compress::CompressPipeline>(&args, &facts),
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    eprintln!(
        "checks: {} attempted, {} failed (error_rate {error_rate})",
        checks.attempted, checks.failed
    );
    for failure in checks.failures() {
        eprintln!("  mismatch: {failure}");
    }
    println!(
        "{}",
        metrics::result_line(
            checks.failed == 0 && checks.attempted > 0,
            checks.attempted,
            checks.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let ok = parse(&[
            "--workload",
            "paper_suite",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 2.0, true));
        let bad = [
            [
                "--workload",
                "x",
                "--seed",
                "-1",
                "--seconds",
                "2",
                "--trace",
                "0",
            ],
            [
                "--workload",
                "x",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            [
                "--workload",
                "x",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            [
                "--workload",
                "x",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--bogus",
                "0",
            ],
        ];
        for args in bad {
            assert!(parse(&args).is_err(), "{args:?}");
        }
        assert!(parse(&["--workload", "x", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}
