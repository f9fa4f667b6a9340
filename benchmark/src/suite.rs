//! `paper_suite`: `Runner::run_suite(evaluation_accelerators(),
//! evaluation_suite())`, the Fig. 7/9 computation at the seed (the paper
//! harnesses use seed 42). Users run it to regenerate the paper. Its time
//! goes to workload synthesis, three times redundant across the nine
//! accelerators, and to the Cartesian simulation of depthwise layers; its
//! critical path is one thread per model. It bypasses the batch cache and
//! the tensor stack.

use std::time::Instant;

use cscnn::ir::ModelIr;
use cscnn::models::{catalog, lower, CompressionScheme, ModelCompression, ModelDesc};
use cscnn::sim::{baselines, geomean, Accelerator, RunStats, Runner};
use cscnn_bench::paper;
use cscnn_rng::rngs::StdRng;
use cscnn_rng::{Rng, SeedableRng};

use crate::metrics::{self, Metrics};
use crate::redrive::Redrive;
use crate::trace::{self, Tracer};
use crate::util::{annotate, Checks, SimDigest};
use crate::{Pass, Workload};

/// (model, accelerator) pairs each untraced run re-simulates through
/// `Runner::run_ir` to check the suite's results.
const VERIFY_PAIRS: usize = 3;

pub struct PaperSuite {
    seed: u64,
    runner: Runner,
    accs: Vec<Box<dyn Accelerator>>,
    models: Vec<ModelDesc>,
    /// Each model lowered to IR and annotated with each compression
    /// scheme's profile: the `run_ir` side of the output check.
    irs: Vec<Vec<(CompressionScheme, ModelIr)>>,
    /// The first pass's results, `[model][accelerator]`.
    reference: Option<Vec<Vec<SimDigest>>>,
}

fn digests(rows: &[Vec<RunStats>]) -> Vec<Vec<SimDigest>> {
    rows.iter()
        .map(|row| row.iter().map(SimDigest::of).collect())
        .collect()
}

impl PaperSuite {
    /// `run_suite` re-driven sequentially, one (model, accelerator) request
    /// after another.
    fn redrive(&self, rd: &Redrive) -> Vec<Vec<SimDigest>> {
        let n = self.accs.len();
        self.models
            .iter()
            .enumerate()
            .map(|(mi, model)| {
                self.accs
                    .iter()
                    .enumerate()
                    .map(|(ai, acc)| {
                        SimDigest::of(&rd.run_model(acc.as_ref(), model, (mi * n + ai) as u64))
                    })
                    .collect()
            })
            .collect()
    }
}

/// Mean |measured / paper − 1| over the eight baselines of CSCNN's geomean
/// speedup and energy gain, in percent (`paper::headline_factors`).
fn paper_errors(rows: &[Vec<RunStats>], accs: &[Box<dyn Accelerator>]) -> (f64, f64) {
    let position = |name: &str| {
        accs.iter()
            .position(|a| a.name() == name)
            .expect("every headline accelerator is evaluated")
    };
    let cscnn = position("CSCNN");
    let headline = paper::headline_factors();
    let (mut speedup_err, mut energy_err) = (0.0, 0.0);
    for &(name, speedup, energy, _) in &headline {
        let b = position(name);
        let sp: Vec<f64> = rows
            .iter()
            .map(|row| row[b].total_time_s() / row[cscnn].total_time_s())
            .collect();
        let en: Vec<f64> = rows
            .iter()
            .map(|row| row[b].total_on_chip_pj() / row[cscnn].total_on_chip_pj())
            .collect();
        speedup_err += (geomean(&sp) / speedup - 1.0).abs();
        energy_err += (geomean(&en) / energy - 1.0).abs();
    }
    let n = headline.len() as f64;
    (100.0 * speedup_err / n, 100.0 * energy_err / n)
}

impl Workload for PaperSuite {
    /// The first suite pass grows the allocator's per-thread arenas and
    /// reads ~10% slower than the rest.
    const WARMUP_PASSES: usize = 1;

    fn setup(seed: u64, tracer: &Tracer) -> Self {
        let models = tracer.time("models.lower", None, catalog::evaluation_suite);
        let accs = baselines::evaluation_accelerators();
        let mut schemes: Vec<CompressionScheme> = Vec::new();
        for acc in &accs {
            if !schemes.contains(&acc.scheme()) {
                schemes.push(acc.scheme());
            }
        }
        let irs = models
            .iter()
            .map(|model| {
                let ir = tracer.time("models.lower", None, || lower::to_ir(model));
                schemes
                    .iter()
                    .map(|&scheme| {
                        let profile = tracer.time("models.profile", None, || {
                            ModelCompression::new(model.clone(), scheme).profile
                        });
                        let mut annotated = ir.clone();
                        annotate(&mut annotated, &profile);
                        (scheme, annotated)
                    })
                    .collect()
            })
            .collect();
        PaperSuite {
            seed,
            runner: Runner::new(seed),
            accs,
            models,
            irs,
            reference: None,
        }
    }

    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let start = Instant::now();
        let result = self.runner.run_suite(&self.accs, &self.models);
        let seconds = start.elapsed().as_secs_f64();
        let requests = self.models.len() * self.accs.len();
        match result {
            Ok(rows) => {
                let got = digests(&rows);
                match &self.reference {
                    // The first pass is checked against run_ir in `verify`.
                    None => {
                        for _ in 0..requests {
                            checks.record(true, String::new);
                        }
                        self.reference = Some(got);
                    }
                    Some(want) => {
                        for (mi, row) in got.iter().enumerate() {
                            for (ai, digest) in row.iter().enumerate() {
                                checks.record(*digest == want[mi][ai], || {
                                    format!(
                                        "run_suite result for ({}, {}) changed between passes",
                                        self.models[mi].name,
                                        self.accs[ai].name()
                                    )
                                });
                            }
                        }
                    }
                }
            }
            Err(e) => {
                for _ in 0..requests {
                    checks.record(false, || format!("run_suite failed: {e}"));
                }
            }
        }
        Pass { seconds, requests }
    }

    fn verify(&mut self, checks: &mut Checks) {
        let Some(reference) = &self.reference else {
            return;
        };
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5a1d_c0de);
        for _ in 0..VERIFY_PAIRS {
            let mi = rng.gen_range(0..self.models.len());
            let ai = rng.gen_range(0..self.accs.len());
            let acc = self.accs[ai].as_ref();
            let ir = &self.irs[mi]
                .iter()
                .find(|(scheme, _)| *scheme == acc.scheme())
                .expect("every scheme is annotated")
                .1;
            let got = self.runner.run_ir(acc, ir).ok().map(|r| SimDigest::of(&r));
            checks.record(got == Some(reference[mi][ai]), || {
                format!(
                    "run_ir({}, {}) differs from run_suite",
                    self.models[mi].name,
                    acc.name()
                )
            });
        }
    }

    fn traced(&mut self, tracer: &Tracer, checks: &mut Checks, m: &mut Metrics) {
        let start = Instant::now();
        let rows = self.runner.run_suite(&self.accs, &self.models);
        let suite_s = start.elapsed().as_secs_f64();
        let expected = rows.as_ref().ok().map(|rows| digests(rows));

        let off = Tracer::new(false);
        let start = Instant::now();
        let _ = self.redrive(&Redrive::new(&off, self.seed));
        let plain_s = start.elapsed().as_secs_f64();
        let rd = Redrive::new(tracer, self.seed);
        let start = Instant::now();
        let got = self.redrive(&rd);
        let traced_s = start.elapsed().as_secs_f64();

        for (mi, row) in got.iter().enumerate() {
            for (ai, digest) in row.iter().enumerate() {
                let want = expected.as_ref().map(|e| e[mi][ai]);
                checks.record(want == Some(*digest), || {
                    format!(
                        "re-driven ({}, {}) differs from run_suite",
                        self.models[mi].name,
                        self.accs[ai].name()
                    )
                });
            }
        }

        let spans = tracer.spans();
        let n = self.accs.len() as u64;
        metrics::sim_layers(&spans, rd.unique_syntheses(), m, |r| {
            (
                self.models[(r / n) as usize].name.clone(),
                self.accs[(r % n) as usize].name().to_string(),
            )
        });
        let model_s: Vec<f64> = (0..self.models.len() as u64)
            .map(|mi| {
                trace::total_where(&spans, "runner.run_model", |s| {
                    s.request.map(|r| r / n) == Some(mi)
                })
            })
            .collect();
        for (model, s) in self.models.iter().zip(&model_s) {
            m.set(format!("runner.model_s.{}", model.name), *s);
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        m.set(
            "runner.critical_path_s",
            model_s.iter().copied().fold(0.0, f64::max),
        );
        m.set(
            "runner.parallel_efficiency",
            model_s.iter().sum::<f64>() / (suite_s * cores as f64),
        );
        if let Ok(rows) = &rows {
            let (speedup_err, energy_err) = paper_errors(rows, &self.accs);
            m.set("paper.speedup_err_pct", speedup_err);
            m.set("paper.energy_err_pct", energy_err);
        }
        m.set("trace.overhead_s", traced_s - plain_s);
        eprintln!(
            "run_suite {suite_s:.3} s; sequential re-drive {plain_s:.3} s untraced, {traced_s:.3} s traced"
        );
    }
}
