//! `batch_serving`: a closed loop with one client. Each call is
//! `BatchRunner::run_batch` on CSCNN with `THREADS` workers. A seeded
//! generator draws every batch from a fixed pool of annotated DAG IRs —
//! five catalog models with three annotation variants each, their weight
//! densities scaled by fixed factors: one variant of every model,
//! requested four times, so three quarters of a batch's requests repeat an
//! IR already in it. Most requests are workload-cache reads and the rest synthesis
//! writes, through IR hashing, DAG chaining and the worker pool: the same
//! simulator layers as `paper_suite`, used differently, so a suite gain
//! that costs serving shows here.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cscnn::ir::ModelIr;
use cscnn::models::{catalog, lower, ModelCompression};
use cscnn::sim::workload::LayerWorkload;
use cscnn::sim::{Accelerator, BatchRunner, CartesianAccelerator, Runner, SimError};
use cscnn_rng::rngs::StdRng;
use cscnn_rng::seq::SliceRandom;
use cscnn_rng::{Rng, SeedableRng};

use crate::metrics::{self, Metrics};
use crate::redrive::Redrive;
use crate::trace::{self, Tracer};
use crate::util::{annotate, Checks, SimDigest};
use crate::{Pass, Workload};

/// The catalog IRs requests are drawn from.
const POOL: [fn() -> ModelIr; 5] = [
    catalog::alexnet_ir,
    catalog::resnet18_ir,
    catalog::googlenet_ir,
    catalog::mobilenet_v1_ir,
    catalog::squeezenet_ir,
];
/// Weight-density scale of each annotation variant of an IR, applied to
/// the calibrated CSCNN+Pruning profile. Fixed rather than seeded, so that
/// what a batch costs does not hinge on the seed; the seed picks the
/// variants, their order and the synthesized sparsity patterns.
const VARIANT_SCALES: [f64; 3] = [1.0, 0.85, 0.7];
const VARIANTS: usize = VARIANT_SCALES.len();
/// Requests per batch: four of each pool model, so 15 of the 20 repeat an
/// IR already in the batch.
pub const BATCH: usize = 20;
/// Batches the traced run re-drives.
const TRACED_BATCHES: usize = 10;
/// The spans of a re-driven worker doing work (the rest of a request span
/// is waiting on the cache lock).
const BUSY_SPANS: [&str; 5] = [
    "ir.validate",
    "ir.annotated_hash",
    "workload.synthesize",
    "tiling.plan",
    "accel.simulate",
];

/// The seeded request generator over a pool laid out model-major
/// (`model * VARIANTS + variant`).
pub struct RequestStream {
    rng: StdRng,
    models: usize,
}

impl RequestStream {
    pub fn new(seed: u64, models: usize) -> Self {
        assert!(
            models > 0 && BATCH % models == 0,
            "every model is requested equally often"
        );
        RequestStream {
            rng: StdRng::seed_from_u64(seed ^ 0xba7c_4e55),
            models,
        }
    }

    /// Pool indices of the next batch: a seeded variant of every model,
    /// each requested `BATCH / models` times, in seeded order. Fixing the
    /// per-model counts keeps batch cost from hinging on the draw.
    pub fn next_batch(&mut self) -> Vec<usize> {
        let mut batch = Vec::with_capacity(BATCH);
        for m in 0..self.models {
            let pick = m * VARIANTS + self.rng.gen_range(0..VARIANTS);
            batch.extend(std::iter::repeat_n(pick, BATCH / self.models));
        }
        batch.shuffle(&mut self.rng);
        batch
    }
}

/// Share of a batch's requests whose IR already appeared earlier in it.
#[cfg(test)]
fn repeat_share(batch: &[usize]) -> f64 {
    let repeats = batch
        .iter()
        .enumerate()
        .filter(|&(i, x)| batch[..i].contains(x))
        .count();
    repeats as f64 / batch.len() as f64
}

/// One check per served result: it must equal `reference(pool index)`,
/// the request's IR simulated alone by `Runner::run_ir`.
fn check_served(
    served: &[(usize, SimDigest)],
    mut reference: impl FnMut(usize) -> Option<SimDigest>,
    checks: &mut Checks,
) {
    for &(i, got) in served {
        checks.record(reference(i) == Some(got), || {
            format!("run_batch result for pool entry {i} differs from run_ir")
        });
    }
}

pub struct BatchServing {
    seed: u64,
    acc: CartesianAccelerator,
    batch: BatchRunner,
    pool: Vec<ModelIr>,
    stream: RequestStream,
    /// Every served result, by pool index, checked in `verify`.
    served: Vec<(usize, SimDigest)>,
}

struct BatchRedrive {
    results: Vec<Result<SimDigest, SimError>>,
    hits: usize,
    misses: usize,
}

type CacheEntry = (u64, usize, Arc<Vec<Option<LayerWorkload>>>);

/// `BatchRunner::run_batch` re-driven: a strided assignment over `workers`
/// threads and one workload cache per batch, probed by `annotated_hash`,
/// confirmed by equality and filled under its lock.
fn redrive_batch(
    rd: &Redrive,
    acc: &dyn Accelerator,
    requests: &[ModelIr],
    workers: usize,
    base: u64,
) -> BatchRedrive {
    let centro = acc.scheme().uses_centrosymmetric();
    let cache: Mutex<(Vec<CacheEntry>, usize, usize)> = Mutex::new((Vec::new(), 0, 0));
    let parent = rd.tracer.current();
    let mut results: Vec<Option<Result<SimDigest, SimError>>> = vec![None; requests.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cache = &cache;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    for (i, ir) in requests.iter().enumerate().skip(w).step_by(workers) {
                        let request = base + i as u64;
                        let _span = rd.tracer.span_under("batch.request", Some(request), parent);
                        let result = (|| -> Result<SimDigest, SimError> {
                            rd.validate(ir, request)?;
                            let hash = rd
                                .tracer
                                .time("ir.annotated_hash", Some(request), || ir.annotated_hash());
                            let workloads = {
                                let mut state =
                                    cache.lock().expect("cache poisoned by a panicking worker");
                                let found = state
                                    .0
                                    .iter()
                                    .find(|(h, j, _)| *h == hash && requests[*j] == *ir)
                                    .map(|entry| Arc::clone(&entry.2));
                                match found {
                                    Some(workloads) => {
                                        state.1 += 1;
                                        workloads
                                    }
                                    None => {
                                        let workloads =
                                            Arc::new(rd.ir_workloads(ir, centro, request)?);
                                        state.2 += 1;
                                        state.0.push((hash, i, Arc::clone(&workloads)));
                                        workloads
                                    }
                                }
                            };
                            Ok(SimDigest::of(
                                &rd.simulate_prepared(acc, ir, &workloads, request),
                            ))
                        })();
                        done.push((i, result));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("re-drive worker panicked") {
                results[i] = Some(result);
            }
        }
    });
    let (_, hits, misses) = cache
        .into_inner()
        .expect("cache poisoned by a panicking worker");
    BatchRedrive {
        results: results
            .into_iter()
            .map(|r| r.expect("every request has a worker"))
            .collect(),
        hits,
        misses,
    }
}

impl BatchServing {
    fn requests(&self, picks: &[usize]) -> Vec<ModelIr> {
        picks.iter().map(|&i| self.pool[i].clone()).collect()
    }
}

impl Workload for BatchServing {
    const WARMUP_PASSES: usize = 2;

    fn setup(seed: u64, tracer: &Tracer) -> Self {
        let acc = CartesianAccelerator::cscnn();
        let mut pool = Vec::with_capacity(POOL.len() * VARIANTS);
        for build in POOL {
            let ir = tracer.time("models.lower", None, build);
            let desc = tracer
                .time("models.lower", None, || lower::to_model_desc(&ir))
                .expect("catalog IRs lower to layer lists");
            let profile = tracer.time("models.profile", None, || {
                ModelCompression::new(desc, acc.scheme()).profile
            });
            for scale in VARIANT_SCALES {
                let mut scaled = profile.clone();
                for d in &mut scaled.weight_density {
                    *d *= scale;
                }
                let mut annotated = ir.clone();
                annotate(&mut annotated, &scaled);
                pool.push(annotated);
            }
        }
        BatchServing {
            seed,
            acc,
            batch: BatchRunner::new(Runner::new(seed)).with_workers(crate::THREADS),
            pool,
            stream: RequestStream::new(seed, POOL.len()),
            served: Vec::new(),
        }
    }

    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let picks = self.stream.next_batch();
        let requests = self.requests(&picks);
        let start = Instant::now();
        let result = self.batch.run_batch(&self.acc, &requests);
        let seconds = start.elapsed().as_secs_f64();
        match result {
            Ok(stats) => self.served.extend(
                picks
                    .iter()
                    .zip(&stats.runs)
                    .map(|(&i, run)| (i, SimDigest::of(run))),
            ),
            Err(e) => {
                for _ in &picks {
                    checks.record(false, || format!("run_batch failed: {e}"));
                }
            }
        }
        Pass {
            seconds,
            requests: picks.len(),
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        let runner = self.batch.runner();
        let mut reference: HashMap<usize, Option<SimDigest>> = HashMap::new();
        check_served(
            &self.served,
            |i| {
                *reference.entry(i).or_insert_with(|| {
                    runner
                        .run_ir(&self.acc, &self.pool[i])
                        .ok()
                        .map(|r| SimDigest::of(&r))
                })
            },
            checks,
        );
    }

    fn traced(&mut self, tracer: &Tracer, checks: &mut Checks, m: &mut Metrics) {
        let runner = self.batch.runner();
        let workers = self.batch.planned_workers(BATCH);
        let off = Tracer::new(false);
        let plain = Redrive::new(&off, self.seed);
        let rd = Redrive::new(tracer, self.seed);
        let mut stream = RequestStream::new(self.seed, POOL.len());
        let mut request_model: Vec<String> = Vec::new();
        let (mut plain_s, mut traced_s, mut hits, mut misses) = (0.0, 0.0, 0usize, 0usize);
        for b in 0..TRACED_BATCHES {
            let picks = stream.next_batch();
            let requests = self.requests(&picks);
            let base = request_model.len() as u64;
            request_model.extend(requests.iter().map(|ir| ir.name.clone()));
            let expected = match self.batch.run_batch(&self.acc, &requests) {
                Ok(stats) => stats,
                Err(e) => {
                    for _ in &picks {
                        checks.record(false, || format!("run_batch failed: {e}"));
                    }
                    continue;
                }
            };
            let start = Instant::now();
            let _ = redrive_batch(&plain, &self.acc, &requests, workers, base);
            plain_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let ours = {
                let _batch = tracer.span("batch.run_batch", None);
                redrive_batch(&rd, &self.acc, &requests, workers, base)
            };
            traced_s += start.elapsed().as_secs_f64();
            hits += ours.hits;
            misses += ours.misses;
            checks.record(
                (ours.hits, ours.misses) == (expected.cache_hits, expected.cache_misses),
                || format!("re-driven cache counters of batch {b} differ from run_batch"),
            );
            for (k, run) in expected.runs.iter().enumerate() {
                let want = SimDigest::of(run);
                checks.record(ours.results[k].as_ref().ok() == Some(&want), || {
                    format!("re-driven request {k} of batch {b} differs from run_batch")
                });
                // Σ sequential run_ir: the same requests without cache or pool.
                let alone = tracer.time("batch.run_ir", Some(base + k as u64), || {
                    runner.run_ir(&self.acc, &requests[k])
                });
                checks.record(alone.ok().map(|r| SimDigest::of(&r)) == Some(want), || {
                    format!("run_ir differs from run_batch for request {k} of batch {b}")
                });
            }
        }

        let spans = tracer.spans();
        let acc = self.acc.name().to_string();
        metrics::sim_layers(&spans, rd.unique_syntheses(), m, |r| {
            (request_model[r as usize].clone(), acc.clone())
        });
        m.set(
            "batch.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        m.set("batch.cache_misses", misses as f64);
        m.set("batch.run_ir_s", trace::total(&spans, "batch.run_ir"));
        let busy: f64 = BUSY_SPANS.iter().map(|n| trace::total(&spans, n)).sum();
        m.set(
            "batch.pool_efficiency",
            busy / (trace::total(&spans, "batch.run_batch") * workers as f64),
        );
        m.set(
            "ir.annotated_hash_s",
            trace::total(&spans, "ir.annotated_hash"),
        );
        m.set("ir.validate_s", trace::total(&spans, "ir.validate"));
        m.set(
            "trace.overhead_s",
            (traced_s - plain_s) / TRACED_BATCHES as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, batches: usize) -> Vec<Vec<usize>> {
        let mut s = RequestStream::new(seed, POOL.len());
        (0..batches).map(|_| s.next_batch()).collect()
    }

    #[test]
    fn the_seed_fixes_the_request_stream() {
        assert_eq!(stream(42, 50), stream(42, 50));
        assert_ne!(stream(42, 50), stream(43, 50));
    }

    #[test]
    fn three_quarters_of_each_batch_repeat() {
        for batch in stream(7, 200) {
            assert_eq!(batch.len(), BATCH);
            assert_eq!(repeat_share(&batch), 0.75);
            let mut models: Vec<usize> = batch.iter().map(|i| i / VARIANTS).collect();
            models.sort_unstable();
            models.dedup();
            assert_eq!(models.len(), POOL.len(), "every model once per batch");
        }
        assert_eq!(repeat_share(&[1, 2, 1, 1]), 0.5);
    }

    #[test]
    fn a_perturbed_result_is_caught() {
        let d = |cycles| SimDigest {
            cycles,
            on_chip_pj: 1,
            total_pj: 2,
            time_s: 3,
        };
        let reference = |i: usize| Some(d(100 + i as u64));
        let mut checks = Checks::default();
        check_served(
            &[(0, d(100)), (1, d(101)), (0, d(100))],
            reference,
            &mut checks,
        );
        assert_eq!((checks.attempted, checks.failed), (3, 0));
        let mut perturbed = d(101);
        perturbed.on_chip_pj ^= 1;
        check_served(&[(1, perturbed), (2, d(103))], reference, &mut checks);
        assert_eq!((checks.attempted, checks.failed), (5, 2));
    }

    #[test]
    fn redriven_batch_matches_run_batch() {
        let served = BatchServing::setup(5, &Tracer::new(false));
        let requests = served.requests(&[0, VARIANTS, 0, 0]);
        let expected = served
            .batch
            .run_batch(&served.acc, &requests)
            .expect("annotated requests");
        let tracer = Tracer::new(true);
        let ours = redrive_batch(&Redrive::new(&tracer, 5), &served.acc, &requests, 2, 0);
        assert_eq!((ours.hits, ours.misses), (2, 2));
        for (k, run) in expected.runs.iter().enumerate() {
            assert_eq!(ours.results[k], Ok(SimDigest::of(run)));
        }
    }
}
