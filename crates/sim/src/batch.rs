//! Batched simulation intake: many annotated IR requests, one workload
//! cache, a bounded worker pool (see `docs/batching.md`).
//!
//! Serving-style traffic sends thousands of requests that share a handful
//! of network structures; re-synthesizing `LayerWorkload`s per request
//! would dominate the run. [`BatchRunner`] deduplicates requests behind a
//! workload cache: workloads are synthesized **exactly once** per unique
//! annotated IR (identical structure *and* identical annotations — the
//! synthesized sparse structure depends on both) and shared by reference
//! across the pool. Per-request results are bit-identical to sequential
//! [`Runner::run_ir`] calls, independent of worker count and scheduling
//! order, because the cache key is exact (hash probe + full `==`
//! confirmation) and each request is simulated from the same shared
//! workloads in isolation. [`Runner::run_suite`] runs on the same pool and
//! cache.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use cscnn_ir::{ModelIr, SparsityAnnotation};

use crate::error::SimError;
use crate::interface::Accelerator;
use crate::report::RunStats;
use crate::runner::Runner;
use crate::util::{count_from_f64, det_sum, to_count, to_index};
use crate::workload::LayerWorkload;

/// One simulation job: an accelerator and the annotated IR it runs.
pub(crate) type Job<'a> = (&'a dyn Accelerator, &'a ModelIr);

type Workloads = Arc<Vec<Option<LayerWorkload>>>;

/// One workload-cache entry: a unique `(annotated IR, centro)` pair of a
/// job list, how many of its jobs are not yet done, and its workloads
/// while some job holds them.
struct CacheEntry<'a> {
    ir: &'a ModelIr,
    centro: bool,
    users: AtomicUsize,
    workloads: Mutex<Option<Workloads>>,
}

impl CacheEntry<'_> {
    /// Returns the entry's workloads, validating and synthesizing them on
    /// first use. Synthesis runs under the entry's own lock, so it happens
    /// exactly once per entry while other entries synthesize concurrently.
    fn acquire(&self, runner: &Runner) -> Result<Workloads, SimError> {
        // A job that panicked mid-synthesis may have poisoned the lock; the
        // slot is only ever assigned whole, so it is safe to adopt.
        let mut slot = self
            .workloads
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(workloads) = &*slot {
            return Ok(workloads.clone());
        }
        crate::runner::validate_ir(self.ir)?;
        let workloads = Arc::new(runner.ir_workloads(self.ir, self.centro)?);
        *slot = Some(workloads.clone());
        Ok(workloads)
    }

    /// Marks one job done with the entry; the last one frees the workloads,
    /// so a long job list holds only the entries still in use.
    fn release(&self) {
        if self.users.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self
                .workloads
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

/// Runs `jobs` on up to `workers` scoped threads sharing one workload
/// cache — the pool behind both [`BatchRunner::run_batch`] and
/// [`Runner::run_suite`].
///
/// Synthesized workloads depend on the annotated IR, the runner seed and
/// the scheme's centrosymmetric flag, never on the accelerator, so the
/// cache key is `(annotated_hash, centro)`. Before any thread starts, jobs
/// are grouped by that key in a hash map, each match confirmed with full
/// `ModelIr` equality so a hash collision can never alias two IRs. Workers
/// then claim jobs in order from a shared counter. `results[i]` is
/// bit-identical to `runner.run_ir(jobs[i].0, jobs[i].1)` whatever the
/// worker count or claim order; a panicking accelerator fails only its own
/// job, as [`SimError::WorkerPanicked`] naming the job's model. Also
/// returns the number of cache entries (unique annotated IRs).
pub(crate) fn run_jobs(
    runner: &Runner,
    jobs: &[Job<'_>],
    workers: usize,
) -> (Vec<Result<RunStats, SimError>>, usize) {
    let mut index: HashMap<(u64, bool), Vec<usize>> = HashMap::new();
    let mut entries: Vec<CacheEntry<'_>> = Vec::new();
    let entry_of: Vec<usize> = jobs
        .iter()
        .map(|&(acc, ir)| {
            let centro = acc.scheme().uses_centrosymmetric();
            let bucket = index.entry((ir.annotated_hash(), centro)).or_default();
            let e = match bucket.iter().copied().find(|&e| *entries[e].ir == *ir) {
                Some(e) => e,
                None => {
                    bucket.push(entries.len());
                    entries.push(CacheEntry {
                        ir,
                        centro,
                        users: AtomicUsize::new(0),
                        workloads: Mutex::new(None),
                    });
                    entries.len() - 1
                }
            };
            *entries[e].users.get_mut() += 1;
            e
        })
        .collect();

    let next = AtomicUsize::new(0);
    // `None` once set: the job panicked; reported with lost jobs below.
    let slots: Vec<OnceLock<Option<Result<RunStats, SimError>>>> =
        jobs.iter().map(|_| OnceLock::new()).collect();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(acc, ir)) = jobs.get(i) else {
            break;
        };
        let entry = &entries[entry_of[i]];
        let result = catch_unwind(AssertUnwindSafe(|| {
            let workloads = entry.acquire(runner)?;
            Ok(runner.simulate_prepared(acc, ir, &workloads))
        }));
        entry.release();
        let _ = slots[i].set(result.ok());
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(jobs.len()))
            .map(|_| scope.spawn(&worker))
            .collect();
        for handle in handles {
            // catch_unwind makes a failed join unreachable in practice; the
            // jobs such a worker lost are reported below.
            let _ = handle.join();
        }
    });
    let results = slots
        .into_iter()
        .zip(jobs)
        .map(|(slot, (_, ir))| {
            slot.into_inner().flatten().unwrap_or_else(|| {
                Err(SimError::WorkerPanicked {
                    model: ir.name.clone(),
                })
            })
        })
        .collect();
    (results, entries.len())
}

/// Results of one batch: per-request stats in request order, plus the
/// cache counters and aggregate throughput/latency views.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Per-request results, in request order (request `i` of the input
    /// slice is `runs[i]`, exactly as [`Runner::run_ir`] would produce it).
    pub runs: Vec<RunStats>,
    /// Requests served from the workload cache.
    pub cache_hits: usize,
    /// Requests that synthesized a new cache entry — equivalently, the
    /// number of unique annotated IRs in the batch.
    pub cache_misses: usize,
}

impl BatchStats {
    /// Number of requests in the batch.
    pub fn requests(&self) -> usize {
        self.runs.len()
    }

    /// Unique annotated IRs the batch contained (= cache misses).
    pub fn unique_structures(&self) -> usize {
        self.cache_misses
    }

    /// Total compute cycles across all requests.
    pub fn total_cycles(&self) -> u64 {
        self.runs.iter().map(RunStats::total_cycles).sum()
    }

    /// Total on-chip energy across all requests, in pJ. Summed in request
    /// order with compensation so the total is bit-identical run to run.
    pub fn total_on_chip_pj(&self) -> f64 {
        det_sum(self.runs.iter().map(RunStats::total_on_chip_pj))
    }

    /// Simulated makespan in seconds: the batch processed back to back on
    /// one accelerator (sum of per-request latencies, in request order).
    pub fn makespan_s(&self) -> f64 {
        det_sum(self.runs.iter().map(RunStats::total_time_s))
    }

    /// Aggregate throughput in requests per simulated second
    /// (`requests / makespan`), or 0 for an empty batch.
    pub fn throughput_rps(&self) -> f64 {
        let makespan = self.makespan_s();
        if makespan <= 0.0 {
            return 0.0;
        }
        self.requests() as f64 / makespan
    }

    /// Nearest-rank percentile of per-request simulated latency. `p` is
    /// clamped to `[0, 100]` (below 0 gives the fastest request, above 100
    /// the slowest); a NaN `p` gives NaN. Returns 0 for an empty batch.
    pub fn latency_percentile_s(&self, p: f64) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        if p.is_nan() {
            return f64::NAN;
        }
        let mut latencies: Vec<f64> = self.runs.iter().map(RunStats::total_time_s).collect();
        latencies.sort_by(f64::total_cmp);
        let p = p.clamp(0.0, 100.0);
        let rank = to_index(count_from_f64(
            ((p / 100.0) * latencies.len() as f64).ceil(),
        ));
        latencies[rank.clamp(1, latencies.len()) - 1]
    }

    /// Median simulated request latency in seconds.
    pub fn p50_latency_s(&self) -> f64 {
        self.latency_percentile_s(50.0)
    }

    /// 95th-percentile simulated request latency in seconds.
    pub fn p95_latency_s(&self) -> f64 {
        self.latency_percentile_s(95.0)
    }

    /// The aggregate report as a JSON object (requests, unique structures,
    /// cache counters, cycles, energy, makespan, throughput, p50/p95
    /// latency) — what `sim_batch` prints.
    pub fn summary(&self) -> cscnn_json::Value {
        use cscnn_json::Value;
        Value::Obj(vec![
            ("requests".into(), Value::U64(to_count(self.requests()))),
            (
                "unique_structures".into(),
                Value::U64(to_count(self.unique_structures())),
            ),
            ("cache_hits".into(), Value::U64(to_count(self.cache_hits))),
            (
                "cache_misses".into(),
                Value::U64(to_count(self.cache_misses)),
            ),
            ("total_cycles".into(), Value::U64(self.total_cycles())),
            (
                "total_on_chip_pj".into(),
                Value::F64(self.total_on_chip_pj()),
            ),
            ("makespan_s".into(), Value::F64(self.makespan_s())),
            ("throughput_rps".into(), Value::F64(self.throughput_rps())),
            ("p50_latency_s".into(), Value::F64(self.p50_latency_s())),
            ("p95_latency_s".into(), Value::F64(self.p95_latency_s())),
        ])
    }
}

/// Batched, multi-threaded intake over a [`Runner`].
///
/// # Example
///
/// ```
/// use cscnn_sim::{Accelerator, BatchRunner, CartesianAccelerator, Runner};
/// use cscnn_models::{catalog, lower, ModelCompression};
///
/// // One annotated structure, many requests.
/// let model = catalog::lenet5();
/// let acc = CartesianAccelerator::cscnn();
/// let mut ir = lower::to_ir(&model);
/// assert!(ModelCompression::new(model, acc.scheme()).profile.annotate(&mut ir));
/// let batch = BatchRunner::new(Runner::new(42)).with_workers(2);
/// let stats = batch.run_batch(&acc, &vec![ir; 4]).unwrap();
/// assert_eq!(stats.requests(), 4);
/// assert_eq!(stats.unique_structures(), 1); // synthesized exactly once
/// ```
#[derive(Clone, Debug)]
pub struct BatchRunner {
    runner: Runner,
    workers: usize,
}

impl BatchRunner {
    /// Creates a batched intake over `runner`, sized by
    /// [`crate::util::configured_workers`]: the validated
    /// `CSCNN_NUM_THREADS` environment variable when set (the variable
    /// also sizes the tensor kernels; `cscnn_tensor::set_num_threads` does
    /// not reach this pool), else one worker per available CPU (falling
    /// back to 4 when parallelism cannot be queried). Results never depend
    /// on the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `CSCNN_NUM_THREADS` is set but invalid.
    pub fn new(runner: Runner) -> Self {
        let workers = crate::util::configured_workers();
        BatchRunner { runner, workers }
    }

    /// Overrides the worker-pool size (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The underlying sequential runner.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// How many scoped worker threads [`BatchRunner::run_batch`] will spawn
    /// for a batch of `requests` entries — never more than the batch has
    /// requests, so small batches (or an empty one) cannot create idle
    /// threads.
    pub fn planned_workers(&self, requests: usize) -> usize {
        self.workers.min(requests)
    }

    /// Simulates every request of a batch on one accelerator.
    ///
    /// Requests run on the worker pool, each worker claiming the next
    /// unclaimed request; identical requests (same annotated IR) share one
    /// workload synthesis through the cache. `stats.runs[i]` is
    /// bit-identical to `runner.run_ir(acc, &requests[i])`.
    ///
    /// # Errors
    ///
    /// The first failing request *by request index* (deterministic, not
    /// discovery order): [`SimError::MissingSparsity`] for unannotated
    /// weight nodes, [`SimError::DensityOutOfRange`] for a density that is
    /// NaN or outside `[0, 1]`, [`SimError::WorkerPanicked`] naming the
    /// request's model when an accelerator model panics mid-simulation.
    /// Every worker is joined before returning.
    pub fn run_batch(
        &self,
        acc: &dyn Accelerator,
        requests: &[ModelIr],
    ) -> Result<BatchStats, SimError> {
        let jobs: Vec<Job<'_>> = requests.iter().map(|ir| (acc, ir)).collect();
        let (results, unique) = run_jobs(&self.runner, &jobs, self.workers);
        let runs = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(BatchStats {
            cache_hits: runs.len() - unique,
            cache_misses: unique,
            runs,
        })
    }

    /// Simulates one shared IR under many per-request annotation vectors —
    /// the "same network, different measured sparsity per request" shape of
    /// serving traffic. Each vector must carry exactly one annotation per
    /// weight-bearing node, in order; requests with identical vectors share
    /// one workload synthesis.
    ///
    /// # Errors
    ///
    /// [`SimError::AnnotationCount`] naming the first request whose vector
    /// length disagrees with the IR's weight-node count, plus everything
    /// [`BatchRunner::run_batch`] can return.
    pub fn run_batch_annotated(
        &self,
        acc: &dyn Accelerator,
        ir: &ModelIr,
        annotations: &[Vec<SparsityAnnotation>],
    ) -> Result<BatchStats, SimError> {
        let expected = ir.num_weight_nodes();
        let requests = annotations
            .iter()
            .enumerate()
            .map(|(request, anns)| {
                if anns.len() != expected {
                    return Err(SimError::AnnotationCount {
                        model: ir.name.clone(),
                        request,
                        expected,
                        got: anns.len(),
                    });
                }
                let mut annotated = ir.clone();
                for (node, ann) in annotated.weight_nodes_mut().zip(anns) {
                    node.set_sparsity(*ann);
                }
                Ok(annotated)
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.run_batch(acc, &requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CartesianAccelerator;
    use cscnn_models::{catalog, lower, ModelCompression};

    fn annotated_ir(model: &cscnn_models::ModelDesc, acc: &dyn Accelerator) -> ModelIr {
        let mut ir = lower::to_ir(model);
        let mc = ModelCompression::new(model.clone(), acc.scheme());
        assert!(mc.profile.annotate(&mut ir));
        ir
    }

    #[test]
    fn batch_matches_sequential_and_dedups_synthesis() {
        let acc = CartesianAccelerator::cscnn();
        let ir = annotated_ir(&catalog::lenet5(), &acc);
        let runner = Runner::new(42);
        let batch = BatchRunner::new(runner.clone()).with_workers(4);
        let requests = vec![ir.clone(); 16];
        let stats = batch.run_batch(&acc, &requests).expect("annotated batch");
        assert_eq!(stats.requests(), 16);
        assert_eq!(stats.cache_misses, 1, "synthesized exactly once");
        assert_eq!(stats.cache_hits, 15);
        let sequential = runner.run_ir(&acc, &ir).expect("annotated IR");
        for run in &stats.runs {
            assert_eq!(run.total_cycles(), sequential.total_cycles());
            assert_eq!(run.total_on_chip_pj(), sequential.total_on_chip_pj());
            assert_eq!(run.model, sequential.model);
        }
    }

    #[test]
    fn cache_key_separates_centro_for_one_ir() {
        // SCNN and CSCNN differ in `centro` only, so the same annotated IR
        // must map to two cache entries, each matching its own run_ir.
        let scnn = CartesianAccelerator::scnn();
        let cscnn = CartesianAccelerator::cscnn();
        let ir = annotated_ir(&catalog::alexnet(), &cscnn);
        let jobs: Vec<Job<'_>> = vec![(&scnn, &ir), (&cscnn, &ir), (&scnn, &ir), (&cscnn, &ir)];
        let runner = Runner::new(42);
        for workers in [1, 3] {
            let (results, unique) = run_jobs(&runner, &jobs, workers);
            assert_eq!(unique, 2, "one entry per centro value");
            for (&(acc, ir), result) in jobs.iter().zip(results) {
                let run = result.expect("annotated IR");
                let alone = runner.run_ir(acc, ir).expect("annotated IR");
                assert_eq!(run.accelerator, acc.name());
                assert_eq!(run.total_cycles(), alone.total_cycles());
                assert_eq!(
                    run.total_on_chip_pj().to_bits(),
                    alone.total_on_chip_pj().to_bits()
                );
            }
        }
    }

    #[test]
    fn mixed_batch_keeps_request_order() {
        let acc = CartesianAccelerator::cscnn();
        let lenet = annotated_ir(&catalog::lenet5(), &acc);
        let convnet = annotated_ir(&catalog::convnet(), &acc);
        let requests = vec![lenet.clone(), convnet.clone(), lenet, convnet];
        let stats = BatchRunner::new(Runner::new(7))
            .with_workers(3)
            .run_batch(&acc, &requests)
            .expect("annotated batch");
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cache_hits, 2);
        let models: Vec<&str> = stats.runs.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(models, ["LeNet-5", "ConvNet", "LeNet-5", "ConvNet"]);
    }

    #[test]
    fn unannotated_request_fails_with_first_index_error() {
        let acc = CartesianAccelerator::cscnn();
        let good = annotated_ir(&catalog::lenet5(), &acc);
        let bare = lower::to_ir(&catalog::lenet5());
        let err = BatchRunner::new(Runner::new(1))
            .run_batch(&acc, &[good, bare])
            .expect_err("second request unannotated");
        assert!(matches!(err, SimError::MissingSparsity { .. }));
    }

    #[test]
    fn annotation_vectors_expand_and_validate() {
        let acc = CartesianAccelerator::cscnn();
        let ir = annotated_ir(&catalog::lenet5(), &acc);
        let n = ir.num_weight_nodes();
        let anns: Vec<SparsityAnnotation> = (0..n)
            .map(|i| SparsityAnnotation {
                weight_density: 0.3 + 0.05 * i as f64,
                activation_density: 0.9,
            })
            .collect();
        let batch = BatchRunner::new(Runner::new(5)).with_workers(2);
        let stats = batch
            .run_batch_annotated(&acc, &ir, &[anns.clone(), anns.clone()])
            .expect("matching annotation vectors");
        assert_eq!(stats.requests(), 2);
        assert_eq!(stats.cache_misses, 1, "identical vectors share synthesis");
        let err = batch
            .run_batch_annotated(&acc, &ir, &[anns[..n - 1].to_vec()])
            .expect_err("short vector");
        assert_eq!(
            err,
            SimError::AnnotationCount {
                model: "LeNet-5".into(),
                request: 0,
                expected: n,
                got: n - 1,
            }
        );
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let acc = CartesianAccelerator::cscnn();
        let stats = BatchRunner::new(Runner::new(1))
            .run_batch(&acc, &[])
            .expect("empty batch");
        assert_eq!(stats.requests(), 0);
        assert_eq!(stats.throughput_rps(), 0.0);
        assert_eq!(stats.p95_latency_s(), 0.0);
        assert_eq!(stats.summary()["requests"], 0u64);
    }

    #[test]
    fn small_batches_never_plan_idle_workers() {
        // Regression: a batch smaller than the pool used to spawn
        // `min(workers, max(requests, 1))` scoped threads — one idle thread
        // for an empty batch. The spawn count must never exceed the request
        // count.
        let batch = BatchRunner::new(Runner::new(1)).with_workers(8);
        assert_eq!(batch.planned_workers(0), 0, "empty batch spawns nothing");
        assert_eq!(batch.planned_workers(3), 3);
        assert_eq!(batch.planned_workers(100), 8);
        for requests in 0..12 {
            assert!(batch.planned_workers(requests) <= requests);
        }
    }

    #[test]
    fn out_of_range_density_is_a_typed_error_in_run_ir_and_run_batch() {
        // `set_sparsity` bypasses the artifact parser's range check, so the
        // simulator must reject the density itself rather than panic in
        // synthesis (which `run_batch` would report as `WorkerPanicked`).
        let acc = CartesianAccelerator::cscnn();
        let runner = Runner::new(42);
        let batch = BatchRunner::new(runner.clone()).with_workers(2);
        let good = annotated_ir(&catalog::lenet5(), &acc);
        let cases = [
            ("weight_density", 1.5),
            ("weight_density", f64::NAN),
            ("weight_density", -0.1),
            ("activation_density", 2.0),
        ];
        for (field, value) in cases {
            let mut bad = good.clone();
            let node = bad.weight_nodes_mut().nth(1).expect("two weight nodes");
            let mut ann = node.sparsity().expect("annotated");
            match field {
                "weight_density" => ann.weight_density = value,
                _ => ann.activation_density = value,
            }
            node.set_sparsity(ann);
            let layer = node.name().expect("named").to_string();

            let from_run_ir = runner.run_ir(&acc, &bad).expect_err("bad density");
            let from_batch = batch
                .run_batch(&acc, &[good.clone(), bad])
                .expect_err("bad density");
            for err in [&from_run_ir, &from_batch] {
                let SimError::DensityOutOfRange {
                    layer: got_layer,
                    field: got_field,
                    value: got_value,
                } = err
                else {
                    panic!("expected DensityOutOfRange, got {err}");
                };
                assert_eq!(*got_layer, layer);
                assert_eq!(*got_field, field);
                assert_eq!(got_value.to_bits(), value.to_bits());
            }
            assert_eq!(from_run_ir.to_string(), from_batch.to_string());
        }
    }

    #[test]
    fn batch_validates_topology_like_run_ir() {
        use cscnn_ir::IrEdge;
        let acc = CartesianAccelerator::cscnn();
        let mut bad = annotated_ir(&catalog::lenet5(), &acc);
        bad.edges.push(IrEdge::new(0, bad.nodes.len() + 5));
        let err = BatchRunner::new(Runner::new(3))
            .run_batch(&acc, &[bad])
            .expect_err("dangling edge");
        assert!(matches!(err, SimError::BadTopology { .. }), "{err}");
    }

    #[test]
    fn aggregate_percentiles_are_order_statistics() {
        let mk = |t: f64| RunStats {
            layers: vec![crate::report::LayerStats {
                time_s: t,
                ..Default::default()
            }],
            ..Default::default()
        };
        let stats = BatchStats {
            runs: (1..=20).map(|i| mk(i as f64)).collect(),
            cache_hits: 0,
            cache_misses: 20,
            ..Default::default()
        };
        assert_eq!(stats.p50_latency_s(), 10.0);
        assert_eq!(stats.p95_latency_s(), 19.0);
        assert_eq!(stats.latency_percentile_s(100.0), 20.0);
        assert_eq!(stats.latency_percentile_s(0.0), 1.0);
        // Out-of-range ranks clamp to the extremes; NaN has no rank.
        assert_eq!(stats.latency_percentile_s(-10.0), 1.0);
        assert_eq!(stats.latency_percentile_s(f64::NEG_INFINITY), 1.0);
        assert_eq!(stats.latency_percentile_s(150.0), 20.0);
        assert_eq!(stats.latency_percentile_s(f64::INFINITY), 20.0);
        assert!(stats.latency_percentile_s(f64::NAN).is_nan());
        assert!((stats.makespan_s() - 210.0).abs() < 1e-12);
        assert!((stats.throughput_rps() - 20.0 / 210.0).abs() < 1e-12);
    }

    #[test]
    fn panicking_accelerator_fails_only_with_a_typed_error() {
        use crate::interface::{Characteristics, LayerContext};
        use crate::report::LayerStats;
        struct Exploding;
        impl Accelerator for Exploding {
            fn name(&self) -> &'static str {
                "Exploding"
            }
            fn scheme(&self) -> cscnn_models::CompressionScheme {
                cscnn_models::CompressionScheme::Dense
            }
            fn characteristics(&self) -> Characteristics {
                Characteristics {
                    compression: "-",
                    sparsity: "-",
                    dataflow: "-",
                }
            }
            fn simulate_layer(&self, _ctx: &LayerContext<'_>) -> LayerStats {
                panic!("injected fault")
            }
        }
        let acc = Exploding;
        let ir = annotated_ir(&catalog::lenet5(), &CartesianAccelerator::cscnn());
        let err = BatchRunner::new(Runner::new(2))
            .with_workers(2)
            .run_batch(&acc, &[ir])
            .expect_err("accelerator panics");
        assert_eq!(
            err,
            SimError::WorkerPanicked {
                model: "LeNet-5".into()
            }
        );
    }
}
