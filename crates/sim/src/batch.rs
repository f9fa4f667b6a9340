//! Batched simulation intake: many annotated IR requests, one bounded
//! worker pool (see `docs/batching.md`).
//!
//! Serving-style traffic sends thousands of requests that share a handful
//! of network structures; re-synthesizing `LayerWorkload`s per request
//! would dominate the run. [`BatchRunner`] groups requests by annotated IR
//! (identical structure *and* identical annotations — the synthesized
//! sparse structure depends on both) and runs each group as one task:
//! every layer is synthesized **exactly once** per group, simulated for all
//! of the group's requests, and dropped. Per-request results are
//! bit-identical to sequential [`Runner::run_ir`] calls, independent of
//! worker count and scheduling order, because the grouping key is exact
//! (hash probe + full `==` confirmation) and `run_ir` is the same routine
//! run for a group of one. [`Runner::run_suite`] runs on the same pool.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use cscnn_ir::{ModelIr, SparsityAnnotation};

use crate::error::SimError;
use crate::interface::Accelerator;
use crate::report::RunStats;
use crate::runner::Runner;
use crate::util::{count_from_f64, det_sum, to_count, to_index};

/// One simulation job: an accelerator and the annotated IR it runs.
pub(crate) type Job<'a> = (&'a dyn Accelerator, &'a ModelIr);

/// One task of the pool: a unique `(annotated IR, centro)` pair of a job
/// list, the distinct accelerators that run it, and each of its jobs as
/// `(job index, index into accs)`.
struct Group<'a> {
    ir: &'a ModelIr,
    centro: bool,
    accs: Vec<&'a dyn Accelerator>,
    jobs: Vec<(usize, usize)>,
}

/// Runs `jobs` on up to `workers` scoped threads — the pool behind both
/// [`BatchRunner::run_batch`] and [`Runner::run_suite`].
///
/// Synthesized workloads depend on the annotated IR, the runner seed and
/// the scheme's centrosymmetric flag, never on the accelerator, so jobs
/// sharing `(annotated_hash, centro)` share their workloads. Before any
/// thread starts, jobs are grouped by that key in a hash map, each match
/// confirmed with full `ModelIr` equality so a hash collision can never
/// alias two IRs. Workers then claim groups in order from a shared counter
/// and run each with [`Runner::run_shared`], which synthesizes one layer at
/// a time for all of the group's distinct accelerators; jobs repeating an
/// accelerator object within a group get copies of its stats. `results[i]` is
/// bit-identical to `runner.run_ir(jobs[i].0, jobs[i].1)` whatever the
/// worker count or claim order; a panicking accelerator fails every job of
/// its group, as [`SimError::WorkerPanicked`] naming the model. Also
/// returns the number of groups (unique annotated IRs).
pub(crate) fn run_jobs(
    runner: &Runner,
    jobs: &[Job<'_>],
    workers: usize,
) -> (Vec<Result<RunStats, SimError>>, usize) {
    let mut index: HashMap<(u64, bool), Vec<usize>> = HashMap::new();
    let mut groups: Vec<Group<'_>> = Vec::new();
    for (i, &(acc, ir)) in jobs.iter().enumerate() {
        let centro = acc.scheme().uses_centrosymmetric();
        let bucket = index.entry((ir.annotated_hash(), centro)).or_default();
        let g = match bucket.iter().copied().find(|&g| *groups[g].ir == *ir) {
            Some(g) => g,
            None => {
                bucket.push(groups.len());
                groups.push(Group {
                    ir,
                    centro,
                    accs: Vec::new(),
                    jobs: Vec::new(),
                });
                groups.len() - 1
            }
        };
        // Jobs repeating an accelerator object share its one (deterministic) run.
        let group = &mut groups[g];
        let slot = group.accs.iter().position(|&a| std::ptr::eq(a, acc));
        let slot = slot.unwrap_or_else(|| {
            group.accs.push(acc);
            group.accs.len() - 1
        });
        group.jobs.push((i, slot));
    }

    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
            // `None`: the group panicked; reported with lost groups below.
            let runs = catch_unwind(AssertUnwindSafe(|| {
                runner.run_shared(group.ir, group.centro, &group.accs)
            }))
            .ok();
            done.push((group, runs));
        }
        done
    };
    let done: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(groups.len()))
            .map(|_| scope.spawn(&worker))
            .collect();
        // catch_unwind makes a failed join unreachable in practice; the
        // groups such a worker lost are reported below.
        handles
            .into_iter()
            .flat_map(|handle| handle.join().unwrap_or_default())
            .collect()
    });
    let mut results: Vec<Result<RunStats, SimError>> = jobs
        .iter()
        .map(|(_, ir)| {
            Err(SimError::WorkerPanicked {
                model: ir.name.clone(),
            })
        })
        .collect();
    for (group, runs) in done {
        let Some(runs) = runs else { continue };
        for &(i, slot) in &group.jobs {
            results[i] = match &runs {
                Ok(runs) => Ok(runs[slot].clone()),
                Err(e) => Err(e.clone()),
            };
        }
    }
    (results, groups.len())
}

/// Results of one batch: per-request stats in request order, plus the
/// cache counters and aggregate throughput/latency views.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Per-request results, in request order (request `i` of the input
    /// slice is `runs[i]`, exactly as [`Runner::run_ir`] would produce it).
    pub runs: Vec<RunStats>,
    /// Requests that shared the workloads of an earlier request with the
    /// same annotated IR (requests minus groups).
    pub cache_hits: usize,
    /// Requests that started a new group — equivalently, the number of
    /// unique annotated IRs in the batch, each synthesized once.
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
        use cscnn_json::Value::{self, F64, U64};
        let count = |n| U64(to_count(n));
        Value::Obj(vec![
            ("requests".into(), count(self.requests())),
            ("unique_structures".into(), count(self.unique_structures())),
            ("cache_hits".into(), count(self.cache_hits)),
            ("cache_misses".into(), count(self.cache_misses)),
            ("total_cycles".into(), U64(self.total_cycles())),
            ("total_on_chip_pj".into(), F64(self.total_on_chip_pj())),
            ("makespan_s".into(), F64(self.makespan_s())),
            ("throughput_rps".into(), F64(self.throughput_rps())),
            ("p50_latency_s".into(), F64(self.p50_latency_s())),
            ("p95_latency_s".into(), F64(self.p95_latency_s())),
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
    /// also sizes `cscnn_tensor::run_jobs`; `cscnn_tensor::set_num_threads`
    /// does not reach this pool), else one worker per available CPU
    /// (falling back to 1 when parallelism cannot be queried). Results
    /// never depend on the worker count.
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

    /// An upper bound on the scoped worker threads [`BatchRunner::run_batch`]
    /// spawns for a batch of `requests` entries: `min(workers, requests)`,
    /// so small batches (or an empty one) cannot create idle threads. The
    /// pool runs one task per unique annotated IR, so it spawns
    /// `min(workers, unique IRs)`, which a batch of repeats keeps lower.
    pub fn planned_workers(&self, requests: usize) -> usize {
        self.workers.min(requests)
    }

    /// Simulates every request of a batch on one accelerator.
    ///
    /// Identical requests (same annotated IR) form one group, and each
    /// worker claims the next unclaimed group, simulating it once, one
    /// layer at a time, and giving every request of the group a copy of
    /// the stats. `stats.runs[i]` is bit-identical to
    /// `runner.run_ir(acc, &requests[i])`.
    ///
    /// # Errors
    ///
    /// The first failing request *by request index* (deterministic, not
    /// discovery order). Every node of a request is checked before any of
    /// its layers is simulated: [`SimError::MissingSparsity`] for unannotated
    /// weight nodes, [`SimError::DensityOutOfRange`] for a density that is
    /// NaN or outside `[0, 1]`, [`SimError::KernelTooLarge`] for a kernel of
    /// more than `u16::MAX` positions, [`SimError::BadGeometry`] for a layer
    /// whose geometry cannot run, [`SimError::WorkerPanicked`] naming the
    /// request's model when an accelerator model panics mid-simulation (a
    /// panic fails every request of its group). Every worker is joined
    /// before returning.
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
    fn group_keeps_chaining_state_per_accelerator() {
        // Three Deep-Compression accelerators share one group on a DAG with
        // skip edges; the 128 KiB global buffer changes which outputs stay
        // on chip, so the group must chain each accelerator on its own.
        let model = catalog::resnet18();
        let mut ir = catalog::resnet18_ir();
        assert!(!ir.edges.is_empty(), "ResNet-18 carries skip edges");
        let mc = ModelCompression::new(model, cscnn_models::CompressionScheme::DeepCompression);
        assert!(mc.profile.annotate(&mut ir));
        let scnn = CartesianAccelerator::scnn();
        let small_glb = CartesianAccelerator::scnn()
            .with_config(crate::ArchConfig {
                glb_bytes: 128 * 1024,
                ..crate::ArchConfig::paper_scnn()
            })
            .with_name("SCNN-128K");
        let sparten = crate::baselines::sparten();
        let jobs: Vec<Job<'_>> = vec![(&scnn, &ir), (&small_glb, &ir), (&sparten, &ir)];
        let runner = Runner::new(42);
        let (results, groups) = run_jobs(&runner, &jobs, 2);
        assert_eq!(groups, 1, "one annotated IR under one scheme");
        let runs: Vec<RunStats> = results
            .into_iter()
            .map(|r| r.expect("annotated IR"))
            .collect();
        for (&(acc, ir), run) in jobs.iter().zip(&runs) {
            let alone = runner.run_ir(acc, ir).expect("annotated IR");
            assert_eq!(format!("{run:?}"), format!("{alone:?}"), "{}", acc.name());
        }
        assert_ne!(
            format!("{:?}", runs[0].layers),
            format!("{:?}", runs[1].layers),
            "the small buffer changes on-chip chaining"
        );
    }

    #[test]
    fn repeated_accelerator_is_simulated_once_and_bad_nodes_fail_first() {
        use crate::interface::{Characteristics, LayerContext};
        use crate::report::LayerStats;
        /// CSCNN, counting its `simulate_layer` calls.
        struct Counting(CartesianAccelerator, AtomicUsize);
        impl Accelerator for Counting {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn scheme(&self) -> cscnn_models::CompressionScheme {
                self.0.scheme()
            }
            fn config(&self) -> crate::ArchConfig {
                self.0.config()
            }
            fn characteristics(&self) -> Characteristics {
                self.0.characteristics()
            }
            fn simulate_layer(&self, ctx: &LayerContext<'_>) -> LayerStats {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.simulate_layer(ctx)
            }
        }
        let counting = || Counting(CartesianAccelerator::cscnn(), AtomicUsize::new(0));
        let (acc, twin) = (counting(), counting());
        let calls = |acc: &Counting| acc.1.swap(0, Ordering::Relaxed);
        let ir = annotated_ir(&catalog::lenet5(), &acc.0);
        let runner = Runner::new(42);
        let alone = format!("{:?}", runner.run_ir(&acc, &ir).expect("annotated IR"));
        let layers = calls(&acc);
        assert!(layers > 0);

        // Eight requests on one accelerator object: one group, one run.
        let stats = BatchRunner::new(runner.clone())
            .with_workers(4)
            .run_batch(&acc, &vec![ir.clone(); 8])
            .expect("annotated batch");
        assert_eq!(calls(&acc), layers, "repeats are copied, not re-run");
        for run in &stats.runs {
            assert_eq!(format!("{run:?}"), alone);
        }

        // Two objects of one group are each simulated once.
        let jobs: Vec<Job<'_>> = vec![(&acc, &ir), (&twin, &ir), (&acc, &ir)];
        let (results, groups) = run_jobs(&runner, &jobs, 2);
        assert_eq!(groups, 1);
        assert_eq!((calls(&acc), calls(&twin)), (layers, layers));
        for result in results {
            assert_eq!(format!("{:?}", result.expect("annotated IR")), alone);
        }

        // A bad last node is reported before any layer is simulated.
        let mut bad = ir.clone();
        match bad.nodes.iter_mut().rev().find(|n| n.sparsity().is_some()) {
            Some(cscnn_ir::LayerNode::FullyConnected { outputs, .. }) => *outputs = 0,
            other => panic!("LeNet-5 ends in an FC layer, got {other:?}"),
        }
        let err = runner.run_ir(&acc, &bad).expect_err("zero outputs");
        assert!(matches!(err, SimError::BadGeometry { .. }), "{err:?}");
        let err = BatchRunner::new(runner.clone())
            .with_workers(2)
            .run_batch(&acc, &[ir.clone(), bad])
            .expect_err("zero outputs");
        assert!(matches!(err, SimError::BadGeometry { .. }), "{err:?}");
        assert_eq!(calls(&acc), layers, "only the good request ran");
    }

    #[test]
    fn impossible_geometry_is_a_typed_error_in_run_ir_and_run_batch() {
        // A node built by struct literal bypasses the artifact parser's
        // geometry check; synthesis must reject it rather than panic (which
        // `run_batch` would report as `WorkerPanicked`). LeNet-5's C3 is
        // 6→16 channels, 5×5 on an unpadded 14×14 input.
        use cscnn_ir::{ConvGeom, LayerNode};
        fn conv(node: &mut LayerNode) -> &mut ConvGeom {
            match node {
                LayerNode::Conv { geom, .. } => geom,
                other => panic!("expected a conv node, got {other:?}"),
            }
        }
        fn fc(node: &mut LayerNode) -> (&mut usize, &mut usize) {
            match node {
                LayerNode::FullyConnected {
                    inputs, outputs, ..
                } => (inputs, outputs),
                other => panic!("expected an FC node, got {other:?}"),
            }
        }
        let cases: [(&str, fn(&mut LayerNode), &str); 8] = [
            ("C3", |n| conv(n).r = 15, "r"),
            ("C3", |n| conv(n).s = 15, "r"),
            ("C3", |n| conv(n).stride = 0, "stride"),
            ("C3", |n| conv(n).groups = 0, "groups"),
            ("C3", |n| conv(n).groups = 4, "groups"), // divides k, not c
            ("C3", |n| conv(n).groups = 3, "groups"), // divides c, not k
            ("F5", |n| *fc(n).0 = 0, "inputs"),
            ("F6", |n| *fc(n).1 = 0, "outputs"),
        ];
        let acc = CartesianAccelerator::cscnn();
        let runner = Runner::new(42);
        let batch = BatchRunner::new(runner.clone()).with_workers(2);
        let good = annotated_ir(&catalog::lenet5(), &acc);
        for (layer, edit, field) in cases {
            let mut bad = good.clone();
            let node = bad
                .nodes
                .iter_mut()
                .find(|n| n.name() == Some(layer))
                .expect("LeNet-5 layer");
            edit(node);
            let from_run_ir = runner.run_ir(&acc, &bad).expect_err("bad geometry");
            let from_batch = batch
                .run_batch(&acc, &[good.clone(), bad])
                .expect_err("bad geometry");
            assert_eq!(from_run_ir, from_batch);
            let SimError::BadGeometry {
                layer: got_layer,
                field: got_field,
                ..
            } = &from_run_ir
            else {
                panic!("expected BadGeometry, got {from_run_ir}");
            };
            assert_eq!((got_layer.as_str(), *got_field), (layer, field));
            assert!(from_run_ir.to_string().contains(layer), "{from_run_ir}");
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
