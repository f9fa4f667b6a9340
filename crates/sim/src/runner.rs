//! Whole-network and suite simulation driver.

use cscnn_ir::ModelIr;
use cscnn_models::{lower, CompressionScheme, ModelCompression, ModelDesc};

use crate::batch::{run_jobs, Job};
use crate::dram::DramConfig;
use crate::energy::EnergyTable;
use crate::error::SimError;
use crate::interface::{Accelerator, LayerContext};
use crate::report::RunStats;
use crate::util;
use crate::workload::LayerWorkload;

/// Drives layer-by-layer simulation of whole networks across accelerators.
///
/// # Example
///
/// ```
/// use cscnn_sim::{CartesianAccelerator, Runner};
/// use cscnn_models::catalog;
///
/// let runner = Runner::new(42);
/// let stats = runner.run_model(&CartesianAccelerator::cscnn(), &catalog::lenet5());
/// assert_eq!(stats.layers.len(), catalog::lenet5().layers.len());
/// ```
#[derive(Clone, Debug)]
pub struct Runner {
    dram: DramConfig,
    energy: EnergyTable,
    seed: u64,
}

impl Runner {
    /// Creates a runner with default DRAM/energy models and a workload seed.
    pub fn new(seed: u64) -> Self {
        Runner {
            dram: DramConfig::default(),
            energy: EnergyTable::default(),
            seed,
        }
    }

    /// Overrides the DRAM model.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = dram;
        self
    }

    /// Simulates one model on one accelerator, layer by layer.
    ///
    /// Workload synthesis uses the accelerator's compression scheme
    /// (Table IV): CSCNN runs the CSCNN+Pruning model, sparse baselines run
    /// the Deep-Compression model, DCNN runs the dense model. The model is
    /// lowered to IR, annotated with the scheme's calibrated
    /// [`cscnn_models::SparsityProfile`] and simulated by
    /// [`Runner::run_ir`]; for an IR annotated with a *measured* profile,
    /// call `run_ir` directly. Layer inputs are considered on-chip when the
    /// previous layer's output fit in the global buffer.
    pub fn run_model(&self, acc: &dyn Accelerator, model: &ModelDesc) -> RunStats {
        self.run_ir(acc, &calibrated_ir(model, acc.scheme()))
            .expect("a lowered catalog model is a valid, fully annotated chain")
    }

    /// Simulates an annotated typed IR model (`Ir → LayerWorkload`
    /// lowering). Weight-bearing nodes must carry measured
    /// [`cscnn_ir::SparsityAnnotation`]s (see
    /// `cscnn::bridge::simulate_trained`); the other node kinds — including
    /// the `Add`/`Concat` joins of DAG-shaped IRs — are untimed. This is
    /// the one simulation path: [`Runner::run_model`] and
    /// [`Runner::run_suite`] lower to it. Workload seeding is keyed by
    /// layer *name* (not list position), so any valid topological
    /// reordering of a DAG's node list produces identical per-node results.
    ///
    /// # Errors
    ///
    /// [`SimError::BadTopology`] if the IR's graph fails
    /// [`ModelIr::validate`]; [`SimError::MissingSparsity`] naming the
    /// first unannotated weight-bearing node;
    /// [`SimError::DensityOutOfRange`] naming the first node whose
    /// annotated density is NaN or outside `[0, 1]`.
    pub fn run_ir(&self, acc: &dyn Accelerator, ir: &ModelIr) -> Result<RunStats, SimError> {
        validate_ir(ir)?;
        let centro = acc.scheme().uses_centrosymmetric();
        let workloads = self.ir_workloads(ir, centro)?;
        Ok(self.simulate_prepared(acc, ir, &workloads))
    }

    /// Lowers every node of an annotated IR to its workload (`None` for the
    /// nodes the simulator does not time), using exactly the per-layer
    /// seeding of [`Runner::run_ir`] — this is the synthesis half of
    /// `run_ir`, split out so [`crate::BatchRunner`]'s workload cache can
    /// share the result across requests (`docs/batching.md`). Seeds are
    /// keyed by the node's name (weightless nodes never consume a seed), so
    /// workloads are invariant under topological reordering of the list.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingSparsity`] or [`SimError::DensityOutOfRange`]
    /// naming the first weight-bearing node without a valid annotation.
    pub(crate) fn ir_workloads(
        &self,
        ir: &ModelIr,
        centro: bool,
    ) -> Result<Vec<Option<LayerWorkload>>, SimError> {
        let mut workloads = Vec::with_capacity(ir.nodes.len());
        for node in &ir.nodes {
            let seed = workload_seed(self.seed, &ir.name, node.name().unwrap_or(""));
            workloads.push(LayerWorkload::from_node(node, centro, seed)?);
        }
        Ok(workloads)
    }

    /// Simulates pre-synthesized workloads node by node — the timing half
    /// of [`Runner::run_ir`]. `None` entries (untimed nodes) are skipped in
    /// the reported layer list; a layer's input counts as on-chip when
    /// *every* graph predecessor produced an output that fit in the global
    /// buffer (untimed nodes pass their predecessors' status through). For
    /// an implicit linear chain this is previous-layer chaining.
    pub(crate) fn simulate_prepared(
        &self,
        acc: &dyn Accelerator,
        ir: &ModelIr,
        workloads: &[Option<LayerWorkload>],
    ) -> RunStats {
        debug_assert_eq!(ir.nodes.len(), workloads.len());
        let cfg = acc.config();
        let mut stats = RunStats {
            accelerator: acc.name().to_string(),
            model: ir.name.clone(),
            ..Default::default()
        };
        // on_chip[i]: whether node i's output is resident in the global
        // buffer for its consumers. Untimed nodes forward their input
        // status (false at a graph source — the model input streams from
        // DRAM).
        let mut on_chip = vec![false; workloads.len()];
        for (i, slot) in workloads.iter().enumerate() {
            let preds = ir.predecessors(i);
            let input_on_chip = !preds.is_empty() && preds.iter().all(|&p| on_chip[p]);
            match slot {
                Some(wl) => {
                    let out_bytes =
                        util::to_index(wl.layer.output_activations()) * cfg.word_bits / 8;
                    let output_fits = out_bytes <= cfg.glb_bytes;
                    let ctx = LayerContext {
                        cfg: &cfg,
                        dram: &self.dram,
                        energy: &self.energy,
                        workload: wl,
                        input_on_chip,
                        output_fits_on_chip: output_fits,
                    };
                    stats.layers.push(acc.simulate_layer(&ctx));
                    on_chip[i] = output_fits;
                }
                None => on_chip[i] = input_on_chip,
            }
        }
        stats
    }

    /// Simulates every (accelerator, model) pair, exactly as
    /// [`Runner::run_model`] would, on the worker pool behind
    /// [`crate::BatchRunner`] (sized by [`util::configured_workers`]).
    /// One workload cache spans the whole call, so a layer is synthesized
    /// once per compression scheme, not once per accelerator. Results are
    /// ordered `[model][accelerator]`.
    ///
    /// # Errors
    ///
    /// The first failing (model, accelerator) pair in that order:
    /// [`SimError::WorkerPanicked`] naming the model when an accelerator
    /// model panics. Every worker is joined before returning, so one
    /// poisoned model cannot abort the others mid-simulation.
    pub fn run_suite(
        &self,
        accelerators: &[Box<dyn Accelerator>],
        models: &[ModelDesc],
    ) -> Result<Vec<Vec<RunStats>>, SimError> {
        let irs: Vec<ModelIr> = models
            .iter()
            .flat_map(|model| {
                accelerators
                    .iter()
                    .map(|acc| calibrated_ir(model, acc.scheme()))
            })
            .collect();
        let jobs: Vec<Job<'_>> = irs
            .iter()
            .zip(accelerators.iter().cycle())
            .map(|(ir, acc)| (acc.as_ref(), ir))
            .collect();
        let (results, _) = run_jobs(self, &jobs, util::configured_workers());
        let mut runs = results.into_iter();
        models
            .iter()
            .map(|_| runs.by_ref().take(accelerators.len()).collect())
            .collect()
    }
}

/// Lowers `model` to IR annotated with `scheme`'s calibrated profile — the
/// input [`Runner::run_model`] and [`Runner::run_suite`] simulate.
fn calibrated_ir(model: &ModelDesc, scheme: CompressionScheme) -> ModelIr {
    let mut ir = lower::to_ir(model);
    let annotated = ModelCompression::new(model.clone(), scheme)
        .profile
        .annotate(&mut ir);
    debug_assert!(annotated, "a calibrated profile has one entry per layer");
    ir
}

/// Validates an IR's graph topology, wrapping failures in
/// [`SimError::BadTopology`]. Shared by [`Runner::run_ir`] and the batch
/// worker path so batched and sequential simulation reject exactly the
/// same inputs.
pub(crate) fn validate_ir(ir: &ModelIr) -> Result<(), SimError> {
    ir.validate().map_err(|error| SimError::BadTopology {
        model: ir.name.clone(),
        error,
    })
}

/// Derives a layer's workload seed from the runner seed and the *names* of
/// the model and layer (FNV-1a with length terminators). Name-keyed seeds —
/// rather than position-keyed — make sampled workloads invariant under
/// `ModelDesc ↔ ModelIr` lowering and under topological reordering of a
/// DAG's node list; catalog layer names are unique within a model.
fn workload_seed(base: u64, model: &str, layer: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for part in [model, layer] {
        for b in part.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        for byte in util::to_count(part.len()).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }
    base ^ h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;
    use crate::CartesianAccelerator;
    use cscnn_models::catalog;

    #[test]
    fn run_is_deterministic() {
        let runner = Runner::new(1);
        let a = runner.run_model(&CartesianAccelerator::cscnn(), &catalog::lenet5());
        let b = runner.run_model(&CartesianAccelerator::cscnn(), &catalog::lenet5());
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(a.total_on_chip_pj(), b.total_on_chip_pj());
    }

    #[test]
    fn cscnn_beats_dcnn_and_scnn_on_lenet() {
        let runner = Runner::new(2);
        let model = catalog::lenet5();
        let dcnn = runner.run_model(&baselines::dcnn(), &model);
        let scnn = runner.run_model(&CartesianAccelerator::scnn(), &model);
        let cscnn = runner.run_model(&CartesianAccelerator::cscnn(), &model);
        assert!(cscnn.speedup_over(&dcnn) > 1.0, "vs DCNN");
        assert!(cscnn.speedup_over(&scnn) > 1.0, "vs SCNN");
    }

    /// `(total_cycles, total_on_chip_pj bits)` at seed 42 for each model ×
    /// `evaluation_accelerators()`, recorded from the per-layer `ModelDesc`
    /// loop that `benchmark/src/redrive.rs` keeps as its reference.
    const GOLDEN: [(&str, [(u64, u64); 9]); 4] = [
        (
            "LeNet-5",
            [
                (8561, 0x41261768b7c0ad6a),
                (10146, 0x4128393b97e988cf),
                (4346, 0x411df973204da39d),
                (7845, 0x412fe91b281bfab4),
                (7409, 0x411a02bde34d489e),
                (4386, 0x4118506209ef5d73),
                (3844, 0x412443ec7ad2ce5a),
                (4165, 0x411ef7e18fbdf6cf),
                (2870, 0x411d281f8393319a),
            ],
        ),
        (
            "ConvNet",
            [
                (209812, 0x4173a23038a7cd7c),
                (176879, 0x417464c74089ae7a),
                (64844, 0x4164bf42a70b55bd),
                (103021, 0x416b555b9961b586),
                (48383, 0x4160ad4a37855b17),
                (56591, 0x415f0ccfc5381d05),
                (49610, 0x416a88dad22a2124),
                (53744, 0x41640aec6b080f30),
                (28451, 0x4152e115be45ca1d),
            ],
        ),
        (
            "AlexNet",
            [
                (13313674, 0x41d1e95008c5bd5f),
                (10319446, 0x41d270c325a84d72),
                (6596169, 0x41d02dcda33a9463),
                (8143369, 0x41d121a718eddf4e),
                (4918126, 0x41c9dfd9ca6a6de4),
                (5754095, 0x41c80b50c966adb7),
                (5044133, 0x41d4c4cdb05aa535),
                (5464479, 0x41cf38eb52e7336c),
                (4635061, 0x41c537d203728c5a),
            ],
        ),
        (
            "ShuffleNet-V2",
            [
                (3011919, 0x41add214804c1094),
                (1934505, 0x41aa5ca90586f202),
                (1445784, 0x41ab0c55a847a300),
                (989013, 0x41a12afe465aadaa),
                (955300, 0x41a31c533ae2492d),
                (1107314, 0x41a1d76cc4832763),
                (970696, 0x41adf8d7a1e4a30a),
                (1051578, 0x41a6d1b079a317c8),
                (691973, 0x41987dcc47ae6225),
            ],
        ),
    ];

    #[test]
    fn run_model_and_run_suite_match_golden_figures() {
        let runner = Runner::new(42);
        let accs = baselines::evaluation_accelerators();
        let models = vec![
            catalog::lenet5(),
            catalog::convnet(),
            catalog::alexnet(),
            catalog::shufflenet_v2(),
        ];
        let suite = runner.run_suite(&accs, &models).expect("no worker panics");
        for ((model, row), (name, golden)) in models.iter().zip(&suite).zip(GOLDEN) {
            assert_eq!(model.name, name);
            for ((acc, run), (cycles, pj_bits)) in accs.iter().zip(row).zip(golden) {
                let single = runner.run_model(acc.as_ref(), model);
                for stats in [run, &single] {
                    let at = format!("{name} on {}", acc.name());
                    assert_eq!(stats.model, name, "{at}");
                    assert_eq!(stats.accelerator, acc.name(), "{at}");
                    assert_eq!(stats.total_cycles(), cycles, "{at}");
                    assert_eq!(stats.total_on_chip_pj().to_bits(), pj_bits, "{at}");
                }
            }
        }
    }

    #[test]
    fn parallel_suite_equals_sequential_runs() {
        // The threaded suite must produce bit-identical results to
        // sequential simulation (no shared mutable state, no ordering
        // effects).
        let runner = Runner::new(9);
        let accs = baselines::evaluation_accelerators();
        let models = vec![catalog::lenet5(), catalog::convnet()];
        let parallel = runner.run_suite(&accs, &models).expect("no worker panics");
        for (mi, model) in models.iter().enumerate() {
            for (ai, acc) in accs.iter().enumerate() {
                let seq = runner.run_model(acc.as_ref(), model);
                assert_eq!(seq.total_cycles(), parallel[mi][ai].total_cycles());
                assert_eq!(seq.total_on_chip_pj(), parallel[mi][ai].total_on_chip_pj());
            }
        }
    }

    #[test]
    fn run_ir_matches_run_model_bit_for_bit() {
        use cscnn_ir::SparsityAnnotation;
        // Annotate the lowered IR with exactly the densities the
        // ModelDesc path calibrates, then both paths must agree.
        let model = catalog::lenet5();
        let acc = CartesianAccelerator::cscnn();
        let mc = cscnn_models::ModelCompression::new(model.clone(), acc.scheme());
        let mut ir = cscnn_models::lower::to_ir(&model);
        for (i, node) in ir.weight_nodes_mut().enumerate() {
            node.set_sparsity(SparsityAnnotation {
                weight_density: mc.profile.weight_density[i],
                activation_density: mc.profile.activation_density[i],
            });
        }
        let runner = Runner::new(42);
        let from_desc = runner.run_model(&acc, &model);
        let from_ir = runner.run_ir(&acc, &ir).expect("annotated IR simulates");
        assert_eq!(from_desc.layers.len(), from_ir.layers.len());
        assert_eq!(from_desc.total_cycles(), from_ir.total_cycles());
        assert_eq!(from_desc.total_on_chip_pj(), from_ir.total_on_chip_pj());
        assert_eq!(from_desc.model, from_ir.model);
    }

    #[test]
    fn run_ir_rejects_malformed_topologies() {
        use cscnn_ir::IrEdge;
        let mut ir = cscnn_models::lower::to_ir(&catalog::lenet5());
        ir.edges.push(IrEdge::new(0, ir.nodes.len() + 3));
        let runner = Runner::new(42);
        let err = runner
            .run_ir(&CartesianAccelerator::cscnn(), &ir)
            .expect_err("dangling edge");
        assert!(matches!(err, SimError::BadTopology { .. }), "{err}");
        assert!(err.to_string().contains("LeNet-5"));
    }

    #[test]
    fn run_ir_reports_missing_annotations() {
        let ir = cscnn_models::lower::to_ir(&catalog::lenet5());
        let runner = Runner::new(42);
        let err = runner
            .run_ir(&CartesianAccelerator::cscnn(), &ir)
            .expect_err("unannotated IR");
        assert!(matches!(err, SimError::MissingSparsity { .. }));
    }

    #[test]
    fn suite_surfaces_worker_panics_as_typed_errors() {
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
        let runner = Runner::new(4);
        let accs: Vec<Box<dyn Accelerator>> = vec![Box::new(Exploding)];
        let models = vec![catalog::lenet5()];
        let err = runner.run_suite(&accs, &models).expect_err("worker panics");
        assert_eq!(
            err,
            SimError::WorkerPanicked {
                model: "LeNet-5".into()
            }
        );
        assert!(err.to_string().contains("LeNet-5"));
    }

    #[test]
    fn custom_dram_model_propagates() {
        let slow = crate::dram::DramConfig {
            peak_bytes_per_s: 1e9, // 12.8x slower than default
            ..Default::default()
        };
        let fast_runner = Runner::new(10);
        let slow_runner = Runner::new(10).with_dram(slow);
        let model = catalog::alexnet();
        let acc = CartesianAccelerator::cscnn();
        let fast = fast_runner.run_model(&acc, &model);
        let slow = slow_runner.run_model(&acc, &model);
        assert!(slow.total_time_s() > fast.total_time_s());
        // Compute cycles are DRAM-independent.
        assert_eq!(slow.total_cycles(), fast.total_cycles());
    }

    #[test]
    fn suite_shape_is_models_by_accelerators() {
        let runner = Runner::new(3);
        let accs = baselines::evaluation_accelerators();
        let models = vec![catalog::lenet5(), catalog::convnet()];
        let results = runner.run_suite(&accs, &models).expect("no worker panics");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].len(), accs.len());
        assert_eq!(results[0][0].accelerator, "DCNN");
        assert_eq!(results[1][8].accelerator, "CSCNN");
    }

    #[test]
    fn suite_edge_shapes() {
        let runner = Runner::new(3);
        let models = vec![catalog::lenet5(), catalog::convnet()];
        let rows = runner.run_suite(&[], &models).expect("no accelerators");
        assert_eq!(rows.len(), models.len());
        assert!(rows.iter().all(Vec::is_empty));
        let none = runner
            .run_suite(&baselines::evaluation_accelerators(), &[])
            .expect("no models");
        assert!(none.is_empty());
    }
}
