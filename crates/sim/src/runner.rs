//! Whole-network and suite simulation driver.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cscnn_ir::{ModelIr, SparsityAnnotation};
use cscnn_models::{lower, CompressionScheme, LayerDesc, ModelCompression, ModelDesc};

use crate::batch::{run_jobs, Job};
use crate::dram::DramConfig;
use crate::energy::EnergyTable;
use crate::error::SimError;
use crate::interface::{Accelerator, LayerContext};
use crate::report::{LayerStats, RunStats};
use crate::util;
use crate::workload::{LayerWorkload, WorkloadSpec};
use crate::ArchConfig;

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
    seed: u64,
}

impl Runner {
    /// Creates a runner with a workload seed. Every run simulates against
    /// the default DRAM and energy models.
    pub fn new(seed: u64) -> Self {
        Runner { seed }
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
    /// The IR is checked and its on-chip chain planned first
    /// (`Variant::new`); then each node runs, in node order on the calling
    /// thread, through the per-layer routine of the job pool
    /// (`docs/batching.md`): its workload is synthesized (seeded by name),
    /// simulated and dropped before the next node. Every layer simulates
    /// against the default [`DramConfig`] and [`EnergyTable`]; untimed nodes
    /// are left out of the layer list. A panicking accelerator panics here.
    ///
    /// # Errors
    ///
    /// [`SimError::BadTopology`] if the IR's graph fails
    /// [`ModelIr::validate`]; [`SimError::MissingSparsity`] naming the
    /// first unannotated weight-bearing node;
    /// [`SimError::DensityOutOfRange`] naming the first node whose
    /// annotated density is NaN or outside `[0, 1]`;
    /// [`SimError::KernelTooLarge`] for a kernel of more than `u16::MAX`
    /// positions; [`SimError::BadGeometry`] naming the first layer whose
    /// geometry cannot run. All are checked before any layer is simulated.
    pub fn run_ir(&self, acc: &dyn Accelerator, ir: &ModelIr) -> Result<RunStats, SimError> {
        let accs = [acc];
        let variant = Variant::new(ir, acc.scheme().uses_centrosymmetric(), &accs)?;
        let mut run = variant.empty_runs().swap_remove(0);
        for node in 0..ir.nodes.len() {
            for result in self.run_layer(&[&variant], node) {
                let layer = result.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                run.layers.extend(layer);
            }
        }
        Ok(run)
    }

    /// Runs node `node` of every variant in `variants`, which must share
    /// one model structure and model name (and so the node's geometry and
    /// workload seed): the node's workloads are synthesized jointly
    /// ([`LayerWorkload::synthesize_each`]), each simulated on its
    /// variant's accelerators as soon as its draw plan is done, then
    /// dropped. `result[v][j]` is the layer of `variants[v]`'s accelerator
    /// `j` (no layer for an untimed node), or the panic one of the
    /// variant's accelerators raised: a panic fails its own variant only.
    pub(crate) fn run_layer(
        &self,
        variants: &[&Variant<'_>],
        node: usize,
    ) -> Vec<std::thread::Result<Vec<LayerStats>>> {
        let Some(first) = variants.first() else {
            return Vec::new();
        };
        let Some((layer, _)) = &first.layers[node] else {
            return variants.iter().map(|_| Ok(Vec::new())).collect();
        };
        let specs: Vec<WorkloadSpec> = variants.iter().map(|v| v.spec(node)).collect();
        let name = first.ir.nodes[node].name().unwrap_or("");
        let seed = workload_seed(self.seed, &first.ir.name, name);
        let (dram, energy) = (DramConfig::default(), EnergyTable::default());
        let mut layers: Vec<Option<std::thread::Result<Vec<LayerStats>>>> =
            variants.iter().map(|_| None).collect();
        LayerWorkload::synthesize_each(layer, &specs, seed, |v, workload| {
            layers[v] = Some(catch_unwind(AssertUnwindSafe(|| {
                variants[v].simulate(node, &workload, &dram, &energy)
            })));
        });
        let layers = layers.into_iter();
        layers
            .map(|layer| layer.expect("every variant is synthesized"))
            .collect()
    }

    /// Simulates every (accelerator, model) pair, exactly as
    /// [`Runner::run_model`] would, on the job pool behind
    /// [`crate::BatchRunner`] (sized by [`util::configured_workers`]).
    /// Each model is calibrated once per compression scheme, and the
    /// accelerators sharing a scheme share its annotated IR. The pool's
    /// unit of work is one layer of one model with every scheme that runs
    /// it: the layer is synthesized once per scheme (once in all for the
    /// schemes whose draws coincide), simulated on every accelerator and
    /// freed, and the largest layers are claimed first. Results are
    /// ordered `[model][accelerator]`.
    ///
    /// # Errors
    ///
    /// The first failing (model, accelerator) pair in that order:
    /// [`SimError::WorkerPanicked`] naming the model when an accelerator
    /// model panics (failing every accelerator that runs the model under
    /// the same scheme). Every worker is joined before returning, so one
    /// poisoned model cannot abort the others mid-simulation.
    pub fn run_suite(
        &self,
        accelerators: &[Box<dyn Accelerator>],
        models: &[ModelDesc],
    ) -> Result<Vec<Vec<RunStats>>, SimError> {
        let mut schemes: Vec<CompressionScheme> = Vec::new();
        for acc in accelerators {
            if !schemes.contains(&acc.scheme()) {
                schemes.push(acc.scheme());
            }
        }
        let irs: Vec<Vec<ModelIr>> = models
            .iter()
            .map(|model| {
                let irs = schemes.iter().map(|&s| calibrated_ir(model, s));
                irs.collect()
            })
            .collect();
        let jobs: Vec<Job<'_>> = irs
            .iter()
            .flat_map(|irs| {
                accelerators.iter().map(|acc| {
                    let scheme = schemes.iter().position(|&s| s == acc.scheme());
                    (acc.as_ref(), &irs[scheme.unwrap_or(0)])
                })
            })
            .collect();
        let (results, _) = run_jobs(self, &jobs, util::configured_workers());

        let mut runs = results.into_iter();
        models
            .iter()
            .map(|_| runs.by_ref().take(accelerators.len()).collect())
            .collect()
    }
}

/// One annotated IR under one centrosymmetric flag, with the distinct
/// accelerators that run it — a *variant* of its model structure. Built by
/// [`Variant::new`], which checks every node and plans each accelerator's
/// on-chip chain before any layer is simulated, so the variant's layers
/// are independent units of work.
pub(crate) struct Variant<'a> {
    pub(crate) ir: &'a ModelIr,
    centro: bool,
    accs: &'a [&'a dyn Accelerator],
    /// Per node: the lowered layer and its annotation, `None` when untimed.
    layers: Vec<Option<(LayerDesc, SparsityAnnotation)>>,
    /// Per accelerator: its configuration and, per node, whether the
    /// node's input is on chip and whether its output fits on chip.
    chains: Vec<(ArchConfig, Vec<(bool, bool)>)>,
}

impl<'a> Variant<'a> {
    /// Checks `ir` (its topology, then every node) and plans the on-chip
    /// chain of each of `accs`.
    ///
    /// A layer's input is on chip when *every* graph predecessor's output
    /// fit in the global buffer (untimed nodes pass their status through;
    /// for a linear chain this is previous-layer chaining, and a graph
    /// source streams its input from DRAM). Whether an output fits depends
    /// on the layer's geometry and the accelerator's configuration alone,
    /// never on a simulated result, so the chain is known before any layer
    /// runs. It is kept per accelerator because configurations differ.
    ///
    /// # Errors
    ///
    /// The errors of [`Runner::run_ir`].
    pub(crate) fn new(
        ir: &'a ModelIr,
        centro: bool,
        accs: &'a [&'a dyn Accelerator],
    ) -> Result<Self, SimError> {
        ir.validate().map_err(|error| SimError::BadTopology {
            model: ir.name.clone(),
            error,
        })?;
        let layers = ir
            .nodes
            .iter()
            .map(LayerWorkload::check_node)
            .collect::<Result<Vec<_>, _>>()?;
        let preds: Vec<Vec<usize>> = (0..ir.nodes.len()).map(|i| ir.predecessors(i)).collect();
        let chains = accs
            .iter()
            .map(|acc| {
                let cfg = acc.config();
                let mut on_chip = vec![false; layers.len()];
                let chain = layers
                    .iter()
                    .zip(&preds)
                    .enumerate()
                    .map(|(i, (layer, preds))| {
                        let input = !preds.is_empty() && preds.iter().all(|&p| on_chip[p]);
                        on_chip[i] = match layer {
                            Some((layer, _)) => {
                                let out_bytes =
                                    util::to_index(layer.output_activations()) * cfg.word_bits / 8;
                                out_bytes <= cfg.glb_bytes
                            }
                            None => input,
                        };
                        (input, on_chip[i])
                    })
                    .collect();
                (cfg, chain)
            })
            .collect();
        Ok(Variant {
            ir,
            centro,
            accs,
            layers,
            chains,
        })
    }

    /// The synthesis inputs of timed node `node`.
    fn spec(&self, node: usize) -> WorkloadSpec {
        let (_, ann) = self.layers[node]
            .as_ref()
            .expect("variants of one structure time the same nodes");
        WorkloadSpec {
            weight_density: ann.weight_density,
            act_density: ann.activation_density,
            centro: self.centro,
        }
    }

    /// An estimate of the work node `node` costs this variant, `None` when
    /// the node is untimed: the layer's stored weight positions (the most
    /// draws its synthesis can take) plus its input activations, once per
    /// accelerator. Only the pool's claim order reads it.
    pub(crate) fn work(&self, node: usize) -> Option<u64> {
        self.layers[node].as_ref().map(|(layer, _)| {
            let positions = layer.geom.weights() + layer.geom.input_activations();
            positions * util::to_count(self.accs.len())
        })
    }

    /// One empty [`RunStats`] per accelerator, to collect the layers in.
    pub(crate) fn empty_runs(&self) -> Vec<RunStats> {
        self.accs
            .iter()
            .map(|acc| RunStats {
                accelerator: acc.name().to_string(),
                model: self.ir.name.clone(),
                ..Default::default()
            })
            .collect()
    }

    /// Simulates timed node `node`'s workload on every accelerator.
    fn simulate(
        &self,
        node: usize,
        workload: &LayerWorkload,
        dram: &DramConfig,
        energy: &EnergyTable,
    ) -> Vec<LayerStats> {
        self.accs
            .iter()
            .zip(&self.chains)
            .map(|(acc, (cfg, chain))| {
                let (input_on_chip, output_fits_on_chip) = chain[node];
                acc.simulate_layer(&LayerContext {
                    cfg,
                    dram,
                    energy,
                    workload,
                    input_on_chip,
                    output_fits_on_chip,
                })
            })
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

    /// `(total_cycles, total_on_chip_pj bits)` at seed 42 for MobileNetV1
    /// (13 depthwise layers up to 1024 channels wide) on SCNN and CSCNN.
    const GOLDEN_MOBILENET_V1: [(u64, u64); 2] =
        [(2956881, 0x41ba5ef333bcfe17), (2414725, 0x41b5140251050deb)];

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

        let accs: Vec<Box<dyn Accelerator>> = vec![
            Box::new(CartesianAccelerator::scnn()),
            Box::new(CartesianAccelerator::cscnn()),
        ];
        let models = vec![catalog::mobilenet_v1()];
        let suite = runner.run_suite(&accs, &models).expect("no worker panics");
        for (i, (acc, run)) in accs.iter().zip(&suite[0]).enumerate() {
            let (cycles, pj_bits) = GOLDEN_MOBILENET_V1[i];
            let single = runner.run_model(acc.as_ref(), &models[0]);
            for stats in [run, &single] {
                let at = format!("MobileNetV1 on accelerator {i} ({})", acc.name());
                assert_eq!(stats.total_cycles(), cycles, "{at}");
                assert_eq!(stats.total_on_chip_pj().to_bits(), pj_bits, "{at}");
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
    fn join_input_is_on_chip_only_when_every_branch_fits() {
        use cscnn_ir::{IrBuilder, LayerNode, SparsityAnnotation};
        // CSCNN's 1 MiB global buffer holds 512 Ki 16-bit activations: the
        // wide branch's 4096·16·16 outputs do not fit, the narrow one's do.
        let mut b = IrBuilder::new("fork");
        let stem = b.push(LayerNode::conv("stem", 3, 8, 3, 3, 16, 16, 1, 1));
        let wide = LayerNode::conv("wide", 8, 4096, 1, 1, 16, 16, 1, 0);
        let wide = b.push_after(wide, &[stem]);
        let narrow = LayerNode::conv("narrow", 8, 8, 3, 3, 16, 16, 1, 1);
        let narrow = b.push_after(narrow, &[stem]);
        let join = b.push_after(LayerNode::add("join"), &[wide, narrow]);
        let tail = LayerNode::conv("tail", 8, 8, 3, 3, 16, 16, 1, 1);
        let tail = b.push_after(tail, &[join]);
        let mut ir = b.finish().expect("valid fork");
        for node in ir.weight_nodes_mut() {
            node.set_sparsity(SparsityAnnotation {
                weight_density: 0.5,
                activation_density: 0.5,
            });
        }
        let acc = CartesianAccelerator::cscnn();
        let accs: [&dyn Accelerator; 1] = [&acc];
        let variant = Variant::new(&ir, true, &accs).expect("annotated fork");
        let chain = &variant.chains[0].1;
        assert_eq!(chain[stem], (false, true), "a source streams its input");
        assert_eq!(chain[wide], (true, false));
        assert_eq!(chain[narrow], (true, true));
        assert_eq!(chain[join], (false, false), "one branch went to DRAM");
        assert_eq!(chain[tail], (false, true));
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
