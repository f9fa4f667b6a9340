//! The benchmark's own copies of the simulator's driver loops, with a span
//! around every call into a layer.
//!
//! `Runner` times nothing, so the traced run re-drives its loops from the
//! public layer functions: `ModelCompression` (profiles),
//! `LayerWorkload::synthesize` / `from_node`, `tiling::plan` and
//! `Accelerator::simulate_layer`. The copies must reproduce the library
//! bit for bit; the workloads check their results against
//! `Runner::run_suite`, `run_ir` and `BatchRunner::run_batch`, which also
//! guards the copy of the name-keyed seed derivation below.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Mutex;

use cscnn::ir::ModelIr;
use cscnn::models::{LayerDesc, LayerKind, ModelCompression, ModelDesc, SparsityProfile};
use cscnn::sim::dram::DramConfig;
use cscnn::sim::energy::EnergyTable;
use cscnn::sim::tiling::{self, TilingStrategy};
use cscnn::sim::util::to_index;
use cscnn::sim::workload::LayerWorkload;
use cscnn::sim::{
    Accelerator, ArchConfig, CartesianAccelerator, LayerContext, LayerStats, RunStats, SimError,
};

use crate::trace::Tracer;

/// Copy of the runner's per-layer seed: FNV-1a over the model and layer
/// names, each followed by its length, xor the runner seed.
pub fn workload_seed(base: u64, model: &str, layer: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in [model, layer] {
        for b in part.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for byte in (part.len() as u64).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    base ^ h
}

/// The tiling strategy of an accelerator that plans tiles (the two
/// Cartesian-product designs), found by name since the suite holds them
/// as `dyn Accelerator`.
fn cartesian_tiling(name: &str) -> Option<TilingStrategy> {
    match name {
        "SCNN" => Some(CartesianAccelerator::scnn().tiling()),
        "CSCNN" => Some(CartesianAccelerator::cscnn().tiling()),
        _ => None,
    }
}

/// Identity of one synthesized workload: (model, layer, weight density
/// bits, activation density bits, centrosymmetric storage).
type SynthKey = (String, String, u64, u64, bool);

/// A re-drive: the runner's state plus the tracer its spans go to.
pub struct Redrive<'a> {
    pub tracer: &'a Tracer,
    seed: u64,
    dram: DramConfig,
    energy: EnergyTable,
    synthesized: Mutex<HashSet<SynthKey>>,
}

impl<'a> Redrive<'a> {
    /// Mirrors `Runner::new(seed)`: default DRAM and energy models.
    pub fn new(tracer: &'a Tracer, seed: u64) -> Self {
        Redrive {
            tracer,
            seed,
            dram: DramConfig::default(),
            energy: EnergyTable::default(),
            synthesized: Mutex::new(HashSet::new()),
        }
    }

    /// Distinct workloads synthesized so far; the other
    /// `workload.synthesize` calls repeated one of them.
    pub fn unique_syntheses(&self) -> usize {
        self.synthesized
            .lock()
            .expect("synthesis log poisoned by a panicking thread")
            .len()
    }

    fn note(&self, model: &str, wl: &LayerWorkload) {
        self.synthesized
            .lock()
            .expect("synthesis log poisoned by a panicking thread")
            .insert((
                model.to_string(),
                wl.layer.name.clone(),
                wl.weight_density.to_bits(),
                wl.act_density.to_bits(),
                wl.centro,
            ));
    }

    /// One layer on one accelerator. For the Cartesian designs an extra
    /// `tiling::plan` call, identical to the one inside `simulate_layer`,
    /// times the planning step on its own.
    fn simulate(
        &self,
        acc: &dyn Accelerator,
        cfg: &ArchConfig,
        wl: &LayerWorkload,
        input_on_chip: bool,
        request: u64,
    ) -> (LayerStats, bool) {
        if let Some(strategy) = cartesian_tiling(acc.name()) {
            if wl.layer.kind != LayerKind::FullyConnected {
                self.tracer.time("tiling.plan", Some(request), || {
                    black_box(tiling::plan(cfg, wl, strategy, true))
                });
            }
        }
        let out_bytes = to_index(wl.layer.output_activations()) * cfg.word_bits / 8;
        let output_fits = out_bytes <= cfg.glb_bytes;
        let ctx = LayerContext {
            cfg,
            dram: &self.dram,
            energy: &self.energy,
            workload: wl,
            input_on_chip,
            output_fits_on_chip: output_fits,
        };
        let stats = self
            .tracer
            .time("accel.simulate", Some(request), || acc.simulate_layer(&ctx));
        (stats, output_fits)
    }

    /// `Runner::run_model`: the scheme's profile, then layer by layer
    /// synthesize and simulate, chaining on-chip outputs.
    pub fn run_model(&self, acc: &dyn Accelerator, model: &ModelDesc, request: u64) -> RunStats {
        let _span = self.tracer.span("runner.run_model", Some(request));
        let profile = self.tracer.time("models.profile", Some(request), || {
            ModelCompression::new(model.clone(), acc.scheme()).profile
        });
        let cfg = acc.config();
        let centro = acc.scheme().uses_centrosymmetric();
        let mut stats = RunStats {
            accelerator: acc.name().to_string(),
            model: model.name.clone(),
            ..Default::default()
        };
        let mut input_on_chip = false;
        for (i, layer) in model.layers.iter().enumerate() {
            let wl = self.synthesize(layer, &profile, i, centro, &model.name, request);
            let (layer_stats, output_fits) = self.simulate(acc, &cfg, &wl, input_on_chip, request);
            stats.layers.push(layer_stats);
            input_on_chip = output_fits;
        }
        stats
    }

    fn synthesize(
        &self,
        layer: &LayerDesc,
        profile: &SparsityProfile,
        i: usize,
        centro: bool,
        model: &str,
        request: u64,
    ) -> LayerWorkload {
        let seed = workload_seed(self.seed, model, &layer.name);
        let wl = self.tracer.time("workload.synthesize", Some(request), || {
            LayerWorkload::synthesize(
                layer,
                profile.weight_density[i],
                profile.activation_density[i],
                centro,
                seed,
            )
        });
        self.note(model, &wl);
        wl
    }

    /// `Runner::run_ir`: validate, synthesize every node, simulate.
    pub fn run_ir(
        &self,
        acc: &dyn Accelerator,
        ir: &ModelIr,
        request: u64,
    ) -> Result<RunStats, SimError> {
        self.validate(ir, request)?;
        let workloads = self.ir_workloads(ir, acc.scheme().uses_centrosymmetric(), request)?;
        Ok(self.simulate_prepared(acc, ir, &workloads, request))
    }

    /// `ModelIr::validate`, wrapped as the runner wraps it.
    pub fn validate(&self, ir: &ModelIr, request: u64) -> Result<(), SimError> {
        self.tracer
            .time("ir.validate", Some(request), || ir.validate())
            .map_err(|error| SimError::BadTopology {
                model: ir.name.clone(),
                error,
            })
    }

    /// The synthesis half of `run_ir`: one workload per timed node
    /// (`None` for the nodes the simulator does not time).
    pub fn ir_workloads(
        &self,
        ir: &ModelIr,
        centro: bool,
        request: u64,
    ) -> Result<Vec<Option<LayerWorkload>>, SimError> {
        let mut workloads = Vec::with_capacity(ir.nodes.len());
        for node in &ir.nodes {
            let seed = workload_seed(self.seed, &ir.name, node.name().unwrap_or(""));
            let wl = if node.is_weight_bearing() {
                self.tracer.time("workload.synthesize", Some(request), || {
                    LayerWorkload::from_node(node, centro, seed)
                })?
            } else {
                LayerWorkload::from_node(node, centro, seed)?
            };
            if let Some(wl) = &wl {
                self.note(&ir.name, wl);
            }
            workloads.push(wl);
        }
        Ok(workloads)
    }

    /// The timing half of `run_ir`: a node's input is on chip when every
    /// predecessor's output fit in the global buffer; untimed nodes pass
    /// their inputs' status through.
    pub fn simulate_prepared(
        &self,
        acc: &dyn Accelerator,
        ir: &ModelIr,
        workloads: &[Option<LayerWorkload>],
        request: u64,
    ) -> RunStats {
        let cfg = acc.config();
        let mut stats = RunStats {
            accelerator: acc.name().to_string(),
            model: ir.name.clone(),
            ..Default::default()
        };
        let mut on_chip = vec![false; workloads.len()];
        for (i, slot) in workloads.iter().enumerate() {
            let preds = ir.predecessors(i);
            let input_on_chip = !preds.is_empty() && preds.iter().all(|&p| on_chip[p]);
            match slot {
                Some(wl) => {
                    let (layer_stats, output_fits) =
                        self.simulate(acc, &cfg, wl, input_on_chip, request);
                    stats.layers.push(layer_stats);
                    on_chip[i] = output_fits;
                }
                None => on_chip[i] = input_on_chip,
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::SimDigest;
    use cscnn::models::catalog;
    use cscnn::sim::{baselines, Runner};

    #[test]
    fn redriven_loops_match_the_runner_bit_for_bit() {
        let tracer = Tracer::new(true);
        let redrive = Redrive::new(&tracer, 11);
        let runner = Runner::new(11);
        let model = catalog::lenet5();
        for (i, acc) in baselines::evaluation_accelerators().iter().enumerate() {
            let ours = redrive.run_model(acc.as_ref(), &model, i as u64);
            let theirs = runner.run_model(acc.as_ref(), &model);
            assert_eq!(
                SimDigest::of(&ours),
                SimDigest::of(&theirs),
                "{}",
                acc.name()
            );
        }
        // SCNN and CSCNN each plan LeNet-5's two conv layers.
        assert_eq!(crate::trace::count(&tracer.spans(), "tiling.plan"), 4);
    }

    #[test]
    fn the_seed_keys_on_both_names_and_their_lengths() {
        assert_ne!(workload_seed(1, "m", "ab"), workload_seed(1, "ma", "b"));
        assert_eq!(workload_seed(0, "x", "y") ^ 5, workload_seed(5, "x", "y"));
    }
}
