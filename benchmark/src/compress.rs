//! `compress_pipeline`: the paper's algorithm flow on `mobile_cnn` over
//! `SyntheticImages` — train → `centrosymmetrize` → retrain →
//! `prune_network` → retrain → `annotated_ir` — then `run_ir` of the
//! trained network on all nine accelerators. Nearly all of its time is in
//! `nn` and `tensor`, including the depthwise conv, so a simulator-only
//! change must leave it unchanged and a kernel change shows here alone.

use std::hint::black_box;
use std::time::Instant;

use cscnn::ir::ModelIr;
use cscnn::nn::centrosymmetric::centrosymmetrize;
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::metrics::softmax_cross_entropy;
use cscnn::nn::models;
use cscnn::nn::optimizer::{LrSchedule, Sgd};
use cscnn::nn::pruning::{prune_network, PruneConfig};
use cscnn::nn::trainer::{evaluate, TrainConfig, Trainer};
use cscnn::nn::Network;
use cscnn::sim::{baselines, Accelerator, Runner};
use cscnn::tensor::{matmul, matmul_at, matmul_bt, ConvScratch, ConvSpec, Tensor};
use cscnn_rng::rngs::StdRng;
use cscnn_rng::SeedableRng;

use crate::metrics::{self, Metrics, ACCELERATORS};
use crate::redrive::Redrive;
use crate::trace::{self, Tracer};
use crate::util::{annotate, fnv, Checks, SimDigest};
use crate::{Pass, Workload};

const MODEL: &str = "mobile_cnn";
/// Input images, `(channels, height, width)`.
const INPUT: (usize, usize, usize) = (3, 16, 16);
const CLASSES: usize = 10;
/// Samples per class; a fifth are held out for testing.
const PER_CLASS: usize = 40;
const NOISE: f32 = 0.3;
/// Epochs of each of the three training phases.
const EPOCHS: usize = 3;
const BATCH_SIZE: usize = 32;
/// Samples `annotated_ir` measures densities over.
const PROFILE_SAMPLES: usize = 16;
/// Calls per kernel when the traced run times the pipeline's kernels.
const KERNEL_REPS: usize = 10;

/// `mobile_cnn`'s layer kinds, in order.
pub const LAYERS: [&str; 9] = [
    "conv2d", "relu", "conv2d", "relu", "conv2d", "relu", "maxpool", "flatten", "linear",
];
/// `mobile_cnn`'s convolutions: (in channels, out channels, kernel, groups).
const CONVS: [(usize, usize, usize, usize); 3] = [(3, 8, 3, 1), (8, 8, 3, 8), (8, 16, 1, 1)];
/// Inputs of the linear layer: 16 channels after 2×2 max-pooling.
const FEATURES: usize = 16 * (INPUT.1 / 2) * (INPUT.2 / 2);
/// The linear layer's products as (kernel, m, k, n) of an m×k by k×n
/// product: forward `x·Wᵀ`, weight gradient `dYᵀ·x`, input gradient `dY·W`.
const MATMULS: [(&str, usize, usize, usize); 3] = [
    ("bt", BATCH_SIZE, FEATURES, CLASSES),
    ("at", CLASSES, BATCH_SIZE, FEATURES),
    ("nn", BATCH_SIZE, CLASSES, FEATURES),
];

fn conv_shape(&(c, k, r, g): &(usize, usize, usize, usize)) -> String {
    format!("n{BATCH_SIZE}_c{c}_h{}_k{k}_r{r}_g{g}", INPUT.1)
}

pub fn conv_shapes() -> Vec<String> {
    CONVS.iter().map(conv_shape).collect()
}

pub fn matmul_shapes() -> Vec<String> {
    MATMULS
        .iter()
        .map(|(kind, m, k, n)| format!("{kind}_{m}x{k}x{n}"))
        .collect()
}

/// What one pipeline run produces; every run at a seed must produce the
/// same.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    weights: u64,
    dense_accuracy: f64,
    final_accuracy: f64,
    ir: ModelIr,
    sims: Vec<Option<SimDigest>>,
}

fn weight_digest(net: &Network) -> u64 {
    fnv(net
        .params()
        .iter()
        .flat_map(|p| p.value.as_slice().iter().map(|v| u64::from(v.to_bits()))))
}

pub struct CompressPipeline {
    seed: u64,
    config: TrainConfig,
    train: SyntheticImages,
    test: SyntheticImages,
    accs: Vec<Box<dyn Accelerator>>,
    runner: Runner,
    reference: Option<Outcome>,
}

impl CompressPipeline {
    fn network(&self) -> Network {
        models::mobile_cnn(INPUT.0, INPUT.1, INPUT.2, CLASSES, self.seed)
    }

    /// The pipeline through the public API: the measured pass.
    fn run(&self) -> Result<Outcome, String> {
        let mut net = self.network();
        let trainer = Trainer::new(self.config);
        let dense = trainer.fit(&mut net, &self.train, &self.test);
        centrosymmetrize(&mut net).map_err(|e| e.to_string())?;
        let _retrained = trainer.fit(&mut net, &self.train, &self.test);
        prune_network(&mut net, &PruneConfig::default()).map_err(|e| e.to_string())?;
        let pruned = trainer.fit(&mut net, &self.train, &self.test);
        let ir =
            cscnn::annotated_ir(&mut net, MODEL, INPUT, &self.test).map_err(|e| e.to_string())?;
        let sims = self
            .accs
            .iter()
            .map(|acc| {
                self.runner
                    .run_ir(acc.as_ref(), &ir)
                    .ok()
                    .map(|r| SimDigest::of(&r))
            })
            .collect();
        Ok(Outcome {
            weights: weight_digest(&net),
            dense_accuracy: dense.final_test_accuracy,
            final_accuracy: pruned.final_test_accuracy,
            ir,
            sims,
        })
    }

    /// The same pipeline re-driven call by call with spans.
    fn redrive(&self, rd: &Redrive) -> Result<Outcome, String> {
        let tracer = rd.tracer;
        let mut net = self.network();
        let names: Vec<(String, String)> = (0..net.len())
            .map(|i| {
                let kind = net.layer(i).name();
                (format!("nn.{i}_{kind}.fwd"), format!("nn.{i}_{kind}.bwd"))
            })
            .collect();
        let (cfg, train, test) = (&self.config, &self.train, &self.test);
        let dense = fit(tracer, &mut net, &names, cfg, train, test);
        tracer
            .time("nn.centrosymmetrize", None, || centrosymmetrize(&mut net))
            .map_err(|e| e.to_string())?;
        fit(tracer, &mut net, &names, cfg, train, test);
        tracer
            .time("nn.prune", None, || {
                prune_network(&mut net, &PruneConfig::default())
            })
            .map_err(|e| e.to_string())?;
        let pruned = fit(tracer, &mut net, &names, cfg, train, test);
        // `cscnn::annotated_ir`, with its profile measurement in a span.
        let ir = tracer.time(
            "bridge.annotated_ir",
            None,
            || -> Result<ModelIr, String> {
                let mut ir = net.to_ir(MODEL, INPUT).map_err(|e| e.to_string())?;
                let profile = tracer.time("bridge.measure_profile", None, || {
                    cscnn::measure_profile(&mut net, test, PROFILE_SAMPLES)
                });
                annotate(&mut ir, &profile);
                Ok(ir)
            },
        )?;
        let sims = self
            .accs
            .iter()
            .enumerate()
            .map(|(ai, acc)| {
                let request = ai as u64;
                tracer
                    .time("bridge.run_ir", Some(request), || {
                        rd.run_ir(acc.as_ref(), &ir, request)
                    })
                    .ok()
                    .map(|r| SimDigest::of(&r))
            })
            .collect();
        Ok(Outcome {
            weights: weight_digest(&net),
            dense_accuracy: dense,
            final_accuracy: pruned,
            ir,
            sims,
        })
    }
}

/// `Trainer::fit` re-driven with each layer's forward and backward call,
/// the optimizer step and the per-epoch evaluation in spans. Returns the
/// final test accuracy.
fn fit(
    tracer: &Tracer,
    net: &mut Network,
    names: &[(String, String)],
    cfg: &TrainConfig,
    train: &SyntheticImages,
    test: &SyntheticImages,
) -> f64 {
    let _fit = tracer.span("nn.fit", None);
    let schedule = LrSchedule::step(cfg.lr, cfg.lr_decay_factor, cfg.lr_decay_every);
    let mut opt = Sgd::new(cfg.momentum, cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut accuracy = 0.0;
    for epoch in 0..cfg.epochs {
        let lr = schedule.lr_at(epoch);
        let indices = train.shuffled_indices(&mut rng);
        for chunk in indices.chunks(cfg.batch_size) {
            let (mut x, labels) = train.batch(chunk);
            for (i, (fwd, _)) in names.iter().enumerate() {
                x = tracer.time(fwd, None, || net.layer_mut(i).forward(&x));
            }
            let (_, mut grad) = softmax_cross_entropy(&x, &labels);
            for (i, (_, bwd)) in names.iter().enumerate().rev() {
                grad = tracer.time(bwd, None, || net.layer_mut(i).backward(&grad));
            }
            tracer.time("nn.optimizer_step", None, || {
                opt.step(&mut net.params_mut(), lr);
            });
        }
        accuracy = tracer.time("nn.evaluate", None, || evaluate(net, test, cfg.batch_size));
    }
    accuracy
}

/// Times the pipeline's own kernels at its own shapes, one span per call,
/// the way a training step calls them (a convolution's backward reuses its
/// forward's lowering); returns the multiply-accumulates performed.
fn time_kernels(tracer: &Tracer) -> f64 {
    let fill = |dims: &[usize]| Tensor::from_fn(dims, |i| ((i as f32) * 0.37).sin());
    let (h, w) = (INPUT.1, INPUT.2);
    let mut macs = 0.0;
    for (&(c, k, r, g), shape) in CONVS.iter().zip(conv_shapes()) {
        let spec = ConvSpec::new(r, r).with_padding(r / 2);
        let (oh, ow) = spec.output_dim(h, w);
        let x = fill(&[BATCH_SIZE, c, h, w]);
        let weight = fill(&[k, c / g, r, r]);
        let bias = Tensor::zeros(&[k]);
        let grad = fill(&[BATCH_SIZE, k, oh, ow]);
        let (fwd, bwd) = (
            format!("tensor.conv_fwd.{shape}"),
            format!("tensor.conv_bwd.{shape}"),
        );
        for _ in 0..KERNEL_REPS {
            let mut scratch = ConvScratch::new();
            tracer.time(&fwd, None, || {
                black_box(scratch.forward(&x, &weight, &bias, &spec, g))
            });
            tracer.time(&bwd, None, || {
                black_box(scratch.backward(&x, &weight, &grad, &spec, g))
            });
        }
        // Forward once, backward twice (input and weight gradients).
        macs += 3.0 * (KERNEL_REPS * BATCH_SIZE * k * oh * ow * (c / g) * r * r) as f64;
    }
    for (&(kind, m, k, n), shape) in MATMULS.iter().zip(matmul_shapes()) {
        let (a, b) = match kind {
            "bt" => (fill(&[m, k]), fill(&[n, k])),
            "at" => (fill(&[k, m]), fill(&[k, n])),
            _ => (fill(&[m, k]), fill(&[k, n])),
        };
        let name = format!("tensor.matmul.{shape}");
        for _ in 0..KERNEL_REPS {
            tracer.time(&name, None, || {
                black_box(match kind {
                    "bt" => matmul_bt(&a, &b),
                    "at" => matmul_at(&a, &b),
                    _ => matmul(&a, &b),
                })
            });
        }
        macs += (KERNEL_REPS * m * k * n) as f64;
    }
    macs
}

impl Workload for CompressPipeline {
    const WARMUP_PASSES: usize = 1;

    fn setup(seed: u64, tracer: &Tracer) -> Self {
        let data = tracer.time("nn.dataset", None, || {
            SyntheticImages::generate(INPUT.0, INPUT.1, INPUT.2, CLASSES, PER_CLASS, NOISE, seed)
        });
        let (train, test) = data.split(0.2);
        CompressPipeline {
            seed,
            config: TrainConfig {
                epochs: EPOCHS,
                batch_size: BATCH_SIZE,
                seed,
                ..Default::default()
            },
            train,
            test,
            accs: baselines::evaluation_accelerators(),
            runner: Runner::new(seed),
            reference: None,
        }
    }

    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let start = Instant::now();
        let outcome = self.run();
        let seconds = start.elapsed().as_secs_f64();
        match (outcome, &self.reference) {
            (Ok(outcome), None) => {
                checks.record(outcome.sims.iter().all(Option::is_some), || {
                    "run_ir failed on the trained network".into()
                });
                self.reference = Some(outcome);
            }
            (Ok(outcome), Some(reference)) => {
                checks.record(outcome == *reference, || {
                    "the pipeline's weights or simulated results did not repeat".into()
                });
            }
            (Err(e), _) => checks.record(false, || format!("pipeline failed: {e}")),
        }
        Pass {
            seconds,
            requests: self.accs.len(),
        }
    }

    /// Every pass is already checked against the first.
    fn verify(&mut self, _checks: &mut Checks) {}

    fn traced(&mut self, tracer: &Tracer, checks: &mut Checks, m: &mut Metrics) {
        let reference = self.run();
        let off = Tracer::new(false);
        let start = Instant::now();
        let plain = self.redrive(&Redrive::new(&off, self.seed));
        let plain_s = start.elapsed().as_secs_f64();
        let rd = Redrive::new(tracer, self.seed);
        let start = Instant::now();
        let traced = self.redrive(&rd);
        let traced_s = start.elapsed().as_secs_f64();
        for (what, got) in [("untraced", &plain), ("traced", &traced)] {
            checks.record(
                reference.is_ok() && got.as_ref().ok() == reference.as_ref().ok(),
                || format!("{what} re-drive of the pipeline differs from the library's"),
            );
        }
        let macs = time_kernels(tracer);

        let spans = tracer.spans();
        metrics::sim_layers(&spans, rd.unique_syntheses(), m, |r| {
            (MODEL.to_string(), ACCELERATORS[r as usize].to_string())
        });
        for name in [
            "fit",
            "centrosymmetrize",
            "prune",
            "evaluate",
            "optimizer_step",
        ] {
            m.set(
                format!("nn.{name}_s"),
                trace::total(&spans, &format!("nn.{name}")),
            );
        }
        for (i, kind) in LAYERS.iter().enumerate() {
            for pass in ["fwd", "bwd"] {
                let s = trace::total(&spans, &format!("nn.{i}_{kind}.{pass}"));
                m.set(format!("nn.{i}_{kind}.{pass}_s"), s);
            }
        }
        let per_call =
            |name: &str| trace::total(&spans, name) / trace::count(&spans, name).max(1) as f64;
        let mut kernel_s = 0.0;
        for shape in conv_shapes() {
            for pass in ["fwd", "bwd"] {
                let name = format!("tensor.conv_{pass}.{shape}");
                kernel_s += trace::total(&spans, &name);
                m.set(format!("tensor.conv_{pass}_s.{shape}"), per_call(&name));
            }
        }
        for shape in matmul_shapes() {
            let name = format!("tensor.matmul.{shape}");
            kernel_s += trace::total(&spans, &name);
            m.set(format!("tensor.matmul_s.{shape}"), per_call(&name));
        }
        m.set("tensor.gmacs_per_s", macs / kernel_s / 1e9);
        m.set(
            "bridge.measure_profile_s",
            trace::total(&spans, "bridge.measure_profile"),
        );
        m.set("bridge.run_ir_s", trace::total(&spans, "bridge.run_ir"));
        if let Ok(outcome) = &reference {
            m.set(
                "nn.accuracy_drop_pct",
                100.0 * (outcome.dense_accuracy - outcome.final_accuracy),
            );
        }
        m.set("trace.overhead_s", traced_s - plain_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_network() {
        let mut net = models::mobile_cnn(INPUT.0, INPUT.1, INPUT.2, CLASSES, 1);
        assert_eq!(net.layer_names(), LAYERS);
        let convs: Vec<(usize, usize, usize, usize)> = net
            .conv_layers_mut()
            .map(|conv| {
                let dims = conv.weight().value.shape().dims().to_vec();
                (dims[1] * conv.groups(), dims[0], dims[2], conv.groups())
            })
            .collect();
        assert_eq!(convs, CONVS);
        let linear = net.linear_layers_mut().next().expect("one linear layer");
        assert_eq!(linear.weight().value.shape().dims(), &[CLASSES, FEATURES]);
    }
}
