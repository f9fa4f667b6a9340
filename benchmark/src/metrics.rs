//! Metric names and units, and the JSON the benchmark prints.

use std::collections::BTreeMap;

use crate::trace::Span;

/// The nine evaluation models, in `catalog::evaluation_suite` order.
pub const MODELS: [&str; 9] = [
    "LeNet-5",
    "ConvNet",
    "AlexNet",
    "VGG16",
    "ResNet-18",
    "ResNet-50",
    "ResNet-152",
    "ShuffleNet-V2",
    "EfficientNet-B7",
];

/// The nine accelerators, in `baselines::evaluation_accelerators` order.
pub const ACCELERATORS: [&str; 9] = [
    "DCNN",
    "Cnvlutin",
    "Cambricon-X",
    "SCNN",
    "SparTen",
    "Cambricon-S",
    "SIGMA",
    "SpArch",
    "CSCNN",
];

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("requests_per_s", "1/s"),
    ("batch_latency_p50_ms", "ms"),
    ("batch_latency_p90_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    add("workload.synth_s".into(), "s");
    add("workload.synth_calls".into(), "count");
    add("workload.synth_unique".into(), "count");
    for model in MODELS {
        add(format!("workload.synth_s.{model}"), "s");
    }
    add("tiling.plan_s".into(), "s");
    add("tiling.plan_calls".into(), "count");
    add("accel.simulate_s".into(), "s");
    for acc in ACCELERATORS {
        add(format!("accel.simulate_s.{acc}"), "s");
    }
    for model in MODELS {
        add(format!("accel.simulate_s.{model}"), "s");
    }
    for model in MODELS {
        add(format!("runner.model_s.{model}"), "s");
    }
    add("runner.critical_path_s".into(), "s");
    add("runner.parallel_efficiency".into(), "ratio");
    add("batch.cache_hit_ratio".into(), "ratio");
    add("batch.cache_misses".into(), "count");
    add("batch.run_ir_s".into(), "s");
    add("batch.pool_efficiency".into(), "ratio");
    add("ir.annotated_hash_s".into(), "s");
    add("ir.validate_s".into(), "s");
    for name in [
        "fit",
        "centrosymmetrize",
        "prune",
        "evaluate",
        "optimizer_step",
    ] {
        add(format!("nn.{name}_s"), "s");
    }
    for (i, kind) in crate::compress::LAYERS.iter().enumerate() {
        add(format!("nn.{i}_{kind}.fwd_s"), "s");
        add(format!("nn.{i}_{kind}.bwd_s"), "s");
    }
    for shape in crate::compress::conv_shapes() {
        add(format!("tensor.conv_fwd_s.{shape}"), "s");
        add(format!("tensor.conv_bwd_s.{shape}"), "s");
    }
    for shape in crate::compress::matmul_shapes() {
        add(format!("tensor.matmul_s.{shape}"), "s");
    }
    add("tensor.gmacs_per_s".into(), "GMAC/s");
    add("bridge.measure_profile_s".into(), "s");
    add("bridge.run_ir_s".into(), "s");
    add("models.lower_s".into(), "s");
    add("models.profile_s".into(), "s");
    add("trace.overhead_s".into(), "s");
    add("paper.speedup_err_pct".into(), "%");
    add("paper.energy_err_pct".into(), "%");
    add("nn.accuracy_drop_pct".into(), "%");
    out
}

/// Measured values of one run, keyed by metric name. A metric the run's
/// workload does not exercise reads 0.
pub struct Metrics {
    names: Vec<(String, &'static str)>,
    values: BTreeMap<String, f64>,
}

impl Metrics {
    fn new(names: Vec<(String, &'static str)>) -> Self {
        Metrics {
            names,
            values: BTreeMap::new(),
        }
    }

    pub fn end_to_end() -> Self {
        Self::new(
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
        )
    }

    pub fn per_layer() -> Self {
        Self::new(per_layer())
    }

    pub fn is_known(&self, name: &str) -> bool {
        self.names.iter().any(|(n, _)| n == name)
    }

    /// Sets a metric of this report.
    ///
    /// # Panics
    ///
    /// Panics on a name the report does not list: a typo in the benchmark.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(self.is_known(&name), "unlisted metric {name}");
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of the result line, in list order.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .names
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(self.get(name))
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit of the measurement. Non-finite values,
/// which JSON cannot carry, read 0, and so does an empty sum's -0.
fn number(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The simulator-layer metrics of a re-drive's spans: synthesis, tile
/// planning and PE simulation, split by model and accelerator where the
/// report lists them. `names` maps a span's request id to its (model,
/// accelerator).
pub fn sim_layers(
    spans: &[Span],
    unique_syntheses: usize,
    m: &mut Metrics,
    names: impl Fn(u64) -> (String, String),
) {
    let (mut synth_s, mut synth_calls, mut plan_s, mut plan_calls, mut sim_s) =
        (0.0, 0usize, 0.0, 0usize, 0.0);
    let mut split: BTreeMap<String, f64> = BTreeMap::new();
    for span in spans {
        let Some(request) = span.request else {
            continue;
        };
        let d = span.duration();
        match span.name.as_str() {
            "workload.synthesize" => {
                synth_s += d;
                synth_calls += 1;
                let (model, _) = names(request);
                *split
                    .entry(format!("workload.synth_s.{model}"))
                    .or_default() += d;
            }
            "tiling.plan" => {
                plan_s += d;
                plan_calls += 1;
            }
            "accel.simulate" => {
                sim_s += d;
                let (model, acc) = names(request);
                *split
                    .entry(format!("accel.simulate_s.{model}"))
                    .or_default() += d;
                *split.entry(format!("accel.simulate_s.{acc}")).or_default() += d;
            }
            _ => {}
        }
    }
    m.set("workload.synth_s", synth_s);
    m.set("workload.synth_calls", synth_calls as f64);
    m.set("workload.synth_unique", unique_syntheses as f64);
    m.set("tiling.plan_s", plan_s);
    m.set("tiling.plan_calls", plan_calls as f64);
    m.set("accel.simulate_s", sim_s);
    for (name, value) in split {
        if m.is_known(&name) {
            m.set(name, value);
        }
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscnn::json::{from_str, Value};
    use cscnn::models::catalog;
    use cscnn::sim::baselines;

    #[test]
    fn model_and_accelerator_lists_match_the_library() {
        let models: Vec<String> = catalog::evaluation_suite()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(models, MODELS);
        let accs: Vec<&str> = baselines::evaluation_accelerators()
            .iter()
            .map(|a| a.name())
            .collect();
        assert_eq!(accs, ACCELERATORS);
    }

    /// `BENCHMARK.json`, at the repository root, must list exactly the
    /// metrics this program reports, with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        let doc: Value = from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let ours = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            ours(
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect()
            )
        );
        assert_eq!(listed("per_layer"), ours(per_layer()));
    }

    #[test]
    fn unexercised_metrics_read_zero_and_json_keeps_order() {
        let mut m = Metrics::end_to_end();
        m.set("wall_s", 1.25);
        let json = m.to_json();
        assert!(json.starts_with("{\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(json.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let doc: Value = from_str(&result_line(true, 3, 0, &m)).expect("valid JSON");
        assert_eq!(doc["attempted"], 3u64);
    }
}
