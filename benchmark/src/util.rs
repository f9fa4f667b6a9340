//! Output checks, order statistics and machine facts shared by the
//! workloads.

use cscnn::ir::{ModelIr, SparsityAnnotation};
use cscnn::models::SparsityProfile;
use cscnn::sim::RunStats;

/// A simulated result reduced to the exact bits the output checks compare:
/// cycles, energy and latency of one (model, accelerator) run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimDigest {
    pub cycles: u64,
    pub on_chip_pj: u64,
    pub total_pj: u64,
    pub time_s: u64,
}

impl SimDigest {
    pub fn of(run: &RunStats) -> Self {
        SimDigest {
            cycles: run.total_cycles(),
            on_chip_pj: run.total_on_chip_pj().to_bits(),
            total_pj: run.total_pj().to_bits(),
            time_s: run.total_time_s().to_bits(),
        }
    }
}

/// Counts checked operations and the ones whose output was wrong or
/// missing; `failed / attempted` is the run's error rate.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one checked operation; `what` names it if it failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// The first few failures, for the report.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Attaches a sparsity profile to the weight-bearing nodes of `ir`, in
/// order, as the simulator's IR path expects.
pub fn annotate(ir: &mut ModelIr, profile: &SparsityProfile) {
    for (i, node) in ir.weight_nodes_mut().enumerate() {
        node.set_sparsity(SparsityAnnotation {
            weight_density: profile.weight_density[i],
            activation_density: profile.activation_density[i],
        });
    }
}

/// FNV-1a, folding 64-bit words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Median, interpolating between the two middle values of an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`), the definition
/// `BatchStats::latency_percentile_s` uses.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The facts every report carries beside its numbers.
pub struct MachineFacts {
    pub available_parallelism: usize,
    pub cscnn_num_threads: String,
    pub batch_workers: usize,
    pub kernel_threads: usize,
    pub rustc: &'static str,
    pub commit: String,
}

impl MachineFacts {
    pub fn collect() -> Self {
        MachineFacts {
            available_parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            cscnn_num_threads: std::env::var("CSCNN_NUM_THREADS")
                .unwrap_or_else(|_| "unset".into()),
            batch_workers: crate::THREADS,
            kernel_threads: cscnn::tensor::num_threads(),
            rustc: env!("BENCH_RUSTC_VERSION"),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"CSCNN_NUM_THREADS\": \"{}\", \"batch_workers\": {}, \"kernel_threads\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
            self.available_parallelism,
            escape(&self.cscnn_num_threads),
            self.batch_workers,
            self.kernel_threads,
            escape(self.rustc),
            escape(&self.commit),
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory (the
/// benchmark runs from the repository root; an exported tree has none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 18.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
    }

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut checks = Checks::default();
        checks.record(true, || unreachable!());
        checks.record(false, || "bad".into());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert_eq!(checks.failures(), ["bad"]);
    }
}
