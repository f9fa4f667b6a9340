//! Simulation result types and derived metrics.

use crate::energy::{EnergyBreakdown, EnergyCounters};
use crate::util::det_sum;

/// Results of simulating one layer on one accelerator.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Layer name.
    pub name: String,
    /// Compute cycles (critical path over PEs, stalls included).
    pub compute_cycles: u64,
    /// DRAM transfer time in seconds.
    pub dram_time_s: f64,
    /// Layer latency in seconds: `max(compute, dram)` under double
    /// buffering.
    pub time_s: f64,
    /// Multiplications actually issued.
    pub effective_mults: u64,
    /// Raw event counts.
    pub counters: EnergyCounters,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl LayerStats {
    /// Multiplier-array utilization over the layer's compute time:
    /// `mults / (cycles × total_multipliers)`. The quantity SCNN's paper
    /// reports at 59–79 %; fragmentation, stalls and barriers push it
    /// below 1.
    pub fn multiplier_utilization(&self, total_multipliers: usize) -> f64 {
        if self.compute_cycles == 0 {
            return 0.0;
        }
        self.effective_mults as f64 / (self.compute_cycles as f64 * total_multipliers as f64)
    }
}

cscnn_json::impl_to_json!(LayerStats {
    name,
    compute_cycles,
    dram_time_s,
    time_s,
    effective_mults,
    counters,
    energy,
});

/// Results of simulating a whole network on one accelerator.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Accelerator name.
    pub accelerator: String,
    /// Model name.
    pub model: String,
    /// Per-layer results in execution order.
    pub layers: Vec<LayerStats>,
}

cscnn_json::impl_to_json!(RunStats {
    accelerator,
    model,
    layers,
});

impl RunStats {
    /// Total latency in seconds. Summed in layer order with compensation
    /// ([`det_sum`]) so totals are bit-identical run to run.
    pub fn total_time_s(&self) -> f64 {
        det_sum(self.layers.iter().map(|l| l.time_s))
    }

    /// Total compute cycles.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.compute_cycles).sum::<u64>()
    }

    /// Total on-chip energy in pJ (the Fig. 9 quantity; DRAM excluded).
    pub fn total_on_chip_pj(&self) -> f64 {
        det_sum(self.layers.iter().map(|l| l.energy.on_chip_pj()))
    }

    /// Total energy including DRAM, in pJ.
    pub fn total_pj(&self) -> f64 {
        det_sum(
            self.layers
                .iter()
                .map(|l| l.energy.on_chip_pj() + l.energy.dram_pj),
        )
    }

    /// Aggregated energy breakdown.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for l in &self.layers {
            total.merge(&l.energy);
        }
        total
    }

    /// Energy-delay product (J·s) using on-chip energy, matching the
    /// paper's EDP comparisons.
    pub fn edp(&self) -> f64 {
        self.total_on_chip_pj() * 1e-12 * self.total_time_s()
    }

    /// Speedup of `self` relative to `baseline` (same model).
    pub fn speedup_over(&self, baseline: &RunStats) -> f64 {
        baseline.total_time_s() / self.total_time_s()
    }

    /// EDP improvement of `self` relative to `baseline`.
    pub fn edp_gain_over(&self, baseline: &RunStats) -> f64 {
        baseline.edp() / self.edp()
    }
}

/// Geometric mean of a non-empty slice of positive factors.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn geomean(factors: &[f64]) -> f64 {
    assert!(!factors.is_empty(), "geomean of empty slice");
    assert!(
        factors.iter().all(|&f| f > 0.0),
        "geomean needs positive values"
    );
    (det_sum(factors.iter().map(|f| f.ln())) / factors.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(times: &[f64], energies: &[f64]) -> RunStats {
        RunStats {
            accelerator: "test".into(),
            model: "m".into(),
            layers: times
                .iter()
                .zip(energies)
                .map(|(&t, &e)| LayerStats {
                    time_s: t,
                    energy: EnergyBreakdown {
                        compute_pj: e,
                        ..Default::default()
                    },
                    ..Default::default()
                })
                .collect(),
        }
    }

    #[test]
    fn totals_sum_layers() {
        let s = stats(&[1.0, 2.0], &[10.0, 20.0]);
        assert_eq!(s.total_time_s(), 3.0);
        assert_eq!(s.total_on_chip_pj(), 30.0);
    }

    #[test]
    fn speedup_and_edp_relations() {
        let fast = stats(&[1.0], &[10.0]);
        let slow = stats(&[2.0], &[30.0]);
        assert_eq!(fast.speedup_over(&slow), 2.0);
        assert!((fast.edp_gain_over(&slow) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_reciprocal_pair_is_one() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
