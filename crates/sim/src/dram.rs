//! Off-chip DRAM timing model (DRAMSim2 substitution, see DESIGN.md §2).
//!
//! A bank/row-buffer model of a single-rank DDR3-1600 x64 channel: streaming
//! accesses hit the open row for `row_bytes` before paying an
//! activate/precharge penalty. This captures the first-order behaviour the
//! paper gets from DRAMSim2 — bandwidth-bound transfer time with row-miss
//! overhead — which is all the layer-level `max(compute, memory)` overlap
//! model consumes.

use crate::error::SimError;

/// DRAM channel parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramConfig {
    /// Peak bandwidth in bytes/second (DDR3-1600 x64 ≈ 12.8 GB/s).
    pub peak_bytes_per_s: f64,
    /// Open-row run length in bytes before an activate/precharge penalty.
    pub row_bytes: usize,
    /// Row activate + precharge penalty in seconds (tRCD + tRP ≈ 27.5 ns).
    pub row_penalty_s: f64,
    /// Fraction of traffic that streams sequentially (row-friendly). The
    /// remainder pays a row penalty per burst, amortized across banks.
    pub sequential_fraction: f64,
    /// Burst size in bytes (BL8 × 64-bit bus = 64 B).
    pub burst_bytes: usize,
    /// Banks available to overlap activate/precharge latency of the random
    /// traffic.
    pub banks: usize,
}

cscnn_json::impl_to_json!(DramConfig {
    peak_bytes_per_s,
    row_bytes,
    row_penalty_s,
    sequential_fraction,
    burst_bytes,
    banks,
});

cscnn_json::impl_from_json!(DramConfig {
    peak_bytes_per_s,
    row_bytes,
    row_penalty_s,
    sequential_fraction,
    burst_bytes,
    banks,
});

impl DramConfig {
    /// DDR3-1600 with mostly-sequential accelerator traffic.
    pub fn ddr3_1600() -> Self {
        let cfg = DramConfig {
            peak_bytes_per_s: 12.8e9,
            row_bytes: 8192,
            row_penalty_s: 27.5e-9,
            sequential_fraction: 0.9,
            burst_bytes: 64,
            banks: 8,
        };
        debug_assert!(cfg.validate().is_ok(), "DDR3-1600 config must validate");
        cfg
    }

    /// Checks that the channel parameters are physical: positive finite
    /// bandwidth and penalties, non-zero row/burst/bank geometry, and a
    /// sequential fraction in `[0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        let err = |field: &'static str, reason: &'static str| {
            Err(SimError::InvalidConfig { field, reason })
        };
        if !(self.peak_bytes_per_s.is_finite() && self.peak_bytes_per_s > 0.0) {
            return err("peak_bytes_per_s", "must be positive and finite");
        }
        if !(self.row_penalty_s.is_finite() && self.row_penalty_s >= 0.0) {
            return err("row_penalty_s", "must be non-negative and finite");
        }
        if !(0.0..=1.0).contains(&self.sequential_fraction) {
            return err("sequential_fraction", "must be in [0, 1]");
        }
        if self.row_bytes == 0 || self.burst_bytes == 0 {
            return err("row_bytes/burst_bytes", "must be non-zero");
        }
        if self.banks == 0 {
            return err("banks", "must be non-zero");
        }
        Ok(())
    }

    /// Time to transfer `bytes` of accelerator traffic.
    ///
    /// Sequential traffic pays one row penalty per `row_bytes`; the random
    /// remainder pays one per burst, overlapped across `banks` so only
    /// `1/banks` of those penalties land on the critical path.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let data_s = bytes as f64 / self.peak_bytes_per_s;
        let seq_bytes = bytes as f64 * self.sequential_fraction;
        let rand_bytes = bytes as f64 - seq_bytes;
        let seq_penalties = (seq_bytes / self.row_bytes as f64).ceil();
        let rand_penalties =
            (rand_bytes / self.burst_bytes as f64).ceil() / self.banks.max(1) as f64;
        data_s + (seq_penalties + rand_penalties) * self.row_penalty_s
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr3_1600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_takes_zero_time() {
        assert_eq!(DramConfig::default().transfer_time_s(0), 0.0);
    }

    #[test]
    fn large_sequential_transfers_approach_peak_bandwidth() {
        let d = DramConfig::ddr3_1600();
        let bytes = 256 * 1024 * 1024;
        let eff = bytes as f64 / d.transfer_time_s(bytes);
        assert!(eff > 0.7 * d.peak_bytes_per_s, "eff={eff:e}");
        assert!(eff < d.peak_bytes_per_s);
    }

    #[test]
    fn random_traffic_is_slower_than_sequential() {
        let seq = DramConfig {
            sequential_fraction: 1.0,
            ..DramConfig::ddr3_1600()
        };
        let rnd = DramConfig {
            sequential_fraction: 0.0,
            ..DramConfig::ddr3_1600()
        };
        let bytes = 1 << 20;
        assert!(rnd.transfer_time_s(bytes) > 1.5 * seq.transfer_time_s(bytes));
    }

    #[test]
    fn time_is_monotone_in_bytes() {
        let d = DramConfig::default();
        let mut prev = 0.0;
        for shift in 10..26 {
            let t = d.transfer_time_s(1 << shift);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn validation_rejects_unphysical_channels() {
        assert!(DramConfig::ddr3_1600().validate().is_ok());
        let mut d = DramConfig::ddr3_1600();
        d.peak_bytes_per_s = 0.0;
        assert!(d.validate().is_err());
        let mut d = DramConfig::ddr3_1600();
        d.sequential_fraction = 1.5;
        assert!(d.validate().is_err());
        let mut d = DramConfig::ddr3_1600();
        d.banks = 0;
        assert!(d.validate().is_err());
    }

    #[test]
    fn dram_config_round_trips_through_json() {
        let d = DramConfig::ddr3_1600();
        let json = cscnn_json::to_string(&d).expect("serialize");
        let back: DramConfig = cscnn_json::from_str(&json).expect("parse");
        assert_eq!(back, d);
    }
}
