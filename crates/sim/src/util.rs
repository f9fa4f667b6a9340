//! Checked numeric conversions and deterministic float accumulation.
//!
//! The simulator's credibility rests on its cycle/byte/energy accounting
//! being exact, so bare `as` narrowing casts are banned in this crate by
//! the `no-narrowing-cast` rule of `cscnn-lint` (see
//! `docs/static_analysis.md`): every integer narrowing or float→integer
//! conversion in accounting code goes through the helpers here, which are
//! built on `try_from`. Out-of-range values panic in debug builds (the
//! conversion was a logic error) and saturate in release builds (no silent
//! wraparound can corrupt a result, and hot paths stay panic-free).
//!
//! This file is the one place in `cscnn-sim` allowed to write the raw
//! casts (it is the allowlisted implementation of the rule).
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

/// Converts an integer quantity into a `u64` byte count.
///
/// Debug builds panic on out-of-range values; release builds saturate to
/// `u64::MAX`, which keeps the accounting monotone instead of wrapping.
#[inline]
pub fn to_bytes<T: TryInto<u64>>(x: T) -> u64 {
    narrow_u64(x, "byte count")
}

/// Converts an integer quantity into a `u64` event/work count
/// (multiplications, accesses, products…).
#[inline]
pub fn to_count<T: TryInto<u64>>(x: T) -> u64 {
    narrow_u64(x, "event count")
}

/// Converts an integer quantity into a `usize` index or extent.
#[inline]
pub fn to_index<T: TryInto<usize>>(x: T) -> usize {
    match x.try_into() {
        Ok(v) => v,
        Err(_) => {
            debug_assert!(false, "index out of usize range");
            usize::MAX
        }
    }
}

/// Narrows to the `u16` lane/filter-id width used by the detailed PE model.
#[inline]
pub fn to_lane<T: TryInto<u16>>(x: T) -> u16 {
    match x.try_into() {
        Ok(v) => v,
        Err(_) => {
            debug_assert!(false, "lane id out of u16 range");
            u16::MAX
        }
    }
}

/// Narrows to the `u8` kernel-coordinate width used by compressed weights.
#[inline]
pub fn to_coord<T: TryInto<u8>>(x: T) -> u8 {
    match x.try_into() {
        Ok(v) => v,
        Err(_) => {
            debug_assert!(false, "kernel coordinate out of u8 range");
            u8::MAX
        }
    }
}

/// Narrows to the `u32` per-slice non-zero-count width.
#[inline]
pub fn to_nnz<T: TryInto<u32>>(x: T) -> u32 {
    match x.try_into() {
        Ok(v) => v,
        Err(_) => {
            debug_assert!(false, "nnz count out of u32 range");
            u32::MAX
        }
    }
}

/// Narrows a per-slice non-zero count to the `u16` width a workload
/// stores. A slice holds at most `R·S` weights, so an out-of-range
/// count means a kernel the workload cannot represent: unlike the saturating
/// helpers above, this panics in release builds too rather than truncate.
#[inline]
pub fn to_slice_nnz(x: u32) -> u16 {
    assert!(
        x <= u32::from(u16::MAX),
        "per-slice nnz count {x} out of u16 range"
    );
    u16::try_from(x).unwrap_or(u16::MAX)
}

#[inline]
fn narrow_u64<T: TryInto<u64>>(x: T, what: &str) -> u64 {
    match x.try_into() {
        Ok(v) => v,
        Err(_) => {
            debug_assert!(false, "{what} out of u64 range");
            u64::MAX
        }
    }
}

/// Converts an already-rounded (`ceil`/`round`/`floor`) `f64` into a `u64`
/// cycle count. Negative, NaN or infinite inputs are logic errors: debug
/// builds panic, release builds clamp (negative/NaN → 0, +∞/overflow →
/// `u64::MAX`).
#[inline]
pub fn cycles_from_f64(x: f64) -> u64 {
    u64_from_f64(x, "cycle count")
}

/// Converts an already-rounded `f64` into a `u64` event/work count.
#[inline]
pub fn count_from_f64(x: f64) -> u64 {
    u64_from_f64(x, "event count")
}

/// Converts an already-rounded, already-clamped `f64` into a `u32`
/// non-zero count.
#[inline]
pub fn nnz_from_f64(x: f64) -> u32 {
    debug_assert!(
        x.is_finite() && x >= 0.0,
        "nnz count must be finite and non-negative, got {x}"
    );
    if x.is_finite() && x >= 0.0 {
        const MAX: f64 = u32::MAX as f64;
        if x >= MAX {
            u32::MAX
        } else {
            x as u32
        }
    } else {
        0
    }
}

#[inline]
fn u64_from_f64(x: f64, what: &str) -> u64 {
    debug_assert!(
        x.is_finite() && x >= 0.0,
        "{what} must be finite and non-negative, got {x}"
    );
    if x.is_finite() && x >= 0.0 {
        // 2^64 exactly; every finite f64 below it fits after truncation.
        const LIMIT: f64 = 18_446_744_073_709_551_616.0;
        if x >= LIMIT {
            u64::MAX
        } else {
            x as u64
        }
    } else {
        0
    }
}

/// Default worker-pool size for batched simulation:
/// [`cscnn_tensor::env_num_threads`], the validated `CSCNN_NUM_THREADS`
/// environment variable when set (the same variable sizes
/// `cscnn_tensor::run_jobs`, which runs independent trainings), else the
/// machine's available parallelism, else 1. The in-process override
/// `cscnn_tensor::set_num_threads` is not consulted: it sizes the
/// training jobs only. Worker counts never affect results — batching is
/// bit-identical to sequential simulation by construction.
///
/// # Panics
///
/// Panics if `CSCNN_NUM_THREADS` is set to anything other than an integer
/// in `1..=512` (a typo should fail loudly, not silently serialize).
pub fn configured_workers() -> usize {
    cscnn_tensor::env_num_threads()
}

/// Fixed-order compensated summation (Neumaier's variant of Kahan).
///
/// Float addition is not associative, so an unordered `.sum::<f64>()` is a
/// reproducibility hazard the moment an iterator's order changes (the
/// `deterministic-sum` lint rule bans it in the energy/report paths). This
/// helper sums strictly in iteration order *and* carries a compensation
/// term, so results are bit-identical run to run and immune to the worst
/// cancellation errors.
pub fn det_sum<I>(values: I) -> f64
where
    I: IntoIterator<Item = f64>,
{
    let mut sum = 0.0f64;
    let mut comp = 0.0f64;
    for v in values {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            comp += (sum - t) + v;
        } else {
            comp += (v - t) + sum;
        }
        sum = t;
    }
    sum + comp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_narrowing_is_exact_in_range() {
        assert_eq!(to_bytes(7u32), 7);
        assert_eq!(to_count(0usize), 0);
        assert_eq!(to_index(9u64), 9);
        assert_eq!(to_lane(65_535usize), 65_535);
        assert_eq!(to_coord(255usize), 255);
        assert_eq!(to_nnz(123usize), 123);
    }

    #[test]
    #[should_panic(expected = "out of u16 range")]
    fn slice_counts_narrow_exactly_or_panic() {
        assert_eq!(to_slice_nnz(65535), u16::MAX);
        let _ = to_slice_nnz(65536);
    }

    #[test]
    fn float_conversions_are_exact_for_counts() {
        assert_eq!(cycles_from_f64(1234.0), 1234);
        assert_eq!(count_from_f64(0.0), 0);
        assert_eq!(nnz_from_f64(17.0), 17);
        // Truncation (callers round first; a stray fraction must not
        // change the integer part).
        assert_eq!(cycles_from_f64(9.999), 9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_count_panics_in_debug() {
        let _ = cycles_from_f64(-1.0);
    }

    #[test]
    fn det_sum_matches_plain_sum_on_benign_data() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
        let plain: f64 = xs.iter().sum();
        assert_eq!(det_sum(xs.iter().copied()), plain);
    }

    #[test]
    fn det_sum_survives_catastrophic_cancellation() {
        // 1.0 + 1e100 - 1e100 == 0.0 in plain left-to-right f64 addition;
        // the compensation term preserves the 1.0.
        let xs = [1.0f64, 1e100, 1.0, -1e100];
        let plain: f64 = xs.iter().sum();
        assert_eq!(plain, 0.0, "plain sum loses the small terms");
        assert_eq!(det_sum(xs.iter().copied()), 2.0);
    }

    #[test]
    fn det_sum_of_empty_is_zero() {
        assert_eq!(det_sum(std::iter::empty()), 0.0);
    }
}
