//! Kernel thread-count configuration.
//!
//! The blocked kernels in [`crate::kernels`] parallelize over deterministic
//! row-block / task partitions in which every output element is produced by
//! exactly one thread with a fixed reduction order, so the thread count
//! affects wall-clock time only — results are **bit-identical** at any
//! setting (see `docs/kernels.md`).
//!
//! The count is resolved, in priority order, from:
//!
//! 1. an explicit in-process [`set_num_threads`] override,
//! 2. the `CSCNN_NUM_THREADS` environment variable (validated once: it must
//!    be an integer in `1..=MAX_THREADS`, anything else aborts with a clear
//!    message rather than being silently ignored),
//! 3. [`std::thread::available_parallelism`] (falling back to 1).
//!
//! `cscnn-sim`'s simulation worker pool (`BatchRunner`, `Runner::run_suite`)
//! reads the same environment variable, so `CSCNN_NUM_THREADS` sizes both
//! halves of the system. [`set_num_threads`] (and `TrainConfig::num_threads`,
//! which calls it) sizes the kernels only: it never reaches the
//! simulation pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Upper bound on the configurable thread count. Far above any sensible
/// machine; it exists so a typo (`CSCNN_NUM_THREADS=10000`) is rejected
/// instead of spawning a thread flood.
pub const MAX_THREADS: usize = 512;

/// In-process override installed by [`set_num_threads`]; 0 means "none".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Lazily resolved environment/hardware default.
static DEFAULT: OnceLock<usize> = OnceLock::new();

/// Overrides the kernel thread count for this process.
///
/// Takes precedence over `CSCNN_NUM_THREADS` and the hardware default.
/// Because the kernels are bit-identical at every thread count, changing
/// this mid-run (even concurrently with running kernels) affects only
/// scheduling, never results.
///
/// # Panics
///
/// Panics if `n` is 0 or exceeds [`MAX_THREADS`].
pub fn set_num_threads(n: usize) {
    assert!(
        (1..=MAX_THREADS).contains(&n),
        "kernel thread count must be in 1..={MAX_THREADS}, got {n}"
    );
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// Removes any [`set_num_threads`] override, returning to the
/// environment/hardware default.
pub fn reset_num_threads() {
    OVERRIDE.store(0, Ordering::SeqCst);
}

/// The thread count the blocked kernels will use for their next dispatch.
///
/// # Panics
///
/// Panics (once, on first resolution) if `CSCNN_NUM_THREADS` is set to
/// anything other than an integer in `1..=MAX_THREADS`.
pub fn num_threads() -> usize {
    match OVERRIDE.load(Ordering::SeqCst) {
        0 => *DEFAULT.get_or_init(env_or_available),
        n => n,
    }
}

/// Resolves the default: validated `CSCNN_NUM_THREADS`, else the machine's
/// available parallelism.
fn env_or_available() -> usize {
    match std::env::var("CSCNN_NUM_THREADS") {
        Ok(raw) => {
            let parsed = raw
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|n| (1..=MAX_THREADS).contains(n));
            assert!(
                parsed.is_some(),
                "CSCNN_NUM_THREADS must be an integer in 1..={MAX_THREADS}, got `{raw}`"
            );
            parsed.unwrap_or(1)
        }
        Err(_) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_and_resets() {
        // Note: other tests in this binary may also touch the override;
        // every assertion here is about the override mechanics only.
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(1);
        assert_eq!(num_threads(), 1);
        reset_num_threads();
        assert!(num_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "thread count must be in")]
    fn rejects_zero_threads() {
        set_num_threads(0);
    }

    #[test]
    #[should_panic(expected = "thread count must be in")]
    fn rejects_flood_threads() {
        set_num_threads(MAX_THREADS + 1);
    }
}
