//! The process's thread budget and the job runner that spends it.
//!
//! Every kernel of this crate runs on its calling thread. The budget goes
//! to whole jobs instead: [`run_jobs`] runs independent jobs, such as the
//! trainings of a paper harness, on up to [`num_threads`] threads. Its
//! claim loop, [`run_jobs_within`], is the only code in the crate that
//! starts threads, and `cscnn-sim`'s simulation pool runs on it too. Each job's result
//! depends only on the job, so the budget affects wall-clock time only —
//! results are **bit-identical** at any setting (see `docs/kernels.md`).
//!
//! The budget is resolved, in priority order, from:
//!
//! 1. an explicit in-process [`set_num_threads`] override,
//! 2. the `CSCNN_NUM_THREADS` environment variable (validated once: it must
//!    be an integer in `1..=MAX_THREADS`, anything else aborts with a clear
//!    message rather than being silently ignored),
//! 3. [`std::thread::available_parallelism`] (falling back to 1).
//!
//! Steps 2 and 3 are [`env_num_threads`], which `cscnn-sim`'s simulation
//! worker pool (`BatchRunner`, `Runner::run_suite`) calls too, so
//! `CSCNN_NUM_THREADS` sizes both halves of the system through one parser,
//! [`parse_num_threads`]. [`set_num_threads`] sizes the job runner only: it
//! never reaches the simulation pool.

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

/// Overrides the thread budget for this process.
///
/// Takes precedence over `CSCNN_NUM_THREADS` and the hardware default.
/// Because jobs compute the same results on any thread, changing this
/// mid-run (even while jobs run) affects only scheduling, never results.
///
/// # Panics
///
/// Panics if `n` is 0 or exceeds [`MAX_THREADS`].
pub fn set_num_threads(n: usize) {
    assert!(
        (1..=MAX_THREADS).contains(&n),
        "thread count must be in 1..={MAX_THREADS}, got {n}"
    );
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// Removes any [`set_num_threads`] override, returning to the
/// environment/hardware default.
pub fn reset_num_threads() {
    OVERRIDE.store(0, Ordering::SeqCst);
}

/// The most threads [`run_jobs`] may use; a call with fewer jobs uses
/// fewer.
///
/// # Panics
///
/// Panics (once, on first resolution) if `CSCNN_NUM_THREADS` is set to
/// anything other than an integer in `1..=MAX_THREADS`.
pub fn num_threads() -> usize {
    match OVERRIDE.load(Ordering::SeqCst) {
        0 => *DEFAULT.get_or_init(env_num_threads),
        n => n,
    }
}

/// The thread count the environment asks for: the validated
/// `CSCNN_NUM_THREADS` when set, else the machine's available parallelism,
/// else 1. Both halves of the system read it: [`num_threads`] (once) and
/// `cscnn-sim`'s simulation pool (`cscnn_sim::util::configured_workers`).
///
/// # Panics
///
/// Panics with [`parse_num_threads`]'s message if `CSCNN_NUM_THREADS` is
/// set but invalid.
pub fn env_num_threads() -> usize {
    match std::env::var("CSCNN_NUM_THREADS") {
        Ok(raw) => {
            let parsed = parse_num_threads(&raw);
            let message = parsed.as_ref().err();
            assert!(message.is_none(), "{}", message.map_or("", String::as_str));
            parsed.unwrap_or(1)
        }
        Err(_) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Parses a `CSCNN_NUM_THREADS` value: an integer in `1..=MAX_THREADS`,
/// surrounding whitespace allowed.
///
/// # Errors
///
/// The message naming the accepted range and the rejected value.
pub fn parse_num_threads(raw: &str) -> Result<usize, String> {
    raw.trim()
        .parse::<usize>()
        .ok()
        .filter(|n| (1..=MAX_THREADS).contains(n))
        .ok_or_else(|| {
            format!("CSCNN_NUM_THREADS must be an integer in 1..={MAX_THREADS}, got `{raw}`")
        })
}

/// Runs `job(0)`, …, `job(jobs − 1)` on up to [`num_threads`] threads and
/// returns their results in job order.
///
/// The calling thread is one of the threads; the others are scoped
/// threads started for this call. Each thread claims the next unclaimed
/// job until none is left, so every job runs exactly once, and a result
/// that depends only on its job index is the same whichever thread ran
/// it. A panicking job's panic reaches the caller once every thread has
/// stopped.
pub fn run_jobs<T, F>(jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_jobs_within(num_threads(), jobs, job)
}

/// [`run_jobs`] on at most `budget` threads (at least one), whatever
/// [`num_threads`] says: the claim loop behind [`run_jobs`] and behind
/// `cscnn-sim`'s simulation pool, which sizes itself.
pub fn run_jobs_within<T, F>(budget: usize, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..budget.clamp(1, jobs.max(1)))
            .map(|_| scope.spawn(claim))
            .collect();
        let mut done = claim();
        for helper in helpers {
            match helper.join() {
                Ok(part) => done.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
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

    #[test]
    fn thread_counts_parse_in_range_and_name_the_bad_value() {
        for (raw, want) in [("1", 1), ("3", 3), (" 4\n", 4), ("512", 512)] {
            assert_eq!(parse_num_threads(raw), Ok(want), "{raw:?}");
        }
        for raw in ["0", "513", "10000", "-1", "2.5", "", " ", "four", "0x4"] {
            assert_eq!(
                parse_num_threads(raw),
                Err(format!(
                    "CSCNN_NUM_THREADS must be an integer in 1..=512, got `{raw}`"
                )),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn jobs_return_in_job_order_and_each_runs_once() {
        for (budget, jobs) in [(1, 15), (2, 15), (7, 15), (7, 2)] {
            let runs: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            let results = run_jobs_within(budget, jobs, |i| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                10 * i
            });
            let want: Vec<usize> = (0..jobs).map(|i| 10 * i).collect();
            assert_eq!(results, want, "budget {budget}, {jobs} jobs");
            assert!(
                runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
                "budget {budget}, {jobs} jobs"
            );
        }
        assert!(run_jobs_within(3, 0, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panicking_job_reaches_the_caller() {
        run_jobs_within(3, 8, |i| assert!(i != 5, "job {i} failed"));
    }
}
