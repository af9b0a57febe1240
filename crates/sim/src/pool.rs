//! The deterministic worker pool shared by every parallel driver in the
//! workspace — [`RunGrid`](crate::RunGrid), the fleet runner and the bench
//! harness — and the one rule that sizes it.
//!
//! [`run_indexed`] runs a closure over indexed items and hands each result
//! back with its index, so callers re-assemble in index order and the
//! output never depends on the worker count or on completion order.
//! [`resolve_jobs`] picks the worker count: an explicit override, then
//! `ETRAIN_JOBS`, then the machine's available parallelism, never more
//! workers than tasks.

use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::channel;

/// The environment variable that overrides the worker-pool size.
pub const JOBS_ENV: &str = "ETRAIN_JOBS";

/// Runs `job` on every item across `workers` threads, calling
/// `on_result(index, result)` on the calling thread as each result
/// arrives — out of index order under the pool, so callers that need
/// order store results by index.
///
/// With `workers <= 1` (or at most one item) everything runs in-line on
/// the calling thread, in index order, spawning no thread and allocating
/// no channel.
///
/// # Panics
///
/// A panic inside `job` reaches the caller: in-line it unwinds straight
/// through; on the pool the other workers finish the remaining items and
/// the scope then re-raises the panic on the calling thread.
pub fn run_indexed<I, T, F, R>(items: &[I], workers: usize, job: F, mut on_result: R)
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
    R: FnMut(usize, T),
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        for (index, item) in items.iter().enumerate() {
            on_result(index, job(item));
        }
        return;
    }
    // Each worker claims the next unclaimed index. `Relaxed` suffices: the
    // counter publishes no data (items are shared read-only and results
    // travel through the channel).
    let next = AtomicUsize::new(0);
    let (result_tx, result_rx) = channel::unbounded::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let result_tx = result_tx.clone();
            let (next, job) = (&next, &job);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else { return };
                if result_tx.send((index, job(item))).is_err() {
                    return;
                }
            });
        }
        // Drain on the calling thread *while workers run*, so `on_result`
        // (and therefore periodic checkpointing) fires mid-run. The
        // iterator ends when the workers drop their sender clones.
        drop(result_tx);
        for (index, result) in result_rx.iter() {
            on_result(index, result);
        }
    });
}

/// The worker count for `tasks` tasks: `override_jobs` if set, else a
/// positive integer in `ETRAIN_JOBS`, else the machine's available
/// parallelism — clamped to `1..=tasks` (`0` means one worker). A
/// malformed `ETRAIN_JOBS` counts as unset and warns once on stderr;
/// binaries that must fail fast validate it with [`try_jobs_from_env`]
/// first.
pub fn resolve_jobs(override_jobs: Option<usize>, tasks: usize) -> usize {
    resolve(
        override_jobs,
        std::env::var(JOBS_ENV).ok().as_deref(),
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        tasks,
    )
}

/// [`resolve_jobs`] as a pure function of the environment value and the
/// detected parallelism (only queried when nothing else decides).
fn resolve(
    override_jobs: Option<usize>,
    env: Option<&str>,
    detected: impl FnOnce() -> usize,
    tasks: usize,
) -> usize {
    override_jobs
        .or_else(|| jobs_from_env(env))
        .unwrap_or_else(detected)
        .clamp(1, tasks.max(1))
}

/// Parses an `ETRAIN_JOBS` value strictly: `Ok(None)` when unset or empty,
/// `Ok(Some(n))` for a positive integer, and `Err` (with a human-readable
/// reason) for anything else — including `0`, which would silently mean
/// "not set" under the lenient reader.
///
/// # Errors
///
/// Returns the reason the value is unusable, prefixed with the variable
/// name.
pub fn try_jobs_from_env(value: Option<&str>) -> Result<Option<usize>, String> {
    let raw = match value {
        None => return Ok(None),
        Some(raw) => raw.trim(),
    };
    if raw.is_empty() {
        return Ok(None);
    }
    match raw.parse::<usize>() {
        Ok(0) => Err(format!("{JOBS_ENV}={raw:?}: worker count must be >= 1")),
        Ok(jobs) => Ok(Some(jobs)),
        Err(_) => Err(format!(
            "{JOBS_ENV}={raw:?}: expected a positive integer worker count"
        )),
    }
}

/// Lenient `ETRAIN_JOBS` reader for library paths: unparseable values fall
/// back to "not set", but the first bad value warns once on stderr so a
/// typo like `ETRAIN_JOBS=fuor` doesn't quietly run on every core.
fn jobs_from_env(value: Option<&str>) -> Option<usize> {
    match try_jobs_from_env(value) {
        Ok(jobs) => jobs,
        Err(reason) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!("warning: ignoring {reason}");
            });
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunGrid, RunSpec};
    use crate::scenario::Scenario;

    #[test]
    fn resolve_jobs_table() {
        // (override, ETRAIN_JOBS, detected, tasks) -> workers
        let table = [
            // The override beats the environment and the detected count.
            (Some(3), Some("8"), 16, 10, 3),
            (Some(3), None, 16, 10, 3),
            // The environment beats the detected count.
            (None, Some("4"), 16, 10, 4),
            (None, Some(" 8 "), 16, 10, 8),
            // Unset or empty falls through to the detected count.
            (None, None, 6, 10, 6),
            (None, Some(""), 6, 10, 6),
            // `0` means one worker; an `ETRAIN_JOBS=0` is malformed.
            (Some(0), Some("8"), 16, 10, 1),
            (None, Some("0"), 6, 10, 6),
            // Malformed environment values count as unset.
            (None, Some("zero"), 6, 10, 6),
            (None, Some("fuor"), 2, 10, 2),
            // Never more workers than tasks, and never fewer than one.
            (Some(64), None, 2, 4, 4),
            (None, Some("8"), 2, 3, 3),
            (None, None, 16, 4, 4),
            (None, None, 16, 0, 1),
        ];
        for (override_jobs, env, detected, tasks, want) in table {
            assert_eq!(
                resolve(override_jobs, env, || detected, tasks),
                want,
                "override {override_jobs:?}, env {env:?}, detected {detected}, tasks {tasks}"
            );
        }
        // The live resolver always yields a usable count.
        assert!(resolve_jobs(None, usize::MAX) >= 1);
        // The grid builder's override flows through the same rule.
        let grid = || {
            RunGrid::from_specs(
                (0..4)
                    .map(|i| RunSpec::new(format!("job {i}"), Scenario::paper_default()))
                    .collect(),
            )
        };
        assert_eq!(grid().jobs(64).effective_jobs(), 4);
        assert_eq!(grid().jobs(0).effective_jobs(), 1);
        assert_eq!(RunGrid::new().effective_jobs(), 1);
    }

    #[test]
    fn strict_jobs_parsing_rejects_what_the_lenient_reader_swallows() {
        assert_eq!(try_jobs_from_env(None), Ok(None));
        assert_eq!(try_jobs_from_env(Some("  ")), Ok(None));
        assert_eq!(try_jobs_from_env(Some("4")), Ok(Some(4)));
        let zero = try_jobs_from_env(Some("0")).unwrap_err();
        assert!(zero.contains(">= 1"), "{zero}");
        let junk = try_jobs_from_env(Some("fuor")).unwrap_err();
        assert!(junk.contains("positive integer"), "{junk}");
        assert!(junk.contains(JOBS_ENV), "{junk}");
    }

    #[test]
    fn pool_results_carry_their_index() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [0, 1, 2, 5, 64] {
            let mut seen = vec![None; items.len()];
            run_indexed(
                &items,
                workers,
                |&x| x * x,
                |index, sq| {
                    assert!(seen[index].is_none(), "index {index} reported twice");
                    seen[index] = Some(sq);
                },
            );
            let want: Vec<Option<u64>> = items.iter().map(|&x| Some(x * x)).collect();
            assert_eq!(seen, want, "{workers} workers");
        }
    }

    #[test]
    fn in_line_pool_stays_on_the_calling_thread_in_order() {
        let caller = std::thread::current().id();
        let mut order = Vec::new();
        run_indexed(
            &[10, 20, 30],
            1,
            |&x| {
                assert_eq!(std::thread::current().id(), caller);
                x + 1
            },
            |index, value| order.push((index, value)),
        );
        assert_eq!(order, vec![(0, 11), (1, 21), (2, 31)]);
    }

    #[test]
    #[should_panic]
    fn pooled_panic_reaches_the_caller() {
        let items: Vec<u32> = (0..8).collect();
        run_indexed(
            &items,
            4,
            |&x| {
                assert_ne!(x, 5, "job 5 fails");
                x
            },
            |_, _| {},
        );
    }
}
