//! Deterministic parallel experiment runner.
//!
//! Every experiment in this workspace is a fan-out of **independent**
//! simulations: each task owns its own [`punch_net::Sim`] seeded from
//! task-local data, so tasks share no state and their results depend
//! only on their inputs — never on scheduling. That makes parallelism
//! safe to bolt on *after the fact*: [`run`] executes the tasks on a
//! small worker pool and returns results **in task order**, so output
//! is byte-identical to the sequential run for any worker count.
//!
//! Design:
//!
//! - [`std::thread::scope`] workers pull task indices from a single
//!   [`AtomicUsize`] — classic work-stealing-free chunkless queue, so
//!   an expensive straggler doesn't serialize a whole chunk behind it.
//! - Each result is written into its task's dedicated slot; the caller
//!   sees `results[i] == f(i, &tasks[i])` regardless of which worker
//!   ran it or when.
//! - A panic in any task propagates to the caller (the scope re-raises
//!   it on join), matching the sequential failure mode.
//!
//! Worker count comes from the `PUNCH_JOBS` environment variable when
//! set (minimum 1), otherwise [`std::thread::available_parallelism`].
//! `PUNCH_JOBS=1` recovers the exact sequential execution on the
//! calling thread — handy for profiling and for the determinism
//! regression tests in `punch-natcheck`.

use punch_net::MetricsSnapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Returns the worker count [`run`] will use: `PUNCH_JOBS` if set to a
/// positive integer, else the machine's available parallelism.
pub fn jobs() -> usize {
    parse_jobs(std::env::var("PUNCH_JOBS").ok().as_deref()).unwrap_or_else(default_jobs)
}

/// Returns the machine's detected parallelism, ignoring `PUNCH_JOBS`.
/// Benchmarks record this next to the effective worker count so a
/// "speedup" measured on a single-core host is recognizable as such.
pub fn detected_cores() -> usize {
    default_jobs()
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_jobs(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Runs `f(i, &tasks[i])` for every task on the default worker pool
/// (see [`jobs`]) and returns the results in task order.
pub fn run<T, R, F>(tasks: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_with_workers(tasks, jobs(), f)
}

/// Convenience for index-only fan-outs: runs `f(i)` for `i in 0..n` on
/// the default worker pool and returns results in index order.
pub fn run_n<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    run(&indices, |_, &i| f(i))
}

/// [`run`] with an explicit worker count. Results are in task order for
/// any `workers >= 1`; the determinism tests exercise this directly.
pub fn run_with_workers<T, R, F>(tasks: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        // Pure sequential path: no threads, no locks, same results.
        return tasks.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i, &tasks[i]);
                #[expect(clippy::unwrap_used, reason = "lock is poisoned only if another worker already panicked; propagate it")]
                let mut slot = slots[i].lock().unwrap();
                *slot = Some(result);
            });
        }
        // Scope joins every worker here and re-raises the first panic.
    });
    slots
        .into_iter()
        .map(|slot| {
            #[expect(clippy::expect_used, reason = "lock is poisoned only if a worker already panicked; propagate it")]
            let stored = slot.into_inner().expect("worker panicked while storing a result");
            #[expect(clippy::expect_used, reason = "the claim counter guarantees every slot was filled exactly once")]
            let result = stored.expect("every claimed task stores exactly one result");
            result
        })
        .collect()
}

/// Runs metrics-producing tasks on the default worker pool and merges
/// their [`MetricsSnapshot`] shards **in task order**.
///
/// Each task returns its result plus the snapshot of its own private
/// `Sim`; because the merge folds shards by task index — never by
/// completion order — the combined snapshot (and its JSON export) is
/// byte-identical for any worker count, same as the results vector.
pub fn run_merge_metrics<T, R, F>(tasks: &[T], f: F) -> (Vec<R>, MetricsSnapshot)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> (R, MetricsSnapshot) + Sync,
{
    run_merge_metrics_with_workers(tasks, jobs(), f)
}

/// [`run_merge_metrics`] with an explicit worker count.
// punch-lint: allow(S005) natcheck/tests/par_determinism.rs merges the same tasks at 1, 2 and 8 workers
pub fn run_merge_metrics_with_workers<T, R, F>(
    tasks: &[T],
    workers: usize,
    f: F,
) -> (Vec<R>, MetricsSnapshot)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> (R, MetricsSnapshot) + Sync,
{
    let pairs = run_with_workers(tasks, workers, f);
    let mut merged = MetricsSnapshot::default();
    let mut results = Vec::with_capacity(pairs.len());
    for (r, shard) in pairs {
        merged.merge(&shard);
        results.push(r);
    }
    (results, merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_task_order_for_any_worker_count() {
        let tasks: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = tasks.iter().map(|&t| t * t + 1).collect();
        for workers in [1, 2, 3, 8, 64, 1000] {
            let got = run_with_workers(&tasks, workers, |_, &t| t * t + 1);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn closure_sees_matching_index_and_task() {
        let tasks: Vec<usize> = (0..100).map(|i| i * 10).collect();
        let got = run_with_workers(&tasks, 4, |i, &t| {
            assert_eq!(t, i * 10);
            i
        });
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_task_list_yields_empty_results() {
        let got: Vec<u32> = run_with_workers(&[] as &[u8], 8, |_, _| 1);
        assert!(got.is_empty());
    }

    #[test]
    fn run_n_covers_every_index_once() {
        let got = run_n(50, |i| i * 3);
        assert_eq!(got, (0..50).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with_workers(&[0u32, 1, 2, 3], 2, |_, &t| {
                if t == 2 {
                    panic!("task failure");
                }
                t
            })
        }));
        assert!(result.is_err(), "panic in a task must reach the caller");
    }

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs(Some("4")), Some(4));
        assert_eq!(parse_jobs(Some(" 16 ")), Some(16));
        assert_eq!(parse_jobs(Some("0")), None);
        assert_eq!(parse_jobs(Some("-2")), None);
        assert_eq!(parse_jobs(Some("all")), None);
        assert_eq!(parse_jobs(None), None);
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn merged_metrics_identical_for_any_worker_count() {
        use punch_net::{MetricKey, MetricsSnapshot};
        use std::time::Duration;
        let tasks: Vec<u64> = (0..37).collect();
        let shard = |_i: usize, &t: &u64| {
            let mut m = MetricsSnapshot::default();
            m.inc_by(MetricKey::plain("task.count"), 1);
            m.inc_by(MetricKey::labeled("task.value", "sum"), t);
            m.observe(MetricKey::plain("task.work"), Duration::from_millis(t));
            (t, m)
        };
        let (seq_results, seq_merged) = run_merge_metrics_with_workers(&tasks, 1, shard);
        assert_eq!(seq_merged.counter("task.count", ""), 37);
        for workers in [2, 3, 8] {
            let (results, merged) = run_merge_metrics_with_workers(&tasks, workers, shard);
            assert_eq!(results, seq_results, "workers={workers}");
            assert_eq!(merged, seq_merged, "workers={workers}");
            assert_eq!(merged.to_json(), seq_merged.to_json(), "workers={workers}");
        }
    }
}
