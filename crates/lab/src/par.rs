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
//! - Each task is handed one item of its own: an element of a slice
//!   (`&tasks`), a `&mut` into one (`tasks.iter_mut()`), or an index
//!   (`0..n`). Nothing is shared between tasks, so nothing is locked
//!   around their work.
//! - [`std::thread::scope`] workers claim the next `(index, item)` from
//!   one shared iterator — the pool's only lock — so an expensive
//!   straggler doesn't serialize a whole chunk behind it.
//! - Each worker hands back the `(index, result)` pairs it produced
//!   through its thread's `join`, and the caller puts them in index
//!   order: `results[i] == f(i, item_i)` regardless of which worker ran
//!   it or when.
//! - A panic in any task reaches the caller with its own payload (`join`
//!   returns it and it is re-raised), matching the sequential failure
//!   mode.
//!
//! Worker count comes from the `PUNCH_JOBS` environment variable when
//! set (minimum 1), otherwise [`std::thread::available_parallelism`].
//! `PUNCH_JOBS=1` recovers the exact sequential execution on the
//! calling thread — handy for profiling and for the determinism
//! regression tests in `punch-natcheck`.

use punch_net::MetricsSnapshot;
use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};

/// Returns the worker count [`run`] will use: `PUNCH_JOBS` if set to a
/// positive integer, else the machine's available parallelism.
pub fn jobs() -> usize {
    parse_jobs(std::env::var("PUNCH_JOBS").ok().as_deref()).unwrap_or_else(detected_cores)
}

/// Returns the machine's detected parallelism, ignoring `PUNCH_JOBS`.
/// Benchmarks record this next to the effective worker count so a
/// "speedup" measured on a single-core host is recognizable as such.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_jobs(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Runs `f(i, item)` for the `i`-th item of `items` on the default
/// worker pool (see [`jobs`]) and returns the results in item order.
pub fn run<I, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    run_with_workers(items, jobs(), f)
}

/// Convenience for index-only fan-outs: runs `f(i)` for `i in 0..n` on
/// the default worker pool and returns results in index order.
pub fn run_n<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run(0..n, |_, i| f(i))
}

/// [`run`] with an explicit worker count. Results are in item order for
/// any `workers >= 1`; the determinism tests exercise this directly.
pub fn run_with_workers<I, R, F>(items: I, workers: usize, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let workers = workers.min(items.len());
    if workers <= 1 {
        // Pure sequential path: no threads, no lock, same results.
        return items.enumerate().map(|(i, item)| f(i, item)).collect();
    }

    // The pool's one lock. Only a panic inside `next` poisons it, and
    // `join` below re-raises that panic, so the poison is ignored.
    let queue = Mutex::new(items.enumerate());
    let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some((i, item)) = claim() {
                        mine.push((i, f(i, item)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Runs metrics-producing tasks on the default worker pool and merges
/// their [`MetricsSnapshot`] shards **in item order**.
///
/// Each task returns its result plus the snapshot of its own private
/// `Sim`; because the merge folds shards by item index — never by
/// completion order — the combined snapshot (and its JSON export) is
/// byte-identical for any worker count, same as the results vector.
pub fn run_merge_metrics<I, R, F>(items: I, f: F) -> (Vec<R>, MetricsSnapshot)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(usize, I::Item) -> (R, MetricsSnapshot) + Sync,
{
    run_merge_metrics_with_workers(items, jobs(), f)
}

/// [`run_merge_metrics`] with an explicit worker count.
// punch-lint: allow(S005) natcheck/tests/par_determinism.rs merges the same tasks at 1, 2 and 8 workers
pub fn run_merge_metrics_with_workers<I, R, F>(
    items: I,
    workers: usize,
    f: F,
) -> (Vec<R>, MetricsSnapshot)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(usize, I::Item) -> (R, MetricsSnapshot) + Sync,
{
    let (results, shards): (Vec<R>, Vec<MetricsSnapshot>) =
        run_with_workers(items, workers, f).into_iter().unzip();
    let mut merged = MetricsSnapshot::default();
    for shard in &shards {
        merged.merge(shard);
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
