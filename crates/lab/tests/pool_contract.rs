//! The worker pool's contract, over every kind of item it lends: results
//! in task order at any worker count, each task writing only its own
//! item, and a task's panic reaching the caller with its own payload.

use punch_lab::par;
use punch_lab::shard::{ShardConfig, ShardedWorld};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn results_come_back_in_task_order() {
    for n in [0u64, 1, 97] {
        let expected: Vec<u64> = (0..n).map(|t| t * 31 + 7).collect();
        for workers in [1, 2, 8] {
            let mut items: Vec<u64> = (0..n).collect();
            let order = par::run_with_workers(&mut items, workers, |i, item| {
                assert_eq!(i as u64, *item);
                *item = *item * 31 + 7;
                i
            });
            assert_eq!(items, expected, "{n} tasks at {workers} workers");
            assert_eq!(
                order,
                (0..n as usize).collect::<Vec<_>>(),
                "{n} tasks at {workers} workers"
            );
        }
    }
}

#[test]
fn sharded_report_is_identical_at_1_and_4_workers() {
    let report = |workers| {
        let mut cfg = ShardConfig::new(11, 24);
        cfg.shards = 4;
        cfg.workers = Some(workers);
        let mut world = ShardedWorld::build(&cfg);
        world.run();
        world.report()
    };
    assert_eq!(report(1), report(4));
}

#[test]
fn a_task_panic_reaches_the_caller_with_its_payload() {
    let mut items: Vec<u32> = (0..8).collect();
    let err = catch_unwind(AssertUnwindSafe(|| {
        par::run_with_workers(&mut items, 2, |_, item| {
            if *item == 3 {
                panic!("task 3");
            }
            *item += 1;
        })
    }))
    .expect_err("the task's panic must reach the caller");
    assert_eq!(err.downcast_ref::<&str>(), Some(&"task 3"));
}
