//! Property test: the calendar queue is order-equivalent to the binary
//! heap it replaced.
//!
//! The engine's determinism contract — and every pinned `results/*`
//! artifact — rests on events dispatching in exact `(time, seq)` order.
//! The old implementation got that order from a `BinaryHeap` with a
//! reversed comparator; the calendar queue must reproduce it bit for
//! bit over arbitrary schedules, including the awkward cases: same-day
//! ties, far-future overflow entries, pushes below an already-scanned
//! day, interleaved pops, wheel growth mid-stream, same-instant bursts
//! far larger than a bucket's first buffer, pushes into the day whose
//! sorted working set is being served (the merge path), a WAN hop's
//! 30–36 ms ahead on the default wheel, which is shorter than that, the
//! wheel sized to a link's delay mid-stream, the front's item
//! rewritten in place (how the engine serves a burst), and a queue
//! that starts small, is sized before its wheel exists, crosses 64
//! entries with its front just rewritten, and drains back below 64.

use proptest::prelude::*;
use punch_net::calendar::CalendarQueue;
use punch_net::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `now + offset_ns` (sim time never runs backwards, but
    /// pushes may land before previously scheduled events).
    Push { offset_ns: u64 },
    /// Pop the front; advances the model clock like `Sim::step`.
    Pop,
    /// Pop everything at the current front instant (a same-time burst).
    PopBurst,
    /// Grow the wheel, as `add_node` does while a world is built.
    Grow { actors: usize },
    /// `n` pushes at one instant, as a jitter-free crowd schedules them:
    /// one bucket grows far past the buffer size the queue recycles.
    Burst { offset_ns: u64, n: usize },
    /// Push into the day the queue's front is in — the day whose sorted
    /// working set is being served — at or after the clock, possibly
    /// ahead of the front itself.
    PushIntoFrontDay { pick: u64 },
    /// Size the wheel for a link delay, as `Sim::connect` does.
    Horizon { ns: u64 },
    /// Change the front's item through `front_item_mut`; it must still
    /// pop next, under the same `(at, seq)`.
    RewriteFront,
    /// Push until the queue holds `n` entries, cycling through `offsets`
    /// past the clock.
    Fill { n: usize, offsets: Vec<u64> },
    /// Pop until the queue holds at most `n` entries.
    DrainTo { n: usize },
}

/// The queue's day width (`calendar::DAY_SHIFT`, private to it).
const DAY_NS: u64 = 1 << 16;

/// The reference model: min-order on `(at, seq)` via `Reverse`, exactly
/// the order the old `BinaryHeap<Scheduled>` produced, and each entry's
/// item (keys are unique, so it never decides the order).
type Model = BinaryHeap<Reverse<(SimTime, u64, u32)>>;

/// Pushes one entry at `at` into both queues under the next sequence number.
fn push_both(cal: &mut CalendarQueue<u32>, heap: &mut Model, seq: &mut u64, at: SimTime) {
    cal.push(at, *seq, *seq as u32);
    heap.push(Reverse((at, *seq, *seq as u32)));
    *seq += 1;
}

/// A WAN delivery: `LinkSpec::wan()`'s 30 ms plus up to 3 ms of jitter,
/// and a little beyond.
fn wan_push() -> impl Strategy<Value = Op> {
    (30_000_000u64..36_000_000).prop_map(|offset_ns| Op::Push { offset_ns })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Near-future pushes (the hot regime for the wheel)...
        (0u64..50_000_000).prop_map(|offset_ns| Op::Push { offset_ns }),
        // ...same-instant and same-day ties...
        (0u64..200).prop_map(|offset_ns| Op::Push { offset_ns }),
        // ...WAN distance, just past the minimum wheel's ~16.8 ms...
        wan_push(),
        // ...and far-future entries that must use the overflow tier.
        (0u64..120_000_000_000).prop_map(|offset_ns| Op::Push { offset_ns }),
        Just(Op::Pop),
        Just(Op::PopBurst),
        (1usize..200_000).prop_map(|actors| Op::Grow { actors }),
        // 5000, 2500, ... 1: every size class of the sort, few of them huge.
        (0u64..20_000_000, 0u32..13).prop_map(|(offset_ns, halvings)| Op::Burst {
            offset_ns,
            n: 5000 >> halvings,
        }),
        any::<u64>().prop_map(|pick| Op::PushIntoFrontDay { pick }),
        horizon(),
        Just(Op::RewriteFront),
    ]
}

/// A link delay from LAN to a slow satellite hop.
fn horizon() -> impl Strategy<Value = Op> {
    (0u64..300_000_000).prop_map(|ns| Op::Horizon { ns })
}

/// A small world's steady state: most pushes a WAN hop ahead of the
/// clock, some local, pops keeping pace, and the wheel growing now and
/// then underneath (a world is built while it already runs).
fn wan_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        wan_push(),
        wan_push(),
        wan_push(),
        (0u64..2 * DAY_NS).prop_map(|offset_ns| Op::Push { offset_ns }),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::PopBurst),
        (1usize..300).prop_map(|actors| Op::Grow { actors }),
        horizon(),
        Just(Op::RewriteFront),
        Just(Op::RewriteFront),
    ]
}

/// The queue's tier switch (`calendar::WHEEL_AT`, private to it): a push
/// past this many entries builds the wheel.
const WHEEL_AT: usize = 64;

/// A push offset from any of `arb_op`'s ranges.
fn offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..50_000_000,
        0u64..200,
        30_000_000u64..36_000_000,
        0u64..120_000_000_000,
    ]
}

/// An operation that adds at most one entry, sizing calls included.
fn single_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        offset().prop_map(|offset_ns| Op::Push { offset_ns }),
        offset().prop_map(|offset_ns| Op::Push { offset_ns }),
        Just(Op::Pop),
        Just(Op::PopBurst),
        (1usize..200_000).prop_map(|actors| Op::Grow { actors }),
        horizon(),
        any::<u64>().prop_map(|pick| Op::PushIntoFrontDay { pick }),
        Just(Op::RewriteFront),
    ]
}

/// A queue that starts empty and crosses [`WHEEL_AT`] entries at an
/// arbitrary step: fewer than 40 single-entry operations (sizing calls
/// before any wheel exists among them), a fill to exactly `WHEEL_AT`, the
/// front rewritten in place, the crossing push, arbitrary operations, a
/// drain back below `WHEEL_AT`, and more operations on the drained queue.
fn crossing() -> impl Strategy<Value = Vec<Op>> {
    let ops = |n| proptest::collection::vec(single_op(), 0..n);
    (
        ops(40),
        proptest::collection::vec(offset(), 1..8),
        offset(),
        proptest::collection::vec(arb_op(), 0..100),
        0..WHEEL_AT,
        ops(100),
    )
        .prop_map(|(before, offsets, crossing, after, low, tail)| {
            let mut script = before;
            script.push(Op::Fill {
                n: WHEEL_AT,
                offsets,
            });
            script.push(Op::RewriteFront);
            script.push(Op::Push {
                offset_ns: crossing,
            });
            script.extend(after);
            script.push(Op::DrainTo { n: low });
            script.extend(tail);
            script
        })
}

/// Runs `ops` against a default-sized queue and the heap model, then
/// drains both; every pop and every length must agree.
fn check(ops: &[Op]) {
    let mut cal: CalendarQueue<u32> = CalendarQueue::new();
    let mut heap = Model::new();
    let mut seq = 0u64;
    let mut now = SimTime::ZERO;

    for op in ops {
        match op {
            Op::Push { offset_ns } => {
                let at = now + Duration::from_nanos(*offset_ns);
                push_both(&mut cal, &mut heap, &mut seq, at);
            }
            Op::Pop => {
                // Peek first, as the run loops do, so the cursor
                // scans ahead before pops and rewinds get exercised.
                let peeked = cal.next_at();
                prop_assert_eq!(peeked, heap.peek().map(|r| r.0.0));
                let got = cal.pop_front().map(|e| (e.at, e.seq, e.item));
                let want = heap.pop().map(|Reverse(k)| k);
                prop_assert_eq!(got, want);
                if let Some((at, _, _)) = got {
                    now = at;
                }
            }
            Op::PopBurst => {
                let Some(front) = heap.peek().map(|r| r.0.0) else {
                    prop_assert!(cal.pop_front().is_none());
                    continue;
                };
                while heap.peek().is_some_and(|r| r.0.0 == front) {
                    let got = cal.pop_front().map(|e| (e.at, e.seq, e.item));
                    let want = heap.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(got, want);
                }
                now = front;
            }
            Op::Grow { actors } => {
                cal.ensure_capacity_for(*actors);
            }
            Op::Burst { offset_ns, n } => {
                let at = now + Duration::from_nanos(*offset_ns);
                for _ in 0..*n {
                    push_both(&mut cal, &mut heap, &mut seq, at);
                }
            }
            Op::PushIntoFrontDay { pick } => {
                // Peek as the run loops do, so the front's day is
                // drained and sorted before the push lands in it.
                let front = cal.next_at().unwrap_or(now).as_nanos();
                let day_start = front - front % DAY_NS;
                let lo = day_start.max(now.as_nanos());
                let at = SimTime::from_nanos(lo + pick % (day_start + DAY_NS - lo));
                push_both(&mut cal, &mut heap, &mut seq, at);
            }
            Op::Horizon { ns } => {
                cal.ensure_horizon(Duration::from_nanos(*ns));
            }
            Op::RewriteFront => {
                let rewritten = cal.front_item_mut().map(|item| {
                    *item = !*item;
                    *item
                });
                match heap.pop() {
                    Some(Reverse((at, s, _))) => {
                        prop_assert!(rewritten.is_some());
                        heap.push(Reverse((at, s, rewritten.unwrap_or_default())));
                    }
                    None => prop_assert!(rewritten.is_none()),
                }
            }
            Op::Fill { n, offsets } => {
                for offset_ns in offsets.iter().cycle().take(n.saturating_sub(heap.len())) {
                    let at = now + Duration::from_nanos(*offset_ns);
                    push_both(&mut cal, &mut heap, &mut seq, at);
                }
            }
            Op::DrainTo { n } => {
                while heap.len() > *n {
                    let got = cal.pop_front().map(|e| (e.at, e.seq, e.item));
                    let want = heap.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(got, want);
                    if let Some((at, _, _)) = got {
                        now = at;
                    }
                }
            }
        }
        prop_assert_eq!(cal.len(), heap.len());
    }

    // Drain: the full remaining sequences must match.
    while let Some(Reverse(want)) = heap.pop() {
        let got = cal.pop_front().map(|e| (e.at, e.seq, e.item));
        prop_assert_eq!(got, Some(want));
    }
    prop_assert!(cal.pop_front().is_none());
    prop_assert!(cal.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn calendar_pops_in_exact_heap_order(ops in proptest::collection::vec(arb_op(), 1..400)) {
        check(&ops);
    }

    #[test]
    fn wan_schedules_pop_in_exact_heap_order(ops in proptest::collection::vec(wan_op(), 1..600)) {
        check(&ops);
    }

    #[test]
    fn a_queue_crossing_into_its_wheel_pops_in_exact_heap_order(ops in crossing()) {
        check(&ops);
    }
}
