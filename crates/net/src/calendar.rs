//! A calendar (bucket) priority queue for simulation events.
//!
//! The engine dispatches events in strict `(time, sequence)` order. A
//! binary heap gives that order in `O(log n)` per operation with poor
//! cache behaviour once it is large: every push and pop shuffles entries
//! across the whole array. A calendar queue exploits what a heap cannot —
//! simulated time only moves forward, and most events are scheduled a
//! short, bounded distance into the future — to make both operations
//! amortized `O(1)`:
//!
//! - Time is divided into fixed-width *days* of `2^DAY_SHIFT` nanoseconds.
//! - A power-of-two ring of buckets (the *wheel*) holds every event whose
//!   day falls inside the horizon. A bucket is the 4-byte head of a list
//!   threaded through one entry *slab*. A drained entry's slot goes to a
//!   free list and is reused before the slab grows, so a day allocates
//!   nothing and the slab holds the most entries the wheel held at once.
//! - The horizon rolls with the cursor: a push less than `buckets` days
//!   past it lands in the wheel. The engine sizes the wheel from each
//!   link's latency plus jitter ([`CalendarQueue::ensure_horizon`]), so
//!   no delivery over a connected link leaves it.
//! - Beyond the horizon — long timers (keepalives, give-up deadlines) —
//!   entries wait in an *overflow* binary heap and migrate into the
//!   wheel as the horizon reaches them, each exactly once.
//! - Popping drains the earliest occupied day into a working set sorted
//!   descending by `(at, seq)` and serves from its tail; entries are
//!   copied out of the slab, so the sort compares them in place. It is a
//!   run-adaptive stable merge: the ordered working set is one run, a
//!   bucket's list (newest first) a few more, so same-day arrivals are
//!   merged in rather than the whole set quick-sorted again (keys are
//!   unique, so stability changes nothing observable). The working set
//!   keeps the capacity of its largest day.
//!
//! A small queue is better served by a heap. Its days are sparse, so the
//! wheel pays a scan, a drain and a sort for nearly every event and gets
//! nothing back: a six-node NAT Check world never holds more than 19
//! entries. So a queue starts as a plain binary min-heap on
//! `(at, seq)` and serves its front in place. The push that takes it past
//! `WHEEL_AT` = 64 entries builds the wheel and files every entry in it;
//! the wheel then serves the queue for good, even if it drains again.
//! The switch is the queue's own depth, not a setting. The benchmark's
//! worlds peak at 19 entries (NAT Check), 2 (a rendezvous server under a
//! datagram storm), 451 (a TCP stream) and thousands (crowds, fleets),
//! so any bound from 19 to 450 splits them the same way.
//!
//! The pop order is **exactly** the `(at, seq)` order a `BinaryHeap` with
//! the same reversed comparator would produce in either tier — the
//! property the pinned result artifacts rest on — verified against a
//! heap model over arbitrary schedules, including queues that cross
//! into their wheel, in `tests/proptest_calendar.rs`.
//!
//! The wheel starts small and grows to a horizon
//! ([`CalendarQueue::ensure_horizon`]), to a population
//! ([`CalendarQueue::ensure_capacity_for`], from the node count as the
//! world is built) and when the overflow tier comes under pressure, so a
//! million-endpoint world and a three-node unit test both get a
//! right-sized ring. Before the wheel exists those calls only record the
//! size it will be built with.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Width of one bucket ("day") as a power of two: `2^16` ns ≈ 65.5 µs,
/// comfortably below the shortest stock link latency (200 µs LAN), so a
/// forwarding chain almost never lands in the bucket it is draining.
const DAY_SHIFT: u32 = 16;

/// Most entries the heap tier holds: the push past it builds the wheel.
/// A heap of 64 is six levels deep. The worlds that stay small (NAT
/// Check's, a lone rendezvous server) peak at 19 entries or fewer, the
/// deep ones at hundreds to tens of thousands.
const WHEEL_AT: usize = 64;

/// Smallest wheel: 256 buckets ≈ a 16.8 ms horizon.
const MIN_BUCKETS: usize = 256;

/// Largest wheel: 65 536 buckets ≈ a 4.3 s horizon, enough to keep punch
/// round-trips and spray timers out of the overflow tier at million-node
/// scale while costing 256 KiB of bucket heads.
const MAX_BUCKETS: usize = 1 << 16;

/// Cap for the *derived* pre-size (536 ms horizon): large worlds keep
/// their dense near-future traffic in the wheel, while long-period
/// timers (keepalives, give-up deadlines) ride the overflow tier, which
/// handles sparse far-future entries in `O(log n)` without scanning a
/// huge ring. Sustained overflow pressure still grows the wheel
/// adaptively up to [`MAX_BUCKETS`].
const PRESIZE_MAX_BUCKETS: usize = 1 << 13;

/// The end of a slot list: an empty bucket's head, a last slot's `next`,
/// an empty free list. (No slab reaches `u32::MAX` slots: 192 GiB.)
const NIL: u32 = u32::MAX;

/// One queued item, keyed by `(at, seq)`.
///
/// `seq` values must be unique across all live entries (the engine uses
/// a monotone insertion counter); ties on `at` pop in `seq` order.
#[derive(Debug)]
pub struct Entry<T> {
    /// Scheduled simulation time.
    pub at: SimTime,
    /// Insertion sequence number, the tie-break within one instant.
    pub seq: u64,
    /// The payload.
    pub item: T,
}

impl<T> Entry<T> {
    /// Whether `self` pops before `other`.
    #[inline]
    fn precedes(&self, other: &Self) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    /// Reversed on `(at, seq)`: the overflow `BinaryHeap` (a max-heap)
    /// pops earliest-first, and an ascending sort under this order lays a
    /// working set out descending, with the earliest entry at the tail.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A monotone-time priority queue; see the [module docs](self).
pub struct CalendarQueue<T> {
    /// The heap tier: every entry while no wheel exists, as a binary
    /// min-heap on `(at, seq)` whose root is the front. Empty once the
    /// wheel is built.
    heap: Vec<Entry<T>>,
    /// The wheel, once the queue has held more than [`WHEEL_AT`] entries.
    /// Inline rather than boxed: a wheel-tier operation then costs one
    /// branch over the wheel's own.
    wheel: Option<Wheel<T>>,
    /// The size the wheel will be built with: the largest any sizing call
    /// has asked for, a power of two. Unused once the wheel exists.
    buckets: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue; it allocates nothing until its first push.
    pub fn new() -> Self {
        CalendarQueue {
            heap: Vec::new(),
            wheel: None,
            buckets: MIN_BUCKETS,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.wheel.as_ref().map_or(self.heap.len(), |w| w.len)
    }

    /// Returns true if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grows the wheel (it never shrinks) so that a population of
    /// `actors` concurrently-scheduling entities keeps its working set
    /// inside the horizon. The engine calls this as nodes are added,
    /// replacing any fixed pre-size with one derived from world size.
    pub fn ensure_capacity_for(&mut self, actors: usize) {
        self.grow_to(actors.saturating_mul(4).clamp(MIN_BUCKETS, PRESIZE_MAX_BUCKETS));
    }

    /// Grows the wheel (it never shrinks; at most a 4.3 s horizon) so that
    /// an entry pushed `span` after the front stays in it: the engine
    /// passes each link's latency plus jitter. Such an entry is up to
    /// `span / day + 1` days past the front's, so the wheel spans one more.
    pub fn ensure_horizon(&mut self, span: Duration) {
        let days = usize::try_from(span.as_nanos() >> DAY_SHIFT).unwrap_or(usize::MAX);
        self.grow_to(days.saturating_add(2));
    }

    /// Grows the wheel to `target` buckets, rounded up to a power of two
    /// and capped at [`MAX_BUCKETS`]; before the wheel exists, plans it.
    fn grow_to(&mut self, target: usize) {
        let target = target.min(MAX_BUCKETS).next_power_of_two();
        match &mut self.wheel {
            Some(wheel) => wheel.grow_to(target),
            None => self.buckets = self.buckets.max(target),
        }
    }

    /// Inserts an entry. `seq` must be unique among live entries.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let e = Entry { at, seq, item };
        if let Some(wheel) = &mut self.wheel {
            wheel.push(e);
        } else if self.heap.len() < WHEEL_AT {
            self.heap_push(e);
        } else {
            self.build_wheel().push(e);
        }
    }

    /// Builds the wheel at its planned size and files every heap entry in
    /// it. The heap's root goes first, so the wheel's window anchors on
    /// the earliest day.
    #[cold]
    fn build_wheel(&mut self) -> &mut Wheel<T> {
        let mut wheel = Wheel::new(self.buckets);
        for e in std::mem::take(&mut self.heap) {
            wheel.push(e);
        }
        self.wheel.insert(wheel)
    }

    /// The earliest entry, if any, without removing it.
    pub fn front(&mut self) -> Option<&Entry<T>> {
        match &mut self.wheel {
            Some(wheel) => wheel.front(),
            None => self.heap.first(),
        }
    }

    /// The earliest entry's item, for changing in place. Its `at` and
    /// `seq` — its place in the order — are not reachable through it.
    pub fn front_item_mut(&mut self) -> Option<&mut T> {
        match &mut self.wheel {
            Some(wheel) => wheel.front_item_mut(),
            None => self.heap.first_mut().map(|e| &mut e.item),
        }
    }

    /// The earliest entry's scheduled time, if any.
    pub fn next_at(&mut self) -> Option<SimTime> {
        self.front().map(|e| e.at)
    }

    /// Removes and returns the earliest entry.
    pub fn pop_front(&mut self) -> Option<Entry<T>> {
        match &mut self.wheel {
            Some(wheel) => wheel.pop_front(),
            None => self.heap_pop(),
        }
    }

    /// Adds `e` to the heap tier: appended as a leaf, it rises past every
    /// ancestor it precedes.
    fn heap_push(&mut self, e: Entry<T>) {
        let h = &mut self.heap;
        h.push(e);
        let mut i = h.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if !h[i].precedes(&h[parent]) {
                break;
            }
            h.swap(i, parent);
            i = parent;
        }
    }

    /// Removes the heap tier's root: the last leaf takes its place and
    /// sinks below every child that precedes it.
    fn heap_pop(&mut self) -> Option<Entry<T>> {
        let h = &mut self.heap;
        if h.is_empty() {
            return None;
        }
        let front = h.swap_remove(0);
        let mut i = 0;
        while let Some(left) = h.get(2 * i + 1) {
            let child = match h.get(2 * i + 2) {
                Some(right) if right.precedes(left) => 2 * i + 2,
                _ => 2 * i + 1,
            };
            if !h[child].precedes(&h[i]) {
                break;
            }
            h.swap(i, child);
            i = child;
        }
        Some(front)
    }
}

/// One slab slot: a wheel entry on its bucket's list, or (`entry` is
/// `None`) a free slot on the free list.
struct Slot<T> {
    entry: Option<Entry<T>>,
    next: u32,
}

/// The wheel tier with its overflow heap; see the [module docs](self).
struct Wheel<T> {
    /// The wheel: each bucket's first slab slot, or [`NIL`].
    /// `heads.len()` is a power of two.
    heads: Vec<u32>,
    /// Every wheel entry, each on its bucket's list.
    slab: Vec<Slot<T>>,
    /// First slot of the free list, or [`NIL`].
    free: u32,
    /// One bit per bucket, set iff the bucket is non-empty, so a scan
    /// for the next occupied day is a word-at-a-time bit search instead
    /// of probing empty buckets one simulated day at a time.
    occupied: Vec<u64>,
    /// `heads.len() - 1`, for day-to-index masking.
    mask: u64,
    /// Entries currently stored in the wheel.
    wheel_len: usize,
    /// Next day to scan; every wheel/overflow entry has `day >= cursor`.
    cursor: u64,
    /// Migration horizon: every overflow entry's day is at least this.
    /// Pushes below it or below `cursor + heads.len()` go to the wheel.
    /// May exceed `cursor + heads.len()` after a cursor rewind;
    /// day-filtered draining makes the aliasing harmless.
    migrated_until: u64,
    /// Drained working set, sorted descending by `(at, seq)`; the front
    /// of the queue is its tail.
    current: Vec<Entry<T>>,
    /// Fast-path flag: true while the working set's tail is known to be
    /// the global minimum, letting `front`/`pop_front` skip `prepare`.
    /// Invalidated by any operation that could put an earlier entry in
    /// storage (a push at or before the tail's day, or a pop exposing a
    /// tail from a later day).
    ready: bool,
    /// Events beyond the wheel horizon, earliest on top.
    overflow: BinaryHeap<Entry<T>>,
    /// Total entries across wheel, overflow, and working set.
    len: usize,
}

impl<T> Wheel<T> {
    /// An empty wheel of `buckets` buckets, a power of two of at least 64.
    fn new(buckets: usize) -> Self {
        Wheel {
            heads: vec![NIL; buckets],
            slab: Vec::new(),
            free: NIL,
            occupied: vec![0; buckets / 64],
            mask: buckets as u64 - 1,
            wheel_len: 0,
            cursor: 0,
            migrated_until: buckets as u64,
            current: Vec::new(),
            ready: false,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    #[inline]
    fn day(at: SimTime) -> u64 {
        at.as_nanos() >> DAY_SHIFT
    }

    #[inline]
    fn mark_occupied(&mut self, idx: usize) {
        self.occupied[idx >> 6] |= 1u64 << (idx & 63);
    }

    #[inline]
    fn mark_empty(&mut self, idx: usize) {
        self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
    }

    #[inline]
    fn is_occupied(&self, idx: usize) -> bool {
        self.occupied[idx >> 6] & (1u64 << (idx & 63)) != 0
    }

    /// Files an entry whose day is inside the horizon in its bucket, in
    /// a free slot if there is one.
    #[inline]
    fn store(&mut self, e: Entry<T>) {
        let (at, slot) = (e.at, Slot { entry: Some(e), next: NIL });
        let s = if self.free == NIL {
            #[expect(clippy::expect_used, reason = "more than u32::MAX - 1 queued entries is unreachable (memory exhaustion comes first); a cast would alias slots")]
            let s = u32::try_from(self.slab.len()).expect("calendar slab overflow");
            self.slab.push(slot);
            s
        } else {
            let s = self.free;
            self.free = std::mem::replace(&mut self.slab[s as usize], slot).next;
            s
        };
        self.link(s, at);
        self.wheel_len += 1;
    }

    /// Puts slot `s`, holding an entry at `at`, at the head of its bucket.
    #[inline]
    fn link(&mut self, s: u32, at: SimTime) {
        let idx = (Self::day(at) & self.mask) as usize;
        self.slab[s as usize].next = std::mem::replace(&mut self.heads[idx], s);
        self.mark_occupied(idx);
    }

    /// Ring distance (in buckets, `1..=len`) from `idx` to the next
    /// occupied bucket, or `None` if the whole wheel is empty. A set bit
    /// may belong to a bucket holding only entries of a *later* rotation
    /// (day aliasing), so callers treat the result as a skip distance
    /// over definitely-empty buckets, not a guarantee of a hit.
    fn next_occupied_distance(&self, idx: usize) -> Option<usize> {
        let n = self.heads.len();
        let nwords = self.occupied.len();
        let start = (idx + 1) & (n - 1);
        let mut w = start >> 6;
        let mut word = self.occupied[w] & (u64::MAX << (start & 63));
        let mut scanned = 0;
        loop {
            if word != 0 {
                let bit = (w << 6) | word.trailing_zeros() as usize;
                let dist = (bit + n - idx) & (n - 1);
                return Some(if dist == 0 { n } else { dist });
            }
            scanned += 1;
            if scanned > nwords {
                return None;
            }
            w += 1;
            if w == nwords {
                w = 0;
            }
            word = self.occupied[w];
        }
    }

    /// Inserts an entry. `seq` must be unique among live entries.
    fn push(&mut self, e: Entry<T>) {
        self.len += 1;
        let d = Self::day(e.at);
        // An entry on or before the working set's front day may belong
        // ahead of it; drop the fast path and let `prepare` re-merge.
        // (Later days can never precede the tail, so the flag survives
        // the common push-ahead pattern.)
        match self.current.last() {
            Some(tail) if d > Self::day(tail.at) => {}
            _ => self.ready = false,
        }
        if self.len == 1 {
            // The queue was empty, so the window can re-anchor on this
            // event for free; a long-idle queue then never scans the
            // empty days in between.
            self.cursor = d;
            self.migrated_until = d + self.heads.len() as u64;
        } else if d < self.cursor {
            // A push may land before a day an earlier scan already
            // passed (e.g. a timer armed right after `run_until` peeked
            // beyond its deadline). Rewinding is sound: scans only skip
            // days that were empty when scanned.
            self.cursor = d;
        }
        // The wheel's horizon rolls with the cursor. A push inside it but
        // past `migrated_until` needs no migration first: overflow entries
        // all lie beyond `migrated_until`, and the scan migrates them on
        // reaching it, before it can pass one.
        if d < self.migrated_until.max(self.cursor + self.heads.len() as u64) {
            self.store(e);
        } else {
            self.overflow.push(e);
            // Sustained far-future load means the horizon is too short
            // for this workload; double the wheel rather than churning
            // entries through the heap.
            if self.overflow.len() > self.heads.len() * 4 && self.heads.len() < MAX_BUCKETS {
                let target = self.heads.len() * 2;
                self.grow_to(target);
            }
        }
    }

    /// Makes the working set's tail the earliest entry (the working set
    /// is empty only when the queue is).
    #[inline]
    fn settle(&mut self) {
        if self.len > 0 && (!self.ready || self.current.is_empty()) {
            self.prepare();
            self.ready = true;
        }
    }

    /// The earliest entry, if any, without removing it.
    fn front(&mut self) -> Option<&Entry<T>> {
        self.settle();
        self.current.last()
    }

    /// The earliest entry's item, for changing in place.
    fn front_item_mut(&mut self) -> Option<&mut T> {
        self.settle();
        self.current.last_mut().map(|e| &mut e.item)
    }

    /// Removes and returns the earliest entry.
    fn pop_front(&mut self) -> Option<Entry<T>> {
        self.settle();
        let popped = self.current.pop()?;
        self.len -= 1;
        // A new tail from a later day may be preceded by wheel or
        // overflow entries in the gap; only a same-day tail is still
        // known-minimal (its whole day was drained together).
        match self.current.last() {
            Some(tail) if Self::day(tail.at) == Self::day(popped.at) => {}
            _ => self.ready = false,
        }
        Some(popped)
    }

    /// Establishes: the working set's tail is the global minimum. Only
    /// called with `len > 0`, and guarantees `current` is non-empty on
    /// return.
    fn prepare(&mut self) {
        loop {
            let limit = self.current.last().map(|e| Self::day(e.at));
            if let Some(l) = limit {
                if self.cursor >= l {
                    // Nothing in storage can precede the working set's
                    // front; merge same-day arrivals (if any) and serve.
                    if self.wheel_len > 0 {
                        self.drain_bucket_day(l);
                    }
                    return;
                }
            }
            if self.wheel_len == 0 {
                let overflow_day = self.overflow.peek().map(|e| Self::day(e.at));
                match (limit, overflow_day) {
                    // Only the working set remains (non-empty: len > 0).
                    (_, None) => return,
                    // Overflow is strictly later than the working set's
                    // front: fast-forward and serve.
                    (Some(l), Some(o)) if o > l => {
                        self.cursor = l;
                    }
                    // Jump the window to the overflow's first day.
                    (_, Some(o)) => {
                        self.cursor = o;
                        self.migrate();
                    }
                }
                continue;
            }
            // The wheel has entries: scan forward for the next occupied
            // day, stopping once the working set's front day is reached.
            loop {
                if limit.is_some_and(|l| self.cursor >= l) {
                    break;
                }
                if self.cursor >= self.migrated_until {
                    self.migrate();
                }
                let idx = (self.cursor & self.mask) as usize;
                if self.is_occupied(idx) {
                    if self.drain_bucket_day(self.cursor) > 0 {
                        // Everything else is on a later day: the wheel,
                        // the overflow, the rest of the working set.
                        return;
                    }
                    // The bucket held only later-rotation entries; step
                    // past it.
                    self.cursor += 1;
                } else {
                    // Skip straight over definitely-empty buckets, but
                    // never past the migration horizon (overflow entries
                    // inside the skipped range must migrate first) or
                    // the working set's front day.
                    let mut jump = self
                        .next_occupied_distance(idx)
                        .map_or(u64::MAX, |d| d as u64)
                        .min(self.migrated_until - self.cursor);
                    if let Some(l) = limit {
                        jump = jump.min(l - self.cursor);
                    }
                    self.cursor += jump;
                }
                if self.wheel_len == 0 {
                    break;
                }
            }
        }
    }

    /// Extends the horizon to at least `cursor + heads.len()` (never
    /// shrinking it: a rewind can leave it further ahead) and moves every
    /// overflow entry now inside it into the wheel.
    fn migrate(&mut self) {
        let horizon = self.cursor + self.heads.len() as u64;
        if self.migrated_until < horizon {
            self.migrated_until = horizon;
        }
        while let Some(top) = self.overflow.peek() {
            if Self::day(top.at) >= self.migrated_until {
                break;
            }
            if let Some(e) = self.overflow.pop() {
                self.store(e);
            }
        }
    }

    /// Moves the entries of day `d` from its bucket into the working set
    /// and merges them in, freeing their slots; entries aliased from
    /// other rotations go back on the list. Returns how many entries moved.
    fn drain_bucket_day(&mut self, d: u64) -> usize {
        let idx = (d & self.mask) as usize;
        let before = self.current.len();
        let mut s = std::mem::replace(&mut self.heads[idx], NIL);
        while s != NIL {
            let slot = &mut self.slab[s as usize];
            let next = slot.next;
            if let Some(e) = slot.entry.take_if(|e| Self::day(e.at) == d) {
                self.current.push(e);
                slot.next = std::mem::replace(&mut self.free, s);
            } else {
                slot.next = std::mem::replace(&mut self.heads[idx], s);
            }
            s = next;
        }
        let moved = self.current.len() - before;
        if self.heads[idx] == NIL {
            self.mark_empty(idx);
        }
        if moved == 0 {
            return 0;
        }
        self.wheel_len -= moved;
        // Ascending under the reversed `Ord` = descending by `(at, seq)`.
        // The stable sort finds what is already ordered (the old working
        // set; a list walked newest first) and merges, where an unstable
        // one would quick-sort all of it again for a handful of same-day
        // arrivals.
        self.current.sort();
        moved
    }

    /// Re-files every wheel entry for a larger ring of `target` buckets (a
    /// power of two) by relinking its slot; no entry moves.
    fn grow_to(&mut self, target: usize) {
        if target <= self.heads.len() {
            return;
        }
        let old = std::mem::replace(&mut self.heads, vec![NIL; target]);
        self.occupied = vec![0; target / 64];
        self.mask = target as u64 - 1;
        for mut s in old {
            while s != NIL {
                let Slot { entry, next } = &self.slab[s as usize];
                let (at, next) = (entry.as_ref().map(|e| e.at), *next);
                if let Some(at) = at {
                    self.link(s, at);
                }
                s = next;
            }
        }
        self.migrate();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn t(nanos: u64) -> SimTime {
        SimTime::ZERO + Duration::from_nanos(nanos)
    }

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_front() {
            out.push((e.at.as_nanos(), e.seq, e.item));
        }
        out
    }

    /// Entries in the overflow heap, for the engine's tests; `None` while
    /// the queue has no wheel (and so no overflow tier).
    pub(crate) fn overflow_len<T>(q: &CalendarQueue<T>) -> Option<usize> {
        q.wheel.as_ref().map(|w| w.overflow.len())
    }

    /// The wheel's size in buckets (a power of two): the size it was
    /// built with and has grown to, or, while the queue has never held
    /// more than 64 entries, the size it will be built with.
    fn bucket_count<T>(q: &CalendarQueue<T>) -> usize {
        q.wheel.as_ref().map_or(q.buckets, |w| w.heads.len())
    }

    fn wheel<T>(q: &CalendarQueue<T>) -> &Wheel<T> {
        q.wheel.as_ref().expect("the queue has built its wheel")
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(t(500), 0, 10);
        q.push(t(100), 1, 11);
        q.push(t(100), 2, 12);
        q.push(t(300), 3, 13);
        assert_eq!(q.len(), 4);
        assert_eq!(
            drain(&mut q),
            vec![(100, 1, 11), (100, 2, 12), (300, 3, 13), (500, 0, 10)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_entries_go_through_overflow_and_back() {
        let mut q = CalendarQueue::new();
        // A wheel, its window anchored at 10 ns, and far beyond the
        // minimum wheel horizon (256 days ≈ 16.8 ms).
        for seq in 0..WHEEL_AT as u64 {
            q.push(t(10), 100 + seq, 0);
        }
        q.push(t(3_600_000_000_000), 0, 1); // 1 hour
        q.push(t(10), 1, 2);
        q.push(t(60_000_000_000), 2, 3); // 1 minute
        assert_eq!(overflow_len(&q), Some(2));
        let got = drain(&mut q);
        assert_eq!(got[0], (10, 1, 2));
        assert_eq!(
            got[WHEEL_AT + 1..],
            [(60_000_000_000, 2, 3), (3_600_000_000_000, 0, 1)]
        );
    }

    #[test]
    fn interleaved_push_and_pop_keeps_order() {
        let mut q = CalendarQueue::new();
        q.push(t(1_000_000), 0, 0);
        q.push(t(2_000_000), 1, 1);
        assert_eq!(q.pop_front().map(|e| e.item), Some(0));
        // Same-day and earlier-day pushes after a pop.
        q.push(t(1_500_000), 2, 2);
        q.push(t(2_000_001), 3, 3);
        assert_eq!(q.pop_front().map(|e| e.item), Some(2));
        assert_eq!(q.pop_front().map(|e| e.item), Some(1));
        assert_eq!(q.pop_front().map(|e| e.item), Some(3));
        assert!(q.pop_front().is_none());
    }

    #[test]
    fn push_below_a_peeked_day_still_pops_first() {
        // Peeking scans the wheel's cursor forward; a later push below
        // that day (legal: the clock has not reached the peeked event)
        // must still pop before it.
        let mut q = CalendarQueue::new();
        for seq in 0..=WHEEL_AT as u64 {
            q.push(t(500_000_000), seq, 0); // day ≈ 7629
        }
        assert_eq!(q.next_at(), Some(t(500_000_000)));
        q.push(t(1_000_000), 100, 1); // well below the scanned day
        assert_eq!(q.pop_front().map(|e| e.item), Some(1));
        assert_eq!(q.pop_front().map(|e| e.item), Some(0));
    }

    #[test]
    fn same_instant_preserves_insertion_order_across_tiers() {
        let mut q = CalendarQueue::new();
        for seq in 0..100 {
            q.push(t(42), seq, seq as u32);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop_front().map(|e| e.item)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn growth_preserves_contents_and_order() {
        let mut q = CalendarQueue::new();
        // Spread entries over ~20 s so most sit in overflow, then force
        // growth and check nothing is lost or reordered.
        let mut expect = Vec::new();
        for seq in 0..3_000u64 {
            let at = (seq * 7_919_111) % 20_000_000_000;
            q.push(t(at), seq, seq as u32);
            expect.push((at, seq));
        }
        q.ensure_capacity_for(100_000);
        assert!(wheel(&q).heads.len() > MIN_BUCKETS);
        expect.sort_unstable();
        let got: Vec<(u64, u64)> = drain(&mut q)
            .into_iter()
            .map(|(at, s, _)| (at, s))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn adaptive_growth_relieves_overflow_pressure() {
        let mut q = CalendarQueue::new();
        let before = bucket_count(&q);
        // Anchor the window at time zero, then park many entries far
        // beyond its horizon.
        q.push(t(0), 0, 0u32);
        for seq in 1..(MIN_BUCKETS as u64 * 4 + 3) {
            q.push(t(1_000_000_000 + seq), seq, 0u32);
        }
        assert!(bucket_count(&q) > before, "wheel should have grown");
        assert_eq!(q.len(), MIN_BUCKETS * 4 + 3);
    }

    #[test]
    fn drained_slots_are_reused_before_the_slab_grows() {
        // A jitter-free burst of thousands of events at one instant, then
        // the steady state of a quiet world: one event per day, each
        // scheduling the next. The burst's slots serve every later day.
        let mut q = CalendarQueue::new();
        for seq in 0..10_000u64 {
            q.push(t(1_000_000), seq, 0u32);
        }
        q.push(t(2_000_000), 10_000, 0u32);
        let high_water = wheel(&q).slab.len();
        assert!(high_water <= 10_001, "slab holds {high_water} slots");
        for _ in 0..10_000 {
            assert!(q.pop_front().is_some());
        }
        for seq in 10_001..110_001u64 {
            let e = q.pop_front().expect("one entry is always pending");
            q.push(e.at + Duration::from_micros(200), seq, 0u32);
            assert_eq!(
                wheel(&q).slab.len(),
                high_water,
                "a one-entry day grew the slab"
            );
        }
        assert_eq!(drain(&mut q).len(), 1);
    }

    #[test]
    fn wan_deliveries_stay_in_the_wheel() {
        // A window of packets in flight over `LinkSpec::wan()`, 30 ms +
        // 3 ms of jitter: each delivery sends the next one a hop ahead.
        // Twice `WHEEL_AT` of them, so the queue has built its wheel.
        let hop = Duration::from_millis(33);
        let window = 2 * WHEEL_AT as u64;
        let mut q = CalendarQueue::new();
        q.ensure_horizon(hop);
        assert_eq!(bucket_count(&q), 512);
        for seq in 0..window {
            q.push(t(seq * 33_000_000 / window), seq, 0u32);
        }
        assert_eq!(wheel(&q).heads.len(), 512);
        for seq in window..window + 10_000 {
            let e = q.pop_front().expect("the window never drains");
            q.push(e.at + hop, seq, 0u32);
            assert_eq!(
                overflow_len(&q),
                Some(0),
                "a WAN hop took the overflow heap"
            );
        }
    }

    #[test]
    fn a_queue_builds_its_wheel_on_its_65th_entry() {
        let mut q = CalendarQueue::new();
        q.ensure_horizon(Duration::from_millis(33));
        q.ensure_capacity_for(200);
        q.ensure_horizon(Duration::from_millis(1));
        for seq in 0..WHEEL_AT as u64 {
            q.push(t(seq * 1_000_000), seq, seq as u32);
            assert!(q.wheel.is_none(), "a wheel at {} entries", q.len());
        }
        // The size the sizing calls asked for, not yet allocated.
        assert_eq!(bucket_count(&q), 1024);
        assert_eq!(q.pop_front().map(|e| e.seq), Some(0));
        q.push(t(0), 1000, 0);
        assert!(q.wheel.is_none());
        q.push(t(500_000), 1001, 0);
        let w = wheel(&q);
        assert_eq!((w.heads.len(), w.occupied.len(), q.len()), (1024, 16, 65));
        assert!(q.heap.is_empty());
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_front().map(|e| e.seq)).collect();
        let mut want = vec![1000, 1001];
        want.extend(1..WHEEL_AT as u64);
        assert_eq!(order, want);
        // Drained, the queue keeps its wheel.
        q.push(t(100_000_000), 2000, 0);
        assert_eq!(overflow_len(&q), Some(0));
        assert_eq!(q.pop_front().map(|e| e.seq), Some(2000));
    }

    #[test]
    fn len_tracks_all_tiers() {
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        q.push(t(5), 0, 0);
        q.push(t(50_000_000_000), 1, 0);
        assert_eq!(q.len(), 2);
        let _ = q.front();
        assert_eq!(q.len(), 2, "peeking must not consume");
        for seq in 2..=WHEEL_AT as u64 {
            q.push(t(5), seq, 0);
        }
        assert_eq!(overflow_len(&q), Some(1));
        assert_eq!(q.len(), WHEEL_AT + 1);
        let _ = q.front();
        assert_eq!(q.len(), WHEEL_AT + 1, "peeking must not consume");
        for left in (0..=WHEEL_AT).rev() {
            let _ = q.pop_front();
            assert_eq!(q.len(), left);
        }
        assert!(q.is_empty());
    }
}
