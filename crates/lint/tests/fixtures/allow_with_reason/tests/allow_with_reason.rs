//! Fixture: well-formed suppressions — every violation below carries an
//! annotation with a reason, so the file must lint clean (all suppressed).
//! Linted by `tests/fixtures.rs` under its tree's `tests/`, where only D001
//! and A001 apply; never compiled.

use std::time::Instant;

pub fn timed() -> Instant {
    // punch-lint: allow(D001) host-side perf counter; never feeds sim behavior
    Instant::now()
}

pub fn trailing() -> u64 {
    rand::thread_rng().gen() // punch-lint: allow(D001) an ad hoc seed that never reaches a pinned run
}
