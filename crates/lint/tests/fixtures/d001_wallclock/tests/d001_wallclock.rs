//! Fixture: D001 wall-clock and ambient-entropy violations.
//! Linted by `tests/fixtures.rs` under its tree's `tests/`, where only D001
//! and A001 apply; never compiled.

pub fn bad_clock() -> u128 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos()
}

pub fn bad_epoch() {
    let _ = std::time::SystemTime::now();
}

pub fn bad_entropy() -> u64 {
    let mut rng = rand::thread_rng();
    rng.gen()
}
