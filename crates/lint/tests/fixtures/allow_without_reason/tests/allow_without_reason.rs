//! Fixture: malformed suppressions. A bare `allow` with no reason must
//! not silence the finding — it raises A001 *and* the original violation
//! stands. An allow naming an unknown rule is also A001, and so is a
//! leftover annotation for a rule that moved to clippy.
//! Linted by `tests/fixtures.rs` under its tree's `tests/`, where only D001
//! and A001 apply; never compiled.

pub fn bare_allow() -> std::time::Instant {
    // punch-lint: allow(D001)
    std::time::Instant::now()
}

pub fn unknown_rule() -> std::time::Instant {
    // punch-lint: allow(X999) not a rule we have
    std::time::Instant::now()
}

pub fn moved_rule(v: Option<u32>) -> u32 {
    // punch-lint: allow(P001) caller guarantees Some by construction
    v.unwrap()
}
