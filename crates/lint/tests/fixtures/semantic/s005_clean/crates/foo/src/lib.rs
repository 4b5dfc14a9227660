//! S005 fixture: every public function has a caller outside tests, or
//! an allow naming the one it has.

pub mod util;

/// Called from `examples/`.
pub fn used_by_example() {}

/// Called from the benchmark's binary.
pub fn used_by_benchmark() {}

/// Driven only by the crate's own suite.
// punch-lint: allow(S005) crates/foo/tests/it.rs drives it
pub fn harness_seam() {}

/// Narrower than plain `pub`: not S005's business.
pub(crate) fn crate_visible() {}

fn internal() {
    util::used_by_lib();
}

#[cfg(test)]
mod tests {
    /// Public inside a test region: not checked.
    pub fn test_helper() {}
}
