//! Callees whose only mentions elsewhere are a `pub use`, a test region,
//! or a file that is a `#[cfg(test)] mod` of its parent.

/// Named elsewhere only by `lib.rs`'s `pub use`.
pub fn reexported_only() {}

/// Called only from `lib.rs`'s `#[cfg(test)]` module.
pub fn cfg_test_caller_only() {}

/// Called only from `src/tests.rs`.
pub fn test_module_file_only() {}
