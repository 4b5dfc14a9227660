//! S005 fixture: public functions nothing outside tests calls.

pub mod util;

pub use util::reexported_only;

#[cfg(test)]
mod tests;

/// Called only from `tests/`.
pub fn tested_only() {}

/// Called only from this file.
pub fn own_file_only() {}

fn internal() {
    own_file_only();
}

#[cfg(test)]
mod unit {
    #[test]
    fn calls_util() {
        crate::util::cfg_test_caller_only();
    }
}
