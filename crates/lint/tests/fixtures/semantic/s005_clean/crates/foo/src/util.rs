/// Called from `lib.rs`.
pub fn used_by_lib() {}
