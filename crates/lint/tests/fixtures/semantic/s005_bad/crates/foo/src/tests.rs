//! Declared `#[cfg(test)] mod tests;` in `lib.rs`: test code throughout.

#[test]
fn calls_util() {
    crate::util::test_module_file_only();
}
