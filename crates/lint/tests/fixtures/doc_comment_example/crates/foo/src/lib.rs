//! Fixture: a doc comment that shows the annotation syntax is prose, not
//! an annotation. Both `pub fn`s below have no caller, and the examples
//! right above them must not hide that: S005 fires twice.
//!
//! // punch-lint: allow(S005) an example in the crate docs
pub fn below_a_crate_doc_example() {}

/// Items carry their own examples too:
/// // punch-lint: allow(S005) an example in an item doc
pub fn below_an_item_doc_example() {}
