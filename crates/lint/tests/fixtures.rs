//! Behavioural tests for D001, the suppression annotations (A001) and
//! the text report, driven by the fixture trees under `tests/fixtures/`
//! (excluded from the workspace scan). The fixtures are never compiled —
//! `lint_tree` reads each tree as text, the same one pass that lints the
//! workspace.

use std::path::PathBuf;

use punch_lint::{lint_tree, Report};

fn fixture(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    lint_tree(&root).unwrap_or_else(|e| panic!("fixture tree {name} unreadable: {e}"))
}

fn rules_of(r: &Report) -> Vec<&'static str> {
    r.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn d001_flags_wall_clock_and_entropy() {
    let r = fixture("d001_wallclock");
    // Instant::now, SystemTime::now, thread_rng.
    assert_eq!(rules_of(&r), ["D001", "D001", "D001"], "{}", r.render_text());
    assert_eq!(r.suppressed, 0);
}

#[test]
fn allow_with_reason_suppresses() {
    let r = fixture("allow_with_reason");
    assert!(r.violations.is_empty(), "{}", r.render_text());
    assert_eq!(r.suppressed, 2);
}

#[test]
fn allow_without_reason_is_rejected() {
    let r = fixture("allow_without_reason");
    // Each malformed allow raises A001 AND leaves the original D001
    // standing — a bare or unknown-rule allow silences nothing. P001 is
    // clippy's now, so a leftover `allow(P001)` names an unknown rule.
    let mut rules = rules_of(&r);
    rules.sort_unstable();
    assert_eq!(rules, ["A001", "A001", "A001", "D001", "D001"], "{}", r.render_text());
    assert!(
        r.violations.iter().any(|v| v.msg == "allow names unknown rule `P001`"),
        "{}",
        r.render_text()
    );
    assert_eq!(r.suppressed, 0);
}

/// Only a plain comment is an annotation: a `//!` or `///` doc comment
/// that shows the syntax is documentation and suppresses nothing.
#[test]
fn doc_comment_examples_never_suppress() {
    let r = fixture("doc_comment_example");
    assert_eq!(rules_of(&r), ["S005", "S005"], "{}", r.render_text());
    assert_eq!(r.suppressed, 0);
}

#[test]
fn violation_positions_are_exact() {
    let r = fixture("d001_wallclock");
    let at: Vec<(&str, u32, u32)> =
        r.violations.iter().map(|v| (v.file.as_str(), v.line, v.col)).collect();
    let file = "tests/d001_wallclock.rs";
    // The `Instant`, `SystemTime` and `thread_rng` idents.
    assert_eq!(at, [(file, 6, 24), (file, 11, 24), (file, 15, 25)]);
}

#[test]
fn report_is_byte_identical_across_runs() {
    for tree in ["d001_wallclock", "allow_with_reason", "allow_without_reason"] {
        assert_eq!(fixture(tree).render_text(), fixture(tree).render_text(), "{tree}");
    }
}
