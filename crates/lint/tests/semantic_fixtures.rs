//! Fixture trees for the cross-file rules (S001–S005): each rule has a
//! violating tree and a clean one under `tests/fixtures/` (excluded from
//! the workspace scan), and the registries they emit are checked for
//! content and for run-twice byte-identity.

use std::collections::BTreeMap;
use std::path::PathBuf;

use punch_lint::{lint_tree, Report};

fn fixture(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    lint_tree(&root).unwrap_or_else(|e| panic!("fixture tree {name} unreadable: {e}"))
}

/// Rule → count map for a report, ignoring rules not in `expect`.
fn counts(report: &Report) -> BTreeMap<&'static str, usize> {
    report.counts()
}

#[test]
fn s001_flags_every_registry_rot() {
    let r = fixture("s001_bad");
    assert_eq!(counts(&r).get("S001"), Some(&4), "{}", r.render_text());
    let text = r.render_text();
    assert!(text.contains("TAG_B") && text.contains("reuses value 1"), "{text}");
    assert!(text.contains("TAG_C") && text.contains("never decoded"), "{text}");
    assert!(text.contains("TAG_D") && text.contains("never encoded"), "{text}");
    assert!(text.contains("TAG_E") && text.contains("dead wire tag"), "{text}");
}

#[test]
fn s001_clean_codec_passes_and_pins_both_directions() {
    let r = fixture("s001_clean");
    assert!(r.violations.is_empty(), "{}", r.render_text());
    let wire = &r.registries.wire;
    assert!(
        wire.contains(r#"{"name": "TAG_PING", "value": 1, "encode": true, "decode": true}"#),
        "wire registry missing TAG_PING:\n{wire}"
    );
    assert!(wire.contains(r#""codec": "natcheck""#), "{wire}");
}

#[test]
fn s002_flags_new_unreviewed_and_stale_sites() {
    let r = fixture("s002_bad");
    assert_eq!(counts(&r).get("S002"), Some(&3), "{}", r.render_text());
    let text = r.render_text();
    assert!(text.contains("Node::brand_new") && text.contains("not in results/"), "{text}");
    assert!(text.contains("Node::inventoried") && text.contains("without a review reason"), "{text}");
    assert!(text.contains("Node::removed_long_ago") && text.contains("stale inventory entry"), "{text}");
    // The emission keeps the tree's real sites (new ones UNREVIEWED) and
    // drops the stale entry.
    let rng = &r.registries.rng;
    assert!(rng.contains(r#""fn": "Node::brand_new", "method": "gen_range", "count": 1, "reason": "UNREVIEWED""#), "{rng}");
    assert!(!rng.contains("removed_long_ago"), "{rng}");
}

#[test]
fn s002_reviewed_inventory_passes_and_reasons_survive_reemission() {
    let r = fixture("s002_clean");
    assert!(r.violations.is_empty(), "{}", r.render_text());
    assert!(
        r.registries
            .rng
            .contains(r#""reason": "session nonce from the seeded node RNG""#),
        "re-emission lost the hand-written reason:\n{}",
        r.registries.rng
    );
}

#[test]
fn s003_flags_suppressed_clock_reachable_from_step() {
    let r = fixture("s003_bad");
    assert_eq!(counts(&r).get("S003"), Some(&1), "{}", r.render_text());
    let v = r.violations.iter().find(|v| v.rule == "S003").unwrap();
    assert!(
        v.msg.contains("profile_hook") && v.msg.contains("Sim::step"),
        "message should name the enclosing fn and the root: {}",
        v.msg
    );
}

#[test]
fn s003_host_side_suppression_is_allowed() {
    let r = fixture("s003_clean");
    assert!(r.violations.is_empty(), "{}", r.render_text());
}

#[test]
fn s004_flags_taxonomy_and_registry_conflicts() {
    let r = fixture("s004_bad");
    assert_eq!(counts(&r).get("S004"), Some(&4), "{}", r.render_text());
    let text = r.render_text();
    assert!(text.contains("unknown layer `bogus`"), "{text}");
    assert!(text.contains("`NoDots` does not follow"), "{text}");
    assert!(text.contains("near-duplicate"), "{text}");
    assert!(text.contains("more than one instrument kind"), "{text}");
}

#[test]
fn s004_clean_names_pass_and_pin_kinds() {
    let r = fixture("s004_clean");
    assert!(r.violations.is_empty(), "{}", r.render_text());
    let m = &r.registries.metric;
    assert!(m.contains(r#"{"name": "nat.drop", "kind": "counter", "labeled": true"#), "{m}");
    assert!(m.contains(r#"{"name": "net.queue.depth", "kind": "gauge""#), "{m}");
    assert!(m.contains(r#"{"name": "punch.latency", "kind": "histogram""#), "{m}");
}

#[test]
fn s005_flags_fns_only_tests_or_their_own_file_call() {
    let r = fixture("s005_bad");
    assert_eq!(counts(&r).get("S005"), Some(&5), "{}", r.render_text());
    let text = r.render_text();
    for name in ["tested_only", "own_file_only", "test_module_file_only"] {
        assert!(text.contains(&format!("`pub fn {name}`")), "{name}: {text}");
    }
}

#[test]
fn s005_a_pub_use_re_export_alone_is_no_caller() {
    let r = fixture("s005_bad");
    let text = r.render_text();
    assert!(text.contains("crates/foo/src/util.rs:5:5: S005: `pub fn reexported_only`"), "{text}");
}

#[test]
fn s005_a_cfg_test_caller_in_another_file_is_no_caller() {
    let r = fixture("s005_bad");
    let text = r.render_text();
    assert!(text.contains("`pub fn cfg_test_caller_only`"), "{text}");
}

#[test]
fn s005_examples_and_benchmark_bins_are_callers() {
    let r = fixture("s005_clean");
    assert!(r.violations.is_empty(), "{}", r.render_text());
}

#[test]
fn s005_allow_suppresses_the_finding() {
    let r = fixture("s005_clean");
    assert_eq!(r.suppressed, 1, "{}", r.render_text());
}

/// Reports and registries are byte-identical across runs — the property
/// `scripts/ci.sh` enforces with `cmp` on the whole workspace.
#[test]
fn semantic_reports_are_run_twice_identical() {
    for tree in ["s001_bad", "s002_bad", "s003_bad", "s004_bad", "s004_clean", "s005_bad"] {
        let a = fixture(tree);
        let b = fixture(tree);
        assert_eq!(a.render_text(), b.render_text(), "{tree}");
        assert_eq!(a.registries.entries(), b.registries.entries(), "{tree}");
    }
}
