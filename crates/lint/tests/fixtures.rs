//! Behavioural tests for the punch-lint rules, driven by the source
//! fixtures under `tests/fixtures/`. The fixtures are never compiled —
//! they are linted as text under synthetic paths that place them in the
//! scope each rule applies to.

use punch_lint::{lint_source, FileReport, Report, Violation};

/// Lints fixture text under a plain library-source path.
fn lint_as_lib(src: &str) -> FileReport {
    lint_source("crates/fixture/src/lib.rs", src)
}

fn rules_of(fr: &FileReport) -> Vec<&'static str> {
    fr.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn d001_flags_wall_clock_and_entropy() {
    let fr = lint_as_lib(include_str!("fixtures/d001_wallclock.rs"));
    let rules = rules_of(&fr);
    assert!(rules.iter().all(|r| *r == "D001"), "got {rules:?}");
    // Instant::now, SystemTime::now, thread_rng.
    assert_eq!(rules.len(), 3, "got {:#?}", fr.violations);
    assert_eq!(fr.suppressed, 0);
}

#[test]
fn allow_with_reason_suppresses() {
    let fr = lint_as_lib(include_str!("fixtures/allow_with_reason.rs"));
    assert!(fr.violations.is_empty(), "got {:#?}", fr.violations);
    assert_eq!(fr.suppressed, 2);
}

#[test]
fn allow_without_reason_is_rejected() {
    let fr = lint_as_lib(include_str!("fixtures/allow_without_reason.rs"));
    // Each malformed allow raises A001 AND leaves the original D001
    // standing — a bare or unknown-rule allow silences nothing. P001 is
    // clippy's now, so a leftover `allow(P001)` names an unknown rule.
    let mut rules = rules_of(&fr);
    rules.sort_unstable();
    assert_eq!(rules, ["A001", "A001", "A001", "D001", "D001"], "got {:#?}", fr.violations);
    assert!(
        fr.violations.iter().any(|v| v.msg == "allow names unknown rule `P001`"),
        "got {:#?}",
        fr.violations
    );
    assert_eq!(fr.suppressed, 0);
}

#[test]
fn violation_positions_are_exact() {
    let fr = lint_as_lib("pub fn f() -> u64 {\n    rand::thread_rng().gen()\n}\n");
    assert_eq!(fr.violations.len(), 1);
    let v = &fr.violations[0];
    assert_eq!((v.line, v.col), (2, 11), "thread_rng ident position");
    assert_eq!(v.file, "crates/fixture/src/lib.rs");
}

#[test]
fn report_is_byte_identical_across_runs() {
    let mk = || {
        let mut report = Report::default();
        for fixture in [
            include_str!("fixtures/d001_wallclock.rs"),
            include_str!("fixtures/allow_with_reason.rs"),
            include_str!("fixtures/allow_without_reason.rs"),
        ] {
            let fr = lint_as_lib(fixture);
            report.violations.extend(fr.violations);
            report.suppressed += fr.suppressed;
            report.files_scanned += 1;
        }
        report.violations.sort();
        (report.render_text(), report.render_json())
    };
    let (text_a, json_a) = mk();
    let (text_b, json_b) = mk();
    assert_eq!(text_a, text_b, "text report must be deterministic");
    assert_eq!(json_a, json_b, "json report must be deterministic");
    // Spot-check the JSON shape without a parser dependency.
    assert!(json_a.starts_with("{\n  \"violations\": ["));
    assert!(json_a.contains("\"counts\": {"));
    assert!(json_a.trim_end().ends_with('}'));
}

/// The whole `--json` document for a report whose strings need every
/// escape, against bytes that are valid JSON; everything else in the
/// document is fixed text, rule names and integers.
#[test]
fn json_report_is_well_formed_down_to_its_escapes() {
    let mut report = Report::default();
    report.violations.push(Violation {
        file: "dir\\f.rs".to_string(),
        line: 3,
        col: 7,
        rule: "D001",
        msg: "say \"hi\"\n\tbye\u{1}".to_string(),
    });
    report.suppressed_by_rule.insert("D001", 2);
    report.files_scanned = 1;
    let expected = r#"{
  "violations": [
    {"file": "dir\\f.rs", "line": 3, "col": 7, "rule": "D001", "msg": "say \"hi\"\n\tbye\u0001"}
  ],
  "counts": {"D001": 1},
  "suppressed": 0,
  "suppressed_by_rule": {"D001": 2},
  "registries": {"LINT_wire_registry.json": "fnv1a:cbf29ce484222325", "LINT_rng_inventory.json": "fnv1a:cbf29ce484222325", "LINT_metric_registry.json": "fnv1a:cbf29ce484222325"},
  "files_scanned": 1
}
"#;
    assert_eq!(report.render_json(), expected);
}
