//! `punch-lint` — determinism & wire-safety static analysis for the
//! p2p-punch workspace.
//!
//! Every pinned result in `results/` rests on byte-identical
//! deterministic replay; this crate machine-checks the source-level
//! hazards that silently break it. Analysis runs in two stages:
//!
//! 1. **Per-file token rules** (D001 wall clocks, D002 unordered maps,
//!    W001 truncating wire casts, P001 library panics, A001 malformed
//!    suppressions) over the hand-rolled lexer's token stream.
//! 2. **Cross-file semantic rules** (S001 wire-tag registry, S002
//!    seeded-RNG draw inventory, S003 suppression reachability, S004
//!    metric-name registry, S005 public functions have callers) over
//!    item-level parses of the whole tree, emitting registries pinned
//!    under `results/LINT_*.json`.
//!
//! The rule catalog with rationale, the suppression syntax, and the
//! registry/ratchet workflow live in `LINTS.md` at the repo root.
//!
//! Run it three ways:
//!
//! * `cargo run -p punch-lint` — CLI over the workspace tree
//!   (`--json` for machine-readable output, `--emit-registries DIR` to
//!   regenerate the pinned registries, exit 1 on violations);
//! * `cargo test -p punch-lint` — the `clean_tree` integration test
//!   fails the build if the tree (or a pinned registry) regresses;
//! * [`lint_tree`] / [`lint_source`] — library API for harnesses.
//!
//! Suppress a finding only with an inline annotation carrying a reason:
//!
//! ```text
//! // punch-lint: allow(D002) membership-only set, never iterated
//! ```
//!
//! A bare `allow` without a reason is itself a violation (**A001**).

mod lexer;
mod parser;
mod rules;
mod semantic;

pub use lexer::{lex, Comment, Lexed, Lit, TokKind, Token};
pub use parser::{parse, ConstItem, FnItem, MatchArm, ParsedFile};
pub use rules::{lint_source, FileReport, Violation, RULES, W001_PATHS};
pub use semantic::{
    analyze, SemanticReport, SourceFile, DRAW_METHODS, EVENT_ROOTS, METRIC_LAYERS, WIRE_CODECS,
};

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned (vendored stand-ins, build output, VCS,
/// and the linter's own violation fixtures).
const EXCLUDED: &[&str] = &[
    "target",
    "vendor",
    ".git",
    "crates/lint/tests/fixtures",
];

/// The registry files the semantic pass pins under `results/`.
pub const REGISTRY_FILES: &[&str] = &[
    "LINT_wire_registry.json",
    "LINT_rng_inventory.json",
    "LINT_metric_registry.json",
];

/// The three project-wide registries the semantic pass emits, in the
/// order of [`REGISTRY_FILES`].
#[derive(Debug, Default, Clone)]
pub struct Registries {
    /// S001 — wire-tag registry contents.
    pub wire: String,
    /// S002 — seeded-RNG draw-site inventory contents.
    pub rng: String,
    /// S004 — metric-name registry contents.
    pub metric: String,
}

impl Registries {
    /// `(file name, contents)` pairs in pinned order.
    pub fn entries(&self) -> [(&'static str, &str); 3] {
        [
            (REGISTRY_FILES[0], self.wire.as_str()),
            (REGISTRY_FILES[1], self.rng.as_str()),
            (REGISTRY_FILES[2], self.metric.as_str()),
        ]
    }

    /// FNV-1a 64-bit content digests, for drift detection in `--json`
    /// output without embedding whole registries in the report.
    fn digests(&self) -> [(&'static str, u64); 3] {
        [
            (REGISTRY_FILES[0], fnv1a(self.wire.as_bytes())),
            (REGISTRY_FILES[1], fnv1a(self.rng.as_bytes())),
            (REGISTRY_FILES[2], fnv1a(self.metric.as_bytes())),
        ]
    }

    /// Writes all three registries into `dir` (creating it if needed).
    pub fn write_to(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        for (name, contents) in self.entries() {
            fs::write(dir.join(name), contents)?;
        }
        Ok(())
    }
}

/// FNV-1a 64-bit hash — the same dependency-free digest the rest of the
/// workspace uses for content fingerprints.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The aggregate result of scanning a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// All unsuppressed violations, sorted by (file, line, col, rule).
    pub violations: Vec<Violation>,
    /// Count of violations silenced by well-formed allow annotations.
    pub suppressed: usize,
    /// Suppressions broken down by rule, in rule order.
    pub suppressed_by_rule: BTreeMap<&'static str, usize>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The semantic pass's registries (wire tags, RNG draw sites,
    /// metric names), ready to pin or diff against `results/`.
    pub registries: Registries,
}

impl Report {
    /// Per-rule violation counts, in rule order (deterministic).
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for v in &self.violations {
            *counts.entry(v.rule).or_insert(0) += 1;
        }
        counts
    }

    /// Plain-text report: one `file:line:col: RULE: msg` line per
    /// violation, a registry-digest line, and a summary line.
    /// Byte-identical across runs for the same tree.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}:{}: {}: {}\n",
                v.file, v.line, v.col, v.rule, v.msg
            ));
        }
        let digests: Vec<String> = self
            .registries
            .digests()
            .iter()
            .map(|(name, d)| format!("{name}=fnv1a:{d:016x}"))
            .collect();
        out.push_str(&format!("punch-lint: registries {}\n", digests.join(" ")));
        if self.violations.is_empty() {
            out.push_str(&format!(
                "punch-lint: clean — 0 violations, {} suppressed, {} files scanned\n",
                self.suppressed, self.files_scanned
            ));
        } else {
            let counts: Vec<String> = self
                .counts()
                .iter()
                .map(|(r, n)| format!("{r}: {n}"))
                .collect();
            out.push_str(&format!(
                "punch-lint: {} violation(s) ({}), {} suppressed, {} files scanned\n",
                self.violations.len(),
                counts.join(", "),
                self.suppressed,
                self.files_scanned
            ));
        }
        out
    }

    /// JSON report (hand-rolled, like the metrics exporter: stable key
    /// order, no external dependencies). Keys, in order: `violations`,
    /// `counts`, `suppressed`, `suppressed_by_rule`, `registries`
    /// (content digests), `files_scanned`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"msg\": {}}}",
                json_str(&v.file),
                v.line,
                v.col,
                json_str(v.rule),
                json_str(&v.msg)
            ));
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"counts\": {");
        for (i, (r, n)) in self.counts().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_str(r), n));
        }
        out.push_str(&format!("}},\n  \"suppressed\": {},", self.suppressed));
        out.push_str("\n  \"suppressed_by_rule\": {");
        for (i, (r, n)) in self.suppressed_by_rule.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_str(r), n));
        }
        out.push_str("},\n  \"registries\": {");
        for (i, (name, d)) in self.registries.digests().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_str(name), json_str(&format!("fnv1a:{d:016x}"))));
        }
        out.push_str(&format!(
            "}},\n  \"files_scanned\": {}\n}}\n",
            self.files_scanned
        ));
        out
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Collects `.rs` files under `root`, sorted by relative path so the
/// report order never depends on directory-entry order.
fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let rel = rel_str(root, &path);
            if EXCLUDED.iter().any(|x| rel == *x) {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn rel_str(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for (i, comp) in rel.components().enumerate() {
        if i > 0 {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

/// Lints every `.rs` file under `root` (excluding `vendor/`, `target/`
/// and the linter's own fixtures): stage 1 per-file rules, then the
/// cross-file semantic pass over the shared lex/parse results. The
/// pinned RNG inventory is read from `root/results/LINT_rng_inventory.json`
/// when present; inline `punch-lint: allow(...)` annotations suppress
/// semantic findings the same way they suppress per-file ones.
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut sources: Vec<SourceFile> = Vec::new();
    let mut allow_by_file: BTreeMap<String, Vec<(u32, &'static str)>> = BTreeMap::new();
    for path in collect_rs_files(root)? {
        let src = fs::read_to_string(&path)?;
        let rel = rel_str(root, &path);
        let lexed = lex(&src);
        let test_mask = rules::test_token_mask(&lexed.tokens);
        let fr = rules::lint_lexed(&rel, &lexed, &test_mask);
        report.violations.extend(fr.violations);
        report.suppressed += fr.suppressed;
        for (rule, n) in &fr.suppressed_by_rule {
            *report.suppressed_by_rule.entry(rule).or_insert(0) += n;
        }
        report.files_scanned += 1;
        allow_by_file.insert(rel.clone(), fr.allow_lines);
        let parsed = parser::parse(&lexed);
        sources.push(SourceFile {
            path: rel,
            lexed,
            parsed,
            test_mask,
            d001_suppressed: fr
                .suppressed_sites
                .into_iter()
                .filter(|v| v.rule == "D001")
                .collect(),
        });
    }

    // A file that is a `#[cfg(test)] mod x;` of its parent is test code.
    let test_modules: Vec<String> = (sources.iter())
        .flat_map(|sf| rules::test_module_paths(&sf.path, &sf.lexed.tokens))
        .collect();
    for sf in &mut sources {
        if test_modules.contains(&sf.path) {
            sf.test_mask.fill(true);
        }
    }

    let pinned_rng = fs::read_to_string(root.join("results/LINT_rng_inventory.json")).ok();
    let sem = semantic::analyze(&sources, pinned_rng.as_deref());
    for v in sem.violations {
        let allowed = allow_by_file
            .get(&v.file)
            .is_some_and(|lines| lines.binary_search(&(v.line, v.rule)).is_ok());
        if allowed {
            report.suppressed += 1;
            *report.suppressed_by_rule.entry(v.rule).or_insert(0) += 1;
        } else {
            report.violations.push(v);
        }
    }
    report.registries = Registries {
        wire: sem.wire_registry,
        rng: sem.rng_inventory,
        metric: sem.metric_registry,
    };
    report.violations.sort();
    Ok(report)
}
