//! `punch-lint` — determinism & wire-safety static analysis for the
//! p2p-punch workspace.
//!
//! Every pinned result in `results/` rests on byte-identical
//! deterministic replay; this crate machine-checks the source-level
//! hazards that silently break it. [`lint_tree`] is one pass over the
//! tree: it lexes and parses each file once with the hand-rolled lexer
//! and item parser, reads its suppression annotations (A001 for a
//! malformed one), then runs D001 (wall clocks and ambient entropy) and
//! the cross-file rules S001–S005 (wire-tag registry, seeded-RNG draw
//! inventory, suppression reachability, metric-name registry, public
//! functions have callers) over the parsed files. The three registries
//! are pinned under `results/LINT_*.json`.
//!
//! The rule catalog with rationale, the suppression syntax, and the
//! registry/ratchet workflow live in `LINTS.md` at the repo root.
//!
//! Run it three ways:
//!
//! * `cargo run -p punch-lint` — CLI over the workspace tree
//!   (`--emit-registries DIR` to regenerate the pinned registries, exit
//!   1 on violations);
//! * `cargo test -p punch-lint` — the `clean_tree` integration test
//!   fails the build if the tree (or a pinned registry) regresses;
//! * [`lint_tree`] — library API for harnesses.
//!
//! Suppress a finding only with a plain comment (never a doc comment,
//! like this one) that carries a reason:
//!
//! ```text
//! // punch-lint: allow(S005) harness seam: how the net and lab suites drain a world
//! ```
//!
//! A bare `allow` without a reason is itself a violation (**A001**).
//!
//! Library panics, `HashMap`/`HashSet` and truncating casts in the wire
//! codecs are clippy's lints, not this crate's: `clippy.toml` and the
//! `#![deny]` at each library root and codec module (LINTS.md,
//! "Relationship to the clippy gate").

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types)]

mod lexer;
mod parser;
mod rules;
mod semantic;

pub use lexer::{lex, Comment, Lexed, Lit, TokKind, Token};
pub use parser::{parse, ConstItem, FnItem, MatchArm, ParsedFile};
pub use rules::{Violation, RULES};

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

/// One file of the scanned tree: lexed, parsed and read for annotations
/// once by [`lint_tree`], then shared by every rule.
struct SourceFile {
    /// Path relative to the scanned root, `/`-separated.
    path: String,
    lexed: Lexed,
    parsed: ParsedFile,
    /// Per-token `#[cfg(test)]` mask (see `rules::test_token_mask`).
    test_mask: Vec<bool>,
    /// Every `(line, rule)` a well-formed allow annotation covers
    /// (see `rules::read_allows`).
    allows: Vec<(u32, &'static str)>,
}

/// The three project-wide registries S001, S002 and S004 emit, pinned
/// under `results/` by these file names.
#[derive(Debug, Default, Clone)]
pub struct Registries {
    /// S001 — `LINT_wire_registry.json` contents.
    pub wire: String,
    /// S002 — `LINT_rng_inventory.json` contents (pinned reasons
    /// preserved, new sites marked `UNREVIEWED`).
    pub rng: String,
    /// S004 — `LINT_metric_registry.json` contents.
    pub metric: String,
}

impl Registries {
    /// `(file name, contents)` pairs in pinned order.
    pub fn entries(&self) -> [(&'static str, &str); 3] {
        [
            ("LINT_wire_registry.json", self.wire.as_str()),
            ("LINT_rng_inventory.json", self.rng.as_str()),
            ("LINT_metric_registry.json", self.metric.as_str()),
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
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The registries (wire tags, RNG draw sites, metric names), ready
    /// to pin or diff against `results/`.
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
    /// violation, a line of registry content digests (FNV-1a 64), and a
    /// summary line. Byte-identical across runs for the same tree.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}:{}: {}: {}\n",
                v.file, v.line, v.col, v.rule, v.msg
            ));
        }
        let digests: Vec<String> = (self.registries.entries().iter())
            .map(|(name, contents)| format!("{name}=fnv1a:{:016x}", fnv1a(contents.as_bytes())))
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

    /// The one suppression filter: keeps each of `raw` that no
    /// well-formed allow in its file covers, counts the others as
    /// suppressed and returns them.
    fn suppress(&mut self, files: &[SourceFile], raw: Vec<Violation>) -> Vec<Violation> {
        let (silenced, kept): (Vec<Violation>, Vec<Violation>) = raw.into_iter().partition(|v| {
            (files.iter().find(|f| f.path == v.file))
                .is_some_and(|f| f.allows.binary_search(&(v.line, v.rule)).is_ok())
        });
        self.suppressed += silenced.len();
        self.violations.extend(kept);
        silenced
    }
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
/// and the linter's own fixtures) in one pass. Each file is lexed,
/// parsed and read for annotations once; D001 and then S001–S005 run
/// over the parsed files, and their findings go through one filter,
/// D001's first because S003 checks the sites it silenced. The pinned
/// RNG inventory is read from `root/results/LINT_rng_inventory.json`
/// when present.
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut files: Vec<SourceFile> = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = rel_str(root, &path);
        let lexed = lex(&fs::read_to_string(&path)?);
        files.push(SourceFile {
            allows: rules::read_allows(&rel, &lexed, &mut report.violations),
            parsed: parser::parse(&lexed),
            test_mask: rules::test_token_mask(&lexed.tokens),
            path: rel,
            lexed,
        });
    }
    report.files_scanned = files.len();

    // A file that is a `#[cfg(test)] mod x;` of its parent is test code.
    let test_modules: Vec<String> = (files.iter())
        .flat_map(|sf| rules::test_module_paths(&sf.path, &sf.lexed.tokens))
        .collect();
    for sf in &mut files {
        if test_modules.contains(&sf.path) {
            sf.test_mask.fill(true);
        }
    }

    let pinned_rng = fs::read_to_string(root.join("results/LINT_rng_inventory.json")).ok();
    let allowed_clocks = report.suppress(&files, rules::check_wall_clock(&files));
    let (found, registries) = semantic::analyze(&files, pinned_rng.as_deref(), &allowed_clocks);
    report.suppress(&files, found);
    report.registries = registries;
    report.violations.sort();
    Ok(report)
}
