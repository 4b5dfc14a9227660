//! The rule catalog and the per-file analysis pass.
//!
//! Rules (see `LINTS.md` at the repo root for the full rationale):
//!
//! * **D001** — wall-clock / ambient-entropy reads (`Instant::now`,
//!   `SystemTime`, `thread_rng`, `OsRng`). Applies everywhere,
//!   including tests and the separate `benchmark/` workspace: replay
//!   determinism is the repo's tier-1 invariant.
//! * **A001** — a malformed suppression: `punch-lint: allow(...)`
//!   without a reason, or naming an unknown rule. Never suppressible.
//!
//! Library panics, `HashMap`/`HashSet` and truncating casts in the wire
//! codecs are clippy's (`clippy.toml` and the `#![deny]` at each library
//! root and codec module); LINTS.md says which rule lives where.

use crate::lexer::{ident_at, lex, punct_at, Comment, Lexed, TokKind, Token};
use std::collections::BTreeMap;

/// All rule identifiers, in report order. The `S` family is the
/// cross-file semantic pass (the `semantic` module); everything else
/// is per-file token matching in this module.
pub const RULES: &[&str] = &["A001", "D001", "S001", "S002", "S003", "S004", "S005"];

/// Interns a rule name to its `&'static str` in [`RULES`].
pub(crate) fn rule_id(name: &str) -> Option<&'static str> {
    RULES.iter().find(|r| **r == name).copied()
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Path relative to the scanned root, with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the problem.
    pub msg: String,
}

/// A parsed `punch-lint: allow(RULE) reason` annotation.
#[derive(Debug, Clone)]
struct Allow {
    /// Line the annotation applies to (the comment's own line for
    /// trailing comments, the next code line for standalone ones).
    applies_to: u32,
    rules: Vec<String>,
    reason_ok: bool,
}

/// Extracts annotations from comments. `token_lines` must be the sorted
/// list of lines that contain code tokens, used to attach standalone
/// annotations to the next code line.
fn parse_allows(comments: &[Comment], token_lines: &[u32], out: &mut Vec<Violation>, file: &str) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        // Only a comment that *begins* with `punch-lint:` (after doc
        // leaders) is an annotation; prose mentioning the syntax
        // mid-sentence is not.
        let head = c
            .text
            .trim_start_matches(['!', '/', '*', ' ', '\t'])
            .trim_start();
        let Some(rest) = head.strip_prefix("punch-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let mut bad = |msg: String| {
            out.push(Violation {
                file: file.to_string(),
                line: c.line,
                col: c.col,
                rule: "A001",
                msg,
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            bad("malformed punch-lint annotation: expected `allow(RULE) reason`".to_string());
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("malformed punch-lint annotation: missing `)`".to_string());
            continue;
        };
        let rules: Vec<String> = args[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            bad("allow() names no rule".to_string());
            continue;
        }
        let mut ok = true;
        for r in &rules {
            if !RULES.contains(&r.as_str()) {
                bad(format!("allow names unknown rule `{r}`"));
                ok = false;
            }
        }
        if !ok {
            continue;
        }
        let reason = args[close + 1..].trim().trim_end_matches("*/").trim();
        let reason_ok = !reason.is_empty();
        if !reason_ok {
            bad(format!(
                "allow({}) is missing its mandatory reason",
                rules.join(", ")
            ));
        }
        let applies_to = if c.code_before {
            c.line
        } else {
            // Standalone: the next line that has code.
            match token_lines.iter().find(|&&l| l > c.line) {
                Some(&l) => l,
                None => c.line,
            }
        };
        allows.push(Allow {
            applies_to,
            rules,
            reason_ok,
        });
    }
    allows
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` items (and, for an
/// inner `#![cfg(test)]`, the whole file). Token-level approximation:
/// after a test attribute, the next braced block is skipped.
pub fn test_token_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let punct = |i: usize, c: char| matches!(tokens.get(i), Some(t) if t.kind == TokKind::Punct(c));
    let mut i = 0;
    while i < tokens.len() {
        if !punct(i, '#') {
            i += 1;
            continue;
        }
        let inner = punct(i + 1, '!');
        let open = if inner { i + 2 } else { i + 1 };
        if !punct(open, '[') {
            i += 1;
            continue;
        }
        // Collect the attribute's identifiers up to the matching `]`.
        let mut depth = 0usize;
        let mut j = open;
        let mut idents: Vec<&str> = Vec::new();
        while j < tokens.len() {
            match &tokens[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident(s) => idents.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_test = idents.contains(&"test") && !idents.contains(&"not");
        if is_test && inner {
            // #![cfg(test)] — the whole file is test code.
            mask.fill(true);
            return mask;
        }
        if is_test {
            // Skip any further attributes, then mask the item's block.
            let mut k = j + 1;
            while punct(k, '#') && punct(k + 1, '[') {
                let mut d = 0usize;
                while k < tokens.len() {
                    match tokens[k].kind {
                        TokKind::Punct('[') => d += 1,
                        TokKind::Punct(']') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k += 1;
            }
            // Find the item's opening brace; a `;` first means a
            // declaration with no body (nothing to mask).
            while k < tokens.len() {
                match tokens[k].kind {
                    TokKind::Punct(';') => break,
                    TokKind::Punct('{') => {
                        let mut d = 0usize;
                        while k < tokens.len() {
                            match tokens[k].kind {
                                TokKind::Punct('{') => d += 1,
                                TokKind::Punct('}') => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            mask[k] = true;
                            k += 1;
                        }
                        if k < tokens.len() {
                            mask[k] = true;
                        }
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        i = j + 1;
    }
    mask
}

/// The files that `path` declares as `#[cfg(test)] mod name;`: test
/// code from their first line, though nothing inside them says so.
pub(crate) fn test_module_paths(path: &str, tokens: &[Token]) -> Vec<String> {
    let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
    let stem = file.trim_end_matches(".rs");
    let base = if matches!(stem, "lib" | "main" | "mod") {
        dir.to_string()
    } else {
        format!("{dir}/{stem}")
    };
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let cfg_test = punct_at(tokens, i, '#')
            && punct_at(tokens, i + 1, '[')
            && ident_at(tokens, i + 2) == Some("cfg")
            && punct_at(tokens, i + 3, '(')
            && ident_at(tokens, i + 4) == Some("test")
            && punct_at(tokens, i + 5, ')')
            && punct_at(tokens, i + 6, ']');
        if cfg_test && ident_at(tokens, i + 7) == Some("mod") && punct_at(tokens, i + 9, ';') {
            if let Some(name) = ident_at(tokens, i + 8) {
                out.push(format!("{base}/{name}.rs"));
            }
        }
    }
    out
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Unsuppressed violations, sorted.
    pub violations: Vec<Violation>,
    /// Number of violations silenced by a well-formed allow annotation.
    pub suppressed: usize,
    /// Suppressions broken down by rule.
    pub suppressed_by_rule: BTreeMap<&'static str, usize>,
    /// The violations that were silenced: D001 sites, whose
    /// reachability the semantic pass checks (rule S003).
    pub suppressed_sites: Vec<Violation>,
    /// Every `(line, rule)` a well-formed allow annotation covers, so
    /// tree-level passes can honor inline suppressions too.
    pub allow_lines: Vec<(u32, &'static str)>,
}

/// Lints one file's source. `path` is relative to the repo root and
/// names the file in each violation.
// punch-lint: allow(S005) crates/lint/tests/fixtures.rs drives every per-file rule through it
pub fn lint_source(path: &str, src: &str) -> FileReport {
    lint_lexed(path, &lex(src))
}

/// Lints an already-lexed file (the tree pass lexes once and shares the
/// tokens with the item parser and the semantic rules).
pub fn lint_lexed(path: &str, lexed: &Lexed) -> FileReport {
    let tokens = &lexed.tokens;

    let mut token_lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
    token_lines.dedup();

    let mut raw: Vec<Violation> = Vec::new();
    let mut annots: Vec<Violation> = Vec::new();
    let allows = parse_allows(&lexed.comments, &token_lines, &mut annots, path);

    // D001: wall clock & ambient entropy. Applies in tests too —
    // replay determinism is tier-1 everywhere.
    for (i, t) in tokens.iter().enumerate() {
        let msg = match ident_at(tokens, i) {
            Some("Instant")
                if punct_at(tokens, i + 1, ':')
                    && punct_at(tokens, i + 2, ':')
                    && ident_at(tokens, i + 3) == Some("now") =>
            {
                "wall-clock read `Instant::now()` breaks deterministic replay; use sim time (`SimTime`/`Ctx::now`)"
            }
            Some("SystemTime") => "`SystemTime` is a wall-clock source; sim code must derive time from the engine",
            Some("thread_rng") => "`thread_rng()` draws ambient entropy; use the node's seeded `StdRng` (see punch-net `seed`)",
            Some("OsRng") => "`OsRng` draws OS entropy; use a seeded RNG derived via punch-net `seed`",
            _ => continue,
        };
        raw.push(Violation {
            file: path.to_string(),
            line: t.line,
            col: t.col,
            rule: "D001",
            msg: msg.to_string(),
        });
    }

    // Suppression: a violation is silenced when a well-formed allow for
    // its rule applies to its line.
    let mut allow_lines: Vec<(u32, &'static str)> = Vec::new();
    for a in &allows {
        if !a.reason_ok {
            continue; // already reported as A001; never suppresses
        }
        for r in &a.rules {
            if let Some(id) = rule_id(r) {
                allow_lines.push((a.applies_to, id));
            }
        }
    }
    allow_lines.sort_unstable();
    allow_lines.dedup();
    let mut suppressed = 0usize;
    let mut suppressed_by_rule: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut suppressed_sites: Vec<Violation> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();
    for v in raw {
        if allow_lines.binary_search(&(v.line, v.rule)).is_ok() {
            suppressed += 1;
            *suppressed_by_rule.entry(v.rule).or_insert(0) += 1;
            suppressed_sites.push(v);
        } else {
            violations.push(v);
        }
    }
    violations.extend(annots);
    violations.sort();
    suppressed_sites.sort();
    FileReport {
        violations,
        suppressed,
        suppressed_by_rule,
        suppressed_sites,
        allow_lines,
    }
}
