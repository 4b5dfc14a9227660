//! The rule catalog and the per-file analysis pass.
//!
//! Rules (see `LINTS.md` at the repo root for the full rationale):
//!
//! * **D001** — wall-clock / ambient-entropy reads (`Instant::now`,
//!   `SystemTime`, `thread_rng`, `OsRng`). Applies everywhere,
//!   including tests: replay determinism is the repo's tier-1
//!   invariant.
//! * **D002** — `std::collections::HashMap`/`HashSet` in library code.
//!   Iteration order is seeded per-process, so any map that is ever
//!   iterated on an output/metrics/scheduling path silently breaks
//!   byte-identical replay. Use `BTreeMap`/`BTreeSet`, or annotate a
//!   provably order-insensitive use.
//! * **W001** — `as u8`/`as u16`/`as u32` casts in wire/codec modules.
//!   `as` silently truncates; codecs must use `From` for widening and
//!   `try_from` (surfacing `WireError` or an invariant comment) for
//!   narrowing.
//! * **P001** — `.unwrap()` / `.expect(…)` / `panic!` in non-test
//!   library code without a justification. A peer sending bytes must
//!   never be able to take the process down.
//! * **A001** — a malformed suppression: `punch-lint: allow(...)`
//!   without a reason, or naming an unknown rule. Never suppressible.

use crate::lexer::{ident_at, lex, punct_at, Comment, Lexed, TokKind, Token};
use std::collections::BTreeMap;

/// All rule identifiers, in report order. The `S` family is the
/// cross-file semantic pass (the `semantic` module); everything else
/// is per-file token matching in this module.
pub const RULES: &[&str] = &[
    "A001", "D001", "D002", "P001", "S001", "S002", "S003", "S004", "S005", "W001",
];

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

/// Which rules apply to a file, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    d001: bool,
    d002: bool,
    w001: bool,
    p001: bool,
}

/// Wire/codec modules subject to **W001**. Every file that encodes or
/// decodes attacker-reachable bytes belongs here.
pub const W001_PATHS: &[&str] = &[
    "crates/natcheck/src/wire.rs",
    "crates/net/src/packet.rs",
    "crates/rendezvous/src/wire.rs",
    "crates/transport/src/socket.rs",
    "crates/transport/src/stack.rs",
    "crates/transport/src/tcb.rs",
];

/// Paths (prefix match) exempt from **D001**. Empty by design: wall
/// clocks are allowed only via inline `punch-lint: allow(D001)`
/// annotations so every exemption carries its reason in the source.
pub const D001_ALLOW_PREFIXES: &[&str] = &[];

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

pub(crate) fn is_library_src(path: &str) -> bool {
    !is_test_path(path) && (path.starts_with("src/") || path.contains("/src/"))
}

/// Computes the rule scope for a path (relative to the repo root).
fn scope_for(path: &str) -> Scope {
    let lib = is_library_src(path);
    Scope {
        d001: !D001_ALLOW_PREFIXES.iter().any(|p| path.starts_with(p)),
        d002: lib,
        w001: W001_PATHS.contains(&path),
        p001: lib && !path.contains("/src/bin/"),
    }
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
    /// The violations that were silenced (the semantic pass inspects
    /// suppressed D001 sites for reachability — rule S003).
    pub suppressed_sites: Vec<Violation>,
    /// Every `(line, rule)` a well-formed allow annotation covers, so
    /// tree-level passes can honor inline suppressions too.
    pub allow_lines: Vec<(u32, &'static str)>,
}

/// Lints one file's source. `path` is relative to the repo root and
/// selects which rules apply (see `scope_for`).
// punch-lint: allow(S005) crates/lint/tests/fixtures.rs drives every per-file rule through it
pub fn lint_source(path: &str, src: &str) -> FileReport {
    let lexed = lex(src);
    lint_lexed(path, &lexed, &test_token_mask(&lexed.tokens))
}

/// Lints an already-lexed file whose per-token `#[cfg(test)]` mask is
/// `test_mask` (the tree pass lexes and masks once and shares both with
/// the item parser and the semantic rules).
pub fn lint_lexed(path: &str, lexed: &Lexed, test_mask: &[bool]) -> FileReport {
    let scope = scope_for(path);
    let tokens = &lexed.tokens;

    let mut token_lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
    token_lines.dedup();

    let mut raw: Vec<Violation> = Vec::new();
    let mut annots: Vec<Violation> = Vec::new();
    let allows = parse_allows(&lexed.comments, &token_lines, &mut annots, path);

    let push = |raw: &mut Vec<Violation>, t: &Token, rule: &'static str, msg: String| {
        raw.push(Violation {
            file: path.to_string(),
            line: t.line,
            col: t.col,
            rule,
            msg,
        });
    };

    for i in 0..tokens.len() {
        let t = &tokens[i];
        let in_test = test_mask[i];
        let Some(id) = ident_at(tokens, i) else {
            continue;
        };
        // D001: wall clock & ambient entropy. Applies in tests too —
        // replay determinism is tier-1 everywhere.
        if scope.d001 {
            match id {
                "Instant"
                    if punct_at(tokens, i + 1, ':')
                        && punct_at(tokens, i + 2, ':')
                        && ident_at(tokens, i + 3) == Some("now") =>
                {
                    push(&mut raw, t, "D001",
                        "wall-clock read `Instant::now()` breaks deterministic replay; use sim time (`SimTime`/`Ctx::now`)".to_string());
                }
                "SystemTime" => push(&mut raw, t, "D001",
                    "`SystemTime` is a wall-clock source; sim code must derive time from the engine".to_string()),
                "thread_rng" => push(&mut raw, t, "D001",
                    "`thread_rng()` draws ambient entropy; use the node's seeded `StdRng` (see punch-net `seed`)".to_string()),
                "OsRng" => push(&mut raw, t, "D001",
                    "`OsRng` draws OS entropy; use a seeded RNG derived via punch-net `seed`".to_string()),
                _ => {}
            }
        }
        if in_test {
            continue;
        }
        // D002: unordered collections in library code.
        if scope.d002 && (id == "HashMap" || id == "HashSet") {
            push(&mut raw, t, "D002", format!(
                "`{id}` iteration order is nondeterministic across processes; use `BTree{}` or annotate an order-insensitive use",
                if id == "HashMap" { "Map" } else { "Set" }));
        }
        // W001: truncating casts in codec modules.
        if scope.w001 && id == "as" {
            if let Some(ty @ ("u8" | "u16" | "u32")) = ident_at(tokens, i + 1) {
                push(&mut raw, t, "W001", format!(
                    "`as {ty}` silently truncates in a wire/codec path; use `{ty}::from` (widening) or `{ty}::try_from` surfacing `WireError` (narrowing)"));
            }
        }
        // P001: panics in library code.
        if scope.p001 {
            let method = punct_at(tokens, i.wrapping_sub(1), '.') && punct_at(tokens, i + 1, '(');
            if (id == "unwrap" || id == "expect") && method && i > 0 {
                push(&mut raw, t, "P001", format!(
                    "`.{id}()` in library code can take the process down on attacker-reachable input; handle the error or annotate the invariant"));
            } else if id == "panic" && punct_at(tokens, i + 1, '!') {
                push(&mut raw, t, "P001",
                    "`panic!` in library code; return an error or annotate why this is unreachable".to_string());
            }
        }
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
