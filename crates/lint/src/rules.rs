//! The rule catalog, the suppression annotations and D001.
//!
//! Rules (see `LINTS.md` at the repo root for the full rationale):
//!
//! * **D001** — wall-clock / ambient-entropy reads (`Instant::now`,
//!   `SystemTime`, `thread_rng`, `OsRng`). Applies everywhere,
//!   including tests and the separate `benchmark/` workspace: replay
//!   determinism is the repo's tier-1 invariant.
//! * **A001** — a malformed suppression: `punch-lint: allow(...)`
//!   without a reason, or naming an unknown rule. Never suppressible.
//! * **S001–S005** — the cross-file rules of the `semantic` module.
//!
//! Library panics, `HashMap`/`HashSet` and truncating casts in the wire
//! codecs are clippy's (`clippy.toml` and the `#![deny]` at each library
//! root and codec module); LINTS.md says which rule lives where.

use crate::lexer::{ident_at, punct_at, Lexed, TokKind, Token};
use crate::SourceFile;

/// All rule identifiers, in report order.
pub const RULES: &[&str] = &["A001", "D001", "S001", "S002", "S003", "S004", "S005"];

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

pub(crate) fn violation(file: &str, line: u32, col: u32, rule: &'static str, msg: String) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        col,
        rule,
        msg,
    }
}

/// Reads one file's `// punch-lint: allow(RULE, …) reason` annotations.
/// Returns every `(line, rule)` a well-formed one covers, sorted, and
/// pushes an A001 for each malformed one (a malformed one covers
/// nothing). A trailing annotation covers its own line, a standalone
/// one the next line that has code.
pub(crate) fn read_allows(file: &str, lexed: &Lexed, a001: &mut Vec<Violation>) -> Vec<(u32, &'static str)> {
    let mut allows = Vec::new();
    for c in &lexed.comments {
        // Only a plain comment that *begins* with `punch-lint:` is an
        // annotation: prose mentioning the syntax mid-sentence is not,
        // and neither is a doc comment, whose text starts with the `/`
        // or `!` of its `///` / `//!` leader.
        let Some(rest) = c.text.trim_start().strip_prefix("punch-lint:") else {
            continue;
        };
        let mut bad = |msg: String| a001.push(violation(file, c.line, c.col, "A001", msg));
        let Some(args) = rest.trim_start().strip_prefix("allow(") else {
            bad("malformed punch-lint annotation: expected `allow(RULE) reason`".to_string());
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("malformed punch-lint annotation: missing `)`".to_string());
            continue;
        };
        let names: Vec<&str> = args[..close].split(',').map(str::trim).filter(|r| !r.is_empty()).collect();
        if names.is_empty() {
            bad("allow() names no rule".to_string());
            continue;
        }
        let mut rules: Vec<&'static str> = Vec::new();
        for n in &names {
            match RULES.iter().find(|r| *r == n) {
                Some(r) => rules.push(r),
                None => bad(format!("allow names unknown rule `{n}`")),
            }
        }
        if rules.len() < names.len() {
            continue;
        }
        if args[close + 1..].trim().is_empty() {
            bad(format!("allow({}) is missing its mandatory reason", names.join(", ")));
            continue;
        }
        let line = if c.code_before {
            c.line
        } else {
            let next = lexed.tokens.partition_point(|t| t.line <= c.line);
            lexed.tokens.get(next).map_or(c.line, |t| t.line)
        };
        allows.extend(rules.into_iter().map(|r| (line, r)));
    }
    allows.sort_unstable();
    allows.dedup();
    allows
}

/// D001 over every file, tests included: wall-clock and ambient-entropy
/// reads break deterministic replay wherever they run.
pub(crate) fn check_wall_clock(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for sf in files {
        let tokens = &sf.lexed.tokens;
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
            out.push(violation(&sf.path, t.line, t.col, "D001", msg.to_string()));
        }
    }
    out
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
