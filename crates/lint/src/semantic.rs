//! The cross-file rules (S001–S005) and the registries they pin. Each
//! sees the whole tree at once, via the item parser ([`crate::parser`]):
//!
//! * **S001 — wire-tag registry.** Harvests `TAG_*`/`T_*` consts and
//!   their encode/decode uses from the natcheck and rendezvous codecs.
//!   A duplicate tag value, a tag that is encoded but never decoded (or
//!   vice versa), or an unused tag is a violation. The registry pins to
//!   `results/LINT_wire_registry.json`.
//! * **S002 — seeded-RNG draw-site inventory.** Every RNG draw in
//!   library code is keyed by `(file, fn, method)` and must appear in
//!   the pinned `results/LINT_rng_inventory.json` with a review reason.
//!   A new draw site — the exact class of change that breaks pinned
//!   artifacts when gated wrong — fails the lint until inventoried.
//! * **S003 — suppression reachability.** A conservative, name-based
//!   call graph per crate; any D001-suppressed wall-clock/entropy site
//!   reachable from `Sim::step` or the `on_*` event-handler roots is a
//!   violation: host-side-only exemptions must stay host-side.
//! * **S004 — metric-name registry.** Harvests the counter/gauge/
//!   histogram name literals, enforces the `layer.name` taxonomy,
//!   flags near-duplicate and kind-conflicted names, and pins the
//!   registry to `results/LINT_metric_registry.json`.
//! * **S005 — public functions have callers.** A plain-`pub` fn in
//!   library code fails unless its name appears in the non-test,
//!   non-`use` code of another file: a `pub fn` only its own file or
//!   the tests call is surface nobody uses.
//!
//! All three registries are emitted with fixed key order and sorted
//! entries, so they are byte-identical run to run; `scripts/ci.sh`
//! `cmp`s fresh emissions against the pinned files and hard-fails on
//! unexplained drift.

use crate::lexer::{ident_at, punct_at, TokKind, Token};
use crate::rules::{violation, Violation};
use crate::{Registries, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// The two wire codecs subject to S001.
const WIRE_CODECS: &[(&str, &str)] = &[
    ("natcheck", "crates/natcheck/src/wire.rs"),
    ("rendezvous", "crates/rendezvous/src/wire.rs"),
];

/// Seeded-RNG draw methods inventoried by S002.
const DRAW_METHODS: &[&str] = &[
    "choose", "fill_bytes", "gen", "gen_bool", "gen_range", "gen_ratio", "next_u32", "next_u64",
    "sample", "shuffle",
];

/// Event-handler fn names that root the S003 reachability walk (plus
/// `Sim::step` itself).
const EVENT_ROOTS: &[&str] = &["on_event", "on_fault", "on_packet", "on_start", "on_timer"];

/// The metric taxonomy's layer prefixes: every metric name must be
/// `layer.name` with `layer` from this list (S004).
const METRIC_LAYERS: &[&str] = &[
    "attack",
    "defense",
    "nat",
    "net",
    "punch",
    "rendezvous",
    "task",
    "transport",
];

/// Metric write calls and the instrument kind each implies.
const METRIC_WRITES: &[(&str, &str)] = &[
    ("gauge_max", "gauge"),
    ("gauge_set", "gauge"),
    ("inc", "counter"),
    ("inc_by", "counter"),
    ("metric_gauge_max", "gauge"),
    ("metric_gauge_set", "gauge"),
    ("metric_inc", "counter"),
    ("metric_inc_by", "counter"),
    ("metric_inc_labeled", "counter"),
    ("metric_observe", "histogram"),
    ("observe", "histogram"),
];

fn str_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Literal(l)) if l.str_like => Some(l.text.as_str()),
        _ => None,
    }
}

fn json_str(s: &str) -> String {
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

/// Library-source files that can sit on a sim event path: `src/` trees
/// minus `src/bin/` entry points, outside any `tests/`, `benches/` or
/// `examples/` directory.
fn is_semantic_scope(path: &str) -> bool {
    let test_path = path.starts_with("tests/")
        || path.starts_with("examples/")
        || ["/tests/", "/benches/", "/examples/"].iter().any(|d| path.contains(d));
    !test_path && (path.starts_with("src/") || path.contains("/src/")) && !path.contains("/src/bin/")
}

/// The crate a path belongs to (`crates/net/src/…` → `net`, the root
/// package's `src/…` → `root`).
fn crate_of(path: &str) -> Option<&str> {
    if let Some(rest) = path.strip_prefix("crates/") {
        return rest.split('/').next();
    }
    if path.starts_with("src/") {
        return Some("root");
    }
    None
}

/// Runs S001–S005 over the whole tree and returns their raw violations
/// and the registries. `pinned_rng_inventory` is the contents of
/// `results/LINT_rng_inventory.json` when present; `allowed_clocks` are
/// the D001 sites an annotation silenced, which S003 checks.
pub(crate) fn analyze(
    files: &[SourceFile],
    pinned_rng_inventory: Option<&str>,
    allowed_clocks: &[Violation],
) -> (Vec<Violation>, Registries) {
    let mut out = Vec::new();
    let registries = Registries {
        wire: check_wire_tags(files, &mut out),
        rng: check_rng_sites(files, pinned_rng_inventory, &mut out),
        metric: check_metric_names(files, &mut out),
    };
    check_reachability(files, allowed_clocks, &mut out);
    check_public_callers(files, &mut out);
    (out, registries)
}

// ---------------------------------------------------------------------
// S001 — wire-tag registry
// ---------------------------------------------------------------------

struct TagInfo {
    name: String,
    value: u64,
    line: u32,
    col: u32,
    encode: usize,
    decode: usize,
}

fn is_tag_const(name: &str) -> bool {
    name.strip_prefix("TAG_").or_else(|| name.strip_prefix("T_")).is_some_and(|r| !r.is_empty())
}

fn check_wire_tags(files: &[SourceFile], out: &mut Vec<Violation>) -> String {
    let mut registry = String::from("{\n  \"version\": 1,\n  \"codecs\": [");
    let mut first_codec = true;
    for &(codec, path) in WIRE_CODECS {
        let Some(sf) = files.iter().find(|f| f.path == path) else {
            continue;
        };
        let tokens = &sf.lexed.tokens;
        let mut tags: Vec<TagInfo> = Vec::new();
        for c in &sf.parsed.consts {
            if !is_tag_const(&c.name) {
                continue;
            }
            let Some(value) = c.value else {
                out.push(violation(path, c.line, c.col, "S001", format!(
                    "wire tag `{}` must be a single integer literal so the registry can pin its value",
                    c.name)));
                continue;
            };
            if let Some(dup) = tags.iter().find(|t| t.value == value) {
                out.push(violation(path, c.line, c.col, "S001", format!(
                    "wire tag `{}` reuses value {} already taken by `{}` — the decoder cannot tell them apart",
                    c.name, value, dup.name)));
            }
            tags.push(TagInfo {
                name: c.name.clone(),
                value,
                line: c.line,
                col: c.col,
                encode: 0,
                decode: 0,
            });
        }
        // Classify every non-definition use: match-arm pattern = decode,
        // anything else in code = encode. Test regions don't count as
        // codec coverage.
        let def_idx: BTreeMap<&str, usize> = sf
            .parsed
            .consts
            .iter()
            .filter(|c| is_tag_const(&c.name))
            .map(|c| (c.name.as_str(), c.idx))
            .collect();
        for i in 0..tokens.len() {
            if sf.test_mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some(id) = ident_at(tokens, i) else {
                continue;
            };
            let Some(tag) = tags.iter_mut().find(|t| t.name == id) else {
                continue;
            };
            if def_idx.get(id) == Some(&i) {
                continue;
            }
            if sf.parsed.in_arm_pattern(i) {
                tag.decode += 1;
            } else {
                tag.encode += 1;
            }
        }
        for t in &tags {
            let status = match (t.encode, t.decode) {
                (0, 0) => Some("never encoded nor decoded — dead wire tag"),
                (_, 0) => Some("encoded but never decoded — the peer's bytes fall to the error path"),
                (0, _) => Some("decoded but never encoded — nothing on this side ever sends it"),
                _ => None,
            };
            if let Some(s) = status {
                out.push(violation(path, t.line, t.col, "S001", format!(
                    "wire tag `{}` (value {}) is {s}; register both sides or retire the tag",
                    t.name, t.value)));
            }
        }
        tags.sort_by(|a, b| a.value.cmp(&b.value).then_with(|| a.name.cmp(&b.name)));
        if !first_codec {
            registry.push(',');
        }
        first_codec = false;
        registry.push_str(&format!(
            "\n    {{\n      \"codec\": {},\n      \"file\": {},\n      \"tags\": [",
            json_str(codec),
            json_str(path)
        ));
        for (i, t) in tags.iter().enumerate() {
            if i > 0 {
                registry.push(',');
            }
            registry.push_str(&format!(
                "\n        {{\"name\": {}, \"value\": {}, \"encode\": {}, \"decode\": {}}}",
                json_str(&t.name),
                t.value,
                t.encode > 0,
                t.decode > 0
            ));
        }
        if !tags.is_empty() {
            registry.push_str("\n      ");
        }
        registry.push_str("]\n    }");
    }
    if !first_codec {
        registry.push_str("\n  ");
    }
    registry.push_str("]\n}\n");
    registry
}

// ---------------------------------------------------------------------
// S002 — seeded-RNG draw-site inventory
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SiteKey {
    file: String,
    func: String,
    method: String,
}

fn check_rng_sites(
    files: &[SourceFile],
    pinned: Option<&str>,
    out: &mut Vec<Violation>,
) -> String {
    // Harvest: every `.draw_method(` / `.draw_method::<T>(` in library
    // code outside test regions.
    let mut sites: BTreeMap<SiteKey, (u64, u32, u32)> = BTreeMap::new(); // count, line, col
    for sf in files {
        if !is_semantic_scope(&sf.path) {
            continue;
        }
        let tokens = &sf.lexed.tokens;
        for i in 0..tokens.len() {
            if sf.test_mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some(id) = ident_at(tokens, i) else {
                continue;
            };
            if !DRAW_METHODS.contains(&id) || !punct_at(tokens, i.wrapping_sub(1), '.') || i == 0 {
                continue;
            }
            let call = punct_at(tokens, i + 1, '(')
                || (punct_at(tokens, i + 1, ':') && punct_at(tokens, i + 2, ':'));
            if !call {
                continue;
            }
            let func = sf
                .parsed
                .enclosing_fn(i)
                .map_or_else(|| "<module>".to_string(), |f| f.qualified());
            let key = SiteKey {
                file: sf.path.clone(),
                func,
                method: id.to_string(),
            };
            let t = &tokens[i];
            let e = sites.entry(key).or_insert((0, t.line, t.col));
            e.0 += 1;
        }
    }
    let pinned_sites = pinned.map(parse_pinned_inventory).unwrap_or_default();
    let pinned_by_key: BTreeMap<SiteKey, (u64, String)> = pinned_sites
        .into_iter()
        .map(|(k, count, reason)| (k, (count, reason)))
        .collect();
    for (key, &(_, line, col)) in &sites {
        match pinned_by_key.get(key) {
            None => out.push(violation(&key.file, line, col, "S002", format!(
                "new seeded-RNG draw site `{}` via `.{}()` is not in results/LINT_rng_inventory.json; \
                 re-emit with --emit-registries and record why the draw cannot perturb pinned artifacts",
                key.func, key.method))),
            Some((_, reason)) if reason.is_empty() || reason == "UNREVIEWED" => {
                out.push(violation(&key.file, line, col, "S002", format!(
                    "seeded-RNG draw site `{}` via `.{}()` is inventoried without a review reason",
                    key.func, key.method)));
            }
            Some(_) => {}
        }
    }
    for key in pinned_by_key.keys() {
        if !sites.contains_key(key) {
            out.push(violation("results/LINT_rng_inventory.json", 1, 1, "S002", format!(
                "stale inventory entry: `{}` / `{}` / `.{}()` no longer draws; re-emit with --emit-registries",
                key.file, key.func, key.method)));
        }
    }
    // Emit, preserving pinned reasons for surviving sites.
    let mut json = String::from("{\n  \"version\": 1,\n  \"sites\": [");
    for (i, (key, &(count, _, _))) in sites.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let reason = pinned_by_key
            .get(key)
            .map_or("UNREVIEWED", |(_, r)| r.as_str());
        json.push_str(&format!(
            "\n    {{\"file\": {}, \"fn\": {}, \"method\": {}, \"count\": {}, \"reason\": {}}}",
            json_str(&key.file),
            json_str(&key.func),
            json_str(&key.method),
            count,
            json_str(reason)
        ));
    }
    if !sites.is_empty() {
        json.push_str("\n  ");
    }
    json.push_str("]\n}\n");
    json
}

/// Parses the machine-managed inventory format this module emits: one
/// site object per line, fixed keys. Unrecognized lines are skipped —
/// the worst case is a site treated as new, which fails closed.
fn parse_pinned_inventory(json: &str) -> Vec<(SiteKey, u64, String)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(file) = extract_str(line, "file") else {
            continue;
        };
        let (Some(func), Some(method)) = (extract_str(line, "fn"), extract_str(line, "method"))
        else {
            continue;
        };
        let count = extract_num(line, "count").unwrap_or(0);
        let reason = extract_str(line, "reason").unwrap_or_default();
        out.push((SiteKey { file, func, method }, count, reason));
    }
    out
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut val = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(val),
            '\\' => {
                match chars.next()? {
                    'n' => val.push('\n'),
                    't' => val.push('\t'),
                    'r' => val.push('\r'),
                    other => val.push(other),
                }
            }
            c => val.push(c),
        }
    }
    None
}

fn extract_num(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

// ---------------------------------------------------------------------
// S003 — suppression reachability
// ---------------------------------------------------------------------

/// Keywords that look like calls when followed by `(`.
const NOT_CALLS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "dyn", "else", "enum", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

fn check_reachability(files: &[SourceFile], allowed_clocks: &[Violation], out: &mut Vec<Violation>) {
    // Group library files by crate.
    let mut crates: BTreeMap<&str, Vec<&SourceFile>> = BTreeMap::new();
    for sf in files {
        if !is_semantic_scope(&sf.path) {
            continue;
        }
        if let Some(c) = crate_of(&sf.path) {
            crates.entry(c).or_default().push(sf);
        }
    }
    for (_crate_name, members) in crates {
        // Flat fn table: (file idx in members, fn idx).
        let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, sf) in members.iter().enumerate() {
            for (ni, f) in sf.parsed.fns.iter().enumerate() {
                by_name.entry(f.name.as_str()).or_default().push((fi, ni));
            }
        }
        // Seed the worklist with the event roots.
        let mut reached: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut via: BTreeMap<(usize, usize), String> = BTreeMap::new();
        let mut work: Vec<(usize, usize)> = Vec::new();
        for (fi, sf) in members.iter().enumerate() {
            for (ni, f) in sf.parsed.fns.iter().enumerate() {
                let is_root = EVENT_ROOTS.contains(&f.name.as_str())
                    || (f.name == "step" && f.owner.as_deref() == Some("Sim"));
                if is_root && reached.insert((fi, ni)) {
                    via.insert((fi, ni), f.qualified());
                    work.push((fi, ni));
                }
            }
        }
        // Conservative BFS: an ident followed by `(` inside a reached
        // fn's body edges to every same-named fn in the crate.
        while let Some((fi, ni)) = work.pop() {
            let sf = members[fi];
            let f = &sf.parsed.fns[ni];
            let root = via.get(&(fi, ni)).cloned().unwrap_or_default();
            let Some((lo, hi)) = f.body else {
                continue;
            };
            let tokens = &sf.lexed.tokens;
            for i in lo..=hi.min(tokens.len().saturating_sub(1)) {
                let Some(id) = ident_at(tokens, i) else {
                    continue;
                };
                if !punct_at(tokens, i + 1, '(') || NOT_CALLS.contains(&id) {
                    continue;
                }
                if let Some(callees) = by_name.get(id) {
                    for &target in callees {
                        if reached.insert(target) {
                            via.insert(target, root.clone());
                            work.push(target);
                        }
                    }
                }
            }
        }
        // Any suppressed D001 site inside a reached fn is a violation.
        for (fi, sf) in members.iter().enumerate() {
            for v in allowed_clocks.iter().filter(|v| v.file == sf.path) {
                for (ni, f) in sf.parsed.fns.iter().enumerate() {
                    let Some((lo, hi)) = f.body else {
                        continue;
                    };
                    let lines = (sf.lexed.tokens[lo].line, sf.lexed.tokens[hi].line);
                    if !reached.contains(&(fi, ni))
                        || v.line < lines.0
                        || v.line > lines.1
                    {
                        continue;
                    }
                    let root = via.get(&(fi, ni)).cloned().unwrap_or_default();
                    out.push(violation(&sf.path, v.line, v.col, "S003", format!(
                        "D001-suppressed wall-clock/entropy read inside `{}` is reachable from sim event root `{}`; \
                         host-side-only exemptions must stay host-side",
                        f.qualified(), root)));
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// S004 — metric-name registry
// ---------------------------------------------------------------------

struct MetricInfo {
    kinds: BTreeSet<&'static str>,
    labeled: bool,
    files: BTreeSet<String>,
    line: u32,
    col: u32,
    first_file: String,
}

fn metric_kind(call: &str) -> Option<&'static str> {
    METRIC_WRITES
        .iter()
        .find(|(m, _)| *m == call)
        .map(|&(_, k)| k)
}

fn check_metric_names(files: &[SourceFile], out: &mut Vec<Violation>) -> String {
    let mut metrics: BTreeMap<String, MetricInfo> = BTreeMap::new();
    for sf in files {
        if !is_semantic_scope(&sf.path) {
            continue;
        }
        let tokens = &sf.lexed.tokens;
        for i in 0..tokens.len() {
            if sf.test_mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let Some(id) = ident_at(tokens, i) else {
                continue;
            };
            let Some(kind) = metric_kind(id) else {
                continue;
            };
            if i == 0 || !punct_at(tokens, i - 1, '.') || !punct_at(tokens, i + 1, '(') {
                continue;
            }
            // First argument: a string literal, or MetricKey::plain /
            // MetricKey::labeled wrapping one.
            let (name_idx, labeled) = if str_at(tokens, i + 2).is_some() {
                (i + 2, id == "metric_inc_labeled")
            } else if ident_at(tokens, i + 2) == Some("MetricKey")
                && punct_at(tokens, i + 3, ':')
                && punct_at(tokens, i + 4, ':')
                && punct_at(tokens, i + 6, '(')
                && str_at(tokens, i + 7).is_some()
            {
                match ident_at(tokens, i + 5) {
                    Some("plain") => (i + 7, false),
                    Some("labeled") => (i + 7, true),
                    _ => continue,
                }
            } else {
                continue; // dynamic name; out of registry scope
            };
            let name = str_at(tokens, name_idx).unwrap_or_default().to_string();
            let t = &tokens[name_idx];
            let e = metrics.entry(name).or_insert_with(|| MetricInfo {
                kinds: BTreeSet::new(),
                labeled: false,
                files: BTreeSet::new(),
                line: t.line,
                col: t.col,
                first_file: sf.path.clone(),
            });
            e.kinds.insert(kind);
            e.labeled |= labeled;
            e.files.insert(sf.path.clone());
        }
    }
    // Taxonomy + kind-conflict checks.
    for (name, info) in &metrics {
        let segments: Vec<&str> = name.split('.').collect();
        let well_formed = segments.len() >= 2
            && segments.iter().all(|s| {
                !s.is_empty()
                    && s.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            });
        if !well_formed {
            out.push(violation(&info.first_file, info.line, info.col, "S004", format!(
                "metric name `{name}` does not follow the `layer.name` taxonomy (lowercase dotted segments)")));
        } else if !METRIC_LAYERS.contains(&segments[0]) {
            out.push(violation(&info.first_file, info.line, info.col, "S004", format!(
                "metric name `{name}` uses unknown layer `{}`; known layers: {}",
                segments[0],
                METRIC_LAYERS.join(", "))));
        }
        if info.kinds.len() > 1 {
            let kinds: Vec<&str> = info.kinds.iter().copied().collect();
            out.push(violation(&info.first_file, info.line, info.col, "S004", format!(
                "metric name `{name}` is written as more than one instrument kind ({})",
                kinds.join(" + "))));
        }
    }
    // Near-duplicates: identical after separators are removed.
    let mut normalized: BTreeMap<String, &String> = BTreeMap::new();
    for name in metrics.keys() {
        let norm: String = name.chars().filter(|c| *c != '.' && *c != '_').collect();
        if let Some(prev) = normalized.get(norm.as_str()) {
            let info = &metrics[name];
            out.push(violation(&info.first_file, info.line, info.col, "S004", format!(
                "metric name `{name}` is a near-duplicate of `{prev}` (same name modulo separators)")));
        } else {
            normalized.insert(norm, name);
        }
    }
    // Registry emission.
    let mut json = String::from("{\n  \"version\": 1,\n  \"metrics\": [");
    for (i, (name, info)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let kind = if info.kinds.len() == 1 {
            info.kinds.iter().next().copied().unwrap_or("mixed")
        } else {
            "mixed"
        };
        let files: Vec<String> = info.files.iter().map(|f| json_str(f)).collect();
        json.push_str(&format!(
            "\n    {{\"name\": {}, \"kind\": {}, \"labeled\": {}, \"files\": [{}]}}",
            json_str(name),
            json_str(kind),
            info.labeled,
            files.join(", ")
        ));
    }
    if !metrics.is_empty() {
        json.push_str("\n  ");
    }
    json.push_str("]\n}\n");
    json
}

// ---------------------------------------------------------------------
// S005 — every public fn has a caller outside tests
// ---------------------------------------------------------------------

fn check_public_callers(files: &[SourceFile], out: &mut Vec<Violation>) {
    // Which files name each identifier in code that runs outside tests:
    // not a `tests/` tree, not a test region, not a `use` declaration.
    let mut named_in: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (fi, sf) in files.iter().enumerate() {
        if sf.path.starts_with("tests/") || sf.path.contains("/tests/") {
            continue;
        }
        for (i, t) in sf.lexed.tokens.iter().enumerate() {
            if let TokKind::Ident(id) = &t.kind {
                if !sf.test_mask.get(i).copied().unwrap_or(false) && !sf.parsed.in_use(i) {
                    named_in.entry(id.as_str()).or_default().insert(fi);
                }
            }
        }
    }
    for (fi, sf) in files.iter().enumerate() {
        if !is_semantic_scope(&sf.path) {
            continue;
        }
        let in_test = |i: usize| sf.test_mask.get(i).copied().unwrap_or(false);
        for f in &sf.parsed.fns {
            if !f.public || f.body.is_some_and(|(lo, _)| in_test(lo)) {
                continue;
            }
            let called = named_in
                .get(f.name.as_str())
                .is_some_and(|users| users.iter().any(|&u| u != fi));
            if !called {
                out.push(violation(&sf.path, f.line, f.col, "S005", format!(
                    "`pub fn {}` has no caller outside its own file but tests; make it private, \
                     delete it, or allow(S005) naming its outside consumer",
                    f.qualified())));
            }
        }
    }
}
