//! A lightweight item-level parser on top of [`crate::lexer`].
//!
//! The cross-file semantic rules (S001–S005, see `LINTS.md`) need more
//! shape than a flat token stream — which `fn` a token sits in, what a
//! `const` is worth, which idents are match-arm *patterns* versus
//! code — but far less than a real syntax tree. This pass extracts
//! exactly that: `fn` items (with their impl owner, visibility and body
//! span), `const` items (with integer values when the initializer is a
//! single literal), `match` arms (pattern token spans) and `use`
//! declarations, all as index ranges into the token stream.
//!
//! Like the lexer it must never fail: malformed or adversarial input
//! degrades to *fewer recognized items*, never to a panic or an
//! out-of-bounds span (property-tested in `tests/proptest_parser.rs`).

use crate::lexer::{ident_at, punct_at, Lexed, TokKind, Token};

/// A `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The surrounding `impl` block's type name (`Sim` for
    /// `impl Sim { fn step … }`), if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Declared plain `pub` (not `pub(crate)` or narrower).
    pub public: bool,
    /// Token-index range `[open brace, close brace]` of the body;
    /// `None` for bodyless declarations (trait methods).
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// `Owner::name` when inside an impl block, else just `name`.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether token index `i` falls inside this fn's body.
    pub fn contains(&self, i: usize) -> bool {
        self.body.is_some_and(|(lo, hi)| (lo..=hi).contains(&i))
    }
}

/// A `const` (or `static`) item with a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstItem {
    /// The const's name.
    pub name: String,
    /// 1-based line of the name ident.
    pub line: u32,
    /// 1-based column of the name ident.
    pub col: u32,
    /// Token index of the name ident.
    pub idx: usize,
    /// The initializer's integer value, when it is a single integer
    /// literal (`const TAG_PING: u8 = 9;`). `None` for expressions.
    pub value: Option<u64>,
}

/// One `match` arm's pattern: the token-index range `[start, end)`
/// strictly before the `=>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchArm {
    /// Token range of the pattern (guard included — for tag-registry
    /// purposes `t if t == TAG_X` is as much a decode site as `TAG_X`).
    pub pat: (usize, usize),
    /// 1-based line of the pattern's first token.
    pub line: u32,
}

/// Everything the item parser extracted from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All `fn` items, in source order.
    pub fns: Vec<FnItem>,
    /// All named `const`/`static` items, in source order.
    pub consts: Vec<ConstItem>,
    /// All `match` arms (from every `match`, nested ones included), in
    /// source order of their patterns.
    pub arms: Vec<MatchArm>,
    /// Token-index ranges `[use, ;]` of every `use` declaration.
    pub uses: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// The innermost fn whose body contains token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.contains(i))
            .min_by_key(|f| f.body.map_or(usize::MAX, |(lo, hi)| hi - lo))
    }

    /// Whether token index `i` sits inside any match-arm pattern.
    pub fn in_arm_pattern(&self, i: usize) -> bool {
        self.arms.iter().any(|a| (a.pat.0..a.pat.1).contains(&i))
    }

    /// Whether token index `i` sits inside a `use` declaration.
    pub fn in_use(&self, i: usize) -> bool {
        self.uses.iter().any(|&(lo, hi)| (lo..=hi).contains(&i))
    }
}

/// Finds the index of the `}` matching the `{` at `open`, or the last
/// token if unbalanced.
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Skips a balanced `<…>` generics block starting at `i` (which must be
/// `<`). Returns the index just past the closing `>`. `>>` lexes as two
/// `>` tokens, so plain counting works.
fn skip_generics(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            // A brace or semicolon inside an impl-generics header means
            // the source is malformed; bail rather than overrun.
            TokKind::Punct('{') | TokKind::Punct(';') => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Reads a type head at `i`: skips `&`, `dyn`, `mut`, then follows a
/// `path::to::Type` chain, returning the **last** path-segment ident
/// (the type's own name) and the index just past it.
fn parse_type_head(tokens: &[Token], i: usize) -> (Option<String>, usize) {
    let mut j = i;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct('&') | TokKind::Punct('\'') => j += 1,
            TokKind::Ident(s) if s == "dyn" || s == "mut" => j += 1,
            _ => break,
        }
    }
    let mut last = None;
    while let Some(name) = ident_at(tokens, j) {
        last = Some(name.to_string());
        j += 1;
        if punct_at(tokens, j, ':') && punct_at(tokens, j + 1, ':') {
            j += 2;
        } else {
            break;
        }
    }
    (last, j)
}

/// Parses the header of an `impl` at token `i` (the `impl` keyword).
/// Returns the implemented type's name (the `for` type when present)
/// and the index of the block's `{`, or `None` if no block follows.
fn parse_impl_header(tokens: &[Token], i: usize) -> Option<(Option<String>, usize)> {
    let mut j = i + 1;
    if punct_at(tokens, j, '<') {
        j = skip_generics(tokens, j);
    }
    let (first_head, mut k) = parse_type_head(tokens, j);
    if punct_at(tokens, k, '<') {
        k = skip_generics(tokens, k);
    }
    let mut owner = first_head;
    if ident_at(tokens, k) == Some("for") {
        let (for_head, mut m) = parse_type_head(tokens, k + 1);
        owner = for_head;
        if punct_at(tokens, m, '<') {
            m = skip_generics(tokens, m);
        }
        k = m;
    }
    // Scan to the block's `{` (skipping a `where` clause); a `;` first
    // means no block.
    while k < tokens.len() {
        match tokens[k].kind {
            TokKind::Punct('{') => return Some((owner, k)),
            TokKind::Punct(';') => return None,
            _ => k += 1,
        }
    }
    None
}

/// Parses a `fn` at token `i` (the `fn` keyword). Returns the item; the
/// caller's walk continues from `i + 1` so nested items are still seen.
fn parse_fn(tokens: &[Token], i: usize, owner: Option<&str>) -> Option<FnItem> {
    let name = ident_at(tokens, i + 1)?.to_string();
    // Find the body `{` (or a `;` for bodyless declarations), balancing
    // parens/brackets so closure bodies in default-arg positions or
    // array types do not confuse the scan.
    let mut depth = 0usize;
    let mut j = i + 2;
    let mut body = None;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth = depth.saturating_sub(1),
            TokKind::Punct('{') if depth == 0 => {
                body = Some((j, matching_brace(tokens, j)));
                break;
            }
            TokKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    Some(FnItem {
        name,
        owner: owner.map(str::to_string),
        line: tokens[i].line,
        col: tokens[i].col,
        public: is_plain_pub(tokens, i),
        body,
    })
}

/// Whether the `fn` at token `i` is declared plain `pub`: past any
/// `const`/`unsafe` qualifiers, the token before it is `pub` itself,
/// not the `)` of `pub(crate)`.
fn is_plain_pub(tokens: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 && matches!(ident_at(tokens, j - 1), Some("const" | "unsafe")) {
        j -= 1;
    }
    j > 0 && ident_at(tokens, j - 1) == Some("pub")
}

/// The index of the `;` ending the `use` declaration at token `i`
/// (braces in `use a::{b, c};` balanced), or the last token.
fn use_end(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(i) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => depth = depth.saturating_sub(1),
            TokKind::Punct(';') if depth == 0 => return j,
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Parses a `const`/`static` at token `i`. Recognizes only the item
/// form `const NAME: Ty = value;` — `const fn`, `*const T`, and
/// associated-const *uses* are skipped.
fn parse_const(tokens: &[Token], i: usize) -> Option<ConstItem> {
    // `*const T` is a pointer type, not an item.
    if i > 0 && punct_at(tokens, i - 1, '*') {
        return None;
    }
    let name = ident_at(tokens, i + 1)?;
    if name == "fn" || name == "_" {
        return None;
    }
    if !punct_at(tokens, i + 2, ':') {
        return None;
    }
    let name = name.to_string();
    let name_tok = &tokens[i + 1];
    // Skip the type to the `=` at depth 0; `;` first means no value.
    let mut depth = 0usize;
    let mut j = i + 3;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                if depth == 0 {
                    return None; // ran out of the enclosing scope
                }
                depth -= 1;
            }
            TokKind::Punct('=') if depth == 0 => break,
            TokKind::Punct(';') if depth == 0 => {
                j = usize::MAX;
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let mut value = None;
    if j != usize::MAX && j < tokens.len() {
        // Value = single integer literal ending the statement.
        if let Some(Token {
            kind: TokKind::Literal(lit),
            ..
        }) = tokens.get(j + 1)
        {
            if punct_at(tokens, j + 2, ';') {
                value = lit.int_value();
            }
        }
    }
    Some(ConstItem {
        name,
        line: name_tok.line,
        col: name_tok.col,
        idx: i + 1,
        value,
    })
}

/// Parses the arms of a `match` at token `i` (the `match` keyword) into
/// `arms`. Nested matches are *not* recursed into here — the main walk
/// visits every `match` keyword exactly once.
fn parse_match_arms(tokens: &[Token], i: usize, arms: &mut Vec<MatchArm>) {
    // Scrutinee: scan to the `{` at depth 0. Rust forbids bare struct
    // literals in scrutinee position, so the first depth-0 `{` opens
    // the arm block.
    let mut depth = 0usize;
    let mut j = i + 1;
    let open = loop {
        match tokens.get(j).map(|t| &t.kind) {
            None => return,
            Some(TokKind::Punct('(')) | Some(TokKind::Punct('[')) => depth += 1,
            Some(TokKind::Punct(')')) | Some(TokKind::Punct(']')) => {
                depth = depth.saturating_sub(1)
            }
            Some(TokKind::Punct('{')) if depth == 0 => break j,
            Some(TokKind::Punct(';')) if depth == 0 => return, // malformed
            _ => {}
        }
        j += 1;
    };
    let close = matching_brace(tokens, open);
    let mut k = open + 1;
    while k < close {
        // Skip arm separators and leading `|`.
        while k < close && (punct_at(tokens, k, ',') || punct_at(tokens, k, '|')) {
            k += 1;
        }
        if k >= close {
            break;
        }
        // Pattern: up to the `=>` at depth 0.
        let start = k;
        let mut depth = 0usize;
        let end = loop {
            if k >= close {
                break k; // malformed arm; treat the rest as pattern
            }
            match tokens[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1)
                }
                TokKind::Punct('=') if depth == 0 && punct_at(tokens, k + 1, '>') => break k,
                _ => {}
            }
            k += 1;
        };
        if end > start {
            arms.push(MatchArm {
                pat: (start, end),
                line: tokens[start].line,
            });
        }
        if k >= close {
            break;
        }
        k += 2; // past `=>`
        // Body: a braced block, or an expression up to the `,` at depth 0.
        if punct_at(tokens, k, '{') {
            k = matching_brace(tokens, k) + 1;
        } else {
            let mut depth = 0usize;
            while k < close {
                match tokens[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                        depth = depth.saturating_sub(1)
                    }
                    TokKind::Punct(',') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
        }
    }
}

/// Runs the item parser over a lexed file.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let tokens = &lexed.tokens;
    let mut out = ParsedFile::default();
    // Stack of (impl owner, block close index); popped as the walk
    // passes each block's end.
    let mut owners: Vec<(Option<String>, usize)> = Vec::new();
    for i in 0..tokens.len() {
        while owners.last().is_some_and(|&(_, end)| end < i) {
            owners.pop();
        }
        let Some(word) = ident_at(tokens, i) else {
            continue;
        };
        match word {
            "impl" => {
                if let Some((owner, open)) = parse_impl_header(tokens, i) {
                    let close = matching_brace(tokens, open);
                    owners.push((owner, close));
                }
            }
            "trait" => {
                // `trait Dev { fn on_packet(...); }` — method decls are
                // owned by the trait name. Scan to the body `{`,
                // stopping at `;` (trait alias) or `=` just in case.
                let name = ident_at(tokens, i + 1).map(str::to_string);
                let mut k = i + 2;
                while k < tokens.len() && k < i + 128 {
                    match tokens[k].kind {
                        TokKind::Punct('{') => {
                            let close = matching_brace(tokens, k);
                            owners.push((name, close));
                            break;
                        }
                        TokKind::Punct(';') | TokKind::Punct('=') => break,
                        _ => k += 1,
                    }
                }
            }
            "fn" => {
                let owner = owners
                    .iter()
                    .rev()
                    .find_map(|(o, _)| o.as_deref());
                if let Some(f) = parse_fn(tokens, i, owner) {
                    out.fns.push(f);
                }
            }
            "const" | "static" => {
                if let Some(c) = parse_const(tokens, i) {
                    out.consts.push(c);
                }
            }
            "use" => out.uses.push((i, use_end(tokens, i))),
            "match" => {
                // `Enum::match` / `.match` cannot occur (keyword), but a
                // raw ident `r#match` lexes to `match`; the damage is a
                // spurious arm scan, never a panic.
                parse_match_arms(tokens, i, &mut out.arms);
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn fns_get_impl_owners_and_bodies() {
        let src = "
            impl Sim {
                pub fn step(&mut self) -> bool { self.tick() }
                fn tick(&self) {}
            }
            impl<T: Clone> Pool<T> {
                fn drain(&mut self) {}
            }
            impl fmt::Display for MetricKey {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
            }
            fn free() {}
            trait Dev { fn on_packet(&mut self); }
        ";
        let p = parsed(src);
        let quals: Vec<String> = p.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(
            quals,
            [
                "Sim::step",
                "Sim::tick",
                "Pool::drain",
                "MetricKey::fmt",
                "free",
                "Dev::on_packet"
            ]
        );
        assert!(p.fns[0].body.is_some());
        assert!(p.fns[5].body.is_none(), "trait decl has no body");
    }

    #[test]
    fn enclosing_fn_is_innermost() {
        let src = "fn outer() { fn inner() { work(); } }";
        let p = parsed(src);
        let lx = lex(src);
        let work_idx = lx
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, TokKind::Ident(s) if s == "work"))
            .unwrap();
        assert_eq!(p.enclosing_fn(work_idx).unwrap().name, "inner");
    }

    #[test]
    fn visibility_and_use_declarations() {
        let src = "
            pub use a::{b, c};
            pub fn open() {}
            pub(crate) fn crate_only() {}
            pub const unsafe fn qualified() {}
            fn private() { use std::mem; }
        ";
        let p = parsed(src);
        let public: Vec<(&str, bool)> = p.fns.iter().map(|f| (f.name.as_str(), f.public)).collect();
        assert_eq!(
            public,
            [("open", true), ("crate_only", false), ("qualified", true), ("private", false)]
        );
        let lx = lex(src);
        let in_use = |name: &str| {
            let ident = |t: &Token| matches!(&t.kind, TokKind::Ident(s) if s == name);
            p.in_use(lx.tokens.iter().position(ident).unwrap())
        };
        assert!(in_use("c") && in_use("mem"));
        assert!(!in_use("open"));
    }

    #[test]
    fn consts_with_literal_values() {
        let src = "
            const TAG_PING: u8 = 9;
            pub const MAX: usize = 0x40;
            const DERIVED: u16 = BASE + 1;
            static NAME: &str = \"x\";
        ";
        let p = parsed(src);
        let vals: Vec<(&str, Option<u64>)> = p
            .consts
            .iter()
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        assert_eq!(
            vals,
            [
                ("TAG_PING", Some(9)),
                ("MAX", Some(64)),
                ("DERIVED", None),
                ("NAME", None)
            ]
        );
    }

    #[test]
    fn const_fn_and_pointer_const_are_not_items() {
        let p = parsed("const fn f() {} fn g(p: *const u8) {}");
        assert!(p.consts.is_empty());
        assert_eq!(p.fns.len(), 2);
    }

    #[test]
    fn match_arms_split_patterns_from_bodies() {
        let src = "
            fn decode(t: u8) -> Msg {
                match t {
                    TAG_PING => Msg::Ping,
                    TAG_DATA | TAG_MORE => Msg::Data { body: make(TAG_UNUSED) },
                    other if other == TAG_ODD => Msg::Odd,
                    _ => Msg::Err,
                }
            }
        ";
        let p = parsed(src);
        assert_eq!(p.arms.len(), 4);
        let lx = lex(src);
        let idx_of = |name: &str| {
            lx.tokens
                .iter()
                .position(|t| matches!(&t.kind, TokKind::Ident(s) if s == name))
                .unwrap()
        };
        assert!(p.in_arm_pattern(idx_of("TAG_PING")));
        assert!(p.in_arm_pattern(idx_of("TAG_DATA")));
        assert!(p.in_arm_pattern(idx_of("TAG_MORE")));
        assert!(p.in_arm_pattern(idx_of("TAG_ODD")), "guards are pattern");
        assert!(!p.in_arm_pattern(idx_of("TAG_UNUSED")), "arm body is not");
    }

    #[test]
    fn nested_matches_all_collect_arms() {
        let src = "
            fn f(a: u8, b: u8) -> u8 {
                match a {
                    0 => match b { 1 => 10, _ => 20 },
                    _ => 0,
                }
            }
        ";
        let p = parsed(src);
        assert_eq!(p.arms.len(), 4);
    }

    #[test]
    fn malformed_input_degrades_without_panicking() {
        for src in [
            "impl {",
            "fn",
            "fn f(",
            "match",
            "match x {",
            "match x { a =>",
            "const X:",
            "impl<T for {}",
            "} } ) fn ( {",
        ] {
            let p = parsed(src);
            for f in &p.fns {
                if let Some((lo, hi)) = f.body {
                    assert!(lo <= hi && hi < lex(src).tokens.len().max(1));
                }
            }
        }
    }
}
