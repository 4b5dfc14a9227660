//! A minimal Rust lexer: just enough to tell code from comments,
//! strings, and literals, so rule matching never fires inside a string
//! or a doc comment.
//!
//! This is deliberately **not** a full parser (the build environment has
//! no `syn`); it produces a flat token stream with line/column positions
//! plus the comment list, which is all the token-pattern rules in
//! [`crate::rules`] need. It understands the lexical shapes that would
//! otherwise cause false positives: nested block comments, string /
//! raw-string / byte-string / char literals, lifetimes vs. char
//! literals, and raw identifiers.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
    /// What kind of token this is.
    pub kind: TokKind,
}

/// The identifier text of `tokens[i]`, if it is an identifier.
pub(crate) fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Whether `tokens[i]` is the punctuation character `c`.
pub(crate) fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i), Some(t) if t.kind == TokKind::Punct(c))
}

/// Token kinds. Literal contents are **kept**: the semantic passes need
/// wire-tag const values (numeric literals) and metric-name strings, so
/// a literal token carries its text and whether it is string-like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword, with its text.
    Ident(String),
    /// A single punctuation character.
    Punct(char),
    /// A string / char / numeric literal, with its contents.
    Literal(Lit),
}

/// A literal's contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lit {
    /// For string-like literals: the contents between the delimiters
    /// (escape sequences left uncooked). For numeric/char literals: the
    /// raw source text.
    pub text: String,
    /// True for string and byte-string literals (`"…"`, `r#"…"#`,
    /// `b"…"`, `br##"…"##`, `c"…"`); false for numeric and char
    /// literals.
    pub str_like: bool,
}

impl Lit {
    fn num(text: String) -> Self {
        Lit {
            text,
            str_like: false,
        }
    }

    fn str(text: String) -> Self {
        Lit {
            text,
            str_like: true,
        }
    }

    /// Parses a numeric literal's integer value, handling `_`
    /// separators, `0x`/`0o`/`0b` prefixes, and type suffixes
    /// (`1u8`, `0x10_u32`). `None` for floats, chars, and strings.
    pub fn int_value(&self) -> Option<u64> {
        if self.str_like {
            return None;
        }
        let cleaned: String = self.text.chars().filter(|&c| c != '_').collect();
        let (radix, digits) = match cleaned.as_bytes() {
            [b'0', b'x', ..] | [b'0', b'X', ..] => (16, &cleaned[2..]),
            [b'0', b'o', b'0'..=b'7', ..] => (8, &cleaned[2..]),
            [b'0', b'b', b'0' | b'1', ..] => (2, &cleaned[2..]),
            _ => (10, cleaned.as_str()),
        };
        // Strip a type suffix: the digits end at the first char that is
        // not valid in this radix.
        let end = digits
            .char_indices()
            .find(|&(_, c)| !c.is_digit(radix))
            .map_or(digits.len(), |(i, _)| i);
        if end == 0 {
            return None;
        }
        u64::from_str_radix(&digits[..end], radix).ok()
    }
}

/// A comment, kept separately from the token stream so suppression
/// annotations (`// punch-lint: allow(...) reason`) can be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// 1-based column of the comment's first character.
    pub col: u32,
    /// Comment text without the `//` / `/*` delimiters.
    pub text: String,
    /// True if a token appeared earlier on the same line (a trailing
    /// comment annotates its own line; a standalone one annotates the
    /// next line of code).
    pub code_before: bool,
}

/// Lexer output: the token stream plus all comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
    /// Whether a token has been emitted on the current line.
    code_on_line: bool,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
            self.code_on_line = false;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True for identifier words that, followed by a quote, start a string
/// or byte-string literal (`b"..."`, `r#"..."#`, `br"..."`, `c"..."`).
fn is_literal_prefix(word: &str) -> bool {
    matches!(word, "b" | "r" | "br" | "rb" | "c" | "cr")
}

/// Lexes `src` into tokens and comments. Malformed input (unterminated
/// strings or comments) is tolerated: the lexer consumes to EOF rather
/// than erroring, since a linter must not die on the code it reads.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
        code_on_line: false,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
        } else if c == '/' && cur.peek(1) == Some('/') {
            lex_line_comment(&mut cur, &mut out, line, col);
        } else if c == '/' && cur.peek(1) == Some('*') {
            lex_block_comment(&mut cur, &mut out, line, col);
        } else if c == '"' {
            let text = lex_string(&mut cur);
            push(&mut cur, &mut out, line, col, TokKind::Literal(Lit::str(text)));
        } else if c == '\'' {
            lex_quote(&mut cur, &mut out, line, col);
        } else if c.is_ascii_digit() {
            let text = lex_number(&mut cur);
            push(&mut cur, &mut out, line, col, TokKind::Literal(Lit::num(text)));
        } else if is_ident_start(c) {
            lex_word(&mut cur, &mut out, line, col);
        } else {
            cur.bump();
            push(&mut cur, &mut out, line, col, TokKind::Punct(c));
        }
    }
    out
}

fn push(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32, kind: TokKind) {
    cur.code_on_line = true;
    out.tokens.push(Token { line, col, kind });
}

fn lex_line_comment(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let code_before = cur.code_on_line;
    cur.bump();
    cur.bump();
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    out.comments.push(Comment {
        line,
        col,
        text,
        code_before,
    });
}

fn lex_block_comment(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let code_before = cur.code_on_line;
    cur.bump();
    cur.bump();
    let mut depth = 1u32;
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '/' && cur.peek(1) == Some('*') {
            depth += 1;
            cur.bump();
            cur.bump();
            text.push_str("/*");
        } else if c == '*' && cur.peek(1) == Some('/') {
            depth -= 1;
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
            text.push_str("*/");
        } else {
            text.push(c);
            cur.bump();
        }
    }
    out.comments.push(Comment {
        line,
        col,
        text,
        code_before,
    });
}

/// Consumes a `"…"` string with escape handling (opening quote at the
/// cursor) and returns its contents, escapes left uncooked.
fn lex_string(cur: &mut Cursor) -> String {
    cur.bump(); // opening quote
    let mut text = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                text.push(c);
                if let Some(e) = cur.bump() {
                    text.push(e);
                }
            }
            '"' => break,
            _ => text.push(c),
        }
    }
    text
}

/// Consumes a raw string `r"…"` / `r##"…"##` with `hashes` leading `#`s
/// (cursor just past the opening quote) and returns its contents. A
/// quote followed by fewer than `hashes` hashes is part of the body.
fn lex_raw_string_body(cur: &mut Cursor, hashes: usize) -> String {
    let mut text = String::new();
    while let Some(c) = cur.bump() {
        if c == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if cur.peek(k) != Some('#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
        text.push(c);
    }
    text
}

/// Disambiguates `'a` (lifetime) from `'a'` / `'\n'` (char literal).
fn lex_quote(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    cur.bump(); // the quote
    match cur.peek(0) {
        Some('\\') => {
            // Escaped char literal: consume through the closing quote.
            let mut text = String::new();
            while let Some(c) = cur.bump() {
                if c == '\'' {
                    break;
                }
                text.push(c);
            }
            push(cur, out, line, col, TokKind::Literal(Lit::num(text)));
        }
        Some(c) if is_ident_start(c) => {
            if cur.peek(1) == Some('\'') {
                // 'x' — a one-character char literal.
                cur.bump();
                cur.bump();
                push(cur, out, line, col, TokKind::Literal(Lit::num(c.to_string())));
            } else {
                // 'lifetime — consume the identifier, emit nothing (no
                // rule cares about lifetimes).
                while let Some(c) = cur.peek(0) {
                    if !is_ident_continue(c) {
                        break;
                    }
                    cur.bump();
                }
                cur.code_on_line = true;
            }
        }
        Some(q) => {
            // Something like '9' or punctuation char literal.
            cur.bump();
            if cur.peek(0) == Some('\'') {
                cur.bump();
            }
            push(cur, out, line, col, TokKind::Literal(Lit::num(q.to_string())));
        }
        None => {}
    }
}

fn lex_number(cur: &mut Cursor) -> String {
    // Integers, floats, and suffixed literals lex as one blob; a `.`
    // is included only when followed by a digit so ranges (`0..n`) and
    // method calls on literals (`1.to_string()`) split correctly.
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) || (c == '.' && cur.peek(1).is_some_and(|d| d.is_ascii_digit())) {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    text
}

fn lex_word(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut word = String::new();
    while let Some(c) = cur.peek(0) {
        if !is_ident_continue(c) {
            break;
        }
        word.push(c);
        cur.bump();
    }
    // String-literal prefixes: b"…", r"…", r##"…"##, br"…", c"…".
    if is_literal_prefix(&word) {
        match cur.peek(0) {
            Some('"') => {
                let text = if word.contains('r') {
                    cur.bump();
                    lex_raw_string_body(cur, 0)
                } else {
                    lex_string(cur)
                };
                push(cur, out, line, col, TokKind::Literal(Lit::str(text)));
                return;
            }
            Some('#') if word.contains('r') => {
                // Count hashes; raw string if a quote follows, else a
                // raw identifier (r#match).
                let mut hashes = 0;
                while cur.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                if cur.peek(hashes) == Some('"') {
                    for _ in 0..=hashes {
                        cur.bump(); // hashes + opening quote
                    }
                    let text = lex_raw_string_body(cur, hashes);
                    push(cur, out, line, col, TokKind::Literal(Lit::str(text)));
                    return;
                }
                if word == "r" && cur.peek(1).is_some_and(is_ident_start) {
                    cur.bump(); // '#'
                    let mut raw = String::new();
                    while let Some(c) = cur.peek(0) {
                        if !is_ident_continue(c) {
                            break;
                        }
                        raw.push(c);
                        cur.bump();
                    }
                    push(cur, out, line, col, TokKind::Ident(raw));
                    return;
                }
            }
            Some('\'') if word == "b" => {
                lex_quote(cur, out, line, col);
                return;
            }
            _ => {}
        }
    }
    push(cur, out, line, col, TokKind::Ident(word));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_idents() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now in /* a nested */ block */
            let s = "HashMap::new()";
            let r = r#"thread_rng"#;
            let b = b"OsRng";
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(
            ids,
            ["let", "s", "let", "r", "let", "b", "let", "real", "HashMap", "new"]
        );
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 2);
        assert!(lx.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        // The 'x' char literal must not have swallowed the closing brace.
        let lx = lex(src);
        assert!(lx
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Punct('}')));
    }

    #[test]
    fn numbers_do_not_merge_with_ranges() {
        let src = "for i in 0..10u32 { a[i] = 1.5; }";
        let lx = lex(src);
        let puncts: Vec<char> = lx
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Punct(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(puncts.iter().filter(|&&c| c == '.').count(), 2);
    }

    #[test]
    fn trailing_comment_knows_about_code() {
        let src = "let x = 1; // trailing\n// standalone\nlet y = 2;";
        let lx = lex(src);
        assert!(lx.comments[0].code_before);
        assert!(!lx.comments[1].code_before);
    }

    #[test]
    fn positions_are_one_based(){
        let lx = lex("ab\n  cd");
        assert_eq!((lx.tokens[0].line, lx.tokens[0].col), (1, 1));
        assert_eq!((lx.tokens[1].line, lx.tokens[1].col), (2, 3));
    }

    fn strs(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Literal(l) if l.str_like => Some(l.text),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn multi_hash_raw_strings_keep_contents() {
        // A `"#` inside an `r##` string is body, not a terminator; the
        // token after the literal must still lex.
        let src = r####"let s = r##"quote "# inside"##; let t = done;"####;
        assert_eq!(strs(src), [r##"quote "# inside"##]);
        assert!(idents(src).contains(&"done".to_string()));
    }

    #[test]
    fn byte_and_byte_raw_strings_keep_contents() {
        let src = r###"let a = b"bytes"; let b2 = br#"raw " bytes"#; let c = b'x';"###;
        assert_eq!(strs(src), ["bytes", r#"raw " bytes"#]);
        // b'x' is a char-like literal, not a string.
        let lx = lex(src);
        assert!(lx.tokens.iter().any(|t| matches!(
            &t.kind,
            TokKind::Literal(l) if !l.str_like && l.text == "x"
        )));
    }

    #[test]
    fn string_contents_and_escapes_survive() {
        let src = r#"m.inc("nat.mapping.created"); let e = "a\"b";"#;
        assert_eq!(strs(src), ["nat.mapping.created", r#"a\"b"#]);
    }

    #[test]
    fn numeric_literals_parse_int_values() {
        let lits: Vec<Lit> = lex("const A: u8 = 16; const B: u8 = 0x10_u8; const C: u64 = 1_000;")
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Literal(l) => Some(l),
                _ => None,
            })
            .collect();
        let vals: Vec<Option<u64>> = lits.iter().map(Lit::int_value).collect();
        assert_eq!(vals, [Some(16), Some(16), Some(1000)]);
    }
}
