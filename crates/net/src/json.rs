//! The workspace's one JSON writer: every `results/*.json` artifact and
//! every `to_json` goes through it, so layout rules live in one place.
//!
//! Output is a pure function of the value: objects keep the field order
//! they were built with, nothing is sorted or hashed, and numbers are
//! formatted by the caller (`Json::num(format!("{x:.1}"))`), so the same
//! value renders to the same bytes on every host.

use std::fmt::Display;

/// A JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// Written verbatim: a caller-formatted number, `true`, `false`, `null`.
    Raw(String),
    /// A string, escaped on output.
    Str(String),
    /// An array, one element per line.
    Arr(Vec<Json>),
    /// An object, one `"key": value` per line, in the order given.
    Obj(Vec<(String, Json)>),
    /// The wrapped array or object — and everything inside it — on one
    /// line (`{"a": 1, "b": [2, 3]}`): the layout for leaf records.
    Inline(Box<Json>),
}

impl Json {
    /// A number (or anything else whose `Display` is already JSON).
    pub fn num(v: impl Display) -> Json {
        Json::Raw(v.to_string())
    }

    /// A number when present, `null` otherwise.
    pub fn opt(v: Option<impl Display>) -> Json {
        v.map_or(Json::num("null"), Json::num)
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// This value on a single line.
    pub fn inline(self) -> Json {
        Json::Inline(Box::new(self))
    }

    /// Renders the value as a document: two-space indentation, a
    /// trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `indent` is the current line's indentation, `None` inside an
    /// [`Json::Inline`].
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, items): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Raw(s) => return out.push_str(s),
            Json::Str(s) => return write_str(out, s),
            Json::Inline(v) => return v.write(out, None),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', fields.collect())
            }
        };
        let newline = |out: &mut String, n: usize| *out += &format!("\n{}", " ".repeat(n));
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match indent {
                Some(n) => newline(out, n + 2),
                None if i > 0 => out.push(' '),
                None => {}
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, indent.map(|n| n + 2));
        }
        if let (Some(n), false) = (indent, items.is_empty()) {
            newline(out, n);
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}
