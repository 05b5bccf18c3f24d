//! Minimal in-tree JSON support.
//!
//! The workspace needs JSON for exactly three things: dumping sweep
//! rows for EXPERIMENTS.md, round-tripping rows through the xbc-store
//! result cache, and the [`crate::jsonl`] event codec. That subset —
//! objects, arrays, strings, numbers, booleans — does not justify a
//! registry dependency, so this module implements it directly and
//! keeps the build hermetic. (`xbc-sim` re-exports this module as
//! `xbc_sim::json`, its home before `xbc-obs` existed.)
//!
//! There is one grammar with two consumers. [`Reader`] is a borrowing
//! pull tokenizer; [`Json::parse`] builds the owned [`Json`] tree from
//! its tokens, and typed decoders (`xbc_sim::Row::read_json`) read the
//! tokens directly, with no tree and no `String` per key or number, so
//! both accept exactly the same documents. The appending writers
//! ([`escape_into`], [`push_u64`]) let encoders build a document in one
//! caller-owned `String`.
//!
//! Reading is linear in the input: string bodies are taken a run of
//! plain bytes at a time, never re-validated as UTF-8, and borrowed
//! from the input unless they hold escapes.
//!
//! Numbers are kept as their source text ([`Json::Num`] holds the
//! literal): `u64` counters round-trip without passing through `f64`,
//! and `f64` fields are written with Rust's shortest-roundtrip `{}`
//! formatting, so parse(write(x)) == x exactly.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::str::FromStr;

/// Deepest nesting of objects and arrays a document may have. Every
/// consumer of [`Reader`] recurses once per level (the tree builder,
/// [`Reader::skip`]), so without a bound one request line of a few
/// hundred thousand `[` overflows a thread's stack. No document the
/// workspace writes nests more than a few levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut r = Reader::new(s);
        let head = r.value()?;
        let v = r.tree(head)?;
        r.end()?;
        Ok(v)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as `usize`, if this is an integral number in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Escapes `s` as the *contents* of a JSON string (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s`, escaped as the contents of a JSON string, to `out`.
///
/// Only `"`, `\` and control characters are escaped; a run of other
/// bytes is copied in one step.
pub fn escape_into(out: &mut String, s: &str) {
    let b = s.as_bytes();
    let mut run = 0;
    for (i, &c) in b.iter().enumerate() {
        if c >= 0x20 && c != b'"' && c != b'\\' {
            continue;
        }
        // `c` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        match c {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Appends the decimal digits of `v` to `out` (what `{v}` would print).
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// The head of one JSON value, as [`Reader::value`] returns it.
#[derive(Clone, Debug, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number's literal text, already checked to parse as an `f64`.
    Num(&'a str),
    /// A string, borrowed from the input unless it holds escapes.
    Str(Cow<'a, str>),
    /// An opened object (`{`): read its members with [`Reader::next_key`].
    Obj,
    /// An opened array (`[`): read its items with [`Reader::next_item`].
    Arr,
}

/// A pull tokenizer over one JSON document, borrowing from it.
///
/// This is the only JSON grammar in the workspace: [`Json::parse`]
/// builds its tree from these tokens, and typed decoders (result rows)
/// read the tokens directly, so both accept exactly the same documents.
/// A consumer walks the document itself: [`Reader::value`] yields the
/// head of the next value; for an object it then alternates
/// [`Reader::next_key`] and one value per member, for an array
/// [`Reader::next_item`] and one value per item; [`Reader::end`] checks
/// that nothing follows the document.
///
/// Objects and arrays may nest at most [`MAX_DEPTH`] levels; opening one
/// more is an error.
pub struct Reader<'a> {
    s: &'a str,
    pos: usize,
    /// Objects and arrays opened and not yet closed.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `s`.
    pub fn new(s: &'a str) -> Reader<'a> {
        Reader { s, pos: 0, depth: 0 }
    }

    fn skip_ws(&mut self) {
        let b = self.s.as_bytes();
        while self.pos < b.len() && matches!(b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    /// Reads the head of the next value: a whole scalar, or the opening
    /// bracket of an object or array.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn value(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => self.open(Token::Obj),
            Some(b'[') => self.open(Token::Arr),
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number().map(Token::Num),
            Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = self.pos)),
        }
    }

    /// Reads the next member key of the object most recently opened,
    /// with its `:`; `None` once the object closes. `first` is true for
    /// the first call after [`Token::Obj`].
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn next_key(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                return Ok(None);
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if !first => {
                return Err(format!("expected ',' or '}}' at byte {pos}", pos = self.pos));
            }
            _ => {}
        }
        if self.peek() != Some(b'"') {
            return Err(format!("expected object key at byte {pos}", pos = self.pos));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(format!("expected ':' at byte {pos}", pos = self.pos));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Whether another item follows in the array most recently opened
    /// (consuming its `,`, or the closing `]`). `first` is true for the
    /// first call after [`Token::Arr`].
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn next_item(&mut self, first: bool) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(format!("expected ',' or ']' at byte {pos}", pos = self.pos)),
        }
    }

    /// Reads the rest of a value whose head was `head`, checking it as
    /// strictly as [`Json::parse`] would, and discards it.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn skip(&mut self, head: Token<'a>) -> Result<(), String> {
        match head {
            Token::Obj => {
                let mut first = true;
                while self.next_key(first)?.is_some() {
                    first = false;
                    self.skip_value()?;
                }
            }
            Token::Arr => {
                let mut first = true;
                while self.next_item(first)? {
                    first = false;
                    self.skip_value()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Reads and discards the next value.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn skip_value(&mut self) -> Result<(), String> {
        let head = self.value()?;
        self.skip(head)
    }

    /// Reads the next value: `Some` if it is a string, else `None` with
    /// the value skipped.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn str_value(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        match self.value()? {
            Token::Str(s) => Ok(Some(s)),
            head => self.skip(head).map(|()| None),
        }
    }

    /// Reads the next value: `Some` if it is a boolean, else `None`
    /// with the value skipped.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn bool_value(&mut self) -> Result<Option<bool>, String> {
        match self.value()? {
            Token::Bool(b) => Ok(Some(b)),
            head => self.skip(head).map(|()| None),
        }
    }

    /// Reads the next value: `Some` if it is a number whose literal
    /// parses as a `T` (as [`Json::as_u64`] and friends parse it), else
    /// `None` with the value skipped.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn num_value<T: FromStr>(&mut self) -> Result<Option<T>, String> {
        match self.value()? {
            Token::Num(n) => Ok(n.parse().ok()),
            head => self.skip(head).map(|()| None),
        }
    }

    /// Checks that only whitespace follows the document.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on trailing data.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.s.len() {
            return Err(format!("trailing data at byte {pos}", pos = self.pos));
        }
        Ok(())
    }

    /// Consumes the bracket opening `container`, one level deeper.
    fn open(&mut self, container: Token<'a>) -> Result<Token<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
                pos = self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(container)
    }

    fn literal(&mut self, lit: &str, v: Token<'a>) -> Result<Token<'a>, String> {
        if self.s.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}", pos = self.pos))
        }
    }

    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        let b = &self.s.as_bytes()[start..];
        let sign = usize::from(b.first() == Some(&b'-'));
        // Scan the number's bytes, noting whether all are digits: an
        // optionally signed run of digits always parses as an f64, so
        // only other literals pay the validating float parse below.
        let mut plain = true;
        let len = sign
            + b[sign..]
                .iter()
                .position(|&c| {
                    if c.is_ascii_digit() {
                        return false;
                    }
                    let part = matches!(c, b'.' | b'e' | b'E' | b'+' | b'-');
                    plain &= !part;
                    !part
                })
                .unwrap_or(b.len() - sign);
        plain &= len > sign;
        self.pos += len;
        // The scanned bytes are ASCII, so both ends are char boundaries.
        let text = &self.s[start..self.pos];
        // Validate by parsing as f64 — accepts everything we emit.
        if !plain {
            text.parse::<f64>().map_err(|_| format!("bad number {text:?} at byte {start}"))?;
        }
        Ok(text)
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let s = self.s;
        let b = s.as_bytes();
        debug_assert_eq!(b[self.pos], b'"');
        self.pos += 1;
        let mut out: Option<String> = None;
        loop {
            // Take the run up to the next delimiter in one step. Both
            // delimiters are ASCII, so the run starts and ends on char
            // boundaries of the (already valid) input: slicing it needs
            // no UTF-8 re-validation, and reading stays linear in the
            // input. A string without escapes is borrowed whole.
            let run = b[self.pos..].iter().position(|&c| c == b'"' || c == b'\\');
            let end = run.map_or(b.len(), |n| self.pos + n);
            let text = &s[self.pos..end];
            self.pos = end;
            match b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(text),
                        Some(mut o) => {
                            o.push_str(text);
                            Cow::Owned(o)
                        }
                    });
                }
                _ => {
                    // A backslash escape.
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(text);
                    self.pos += 1;
                    match b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex =
                                b.get(self.pos + 1..self.pos + 5).ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates are not paired here; the writer
                            // never emits them (it escapes only control
                            // characters).
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}", pos = self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Builds the owned tree of a value whose head was `head`.
    fn tree(&mut self, head: Token<'a>) -> Result<Json, String> {
        Ok(match head {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Num(n) => Json::Num(n.to_owned()),
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::Obj => {
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key(pairs.is_empty())? {
                    let head = self.value()?;
                    pairs.push((key.into_owned(), self.tree(head)?));
                }
                Json::Obj(pairs)
            }
            Token::Arr => {
                let mut items = Vec::new();
                while self.next_item(items.is_empty())? {
                    let head = self.value()?;
                    items.push(self.tree(head)?);
                }
                Json::Arr(items)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("\"hi\"").unwrap().as_str(), Some("hi"));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
    }

    #[test]
    fn u64_counters_do_not_lose_precision() {
        let big = u64::MAX - 1;
        let j = Json::parse(&big.to_string()).unwrap();
        assert_eq!(j.as_u64(), Some(big));
    }

    #[test]
    fn f64_shortest_repr_roundtrips_exactly() {
        for x in [0.1, 1.0 / 3.0, 0.12345678901234568, f64::MIN_POSITIVE, 1e300] {
            let j = Json::parse(&format!("{x}")).unwrap();
            assert_eq!(j.as_f64(), Some(x));
        }
    }

    #[test]
    fn objects_and_arrays() {
        let j = Json::parse(r#"{"a": [1, 2], "b": {"c": "d"}, "e": null}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        assert_eq!(j.get("e"), Some(&Json::Null));
        assert_eq!(j.get("zzz"), None);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn nesting_is_bounded_without_deep_recursion() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Siblings do not add depth.
        assert!(Json::parse(&format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","))).is_ok());
        // A 768 KiB document of 262,144 open levels is refused on a
        // 512 KiB stack, by the tree builder and by `skip` alike.
        let deep: String = "[{\"a\":".repeat(1 << 17);
        std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(move || {
                assert!(Json::parse(&deep).is_err());
                let mut r = Reader::new(&deep);
                let head = r.value().unwrap();
                assert!(r.skip(head).is_err());
            })
            .unwrap()
            .join()
            .expect("deep documents must not overflow the stack");
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "\"x", "{\"a\"}", "tru", "01x", "1 2", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
