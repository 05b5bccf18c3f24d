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
//! Parsing is linear in the input: string bodies are copied a run of
//! plain bytes at a time, never re-validated as UTF-8.
//!
//! Numbers are kept as their source text ([`Json::Num`] holds the
//! literal): `u64` counters round-trip without passing through `f64`,
//! and `f64` fields are written with Rust's shortest-roundtrip `{}`
//! formatting, so parse(write(x)) == x exactly.

use std::fmt::Write as _;

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
        let b = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(s, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
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
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(s, pos),
        Some(b'[') => parse_arr(s, pos),
        Some(b'"') => parse_string(s, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    // Validate by parsing as f64 — accepts everything we emit.
    text.parse::<f64>().map_err(|_| format!("bad number {text:?} at byte {start}"))?;
    Ok(Json::Num(text.to_owned()))
}

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next delimiter in one step. Both
        // delimiters are ASCII, so the run starts and ends on char
        // boundaries of the (already valid) input: slicing it needs no
        // UTF-8 re-validation, and parsing stays linear in the input.
        let run = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\');
        let end = run.map_or(b.len(), |n| *pos + n);
        out.push_str(&s[*pos..end]);
        *pos = end;
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            _ => {
                // A backslash escape.
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogates are not paired here; the writer never
                        // emits them (it escapes only control characters).
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_obj(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(s, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(s, pos)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_arr(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(s, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
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
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "\"x", "{\"a\"}", "tru", "01x", "1 2", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
