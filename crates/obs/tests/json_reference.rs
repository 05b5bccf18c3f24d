//! Reference-checked tests for [`Json::parse`].
//!
//! The parser copies string bodies a run of plain bytes at a time. Its
//! predecessor popped one `char` per step by re-validating the whole
//! rest of the document as UTF-8, which made parsing quadratic. That
//! char-at-a-time parser is kept here, verbatim apart from names, as
//! the reference: on seeded random documents — multi-byte UTF-8 next
//! to every delimiter, every escape, raw control characters, long runs,
//! nested arrays and objects — both parsers must return the same value,
//! and on every truncation and on random corruptions the same error.
//! A timing guard pins linearity on a ≥1 MiB string-heavy document.

use std::time::{Duration, Instant};
use xbc_obs::json::{escape, Json};

/// splitmix64: tiny, seedable, hermetic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len() as u64)]
    }
}

/// 1-, 2-, 3- and 4-byte UTF-8 characters.
const CHARS: &[&str] = &["a", "Z", "~", "é", "ß", "Ω", "—", "€", "語", "😀", "𝄞"];

/// Every escape the parser accepts, including upper-case and `+`-signed
/// `\u` forms that `u32::from_str_radix` takes.
const ESCAPES: &[&str] = &[
    r#"\""#, r"\\", r"\/", r"\n", r"\r", r"\t", r"\b", r"\f", r"\u0000", r"\u001f", r"\u00e9",
    r"\u00E9", r"\u20ac", r"\uFFFD", r"\u+041",
];

/// Raw (unescaped) control characters, which the parser passes through.
const CONTROLS: &[&str] = &["\u{1}", "\u{8}", "\t", "\n", "\u{1f}", "\u{7f}"];

const NUMBERS: &[&str] = &["0", "-1", "42", "18446744073709551615", "1.5", "-0.25e-3", "1E9"];

const WS: &[&str] = &["", "", " ", "\n", "\t ", "\r\n"];

/// The body of a string literal (between the quotes). Multi-byte
/// characters land next to escapes and next to both quotes.
fn string_body(rng: &mut Rng, out: &mut String) {
    for _ in 0..rng.below(8) {
        match rng.below(6) {
            0 => out.push_str(rng.pick(ESCAPES)),
            1 => out.push_str(rng.pick(CONTROLS)),
            2 => {
                // A long run of one character.
                let c = rng.pick(CHARS);
                for _ in 0..rng.below(64) {
                    out.push_str(c);
                }
            }
            3 => {
                out.push_str(rng.pick(CHARS));
                out.push_str(rng.pick(ESCAPES));
                out.push_str(rng.pick(CHARS));
            }
            _ => out.push_str(rng.pick(CHARS)),
        }
    }
    if rng.below(2) == 0 {
        out.push_str(rng.pick(CHARS));
    }
}

fn string(rng: &mut Rng, out: &mut String) {
    out.push('"');
    if rng.below(2) == 0 {
        out.push_str(rng.pick(CHARS));
    }
    string_body(rng, out);
    out.push('"');
}

fn value(rng: &mut Rng, depth: usize, out: &mut String) {
    let kind = if depth >= 3 { rng.below(4) } else { rng.below(7) };
    match kind {
        0 | 1 => string(rng, out),
        2 => out.push_str(rng.pick(NUMBERS)),
        3 => out.push_str(rng.pick(&["true", "false", "null"])),
        4 => array(rng, depth, out),
        _ => object(rng, depth, out),
    }
}

fn array(rng: &mut Rng, depth: usize, out: &mut String) {
    out.push('[');
    for i in 0..rng.below(4) {
        if i > 0 {
            out.push(',');
        }
        out.push_str(rng.pick(WS));
        value(rng, depth + 1, out);
        out.push_str(rng.pick(WS));
    }
    out.push(']');
}

fn object(rng: &mut Rng, depth: usize, out: &mut String) {
    out.push('{');
    for i in 0..rng.below(4) {
        if i > 0 {
            out.push(',');
        }
        out.push_str(rng.pick(WS));
        string(rng, out);
        out.push_str(rng.pick(WS));
        out.push(':');
        out.push_str(rng.pick(WS));
        value(rng, depth + 1, out);
    }
    out.push('}');
}

/// A document whose top level is an array or object, so that no proper
/// prefix of it is itself a complete document.
fn document(rng: &mut Rng) -> String {
    let mut out = String::from(rng.pick(WS));
    if rng.below(2) == 0 {
        array(rng, 0, &mut out);
    } else {
        object(rng, 0, &mut out);
    }
    out
}

#[test]
fn random_documents_match_the_reference_parser() {
    let mut rng = Rng(0x5eed_1a7e);
    let mut checked_prefixes = 0usize;
    for _ in 0..300 {
        let doc = document(&mut rng);
        let got = Json::parse(&doc);
        assert_eq!(got, reference::parse(&doc), "values differ on {doc:?}");
        assert!(got.is_ok(), "generated document rejected: {doc:?}: {got:?}");

        // Every truncation is rejected, with the reference's message.
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            let prefix = &doc[..cut];
            let got = Json::parse(prefix);
            assert!(got.is_err(), "accepted truncation {prefix:?}");
            assert_eq!(got, reference::parse(prefix), "errors differ on {prefix:?}");
            checked_prefixes += 1;
        }

        // Random corruptions: same verdict, same value or message.
        let chars: Vec<char> = doc.chars().collect();
        for _ in 0..16 {
            let at = rng.below(chars.len() as u64);
            let with = rng.pick(&["\"", "\\", "{", "}", "[", "]", ",", ":", "u", "0", "é", ""]);
            let mut bad: String = chars[..at].iter().collect();
            bad.push_str(with);
            bad.extend(&chars[at + 1..]);
            assert_eq!(Json::parse(&bad), reference::parse(&bad), "differ on {bad:?}");
        }
    }
    assert!(checked_prefixes > 10_000, "too few truncations checked: {checked_prefixes}");
}

#[test]
fn escaped_text_roundtrips_through_both_parsers() {
    let mut rng = Rng(7);
    for _ in 0..500 {
        let mut raw = String::new();
        for _ in 0..rng.below(40) {
            raw.push_str(rng.pick(&["\"", "\\", "\n", "\u{1}", "/", "x", "é", "—", "😀", " "]));
        }
        let doc = format!("[\"{}\"]", escape(&raw));
        let want = Json::Arr(vec![Json::Str(raw)]);
        assert_eq!(Json::parse(&doc).as_ref(), Ok(&want));
        assert_eq!(reference::parse(&doc).as_ref(), Ok(&want));
    }
}

/// Row-like objects, string-heavy, in the shape the result cache holds.
fn big_document(rows: usize) -> String {
    let mut rng = Rng(2_000);
    let mut doc = String::from("[\n");
    for i in 0..rows {
        let mut note = String::new();
        while note.len() < 420 {
            note.push_str(rng.pick(&["xbc ", "32K ", "bank—conflict ", "\"q\" ", "é", "\n"]));
        }
        doc.push_str(&format!(
            "  {{\"frontend\": \"xbc-{i}\", \"trace\": \"spec.gcc—{i}\", \
             \"note\": \"{}\", \"uops\": {}, \"ratio\": 0.{i}}}{}\n",
            escape(&note),
            rng.next(),
            if i + 1 < rows { "," } else { "" },
        ));
    }
    doc.push(']');
    doc
}

/// Linear-time guard. The char-at-a-time parser re-validated the rest
/// of the document for every string character, so a 1 MiB document
/// cost on the order of 10^11 byte checks — minutes. A linear parse of
/// it takes milliseconds even unoptimised; the bound is generous.
#[test]
fn megabyte_document_parses_in_linear_time() {
    let doc = big_document(2_000);
    assert!(doc.len() >= 1 << 20, "guard document is only {} bytes", doc.len());
    let t0 = Instant::now();
    let parsed = Json::parse(&doc).expect("guard document parses");
    let took = t0.elapsed();
    let rows = parsed.as_arr().expect("top-level array");
    assert_eq!(rows.len(), 2_000);
    assert_eq!(rows[1_999].get("trace").and_then(Json::as_str), Some("spec.gcc—1999"));
    assert!(
        took < Duration::from_secs(5),
        "parsing {} bytes took {took:?}: quadratic string scanning is back",
        doc.len()
    );
}

/// The char-at-a-time parser that preceded the run-scanning one, kept
/// only as a test reference.
mod reference {
    use xbc_obs::json::Json;

    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => parse_obj(b, pos),
            Some(b'[') => parse_arr(b, pos),
            Some(b'"') => parse_string(b, pos).map(Json::Str),
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
        text.parse::<f64>().map_err(|_| format!("bad number {text:?} at byte {start}"))?;
        Ok(Json::Num(text.to_owned()))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
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
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // One char per step, re-validating the whole rest of
                    // the document: the quadratic cost this test guards.
                    let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "bad UTF-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        *pos += 1;
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
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}", pos = *pos));
            }
            *pos += 1;
            let value = parse_value(b, pos)?;
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

    fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        *pos += 1;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
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
}
