//! A minimal JSON value, parser, and writer.
//!
//! The wire protocol is newline-delimited JSON; the workspace is built
//! offline (no serde), so this module hand-rolls the ~RFC 8259 subset the
//! protocol needs. Integers are kept distinct from floats ([`Json::Int`] vs
//! [`Json::Float`]) because `Value::Timestamp`/`Value::BigInt` payloads
//! exceed the 2^53 range where f64 round-trips i64 exactly.
//!
//! It lives in `piql-core`, below every crate that speaks JSON: the
//! auditor's reports, the server's protocol (`piql_server::json` is this
//! module) and the scenario reports all build the one tree.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;

/// A JSON document. Objects use a `BTreeMap` so serialization is
/// deterministic — the differential tests compare protocol bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned count (`u64`, `usize`, `u32`) as an integer, saturating
    /// at `i64::MAX` — the largest integer the wire carries — instead of
    /// wrapping negative.
    pub fn uint(n: impl TryInto<i64>) -> Json {
        Json::Int(n.try_into().unwrap_or(i64::MAX))
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Append the compact serialization (no whitespace, object keys in
    /// map order) to `out`. Everything written is UTF-8.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => write_bool(*b, out),
            Json::Int(i) => write_int(*i, out),
            Json::Float(f) => write_float(*f, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => write_array(items, out, Json::write_to),
            Json::Obj(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(k, out);
                    out.push(b':');
                    v.write_to(out);
                }
                out.push(b'}');
            }
        }
    }
}

// The scalar writers are shared with the server's response encoder, which
// prints rows straight from tuples (`protocol::write_reply`): one definition
// of how a number or a string looks on the wire. They format into the
// buffer they are given; none allocates.

pub const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Append `items` between brackets, comma-separated.
pub fn write_array<T>(items: &[T], out: &mut Vec<u8>, write: impl Fn(&T, &mut Vec<u8>)) {
    out.push(b'[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write(item, out);
    }
    out.push(b']');
}

pub fn write_bool(b: bool, out: &mut Vec<u8>) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

pub fn write_int(i: i64, out: &mut Vec<u8>) {
    // writing into a `Vec` cannot fail
    let _ = write!(out, "{i}");
}

pub fn write_float(f: f64, out: &mut Vec<u8>) {
    if !f.is_finite() {
        // JSON has no Inf/NaN; encode as null like serde_json
        return out.extend_from_slice(b"null");
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    // keep floats distinguishable from ints on re-parse
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
}

pub fn write_escaped(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    let bytes = s.as_bytes();
    // start of the run of bytes that need no escape and are copied whole
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short: Option<&[u8]> = match b {
            b'"' => Some(b"\\\""),
            b'\\' => Some(b"\\\\"),
            b'\n' => Some(b"\\n"),
            b'\r' => Some(b"\\r"),
            b'\t' => Some(b"\\t"),
            // the other control characters have no short form
            0..=0x1F => None,
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        match short {
            Some(escape) => out.extend_from_slice(escape),
            None => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX_DIGITS[usize::from(b >> 4)],
                HEX_DIGITS[usize::from(b & 0xF)],
            ]),
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Serializes compactly (no whitespace), deterministically.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        self.write_to(&mut out);
        f.write_str(std::str::from_utf8(&out).map_err(|_| fmt::Error)?)
    }
}

/// Parse errors carry the byte offset for debuggability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub at: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing garbage"));
    }
    Ok(value)
}

fn err(at: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        at,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), JsonError> {
    // `get` (not slicing) so a truncated input can never panic, wherever
    // the cursor ended up
    if bytes
        .get(*pos..)
        .is_some_and(|rest| rest.starts_with(token.as_bytes()))
    {
        *pos += token.len();
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{token}'")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                fields.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

/// Offset of the unescaped quote that closes a string whose body is
/// `rest` (its length when there is none): the decoded text is never
/// longer than this.
fn closing_quote(rest: &[u8]) -> usize {
    let mut at = 0;
    while let Some(&b) = rest.get(at) {
        match b {
            b'"' => return at,
            b'\\' => at += 2,
            _ => at += 1,
        }
    }
    rest.len()
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    // allocated once, when the first run is copied in
    let mut out = String::new();
    loop {
        // the run up to the next quote or backslash is copied whole; every
        // exit is an error, never a panic, even on truncated input
        let rest = bytes.get(*pos..).unwrap_or_default();
        let run_len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        let run = rest
            .get(..run_len)
            .and_then(|run| std::str::from_utf8(run).ok())
            .ok_or_else(|| err(*pos, "invalid utf-8"))?;
        if out.capacity() == 0 {
            out.reserve_exact(match rest.get(run_len) {
                Some(b'\\') => closing_quote(rest),
                _ => run_len,
            });
        }
        out.push_str(run);
        *pos += run_len;
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = std::str::from_utf8(
                            bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| err(*pos, "truncated \\u escape"))?,
                        )
                        .map_err(|_| err(*pos, "bad \\u escape"))?;
                        let mut cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        *pos += 4;
                        // surrogate pair
                        if (0xD800..0xDC00).contains(&cp)
                            && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u")
                        {
                            let hex2 = std::str::from_utf8(
                                bytes
                                    .get(*pos + 3..*pos + 7)
                                    .ok_or_else(|| err(*pos, "truncated surrogate"))?,
                            )
                            .map_err(|_| err(*pos, "bad surrogate"))?;
                            let lo = u32::from_str_radix(hex2, 16)
                                .map_err(|_| err(*pos, "bad surrogate"))?;
                            if (0xDC00..0xE000).contains(&lo) {
                                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    if text.is_empty() || text == "-" {
        return Err(err(start, "expected value"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| err(start, "bad number"))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| err(start, "bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        let cases = [
            r#"null"#,
            r#"true"#,
            r#"-42"#,
            r#"1300000000000123"#,
            r#"1.5"#,
            r#""hi \"there\"\n""#,
            r#"[1,2,[3,null]]"#,
            r#"{"a":1,"b":[true,"x"],"c":{"d":null}}"#,
        ];
        for c in cases {
            let v = parse(c).unwrap();
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{c}");
        }
    }

    #[test]
    fn int_float_distinction_survives() {
        assert_eq!(parse("5").unwrap(), Json::Int(5));
        assert_eq!(parse("5.0").unwrap(), Json::Float(5.0));
        assert_eq!(Json::Float(5.0).to_string(), "5.0");
        assert_eq!(
            parse(&Json::Float(5.0).to_string()).unwrap(),
            Json::Float(5.0)
        );
        // i64 beyond 2^53 must round-trip exactly
        let big = 9_007_199_254_740_993i64;
        assert_eq!(parse(&Json::Int(big).to_string()).unwrap(), Json::Int(big));
    }

    #[test]
    fn uint_saturates_instead_of_wrapping() {
        assert_eq!(Json::uint(7u32), Json::Int(7));
        assert_eq!(Json::uint(7usize), Json::Int(7));
        assert_eq!(Json::uint(i64::MAX as u64), Json::Int(i64::MAX));
        assert_eq!(Json::uint(i64::MAX as u64 + 1), Json::Int(i64::MAX));
        assert_eq!(Json::uint(u64::MAX), Json::Int(i64::MAX));
        // and what it prints parses back: the old bridge printed the u64
        // and lost the whole document to a failed i64 parse
        let printed = Json::uint(u64::MAX).to_string();
        assert_eq!(parse(&printed).unwrap(), Json::Int(i64::MAX));
    }

    #[test]
    fn unicode_and_errors() {
        assert_eq!(parse(r#""éA""#).unwrap(), Json::Str("éA".to_string()));
        assert_eq!(parse(r#""🦀""#).unwrap(), Json::Str("🦀".into()));
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn malformed_escapes_error_instead_of_panicking() {
        // regression: truncated/invalid escapes at end-of-input must
        // return `JsonError`, never panic the connection handler
        for case in [
            "\"\\",           // escape introducer at EOF
            "\"\\u",          // \u at EOF
            "\"\\u12",        // truncated hex
            "\"\\u123",       // still truncated
            "\"\\uZZZZ\"",    // bad hex digits
            "\"\\x\"",        // unknown escape
            "\"abc",          // unterminated string
            "\"\\ud800\\u\"", // high surrogate then truncated escape
            "\"\\ud800\\u12", // high surrogate then truncated hex
            "{\"k\":",        // value cut off
            "{\"k\"",         // colon cut off
            "[\"\\u",         // nested truncation
        ] {
            assert!(parse(case).is_err(), "{case:?} should be an error");
        }
        // surrogate pairs decode; a lone surrogate degrades to U+FFFD
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
        assert_eq!(parse("\"\\ud800\"").unwrap(), Json::Str("\u{FFFD}".into()));
    }
}
