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

use std::borrow::{Borrow, Cow};
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::ops::Deref;

/// A JSON document. An object's fields are kept sorted by key, so
/// serialization is deterministic — the differential tests compare
/// protocol bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(JsonStr),
    Arr(Vec<Json>),
    Obj(JsonMap),
}

/// A string of a [`Json`] tree, as a value or an object key: up to
/// [`JsonStr::INLINE`] bytes are held in place, a longer one in one
/// `Box<str>`. Tags, field names and most values the protocol carries are
/// short, so a decoded document allocates per array and object, not per
/// string.
#[derive(Clone)]
pub struct JsonStr(Repr);

#[derive(Clone)]
enum Repr {
    /// The text is `bytes[..len]`, copied whole from a `str` (by
    /// `JsonStr::inline`, its one maker).
    Inline {
        len: u8,
        bytes: [u8; JsonStr::INLINE],
    },
    Boxed(Box<str>),
}

impl JsonStr {
    /// The longest string held without an allocation: with its length and
    /// the variant's tag, as wide as a `Box<str>` and its tag.
    pub const INLINE: usize = 22;

    pub fn as_str(&self) -> &str {
        match &self.0 {
            // never empty for want of UTF-8: `JsonStr::inline` copies a
            // whole `str`
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).unwrap_or_default()
            }
            Repr::Boxed(s) => s,
        }
    }

    fn inline(s: &str) -> Option<JsonStr> {
        let len = s.len();
        (len <= Self::INLINE).then(|| {
            let mut bytes = [0; Self::INLINE];
            bytes[..len].copy_from_slice(s.as_bytes());
            JsonStr(Repr::Inline {
                len: len as u8,
                bytes,
            })
        })
    }
}

impl From<&str> for JsonStr {
    fn from(s: &str) -> Self {
        JsonStr::inline(s).unwrap_or_else(|| JsonStr(Repr::Boxed(s.into())))
    }
}

impl From<&String> for JsonStr {
    fn from(s: &String) -> Self {
        JsonStr::from(s.as_str())
    }
}

impl From<String> for JsonStr {
    fn from(s: String) -> Self {
        JsonStr::inline(&s).unwrap_or_else(|| JsonStr(Repr::Boxed(s.into_boxed_str())))
    }
}

impl From<Cow<'_, str>> for JsonStr {
    fn from(s: Cow<'_, str>) -> Self {
        match s {
            Cow::Borrowed(s) => JsonStr::from(s),
            Cow::Owned(s) => JsonStr::from(s),
        }
    }
}

impl Deref for JsonStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for JsonStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for JsonStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for JsonStr {}

impl PartialEq<str> for JsonStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialOrd for JsonStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte order, as `str` orders: the order an object's keys print in.
impl Ord for JsonStr {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for JsonStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for JsonStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for JsonStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The fields of a JSON object: one block of `(key, value)` pairs, sorted
/// by key, each key once. It prints in key order, and a lookup is a
/// binary search.
#[derive(Clone, Default, PartialEq)]
pub struct JsonMap(Vec<(JsonStr, Json)>);

impl JsonMap {
    pub fn new() -> Self {
        JsonMap::default()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Where `key` is, or where it would go.
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        self.find(key).ok().map(|at| &self.0[at].1)
    }

    /// Set `key` to `value`; the value it replaces, if it had one.
    pub fn insert(&mut self, key: impl Into<JsonStr>, value: Json) -> Option<Json> {
        let key = key.into();
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, value)),
            Err(at) => {
                self.0.insert(at, (key, value));
                None
            }
        }
    }

    /// Take `key`'s value out, leaving the other fields in order.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        self.find(key).ok().map(|at| self.0.remove(at).1)
    }

    /// The fields in key order.
    pub fn iter(&self) -> <&JsonMap as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// The fields in key order, as one slice.
    pub fn as_slice(&self) -> &[(JsonStr, Json)] {
        &self.0
    }
}

/// Pairs already in key order, each key once (every answer the server
/// prints), are kept as they come. Others are stably sorted, and a key
/// that repeats keeps its last value, as inserting them one by one would.
impl From<Vec<(JsonStr, Json)>> for JsonMap {
    fn from(mut pairs: Vec<(JsonStr, Json)>) -> Self {
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            // `dedup_by` keeps the first of a run and hands it each later
            // one to drop: the later value moves into the kept pair
            pairs.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                same
            });
        }
        JsonMap(pairs)
    }
}

impl<K: Into<JsonStr>> From<std::collections::BTreeMap<K, Json>> for JsonMap {
    fn from(map: std::collections::BTreeMap<K, Json>) -> Self {
        map.into_iter().collect()
    }
}

impl<K: Into<JsonStr>> FromIterator<(K, Json)> for JsonMap {
    fn from_iter<I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Self {
        JsonMap::from(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v))
                .collect::<Vec<_>>(),
        )
    }
}

impl<'a> IntoIterator for &'a JsonMap {
    type Item = (&'a JsonStr, &'a Json);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (JsonStr, Json)>,
        fn(&'a (JsonStr, Json)) -> (&'a JsonStr, &'a Json),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

/// As a map: `{"key": value, ...}`.
impl fmt::Debug for JsonMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Json {
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().collect())
    }

    pub fn str(s: impl Into<JsonStr>) -> Json {
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
            Json::Str(s) => Some(s.as_str()),
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
    /// sorted order) to `out`. Everything written is UTF-8.
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
pub fn write_array<I: IntoIterator>(
    items: I,
    out: &mut Vec<u8>,
    write: impl Fn(I::Item, &mut Vec<u8>),
) {
    out.push(b'[');
    for (i, item) in items.into_iter().enumerate() {
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
    let mut scanner = Scanner::new(input);
    let value = scanner.tree()?;
    scanner.finish()?;
    Ok(value)
}

/// Arrays and objects may be open this many deep, in a JSON text and in a
/// binary response document alike: a short hostile message could otherwise
/// nest until the reader's stack overflows.
pub const MAX_JSON_DEPTH: usize = 96;

/// A value that is neither an array nor an object, as [`Scanner::scalar`]
/// reads it. A string borrows from the text unless it holds an escape.
#[derive(Debug, PartialEq)]
pub enum Scalar<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Cow<'a, str>),
}

/// A cursor over a JSON text that reads it in place: the next key of an
/// object, the next item of an array, a scalar, or a whole value skipped —
/// checked exactly as [`parse`] checks it (which is built on this), with
/// nothing allocated but the text of a string that holds an escape. A
/// caller that knows which fields it wants walks the text once and builds
/// its own type, no tree in between.
///
/// ```
/// use piql_core::json::{Scalar, Scanner};
/// let mut s = Scanner::new(r#"{"skipped":[1,{"x":null}],"n":7}"#);
/// s.begin_object().unwrap();
/// let mut n = None;
/// while let Some(key) = s.next_key().unwrap() {
///     match &*key {
///         "n" => n = Some(s.scalar().unwrap()),
///         _ => s.skip_value().unwrap(),
///     }
/// }
/// s.finish().unwrap();
/// assert_eq!(n, Some(Scalar::Int(7)));
/// ```
#[derive(Debug)]
pub struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects entered and not yet left.
    depth: usize,
    /// An array or object was entered and nothing in it read yet: what
    /// comes next is its first member (or its end), not a comma.
    fresh: bool,
}

impl<'a> Scanner<'a> {
    pub fn new(text: &'a str) -> Self {
        Scanner::at(text, 0)
    }

    /// A scanner that starts at byte `pos` of `text` — a value's offset as
    /// [`Scanner::pos`] reported it on an earlier walk.
    pub fn at(text: &'a str, pos: usize) -> Self {
        Scanner {
            bytes: text.as_bytes(),
            pos,
            depth: 0,
            fresh: false,
        }
    }

    /// Offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The first byte of the value that comes next (whitespace skipped):
    /// `{`, `[`, `"`, or the first byte of a literal or number.
    pub fn peek(&mut self) -> Option<u8> {
        skip_ws(self.bytes, &mut self.pos);
        self.bytes.get(self.pos).copied()
    }

    /// Read the value that comes next, which is not an array or object.
    pub fn scalar(&mut self) -> Result<Scalar<'a>, JsonError> {
        let first = self.peek();
        let (bytes, pos) = (self.bytes, &mut self.pos);
        match first {
            None => Err(err(*pos, "unexpected end of input")),
            Some(b'n') => expect(bytes, pos, "null").map(|_| Scalar::Null),
            Some(b't') => expect(bytes, pos, "true").map(|_| Scalar::Bool(true)),
            Some(b'f') => expect(bytes, pos, "false").map(|_| Scalar::Bool(false)),
            Some(b'"') => parse_string(bytes, pos).map(Scalar::Str),
            Some(_) => parse_number(bytes, pos),
        }
    }

    /// Enter the object that comes next; [`Scanner::next_key`] walks it.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.enter(b'{', "expected '{'")
    }

    /// Enter the array that comes next; [`Scanner::next_item`] walks it.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.enter(b'[', "expected '['")
    }

    fn enter(&mut self, open: u8, otherwise: &str) -> Result<(), JsonError> {
        if self.peek() != Some(open) {
            return Err(err(self.pos, otherwise));
        }
        if self.depth == MAX_JSON_DEPTH {
            return Err(err(
                self.pos,
                format!("nested deeper than {MAX_JSON_DEPTH} levels"),
            ));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    fn leave(&mut self) {
        self.pos += 1;
        self.depth = self.depth.saturating_sub(1);
        self.fresh = false;
    }

    /// Whether the array or object being walked has another member, its
    /// separating comma consumed; at `close` the container is left.
    fn next_member(&mut self, close: u8, otherwise: &str) -> Result<bool, JsonError> {
        match (self.peek(), self.fresh) {
            (Some(b), _) if b == close => {
                self.leave();
                return Ok(false);
            }
            (_, true) => self.fresh = false,
            (Some(b','), false) => self.pos += 1,
            (_, false) => return Err(err(self.pos, otherwise)),
        }
        Ok(true)
    }

    /// Inside an object, once the value of the previous key has been read
    /// or skipped: the next key, its colon consumed, or `None` at the
    /// object's end, which this leaves.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.next_member(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        skip_ws(self.bytes, &mut self.pos);
        let key = parse_string(self.bytes, &mut self.pos)?;
        skip_ws(self.bytes, &mut self.pos);
        expect(self.bytes, &mut self.pos, ":")?;
        Ok(Some(key))
    }

    /// Inside an array, once the previous item has been read or skipped:
    /// whether another item follows. At the array's end this leaves it.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.next_member(b']', "expected ',' or ']'")
    }

    /// Read past the value that comes next, whatever it is.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip_value()?;
                }
            }
            _ => {
                self.scalar()?;
            }
        }
        Ok(())
    }

    /// Read the value that comes next into a tree: each array and object
    /// in one allocation of its final size, each string of up to
    /// [`JsonStr::INLINE`] bytes in place.
    pub fn tree(&mut self) -> Result<Json, JsonError> {
        let mut scratch = TREE_SCRATCH.take().unwrap_or_default();
        let tree = self.tree_in(&mut scratch);
        // a level that failed left what it had read so far
        scratch.items.clear();
        scratch.fields.clear();
        if scratch.bytes() <= TREE_SCRATCH_CEILING_BYTES {
            TREE_SCRATCH.set(Some(scratch));
        }
        tree
    }

    /// The members of the array or object being read wait on `s` until
    /// its end, where they move into a block of their own.
    fn tree_in(&mut self, s: &mut TreeScratch) -> Result<Json, JsonError> {
        Ok(match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                let base = s.fields.len();
                while let Some(key) = self.next_key()? {
                    let value = self.tree_in(s)?;
                    s.fields.push((key.into(), value));
                }
                Json::Obj(JsonMap::from(s.fields.drain(base..).collect::<Vec<_>>()))
            }
            Some(b'[') => {
                self.begin_array()?;
                let base = s.items.len();
                while self.next_item()? {
                    let item = self.tree_in(s)?;
                    s.items.push(item);
                }
                Json::Arr(s.items.drain(base..).collect())
            }
            _ => match self.scalar()? {
                Scalar::Null => Json::Null,
                Scalar::Bool(b) => Json::Bool(b),
                Scalar::Int(i) => Json::Int(i),
                Scalar::Float(f) => Json::Float(f),
                Scalar::Str(s) => Json::Str(s.into()),
            },
        })
    }

    /// Nothing but whitespace may follow the value a text holds.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(err(self.pos, "trailing garbage")),
        }
    }
}

/// The most bytes either stack of a thread's tree scratch keeps from one
/// parse to the next: one that grew past it is let go when the parse
/// ends. Far above what a page of rows holds open at once (its rows and
/// one row's values), while one outsized document does not stay resident
/// on its thread.
const TREE_SCRATCH_CEILING_BYTES: usize = 64 * 1024;

thread_local! {
    /// The parsing thread's tree scratch between parses.
    static TREE_SCRATCH: Cell<Option<TreeScratch>> = const { Cell::new(None) };
}

/// The members of the arrays and objects open in a parse, innermost last.
#[derive(Default)]
struct TreeScratch {
    items: Vec<Json>,
    fields: Vec<(JsonStr, Json)>,
}

impl TreeScratch {
    /// The bytes the larger of its stacks has room for.
    fn bytes(&self) -> usize {
        let items = self.items.capacity() * std::mem::size_of::<Json>();
        let fields = self.fields.capacity() * std::mem::size_of::<(JsonStr, Json)>();
        items.max(fields)
    }
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

/// The string at `pos`: borrowed from the text when it holds no escape,
/// else decoded into one allocation.
fn parse_string<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<Cow<'a, str>, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    // allocated once, when the first escape is met
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
        *pos += run_len;
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                if out.capacity() == 0 {
                    return Ok(Cow::Borrowed(run));
                }
                out.push_str(run);
                return Ok(Cow::Owned(out));
            }
            Some(_) => {
                if out.capacity() == 0 {
                    out.reserve_exact(closing_quote(rest));
                }
                out.push_str(run);
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

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Scalar<'static>, JsonError> {
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
            .map(Scalar::Float)
            .map_err(|_| err(start, "bad number"))
    } else {
        text.parse::<i64>()
            .map(Scalar::Int)
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
        assert_eq!(parse(r#""éA""#).unwrap(), Json::Str("éA".into()));
        assert_eq!(parse(r#""🦀""#).unwrap(), Json::Str("🦀".into()));
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // on a small stack: the parser used to recurse once per bracket,
        // and 10,000 of them overflowed a 2 MB thread in a release build
        let on_a_small_stack = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                for (open, innermost, close) in [("[", "", "]"), ("{\"k\":", "1", "}")] {
                    let nested = |depth: usize| {
                        format!("{}{innermost}{}", open.repeat(depth), close.repeat(depth))
                    };
                    assert!(parse(&nested(MAX_JSON_DEPTH)).is_ok());
                    for depth in [MAX_JSON_DEPTH + 1, 1_000_000] {
                        let error = parse(&nested(depth)).unwrap_err();
                        // the offset of the bracket that goes too deep
                        assert_eq!(error.at, open.len() * MAX_JSON_DEPTH);
                        assert_eq!(error.message, "nested deeper than 96 levels");
                        // never closed: the same error, not "unexpected end"
                        let open_only = open.repeat(depth);
                        assert_eq!(parse(&open_only).unwrap_err(), error);
                        let skipped = Scanner::new(&open_only).skip_value();
                        assert_eq!(skipped.unwrap_err(), error);
                    }
                }
            })
            .unwrap();
        on_a_small_stack.join().unwrap();
        // siblings do not add up: the cap is on what is open at once
        let deep = format!("{}{}", "[".repeat(95), "]".repeat(95));
        assert!(parse(&format!("[{}]", vec![deep; 50].join(","))).is_ok());
    }

    #[test]
    fn scanner_reads_in_place_what_parse_builds() {
        let text = r#" { "a" : [1, 2.5, "x\ny", null, true], "b": {"c": "plain"}, "a": -7 } "#;
        let mut s = Scanner::new(text);
        s.begin_object().unwrap();
        assert_eq!(s.next_key().unwrap().as_deref(), Some("a"));
        let array_at = s.pos();
        s.begin_array().unwrap();
        let mut items = Vec::new();
        while s.next_item().unwrap() {
            items.push(s.scalar().unwrap());
        }
        assert_eq!(
            items,
            [
                Scalar::Int(1),
                Scalar::Float(2.5),
                Scalar::Str("x\ny".into()),
                Scalar::Null,
                Scalar::Bool(true),
            ]
        );
        // a string borrows from the text unless it holds an escape
        assert!(matches!(&items[2], Scalar::Str(Cow::Owned(_))));
        assert_eq!(s.next_key().unwrap().as_deref(), Some("b"));
        s.begin_object().unwrap();
        assert_eq!(s.next_key().unwrap().as_deref(), Some("c"));
        assert!(matches!(
            s.scalar().unwrap(),
            Scalar::Str(Cow::Borrowed("plain"))
        ));
        assert_eq!(s.next_key().unwrap(), None);
        assert_eq!(s.next_key().unwrap().as_deref(), Some("a"));
        s.skip_value().unwrap();
        assert_eq!(s.next_key().unwrap(), None);
        s.finish().unwrap();

        // a recorded offset reads again, as a tree if asked
        assert_eq!(
            Scanner::at(text, array_at).tree().unwrap(),
            parse(r#"[1,2.5,"x\ny",null,true]"#).unwrap()
        );
        // skipping checks what parsing checks, and says the same
        for bad in [
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":tru}",
            "[\"\\x\"]",
            "",
            "[1e999999999999999999999]x",
            "123456789012345678901234567890",
        ] {
            let mut s = Scanner::new(bad);
            let skipped = s.skip_value().and_then(|()| s.finish());
            assert_eq!(skipped.err(), parse(bad).err(), "{bad:?}");
        }
    }

    #[test]
    fn a_value_stays_four_words() {
        assert_eq!(std::mem::size_of::<JsonStr>(), 24);
        assert_eq!(std::mem::size_of::<Json>(), 32);
    }

    #[test]
    fn strings_up_to_22_bytes_are_held_in_place() {
        let held = |s: &str| matches!(JsonStr::from(s).0, Repr::Inline { .. });
        assert!(held("") && held(&"k".repeat(22)) && held(&format!("{}é", "k".repeat(20))));
        assert!(!held(&"k".repeat(23)));
        // a two-byte character that would straddle the 22nd byte
        let straddling = format!("{}é", "k".repeat(21));
        assert!(!held(&straddling));
        for s in ["", "é", &"k".repeat(22), &"k".repeat(23), &straddling] {
            let from_text = parse(&Json::str(s).to_string()).unwrap();
            assert_eq!(from_text.as_str(), Some(s));
            assert_eq!(
                JsonStr::from(s.to_string()),
                JsonStr::from(Cow::Borrowed(s))
            );
        }
    }

    #[test]
    fn parse_builds_each_block_at_its_final_size() {
        let tree = parse(r#"[[1,2,3],{"b":[true],"a":"x","c":{}},[],"s"]"#).unwrap();
        let Json::Arr(items) = &tree else {
            panic!("{tree:?}")
        };
        assert_eq!(items.capacity(), 4);
        assert_eq!(items[0].as_arr().map(<[Json]>::len), Some(3));
        let Json::Obj(fields) = &items[1] else {
            panic!("{tree:?}")
        };
        assert_eq!(fields.0.capacity(), 3);
        // keys in order, whatever order they came in
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(
            tree.to_string(),
            r#"[[1,2,3],{"a":"x","b":[true],"c":{}},[],"s"]"#
        );
    }

    #[test]
    fn a_repeated_key_keeps_its_last_value() {
        let tree = parse(r#"{"b":1,"a":2,"b":3,"a":4,"c":5,"b":6}"#).unwrap();
        assert_eq!(tree.to_string(), r#"{"a":4,"b":6,"c":5}"#);
        let mut map: JsonMap = [("b", Json::Int(1)), ("a", Json::Int(2))]
            .into_iter()
            .collect();
        assert_eq!(map.insert("a", Json::Int(7)), Some(Json::Int(2)));
        assert_eq!(map.insert("c", Json::Null), None);
        assert_eq!(map.remove("b"), Some(Json::Int(1)));
        assert_eq!(map.remove("b"), None);
        assert_eq!(Json::Obj(map).to_string(), r#"{"a":7,"c":null}"#);
        assert_eq!(
            format!("{:?}", parse(r#"{"k":"v"}"#).unwrap()),
            r#"Obj({"k": Str("v")})"#
        );
    }

    /// The bytes the calling thread's tree scratch has room for, 0 when it
    /// keeps none, and whether it holds nothing.
    fn scratch() -> (usize, bool) {
        let scratch = TREE_SCRATCH.take();
        let bytes = scratch.as_ref().map_or(0, TreeScratch::bytes);
        let empty = scratch
            .as_ref()
            .is_none_or(|s| s.items.is_empty() && s.fields.is_empty());
        TREE_SCRATCH.set(scratch);
        (bytes, empty)
    }

    #[test]
    fn an_outsized_document_leaves_no_scratch_above_the_ceiling() {
        std::thread::spawn(|| {
            parse(r#"[[1,2],{"a":[3]}]"#).unwrap();
            let (kept, empty) = scratch();
            assert!(kept > 0 && empty);
            // a megabyte of array: its stack grows far past the ceiling
            let items = 1 << 19;
            let big = format!("[{}]", vec!["1"; items].join(","));
            assert!(big.len() >= 1 << 20);
            assert_eq!(
                parse(&big).unwrap().as_arr().map(<[Json]>::len),
                Some(items)
            );
            assert_eq!(scratch(), (0, true));
            // so is one cut off before its end, and the next parse starts
            // afresh
            assert!(parse(&big[..big.len() - 1]).is_err());
            assert_eq!(scratch(), (0, true));
            // a failure part way leaves nothing on the stacks
            assert!(parse(r#"[[1,2],{"a":[3,{"b":"#).is_err());
            let (kept, empty) = scratch();
            assert!(kept <= TREE_SCRATCH_CEILING_BYTES && empty);
        })
        .join()
        .unwrap();
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
