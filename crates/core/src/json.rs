//! A minimal JSON value, parser, and writer.
//!
//! The wire protocol is newline-delimited JSON; the workspace is built
//! offline (no serde), so this module hand-rolls RFC 8259 as far as the
//! protocol needs it. Integers are kept distinct from floats ([`Json::Int`]
//! vs [`Json::Float`]) because `Value::Timestamp`/`Value::BigInt` payloads
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
use std::sync::Arc;

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
    Arr(JsonArr),
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

/// The members of one array or object: a block of their own, or their run
/// of the block that every container on their nesting level of a decoded
/// document shares ([`TreeBuilder`] makes one per level). Either way they
/// read as one slice, and a clone of a shared view is a reference-count
/// bump. A level's block only points at the levels below it, so no
/// reference cycle can form.
#[derive(Clone)]
enum Block<T> {
    Owned(Box<[T]>),
    Shared {
        level: Arc<[T]>,
        start: u32,
        len: u32,
    },
}

impl<T> Default for Block<T> {
    fn default() -> Self {
        Block::Owned(Box::default())
    }
}

impl<T> Deref for Block<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Block::Owned(members) => members,
            // in range: `TreeBuilder::finish` makes a view only of a run
            // it counted on the level
            Block::Shared { level, start, len } => {
                let start = *start as usize;
                &level[start..start + *len as usize]
            }
        }
    }
}

impl<T: Clone> Block<T> {
    /// The members as a vector of their own with room for `extra` more:
    /// an owned block is moved, a shared view copies its own run only.
    fn into_vec(self, extra: usize) -> Vec<T> {
        match self {
            Block::Owned(members) => {
                let mut members = members.into_vec();
                members.reserve_exact(extra);
                members
            }
            shared => {
                let mut members = Vec::with_capacity(shared.len() + extra);
                members.extend_from_slice(&shared);
                members
            }
        }
    }

    /// Change the members in place of their own: a shared view becomes a
    /// block of its own first, and the containers beside it are left as
    /// they were.
    fn edit<R>(&mut self, extra: usize, change: impl FnOnce(&mut Vec<T>) -> R) -> R {
        let mut members = std::mem::take(self).into_vec(extra);
        let changed = change(&mut members);
        *self = Block::Owned(members.into_boxed_slice());
        changed
    }
}

/// By content, wherever it is held.
impl<T: PartialEq> PartialEq for Block<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// The items of a JSON array.
#[derive(Clone, Default, PartialEq)]
pub struct JsonArr(Block<Json>);

impl Deref for JsonArr {
    type Target = [Json];

    fn deref(&self) -> &[Json] {
        &self.0
    }
}

impl From<Vec<Json>> for JsonArr {
    fn from(items: Vec<Json>) -> Self {
        JsonArr(Block::Owned(items.into_boxed_slice()))
    }
}

impl FromIterator<Json> for JsonArr {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Self {
        JsonArr(Block::Owned(items.into_iter().collect()))
    }
}

impl<'a> IntoIterator for &'a JsonArr {
    type Item = &'a Json;
    type IntoIter = std::slice::Iter<'a, Json>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The items moved out of a block of their own, or copied out of a shared
/// view (each nested array or object a reference-count bump).
impl IntoIterator for JsonArr {
    type Item = Json;
    type IntoIter = std::vec::IntoIter<Json>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_vec(0).into_iter()
    }
}

/// As a list: `[item, ...]`.
impl fmt::Debug for JsonArr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The fields of a JSON object: `(key, value)` pairs sorted by key, each
/// key once. It prints in key order, and a lookup is a binary search.
#[derive(Clone, Default, PartialEq)]
pub struct JsonMap(Block<(JsonStr, Json)>);

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

    /// Set `key` to `value`; the value it replaces, if it had one. A map
    /// that shares its level's block takes a copy of its own fields first.
    pub fn insert(&mut self, key: impl Into<JsonStr>, value: Json) -> Option<Json> {
        let key = key.into();
        match self.find(&key) {
            Ok(at) => Some(
                self.0
                    .edit(0, |fields| std::mem::replace(&mut fields[at].1, value)),
            ),
            Err(at) => {
                self.0.edit(1, |fields| fields.insert(at, (key, value)));
                None
            }
        }
    }

    /// Take `key`'s value out, leaving the other fields in order.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        let at = self.find(key).ok()?;
        Some(self.0.edit(0, |fields| fields.remove(at).1))
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

/// Sort `pairs[start..]` by key, stably, and keep one pair per key with the
/// last value it was given, as inserting them one by one would. Pairs
/// already in key order, each key once (every answer the server prints),
/// are left as they are.
fn sort_unique<V>(pairs: &mut Vec<(JsonStr, V)>, start: usize) {
    let Some(tail) = pairs.get_mut(start..) else {
        return;
    };
    if tail.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    tail.sort_by(|a, b| a.0.cmp(&b.0));
    // `kept` is the last pair kept so far; a repeat of its key hands it
    // the later value
    let mut kept = start;
    for at in start + 1..pairs.len() {
        let (before, rest) = pairs.split_at_mut(at);
        if before[kept].0 == rest[0].0 {
            std::mem::swap(&mut before[kept].1, &mut rest[0].1);
        } else {
            kept += 1;
            pairs.swap(kept, at);
        }
    }
    pairs.truncate(kept + 1);
}

impl From<Vec<(JsonStr, Json)>> for JsonMap {
    fn from(mut pairs: Vec<(JsonStr, Json)>) -> Self {
        sort_unique(&mut pairs, 0);
        JsonMap(Block::Owned(pairs.into_boxed_slice()))
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

/// The fields in key order, moved or copied as [`JsonArr`]'s items are.
impl IntoIterator for JsonMap {
    type Item = (JsonStr, Json);
    type IntoIter = std::vec::IntoIter<(JsonStr, Json)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_vec(0).into_iter()
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

    /// Read the value that comes next into a tree: the members of all the
    /// arrays on one nesting level in one block, those of all the objects
    /// in another (see [`TreeBuilder`]), and each string of up to
    /// [`JsonStr::INLINE`] bytes in place.
    pub fn tree(&mut self) -> Result<Json, JsonError> {
        let mut levels = TreeBuilder::default();
        let root = self.tree_in(&mut levels)?;
        Ok(levels.finish(root))
    }

    fn tree_in(&mut self, levels: &mut TreeBuilder) -> Result<Member, JsonError> {
        Ok(match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                let object = levels.open_object();
                while let Some(key) = self.next_key()? {
                    let value = self.tree_in(levels)?;
                    levels.field(&object, key.into(), value);
                }
                self.closed(levels.close_object(object))?
            }
            Some(b'[') => {
                self.begin_array()?;
                let array = levels.open_array();
                while self.next_item()? {
                    let item = self.tree_in(levels)?;
                    levels.item(&array, item);
                }
                self.closed(levels.close_array(array))?
            }
            _ => Member::from(match self.scalar()? {
                Scalar::Null => Json::Null,
                Scalar::Bool(b) => Json::Bool(b),
                Scalar::Int(i) => Json::Int(i),
                Scalar::Float(f) => Json::Float(f),
                Scalar::Str(s) => Json::Str(s.into()),
            }),
        })
    }

    fn closed(&self, container: Option<Member>) -> Result<Member, JsonError> {
        container.ok_or_else(|| err(self.pos, "too many members on one nesting level"))
    }

    /// Nothing but whitespace may follow the value a text holds.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(err(self.pos, "trailing garbage")),
        }
    }
}

/// Builds a decoded document one nesting level at a time, for a reader
/// that walks it depth first (the text parser here, the binary codec's
/// response decoder). The reader opens an array or object, hands in its
/// members, closes it, hands what that gave back to the container around
/// it as a member, and passes the root to [`TreeBuilder::finish`].
///
/// The members wait on the thread's scratch, one stack per level, and a
/// closed container waits as its run of the level below; an object's
/// pairs are sorted, and a repeated key's last value kept, when it closes.
/// `finish` moves each level's array items into one block and its object
/// fields into another, deepest level first, and makes each container a
/// view of its run. So a document allocates once per level and kind, not
/// per container or per row: a page of rows is six blocks however many
/// rows it holds. A level that holds a single container gets a block of
/// its own, without the shared block's reference count, and an empty
/// container allocates nothing.
///
/// Dropped before `finish` (the reader failed), it leaves its scratch
/// empty for the next document, and lets a scratch that grew past a fixed
/// ceiling go.
pub struct TreeBuilder {
    levels: Levels,
    /// The arrays and objects open now.
    depth: usize,
    /// The levels this document has used; those below are empty.
    used: usize,
}

/// A member of an array or object, or a document's root, as
/// [`TreeBuilder`] holds it until `finish`: a value, or an array or object
/// as its run `(start, len)` of the level below.
pub struct Member(Slot);

enum Slot {
    Value(Json),
    Arr((u32, u32)),
    Obj((u32, u32)),
}

impl From<Json> for Member {
    /// A value; an array or object built whole, not by a `TreeBuilder`,
    /// keeps its own blocks.
    fn from(value: Json) -> Self {
        Member(Slot::Value(value))
    }
}

/// An array opened by [`TreeBuilder::open_array`], until it is closed.
pub struct OpenArray(Open);

/// An object opened by [`TreeBuilder::open_object`], until it is closed.
pub struct OpenObject(Open);

/// Where a container's members go: its level, and where they start there.
struct Open {
    depth: usize,
    start: usize,
}

impl Default for TreeBuilder {
    /// A builder on the calling thread's scratch.
    fn default() -> Self {
        // `try_with`: a thread's locals may already be gone while it exits
        let kept = TREE_SCRATCH.try_with(Cell::take).ok().flatten();
        TreeBuilder {
            levels: kept.unwrap_or_default(),
            depth: 0,
            used: 0,
        }
    }
}

impl TreeBuilder {
    /// The arrays and objects open now.
    pub fn depth(&self) -> usize {
        self.depth
    }

    pub fn open_array(&mut self) -> OpenArray {
        let depth = self.open();
        let start = self.levels.0[depth].items.len();
        OpenArray(Open { depth, start })
    }

    pub fn open_object(&mut self) -> OpenObject {
        let depth = self.open();
        let start = self.levels.0[depth].fields.len();
        OpenObject(Open { depth, start })
    }

    /// The depth of the container being opened, its level made on first
    /// use.
    fn open(&mut self) -> usize {
        let depth = self.depth;
        self.depth += 1;
        self.used = self.used.max(self.depth);
        if self.levels.0.len() == depth {
            self.levels.0.push(Level::default());
        }
        depth
    }

    /// The next item of `array`.
    pub fn item(&mut self, array: &OpenArray, item: Member) {
        self.levels.0[array.0.depth].items.push(item.0);
    }

    /// The next field of `object`.
    pub fn field(&mut self, object: &OpenObject, key: JsonStr, value: Member) {
        self.levels.0[object.0.depth].fields.push((key, value.0));
    }

    /// Close `array`: what the container around it, or `finish`, takes as
    /// a member. `None` when its level holds more than `u32::MAX` members,
    /// or when containers were closed out of the order they were opened.
    pub fn close_array(&mut self, array: OpenArray) -> Option<Member> {
        let Open { depth, start } = array.0;
        self.depth = depth;
        let level = &mut self.levels.0[depth];
        let len = level.items.len().checked_sub(start)?;
        if len == 0 {
            return Some(Json::Arr(JsonArr::default()).into());
        }
        level.arrays += 1;
        Some(Member(Slot::Arr(run(start, len)?)))
    }

    /// Close `object`, its pairs sorted and each key's last value kept: as
    /// [`TreeBuilder::close_array`].
    pub fn close_object(&mut self, object: OpenObject) -> Option<Member> {
        let Open { depth, start } = object.0;
        self.depth = depth;
        let level = &mut self.levels.0[depth];
        sort_unique(&mut level.fields, start);
        let len = level.fields.len().checked_sub(start)?;
        if len == 0 {
            return Some(Json::Obj(JsonMap::default()).into());
        }
        level.objects += 1;
        Some(Member(Slot::Obj(run(start, len)?)))
    }

    /// The document whose root is `root`, each of its containers closed.
    pub fn finish(mut self, root: Member) -> Json {
        // deepest first: a container's run is on the level below its own
        let (mut items, mut fields) = (Frozen::Empty, Frozen::Empty);
        for level in self.levels.0[..self.used].iter_mut().rev() {
            let next_items = Frozen::new(&mut level.items, level.arrays, |slot| {
                slot.into_json(&mut items, &mut fields)
            });
            let next_fields = Frozen::new(&mut level.fields, level.objects, |(key, slot)| {
                (key, slot.into_json(&mut items, &mut fields))
            });
            (items, fields) = (next_items, next_fields);
            (level.arrays, level.objects) = (0, 0);
        }
        root.0.into_json(&mut items, &mut fields)
    }
}

/// A run of a level as a view holds it.
fn run(start: usize, len: usize) -> Option<(u32, u32)> {
    Some((u32::try_from(start).ok()?, u32::try_from(len).ok()?))
}

impl Drop for TreeBuilder {
    fn drop(&mut self) {
        let mut scratch = std::mem::take(&mut self.levels);
        scratch.clear(self.used);
        if scratch.bytes() <= TREE_SCRATCH_CEILING_BYTES {
            let _ = TREE_SCRATCH.try_with(|slot| slot.set(Some(scratch)));
        }
    }
}

impl Slot {
    /// The member as the tree holds it, `items` and `fields` the blocks the
    /// level below moved into.
    fn into_json(self, items: &mut Frozen<Json>, fields: &mut Frozen<(JsonStr, Json)>) -> Json {
        match self {
            Slot::Value(value) => value,
            Slot::Arr(run) => Json::Arr(JsonArr(items.view(run))),
            Slot::Obj(run) => Json::Obj(JsonMap(fields.view(run))),
        }
    }
}

/// One level's array items or object fields, moved off the scratch.
#[derive(Default)]
enum Frozen<T> {
    #[default]
    Empty,
    /// The members of the level's one container, for it to take.
    Owned(Box<[T]>),
    /// The members of all of them, one block their views share.
    Shared(Arc<[T]>),
}

impl<T> Frozen<T> {
    /// A level's stack of `members` moved into one block as `member`
    /// makes each, in one allocation (a drained stack's length is known);
    /// `containers` is how many closed on the level.
    fn new<S>(members: &mut Vec<S>, containers: usize, member: impl FnMut(S) -> T) -> Self {
        match (members.len(), containers) {
            (0, _) => Frozen::Empty,
            (_, 1) => Frozen::Owned(members.drain(..).map(member).collect()),
            _ => Frozen::Shared(members.drain(..).map(member).collect()),
        }
    }

    fn view(&mut self, (start, len): (u32, u32)) -> Block<T> {
        if let Frozen::Shared(level) = self {
            return Block::Shared {
                level: Arc::clone(level),
                start,
                len,
            };
        }
        match std::mem::take(self) {
            Frozen::Owned(members) => Block::Owned(members),
            _ => Block::default(),
        }
    }
}

/// The most bytes a thread's tree scratch keeps from one document to the
/// next: one that grew past it is let go when the document ends. Far above
/// what a page of rows holds (about 14 KB for the 31 rows of a page view),
/// while one outsized document does not stay resident on its thread.
const TREE_SCRATCH_CEILING_BYTES: usize = 64 * 1024;

thread_local! {
    /// The decoding thread's tree scratch between documents.
    static TREE_SCRATCH: Cell<Option<Levels>> = const { Cell::new(None) };
}

/// The members of a document being built, a stack per nesting level,
/// outermost first; a document leaves those below its depth as they were,
/// empty.
#[derive(Default)]
struct Levels(Vec<Level>);

#[derive(Default)]
struct Level {
    items: Vec<Slot>,
    fields: Vec<(JsonStr, Slot)>,
    /// The arrays and objects with members closed on this level.
    arrays: usize,
    objects: usize,
}

impl Levels {
    /// Empty the first `used` levels, the others being empty already.
    fn clear(&mut self, used: usize) {
        for level in &mut self.0[..used] {
            level.items.clear();
            level.fields.clear();
            (level.arrays, level.objects) = (0, 0);
        }
    }

    /// The bytes its stacks have room for.
    fn bytes(&self) -> usize {
        let members: usize = self
            .0
            .iter()
            .map(|level| {
                level.items.capacity() * std::mem::size_of::<Slot>()
                    + level.fields.capacity() * std::mem::size_of::<(JsonStr, Slot)>()
            })
            .sum();
        members + self.0.capacity() * std::mem::size_of::<Level>()
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

/// A number as RFC 8259 spells it: `-`, then `0` or a digit run that
/// does not start with one, then a fraction and an exponent if any, each
/// with at least one digit. No `+` or `.` may lead, and a float must be
/// finite: `1e999` is refused, as serde_json refuses it, rather than read
/// as infinity, which would print back as `null`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Scalar<'static>, JsonError> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => {
            *pos += 1;
            if bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                return Err(err(start, "a number may not start with 0"));
            }
        }
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(err(start, "expected value")),
    }
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(err(start, "expected a digit after '.'"));
        }
        is_float = true;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(err(start, "expected a digit in the exponent"));
        }
        is_float = true;
    }
    // only ASCII digits and signs were read
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    if is_float {
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Scalar::Float(f)),
            _ => Err(err(start, "number out of range")),
        }
    } else {
        text.parse::<i64>()
            .map(Scalar::Int)
            .map_err(|_| err(start, "number out of range"))
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

    /// The level block a view shares, if it shares one.
    fn shared<T>(block: &Block<T>) -> Option<&Arc<[T]>> {
        match block {
            Block::Shared { level, .. } => Some(level),
            Block::Owned(_) => None,
        }
    }

    #[test]
    fn parse_builds_one_block_per_level() {
        let text = r#"[[1,2],[3],{"b":[true],"a":"x"},{"c":{}},[],{}]"#;
        let tree = parse(text).unwrap();
        let Json::Arr(JsonArr(root)) = &tree else {
            panic!("{tree:?}")
        };
        // the root is the one container on its level: a block of its own
        assert!(shared(root).is_none() && root.len() == 6);
        let (Json::Arr(JsonArr(a)), Json::Arr(JsonArr(b))) = (&root[0], &root[1]) else {
            panic!("{tree:?}")
        };
        let (Json::Obj(JsonMap(c)), Json::Obj(JsonMap(d))) = (&root[2], &root[3]) else {
            panic!("{tree:?}")
        };
        // the arrays on the second level share one block, the objects
        // another; each reads as its own run of it
        let (items, fields) = (shared(a).unwrap(), shared(c).unwrap());
        assert!(Arc::ptr_eq(items, shared(b).unwrap()) && items.len() == 3);
        assert!(Arc::ptr_eq(fields, shared(d).unwrap()) && fields.len() == 3);
        assert_eq!((a.len(), b.len(), c.len(), d.len()), (2, 1, 2, 1));
        // the lone array and the lone object of the third level have their
        // own blocks, and the empty containers no block at all
        assert!(root[2].get("b").is_some_and(|b| matches!(
            b,
            Json::Arr(JsonArr(Block::Owned(items))) if items.len() == 1
        )));
        for empty in [&root[4], &root[5], root[3].get("c").unwrap()] {
            assert!(matches!(
                empty,
                Json::Arr(JsonArr(Block::Owned(_))) | Json::Obj(JsonMap(Block::Owned(_)))
            ));
        }
        // keys in order, whatever order they came in
        let keys: Vec<&str> = c.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(
            tree.to_string(),
            r#"[[1,2],[3],{"a":"x","b":[true]},{"c":{}},[],{}]"#
        );
        // it equals, and prints as, the same document built a container
        // at a time
        let built = Json::Arr(JsonArr::from(vec![
            Json::Arr(vec![Json::Int(1), Json::Int(2)].into()),
            Json::Arr(vec![Json::Int(3)].into()),
            Json::obj([
                ("b", Json::Arr(vec![Json::Bool(true)].into())),
                ("a", Json::str("x")),
            ]),
            Json::obj([("c", Json::Obj(JsonMap::new()))]),
            Json::Arr(JsonArr::default()),
            Json::Obj(JsonMap::new()),
        ]));
        assert_eq!(tree, built);
        assert_eq!(tree.to_string(), built.to_string());
        assert_eq!(format!("{tree:?}"), format!("{built:?}"));
    }

    #[test]
    fn a_clone_of_a_decoded_subtree_shares_its_level() {
        let tree = parse(r#"{"rows":[[{"str":"a"}],[{"str":"b"},{"int":1}]]}"#).unwrap();
        let rows = tree.get("rows").and_then(Json::as_arr).unwrap();
        let Json::Arr(JsonArr(row)) = &rows[1] else {
            panic!("{tree:?}")
        };
        let level = shared(row).unwrap();
        let before = Arc::strong_count(level);
        let kept = rows[1].clone();
        let Json::Arr(JsonArr(copy)) = &kept else {
            panic!("{kept:?}")
        };
        // no copy of the members: the same block, one more reference
        assert!(Arc::ptr_eq(level, shared(copy).unwrap()));
        assert_eq!(Arc::strong_count(level), before + 1);
        assert_eq!(kept, parse(r#"[{"str":"b"},{"int":1}]"#).unwrap());
        // and it outlives the document it came from
        drop(tree);
        assert_eq!(kept.to_string(), r#"[{"str":"b"},{"int":1}]"#);
    }

    #[test]
    fn editing_a_map_on_a_shared_level_leaves_its_siblings_alone() {
        let mut tree = parse(r#"[{"a":1,"b":2},{"a":3},{"c":4}]"#).unwrap();
        let Json::Arr(JsonArr(Block::Owned(maps))) = &mut tree else {
            panic!("{tree:?}")
        };
        let Json::Obj(first) = &mut maps[0] else {
            panic!()
        };
        assert!(shared(&first.0).is_some());
        assert_eq!(first.insert("c", Json::Null), None);
        assert_eq!(first.remove("a"), Some(Json::Int(1)));
        assert_eq!(first.insert("b", Json::Int(5)), Some(Json::Int(2)));
        // the edited map holds a block of its own; the others still share
        assert!(shared(&first.0).is_none());
        assert_eq!(tree.to_string(), r#"[{"b":5,"c":null},{"a":3},{"c":4}]"#);
        let Json::Arr(items) = &tree else { panic!() };
        let (Json::Obj(second), Json::Obj(third)) = (&items[1], &items[2]) else {
            panic!()
        };
        assert!(Arc::ptr_eq(
            shared(&second.0).unwrap(),
            shared(&third.0).unwrap()
        ));
        // moving the fields out of a shared map copies only its own
        let pairs: Vec<(JsonStr, Json)> = second.clone().into_iter().collect();
        assert_eq!(pairs, [(JsonStr::from("a"), Json::Int(3))]);
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        for (bad, message) in [
            ("+1", "expected value"),
            (".5", "expected value"),
            ("-", "expected value"),
            ("-.5", "expected value"),
            ("1.", "expected a digit after '.'"),
            ("1.e5", "expected a digit after '.'"),
            ("01", "a number may not start with 0"),
            ("-01", "a number may not start with 0"),
            ("00", "a number may not start with 0"),
            ("1e", "expected a digit in the exponent"),
            ("1e+", "expected a digit in the exponent"),
            ("1e999", "number out of range"),
            ("-1e999", "number out of range"),
            ("9223372036854775808", "number out of range"),
        ] {
            for (text, at) in [(bad.to_string(), 0), (format!("[7, {bad}]"), 4)] {
                let refused = parse(&text).unwrap_err();
                assert_eq!(
                    (refused.at, refused.message.as_str()),
                    (at, message),
                    "{text}"
                );
                // skipping refuses it as parsing does
                let mut s = Scanner::new(&text);
                assert_eq!(s.skip_value().unwrap_err(), refused, "{text}");
            }
        }
        for (good, value) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("-9223372036854775808", Json::Int(i64::MIN)),
            ("0.5", Json::Float(0.5)),
            ("-0.0", Json::Float(-0.0)),
            ("1e5", Json::Float(1e5)),
            ("1E+5", Json::Float(1e5)),
            ("25e-1", Json::Float(2.5)),
            ("1.5e300", Json::Float(1.5e300)),
            // too small to hold is zero, as serde_json reads it
            ("1e-999", Json::Float(0.0)),
        ] {
            let tree = parse(good).unwrap();
            assert_eq!(tree, value, "{good}");
            // and what it prints reads back as it
            assert_eq!(parse(&tree.to_string()).unwrap(), tree, "{good}");
        }
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
        let bytes = scratch.as_ref().map_or(0, Levels::bytes);
        let empty = scratch.as_ref().is_none_or(|s| {
            s.0.iter()
                .all(|l| l.items.is_empty() && l.fields.is_empty() && l.arrays + l.objects == 0)
        });
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
