//! The newline-delimited JSON wire protocol.
//!
//! **The normative spec is `PROTOCOL.md` at the repository root** —
//! framing, every verb's request/response shape, error objects, and the
//! pipelining/ordering guarantees. This module is the reference codec for
//! that spec. Commands, in brief:
//!
//! | cmd           | fields                                | response |
//! |---------------|---------------------------------------|----------|
//! | `prepare`     | `name`, `sql`                         | admission verdict + plan facts |
//! | `execute`     | `name`, `params`, optional `cursor`   | `rows` + optional `cursor` |
//! | `cursor-next` | `name`, `params`, required `cursor`   | same as `execute` |
//! | `dml`         | `sql`, `params`                       | `ok` |
//! | `batch`       | `requests` (array of sub-requests)    | `results`: one response envelope per sub-request, positional |
//! | `stats`       | —                                     | service counters + per-statement latency, refreshed predictions, drift history, shard balance |
//! | `revalidate`  | —                                     | forces one re-validation sweep; returns the sweep summary |
//! | `rebalance`   | —                                     | recomputes the store's data placement (quantile split points); returns the post-rebalance shard balance |
//! | `snapshot`    | —                                     | checkpoints the durable state and compacts the WAL behind it; errors when the server runs without durability |
//! | `explain`     | `name` *or* `sql` (exactly one)       | the static auditor's bound-derivation tree + diagnostics for a prepared (`name`) or candidate (`sql`) statement |
//!
//! Every request may additionally carry a client-assigned `id` (integer
//! or string), echoed verbatim on its response. An `id` opts the request
//! into *pipelined* handling: the server may answer it out of order, in
//! completion order, so a slow `execute` never head-of-line-blocks a
//! cheap `stats`. Requests without an `id` keep the original strict
//! one-in-one-out ordering (see [`Envelope`] and PROTOCOL.md §5).
//!
//! Values are tagged one-field objects (`{"int":5}`, `{"ts":1699...}`,
//! `{"str":"x"}`, …) so every [`Value`] round-trips exactly — including
//! `BigInt`/`Timestamp` beyond 2^53 and the `Int`/`BigInt` distinction a
//! bare JSON number would erase. Pagination cursors travel as hex so a
//! client can reconnect to any server and resume (§4.1 of the paper).

use crate::json::{
    write_array, write_bool, write_escaped, write_float, write_int, Json, JsonError, JsonStr,
    Scalar, Scanner, HEX_DIGITS,
};
use piql_core::plan::params::ParamValue;
use piql_core::rows::{RowRef, Rows};
use piql_core::value::{Value, ValueRef};
use piql_engine::Cursor;
use std::borrow::Cow;
use std::fmt;

/// Protocol-level failures (distinct from query errors, which travel in
/// `{"ok":false,"error":...}` responses).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    Json(JsonError),
    /// Structurally valid JSON that is not a valid protocol message.
    Malformed(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "{e}"),
            ProtoError::Malformed(m) => write!(f, "malformed request: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        ProtoError::Json(e)
    }
}

/// A client-assigned request identifier: a JSON integer or string,
/// echoed verbatim on the response it answers. Presence of an id opts
/// the request into completion-order (pipelined) handling; see the
/// module docs and PROTOCOL.md §5.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestId {
    /// A numeric id (`"id":7`).
    Int(i64),
    /// A string id (`"id":"page-3"`).
    Str(String),
}

impl RequestId {
    /// The wire form of the id (what gets echoed).
    pub fn to_json(&self) -> Json {
        match self {
            RequestId::Int(i) => Json::Int(*i),
            RequestId::Str(s) => Json::str(s.clone()),
        }
    }

    /// Decode an `id` field. Only integers and strings are valid ids —
    /// floats, booleans, and structured values are malformed (a float id
    /// would not round-trip byte-exactly through every client).
    pub fn from_json(j: &Json) -> Result<RequestId, ProtoError> {
        match j {
            Json::Int(i) => Ok(RequestId::Int(*i)),
            Json::Str(s) => Ok(RequestId::Str(s.to_string())),
            other => Err(ProtoError::Malformed(format!(
                "'id' must be an integer or string, got {other}"
            ))),
        }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestId::Int(i) => write!(f, "{i}"),
            RequestId::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for RequestId {
    fn from(i: i64) -> Self {
        RequestId::Int(i)
    }
}

impl From<&str> for RequestId {
    fn from(s: &str) -> Self {
        RequestId::Str(s.to_string())
    }
}

/// One request line as received: the command plus the optional
/// client-assigned [`RequestId`].
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// `None` for legacy (strictly ordered) requests.
    pub id: Option<RequestId>,
    pub request: Request,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Prepare {
        name: String,
        sql: String,
    },
    Execute {
        name: String,
        params: Vec<ParamValue>,
        cursor: Option<Cursor>,
    },
    Dml {
        sql: String,
        params: Vec<ParamValue>,
    },
    Stats,
    /// Force one admission re-validation sweep (drain live samples, refresh
    /// the models, re-predict every registered statement). The sweep also
    /// runs periodically server-side; this verb makes drift handling
    /// deterministic for tests and operators.
    Revalidate,
    /// Recompute the backend's data placement from its current contents —
    /// re-split every namespace at learned key-distribution quantiles (the
    /// Director's job, §3). Sessions keep executing throughout; the reply
    /// carries the post-rebalance shard balance.
    Rebalance,
    /// Checkpoint the durable state now: rotate the write-ahead log, write
    /// a snapshot of the full state (data, DDL, statements, models), and
    /// delete the log segments behind it. Servers running without
    /// durability answer an error.
    Snapshot,
    /// Run the static workload auditor over one statement and return its
    /// bound-derivation tree with provenance, cost-term attribution, and
    /// structured diagnostics — without executing anything. Exactly one of
    /// `name` (a prepared statement, audited as currently installed) or
    /// `sql` (a candidate statement, audited against the catalog without
    /// registering it) must be present; carrying both or neither is
    /// malformed.
    Explain {
        name: Option<String>,
        sql: Option<String>,
    },
    /// Many sub-requests on one line, answered by one response whose
    /// `results` array carries one response envelope per sub-request,
    /// positionally. Sub-requests run **sequentially on one session** (a
    /// `dml` is visible to the `execute` after it), and a failing
    /// sub-request yields an `{"ok":false,...}` entry without aborting
    /// the rest — this is how a high-fan-out application server turns an
    /// N-statement page-view into one round trip (PAPER.md §2, Fig. 1).
    /// Batches cannot nest, and sub-requests carry no `id` (their
    /// position in `results` is their identity).
    Batch {
        requests: Vec<Request>,
    },
}

/// Encode one [`Value`] as a tagged object.
pub fn value_to_json(v: &Value) -> Json {
    value_ref_to_json(ValueRef::of(v))
}

fn value_ref_to_json(v: ValueRef<'_>) -> Json {
    match v {
        ValueRef::Null => Json::Null,
        ValueRef::Int(i) => Json::obj([("int", Json::Int(i64::from(i)))]),
        ValueRef::BigInt(i) => Json::obj([("big", Json::Int(i))]),
        ValueRef::Varchar(s) => Json::obj([("str", Json::str(s))]),
        ValueRef::Bool(b) => Json::obj([("bool", Json::Bool(b))]),
        ValueRef::Timestamp(t) => Json::obj([("ts", Json::Int(t))]),
        ValueRef::Double(d) => Json::obj([("f", Json::Float(d))]),
    }
}

/// The value a tag makes of the scalar under it, `None` when the tag is
/// unknown or sits over the wrong type: the one table of §3.1's tags, for
/// the decoder of trees ([`value_from_json`]) and the decoder of request
/// lines alike.
fn tagged(tag: &str, inner: Scalar<'_>) -> Option<Value> {
    match (tag, inner) {
        ("int", Scalar::Int(i)) => i32::try_from(i).ok().map(Value::Int),
        ("big", Scalar::Int(i)) => Some(Value::BigInt(i)),
        ("str", Scalar::Str(text)) => Some(Value::Varchar(text.into_owned())),
        ("bool", Scalar::Bool(b)) => Some(Value::Bool(b)),
        ("ts", Scalar::Int(t)) => Some(Value::Timestamp(t)),
        // JSON has no Inf/NaN: the encoder writes {"f":null} for
        // non-finite doubles, which decodes to NaN (lossy but
        // round-trippable rather than a page-breaking error)
        ("f", Scalar::Null) => Some(Value::Double(f64::NAN)),
        ("f", Scalar::Float(f)) => Some(Value::Double(f)),
        ("f", Scalar::Int(i)) => Some(Value::Double(i as f64)),
        _ => None,
    }
}

/// Decode one tagged object back to a [`Value`].
pub fn value_from_json(j: &Json) -> Result<Value, ProtoError> {
    let malformed = || ProtoError::Malformed(format!("bad value: {}", j));
    match j {
        Json::Null => Ok(Value::Null),
        Json::Obj(m) => {
            // exactly one tag field; `{}` and multi-key objects are
            // malformed values, not panics (a hostile line must never kill
            // the connection handler)
            let mut fields = m.iter();
            let (Some((tag, inner)), None) = (fields.next(), fields.next()) else {
                return Err(malformed());
            };
            let inner = match inner {
                Json::Null => Scalar::Null,
                Json::Bool(b) => Scalar::Bool(*b),
                Json::Int(i) => Scalar::Int(*i),
                Json::Float(f) => Scalar::Float(*f),
                Json::Str(s) => Scalar::Str(Cow::Borrowed(s)),
                Json::Arr(_) | Json::Obj(_) => return Err(malformed()),
            };
            tagged(tag, inner).ok_or_else(malformed)
        }
        _ => Err(malformed()),
    }
}

pub fn row_to_json(row: &[Value]) -> Json {
    Json::Arr(row.iter().map(value_to_json).collect())
}

/// Parameters: a scalar travels as a tagged value, a collection (bound to
/// `IN [p MAX n]`) as an array of tagged values.
pub fn param_to_json(p: &ParamValue) -> Json {
    match p {
        ParamValue::Scalar(v) => value_to_json(v),
        ParamValue::Collection(vs) => Json::Arr(vs.iter().map(value_to_json).collect()),
    }
}

pub fn cursor_to_json(cursor: &Option<Cursor>) -> Json {
    match cursor {
        Some(c) => Json::str(hex_encode(&c.to_bytes())),
        None => Json::Null,
    }
}

pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xF)]));
    }
    out
}

pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let digit = |d: u8| char::from(d).to_digit(16);
    let digits = s.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        out.push((digit(pair[0])? << 4 | digit(pair[1])?) as u8);
    }
    Some(out)
}

/// Append the wire form of `cursor` — the hex digits of its bytes, what
/// [`cursor_to_json`] puts in a string — to `out`: the bytes are written
/// where the digits go and spread out in place, last byte first.
pub(crate) fn write_cursor_hex(cursor: &Cursor, out: &mut Vec<u8>) {
    let at = out.len();
    cursor.write_to(out);
    let n = out.len() - at;
    out.resize(at + 2 * n, 0);
    for i in (0..n).rev() {
        let b = out[at + i];
        out[at + 2 * i] = HEX_DIGITS[usize::from(b >> 4)];
        out[at + 2 * i + 1] = HEX_DIGITS[usize::from(b & 0xF)];
    }
}

/// Parse one request line, id included.
///
/// The line becomes a [`Request`] without a tree in between. It is walked
/// twice by a [`Scanner`]: once whole, so that a syntax error anywhere in
/// it is the first thing reported (as when the line was parsed into a tree
/// first), noting where the fields a request can carry start; then each
/// field its command needs is read where it lies, straight into the types
/// the request keeps. A message that quotes an offending value prints it
/// as the tree would have (`got {"a":1}`, keys sorted), by parsing just
/// that value — on the error path only.
pub fn parse_envelope(line: &str) -> Result<Envelope, ProtoError> {
    let line = line.trim();
    let fields = scan_line(line)?;
    Ok(Envelope {
        id: present(line, fields.id)
            .map(|at| read_id(line, at))
            .transpose()?,
        request: read_request(line, &fields, false)?,
    })
}

/// Parse one request line, ignoring any `id` field (kept for codec tests
/// and embedders that do their own correlation).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    parse_envelope(line).map(|e| e.request)
}

/// Best-effort `id` recovery from a line that failed [`parse_envelope`]:
/// if the line is valid JSON carrying a valid `id`, the error response
/// can still echo it so a pipelining client can correlate the failure.
pub fn extract_id(line: &str) -> Option<RequestId> {
    let line = line.trim();
    read_id(line, scan_line(line).ok()?.id?).ok()
}

/// Where the value of each field a request object can carry starts in its
/// line. A field that appears twice is read where it appears last, as a
/// map would have kept it.
#[derive(Default)]
struct Fields {
    cmd: Option<usize>,
    id: Option<usize>,
    name: Option<usize>,
    sql: Option<usize>,
    params: Option<usize>,
    cursor: Option<usize>,
    requests: Option<usize>,
}

/// Walk the whole of the value that comes next, noting its fields if it is
/// an object. Anything else is read past: it has no fields, and so no
/// `cmd`.
fn scan_fields(s: &mut Scanner<'_>) -> Result<Fields, JsonError> {
    let mut fields = Fields::default();
    if s.peek() != Some(b'{') {
        s.skip_value()?;
        return Ok(fields);
    }
    s.begin_object()?;
    while let Some(key) = s.next_key()? {
        let at = Some(s.pos());
        match &*key {
            "cmd" => fields.cmd = at,
            "id" => fields.id = at,
            "name" => fields.name = at,
            "sql" => fields.sql = at,
            "params" => fields.params = at,
            "cursor" => fields.cursor = at,
            "requests" => fields.requests = at,
            _ => {}
        }
        s.skip_value()?;
    }
    Ok(fields)
}

/// [`scan_fields`] over a whole line, which holds one value and nothing
/// after it.
fn scan_line(line: &str) -> Result<Fields, JsonError> {
    let mut s = Scanner::new(line);
    let fields = scan_fields(&mut s)?;
    s.finish()?;
    Ok(fields)
}

/// The value at `at`, printed as the tree prints it — what an error
/// message quotes.
fn quoted(line: &str, at: usize) -> Result<Json, JsonError> {
    Scanner::at(line, at).tree()
}

/// Where a field's value starts, if the field is there and not `null` —
/// which in an `id`, a `cursor` or an `explain` target means absent.
fn present(line: &str, at: Option<usize>) -> Option<usize> {
    // the line passed `scan_line`, so only `null` starts with an `n`
    at.filter(|&at| Scanner::at(line, at).peek() != Some(b'n'))
}

/// The string at `at`; `None` when there is no value there or it is
/// anything else.
fn read_str(line: &str, at: Option<usize>) -> Result<Option<Cow<'_, str>>, JsonError> {
    let Some(at) = at else {
        return Ok(None);
    };
    let mut s = Scanner::at(line, at);
    if s.peek() != Some(b'"') {
        return Ok(None);
    }
    Ok(match s.scalar()? {
        Scalar::Str(text) => Some(text),
        _ => None,
    })
}

/// A field that must be present and a string (`what` names it).
fn required_str(line: &str, at: Option<usize>, what: &str) -> Result<String, ProtoError> {
    read_str(line, at)?
        .map(Cow::into_owned)
        .ok_or_else(|| ProtoError::Malformed(format!("missing '{what}'")))
}

/// A scanner inside the array at `at`, past its bracket; `None` when the
/// value there is not an array.
fn enter_array(line: &str, at: usize) -> Option<Scanner<'_>> {
    let mut s = Scanner::at(line, at);
    (s.peek() == Some(b'[') && s.begin_array().is_ok()).then_some(s)
}

/// Only integers and strings are valid ids — see [`RequestId::from_json`],
/// whose message this repeats.
fn read_id(line: &str, at: usize) -> Result<RequestId, ProtoError> {
    let mut s = Scanner::at(line, at);
    if !matches!(s.peek(), Some(b'{' | b'[')) {
        match s.scalar()? {
            Scalar::Int(i) => return Ok(RequestId::Int(i)),
            Scalar::Str(text) => return Ok(RequestId::Str(text.into_owned())),
            _ => {}
        }
    }
    RequestId::from_json(&quoted(line, at)?)
}

/// One tagged value (see [`value_from_json`], whose rules and message
/// these are): `null`, or an object of exactly one known tag over a scalar
/// of the type the tag names.
fn read_value(line: &str, s: &mut Scanner<'_>) -> Result<Value, ProtoError> {
    let at = s.pos();
    match read_tagged(s)? {
        Some(value) => Ok(value),
        None => Err(ProtoError::Malformed(format!(
            "bad value: {}",
            quoted(line, at)?
        ))),
    }
}

/// `None` for anything that is not a value; the scanner is then left
/// wherever the reading stopped.
fn read_tagged(s: &mut Scanner<'_>) -> Result<Option<Value>, JsonError> {
    match s.peek() {
        Some(b'{') => {}
        Some(b'[') => return Ok(None),
        _ => return Ok(matches!(s.scalar()?, Scalar::Null).then_some(Value::Null)),
    }
    s.begin_object()?;
    // a tag that repeats keeps its last value, as in a map; a second tag
    // makes this an object of two fields
    let mut field: Option<(Cow<'_, str>, Option<Scalar<'_>>)> = None;
    while let Some(tag) = s.next_key()? {
        if field.as_ref().is_some_and(|(seen, _)| *seen != tag) {
            return Ok(None);
        }
        let inner = match s.peek() {
            Some(b'{' | b'[') => {
                s.skip_value()?;
                None
            }
            _ => Some(s.scalar()?),
        };
        field = Some((tag, inner));
    }
    Ok(match field {
        Some((tag, Some(inner))) => tagged(&tag, inner),
        _ => None,
    })
}

/// The `params` array: a scalar travels as a tagged value, a collection as
/// an array of them. Absent means none.
fn read_params(line: &str, at: Option<usize>) -> Result<Vec<ParamValue>, ProtoError> {
    let Some(at) = at else {
        return Ok(Vec::new());
    };
    let Some(mut s) = enter_array(line, at) else {
        return Err(ProtoError::Malformed(format!(
            "params must be an array, got {}",
            quoted(line, at)?
        )));
    };
    let mut params = Vec::new();
    while s.next_item()? {
        params.push(if s.peek() == Some(b'[') {
            let mut values = Vec::new();
            s.begin_array()?;
            while s.next_item()? {
                values.push(read_value(line, &mut s)?);
            }
            ParamValue::Collection(values)
        } else {
            ParamValue::Scalar(read_value(line, &mut s)?)
        });
    }
    Ok(params)
}

/// The `cursor` field: absent or `null` for none, else hex.
fn read_cursor(line: &str, at: Option<usize>) -> Result<Option<Cursor>, ProtoError> {
    let Some(at) = present(line, at) else {
        return Ok(None);
    };
    let Some(hex) = read_str(line, Some(at))? else {
        return Err(ProtoError::Malformed(format!(
            "cursor must be a hex string, got {}",
            quoted(line, at)?
        )));
    };
    let bytes =
        hex_decode(&hex).ok_or_else(|| ProtoError::Malformed("cursor is not hex".into()))?;
    Cursor::from_bytes(&bytes)
        .map(Some)
        .map_err(|e| ProtoError::Malformed(e.to_string()))
}

/// Build the request whose fields were found at `fields`. `nested` is true
/// inside a `batch`, where further batches (and per-sub-request ids) are
/// malformed.
fn read_request(line: &str, fields: &Fields, nested: bool) -> Result<Request, ProtoError> {
    let cmd =
        read_str(line, fields.cmd)?.ok_or_else(|| ProtoError::Malformed("missing 'cmd'".into()))?;
    match &*cmd {
        "prepare" => Ok(Request::Prepare {
            name: required_str(line, fields.name, "name")?,
            sql: required_str(line, fields.sql, "sql")?,
        }),
        "execute" => Ok(Request::Execute {
            name: required_str(line, fields.name, "name")?,
            params: read_params(line, fields.params)?,
            cursor: read_cursor(line, fields.cursor)?,
        }),
        // `execute` that *requires* a cursor (resuming pagination)
        "cursor-next" => {
            let cursor = read_cursor(line, fields.cursor)?
                .ok_or_else(|| ProtoError::Malformed("cursor-next requires a 'cursor'".into()))?;
            Ok(Request::Execute {
                name: required_str(line, fields.name, "name")?,
                params: read_params(line, fields.params)?,
                cursor: Some(cursor),
            })
        }
        "dml" => Ok(Request::Dml {
            sql: required_str(line, fields.sql, "sql")?,
            params: read_params(line, fields.params)?,
        }),
        "stats" => Ok(Request::Stats),
        "revalidate" => Ok(Request::Revalidate),
        "rebalance" => Ok(Request::Rebalance),
        "snapshot" => Ok(Request::Snapshot),
        "explain" => {
            let field = |key: &str, at: Option<usize>| -> Result<Option<String>, ProtoError> {
                let Some(at) = present(line, at) else {
                    return Ok(None);
                };
                match read_str(line, Some(at))? {
                    Some(text) => Ok(Some(text.into_owned())),
                    None => Err(ProtoError::Malformed(format!(
                        "'{key}' must be a string, got {}",
                        quoted(line, at)?
                    ))),
                }
            };
            let name = field("name", fields.name)?;
            let sql = field("sql", fields.sql)?;
            if name.is_some() == sql.is_some() {
                return Err(ProtoError::Malformed(
                    "explain requires exactly one of 'name' or 'sql'".into(),
                ));
            }
            Ok(Request::Explain { name, sql })
        }
        "batch" => {
            if nested {
                return Err(ProtoError::Malformed("batch cannot contain a batch".into()));
            }
            let mut s = fields
                .requests
                .and_then(|at| enter_array(line, at))
                .ok_or_else(|| ProtoError::Malformed("batch requires a 'requests' array".into()))?;
            let mut requests = Vec::new();
            while s.next_item()? {
                let sub = scan_fields(&mut s)?;
                // mirror the envelope rule: `"id":null` means absent
                if present(line, sub.id).is_some() {
                    return Err(ProtoError::Malformed(
                        "batch sub-requests are positional and must not carry 'id'".into(),
                    ));
                }
                requests.push(read_request(line, &sub, true)?);
            }
            Ok(Request::Batch { requests })
        }
        other => Err(ProtoError::Malformed(format!("unknown cmd '{other}'"))),
    }
}

/// Serialize a request as its wire object (no id).
pub fn request_to_json(req: &Request) -> Json {
    match req {
        Request::Prepare { name, sql } => Json::obj([
            ("cmd", Json::str("prepare")),
            ("name", Json::str(name.clone())),
            ("sql", Json::str(sql.clone())),
        ]),
        Request::Execute {
            name,
            params,
            cursor,
        } => Json::obj([
            ("cmd", Json::str("execute")),
            ("name", Json::str(name.clone())),
            (
                "params",
                Json::Arr(params.iter().map(param_to_json).collect()),
            ),
            ("cursor", cursor_to_json(cursor)),
        ]),
        Request::Dml { sql, params } => Json::obj([
            ("cmd", Json::str("dml")),
            ("sql", Json::str(sql.clone())),
            (
                "params",
                Json::Arr(params.iter().map(param_to_json).collect()),
            ),
        ]),
        Request::Stats => Json::obj([("cmd", Json::str("stats"))]),
        Request::Revalidate => Json::obj([("cmd", Json::str("revalidate"))]),
        Request::Rebalance => Json::obj([("cmd", Json::str("rebalance"))]),
        Request::Snapshot => Json::obj([("cmd", Json::str("snapshot"))]),
        Request::Explain { name, sql } => {
            let mut fields = vec![("cmd", Json::str("explain"))];
            if let Some(n) = name {
                fields.push(("name", Json::str(n.clone())));
            }
            if let Some(q) = sql {
                fields.push(("sql", Json::str(q.clone())));
            }
            Json::obj(fields)
        }
        Request::Batch { requests } => Json::obj([
            ("cmd", Json::str("batch")),
            (
                "requests",
                Json::Arr(requests.iter().map(request_to_json).collect()),
            ),
        ]),
    }
}

/// Serialize a request (what id-less clients send).
pub fn request_to_line(req: &Request) -> String {
    request_to_json(req).to_string()
}

/// Serialize a request with its optional id (what pipelining clients send).
pub fn envelope_to_line(env: &Envelope) -> String {
    let mut j = request_to_json(&env.request);
    if let (Json::Obj(m), Some(id)) = (&mut j, &env.id) {
        m.insert("id", id.to_json());
    }
    j.to_string()
}

/// Echo `id` onto a response envelope (a no-op on non-objects, which the
/// server never produces).
pub fn attach_id(response: &mut Json, id: &RequestId) {
    if let Json::Obj(m) = response {
        m.insert("id", id.to_json());
    }
}

/// Build a success response envelope.
pub fn ok_response(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    // last, so that it replaces an `ok` among the fields
    let ok = std::iter::once(("ok", Json::Bool(true)));
    Json::Obj(fields.into_iter().chain(ok).collect())
}

/// Build an error response envelope.
pub fn err_response(message: impl Into<String>) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::str(message.into())),
    ])
}

/// The admission-budget rejection envelope (PROTOCOL.md §4.2): a normal
/// error plus a machine-readable `code` and the refusing tenant, so a
/// client can back off instead of string-matching the message.
pub fn budget_exceeded_response(tenant: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::str(format!("admission budget exceeded for tenant '{tenant}'")),
        ),
        ("code", Json::str("budget-exceeded")),
        ("tenant", Json::str(tenant.to_string())),
    ])
}

/// What a request is answered with. Rows stay the executor's block until
/// a codec prints them from it into its connection's buffer
/// ([`Wire::encode_reply`](crate::wire::Wire::encode_reply)), and a write's
/// bare acknowledgement is printed without a tree; every other answer, and
/// every error, is a small document.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A successful `execute` / `cursor-next`.
    Rows {
        rows: Rows,
        cursor: Option<Cursor>,
        /// Overload control served the statement's degraded plan.
        degraded: bool,
    },
    /// A successful `dml`: `{"ok":true}`, printed without a tree.
    Done,
    /// A `batch`: one reply per sub-request, positionally.
    Batch(Vec<Reply>),
    /// Any other verb's answer, and every error.
    Doc(Json),
}

impl Reply {
    /// Hand the reply's result blocks back to this thread's execution
    /// scratch once they have been printed, so its next read builds its
    /// blocks in them ([`piql_engine::exec::give_back`]).
    pub fn give_back(self) {
        match self {
            Reply::Rows { rows, .. } => piql_engine::exec::give_back(rows),
            Reply::Batch(replies) => replies.into_iter().for_each(Reply::give_back),
            Reply::Done | Reply::Doc(_) => {}
        }
    }

    /// The response envelope as a tree — what both codecs' `encode_reply`
    /// write, for callers that want a document instead of bytes.
    pub fn into_json(self) -> Json {
        match self {
            Reply::Rows {
                rows,
                cursor,
                degraded,
            } => {
                let row_to_json =
                    |row: RowRef<'_>| Json::Arr(row.iter().map(value_ref_to_json).collect());
                let rows = rows.iter().map(row_to_json).collect();
                let mut fields = vec![
                    ("rows", Json::Arr(rows)),
                    ("cursor", cursor_to_json(&cursor)),
                ];
                // a shed admission served the degraded plan: tell the
                // client its result was truncated by overload control
                if degraded {
                    fields.push(("degraded", Json::Bool(true)));
                }
                ok_response(fields)
            }
            Reply::Done => ok_response([]),
            Reply::Batch(replies) => {
                let results = replies.into_iter().map(Reply::into_json).collect();
                ok_response([("results", Json::Arr(results))])
            }
            Reply::Doc(doc) => doc,
        }
    }
}

// ------------------------------------------------------- streamed responses
//
// The JSON codec's response encoder: the text `reply.into_json()` prints
// as, with `id` attached, written without the tree. Object keys go out in
// sorted order, as a `JsonMap` holds them, which for the fixed envelopes is
// spelled out below. Pinned byte for byte against the tree's printer by
// `tests/reply_props.rs`.

fn write_id(id: &RequestId, out: &mut Vec<u8>) {
    match id {
        RequestId::Int(i) => write_int(*i, out),
        RequestId::Str(s) => write_escaped(s, out),
    }
}

/// One column value as `value_to_json` tags it.
fn write_value(v: ValueRef<'_>, out: &mut Vec<u8>) {
    match v {
        ValueRef::Null => return out.extend_from_slice(b"null"),
        ValueRef::Int(i) => {
            out.extend_from_slice(b"{\"int\":");
            write_int(i64::from(i), out);
        }
        ValueRef::BigInt(i) => {
            out.extend_from_slice(b"{\"big\":");
            write_int(i, out);
        }
        ValueRef::Varchar(s) => {
            out.extend_from_slice(b"{\"str\":");
            write_escaped(s, out);
        }
        ValueRef::Bool(b) => {
            out.extend_from_slice(b"{\"bool\":");
            write_bool(b, out);
        }
        ValueRef::Timestamp(t) => {
            out.extend_from_slice(b"{\"ts\":");
            write_int(t, out);
        }
        ValueRef::Double(d) => {
            out.extend_from_slice(b"{\"f\":");
            write_float(d, out);
        }
    }
    out.push(b'}');
}

/// Append `doc` with `id` attached: for an object, `id` goes where a map
/// holding it would print it (and replaces a field of that name, as
/// [`attach_id`] would); anything else prints as it is.
pub(crate) fn write_doc(id: Option<&RequestId>, doc: &Json, out: &mut Vec<u8>) {
    let (Json::Obj(fields), Some(id)) = (doc, id) else {
        return doc.write_to(out);
    };
    let field = |(k, v): &(JsonStr, Json), out: &mut Vec<u8>| {
        write_escaped(k, out);
        out.push(b':');
        v.write_to(out);
    };
    let fields = fields.as_slice();
    let before = fields.partition_point(|(k, _)| k.as_str() < "id");
    // the document's own `id`, which the attached one replaces
    let replaced = usize::from(fields.get(before).is_some_and(|(k, _)| k == "id"));
    out.push(b'{');
    for entry in &fields[..before] {
        field(entry, out);
        out.push(b',');
    }
    out.extend_from_slice(b"\"id\":");
    write_id(id, out);
    for entry in &fields[before + replaced..] {
        out.push(b',');
        field(entry, out);
    }
    out.push(b'}');
}

/// Append `reply` as one response object carrying `id`.
pub(crate) fn write_reply(id: Option<&RequestId>, reply: &Reply, out: &mut Vec<u8>) {
    let id_field = |out: &mut Vec<u8>| {
        if let Some(id) = id {
            out.extend_from_slice(b"\"id\":");
            write_id(id, out);
            out.push(b',');
        }
    };
    match reply {
        Reply::Rows {
            rows,
            cursor,
            degraded,
        } => {
            // cursor < degraded < id < ok < rows
            out.extend_from_slice(b"{\"cursor\":");
            match cursor {
                Some(cursor) => {
                    out.push(b'"');
                    write_cursor_hex(cursor, out);
                    out.push(b'"');
                }
                None => out.extend_from_slice(b"null"),
            }
            if *degraded {
                out.extend_from_slice(b",\"degraded\":true");
            }
            out.push(b',');
            id_field(out);
            out.extend_from_slice(b"\"ok\":true,\"rows\":");
            write_array(rows, out, |row, out| {
                write_array(row.iter(), out, write_value)
            });
            out.push(b'}');
        }
        Reply::Done => {
            // id < ok
            out.push(b'{');
            id_field(out);
            out.extend_from_slice(b"\"ok\":true}");
        }
        Reply::Batch(replies) => {
            // id < ok < results
            out.push(b'{');
            id_field(out);
            out.extend_from_slice(b"\"ok\":true,\"results\":");
            write_array(replies, out, |sub, out| write_reply(None, sub, out));
            out.push(b'}');
        }
        Reply::Doc(doc) => write_doc(id, doc, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_engine::CursorState;

    #[test]
    fn value_tagging_roundtrips() {
        let values = [
            Value::Null,
            Value::Int(-5),
            Value::BigInt(9_007_199_254_740_993),
            Value::Varchar("héllo\nworld".into()),
            Value::Bool(true),
            Value::Timestamp(1_300_000_000_000_123),
            Value::Double(0.1),
        ];
        for v in &values {
            let j = value_to_json(v);
            let reparsed = crate::json::parse(&j.to_string()).unwrap();
            assert_eq!(&value_from_json(&reparsed).unwrap(), v);
        }
    }

    fn resume_point() -> Cursor {
        Cursor {
            state: CursorState::ScanAfter {
                last_key: vec![1, 2, 255],
            },
        }
    }

    #[test]
    fn cursor_next_lines_decode_as_execute_with_the_cursor() {
        // the lines a client built at 2bf91e6 sends for `cursor_next`
        let resumed = Request::Execute {
            name: "q1".into(),
            params: vec![Value::Int(3).into()],
            cursor: Some(resume_point()),
        };
        let line =
            r#"{"cmd":"cursor-next","cursor":"0101030102ff","name":"q1","params":[{"int":3}]}"#;
        assert_eq!(parse_request(line).unwrap(), resumed);
        let tagged = r#"{"cmd":"cursor-next","cursor":"0101030102ff","id":-7,"name":"q1","params":[{"int":3}]}"#;
        let env = parse_envelope(tagged).unwrap();
        assert_eq!((env.id, env.request), (Some(RequestId::Int(-7)), resumed));
        // what tells the verb from `execute`: its cursor is not optional
        for line in [
            r#"{"cmd":"cursor-next","name":"q1","params":[]}"#,
            r#"{"cmd":"cursor-next","cursor":null,"name":"q1","params":[]}"#,
        ] {
            let err = parse_request(line).unwrap_err().to_string();
            assert!(err.contains("cursor-next requires a 'cursor'"), "{err}");
        }
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Prepare {
                name: "q1".into(),
                sql: "SELECT * FROM t WHERE k = <k>".into(),
            },
            Request::Execute {
                name: "q1".into(),
                params: vec![Value::Int(3).into(), Value::Varchar("x".into()).into()],
                cursor: None,
            },
            Request::Execute {
                name: "q1".into(),
                params: vec![],
                cursor: Some(resume_point()),
            },
            Request::Dml {
                sql: "INSERT INTO t VALUES (<a>)".into(),
                params: vec![
                    Value::Int(1).into(),
                    vec![Value::Int(2), Value::Int(3)].into(),
                ],
            },
            Request::Stats,
            Request::Revalidate,
            Request::Rebalance,
            Request::Snapshot,
            Request::Explain {
                name: Some("q1".into()),
                sql: None,
            },
            Request::Explain {
                name: None,
                sql: Some("SELECT * FROM t WHERE k = <k> LIMIT 5".into()),
            },
            Request::Batch {
                requests: vec![
                    Request::Dml {
                        sql: "INSERT INTO t VALUES (<a>)".into(),
                        params: vec![Value::Int(9).into()],
                    },
                    Request::Execute {
                        name: "q1".into(),
                        params: vec![],
                        cursor: None,
                    },
                    Request::Stats,
                ],
            },
        ];
        for r in &reqs {
            assert_eq!(&parse_request(&request_to_line(r)).unwrap(), r);
            // and with each id flavor wrapped around it
            for id in [
                None,
                Some(RequestId::Int(-7)),
                Some(RequestId::Str("page-3\n\"x\"".into())),
            ] {
                let env = Envelope {
                    id,
                    request: r.clone(),
                };
                assert_eq!(parse_envelope(&envelope_to_line(&env)).unwrap(), env);
            }
        }
    }

    #[test]
    fn id_rules() {
        // null id == absent id (legacy)
        let env = parse_envelope(r#"{"cmd":"stats","id":null}"#).unwrap();
        assert_eq!(env.id, None);
        // float / bool / structured ids are malformed
        for bad in [
            r#"{"cmd":"stats","id":1.5}"#,
            r#"{"cmd":"stats","id":true}"#,
            r#"{"cmd":"stats","id":[1]}"#,
        ] {
            assert!(matches!(parse_envelope(bad), Err(ProtoError::Malformed(_))));
        }
        // best-effort id recovery from otherwise-malformed lines
        assert_eq!(
            extract_id(r#"{"cmd":"nope","id":3}"#),
            Some(RequestId::Int(3))
        );
        assert_eq!(extract_id(r#"{"cmd":"nope"}"#), None);
        assert_eq!(extract_id("not json"), None);
        // echo helper sticks the id into the envelope
        let mut resp = ok_response([]);
        attach_id(&mut resp, &RequestId::Str("a".into()));
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("a"));
    }

    #[test]
    fn explain_requires_exactly_one_target() {
        // neither, both, and non-string targets are malformed
        for bad in [
            r#"{"cmd":"explain"}"#,
            r#"{"cmd":"explain","name":"q","sql":"SELECT 1"}"#,
            r#"{"cmd":"explain","name":7}"#,
            r#"{"cmd":"explain","sql":[1]}"#,
        ] {
            assert!(
                matches!(parse_request(bad), Err(ProtoError::Malformed(_))),
                "{bad}"
            );
        }
        // `null` means absent, mirroring the id rule
        assert_eq!(
            parse_request(r#"{"cmd":"explain","name":"q","sql":null}"#).unwrap(),
            Request::Explain {
                name: Some("q".into()),
                sql: None,
            }
        );
    }

    #[test]
    fn batch_structural_rules() {
        // nesting is malformed
        assert!(matches!(
            parse_request(r#"{"cmd":"batch","requests":[{"cmd":"batch","requests":[]}]}"#),
            Err(ProtoError::Malformed(_))
        ));
        // sub-requests must not carry ids
        assert!(matches!(
            parse_request(r#"{"cmd":"batch","requests":[{"cmd":"stats","id":1}]}"#),
            Err(ProtoError::Malformed(_))
        ));
        // 'requests' must be present and an array
        for bad in [
            r#"{"cmd":"batch"}"#,
            r#"{"cmd":"batch","requests":{"cmd":"stats"}}"#,
        ] {
            assert!(matches!(parse_request(bad), Err(ProtoError::Malformed(_))));
        }
        // the empty batch is legal (answers with empty results)
        assert_eq!(
            parse_request(r#"{"cmd":"batch","requests":[]}"#).unwrap(),
            Request::Batch { requests: vec![] }
        );
        // `"id":null` on a sub-request means absent, like the envelope rule
        assert_eq!(
            parse_request(r#"{"cmd":"batch","requests":[{"cmd":"stats","id":null}]}"#).unwrap(),
            Request::Batch {
                requests: vec![Request::Stats]
            }
        );
    }

    #[test]
    fn empty_and_multikey_objects_are_errors_not_panics() {
        // `{}` as a request line must produce a protocol error; pins the
        // unwrap-free field handling so no refactor can make a hostile
        // line panic the connection handler
        assert!(matches!(parse_request("{}"), Err(ProtoError::Malformed(_))));
        // `{}` and multi-tag objects as *values* are malformed too
        for line in [
            r#"{"cmd":"execute","name":"q","params":[{}]}"#,
            r#"{"cmd":"execute","name":"q","params":[{"int":1,"str":"x"}]}"#,
            r#"{"cmd":"execute","name":"q","params":[{"nope":1}]}"#,
        ] {
            assert!(
                matches!(parse_request(line), Err(ProtoError::Malformed(_))),
                "{line}"
            );
        }
        // truncated escapes surface as JSON errors, not panics
        for line in ["{\"cmd\":\"stats\"", r#"{"cmd":"stats","x":"\u12"#, "\"\\"] {
            assert!(
                matches!(parse_request(line), Err(ProtoError::Json(_))),
                "{line}"
            );
        }
    }

    #[test]
    fn hex_roundtrip_and_rejects() {
        assert_eq!(
            hex_decode(&hex_encode(&[0, 127, 255])).unwrap(),
            vec![0, 127, 255]
        );
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
        assert!(hex_decode("+f").is_none(), "digits only, no sign");
        assert!(parse_request("{\"cmd\":\"nope\"}").is_err());
        assert!(parse_request("not json").is_err());
    }
}
