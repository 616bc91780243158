//! The length-prefixed binary encoding (protocol v3).
//!
//! **The normative spec is PROTOCOL.md §9.** In brief: a v3 client opens
//! with the 5-byte magic preamble [`MAGIC`]; the server answers a hello
//! frame carrying its version and both sides then exchange frames:
//!
//! ```text
//! frame   := len:u32le  opcode:u8  id  payload
//! id      := 0x00 | 0x01 i64le | 0x02 len:u32le utf8
//! ```
//!
//! `len` counts every byte after itself (opcode + id + payload) and is
//! capped at [`MAX_FRAME`]; an oversized length is a *framing* error that
//! closes the connection (the stream cannot be resynchronized), while any
//! decode failure inside an intact frame is answered with an error
//! response — echoing the header id when one parses — and the stream
//! continues, mirroring the v2 malformed-line rules.
//!
//! The magic deliberately ends in `\n` and starts with `0xB3` (never a
//! valid JSON/UTF-8 first byte): a v3 client that reaches a v2-only server
//! sends what that server reads as one garbage line, receives a JSON error
//! line back, and interprets its first four bytes (`{"ok` ≈ 1.8 GB) as a
//! length over the cap — failing cleanly with "server does not speak v3"
//! instead of hanging. A v2 client at a v3+v2 server never trips the
//! sniffer because no JSON line starts with `0xB3`.
//!
//! Values, parameters, cursors, and response documents each have a tagged
//! binary form (see the constants below). Response documents are encoded
//! [`Json`] trees — object keys in sorted (lexicographic) order — so a
//! binary response carries byte-for-byte the same information as its JSON
//! twin, and the server's allocation-free fast path can emit frames that
//! are *byte-identical* to the generic encoder's (pinned by tests).

use crate::json::{Json, Member, TreeBuilder, MAX_JSON_DEPTH};
use crate::protocol::{
    batch_slots, put_request, set_str, take_text_and_params, write_cursor_hex, Envelope,
    ParamSlots, ProtoError, Reply, Request, RequestId, Stash,
};
use crate::wire::Wire;
use piql_core::plan::params::ParamValue;
use piql_core::value::ValueRef;
use piql_engine::Cursor;
use std::io::{self, BufRead};

/// Connection preamble a v3 client sends before its first frame:
/// `0xB3 'P' 'Q' 0x03 '\n'`.
pub const MAGIC: [u8; 5] = [0xB3, b'P', b'Q', 0x03, b'\n'];

/// Protocol version carried in the hello frame.
pub const VERSION: u8 = 3;

/// Upper bound on `len` (bytes after the length prefix). Larger lengths
/// are framing errors, not messages.
pub const MAX_FRAME: usize = 64 << 20;

// Request opcodes (one per PROTOCOL.md verb).
pub const OP_PREPARE: u8 = 0x01;
pub const OP_EXECUTE: u8 = 0x02;
pub const OP_CURSOR_NEXT: u8 = 0x03;
pub const OP_DML: u8 = 0x04;
pub const OP_STATS: u8 = 0x05;
pub const OP_REVALIDATE: u8 = 0x06;
pub const OP_REBALANCE: u8 = 0x07;
pub const OP_SNAPSHOT: u8 = 0x08;
pub const OP_BATCH: u8 = 0x09;
pub const OP_EXPLAIN: u8 = 0x0A;
/// Server → client greeting after the magic: payload is one version byte.
pub const OP_HELLO: u8 = 0x7F;
/// Every server → client answer frame.
pub const OP_RESPONSE: u8 = 0x80;

// Frame-header id kinds.
const ID_NONE: u8 = 0;
const ID_INT: u8 = 1;
const ID_STR: u8 = 2;

// Value tags (params).
const V_NULL: u8 = 0;
const V_INT: u8 = 1;
const V_BIGINT: u8 = 2;
const V_VARCHAR: u8 = 3;
const V_BOOL_FALSE: u8 = 4;
const V_BOOL_TRUE: u8 = 5;
const V_TIMESTAMP: u8 = 6;
const V_DOUBLE: u8 = 7;

// Parameter markers.
const P_SCALAR: u8 = 0;
const P_COLLECTION: u8 = 1;

// Json-tree tags (responses).
const J_NULL: u8 = 0;
const J_FALSE: u8 = 1;
const J_TRUE: u8 = 2;
const J_INT: u8 = 3;
const J_FLOAT: u8 = 4;
const J_STR: u8 = 5;
const J_ARR: u8 = 6;
const J_OBJ: u8 = 7;

// ---------------------------------------------------------------- writing

#[inline]
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Reserve the length prefix of a new frame; pair with [`finish_frame`].
#[inline]
pub(crate) fn begin_frame(out: &mut Vec<u8>) -> usize {
    let mark = out.len();
    put_u32(out, 0);
    mark
}

/// Patch the length prefix reserved by [`begin_frame`].
#[inline]
pub(crate) fn finish_frame(out: &mut [u8], mark: usize) {
    let len = (out.len() - mark - 4) as u32;
    out[mark..mark + 4].copy_from_slice(&len.to_le_bytes());
}

fn put_id(out: &mut Vec<u8>, id: Option<&RequestId>) {
    match id {
        None => out.push(ID_NONE),
        Some(RequestId::Int(i)) => {
            out.push(ID_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Some(RequestId::Str(s)) => {
            out.push(ID_STR);
            put_str(out, s);
        }
    }
}

/// Append one tagged value (the parameter/value encoding).
pub(crate) fn put_value(out: &mut Vec<u8>, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => out.push(V_NULL),
        ValueRef::Int(i) => {
            out.push(V_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        ValueRef::BigInt(i) => {
            out.push(V_BIGINT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        ValueRef::Varchar(s) => {
            out.push(V_VARCHAR);
            put_str(out, s);
        }
        ValueRef::Bool(false) => out.push(V_BOOL_FALSE),
        ValueRef::Bool(true) => out.push(V_BOOL_TRUE),
        ValueRef::Timestamp(t) => {
            out.push(V_TIMESTAMP);
            out.extend_from_slice(&t.to_le_bytes());
        }
        ValueRef::Double(d) => {
            out.push(V_DOUBLE);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn put_params(out: &mut Vec<u8>, params: &[ParamValue]) {
    put_u32(out, params.len() as u32);
    for p in params {
        match p {
            ParamValue::Scalar(v) => {
                out.push(P_SCALAR);
                put_value(out, ValueRef::of(v));
            }
            ParamValue::Collection(vs) => {
                out.push(P_COLLECTION);
                put_u32(out, vs.len() as u32);
                for v in vs {
                    put_value(out, ValueRef::of(v));
                }
            }
        }
    }
}

fn put_cursor(out: &mut Vec<u8>, cursor: Option<&Cursor>) {
    match cursor {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            let bytes = c.to_bytes();
            put_u32(out, bytes.len() as u32);
            out.extend_from_slice(&bytes);
        }
    }
}

fn opcode_of(req: &Request) -> u8 {
    match req {
        Request::Prepare { .. } => OP_PREPARE,
        Request::Execute { .. } => OP_EXECUTE,
        Request::Dml { .. } => OP_DML,
        Request::Stats => OP_STATS,
        Request::Revalidate => OP_REVALIDATE,
        Request::Rebalance => OP_REBALANCE,
        Request::Snapshot => OP_SNAPSHOT,
        Request::Batch { .. } => OP_BATCH,
        Request::Explain { .. } => OP_EXPLAIN,
    }
}

/// An optional string: presence byte, then the string when present (the
/// `explain` verb's name-or-sql target).
fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_body(out: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Prepare { name, sql } => {
            put_str(out, name);
            put_str(out, sql);
        }
        Request::Execute {
            name,
            params,
            cursor,
        } => {
            put_str(out, name);
            put_params(out, params);
            put_cursor(out, cursor.as_ref());
        }
        Request::Dml { sql, params } => {
            put_str(out, sql);
            put_params(out, params);
        }
        Request::Stats | Request::Revalidate | Request::Rebalance | Request::Snapshot => {}
        Request::Explain { name, sql } => {
            put_opt_str(out, name.as_deref());
            put_opt_str(out, sql.as_deref());
        }
        Request::Batch { requests } => {
            put_u32(out, requests.len() as u32);
            for sub in requests {
                out.push(opcode_of(sub));
                put_body(out, sub);
            }
        }
    }
}

/// Append one encoded [`Json`] tree (object keys in map order, which is
/// lexicographic — the property the fast-path/generic byte-identity test
/// leans on).
pub(crate) fn put_json(out: &mut Vec<u8>, j: &Json) {
    match j {
        Json::Null => out.push(J_NULL),
        Json::Bool(false) => out.push(J_FALSE),
        Json::Bool(true) => out.push(J_TRUE),
        Json::Int(i) => {
            out.push(J_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Json::Float(f) => {
            // exact bits — unlike JSON text, NaN/Inf survive
            out.push(J_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Json::Str(s) => {
            out.push(J_STR);
            put_str(out, s);
        }
        Json::Arr(items) => {
            out.push(J_ARR);
            put_u32(out, items.len() as u32);
            for item in items {
                put_json(out, item);
            }
        }
        Json::Obj(fields) => {
            out.push(J_OBJ);
            put_u32(out, fields.len() as u32);
            for (k, v) in fields {
                put_str(out, k);
                put_json(out, v);
            }
        }
    }
}

// ------------------------------------------------------- row emission
//
// The one row encoder: [`Wire::encode_reply`] and the server's
// allocation-free point-read path (`server::BinaryConn`) both compose
// `execute` responses from these emitters instead of building a [`Json`]
// tree. Their output is pinned byte-identical to
// `put_json(&reply.into_json())` by tests — any drift would make streamed
// and tree-built responses distinguishable.

/// An `execute` response body up to and including the rows array's
/// element count. Sorted key order puts `cursor` < `degraded` < `ok`
/// < `rows`; the cursor travels as the hex string its JSON twin carries.
pub(crate) fn put_rows_header(
    out: &mut Vec<u8>,
    cursor: Option<&Cursor>,
    degraded: bool,
    rows: u32,
) {
    out.push(J_OBJ);
    put_u32(out, 3 + u32::from(degraded));
    put_str(out, "cursor");
    match cursor {
        None => out.push(J_NULL),
        Some(cursor) => {
            // a string's length prefix is a frame's: reserved, then patched
            out.push(J_STR);
            let mark = begin_frame(out);
            write_cursor_hex(cursor, out);
            finish_frame(out, mark);
        }
    }
    if degraded {
        put_str(out, "degraded");
        out.push(J_TRUE);
    }
    put_str(out, "ok");
    out.push(J_TRUE);
    put_str(out, "rows");
    out.push(J_ARR);
    put_u32(out, rows);
}

/// One row's array header; `arity` column values follow via
/// [`put_row_value`].
pub(crate) fn put_row_header(out: &mut Vec<u8>, arity: u32) {
    out.push(J_ARR);
    put_u32(out, arity);
}

/// One column value exactly as `put_json(&value_to_json(v))` emits it —
/// the tagged one-field object of PROTOCOL.md §4.2, without materializing
/// the intermediate [`Json`].
pub(crate) fn put_row_value(out: &mut Vec<u8>, v: ValueRef<'_>) {
    fn field(out: &mut Vec<u8>, key: &str) {
        out.push(J_OBJ);
        put_u32(out, 1);
        put_str(out, key);
    }
    match v {
        ValueRef::Null => out.push(J_NULL),
        ValueRef::Int(i) => {
            field(out, "int");
            out.push(J_INT);
            out.extend_from_slice(&(i as i64).to_le_bytes());
        }
        ValueRef::BigInt(i) => {
            field(out, "big");
            out.push(J_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        ValueRef::Varchar(s) => {
            field(out, "str");
            out.push(J_STR);
            put_str(out, s);
        }
        ValueRef::Bool(b) => {
            field(out, "bool");
            out.push(if b { J_TRUE } else { J_FALSE });
        }
        ValueRef::Timestamp(t) => {
            field(out, "ts");
            out.push(J_INT);
            out.extend_from_slice(&t.to_le_bytes());
        }
        ValueRef::Double(d) => {
            field(out, "f");
            out.push(J_FLOAT);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// Append one reply exactly as `put_json(&reply.into_json())` emits it.
fn put_reply(out: &mut Vec<u8>, reply: &Reply) {
    match reply {
        Reply::Rows {
            rows,
            cursor,
            degraded,
        } => {
            put_rows_header(out, cursor.as_ref(), *degraded, rows.len() as u32);
            for row in rows {
                put_row_header(out, row.len() as u32);
                for v in row.iter() {
                    put_row_value(out, v);
                }
            }
        }
        Reply::Done => {
            out.push(J_OBJ);
            put_u32(out, 1);
            put_str(out, "ok");
            out.push(J_TRUE);
        }
        Reply::Batch(replies) => {
            out.push(J_OBJ);
            put_u32(out, 2);
            put_str(out, "ok");
            out.push(J_TRUE);
            put_str(out, "results");
            out.push(J_ARR);
            put_u32(out, replies.len() as u32);
            for sub in replies {
                put_reply(out, sub);
            }
        }
        Reply::Doc(doc) => put_json(out, doc),
    }
}

/// Append the server's hello frame (sent once, after reading the magic).
pub fn put_hello(out: &mut Vec<u8>) {
    let mark = begin_frame(out);
    out.push(OP_HELLO);
    out.push(ID_NONE);
    out.push(VERSION);
    finish_frame(out, mark);
}

// ---------------------------------------------------------------- reading

fn truncated() -> ProtoError {
    ProtoError::Malformed("truncated frame".into())
}

/// A bounds-checked cursor over one frame's bytes. Every decode error is a
/// [`ProtoError`] (answerable in-stream), never a panic.
pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let s = self
            .buf
            .get(self.pos..self.pos.checked_add(n).ok_or_else(truncated)?)
            .ok_or_else(truncated)?;
        self.pos += n;
        Ok(s)
    }

    /// `take` as a fixed-size array, so the little-endian decoders below
    /// stay free of unwraps on the request path.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        self.take(N)?.try_into().map_err(|_| truncated())
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self.buf.get(self.pos).ok_or_else(truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn i32(&mut self) -> Result<i32, ProtoError> {
        Ok(i32::from_le_bytes(self.take_array()?))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, ProtoError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| ProtoError::Malformed("string is not UTF-8".into()))
    }

    pub(crate) fn done(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after message".into()))
        }
    }
}

fn read_id(cur: &mut Cur<'_>) -> Result<Option<RequestId>, ProtoError> {
    let mut id = None;
    read_id_into(cur, &mut id)?;
    Ok(id)
}

/// Decode a frame-header id over `id`, reusing a string id's buffer.
fn read_id_into(cur: &mut Cur<'_>, id: &mut Option<RequestId>) -> Result<(), ProtoError> {
    match cur.u8()? {
        ID_NONE => *id = None,
        ID_INT => *id = Some(RequestId::Int(cur.i64()?)),
        ID_STR => {
            let s = cur.str()?;
            match id {
                Some(RequestId::Str(old)) => set_str(old, s),
                _ => *id = Some(RequestId::Str(s.to_string())),
            }
        }
        other => return Err(ProtoError::Malformed(format!("unknown id kind {other}"))),
    }
    Ok(())
}

/// Decode one tagged value, borrowing string payloads from the frame.
pub(crate) fn read_value_ref<'a>(cur: &mut Cur<'a>) -> Result<ValueRef<'a>, ProtoError> {
    Ok(match cur.u8()? {
        V_NULL => ValueRef::Null,
        V_INT => ValueRef::Int(cur.i32()?),
        V_BIGINT => ValueRef::BigInt(cur.i64()?),
        V_VARCHAR => ValueRef::Varchar(cur.str()?),
        V_BOOL_FALSE => ValueRef::Bool(false),
        V_BOOL_TRUE => ValueRef::Bool(true),
        V_TIMESTAMP => ValueRef::Timestamp(cur.i64()?),
        V_DOUBLE => ValueRef::Double(cur.f64()?),
        other => return Err(ProtoError::Malformed(format!("unknown value tag {other}"))),
    })
}

/// A conservative capacity for a count-prefixed sequence: every element
/// needs at least one byte, so a count beyond the remaining bytes is
/// malformed (and must not drive a huge pre-allocation).
fn checked_capacity(cur: &Cur<'_>, count: u32) -> Result<usize, ProtoError> {
    let count = count as usize;
    if count > cur.remaining() {
        return Err(ProtoError::Malformed("count exceeds frame".into()));
    }
    Ok(count)
}

/// Decode a parameter section over `params` ([`ParamSlots`]).
fn read_params_into(
    cur: &mut Cur<'_>,
    params: &mut Vec<ParamValue>,
    stash: &mut Stash,
) -> Result<(), ProtoError> {
    let raw_count = cur.u32()?;
    let count = checked_capacity(cur, raw_count)?;
    let mut slots = ParamSlots::new(params, count, stash);
    for _ in 0..count {
        match cur.u8()? {
            P_SCALAR => slots.scalar(read_value_ref(cur)?),
            P_COLLECTION => {
                let raw_n = cur.u32()?;
                let n = checked_capacity(cur, raw_n)?;
                let mut values = slots.collection(n);
                for _ in 0..n {
                    values.value(read_value_ref(cur)?);
                }
            }
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown param marker {other}"
                )))
            }
        }
    }
    Ok(())
}

/// Scan an encoded parameter section, recording the byte offset (within
/// `cur`'s buffer) of each *scalar* parameter's tagged value into
/// `offsets` (cleared first, capacity reused). Returns `Ok(false)` when a
/// collection parameter appears — the point-read fast path only binds
/// scalars and must fall back.
pub(crate) fn scan_scalar_params(
    cur: &mut Cur<'_>,
    offsets: &mut Vec<usize>,
) -> Result<bool, ProtoError> {
    offsets.clear();
    let count = cur.u32()?;
    for _ in 0..count {
        match cur.u8()? {
            P_SCALAR => {
                offsets.push(cur.pos());
                read_value_ref(cur)?;
            }
            P_COLLECTION => return Ok(false),
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unknown param marker {other}"
                )))
            }
        }
    }
    Ok(true)
}

fn read_opt_str(cur: &mut Cur<'_>) -> Result<Option<String>, ProtoError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(cur.str()?.to_string())),
        other => Err(ProtoError::Malformed(format!(
            "bad optional-string presence byte {other}"
        ))),
    }
}

fn read_cursor(cur: &mut Cur<'_>) -> Result<Option<Cursor>, ProtoError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => {
            let len = cur.u32()? as usize;
            let raw = cur.take(len)?;
            Cursor::from_bytes(raw)
                .map(Some)
                .map_err(|e| ProtoError::Malformed(e.to_string()))
        }
        other => Err(ProtoError::Malformed(format!(
            "bad cursor presence byte {other}"
        ))),
    }
}

/// Decode one request body over `req`. An `execute` or `dml` keeps the
/// slot's text and parameter vector ([`take_text_and_params`]), a `batch`
/// its vector of sub-requests, each decoded over the one at its position
/// ([`batch_slots`]); any other request replaces the slot, whose buffers go
/// to the stash.
fn read_body_into(
    cur: &mut Cur<'_>,
    opcode: u8,
    nested: bool,
    req: &mut Request,
    stash: &mut Stash,
) -> Result<(), ProtoError> {
    match opcode {
        OP_EXECUTE | OP_CURSOR_NEXT => {
            let (mut name, mut params) = take_text_and_params(req, stash);
            set_str(&mut name, cur.str()?);
            read_params_into(cur, &mut params, stash)?;
            let cursor = read_cursor(cur)?;
            if opcode == OP_CURSOR_NEXT && cursor.is_none() {
                return Err(ProtoError::Malformed(
                    "cursor-next requires a 'cursor'".into(),
                ));
            }
            *req = Request::Execute {
                name,
                params,
                cursor,
            };
        }
        OP_DML => {
            let (mut sql, mut params) = take_text_and_params(req, stash);
            set_str(&mut sql, cur.str()?);
            read_params_into(cur, &mut params, stash)?;
            *req = Request::Dml { sql, params };
        }
        OP_PREPARE => {
            let prepare = Request::Prepare {
                name: cur.str()?.to_string(),
                sql: cur.str()?.to_string(),
            };
            put_request(req, prepare, stash);
        }
        OP_STATS => put_request(req, Request::Stats, stash),
        OP_REVALIDATE => put_request(req, Request::Revalidate, stash),
        OP_REBALANCE => put_request(req, Request::Rebalance, stash),
        OP_SNAPSHOT => put_request(req, Request::Snapshot, stash),
        OP_EXPLAIN => {
            let name = read_opt_str(cur)?;
            let sql = read_opt_str(cur)?;
            if name.is_some() == sql.is_some() {
                return Err(ProtoError::Malformed(
                    "explain requires exactly one of 'name' or 'sql'".into(),
                ));
            }
            put_request(req, Request::Explain { name, sql }, stash);
        }
        OP_BATCH => {
            if nested {
                return Err(ProtoError::Malformed("batch cannot contain a batch".into()));
            }
            let raw_count = cur.u32()?;
            let count = checked_capacity(cur, raw_count)?;
            let mut requests = batch_slots(req, count, stash);
            for sub in &mut requests {
                let op = cur.u8()?;
                read_body_into(cur, op, true, sub, stash)?;
            }
            *req = Request::Batch { requests };
        }
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown opcode {other:#04x}"
            )))
        }
    }
    Ok(())
}

/// One response document, its arrays and objects built a nesting level at
/// a time (see [`TreeBuilder`]).
fn read_document(cur: &mut Cur<'_>) -> Result<Json, ProtoError> {
    let mut levels = TreeBuilder::default();
    let root = read_json(cur, &mut levels)?;
    Ok(levels.finish(root))
}

/// The value that comes next. Response documents may nest
/// [`MAX_JSON_DEPTH`] deep, like JSON texts.
fn read_json(cur: &mut Cur<'_>, levels: &mut TreeBuilder) -> Result<Member, ProtoError> {
    let tag = cur.u8()?;
    if matches!(tag, J_ARR | J_OBJ) && levels.depth() == MAX_JSON_DEPTH {
        return Err(ProtoError::Malformed("response nested too deeply".into()));
    }
    let scalar = match tag {
        J_NULL => Json::Null,
        J_FALSE => Json::Bool(false),
        J_TRUE => Json::Bool(true),
        J_INT => Json::Int(cur.i64()?),
        J_FLOAT => Json::Float(cur.f64()?),
        J_STR => Json::Str(cur.str()?.into()),
        J_ARR => {
            let raw_count = cur.u32()?;
            let count = checked_capacity(cur, raw_count)?;
            let array = levels.open_array();
            for _ in 0..count {
                let item = read_json(cur, levels)?;
                levels.item(&array, item);
            }
            return closed(levels.close_array(array));
        }
        J_OBJ => {
            let raw_count = cur.u32()?;
            let count = checked_capacity(cur, raw_count)?;
            let object = levels.open_object();
            for _ in 0..count {
                let key = cur.str()?.into();
                let value = read_json(cur, levels)?;
                levels.field(&object, key, value);
            }
            return closed(levels.close_object(object));
        }
        other => return Err(ProtoError::Malformed(format!("unknown json tag {other}"))),
    };
    Ok(scalar.into())
}

fn closed(container: Option<Member>) -> Result<Member, ProtoError> {
    container.ok_or_else(|| ProtoError::Malformed("too many members on one nesting level".into()))
}

/// Split a request frame into `(opcode, raw id bytes, payload)` without
/// materializing the id — the fast path echoes the raw bytes verbatim
/// (zero allocation) and [`Wire::extract_id`] rides on it too.
pub(crate) fn split_frame(frame: &[u8]) -> Result<(u8, &[u8], &[u8]), ProtoError> {
    let mut cur = Cur::new(frame);
    let opcode = cur.u8()?;
    let id_start = cur.pos();
    match cur.u8()? {
        ID_NONE => {}
        ID_INT => {
            cur.take(8)?;
        }
        ID_STR => {
            let len = cur.u32()? as usize;
            cur.take(len)?;
        }
        other => return Err(ProtoError::Malformed(format!("unknown id kind {other}"))),
    }
    let id_end = cur.pos();
    Ok((opcode, &frame[id_start..id_end], &frame[id_end..]))
}

/// Decode the hello frame; returns the server's version byte.
pub fn parse_hello(frame: &[u8]) -> Result<u8, ProtoError> {
    let mut cur = Cur::new(frame);
    if cur.u8()? != OP_HELLO {
        return Err(ProtoError::Malformed("expected hello frame".into()));
    }
    if read_id(&mut cur)?.is_some() {
        return Err(ProtoError::Malformed("hello carries no id".into()));
    }
    let version = cur.u8()?;
    cur.done()?;
    Ok(version)
}

// ------------------------------------------------------------------ Wire

/// The binary encoding (protocol v3) as a [`Wire`].
#[derive(Debug, Default, Clone, Copy)]
pub struct BinaryWire;

/// Whether `buffered` (a reader's lookahead bytes) already holds one
/// complete frame — if so, the server handles it before flushing pending
/// output, so a pipelined burst answers in one write.
pub(crate) fn complete_frame_buffered(buffered: &[u8]) -> bool {
    match buffered.first_chunk::<4>() {
        Some(len) => {
            let len = u32::from_le_bytes(*len) as usize;
            len <= MAX_FRAME && buffered.len() - 4 >= len
        }
        None => false,
    }
}

impl Wire for BinaryWire {
    fn version(&self) -> u8 {
        VERSION
    }

    fn encode_envelope(&self, env: &Envelope, out: &mut Vec<u8>) {
        let mark = begin_frame(out);
        out.push(opcode_of(&env.request));
        put_id(out, env.id.as_ref());
        put_body(out, &env.request);
        finish_frame(out, mark);
    }

    fn encode_response(&self, id: Option<&RequestId>, response: &Json, out: &mut Vec<u8>) {
        let mark = begin_frame(out);
        out.push(OP_RESPONSE);
        put_id(out, id);
        put_json(out, response);
        finish_frame(out, mark);
    }

    fn encode_reply(&self, id: Option<&RequestId>, reply: &Reply, out: &mut Vec<u8>) {
        let mark = begin_frame(out);
        out.push(OP_RESPONSE);
        put_id(out, id);
        put_reply(out, reply);
        finish_frame(out, mark);
    }

    fn read_frame(&self, reader: &mut dyn BufRead, buf: &mut Vec<u8>) -> io::Result<bool> {
        let mut len_bytes = [0u8; 4];
        let mut filled = 0usize;
        while filled < 4 {
            let n = reader.read(&mut len_bytes[filled..])?;
            if n == 0 {
                if filled == 0 {
                    // clean EOF at a frame boundary
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            filled += n;
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {MAX_FRAME}-byte cap (server does not speak v3?)"),
            ));
        }
        buf.clear();
        buf.resize(len, 0);
        reader.read_exact(buf)?;
        Ok(true)
    }

    fn decode_into(&self, frame: &[u8], env: &mut Envelope) -> Result<(), ProtoError> {
        let mut cur = Cur::new(frame);
        let opcode = cur.u8()?;
        read_id_into(&mut cur, &mut env.id)?;
        Stash::with(|stash| read_body_into(&mut cur, opcode, false, &mut env.request, stash))?;
        cur.done()
    }

    fn decode_response(&self, frame: &[u8]) -> Result<(Option<RequestId>, Json), ProtoError> {
        let mut cur = Cur::new(frame);
        if cur.u8()? != OP_RESPONSE {
            return Err(ProtoError::Malformed("expected response frame".into()));
        }
        let id = read_id(&mut cur)?;
        let json = read_document(&mut cur)?;
        cur.done()?;
        Ok((id, json))
    }

    /// Best-effort header-id recovery: enough of the frame header must
    /// parse to delimit the id field; payload garbage is irrelevant. This
    /// is the binary analog of the v2 rule that a malformed line's error
    /// response still echoes a parseable `id` (PROTOCOL.md §7).
    fn extract_id(&self, frame: &[u8]) -> Option<RequestId> {
        let mut cur = Cur::new(frame);
        cur.u8().ok()?;
        read_id(&mut cur).ok()?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_core::value::Value;
    use std::io::BufReader;

    fn roundtrip(env: &Envelope) -> Envelope {
        let wire = BinaryWire;
        let mut out = Vec::new();
        wire.encode_envelope(env, &mut out);
        let mut reader = BufReader::new(&out[..]);
        let mut frame = Vec::new();
        assert!(wire.read_frame(&mut reader, &mut frame).unwrap());
        assert!(!wire.read_frame(&mut reader, &mut Vec::new()).unwrap());
        wire.decode_envelope(&frame).unwrap()
    }

    #[test]
    fn envelopes_roundtrip() {
        for env in [
            Envelope {
                id: None,
                request: Request::Stats,
            },
            Envelope {
                id: Some(RequestId::Int(-7)),
                request: Request::Prepare {
                    name: "q".into(),
                    sql: "SELECT * FROM users WHERE id = [p]".into(),
                },
            },
            Envelope {
                id: Some(RequestId::Str("page-3".into())),
                request: Request::Execute {
                    name: "q".into(),
                    params: vec![
                        ParamValue::Scalar(Value::Int(41)),
                        ParamValue::Scalar(Value::Varchar("héllo\0".into())),
                        ParamValue::Collection(vec![Value::BigInt(i64::MIN), Value::Null]),
                        ParamValue::Scalar(Value::Double(f64::NAN)),
                    ],
                    cursor: None,
                },
            },
            Envelope {
                id: Some(RequestId::Int(9)),
                request: Request::Explain {
                    name: Some("q".into()),
                    sql: None,
                },
            },
            Envelope {
                id: None,
                request: Request::Explain {
                    name: None,
                    sql: Some("SELECT * FROM t LIMIT 3".into()),
                },
            },
            Envelope {
                id: Some(RequestId::Int(0)),
                request: Request::Batch {
                    requests: vec![
                        Request::Stats,
                        Request::Dml {
                            sql: "INSERT ...".into(),
                            params: vec![ParamValue::Scalar(Value::Bool(true))],
                        },
                    ],
                },
            },
        ] {
            let back = roundtrip(&env);
            // NaN != NaN breaks plain PartialEq; compare re-encodings
            let wire = BinaryWire;
            let (mut a, mut b) = (Vec::new(), Vec::new());
            wire.encode_envelope(&env, &mut a);
            wire.encode_envelope(&back, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn cursor_next_frames_decode_as_execute_with_the_cursor() {
        // the frames a client built at 2bf91e6 sends for `cursor_next`
        // (length prefix stripped), untagged and tagged -7
        let unhex = |hex: &str| -> Vec<u8> {
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        };
        let resumed = Request::Execute {
            name: "q1".into(),
            params: vec![ParamValue::Scalar(Value::Int(3))],
            cursor: Some(piql_engine::Cursor {
                state: piql_engine::CursorState::ScanAfter {
                    last_key: vec![1, 2, 255],
                },
            }),
        };
        let wire = BinaryWire;
        let frame = unhex("03000200000071310100000000010300000001060000000101030102ff");
        let env = wire.decode_envelope(&frame).unwrap();
        assert_eq!((env.id, env.request), (None, resumed.clone()));
        let frame =
            unhex("0301f9ffffffffffffff0200000071310100000000010300000001060000000101030102ff");
        let env = wire.decode_envelope(&frame).unwrap();
        assert_eq!((env.id, env.request), (Some(RequestId::Int(-7)), resumed));
        // what tells the opcode from `execute`: its cursor is not optional
        let frame = unhex("03000200000071310000000000");
        let err = wire.decode_envelope(&frame).unwrap_err().to_string();
        assert!(err.contains("cursor-next requires a 'cursor'"), "{err}");
    }

    #[test]
    fn responses_roundtrip_and_keep_float_bits() {
        let wire = BinaryWire;
        let response = crate::protocol::ok_response([
            (
                "rows",
                Json::Arr(
                    vec![Json::Arr(
                        vec![
                            Json::obj([("int", Json::Int(5))]),
                            Json::obj([("f", Json::Float(f64::NAN))]),
                        ]
                        .into(),
                    )]
                    .into(),
                ),
            ),
            ("cursor", Json::Null),
        ]);
        let mut out = Vec::new();
        wire.encode_response(Some(&RequestId::Str("r".into())), &response, &mut out);
        let (id, back) = wire.decode_response(&out[4..]).unwrap();
        assert_eq!(id, Some(RequestId::Str("r".into())));
        // NaN survives binary (it would be null in JSON text)
        let rows = back.get("rows").unwrap().as_arr().unwrap();
        let f = rows[0].as_arr().unwrap()[1].get("f").unwrap();
        assert!(matches!(f, Json::Float(x) if x.is_nan()));
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn nested_batch_is_malformed() {
        let wire = BinaryWire;
        let mut out = Vec::new();
        let mark = begin_frame(&mut out);
        out.push(OP_BATCH);
        out.push(ID_NONE);
        put_u32(&mut out, 1);
        out.push(OP_BATCH);
        put_u32(&mut out, 0);
        finish_frame(&mut out, mark);
        let err = wire.decode_envelope(&out[4..]).unwrap_err();
        assert!(err.to_string().contains("batch cannot contain a batch"));
    }

    #[test]
    fn header_id_recoverable_from_malformed_payloads() {
        let wire = BinaryWire;
        // valid header (opcode + int id), garbage payload
        let mut frame = vec![OP_EXECUTE, ID_INT];
        frame.extend_from_slice(&42i64.to_le_bytes());
        frame.extend_from_slice(&[0xFF, 0xFF, 0xFF]);
        assert!(wire.decode_envelope(&frame).is_err());
        assert_eq!(wire.extract_id(&frame), Some(RequestId::Int(42)));
        // header truncated mid-id: no id recoverable
        assert_eq!(wire.extract_id(&[OP_EXECUTE, ID_INT, 1, 2]), None);
        assert_eq!(wire.extract_id(&[]), None);
    }

    #[test]
    fn oversized_and_truncated_frames_are_io_errors() {
        let wire = BinaryWire;
        let mut buf = Vec::new();
        // length over the cap
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let err = wire
            .read_frame(&mut BufReader::new(&huge[..]), &mut buf)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // EOF mid-frame
        let short = [5u8, 0, 0, 0, 1, 2];
        let err = wire
            .read_frame(&mut BufReader::new(&short[..]), &mut buf)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // EOF mid-length-prefix
        let stub = [5u8, 0];
        let err = wire
            .read_frame(&mut BufReader::new(&stub[..]), &mut buf)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn hello_roundtrips() {
        let mut out = Vec::new();
        put_hello(&mut out);
        assert_eq!(&out[..4], &3u32.to_le_bytes());
        assert_eq!(parse_hello(&out[4..]).unwrap(), VERSION);
    }

    #[test]
    fn fast_emitters_match_generic_encoder() {
        use crate::protocol::{ok_response, row_to_json};
        let row = vec![
            Value::Null,
            Value::Int(-5),
            Value::BigInt(i64::MIN),
            Value::Varchar("héllo\0".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Timestamp(1_700_000_000_000_000),
            Value::Double(f64::NAN),
        ];
        for rows in [vec![], vec![row]] {
            let generic_doc = ok_response([
                (
                    "rows",
                    Json::Arr(rows.iter().map(|r| row_to_json(r)).collect()),
                ),
                ("cursor", Json::Null),
            ]);
            let mut generic = Vec::new();
            put_json(&mut generic, &generic_doc);

            let mut fast = Vec::new();
            put_rows_header(&mut fast, None, false, rows.len() as u32);
            for row in &rows {
                put_row_header(&mut fast, row.len() as u32);
                for v in row {
                    put_row_value(&mut fast, ValueRef::of(v));
                }
            }
            assert_eq!(fast, generic);
        }
    }

    #[test]
    fn json_error_line_reads_as_oversized_frame() {
        // what a v2-only server would send back after reading the magic
        // as a garbage line: the v3 client must fail cleanly, not hang
        let reply = b"{\"ok\":false,\"error\":\"malformed request\"}\n";
        let mut buf = Vec::new();
        let err = BinaryWire
            .read_frame(&mut BufReader::new(&reply[..]), &mut buf)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("does not speak v3"));
    }
}
