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
use piql_engine::exec::SCRATCH_CEILING_BYTES;
use piql_engine::{Cursor, CursorState};
use std::borrow::Cow;
use std::cell::Cell;
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

impl Envelope {
    /// A request slot holding nothing, for a decoder to write into.
    pub(crate) fn empty() -> Envelope {
        Envelope {
            id: None,
            request: Request::Stats,
        }
    }

    /// Heap bytes the envelope holds, in use or spare: what a connection
    /// keeps by keeping it for its next request.
    pub fn held_bytes(&self) -> usize {
        let id = match &self.id {
            Some(RequestId::Str(s)) => s.capacity(),
            _ => 0,
        };
        id + request_bytes(&self.request)
    }

    /// Whether a connection that keeps no other envelope keeps this one
    /// for its next request: only while it holds no more than
    /// [`KEPT_ENVELOPE_BYTES`], so one large request is not kept for good.
    pub fn worth_keeping(&self) -> bool {
        self.held_bytes() <= KEPT_ENVELOPE_BYTES
    }
}

/// The most a connection's kept envelopes hold together: half of
/// [`SCRATCH_CEILING_BYTES`]. Its decoding thread's decode stash may hold the
/// other half ([`DECODE_STASH_BYTES`]), so all that a connection keeps for
/// decoding stays within that one ceiling.
pub const KEPT_ENVELOPE_BYTES: usize = SCRATCH_CEILING_BYTES / 2;

/// The most a decoding thread's decode stash holds: what decoding in place
/// leaves unused, for a later request of another shape
/// ([`Wire::decode_into`](crate::wire::Wire::decode_into)).
pub const DECODE_STASH_BYTES: usize = SCRATCH_CEILING_BYTES - KEPT_ENVELOPE_BYTES;

fn value_bytes(value: &Value) -> usize {
    match value {
        Value::Varchar(s) => s.capacity(),
        _ => 0,
    }
}

fn values_bytes(values: &Vec<Value>) -> usize {
    values.capacity() * size_of::<Value>() + values.iter().map(value_bytes).sum::<usize>()
}

fn params_bytes(params: &Vec<ParamValue>) -> usize {
    let each = params.iter().map(|p| match p {
        ParamValue::Scalar(value) => value_bytes(value),
        ParamValue::Collection(values) => values_bytes(values),
    });
    params.capacity() * size_of::<ParamValue>() + each.sum::<usize>()
}

fn cursor_bytes(cursor: &Cursor) -> usize {
    match &cursor.state {
        CursorState::ScanAfter { last_key } => last_key.capacity(),
        CursorState::SortedJoinAfter { suffix, full_key } => {
            suffix.capacity() + full_key.capacity()
        }
    }
}

fn request_bytes(request: &Request) -> usize {
    let text = |s: &Option<String>| s.as_ref().map_or(0, String::capacity);
    match request {
        Request::Execute {
            name,
            params,
            cursor,
        } => name.capacity() + params_bytes(params) + cursor.as_ref().map_or(0, cursor_bytes),
        Request::Dml { sql, params } => sql.capacity() + params_bytes(params),
        Request::Prepare { name, sql } => name.capacity() + sql.capacity(),
        Request::Explain { name, sql } => text(name) + text(sql),
        Request::Batch { requests } => {
            requests.capacity() * size_of::<Request>()
                + requests.iter().map(request_bytes).sum::<usize>()
        }
        Request::Stats | Request::Revalidate | Request::Rebalance | Request::Snapshot => 0,
    }
}

/// Overwrite `slot` with `s`, keeping its buffer: an equal text is not
/// rewritten, and one that fits its capacity is not reallocated. One that
/// does not fit gets a buffer of exactly its size, as a fresh decode would.
pub(crate) fn set_str(slot: &mut String, s: &str) {
    if slot.capacity() < s.len() {
        *slot = s.to_string();
    } else if slot != s {
        slot.clear();
        slot.push_str(s);
    }
}

/// What decoding in place leaves unused, kept on the decoding thread for a
/// later request of another shape: the `execute` and `dml` slots past a
/// shorter batch's end, with their texts and parameter vectors (their
/// parameters kept apart, as below); the buffer of a
/// `Varchar` that an `Int` now stands in; the vector of a collection that
/// a scalar now stands in; and the vector of a batch that a lone request
/// now stands in. Both codecs' decoders take from it what a request needs
/// before they allocate, so a connection decodes any shape it has decoded
/// before without allocating, whichever of its envelopes the request
/// lands in. It never holds more than [`DECODE_STASH_BYTES`]: what would
/// take it past that is let go.
#[derive(Debug, Default)]
pub(crate) struct Stash {
    /// The text and emptied parameter vector of `execute` and `dml` slots.
    slots: Vec<(String, Vec<ParamValue>)>,
    /// Emptied `Varchar` buffers.
    strings: Vec<String>,
    /// Emptied collection vectors.
    collections: Vec<Vec<Value>>,
    /// An emptied batch vector.
    batch: Vec<Request>,
    /// What the kept items hold on the heap, beside the lists' own room.
    held: usize,
}

thread_local! {
    /// The stash of the requests this thread decodes.
    static STASH: Cell<Stash> = const { Cell::new(Stash::new()) };
}

/// Heap bytes the calling thread's decode [`Stash`] holds.
#[cfg(test)]
pub(crate) fn decode_stash_bytes() -> usize {
    Stash::with(|stash| stash.bytes())
}

impl Stash {
    const fn new() -> Stash {
        Stash {
            slots: Vec::new(),
            strings: Vec::new(),
            collections: Vec::new(),
            batch: Vec::new(),
            held: 0,
        }
    }

    /// Run `decode` with the calling thread's stash.
    pub(crate) fn with<R>(decode: impl FnOnce(&mut Stash) -> R) -> R {
        // `try_with`: TLS may already be torn down during thread exit
        let mut stash = STASH.try_with(Cell::take).unwrap_or_default();
        let decoded = decode(&mut stash);
        let _ = STASH.try_with(|kept| kept.set(stash));
        decoded
    }

    /// Heap bytes the stash holds, its lists' room included.
    fn bytes(&self) -> usize {
        self.held
            + self.slots.capacity() * size_of::<(String, Vec<ParamValue>)>()
            + self.batch.capacity() * size_of::<Request>()
            + self.strings.capacity() * size_of::<String>()
            + self.collections.capacity() * size_of::<Vec<Value>>()
    }

    /// Put `item`, which holds `heap` bytes, on `list` if a stash of
    /// `bytes` then still holds no more than [`DECODE_STASH_BYTES`]; else
    /// let it go.
    fn shelve<T>(bytes: usize, held: &mut usize, list: &mut Vec<T>, item: T, heap: usize) {
        let room = if list.len() == list.capacity() {
            list.capacity().max(4)
        } else {
            0
        };
        if bytes + heap + room * size_of::<T>() <= DECODE_STASH_BYTES {
            list.reserve_exact(room);
            list.push(item);
            *held += heap;
        }
    }

    fn keep_string(&mut self, mut text: String) {
        if text.capacity() > 0 {
            text.clear();
            let (bytes, heap) = (self.bytes(), text.capacity());
            Self::shelve(bytes, &mut self.held, &mut self.strings, text, heap);
        }
    }

    fn keep_values(&mut self, mut values: Vec<Value>) {
        for value in values.drain(..) {
            if let Value::Varchar(text) = value {
                self.keep_string(text);
            }
        }
        if values.capacity() > 0 {
            let (bytes, heap) = (self.bytes(), values_bytes(&values));
            Self::shelve(bytes, &mut self.held, &mut self.collections, values, heap);
        }
    }

    fn keep_param(&mut self, param: ParamValue) {
        match param {
            ParamValue::Scalar(Value::Varchar(text)) => self.keep_string(text),
            ParamValue::Collection(values) => self.keep_values(values),
            ParamValue::Scalar(_) => {}
        }
    }

    /// Keep what a request slot holds for the requests to come: an
    /// `execute` or `dml` as a slot of its text and emptied parameter
    /// vector, each parameter kept apart and its cursor let go; a batch's
    /// slots each so, and its vector if it is larger than the one kept.
    /// Any other request is let go.
    fn keep_request(&mut self, request: Request) {
        match request {
            Request::Execute {
                name: text,
                mut params,
                ..
            }
            | Request::Dml {
                sql: text,
                mut params,
            } => {
                for param in params.drain(..) {
                    self.keep_param(param);
                }
                let heap = text.capacity() + params_bytes(&params);
                let bytes = self.bytes();
                Self::shelve(bytes, &mut self.held, &mut self.slots, (text, params), heap);
            }
            Request::Batch { mut requests } => {
                for sub in requests.drain(..) {
                    self.keep_request(sub);
                }
                let (had, has) = (self.batch.capacity(), requests.capacity());
                if has > had
                    && self.bytes() + (has - had) * size_of::<Request>() <= DECODE_STASH_BYTES
                {
                    self.batch = requests;
                }
            }
            _ => {}
        }
    }

    /// An emptied `Varchar` buffer: the largest of the last few kept, or a
    /// new one. A buffer too short for its next text is replaced by one of
    /// exactly that text's size, so handing out the largest at hand lets
    /// every buffer reach the longest text of its kind sooner (given the
    /// last one kept, a warm pool of five envelopes still allocated 2 in
    /// 2,000 `tpcw mix` decodes).
    fn string(&mut self) -> String {
        let recent = self.strings.len().saturating_sub(8)..self.strings.len();
        let largest = recent.max_by_key(|&i| self.strings[i].capacity());
        let text = largest.map_or_else(String::new, |i| self.strings.swap_remove(i));
        self.held -= text.capacity();
        text
    }

    /// An emptied collection vector: the last one kept, or a new one.
    fn values(&mut self) -> Vec<Value> {
        let values = self.collections.pop().unwrap_or_default();
        self.held -= values_bytes(&values);
        values
    }

    /// The text and parameter vector of the last slot kept, or new ones.
    fn text_and_params(&mut self) -> (String, Vec<ParamValue>) {
        let (text, params) = self.slots.pop().unwrap_or_default();
        self.held -= text.capacity() + params_bytes(&params);
        (text, params)
    }
}

/// Write `request` over `slot`, keeping in the stash what the slot held.
pub(crate) fn put_request(slot: &mut Request, request: Request, stash: &mut Stash) {
    stash.keep_request(std::mem::replace(slot, request));
}

/// The text and parameter vector a request slot holds — an `execute`'s
/// name or a `dml`'s SQL — taken out for the `execute` or `dml` decoded
/// next into the slot, whichever of the two it is; from any other slot,
/// whatever it holds goes to the stash, and a kept slot's (or new ones)
/// come out of it. The slot is left holding `stats`.
pub(crate) fn take_text_and_params(
    slot: &mut Request,
    stash: &mut Stash,
) -> (String, Vec<ParamValue>) {
    match std::mem::replace(slot, Request::Stats) {
        Request::Execute {
            name: text, params, ..
        }
        | Request::Dml { sql: text, params } => (text, params),
        other => {
            stash.keep_request(other);
            stash.text_and_params()
        }
    }
}

/// The slots a batch of `count` sub-requests is decoded over, one by one:
/// the vector `slot` holds if it is a batch, else the stash's, cut to
/// `count` (the slots past that go to the stash) and filled up to it with
/// `stats`, which take their buffers from the stash as they are decoded
/// into ([`take_text_and_params`]). The slot is left holding `stats`.
pub(crate) fn batch_slots(slot: &mut Request, count: usize, stash: &mut Stash) -> Vec<Request> {
    let mut requests = match std::mem::replace(slot, Request::Stats) {
        Request::Batch { requests } => requests,
        other => {
            stash.keep_request(other);
            std::mem::take(&mut stash.batch)
        }
    };
    for surplus in requests.drain(count.min(requests.len())..) {
        stash.keep_request(surplus);
    }
    requests.reserve_exact(count - requests.len());
    requests.resize_with(count, || Request::Stats);
    requests
}

/// Write `value` over `slot`, keeping a `Varchar`'s buffer: a text over a
/// text is set in place ([`set_str`]), a text over anything else takes a
/// buffer from the stash, and anything else over a text leaves its buffer
/// there.
fn set_value(slot: &mut Value, value: ValueRef<'_>, stash: &mut Stash) {
    match (slot, value) {
        (Value::Varchar(old), ValueRef::Varchar(text)) => set_str(old, text),
        (slot, ValueRef::Varchar(text)) => {
            let mut buffer = stash.string();
            set_str(&mut buffer, text);
            *slot = Value::Varchar(buffer);
        }
        (slot, value) => {
            if let Value::Varchar(old) = std::mem::replace(slot, value.to_value()) {
                stash.keep_string(old);
            }
        }
    }
}

/// The slot at `next` in `list`, a new `fill` past its end; `next` moves
/// on.
fn next_slot<'l, T>(list: &'l mut Vec<T>, next: &mut usize, fill: impl FnOnce() -> T) -> &'l mut T {
    if *next == list.len() {
        list.push(fill());
    }
    *next += 1;
    &mut list[*next - 1]
}

/// A parameter list decoded over a kept one, slot by slot — the in-place
/// reader both codecs feed: the vector keeps its capacity, a scalar is
/// written over the scalar at its position ([`set_value`]) and a
/// collection over the collection there ([`ValueSlots`]); what a slot of
/// the other kind held, and the slots past the list's end, go to the
/// stash, and a slot past the old list's end takes from it.
pub(crate) struct ParamSlots<'p> {
    params: &'p mut Vec<ParamValue>,
    stash: &'p mut Stash,
    next: usize,
}

impl<'p> ParamSlots<'p> {
    /// Ready to write `count` parameters over `params`, which is cut to
    /// that length and given room for exactly that many.
    pub(crate) fn new(params: &'p mut Vec<ParamValue>, count: usize, stash: &'p mut Stash) -> Self {
        for surplus in params.drain(count.min(params.len())..) {
            stash.keep_param(surplus);
        }
        params.reserve_exact(count - params.len());
        ParamSlots {
            params,
            stash,
            next: 0,
        }
    }

    /// The next parameter is the scalar `value`.
    pub(crate) fn scalar(&mut self, value: ValueRef<'_>) {
        let slot = next_slot(self.params, &mut self.next, || {
            ParamValue::Scalar(Value::Null)
        });
        if let ParamValue::Collection(values) = slot {
            self.stash.keep_values(std::mem::take(values));
            *slot = ParamValue::Scalar(Value::Null);
        }
        if let ParamValue::Scalar(old) = slot {
            set_value(old, value, self.stash);
        }
    }

    /// The next parameter is a collection of `count` values, written one
    /// by one through what this returns.
    pub(crate) fn collection(&mut self, count: usize) -> ValueSlots<'_> {
        let slot = next_slot(self.params, &mut self.next, || {
            ParamValue::Collection(self.stash.values())
        });
        if let ParamValue::Scalar(old) = slot {
            if let Value::Varchar(text) = std::mem::replace(old, Value::Null) {
                self.stash.keep_string(text);
            }
            *slot = ParamValue::Collection(self.stash.values());
        }
        let ParamValue::Collection(values) = slot else {
            unreachable!("a scalar slot was just made a collection")
        };
        ValueSlots::new(values, count, self.stash)
    }
}

/// A collection parameter decoded over a kept one, value by value, as
/// [`ParamSlots`] decodes a parameter list.
pub(crate) struct ValueSlots<'v> {
    values: &'v mut Vec<Value>,
    stash: &'v mut Stash,
    next: usize,
}

impl<'v> ValueSlots<'v> {
    fn new(values: &'v mut Vec<Value>, count: usize, stash: &'v mut Stash) -> Self {
        for surplus in values.drain(count.min(values.len())..) {
            if let Value::Varchar(text) = surplus {
                stash.keep_string(text);
            }
        }
        values.reserve_exact(count - values.len());
        ValueSlots {
            values,
            stash,
            next: 0,
        }
    }

    /// The next value is `value`.
    pub(crate) fn value(&mut self, value: ValueRef<'_>) {
        let slot = next_slot(self.values, &mut self.next, || Value::Null);
        set_value(slot, value, self.stash);
    }
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
/// lines alike. A string value borrows the scalar's text.
fn tagged<'s>(tag: &str, inner: &'s Scalar<'_>) -> Option<ValueRef<'s>> {
    match (tag, inner) {
        ("int", Scalar::Int(i)) => i32::try_from(*i).ok().map(ValueRef::Int),
        ("big", Scalar::Int(i)) => Some(ValueRef::BigInt(*i)),
        ("str", Scalar::Str(text)) => Some(ValueRef::Varchar(text)),
        ("bool", Scalar::Bool(b)) => Some(ValueRef::Bool(*b)),
        ("ts", Scalar::Int(t)) => Some(ValueRef::Timestamp(*t)),
        // JSON has no Inf/NaN: the encoder writes {"f":null} for
        // non-finite doubles, which decodes to NaN (lossy but
        // round-trippable rather than a page-breaking error)
        ("f", Scalar::Null) => Some(ValueRef::Double(f64::NAN)),
        ("f", Scalar::Float(f)) => Some(ValueRef::Double(*f)),
        ("f", Scalar::Int(i)) => Some(ValueRef::Double(*i as f64)),
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
            (tagged(tag, &inner).map(ValueRef::to_value)).ok_or_else(malformed)
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

/// Parse one request line, id included: the one JSON request decoder
/// ([`JsonWire::decode_into`](crate::wire::JsonWire)) on a fresh envelope.
pub fn parse_envelope(line: &str) -> Result<Envelope, ProtoError> {
    let mut env = Envelope::empty();
    read_envelope(line, &mut env)?;
    Ok(env)
}

/// Parse one request line, ignoring any `id` field (kept for codec tests
/// and embedders that do their own correlation).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    parse_envelope(line).map(|e| e.request)
}

/// Decode one request line over `env` — the one JSON request decoder
/// (see [`JsonWire::decode_into`](crate::wire::JsonWire::decode_into) for
/// what it keeps of what `env` held).
///
/// The line becomes a [`Request`] without a tree in between. It is walked
/// twice by a [`Scanner`]: once whole, so that a syntax error anywhere in
/// it is the first thing reported (as when the line was parsed into a tree
/// first), noting where the fields a request can carry start; then each
/// field its command needs is read where it lies, straight into the types
/// the request keeps. A message that quotes an offending value prints it
/// as the tree would have (`got {"a":1}`, keys sorted), by parsing just
/// that value — on the error path only.
pub(crate) fn read_envelope(line: &str, env: &mut Envelope) -> Result<(), ProtoError> {
    let line = line.trim();
    let fields = scan_line(line)?;
    read_id_into(line, fields.id, &mut env.id)?;
    Stash::with(|stash| read_request_into(line, &fields, false, &mut env.request, stash))
}

/// Best-effort `id` recovery from a line that failed [`parse_envelope`]:
/// if the line is valid JSON carrying a valid `id`, the error response
/// can still echo it so a pipelining client can correlate the failure.
pub fn extract_id(line: &str) -> Option<RequestId> {
    let line = line.trim();
    let mut id = None;
    read_id_into(line, scan_line(line).ok()?.id, &mut id).ok()?;
    id
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
fn required_str<'l>(
    line: &'l str,
    at: Option<usize>,
    what: &str,
) -> Result<Cow<'l, str>, ProtoError> {
    read_str(line, at)?.ok_or_else(|| ProtoError::Malformed(format!("missing '{what}'")))
}

/// A scanner inside the array at `at`, past its bracket; `None` when the
/// value there is not an array.
fn enter_array(line: &str, at: usize) -> Option<Scanner<'_>> {
    let mut s = Scanner::at(line, at);
    (s.peek() == Some(b'[') && s.begin_array().is_ok()).then_some(s)
}

/// How many items the array at `at` holds: what a vector decoded from it
/// is sized by.
fn count_items(line: &str, at: usize) -> Result<usize, JsonError> {
    let mut s = Scanner::at(line, at);
    s.begin_array()?;
    let mut count = 0;
    while s.next_item()? {
        s.skip_value()?;
        count += 1;
    }
    Ok(count)
}

/// The `id` field over `id`, a string id's buffer kept: absent or `null`
/// for none. Only integers and strings are valid ids — see
/// [`RequestId::from_json`], whose message this repeats.
fn read_id_into(
    line: &str,
    at: Option<usize>,
    id: &mut Option<RequestId>,
) -> Result<(), ProtoError> {
    let Some(at) = present(line, at) else {
        *id = None;
        return Ok(());
    };
    let mut s = Scanner::at(line, at);
    if !matches!(s.peek(), Some(b'{' | b'[')) {
        match s.scalar()? {
            Scalar::Int(i) => {
                *id = Some(RequestId::Int(i));
                return Ok(());
            }
            Scalar::Str(text) => {
                match id {
                    Some(RequestId::Str(old)) => set_str(old, &text),
                    _ => *id = Some(RequestId::Str(text.into_owned())),
                }
                return Ok(());
            }
            _ => {}
        }
    }
    *id = Some(RequestId::from_json(&quoted(line, at)?)?);
    Ok(())
}

/// One tagged value, handed to `take` (see [`value_from_json`], whose
/// rules and message these are): `null`, or an object of exactly one known
/// tag over a scalar of the type the tag names.
fn read_value<R>(
    line: &str,
    s: &mut Scanner<'_>,
    take: impl FnOnce(ValueRef<'_>) -> R,
) -> Result<R, ProtoError> {
    let at = s.pos();
    match read_tagged(s, take)? {
        Some(taken) => Ok(taken),
        None => Err(ProtoError::Malformed(format!(
            "bad value: {}",
            quoted(line, at)?
        ))),
    }
}

/// `None` for anything that is not a value; the scanner is then left
/// wherever the reading stopped.
fn read_tagged<R>(
    s: &mut Scanner<'_>,
    take: impl FnOnce(ValueRef<'_>) -> R,
) -> Result<Option<R>, JsonError> {
    match s.peek() {
        Some(b'{') => {}
        Some(b'[') => return Ok(None),
        _ => return Ok(matches!(s.scalar()?, Scalar::Null).then(|| take(ValueRef::Null))),
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
        Some((tag, Some(inner))) => tagged(&tag, &inner).map(take),
        _ => None,
    })
}

/// The `params` array over `params` ([`ParamSlots`]): a scalar travels as
/// a tagged value, a collection as an array of them. Absent means none.
fn read_params_into(
    line: &str,
    at: Option<usize>,
    params: &mut Vec<ParamValue>,
    stash: &mut Stash,
) -> Result<(), ProtoError> {
    let Some(at) = at else {
        ParamSlots::new(params, 0, stash);
        return Ok(());
    };
    let Some(mut s) = enter_array(line, at) else {
        return Err(ProtoError::Malformed(format!(
            "params must be an array, got {}",
            quoted(line, at)?
        )));
    };
    let mut slots = ParamSlots::new(params, count_items(line, at)?, stash);
    while s.next_item()? {
        if s.peek() == Some(b'[') {
            let mut values = slots.collection(count_items(line, s.pos())?);
            s.begin_array()?;
            while s.next_item()? {
                read_value(line, &mut s, |value| values.value(value))?;
            }
        } else {
            read_value(line, &mut s, |value| slots.scalar(value))?;
        }
    }
    Ok(())
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

/// Write the request whose fields were found at `fields` over `slot`. An
/// `execute` or `dml` keeps the slot's text and parameter vector
/// ([`take_text_and_params`]), a `batch` its vector of sub-requests, each
/// decoded over the one at its position ([`batch_slots`]); any other
/// request replaces the slot, whose buffers go to the stash. `nested` is
/// true inside a `batch`, where further batches (and per-sub-request ids)
/// are malformed. On an error the slot holds whatever was written so far.
fn read_request_into(
    line: &str,
    fields: &Fields,
    nested: bool,
    slot: &mut Request,
    stash: &mut Stash,
) -> Result<(), ProtoError> {
    let cmd =
        read_str(line, fields.cmd)?.ok_or_else(|| ProtoError::Malformed("missing 'cmd'".into()))?;
    match &*cmd {
        "prepare" => {
            let prepare = Request::Prepare {
                name: required_str(line, fields.name, "name")?.into_owned(),
                sql: required_str(line, fields.sql, "sql")?.into_owned(),
            };
            put_request(slot, prepare, stash);
        }
        "execute" => {
            let (mut name, mut params) = take_text_and_params(slot, stash);
            set_str(&mut name, &required_str(line, fields.name, "name")?);
            read_params_into(line, fields.params, &mut params, stash)?;
            let cursor = read_cursor(line, fields.cursor)?;
            *slot = Request::Execute {
                name,
                params,
                cursor,
            };
        }
        // `execute` that *requires* a cursor (resuming pagination)
        "cursor-next" => {
            let cursor = read_cursor(line, fields.cursor)?
                .ok_or_else(|| ProtoError::Malformed("cursor-next requires a 'cursor'".into()))?;
            let (mut name, mut params) = take_text_and_params(slot, stash);
            set_str(&mut name, &required_str(line, fields.name, "name")?);
            read_params_into(line, fields.params, &mut params, stash)?;
            *slot = Request::Execute {
                name,
                params,
                cursor: Some(cursor),
            };
        }
        "dml" => {
            let (mut sql, mut params) = take_text_and_params(slot, stash);
            set_str(&mut sql, &required_str(line, fields.sql, "sql")?);
            read_params_into(line, fields.params, &mut params, stash)?;
            *slot = Request::Dml { sql, params };
        }
        "stats" => put_request(slot, Request::Stats, stash),
        "revalidate" => put_request(slot, Request::Revalidate, stash),
        "rebalance" => put_request(slot, Request::Rebalance, stash),
        "snapshot" => put_request(slot, Request::Snapshot, stash),
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
            put_request(slot, Request::Explain { name, sql }, stash);
        }
        "batch" => {
            if nested {
                return Err(ProtoError::Malformed("batch cannot contain a batch".into()));
            }
            let (at, mut s) = (fields.requests)
                .and_then(|at| Some((at, enter_array(line, at)?)))
                .ok_or_else(|| ProtoError::Malformed("batch requires a 'requests' array".into()))?;
            let mut requests = batch_slots(slot, count_items(line, at)?, stash);
            for sub_slot in &mut requests {
                s.next_item()?;
                let sub = scan_fields(&mut s)?;
                // mirror the envelope rule: `"id":null` means absent
                if present(line, sub.id).is_some() {
                    return Err(ProtoError::Malformed(
                        "batch sub-requests are positional and must not carry 'id'".into(),
                    ));
                }
                read_request_into(line, &sub, true, sub_slot, stash)?;
            }
            *slot = Request::Batch { requests };
        }
        other => return Err(ProtoError::Malformed(format!("unknown cmd '{other}'"))),
    }
    Ok(())
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

thread_local! {
    /// The emptied vector of the last batch answer this thread printed,
    /// for its next batch to answer into.
    static SPARE_REPLIES: Cell<Vec<Reply>> = const { Cell::new(Vec::new()) };
}

impl Reply {
    /// An empty vector for a batch's answers: the one this thread's last
    /// printed batch handed back, when it has one.
    pub(crate) fn batch_vec() -> Vec<Reply> {
        SPARE_REPLIES.take()
    }

    /// Hand the reply's buffers back to this thread once it has been
    /// printed: its result blocks and its cursor's keys to the execution
    /// scratch, so the thread's next read builds its blocks and cursor in
    /// them ([`piql_engine::exec::give_back`]), and a batch's emptied
    /// vector to the spare the thread's next batch answers into — kept if
    /// it is no larger than the execution scratch may be, and larger than
    /// the one already kept.
    pub fn give_back(self) {
        match self {
            Reply::Rows { rows, cursor, .. } => {
                piql_engine::exec::give_back(rows);
                if let Some(cursor) = cursor {
                    piql_engine::exec::give_back_cursor(cursor);
                }
            }
            Reply::Batch(mut replies) => {
                replies.drain(..).for_each(Reply::give_back);
                let bytes = replies.capacity() * std::mem::size_of::<Reply>();
                let kept = SPARE_REPLIES.take();
                let better = replies.capacity() > kept.capacity();
                let keep = if better && bytes <= piql_engine::exec::SCRATCH_CEILING_BYTES {
                    replies
                } else {
                    kept
                };
                SPARE_REPLIES.set(keep);
            }
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
// spelled out below. Pinned byte for byte against the tree's printer and a
// reference printer by `tests/codec_props.rs`, on both codecs.

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
