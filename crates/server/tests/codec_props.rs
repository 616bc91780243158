//! Property tests for the two wire codecs: JSON lines (v2) and binary
//! frames (v3). The properties both codecs owe are written once, over
//! `&dyn Codec` (a `Wire` and what a peer needs beside it), and run on
//! each in a module named for it
//! (`json::envelopes_roundtrip`, `binary::envelopes_roundtrip`, ...):
//! envelopes round-trip; decoding into a kept request gives what decoding
//! afresh gives, and a kept connection answers as a fresh one does;
//! streamed replies are the bytes of the tree they stand for; and a
//! response document, sent with its keys in any order, repeats included,
//! decodes to what the `BTreeMap` tree `Json` replaced held (kept here as
//! the reference) and to the tree built a container at a time, encodes as
//! that map tree does, and leaves nothing behind when its decode fails.
//!
//! What only one codec owes stays with it. JSON: the request decoder,
//! which reads a line in place, gives every line, well-formed or not, the
//! answer the tree-walking decoder it replaced gave (kept here as the
//! oracle); texts round-trip and cut texts never panic; ids echo; and a
//! text cut anywhere parses as the map tree reads it. Binary: truncated,
//! bit-flipped and random frames never panic, a cut stream is a clean
//! error, a header's id survives a garbage payload, and NaN bits survive.

use piql_core::plan::params::ParamValue;
use piql_core::rows::Rows;
use piql_core::tuple::Tuple;
use piql_core::value::Value;
use piql_engine::{Cursor, CursorState, Database};
use piql_server::binary::{MAGIC, OP_RESPONSE};
use piql_server::json::{
    parse, Json, JsonArr, JsonError, JsonMap, JsonStr, Scalar, Scanner, MAX_JSON_DEPTH,
};
use piql_server::protocol::{
    attach_id, budget_exceeded_response, cursor_to_json, envelope_to_line, err_response,
    extract_id, hex_decode, ok_response, param_to_json, parse_envelope, request_to_line,
    ProtoError,
};
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{
    BinaryWire, Envelope, JsonWire, LiveCluster, LiveConfig, PiqlServer, Reply, Request, RequestId,
    StatementRegistry, Wire,
};
use piql_workloads::scadr::{self, ScadrConfig};
use proptest::prelude::*;
use proptest::sample::Index;
use proptest::strategy::BoxedStrategy;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const JSON: &dyn Codec = &JsonWire;
const BINARY: &dyn Codec = &BinaryWire;

// ------------------------------------------------------------ generators

/// Strings mixing ASCII, chars that need an escape (short and `\u00XX`
/// forms), wide BMP chars and (sometimes) astral chars, which a `\u`
/// escape writes as a surrogate pair.
fn string_content() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(any::<char>(), 0..16),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(chars, escapes, astral)| {
            let mut s: String = chars.into_iter().collect();
            if escapes {
                s.push_str("\"\\\n\r\t\u{0000}\u{0007}\u{001f}\u{007f}/");
            }
            if astral {
                s.insert(0, '😀');
                s.push('🦀');
            }
            s
        })
}

/// A scalar JSON value whose encoding round-trips to an equal one. NaN
/// round-trips too on binary, but `==` can't see that, so it gets its own
/// test (`nan_bits_roundtrip`).
fn scalar(wire: &dyn Codec) -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        wire.float()
            .prop_map(|f| Json::Float(if f.is_nan() { f64::INFINITY } else { f })),
        string_content().prop_map(Json::str),
    ]
}

/// A bounded-depth document: scalars, arrays of scalars, and objects of
/// scalars/arrays (the shapes the wire protocol actually produces).
fn document(wire: &'static dyn Codec) -> impl Strategy<Value = Json> {
    prop_oneof![
        scalar(wire),
        prop::collection::vec(scalar(wire), 0..6).prop_map(|items| Json::Arr(items.into())),
        prop::collection::btree_map(string_content(), scalar(wire), 0..6)
            .prop_map(|m| Json::Obj(m.into())),
        (
            prop::collection::vec(scalar(wire), 0..4),
            prop::collection::btree_map(string_content(), scalar(wire), 0..4),
        )
            .prop_map(|(arr, obj)| {
                Json::Arr(vec![Json::Arr(arr.into()), Json::Obj(obj.into()), Json::Null].into())
            }),
    ]
}

/// An arbitrary client-assigned request id (both flavors, awkward
/// strings included).
fn request_id() -> impl Strategy<Value = RequestId> {
    prop_oneof![
        any::<i64>().prop_map(RequestId::Int),
        string_content().prop_map(RequestId::Str),
    ]
}

/// An arbitrary scalar wire value.
fn scalar_value(wire: &dyn Codec) -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::BigInt),
        string_content().prop_map(Value::Varchar),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Timestamp),
        wire.float().prop_map(Value::Double),
    ]
}

/// An arbitrary wire value parameter (scalar or IN-collection).
fn param(wire: &'static dyn Codec) -> impl Strategy<Value = ParamValue> {
    prop_oneof![
        scalar_value(wire).prop_map(ParamValue::Scalar),
        prop::collection::vec(scalar_value(wire), 0..4).prop_map(ParamValue::Collection),
    ]
}

/// An arbitrary non-batch request (what a batch may carry).
fn sub_request(wire: &'static dyn Codec) -> impl Strategy<Value = Request> {
    prop_oneof![
        (string_content(), string_content()).prop_map(|(name, sql)| Request::Prepare { name, sql }),
        (string_content(), prop::collection::vec(param(wire), 0..4)).prop_map(|(name, params)| {
            Request::Execute {
                name,
                params,
                cursor: None,
            }
        }),
        (string_content(), prop::collection::vec(param(wire), 0..4))
            .prop_map(|(sql, params)| Request::Dml { sql, params }),
        Just(Request::Stats),
        Just(Request::Revalidate),
        Just(Request::Rebalance),
    ]
}

fn cursor() -> impl Strategy<Value = Cursor> {
    let bytes = || prop::collection::vec(any::<u8>(), 0..40);
    prop_oneof![
        bytes().prop_map(|last_key| CursorState::ScanAfter { last_key }),
        (bytes(), bytes())
            .prop_map(|(suffix, full_key)| CursorState::SortedJoinAfter { suffix, full_key }),
    ]
    .prop_map(|state| Cursor { state })
}

/// Any request a client can send, batches and cursors included.
fn any_request(wire: &'static dyn Codec) -> impl Strategy<Value = Request> {
    let params = move || prop::collection::vec(param(wire), 0..4);
    prop_oneof![
        sub_request(wire),
        (string_content(), params(), cursor()).prop_map(|(name, params, cursor)| {
            Request::Execute {
                name,
                params,
                cursor: Some(cursor),
            }
        }),
        (string_content(), any::<bool>()).prop_map(|(text, by_name)| Request::Explain {
            name: by_name.then(|| text.clone()),
            sql: (!by_name).then_some(text),
        }),
        Just(Request::Snapshot),
        prop::collection::vec(sub_request(wire), 0..4)
            .prop_map(|requests| Request::Batch { requests }),
    ]
}

/// What a decoder answered, in a form that compares: the envelope (through
/// `Debug`, under which a NaN parameter equals itself) or the error text a
/// client would be sent.
fn answer(decoded: Result<Envelope, ProtoError>) -> Result<String, String> {
    decoded
        .map(|envelope| format!("{envelope:?}"))
        .map_err(|error| error.to_string())
}

// ----------------------------------------------------------------- codecs

/// A codec as the properties both codecs owe use it: its `Wire`, and
/// where the two differ, each in one place — the floats it carries; how a
/// message travels (a line ends with a newline, a frame starts with its
/// length) and is damaged (a line at its characters, a frame at its
/// bytes); what a peer sends and reads; and where a response's id goes.
trait Codec: Wire {
    /// An `f64` the codec carries exactly.
    fn float(&self) -> BoxedStrategy<f64>;

    /// A message without its framing.
    fn unframed<'f>(&self, framed: &'f [u8]) -> &'f [u8];
    /// A message with its framing.
    fn framed(&self, body: &[u8]) -> Vec<u8>;
    /// One edit of a message at `at`.
    fn damaged(&self, body: &[u8], at: Index, edit: u8) -> Vec<u8>;
    /// The first bytes of `bytes`, fewer than all of them.
    fn cut(&self, bytes: &[u8], at: Index) -> Vec<u8>;
    /// Whether every message cut short is refused.
    fn refuses_every_cut(&self) -> bool;

    /// What a response carrying `tree` under `id` is on the wire, framing
    /// included (PROTOCOL.md §9).
    fn reference_response(&self, id: Option<&RequestId>, tree: &MapTree) -> Vec<u8>;
    /// What a peer sends carrying `doc`.
    fn sent(&self, doc: &Sent) -> Vec<u8>;
    /// The tree the codec reads out of what a peer sent, or the error's text.
    fn read(&self, bytes: &[u8]) -> Result<Json, String>;
    /// The id a response to `id` that carries `tree` echoes.
    fn carried<'i>(&self, id: Option<&'i RequestId>, tree: &Json) -> Option<&'i RequestId>;

    /// A connection to `server` speaking the codec.
    fn connect(&self, server: &PiqlServer) -> BufReader<TcpStream>;
}

impl Codec for JsonWire {
    /// A JSON text carries only finite numbers.
    fn float(&self) -> BoxedStrategy<f64> {
        any::<f64>()
            .prop_map(|f| if f.is_finite() { f } else { 0.5 })
            .boxed()
    }

    fn unframed<'f>(&self, framed: &'f [u8]) -> &'f [u8] {
        framed.strip_suffix(b"\n").unwrap()
    }

    fn framed(&self, body: &[u8]) -> Vec<u8> {
        [body, b"\n"].concat()
    }

    /// What `mutated` makes of the line.
    fn damaged(&self, body: &[u8], at: Index, edit: u8) -> Vec<u8> {
        mutated(std::str::from_utf8(body).unwrap(), at, edit).into_bytes()
    }

    /// Cut at a character's start.
    fn cut(&self, bytes: &[u8], at: Index) -> Vec<u8> {
        let starts: Vec<usize> = (0..bytes.len())
            .filter(|&i| (bytes[i] as i8) >= -0x40)
            .collect();
        match starts.len() {
            0 => bytes.to_vec(),
            n => bytes[..starts[at.index(n)]].to_vec(),
        }
    }

    /// A line cut short can still be a document: `12` of `123`.
    fn refuses_every_cut(&self) -> bool {
        false
    }

    /// The id is attached to an object's fields, replacing one of its
    /// name.
    fn reference_response(&self, id: Option<&RequestId>, tree: &MapTree) -> Vec<u8> {
        let mut tree = tree.clone();
        if let (MapTree::Obj(fields), Some(id)) = (&mut tree, id) {
            let id = match id {
                RequestId::Int(i) => MapTree::Int(*i),
                RequestId::Str(s) => MapTree::Str(s.clone()),
            };
            fields.insert("id".into(), id);
        }
        format!("{}\n", printed(&tree)).into_bytes()
    }

    /// The document's text.
    fn sent(&self, doc: &Sent) -> Vec<u8> {
        let mut text = String::new();
        doc.write_json(&mut text);
        text.into_bytes()
    }

    /// A line's `id` is the protocol's, so a document is parsed as the
    /// tree it is.
    fn read(&self, bytes: &[u8]) -> Result<Json, String> {
        parse(std::str::from_utf8(bytes).unwrap()).map_err(|e| e.to_string())
    }

    /// The id goes in the body, which only an object can hold.
    fn carried<'i>(&self, id: Option<&'i RequestId>, tree: &Json) -> Option<&'i RequestId> {
        id.filter(|_| matches!(tree, Json::Obj(_)))
    }

    fn connect(&self, server: &PiqlServer) -> BufReader<TcpStream> {
        BufReader::new(TcpStream::connect(server.local_addr()).unwrap())
    }
}

impl Codec for BinaryWire {
    /// A frame carries every bit pattern, infinities and NaN included.
    fn float(&self) -> BoxedStrategy<f64> {
        any::<f64>().boxed()
    }

    fn unframed<'f>(&self, framed: &'f [u8]) -> &'f [u8] {
        &framed[4..]
    }

    fn framed(&self, body: &[u8]) -> Vec<u8> {
        [&(body.len() as u32).to_le_bytes()[..], body].concat()
    }

    /// Cut short at `at`, or that byte's bits flipped.
    fn damaged(&self, body: &[u8], at: Index, edit: u8) -> Vec<u8> {
        let mut body = body.to_vec();
        let at = at.index(body.len().max(1));
        match edit % 4 {
            0 => body.truncate(at),
            _ => {
                if let Some(byte) = body.get_mut(at) {
                    *byte ^= edit;
                }
            }
        }
        body
    }

    /// Cut anywhere.
    fn cut(&self, bytes: &[u8], at: Index) -> Vec<u8> {
        match bytes.len() {
            0 => Vec::new(),
            n => bytes[..at.index(n)].to_vec(),
        }
    }

    /// A frame's lengths and counts say where it ends, so no frame cut
    /// short is a document.
    fn refuses_every_cut(&self) -> bool {
        true
    }

    /// The id is carried in the frame header.
    fn reference_response(&self, id: Option<&RequestId>, tree: &MapTree) -> Vec<u8> {
        let mut body = vec![OP_RESPONSE];
        match id {
            None => body.push(0),
            Some(RequestId::Int(i)) => {
                body.push(1);
                body.extend_from_slice(&i.to_le_bytes());
            }
            Some(RequestId::Str(s)) => {
                body.push(2);
                put_text(s, &mut body);
            }
        }
        Sent::of(tree).put(&mut body);
        self.framed(&body)
    }

    /// The response frame carrying the document and no id.
    fn sent(&self, doc: &Sent) -> Vec<u8> {
        let mut frame = vec![OP_RESPONSE, 0];
        doc.put(&mut frame);
        frame
    }

    fn read(&self, bytes: &[u8]) -> Result<Json, String> {
        self.decode_response(bytes)
            .map(|(_, tree)| tree)
            .map_err(|e| e.to_string())
    }

    fn carried<'i>(&self, id: Option<&'i RequestId>, _: &Json) -> Option<&'i RequestId> {
        id
    }

    fn connect(&self, server: &PiqlServer) -> BufReader<TcpStream> {
        let mut conn = BufReader::new(TcpStream::connect(server.local_addr()).unwrap());
        conn.get_mut().write_all(&MAGIC).unwrap();
        let mut hello = Vec::new();
        assert!(self.read_frame(&mut conn, &mut hello).unwrap());
        conn
    }
}

/// A request as its frame: the message without its framing.
fn body(wire: &dyn Codec, env: &Envelope) -> Vec<u8> {
    let mut framed = Vec::new();
    wire.encode_envelope(env, &mut framed);
    wire.unframed(&framed).to_vec()
}

/// One edit of `line` at a character boundary: cut short there, or a
/// character dropped, doubled, or swapped for a piece of JSON syntax.
fn mutated(line: &str, at: Index, edit: u8) -> String {
    const SYNTAX: &[&str] = &[
        "\"", "\\", "{", "}", "[", "]", ",", ":", "0", "e", " ", "null",
    ];
    let boundaries: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
    let Some(&start) = boundaries.get(at.index(boundaries.len().max(1))) else {
        return line.to_string();
    };
    let end = start + line[start..].chars().next().map_or(0, char::len_utf8);
    let (head, this, tail) = (&line[..start], &line[start..end], &line[end..]);
    match edit % 16 {
        0..=2 => head.to_string(),
        3..=5 => format!("{head}{tail}"),
        6 | 7 => format!("{head}{this}{this}{tail}"),
        n => format!("{head}{}{tail}", SYNTAX[usize::from(n) % SYNTAX.len()]),
    }
}

// ------------------------------------------------------------ the oracle
//
// How a request line was decoded before the in-place decoder: parse the
// whole line into a tree, then walk the tree. Moved here from
// `protocol.rs` unchanged (with the value decoders as they were, so that
// nothing but the tree parser is shared with what is tested);
// `parse_envelope` must agree with it on every input — the same
// `Envelope`, or an error with the same message.

fn oracle_envelope(line: &str) -> Result<Envelope, ProtoError> {
    let j = parse(line.trim())?;
    let id = match j.get("id") {
        None | Some(Json::Null) => None,
        Some(other) => Some(RequestId::from_json(other)?),
    };
    Ok(Envelope {
        id,
        request: request_from_json(&j, false)?,
    })
}

fn oracle_extract_id(line: &str) -> Option<RequestId> {
    let j = parse(line.trim()).ok()?;
    RequestId::from_json(j.get("id")?).ok()
}

fn value_from_json(j: &Json) -> Result<Value, ProtoError> {
    let malformed = || ProtoError::Malformed(format!("bad value: {}", j));
    match j {
        Json::Null => Ok(Value::Null),
        Json::Obj(m) => {
            let mut fields = m.iter();
            let (Some((tag, inner)), None) = (fields.next(), fields.next()) else {
                return Err(malformed());
            };
            match (tag.as_str(), inner) {
                ("int", Json::Int(i)) => i32::try_from(*i).map(Value::Int).map_err(|_| malformed()),
                ("big", Json::Int(i)) => Ok(Value::BigInt(*i)),
                ("str", Json::Str(s)) => Ok(Value::Varchar(s.to_string())),
                ("bool", Json::Bool(b)) => Ok(Value::Bool(*b)),
                ("ts", Json::Int(t)) => Ok(Value::Timestamp(*t)),
                ("f", Json::Null) => Ok(Value::Double(f64::NAN)),
                ("f", j) => j.as_f64().map(Value::Double).ok_or_else(malformed),
                _ => Err(malformed()),
            }
        }
        _ => Err(malformed()),
    }
}

fn param_from_json(j: &Json) -> Result<ParamValue, ProtoError> {
    match j {
        Json::Arr(items) => Ok(ParamValue::Collection(
            items
                .iter()
                .map(value_from_json)
                .collect::<Result<_, _>>()?,
        )),
        other => value_from_json(other).map(ParamValue::Scalar),
    }
}

fn params_from_json(j: Option<&Json>) -> Result<Vec<ParamValue>, ProtoError> {
    match j {
        None => Ok(Vec::new()),
        Some(Json::Arr(items)) => items.iter().map(param_from_json).collect(),
        Some(other) => Err(ProtoError::Malformed(format!(
            "params must be an array, got {}",
            other
        ))),
    }
}

fn cursor_from_json(j: Option<&Json>) -> Result<Option<Cursor>, ProtoError> {
    match j {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(hex)) => {
            let bytes =
                hex_decode(hex).ok_or_else(|| ProtoError::Malformed("cursor is not hex".into()))?;
            Cursor::from_bytes(&bytes)
                .map(Some)
                .map_err(|e| ProtoError::Malformed(e.to_string()))
        }
        Some(other) => Err(ProtoError::Malformed(format!(
            "cursor must be a hex string, got {}",
            other
        ))),
    }
}

/// Decode one request object. `nested` is true inside a `batch`, where
/// further batches (and per-sub-request ids) are malformed.
fn request_from_json(j: &Json, nested: bool) -> Result<Request, ProtoError> {
    let cmd = j
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::Malformed("missing 'cmd'".into()))?;
    let name = |j: &Json| -> Result<String, ProtoError> {
        j.get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ProtoError::Malformed("missing 'name'".into()))
    };
    match cmd {
        "prepare" => Ok(Request::Prepare {
            name: name(j)?,
            sql: j
                .get("sql")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::Malformed("missing 'sql'".into()))?
                .to_string(),
        }),
        "execute" => Ok(Request::Execute {
            name: name(j)?,
            params: params_from_json(j.get("params"))?,
            cursor: cursor_from_json(j.get("cursor"))?,
        }),
        "cursor-next" => {
            let cursor = cursor_from_json(j.get("cursor"))?
                .ok_or_else(|| ProtoError::Malformed("cursor-next requires a 'cursor'".into()))?;
            Ok(Request::Execute {
                name: name(j)?,
                params: params_from_json(j.get("params"))?,
                cursor: Some(cursor),
            })
        }
        "dml" => Ok(Request::Dml {
            sql: j
                .get("sql")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::Malformed("missing 'sql'".into()))?
                .to_string(),
            params: params_from_json(j.get("params"))?,
        }),
        "stats" => Ok(Request::Stats),
        "revalidate" => Ok(Request::Revalidate),
        "rebalance" => Ok(Request::Rebalance),
        "snapshot" => Ok(Request::Snapshot),
        "explain" => {
            let field = |key: &str| -> Result<Option<String>, ProtoError> {
                match j.get(key) {
                    None | Some(Json::Null) => Ok(None),
                    Some(Json::Str(s)) => Ok(Some(s.to_string())),
                    Some(other) => Err(ProtoError::Malformed(format!(
                        "'{key}' must be a string, got {other}"
                    ))),
                }
            };
            let name = field("name")?;
            let sql = field("sql")?;
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
            let items = j
                .get("requests")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::Malformed("batch requires a 'requests' array".into()))?;
            let requests = items
                .iter()
                .map(|sub| {
                    // mirror the envelope rule: `"id":null` means absent
                    if sub.get("id").is_some_and(|j| *j != Json::Null) {
                        return Err(ProtoError::Malformed(
                            "batch sub-requests are positional and must not carry 'id'".into(),
                        ));
                    }
                    request_from_json(sub, true)
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Batch { requests })
        }
        other => Err(ProtoError::Malformed(format!("unknown cmd '{other}'"))),
    }
}

// ------------------------------------------------- request-line generators

/// A cursor as it travels in a line: a string of hex digits.
fn hex_cursor() -> impl Strategy<Value = String> {
    cursor().prop_map(|c| cursor_to_json(&Some(c)).to_string())
}

/// Texts picked by hand for the corners of the decoder: tags that repeat,
/// disagree or sit over the wrong type, numbers at the edge of their type,
/// cursors that are not hex or not cursors, sub-requests that break the
/// batch rules, and things that are not JSON at all.
const ODDITIES: &[&str] = &[
    r#"{"int":1,"int":2}"#,
    r#"{"int":1,"str":"x"}"#,
    r#"{"str":"a","str":"b\n"}"#,
    r#"{"int":2147483647}"#,
    r#"{"int":2147483648}"#,
    r#"{"int":1.0}"#,
    r#"{"f":null}"#,
    r#"{"f":3}"#,
    r#"{"f":"x"}"#,
    r#"{"f":[1]}"#,
    r#"{"big":{"a":1}}"#,
    r#"{"bool":0}"#,
    r#"{"ts":9223372036854775807}"#,
    r#"{"nope":1}"#,
    r#"{"\u0069nt":5}"#,
    r#"{}"#,
    r#"[]"#,
    r#"[[]]"#,
    r#"[[{"int":1},null],{"str":"s"}]"#,
    r#"[[[{"int":1}]]]"#,
    r#"[{"int":1},7]"#,
    r#""zz""#,
    r#""0""#,
    r#""00""#,
    r#""0100""#,
    r#""00030102ff""#,
    r#"{"cmd":"batch","requests":[]}"#,
    r#"{"cmd":"stats","id":1}"#,
    r#"{"cmd":"stats","id":null}"#,
    r#"{"cmd":"execute","name":"q","params":[{}]}"#,
    r#"{"cmd":"stats"},"#,
    "null",
    "true",
    "7",
    "-7",
    "1.5",
    "1e5",
    "-0",
    "1.0e",
    "01",
    "9223372036854775808",
    "tru",
    "\"unterminated",
    "\"bad \\x escape\"",
];

fn oddity() -> impl Strategy<Value = String> {
    (0..ODDITIES.len()).prop_map(|i| ODDITIES[i].to_string())
}

fn array_of(item: impl Strategy<Value = String>) -> impl Strategy<Value = String> {
    prop::collection::vec(item, 0..4).prop_map(|items| format!("[{}]", items.join(",")))
}

/// The text of one JSON value of any shape, or of something nearly one.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        oddity(),
        document(JSON).prop_map(|doc| doc.to_string()),
        param(JSON).prop_map(|p| param_to_json(&p).to_string()),
        hex_cursor(),
    ]
}

/// A field of a request object as `(key, value text)`: mostly a value of
/// the kind its key calls for, sometimes anything at all. Keys are
/// spelled plainly or with an escape; `x` is a stranger.
fn field(
    requests: impl Strategy<Value = String> + 'static,
) -> impl Strategy<Value = (String, String)> {
    const COMMANDS: &[&str] = &[
        "prepare",
        "execute",
        "execute",
        "cursor-next",
        "dml",
        "stats",
        "explain",
        "batch",
        "batch",
        "snapshot",
        "nope",
        r"ex\u0065cute",
    ];
    const KEYS: &[&str] = &[
        "cmd", "id", "name", "sql", "params", "cursor", "requests", "x",
    ];
    let quoted = |texts: &'static [&'static str]| {
        (0..texts.len()).prop_map(move |i| format!("\"{}\"", texts[i]))
    };
    let text = || string_content().prop_map(|s| Json::str(s).to_string());
    let value = || {
        prop_oneof![
            param(JSON).prop_map(|p| param_to_json(&p).to_string()),
            param(JSON).prop_map(|p| param_to_json(&p).to_string()),
            oddity(),
        ]
    };
    // three times in four what the key calls for
    fn known<S: Strategy<Value = String> + 'static>(
        key: &str,
        value: impl Fn() -> S,
    ) -> (Just<String>, BoxedStrategy<String>) {
        (
            Just(key.to_string()),
            prop_oneof![value(), value(), value(), fragment()].boxed(),
        )
    }
    prop_oneof![
        known("cmd", || quoted(COMMANDS)),
        known(r"c\u006dd", || quoted(COMMANDS)),
        known("id", || request_id()
            .prop_map(|id| id.to_json().to_string())),
        known("name", text),
        known("name", text),
        known("sql", text),
        known("params", || array_of(value())),
        known("params", || array_of(value())),
        known(r"par\u0061ms", || array_of(value())),
        known("cursor", hex_cursor),
        (
            Just("requests".to_string()),
            prop_oneof![requests, fragment()].boxed()
        ),
        (
            quoted(KEYS).prop_map(|key| key.trim_matches('"').to_string()),
            fragment().boxed()
        ),
    ]
}

/// A request-shaped object assembled field by field — a command and a
/// name to get past the first checks (unless a repeat, which counts
/// instead, spoils them), then known keys, a stranger, repeats — with
/// whitespace wherever JSON allows it.
fn object(field: impl Strategy<Value = (String, String)>) -> impl Strategy<Value = String> {
    const COMMANDS: &[&str] = &[
        "execute",
        "cursor-next",
        "dml",
        "explain",
        "batch",
        "prepare",
    ];
    const SPACE: &[&str] = &["", "", "", " ", "\t", " \r\n "];
    let space = || (0..SPACE.len()).prop_map(|i| SPACE[i]);
    let spaced = (field, space(), space()).prop_map(|((key, value), before, after)| {
        format!("{before}\"{key}\"{after}:{before}{value}{after}")
    });
    (
        0..COMMANDS.len(),
        prop::collection::vec(spaced, 0..8),
        space(),
    )
        .prop_map(|(cmd, fields, space)| {
            format!(
                "{space}{{\"name\":\"q\",\"cmd\":\"{}\"{}{}}}{space}",
                COMMANDS[cmd],
                if fields.is_empty() { "" } else { "," },
                fields.join(",")
            )
        })
}

fn wild_line() -> impl Strategy<Value = String> {
    let sub_request = prop_oneof![
        object(field(Just("[]".to_string()))),
        sub_request(JSON).prop_map(|r| request_to_line(&r)),
        oddity(),
    ];
    object(field(array_of(sub_request)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every request round-trips through the in-place decoder, and the
    /// oracle reads the same thing out of the same line.
    #[test]
    fn decoder_agrees_with_the_oracle_on_requests(
        tagged in any::<bool>(),
        id in request_id(),
        request in any_request(JSON),
    ) {
        let env = Envelope { id: tagged.then_some(id), request };
        let line = envelope_to_line(&env);
        prop_assert_eq!(answer(parse_envelope(&line)), Ok(format!("{env:?}")), "line: {}", line);
        prop_assert_eq!(answer(oracle_envelope(&line)), Ok(format!("{env:?}")), "line: {}", line);
        prop_assert_eq!(extract_id(&line), env.id);
    }

    /// `cursor-next` is `execute` with the cursor spelled as mandatory: the
    /// line an older client sends for it decodes, in both decoders, to the
    /// `execute` it means.
    #[test]
    fn cursor_next_lines_are_execute_with_the_cursor(
        tagged in any::<bool>(),
        id in request_id(),
        name in string_content(),
        params in prop::collection::vec(param(JSON), 0..4),
        cursor in cursor(),
    ) {
        let request = Request::Execute { name, params, cursor: Some(cursor) };
        let env = Envelope { id: tagged.then_some(id), request };
        // keys print in order, so the verb is the line's first field
        let line = envelope_to_line(&env).replacen(r#"{"cmd":"execute""#, r#"{"cmd":"cursor-next""#, 1);
        prop_assert!(line.starts_with(r#"{"cmd":"cursor-next""#), "line: {}", line);
        prop_assert_eq!(answer(parse_envelope(&line)), Ok(format!("{env:?}")), "line: {}", line);
        prop_assert_eq!(answer(oracle_envelope(&line)), Ok(format!("{env:?}")), "line: {}", line);
    }

    /// One edit away from a valid request — truncated, a character lost,
    /// doubled or replaced — the two decoders still say the same: the same
    /// request, or the same error text, and the same recovered id.
    #[test]
    fn decoder_agrees_with_the_oracle_on_damaged_requests(
        id in request_id(),
        request in any_request(JSON),
        at in any::<Index>(),
        edit in any::<u8>(),
    ) {
        let line = envelope_to_line(&Envelope { id: Some(id), request });
        let line = mutated(&line, at, edit);
        prop_assert_eq!(
            answer(parse_envelope(&line)),
            answer(oracle_envelope(&line)),
            "line: {}", line
        );
        prop_assert_eq!(extract_id(&line), oracle_extract_id(&line), "line: {}", line);
    }

    /// Lines put together from the decoder's vocabulary with no regard for
    /// its rules: wrong types under known keys, repeated and escaped keys,
    /// tags that clash, broken numbers — and one more edit on top of some.
    #[test]
    fn decoder_agrees_with_the_oracle_on_wild_lines(
        line in wild_line(),
        damaged in any::<bool>(),
        at in any::<Index>(),
        edit in any::<u8>(),
    ) {
        let line = if damaged { mutated(&line, at, edit) } else { line };
        prop_assert_eq!(
            answer(parse_envelope(&line)),
            answer(oracle_envelope(&line)),
            "line: {}", line
        );
        prop_assert_eq!(extract_id(&line), oracle_extract_id(&line), "line: {}", line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The decoder of trees, which clients read rows with, takes its tags
    /// from the table the line decoder uses; it still answers as it did.
    #[test]
    fn tree_value_decoder_agrees_with_the_oracle(text in fragment()) {
        if let Ok(tree) = parse(&text) {
            let shown = |decoded: Result<Value, ProtoError>| {
                decoded.map(|v| format!("{v:?}")).map_err(|e| e.to_string())
            };
            prop_assert_eq!(
                shown(piql_server::protocol::value_from_json(&tree)),
                shown(value_from_json(&tree)),
                "text: {}", text
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// serialize → parse is the identity for every document shape the
    /// protocol emits.
    #[test]
    fn documents_roundtrip(doc in document(JSON)) {
        let text = doc.to_string();
        let reparsed = parse(&text);
        prop_assert_eq!(reparsed.as_ref(), Ok(&doc), "text: {}", text);
    }

    /// Every prefix of a valid document either parses or returns a
    /// `JsonError` — truncation can never panic. (The `parse` call itself
    /// is the assertion: a panic fails the test.)
    #[test]
    fn truncated_documents_never_panic(doc in document(JSON), cut in any::<Index>()) {
        let text = doc.to_string();
        let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        if !boundaries.is_empty() {
            let at = boundaries[cut.index(boundaries.len())];
            let _ = parse(&text[..at]);
        }
        // and with a trailing escape introducer, the classic cut-off point
        let _ = parse(&format!("{}\\", text));
        let _ = parse(&format!("\"{}", text));
        prop_assert!(true);
    }

    /// Strings with every kind of awkward content survive the escape
    /// writer and parser exactly.
    #[test]
    fn string_escapes_roundtrip(s in string_content()) {
        let j = Json::str(s.as_str());
        let reparsed = parse(&j.to_string());
        prop_assert_eq!(reparsed, Ok(j));
    }

    /// The id a server echoes via `attach_id` decodes back to the id the
    /// client assigned — the response half of the echo contract.
    #[test]
    fn attached_ids_echo_exactly(id in request_id()) {
        let mut response = ok_response([]);
        attach_id(&mut response, &id);
        let reparsed = parse(&response.to_string()).unwrap();
        let echoed = RequestId::from_json(reparsed.get("id").unwrap()).unwrap();
        prop_assert_eq!(echoed, id);
    }
}

// ------------------------------------------------- binary-only properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any response document under any id survives encode→decode exactly,
    /// id carried in the header (not in the body).
    #[test]
    fn responses_roundtrip(
        tagged in any::<bool>(),
        id in request_id(),
        doc in document(BINARY),
    ) {
        let id = tagged.then_some(id);
        let response = ok_response([("payload", doc)]);
        let mut frame = Vec::new();
        BinaryWire.encode_response(id.as_ref(), &response, &mut frame);
        let decoded = BinaryWire.decode_response(&frame[4..]);
        prop_assert_eq!(decoded, Ok((id, response)));
    }

    /// Every prefix of a valid frame body either decodes or returns a
    /// `ProtoError` — truncation can never panic or loop.
    #[test]
    fn truncated_bodies_never_panic(
        id in request_id(),
        request in sub_request(BINARY),
        cut in any::<Index>(),
    ) {
        let body = body(BINARY, &Envelope { id: Some(id), request });
        let at = cut.index(body.len() + 1);
        let _ = BinaryWire.decode_envelope(&body[..at]);
        let _ = BinaryWire.decode_response(&body[..at]);
        let _ = BinaryWire.extract_id(&body[..at]);
        prop_assert!(true);
    }

    /// A single flipped byte anywhere in the body either decodes (to
    /// *something* — e.g. a flipped id value) or errors; never panics.
    #[test]
    fn corrupted_bodies_never_panic(
        id in request_id(),
        request in sub_request(BINARY),
        pos in any::<Index>(),
        xor in 1u8..=255,
    ) {
        let mut body = body(BINARY, &Envelope { id: Some(id), request });
        if !body.is_empty() {
            let at = pos.index(body.len());
            body[at] ^= xor;
        }
        let _ = BinaryWire.decode_envelope(&body);
        let _ = BinaryWire.decode_response(&body);
        let _ = BinaryWire.extract_id(&body);
        prop_assert!(true);
    }

    /// The framing layer: a stream cut anywhere inside a frame surfaces a
    /// clean `io::Error` (mid-frame EOF) — except a cut at a frame
    /// boundary, which is a clean end-of-stream. Never panics, never
    /// yields a short frame.
    #[test]
    fn truncated_streams_never_panic(
        id in request_id(),
        request in sub_request(BINARY),
        cut in any::<Index>(),
    ) {
        let mut frame = Vec::new();
        BinaryWire.encode_envelope(&Envelope { id: Some(id), request }, &mut frame);
        let total = frame.len();
        let at = cut.index(total + 1);
        let mut reader = BufReader::new(&frame[..at]);
        let mut buf = Vec::new();
        match BinaryWire.read_frame(&mut reader, &mut buf) {
            Ok(true) => prop_assert_eq!(at, total, "full frame only at full length"),
            Ok(false) => prop_assert_eq!(at, 0, "clean EOF only at offset 0"),
            Err(_) => prop_assert!(at > 0 && at < total),
        }
    }

    /// Header-id recovery: a frame whose *payload* is garbage but whose
    /// header is intact still yields the client's id via `extract_id` —
    /// the binary half of the id-echo-on-malformed contract.
    #[test]
    fn header_ids_survive_garbage_payloads(
        id in request_id(),
        garbage in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        // a well-formed execute header...
        let env = Envelope {
            id: Some(id.clone()),
            request: Request::Stats,
        };
        let mut body = body(BINARY, &env);
        // ...with arbitrary junk appended (stats has an empty payload, so
        // the junk is pure payload garbage)
        body.extend_from_slice(&garbage);
        prop_assert_eq!(BinaryWire.extract_id(&body), Some(id));
    }

    /// Arbitrary bytes fed straight into the decoders: error or decode,
    /// never panic (fuzz-shaped safety net).
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = BinaryWire.decode_envelope(&bytes);
        let _ = BinaryWire.decode_response(&bytes);
        let _ = BinaryWire.extract_id(&bytes);
        prop_assert!(true);
    }

    /// Every NaN payload's bits survive the codec verbatim (the property
    /// `responses_roundtrip` can't assert through `==`).
    #[test]
    fn nan_bits_roundtrip(mantissa in 1u64..(1 << 52), sign in any::<bool>()) {
        let bits = (u64::from(sign) << 63) | 0x7FF0_0000_0000_0000 | mantissa;
        let nan = f64::from_bits(bits);
        prop_assert!(nan.is_nan());
        let response = ok_response([("payload", Json::Float(nan))]);
        let mut frame = Vec::new();
        BinaryWire.encode_response(None, &response, &mut frame);
        let (_, decoded) = BinaryWire.decode_response(&frame[4..]).unwrap();
        let Some(Json::Float(out)) = decoded.get("payload") else {
            return Err(TestCaseError::fail("payload missing"));
        };
        prop_assert_eq!(out.to_bits(), bits);
    }
}

// ------------------------------------------------ the tree it replaced
//
// `Json` holds an object as one sorted block of pairs and a short string
// in place, and a decoded tree keeps the members of all the arrays on one
// nesting level in one block, and those of all the objects in another. The
// tree it replaced held a `BTreeMap<String, _>` per object and a `String`
// per string; it is kept here, with a printer and a binary encoder of its
// own, as the reference the compact tree must agree with: on what a
// document decodes to, on the bytes a tree encodes to, and on which trees
// are equal. A document is written here pair by pair in any order, repeats
// included, as a peer that does not sort its keys would.

#[derive(Debug, Clone, PartialEq)]
enum MapTree {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<MapTree>),
    Obj(BTreeMap<String, MapTree>),
}

/// The compact tree, field by field, as the reference holds it.
fn as_map_tree(j: &Json) -> MapTree {
    match j {
        Json::Null => MapTree::Null,
        Json::Bool(b) => MapTree::Bool(*b),
        Json::Int(i) => MapTree::Int(*i),
        Json::Float(f) => MapTree::Float(*f),
        Json::Str(s) => MapTree::Str(s.to_string()),
        Json::Arr(items) => MapTree::Arr(items.iter().map(as_map_tree).collect()),
        Json::Obj(fields) => MapTree::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), as_map_tree(v)))
                .collect(),
        ),
    }
}

/// The text a tree prints as: what a peer writes that sends its keys in
/// the order the map holds them.
fn printed(tree: &MapTree) -> String {
    let mut out = String::new();
    Sent::of(tree).write_json(&mut out);
    out
}

/// A float as JSON text: a finite number keeps a `.` or an exponent so it
/// reads back as a float; anything else is `null`.
fn float_text(f: f64) -> String {
    match f {
        f if f.is_finite() => {
            let s = format!("{f}");
            if s.contains(['.', 'e', 'E']) {
                s
            } else {
                s + ".0"
            }
        }
        _ => "null".into(),
    }
}

fn reference_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Every character as a `\u` escape (astral ones as surrogate pairs), so
/// a text far longer than what it decodes to.
fn escape_all(s: &str, out: &mut String) {
    out.push('"');
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04x}"));
    }
    out.push('"');
}

/// The response document tags (PROTOCOL.md §9.3).
const J_NULL: u8 = 0;
const J_FALSE: u8 = 1;
const J_TRUE: u8 = 2;
const J_INT: u8 = 3;
const J_FLOAT: u8 = 4;
const J_STR: u8 = 5;
const J_ARR: u8 = 6;
const J_OBJ: u8 = 7;

fn put_len(n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn put_text(s: &str, out: &mut Vec<u8>) {
    put_len(s.len(), out);
    out.extend_from_slice(s.as_bytes());
}

/// A string as a peer sends it: a JSON peer writes it escaped only where
/// it must be, or (`all`) every character escaped.
#[derive(Debug, Clone)]
struct Text {
    s: String,
    all: bool,
}

/// A document as a peer writes it: objects as pairs in the order sent.
#[derive(Debug, Clone)]
enum Sent {
    /// Never a string, an array or an object.
    Leaf(MapTree),
    Str(Text),
    Arr(Vec<Sent>),
    Obj(Vec<(Text, Sent)>),
}

impl Sent {
    /// A tree as a peer sends it that writes its keys in the order the map
    /// holds them and escapes a string only where it must.
    fn of(tree: &MapTree) -> Sent {
        let text = |s: &String| Text {
            s: s.clone(),
            all: false,
        };
        match tree {
            MapTree::Str(s) => Sent::Str(text(s)),
            MapTree::Arr(items) => Sent::Arr(items.iter().map(Sent::of).collect()),
            MapTree::Obj(fields) => {
                Sent::Obj(fields.iter().map(|(k, v)| (text(k), Sent::of(v))).collect())
            }
            leaf => Sent::Leaf(leaf.clone()),
        }
    }

    /// What inserting the pairs into a `BTreeMap` holds: the last of a
    /// repeated key wins.
    fn map_tree(&self) -> MapTree {
        match self {
            Sent::Leaf(leaf) => leaf.clone(),
            Sent::Str(text) => MapTree::Str(text.s.clone()),
            Sent::Arr(items) => MapTree::Arr(items.iter().map(Sent::map_tree).collect()),
            Sent::Obj(pairs) => {
                let mut fields = BTreeMap::new();
                for (k, v) in pairs {
                    fields.insert(k.s.clone(), v.map_tree());
                }
                MapTree::Obj(fields)
            }
        }
    }

    /// The tree built a container at a time, each array and object a
    /// block of its own from its members in the order sent
    /// (`JsonArr::from(Vec)`, `JsonMap::from(Vec)`).
    fn built(&self) -> Json {
        match self {
            Sent::Leaf(MapTree::Null) => Json::Null,
            Sent::Leaf(MapTree::Bool(b)) => Json::Bool(*b),
            Sent::Leaf(MapTree::Int(i)) => Json::Int(*i),
            Sent::Leaf(MapTree::Float(f)) => Json::Float(*f),
            Sent::Leaf(leaf) => unreachable!("a leaf: {leaf:?}"),
            Sent::Str(text) => Json::str(&text.s),
            Sent::Arr(items) => Json::Arr(JsonArr::from(
                items.iter().map(Sent::built).collect::<Vec<_>>(),
            )),
            Sent::Obj(pairs) => Json::Obj(JsonMap::from(
                pairs
                    .iter()
                    .map(|(k, v)| (JsonStr::from(&k.s), v.built()))
                    .collect::<Vec<_>>(),
            )),
        }
    }

    /// How many arrays and objects deep it nests.
    fn depth(&self) -> usize {
        match self {
            Sent::Leaf(_) | Sent::Str(_) => 0,
            Sent::Arr(items) => 1 + items.iter().map(Sent::depth).max().unwrap_or(0),
            Sent::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| v.depth()).max().unwrap_or(0),
        }
    }

    /// The text, written as the printer was before responses were
    /// streamed — a `String` built char by char, numbers through
    /// `to_string` — and so sharing no code with the printers it checks.
    fn write_json(&self, out: &mut String) {
        let string = |text: &Text, out: &mut String| match text.all {
            true => escape_all(&text.s, out),
            false => reference_escape(&text.s, out),
        };
        match self {
            Sent::Leaf(MapTree::Null) => out.push_str("null"),
            Sent::Leaf(MapTree::Bool(b)) => out.push_str(if *b { "true" } else { "false" }),
            Sent::Leaf(MapTree::Int(i)) => out.push_str(&i.to_string()),
            Sent::Leaf(MapTree::Float(f)) => out.push_str(&float_text(*f)),
            Sent::Leaf(leaf) => unreachable!("a leaf: {leaf:?}"),
            Sent::Str(text) => string(text, out),
            Sent::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Sent::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// The document as a response frame encodes it (PROTOCOL.md §9.3).
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Sent::Leaf(MapTree::Null) => out.push(J_NULL),
            Sent::Leaf(MapTree::Bool(b)) => out.push(if *b { J_TRUE } else { J_FALSE }),
            Sent::Leaf(MapTree::Int(i)) => {
                out.push(J_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Sent::Leaf(MapTree::Float(f)) => {
                out.push(J_FLOAT);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Sent::Leaf(leaf) => unreachable!("a leaf: {leaf:?}"),
            Sent::Str(text) => {
                out.push(J_STR);
                put_text(&text.s, out);
            }
            Sent::Arr(items) => {
                out.push(J_ARR);
                put_len(items.len(), out);
                items.iter().for_each(|item| item.put(out));
            }
            Sent::Obj(pairs) => {
                out.push(J_OBJ);
                put_len(pairs.len(), out);
                for (k, v) in pairs {
                    put_text(&k.s, out);
                    v.put(out);
                }
            }
        }
    }
}

/// A string on either side of the 22 bytes `JsonStr` holds in place: a
/// run of ASCII and then nothing, one more byte, a two- or four-byte
/// character that straddles the line, or a character that prints escaped.
fn edge_string() -> impl Strategy<Value = String> {
    const TAILS: &[&str] = &["", "x", "é", "🦀", "\n", "\"", "\u{7}", "\\", "/"];
    (18usize..26, 0..TAILS.len()).prop_map(|(n, t)| format!("{}{}", "k".repeat(n), TAILS[t]))
}

fn text() -> impl Strategy<Value = Text> {
    (prop_oneof![edge_string(), string_content()], any::<bool>())
        .prop_map(|(s, all)| Text { s, all })
}

/// A key: often one of a few, so objects repeat keys.
fn key() -> impl Strategy<Value = Text> {
    const COMMON: &[&str] = &["a", "b", "id", "ok", "rows", "kkkkkkkkkkkkkkkkkkkkkkk"];
    let common = || {
        (0..COMMON.len(), any::<bool>()).prop_map(|(i, all)| Text {
            s: COMMON[i].into(),
            all,
        })
    };
    prop_oneof![common(), common(), text()]
}

fn leaf() -> BoxedStrategy<Sent> {
    prop_oneof![
        Just(Sent::Leaf(MapTree::Null)),
        any::<bool>().prop_map(|b| Sent::Leaf(MapTree::Bool(b))),
        any::<i64>().prop_map(|i| Sent::Leaf(MapTree::Int(i))),
        JSON.float().prop_map(|f| Sent::Leaf(MapTree::Float(f))),
        text().prop_map(Sent::Str),
        text().prop_map(Sent::Str),
    ]
    .boxed()
}

fn level(value: impl Fn() -> BoxedStrategy<Sent>) -> BoxedStrategy<Sent> {
    prop_oneof![
        value(),
        prop::collection::vec(value(), 0..6).prop_map(Sent::Arr),
        prop::collection::vec((key(), value()), 0..7).prop_map(Sent::Obj),
    ]
    .boxed()
}

/// A document three levels deep.
fn sent_document() -> BoxedStrategy<Sent> {
    level(|| level(|| level(leaf)))
}

/// A three-level document inside `wraps` more arrays and objects, one
/// around the other — up to the 96 levels a document may nest, and past
/// them.
fn nested_document() -> BoxedStrategy<Sent> {
    (
        sent_document(),
        prop::collection::vec((any::<bool>(), key()), 0..=MAX_JSON_DEPTH - 2),
    )
        .prop_map(|(mut doc, wraps)| {
            for (array, key) in wraps {
                doc = if array {
                    Sent::Arr(vec![doc])
                } else {
                    Sent::Obj(vec![(key, doc)])
                };
            }
            doc
        })
        .boxed()
}

/// A text as the JSON peer reads it, with no tree of the parser's: each
/// object's pairs in the order the text gives them.
fn scanned(text: &str) -> Result<Sent, JsonError> {
    fn value(s: &mut Scanner<'_>) -> Result<Sent, JsonError> {
        let text = |s: String| Text { s, all: false };
        Ok(match s.peek() {
            Some(b'{') => {
                s.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = s.next_key()? {
                    let key = text(key.into_owned());
                    pairs.push((key, value(s)?));
                }
                Sent::Obj(pairs)
            }
            Some(b'[') => {
                s.begin_array()?;
                let mut items = Vec::new();
                while s.next_item()? {
                    items.push(value(s)?);
                }
                Sent::Arr(items)
            }
            _ => match s.scalar()? {
                Scalar::Null => Sent::Leaf(MapTree::Null),
                Scalar::Bool(b) => Sent::Leaf(MapTree::Bool(b)),
                Scalar::Int(i) => Sent::Leaf(MapTree::Int(i)),
                Scalar::Float(f) => Sent::Leaf(MapTree::Float(f)),
                Scalar::Str(s) => Sent::Str(text(s.into_owned())),
            },
        })
    }
    let mut scanner = Scanner::new(text);
    let tree = value(&mut scanner)?;
    scanner.finish()?;
    Ok(tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every text, whole or cut short, parses to what the map tree and the
    /// tree built a container at a time read from it — or fails where and
    /// as they fail — and prints the same bytes.
    #[test]
    fn the_compact_tree_reads_and_prints_as_the_map_tree(
        doc in prop_oneof![sent_document(), sent_document(), nested_document()],
        damaged in any::<bool>(),
        at in any::<Index>(),
    ) {
        let text = JSON.sent(&doc);
        let text = if damaged { JSON.cut(&text, at) } else { text };
        let text = std::str::from_utf8(&text).unwrap();
        match (parse(text), scanned(text)) {
            (Ok(tree), Ok(reference)) => {
                prop_assert_eq!(&as_map_tree(&tree), &reference.map_tree(), "text: {}", text);
                prop_assert_eq!(&tree, &reference.built(), "text: {}", text);
                prop_assert_eq!(tree.to_string(), printed(&reference.map_tree()), "text: {}", text);
            }
            (tree, reference) => prop_assert_eq!(tree.err(), reference.err(), "text: {}", text),
        }
    }

    /// A map built by inserting and removing keys one at a time holds and
    /// prints what a `BTreeMap` given the same calls holds.
    #[test]
    fn a_map_edited_in_place_agrees_with_a_btree_map(
        edits in prop::collection::vec((any::<bool>(), prop_oneof![edge_string(), string_content()], any::<i64>()), 0..24),
    ) {
        let (mut map, mut reference) = (JsonMap::new(), BTreeMap::new());
        for (insert, key, value) in edits {
            if insert {
                prop_assert_eq!(
                    map.insert(key.as_str(), Json::Int(value)).map(|j| as_map_tree(&j)),
                    reference.insert(key, MapTree::Int(value))
                );
            } else {
                prop_assert_eq!(
                    map.remove(&key).map(|j| as_map_tree(&j)),
                    reference.remove(&key)
                );
            }
            prop_assert_eq!(map.len(), reference.len());
        }
        let (tree, reference) = (Json::Obj(map), MapTree::Obj(reference));
        prop_assert_eq!(&as_map_tree(&tree), &reference);
        prop_assert_eq!(tree.to_string(), printed(&reference));
    }
}

/// An array of objects, which share the block of their level, with the
/// keys they repeat among them.
fn shared_objects_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::collection::vec((key(), leaf()), 0..7).prop_map(Sent::Obj),
        1..5,
    )
    .prop_map(|objects| String::from_utf8(JSON.sent(&Sent::Arr(objects))).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Inserting and removing keys on one map of a level whose objects
    /// share a block agrees with a `BTreeMap` given the same calls, and
    /// leaves every other map of the level as it was.
    #[test]
    fn editing_a_map_of_a_shared_level_leaves_its_siblings_alone(
        text in shared_objects_text(),
        which in any::<Index>(),
        edits in prop::collection::vec((any::<bool>(), key(), any::<i64>()), 0..12),
    ) {
        let Json::Arr(objects) = parse(&text).unwrap() else {
            unreachable!("an array: {text}")
        };
        let before: Vec<String> = objects.iter().map(Json::to_string).collect();
        let mut maps: Vec<JsonMap> = objects
            .into_iter()
            .map(|object| match object {
                Json::Obj(map) => map,
                other => unreachable!("an object: {other:?}"),
            })
            .collect();
        let edited = which.index(maps.len());
        let map = &mut maps[edited];
        let MapTree::Obj(mut reference) = as_map_tree(&Json::Obj(map.clone())) else {
            unreachable!()
        };
        for (insert, Text { s: key, .. }, value) in edits {
            if insert {
                prop_assert_eq!(
                    map.insert(JsonStr::from(&key), Json::Int(value)).map(|j| as_map_tree(&j)),
                    reference.insert(key, MapTree::Int(value))
                );
            } else {
                prop_assert_eq!(
                    map.remove(&key).map(|j| as_map_tree(&j)),
                    reference.remove(&key)
                );
            }
        }
        let reference = MapTree::Obj(reference);
        prop_assert_eq!(&as_map_tree(&Json::Obj(map.clone())), &reference);
        prop_assert_eq!(Json::Obj(map.clone()).to_string(), printed(&reference));
        for (at, (map, before)) in maps.into_iter().zip(before).enumerate() {
            if at != edited {
                prop_assert_eq!(Json::Obj(map).to_string(), before);
            }
        }
    }
}

// ------------------------------------------------------- streamed replies
//
// `Wire::encode_reply` writes rows straight from their block and never
// builds a `Json`; it must emit byte for byte what `Wire::encode_response`
// makes of `reply.into_json()`, and that must be the reference's bytes for
// the tree. This is what lets the server answer through `encode_reply`
// while `handle_request`, the clients and the differential tests keep
// speaking trees.

/// What one statement answers: rows (possibly none, possibly a cursor,
/// possibly degraded), a write's acknowledgement, an error, a budget
/// rejection, some other verb's
/// document — which need not even be an object.
fn statement_reply() -> impl Strategy<Value = Reply> {
    let scalar = || {
        prop_oneof![
            Just(Json::Null),
            any::<i64>().prop_map(Json::Int),
            any::<f64>().prop_map(Json::Float),
            string_content().prop_map(Json::str),
        ]
    };
    // one arity per reply: rows are drawn at the widest and cut to it, of
    // all seven kinds (`any` draws NaN, ±Inf, −0.0, `MIN` and `MAX` often)
    let rows = (
        0usize..6,
        prop::collection::vec(prop::collection::vec(scalar_value(BINARY), 5), 0..5),
    )
        .prop_map(|(arity, rows)| {
            let cut = |mut row: Vec<Value>| {
                row.truncate(arity);
                Tuple::new(row)
            };
            Rows::from(rows.into_iter().map(cut).collect::<Vec<_>>())
        });
    prop_oneof![
        (
            rows,
            prop_oneof![Just(None), cursor().prop_map(Some)],
            any::<bool>()
        )
            .prop_map(|(rows, cursor, degraded)| Reply::Rows {
                rows,
                cursor,
                degraded
            }),
        Just(Reply::Done),
        string_content().prop_map(|message| Reply::Doc(err_response(message))),
        string_content().prop_map(|tenant| Reply::Doc(budget_exceeded_response(&tenant))),
        prop::collection::btree_map(string_content(), scalar(), 0..6)
            .prop_map(|fields| Reply::Doc(ok_response([("payload", Json::Obj(fields.into()))]))),
        prop::collection::vec(scalar(), 0..3).prop_map(|items| Reply::Doc(Json::Arr(items.into()))),
    ]
}

fn reply() -> impl Strategy<Value = Reply> {
    let batch = || prop::collection::vec(statement_reply(), 0..5).prop_map(Reply::Batch);
    prop_oneof![
        statement_reply(),
        batch(),
        // `respond` nests when an embedder hands it a nested request
        prop::collection::vec(prop_oneof![statement_reply(), batch()], 0..3).prop_map(Reply::Batch),
    ]
}

/// `encode_reply` against `encode_response` of the tree and against the
/// reference's bytes, then back: the frame decodes, echoes the id, and its
/// body re-encodes to the same bytes (byte equality, because NaN never
/// equals itself as a value).
fn streams_what_the_tree_prints(
    wire: &dyn Codec,
    id: Option<&RequestId>,
    reply: &Reply,
) -> Result<(), TestCaseError> {
    let tree = reply.clone().into_json();
    let (mut streamed, mut encoded) = (Vec::new(), Vec::new());
    wire.encode_reply(id, reply, &mut streamed);
    wire.encode_response(id, &tree, &mut encoded);
    prop_assert_eq!(&streamed, &encoded);
    let reference = wire.reference_response(id, &as_map_tree(&tree));
    prop_assert_eq!(
        &streamed,
        &reference,
        "{}",
        String::from_utf8_lossy(&streamed)
    );

    let (echoed, body) = match wire.decode_response(wire.unframed(&streamed)) {
        Ok(decoded) => decoded,
        Err(e) => return Err(TestCaseError::fail(format!("does not decode: {e}"))),
    };
    prop_assert_eq!(echoed.as_ref(), wire.carried(id, &tree));
    let mut again = Vec::new();
    wire.encode_response(id, &body, &mut again);
    prop_assert_eq!(&again, &streamed);
    Ok(())
}

/// No response body carries a field called `id` (the codec owns the
/// name); if one did, attaching the request's id would replace it, and the
/// streamed form does the same.
#[test]
fn a_body_field_called_id_gives_way_to_the_request_id() {
    let doc = Json::obj([
        ("a", Json::Int(1)),
        ("id", Json::str("the body's own")),
        ("idle", Json::Null),
    ]);
    let reply = Reply::Doc(doc.clone());
    for id in [None, Some(RequestId::Int(7)), Some(RequestId::from("x"))] {
        for wire in [JSON, BINARY] {
            let (mut streamed, mut printed) = (Vec::new(), Vec::new());
            wire.encode_reply(id.as_ref(), &reply, &mut streamed);
            wire.encode_response(id.as_ref(), &doc, &mut printed);
            assert_eq!(streamed, printed);
        }
    }
    let mut line = Vec::new();
    JsonWire.encode_reply(Some(&RequestId::Int(7)), &reply, &mut line);
    assert_eq!(line, b"{\"a\":1,\"id\":7,\"idle\":null}\n");
}

/// A write's acknowledgement is the document it replaced, `{"ok":true}`,
/// under every id form and inside a batch, on both codecs.
#[test]
fn done_is_the_ok_document_it_replaces() {
    let ids = [
        None,
        Some(RequestId::Int(-7)),
        Some(RequestId::from("needs \"escaping\"\n\u{0007}😀")),
    ];
    let done_batch = Reply::Batch(vec![Reply::Done, Reply::Done]);
    let tree_batch = Reply::Batch(vec![
        Reply::Doc(ok_response([])),
        Reply::Doc(ok_response([])),
    ]);
    for id in &ids {
        for wire in [JSON, BINARY] {
            let (mut streamed, mut printed) = (Vec::new(), Vec::new());
            wire.encode_reply(id.as_ref(), &Reply::Done, &mut streamed);
            wire.encode_response(id.as_ref(), &ok_response([]), &mut printed);
            assert_eq!(streamed, printed, "v{} under {id:?}", wire.version());

            let (mut streamed, mut printed) = (Vec::new(), Vec::new());
            wire.encode_reply(id.as_ref(), &done_batch, &mut streamed);
            wire.encode_reply(id.as_ref(), &tree_batch, &mut printed);
            assert_eq!(streamed, printed, "batch, v{} under {id:?}", wire.version());
        }
    }
    assert_eq!(Reply::Done.into_json(), ok_response([]));
    let mut line = Vec::new();
    JsonWire.encode_reply(Some(&RequestId::Int(3)), &Reply::Done, &mut line);
    assert_eq!(line, b"{\"id\":3,\"ok\":true}\n");
}

// ----------------------------------------------------- the kept request
//
// A connection decodes each request into the envelope it keeps
// (`Wire::decode_into`), which must leave nothing of one request in the
// next: after each one it holds what decoding that request alone makes of
// it, and a connection answers as a fresh one per request does.

/// Texts a connection sends again and again, and some it sends once.
fn reused_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("q".to_string()),
        Just("INSERT".to_string()),
        string_content()
    ]
}

/// Parameter lists that make one slot change kind from request to
/// request: scalars, `Varchar`s of any length, collections, longer and
/// shorter lists.
fn reused_params(wire: &'static dyn Codec) -> impl Strategy<Value = Vec<ParamValue>> {
    let param = prop_oneof![
        scalar_value(wire).prop_map(ParamValue::Scalar),
        string_content().prop_map(|s| ParamValue::Scalar(Value::Varchar(s))),
        prop::collection::vec(scalar_value(wire), 0..4).prop_map(ParamValue::Collection),
    ];
    prop::collection::vec(param, 0..6)
}

/// The verbs decoded in place, over the texts above.
fn in_place_request(wire: &'static dyn Codec) -> impl Strategy<Value = Request> {
    prop_oneof![
        (reused_text(), reused_params(wire)).prop_map(|(sql, params)| Request::Dml { sql, params }),
        (reused_text(), reused_params(wire)).prop_map(|(name, params)| Request::Execute {
            name,
            params,
            cursor: None,
        }),
    ]
}

/// What a connection is sent in a row: mostly the verbs decoded in place,
/// alone or in batches that grow and shrink, so a slot switches between
/// `execute` and `dml`; and the others to switch the slot away and back.
fn reused_request(wire: &'static dyn Codec) -> impl Strategy<Value = Request> {
    let batch = move || {
        prop::collection::vec(in_place_request(wire), 0..6)
            .prop_map(|requests| Request::Batch { requests })
    };
    prop_oneof![
        in_place_request(wire),
        in_place_request(wire),
        in_place_request(wire),
        batch(),
        batch(),
        (reused_text(), reused_text()).prop_map(|(name, sql)| Request::Prepare { name, sql }),
        any_request(wire),
    ]
}

/// One request of a sequence: under an id or none, sometimes damaged into
/// a malformed one.
fn body_in_sequence(wire: &'static dyn Codec) -> impl Strategy<Value = Vec<u8>> {
    let id = prop_oneof![
        Just(None),
        request_id().prop_map(Some),
        request_id().prop_map(Some)
    ];
    let edit = prop_oneof![
        Just(None),
        Just(None),
        (any::<Index>(), any::<u8>()).prop_map(Some),
    ];
    (id, reused_request(wire), edit).prop_map(move |(id, request, edit)| {
        let body = body(wire, &Envelope { id, request });
        match edit {
            None => body,
            Some((at, edit)) => wire.damaged(&body, at, edit),
        }
    })
}

/// The parameters of an `execute` or `dml`.
fn params_of(request: &mut Request) -> &mut Vec<ParamValue> {
    match request {
        Request::Execute { params, .. } | Request::Dml { params, .. } => params,
        other => panic!("{other:?} has no parameters"),
    }
}

/// A batch, then the same batch with one parameter switched in place —
/// from an `Int` to a `Varchar` or back, then from a scalar to a
/// collection or back — then cut to its first request and grown back: what
/// each slot of a kept batch meets when the requests it carries change
/// shape.
fn switching_batches(wire: &'static dyn Codec) -> impl Strategy<Value = Vec<Request>> {
    let requests = prop::collection::vec(in_place_request(wire), 1..6);
    (requests, any::<Index>(), any::<Index>(), string_content()).prop_map(
        |(requests, at_request, at_param, text)| {
            let mut turned = requests.clone();
            let r = at_request.index(turned.len());
            if params_of(&mut turned[r]).is_empty() {
                params_of(&mut turned[r]).push(ParamValue::Scalar(Value::Int(7)));
            }
            let p = at_param.index(params_of(&mut turned[r]).len());
            let mut batches = vec![requests.clone()];
            let param = &mut params_of(&mut turned[r])[p];
            *param = match param {
                ParamValue::Scalar(Value::Varchar(_)) => ParamValue::Scalar(Value::Int(7)),
                _ => ParamValue::Scalar(Value::Varchar(text.clone())),
            };
            batches.push(turned.clone());
            let param = &mut params_of(&mut turned[r])[p];
            *param = match param {
                ParamValue::Collection(_) => ParamValue::Scalar(Value::Int(7)),
                ParamValue::Scalar(_) => {
                    ParamValue::Collection(vec![Value::Varchar(text), Value::Null])
                }
            };
            batches.extend([turned[..1].to_vec(), turned, requests]);
            batches
                .into_iter()
                .map(|requests| Request::Batch { requests })
                .collect()
        },
    )
}

/// Decoding request after request — `execute` and `dml` switching,
/// batches growing and shrinking, longer and shorter parameter lists, a
/// slot turning from scalar to collection to `Varchar`, an id present then
/// absent, malformed requests between, then `switching` — into one reused
/// envelope, and into
/// envelopes taken from a pool of three in the order `picks` gives, as a
/// JSON reader takes the spares its dispatch workers hand back, gives after
/// each what decoding it alone gives, the error included.
fn decodes_into_a_kept_request_as_afresh(
    wire: &dyn Codec,
    bodies: &[Vec<u8>],
    switching: &[Request],
    picks: &[Index],
) -> Result<(), TestCaseError> {
    let mut reused = Envelope {
        id: None,
        request: Request::Stats,
    };
    let mut pool = vec![reused.clone(); 3];
    let switched = switching.iter().map(|request| {
        let request = request.clone();
        body(wire, &Envelope { id: None, request })
    });
    let bodies: Vec<Vec<u8>> = bodies.iter().cloned().chain(switched).collect();
    for (i, body) in bodies.iter().enumerate() {
        let picked = &mut pool[picks[i % picks.len()].index(3)];
        for kept in [&mut reused, picked] {
            let into = wire.decode_into(body, kept).map(|()| kept.clone());
            let fresh = wire.decode_envelope(body);
            prop_assert_eq!(
                answer(into),
                answer(fresh),
                "request: {:?}",
                String::from_utf8_lossy(body)
            );
        }
    }
    Ok(())
}

/// Two servers on SCADr stores that start out equal, the statements a
/// sequence executes prepared on each.
fn twin_servers() -> [PiqlServer; 2] {
    let config = ScadrConfig {
        users_per_node: 5,
        thoughts_per_user: 2,
        subscriptions_per_user: 2,
        ..Default::default()
    };
    [(); 2].map(|()| {
        let db = Arc::new(Database::new(Arc::new(LiveCluster::new(
            LiveConfig::default(),
        ))));
        scadr::setup(&db, &config, 1).unwrap();
        let registry = Arc::new(StatementRegistry::new(
            db,
            linear_predictor(200, 100, 2),
            permissive_slo(),
        ));
        let q = scadr::queries(&config);
        registry.register("q", &q.recent_thoughts).unwrap();
        registry.register("INSERT", &q.find_user).unwrap();
        PiqlServer::start_with_registry(registry, "127.0.0.1:0").unwrap()
    })
}

/// A request for the served sequence: the texts it uses are the
/// registered statements and the insert the servers' stores accept, alone
/// or in batches, under an id or none, its parameters of every kind — so
/// some requests run and some fail — and sometimes cut short.
fn served_body(wire: &'static dyn Codec) -> impl Strategy<Value = Vec<u8>> {
    let params = || {
        let param = prop_oneof![
            (0usize..8).prop_map(|i| ParamValue::Scalar(Value::Varchar(scadr::username(i)))),
            (0usize..8).prop_map(|i| ParamValue::Scalar(Value::Varchar(format!("thought {i}")))),
            any::<i64>().prop_map(|t| ParamValue::Scalar(Value::Timestamp(t))),
            any::<i32>().prop_map(|i| ParamValue::Scalar(Value::Int(i))),
            (0usize..8)
                .prop_map(|i| ParamValue::Collection(vec![Value::Varchar(scadr::username(i))])),
        ];
        prop::collection::vec(param, 0..5)
    };
    let post = scadr::queries(&ScadrConfig::default()).post_thought;
    let dml = move || {
        let sql = post.clone();
        params().prop_map(move |params| Request::Dml {
            sql: sql.clone(),
            params,
        })
    };
    let execute = |name: &'static str| {
        params().prop_map(move |params| Request::Execute {
            name: name.into(),
            params,
            cursor: None,
        })
    };
    let alone = || prop_oneof![dml(), dml(), execute("q"), execute("INSERT")];
    let request = prop_oneof![
        alone(),
        alone(),
        prop::collection::vec(alone(), 0..5).prop_map(|requests| Request::Batch { requests }),
    ];
    let id = prop_oneof![
        Just(None),
        any::<i64>().prop_map(|i| Some(RequestId::Int(i))),
        (0usize..8).prop_map(|i| Some(RequestId::Str(format!("request {i}")))),
    ];
    (id, request, any::<Index>(), any::<bool>()).prop_map(move |(id, request, cut, truncate)| {
        let mut body = body(wire, &Envelope { id, request });
        // a line is ASCII; never cut to nothing, for a blank line is not a
        // request and gets no answer
        if truncate {
            body.truncate(cut.index(body.len()).max(1));
        }
        body
    })
}

/// Send `body` on `conn`, in one write, and read its answer.
fn ask(wire: &dyn Codec, conn: &mut BufReader<TcpStream>, body: &[u8]) -> Vec<u8> {
    conn.get_mut().write_all(&wire.framed(body)).unwrap();
    let mut answer = Vec::new();
    assert!(wire.read_frame(conn, &mut answer).unwrap());
    answer
}

/// A connection that keeps its envelopes — a JSON reader's, and those its
/// tagged requests take to the dispatch workers and hand back, or a binary
/// connection's one — answers a sequence of tagged and untagged requests
/// byte for byte as a fresh connection per request does.
fn a_kept_connection_answers_as_a_fresh_one(
    wire: &dyn Codec,
    bodies: &[Vec<u8>],
) -> Result<(), TestCaseError> {
    let [kept, fresh] = twin_servers();
    let mut conn = wire.connect(&kept);
    for body in bodies {
        let alone = ask(wire, &mut wire.connect(&fresh), body);
        prop_assert_eq!(
            ask(wire, &mut conn, body),
            alone,
            "request: {:?}",
            String::from_utf8_lossy(body)
        );
    }
    Ok(())
}

// -------------------------------------------------- documents on a codec

/// A document in any key order decodes to what the map tree holds and
/// encodes as the reference encodes the map tree — a binary frame's keys
/// in sorted order — and what it encodes to reads back as the same tree.
fn decodes_and_encodes_as_the_map_tree(wire: &dyn Codec, doc: &Sent) -> Result<(), TestCaseError> {
    let reference = doc.map_tree();
    let tree = wire.read(&wire.sent(doc)).map_err(TestCaseError::fail)?;
    prop_assert_eq!(&as_map_tree(&tree), &reference);
    let mut encoded = Vec::new();
    wire.encode_response(None, &tree, &mut encoded);
    prop_assert_eq!(&encoded, &wire.reference_response(None, &reference));
    let again = wire
        .read(wire.unframed(&encoded))
        .map_err(TestCaseError::fail)?;
    prop_assert_eq!(again, tree);
    Ok(())
}

/// Documents decode to equal trees exactly when their map trees are
/// equal: the same pairs sent in another order, or a repeat moved.
fn equal_where_the_map_tree_is(wire: &dyn Codec, docs: &[Sent]) -> Result<(), TestCaseError> {
    let mut trees = Vec::new();
    for doc in docs {
        let tree = wire.read(&wire.sent(doc)).map_err(TestCaseError::fail)?;
        trees.push((tree, doc.map_tree()));
    }
    for (a, (ja, ma)) in docs.iter().zip(&trees) {
        for (b, (jb, mb)) in docs.iter().zip(&trees) {
            prop_assert_eq!(ja == jb, ma == mb, "{:?} vs {:?}", a, b);
        }
    }
    Ok(())
}

/// What `wire` reads out of `doc`: the tree built a container at a time
/// from what was sent — unsorted keys, repeated keys (the last one wins),
/// empty containers, 96 levels deep — printing as that tree does, or a
/// refusal past 96 levels. The tree, if it was read.
fn reads_as_built(wire: &dyn Codec, doc: &Sent) -> Result<Option<Json>, TestCaseError> {
    match wire.read(&wire.sent(doc)) {
        Ok(tree) => {
            prop_assert!(doc.depth() <= MAX_JSON_DEPTH, "{} levels", doc.depth());
            let reference = doc.built();
            prop_assert_eq!(tree.to_string(), reference.to_string());
            prop_assert_eq!(&tree, &reference);
            Ok(Some(tree))
        }
        Err(refused) => {
            prop_assert!(doc.depth() > MAX_JSON_DEPTH, "refused: {}", refused);
            Ok(None)
        }
    }
}

/// A document decoded level by level is the tree built a container at a
/// time, and debugs and encodes, on both codecs, as that tree does.
fn level_built_as_container_built(wire: &dyn Codec, doc: &Sent) -> Result<(), TestCaseError> {
    let Some(tree) = reads_as_built(wire, doc)? else {
        return Ok(());
    };
    let reference = doc.built();
    prop_assert_eq!(format!("{tree:?}"), format!("{reference:?}"));
    for codec in [JSON, BINARY] {
        let (mut encoded, mut expected) = (Vec::new(), Vec::new());
        codec.encode_response(None, &tree, &mut encoded);
        codec.encode_response(None, &reference, &mut expected);
        prop_assert_eq!(encoded, expected);
    }
    Ok(())
}

/// A decode that fails part way leaves nothing behind: the next decode on
/// the thread reads as the reference does. The first is of a message cut
/// short, which a codec that refuses every cut must refuse.
fn a_failed_decode_leaves_nothing(
    wire: &dyn Codec,
    doc: &Sent,
    at: Index,
    next: &Sent,
) -> Result<(), TestCaseError> {
    let failed = wire.read(&wire.cut(&wire.sent(doc), at));
    prop_assert!(
        failed.is_err() || !wire.refuses_every_cut(),
        "cut: {:?}",
        failed
    );
    reads_as_built(wire, next).map(drop)
}

/// An object's pairs, the same pairs turned, and another document.
fn pairs_turned_and_another() -> impl Strategy<Value = Vec<Sent>> {
    (
        prop::collection::vec((key(), leaf()), 0..7),
        any::<Index>(),
        sent_document(),
    )
        .prop_map(|(pairs, turn, other)| {
            let mut turned = pairs.clone();
            turned.rotate_left(turn.index(pairs.len().max(1)).min(pairs.len()));
            vec![Sent::Obj(pairs), Sent::Obj(turned), other]
        })
}

/// The properties both codecs owe, each run on `$wire` in a module named
/// for its codec. `$failed` is how many failed decodes it tries: the most
/// expensive property, run as often on each codec as it was before the
/// two codecs shared it.
macro_rules! codec_properties {
    ($codec:ident, $wire:expr, $failed:expr) => {
        mod $codec {
            use super::*;

            const WIRE: &dyn Codec = &$wire;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(256))]

                /// Any request under any id (or none) survives encode →
                /// decode exactly — the id-echo contract's client half.
                #[test]
                fn envelopes_roundtrip(
                    tagged in any::<bool>(),
                    id in request_id(),
                    request in sub_request(WIRE),
                ) {
                    let env = Envelope { id: tagged.then_some(id), request };
                    let decoded = WIRE.decode_envelope(&body(WIRE, &env));
                    prop_assert_eq!(answer(decoded), Ok(format!("{env:?}")));
                }

                /// A batch of arbitrary sub-requests round-trips with order
                /// and count preserved (positional identity is the whole
                /// batch contract).
                #[test]
                fn batches_roundtrip(requests in prop::collection::vec(sub_request(WIRE), 0..6)) {
                    let env = Envelope {
                        id: Some(RequestId::Int(7)),
                        request: Request::Batch { requests },
                    };
                    let decoded = WIRE.decode_envelope(&body(WIRE, &env));
                    prop_assert_eq!(answer(decoded), Ok(format!("{env:?}")));
                }
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(512))]

                #[test]
                fn decoding_into_a_reused_request_is_decoding_afresh(
                    bodies in prop::collection::vec(body_in_sequence(WIRE), 1..16),
                    switching in switching_batches(WIRE),
                    picks in prop::collection::vec(any::<Index>(), 1..16),
                ) {
                    decodes_into_a_kept_request_as_afresh(WIRE, &bodies, &switching, &picks)?;
                }

                #[test]
                fn encode_reply_is_byte_identical_to_the_tree(
                    id in prop_oneof![Just(None), request_id().prop_map(Some)],
                    reply in reply(),
                ) {
                    streams_what_the_tree_prints(WIRE, id.as_ref(), &reply)?;
                }

                #[test]
                fn the_compact_tree_decodes_and_encodes_as_the_map_tree(doc in sent_document()) {
                    decodes_and_encodes_as_the_map_tree(WIRE, &doc)?;
                }

                #[test]
                fn a_level_built_tree_is_the_tree_built_a_container_at_a_time(
                    doc in prop_oneof![sent_document(), nested_document()],
                ) {
                    level_built_as_container_built(WIRE, &doc)?;
                }
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(1024))]

                #[test]
                fn the_compact_tree_is_equal_where_the_map_tree_is(
                    docs in pairs_turned_and_another(),
                ) {
                    equal_where_the_map_tree_is(WIRE, &docs)?;
                }
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases($failed))]

                /// Two documents in three are three levels deep, one is
                /// deeper.
                #[test]
                fn a_failed_decode_leaves_nothing_for_the_next(
                    doc in prop_oneof![sent_document(), sent_document(), nested_document()],
                    at in any::<Index>(),
                    next in prop_oneof![sent_document(), sent_document(), nested_document()],
                ) {
                    a_failed_decode_leaves_nothing(WIRE, &doc, at, &next)?;
                }
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(32))]

                #[test]
                fn a_kept_request_answers_as_a_fresh_connection_does(
                    bodies in prop::collection::vec(served_body(WIRE), 1..24),
                ) {
                    a_kept_connection_answers_as_a_fresh_one(WIRE, &bodies)?;
                }
            }
        }
    };
}

codec_properties!(json, JsonWire, 1536);
codec_properties!(binary, BinaryWire, 768);
