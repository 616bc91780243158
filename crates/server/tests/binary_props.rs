//! Property tests for the binary (v3) wire codec, mirroring
//! `json_props.rs`: envelope and response round trips (awkward strings,
//! astral chars, every id flavor), the no-panic guarantee on truncated /
//! bit-flipped frames — a hostile frame must surface `ProtoError` or a
//! frame-layer `io::Error`, never kill the connection handler — plus the
//! framing layer itself (`read_frame` on cut-off streams), the
//! header-id recovery contract (`extract_id` on mangled payloads), and
//! decoding into a reused request (`decode_into`), which must leave
//! nothing of one request in the next. Response documents decode and
//! encode as the `BTreeMap` tree `Json` replaced did (kept here as the
//! reference) and as the tree built a container at a time, whatever order
//! their keys arrive in and however deep they nest.

use piql_core::plan::params::ParamValue;
use piql_core::value::Value;
use piql_engine::Database;
use piql_server::binary::OP_RESPONSE;
use piql_server::json::{
    parse, write_array, write_bool, write_escaped, write_float, write_int, Json, JsonArr, JsonMap,
    JsonStr, MAX_JSON_DEPTH,
};
use piql_server::protocol::ok_response;
use piql_server::testkit::linear_predictor;
use piql_server::{
    BinaryConn, BinaryWire, Envelope, LiveCluster, LiveConfig, Request, RequestId, SloConfig,
    StatementRegistry, Wire,
};
use piql_workloads::scadr::{self, ScadrConfig};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::sync::Arc;

/// Strings mixing ASCII, escapes-required chars, control chars, wide BMP
/// chars, and (sometimes) astral chars (same shape as `json_props.rs`).
fn string_content() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(any::<char>(), 0..16),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(chars, quoteish, astral)| {
            let mut s: String = chars.into_iter().collect();
            if quoteish {
                s.push('"');
                s.push('\\');
                s.push('\n');
                s.push('\u{0007}');
            }
            if astral {
                s.push('😀');
                s.push('🦀');
            }
            s
        })
}

/// A scalar JSON value whose binary serialization round-trips exactly.
/// Unlike the text codec, the binary codec carries `f64` bits verbatim,
/// so infinities round-trip too; NaN is bit-exact as well but `==` can't
/// see that, so it gets its own test (`nan_bits_roundtrip`).
fn scalar() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        any::<f64>().prop_map(|f| Json::Float(if f.is_nan() { f64::INFINITY } else { f })),
        string_content().prop_map(Json::str),
    ]
}

/// A bounded-depth document: the response shapes the server produces.
fn document() -> impl Strategy<Value = Json> {
    prop_oneof![
        scalar(),
        prop::collection::vec(scalar(), 0..6).prop_map(|items| Json::Arr(items.into())),
        prop::collection::btree_map(string_content(), scalar(), 0..6)
            .prop_map(|m| Json::Obj(m.into())),
        (
            prop::collection::vec(scalar(), 0..4),
            prop::collection::btree_map(string_content(), scalar(), 0..4),
        )
            .prop_map(|(arr, obj)| {
                Json::Arr(vec![Json::Arr(arr.into()), Json::Obj(obj.into()), Json::Null].into())
            }),
    ]
}

/// An arbitrary client-assigned request id (both flavors).
fn request_id() -> impl Strategy<Value = RequestId> {
    prop_oneof![
        any::<i64>().prop_map(RequestId::Int),
        string_content().prop_map(RequestId::Str),
    ]
}

/// An arbitrary scalar wire value.
fn scalar_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::BigInt),
        string_content().prop_map(Value::Varchar),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Timestamp),
        any::<f64>().prop_map(Value::Double),
    ]
}

/// An arbitrary wire value parameter (scalar or IN-collection).
fn param() -> impl Strategy<Value = ParamValue> {
    prop_oneof![
        scalar_value().prop_map(ParamValue::Scalar),
        prop::collection::vec(scalar_value(), 0..4).prop_map(ParamValue::Collection),
    ]
}

/// An arbitrary non-batch request (what a batch may carry).
fn sub_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (string_content(), string_content()).prop_map(|(name, sql)| Request::Prepare { name, sql }),
        (string_content(), prop::collection::vec(param(), 0..4)).prop_map(|(name, params)| {
            Request::Execute {
                name,
                params,
                cursor: None,
            }
        }),
        (string_content(), prop::collection::vec(param(), 0..4))
            .prop_map(|(sql, params)| Request::Dml { sql, params }),
        Just(Request::Stats),
        Just(Request::Revalidate),
        Just(Request::Rebalance),
    ]
}

/// Encode an envelope and strip the length prefix (the part
/// `decode_envelope` consumes).
fn encode_body(env: &Envelope) -> Vec<u8> {
    let mut frame = Vec::new();
    BinaryWire.encode_envelope(env, &mut frame);
    frame.split_off(4)
}

/// A scalar value `==` can compare: a NaN never equals itself.
fn comparable_value() -> impl Strategy<Value = Value> {
    scalar_value().prop_map(|v| match v {
        Value::Double(d) if d.is_nan() => Value::Double(0.5),
        v => v,
    })
}

/// Parameter lists that make one slot change kind from frame to frame:
/// scalars, `Varchar`s of any length, collections, longer and shorter
/// lists.
fn params() -> impl Strategy<Value = Vec<ParamValue>> {
    let param = prop_oneof![
        comparable_value().prop_map(ParamValue::Scalar),
        string_content().prop_map(|s| ParamValue::Scalar(Value::Varchar(s))),
        prop::collection::vec(comparable_value(), 0..4).prop_map(ParamValue::Collection),
    ];
    prop::collection::vec(param, 0..6)
}

/// What a connection is sent in a row: mostly the verbs decoded in place
/// (over a few texts, so a text repeats as often as it changes), and the
/// others to switch the slot away and back.
fn reused_request() -> impl Strategy<Value = Request> {
    let text = || {
        prop_oneof![
            Just("q".to_string()),
            Just("INSERT".to_string()),
            string_content()
        ]
    };
    prop_oneof![
        (text(), params()).prop_map(|(sql, params)| Request::Dml { sql, params }),
        (text(), params()).prop_map(|(sql, params)| Request::Dml { sql, params }),
        (text(), params()).prop_map(|(name, params)| Request::Execute {
            name,
            params,
            cursor: None,
        }),
        (text(), params()).prop_map(|(name, params)| Request::Execute {
            name,
            params,
            cursor: None,
        }),
        (text(), text()).prop_map(|(name, sql)| Request::Prepare { name, sql }),
        Just(Request::Stats),
        (text(), params()).prop_map(|(sql, params)| Request::Batch {
            requests: vec![Request::Dml { sql, params }, Request::Stats],
        }),
    ]
}

/// One frame of a sequence: an encoded request, under an id or none,
/// possibly cut short or with one byte flipped.
fn frame_in_sequence() -> impl Strategy<Value = Vec<u8>> {
    let id = prop_oneof![
        Just(None),
        request_id().prop_map(Some),
        request_id().prop_map(Some)
    ];
    let damage = prop_oneof![
        Just(None),
        Just(None),
        (any::<prop::sample::Index>(), Just(0u8)).prop_map(Some),
        (any::<prop::sample::Index>(), 1u8..=255).prop_map(Some),
    ];
    (id, reused_request(), damage).prop_map(|(id, request, damage)| {
        let mut body = encode_body(&Envelope { id, request });
        match damage {
            None => {}
            Some((at, 0)) => body.truncate(at.index(body.len())),
            Some((at, xor)) => {
                let at = at.index(body.len());
                body[at] ^= xor;
            }
        }
        body
    })
}

/// Two registries on SCADr stores that start out equal, the statements a
/// sequence executes prepared on each.
fn twin_registries() -> [Arc<StatementRegistry<LiveCluster>>; 2] {
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
            SloConfig {
                slo_ms: 1e9,
                interval_confidence: 1.0,
                allow_degrade: false,
            },
        ));
        let q = scadr::queries(&config);
        registry.register("q", &q.recent_thoughts).unwrap();
        registry.register("INSERT", &q.find_user).unwrap();
        registry
    })
}

/// A frame for the served sequence: the texts it uses are the registered
/// statements and the insert the registries' stores accept, its
/// parameters of every kind — so some frames run and some fail.
fn served_frame() -> impl Strategy<Value = Vec<u8>> {
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
    let request = prop_oneof![dml(), dml(), execute("q"), execute("INSERT")];
    let id = prop_oneof![
        Just(None),
        any::<i64>().prop_map(|i| Some(RequestId::Int(i)))
    ];
    (id, request, any::<prop::sample::Index>(), any::<bool>()).prop_map(
        |(id, request, cut, truncate)| {
            let mut body = encode_body(&Envelope { id, request });
            if truncate {
                body.truncate(cut.index(body.len()));
            }
            body
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A connection that keeps its request answers a sequence byte for
    /// byte as a fresh connection per frame does.
    #[test]
    fn a_kept_request_answers_as_a_fresh_connection_does(
        frames in prop::collection::vec(served_frame(), 1..24),
    ) {
        let [kept, fresh] = twin_registries();
        let mut conn = BinaryConn::new(kept);
        for frame in &frames {
            conn.handle_frame(frame);
            let mut alone = BinaryConn::new(fresh.clone());
            alone.handle_frame(frame);
            prop_assert_eq!(conn.output(), alone.output());
            conn.clear_output();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding into one reused envelope, frame after frame — verb
    /// switches, longer and shorter parameter lists, a slot turning from
    /// scalar to collection to `Varchar`, an id present then absent,
    /// malformed and truncated frames between — gives after each frame
    /// what decoding that frame alone gives, the error included.
    #[test]
    fn decoding_into_a_reused_request_is_decoding_afresh(
        frames in prop::collection::vec(frame_in_sequence(), 1..16),
    ) {
        let mut reused = Envelope { id: None, request: Request::Stats };
        for frame in &frames {
            let fresh = BinaryWire.decode_envelope(frame);
            let into = BinaryWire.decode_into(frame, &mut reused).map(|()| reused.clone());
            prop_assert_eq!(into, fresh);
        }
    }

    /// Any request under any id (or none) survives the binary envelope
    /// encode→decode exactly.
    #[test]
    fn envelopes_roundtrip(
        tagged in any::<bool>(),
        id in request_id(),
        request in sub_request(),
    ) {
        let env = Envelope { id: tagged.then_some(id), request };
        let body = encode_body(&env);
        prop_assert_eq!(BinaryWire.decode_envelope(&body), Ok(env));
    }

    /// Any response document under any id survives encode→decode exactly,
    /// id carried in the header (not in the body).
    #[test]
    fn responses_roundtrip(
        tagged in any::<bool>(),
        id in request_id(),
        doc in document(),
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
        request in sub_request(),
        cut in any::<prop::sample::Index>(),
    ) {
        let body = encode_body(&Envelope { id: Some(id), request });
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
        request in sub_request(),
        pos in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut body = encode_body(&Envelope { id: Some(id), request });
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
        request in sub_request(),
        cut in any::<prop::sample::Index>(),
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
        let mut body = encode_body(&env);
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
// As in `json_props.rs`: the `BTreeMap` tree `Json` replaced, kept as the
// reference. A response document is written here pair by pair in any
// order, repeats included — as a peer that does not sort its keys would —
// and must decode to what inserting those pairs into a `BTreeMap` held,
// then encode, on either codec, to the bytes the map tree gives.

/// The response document tags (PROTOCOL.md §9.3).
const J_NULL: u8 = 0;
const J_FALSE: u8 = 1;
const J_TRUE: u8 = 2;
const J_INT: u8 = 3;
const J_FLOAT: u8 = 4;
const J_STR: u8 = 5;
const J_ARR: u8 = 6;
const J_OBJ: u8 = 7;

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

/// A document as a peer writes it: objects as pairs in the order sent.
#[derive(Debug, Clone)]
enum Sent {
    Leaf(MapTree),
    Arr(Vec<Sent>),
    Obj(Vec<(String, Sent)>),
}

impl Sent {
    fn map_tree(&self) -> MapTree {
        match self {
            Sent::Leaf(leaf) => leaf.clone(),
            Sent::Arr(items) => MapTree::Arr(items.iter().map(Sent::map_tree).collect()),
            Sent::Obj(pairs) => {
                let mut fields = BTreeMap::new();
                for (k, v) in pairs {
                    fields.insert(k.clone(), v.map_tree());
                }
                MapTree::Obj(fields)
            }
        }
    }

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Sent::Leaf(leaf) => put_map_tree(leaf, out),
            Sent::Arr(items) => {
                out.push(J_ARR);
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                items.iter().for_each(|item| item.put(out));
            }
            Sent::Obj(pairs) => {
                out.push(J_OBJ);
                out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                for (k, v) in pairs {
                    put_text(k, out);
                    v.put(out);
                }
            }
        }
    }

    /// The tree built a container at a time, each array and object a
    /// block of its own from its members in the order sent.
    fn built(&self) -> Json {
        match self {
            Sent::Leaf(leaf) => leaf_json(leaf),
            Sent::Arr(items) => Json::Arr(JsonArr::from(
                items.iter().map(Sent::built).collect::<Vec<_>>(),
            )),
            Sent::Obj(pairs) => Json::Obj(JsonMap::from(
                pairs
                    .iter()
                    .map(|(k, v)| (JsonStr::from(k), v.built()))
                    .collect::<Vec<_>>(),
            )),
        }
    }

    /// The response frame carrying this document and no id.
    fn frame(&self) -> Vec<u8> {
        let mut frame = vec![OP_RESPONSE, 0];
        self.put(&mut frame);
        frame
    }
}

fn leaf_json(leaf: &MapTree) -> Json {
    match leaf {
        MapTree::Null => Json::Null,
        MapTree::Bool(b) => Json::Bool(*b),
        MapTree::Int(i) => Json::Int(*i),
        MapTree::Float(f) => Json::Float(*f),
        MapTree::Str(s) => Json::str(s),
        MapTree::Arr(_) | MapTree::Obj(_) => unreachable!("a leaf: {leaf:?}"),
    }
}

fn put_text(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_map_tree(tree: &MapTree, out: &mut Vec<u8>) {
    match tree {
        MapTree::Null => out.push(J_NULL),
        MapTree::Bool(b) => out.push(if *b { J_TRUE } else { J_FALSE }),
        MapTree::Int(i) => {
            out.push(J_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        MapTree::Float(f) => {
            out.push(J_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        MapTree::Str(s) => {
            out.push(J_STR);
            put_text(s, out);
        }
        MapTree::Arr(items) => {
            out.push(J_ARR);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            items.iter().for_each(|item| put_map_tree(item, out));
        }
        MapTree::Obj(fields) => {
            out.push(J_OBJ);
            out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (k, v) in fields {
                put_text(k, out);
                put_map_tree(v, out);
            }
        }
    }
}

fn map_print(tree: &MapTree, out: &mut Vec<u8>) {
    match tree {
        MapTree::Null => out.extend_from_slice(b"null"),
        MapTree::Bool(b) => write_bool(*b, out),
        MapTree::Int(i) => write_int(*i, out),
        MapTree::Float(f) => write_float(*f, out),
        MapTree::Str(s) => write_escaped(s, out),
        MapTree::Arr(items) => write_array(items, out, map_print),
        MapTree::Obj(fields) => {
            out.push(b'{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_escaped(k, out);
                out.push(b':');
                map_print(v, out);
            }
            out.push(b'}');
        }
    }
}

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

/// A string on either side of the 22 bytes `JsonStr` holds in place,
/// a multi-byte character straddling the line among them.
fn edge_string() -> impl Strategy<Value = String> {
    const TAILS: &[&str] = &["", "x", "é", "🦀", "\n", "\""];
    (18usize..26, 0..TAILS.len()).prop_map(|(n, t)| format!("{}{}", "k".repeat(n), TAILS[t]))
}

fn sent_leaf() -> BoxedStrategy<Sent> {
    prop_oneof![
        Just(MapTree::Null),
        any::<bool>().prop_map(MapTree::Bool),
        any::<i64>().prop_map(MapTree::Int),
        any::<f64>().prop_map(|f| MapTree::Float(if f.is_finite() { f } else { 0.5 })),
        edge_string().prop_map(MapTree::Str),
        string_content().prop_map(MapTree::Str),
    ]
    .prop_map(Sent::Leaf)
    .boxed()
}

/// A key: often one of a few, so objects repeat keys.
fn sent_key() -> impl Strategy<Value = String> {
    const COMMON: &[&str] = &["a", "b", "id", "ok", "rows", "kkkkkkkkkkkkkkkkkkkkkkk"];
    prop_oneof![
        (0..COMMON.len()).prop_map(|i| COMMON[i].to_string()),
        (0..COMMON.len()).prop_map(|i| COMMON[i].to_string()),
        edge_string(),
        string_content(),
    ]
}

fn sent_level(value: impl Fn() -> BoxedStrategy<Sent>) -> BoxedStrategy<Sent> {
    prop_oneof![
        value(),
        prop::collection::vec(value(), 0..6).prop_map(Sent::Arr),
        prop::collection::vec((sent_key(), value()), 0..7).prop_map(Sent::Obj),
    ]
    .boxed()
}

/// A document three levels deep.
fn sent_document() -> BoxedStrategy<Sent> {
    sent_level(|| sent_level(|| sent_level(sent_leaf)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A document in any key order decodes to what the map tree holds, and
    /// both codecs print it as they print the map tree: the binary frame
    /// in sorted key order, and the JSON text.
    #[test]
    fn the_compact_tree_decodes_and_encodes_as_the_map_tree(doc in sent_document()) {
        let reference = doc.map_tree();
        let (id, tree) = BinaryWire.decode_response(&doc.frame()).unwrap();
        prop_assert_eq!(id, None);
        prop_assert_eq!(&as_map_tree(&tree), &reference);

        let mut frame = Vec::new();
        BinaryWire.encode_response(None, &tree, &mut frame);
        let mut expected = vec![OP_RESPONSE, 0];
        put_map_tree(&reference, &mut expected);
        prop_assert_eq!(&frame[4..], &expected[..]);

        let mut text = Vec::new();
        map_print(&reference, &mut text);
        prop_assert_eq!(tree.to_string().into_bytes(), text.clone());
        // and the text reads back as the same tree
        let text = String::from_utf8(text).unwrap();
        prop_assert_eq!(parse(&text), Ok(tree));
    }

    /// Documents decode to equal trees exactly when their map trees are
    /// equal: the same pairs sent in another order, or a repeat moved.
    #[test]
    fn the_compact_tree_is_equal_where_the_map_tree_is(
        pairs in prop::collection::vec((sent_key(), sent_leaf()), 0..7),
        turn in any::<prop::sample::Index>(),
        other in sent_document(),
    ) {
        let mut turned = pairs.clone();
        turned.rotate_left(turn.index(pairs.len().max(1)).min(pairs.len()));
        let docs = [Sent::Obj(pairs), Sent::Obj(turned), other];
        for a in &docs {
            for b in &docs {
                let (_, ja) = BinaryWire.decode_response(&a.frame()).unwrap();
                let (_, jb) = BinaryWire.decode_response(&b.frame()).unwrap();
                prop_assert_eq!(ja == jb, a.map_tree() == b.map_tree(), "{:?} vs {:?}", a, b);
            }
        }
    }
}

/// A three-level document inside `wraps` more arrays and objects, one
/// around the other — up to the 96 levels a response may nest, and past
/// them.
fn nested_document() -> impl Strategy<Value = Sent> {
    (
        sent_document(),
        prop::collection::vec((any::<bool>(), sent_key()), 0..=MAX_JSON_DEPTH - 2),
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
}

/// What decoding `frame` gives: the tree and the text it prints, or the
/// error's message.
fn decoded(frame: &[u8]) -> Result<(Json, String), String> {
    BinaryWire
        .decode_response(frame)
        .map(|(_, tree)| {
            let text = tree.to_string();
            (tree, text)
        })
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A response decoded level by level equals the tree built a
    /// container at a time from what was sent — unsorted keys, repeated
    /// keys (the last one wins), empty containers, 96 levels deep — and
    /// both codecs print it as they print that tree. Deeper than 96 is
    /// refused.
    #[test]
    fn a_level_built_response_is_the_tree_built_a_container_at_a_time(
        doc in prop_oneof![sent_document(), nested_document().boxed()],
    ) {
        let reference = doc.built();
        match BinaryWire.decode_response(&doc.frame()) {
            Ok((_, tree)) => {
                prop_assert_eq!(&tree, &reference);
                prop_assert_eq!(tree.to_string(), reference.to_string());
                let (mut frame, mut expected) = (Vec::new(), Vec::new());
                BinaryWire.encode_response(None, &tree, &mut frame);
                BinaryWire.encode_response(None, &reference, &mut expected);
                prop_assert_eq!(frame, expected);
            }
            Err(refused) => {
                prop_assert_eq!(refused.to_string(), "malformed request: response nested too deeply");
            }
        }
    }

    /// A decode that fails part way through a deep document leaves the
    /// next decode on the thread as a fresh thread's.
    #[test]
    fn a_failed_decode_leaves_nothing_for_the_next(
        doc in nested_document(),
        at in any::<prop::sample::Index>(),
        next in nested_document(),
    ) {
        let frame = doc.frame();
        prop_assert!(BinaryWire.decode_response(&frame[..at.index(frame.len())]).is_err());
        let next = next.frame();
        let here = decoded(&next);
        let fresh = std::thread::spawn({
            let next = next.clone();
            move || decoded(&next)
        })
        .join()
        .unwrap();
        prop_assert_eq!(here, fresh);
    }
}
