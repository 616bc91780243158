//! The streamed response encoders against the tree's: for arbitrary
//! replies, `Wire::encode_reply` — which writes rows straight from their
//! block and never builds a `Json` — emits byte for byte what
//! `Wire::encode_response` makes of `reply.into_json()`, on both codecs,
//! and what it emits decodes back. This is what lets the server answer
//! through `encode_reply` while `handle_request`, the clients and the
//! differential tests keep speaking trees.

use piql_core::rows::Rows;
use piql_core::tuple::Tuple;
use piql_core::value::Value;
use piql_engine::{Cursor, CursorState};
use piql_server::json::Json;
use piql_server::protocol::{attach_id, budget_exceeded_response, err_response, ok_response};
use piql_server::{BinaryWire, JsonWire, Reply, RequestId, Wire};
use proptest::prelude::*;

/// Strings mixing ASCII, chars that need an escape (short and `\u00XX`
/// forms), wide BMP chars and (sometimes) astral chars.
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

/// All seven kinds; `any` draws NaN, ±Inf, −0.0, `MIN` and `MAX` often.
fn value() -> impl Strategy<Value = Value> {
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

fn cursor() -> impl Strategy<Value = Option<Cursor>> {
    let bytes = || prop::collection::vec(any::<u8>(), 0..40);
    prop_oneof![
        Just(None),
        bytes().prop_map(|last_key| Some(CursorState::ScanAfter { last_key })),
        (bytes(), bytes())
            .prop_map(|(suffix, full_key)| Some(CursorState::SortedJoinAfter { suffix, full_key })),
    ]
    .prop_map(|state| state.map(|state| Cursor { state }))
}

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
    // one arity per reply: rows are drawn at the widest and cut to it
    let rows = (
        0usize..6,
        prop::collection::vec(prop::collection::vec(value(), 5), 0..5),
    )
        .prop_map(|(arity, rows)| {
            let cut = |mut row: Vec<Value>| {
                row.truncate(arity);
                Tuple::new(row)
            };
            Rows::from(rows.into_iter().map(cut).collect::<Vec<_>>())
        });
    prop_oneof![
        (rows, cursor(), any::<bool>()).prop_map(|(rows, cursor, degraded)| Reply::Rows {
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

fn request_id() -> impl Strategy<Value = Option<RequestId>> {
    prop_oneof![
        Just(None),
        any::<i64>().prop_map(|i| Some(RequestId::Int(i))),
        string_content().prop_map(|s| Some(RequestId::Str(s))),
    ]
}

/// The tree printer as it was before responses were streamed — a `String`
/// built char by char, numbers through `to_string` — kept here as the
/// oracle for the text both `encode_response` and `encode_reply` now write
/// into a byte buffer. (The binary tree encoder did not change.)
fn reference_print(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(f) if f.is_finite() => {
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Json::Float(_) => out.push_str("null"),
        Json::Str(s) => reference_escape(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_print(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_escape(k, out);
                out.push(':');
                reference_print(v, out);
            }
            out.push('}');
        }
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

/// `encode_reply` against `encode_response` of the tree, then back: the
/// frame decodes, echoes the id, and its body re-encodes to the same
/// bytes (byte equality, because NaN never equals itself as a value).
fn streams_what_the_tree_prints(
    wire: &dyn Wire,
    (framing_before, framing_after): (usize, usize),
    id: Option<&RequestId>,
    reply: &Reply,
) -> Result<(), TestCaseError> {
    let tree = reply.clone().into_json();
    let (mut streamed, mut printed) = (Vec::new(), Vec::new());
    wire.encode_reply(id, reply, &mut streamed);
    wire.encode_response(id, &tree, &mut printed);
    prop_assert_eq!(&streamed, &printed);

    let frame = &streamed[framing_before..streamed.len() - framing_after];
    let (echoed, body) = match wire.decode_response(frame) {
        Ok(decoded) => decoded,
        Err(e) => return Err(TestCaseError::fail(format!("does not decode: {e}"))),
    };
    // JSON carries the id in the body, which only an object can hold
    let carried = match (wire.version(), &tree) {
        (2, Json::Obj(_)) | (3, _) => id,
        _ => None,
    };
    prop_assert_eq!(echoed.as_ref(), carried);
    let mut again = Vec::new();
    wire.encode_response(id, &body, &mut again);
    prop_assert_eq!(&again, &streamed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_encode_reply_is_byte_identical_to_the_tree(id in request_id(), reply in reply()) {
        // a line: nothing before, the newline after
        streams_what_the_tree_prints(&JsonWire, (0, 1), id.as_ref(), &reply)?;

        let mut tagged = reply.clone().into_json();
        if let Some(id) = &id {
            attach_id(&mut tagged, id);
        }
        let mut expected = String::new();
        reference_print(&tagged, &mut expected);
        expected.push('\n');
        let mut streamed = Vec::new();
        JsonWire.encode_reply(id.as_ref(), &reply, &mut streamed);
        prop_assert_eq!(String::from_utf8_lossy(&streamed), expected);
    }

    #[test]
    fn binary_encode_reply_is_byte_identical_to_the_tree(id in request_id(), reply in reply()) {
        // a frame: the length prefix before, nothing after
        streams_what_the_tree_prints(&BinaryWire, (4, 0), id.as_ref(), &reply)?;
    }
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
        for wire in [&JsonWire as &dyn Wire, &BinaryWire] {
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
        for wire in [&JsonWire as &dyn Wire, &BinaryWire] {
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
