//! Property tests for the hand-rolled protocol JSON: document round
//! trips (strings that need escaping included), the no-panic guarantee
//! on truncated / mangled inputs — a hostile or cut-off line must
//! surface `JsonError`, never kill a connection handler — and the
//! request-envelope layer: arbitrary ids echo through serialize→parse,
//! batches of arbitrary requests round-trip positionally, and the request
//! decoder — which reads a line in place, without a tree — gives every
//! line, well-formed or not, the answer the tree-walking decoder it
//! replaced gave (kept here as the oracle). The compact tree — objects
//! as sorted blocks, short strings in place, one block per nesting level
//! — reads, prints and compares as the `BTreeMap` tree it replaced (kept
//! here as the reference) and as the tree built a container at a time.

use piql_core::plan::params::ParamValue;
use piql_core::value::Value;
use piql_engine::{Cursor, CursorState, Database};
use piql_server::json::{
    parse, write_array, write_bool, write_escaped, write_float, write_int, Json, JsonArr,
    JsonError, JsonMap, JsonStr, Scalar, Scanner, MAX_JSON_DEPTH,
};
use piql_server::protocol::{
    attach_id, cursor_to_json, envelope_to_line, extract_id, hex_decode, ok_response,
    param_to_json, parse_envelope, request_to_line, ProtoError,
};
use piql_server::testkit::linear_predictor;
use piql_server::{
    BinaryWire, Envelope, JsonWire, LiveCluster, LiveConfig, PiqlServer, Request, RequestId,
    SloConfig, StatementRegistry, Wire,
};
use piql_workloads::scadr::{self, ScadrConfig};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Strings mixing ASCII, escapes-required chars, control chars, wide BMP
/// chars, and (sometimes) an astral char that needs a surrogate pair in
/// `\u` form.
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

/// A scalar JSON value whose serialization round-trips exactly.
fn scalar() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        any::<f64>().prop_map(|f| Json::Float(if f.is_finite() { f } else { 0.0 })),
        string_content().prop_map(Json::str),
    ]
}

/// A bounded-depth document: scalars, arrays of scalars, and objects of
/// scalars/arrays (the shapes the wire protocol actually produces).
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

/// An arbitrary client-assigned request id (both flavors, awkward
/// strings included).
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

// ------------------------------------------------------------------ oracle
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

/// What a decoder answered, in a form that compares: the envelope (through
/// `Debug`, under which a NaN parameter equals itself) or the error text a
/// client would be sent.
fn answer(decoded: Result<Envelope, ProtoError>) -> Result<String, String> {
    decoded
        .map(|envelope| format!("{envelope:?}"))
        .map_err(|error| error.to_string())
}

// ------------------------------------------------- request-line generators

fn cursor() -> impl Strategy<Value = Cursor> {
    let bytes = || prop::collection::vec(any::<u8>(), 0..12);
    prop_oneof![
        bytes().prop_map(|last_key| CursorState::ScanAfter { last_key }),
        (bytes(), bytes())
            .prop_map(|(suffix, full_key)| CursorState::SortedJoinAfter { suffix, full_key }),
    ]
    .prop_map(|state| Cursor { state })
}

/// A cursor as it travels in a line: a string of hex digits.
fn hex_cursor() -> impl Strategy<Value = String> {
    cursor().prop_map(|c| cursor_to_json(&Some(c)).to_string())
}

/// Any request a client can send, batches and cursors included.
fn any_request() -> impl Strategy<Value = Request> {
    let params = || prop::collection::vec(param(), 0..4);
    prop_oneof![
        sub_request(),
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
        prop::collection::vec(sub_request(), 0..4).prop_map(|requests| Request::Batch { requests }),
    ]
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
        document().prop_map(|doc| doc.to_string()),
        param().prop_map(|p| param_to_json(&p).to_string()),
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
            param().prop_map(|p| param_to_json(&p).to_string()),
            param().prop_map(|p| param_to_json(&p).to_string()),
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
        sub_request().prop_map(|r| request_to_line(&r)),
        oddity(),
    ];
    object(field(array_of(sub_request)))
}

/// One edit of `line` at a character boundary: cut short there, or a
/// character dropped, doubled, or swapped for a piece of JSON syntax.
fn mutated(line: &str, at: prop::sample::Index, edit: u8) -> String {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every request round-trips through the in-place decoder, and the
    /// oracle reads the same thing out of the same line.
    #[test]
    fn decoder_agrees_with_the_oracle_on_requests(
        tagged in any::<bool>(),
        id in request_id(),
        request in any_request(),
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
        params in prop::collection::vec(param(), 0..4),
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
        request in any_request(),
        at in any::<prop::sample::Index>(),
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
        at in any::<prop::sample::Index>(),
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
    fn documents_roundtrip(doc in document()) {
        let text = doc.to_string();
        let reparsed = parse(&text);
        prop_assert_eq!(reparsed.as_ref(), Ok(&doc), "text: {}", text);
    }

    /// Every prefix of a valid document either parses or returns a
    /// `JsonError` — truncation can never panic. (The `parse` call itself
    /// is the assertion: a panic fails the test.)
    #[test]
    fn truncated_documents_never_panic(doc in document(), cut in any::<prop::sample::Index>()) {
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

    /// Any request under any id (or none) survives envelope
    /// serialize→parse exactly — the id-echo contract's client half.
    #[test]
    fn envelopes_roundtrip(
        tagged in any::<bool>(),
        id in request_id(),
        request in sub_request(),
    ) {
        let env = Envelope { id: tagged.then_some(id), request };
        let line = envelope_to_line(&env);
        prop_assert_eq!(parse_envelope(&line), Ok(env), "line: {}", line);
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

    /// A batch of arbitrary sub-requests round-trips with order and
    /// count preserved (positional identity is the whole batch contract).
    #[test]
    fn batches_roundtrip(requests in prop::collection::vec(sub_request(), 0..6)) {
        let env = Envelope {
            id: Some(RequestId::Int(7)),
            request: Request::Batch { requests },
        };
        let line = envelope_to_line(&env);
        prop_assert_eq!(parse_envelope(&line), Ok(env), "line: {}", line);
    }
}

// ------------------------------------------------ the tree it replaced
//
// `Json` holds an object as one sorted block of pairs and a short string
// in place. The tree it replaced held a `BTreeMap<String, _>` per object
// and a `String` per string; it is kept here, with its parser and its
// printer as they were, as the reference the compact tree must agree
// with: on what a text parses to, on the bytes a tree prints, and on
// which trees are equal.

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

fn map_parse(text: &str) -> Result<MapTree, JsonError> {
    let mut scanner = Scanner::new(text);
    let tree = map_tree(&mut scanner)?;
    scanner.finish()?;
    Ok(tree)
}

fn map_tree(s: &mut Scanner<'_>) -> Result<MapTree, JsonError> {
    Ok(match s.peek() {
        Some(b'{') => {
            s.begin_object()?;
            let mut fields = BTreeMap::new();
            while let Some(key) = s.next_key()? {
                let value = map_tree(s)?;
                fields.insert(key.into_owned(), value);
            }
            MapTree::Obj(fields)
        }
        Some(b'[') => {
            s.begin_array()?;
            let mut items = Vec::new();
            while s.next_item()? {
                items.push(map_tree(s)?);
            }
            MapTree::Arr(items)
        }
        _ => match s.scalar()? {
            Scalar::Null => MapTree::Null,
            Scalar::Bool(b) => MapTree::Bool(b),
            Scalar::Int(i) => MapTree::Int(i),
            Scalar::Float(f) => MapTree::Float(f),
            Scalar::Str(s) => MapTree::Str(s.into_owned()),
        },
    })
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

fn printed(tree: &MapTree) -> String {
    let mut out = Vec::new();
    map_print(tree, &mut out);
    String::from_utf8(out).unwrap()
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

/// A string on either side of the 22 bytes `JsonStr` holds in place: a
/// run of ASCII and then nothing, one more byte, a two- or four-byte
/// character that straddles the line, or a character that prints escaped.
fn edge_string() -> impl Strategy<Value = String> {
    const TAILS: &[&str] = &["", "x", "é", "🦀", "\n", "\"", "\u{7}", "\\", "/"];
    (18usize..26, 0..TAILS.len()).prop_map(|(n, t)| format!("{}{}", "k".repeat(n), TAILS[t]))
}

/// Every character as a `\u` escape (astral ones as surrogate pairs), so
/// a text far longer than what it decodes to.
fn escape_all(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04x}"));
    }
    out.push('"');
    out
}

/// A string as a text holds it: escaped only where it must be, or
/// everywhere.
fn string_text() -> impl Strategy<Value = String> {
    (prop_oneof![edge_string(), string_content()], any::<bool>()).prop_map(|(s, all)| {
        if all {
            escape_all(&s)
        } else {
            Json::str(s).to_string()
        }
    })
}

/// A key: often one of a few, so objects repeat keys.
fn key_text() -> impl Strategy<Value = String> {
    const COMMON: &[&str] = &["a", "b", "id", "ok", "rows", "kkkkkkkkkkkkkkkkkkkkkkk"];
    prop_oneof![
        (0..COMMON.len()).prop_map(|i| format!("\"{}\"", COMMON[i])),
        (0..COMMON.len()).prop_map(|i| format!("\"{}\"", COMMON[i])),
        string_text(),
    ]
}

fn scalar_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("null".to_string()),
        any::<bool>().prop_map(|b| b.to_string()),
        any::<i64>().prop_map(|i| i.to_string()),
        any::<f64>().prop_map(|f| Json::Float(if f.is_finite() { f } else { 0.5 }).to_string()),
        string_text(),
        string_text(),
    ]
}

/// An object's text with its pairs in the order given: unsorted, and with
/// repeated keys.
fn object_text(pairs: Vec<(String, String)>) -> String {
    let pairs: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!("{{{}}}", pairs.join(","))
}

fn level(value: impl Fn() -> BoxedStrategy<String>) -> BoxedStrategy<String> {
    prop_oneof![
        value(),
        prop::collection::vec(value(), 0..6).prop_map(|items| format!("[{}]", items.join(","))),
        prop::collection::vec((key_text(), value()), 0..7).prop_map(object_text),
    ]
    .boxed()
}

/// The text of a document three levels deep.
fn document_text() -> BoxedStrategy<String> {
    level(|| level(|| level(|| scalar_text().boxed())))
}

/// The first `cut` characters of `text`, wherever the cut falls.
fn cut(text: &str, at: prop::sample::Index) -> &str {
    let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
    match boundaries.len() {
        0 => text,
        n => &text[..boundaries[at.index(n)]],
    }
}

/// What parsing `text` gives: the tree and the bytes it prints, or the
/// error.
fn parsed(text: &str) -> Result<(Json, String), JsonError> {
    parse(text).map(|tree| {
        let bytes = tree.to_string();
        (tree, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every text, whole or cut short, parses to what the map tree reads
    /// from it — or fails where and as it fails — and prints the same
    /// bytes.
    #[test]
    fn the_compact_tree_reads_and_prints_as_the_map_tree(
        text in document_text(),
        damaged in any::<bool>(),
        at in any::<prop::sample::Index>(),
    ) {
        let text = if damaged { cut(&text, at) } else { &text };
        match (parse(text), map_parse(text)) {
            (Ok(tree), Ok(reference)) => {
                prop_assert_eq!(&as_map_tree(&tree), &reference, "text: {}", text);
                prop_assert_eq!(tree.to_string(), printed(&reference), "text: {}", text);
            }
            (tree, reference) => prop_assert_eq!(tree.err(), reference.err(), "text: {}", text),
        }
    }

    /// The same pairs in another order, or a repeat moved, make equal
    /// trees exactly when they make equal map trees.
    #[test]
    fn the_compact_tree_is_equal_where_the_map_tree_is(
        pairs in prop::collection::vec((key_text(), scalar_text()), 0..7),
        turn in any::<prop::sample::Index>(),
        other in document_text(),
    ) {
        let mut turned = pairs.clone();
        turned.rotate_left(turn.index(pairs.len().max(1)).min(pairs.len()));
        let texts = [object_text(pairs), object_text(turned), other];
        for a in &texts {
            for b in &texts {
                let (Ok(ja), Ok(jb)) = (parse(a), parse(b)) else { continue };
                let (ma, mb) = (map_parse(a).unwrap(), map_parse(b).unwrap());
                prop_assert_eq!(ja == jb, ma == mb, "{} vs {}", a, b);
            }
        }
    }

    /// A parse that fails part way leaves nothing behind: the next parse
    /// on the same thread gives exactly what a fresh thread gives.
    #[test]
    fn a_failed_parse_leaves_nothing_for_the_next(
        text in document_text(),
        at in any::<prop::sample::Index>(),
        next in document_text(),
    ) {
        let _ = parse(cut(&text, at));
        let here = parsed(&next);
        let fresh = std::thread::spawn({
            let next = next.clone();
            move || parsed(&next)
        })
        .join()
        .unwrap();
        prop_assert_eq!(here, fresh, "text: {}", next);
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

// ------------------------------------------------- blocks shared by level
//
// A parsed tree keeps the members of all the arrays on one nesting level
// in one block, and those of all the objects in another. It must read,
// compare and print — on both codecs — as the tree built a container at a
// time, each array and object a block of its own from its members in the
// order the text gives them (`JsonArr::from(Vec)`, `JsonMap::from(Vec)`).

fn container_at_a_time(s: &mut Scanner<'_>) -> Result<Json, JsonError> {
    Ok(match s.peek() {
        Some(b'{') => {
            s.begin_object()?;
            let mut pairs = Vec::new();
            while let Some(key) = s.next_key()? {
                let value = container_at_a_time(s)?;
                pairs.push((JsonStr::from(key), value));
            }
            Json::Obj(JsonMap::from(pairs))
        }
        Some(b'[') => {
            s.begin_array()?;
            let mut items = Vec::new();
            while s.next_item()? {
                items.push(container_at_a_time(s)?);
            }
            Json::Arr(JsonArr::from(items))
        }
        _ => match s.scalar()? {
            Scalar::Null => Json::Null,
            Scalar::Bool(b) => Json::Bool(b),
            Scalar::Int(i) => Json::Int(i),
            Scalar::Float(f) => Json::Float(f),
            Scalar::Str(s) => Json::str(s),
        },
    })
}

fn built_container_at_a_time(text: &str) -> Result<Json, JsonError> {
    let mut scanner = Scanner::new(text);
    let tree = container_at_a_time(&mut scanner)?;
    scanner.finish()?;
    Ok(tree)
}

fn binary(tree: &Json) -> Vec<u8> {
    let mut frame = Vec::new();
    BinaryWire.encode_response(None, tree, &mut frame);
    frame
}

/// A three-level document inside `wrap` more arrays and objects, one
/// around the other — up to the 96 levels a text may nest, and past them.
fn nested_text() -> impl Strategy<Value = String> {
    (
        document_text(),
        prop::collection::vec((any::<bool>(), key_text()), 0..=MAX_JSON_DEPTH - 2),
    )
        .prop_map(|(mut text, wraps)| {
            for (array, key) in wraps {
                text = if array {
                    format!("[{text}]")
                } else {
                    format!("{{{key}:{text}}}")
                };
            }
            text
        })
}

/// An array of objects, which share the block of their level, with the
/// keys they repeat among them.
fn shared_objects_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::collection::vec((key_text(), scalar_text()), 0..7).prop_map(object_text),
        1..5,
    )
    .prop_map(|objects| format!("[{}]", objects.join(",")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every text, whole or cut short: the tree parse builds level by
    /// level equals the one built a container at a time, prints the same
    /// text and the same binary frame, and debugs the same — or both fail
    /// alike.
    #[test]
    fn a_level_built_tree_is_the_tree_built_a_container_at_a_time(
        text in prop_oneof![document_text(), nested_text().boxed()],
        damaged in any::<bool>(),
        at in any::<prop::sample::Index>(),
    ) {
        let text = if damaged { cut(&text, at) } else { &text };
        match (parse(text), built_container_at_a_time(text)) {
            (Ok(tree), Ok(reference)) => {
                prop_assert_eq!(&tree, &reference, "text: {}", text);
                prop_assert_eq!(tree.to_string(), reference.to_string());
                prop_assert_eq!(binary(&tree), binary(&reference));
                prop_assert_eq!(format!("{tree:?}"), format!("{reference:?}"));
            }
            (tree, reference) => prop_assert_eq!(tree.err(), reference.err(), "text: {}", text),
        }
    }

    /// A parse of a deep document that fails part way leaves the next
    /// parse on the thread as a fresh thread's.
    #[test]
    fn a_deep_parse_that_fails_leaves_nothing_for_the_next(
        text in nested_text(),
        at in any::<prop::sample::Index>(),
        next in nested_text(),
    ) {
        let _ = parse(cut(&text, at));
        let here = parsed(&next);
        let fresh = std::thread::spawn({
            let next = next.clone();
            move || parsed(&next)
        })
        .join()
        .unwrap();
        prop_assert_eq!(here, fresh, "text: {}", next);
    }

    /// Inserting and removing keys on one map of a level whose objects
    /// share a block agrees with a `BTreeMap` given the same calls, and
    /// leaves every other map of the level as it was.
    #[test]
    fn editing_a_map_of_a_shared_level_leaves_its_siblings_alone(
        text in shared_objects_text(),
        which in any::<prop::sample::Index>(),
        edits in prop::collection::vec((any::<bool>(), key_text(), any::<i64>()), 0..12),
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
        for (insert, key, value) in edits {
            // the key's text is JSON: a quoted string, maybe escaped
            let Json::Str(key) = parse(&key).unwrap() else { unreachable!() };
            if insert {
                prop_assert_eq!(
                    map.insert(key.clone(), Json::Int(value)).map(|j| as_map_tree(&j)),
                    reference.insert(key.to_string(), MapTree::Int(value))
                );
            } else {
                prop_assert_eq!(
                    map.remove(&key).map(|j| as_map_tree(&j)),
                    reference.remove(key.as_str())
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

// ----------------------------------------------------- the kept request
//
// A connection decodes each line into the envelope it keeps
// (`JsonWire::decode_into`), which must leave nothing of one request in
// the next: after each line it holds what `parse_envelope` makes of that
// line alone, and a connection answers as a fresh one per line does.

/// Texts a connection sends again and again, and some it sends once.
fn reused_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("q".to_string()),
        Just("INSERT".to_string()),
        string_content()
    ]
}

/// Parameter lists that make one slot change kind from line to line:
/// scalars, `Varchar`s of any length, collections, longer and shorter
/// lists.
fn reused_params() -> impl Strategy<Value = Vec<ParamValue>> {
    let param = prop_oneof![
        scalar_value().prop_map(ParamValue::Scalar),
        string_content().prop_map(|s| ParamValue::Scalar(Value::Varchar(s))),
        prop::collection::vec(scalar_value(), 0..4).prop_map(ParamValue::Collection),
    ];
    prop::collection::vec(param, 0..6)
}

/// The verbs decoded in place, over the texts above.
fn in_place_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (reused_text(), reused_params()).prop_map(|(sql, params)| Request::Dml { sql, params }),
        (reused_text(), reused_params()).prop_map(|(name, params)| Request::Execute {
            name,
            params,
            cursor: None,
        }),
    ]
}

/// What a connection is sent in a row: mostly the verbs decoded in place,
/// alone or in batches that grow and shrink, so a slot switches between
/// `execute` and `dml`; and the others to switch the slot away and back.
fn reused_request() -> impl Strategy<Value = Request> {
    let batch = || {
        prop::collection::vec(in_place_request(), 0..6)
            .prop_map(|requests| Request::Batch { requests })
    };
    prop_oneof![
        in_place_request(),
        in_place_request(),
        in_place_request(),
        batch(),
        batch(),
        (reused_text(), reused_text()).prop_map(|(name, sql)| Request::Prepare { name, sql }),
        any_request(),
    ]
}

/// One line of a sequence: a request under an id or none, sometimes
/// edited into a malformed one.
fn line_in_sequence() -> impl Strategy<Value = String> {
    let id = prop_oneof![
        Just(None),
        request_id().prop_map(Some),
        request_id().prop_map(Some)
    ];
    let edit = prop_oneof![
        Just(None),
        Just(None),
        (any::<prop::sample::Index>(), any::<u8>()).prop_map(Some),
    ];
    (id, reused_request(), edit).prop_map(|(id, request, edit)| {
        let line = envelope_to_line(&Envelope { id, request });
        match edit {
            None => line,
            Some((at, edit)) => mutated(&line, at, edit),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Decoding into one reused envelope, line after line — `execute` and
    /// `dml` switching, batches growing and shrinking, longer and shorter
    /// parameter lists, a slot turning from scalar to collection to
    /// `Varchar`, an id present then absent, malformed lines between —
    /// gives after each line what `parse_envelope` makes of that line
    /// alone, the error included.
    #[test]
    fn decoding_into_a_reused_request_is_decoding_afresh(
        lines in prop::collection::vec(line_in_sequence(), 1..16),
    ) {
        let mut reused = Envelope { id: None, request: Request::Stats };
        for line in &lines {
            let into = JsonWire
                .decode_into(line.as_bytes(), &mut reused)
                .map(|()| reused.clone());
            prop_assert_eq!(into, parse_envelope(line), "line: {}", line);
        }
    }
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
            SloConfig {
                slo_ms: 1e9,
                interval_confidence: 1.0,
                allow_degrade: false,
            },
        ));
        let q = scadr::queries(&config);
        registry.register("q", &q.recent_thoughts).unwrap();
        registry.register("INSERT", &q.find_user).unwrap();
        PiqlServer::start_with_registry(registry, "127.0.0.1:0").unwrap()
    })
}

/// A line for the served sequence: the texts it uses are the registered
/// statements and the insert the servers' stores accept, alone or in
/// batches, under an id or none, its parameters of every kind — so some
/// lines run and some fail — and sometimes cut short.
fn served_line() -> impl Strategy<Value = String> {
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
    (id, request, any::<prop::sample::Index>(), any::<bool>()).prop_map(
        |(id, request, cut, truncate)| {
            let mut line = envelope_to_line(&Envelope { id, request });
            // the line is ASCII; never cut to nothing, for a blank line is
            // not a request and gets no answer
            if truncate {
                line.truncate(cut.index(line.len()).max(1));
            }
            line
        },
    )
}

/// Send `line` on `conn`, in one write, and read its answer.
fn ask(conn: &mut BufReader<TcpStream>, line: &str) -> String {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut answer = String::new();
    conn.read_line(&mut answer).unwrap();
    answer
}

fn connect(server: &PiqlServer) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(server.local_addr()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A JSON connection that keeps its envelopes — the reader's, and those
    /// its tagged requests take to the dispatch pool and hand back —
    /// answers a sequence of tagged and untagged lines byte for byte as a
    /// fresh connection per line does.
    #[test]
    fn a_kept_request_answers_as_a_fresh_connection_does(
        lines in prop::collection::vec(served_line(), 1..24),
    ) {
        let [kept, fresh] = twin_servers();
        let mut conn = connect(&kept);
        for line in &lines {
            let alone = ask(&mut connect(&fresh), line);
            prop_assert_eq!(ask(&mut conn, line), alone, "line: {}", line);
        }
    }
}
