//! End-to-end binary (v3) protocol tests against a `LiveCluster`-backed
//! server: codec negotiation (magic / hello / clean failure against a
//! v2-only endpoint), mixed v2+v3 clients sharing one server, pipelining,
//! the malformed-frame id echo, and the acceptance property of the hot
//! path — fast point-read responses byte-identical to the general path's,
//! with `fast_point_reads` accounting for them.

use piql_core::codec::row::encode_tuple;
use piql_core::plan::params::ParamValue;
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::{ClusterConfig, KvStore, LiveCluster, LiveConfig, Session, SimCluster};
use piql_server::server::handle_request;
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{
    BinaryConn, BinaryWire, Client, Envelope, Json, PiqlServer, Request, RequestId,
    StatementRegistry, Wire,
};
use piql_workloads::scadr::{self, ScadrConfig};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;

const POINT: &str = "SELECT * FROM users WHERE username = <u>";

fn scadr_config() -> ScadrConfig {
    ScadrConfig {
        users_per_node: 20,
        thoughts_per_user: 11,
        subscriptions_per_user: 4,
        ..Default::default()
    }
}

fn scadr_db() -> Arc<Database<LiveCluster>> {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    scadr::setup(&db, &scadr_config(), 2).unwrap();
    db
}

fn start_server() -> PiqlServer {
    PiqlServer::start(
        scadr_db(),
        linear_predictor(200, 100, 2),
        permissive_slo(),
        "127.0.0.1:0",
    )
    .unwrap()
}

fn uname_param(i: usize) -> Vec<ParamValue> {
    vec![Value::Varchar(scadr::username(i)).into()]
}

#[test]
fn binary_client_negotiates_and_matches_json_client() {
    let server = start_server();
    let addr = server.local_addr();

    let mut v2 = Client::connect(addr).unwrap();
    let mut v3 = Client::connect_binary(addr).unwrap();
    assert_eq!(v2.wire_version(), 2);
    assert_eq!(v3.wire_version(), 3);

    let verdict = v3.prepare("point", POINT).unwrap();
    assert_eq!(
        verdict.get("status").and_then(Json::as_str),
        Some("admitted")
    );

    // the same point reads over both codecs decode to the same pages
    for i in [0, 3, 7, 19] {
        let a = v2.execute("point", &uname_param(i), None).unwrap();
        let b = v3.execute("point", &uname_param(i), None).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rows.len(), 1);
    }
    // a miss answers an empty page on both
    let params = vec![Value::Varchar("no-such-user".into()).into()];
    let a = v2.execute("point", &params, None).unwrap();
    let b = v3.execute("point", &params, None).unwrap();
    assert_eq!(a, b);
    assert!(a.rows.is_empty());

    // every v3 point read went through the fast path
    let fast = server
        .registry()
        .counters
        .fast_point_reads
        .load(Ordering::Relaxed);
    assert_eq!(fast, 5);

    // a paginated statement falls back transparently over v3
    v3.prepare(
        "stream",
        "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 4",
    )
    .unwrap();
    let page = v3.execute("stream", &uname_param(5), None).unwrap();
    assert_eq!(page.rows.len(), 4);
    let next = v3
        .cursor_next("stream", &uname_param(5), page.cursor.unwrap())
        .unwrap();
    assert_eq!(next.rows.len(), 4);

    // a v3 write is visible to the v2 reader: one server, one store
    v3.dml(
        "INSERT INTO users (username, password, home_town) VALUES (<u>, <p>, <h>)",
        &[
            Value::Varchar("binary-born".into()).into(),
            Value::Varchar("hash".into()).into(),
            Value::Varchar("town".into()).into(),
        ],
    )
    .unwrap();
    let seen = v2
        .execute(
            "point",
            &[Value::Varchar("binary-born".into()).into()],
            None,
        )
        .unwrap();
    assert_eq!(seen.rows.len(), 1);

    // control verbs work over v3 too
    let stats = v3.stats().unwrap();
    assert!(stats.get("statements").and_then(Json::as_arr).is_some());
    assert!(v3.revalidate().unwrap().get("sweep").is_some());
}

#[test]
fn fast_point_response_is_byte_identical_to_general_path() {
    let db = scadr_db();
    let registry = Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
    ));
    registry.register("point", POINT).unwrap();
    let statement = registry.get("point").unwrap();
    assert!(
        statement.fast_point().is_some(),
        "full-pk equality lookup must qualify for the fast path"
    );

    let wire = BinaryWire;
    let mut conn = BinaryConn::new(registry.clone());
    let cases = [
        (Some(RequestId::Int(17)), scadr::username(4)),
        (Some(RequestId::Str("req-β".into())), scadr::username(9)),
        (None, scadr::username(12)),
        (Some(RequestId::Int(-1)), "no-such-user".to_string()), // miss
    ];
    let n = cases.len() as u64;
    for (id, user) in cases {
        let env = Envelope {
            id,
            request: Request::Execute {
                name: "point".into(),
                params: vec![Value::Varchar(user).into()],
                cursor: None,
            },
        };
        let mut frame = Vec::new();
        wire.encode_envelope(&env, &mut frame);
        conn.handle_frame(&frame[4..]);

        // the general path's encoding of the same request
        let mut session = Session::new();
        let response = handle_request(&env.request, &mut session, &registry);
        let mut expected = Vec::new();
        wire.encode_response(env.id.as_ref(), &response, &mut expected);

        assert_eq!(conn.output(), &expected[..]);
        conn.clear_output();
    }
    assert_eq!(
        registry.counters.fast_point_reads.load(Ordering::Relaxed),
        n
    );
    // fast handles + their general twins both count as executions
    assert_eq!(registry.counters.executed.load(Ordering::Relaxed), 2 * n);
    assert_eq!(statement.executions.load(Ordering::Relaxed), 2 * n);
}

/// `registry` with the point read registered under a tenant, `acme`.
fn acme_point<S: KvStore>(db: Arc<Database<S>>) -> Arc<StatementRegistry<S>> {
    let registry = Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
    ));
    registry.register("acme.point", POINT).unwrap();
    assert!(registry.get("acme.point").unwrap().fast_point().is_some());
    registry
}

/// Hand `conn` one execute of `acme.point`: the admissions it cost the
/// tenant's budget, after checking that the answer is the general path's,
/// byte for byte.
fn admissions<S: KvStore>(
    conn: &mut BinaryConn<S>,
    registry: &StatementRegistry<S>,
    params: Vec<ParamValue>,
    cursor: Option<piql_engine::Cursor>,
    what: &str,
) -> u64 {
    let budget = registry.get("acme.point").unwrap().budget().clone();
    let env = Envelope {
        id: Some(RequestId::Int(5)),
        request: Request::Execute {
            name: "acme.point".into(),
            params,
            cursor,
        },
    };
    let wire = BinaryWire;
    let mut frame = Vec::new();
    wire.encode_envelope(&env, &mut frame);
    let before = budget.snapshot().admitted;
    conn.handle_frame(&frame[4..]);
    let admitted = budget.snapshot().admitted - before;

    let response = handle_request(&env.request, &mut Session::new(), registry);
    let mut expected = Vec::new();
    wire.encode_response(env.id.as_ref(), &response, &mut expected);
    assert_eq!(conn.output(), &expected[..], "{what}");
    conn.clear_output();
    admitted
}

/// A frame the fast lane starts on and then hands to the general path is
/// one execution: the tenant's budget admits it once, and the answer is
/// the general path's, byte for byte. The lane declines before it admits
/// on a collection where the key's scalar goes and on an explicit cursor;
/// it learns only after the read that a backend has no fast get, or that
/// the stored row is not one it can transcode.
#[test]
fn a_frame_the_fast_lane_declines_is_admitted_once() {
    use piql_core::codec::key::encode_key_asc;
    use piql_engine::{Cursor, CursorState};
    let db = scadr_db();
    // two stored rows the lane cannot transcode: bytes no row decoder
    // takes, and a row of the wrong arity
    let users = db.store().namespace("t/users");
    let pk = |name: &str| encode_key_asc(&[Value::Varchar(name.into())]).unwrap();
    db.cluster().bulk_put(users, pk("garbled"), vec![0xFF; 3]);
    let short_row = encode_tuple(&piql_core::tuple!["short"]);
    db.cluster().bulk_put(users, pk("short"), short_row);
    let registry = acme_point(db);

    let user = Value::Varchar(scadr::username(4));
    let declined = [
        (
            vec![ParamValue::Collection(vec![user.clone()])],
            None,
            "collection parameter",
        ),
        (
            vec![user.clone().into()],
            Some(Cursor {
                state: CursorState::ScanAfter { last_key: vec![0] },
            }),
            "explicit cursor",
        ),
        (
            vec![Value::Varchar("garbled".into()).into()],
            None,
            "a stored row no decoder takes",
        ),
        (
            vec![Value::Varchar("short".into()).into()],
            None,
            "a stored row of the wrong arity",
        ),
    ];
    let mut conn = BinaryConn::new(registry.clone());
    for (params, cursor, what) in declined {
        let admitted = admissions(&mut conn, &registry, params, cursor, what);
        assert_eq!(admitted, 1, "{what}: one frame, one admission");
    }
    assert_eq!(
        registry.counters.fast_point_reads.load(Ordering::Relaxed),
        0
    );
    // the frame the fast lane does serve is admitted once as well
    let served = admissions(
        &mut conn,
        &registry,
        vec![user.clone().into()],
        None,
        "served",
    );
    assert_eq!(served, 1);
    assert_eq!(
        registry.counters.fast_point_reads.load(Ordering::Relaxed),
        1
    );

    // a backend without a fast get declines after the lane has begun
    let sim = Arc::new(Database::new(Arc::new(SimCluster::new(
        ClusterConfig::instant(2),
    ))));
    scadr::setup(&sim, &scadr_config(), 2).unwrap();
    let registry = acme_point(sim);
    let mut conn = BinaryConn::new(registry.clone());
    let what = "a backend without a fast get";
    let admitted = admissions(&mut conn, &registry, vec![user.into()], None, what);
    assert_eq!(admitted, 1, "{what}: one frame, one admission");
    assert_eq!(
        registry.counters.fast_point_reads.load(Ordering::Relaxed),
        0
    );
}

/// The fast lane reads the tenant's budget on every frame: a cap set
/// between two frames on one connection refuses the second before it
/// reaches the store, and lifting the cap puts the third back on the lane.
#[test]
fn a_budget_reconfigured_between_frames_is_honoured() {
    use piql_server::BudgetPolicy;
    let db = scadr_db();
    let cluster = db.cluster().clone();
    let registry = acme_point(db);
    let mut conn = BinaryConn::new(registry.clone());
    let user = || vec![Value::Varchar(scadr::username(4)).into()];
    let fast = || registry.counters.fast_point_reads.load(Ordering::Relaxed);

    assert_eq!(admissions(&mut conn, &registry, user(), None, "open"), 1);
    assert_eq!(fast(), 1);
    registry.set_tenant_budget("acme", Some(0), BudgetPolicy::Reject);
    let ops = cluster.op_count();
    assert_eq!(admissions(&mut conn, &registry, user(), None, "capped"), 0);
    assert_eq!(cluster.op_count(), ops, "a refused frame reads nothing");
    assert_eq!(fast(), 1);
    registry.set_tenant_budget("acme", None, BudgetPolicy::Reject);
    assert_eq!(
        admissions(&mut conn, &registry, user(), None, "reopened"),
        1
    );
    assert_eq!(fast(), 2);
}

#[test]
fn malformed_binary_payload_echoes_header_id() {
    let server = start_server();
    let mut client = Client::connect_binary(server.local_addr()).unwrap();
    let raw = client.raw_stream().unwrap();

    // valid header (opcode `execute`, int id 77), garbage payload
    let mut body = vec![piql_server::binary::OP_EXECUTE, 1];
    body.extend_from_slice(&77i64.to_le_bytes());
    body.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    let mut w = raw;
    w.write_all(&frame).unwrap();
    w.flush().unwrap();

    let response = client.raw_read_line().unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(response.get("id"), Some(&Json::Int(77)));
    assert!(response.get("error").is_some());

    // the stream survives: the next well-formed request still answers
    client.prepare("point", POINT).unwrap();
    let page = client.execute("point", &uname_param(2), None).unwrap();
    assert_eq!(page.rows.len(), 1);
}

/// The `cursor-next` verb still answers over a socket on both codecs,
/// though [`Client::cursor_next`] no longer sends it: the request a
/// 2bf91e6 client wrote — `execute` with the verb swapped — gets the page
/// `execute` with the same cursor gets.
#[test]
fn a_raw_cursor_next_answers_the_page_execute_with_the_cursor_does() {
    use piql_server::JsonWire;
    let server = start_server();
    let addr = server.local_addr();
    let mut v2 = Client::connect(addr).unwrap();
    v2.prepare(
        "stream",
        "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 4",
    )
    .unwrap();
    let first = v2.execute("stream", &uname_param(5), None).unwrap();
    let resume = Request::Execute {
        name: "stream".into(),
        params: uname_param(5),
        cursor: first.cursor,
    };
    let envelope = Envelope {
        id: Some(RequestId::Int(9)),
        request: resume.clone(),
    };

    let mut line = Vec::new();
    JsonWire.encode_envelope(&envelope, &mut line);
    let line = String::from_utf8(line).unwrap().replacen(
        r#""cmd":"execute""#,
        r#""cmd":"cursor-next""#,
        1,
    );
    assert!(line.contains(r#""cmd":"cursor-next""#), "{line}");
    let mut frame = Vec::new();
    BinaryWire.encode_envelope(&envelope, &mut frame);
    assert_eq!(frame[4], piql_server::binary::OP_EXECUTE);
    frame[4] = piql_server::binary::OP_CURSOR_NEXT;

    let v3 = Client::connect_binary(addr).unwrap();
    for (mut client, raw) in [(v2, line.into_bytes()), (v3, frame)] {
        let codec = client.wire_version();
        let mut w = client.raw_stream().unwrap();
        w.write_all(&raw).unwrap();
        w.flush().unwrap();
        let answer = client.raw_read_line().unwrap();
        assert_eq!(answer.get("id"), Some(&Json::Int(9)), "v{codec}");
        let page = piql_server::decode_page(&answer).unwrap();
        assert_eq!(page.rows.len(), 4, "v{codec}");
        assert_ne!(page.rows, first.rows, "v{codec}: the second page");
        let executed = client.request(&resume).unwrap();
        assert_eq!(
            page,
            piql_server::decode_page(&executed).unwrap(),
            "v{codec}"
        );
    }
}

#[test]
fn binary_pipeline_reassembles_positionally() {
    let server = start_server();
    let mut client = Client::connect_binary(server.local_addr()).unwrap();
    client.prepare("point", POINT).unwrap();

    let mut pipeline = client.pipeline();
    for i in 0..20 {
        pipeline.queue_execute("point", &uname_param(i % 40));
    }
    let responses = pipeline.flush().unwrap();
    assert_eq!(responses.len(), 20);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let page = piql_server::decode_page(response).unwrap();
        assert_eq!(page.rows.len(), 1, "request {i}");
    }
}

#[test]
fn binary_client_fails_cleanly_against_a_v2_only_endpoint() {
    // a v2-only server reads the magic as one garbage line and answers a
    // JSON error line; the v3 client must fail with InvalidData, not hang
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake_v2 = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = Vec::new();
        reader.read_until(b'\n', &mut line).unwrap();
        let mut w = stream;
        w.write_all(b"{\"ok\":false,\"error\":\"malformed request\"}\n")
            .unwrap();
    });
    let err = match Client::connect_binary(addr) {
        Err(e) => e,
        Ok(_) => panic!("negotiation against a v2-only endpoint must fail"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("does not speak v3"), "{err}");
    fake_v2.join().unwrap();
}

/// Every lane that executes a statement books it the same way: one more
/// `stats.executed` and one more of the statement's `executions`, whose
/// count places its latency in the statement's ring — and the fast lane
/// alone adds a `fast_point_reads`.
#[test]
fn every_lane_books_an_execution_once() {
    let server = start_server();
    let addr = server.local_addr();
    let mut v3 = Client::connect_binary(addr).unwrap();
    let mut v2 = Client::connect(addr).unwrap();
    v2.prepare("point", POINT).unwrap();
    v2.prepare(
        "stream",
        "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 3",
    )
    .unwrap();
    let registry = server.registry();
    assert!(registry.get("point").unwrap().fast_point().is_some());
    assert!(registry.get("stream").unwrap().fast_point().is_none());

    let booked = |name: &str| {
        let statement = registry.get(name).unwrap();
        let c = &registry.counters;
        [
            c.executed.load(Ordering::Relaxed),
            statement.executions.load(Ordering::Relaxed),
            c.fast_point_reads.load(Ordering::Relaxed),
        ]
    };
    // (lane, statement, fast_point_reads it adds, one execute over it)
    type Lane = (
        &'static str,
        &'static str,
        u64,
        fn(&mut Client, &mut Client),
    );
    let lanes: [Lane; 4] = [
        ("binary fast lane", "point", 1, |v3, _| {
            v3.execute("point", &uname_param(3), None).unwrap();
        }),
        ("binary general lane", "stream", 0, |v3, _| {
            v3.execute("stream", &uname_param(3), None).unwrap();
        }),
        ("JSON tagged", "point", 0, |_, v2| {
            let mut pipeline = v2.pipeline();
            pipeline.queue_execute("point", &uname_param(3));
            assert_eq!(pipeline.flush().unwrap().len(), 1);
        }),
        ("JSON id-less", "point", 0, |_, v2| {
            v2.execute("point", &uname_param(3), None).unwrap();
        }),
    ];
    for (lane, name, fast, execute) in lanes {
        let before = booked(name);
        execute(&mut v3, &mut v2);
        let after = booked(name);
        let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(moved, [1, 1, fast], "{lane}");
    }
}

/// An execution that fails is booked the same way on every lane: its
/// tenant admitted it once, `exec_errors` counts it once, and neither
/// `executed` nor the statement's `executions` moves. A point read sent
/// without its parameter reaches the fast lane, which hands it on.
#[test]
fn every_lane_books_a_failed_execution_once() {
    let server = start_server();
    let addr = server.local_addr();
    let mut v3 = Client::connect_binary(addr).unwrap();
    let mut v2 = Client::connect(addr).unwrap();
    v2.prepare("point", POINT).unwrap();
    v2.prepare(
        "stream",
        "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 3",
    )
    .unwrap();
    let registry = server.registry();
    let budget = registry.budget_for("default");

    let booked = |name: &str| {
        let statement = registry.get(name).unwrap();
        let c = &registry.counters;
        [
            budget.snapshot().admitted,
            c.exec_errors.load(Ordering::Relaxed),
            c.executed.load(Ordering::Relaxed),
            statement.executions.load(Ordering::Relaxed),
            c.fast_point_reads.load(Ordering::Relaxed),
        ]
    };
    let unbound = |name: &str| Request::Execute {
        name: name.into(),
        params: Vec::new(),
        cursor: None,
    };
    // (lane, statement, whether it goes through a pipeline)
    let lanes = [
        ("binary fast lane", "point", 3, false),
        ("binary general lane", "stream", 3, false),
        ("JSON tagged", "point", 2, true),
        ("JSON id-less", "point", 2, false),
    ];
    for (lane, name, codec, tagged) in lanes {
        let client = if codec == 3 { &mut v3 } else { &mut v2 };
        let before = booked(name);
        let answer = if tagged {
            let mut pipeline = client.pipeline();
            pipeline.queue(&unbound(name));
            pipeline.flush().unwrap().remove(0)
        } else {
            client.request_raw(&unbound(name)).unwrap()
        };
        assert_eq!(answer.get("ok"), Some(&Json::Bool(false)), "{lane}");
        let after = booked(name);
        let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(moved, [1, 1, 0, 0, 0], "{lane}");
    }
}
