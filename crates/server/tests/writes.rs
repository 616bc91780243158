//! The `dml` verb over compiled write plans: the answers clients see are
//! the ones the parse-per-request path gave (byte for byte, both codecs),
//! the plan cache compiles a text once per catalog generation and stays
//! bounded, and `stats` shows what it did.

use piql_core::plan::params::ParamValue;
use piql_core::value::Value;
use piql_engine::{Database, WRITE_PLAN_CACHE_CAP};
use piql_kv::{KvStore, LiveCluster, LiveConfig, Session};
use piql_server::server::{handle_line, respond};
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{
    open_durable, BinaryConn, BinaryWire, DurableOptions, Envelope, Json, JsonWire, Request,
    StatementRegistry, Wire,
};
use piql_workloads::scadr::{self, ScadrConfig};
use piql_workloads::tpcw::{self, TpcwConfig};
use std::sync::Arc;

fn scadr_config() -> ScadrConfig {
    ScadrConfig {
        users_per_node: 10,
        thoughts_per_user: 3,
        subscriptions_per_user: 4,
        max_subscriptions: 5,
        ..Default::default()
    }
}

fn scadr_registry() -> Arc<StatementRegistry<LiveCluster>> {
    let db = Arc::new(Database::new(Arc::new(LiveCluster::new(
        LiveConfig::default(),
    ))));
    scadr::setup(&db, &scadr_config(), 1).unwrap();
    Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
    ))
}

/// One connection of either codec, driven in process: a request goes
/// through the codec's own encoder and the server's handler, and what
/// comes back is the bytes the codec would put on the wire.
enum Conn {
    Json(Arc<StatementRegistry<LiveCluster>>, Session),
    Binary(BinaryConn<LiveCluster>),
}

impl Conn {
    fn both(registry: &Arc<StatementRegistry<LiveCluster>>) -> [Conn; 2] {
        [
            Conn::Json(registry.clone(), Session::new()),
            Conn::Binary(BinaryConn::new(registry.clone())),
        ]
    }

    fn codec(&self) -> &'static str {
        match self {
            Conn::Json(..) => "json",
            Conn::Binary(_) => "binary",
        }
    }

    /// Send one request; the framed response as it would go on the wire.
    fn exchange(&mut self, request: Request) -> Vec<u8> {
        let env = Envelope { id: None, request };
        let mut frame = Vec::new();
        match self {
            Conn::Json(registry, session) => {
                JsonWire.encode_envelope(&env, &mut frame);
                let line = std::str::from_utf8(&frame).unwrap().trim_end();
                let response = handle_line(line, session, registry);
                let mut out = Vec::new();
                JsonWire.encode_response(None, &response, &mut out);
                out
            }
            Conn::Binary(conn) => {
                BinaryWire.encode_envelope(&env, &mut frame);
                conn.handle_frame(&frame[4..]);
                let out = conn.output().to_vec();
                conn.clear_output();
                out
            }
        }
    }

    /// The answer as pinned in this file: the JSON line as text, the
    /// binary frame in hex.
    fn answer(&mut self, request: Request) -> String {
        let out = self.exchange(request);
        match self {
            Conn::Json(..) => String::from_utf8(out).unwrap().trim_end().to_string(),
            Conn::Binary(_) => out.iter().map(|b| format!("{b:02x}")).collect(),
        }
    }

    /// The decoded answer, for tests that do not pin bytes.
    fn ask(&mut self, request: Request) -> Json {
        let out = self.exchange(request);
        let decoded = match self {
            Conn::Json(..) => JsonWire.decode_response(out.trim_ascii_end()),
            Conn::Binary(_) => BinaryWire.decode_response(&out[4..]),
        };
        decoded.unwrap().1
    }
}

fn dml(sql: &str, params: Vec<ParamValue>) -> Request {
    Request::Dml {
        sql: sql.to_string(),
        params,
    }
}

fn s(v: &str) -> ParamValue {
    Value::Varchar(v.to_string()).into()
}

fn ts(v: i64) -> ParamValue {
    Value::Timestamp(v).into()
}

fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

const POST: &str = "INSERT INTO thoughts (owner, timestamp, text) VALUES (<uname>, <ts>, <text>)";
const FOLLOW: &str = "INSERT INTO subscriptions (owner, target, approved) VALUES (<o>, <t>, true)";
const EDIT: &str = "UPDATE thoughts SET text = <x> WHERE owner = <u> AND timestamp = <ts>";
const UNPOST: &str = "DELETE FROM thoughts WHERE owner = <u> AND timestamp = <ts>";

/// Every way a `dml` can answer, in one stateful script (each codec runs
/// it against a database of its own).
fn identity_script() -> Vec<(&'static str, Request)> {
    let user = scadr::username(0);
    let post = |params| dml(POST, params);
    vec![
        ("insert", post(vec![s(&user), ts(9_000_001), s("hello")])),
        (
            "duplicate key",
            post(vec![s(&user), ts(9_000_001), s("again")]),
        ),
        (
            "null into not null",
            post(vec![s(&user), Value::Null.into(), s("x")]),
        ),
        (
            "not null column left out",
            dml(
                "INSERT INTO thoughts (owner, text) VALUES (<u>, 'x')",
                vec![s(&user)],
            ),
        ),
        (
            "value does not fit",
            post(vec![s(&"u".repeat(30)), ts(9_000_002), s("x")]),
        ),
        (
            "literal does not fit",
            dml(
                "INSERT INTO thoughts (owner, timestamp, text) \
                 VALUES ('uuuuuuuuuuuuuuuuuuuuuuuuuuuuuu', 5, 'x')",
                vec![],
            ),
        ),
        (
            "arity mismatch",
            dml(
                "INSERT INTO thoughts (owner, timestamp) VALUES (<u>)",
                vec![s(&user)],
            ),
        ),
        (
            "too few values",
            dml("INSERT INTO thoughts VALUES (<u>, 5)", vec![s(&user)]),
        ),
        ("unbound parameter", post(vec![s(&user), ts(9_000_003)])),
        (
            "collection for a scalar",
            post(vec![
                ParamValue::Collection(vec![Value::Varchar(user.clone())]),
                ts(9_000_004),
                s("x"),
            ]),
        ),
        (
            "unknown table",
            dml("INSERT INTO nope (a) VALUES (1)", vec![]),
        ),
        (
            "unknown column",
            dml("INSERT INTO thoughts (owner, nope) VALUES ('a', 1)", vec![]),
        ),
        (
            "not a dml",
            dml("SELECT * FROM users WHERE username = <u>", vec![s(&user)]),
        ),
        ("syntax error", dml("INSERT INTO thoughts VALUES (", vec![])),
        (
            "fifth subscription",
            dml(FOLLOW, vec![s(&user), s("someone-new")]),
        ),
        (
            "cardinality limit exceeded",
            dml(FOLLOW, vec![s(&user), s("one-too-many")]),
        ),
        (
            "the overflow was undone",
            Request::Execute {
                name: "subs".into(),
                params: vec![s(&user)],
                cursor: None,
            },
        ),
        (
            "update",
            dml(EDIT, vec![s("edited"), s(&user), ts(9_000_001)]),
        ),
        (
            "update of a pk column",
            dml(
                "UPDATE thoughts SET owner = 'x' WHERE owner = <u> AND timestamp = <ts>",
                vec![s(&user), ts(9_000_001)],
            ),
        ),
        (
            "update of a missing row",
            dml(EDIT, vec![s("x"), s(&user), ts(1)]),
        ),
        (
            "update without the full key",
            dml(
                "UPDATE thoughts SET text = 'x' WHERE owner = <u>",
                vec![s(&user)],
            ),
        ),
        ("delete", dml(UNPOST, vec![s(&user), ts(9_000_001)])),
        (
            "delete of a missing row",
            dml(UNPOST, vec![s(&user), ts(9_000_001)]),
        ),
        (
            "the row is gone",
            Request::Execute {
                name: "mine".into(),
                params: vec![s(&user)],
                cursor: None,
            },
        ),
    ]
}

/// The answers of the parent commit (parse-per-request writes), recorded
/// by running this script there: `(case, json line, binary frame in hex)`.
const PARENT_ANSWERS: &[(&str, &str, &str)] = &[
    (
        "insert",
        "{\"ok\":true}",
        "0e00000080000701000000020000006f6b02",
    ),
    (
        "duplicate key",
        "{\"error\":\"duplicate primary key in table 'thoughts'\",\"ok\":false}",
        "4500000080000702000000050000006572726f7205290000006475706c6963617465207072696d617279206b657920696e207461626c65202774686f756768747327020000006f6b01",
    ),
    (
        "null into not null",
        "{\"error\":\"column 'timestamp' of table 'thoughts' is NOT NULL\",\"ok\":false}",
        "4e00000080000702000000050000006572726f720532000000636f6c756d6e202774696d657374616d7027206f66207461626c65202774686f756768747327206973204e4f54204e554c4c020000006f6b01",
    ),
    (
        "not null column left out",
        "{\"error\":\"column 'timestamp' of table 'thoughts' is NOT NULL\",\"ok\":false}",
        "4e00000080000702000000050000006572726f720532000000636f6c756d6e202774696d657374616d7027206f66207461626c65202774686f756768747327206973204e4f54204e554c4c020000006f6b01",
    ),
    (
        "value does not fit",
        "{\"error\":\"value 'uuuuuuuuuuuuuuuuuuuuuuuuuuuuuu' does not fit column 'owner' VARCHAR(24)\",\"ok\":false}",
        "6a00000080000702000000050000006572726f72054e00000076616c756520277575757575757575757575757575757575757575757575757575757575752720646f6573206e6f742066697420636f6c756d6e20276f776e657227205641524348415228323429020000006f6b01",
    ),
    (
        "literal does not fit",
        "{\"error\":\"value 'uuuuuuuuuuuuuuuuuuuuuuuuuuuuuu' does not fit column 'owner' VARCHAR(24)\",\"ok\":false}",
        "6a00000080000702000000050000006572726f72054e00000076616c756520277575757575757575757575757575757575757575757575757575757575752720646f6573206e6f742066697420636f6c756d6e20276f776e657227205641524348415228323429020000006f6b01",
    ),
    (
        "arity mismatch",
        "{\"error\":\"column list and VALUES arity differ\",\"ok\":false}",
        "3f00000080000702000000050000006572726f720523000000636f6c756d6e206c69737420616e642056414c55455320617269747920646966666572020000006f6b01",
    ),
    (
        "too few values",
        "{\"error\":\"table 'thoughts' expects 3 values, got 2\",\"ok\":false}",
        "4400000080000702000000050000006572726f7205280000007461626c65202774686f756768747327206578706563747320332076616c7565732c20676f742032020000006f6b01",
    ),
    (
        "unbound parameter",
        "{\"error\":\"parameter [3: text] is not bound\",\"ok\":false}",
        "3c00000080000702000000050000006572726f720520000000706172616d65746572205b333a20746578745d206973206e6f7420626f756e64020000006f6b01",
    ),
    (
        "collection for a scalar",
        "{\"error\":\"parameter [1: uname] must be a scalar\",\"ok\":false}",
        "4100000080000702000000050000006572726f720525000000706172616d65746572205b313a20756e616d655d206d7573742062652061207363616c6172020000006f6b01",
    ),
    (
        "unknown table",
        "{\"error\":\"unknown table 'nope'\",\"ok\":false}",
        "3000000080000702000000050000006572726f720514000000756e6b6e6f776e207461626c6520276e6f706527020000006f6b01",
    ),
    (
        "unknown column",
        "{\"error\":\"unknown column 'nope' in table 'thoughts'\",\"ok\":false}",
        "4500000080000702000000050000006572726f720529000000756e6b6e6f776e20636f6c756d6e20276e6f70652720696e207461626c65202774686f756768747327020000006f6b01",
    ),
    (
        "not a dml",
        "{\"error\":\"unsupported: execute_dml expects INSERT, UPDATE, or DELETE\",\"ok\":false}",
        "5600000080000702000000050000006572726f72053a000000756e737570706f727465643a20657865637574655f646d6c206578706563747320494e534552542c205550444154452c206f722044454c455445020000006f6b01",
    ),
    (
        "syntax error",
        "{\"error\":\"parse error at byte 29: expected a literal, found Eof\",\"ok\":false}",
        "5100000080000702000000050000006572726f7205350000007061727365206572726f7220617420627974652032393a2065787065637465642061206c69746572616c2c20666f756e6420456f66020000006f6b01",
    ),
    (
        "fifth subscription",
        "{\"ok\":true}",
        "0e00000080000701000000020000006f6b02",
    ),
    (
        "cardinality limit exceeded",
        "{\"error\":\"insert into 'subscriptions' violates CARDINALITY LIMIT 5 (owner)\",\"ok\":false}",
        "5c00000080000702000000050000006572726f720540000000696e7365727420696e746f2027737562736372697074696f6e73272076696f6c617465732043415244494e414c495459204c494d4954203520286f776e657229020000006f6b01",
    ),
    (
        "the overflow was undone",
        "{\"cursor\":null,\"ok\":true,\"rows\":[[{\"str\":\"u0000000\"},{\"str\":\"someone-new\"},{\"bool\":true}],[{\"str\":\"u0000000\"},{\"str\":\"u0000004\"},{\"bool\":true}],[{\"str\":\"u0000000\"},{\"str\":\"u0000005\"},{\"bool\":true}],[{\"str\":\"u0000000\"},{\"str\":\"u0000008\"},{\"bool\":true}],[{\"str\":\"u0000000\"},{\"str\":\"u0000009\"},{\"bool\":true}]]}",
        "820100008000070300000006000000637572736f7200020000006f6b0204000000726f77730605000000060300000007010000000300000073747205080000007530303030303030070100000003000000737472050b000000736f6d656f6e652d6e6577070100000004000000626f6f6c0206030000000701000000030000007374720508000000753030303030303007010000000300000073747205080000007530303030303034070100000004000000626f6f6c0206030000000701000000030000007374720508000000753030303030303007010000000300000073747205080000007530303030303035070100000004000000626f6f6c0206030000000701000000030000007374720508000000753030303030303007010000000300000073747205080000007530303030303038070100000004000000626f6f6c0206030000000701000000030000007374720508000000753030303030303007010000000300000073747205080000007530303030303039070100000004000000626f6f6c02",
    ),
    (
        "update",
        "{\"ok\":true}",
        "0e00000080000701000000020000006f6b02",
    ),
    (
        "update of a pk column",
        "{\"error\":\"cannot update primary-key column 'owner'\",\"ok\":false}",
        "4400000080000702000000050000006572726f72052800000063616e6e6f7420757064617465207072696d6172792d6b657920636f6c756d6e20276f776e657227020000006f6b01",
    ),
    (
        "update of a missing row",
        "{\"error\":\"row not found in table 'thoughts'\",\"ok\":false}",
        "3d00000080000702000000050000006572726f720521000000726f77206e6f7420666f756e6420696e207461626c65202774686f756768747327020000006f6b01",
    ),
    (
        "update without the full key",
        "{\"error\":\"unsupported: UPDATE/DELETE must pin the full primary key of 'thoughts'\",\"ok\":false}",
        "6200000080000702000000050000006572726f720546000000756e737570706f727465643a205550444154452f44454c455445206d7573742070696e207468652066756c6c207072696d617279206b6579206f66202774686f756768747327020000006f6b01",
    ),
    (
        "delete",
        "{\"ok\":true}",
        "0e00000080000701000000020000006f6b02",
    ),
    (
        "delete of a missing row",
        "{\"ok\":true}",
        "0e00000080000701000000020000006f6b02",
    ),
    (
        "the row is gone",
        "{\"cursor\":null,\"ok\":true,\"rows\":[[{\"str\":\"u0000000\"},{\"ts\":1300000000020014},{\"str\":\"thought 2 from user 0\"}],[{\"str\":\"u0000000\"},{\"ts\":1300000000010007},{\"str\":\"thought 1 from user 0\"}],[{\"str\":\"u0000000\"},{\"ts\":1300000000000000},{\"str\":\"thought 0 from user 0\"}]]}",
        "2e0100008000070300000006000000637572736f7200020000006f6b0204000000726f777306030000000603000000070100000003000000737472050800000075303030303030300701000000020000007473032e8e35d6579e0400070100000003000000737472051500000074686f7567687420322066726f6d20757365722030060300000007010000000300000073747205080000007530303030303030070100000002000000747303176735d6579e0400070100000003000000737472051500000074686f7567687420312066726f6d20757365722030060300000007010000000300000073747205080000007530303030303030070100000002000000747303004035d6579e0400070100000003000000737472051500000074686f7567687420302066726f6d20757365722030",
    ),
];

/// What a dead log answers: the write applied in memory, `ok` is false.
const PARENT_DEAD_WAL: (&str, &str) = (
    "{\"error\":\"write-ahead log has failed: the write applied in memory but is not durable\",\"ok\":false}",
    "6600000080000702000000050000006572726f72054a00000077726974652d6168656164206c6f6720686173206661696c65643a20746865207772697465206170706c69656420696e206d656d6f727920627574206973206e6f742064757261626c65020000006f6b01",
);

#[test]
fn dml_answers_are_byte_identical_to_the_parse_per_request_path() {
    for codec in 0..2 {
        let registry = scadr_registry();
        registry
            .register("subs", "SELECT * FROM subscriptions WHERE owner = <o>")
            .unwrap();
        registry
            .register(
                "mine",
                "SELECT * FROM thoughts WHERE owner = <o> ORDER BY timestamp DESC LIMIT 10",
            )
            .unwrap();
        let [json, binary] = Conn::both(&registry);
        let mut conn = if codec == 0 { json } else { binary };
        let script = identity_script();
        assert_eq!(script.len(), PARENT_ANSWERS.len());
        for ((case, request), expected) in script.into_iter().zip(PARENT_ANSWERS) {
            assert_eq!(case, expected.0);
            let expected = if codec == 0 { expected.1 } else { expected.2 };
            assert_eq!(
                conn.answer(request),
                expected,
                "{case} over {}",
                conn.codec()
            );
        }
        // errors are not plans: only the four texts that ran are cached
        let stats = registry.db().write_plan_stats();
        assert_eq!((stats.cached, stats.compiles), (4, 4), "{}", conn.codec());
    }
}

#[test]
fn dead_wal_dml_still_answers_not_ok() {
    for codec in 0..2 {
        let dir = std::env::temp_dir().join(format!(
            "piql-writes-deadwal-{}-{codec}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut options = DurableOptions::new(&dir);
        options.slo = permissive_slo();
        let stack = open_durable(options, linear_predictor(200, 100, 2), |db| {
            scadr::setup(db, &scadr_config(), 1).map(|_| ())
        })
        .unwrap();
        let [json, binary] = Conn::both(&stack.registry);
        let mut conn = if codec == 0 { json } else { binary };
        let post = |t| dml(POST, vec![s(&scadr::username(1)), ts(t), s("t")]);
        assert!(is_ok(&conn.ask(post(9_000_001))));
        stack.simulate_crash();
        let expected = if codec == 0 {
            PARENT_DEAD_WAL.0
        } else {
            PARENT_DEAD_WAL.1
        };
        assert_eq!(conn.answer(post(9_000_002)), expected, "{}", conn.codec());
        // and as a connection streams it, where a success is `Reply::Done`
        let reply = respond(&post(9_000_003), &mut Session::new(), &stack.registry);
        let mut line = Vec::new();
        JsonWire.encode_reply(None, &reply, &mut line);
        assert_eq!(line.trim_ascii_end(), PARENT_DEAD_WAL.0.as_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn writes_stat(stats: &Json, field: &str) -> i64 {
    stats
        .get("writes")
        .and_then(|w| w.get(field))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("stats.writes.{field} missing in {stats}"))
}

#[test]
fn stats_show_one_compile_per_repeated_text() {
    // the post_v3 text, 10 000 times on one binary connection
    let registry = scadr_registry();
    let [mut json, mut binary] = Conn::both(&registry);
    for i in 0..10_000 {
        let user = scadr::username(i % 10);
        let response = binary.ask(dml(POST, vec![s(&user), ts(8_000_000 + i as i64), s("t")]));
        assert!(is_ok(&response), "{response}");
    }
    let duplicate = json.ask(dml(
        POST,
        vec![s(&scadr::username(0)), ts(8_000_000), s("t")],
    ));
    assert!(!is_ok(&duplicate));
    for conn in [&mut json, &mut binary] {
        let stats = conn.ask(Request::Stats);
        assert_eq!(writes_stat(&stats, "dml_executed"), 10_000);
        assert_eq!(writes_stat(&stats, "dml_errors"), 1);
        assert_eq!(writes_stat(&stats, "write_plans"), 1);
        assert_eq!(writes_stat(&stats, "write_plan_compiles"), 1);
        assert_eq!(writes_stat(&stats, "write_plan_evictions"), 0);
    }

    // the four Buy Request texts of TPC-W, as a JSON batch per interaction
    let db = Arc::new(Database::new(Arc::new(LiveCluster::new(
        LiveConfig::default(),
    ))));
    let config = TpcwConfig {
        items: 200,
        customers_per_node: 20,
        ..Default::default()
    };
    tpcw::setup(&db, &config, 1).unwrap();
    let registry = Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
    ));
    let [mut json, _] = Conn::both(&registry);
    let int = |v: i32| ParamValue::from(Value::Int(v));
    for i in 0..50 {
        let (cart, order) = (1_000 + i, 500_000 + i);
        let response = json.ask(Request::Batch {
            requests: vec![
                dml(tpcw::INSERT_CART, vec![int(cart), ts(1)]),
                dml(
                    tpcw::INSERT_CART_LINE,
                    vec![int(cart), int(i % 200), int(2)],
                ),
                dml(tpcw::INSERT_ORDER, vec![int(order), s("c0000001"), ts(1)]),
                dml(
                    tpcw::INSERT_ORDER_LINE,
                    vec![int(order), int(0), int(i % 200)],
                ),
            ],
        });
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        assert!(results.iter().all(is_ok), "{response}");
    }
    let stats = json.ask(Request::Stats);
    assert_eq!(writes_stat(&stats, "dml_executed"), 200);
    assert_eq!(writes_stat(&stats, "write_plans"), 4);
    assert_eq!(writes_stat(&stats, "write_plan_compiles"), 4);
}

#[test]
fn distinct_texts_cannot_grow_the_plan_cache() {
    let registry = scadr_registry();
    let [mut json, mut binary] = Conn::both(&registry);
    let thoughts = registry.db().cluster().namespace("t/thoughts");
    let before = registry.db().cluster().ns_len(thoughts);
    for i in 0..10_000usize {
        // a client that inlines its literals: every text is new
        let text = format!(
            "INSERT INTO thoughts (owner, timestamp, text) VALUES ('{}', {}, 'n{i}')",
            scadr::username(i % 10),
            7_000_000 + i
        );
        let conn = if i % 2 == 0 { &mut json } else { &mut binary };
        let response = conn.ask(dml(&text, vec![]));
        assert!(is_ok(&response), "{text}: {response}");
        // ... while a parameterised text keeps working beside them
        if i % 1_000 == 0 {
            let user = scadr::username(3);
            let response = conn.ask(dml(POST, vec![s(&user), ts(6_000_000 + i as i64), s("p")]));
            assert!(is_ok(&response), "{response}");
        }
    }
    assert_eq!(
        registry.db().cluster().ns_len(thoughts),
        before + 10_010,
        "every statement did what it said"
    );
    let stats = json.ask(Request::Stats);
    assert!(writes_stat(&stats, "write_plans") <= WRITE_PLAN_CACHE_CAP as i64);
    assert!(writes_stat(&stats, "write_plan_compiles") >= 10_001);
    assert!(writes_stat(&stats, "write_plan_evictions") >= 10_001 - WRITE_PLAN_CACHE_CAP as i64);
    // the literal rows read back as written
    registry
        .register(
            "mine",
            "SELECT * FROM thoughts WHERE owner = <o> AND timestamp = <t>",
        )
        .unwrap();
    let page = json.ask(Request::Execute {
        name: "mine".into(),
        params: vec![s(&scadr::username(9)), ts(7_009_999)],
        cursor: None,
    });
    assert!(page.to_string().contains("n9999"), "{page}");
}

#[test]
fn a_cached_insert_maintains_indexes_created_after_it_was_compiled() {
    for codec in 0..2 {
        let registry = scadr_registry();
        let db = registry.db().clone();
        let [json, binary] = Conn::both(&registry);
        let mut conn = if codec == 0 { json } else { binary };
        let mut next_ts = 9_100_000;
        let mut post = |conn: &mut Conn, text: &str| {
            next_ts += 1;
            let response = conn.ask(dml(
                POST,
                vec![s(&scadr::username(2)), ts(next_ts), s(text)],
            ));
            assert!(is_ok(&response), "{response}");
        };
        post(&mut conn, "before any index");

        // a declared index, created behind the connection's back
        db.execute_ddl("CREATE INDEX thoughts_by_text ON thoughts (text)")
            .unwrap();
        let by_text = db.cluster().namespace("i/thoughts_by_text");
        let backfilled = db.cluster().ns_len(by_text);
        post(&mut conn, "after create index");
        assert_eq!(
            db.cluster().ns_len(by_text),
            backfilled + 1,
            "{}: the second execution of the same text maintains the new index",
            conn.codec()
        );

        // an index derived by a SELECT prepare over the wire
        let prepared = conn.ask(Request::Prepare {
            name: "by_ts".into(),
            sql: "SELECT * FROM thoughts WHERE timestamp = <t> LIMIT 5".into(),
        });
        assert!(is_ok(&prepared), "{prepared}");
        post(&mut conn, "after derived index");
        let page = conn.ask(Request::Execute {
            name: "by_ts".into(),
            params: vec![ts(next_ts)],
            cursor: None,
        });
        assert!(
            page.to_string().contains("after derived index"),
            "{}: {page}",
            conn.codec()
        );
        let compiles = writes_stat(&conn.ask(Request::Stats), "write_plan_compiles");
        assert_eq!(compiles, 3, "one per catalog generation the text ran under");
    }
}
