//! Concurrent-session stress tests for the shared round fan-out pool:
//! many client threads drive one `LiveCluster`-backed server at once,
//! asserting (a) pipelined responses come back in request order, (b) no
//! update is lost when concurrent sessions write through the pool, (c)
//! exactly-one-winner semantics survive contended test-and-set rounds,
//! and (d) malformed protocol lines answer errors without killing the
//! connection. Run in CI under `--release` so the pool is exercised at
//! optimized timing.

use piql_core::plan::params::ParamValue;
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::{LiveCluster, LiveConfig};
use piql_server::protocol::request_to_line;
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{Client, Json, PiqlServer, Request};
use piql_workloads::scadr::{self, ScadrConfig};
use std::io::Write;
use std::sync::Arc;

/// A SCADr-loaded server on an ephemeral port; pool at its default width.
fn start_server() -> (Arc<Database<LiveCluster>>, PiqlServer) {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    let config = ScadrConfig {
        users_per_node: 20,
        thoughts_per_user: 5,
        subscriptions_per_user: 4,
        ..Default::default()
    };
    scadr::setup(&db, &config, 2).unwrap();
    let server = PiqlServer::start(
        db.clone(),
        linear_predictor(200, 100, 2),
        permissive_slo(),
        "127.0.0.1:0",
    )
    .unwrap();
    (db, server)
}

fn uname_param(i: usize) -> Vec<ParamValue> {
    vec![Value::Varchar(scadr::username(i)).into()]
}

/// The protocol reads one line, answers one line: a client may pipeline
/// many requests before reading, and the answers must come back in
/// request order even though each one fans out over the shared pool.
#[test]
fn pipelined_responses_preserve_request_order() {
    let (_db, server) = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .prepare("find", "SELECT * FROM users WHERE username = <u>")
        .unwrap();

    // write 30 execute lines without reading a single response
    let mut raw = client.raw_stream().unwrap();
    let order: Vec<usize> = (0..30).map(|k| (k * 13) % 40).collect();
    for &i in &order {
        let line = request_to_line(&Request::Execute {
            name: "find".into(),
            params: uname_param(i),
            cursor: None,
        });
        raw.write_all(line.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
    }
    raw.flush().unwrap();

    // now drain: response k must answer request k
    for &i in &order {
        let response = client.raw_read_line().unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let rows = response.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        let first_col = rows[0].as_arr().unwrap()[0]
            .get("str")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(first_col, scadr::username(i), "answers arrive in order");
    }
}

/// N sessions insert disjoint rows concurrently; every row must be
/// readable afterwards — the fan-out pool may reorder work inside a
/// round, but it must not drop or cross-wire writes.
#[test]
fn concurrent_dml_loses_no_updates() {
    const THREADS: usize = 8;
    const INSERTS: usize = 40;
    let (_db, server) = start_server();
    let addr = server.local_addr();

    {
        let mut c = Client::connect(addr).unwrap();
        c.prepare(
            "mine",
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 1000",
        )
        .unwrap();
    }

    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for k in 0..INSERTS {
                    // timestamps far above the loader's range: disjoint keys
                    let ts = 1_000_000_000_000 + (t as i64) * 1_000_000 + k as i64;
                    client
                        .dml(
                            "INSERT INTO thoughts (owner, timestamp, text) \
                             VALUES (<u>, <ts>, <txt>)",
                            &[
                                Value::Varchar(scadr::username(t)).into(),
                                Value::Timestamp(ts).into(),
                                Value::Varchar(format!("t{t}k{k}")).into(),
                            ],
                        )
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no writer thread panicked");
    }

    let mut client = Client::connect(addr).unwrap();
    for t in 0..THREADS {
        let page = client.execute("mine", &uname_param(t), None).unwrap();
        let mine = (1_000_000_000_000 + (t as i64) * 1_000_000)
            ..(1_000_000_000_000 + (t as i64) * 1_000_000 + INSERTS as i64);
        let inserted = page
            .rows
            .iter()
            .filter_map(|r| r.get(1))
            .filter(|v| matches!(v, Value::Timestamp(ts) if mine.contains(ts)))
            .count();
        assert_eq!(inserted, INSERTS, "all of session {t}'s inserts landed");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("exec_errors").and_then(Json::as_i64), Some(0));
}

/// All sessions race to insert the *same* primary key: the TAS round must
/// crown exactly one winner even with rounds fanning out concurrently.
#[test]
fn contended_inserts_have_exactly_one_winner() {
    const THREADS: usize = 8;
    let (_db, server) = start_server();
    let addr = server.local_addr();

    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .dml(
                        "INSERT INTO thoughts (owner, timestamp, text) \
                         VALUES (<u>, <ts>, <txt>)",
                        &[
                            Value::Varchar(scadr::username(0)).into(),
                            Value::Timestamp(7_777_777_777_777).into(),
                            Value::Varchar("the one".into()).into(),
                        ],
                    )
                    .is_ok()
            })
        })
        .collect();
    let wins = threads
        .into_iter()
        .map(|t| t.join().unwrap())
        .filter(|&won| won)
        .count();
    assert_eq!(wins, 1, "duplicate-pk insert must succeed exactly once");
}

/// Hostile lines — `{}`, truncated escapes, non-object JSON — get an
/// error *response* and the connection keeps serving (pinning down the
/// unwrap-free request parsing this PR hardened).
#[test]
fn malformed_lines_answer_errors_without_killing_the_connection() {
    let (_db, server) = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .prepare("find", "SELECT * FROM users WHERE username = <u>")
        .unwrap();

    let mut raw = client.raw_stream().unwrap();
    for line in [
        "{}",
        "[1,2,3]",
        "{\"cmd\":\"execute\",\"name\":\"find\",\"params\":[{}]}",
        "{\"cmd\":\"stats\",\"x\":\"\\u12",
        "\"\\",
        "{\"cmd\":\"nope\"}",
    ] {
        raw.write_all(line.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        raw.flush().unwrap();
        let response = client.raw_read_line().unwrap_or_else(|e| {
            panic!("connection died on line {line:?}: {e}");
        });
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "line {line:?} must produce an error envelope"
        );
    }

    // a line that cannot even be correlated keeps its place in the
    // arrival order: written between two id-less requests, its error is
    // answered between their pages
    let find = |i| {
        request_to_line(&Request::Execute {
            name: "find".into(),
            params: uname_param(i),
            cursor: None,
        })
    };
    raw.write_all(format!("{}\n{{}}\n{}\n", find(1), find(2)).as_bytes())
        .unwrap();
    raw.flush().unwrap();
    let username = |response: &Json| {
        let page = piql_server::decode_page(response).unwrap();
        page.rows[0].get(0).cloned()
    };
    let answers: Vec<Json> = (0..3).map(|_| client.raw_read_line().unwrap()).collect();
    assert_eq!(
        username(&answers[0]),
        Some(Value::Varchar(scadr::username(1)))
    );
    assert_eq!(answers[1].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        username(&answers[2]),
        Some(Value::Varchar(scadr::username(2)))
    );

    // the same connection still serves real queries afterwards
    let page = client.execute("find", &uname_param(3), None).unwrap();
    assert_eq!(page.rows.len(), 1);
}

/// A `CREATE INDEX` lands while sessions keep inserting through one cached
/// INSERT text. Every insert that *starts after* the DDL has returned must
/// maintain the new index: the catalog generation moved on before the DDL
/// returned, so the cached plan is rebuilt before it can skip the index.
/// (Inserts already in flight during the backfill are the window the
/// write path has always had; they are not counted here.)
#[test]
fn inserts_started_after_create_index_maintain_it() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const THREADS: usize = 4;
    const BEFORE: usize = 25;
    const AFTER: usize = 40;
    let (db, server) = start_server();
    let addr = server.local_addr();
    let index_created = Arc::new(AtomicBool::new(false));
    let warmed_up = Arc::new(AtomicUsize::new(0));

    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let index_created = index_created.clone();
            let warmed_up = warmed_up.clone();
            std::thread::spawn(move || {
                let mut client = if t % 2 == 0 {
                    Client::connect(addr).unwrap()
                } else {
                    Client::connect_binary(addr).unwrap()
                };
                // texts of inserts that began once the index existed
                let mut after = Vec::new();
                let mut k = 0usize;
                while after.len() < AFTER {
                    let started_after = index_created.load(Ordering::SeqCst);
                    let text = format!("stress-{t}-{k}");
                    client
                        .dml(
                            "INSERT INTO thoughts (owner, timestamp, text) \
                             VALUES (<u>, <ts>, <txt>)",
                            &[
                                Value::Varchar(scadr::username(t)).into(),
                                Value::Timestamp(3_000_000_000_000 + (t * 1_000_000 + k) as i64)
                                    .into(),
                                Value::Varchar(text.clone()).into(),
                            ],
                        )
                        .unwrap();
                    k += 1;
                    if started_after {
                        after.push(text);
                    } else if k == BEFORE {
                        warmed_up.fetch_add(1, Ordering::SeqCst);
                    }
                }
                after
            })
        })
        .collect();

    // every session has the INSERT's plan cached and is mid-stream
    while warmed_up.load(Ordering::SeqCst) < THREADS {
        std::thread::yield_now();
    }
    db.execute_ddl("CREATE INDEX thoughts_by_text ON thoughts (text)")
        .unwrap();
    index_created.store(true, Ordering::SeqCst);

    let after: Vec<String> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("no inserter panicked"))
        .collect();
    assert_eq!(after.len(), THREADS * AFTER);
    let mut client = Client::connect(addr).unwrap();
    client
        .prepare("by_text", "SELECT * FROM thoughts WHERE text = <t> LIMIT 2")
        .unwrap();
    for text in after {
        let page = client
            .execute("by_text", &[Value::Varchar(text.clone()).into()], None)
            .unwrap();
        assert_eq!(
            page.rows.len(),
            1,
            "'{text}' is reachable through the index"
        );
    }
}
