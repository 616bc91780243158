//! End-to-end TCP protocol tests against a `LiveCluster`-backed server:
//! pagination cursors surviving reconnects, per-statement stats, and the
//! acceptance criterion — ≥8 concurrent client threads completing a
//! TPC-W-style mix with correct results and no deadlocks/panics.

use piql_core::plan::params::ParamValue;
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::{KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, NsBalance, NsId, Session};
use piql_server::testkit::linear_predictor;
use piql_server::{Client, Json, PiqlServer, Request, SloConfig};
use piql_workloads::scadr::{self, ScadrConfig};
use piql_workloads::tpcw::{self, TpcwConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn permissive_slo() -> SloConfig {
    SloConfig {
        slo_ms: 1e9,
        interval_confidence: 1.0,
        allow_degrade: false,
    }
}

fn start_scadr_server() -> (Arc<Database<LiveCluster>>, PiqlServer) {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    let config = ScadrConfig {
        users_per_node: 20,
        thoughts_per_user: 11,
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

#[test]
fn cursors_survive_reconnects() {
    let (db, server) = start_scadr_server();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let verdict = client
        .prepare(
            "stream",
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 4",
        )
        .unwrap();
    assert_eq!(
        verdict.get("status").and_then(Json::as_str),
        Some("admitted")
    );

    // page 1 on the first connection
    let page1 = client.execute("stream", &uname_param(7), None).unwrap();
    assert_eq!(page1.rows.len(), 4);
    let cursor = page1.cursor.clone().expect("more pages");
    drop(client);

    // resume on a brand-new connection — the cursor is the only state
    let mut client2 = Client::connect(addr).unwrap();
    let mut rows = page1.rows;
    let mut cursor = Some(cursor);
    while let Some(c) = cursor {
        let page = client2.cursor_next("stream", &uname_param(7), c).unwrap();
        if page.rows.is_empty() {
            break;
        }
        rows.extend(page.rows);
        cursor = page.cursor;
    }

    // exactly the full ordered result, once each
    let direct = {
        let prepared = db
            .prepare("SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 100")
            .unwrap();
        let mut params = piql_core::plan::params::Params::new();
        params.set(0, Value::Varchar(scadr::username(7)));
        let mut session = piql_kv::Session::new();
        db.execute(&mut session, &prepared, &params)
            .unwrap()
            .rows
            .to_tuples()
    };
    assert_eq!(rows.len(), 11);
    assert_eq!(rows, direct);
}

#[test]
fn stats_report_counters_and_latency() {
    let (_db, server) = start_scadr_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .prepare("find_user", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
    for i in 0..5 {
        let page = client.execute("find_user", &uname_param(i), None).unwrap();
        assert_eq!(page.rows.len(), 1);
    }
    // a rejection shows up in the counters too
    let rejected = client
        .prepare("grep", "SELECT * FROM thoughts WHERE text = <t>")
        .unwrap();
    assert_eq!(
        rejected.get("status").and_then(Json::as_str),
        Some("rejected-unbounded")
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("admitted").and_then(Json::as_i64), Some(1));
    assert_eq!(
        stats.get("rejected_unbounded").and_then(Json::as_i64),
        Some(1)
    );
    assert_eq!(stats.get("executed").and_then(Json::as_i64), Some(5));
    let statements = stats.get("statements").and_then(Json::as_arr).unwrap();
    assert_eq!(statements.len(), 1);
    assert_eq!(
        statements[0].get("executions").and_then(Json::as_i64),
        Some(5)
    );
    assert!(statements[0].get("p99_ms").and_then(Json::as_f64).unwrap() >= 0.0);
}

#[test]
fn malformed_lines_get_error_responses_not_disconnects() {
    let (_db, server) = start_scadr_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for bad in ["not json", "{\"cmd\":\"nope\"}", "{\"cmd\":\"execute\"}"] {
        use std::io::Write;
        let mut raw = client.raw_stream().unwrap();
        raw.write_all(bad.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        raw.flush().unwrap();
        let response = client.raw_read_line().unwrap();
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "line {bad:?} must produce an error response"
        );
    }
    // the connection still works
    let stats = client.stats().unwrap();
    assert!(stats.get("admitted").is_some());
}

/// Intervals that hold nothing — crossed range bounds, a cursor replayed
/// under another user — are empty pages on both codecs. They used to
/// panic the store under the handler ("range start is greater than range
/// end") and come back as "internal error: request handler panicked".
#[test]
fn empty_intervals_and_foreign_cursors_answer_empty_pages() {
    let (_db, server) = start_scadr_server();
    let addr = server.local_addr();
    let clients = [
        ("json", Client::connect(addr).unwrap()),
        ("binary", Client::connect_binary(addr).unwrap()),
    ];
    for (codec, mut client) in clients {
        client
            .prepare(
                "between",
                "SELECT * FROM thoughts WHERE owner = <o> \
                 AND timestamp > <lo> AND timestamp < <hi> LIMIT 5",
            )
            .unwrap();
        client
            .prepare(
                "paged",
                "SELECT * FROM thoughts WHERE owner = <u> PAGINATE 2",
            )
            .unwrap();
        let between = |lo: i64, hi: i64| {
            let mut params = uname_param(3);
            params.push(Value::Timestamp(lo).into());
            params.push(Value::Timestamp(hi).into());
            params
        };
        let full = client
            .execute("between", &between(0, i64::MAX), None)
            .unwrap();
        assert_eq!(full.rows.len(), 5, "{codec}");
        for (lo, hi) in [(10, 5), (10, 10)] {
            let page = client.execute("between", &between(lo, hi), None).unwrap();
            assert!(page.rows.is_empty(), "{codec}: ({lo}, {hi})");
        }

        let first = client.execute("paged", &uname_param(3), None).unwrap();
        assert_eq!(first.rows.len(), 2, "{codec}");
        let cursor = first.cursor.expect("more pages");
        let foreign = client
            .cursor_next("paged", &uname_param(1), cursor.clone())
            .unwrap();
        assert!(foreign.rows.is_empty(), "{codec}: {:?}", foreign.rows);
        // under its own user the same cursor still resumes
        let second = client
            .cursor_next("paged", &uname_param(3), cursor)
            .unwrap();
        assert_eq!(second.rows.len(), 2, "{codec}");

        let stats = client.stats().unwrap();
        assert_eq!(
            stats.get("handler_panics").and_then(Json::as_i64),
            Some(0),
            "{codec}"
        );
    }
}

/// One short line used to kill the whole process: the JSON parser recursed
/// once per `[` with no cap, and 50,000 of them overflow a connection
/// thread's stack (SIGABRT — every connection goes with it). Nesting is capped at 96 levels like a v3 frame's documents:
/// the line gets an error, and the same connection and the next client are
/// served.
#[test]
fn a_deeply_nested_line_is_an_error_not_a_dead_server() {
    use std::io::Write;
    let (_db, server) = start_scadr_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut raw = client.raw_stream().unwrap();
    for line in [
        "[".repeat(50_000),
        // correlatable in principle, but the id lies behind the nesting
        format!("{{\"x\":{},\"id\":7}}", "[".repeat(50_000)),
        "{\"a\":".repeat(50_000),
    ] {
        raw.write_all(line.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        raw.flush().unwrap();
        let response = client.raw_read_line().unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        let error = response.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("nested deeper than 96 levels"), "{error}");
    }
    // 96 levels are fine as JSON (and then not a request)
    let line = format!("{}{}", "[".repeat(96), "]".repeat(96));
    raw.write_all(line.as_bytes()).unwrap();
    raw.write_all(b"\n").unwrap();
    raw.flush().unwrap();
    let response = client.raw_read_line().unwrap();
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("malformed request: missing 'cmd'")
    );

    // the same connection, and a second client, are still served
    assert!(client.stats().unwrap().get("admitted").is_some());
    let mut second = Client::connect(server.local_addr()).unwrap();
    assert!(second.stats().unwrap().get("admitted").is_some());
}

/// A store whose rounds panic once armed — what an engine or backend bug
/// looks like from the handler.
struct FaultyStore {
    inner: LiveCluster,
    armed: AtomicBool,
}

impl KvStore for FaultyStore {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }
    fn execute_round(&self, session: &mut Session, round: Vec<KvRequest>) -> Vec<KvResponse> {
        assert!(
            !self.armed.load(Ordering::SeqCst),
            "injected store fault (this panic is the test's)"
        );
        self.inner.execute_round(session, round)
    }
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.inner.bulk_put(ns, key, value)
    }
    fn balance(&self) -> Vec<NsBalance> {
        self.inner.balance()
    }
}

/// A handler panic is contained — the client gets the internal-error
/// answer and the connection lives — and it is counted: `handler_panics`
/// in `stats` is how an operator learns that a request reached a bug.
#[test]
fn contained_handler_panics_are_counted_in_stats() {
    let store = Arc::new(FaultyStore {
        inner: LiveCluster::new(LiveConfig::default()),
        armed: AtomicBool::new(false),
    });
    let db = Arc::new(Database::new(store.clone()));
    let config = ScadrConfig {
        users_per_node: 5,
        thoughts_per_user: 3,
        subscriptions_per_user: 2,
        ..Default::default()
    };
    scadr::setup(&db, &config, 1).unwrap();
    let server = PiqlServer::start(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let mut json = Client::connect(addr).unwrap();
    let mut binary = Client::connect_binary(addr).unwrap();
    json.prepare(
        "recent",
        "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 3",
    )
    .unwrap();
    let execute = Request::Execute {
        name: "recent".into(),
        params: uname_param(2),
        cursor: None,
    };
    let panics = |client: &mut Client| {
        let stats = client.stats().unwrap();
        stats.get("handler_panics").and_then(Json::as_i64)
    };
    assert_eq!(panics(&mut json), Some(0));

    store.armed.store(true, Ordering::SeqCst);
    for client in [&mut json, &mut binary] {
        let answer = client.request_raw(&execute).unwrap();
        assert_eq!(answer.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            answer.get("error").and_then(Json::as_str),
            Some("internal error: request handler panicked")
        );
    }
    store.armed.store(false, Ordering::SeqCst);

    // both connections still serve, and both saw both panics counted
    for client in [&mut json, &mut binary] {
        assert_eq!(panics(client), Some(2));
        let page = client.execute("recent", &uname_param(2), None).unwrap();
        assert_eq!(page.rows.len(), 3);
    }
}

/// The acceptance criterion: ≥8 concurrent client threads against
/// `LiveCluster` through TCP, TPC-W-style mix, correct results, no
/// deadlocks/panics.
#[test]
fn concurrent_tpcw_mix_over_tcp() {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    let tpcw_config = TpcwConfig {
        items: 30,
        customers_per_node: 25,
        orders_per_customer: 2,
        ..Default::default()
    };
    let (n_customers, n_items, n_orders) = tpcw::setup(&db, &tpcw_config, 2).unwrap();
    let server = PiqlServer::start(
        db,
        linear_predictor(150, 40, 2),
        permissive_slo(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();

    // register the statements once, up front
    {
        let mut admin = Client::connect(addr).unwrap();
        for (name, sql) in tpcw::TABLE1_SQL {
            let verdict = admin.prepare(name, sql).unwrap();
            assert_eq!(
                verdict.get("status").and_then(Json::as_str),
                Some("admitted"),
                "{name}"
            );
        }
    }

    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = StdRng::seed_from_u64(0xC0DE + t as u64);
                for _ in 0..25 {
                    match rng.gen_range(0..5u32) {
                        0 => {
                            let i = rng.gen_range(0..n_customers);
                            let uname = tpcw::customer_uname(i);
                            let page = client
                                .execute("Home WI", &[Value::Varchar(uname.clone()).into()], None)
                                .unwrap();
                            assert_eq!(page.rows.len(), 1, "one customer row");
                            assert_eq!(
                                page.rows[0].get(0),
                                Some(&Value::Varchar(uname)),
                                "right customer came back"
                            );
                        }
                        1 => {
                            let item = rng.gen_range(0..n_items) as i32;
                            let page = client
                                .execute("Product Detail WI", &[Value::Int(item).into()], None)
                                .unwrap();
                            assert_eq!(page.rows.len(), 1);
                            assert_eq!(page.rows[0].get(0), Some(&Value::Int(item)));
                        }
                        2 => {
                            let uname = tpcw::customer_uname(rng.gen_range(0..n_customers));
                            let page = client
                                .execute(
                                    "Order Display WI Get Last Order",
                                    &[Value::Varchar(uname).into()],
                                    None,
                                )
                                .unwrap();
                            assert!(page.rows.len() <= 1);
                        }
                        3 => {
                            let surname = tpcw::SURNAMES[rng.gen_range(0..tpcw::SURNAMES.len())];
                            let page = client
                                .execute(
                                    "Search By Author WI",
                                    &[Value::Varchar(surname.to_string()).into()],
                                    None,
                                )
                                .unwrap();
                            assert!(page.rows.len() <= 50, "LIMIT respected");
                        }
                        _ => {
                            // the updating interaction: add a cart line, read
                            // it back through the Buy Request query
                            let cart = t * 1_000_000 + rng.gen_range(0..900_000);
                            let item = rng.gen_range(0..n_items) as i32;
                            client
                                .dml(
                                    "INSERT INTO shopping_cart_line \
                                     (scl_sc_id, scl_i_id, scl_qty) VALUES (<c>, <i>, <q>)",
                                    &[
                                        Value::Int(cart).into(),
                                        Value::Int(item).into(),
                                        Value::Int(1).into(),
                                    ],
                                )
                                .unwrap();
                            let page = client
                                .execute("Buy Request WI", &[Value::Int(cart).into()], None)
                                .unwrap();
                            assert_eq!(page.rows.len(), 1, "own write visible");
                        }
                    }
                }
                // every thread checks the order-line join once with a known id
                let order = tpcw::initial_order_id((t as usize) % n_orders.max(1), n_orders);
                let page = client
                    .execute(
                        "Order Display WI Get OrderLines",
                        &[Value::Int(order).into()],
                        None,
                    )
                    .unwrap();
                assert!(!page.rows.is_empty(), "initial orders have lines");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no thread panicked");
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let executed = stats.get("executed").and_then(Json::as_i64).unwrap();
    assert!(
        executed >= 8 * 25,
        "every interaction completed: {executed}"
    );
    assert_eq!(stats.get("exec_errors").and_then(Json::as_i64), Some(0));
    assert!(server.connection_count() >= 10);
}

/// The `rebalance` verb re-splits the live store's namespaces at learned
/// quantiles while the service keeps answering. `thoughts` is skewed by
/// inserts ahead of the paginated user's rows first, so the re-split moves
/// them: a pagination sequence that straddles it returns exactly the rows
/// an uninterrupted run does, and the post-rebalance balance report shows
/// every namespace spread evenly.
#[test]
fn rebalance_verb_resplits_the_live_store_mid_pagination() {
    let (db, server) = start_scadr_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .prepare(
            "stream",
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 4",
        )
        .unwrap();

    // the uninterrupted run, for comparison
    let mut uninterrupted = Vec::new();
    let mut cursor = None;
    loop {
        let page = match cursor.take() {
            None => client.execute("stream", &uname_param(3), None).unwrap(),
            Some(c) => client.cursor_next("stream", &uname_param(3), c).unwrap(),
        };
        if page.rows.is_empty() {
            break;
        }
        uninterrupted.extend(page.rows);
        match page.cursor {
            Some(c) => cursor = Some(c),
            None => break,
        }
    }
    assert_eq!(uninterrupted.len(), 11);

    // skew `thoughts`: user 0's keys lead the table, so 300 more of them
    // pile onto its first shard
    for ts in 0..300 {
        let params: Vec<ParamValue> = vec![
            Value::Varchar(scadr::username(0)).into(),
            Value::Timestamp(ts).into(),
            Value::Varchar(format!("skew {ts}")).into(),
        ];
        client
            .dml(
                "INSERT INTO thoughts (owner, timestamp, text) VALUES (<u>, <ts>, <t>)",
                &params,
            )
            .unwrap();
    }
    let thoughts = || {
        let mut balance = db.cluster().balance().into_iter();
        let thoughts = balance.find(|b| b.name == "t/thoughts");
        thoughts.expect("thoughts namespace").entries
    };
    let skewed = thoughts();

    // page 1 against the skewed layout ...
    let page1 = client.execute("stream", &uname_param(3), None).unwrap();
    let mut rows = page1.rows;
    let mut cursor = page1.cursor;

    // ... rebalance in the middle of the pagination ...
    let report = client.rebalance().unwrap();
    let resplit = thoughts();
    assert_ne!(resplit, skewed, "the rebalance moved thoughts' entries");
    assert_eq!(resplit.iter().sum::<u64>(), skewed.iter().sum::<u64>());
    assert_eq!(report.get("rebalances").and_then(Json::as_i64), Some(1));
    let balance = report.get("shard_balance").and_then(Json::as_arr).unwrap();
    assert!(!balance.is_empty());
    for ns in balance {
        let entries = ns.get("entries").and_then(Json::as_i64).unwrap();
        let shards = ns.get("shards").and_then(Json::as_i64).unwrap();
        let share = ns.get("max_entry_share").and_then(Json::as_f64).unwrap();
        if entries >= 64 {
            let threshold = (2.0 / shards as f64) * 1.5;
            assert!(
                share <= threshold,
                "{}: max entry share {share:.3} over {shards} shards exceeds {threshold:.3}",
                ns.get("namespace").and_then(Json::as_str).unwrap_or("?")
            );
        }
    }

    // ... and the cursor resumes against the new layout, no gap, no dup
    while let Some(c) = cursor.take() {
        let page = client.cursor_next("stream", &uname_param(3), c).unwrap();
        if page.rows.is_empty() {
            break;
        }
        rows.extend(page.rows);
        cursor = page.cursor;
    }
    assert_eq!(rows, uninterrupted);

    // stats carries the counter and the balance report for operators
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("rebalances").and_then(Json::as_i64), Some(1));
    assert!(stats.get("shard_balance").and_then(Json::as_arr).is_some());
}

/// Shutdown regression: a server bound to the unspecified address
/// (`0.0.0.0`) used to poke its acceptor by connecting to that exact
/// address — which fails — leaving the accept thread blocked until the
/// next real client. Dropping such a server must return promptly.
#[test]
fn dropping_a_server_bound_to_unspecified_unblocks_the_acceptor() {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    let server = PiqlServer::start(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
        "0.0.0.0:0",
    )
    .unwrap();
    let port = server.local_addr().port();

    // reachable via loopback even though bound to 0.0.0.0
    let mut client = Client::connect(("127.0.0.1", port)).unwrap();
    assert!(client.stats().unwrap().get("ok").is_some());
    drop(client);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(server);
        done_tx.send(()).ok();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("drop must unblock the accept thread without a real client connecting");
}

/// An index `prepare` derives while clients insert finds every row the
/// records hold: each build waits out the inserts compiled before it, so
/// none lands behind its scan. Five builds race the inserts, one a column.
#[test]
fn an_index_derived_while_a_client_inserts_finds_every_row() {
    const WRITERS: usize = 4;
    const BUILDS: usize = 5;
    let (db, server) = start_scadr_server();
    let addr = server.local_addr();
    db.execute_ddl(
        "CREATE TABLE racing (id INT NOT NULL, c0 INT, c1 INT, c2 INT, c3 INT, c4 INT, \
         c5 INT, PRIMARY KEY (id))",
    )
    .unwrap();
    // an index puts an entries round ahead of each insert's swap, and
    // service time on every round widens the window that round opens
    // between an insert's plan and its swap
    db.execute_ddl("CREATE INDEX racing_by_c0 ON racing (c0)")
        .unwrap();
    db.cluster().set_request_delay_us(200);
    let insert = "INSERT INTO racing VALUES (<id>, <c0>, <c1>, <c2>, <c3>, <c4>, <c5>)";
    let by = |c: usize| format!("SELECT * FROM racing WHERE c{c} = <v> LIMIT 5");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let stop = &stop;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for n in (w..).step_by(WRITERS) {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let params = vec![Value::Int(n as i32).into(); 7];
                    client.dml(insert, &params).unwrap();
                }
            });
        }
        let mut client = Client::connect(addr).unwrap();
        for c in 1..=BUILDS {
            std::thread::sleep(Duration::from_millis(10));
            client.prepare(&format!("by_c{c}"), &by(c)).unwrap();
        }
        stop.store(true, Ordering::Release);
    });
    db.cluster().set_request_delay_us(0);
    let stored = db.reference_query("SELECT * FROM racing", &[][..]).unwrap();
    let mut session = Session::new();
    let mut misread = Vec::new();
    for c in 1..=BUILDS {
        let prepared = db.prepare(&by(c)).unwrap();
        assert!(
            prepared.compiled.explain().contains("IndexScan"),
            "c{c}: no index"
        );
        for row in &stored {
            let params = [row.values()[c].clone().into()];
            let found = db.execute(&mut session, &prepared, &params[..]).unwrap();
            if found.rows.len() != 1 {
                misread.push(format!("c{c} = {:?}", row.values()[c]));
            }
        }
    }
    let n = stored.len();
    assert!(misread.is_empty(), "of {n} rows, not found: {misread:?}");
}

/// One JSON connection carrying both venues at once — tagged reads and
/// writes on the dispatch pool, untagged ones on the connection's reader,
/// each answer printed by the thread that computed it — answers every
/// request exactly once, byte for byte as the embedder API's tree prints:
/// untagged answers in arrival order, each id once. A twin database, set
/// up the same way, gives the trees; the writes add users no read finds.
#[test]
fn mixed_venues_answer_like_the_embedder_api() {
    use piql_server::{Envelope, JsonWire, RequestId, ServerTuning, StatementRegistry, Wire};
    use std::collections::HashMap;
    use std::io::{BufRead, BufReader, Write};

    let config = ScadrConfig {
        users_per_node: 20,
        thoughts_per_user: 6,
        subscriptions_per_user: 4,
        ..Default::default()
    };
    let queries = scadr::queries(&config);
    let reads = [
        ("find_user", &queries.find_user),
        ("recent_thoughts", &queries.recent_thoughts),
        ("thoughtstream", &queries.thoughtstream),
    ];
    let registry = || {
        let db = Arc::new(Database::new(Arc::new(LiveCluster::new(
            LiveConfig::default(),
        ))));
        scadr::setup(&db, &config, 2).unwrap();
        let registry = StatementRegistry::new(db, linear_predictor(200, 100, 2), permissive_slo());
        for (name, sql) in reads {
            assert!(registry.register(name, sql).unwrap().is_admitted());
        }
        Arc::new(registry)
    };
    let tuning = ServerTuning {
        dispatch_threads: 4,
        ..ServerTuning::default()
    };
    let server = PiqlServer::start_tuned(registry(), "127.0.0.1:0", tuning).unwrap();

    // reads of users 0..20, a write every fourth request, every third
    // request tagged
    let requests: Vec<Envelope> = (0..90)
        .map(|i| {
            let request = if i % 4 == 3 {
                Request::Dml {
                    sql: "INSERT INTO users (username, home_town) VALUES (<u>, <t>)".into(),
                    params: vec![
                        Value::Varchar(format!("newcomer{i}")).into(),
                        Value::Varchar("Berkeley".into()).into(),
                    ],
                }
            } else {
                Request::Execute {
                    name: reads[i / 3 % 3].0.into(),
                    params: uname_param(i % 20),
                    cursor: None,
                }
            };
            let id = (i % 3 == 1).then(|| match i % 2 {
                0 => RequestId::Int(i as i64),
                _ => RequestId::Str(format!("request {i}")),
            });
            Envelope { id, request }
        })
        .collect();

    let twin = registry();
    let mut session = Session::new();
    let (mut untagged, mut tagged) = (Vec::new(), HashMap::new());
    for envelope in &requests {
        let tree = piql_server::server::handle_request(&envelope.request, &mut session, &twin);
        let mut line = Vec::new();
        JsonWire.encode_response(envelope.id.as_ref(), &tree, &mut line);
        match &envelope.id {
            Some(id) => assert!(tagged.insert(id.clone(), line).is_none()),
            None => untagged.push(line),
        }
    }
    assert!(untagged.len() > 30 && tagged.len() > 20);

    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut burst = Vec::new();
    for envelope in &requests {
        JsonWire.encode_envelope(envelope, &mut burst);
    }
    (&stream).write_all(&burst).unwrap();
    let mut answers = BufReader::new(&stream);
    let mut untagged = untagged.into_iter();
    for _ in 0..requests.len() {
        let mut line = Vec::new();
        answers.read_until(b'\n', &mut line).unwrap();
        let (id, _) = JsonWire.decode_response(&line[..line.len() - 1]).unwrap();
        let expected = match &id {
            Some(id) => tagged
                .remove(id)
                .unwrap_or_else(|| panic!("{id} answered twice")),
            None => untagged
                .next()
                .expect("more untagged answers than requests"),
        };
        assert_eq!(
            String::from_utf8_lossy(&line),
            String::from_utf8_lossy(&expected),
            "{id:?}"
        );
    }
    assert!(untagged.next().is_none() && tagged.is_empty());
}
