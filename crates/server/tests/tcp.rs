//! The server end to end over TCP, on a `LiveCluster`: what a client sees
//! through each codec. The cases both codecs owe are written once, over
//! the client's codec ([`Connect`]), and run on each in a module named for
//! it (`json::cursors_survive_reconnects`,
//! `binary::cursors_survive_reconnects`, ...): pagination cursors resumed
//! on a new connection, per-statement stats, empty intervals and foreign
//! cursors, the `rebalance` verb mid-pagination, batches and pipelines
//! with their per-request errors in place, concurrent writers (no lost
//! update, one winner per contended key, 8 threads of the TPC-W mix), and
//! every Table 1 query answering through the wire with the bytes a direct
//! execution of the same statement prints.
//!
//! What only one codec owes stays with it, under its own name. JSON lines:
//! malformed and deeply nested lines answer errors and the connection
//! lives; the two venues of PROTOCOL.md §5 (tagged requests answer in
//! completion order, untagged ones in arrival order, a parked untagged
//! request holds no dispatch worker, and both on one connection answer as
//! the embedder API does). Binary frames: negotiation, the fast lane's
//! answers byte for byte the general path's and admitted once, and every
//! lane booking an execution once. Across both: a handler panic is
//! contained and counted on each of the three venues, a raw `cursor-next`
//! still answers, and an index built while clients of both codecs insert
//! finds every row. Run in CI under `--release` too, so the pools are
//! exercised at optimized timing.

mod common;

use piql_core::codec::row::encode_tuple;
use piql_core::plan::params::{ParamValue, Params};
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::{
    ClusterConfig, KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, NsBalance, NsId,
    Session, SimCluster,
};
use piql_server::protocol::{envelope_to_line, request_to_line, row_to_json};
use piql_server::server::handle_request;
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{
    decode_page, BinaryConn, BinaryWire, Client, Envelope, Json, PiqlServer, Request, RequestId,
    ServerTuning, StatementRegistry, Wire,
};
use piql_workloads::scadr;
use piql_workloads::tpcw::{self, TpcwConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a case both codecs owe opens its connections.
type Connect = fn(SocketAddr) -> io::Result<Client>;

/// JSON lines (v2).
const JSON: Connect = |addr| Client::connect(addr);
/// Binary frames (v3).
const BINARY: Connect = |addr| Client::connect_binary(addr);

/// The limit on a user's subscriptions every SCADr store here is loaded
/// under (`ScadrConfig`'s default).
const MAX_SUBSCRIPTIONS: u64 = 10;

const POINT: &str = "SELECT * FROM users WHERE username = <u>";
const STREAM: &str = "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 4";

/// `db` behind the registry every server here runs: a linear model, and
/// an SLO every bounded statement meets.
fn registry<S: KvStore>(db: Arc<Database<S>>) -> Arc<StatementRegistry<S>> {
    Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
    ))
}

/// `db` served on an ephemeral port, with `dispatch_threads` workers for
/// tagged requests.
fn serve<S: KvStore + 'static>(db: Arc<Database<S>>, dispatch_threads: usize) -> PiqlServer<S> {
    let tuning = ServerTuning {
        dispatch_threads,
        ..ServerTuning::default()
    };
    PiqlServer::start_tuned(registry(db), "127.0.0.1:0", tuning).unwrap()
}

/// The crate's SCADr store (`common::scadr_db`), served.
fn scadr_server() -> (Arc<Database<LiveCluster>>, PiqlServer) {
    let (_, db) = common::scadr_db(MAX_SUBSCRIPTIONS);
    (db.clone(), serve(db, 4))
}

/// The SCADr store with TPC-W loaded beside it, served, and TPC-W's
/// customer, item and order counts.
fn tpcw_server() -> (
    Arc<Database<LiveCluster>>,
    PiqlServer,
    (usize, usize, usize),
) {
    let (_, db) = common::scadr_db(MAX_SUBSCRIPTIONS);
    let config = TpcwConfig {
        items: 40,
        customers_per_node: 20,
        orders_per_customer: 2,
        ..Default::default()
    };
    let counts = tpcw::setup(&db, &config, 2).unwrap();
    (db.clone(), serve(db, 4), counts)
}

fn uname_param(i: usize) -> Vec<ParamValue> {
    vec![Value::Varchar(scadr::username(i)).into()]
}

fn execute_req(name: &str, i: usize) -> Request {
    Request::Execute {
        name: name.into(),
        params: uname_param(i),
        cursor: None,
    }
}

// ------------------------------------------------- cases both codecs owe

fn cursors_survive_reconnects(connect: Connect) {
    let (db, server) = scadr_server();
    let addr = server.local_addr();

    let mut client = connect(addr).unwrap();
    let verdict = client.prepare("stream", STREAM).unwrap();
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
    let mut client2 = connect(addr).unwrap();
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
        let mut params = Params::new();
        params.set(0, Value::Varchar(scadr::username(7)));
        let mut session = Session::new();
        db.execute(&mut session, &prepared, &params)
            .unwrap()
            .rows
            .to_tuples()
    };
    assert_eq!(rows.len(), 12);
    assert_eq!(rows, direct);
}

fn stats_report_counters_and_latency(connect: Connect) {
    let (_db, server) = scadr_server();
    let mut client = connect(server.local_addr()).unwrap();
    client.prepare("find_user", POINT).unwrap();
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

/// Intervals that hold nothing — crossed range bounds, a cursor replayed
/// under another user — are empty pages. They used to panic the store
/// under the handler ("range start is greater than range end") and come
/// back as "internal error: request handler panicked".
fn empty_intervals_and_foreign_cursors_answer_empty_pages(connect: Connect) {
    let (_db, server) = scadr_server();
    let mut client = connect(server.local_addr()).unwrap();
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
    assert_eq!(full.rows.len(), 5);
    for (lo, hi) in [(10, 5), (10, 10)] {
        let page = client.execute("between", &between(lo, hi), None).unwrap();
        assert!(page.rows.is_empty(), "({lo}, {hi})");
    }

    let first = client.execute("paged", &uname_param(3), None).unwrap();
    assert_eq!(first.rows.len(), 2);
    let cursor = first.cursor.expect("more pages");
    let foreign = client
        .cursor_next("paged", &uname_param(1), cursor.clone())
        .unwrap();
    assert!(foreign.rows.is_empty(), "{:?}", foreign.rows);
    // under its own user the same cursor still resumes
    let second = client
        .cursor_next("paged", &uname_param(3), cursor)
        .unwrap();
    assert_eq!(second.rows.len(), 2);

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("handler_panics").and_then(Json::as_i64), Some(0));
}

/// The acceptance criterion: ≥8 concurrent client threads against
/// `LiveCluster` through TCP, TPC-W-style mix, correct results, no
/// deadlocks/panics.
fn concurrent_tpcw_mix_over_tcp(connect: Connect) {
    let (_db, server, (n_customers, n_items, n_orders)) = tpcw_server();
    let addr = server.local_addr();

    // register the statements once, up front
    {
        let mut admin = connect(addr).unwrap();
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
                let mut client = connect(addr).unwrap();
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

    let mut client = connect(addr).unwrap();
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
fn rebalance_verb_resplits_the_live_store_mid_pagination(connect: Connect) {
    let (db, server) = scadr_server();
    let mut client = connect(server.local_addr()).unwrap();
    client.prepare("stream", STREAM).unwrap();

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
    assert_eq!(uninterrupted.len(), 12);

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

/// N sessions insert disjoint rows concurrently; every row must be
/// readable afterwards — the fan-out pool may reorder work inside a
/// round, but it must not drop or cross-wire writes.
fn concurrent_dml_loses_no_updates(connect: Connect) {
    const THREADS: usize = 8;
    const INSERTS: usize = 40;
    let (_db, server) = scadr_server();
    let addr = server.local_addr();

    {
        let mut c = connect(addr).unwrap();
        c.prepare(
            "mine",
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 1000",
        )
        .unwrap();
    }

    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = connect(addr).unwrap();
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

    let mut client = connect(addr).unwrap();
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
fn contended_inserts_have_exactly_one_winner(connect: Connect) {
    const THREADS: usize = 8;
    let (_db, server) = scadr_server();
    let addr = server.local_addr();

    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = connect(addr).unwrap();
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

/// A batch runs its sub-requests sequentially on one session — a `dml`
/// is visible to the `execute` after it — and a failing sub-request
/// yields an error entry in place without aborting the rest.
fn batch_mid_error_answers_in_place_and_continues(connect: Connect) {
    let (_db, server) = scadr_server();
    let mut client = connect(server.local_addr()).unwrap();
    client
        .prepare(
            "mine",
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 100",
        )
        .unwrap();

    let results = client
        .execute_batch(&[
            Request::Dml {
                sql: "INSERT INTO thoughts (owner, timestamp, text) VALUES (<u>, <ts>, <txt>)"
                    .into(),
                params: vec![
                    Value::Varchar(scadr::username(0)).into(),
                    Value::Timestamp(9_999_999_999_999_999).into(),
                    Value::Varchar("batched".into()).into(),
                ],
            },
            execute_req("no-such-statement", 0),
            execute_req("mine", 0),
        ])
        .unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].get("ok").and_then(Json::as_bool), Some(true));
    // the mid-batch failure answers in place...
    assert_eq!(results[1].get("ok").and_then(Json::as_bool), Some(false));
    assert!(results[1]
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("unknown statement"));
    // ...and the read after it still ran, seeing the batch's own write
    let page = decode_page(&results[2]).unwrap();
    assert_eq!(
        page.rows[0].get(1),
        Some(&Value::Timestamp(9_999_999_999_999_999)),
        "newest thought is the one this batch inserted"
    );

    // the connection is still perfectly usable, and the unknown-statement
    // miss never reached an executor (exec_errors counts execution
    // failures, not registry misses)
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("exec_errors").and_then(Json::as_i64), Some(0));
    assert_eq!(stats.get("executed").and_then(Json::as_i64), Some(1));
}

/// `Pipeline`: N statements queued locally, one write, positional
/// results identical to N sequential round trips.
fn pipeline_returns_positional_results(connect: Connect) {
    let (_db, server) = scadr_server();
    let mut client = connect(server.local_addr()).unwrap();
    client.prepare("find", POINT).unwrap();

    // sequential reference
    let expected: Vec<_> = (0..12)
        .map(|i| client.execute("find", &uname_param(i), None).unwrap())
        .collect();

    let mut pipeline = client.pipeline();
    for i in 0..12 {
        assert_eq!(pipeline.queue_execute("find", &uname_param(i)), i);
    }
    assert_eq!(pipeline.len(), 12);
    let responses = pipeline.flush().unwrap();
    assert!(pipeline.is_empty(), "flushed pipeline is reusable");
    let pages: Vec<_> = responses.iter().map(|r| decode_page(r).unwrap()).collect();
    assert_eq!(pages, expected, "positional results match sequential runs");

    // a reused pipeline keeps working (ids keep incrementing)
    let mut pipeline = client.pipeline();
    pipeline.queue(&Request::Stats);
    pipeline.queue_execute("find", &uname_param(5));
    let responses = pipeline.flush().unwrap();
    assert!(responses[0].get("statements").is_some());
    assert_eq!(decode_page(&responses[1]).unwrap(), expected[5]);
}

/// A pipeline whose middle request fails still returns every response,
/// the failure in its own slot.
fn pipeline_carries_per_request_errors_positionally(connect: Connect) {
    let (_db, server) = scadr_server();
    let mut client = connect(server.local_addr()).unwrap();
    client.prepare("find", POINT).unwrap();

    let mut pipeline = client.pipeline();
    pipeline.queue_execute("find", &uname_param(1));
    pipeline.queue_execute("missing", &uname_param(1));
    pipeline.queue_execute("find", &uname_param(2));
    let responses = pipeline.flush().unwrap();
    assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(responses[2].get("ok").and_then(Json::as_bool), Some(true));
}

fn table1_params(
    label: &str,
    n_customers: usize,
    n_items: usize,
    n_orders: usize,
) -> Vec<ParamValue> {
    let uname = || Value::Varchar(tpcw::customer_uname(3 % n_customers.max(1)));
    match label {
        "Home WI" | "Order Display WI Get Customer" | "Order Display WI Get Last Order" => {
            vec![uname().into()]
        }
        "Home WI (promotions)" => vec![ParamValue::Collection(
            [1, 5, 9, 12, 17]
                .iter()
                .map(|&i| Value::Int((i % n_items.max(1)) as i32))
                .collect(),
        )],
        "New Products WI" => vec![Value::Varchar(tpcw::SUBJECTS[2].to_string()).into()],
        "Product Detail WI" => vec![Value::Int((7 % n_items.max(1)) as i32).into()],
        "Search By Author WI" => vec![Value::Varchar(tpcw::SURNAMES[4].to_string()).into()],
        "Search By Title WI" => vec![Value::Varchar(tpcw::TITLE_WORDS[3].to_string()).into()],
        "Order Display WI Get OrderLines" => {
            vec![Value::Int(tpcw::initial_order_id(2, n_orders)).into()]
        }
        "Buy Request WI" => vec![Value::Int(1).into()],
        other => panic!("unmapped Table-1 label {other}"),
    }
}

/// Every Table 1 query (the TPC-W rows and the SCADr rows) executed
/// through the wire returns **byte-identical** rows to a direct
/// `Database::execute` of the same registered statement: the codec's
/// encode/decode is lossless.
fn table1_queries_differential_tcp_vs_direct(connect: Connect) {
    let (db, server, (n_customers, n_items, n_orders)) = tpcw_server();
    let mut client = connect(server.local_addr()).unwrap();

    // the full Table-1 set: all TPC-W rows plus the four SCADr read queries
    let q = scadr::queries(&common::scadr_config(MAX_SUBSCRIPTIONS));
    let scadr_rows: Vec<(String, String, Vec<ParamValue>)> = vec![
        (
            "Users Followed".into(),
            q.users_followed.clone(),
            uname_param(2),
        ),
        (
            "My Thoughts".into(),
            q.recent_thoughts.clone(),
            uname_param(2),
        ),
        (
            "Thoughtstream".into(),
            q.thoughtstream.clone(),
            uname_param(2),
        ),
        ("Find User".into(), q.find_user.clone(), uname_param(5)),
    ];
    let mut cases: Vec<(String, String, Vec<ParamValue>)> = tpcw::TABLE1_SQL
        .iter()
        .map(|(label, sql)| {
            (
                label.to_string(),
                sql.to_string(),
                table1_params(label, n_customers, n_items, n_orders),
            )
        })
        .collect();
    cases.extend(scadr_rows);

    let mut nonempty = 0;
    for (label, sql, params) in &cases {
        let verdict = client.prepare(label, sql).unwrap();
        assert_eq!(
            verdict.get("status").and_then(Json::as_str),
            Some("admitted"),
            "{label}"
        );

        // through the wire
        let raw = client
            .request(&Request::Execute {
                name: label.clone(),
                params: params.clone(),
                cursor: None,
            })
            .unwrap();
        let wire_rows_json = raw.get("rows").unwrap().to_string();

        // direct, against the very statement the registry holds
        let statement = server.registry().get(label).unwrap();
        let mut p = Params::new();
        for (i, v) in params.iter().enumerate() {
            p.set(i, v.clone());
        }
        let mut session = Session::new();
        let direct = db.execute(&mut session, &statement.prepared(), &p).unwrap();
        let direct_rows_json = Json::Arr(
            direct
                .rows
                .to_tuples()
                .iter()
                .map(|t| row_to_json(t.values()))
                .collect(),
        )
        .to_string();

        assert_eq!(
            wire_rows_json, direct_rows_json,
            "{label}: TCP bytes differ from direct execution"
        );
        if !direct.rows.is_empty() {
            nonempty += 1;
        }
    }
    assert!(
        nonempty >= 10,
        "most Table-1 queries should return rows on the loaded store ({nonempty})"
    );
}

/// Runs each case both codecs owe on each, as `json::<case>` and
/// `binary::<case>`.
macro_rules! on_each_codec {
    ($($case:ident),* $(,)?) => {
        mod json {
            $(#[test]
            fn $case() {
                super::$case(super::JSON)
            })*
        }
        mod binary {
            $(#[test]
            fn $case() {
                super::$case(super::BINARY)
            })*
        }
    };
}

on_each_codec!(
    cursors_survive_reconnects,
    stats_report_counters_and_latency,
    empty_intervals_and_foreign_cursors_answer_empty_pages,
    concurrent_tpcw_mix_over_tcp,
    rebalance_verb_resplits_the_live_store_mid_pagination,
    concurrent_dml_loses_no_updates,
    contended_inserts_have_exactly_one_winner,
    batch_mid_error_answers_in_place_and_continues,
    pipeline_returns_positional_results,
    pipeline_carries_per_request_errors_positionally,
    table1_queries_differential_tcp_vs_direct,
);

// ------------------------------------------------------- JSON lines only

/// Hostile lines — not JSON, `{}`, truncated escapes, non-object JSON, an
/// unknown verb, a verb without its fields — get an error *response* and
/// the connection keeps serving (pinning down the unwrap-free request
/// parsing).
#[test]
fn malformed_lines_get_error_responses_not_disconnects() {
    let (_db, server) = scadr_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.prepare("find", POINT).unwrap();

    let mut raw = client.raw_stream().unwrap();
    for line in [
        "not json",
        "{}",
        "[1,2,3]",
        "{\"cmd\":\"execute\"}",
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
    let find = |i| request_to_line(&execute_req("find", i));
    raw.write_all(format!("{}\n{{}}\n{}\n", find(1), find(2)).as_bytes())
        .unwrap();
    raw.flush().unwrap();
    let username = |response: &Json| {
        let page = decode_page(response).unwrap();
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
    assert!(client.stats().unwrap().get("admitted").is_some());
}

/// One short line used to kill the whole process: the JSON parser recursed
/// once per `[` with no cap, and 50,000 of them overflow a connection
/// thread's stack (SIGABRT — every connection goes with it). Nesting is capped at 96 levels like a v3 frame's documents:
/// the line gets an error, and the same connection and the next client are
/// served.
#[test]
fn a_deeply_nested_line_is_an_error_not_a_dead_server() {
    let (_db, server) = scadr_server();
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

/// A malformed line that still carries a parseable id gets its error
/// echoed with that id, so a pipelining client can correlate it.
#[test]
fn malformed_tagged_line_echoes_the_id() {
    let (_db, server) = scadr_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut raw = client.raw_stream().unwrap();
    raw.write_all(b"{\"cmd\":\"nope\",\"id\":77}\n").unwrap();
    raw.flush().unwrap();
    let response = client.raw_read_line().unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(response.get("id").and_then(Json::as_i64), Some(77));
}

/// Tagged requests are answered in completion order: a slow `execute`
/// (50 ms injected per storage request) pipelined *before* a cheap
/// `stats` must be answered *after* it.
#[test]
fn tagged_requests_complete_out_of_order() {
    let (db, server) = scadr_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.prepare("find", POINT).unwrap();

    db.cluster().set_request_delay_us(50_000);
    let mut raw = client.raw_stream().unwrap();
    let slow = envelope_to_line(&Envelope {
        id: Some(RequestId::Str("slow-execute".into())),
        request: execute_req("find", 3),
    });
    let fast = envelope_to_line(&Envelope {
        id: Some(RequestId::Int(2)),
        request: Request::Stats,
    });
    raw.write_all(format!("{slow}\n{fast}\n").as_bytes())
        .unwrap();
    raw.flush().unwrap();

    // first response on the wire is the stats call — the slow execute is
    // still sleeping in the store when it completes
    let first = client.raw_read_line().unwrap();
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("id").and_then(Json::as_i64), Some(2));
    assert!(first.get("statements").is_some(), "stats answered first");

    let second = client.raw_read_line().unwrap();
    assert_eq!(second.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        second.get("id").and_then(Json::as_str),
        Some("slow-execute"),
        "the id is echoed verbatim"
    );
    let page = decode_page(&second).unwrap();
    assert_eq!(page.rows.len(), 1);
    db.cluster().set_request_delay_us(0);
}

/// The same shape without ids must keep today's strict ordering: the
/// slow execute is answered first even though stats completed long ago.
#[test]
fn untagged_requests_stay_in_arrival_order() {
    let (db, server) = scadr_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.prepare("find", POINT).unwrap();

    db.cluster().set_request_delay_us(30_000);
    let mut raw = client.raw_stream().unwrap();
    let slow = request_to_line(&execute_req("find", 3));
    let fast = request_to_line(&Request::Stats);
    raw.write_all(format!("{slow}\n{fast}\n").as_bytes())
        .unwrap();
    raw.flush().unwrap();

    let first = client.raw_read_line().unwrap();
    assert!(
        first.get("rows").is_some(),
        "legacy ordering: the execute answers first"
    );
    assert!(first.get("id").is_none(), "id-less requests echo no id");
    let second = client.raw_read_line().unwrap();
    assert!(second.get("statements").is_some());
    db.cluster().set_request_delay_us(0);

    // and a long burst written at once is answered line for line
    let order: Vec<usize> = (0..100).map(|k| (k * 7) % 40).collect();
    let wire: String = order
        .iter()
        .map(|&i| request_to_line(&execute_req("find", i)) + "\n")
        .collect();
    raw.write_all(wire.as_bytes()).unwrap();
    raw.flush().unwrap();
    for &i in &order {
        let response = client.raw_read_line().unwrap();
        let page = decode_page(&response).unwrap();
        assert_eq!(
            page.rows[0].get(0),
            Some(&Value::Varchar(scadr::username(i))),
            "in arrival order throughout a 100-line burst"
        );
    }
}

/// The ordered lane runs on its connection's own thread, not on the
/// dispatch pool: an id-less request parked on its tenant's budget holds
/// up nobody but its own connection. One dispatch worker; connection A's
/// id-less `execute` queues behind a zero-capacity budget; connection B's
/// tagged `stats` must be answered while A waits.
#[test]
fn a_parked_untagged_request_does_not_hold_a_dispatch_worker() {
    use piql_server::BudgetPolicy;
    const BOUND: Duration = Duration::from_secs(20);

    let server = serve(common::scadr_db(MAX_SUBSCRIPTIONS).1, 1);
    let registry = server.registry().clone();
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    a.prepare("acme.find", POINT).unwrap();
    registry.set_tenant_budget(
        "acme",
        Some(0),
        BudgetPolicy::Queue {
            max_wait: 3 * BOUND,
        },
    );
    let mut a_raw = a.raw_stream().unwrap();
    let mut b_raw = b.raw_stream().unwrap();
    // the timeouts only bound a failure: nothing below waits one out
    a_raw.set_read_timeout(Some(BOUND)).unwrap();
    b_raw.set_read_timeout(Some(BOUND)).unwrap();

    // A: a `stats` and the `execute` behind it, in one write. Once the
    // `stats` answer is here, whatever runs A's ordered lane has moved on
    // to the `execute` — and parks in `admit()`, since nothing can be
    // admitted at capacity 0.
    let lines = [
        request_to_line(&Request::Stats),
        request_to_line(&execute_req("acme.find", 3)),
    ];
    a_raw
        .write_all(format!("{}\n{}\n", lines[0], lines[1]).as_bytes())
        .unwrap();
    a_raw.flush().unwrap();
    assert!(a.raw_read_line().unwrap().get("statements").is_some());
    // and the `execute` is parked in the queue before anything below runs:
    // lifting the budget earlier would admit it straight, never queued
    let budget = registry.budget_for("acme");
    let deadline = std::time::Instant::now() + BOUND;
    while budget.waiting() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "A never reached admit()"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // B: a tagged request needs the only dispatch worker
    let tagged = envelope_to_line(&Envelope {
        id: Some(RequestId::Int(1)),
        request: Request::Stats,
    });
    b_raw.write_all(format!("{tagged}\n").as_bytes()).unwrap();
    b_raw.flush().unwrap();
    let answer = b
        .raw_read_line()
        .expect("B went unanswered: A's parked request is holding the dispatch worker");
    assert_eq!(answer.get("id").and_then(Json::as_i64), Some(1));
    let acme = |stats: &Json, field: &str| {
        let tenants = stats.get("overload").and_then(|o| o.get("tenants"));
        let budget = tenants
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|t| t.get("tenant").and_then(Json::as_str) == Some("acme"));
        budget.and_then(|t| t.get(field)).and_then(Json::as_i64)
    };
    assert_eq!(acme(&answer, "admitted"), Some(0), "A is still waiting");

    // lifting the budget lets A through — admitted off the queue
    registry.set_tenant_budget("acme", None, BudgetPolicy::Reject);
    let page = decode_page(&a.raw_read_line().unwrap()).unwrap();
    assert_eq!(page.rows.len(), 1);
    assert_eq!(acme(&b.stats().unwrap(), "queued"), Some(1));
}

/// One JSON connection carrying both venues at once — tagged reads and
/// writes on the dispatch pool, untagged ones on the connection's reader,
/// each answer printed by the thread that computed it — answers every
/// request exactly once, byte for byte as the embedder API's tree prints:
/// untagged answers in arrival order, each id once. A twin database, set
/// up the same way, gives the trees; the writes add users no read finds.
#[test]
fn mixed_venues_answer_like_the_embedder_api() {
    use piql_server::JsonWire;
    use std::collections::HashMap;

    let queries = scadr::queries(&common::scadr_config(MAX_SUBSCRIPTIONS));
    let reads = [
        ("find_user", &queries.find_user),
        ("recent_thoughts", &queries.recent_thoughts),
        ("thoughtstream", &queries.thoughtstream),
    ];
    let server = serve(common::scadr_db(MAX_SUBSCRIPTIONS).1, 4);
    let twin = registry(common::scadr_db(MAX_SUBSCRIPTIONS).1);
    for registry in [server.registry(), &twin] {
        for (name, sql) in reads {
            assert!(registry.register(name, sql).unwrap().is_admitted());
        }
    }

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
                execute_req(reads[i / 3 % 3].0, i % 20)
            };
            let id = (i % 3 == 1).then(|| match i % 2 {
                0 => RequestId::Int(i as i64),
                _ => RequestId::Str(format!("request {i}")),
            });
            Envelope { id, request }
        })
        .collect();

    let mut session = Session::new();
    let (mut untagged, mut tagged) = (Vec::new(), HashMap::new());
    for envelope in &requests {
        let tree = handle_request(&envelope.request, &mut session, &twin);
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

/// `handle_line`/`handle_request` (the embedder API) answer batches too.
#[test]
fn embedder_handle_line_supports_batch() {
    let registry = registry(common::scadr_db(MAX_SUBSCRIPTIONS).1);
    registry.register("find", POINT).unwrap();
    let mut session = Session::new();
    let response = piql_server::server::handle_line(
        &request_to_line(&Request::Batch {
            requests: vec![execute_req("find", 0), Request::Stats],
        }),
        &mut session,
        &registry,
    );
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let results = response.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 2);
    assert!(results[0].get("rows").is_some());
    assert!(results[1].get("statements").is_some());
}

// ---------------------------------------------------- binary frames only

#[test]
fn binary_client_negotiates_and_matches_json_client() {
    let (_db, server) = scadr_server();
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
    v3.prepare("stream", STREAM).unwrap();
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

#[test]
fn malformed_binary_payload_echoes_header_id() {
    let (_db, server) = scadr_server();
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

#[test]
fn fast_point_response_is_byte_identical_to_general_path() {
    let registry = registry(common::scadr_db(MAX_SUBSCRIPTIONS).1);
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
    let registry = registry(db);
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
    let (_, db) = common::scadr_db(MAX_SUBSCRIPTIONS);
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
    scadr::setup(&sim, &common::scadr_config(MAX_SUBSCRIPTIONS), 2).unwrap();
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
    let (cluster, db) = common::scadr_db(MAX_SUBSCRIPTIONS);
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

/// Every lane that executes a statement books it the same way: one more
/// `stats.executed` and one more of the statement's `executions`, whose
/// count places its latency in the statement's ring — and the fast lane
/// alone adds a `fast_point_reads`.
#[test]
fn every_lane_books_an_execution_once() {
    let (_db, server) = scadr_server();
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
    let (_db, server) = scadr_server();
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

// ------------------------------------------------------------ both codecs

/// The `cursor-next` verb still answers over a socket on both codecs,
/// though [`Client::cursor_next`] no longer sends it: the request a
/// 2bf91e6 client wrote — `execute` with the verb swapped — gets the page
/// `execute` with the same cursor gets.
#[test]
fn a_raw_cursor_next_answers_the_page_execute_with_the_cursor_does() {
    use piql_server::JsonWire;
    let (_db, server) = scadr_server();
    let addr = server.local_addr();
    let mut v2 = Client::connect(addr).unwrap();
    v2.prepare("stream", STREAM).unwrap();
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
        let page = decode_page(&answer).unwrap();
        assert_eq!(page.rows.len(), 4, "v{codec}");
        assert_ne!(page.rows, first.rows, "v{codec}: the second page");
        let executed = client.request(&resume).unwrap();
        assert_eq!(page, decode_page(&executed).unwrap(), "v{codec}");
    }
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
/// in `stats` is how an operator learns that a request reached a bug. It
/// holds on each venue a request runs on: a JSON connection's reader
/// (untagged), a dispatch worker (tagged, so the answer comes back under
/// its id), and a binary connection's own thread.
#[test]
fn contained_handler_panics_are_counted_in_stats() {
    let store = Arc::new(FaultyStore {
        inner: LiveCluster::new(LiveConfig::default()),
        armed: AtomicBool::new(false),
    });
    let db = Arc::new(Database::new(store.clone()));
    scadr::setup(&db, &common::scadr_config(MAX_SUBSCRIPTIONS), 2).unwrap();
    let server = serve(db, 4);
    let addr = server.local_addr();
    let mut json = Client::connect(addr).unwrap();
    let mut binary = Client::connect_binary(addr).unwrap();
    json.prepare(
        "recent",
        "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 3",
    )
    .unwrap();
    let execute = execute_req("recent", 2);
    let panics = |client: &mut Client| {
        let stats = client.stats().unwrap();
        stats.get("handler_panics").and_then(Json::as_i64)
    };
    assert_eq!(panics(&mut json), Some(0));

    store.armed.store(true, Ordering::SeqCst);
    let mut tagged = json.pipeline();
    tagged.queue(&execute);
    let answers = [
        tagged.flush().unwrap().remove(0),
        json.request_raw(&execute).unwrap(),
        binary.request_raw(&execute).unwrap(),
    ];
    for answer in answers {
        assert_eq!(answer.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            answer.get("error").and_then(Json::as_str),
            Some("internal error: request handler panicked")
        );
    }
    store.armed.store(false, Ordering::SeqCst);

    // both connections still serve, and both see all three panics counted
    for client in [&mut json, &mut binary] {
        assert_eq!(panics(client), Some(3));
        let page = client.execute("recent", &uname_param(2), None).unwrap();
        assert_eq!(page.rows.len(), 3);
    }
}

/// Shutdown regression: a server bound to the unspecified address
/// (`0.0.0.0`) used to poke its acceptor by connecting to that exact
/// address — which fails — leaving the accept thread blocked until the
/// next real client. Dropping such a server must return promptly.
#[test]
fn dropping_a_server_bound_to_unspecified_unblocks_the_acceptor() {
    let db = Arc::new(Database::new(Arc::new(LiveCluster::new(
        LiveConfig::default(),
    ))));
    let server = PiqlServer::start_with_registry(registry(db), "0.0.0.0:0").unwrap();
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
        .recv_timeout(Duration::from_secs(10))
        .expect("drop must unblock the accept thread without a real client connecting");
}

/// An index built while clients of both codecs insert finds every row the
/// records hold. Each build waits out the inserts compiled before it, so
/// none lands behind its scan, and empties the write-plan cache, so every
/// insert after it compiles against the new catalog and maintains the
/// index. The first index is declared by `CREATE INDEX` once every writer
/// has its INSERT's plan cached; four more race the inserts as `prepare`
/// derives them, one a column.
#[test]
fn an_index_derived_while_a_client_inserts_finds_every_row() {
    const WRITERS: usize = 4;
    const BUILDS: usize = 5;
    let (db, server) = scadr_server();
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
    let cached = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (stop, cached) = (&stop, &cached);
            scope.spawn(move || {
                let mut client = [JSON, BINARY][w % 2](addr).unwrap();
                for n in (w..).step_by(WRITERS) {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let params = vec![Value::Int(n as i32).into(); 7];
                    client.dml(insert, &params).unwrap();
                    if n == w {
                        cached.fetch_add(1, Ordering::Release);
                    }
                }
            });
        }
        while cached.load(Ordering::Acquire) < WRITERS {
            std::thread::yield_now();
        }
        db.execute_ddl("CREATE INDEX racing_by_c1 ON racing (c1)")
            .unwrap();
        let mut client = Client::connect(addr).unwrap();
        for c in 2..=BUILDS {
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
