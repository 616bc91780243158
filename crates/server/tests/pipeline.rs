//! End-to-end tests for the pipelined & batched wire protocol
//! (PROTOCOL.md §5–6): id echo, completion-order responses for tagged
//! requests (a slow `execute` must not head-of-line-block a cheap
//! `stats`), strict arrival-order for legacy id-less requests on the
//! same rebuilt server, batch positional results with mid-batch errors,
//! and the client `Pipeline` / `execute_batch` APIs.

use piql_core::plan::params::ParamValue;
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::{LiveCluster, LiveConfig, Session};
use piql_server::protocol::{envelope_to_line, request_to_line};
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{
    decode_page, Client, Envelope, Json, PiqlServer, Request, RequestId, ServerTuning,
    StatementRegistry,
};
use piql_workloads::scadr::{self, ScadrConfig};
use std::io::Write;
use std::sync::Arc;

fn start_server() -> (Arc<LiveCluster>, PiqlServer) {
    start_server_with_dispatch(8)
}

fn start_server_with_dispatch(dispatch_threads: usize) -> (Arc<LiveCluster>, PiqlServer) {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster.clone()));
    let config = ScadrConfig {
        users_per_node: 20,
        thoughts_per_user: 7,
        subscriptions_per_user: 4,
        ..Default::default()
    };
    scadr::setup(&db, &config, 2).unwrap();
    let registry = Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
    ));
    let tuning = ServerTuning {
        dispatch_threads,
        ..ServerTuning::default()
    };
    let server = PiqlServer::start_tuned(registry, "127.0.0.1:0", tuning).unwrap();
    (cluster, server)
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

/// Tagged requests are answered in completion order: a slow `execute`
/// (50 ms injected per storage request) pipelined *before* a cheap
/// `stats` must be answered *after* it.
#[test]
fn tagged_requests_complete_out_of_order() {
    let (cluster, server) = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .prepare("find", "SELECT * FROM users WHERE username = <u>")
        .unwrap();

    cluster.set_request_delay_us(50_000);
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
    cluster.set_request_delay_us(0);
}

/// The same shape without ids must keep today's strict ordering: the
/// slow execute is answered first even though stats completed long ago.
#[test]
fn untagged_requests_stay_in_arrival_order() {
    let (cluster, server) = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .prepare("find", "SELECT * FROM users WHERE username = <u>")
        .unwrap();

    cluster.set_request_delay_us(30_000);
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
    cluster.set_request_delay_us(0);

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
    use std::time::Duration;
    const BOUND: Duration = Duration::from_secs(20);

    let (_cluster, server) = start_server_with_dispatch(1);
    let registry = server.registry().clone();
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    a.prepare("acme.find", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
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

/// A batch runs its sub-requests sequentially on one session — a `dml`
/// is visible to the `execute` after it — and a failing sub-request
/// yields an error entry in place without aborting the rest.
#[test]
fn batch_mid_error_answers_in_place_and_continues() {
    let (_cluster, server) = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
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
#[test]
fn pipeline_returns_positional_results() {
    let (_cluster, server) = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .prepare("find", "SELECT * FROM users WHERE username = <u>")
        .unwrap();

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
#[test]
fn pipeline_carries_per_request_errors_positionally() {
    let (_cluster, server) = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .prepare("find", "SELECT * FROM users WHERE username = <u>")
        .unwrap();

    let mut pipeline = client.pipeline();
    pipeline.queue_execute("find", &uname_param(1));
    pipeline.queue_execute("missing", &uname_param(1));
    pipeline.queue_execute("find", &uname_param(2));
    let responses = pipeline.flush().unwrap();
    assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(responses[2].get("ok").and_then(Json::as_bool), Some(true));
}

/// A malformed line that still carries a parseable id gets its error
/// echoed with that id, so a pipelining client can correlate it.
#[test]
fn malformed_tagged_line_echoes_the_id() {
    let (_cluster, server) = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut raw = client.raw_stream().unwrap();
    raw.write_all(b"{\"cmd\":\"nope\",\"id\":77}\n").unwrap();
    raw.flush().unwrap();
    let response = client.raw_read_line().unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(response.get("id").and_then(Json::as_i64), Some(77));
}

/// Tagged and untagged requests interleaved on one connection: the
/// untagged ones preserve their relative order among themselves, and
/// every response arrives exactly once.
#[test]
fn mixed_lanes_answer_every_request_once() {
    let (_cluster, server) = start_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .prepare("find", "SELECT * FROM users WHERE username = <u>")
        .unwrap();

    let mut raw = client.raw_stream().unwrap();
    let mut wire = String::new();
    // 10 untagged (ordered lane) interleaved with 10 tagged
    for i in 0..10 {
        wire.push_str(&request_to_line(&execute_req("find", i)));
        wire.push('\n');
        wire.push_str(&envelope_to_line(&Envelope {
            id: Some(RequestId::Int(100 + i as i64)),
            request: execute_req("find", 20 + i),
        }));
        wire.push('\n');
    }
    raw.write_all(wire.as_bytes()).unwrap();
    raw.flush().unwrap();

    let mut untagged_seen = Vec::new();
    let mut tagged_seen = Vec::new();
    for _ in 0..20 {
        let response = client.raw_read_line().unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let page = decode_page(&response).unwrap();
        let uname = match page.rows[0].get(0) {
            Some(Value::Varchar(s)) => s.clone(),
            other => panic!("unexpected first column {other:?}"),
        };
        match response.get("id").and_then(Json::as_i64) {
            Some(id) => tagged_seen.push((id, uname)),
            None => untagged_seen.push(uname),
        }
    }
    // untagged responses came back in arrival order...
    let expected_untagged: Vec<String> = (0..10).map(scadr::username).collect();
    assert_eq!(untagged_seen, expected_untagged);
    // ...and every tagged request was answered exactly once, correctly
    tagged_seen.sort();
    let expected_tagged: Vec<(i64, String)> = (0..10)
        .map(|i| (100 + i as i64, scadr::username(20 + i as usize)))
        .collect();
    assert_eq!(tagged_seen, expected_tagged);
}

/// `handle_line`/`handle_request` (the embedder API) answer batches too.
#[test]
fn embedder_handle_line_supports_batch() {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    scadr::setup(
        &db,
        &ScadrConfig {
            users_per_node: 4,
            thoughts_per_user: 2,
            subscriptions_per_user: 1,
            ..Default::default()
        },
        1,
    )
    .unwrap();
    let registry = StatementRegistry::new(db, linear_predictor(200, 100, 2), permissive_slo());
    registry
        .register("find", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
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
