//! Overload-control end-to-end tests: typed budget rejections and their
//! `stats` surface, shed (degraded-plan) admission, queue timeouts, the
//! slow-consumer backpressure regression, and the capped-drift `stats`
//! latency pin.

use piql_core::plan::params::ParamValue;
use piql_core::tuple;
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::{LiveCluster, LiveConfig};
use piql_server::protocol::request_to_line;
use piql_server::testkit::linear_predictor;
use piql_server::{
    BudgetPolicy, Client, Json, PiqlServer, Request, ServerTuning, SloConfig, StatementRegistry,
};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn permissive_slo() -> SloConfig {
    SloConfig {
        slo_ms: 1e9,
        interval_confidence: 1.0,
        allow_degrade: true,
    }
}

/// A registry over one wide-rowed table: 400 rows in group `"g"`, each
/// with a ~400-byte payload (so scan responses are heavy enough to fill
/// socket buffers in the slow-consumer test).
fn build_registry() -> Arc<StatementRegistry<LiveCluster>> {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    db.execute_ddl(
        "CREATE TABLE items ( \
           g VARCHAR(24) NOT NULL, \
           k VARCHAR(24) NOT NULL, \
           v VARCHAR(512), \
           PRIMARY KEY (g, k) )",
    )
    .unwrap();
    let payload = "x".repeat(400);
    db.bulk_load(
        "items",
        (0..400u64).map(|i| tuple!["g", format!("k{i:05}").as_str(), payload.as_str()]),
    )
    .unwrap();
    Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
    ))
}

fn register_acme(registry: &StatementRegistry<LiveCluster>) {
    registry
        .register(
            "acme.point",
            "SELECT * FROM items WHERE g = <g> AND k = <k> LIMIT 1",
        )
        .unwrap();
    registry
        .register("acme.scan", "SELECT * FROM items WHERE g = <g> LIMIT 50")
        .unwrap();
}

fn point_params(k: &str) -> Vec<ParamValue> {
    vec![
        Value::Varchar("g".into()).into(),
        Value::Varchar(k.into()).into(),
    ]
}

fn exec_point(client: &mut Client, k: &str) -> Json {
    client
        .request_raw(&Request::Execute {
            name: "acme.point".into(),
            params: point_params(k),
            cursor: None,
        })
        .unwrap()
}

fn exec_scan(client: &mut Client, name: &str) -> Json {
    client
        .request_raw(&Request::Execute {
            name: name.into(),
            params: vec![Value::Varchar("g".into()).into()],
            cursor: None,
        })
        .unwrap()
}

/// Each budget outcome is counted once, by its tenant: the service-wide
/// `budget_rejected` and `budget_shed` are the sums over `tenants`, and
/// `field` was counted on at least two of them.
fn assert_totals_are_tenant_sums(overload: &Json, field: &str) {
    let tenants = overload.get("tenants").and_then(Json::as_arr).unwrap();
    let count = |t: &Json, field: &str| t.get(field).and_then(Json::as_i64).unwrap_or(0);
    let sum = |field| tenants.iter().map(|t| count(t, field)).sum::<i64>();
    for (total, per_tenant) in [("budget_rejected", "rejected"), ("budget_shed", "shed")] {
        assert_eq!(
            overload.get(total).and_then(Json::as_i64),
            Some(sum(per_tenant)),
            "{total} is not the sum over tenants: {overload:?}"
        );
    }
    let counted = tenants.iter().filter(|t| count(t, field) > 0).count();
    assert!(counted >= 2, "{field} counted on {counted} tenant(s)");
}

/// A zero-capacity Reject budget turns every execution into the typed
/// `budget-exceeded` error, visible in the response envelope and in the
/// `stats` overload block; lifting the budget restores service.
#[test]
fn budget_reject_surfaces_typed_error_and_stats() {
    let registry = build_registry();
    register_acme(&registry);
    registry.set_tenant_budget("acme", Some(0), BudgetPolicy::Reject);
    registry
        .register("beta.scan", "SELECT * FROM items WHERE g = <g> LIMIT 50")
        .unwrap();
    registry.set_tenant_budget("beta", Some(0), BudgetPolicy::Reject);
    let server = PiqlServer::start_with_registry(registry.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let beta = exec_scan(&mut client, "beta.scan");
    assert_eq!(beta.get("tenant").and_then(Json::as_str), Some("beta"));
    let resp = exec_point(&mut client, "k00001");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("budget-exceeded"),
        "untyped rejection: {resp:?}"
    );
    assert_eq!(resp.get("tenant").and_then(Json::as_str), Some("acme"));
    assert!(resp
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .contains("budget"));

    let stats = client.stats().unwrap();
    let overload = stats.get("overload").expect("stats lost overload block");
    assert!(
        overload
            .get("budget_rejected")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 1
    );
    let tenants = match overload.get("tenants") {
        Some(Json::Arr(t)) => t,
        other => panic!("overload.tenants missing: {other:?}"),
    };
    let acme = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(Json::as_str) == Some("acme"))
        .expect("acme snapshot missing");
    assert_eq!(acme.get("capacity").and_then(Json::as_i64), Some(0));
    assert_eq!(acme.get("policy").and_then(Json::as_str), Some("reject"));
    assert!(acme.get("rejected").and_then(Json::as_i64).unwrap_or(0) >= 1);
    assert_eq!(acme.get("in_flight").and_then(Json::as_i64), Some(0));
    assert_totals_are_tenant_sums(overload, "rejected");

    // Lifting the budget restores full service on the same connection.
    registry.set_tenant_budget("acme", None, BudgetPolicy::Reject);
    let resp = exec_point(&mut client, "k00001");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
}

/// A zero-capacity Shed budget admits into the overflow band and serves
/// the pre-compiled shed plan: success, `degraded: true`, and the
/// tightest-bound LIMIT instead of the full one.
#[test]
fn budget_shed_serves_degraded_plan() {
    let registry = build_registry();
    register_acme(&registry);
    registry.set_tenant_budget("acme", Some(0), BudgetPolicy::Shed);
    registry
        .register("beta.scan", "SELECT * FROM items WHERE g = <g> LIMIT 50")
        .unwrap();
    registry.set_tenant_budget("beta", Some(0), BudgetPolicy::Shed);
    let server = PiqlServer::start_with_registry(registry.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let beta = exec_scan(&mut client, "beta.scan");
    assert_eq!(beta.get("degraded").and_then(Json::as_bool), Some(true));

    let resp = client
        .request_raw(&Request::Execute {
            name: "acme.scan".into(),
            params: vec![Value::Varchar("g".into()).into()],
            cursor: None,
        })
        .unwrap();
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "shed should admit: {resp:?}"
    );
    assert_eq!(
        resp.get("degraded").and_then(Json::as_bool),
        Some(true),
        "shed response not marked degraded: {resp:?}"
    );
    let rows = resp.get("rows").and_then(Json::as_arr).unwrap();
    assert!(
        !rows.is_empty() && rows.len() < 50,
        "expected a tightened bound, got {} rows",
        rows.len()
    );

    let stats = client.stats().unwrap();
    let overload = stats.get("overload").unwrap();
    assert!(
        overload
            .get("budget_shed")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 1
    );
    assert_totals_are_tenant_sums(overload, "shed");
}

/// A zero-capacity Queue budget waits out `max_wait` then rejects; the
/// wait is observable and the timeout is counted.
#[test]
fn budget_queue_times_out_then_rejects() {
    let registry = build_registry();
    register_acme(&registry);
    registry.set_tenant_budget(
        "acme",
        Some(0),
        BudgetPolicy::Queue {
            max_wait: Duration::from_millis(120),
        },
    );
    let server = PiqlServer::start_with_registry(registry.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let t0 = Instant::now();
    let resp = exec_point(&mut client, "k00002");
    let waited = t0.elapsed();
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("budget-exceeded"),
        "queue should reject after timeout: {resp:?}"
    );
    assert!(
        waited >= Duration::from_millis(80),
        "rejected without queueing: {waited:?}"
    );
    let snapshot = registry
        .tenant_budgets()
        .into_iter()
        .find(|b| b.tenant() == "acme")
        .unwrap()
        .snapshot();
    assert!(snapshot.queue_timeouts >= 1, "{snapshot:?}");
    assert_eq!(snapshot.in_flight, 0, "{snapshot:?}");
}

/// Regression: a connection that stops reading its socket (wedged
/// consumer) must not wedge the server-wide dispatch pool. With the
/// per-connection in-flight cap, the wedged connection's reader lane
/// parks at the cap (counted as backpressure stalls) while other
/// connections' requests keep completing promptly.
#[test]
fn slow_consumer_does_not_wedge_dispatch_pool() {
    let registry = build_registry();
    register_acme(&registry);
    let server = PiqlServer::start_tuned(
        registry.clone(),
        "127.0.0.1:0",
        ServerTuning {
            dispatch_threads: 2,
            max_in_flight_per_conn: 4,
        },
    )
    .unwrap();

    // Connection A: write 300 heavy scans and never read a byte back.
    let wedged = Client::connect(server.local_addr()).unwrap();
    let mut raw = wedged.raw_stream().unwrap();
    let line = request_to_line(&Request::Execute {
        name: "acme.scan".into(),
        params: vec![Value::Varchar("g".into()).into()],
        cursor: None,
    });
    let frame = format!("{line}\n");
    raw.set_write_timeout(Some(Duration::from_millis(100))).ok();
    let mut wrote_all = true;
    for _ in 0..300 {
        if raw.write_all(frame.as_bytes()).is_err() {
            // Kernel send buffer full — the wedge is fully in effect.
            wrote_all = false;
            break;
        }
    }
    if wrote_all {
        raw.flush().ok();
    }

    // Connection B: must keep completing promptly regardless.
    let mut healthy = Client::connect(server.local_addr()).unwrap();
    let t0 = Instant::now();
    for i in 0..20 {
        let resp = exec_point(&mut healthy, &format!("k{:05}", i));
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "healthy connection starved: {resp:?}"
        );
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "healthy connection took {elapsed:?} behind a wedged consumer"
    );

    // The wedged connection's reader must have parked at the cap.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stalls = registry
            .counters
            .backpressure_stalls
            .load(std::sync::atomic::Ordering::Relaxed);
        if stalls >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no backpressure stall recorded for the wedged connection"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `stats` must serialize a bounded drift window per statement (last 8
/// intervals), so its cost stays flat as sweeps accumulate — pinned both
/// structurally (window length) and with a loose latency ratio, with 1k
/// registered statements.
#[test]
fn stats_drift_window_is_capped_and_latency_flat() {
    let registry = build_registry();
    for i in 0..1_000 {
        registry
            .register(
                &format!("t{}.s{i}", i % 7),
                "SELECT * FROM items WHERE g = <g> AND k = <k> LIMIT 1",
            )
            .unwrap();
    }
    let server = PiqlServer::start_with_registry(registry.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let shipped_drift = |stats: &Json| -> Vec<usize> {
        match stats.get("statements") {
            Some(Json::Arr(stmts)) => stmts
                .iter()
                .map(|s| match s.get("drift") {
                    Some(Json::Arr(d)) => d.len(),
                    _ => 0,
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let time_stats = |client: &mut Client| -> (Duration, Json) {
        // median of 5 calls, so one scheduler hiccup can't skew the pin
        let mut best = Duration::MAX;
        let mut last = Json::Null;
        for _ in 0..5 {
            let t0 = Instant::now();
            last = client.stats().unwrap();
            best = best.min(t0.elapsed());
        }
        (best, last)
    };

    for _ in 0..10 {
        registry.revalidate();
    }
    let (early, stats) = time_stats(&mut client);
    let lens = shipped_drift(&stats);
    assert_eq!(lens.len(), 1_000);
    assert!(
        lens.iter().all(|&l| l == 8),
        "drift window not capped at 8 after 10 sweeps"
    );

    for _ in 0..10 {
        registry.revalidate();
    }
    let (late, stats) = time_stats(&mut client);
    assert!(
        shipped_drift(&stats).iter().all(|&l| l == 8),
        "drift window grew with sweep count"
    );
    // Each statement retains >8 events internally; the reply only ships 8.
    assert!(registry
        .list()
        .iter()
        .any(|s| s.recent_drift(usize::MAX).len() > 8));
    assert!(
        late < early * 6 + Duration::from_millis(50),
        "stats latency grew with drift history: {early:?} -> {late:?}"
    );
}
