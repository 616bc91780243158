//! The closed prediction loop, end to end: live execution feeds the
//! models, and periodic re-validation keeps admission honest — statements
//! admitted against stale models are re-degraded or flagged after the
//! store drifts, **without restarting the server**, and recover when the
//! store speeds back up.

mod common;

use common::scadr_db;
use piql_core::plan::params::{ParamValue, Params};
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::{KvStore, LiveCluster, OpKind, Session};
use piql_predict::plan_thetas;
use piql_server::testkit::linear_predictor;
use piql_server::{Admission, Client, DriftAction, PiqlServer, SloConfig, StatementRegistry};
use piql_workloads::scadr;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const FIND_USER: &str = "SELECT * FROM users WHERE username = <u>";
const RECENT_THOUGHTS: &str =
    "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 100";

fn registry(db: Arc<Database<LiveCluster>>, slo_ms: f64) -> Arc<StatementRegistry<LiveCluster>> {
    Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 3),
        SloConfig {
            slo_ms,
            interval_confidence: 1.0,
            allow_degrade: true,
        },
    ))
}

/// The acceptance scenario: a statement admitted under a fast store is
/// flagged by a `revalidate` sweep after injected latency drift — over
/// TCP, same server process throughout — and `stats` reports the refreshed
/// prediction alongside the observed quantiles. When the drift clears and
/// the slow interval rotates out, the statement recovers. Over either
/// codec: the binary fast lane must train the models with the store's
/// service time exactly as the general path does.
#[test]
fn drift_flags_statement_over_tcp_without_restart() {
    drift_flags_statement_over(Client::connect);
    drift_flags_statement_over(Client::connect_binary);
}

fn drift_flags_statement_over(connect: fn(SocketAddr) -> std::io::Result<Client>) {
    let (cluster, db) = scadr_db(100);
    let reg = registry(db, 20.0);
    let server = PiqlServer::start_with_registry(reg.clone(), "127.0.0.1:0").unwrap();
    let mut client = connect(server.local_addr()).unwrap();

    let prep = client.prepare("find_user", FIND_USER).unwrap();
    assert_eq!(
        prep.get("status").and_then(|j| j.as_str()),
        Some("admitted"),
        "fast store + linear model admits the point lookup: {prep}"
    );
    let user: Vec<ParamValue> = vec![Value::Varchar(scadr::username(3)).into()];

    // warm executions under the fast store feed fast live samples
    for _ in 0..3 {
        client.execute("find_user", &user, None).unwrap();
    }
    let sweep = client.revalidate().unwrap();
    assert!(
        sweep
            .get("samples_folded")
            .and_then(|j| j.as_f64())
            .unwrap()
            >= 1.0,
        "live execution must have produced samples: {sweep}"
    );
    assert_eq!(sweep.get("flagged").and_then(|j| j.as_f64()), Some(0.0));

    // the store drifts: 40 ms per request on the same running cluster
    cluster.set_request_delay_us(40_000);
    for _ in 0..3 {
        client.execute("find_user", &user, None).unwrap();
    }
    let sweep = client.revalidate().unwrap();
    assert_eq!(
        sweep.get("flagged").and_then(|j| j.as_f64()),
        Some(1.0),
        "refreshed models must flag the drifted statement: {sweep}"
    );

    // stats: refreshed prediction over the SLO, next to observed quantiles
    let stats = client.stats().unwrap();
    // a finished sweep's number is the sweep count `stats` reports
    assert_eq!(
        stats.get("revalidations").and_then(|j| j.as_f64()),
        sweep.get("sweep").and_then(|j| j.as_f64())
    );
    let statements = stats.get("statements").and_then(|j| j.as_arr()).unwrap();
    let s = statements
        .iter()
        .find(|s| s.get("name").and_then(|j| j.as_str()) == Some("find_user"))
        .unwrap();
    assert_eq!(s.get("status").and_then(|j| j.as_str()), Some("flagged"));
    let predicted = s.get("predicted_p99_ms").and_then(|j| j.as_f64()).unwrap();
    assert!(
        predicted > 20.0,
        "refreshed prediction {predicted} over SLO"
    );
    let observed = s.get("p99_ms").and_then(|j| j.as_f64()).unwrap();
    assert!(observed > 20.0, "observed p99 {observed} shows the drift");
    let drift = s.get("drift").and_then(|j| j.as_arr()).unwrap();
    assert!(
        drift
            .iter()
            .any(|d| d.get("action").and_then(|j| j.as_str()) == Some("flagged")),
        "drift history records the flag: {drift:?}"
    );
    // flagged statements stay executable (drift is an insight, not an outage)
    client.execute("find_user", &user, None).unwrap();

    // drift clears; after every slow observation rotates out of the
    // 3-interval ring (the post-flag execute above left one slow sample in
    // the sink, so the first recovery interval is still mixed — hence 4
    // sweeps), the statement recovers to admitted — still the same server
    cluster.set_request_delay_us(0);
    for _ in 0..4 {
        client.execute("find_user", &user, None).unwrap();
        client.revalidate().unwrap();
    }
    let stats = client.stats().unwrap();
    let statements = stats.get("statements").and_then(|j| j.as_arr()).unwrap();
    let s = statements
        .iter()
        .find(|s| s.get("name").and_then(|j| j.as_str()) == Some("find_user"))
        .unwrap();
    assert_eq!(
        s.get("status").and_then(|j| j.as_str()),
        Some("admitted"),
        "recovered after the slow interval aged out: {s}"
    );
    assert!(
        stats
            .get("drift_recovered")
            .and_then(|j| j.as_f64())
            .unwrap()
            >= 1.0
    );
}

/// Re-degradation: when only the large-fan-out grid points drift slow, the
/// sweep tightens the statement to the advisor's feasible smaller LIMIT
/// instead of flagging it; when the drift clears it relaxes back to the
/// original bound.
#[test]
fn drift_redegrades_then_relaxes_bounded_statement() {
    let (_cluster, db) = scadr_db(100);
    let reg = registry(db, 50.0);
    let verdict = reg.register("recent", RECENT_THOUGHTS).unwrap();
    assert!(
        matches!(verdict, Admission::Admitted { .. }),
        "α=100 scan ≈ 10 ms under the seed model: {verdict:?}"
    );

    // the statement's exact model key (op + β bucket as compiled)
    let prepared = reg.get("recent").unwrap().prepared();
    let thetas = plan_thetas(&prepared.compiled);
    assert_eq!(thetas.len(), 1, "primary-index scan only: {thetas:?}");
    let scan_key = thetas[0];
    assert_eq!(scan_key.alpha_c, 100);

    // live drift hits only large fan-outs: α ≥ 100 explodes to 200 ms,
    // smaller probes stay fast — exactly the shape where a tighter LIMIT
    // is the right answer
    let models = reg.models();
    for &alpha in piql_predict::ALPHA_GRID {
        let key = piql_predict::ModelKey {
            alpha_c: alpha,
            ..scan_key
        };
        let micros = if alpha >= 100 { 200_000 } else { 1_000 };
        for _ in 0..20 {
            models.record_live(key, micros);
        }
    }
    let summary = reg.revalidate();
    assert_eq!(summary.redegraded, 1, "{summary:?}");
    let statement = reg.get("recent").unwrap();
    let admission = statement.admission();
    match &admission {
        Admission::Degraded {
            predicted_p99_ms,
            original_limit,
            limit,
        } => {
            assert_eq!(*original_limit, 100);
            assert!(*limit < 100, "tightened, got {limit}");
            assert!(
                *predicted_p99_ms <= 50.0,
                "tightened prediction meets the SLO: {predicted_p99_ms}"
            );
        }
        other => panic!("expected re-degradation, got {other:?}"),
    }
    assert_eq!(reg.counters.drift_redegraded.load(Ordering::Relaxed), 1);

    // the tightened bound is enforced at execution
    let limit = match admission {
        Admission::Degraded { limit, .. } => limit,
        _ => unreachable!(),
    };
    let mut session = Session::new();
    let mut params = Params::new();
    params.set(0, Value::Varchar(scadr::username(1)));
    let result = reg.execute(&mut session, "recent", &params, None).unwrap();
    assert!(result.rows.len() as u64 <= limit);

    // the plan the sweep swapped in, and the shed plan compiled beside it,
    // are resolved like the one they replace: same namespace, and their
    // rows are the head of the original plan's
    let db = reg.db();
    let full = db
        .execute(&mut session, &prepared, &params)
        .unwrap()
        .rows
        .to_tuples();
    assert_eq!(result.rows.to_tuples(), full[..result.rows.len()]);
    let swapped = [Some(statement.prepared()), statement.shed_prepared()];
    for plan in swapped.into_iter().flatten() {
        assert_eq!(plan.remote_ops()[0].ns, prepared.remote_ops()[0].ns);
        let rows = db
            .execute(&mut session, &plan, &params)
            .unwrap()
            .rows
            .to_tuples();
        assert!(!rows.is_empty() && rows.len() as u64 <= limit);
        assert_eq!(rows, full[..rows.len()]);
    }

    // drift clears: fast samples for every α; after 3 rotations the slow
    // interval ages out and the sweep relaxes back to the original LIMIT
    for _ in 0..3 {
        for &alpha in piql_predict::ALPHA_GRID {
            let key = piql_predict::ModelKey {
                alpha_c: alpha,
                ..scan_key
            };
            for _ in 0..20 {
                models.record_live(key, 1_000);
            }
        }
        reg.revalidate();
    }
    let statement = reg.get("recent").unwrap();
    match statement.admission() {
        Admission::Admitted { .. } => {}
        other => panic!("expected relaxation back to admitted, got {other:?}"),
    }
    assert!(reg.counters.drift_relaxed.load(Ordering::Relaxed) >= 1);
    let history: Vec<DriftAction> = statement
        .recent_drift(usize::MAX)
        .iter()
        .map(|d| d.action)
        .collect();
    assert!(history.contains(&DriftAction::Redegraded), "{history:?}");
    assert!(history.contains(&DriftAction::Relaxed), "{history:?}");
}

/// Satellite pin: a statement reports its root remote operator as its
/// kind, and each one books its own executions.
#[test]
fn statements_report_their_root_operator_kind() {
    let (_cluster, db) = scadr_db(100);
    let reg = registry(db, 1_000.0);
    const THOUGHTSTREAM: &str = "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
         WHERE thoughts.owner = s.target AND s.owner = <u> AND s.approved = true \
         ORDER BY thoughts.timestamp DESC LIMIT 10";
    reg.register("find_user", FIND_USER).unwrap();
    reg.register("thoughtstream", THOUGHTSTREAM).unwrap();

    let find_user = reg.get("find_user").unwrap();
    let thoughtstream = reg.get("thoughtstream").unwrap();
    assert_eq!(find_user.kind, OpKind::IndexScan, "root op");
    assert_eq!(find_user.kind_name(), "IndexScan");
    assert_eq!(
        thoughtstream.kind,
        OpKind::SortedIndexJoin,
        "root op is the SortedIndexJoin"
    );
    assert_eq!(thoughtstream.kind_name(), "SortedIndexJoin");

    let mut session = Session::new();
    let mut params = Params::new();
    params.set(0, Value::Varchar(scadr::username(1)));
    reg.execute(&mut session, "find_user", &params, None)
        .unwrap();
    reg.execute(&mut session, "thoughtstream", &params, None)
        .unwrap();

    for statement in [&find_user, &thoughtstream] {
        assert_eq!(statement.executions.load(Ordering::Relaxed), 1);
    }
}

/// The background `Revalidator` closes the loop on its own: with periodic
/// sweeps enabled, drift is flagged without any client ever sending
/// `revalidate`.
#[test]
fn background_revalidator_flags_drift_unprompted() {
    let (cluster, db) = scadr_db(100);
    let reg = registry(db, 20.0);
    let mut server = PiqlServer::start_with_registry(reg.clone(), "127.0.0.1:0").unwrap();
    server.enable_revalidation(std::time::Duration::from_millis(40));
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.prepare("find_user", FIND_USER).unwrap();
    let user: Vec<ParamValue> = vec![Value::Varchar(scadr::username(5)).into()];

    cluster.set_request_delay_us(40_000);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        client.execute("find_user", &user, None).unwrap();
        if reg.get("find_user").unwrap().admission().verdict() == "flagged" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background sweeps never flagged the drifted statement \
             (sweeps so far: {})",
            reg.counters.revalidations.load(Ordering::Relaxed)
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(reg.counters.revalidations.load(Ordering::Relaxed) >= 1);
    drop(server); // joins the revalidator thread
}

/// A sweep with no drift performs zero storage operations — re-validation
/// is pure compile + predict, like admission itself.
#[test]
fn steady_sweep_issues_no_storage_operations() {
    let (cluster, db) = scadr_db(100);
    let reg = registry(db, 50.0);
    reg.register("find_user", FIND_USER).unwrap();
    let ops_before = cluster.op_count();
    let summary = reg.revalidate();
    assert_eq!(summary.statements, 1);
    assert_eq!(summary.steady, 1);
    assert_eq!(
        summary.samples_folded, 0,
        "nothing executed, nothing drained"
    );
    assert!(!summary.models_rotated);
    assert_eq!(
        cluster.op_count(),
        ops_before,
        "re-validation must not touch storage"
    );
}

/// Live samples flow kv → sink → drain: executing through the registry on
/// a `LiveCluster` buffers tagged operator samples that a sweep consumes.
#[test]
fn live_execution_fills_and_sweep_drains_the_sink() {
    let (cluster, db) = scadr_db(100);
    let reg = registry(db, 1_000.0);
    reg.register("find_user", FIND_USER).unwrap();
    let mut session = Session::new();
    let mut params = Params::new();
    params.set(0, Value::Varchar(scadr::username(2)));
    for _ in 0..5 {
        reg.execute(&mut session, "find_user", &params, None)
            .unwrap();
    }
    assert!(
        cluster.sample_sink().recorded() >= 5,
        "each execution records at least its scan round"
    );
    let summary = reg.revalidate();
    assert!(summary.samples_folded >= 5);
    assert!(summary.models_rotated);
    assert!(cluster.drain_samples().is_empty(), "sweep drained the sink");
    assert_eq!(
        reg.counters.samples_folded.load(Ordering::Relaxed),
        summary.samples_folded
    );
}

/// Record one live interval's worth of samples for `base`'s operator at
/// every grid α (`vary` picks which of the key's two α it is): `slow_ms`
/// where `slow(α)`, 1 ms elsewhere.
fn record_drift(
    reg: &StatementRegistry<LiveCluster>,
    base: piql_predict::ModelKey,
    vary: fn(piql_predict::ModelKey, u32) -> piql_predict::ModelKey,
    slow_ms: u64,
    slow: impl Fn(u32) -> bool,
) {
    for &alpha in piql_predict::ALPHA_GRID {
        let micros = if slow(alpha) { slow_ms * 1_000 } else { 1_000 };
        for _ in 0..20 {
            reg.models().record_live(vary(base, alpha), micros);
        }
    }
}

fn vary_alpha_c(key: piql_predict::ModelKey, alpha_c: u32) -> piql_predict::ModelKey {
    piql_predict::ModelKey { alpha_c, ..key }
}

fn vary_alpha_j(key: piql_predict::ModelKey, alpha_j: u32) -> piql_predict::ModelKey {
    piql_predict::ModelKey { alpha_j, ..key }
}

/// The verdict a fresh `prepare` of `sql` gets on `reg`'s database, SLO
/// and *current* model snapshot.
fn fresh_prepare(reg: &StatementRegistry<LiveCluster>, name: &str, sql: &str) -> Admission {
    StatementRegistry::with_models(reg.db().clone(), reg.models().clone(), *reg.slo())
        .register(name, sql)
        .unwrap()
}

/// A sweep is a re-registration: the verdict does not depend on the road
/// the statement took to it. The store makes α ≥ 50 slow for one interval
/// and only α ≥ 100 slow after — once the slow α = 50 interval ages out,
/// the feedback loop must hand out the page a fresh `prepare` would.
#[test]
fn a_sweep_is_a_reregistration_not_a_walk_from_the_installed_bound() {
    let (_cluster, db) = scadr_db(100);
    let reg = registry(db, 20.0);
    let verdict = reg.register("recent", RECENT_THOUGHTS).unwrap();
    assert!(matches!(verdict, Admission::Admitted { .. }), "{verdict:?}");
    let scan_key = plan_thetas(&reg.get("recent").unwrap().prepared().compiled)[0];
    let limit_of = |admission: &Admission| match admission {
        Admission::Degraded { limit, .. } => *limit,
        other => panic!("expected a degraded statement, got {other:?}"),
    };

    record_drift(&reg, scan_key, vary_alpha_c, 200, |alpha| alpha >= 50);
    assert_eq!(reg.revalidate().redegraded, 1);
    let statement = reg.get("recent").unwrap();
    assert_eq!(limit_of(&statement.admission()), 25);

    let mut actions = Vec::new();
    for _ in 0..4 {
        record_drift(&reg, scan_key, vary_alpha_c, 200, |alpha| alpha >= 100);
        reg.revalidate();
        actions.push(statement.recent_drift(1).last().unwrap().action);
    }
    let fresh = fresh_prepare(&reg, "recent", RECENT_THOUGHTS);
    assert_eq!(limit_of(&fresh), 50, "a fresh prepare pages by 50");
    assert_eq!(
        statement.admission(),
        fresh,
        "the swept statement holds what a fresh prepare gets (parent: steady \
         at LIMIT 25 for all four sweeps — relax only ever asked about 100)"
    );
    // the slow α = 50 interval leaves the 3-interval ring on the third
    // of these sweeps
    use DriftAction::{Relaxed, Steady};
    assert_eq!(actions, [Steady, Steady, Relaxed, Steady]);
    // and the relaxed bound is the one enforced
    let mut session = Session::new();
    let mut params = Params::new();
    params.set(0, Value::Varchar(scadr::username(1)));
    let rows = reg.execute(&mut session, "recent", &params, None).unwrap();
    assert!(rows.rows.len() <= 50);
}

mod props {
    use super::*;
    use proptest::prelude::*;

    const THOUGHTSTREAM: &str = "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
         WHERE thoughts.owner = s.target AND s.owner = <u> AND s.approved = true \
         ORDER BY thoughts.timestamp DESC LIMIT 10";
    const PAGE: &str =
        "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 50";
    const STATEMENTS: [(&str, &str); 4] = [
        ("find_user", FIND_USER),
        ("recent", RECENT_THOUGHTS),
        ("page", PAGE),
        ("stream", THOUGHTSTREAM),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The invariant the single decision buys: after any sweep, every
        /// statement that is not flagged holds exactly the verdict, bound
        /// and prediction a fresh `prepare` of its text gets on the same
        /// snapshot — and a flag is exactly that prepare's rejection.
        #[test]
        fn after_any_sweep_a_statement_is_what_a_fresh_prepare_would_get(
            steps in prop::collection::vec(
                (0usize..3, 0usize..9, any::<bool>(), 1usize..5),
                1..6,
            )
        ) {
            let (_cluster, db) = scadr_db(100);
            let reg = registry(db, 150.0);
            for (name, sql) in STATEMENTS {
                let verdict = reg.register(name, sql).unwrap();
                prop_assert!(matches!(verdict, Admission::Admitted { .. }), "{name}: {verdict:?}");
            }
            let thetas = |name: &str| plan_thetas(&reg.get(name).unwrap().prepared().compiled);
            let scan_key = thetas("recent")[0];
            let join_key = *thetas("stream").last().unwrap();
            prop_assert_eq!(join_key.op, OpKind::SortedIndexJoin);

            // each step holds one drift shape for `sweeps` intervals, so that
            // older shapes age out of the 3-interval ring under it
            let steps = steps.into_iter().flat_map(|(target, threshold, slowness, sweeps)| {
                std::iter::repeat_n((target, threshold, slowness), sweeps)
            });
            for (target, threshold, slowness) in steps {
                // which α turn slow this interval: from 1 up to 200 — above
                // every bound here, so nothing a statement can ask about
                let slow = |alpha: u32| alpha >= piql_predict::ALPHA_GRID[threshold];
                let slow_ms = if slowness { 1_000 } else { 200 };
                if target != 1 {
                    record_drift(&reg, scan_key, vary_alpha_c, slow_ms, slow);
                }
                if target != 0 {
                    record_drift(&reg, join_key, vary_alpha_j, slow_ms, slow);
                }
                reg.revalidate();
                for (name, sql) in STATEMENTS {
                    let held = reg.get(name).unwrap().admission();
                    let fresh = fresh_prepare(&reg, name, sql);
                    if let Admission::Flagged { .. } = held {
                        prop_assert!(
                            matches!(fresh, Admission::RejectedSlo { .. }),
                            "{name} is flagged but a fresh prepare answers {fresh:?}"
                        );
                    } else {
                        prop_assert_eq!(
                            &held, &fresh,
                            "{} after sweep {} (parent: a degraded statement only \
                             relaxed to its original bound and only tightened from \
                             its installed one)", name, reg.counters.revalidations.load(Ordering::Relaxed)
                        );
                    }
                }
            }
        }
    }
}
