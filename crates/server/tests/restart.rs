//! Restart-identity conformance: a durable stack that is `kill -9`ed
//! mid-workload and reopened must come back with the same data, the same
//! registered statements (re-admitted with the same verdicts), and the
//! same predicted p99s — and no write that was acknowledged strictly
//! before the crash may be missing afterwards.

use piql_core::plan::params::Params;
use piql_core::tuple;
use piql_core::value::Value;
use piql_engine::{Database, DbError};
use piql_kv::{KvEntry, KvStore, LiveCluster, Session};
use piql_server::testkit::linear_predictor;
use piql_server::{open_durable, DurableOptions, DurableStack, SloConfig};
use piql_workloads::scadr::{self, ScadrConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const FIND_USER: &str = "SELECT * FROM users WHERE username = <u>";
const RECENT: &str = "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 100";
const POST_THOUGHT: &str = "INSERT INTO thoughts (owner, timestamp, text) VALUES (<u>, <ts>, <t>)";

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("piql-restart-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic boot routine both process lifetimes share: same
/// schema, same seed rows, same namespace creation order every boot.
fn bootstrap(db: &Arc<Database<LiveCluster>>) -> Result<(), DbError> {
    let config = ScadrConfig {
        users_per_node: 20,
        thoughts_per_user: 6,
        subscriptions_per_user: 4,
        max_subscriptions: 100,
        ..Default::default()
    };
    scadr::setup(db, &config, 2).map(|_| ())
}

fn options(dir: &Path, slo_ms: f64) -> DurableOptions {
    let mut opts = DurableOptions::new(dir);
    opts.slo = SloConfig {
        slo_ms,
        interval_confidence: 1.0,
        allow_degrade: true,
    };
    opts
}

fn open(dir: &Path, slo_ms: f64) -> DurableStack {
    open_durable(
        options(dir, slo_ms),
        linear_predictor(200, 100, 3),
        bootstrap,
    )
    .expect("open durable stack")
}

fn post_thought(stack: &DurableStack, session: &mut Session, user: usize, ts: i64, text: &str) {
    let mut params = Params::new();
    params.set(0, Value::Varchar(scadr::username(user)));
    params.set(1, Value::Timestamp(ts));
    params.set(2, Value::Varchar(text.to_string()));
    stack
        .registry
        .execute_dml(session, POST_THOUGHT, &params)
        .expect("insert thought");
}

fn user_params(user: usize) -> Params {
    let mut params = Params::new();
    params.set(0, Value::Varchar(scadr::username(user)));
    params
}

/// Execute `recent` for `user` through pagination, returning each page's
/// rows (cursor results included so restart identity covers cursors too).
fn paginate_recent(stack: &DurableStack, user: usize) -> Vec<Vec<piql_core::tuple::Tuple>> {
    let params = user_params(user);
    let mut session = Session::new();
    let mut pages = Vec::new();
    let mut cursor = None;
    loop {
        let result = stack
            .registry
            .execute(&mut session, "recent", &params, cursor.as_ref())
            .expect("execute recent");
        pages.push(result.rows.to_tuples());
        match result.cursor {
            Some(c) => cursor = Some(c),
            None => return pages,
        }
    }
}

/// The acceptance demo as a test: workload → `kill -9` → restart →
/// same data (scan + cursor results), same registered statements, same
/// predicted p99s, zero client re-registration.
#[test]
fn restart_preserves_data_statements_and_predictions() {
    let dir = test_dir("identity");

    // ------------------------------------------- first process lifetime
    let first = open(&dir, 5.0);
    assert!(!first.report.snapshot_loaded, "fresh directory");
    assert!(first.readmissions.is_empty(), "nothing to re-admit yet");

    // the point lookup admits; the 100-row scan is over the 5 ms SLO and
    // is admitted with an advisor-degraded LIMIT
    let a = first.registry.register("find_user", FIND_USER).unwrap();
    assert_eq!(a.verdict(), "admitted", "{a:?}");
    let d = first.registry.register("recent", RECENT).unwrap();
    assert_eq!(d.verdict(), "degraded", "{d:?}");

    // runtime DDL goes through the stack so it survives the restart
    first
        .execute_ddl("CREATE INDEX thoughts_by_text ON thoughts (text, owner, timestamp)")
        .expect("runtime CREATE INDEX");

    // live workload: executions feed samples, a revalidation sweep folds
    // them and rotates the models (journaling the closed interval)
    let mut session = Session::new();
    for user in 0..4 {
        let params = user_params(user);
        first
            .registry
            .execute(&mut session, "find_user", &params, None)
            .unwrap();
        first
            .registry
            .execute(&mut session, "recent", &params, None)
            .unwrap();
    }
    first.registry.revalidate();

    // writes before the checkpoint...
    for i in 0..25 {
        post_thought(&first, &mut session, 1, 2_000_000_000 + i, "pre-snapshot");
    }
    let summary = first.snapshot().expect("mid-workload checkpoint");
    assert!(summary.entries > 0);

    // ...writes and a second model rotation after it (replayed from the
    // WAL tail on top of the snapshot's model checkpoint)
    for i in 0..25 {
        post_thought(&first, &mut session, 2, 3_000_000_000 + i, "post-snapshot");
    }
    for user in 0..4 {
        let params = user_params(user);
        first
            .registry
            .execute(&mut session, "recent", &params, None)
            .unwrap();
    }
    first.registry.revalidate();

    // pre-crash ground truth
    let data_before = first.cluster.export_namespaces();
    let pages_before_1 = paginate_recent(&first, 1);
    let pages_before_2 = paginate_recent(&first, 2);
    let mut statements_before: Vec<(String, String, &'static str, f64)> = first
        .registry
        .list()
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.sql.clone(),
                s.admission().verdict(),
                s.last_predicted_p99_ms(),
            )
        })
        .collect();
    statements_before.sort_by(|a, b| a.0.cmp(&b.0));

    first.simulate_crash();
    drop(first);

    // ----------------------------------------- second process lifetime
    let second = open(&dir, 5.0);
    assert!(second.report.snapshot_loaded, "checkpoint found");
    assert_eq!(second.report.statements, 2, "both statements recovered");
    assert!(
        second.report.wal_records > 0,
        "post-snapshot tail replayed: {:?}",
        second.report
    );
    assert_eq!(
        second.report.ddl, 1,
        "runtime CREATE INDEX replayed: {:?}",
        second.report
    );

    // zero re-registration: both statements are back, re-admitted at boot
    // with the same verdicts
    let mut readmissions: Vec<(String, String)> = second
        .readmissions
        .iter()
        .map(|r| (r.name.clone(), r.verdict.clone()))
        .collect();
    readmissions.sort();
    assert_eq!(
        readmissions,
        vec![
            ("find_user".to_string(), "admitted".to_string()),
            ("recent".to_string(), "degraded".to_string()),
        ]
    );

    // same data
    assert_eq!(second.cluster.export_namespaces(), data_before);

    // same statements, same predicted p99s (the recovered models are the
    // checkpoint plus every journaled rotation — bit-identical, so the
    // boot-time re-prediction lands on exactly the pre-crash numbers)
    let mut statements_after: Vec<(String, String, &'static str, f64)> = second
        .registry
        .list()
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.sql.clone(),
                s.admission().verdict(),
                s.last_predicted_p99_ms(),
            )
        })
        .collect();
    statements_after.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(statements_after, statements_before);

    // same scan + cursor results
    assert_eq!(paginate_recent(&second, 1), pages_before_1);
    assert_eq!(paginate_recent(&second, 2), pages_before_2);

    // the recovered statements run from plans resolved at boot against
    // the recovered store — namespaces and all — and read what a plan
    // prepared now reads (`recent` came back degraded: a prefix of it)
    let mut session = Session::new();
    for statement in second.registry.list() {
        let recovered = statement.prepared();
        let fresh = second.db.prepare(&statement.sql).unwrap();
        assert_eq!(recovered.remote_ops().len(), fresh.remote_ops().len());
        for (at_boot, now) in recovered.remote_ops().iter().zip(fresh.remote_ops()) {
            assert_eq!((at_boot.ns, at_boot.primary), (now.ns, now.primary));
        }
        let params = user_params(2);
        let served = second
            .db
            .execute(&mut session, &recovered, &params)
            .unwrap();
        let full = second.db.execute(&mut session, &fresh, &params).unwrap();
        assert!(!served.rows.is_empty(), "{}", statement.name);
        assert_eq!(
            served.rows.to_tuples(),
            full.rows.to_tuples()[..served.rows.len()],
            "{}",
            statement.name
        );
    }

    // and the recovered stack is live: new durable writes are accepted
    post_thought(&second, &mut session, 3, 4_000_000_000, "after recovery");
    let rows: usize = paginate_recent(&second, 3).iter().map(Vec::len).sum();
    assert!(rows > 0);
    second.close();
}

/// A recovered snapshot is laid out as its entries would be by a first
/// batch of them into a fresh store: each namespace is cut at its own
/// quantiles, not served from one shard until something rebalances.
#[test]
fn a_recovered_snapshot_is_laid_out_as_a_first_batch_of_its_entries() {
    let dir = test_dir("layout");
    let first = open(&dir, 1_000_000.0);
    let mut session = Session::new();
    for i in 0..25 {
        post_thought(&first, &mut session, 1, 2_000_000_000 + i, "pre-snapshot");
    }
    first.snapshot().expect("checkpoint");
    first.simulate_crash();
    drop(first);

    let second = open(&dir, 1_000_000.0);
    assert!(second.report.snapshot_loaded, "checkpoint found");
    let fresh = LiveCluster::new(DurableOptions::new(&dir).live);
    for (name, entries) in second.cluster.export_namespaces() {
        let ns = fresh.namespace(&name);
        fresh.bulk_put_all(ns, &mut |push| {
            for (key, value) in &entries {
                push([key.as_slice(), value].concat(), key.len());
            }
        });
    }
    let layouts = |cluster: &LiveCluster| -> Vec<(String, Vec<u64>)> {
        let balance = cluster.balance().into_iter();
        balance.map(|b| (b.name, b.entries)).collect()
    };
    let recovered = layouts(&second.cluster);
    assert_eq!(recovered, layouts(&fresh));
    let thoughts = recovered.iter().find(|(name, _)| name == "t/thoughts");
    let (_, entries) = thoughts.expect("thoughts recovered");
    assert_eq!(entries.len(), 16, "{entries:?}");
    assert!(entries.iter().all(|&n| n > 0), "{entries:?}");
    second.close();
}

/// A bulk load into a running durable stack is durable when it returns,
/// records and index entries alike: a crash right after it, with no later
/// write to commit what it logged, loses none of it.
#[test]
fn a_bulk_load_survives_a_crash_right_after_it() {
    let dir = test_dir("bulk");
    let first = open(&dir, 1_000_000.0);
    first
        .execute_ddl("CREATE INDEX thoughts_by_text ON thoughts (text, owner, timestamp)")
        .expect("runtime CREATE INDEX");
    let thoughts = |stack: &DurableStack| {
        let all = stack.cluster.export_namespaces().into_iter();
        all.filter(|(name, _)| name.contains("thoughts"))
            .collect::<Vec<_>>()
    };
    let held = |namespaces: &[(String, Vec<KvEntry>)]| -> usize {
        namespaces.iter().map(|(_, entries)| entries.len()).sum()
    };
    let seeded = held(&thoughts(&first));
    let rows = (0..50).map(|i| {
        let (owner, text) = (scadr::username(3), format!("loaded {i}"));
        tuple![owner, Value::Timestamp(7_000_000_000 + i), text]
    });
    assert_eq!(first.db.bulk_load("thoughts", rows).unwrap(), 50);
    let loaded = thoughts(&first);
    assert_eq!(held(&loaded), seeded + 2 * 50, "a record, an entry a row");
    first.simulate_crash();
    drop(first);

    let second = open(&dir, 1_000_000.0);
    let recovered = thoughts(&second);
    assert_eq!(held(&recovered), held(&loaded), "nothing loaded is lost");
    assert!(recovered == loaded, "recovered as loaded");
    second.close();
}

/// Once the WAL is dead, the wire protocol must stop acknowledging DML:
/// the write still applies in memory, but the response is an error (and
/// the `stats` durability block reports `wal_dead`) — durability never
/// silently degrades to memory-only.
#[test]
fn dead_wal_fails_dml_acknowledgements() {
    use piql_core::plan::params::ParamValue;
    use piql_server::protocol::Request;
    use piql_server::server::handle_request;
    use piql_server::Json;

    let dir = test_dir("deadwal");
    let stack = open(&dir, 1_000_000.0);
    let mut session = Session::new();
    let dml = |user: usize, ts: i64| Request::Dml {
        sql: POST_THOUGHT.to_string(),
        params: vec![
            ParamValue::Scalar(Value::Varchar(scadr::username(user))),
            ParamValue::Scalar(Value::Timestamp(ts)),
            ParamValue::Scalar(Value::Varchar("t".to_string())),
        ],
    };

    let healthy = handle_request(&dml(0, 1), &mut session, &stack.registry);
    assert_eq!(healthy.get("ok").and_then(Json::as_bool), Some(true));
    let stats = handle_request(&Request::Stats, &mut session, &stack.registry);
    let wal_dead = |stats: &Json| {
        stats
            .get("durability")
            .and_then(|d| d.get("wal_dead"))
            .and_then(Json::as_bool)
    };
    assert_eq!(wal_dead(&stats), Some(false));

    stack.simulate_crash();

    let degraded = handle_request(&dml(0, 2), &mut session, &stack.registry);
    assert_eq!(
        degraded.get("ok").and_then(Json::as_bool),
        Some(false),
        "a non-durable write must not be acknowledged: {degraded}"
    );
    let error = degraded.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("not durable"), "got: {error}");
    let stats = handle_request(&Request::Stats, &mut session, &stack.registry);
    assert_eq!(wal_dead(&stats), Some(true));
}

/// Registrations racing checkpoints: threads prepare, re-prepare and
/// reject (which unregisters) names while checkpoints rotate the log
/// under them; then one more checkpoint and a short tail. Whatever a
/// checkpoint captured and whatever replays after it, the statements
/// recovered after a crash are the ones registered at the crash, with the
/// same text.
#[test]
fn statements_racing_checkpoints_recover_as_registered() {
    // an unindexed predicate: unbounded, so preparing it unregisters the name
    const UNBOUNDED: &str = "SELECT * FROM thoughts WHERE text = <t>";
    let dir = test_dir("race");
    let stack = Arc::new(open(&dir, 5.0));
    let texts = [FIND_USER, RECENT, UNBOUNDED];

    // every thread starts together, and the registrars keep going until
    // all 20 checkpoints have run under them
    let start = Arc::new(Barrier::new(4));
    let checkpointing = Arc::new(AtomicBool::new(true));
    let checkpointer = {
        let (stack, start, checkpointing) = (stack.clone(), start.clone(), checkpointing.clone());
        std::thread::spawn(move || {
            start.wait();
            let checkpoints: Vec<_> = (0..20).map(|_| stack.snapshot()).collect();
            checkpointing.store(false, Ordering::SeqCst);
            checkpoints
        })
    };
    let registrars: Vec<_> = (0..3)
        .map(|t| {
            let (stack, start, checkpointing) =
                (stack.clone(), start.clone(), checkpointing.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut i = 0usize;
                while i < 40 || checkpointing.load(Ordering::SeqCst) {
                    let name = format!("s{}", (t + i) % 5);
                    stack
                        .registry
                        .register(&name, texts[(t * 7 + i) % texts.len()])
                        .expect("register");
                    i += 1;
                }
            })
        })
        .collect();
    for registrar in registrars {
        registrar.join().unwrap();
    }
    for checkpoint in checkpointer.join().unwrap() {
        checkpoint.expect("checkpoint");
    }
    // then one name only a checkpoint holds, and a tail on top of it
    let register = |name: &str, sql: &str| stack.registry.register(name, sql).expect("register");
    register("s5", RECENT);
    stack.snapshot().expect("checkpoint");
    register("s0", UNBOUNDED);
    register("s6", FIND_USER);

    let registered = |stack: &DurableStack| {
        let mut statements: Vec<(String, String)> = (stack.registry.list().iter())
            .map(|s| (s.name.clone(), s.sql.clone()))
            .collect();
        statements.sort();
        statements
    };
    let before = registered(&stack);
    stack.simulate_crash();
    drop(stack);

    let recovered = open(&dir, 5.0);
    assert_eq!(recovered.report.statements, before.len());
    assert_eq!(registered(&recovered), before);
    recovered.close();
}

/// Once the stack is closed, its registry answers `stats` and `snapshot`
/// as an in-memory server's: no `durability` block, and no checkpoint of
/// the closed log.
#[test]
fn a_closed_stack_answers_stats_and_snapshot() {
    use piql_server::protocol::Request;
    use piql_server::server::handle_request;
    use piql_server::Json;

    let dir = test_dir("closed");
    let stack = open(&dir, 1_000_000.0);
    let mut session = Session::new();
    let stats = handle_request(&Request::Stats, &mut session, &stack.registry);
    assert!(stats.get("durability").is_some(), "{stats}");

    stack.close();
    let stats = handle_request(&Request::Stats, &mut session, &stack.registry);
    assert!(stats.get("durability").is_none(), "{stats}");
    let snapshot = handle_request(&Request::Snapshot, &mut session, &stack.registry);
    assert_eq!(
        snapshot.get("ok").and_then(Json::as_bool),
        Some(false),
        "{snapshot}"
    );
    assert_eq!(
        snapshot.get("error").and_then(Json::as_str),
        Some("durability is not enabled on this server")
    );
}

/// Acknowledged-write durability: writers hammer the stack concurrently,
/// the process "dies" mid-workload, and every DML that was acknowledged
/// strictly before the crash must be present after recovery.
#[test]
fn no_acknowledged_write_is_lost_across_a_crash() {
    let dir = test_dir("acked");
    let stack = Arc::new(open(&dir, 1_000_000.0));

    const WRITERS: usize = 8;
    const CAP: i64 = 1200; // keeps the per-writer key range under RECENT_WIDE's LIMIT
    let crashed = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let stack = stack.clone();
        let crashed = crashed.clone();
        handles.push(std::thread::spawn(move || {
            let mut session = Session::new();
            let mut acked: i64 = 0;
            for i in 0..CAP {
                let mut params = Params::new();
                params.set(0, Value::Varchar(scadr::username(w)));
                params.set(1, Value::Timestamp(5_000_000_000 + i));
                params.set(2, Value::Varchar(format!("w{w}-{i}")));
                if stack
                    .registry
                    .execute_dml(&mut session, POST_THOUGHT, &params)
                    .is_err()
                {
                    break;
                }
                // count the write as acknowledged only if the crash flag
                // was still clear when the acknowledgement came back: the
                // flag is raised before the simulated kill, so such an ack
                // can only have come from a completed group commit
                if crashed.load(Ordering::SeqCst) {
                    break;
                }
                acked = i + 1;
            }
            acked
        }));
    }

    std::thread::sleep(std::time::Duration::from_millis(80));
    crashed.store(true, Ordering::SeqCst);
    stack.simulate_crash();
    let acked: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let total: i64 = acked.iter().sum();
    assert!(total > 0, "writers must have landed some acks: {acked:?}");
    drop(stack);

    let recovered = open(&dir, 1_000_000.0);
    recovered
        .registry
        .register(
            "recent_wide",
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 1500",
        )
        .unwrap();
    let mut session = Session::new();
    for (w, &n) in acked.iter().enumerate() {
        let result = recovered
            .registry
            .execute(&mut session, "recent_wide", &user_params(w), None)
            .unwrap();
        let present: std::collections::BTreeSet<i64> = result
            .rows
            .to_tuples()
            .iter()
            .filter_map(|row| match row.get(1) {
                Some(Value::Timestamp(ts)) => Some(*ts - 5_000_000_000),
                _ => None,
            })
            .collect();
        for i in 0..n {
            assert!(
                present.contains(&i),
                "writer {w}: write {i} was acknowledged before the crash \
                 (acked through {n}) but is missing after recovery"
            );
        }
    }
    recovered.close();
}
