//! Admission control: the success-tolerant service boundary.
//!
//! Pins the acceptance property: a statement whose predicted p99 exceeds
//! the SLO is rejected (or degraded) **without issuing a single storage
//! operation** — `LiveCluster::op_count` must not move on rejection.

mod common;

use common::scadr_db;
use piql_engine::Database;
use piql_kv::{LiveCluster, Session};
use piql_server::testkit::linear_predictor;
use piql_server::{Admission, SloConfig, StatementRegistry};
use piql_workloads::scadr;
use std::sync::Arc;

const THOUGHTSTREAM: &str = "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
     WHERE thoughts.owner = s.target AND s.owner = <u> AND s.approved = true \
     ORDER BY thoughts.timestamp DESC LIMIT 10";

/// With a 0.1 ms/row linear model: find_user costs ~0.4ms, the
/// thoughtstream with a 100-subscription constraint costs ~110ms.
fn registry(
    db: Arc<Database<LiveCluster>>,
    slo_ms: f64,
    allow_degrade: bool,
) -> StatementRegistry<LiveCluster> {
    StatementRegistry::new(
        db,
        linear_predictor(200, 100, 3),
        SloConfig {
            slo_ms,
            interval_confidence: 1.0,
            allow_degrade,
        },
    )
}

#[test]
fn cheap_statement_is_admitted_and_executes() {
    let (_cluster, db) = scadr_db(100);
    let reg = registry(db, 80.0, true);
    let verdict = reg
        .register("find_user", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
    match verdict {
        Admission::Admitted { predicted_p99_ms } => {
            assert!(predicted_p99_ms < 80.0, "{predicted_p99_ms}")
        }
        other => panic!("expected admission, got {other:?}"),
    }
    let mut session = Session::new();
    let mut params = piql_core::plan::params::Params::new();
    params.set(0, piql_core::value::Value::Varchar(scadr::username(3)));
    let result = reg
        .execute(&mut session, "find_user", &params, None)
        .unwrap();
    assert_eq!(result.rows.len(), 1);
    assert_eq!(
        reg.counters
            .executed
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}

#[test]
fn over_slo_statement_is_degraded_via_the_advisor() {
    let (_cluster, db) = scadr_db(100);
    let reg = registry(db, 80.0, true);
    let verdict = reg.register("thoughtstream", THOUGHTSTREAM).unwrap();
    let limit = match verdict {
        Admission::Degraded {
            predicted_p99_ms,
            original_limit,
            limit,
        } => {
            assert_eq!(original_limit, 10);
            assert!(limit < 10, "degraded limit must shrink, got {limit}");
            assert!(
                predicted_p99_ms <= 80.0,
                "degraded prediction {predicted_p99_ms} must meet the SLO"
            );
            limit
        }
        other => panic!("expected degradation, got {other:?}"),
    };
    // the degraded bound is enforced at execution
    let mut session = Session::new();
    let mut params = piql_core::plan::params::Params::new();
    params.set(0, piql_core::value::Value::Varchar(scadr::username(1)));
    let result = reg
        .execute(&mut session, "thoughtstream", &params, None)
        .unwrap();
    assert!(
        result.rows.len() as u64 <= limit,
        "{} rows > degraded limit {limit}",
        result.rows.len()
    );
}

#[test]
fn unbounded_statement_is_rejected_with_zero_storage_operations() {
    let (cluster, db) = scadr_db(100);
    let reg = registry(db, 80.0, true);
    let ops_before = cluster.op_count();
    let verdict = reg
        .register("grep_thoughts", "SELECT * FROM thoughts WHERE text = <t>")
        .unwrap();
    match &verdict {
        Admission::RejectedUnbounded { report } => {
            assert!(
                report.to_string().contains("not scale-independent"),
                "insight report travels with the rejection: {report}"
            );
            assert!(
                !report.suggestions.is_empty(),
                "the structured rejection keeps the assistant's suggestions"
            );
        }
        other => panic!("expected unbounded rejection, got {other:?}"),
    }
    assert_eq!(
        cluster.op_count(),
        ops_before,
        "rejection must not issue any storage operation"
    );
    // and the statement is not executable
    let mut session = Session::new();
    let err = reg
        .execute(
            &mut session,
            "grep_thoughts",
            &piql_core::plan::params::Params::new(),
            None,
        )
        .unwrap_err();
    assert!(err.to_string().contains("unknown statement"));
}

#[test]
fn infeasible_slo_rejects_with_zero_storage_operations() {
    let (cluster, db) = scadr_db(100);
    // 10ms SLO: even LIMIT 1 costs ~(100 + 100·1) rows ≈ 20ms+
    let reg = registry(db, 10.0, true);
    let ops_before = cluster.op_count();
    let verdict = reg.register("thoughtstream", THOUGHTSTREAM).unwrap();
    match verdict {
        Admission::RejectedSlo { predicted_p99_ms } => {
            assert!(predicted_p99_ms > 10.0, "{predicted_p99_ms}")
        }
        other => panic!("expected SLO rejection, got {other:?}"),
    }
    assert_eq!(
        cluster.op_count(),
        ops_before,
        "SLO rejection (including the advisor's degradation probes) \
         must not issue any storage operation"
    );
    assert!(reg.get("thoughtstream").is_none());
}

#[test]
fn degradation_disabled_rejects_instead() {
    let (cluster, db) = scadr_db(100);
    let reg = registry(db, 80.0, false);
    let ops_before = cluster.op_count();
    let verdict = reg.register("thoughtstream", THOUGHTSTREAM).unwrap();
    assert!(
        matches!(verdict, Admission::RejectedSlo { .. }),
        "got {verdict:?}"
    );
    assert_eq!(cluster.op_count(), ops_before);
}

#[test]
fn counters_track_every_verdict() {
    let (_cluster, db) = scadr_db(100);
    let reg = registry(db, 80.0, true);
    reg.register("q1", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
    reg.register("q2", THOUGHTSTREAM).unwrap();
    reg.register("q3", "SELECT * FROM thoughts WHERE text = <t>")
        .unwrap();
    let c = &reg.counters;
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(c.admitted.load(Relaxed), 1);
    assert_eq!(c.degraded.load(Relaxed), 1);
    assert_eq!(c.rejected_unbounded.load(Relaxed), 1);
    assert_eq!(c.rejected_slo.load(Relaxed), 0);
}

#[test]
fn rejected_reregistration_unregisters_the_old_statement() {
    let (_cluster, db) = scadr_db(100);
    let reg = registry(db, 80.0, true);
    reg.register("q", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
    assert!(reg.get("q").is_some());
    // re-register the same name with SQL that gets rejected
    let verdict = reg
        .register("q", "SELECT * FROM thoughts WHERE text = <t>")
        .unwrap();
    assert!(matches!(verdict, Admission::RejectedUnbounded { .. }));
    assert!(
        reg.get("q").is_none(),
        "a rejected re-registration must not leave the stale statement executable"
    );
    let mut session = Session::new();
    let err = reg
        .execute(
            &mut session,
            "q",
            &piql_core::plan::params::Params::new(),
            None,
        )
        .unwrap_err();
    assert!(err.to_string().contains("unknown statement"));
}

#[test]
fn latency_metrics_exclude_backend_uptime_and_client_think_time() {
    let (_cluster, db) = scadr_db(100);
    // let the backend age before the first execution
    std::thread::sleep(std::time::Duration::from_millis(30));
    let reg = registry(db, 80.0, true);
    reg.register("find_user", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
    let mut session = Session::new();
    let mut params = piql_core::plan::params::Params::new();
    params.set(0, piql_core::value::Value::Varchar(scadr::username(3)));
    reg.execute(&mut session, "find_user", &params, None)
        .unwrap();
    // think time between requests must not count as query latency
    std::thread::sleep(std::time::Duration::from_millis(30));
    reg.execute(&mut session, "find_user", &params, None)
        .unwrap();
    let p_max = reg.get("find_user").unwrap().quantile_ms(1.0);
    assert!(
        p_max < 25.0,
        "recorded max latency {p_max}ms includes uptime or think time"
    );
}

/// A re-registration that answers `Err` — the text does not parse, bind or
/// provision — is not a verdict: the name keeps the statement it had.
#[test]
fn failed_reregistration_leaves_the_old_statement_as_it_was() {
    let (_cluster, db) = scadr_db(100);
    let reg = registry(db, 80.0, true);
    reg.register("q", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
    let before = reg.get("q").unwrap();
    for bad in [
        "SELEKT nonsense !!!",
        "SELECT * FROM no_such_table WHERE k = <k>",
        "SELECT no_such_column FROM users WHERE username = <u>",
    ] {
        assert!(reg.register("q", bad).is_err(), "{bad}");
        let after = reg.get("q").expect("still registered");
        assert!(Arc::ptr_eq(&before, &after), "{bad} replaced the statement");
        assert_eq!(after.sql, "SELECT * FROM users WHERE username = <u>");
    }
    let mut session = Session::new();
    let mut params = piql_core::plan::params::Params::new();
    params.set(0, piql_core::value::Value::Varchar(scadr::username(3)));
    assert_eq!(
        reg.execute(&mut session, "q", &params, None)
            .unwrap()
            .rows
            .len(),
        1
    );
}

mod monotone {
    use super::*;
    use piql_predict::{ModelKey, ModelStore, OpKind, SloPredictor, ALPHA_GRID, BETA_GRID};
    use proptest::prelude::*;

    /// The bound `LIMIT limit` of the recent-thoughts scan is installed
    /// with (0: rejected), at SLO 20 ms and the given confidence.
    fn installed(
        db: &Arc<Database<LiveCluster>>,
        models: &ModelStore,
        confidence: f64,
        limit: u32,
    ) -> u64 {
        let reg = StatementRegistry::new(
            db.clone(),
            SloPredictor::new(models.clone()),
            SloConfig {
                slo_ms: 20.0,
                interval_confidence: confidence,
                allow_degrade: true,
            },
        );
        let sql = format!(
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT {limit}"
        );
        match reg.register("recent", &sql).unwrap() {
            Admission::Admitted { .. } => u64::from(limit),
            Admission::Degraded { limit, .. } => limit,
            Admission::RejectedSlo { .. } => 0,
            other => panic!("LIMIT {limit}: {other:?}"),
        }
    }

    /// `ms` for a scan of `alpha` rows during `interval`, at every tuple
    /// size.
    fn record(models: &mut ModelStore, interval: usize, alpha: u32, ms: u64) {
        for &beta in BETA_GRID {
            let key = ModelKey {
                op: OpKind::IndexScan,
                alpha_c: alpha,
                alpha_j: 1,
                beta,
            };
            for _ in 0..20 {
                models.record(interval, key, ms * 1_000);
            }
        }
    }

    /// The case by name: 4 intervals, SLO 20 ms, confidence 0.75; α = 100
    /// is slow in two intervals, α = 50 in one.
    #[test]
    fn limit_100_at_confidence_three_quarters_installs_50() {
        let (_cluster, db) = scadr_db(100);
        let mut models = ModelStore::linear(200, 100, 4);
        record(&mut models, 0, 100, 200);
        record(&mut models, 1, 100, 200);
        record(&mut models, 0, 50, 200);
        assert_eq!(
            installed(&db, &models, 0.75, 50),
            50,
            "three of four intervals of LIMIT 50 meet: admitted as written"
        );
        assert_eq!(
            installed(&db, &models, 0.75, 100),
            50,
            "asking for 100 yields the 50 that asking for 50 yields (parent: 25 \
             — its probe demanded every interval of LIMIT 50 under the SLO)"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Asking for more never yields less, and a bound admitted as
        /// written is never skipped by a probe from above — over sparse
        /// random stores, interval counts and confidences k/n.
        #[test]
        fn asking_for_more_never_yields_less(
            n in 1usize..6,
            k_seed in 0usize..6,
            points in prop::collection::vec((0usize..6, 0usize..8, any::<bool>()), 0..40),
        ) {
            let (_cluster, db) = scadr_db(100);
            let grid = &ALPHA_GRID[..8]; // 1 ..= 150
            let mut models = ModelStore::new(n);
            for (interval, alpha, slow) in points {
                record(&mut models, interval % n, grid[alpha], if slow { 200 } else { 1 });
            }
            let confidence = (k_seed % n + 1) as f64 / n as f64;
            let bounds: Vec<u64> = grid
                .iter()
                .map(|&limit| installed(&db, &models, confidence, limit))
                .collect();
            for (i, (&a, &got_a)) in grid.iter().zip(&bounds).enumerate() {
                prop_assert!(got_a <= u64::from(a));
                for (&b, &got_b) in grid.iter().zip(&bounds).skip(i + 1) {
                    prop_assert!(
                        got_a <= got_b,
                        "LIMIT {} installs {} but LIMIT {} installs {} (confidence {})",
                        a, got_a, b, got_b, confidence
                    );
                }
            }
        }
    }
}
