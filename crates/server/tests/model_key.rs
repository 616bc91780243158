//! Prediction and observation meet at one key (§6.1): what an execution's
//! rounds are sampled under is what its plan was predicted at — the same
//! operator and tuple width, at no more than the predicted cardinality.
//! Every SCADr and TPC-W read through the engine; the point statements
//! through the server, on both codecs (the binary one serves them from
//! its fast lane).

use piql_core::plan::params::Params;
use piql_core::value::Value;
use piql_engine::{Database, Prepared};
use piql_kv::{LiveCluster, LiveConfig, ModelKey, OpKind, Session};
use piql_predict::plan_thetas;
use piql_server::server::handle_line;
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{BinaryConn, BinaryWire, Envelope, Request, StatementRegistry, Wire};
use piql_workloads::{scadr, tpcw};
use std::sync::Arc;

fn live_db() -> Arc<Database<LiveCluster>> {
    Arc::new(Database::new(Arc::new(LiveCluster::new(
        LiveConfig::default(),
    ))))
}

/// The keys the store sampled since the last drain.
fn sampled(db: &Database<LiveCluster>) -> Vec<ModelKey> {
    let samples = db.store().drain_samples();
    samples.into_iter().map(|s| s.tag).collect()
}

/// `sampled` against the prediction of `prepared`'s plan.
fn assert_meets_prediction(sql: &str, prepared: &Prepared, sampled: &[ModelKey]) {
    let thetas = plan_thetas(&prepared.compiled);
    // an operator's own term is the key its prepared form carries
    let own: Vec<ModelKey> = prepared.remote_ops().iter().map(|op| op.key).collect();
    let mut terms = thetas.iter();
    for key in &own {
        assert!(terms.any(|t| t == key), "`{sql}`: {own:?} in {thetas:?}");
    }
    assert!(!sampled.is_empty(), "`{sql}` sampled nothing");
    for s in sampled {
        let predicted = thetas.iter().any(|t| {
            let scan = s.op == OpKind::IndexScan;
            (t.op, t.beta, t.alpha_j) == (s.op, s.beta, s.alpha_j)
                && if scan {
                    s.alpha_c == t.alpha_c
                } else {
                    s.alpha_c <= t.alpha_c
                }
        });
        assert!(predicted, "`{sql}` sampled {s:?}, predicted {thetas:?}");
    }
    // the first operator always runs
    assert!(sampled.iter().any(|s| s.op == thetas[0].op), "`{sql}`");
}

#[test]
fn every_workload_read_is_sampled_under_the_keys_it_was_predicted_at() {
    let text = |s: &str| Params::from_values([Value::Varchar(s.into())]);
    let int = |i: i32| Params::from_values([Value::Int(i)]);

    let db = live_db();
    let config = scadr::ScadrConfig {
        users_per_node: 40,
        thoughts_per_user: 10,
        subscriptions_per_user: 10,
        ..Default::default()
    };
    scadr::setup(&db, &config, 1).unwrap();
    let q = scadr::queries(&config);
    let user = text(&scadr::username(7));
    let mut reads: Vec<(String, Params)> = [
        q.find_user,
        q.users_followed,
        q.recent_thoughts,
        q.thoughtstream,
    ]
    .into_iter()
    .map(|sql| (sql, user.clone()))
    .collect();

    let config = tpcw::TpcwConfig {
        items: 400,
        customers_per_node: 30,
        ..Default::default()
    };
    let (_, _, orders) = tpcw::setup(&db, &config, 1).unwrap();
    let customer = text(&tpcw::customer_uname(11));
    let promotions = Params::from_values([vec![Value::Int(3), Value::Int(77), Value::Int(399)]]);
    // in `tpcw::TABLE1_SQL` order
    let params = [
        customer.clone(),
        promotions,
        text(tpcw::SUBJECTS[2]),
        int(42),
        text(tpcw::SURNAMES[5]),
        text(tpcw::TITLE_WORDS[9]),
        customer.clone(),
        customer,
        int(tpcw::initial_order_id(5, orders)),
        int((3 * (i32::MAX as i64 / 65)) as i32),
    ];
    reads.extend(
        tpcw::TABLE1_SQL
            .iter()
            .zip(params)
            .map(|((_, sql), params)| (sql.to_string(), params)),
    );

    for (sql, params) in &reads {
        let prepared = db.prepare(sql).unwrap();
        sampled(&db); // setup and index backfill are not this statement's
        db.execute(&mut Session::new(), &prepared, params).unwrap();
        assert_meets_prediction(sql, &prepared, &sampled(&db));
    }
}

#[test]
fn point_reads_are_sampled_under_the_predicted_key_on_both_codecs() {
    let db = live_db();
    scadr::setup(&db, &scadr::ScadrConfig::default(), 1).unwrap();
    let slo = permissive_slo();
    let registry = Arc::new(StatementRegistry::new(
        db.clone(),
        linear_predictor(200, 100, 2),
        slo,
    ));
    let sql = scadr::queries(&scadr::ScadrConfig::default()).find_user;
    registry.register("point", &sql).unwrap();
    let statement = registry.get("point").unwrap();
    let prepared = statement.prepared();
    let thetas = plan_thetas(&prepared.compiled);
    assert_eq!(thetas.len(), 1, "{thetas:?}");
    sampled(&db);

    // binary: the fast lane, which runs no plan — it reads its tag from one
    assert_eq!(statement.fast_point().map(|plan| plan.tag), Some(thetas[0]));
    let env = Envelope {
        id: None,
        request: Request::Execute {
            name: "point".into(),
            params: vec![Value::Varchar(scadr::username(3)).into()],
            cursor: None,
        },
    };
    let mut frame = Vec::new();
    BinaryWire.encode_envelope(&env, &mut frame);
    BinaryConn::new(registry.clone()).handle_frame(&frame[4..]);
    let fast_reads = &registry.counters.fast_point_reads;
    assert_eq!(fast_reads.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_eq!(sampled(&db), thetas, "binary fast lane");

    // JSON: the general plan
    let line = r#"{"cmd":"execute","name":"point","params":[{"str":"u0000003"}]}"#;
    let answer = handle_line(line, &mut Session::new(), &registry);
    assert_eq!(answer.get("ok").and_then(|ok| ok.as_bool()), Some(true));
    assert_eq!(sampled(&db), thetas, "JSON general lane");
}
