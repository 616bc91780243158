//! Cross-crate prediction tests (§8.6): the SLO model must be
//! *trustworthily conservative* — close to, and rarely below, the measured
//! p99 for the benchmark queries.

use piql::{Database, ExecStrategy, Params, Session, Value};
use piql_bench_helpers::*;
use piql_predict::{train, SloPredictor, TrainConfig};

/// Local copy of the bench-cluster shape (the bench crate is not a
/// dependency of integration tests).
mod piql_bench_helpers {
    use piql_kv::{ClusterConfig, SimCluster};
    use std::sync::Arc;

    pub fn cluster(nodes: usize, seed: u64) -> Arc<SimCluster> {
        let mut cfg = ClusterConfig::default().with_nodes(nodes).with_seed(seed);
        cfg.replication = 2;
        cfg.node_concurrency = 12;
        Arc::new(SimCluster::new(cfg))
    }
}

#[test]
fn prediction_is_conservative_for_scadr_queries() {
    use piql_workloads::scadr::*;

    // train on one cluster configuration...
    let train_cluster = cluster(10, 0xEE1);
    let config = TrainConfig {
        intervals: 8,
        samples_per_interval: 6,
        alphas: vec![1, 10, 50, 100, 150],
        alpha_js: vec![1, 10, 25],
        betas: vec![40, 160, 640],
        ..TrainConfig::default()
    };
    let predictor = SloPredictor::new(train(&train_cluster, &config));

    // ...measure on a second, identically configured cluster
    let db = Database::new(cluster(10, 0xEE2));
    let scadr = ScadrConfig::default();
    let n_users = setup(&db, &scadr, 10).unwrap();
    let w = ScadrWorkload::new(&db, &scadr, n_users).unwrap();

    let mut clock = 0u64;
    for (label, prepared) in w.all_prepared() {
        let mut lat: Vec<u64> = Vec::new();
        for k in 0..200usize {
            let mut params = Params::new();
            params.set(0, Value::Varchar(username((k * 31) % n_users)));
            let mut s = Session::at(clock);
            let t0 = s.begin();
            db.execute_with(&mut s, prepared, &params, ExecStrategy::Parallel, None)
                .unwrap();
            lat.push(s.elapsed_since(t0));
            clock = s.now + 10_000;
        }
        lat.sort_unstable();
        let actual_p99 = lat[lat.len() * 99 / 100] as f64 / 1000.0;
        let predicted = predictor.predict(&prepared.compiled).max_p99_ms;
        // conservative: predicted within [actual - small slack, 20x actual]
        assert!(
            predicted >= actual_p99 * 0.5,
            "{label}: prediction {predicted:.0}ms implausibly below actual {actual_p99:.0}ms"
        );
        assert!(
            predicted <= (actual_p99 * 20.0).max(100.0),
            "{label}: prediction {predicted:.0}ms untrustworthily above actual {actual_p99:.0}ms"
        );
    }
}

#[test]
fn thoughtstream_prediction_composes_two_operators() {
    use piql_workloads::scadr::*;
    let db = Database::new(cluster(4, 1));
    let scadr = ScadrConfig::default();
    for stmt in ddl(&scadr) {
        db.execute_ddl(&stmt).unwrap();
    }
    let q = queries(&scadr);
    let prepared = db.prepare(&q.thoughtstream).unwrap();
    let thetas = piql_predict::plan_thetas(&prepared.compiled);
    assert_eq!(thetas.len(), 2, "scan ∗ sorted-join, as in §6.2");
    assert_eq!(thetas[0].op, piql_predict::OpKind::IndexScan);
    assert_eq!(thetas[1].op, piql_predict::OpKind::SortedIndexJoin);
    assert_eq!(thetas[1].alpha_j as u64, scadr.page_size);
}
