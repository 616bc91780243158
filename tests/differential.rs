//! Differential fuzzing: the optimized engine must agree with the naive
//! reference executor on randomized data for a family of query shapes, and
//! every execution strategy must agree with every other.

use piql::{Database, ExecStrategy, Params, Session, SimCluster, Value};
use piql_core::tuple::Tuple;
use piql_kv::ClusterConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Build a randomized two-table database (posts + reactions) whose shape is
/// controlled by the proptest inputs.
fn build(seed: u64, n_users: usize, posts_per: usize, reactions_per: usize) -> Database {
    let db = Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(4))));
    db.execute_ddl(
        "CREATE TABLE posts (author VARCHAR(16) NOT NULL, seq INT NOT NULL, \
         score INT, body VARCHAR(40), PRIMARY KEY (author, seq), \
         CARDINALITY LIMIT 40 (author))",
    )
    .unwrap();
    db.execute_ddl(
        "CREATE TABLE reactions (author VARCHAR(16) NOT NULL, seq INT NOT NULL, \
         emoji VARCHAR(8) NOT NULL, PRIMARY KEY (author, seq, emoji), \
         CARDINALITY LIMIT 60 (author, seq))",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let words = ["red", "green", "blue", "amber", "teal"];
    let mut posts = Vec::new();
    let mut reactions = Vec::new();
    for u in 0..n_users {
        for s in 0..posts_per.min(40) {
            posts.push(Tuple::new(vec![
                Value::Varchar(format!("u{u:03}")),
                Value::Int(s as i32),
                Value::Int(rng.gen_range(-5..50)),
                Value::Varchar(format!(
                    "{} {}",
                    words[rng.gen_range(0..words.len())],
                    words[rng.gen_range(0..words.len())]
                )),
            ]));
            for e in 0..rng.gen_range(0..reactions_per.min(10)) {
                reactions.push(Tuple::new(vec![
                    Value::Varchar(format!("u{u:03}")),
                    Value::Int(s as i32),
                    Value::Varchar(format!("e{e}")),
                ]));
            }
        }
    }
    db.bulk_load("posts", posts).unwrap();
    db.bulk_load("reactions", reactions).unwrap();
    db.cluster().rebalance();
    db
}

/// Query shapes exercised by the fuzz (parameter 0 = author).
fn query_family(limit: u64) -> Vec<String> {
    vec![
        // bounded scan with residual predicate
        format!("SELECT * FROM posts WHERE author = <a> AND score > 10 LIMIT {limit}"),
        // reverse ordered scan
        format!("SELECT * FROM posts WHERE author = <a> ORDER BY seq DESC LIMIT {limit}"),
        // range + order
        format!(
            "SELECT * FROM posts WHERE author = <a> AND seq >= 3 AND seq < 20 \
             ORDER BY seq ASC LIMIT {limit}"
        ),
        // sorted join bounded by the reactions cardinality constraint
        format!(
            "SELECT r.* FROM posts p JOIN reactions r \
             WHERE r.author = p.author AND r.seq = p.seq AND p.author = <a> \
             LIMIT {limit}"
        ),
        // tokenized search
        format!("SELECT * FROM posts WHERE body LIKE 'amber' AND author = <a> LIMIT {limit}"),
        // aggregate over a bounded group
        "SELECT author, COUNT(*) AS n, MAX(score) AS best FROM posts \
         WHERE author = <a> GROUP BY author"
            .to_string(),
    ]
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by_key(|t| format!("{t}"));
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn optimized_execution_matches_reference(
        seed in any::<u64>(),
        n_users in 2usize..8,
        posts_per in 1usize..25,
        reactions_per in 1usize..8,
        limit in 1u64..30,
        probe in 0usize..8,
    ) {
        let db = build(seed, n_users, posts_per, reactions_per);
        let mut params = Params::new();
        params.set(0, Value::Varchar(format!("u{:03}", probe % n_users)));
        for sql in query_family(limit) {
            let prepared = db.prepare(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let reference = db.reference_query(&sql, &params).unwrap();
            let mut results = Vec::new();
            for strategy in [ExecStrategy::Lazy, ExecStrategy::Simple, ExecStrategy::Parallel] {
                let mut s = Session::new();
                let r = db
                    .execute_with(&mut s, &prepared, &params, strategy, None)
                    .unwrap_or_else(|e| panic!("{sql} [{strategy:?}]: {e}"));
                // the request bound is defined for executors that respect
                // the compiler's limit hints (§7.1); Lazy deliberately
                // ignores them (one request per tuple, §8.5), so only its
                // tuple counts are bounded
                if strategy != ExecStrategy::Lazy {
                    prop_assert!(
                        s.stats.logical_requests <= prepared.compiled.bounds.requests,
                        "{sql}: {} > bound {}",
                        s.stats.logical_requests,
                        prepared.compiled.bounds.requests
                    );
                }
                prop_assert!(
                    r.rows.len() as u64 <= prepared.compiled.bounds.tuples,
                    "{sql}: emitted {} rows > tuple bound {}",
                    r.rows.len(),
                    prepared.compiled.bounds.tuples
                );
                results.push(r.rows.to_tuples());
            }
            prop_assert_eq!(&results[0], &results[1], "lazy vs simple: {}", sql);
            prop_assert_eq!(&results[1], &results[2], "simple vs parallel: {}", sql);
            if sql.contains("ORDER BY") {
                // ordered: exact comparison
                prop_assert_eq!(&results[2], &reference, "vs reference: {}", sql);
            } else if sql.contains("LIMIT") {
                // LIMIT without ORDER BY admits any k-subset of the full
                // result: compare against the un-limited reference
                let full_sql = sql.split(" LIMIT").next().unwrap().to_string();
                let full = sorted(db.reference_query(&full_sql, &params).unwrap());
                prop_assert_eq!(
                    results[2].len() as u64,
                    (full.len() as u64).min(limit),
                    "row count: {}",
                    sql
                );
                for row in &results[2] {
                    prop_assert!(
                        full.contains(row),
                        "{sql}: returned row {row} not in the full result"
                    );
                }
            } else {
                prop_assert_eq!(
                    sorted(results[2].clone()),
                    sorted(reference),
                    "vs reference (multiset): {}",
                    sql
                );
            }
        }
    }
}
