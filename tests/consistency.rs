//! Failure injection and eventual-consistency behaviour (§3, §7.2):
//! dangling index entries are invisible to readers and collectable; stale
//! replicas converge; the write-path ordering never loses a record that an
//! index cannot find.

use piql::{Database, Params, Session, SimCluster, Value};
use piql_core::catalog::Catalog;
use piql_core::codec::row::encode_tuple;
use piql_core::tuple::Tuple;
use piql_engine::keys;
use piql_kv::{ClusterConfig, KvRequest, KvStore, LatencyConfig};
use std::sync::Arc;

fn db_with_token_index() -> Database {
    let db = Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(3))));
    db.execute_ddl("CREATE TABLE notes (id INT NOT NULL, body VARCHAR(60), PRIMARY KEY (id))")
        .unwrap();
    db.bulk_load(
        "notes",
        (0..20).map(|i| {
            Tuple::new(vec![
                Value::Int(i),
                Value::Varchar(format!("note number{i} common")),
            ])
        }),
    )
    .unwrap();
    // provision the token index via a query
    db.prepare("SELECT * FROM notes WHERE body LIKE <w> LIMIT 50")
        .unwrap();
    db.cluster().rebalance();
    db
}

/// Inject a dangling index entry (as if a writer crashed between step 1 and
/// step 2 of the §7.2 insert protocol) directly into the store.
fn inject_dangling(db: &Database) {
    let catalog = db.catalog();
    let idx = catalog
        .indexes()
        .find(|i| i.name.contains("tok"))
        .expect("token index exists")
        .clone();
    let table = catalog.table("notes").unwrap().clone();
    let ghost = Tuple::new(vec![
        Value::Int(9_999),
        Value::Varchar("common ghost".into()),
    ]);
    let ns = db.cluster().namespace(&Catalog::index_namespace(&idx));
    let parts = keys::index_key_parts(&table, &idx).unwrap();
    keys::entry_keys(&parts, &ghost, |key| {
        db.cluster().bulk_put(ns, key, Vec::new())
    })
    .unwrap();
}

#[test]
fn dangling_index_entries_are_skipped_and_collected() {
    let db = db_with_token_index();
    inject_dangling(&db);

    // readers skip the dangling entry (its record does not exist)
    let mut session = Session::new();
    let mut params = Params::new();
    params.set(0, Value::Varchar("common".into()));
    let r = db
        .query(
            &mut session,
            "SELECT * FROM notes WHERE body LIKE <w> LIMIT 50",
            &params,
        )
        .unwrap();
    assert_eq!(r.rows.len(), 20, "ghost row must not appear");

    // the GC sweep removes it (and only it: 2 entries for 'common ghost')
    let collected = db.gc_indexes(&mut session, "notes").unwrap();
    assert_eq!(collected, 2, "exactly the injected entries are collected");
    let again = db.gc_indexes(&mut session, "notes").unwrap();
    assert_eq!(again, 0, "gc is idempotent");
    let r = db
        .query(
            &mut session,
            "SELECT * FROM notes WHERE body LIKE <w> LIMIT 50",
            &params,
        )
        .unwrap();
    assert_eq!(r.rows.len(), 20);
}

#[test]
fn gc_removes_outdated_entries_after_manual_record_overwrite() {
    let db = db_with_token_index();
    // simulate a writer that updated the record but crashed before deleting
    // stale index entries: overwrite the record bytes directly
    let catalog = db.catalog();
    let table = catalog.table("notes").unwrap().clone();
    let ns = db.cluster().namespace(&Catalog::table_namespace(&table));
    let new_row = Tuple::new(vec![
        Value::Int(3),
        Value::Varchar("renamed entirely".into()),
    ]);
    let pk = keys::primary_key_from(&table, &table.primary_key_ids(), &new_row).unwrap();
    let record = encode_tuple(&new_row);
    db.cluster().bulk_put(ns, pk, record);

    let mut session = Session::new();
    // stale 'common'/'number3' entries still point at id=3 whose body no
    // longer contains those tokens -> readers skip, gc collects
    let mut params = Params::new();
    params.set(0, Value::Varchar("common".into()));
    let r = db
        .query(
            &mut session,
            "SELECT * FROM notes WHERE body LIKE <w> LIMIT 50",
            &params,
        )
        .unwrap();
    assert_eq!(r.rows.len(), 19, "updated row no longer matches");
    let collected = db.gc_indexes(&mut session, "notes").unwrap();
    assert!(collected >= 2, "stale entries collected: {collected}");
}

#[test]
fn lagged_replicas_serve_stale_then_converge() {
    let mut cfg = ClusterConfig::instant(2);
    cfg.replica_lag_us = 500_000; // half a second of replica lag
    cfg.latency = LatencyConfig {
        median_us: 1_000.0,
        sigma: 0.0,
        per_entry_us: 0.0,
        per_kib_us: 0.0,
        write_factor: 1.0,
    };
    let db = Database::new(Arc::new(SimCluster::new(cfg)));
    db.execute_ddl("CREATE TABLE kv (k INT NOT NULL, v VARCHAR(16), PRIMARY KEY (k))")
        .unwrap();
    let mut session = Session::new();
    db.execute_dml(
        &mut session,
        "INSERT INTO kv VALUES (1, 'v1')",
        &Params::new(),
    )
    .unwrap();

    // reads immediately after the write may see nothing (non-primary
    // replica within the lag window) but must never see garbage
    let prepared = db.prepare("SELECT * FROM kv WHERE k = 1").unwrap();
    let mut saw_stale = false;
    for _ in 0..6 {
        let r = db.execute(&mut session, &prepared, &Params::new()).unwrap();
        match r.rows.len() {
            0 => saw_stale = true,
            1 => assert_eq!(r.rows.to_tuples()[0][1], Value::Varchar("v1".into())),
            n => panic!("impossible row count {n}"),
        }
    }
    // well past the lag, every replica serves the write
    session.now += 2_000_000;
    for _ in 0..6 {
        let r = db.execute(&mut session, &prepared, &Params::new()).unwrap();
        assert_eq!(r.rows.len(), 1, "converged");
    }
    let _ = saw_stale; // staleness is possible, not guaranteed (routing)
}

#[test]
fn tombstone_compaction_keeps_results_correct() {
    let db = db_with_token_index();
    let mut session = Session::new();
    for i in 0..10 {
        let id = Params::from_values([Value::Int(i)]);
        db.execute_dml(&mut session, "DELETE FROM notes WHERE id = <id>", &id)
            .unwrap();
    }
    let mut params = Params::new();
    params.set(0, Value::Varchar("common".into()));
    let before = db
        .query(
            &mut session,
            "SELECT * FROM notes WHERE body LIKE <w> LIMIT 50",
            &params,
        )
        .unwrap();
    assert_eq!(before.rows.len(), 10);
    // compact away tombstones and old versions, results unchanged
    db.cluster().compact(session.now + 1);
    let after = db
        .query(
            &mut session,
            "SELECT * FROM notes WHERE body LIKE <w> LIMIT 50",
            &params,
        )
        .unwrap();
    assert_eq!(after.rows, before.rows);
}

#[test]
fn raw_store_ops_respect_namespace_isolation() {
    // sanity: two tables never bleed into each other's namespaces
    let db = Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(2))));
    db.execute_ddl("CREATE TABLE a (k INT NOT NULL, PRIMARY KEY (k))")
        .unwrap();
    db.execute_ddl("CREATE TABLE b (k INT NOT NULL, PRIMARY KEY (k))")
        .unwrap();
    db.bulk_load("a", (0..5).map(|i| Tuple::new(vec![Value::Int(i)])))
        .unwrap();
    let cluster = db.cluster();
    let ns_b = cluster.namespace("t/b");
    let mut s = Session::new();
    let r = cluster.execute_round(
        &mut s,
        vec![KvRequest::GetRange {
            ns: ns_b,
            start: vec![],
            end: None,
            limit: None,
            reverse: false,
        }],
    );
    assert!(r[0].expect_entries().is_empty(), "b is empty");
}

#[test]
fn cursors_resume_on_a_different_application_server() {
    // §4.1: the serialized cursor ships to the user and may come back to
    // ANY application server — two Database instances (two app servers)
    // sharing one cluster must hand pages back and forth seamlessly.
    let cluster = Arc::new(SimCluster::new(ClusterConfig::instant(3)));
    let server_a = Database::new(cluster.clone());
    server_a
        .execute_ddl(
            "CREATE TABLE feed (who VARCHAR(16) NOT NULL, at TIMESTAMP NOT NULL, \
             msg VARCHAR(64), PRIMARY KEY (who, at))",
        )
        .unwrap();
    server_a
        .bulk_load(
            "feed",
            (0..23).map(|i| {
                Tuple::new(vec![
                    Value::Varchar("zoe".into()),
                    Value::Timestamp(1000 + i),
                    Value::Varchar(format!("m{i}")),
                ])
            }),
        )
        .unwrap();
    cluster.rebalance();
    // server B has its own catalog: replay the DDL (schemas are code-
    // deployed in the library-centric architecture, §3)
    let server_b = Database::new(cluster);
    server_b
        .execute_ddl(
            "CREATE TABLE feed (who VARCHAR(16) NOT NULL, at TIMESTAMP NOT NULL, \
             msg VARCHAR(64), PRIMARY KEY (who, at))",
        )
        .unwrap();

    let sql = "SELECT * FROM feed WHERE who = <w> ORDER BY at DESC PAGINATE 10";
    let q_a = server_a.prepare(sql).unwrap();
    let q_b = server_b.prepare(sql).unwrap();
    let mut params = Params::new();
    params.set(0, Value::Varchar("zoe".into()));

    let mut session = Session::new();
    let page1 = server_a.execute(&mut session, &q_a, &params).unwrap();
    assert_eq!(page1.rows.len(), 10);
    // the cursor travels as bytes through the user's browser...
    let wire = page1.cursor.unwrap().to_bytes();
    // ...and lands on server B
    let cursor = piql_engine::Cursor::from_bytes(&wire).unwrap();
    let page2 = server_b
        .execute_with(
            &mut session,
            &q_b,
            &params,
            piql::ExecStrategy::Parallel,
            Some(&cursor),
        )
        .unwrap();
    assert_eq!(page2.rows.len(), 10);
    let wire2 = page2.cursor.unwrap().to_bytes();
    let cursor2 = piql_engine::Cursor::from_bytes(&wire2).unwrap();
    // back to server A for the final page
    let page3 = server_a
        .execute_with(
            &mut session,
            &q_a,
            &params,
            piql::ExecStrategy::Parallel,
            Some(&cursor2),
        )
        .unwrap();
    assert_eq!(page3.rows.len(), 3);
    // no overlaps, strictly descending across the whole traversal
    let all: Vec<i64> = page1
        .rows
        .into_iter()
        .chain(page2.rows)
        .chain(page3.rows)
        .map(|r| r[1].as_i64().unwrap())
        .collect();
    assert_eq!(all.len(), 23);
    assert!(all.windows(2).all(|w| w[0] > w[1]));
}
