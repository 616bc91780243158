//! Engine integration tests: the compiler's plans executed against the
//! simulated cluster, checked against the naive reference executor.

use piql_core::catalog::Catalog;
use piql_core::plan::params::Params;
use piql_core::tuple;
use piql_core::value::{Value, ValueRef};
use piql_engine::exec::{give_back, scratch_bytes, SCRATCH_CEILING_BYTES};
use piql_engine::{keys, Cursor, Database, DbError, ExecError, ExecStrategy, WriteError};
use piql_kv::{
    ClusterConfig, KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, NsId, Session,
    SimCluster,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const SCADR_DDL: &[&str] = &[
    "CREATE TABLE users ( \
       username VARCHAR(32) NOT NULL, \
       home_town VARCHAR(64), \
       PRIMARY KEY (username) )",
    "CREATE TABLE subscriptions ( \
       owner VARCHAR(32) NOT NULL, \
       target VARCHAR(32) NOT NULL, \
       approved BOOL, \
       PRIMARY KEY (owner, target), \
       FOREIGN KEY (target) REFERENCES users, \
       FOREIGN KEY (owner) REFERENCES users, \
       CARDINALITY LIMIT 10 (owner) )",
    "CREATE TABLE thoughts ( \
       owner VARCHAR(32) NOT NULL, \
       timestamp TIMESTAMP NOT NULL, \
       text VARCHAR(140), \
       PRIMARY KEY (owner, timestamp), \
       FOREIGN KEY (owner) REFERENCES users )",
];

const THOUGHTSTREAM: &str = "SELECT thoughts.* \
    FROM subscriptions s JOIN thoughts \
    WHERE thoughts.owner = s.target AND s.owner = <uname> AND s.approved = true \
    ORDER BY thoughts.timestamp DESC LIMIT 10";

fn scadr_db(nodes: usize) -> Database {
    let cluster = Arc::new(SimCluster::new(ClusterConfig::instant(nodes)));
    let db = Database::new(cluster);
    for ddl in SCADR_DDL {
        db.execute_ddl(ddl).unwrap();
    }
    db
}

/// Deterministic small SCADr population: `n_users` users, each following
/// users (u+1..u+follows), each posting `posts` thoughts.
fn populate<S: KvStore>(db: &Database<S>, n_users: usize, follows: usize, posts: usize) {
    let uname = |i: usize| format!("user{i:04}");
    db.bulk_load(
        "users",
        (0..n_users).map(|i| tuple![uname(i).as_str(), "Berkeley"]),
    )
    .unwrap();
    db.bulk_load(
        "subscriptions",
        (0..n_users)
            .flat_map(|i| {
                (1..=follows).map(move |d| {
                    let target = uname((i + d) % n_users);
                    let approved = d % 2 == 1; // every other subscription approved
                    Tup(uname(i), target, approved)
                })
            })
            .map(|Tup(o, t, a)| tuple![o.as_str(), t.as_str(), a]),
    )
    .unwrap();
    db.bulk_load(
        "thoughts",
        (0..n_users)
            .flat_map(|i| {
                (0..posts).map(move |p| {
                    (
                        uname(i),
                        1_000_000i64 + (i * 131 + p * 7919) as i64,
                        format!("thought {p} of user {i}"),
                    )
                })
            })
            .map(|(o, ts, txt)| tuple![o.as_str(), Value::Timestamp(ts), txt.as_str()]),
    )
    .unwrap();
    db.cluster().rebalance();
}

struct Tup(String, String, bool);

#[test]
fn thoughtstream_matches_reference() {
    let db = scadr_db(4);
    populate(&db, 40, 7, 12);
    let prepared = db.prepare(THOUGHTSTREAM).unwrap();
    let mut params = Params::new();
    params.set(0, Value::Varchar("user0003".into()));
    let mut session = Session::new();
    let result = db.execute(&mut session, &prepared, &params).unwrap();
    let expected = db.reference_query(THOUGHTSTREAM, &params).unwrap();
    assert_eq!(result.rows.len(), 10);
    assert_eq!(
        result.rows.to_tuples(),
        expected,
        "optimized plan == naive semantics"
    );
    // ordered by timestamp desc
    assert!(result
        .rows
        .to_tuples()
        .windows(2)
        .all(|w| w[0][1].as_i64() >= w[1][1].as_i64()));
}

#[test]
fn all_strategies_agree_and_parallel_is_fastest() {
    let mut cfg = ClusterConfig::default().with_nodes(6).with_seed(12);
    cfg.interference = piql_kv::InterferenceConfig::none();
    let cluster = Arc::new(SimCluster::new(cfg));
    let db = Database::new(cluster);
    for ddl in SCADR_DDL {
        db.execute_ddl(ddl).unwrap();
    }
    populate(&db, 60, 9, 10);
    let prepared = db.prepare(THOUGHTSTREAM).unwrap();
    let mut params = Params::new();
    params.set(0, Value::Varchar("user0007".into()));

    let mut timings = Vec::new();
    let mut results = Vec::new();
    for strategy in [
        ExecStrategy::Lazy,
        ExecStrategy::Simple,
        ExecStrategy::Parallel,
    ] {
        let mut session = Session::new();
        let t0 = session.begin();
        let r = db
            .execute_with(&mut session, &prepared, &params, strategy, None)
            .unwrap();
        timings.push(session.elapsed_since(t0));
        results.push(r.rows);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    assert!(
        timings[2] < timings[1] && timings[1] < timings[0],
        "Parallel < Simple < Lazy, got {timings:?}"
    );
}

#[test]
fn measured_requests_stay_within_static_bound() {
    let db = scadr_db(4);
    populate(&db, 50, 10, 15);
    for (sql, p0) in [
        (THOUGHTSTREAM, "user0001"),
        (
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 5",
            "user0002",
        ),
        ("SELECT * FROM users WHERE username = <u>", "user0003"),
        (
            "SELECT u.* FROM subscriptions s JOIN users u \
             WHERE u.username = s.target AND s.owner = <uname>",
            "user0004",
        ),
    ] {
        let prepared = db.prepare(sql).unwrap();
        let mut params = Params::new();
        params.set(0, Value::Varchar(p0.into()));
        let mut session = Session::new();
        db.execute(&mut session, &prepared, &params).unwrap();
        assert!(
            session.stats.logical_requests <= prepared.compiled.bounds.requests,
            "{sql}: measured {} > bound {}",
            session.stats.logical_requests,
            prepared.compiled.bounds.requests
        );
        assert!(
            session.stats.rounds <= prepared.compiled.bounds.rounds,
            "{sql}: rounds {} > bound {}",
            session.stats.rounds,
            prepared.compiled.bounds.rounds
        );
    }
}

#[test]
fn scan_pagination_visits_everything_once() {
    let db = scadr_db(3);
    populate(&db, 10, 3, 25);
    let sql = "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 7";
    let prepared = db.prepare(sql).unwrap();
    let mut params = Params::new();
    params.set(0, Value::Varchar("user0004".into()));

    let mut session = Session::new();
    let mut all = Vec::new();
    let mut cursor: Option<Cursor> = None;
    let mut pages = 0;
    loop {
        let r = db
            .execute_with(
                &mut session,
                &prepared,
                &params,
                ExecStrategy::Parallel,
                cursor.as_ref(),
            )
            .unwrap();
        if r.rows.is_empty() {
            break;
        }
        pages += 1;
        assert!(r.rows.len() <= 7);
        all.extend(r.rows);
        match r.cursor {
            // cursors survive serialization (shipped to the user, §4.1)
            Some(c) => cursor = Some(Cursor::from_bytes(&c.to_bytes()).unwrap()),
            None => break,
        }
    }
    assert_eq!(pages, 4, "25 thoughts / 7 per page");
    assert_eq!(all.len(), 25);
    let full = db
        .reference_query(
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC",
            &params,
        )
        .unwrap();
    assert_eq!(all, full, "pages concatenate to the full ordered result");
}

#[test]
fn sorted_join_pagination_resumes_the_merge() {
    let db = scadr_db(4);
    populate(&db, 30, 8, 9);
    let sql = "SELECT thoughts.* \
        FROM subscriptions s JOIN thoughts \
        WHERE thoughts.owner = s.target AND s.owner = <uname> \
        ORDER BY thoughts.timestamp DESC PAGINATE 5";
    let prepared = db.prepare(sql).unwrap();
    let mut params = Params::new();
    params.set(0, Value::Varchar("user0010".into()));

    let mut session = Session::new();
    let mut all = Vec::new();
    let mut cursor: Option<Cursor> = None;
    for _ in 0..50 {
        let r = db
            .execute_with(
                &mut session,
                &prepared,
                &params,
                ExecStrategy::Parallel,
                cursor.as_ref(),
            )
            .unwrap();
        if r.rows.is_empty() {
            break;
        }
        all.extend(r.rows);
        match r.cursor {
            Some(c) => cursor = Some(c),
            None => break,
        }
    }
    // 8 followed users x 9 thoughts = 72 rows
    let full = db
        .reference_query(
            "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
             WHERE thoughts.owner = s.target AND s.owner = <uname> \
             ORDER BY thoughts.timestamp DESC",
            &params,
        )
        .unwrap();
    assert_eq!(all.len(), full.len());
    // same multiset in the same timestamp order (ties may permute between
    // equal-timestamp rows of different owners — the merge breaks ties by
    // index key, the reference by input order)
    let ts = |rows: &[piql_core::tuple::Tuple]| -> Vec<i64> {
        rows.iter().map(|r| r[1].as_i64().unwrap()).collect()
    };
    assert_eq!(ts(&all), ts(&full));
    let mut a = all.clone();
    let mut b = full.clone();
    let key = |t: &piql_core::tuple::Tuple| format!("{t}");
    a.sort_by_key(key);
    b.sort_by_key(key);
    assert_eq!(a, b);
}

#[test]
fn token_search_finds_rows_after_updates() {
    let db = scadr_db(3);
    populate(&db, 8, 2, 3);
    // force creation of the token index via prepare
    let sql = "SELECT * FROM users WHERE home_town LIKE <word> LIMIT 10";
    let prepared = db.prepare(sql).unwrap();
    assert!(
        !prepared.compiled.required_indexes.is_empty() || {
            // re-preparing reuses the provisioned index
            db.prepare(sql)
                .unwrap()
                .compiled
                .required_indexes
                .is_empty()
        }
    );
    let mut params = Params::new();
    params.set(0, Value::Varchar("Berkeley".into()));
    let mut session = Session::new();
    let r = db.query(&mut session, sql, &params).unwrap();
    assert_eq!(r.rows.len(), 8, "all users live in Berkeley");

    // move one user; token index must follow (§7.2 maintenance order)
    db.execute_dml(
        &mut session,
        "UPDATE users SET home_town = 'Istanbul Turkey' WHERE username = 'user0002'",
        &Params::new(),
    )
    .unwrap();
    let r = db.query(&mut session, sql, &params).unwrap();
    assert_eq!(r.rows.len(), 7);
    params.set(0, Value::Varchar("istanbul".into()));
    let r = db.query(&mut session, sql, &params).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows.to_tuples()[0][0], Value::Varchar("user0002".into()));
}

#[test]
fn insert_enforces_uniqueness_and_cardinality() {
    let db = scadr_db(3);
    populate(&db, 5, 0, 0);
    let mut session = Session::new();

    // duplicate pk
    let err = db
        .execute_dml(
            &mut session,
            "INSERT INTO users VALUES ('user0000', 'Oakland')",
            &Params::new(),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        DbError::Write(WriteError::DuplicateKey { .. })
    ));

    // cardinality limit 10 on subscriptions.owner
    let subscribe = "INSERT INTO subscriptions VALUES ('user0000', <target>, true)";
    for i in 0..10 {
        let target = Params::from_values([Value::Varchar(format!("t{i}"))]);
        db.execute_dml(&mut session, subscribe, &target).unwrap();
    }
    let target = Params::from_values([Value::Varchar("one-too-many".into())]);
    let err = db
        .execute_dml(&mut session, subscribe, &target)
        .unwrap_err();
    assert!(
        matches!(
            err,
            DbError::Write(WriteError::CardinalityExceeded { limit: 10, .. })
        ),
        "{err}"
    );
    // the violating row must have been rolled back
    let mut params = Params::new();
    params.set(0, Value::Varchar("user0000".into()));
    let rows = db
        .reference_query("SELECT * FROM subscriptions WHERE owner = <o>", &params)
        .unwrap();
    assert_eq!(rows.len(), 10);
}

#[test]
fn a_refused_create_table_registers_nothing() {
    // each limit passes the table's own checks and is refused only as an
    // enforcement index; the table used to stay registered without it,
    // so every INSERT failed and a corrected CREATE TABLE was a duplicate
    for (refused, why, corrected) in [
        (
            "CARDINALITY LIMIT 2 (TOKEN(a), id)",
            "unknown column 'token:a' in table 't'",
            "CARDINALITY LIMIT 2 (TOKEN(a))",
        ),
        (
            "CARDINALITY LIMIT 2 (d)",
            "invalid definition: column 'd' of type DOUBLE cannot be indexed",
            "CARDINALITY LIMIT 2 (a)",
        ),
    ] {
        let db = Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(2))));
        let ddl = |limit: &str| {
            format!("CREATE TABLE t (id INT, a VARCHAR(16), d DOUBLE, PRIMARY KEY (id), {limit})")
        };
        let err = db.execute_ddl(&ddl(refused)).unwrap_err();
        assert!(matches!(err, DbError::Catalog(_)), "{refused}: {err:?}");
        assert_eq!(err.to_string(), why, "{refused}");
        assert!(db.catalog().table("t").is_none(), "{refused}");
        assert_eq!(db.catalog().indexes().count(), 0, "{refused}");

        db.execute_ddl(&ddl(corrected)).unwrap();
        let mut session = Session::new();
        let insert = |session: &mut Session, id: i32| {
            let row = [
                Value::Int(id),
                Value::Varchar("x".into()),
                Value::Double(0.5),
            ];
            db.execute_dml(
                session,
                "INSERT INTO t VALUES (<id>, <a>, <d>)",
                &Params::from_values(row),
            )
        };
        for id in [1, 2] {
            insert(&mut session, id).unwrap();
        }
        let err = insert(&mut session, 3).unwrap_err();
        assert!(
            matches!(
                err,
                DbError::Write(WriteError::CardinalityExceeded { limit: 2, .. })
            ),
            "{corrected}: {err}"
        );
    }
}

#[test]
fn delete_removes_record_and_index_entries() {
    let db = scadr_db(3);
    populate(&db, 4, 0, 0);
    let mut session = Session::new();
    let user = Params::from_values([Value::Varchar("user0001".into())]);
    let find = "SELECT * FROM users WHERE username = <u>";
    assert_eq!(db.reference_query(find, &user).unwrap().len(), 1);
    let delete = "DELETE FROM users WHERE username = <u>";
    db.execute_dml(&mut session, delete, &user).unwrap();
    assert!(db.reference_query(find, &user).unwrap().is_empty());
    // a row already gone is not an error
    db.execute_dml(&mut session, delete, &user).unwrap();
    let mut params = Params::new();
    params.set(0, Value::Varchar("Berkeley".into()));
    let r = db
        .query(
            &mut session,
            "SELECT * FROM users WHERE home_town LIKE <w> LIMIT 10",
            &params,
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3, "token index entry deleted too");
}

#[test]
fn in_rewrite_executes_as_bounded_lookups() {
    let db = scadr_db(4);
    populate(&db, 30, 6, 0);
    let sql = "SELECT owner, target FROM subscriptions \
               WHERE target = <t> AND owner IN [2: friends MAX 8]";
    let prepared = db.prepare(sql).unwrap();
    let mut params = Params::new();
    params.set(0, Value::Varchar("user0005".into()));
    params.set(
        1,
        vec![
            Value::Varchar("user0001".into()),
            Value::Varchar("user0002".into()),
            Value::Varchar("user0003".into()),
            Value::Varchar("user0004".into()),
            Value::Varchar("user0029".into()),
        ],
    );
    let mut session = Session::new();
    let r = db.execute(&mut session, &prepared, &params).unwrap();
    let expected = db.reference_query(sql, &params).unwrap();
    let sorted = |mut v: Vec<piql_core::tuple::Tuple>| {
        v.sort_by_key(|t| format!("{t}"));
        v
    };
    assert_eq!(sorted(r.rows.to_tuples()), sorted(expected));
    assert!(session.stats.logical_requests <= 8, "bounded by MAX 8");

    // exceeding the declared MAX is an error, not a truncation
    params.set(
        1,
        (0..9)
            .map(|i| Value::Varchar(format!("user{i:04}")))
            .collect::<Vec<_>>(),
    );
    let mut s2 = Session::new();
    assert!(db.execute(&mut s2, &prepared, &params).is_err());
}

#[test]
fn aggregates_group_bounded_results() {
    let db = scadr_db(3);
    populate(&db, 6, 4, 5);
    let sql = "SELECT owner, COUNT(*) AS n FROM subscriptions \
               WHERE owner = <o> GROUP BY owner";
    let mut params = Params::new();
    params.set(0, Value::Varchar("user0002".into()));
    let mut session = Session::new();
    let r = db.query(&mut session, sql, &params).unwrap();
    assert_eq!(
        r.rows.to_tuples(),
        vec![tuple!["user0002", Value::BigInt(4)]]
    );
}

/// `SUM` and `AVG` are exact over integral columns. Accumulated in `f64`
/// (as they were), `SUM(amount)` over 9007199254740993 and 0 answered
/// 9007199254740992, and `SUM`/`AVG` of timestamps answered NULL.
/// Expectations are worked out by hand: the reference executor shares
/// the aggregation.
#[test]
fn aggregates_are_exact_over_integral_columns() {
    let db = Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(2))));
    db.execute_ddl(
        "CREATE TABLE ledger ( \
           acct VARCHAR(16) NOT NULL, \
           seq INT NOT NULL, \
           amount BIGINT, \
           at TIMESTAMP, \
           memo VARCHAR(16), \
           PRIMARY KEY (acct, seq), \
           CARDINALITY LIMIT 10 (acct) )",
    )
    .unwrap();
    let entry = |acct: &str, seq: i32, amount: i64, at: i64, memo: Option<&str>| {
        let memo = memo.map_or(Value::Null, Value::from);
        tuple![acct, seq, amount, Value::Timestamp(at), memo]
    };
    db.bulk_load(
        "ledger",
        [
            entry("big", 1, 9_007_199_254_740_993, 1_000, Some("rent")),
            entry("big", 2, 0, 3_000, None),
            entry("small", 1, 1, 10, Some("b")),
            entry("small", 2, 2, 20, None),
            entry("small", 3, 4, 30, Some("a")),
        ],
    )
    .unwrap();
    let answer = |sql: &str, acct: &str| {
        let params = Params::from_values([Value::Varchar(acct.into())]);
        let rows = db.query(&mut Session::new(), sql, &params).unwrap().rows;
        assert_eq!(rows.len(), 1, "{sql}");
        rows.to_tuples().remove(0).into_values()
    };

    let sums = "SELECT SUM(amount) AS total, MAX(amount) AS most, SUM(at) AS ats, AVG(at) AS mid \
                FROM ledger WHERE acct = <a>";
    assert_eq!(
        answer(sums, "big"),
        [
            Value::BigInt(9_007_199_254_740_993),
            Value::BigInt(9_007_199_254_740_993),
            Value::BigInt(4_000),
            Value::Double(2_000.0),
        ],
        "SUM(amount), MAX(amount), SUM(at), AVG(at)"
    );

    let rest = "SELECT AVG(seq) AS s, AVG(amount) AS a, MIN(memo) AS lo, MAX(memo) AS hi, \
                COUNT(memo) AS memos, COUNT(*) AS n FROM ledger WHERE acct = <a>";
    assert_eq!(
        answer(rest, "small"),
        [
            Value::Double(2.0),
            Value::Double(7.0 / 3.0),
            "a".into(),
            "b".into(),
            Value::BigInt(2),
            Value::BigInt(3),
        ]
    );
    // nothing to aggregate, no grouping: counts of zero, NULL for the rest
    assert_eq!(
        answer(rest, "nobody"),
        [
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::BigInt(0),
            Value::BigInt(0),
        ]
    );
}

#[test]
fn update_preserves_unchanged_index_entries() {
    let db = scadr_db(3);
    populate(&db, 3, 0, 2);
    let mut session = Session::new();
    db.execute_dml(
        &mut session,
        "UPDATE thoughts SET text = 'edited contents' \
         WHERE owner = 'user0001' AND timestamp = <ts>",
        Params::new().set(0, Value::Timestamp(1_000_131)),
    )
    .unwrap();
    let mut params = Params::new();
    params.set(0, Value::Varchar("user0001".into()));
    let rows = db
        .reference_query("SELECT * FROM thoughts WHERE owner = <o>", &params)
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows
        .iter()
        .any(|r| r[2] == Value::Varchar("edited contents".into())));
}

/// A bulk load stops at the first row it cannot store: the rows before it
/// are stored with every one of their index entries — a TOKEN index's
/// several a row among them — and nothing from it on is, however the rows
/// arrive: as tuples, or pushed borrowed by a feed that ignores the error
/// and keeps pushing.
fn bulk_load_stops_at_a_misshapen_row<S: KvStore>(db: &Database<S>, backend: &str, borrowed: bool) {
    for ddl in SCADR_DDL {
        db.execute_ddl(ddl).unwrap();
    }
    db.execute_ddl("CREATE INDEX users_by_town ON users (home_town)")
        .unwrap();
    db.execute_ddl("CREATE INDEX users_by_town_word ON users (TOKEN(home_town))")
        .unwrap();
    const BAD: usize = 7;
    let user = |i: usize| {
        let name = format!("user{:04}", (i * 37) % 100);
        if i == BAD {
            tuple![name.as_str()]
        } else {
            tuple![name.as_str(), format!("north town {}", i % 3).as_str()]
        }
    };
    let err = if borrowed {
        let loaded = db.bulk_load_with("users", |rows| {
            let pushed: Vec<_> = (0..20)
                .map(|i| {
                    let row = user(i);
                    rows.push(&row.values().iter().map(ValueRef::of).collect::<Vec<_>>())
                })
                .collect();
            assert!(pushed[..BAD].iter().all(Result::is_ok), "{backend}");
            assert!(
                pushed[BAD..]
                    .iter()
                    .all(|p| p.is_err() && *p == pushed[BAD]),
                "{backend}: every push from the bad row on fails as it did: {pushed:?}"
            );
            Ok(())
        });
        loaded.unwrap_err()
    } else {
        db.bulk_load("users", (0..20).map(user)).unwrap_err()
    };
    let DbError::Write(WriteError::RowShape(message)) = &err else {
        panic!("{backend}: {err}");
    };
    assert_eq!(
        message, "table 'users' expects 2 values, got 1",
        "{backend}"
    );

    let catalog = db.catalog();
    let table = catalog.table("users").unwrap();
    let store = db.cluster();
    let stored = |ns| {
        let mut session = Session::new();
        let scan = KvRequest::GetRange {
            ns,
            start: Vec::new(),
            end: None,
            limit: None,
            reverse: false,
        };
        let found = store
            .execute_one(&mut session, scan)
            .into_entries()
            .unwrap();
        found.into_iter().map(|(key, _)| key).collect::<Vec<_>>()
    };
    let mut records: Vec<_> = (0..BAD)
        .map(|i| keys::primary_key_from(table, &[0], &user(i)).unwrap())
        .collect();
    records.sort();
    let primary = store.namespace(&Catalog::table_namespace(table));
    assert_eq!(stored(primary), records, "{backend}: the records before it");
    for (name, per_row) in [("users_by_town", 1), ("users_by_town_word", 3)] {
        let index = catalog.index(name).unwrap();
        let parts = keys::index_key_parts(table, index).unwrap();
        let mut entries = Vec::new();
        for row in (0..BAD).map(user) {
            keys::entry_keys(&parts, &row, |key| entries.push(key)).unwrap();
        }
        entries.sort();
        assert_eq!(entries.len(), per_row * BAD, "{backend}: {name}");
        let ns = store.namespace(&Catalog::index_namespace(index));
        assert_eq!(stored(ns), entries, "{backend}: {name}, their entries");
    }
}

#[test]
fn a_bulk_load_stops_at_its_first_misshapen_row() {
    for borrowed in [false, true] {
        bulk_load_stops_at_a_misshapen_row(
            &Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(3)))),
            "sim",
            borrowed,
        );
        bulk_load_stops_at_a_misshapen_row(
            &Database::new(Arc::new(LiveCluster::new(LiveConfig::default()))),
            "live",
            borrowed,
        );
    }
}

/// A value that does not fit its column is refused in the same words
/// whether it arrives in an INSERT or in a bulk load: the column-type
/// rules and their refusal are one copy.
#[test]
fn a_value_that_does_not_fit_is_refused_alike_by_dml_and_load() {
    let db = Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(1))));
    db.execute_ddl("CREATE TABLE counts (id INT NOT NULL, name VARCHAR(4), PRIMARY KEY (id))")
        .unwrap();
    let cases = [
        (
            [Value::Int(1), Value::Varchar("toolong".into())],
            "value 'toolong' does not fit column 'name' VARCHAR(4)",
        ),
        (
            [Value::Double(1.5), Value::Varchar("ok".into())],
            "value 1.5 does not fit column 'id' INT",
        ),
    ];
    let insert = "INSERT INTO counts (id, name) VALUES (<id>, <name>)";
    let mut session = Session::new();
    for (row, expected) in cases {
        let params = Params::from_values(row.clone());
        let refused = db.execute_dml(&mut session, insert, &params).unwrap_err();
        assert_eq!(refused.to_string(), expected, "dml");
        let refused = db
            .bulk_load_with("counts", |rows| {
                rows.push(&row.iter().map(ValueRef::of).collect::<Vec<_>>())
            })
            .unwrap_err();
        assert_eq!(refused.to_string(), expected, "load");
    }
    let everything = "SELECT * FROM counts WHERE id = <id>";
    let params = Params::from_values([Value::Int(1)]);
    assert!(db.reference_query(everything, &params).unwrap().is_empty());
}

/// §7.2's ordering promises a record is never unreachable through its
/// indexes. Index keys end in the primary key, so a duplicate insert whose
/// indexed columns equal the stored row's writes — and must not "undo" —
/// the live row's own entries.
fn rejected_duplicate_leaves_the_live_row_indexed<S: KvStore>(db: &Database<S>, backend: &str) {
    for ddl in SCADR_DDL {
        db.execute_ddl(ddl).unwrap();
    }
    db.execute_ddl("CREATE INDEX users_by_town ON users (home_town)")
        .unwrap();
    db.bulk_load(
        "users",
        (0..5).map(|i| tuple![format!("user{i:04}").as_str(), "Berkeley"]),
    )
    .unwrap();
    let by_town = "SELECT * FROM users WHERE home_town = <t> LIMIT 20";
    let in_town = |session: &mut Session, town: &str| {
        let params = Params::from_values([Value::Varchar(town.into())]);
        db.query(session, by_town, &params).unwrap().rows.len()
    };
    let mut session = Session::new();
    assert_eq!(in_town(&mut session, "Berkeley"), 5, "{backend}");

    // same indexed value as the live row: its entry must survive
    let err = db
        .execute_dml(
            &mut session,
            "INSERT INTO users VALUES ('user0000', 'Berkeley')",
            &Params::new(),
        )
        .unwrap_err();
    assert!(
        matches!(err, DbError::Write(WriteError::DuplicateKey { .. })),
        "{backend}: {err}"
    );
    assert_eq!(in_town(&mut session, "Berkeley"), 5, "{backend}");

    // a different indexed value: the entry written for it is undone
    let err = db
        .execute_dml(
            &mut session,
            "INSERT INTO users (username, home_town) VALUES (<u>, <t>)",
            &Params::from_values([
                Value::Varchar("user0001".into()),
                Value::Varchar("Oakland".into()),
            ]),
        )
        .unwrap_err();
    assert!(
        matches!(err, DbError::Write(WriteError::DuplicateKey { .. })),
        "{backend}: {err}"
    );
    assert_eq!(in_town(&mut session, "Oakland"), 0, "{backend}");
    assert_eq!(in_town(&mut session, "Berkeley"), 5, "{backend}");
    assert_eq!(
        db.gc_indexes(&mut session, "users").unwrap(),
        0,
        "{backend}: nothing left dangling"
    );
}

#[test]
fn rejected_duplicate_insert_leaves_the_live_row_indexed() {
    rejected_duplicate_leaves_the_live_row_indexed(
        &Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(3)))),
        "sim",
    );
    rejected_duplicate_leaves_the_live_row_indexed(
        &Database::new(Arc::new(LiveCluster::new(LiveConfig::default()))),
        "live",
    );
}

#[test]
fn cached_write_plan_is_rebuilt_when_the_catalog_moves_on() {
    let db = scadr_db(3);
    populate(&db, 3, 0, 0);
    let insert = "INSERT INTO users (username, home_town) VALUES (<u>, <t>)";
    let add = |session: &mut Session, user: &str| {
        let params =
            Params::from_values([Value::Varchar(user.into()), Value::Varchar("Albany".into())]);
        db.execute_dml(session, insert, &params).unwrap();
    };
    let mut session = Session::new();
    add(&mut session, "before-1");
    add(&mut session, "before-2");
    let stats = db.write_plan_stats();
    assert_eq!(
        (stats.cached, stats.compiles),
        (1, 1),
        "one text, one compile"
    );
    let first = db.write_plan(insert).unwrap();

    // an index a SELECT prepare derives, then a declared one
    let by_town = db
        .prepare("SELECT * FROM users WHERE home_town = <t> LIMIT 20")
        .unwrap();
    add(&mut session, "after-derived-index");
    let second = db.write_plan(insert).unwrap();
    assert!(second.generation() > first.generation());
    let albany = Params::from_values([Value::Varchar("Albany".into())]);
    assert_eq!(
        db.execute(&mut session, &by_town, &albany)
            .unwrap()
            .rows
            .len(),
        3,
        "backfilled rows and the one inserted through the rebuilt plan"
    );
    db.execute_ddl("CREATE INDEX users_town_desc ON users (home_town DESC)")
        .unwrap();
    add(&mut session, "after-declared-index");
    let entries = db.store().execute_round(
        &mut session,
        vec![piql_kv::KvRequest::CountRange {
            ns: db.store().namespace("i/users_town_desc"),
            start: Vec::new(),
            end: None,
        }],
    );
    assert_eq!(entries[0].expect_count(), 3 + 4, "every user, old and new");
    assert_eq!(
        db.write_plan_stats().compiles,
        3,
        "one rebuild per mutation"
    );

    // a text that does not compile is an error every time, never a plan
    for _ in 0..2 {
        let err = db
            .execute_dml(&mut session, "INSERT INTO nope VALUES (1)", &Params::new())
            .unwrap_err();
        assert_eq!(err.to_string(), "unknown table 'nope'");
    }
    assert_eq!(db.write_plan_stats().cached, 1);
}

/// A `Prepared` carries what its plan reads, resolved when it was made.
/// Nothing that happens to the database afterwards — a new table, an index
/// another statement's `prepare` derives, a rebalance — may make it read
/// anything other than what a fresh `prepare` of the same text reads.
fn early_prepared_reads_what_a_fresh_one_reads<S: KvStore>(db: &Database<S>, backend: &str) {
    for ddl in SCADR_DDL {
        db.execute_ddl(ddl).unwrap();
    }
    populate(db, 12, 6, 5);
    let texts = [
        "SELECT * FROM users WHERE username = <uname>",
        "SELECT u.* FROM subscriptions s JOIN users u \
         WHERE u.username = s.target AND s.owner = <uname>",
        THOUGHTSTREAM,
        // a derived secondary index, dereferenced; and one read covered
        "SELECT * FROM subscriptions WHERE target = <uname> LIMIT 20",
        "SELECT owner, target FROM subscriptions WHERE target = <uname> LIMIT 20",
    ];
    let prepare_all = || texts.map(|sql| db.prepare(sql).unwrap());
    let params = Params::from_values([Value::Varchar("user0003".into())]);
    let run = |prepared: &[piql_engine::Prepared]| {
        let mut session = Session::new();
        let rows = prepared
            .iter()
            .map(|p| db.execute(&mut session, p, &params).unwrap().rows)
            .collect::<Vec<_>>();
        (rows, session.stats.logical_requests, session.stats.rounds)
    };
    let early = prepare_all();
    let before = run(&early);
    assert!(before.0.iter().all(|rows| !rows.is_empty()), "{backend}");

    // the catalog and the placement move on under the early plans
    db.execute_ddl("CREATE TABLE later (id INT NOT NULL, note VARCHAR(20), PRIMARY KEY (id))")
        .unwrap();
    db.prepare("SELECT * FROM thoughts WHERE timestamp = <ts> LIMIT 5")
        .unwrap();
    db.prepare("SELECT * FROM later WHERE note = <n> LIMIT 5")
        .unwrap();
    db.cluster().rebalance();
    assert_eq!(
        run(&early),
        before,
        "{backend}: same rows for the same work"
    );
    assert_eq!(run(&prepare_all()), before, "{backend}: as a fresh prepare");

    // and a row written after all that is seen by both
    let mut session = Session::new();
    db.execute_dml(
        &mut session,
        "INSERT INTO subscriptions VALUES ('user0004', 'user0003', true)",
        &Params::new(),
    )
    .unwrap();
    let after = run(&early);
    assert_eq!(after.0[3].len(), before.0[3].len() + 1, "{backend}");
    assert_eq!(run(&prepare_all()), after, "{backend}");
}

#[test]
fn prepared_reads_survive_catalog_and_placement_changes() {
    early_prepared_reads_what_a_fresh_one_reads(
        &Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(3)))),
        "sim",
    );
    early_prepared_reads_what_a_fresh_one_reads(
        &Database::new(Arc::new(LiveCluster::new(LiveConfig::default()))),
        "live",
    );
}

#[test]
fn sorted_join_keeps_rows_with_their_children_past_a_dangling_entry() {
    // a merge over a dereferenced index: when an entry's record is gone,
    // the rows after it must still be joined to the child that probed them
    let db = scadr_db(3);
    db.execute_ddl(
        "CREATE TABLE posts (id INT NOT NULL, author VARCHAR(32) NOT NULL, \
         score INT NOT NULL, body VARCHAR(40), PRIMARY KEY (id))",
    )
    .unwrap();
    populate(&db, 4, 3, 0);
    db.bulk_load(
        "posts",
        (0..12).map(|i| {
            tuple![
                i,
                format!("user{:04}", i % 4).as_str(),
                100 - i,
                format!("post {i}").as_str()
            ]
        }),
    )
    .unwrap();
    let sql = "SELECT s.target, posts.* FROM subscriptions s JOIN posts \
               WHERE posts.author = s.target AND s.owner = <uname> \
               ORDER BY posts.score DESC LIMIT 8";
    let prepared = db.prepare(sql).unwrap();
    let params = Params::from_values([Value::Varchar("user0000".into())]);
    let mut session = Session::new();
    let full = db
        .execute(&mut session, &prepared, &params)
        .unwrap()
        .rows
        .to_tuples();
    assert_eq!(full.len(), 8);
    assert!(full.iter().all(|row| row[0] == row[2]), "target = author");

    // remove the best post's record behind the index's back
    let best = full[0][1].clone();
    let posts = db.store().namespace("t/posts");
    let key = piql_core::codec::key::encode_key_asc(std::slice::from_ref(&best)).unwrap();
    db.store()
        .execute_round(&mut session, vec![KvRequest::Delete { ns: posts, key }]);
    let rows = db
        .execute(&mut session, &prepared, &params)
        .unwrap()
        .rows
        .to_tuples();
    assert_eq!(rows.len(), 7, "the dangling entry is skipped");
    assert!(rows.iter().all(|row| row[1] != best));
    assert!(
        rows.iter().all(|row| row[0] == row[2]),
        "every row still joined to the child whose probe found it: {rows:?}"
    );
}

/// A store whose rounds of two requests or more come back `withheld`
/// responses short, and whose every round panics once `panics` is set — a
/// misbehaving backend, in the style of `tcp.rs`'s `FaultyStore`. It
/// overrides nothing but `execute_round`, so an operator's packed read
/// round reaches it through the trait's default.
struct ShortStore {
    inner: SimCluster,
    withheld: AtomicUsize,
    panics: AtomicBool,
}

impl ShortStore {
    fn new() -> ShortStore {
        ShortStore {
            inner: SimCluster::new(ClusterConfig::instant(3)),
            withheld: AtomicUsize::new(0),
            panics: AtomicBool::new(false),
        }
    }
}

impl KvStore for ShortStore {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }
    fn execute_round(&self, session: &mut Session, round: Vec<KvRequest>) -> Vec<KvResponse> {
        assert!(!self.panics.load(Ordering::SeqCst), "the store failed");
        let fanned = round.len() >= 2;
        let mut responses = self.inner.execute_round(session, round);
        if fanned {
            let withheld = self.withheld.load(Ordering::SeqCst);
            responses.truncate(responses.len().saturating_sub(withheld));
        }
        responses
    }
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.inner.bulk_put(ns, key, value)
    }
    fn rebalance(&self) {
        self.inner.rebalance()
    }
}

/// A round answered short is an error, never a shorter result: the FK
/// join's gets, a non-covering scan's dereference and the sorted join's
/// ranges each used to drop the rows of the missing responses. Nor does
/// what the thread's reused answer held before pass for the answer.
#[test]
fn a_round_answered_short_is_an_error_not_fewer_rows() {
    let store = Arc::new(ShortStore::new());
    let db = Database::new(store.clone());
    for ddl in SCADR_DDL {
        db.execute_ddl(ddl).unwrap();
    }
    db.execute_ddl(
        "CREATE TABLE posts (id INT NOT NULL, author VARCHAR(32) NOT NULL, \
         score INT NOT NULL, body VARCHAR(40), PRIMARY KEY (id))",
    )
    .unwrap();
    populate(&db, 8, 4, 3);
    db.bulk_load(
        "posts",
        (0..12).map(|i| tuple![i, "user0000", 100 - i, format!("post {i}").as_str()]),
    )
    .unwrap();
    let statements = [
        (
            "FK join",
            "SELECT u.* FROM subscriptions s JOIN users u \
             WHERE u.username = s.target AND s.owner = <p>",
        ),
        (
            "dereference",
            "SELECT * FROM posts WHERE author = <p> ORDER BY score DESC LIMIT 5",
        ),
        ("sorted join", THOUGHTSTREAM),
    ];
    let params = Params::from_values([Value::Varchar("user0000".into())]);

    // warm: the thread's last join left its whole answer in the buffers
    // its executions reuse; a store that then answers the same round with
    // nothing must not have that read back as its answer
    let (_, fk_join) = statements[0];
    let prepared = db.prepare(fk_join).unwrap();
    let mut session = Session::new();
    let rows = db.execute(&mut session, &prepared, &params).unwrap().rows;
    assert!(rows.len() >= 2, "{rows:?}");
    store.withheld.store(usize::MAX, Ordering::SeqCst);
    let err = db.execute(&mut session, &prepared, &params).unwrap_err();
    assert!(
        matches!(&err, DbError::Exec(ExecError::Internal(e)) if e.contains("malformed round")),
        "{err}"
    );

    for (what, sql) in statements {
        let prepared = db.prepare(sql).unwrap();
        let mut session = Session::new();
        store.withheld.store(0, Ordering::SeqCst);
        let rows = db.execute(&mut session, &prepared, &params).unwrap().rows;
        assert!(rows.len() >= 2, "{what}: {rows:?}");
        store.withheld.store(1, Ordering::SeqCst);
        let err = db.execute(&mut session, &prepared, &params).unwrap_err();
        assert!(err.to_string().contains("malformed round"), "{what}: {err}");
    }
}

/// What an execution reads with, and the blocks handed back once printed,
/// are kept for the thread's next execution — but never more than
/// `SCRATCH_CEILING_BYTES` in all: a buffer an outsized answer grew is let
/// go when its execution ends, blocks handed back past the ceiling are
/// dropped, and a panic mid-execution drops everything instead of handing
/// it on.
#[test]
fn the_execution_scratch_lets_go_of_outsized_buffers_and_of_a_panic() {
    let store = Arc::new(ShortStore::new());
    let db = Database::new(store.clone());
    for ddl in SCADR_DDL {
        db.execute_ddl(ddl).unwrap();
    }
    db.execute_ddl(
        "CREATE TABLE posts (id INT NOT NULL, author VARCHAR(32) NOT NULL, \
         score INT NOT NULL, body VARCHAR(8000), PRIMARY KEY (id))",
    )
    .unwrap();
    populate(&db, 8, 4, 3);
    let body = "x".repeat(4_000);
    db.bulk_load(
        "posts",
        (0..40).map(|i| tuple![i, "user0000", 100 - i, body.as_str()]),
    )
    .unwrap();
    let params = Params::from_values([Value::Varchar("user0000".into())]);
    let mut session = Session::new();
    let mut run = |sql: &str| db.execute(&mut session, &db.prepare(sql).unwrap(), &params);
    let fk_join = "SELECT u.* FROM subscriptions s JOIN users u \
                   WHERE u.username = s.target AND s.owner = <p>";
    let expected = run(fk_join).unwrap().rows;
    assert!(expected.len() >= 2, "{expected:?}");
    let kept = scratch_bytes();
    assert!(kept > 0 && kept <= SCRATCH_CEILING_BYTES, "{kept}");

    // a batch of 64 answers of two 4 KB records each, handed back once
    // printed: the thread keeps what fits under the ceiling
    let two_posts = "SELECT * FROM posts WHERE author = <p> ORDER BY score DESC LIMIT 2";
    let batch: Vec<_> = (0..64).map(|_| run(two_posts).unwrap().rows).collect();
    let handed: usize = batch.iter().map(|rows| rows.capacity_bytes()).sum();
    assert!(handed > SCRATCH_CEILING_BYTES, "{handed}");
    batch.into_iter().for_each(give_back);
    let kept_after_batch = scratch_bytes();
    assert!(kept_after_batch > kept, "some blocks are kept");
    assert!(
        kept_after_batch <= SCRATCH_CEILING_BYTES,
        "{kept_after_batch} bytes kept"
    );
    assert_eq!(run(fk_join).unwrap().rows, expected);

    // a dereference of 40 records of 4 KB: its answer outgrows the
    // ceiling, and so does the answer handed back
    let posts = run("SELECT * FROM posts WHERE author = <p> ORDER BY score DESC LIMIT 40");
    let posts = posts.unwrap().rows;
    assert_eq!(posts.len(), 40);
    assert!(40 * body.len() > SCRATCH_CEILING_BYTES);
    let kept = scratch_bytes();
    assert!(kept <= SCRATCH_CEILING_BYTES, "{kept} bytes kept");
    give_back(posts);
    let kept = scratch_bytes();
    assert!(kept <= SCRATCH_CEILING_BYTES, "{kept} bytes kept");
    assert_eq!(run(fk_join).unwrap().rows, expected);

    store.panics.store(true, Ordering::SeqCst);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(fk_join)));
    assert!(panicked.is_err());
    assert_eq!(scratch_bytes(), 0, "the panic dropped the scratch");
    store.panics.store(false, Ordering::SeqCst);
    assert_eq!(run(fk_join).unwrap().rows, expected);
}

#[test]
fn a_range_bound_that_cannot_be_a_key_is_an_error_not_a_panic() {
    let db = scadr_db(2);
    populate(&db, 3, 1, 4);
    let prepared = db
        .prepare("SELECT * FROM thoughts WHERE owner = <o> AND timestamp > <ts> LIMIT 5")
        .unwrap();
    let mut session = Session::new();
    let run = |session: &mut Session, ts: Value| {
        let params = Params::from_values([Value::Varchar("user0001".into()), ts]);
        db.execute(session, &prepared, &params)
    };
    assert_eq!(
        run(&mut session, Value::Timestamp(0)).unwrap().rows.len(),
        4
    );
    let err = run(&mut session, Value::Double(0.5)).unwrap_err();
    assert!(
        err.to_string().contains("not allowed in index keys"),
        "{err}"
    );
}

/// Intervals that hold nothing, as a client can make them: a range
/// predicate whose bounds cross, and a pagination cursor replayed under
/// another key. The ordered maps under both stores panic on an inverted
/// range ("range start is greater than range end"), so these used to take
/// the handler down — holding a shard's read lock, for an embedder.
fn empty_intervals_answer_empty_pages<S: KvStore>(db: &Database<S>, backend: &str) {
    for ddl in SCADR_DDL {
        db.execute_ddl(ddl).unwrap();
    }
    populate(db, 6, 2, 9);
    let strategies = [
        ExecStrategy::Lazy,
        ExecStrategy::Simple,
        ExecStrategy::Parallel,
    ];

    let crossed = "SELECT * FROM thoughts WHERE owner = <o> \
                   AND timestamp > <lo> AND timestamp < <hi> LIMIT 5";
    let prepared = db.prepare(crossed).unwrap();
    let owner = Value::Varchar("user0003".into());
    for (lo, hi, expected) in [(10, 5, 0), (10, 10, 0), (0, i64::MAX, 5)] {
        let params =
            Params::from_values([owner.clone(), Value::Timestamp(lo), Value::Timestamp(hi)]);
        let reference = db.reference_query(crossed, &params).unwrap();
        assert_eq!(reference.len(), expected, "{backend}: ({lo}, {hi})");
        for strategy in strategies {
            let mut session = Session::new();
            let rows = db
                .execute_with(&mut session, &prepared, &params, strategy, None)
                .unwrap()
                .rows
                .to_tuples();
            assert_eq!(rows, reference, "{backend} {strategy:?}: ({lo}, {hi})");
        }
    }

    for order in ["", "ORDER BY timestamp DESC "] {
        let paged = format!("SELECT * FROM thoughts WHERE owner = <o> {order}PAGINATE 2");
        let prepared = db.prepare(&paged).unwrap();
        let page = |owner: &str, strategy, cursor: Option<&Cursor>| {
            let params = Params::from_values([Value::Varchar(owner.into())]);
            let mut session = Session::new();
            db.execute_with(&mut session, &prepared, &params, strategy, cursor)
                .unwrap()
        };
        for strategy in strategies {
            let what = format!("{backend} {strategy:?} {order:?}");
            let first = page("user0003", strategy, None);
            assert_eq!(first.rows.len(), 2, "{what}");
            let cursor = first.cursor.expect("a first page of two has a second");
            // under its own parameters the cursor resumes
            let second = page("user0003", strategy, Some(&cursor));
            assert_eq!(second.rows.len(), 2, "{what}");
            assert_ne!(second.rows, first.rows, "{what}");
            // under others it lies outside the scan, on one side or the
            // other: nothing, or the scan from its top — never rows of an
            // owner the predicate excludes
            for other in ["user0001", "user0005"] {
                let foreign = page(other, strategy, Some(&cursor));
                let own = page(other, strategy, None);
                assert!(
                    foreign.rows.is_empty() || foreign.rows == own.rows,
                    "{what}: {other} resumed with user0003's cursor: {:?}",
                    foreign.rows
                );
            }
            // user0003's position is past all of user0001's keys going up,
            // and before all of user0005's going down
            let beyond = if order.is_empty() {
                "user0001"
            } else {
                "user0005"
            };
            let foreign = page(beyond, strategy, Some(&cursor));
            assert!(foreign.rows.is_empty(), "{what}: {:?}", foreign.rows);
        }
    }
}

#[test]
fn empty_and_inverted_intervals_are_empty_pages_not_panics() {
    empty_intervals_answer_empty_pages(
        &Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(3)))),
        "sim",
    );
    empty_intervals_answer_empty_pages(
        &Database::new(Arc::new(LiveCluster::new(LiveConfig::default()))),
        "live",
    );
}
