//! A write plan's static bound is a contract, not a comment: for every
//! INSERT shape of the SCADr and TPC-W workloads — succeeding, rejected as
//! a duplicate, and rolled back by a cardinality limit — and for every
//! UPDATE and DELETE outcome — a token set that partly changes, nothing
//! indexed changing, a lost test-and-set race retried, a missing row — the
//! requests and rounds a session actually spends stay within the plan's
//! bound, and it ships back no entries and no bytes (the bound's zeros),
//! on the simulated cluster and on the live one. The write-side twin of
//! the read path's `bound_utilisation <= 1`.

use piql::core::codec::row::encode_tuple;
use piql::core::tuple::Tuple;
use piql::engine::{DbError, WriteError};
use piql::kv::testkit::{self, Participant, Schedule};
use piql::kv::{KvRequest, KvStore};
use piql::workloads::{scadr, tpcw};
use piql::{ClusterConfig, Database, LiveCluster, LiveConfig, Params, Session, SimCluster, Value};
use std::sync::Arc;

/// Run one write and hold what it spent against its plan's bound.
fn spend<S: KvStore>(
    db: &Database<S>,
    session: &mut Session,
    sql: &str,
    params: &Params,
    backend: &str,
) -> Result<(), DbError> {
    let bound = db.write_plan(sql).unwrap().bound();
    let before = session.stats;
    let result = db.execute_dml(session, sql, params);
    let requests = session.stats.logical_requests - before.logical_requests;
    let rounds = session.stats.rounds - before.rounds;
    let entries = session.stats.entries - before.entries;
    let bytes = session.stats.bytes - before.bytes;
    assert!(
        requests <= bound.requests
            && rounds <= bound.rounds
            && entries <= bound.tuples
            && bytes <= bound.bytes
            && bound.guaranteed,
        "{backend}: `{sql}` -> {result:?} spent {requests} requests in {rounds} rounds \
         and shipped {entries} entries of {bytes} bytes, bound {bound:?}"
    );
    // measured, not assumed: a write ships nothing back
    assert_eq!((entries, bytes), (0, 0), "{backend}: `{sql}`");
    assert!(requests >= 1, "{backend}: the statement reached the store");
    result
}

fn duplicate(result: Result<(), DbError>) -> bool {
    matches!(result, Err(DbError::Write(WriteError::DuplicateKey { .. })))
}

fn scadr_inserts_stay_within_bound<S: KvStore>(db: &Database<S>, backend: &str) {
    let config = scadr::ScadrConfig {
        users_per_node: 20,
        thoughts_per_user: 3,
        subscriptions_per_user: 4,
        ..Default::default()
    };
    let users = scadr::setup(db, &config, 1).unwrap();
    // the workload's reads, for the indexes they derive
    scadr::ScadrWorkload::new(db, &config, users).unwrap();
    let post = scadr::queries(&config).post_thought;
    let mut session = Session::new();
    let params = Params::from_values([
        Value::Varchar(scadr::username(3)),
        Value::Timestamp(9_000_000_000),
        Value::Varchar("a thought of several words, tokenised nowhere".into()),
    ]);
    spend(db, &mut session, &post, &params, backend).unwrap();
    assert!(duplicate(spend(db, &mut session, &post, &params, backend)));
}

fn tpcw_inserts_stay_within_bound<S: KvStore>(db: &Database<S>, backend: &str) {
    let config = tpcw::TpcwConfig {
        items: 200,
        customers_per_node: 20,
        cart_limit: 3,
        ..Default::default()
    };
    let (customers, items, orders) = tpcw::setup(db, &config, 1).unwrap();
    tpcw::TpcwWorkload::new(db, customers, items, orders).unwrap();
    let mut session = Session::new();
    let int = Value::Int;
    let now = Value::Timestamp(1);

    let cart = Params::from_values([int(4_242), now.clone()]);
    spend(db, &mut session, tpcw::INSERT_CART, &cart, backend).unwrap();
    assert!(duplicate(spend(
        db,
        &mut session,
        tpcw::INSERT_CART,
        &cart,
        backend
    )));

    let order = Params::from_values([int(4_343), Value::Varchar("c00000001".into()), now]);
    spend(db, &mut session, tpcw::INSERT_ORDER, &order, backend).unwrap();
    assert!(duplicate(spend(
        db,
        &mut session,
        tpcw::INSERT_ORDER,
        &order,
        backend
    )));

    // lines up to the cardinality limit, then one more: counted, refused
    // and undone — the most a line insert can cost
    for line in 0..4 {
        let cart_line = Params::from_values([int(4_242), int(line), int(1)]);
        let order_line = Params::from_values([int(4_343), int(line), int(line)]);
        for (sql, params) in [
            (tpcw::INSERT_CART_LINE, &cart_line),
            (tpcw::INSERT_ORDER_LINE, &order_line),
        ] {
            let result = spend(db, &mut session, sql, params, backend);
            if line < 3 {
                result.unwrap();
            } else {
                assert!(
                    matches!(
                        result,
                        Err(DbError::Write(WriteError::CardinalityExceeded {
                            limit: 3,
                            ..
                        }))
                    ),
                    "{backend}: {result:?}"
                );
            }
        }
    }

    // not a Buy Request shape, but the one whose bound depends on the text:
    // `item` carries the title-search token index, and a title made of
    // one-letter words has as many entries as its VARCHAR(60) can hold
    let title = "a b c d e f g h i j k l m n o p q r s t u v w x y z 0 1 2 3";
    let item = Params::from_values([int(77_777), Value::Varchar(title.into())]);
    let sql = "INSERT INTO item (i_id, i_title) VALUES (<id>, <title>)";
    let before = session.stats.logical_requests;
    spend(db, &mut session, sql, &item, backend).unwrap();
    assert!(
        session.stats.logical_requests - before > 30,
        "{backend}: one index entry per token, and the record"
    );
    assert!(duplicate(spend(db, &mut session, sql, &item, backend)));
    assert_eq!(
        db.write_plan_stats().cached,
        tpcw::BUY_REQUEST_INSERTS.len() as u64 + 1
    );
}

fn updates_and_deletes_stay_within_bound<S: KvStore>(store: S, backend: &str) {
    let db = Database::new(Arc::new(Schedule::new(store)));
    for ddl in [
        "CREATE TABLE notes (id INT NOT NULL, owner VARCHAR(8) NOT NULL, tag VARCHAR(8), \
         body VARCHAR(40), seen INT, PRIMARY KEY (id), CARDINALITY LIMIT 2 (owner))",
        "CREATE INDEX notes_by_tag ON notes (tag)",
        "CREATE INDEX notes_by_body ON notes (TOKEN(body))",
    ] {
        db.execute_ddl(ddl).unwrap();
    }
    let row = |body: &str| {
        let text = |s: &str| Value::Varchar(s.into());
        [
            Value::Int(1),
            text("amy"),
            text("red"),
            text(body),
            Value::Int(0),
        ]
    };
    let insert = "INSERT INTO notes VALUES (<id>, <owner>, <tag>, <body>, <seen>)";
    let mut session = Session::new();
    spend(
        &db,
        &mut session,
        insert,
        &Params::from_values(row("hello world")),
        backend,
    )
    .unwrap();

    let set_body = "UPDATE notes SET body = <body> WHERE id = <id>";
    let body =
        |id: i32, text: &str| Params::from_values([Value::Varchar(text.into()), Value::Int(id)]);
    // a token set that partly changes, then nothing indexed changing
    spend(
        &db,
        &mut session,
        set_body,
        &body(1, "hello there"),
        backend,
    )
    .unwrap();
    let set_seen = "UPDATE notes SET seen = <seen> WHERE id = <id>";
    let seen = Params::from_values([Value::Int(7), Value::Int(1)]);
    spend(&db, &mut session, set_seen, &seen, backend).unwrap();

    // a racing write lands between the read and the swap: the swap fails
    // once, and the retry puts and drops entries again. The schedule starts
    // the update, lets its read through, then starts the racing put and
    // lets it through.
    let rec = db.store().namespace("t/notes");
    let key = piql::core::codec::key::encode_key_asc(&[Value::Int(1)]).unwrap();
    let raced = encode_tuple(&Tuple::new(row("good world").to_vec()));
    let put = KvRequest::Put {
        ns: rec,
        key,
        value: raced,
    };
    let update = body(1, "so long");
    let racers: Vec<Participant<'_, Result<(), DbError>>> = vec![
        Box::new(|| spend(&db, &mut session, set_body, &update, backend)),
        Box::new(|| {
            db.store().execute_one(&mut Session::new(), put);
            Ok(())
        }),
    ];
    db.cluster().take();
    let (ended, _) = testkit::run(racers, &[0, 0, 1, 1], None);
    assert!(
        matches!(ended[..], [Some(Ok(())), Some(Ok(()))]),
        "{backend}"
    );
    let swaps = db.cluster().take().into_iter().flat_map(|(_, round)| round);
    let swaps = swaps.filter(|r| matches!(r, KvRequest::TestAndSet { .. }));
    assert_eq!(swaps.count(), 2, "{backend}: the first swap lost the race");

    let missing = spend(&db, &mut session, set_body, &body(9, "x"), backend);
    assert!(
        matches!(missing, Err(DbError::Write(WriteError::NotFound { .. }))),
        "{backend}: {missing:?}"
    );
    let delete = "DELETE FROM notes WHERE id = <id>";
    for _existed_then_missing in 0..2 {
        spend(
            &db,
            &mut session,
            delete,
            &Params::from_values([Value::Int(1)]),
            backend,
        )
        .unwrap();
    }
}

#[test]
fn updates_and_deletes_stay_within_their_static_write_bound() {
    updates_and_deletes_stay_within_bound(SimCluster::new(ClusterConfig::instant(3)), "sim");
    updates_and_deletes_stay_within_bound(LiveCluster::new(LiveConfig::default()), "live");
}

#[test]
fn workload_inserts_stay_within_their_static_write_bound() {
    let sim = || Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(3))));
    let live = || Database::new(Arc::new(LiveCluster::new(LiveConfig::default())));
    scadr_inserts_stay_within_bound(&sim(), "sim");
    scadr_inserts_stay_within_bound(&live(), "live");
    tpcw_inserts_stay_within_bound(&sim(), "sim");
    tpcw_inserts_stay_within_bound(&live(), "live");
}
