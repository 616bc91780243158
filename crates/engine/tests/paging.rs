//! Pins on every read that pages a range: what the engine asks of its
//! store — requests, rounds and entries — and what comes back, for the Lazy
//! executor's one-entry pages, the cost-based plans' unbounded scans, the
//! index garbage collector and the index backfill. Each case runs on
//! `SimCluster` and on `LiveCluster` and must cost the same on both.

use piql_core::catalog::{Catalog, Statistics};
use piql_core::opt::Optimizer;
use piql_core::plan::params::Params;
use piql_core::tuple;
use piql_core::value::Value;
use piql_engine::{keys, Database, ExecStrategy};
use piql_kv::{
    ClusterConfig, KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, MalformedRound, NsId,
    Probe, ReadAnswer, ReadRound, Session, SimCluster,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A store that counts what the engine asks of the one it wraps: rounds,
/// requests, the entries its range reads find (as a session counts them:
/// a get's value is no entry), and the untimed bulk puts.
struct Counted {
    inner: Box<dyn KvStore>,
    rounds: AtomicU64,
    requests: AtomicU64,
    entries: AtomicU64,
    bulk_puts: AtomicU64,
}

/// `[rounds, requests, entries, bulk puts]` since the store was made.
type Tally = [u64; 4];

impl Counted {
    fn new(inner: impl KvStore + 'static) -> Self {
        Counted {
            inner: Box::new(inner),
            rounds: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            bulk_puts: AtomicU64::new(0),
        }
    }

    fn tally(&self) -> Tally {
        [&self.rounds, &self.requests, &self.entries, &self.bulk_puts]
            .map(|counter| counter.load(Ordering::Relaxed))
    }

    fn book(&self, requests: usize, responses: &[KvResponse]) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(requests as u64, Ordering::Relaxed);
        let entries: usize = (responses.iter())
            .map(|response| match response {
                KvResponse::Entries(found) => found.len(),
                _ => 0,
            })
            .sum();
        self.entries.fetch_add(entries as u64, Ordering::Relaxed);
    }
}

impl KvStore for Counted {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }
    fn execute_round(&self, session: &mut Session, round: Vec<KvRequest>) -> Vec<KvResponse> {
        let requests = round.len();
        let responses = self.inner.execute_round(session, round);
        self.book(requests, &responses);
        responses
    }
    fn execute_one(&self, session: &mut Session, req: KvRequest) -> KvResponse {
        let response = self.inner.execute_one(session, req);
        self.book(1, std::slice::from_ref(&response));
        response
    }
    fn read_round(
        &self,
        session: &mut Session,
        round: &ReadRound,
        answer: &mut ReadAnswer,
    ) -> Result<(), MalformedRound> {
        self.inner.read_round(session, round, answer)?;
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.requests
            .fetch_add(round.len() as u64, Ordering::Relaxed);
        if let Some(Probe::Range { .. }) = round.probes().next() {
            (self.entries).fetch_add(answer.entries().len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.bulk_puts.fetch_add(1, Ordering::Relaxed);
        self.inner.bulk_put(ns, key, value)
    }
    fn rebalance(&self) {
        self.inner.rebalance()
    }
    fn sync_session(&self, session: &mut Session) {
        self.inner.sync_session(session)
    }
}

/// The two backends every pin runs on, each behind a counter.
fn backends() -> [(&'static str, Arc<Counted>); 2] {
    let live = LiveCluster::new(LiveConfig {
        shards_per_namespace: 4,
        ..LiveConfig::default()
    });
    [
        (
            "sim",
            Arc::new(Counted::new(SimCluster::new(ClusterConfig::instant(3)))),
        ),
        ("live", Arc::new(Counted::new(live))),
    ]
}

const USERS: &str = "CREATE TABLE users (username VARCHAR(32) NOT NULL, \
     home_town VARCHAR(64), PRIMARY KEY (username))";
const SUBSCRIPTIONS: &str = "CREATE TABLE subscriptions (owner VARCHAR(32) NOT NULL, \
     target VARCHAR(32) NOT NULL, approved BOOL, PRIMARY KEY (owner, target), \
     FOREIGN KEY (target) REFERENCES users, FOREIGN KEY (owner) REFERENCES users, \
     CARDINALITY LIMIT 10 (owner))";
const THOUGHTS: &str = "CREATE TABLE thoughts (owner VARCHAR(32) NOT NULL, \
     timestamp TIMESTAMP NOT NULL, text VARCHAR(140), PRIMARY KEY (owner, timestamp), \
     FOREIGN KEY (owner) REFERENCES users)";

fn uname(i: usize) -> String {
    format!("user{i:04}")
}

/// Eight users; user `i` follows the next four, every other subscription
/// approved, and posts `posts(i)` thoughts.
fn scadr(store: Arc<Counted>, posts: impl Fn(usize) -> usize) -> Database<Counted> {
    let db = Database::new(store);
    for ddl in [USERS, SUBSCRIPTIONS, THOUGHTS] {
        db.execute_ddl(ddl).unwrap();
    }
    let users = 8;
    db.bulk_load(
        "users",
        (0..users).map(|i| tuple![uname(i).as_str(), "town"]),
    )
    .unwrap();
    let follows = (0..users).flat_map(|i| {
        (1..=4).map(move |d| {
            tuple![
                uname(i).as_str(),
                uname((i + d) % users).as_str(),
                d % 2 == 1
            ]
        })
    });
    db.bulk_load("subscriptions", follows).unwrap();
    let thoughts = (0..users).flat_map(|i| {
        (0..posts(i)).map(move |p| {
            let ts = Value::Timestamp(1_000 + (p * 3 + i) as i64);
            tuple![
                uname(i).as_str(),
                ts,
                format!("thought {p} of {i}").as_str()
            ]
        })
    });
    db.bulk_load("thoughts", thoughts).unwrap();
    db.cluster().rebalance();
    db
}

/// Run `sql` as `strategy` with `user`'s name as its one parameter:
/// `[rounds, requests, entries]` as the session booked them, the same as
/// the store was asked, and the rows.
fn run(
    db: &Database<Counted>,
    sql: &str,
    optimizer: &Optimizer,
    strategy: ExecStrategy,
    user: usize,
) -> ([u64; 3], usize) {
    let prepared = db.prepare_with(sql, optimizer).unwrap();
    let params = Params::from_values([Value::Varchar(uname(user))]);
    let before = db.cluster().tally();
    let mut session = Session::new();
    let rows = db
        .execute_with(&mut session, &prepared, &params, strategy, None)
        .unwrap()
        .rows;
    let asked = db.cluster().tally();
    let s = session.stats;
    let booked = [s.rounds, s.logical_requests, s.entries];
    let counted = [0, 1, 2].map(|i| asked[i] - before[i]);
    assert_eq!(booked, counted, "{sql}: the session books what was asked");
    let reference = db.reference_query(sql, &params).unwrap();
    assert_eq!(rows.to_tuples(), reference, "{sql} as {strategy:?}");
    (booked, rows.len())
}

#[test]
fn lazy_bounded_scans_page_one_entry_at_a_time() {
    let newest = "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 5";
    let oldest = "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp LIMIT 5";
    // user 1 posts 12 thoughts, more than the limit; user 2 posts 3
    let cases = [
        (newest, 1, ([5, 5, 5], 5)),
        (oldest, 1, ([5, 5, 5], 5)),
        (newest, 2, ([4, 4, 3], 3)),
        (oldest, 2, ([4, 4, 3], 3)),
    ];
    for (backend, store) in backends() {
        let db = scadr(store, |i| [0, 12, 3][i % 3]);
        let optimizer = Optimizer::scale_independent();
        for (sql, user, expected) in cases {
            let got = run(&db, sql, &optimizer, ExecStrategy::Lazy, user);
            assert_eq!(got, expected, "{backend}: {sql} for user {user}");
        }
    }
}

#[test]
fn lazy_sorted_join_probes_page_one_entry_at_a_time() {
    let stream = "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
        WHERE thoughts.owner = s.target AND s.owner = <u> AND s.approved = true \
        ORDER BY thoughts.timestamp DESC LIMIT 10";
    // users 0 and 3 each follow four users, two approved, with 12 and 0
    // thoughts: the four subscriptions and an empty page, ten thoughts of
    // one and an empty page of the other
    let cases = [(0, ([16, 16, 14], 10)), (3, ([16, 16, 14], 10))];
    for (backend, store) in backends() {
        let db = scadr(store, |i| [0, 12, 3][i % 3]);
        let optimizer = Optimizer::scale_independent();
        for (user, expected) in cases {
            let got = run(&db, stream, &optimizer, ExecStrategy::Lazy, user);
            assert_eq!(got, expected, "{backend}: user {user}");
        }
    }
}

#[test]
fn unbounded_scans_page_past_every_page_boundary() {
    let forward = "SELECT * FROM thoughts WHERE owner = <u>";
    let reverse = "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC";
    // users 1, 2 and 3 post 250, 200 and 7 thoughts: pages of 100 end
    // short, end on an empty page, and end on the first
    let mut cases = Vec::new();
    for sql in [forward, reverse] {
        for strategy in [ExecStrategy::Simple, ExecStrategy::Parallel] {
            cases.push((sql, strategy, 1, ([3, 3, 250], 250)));
            cases.push((sql, strategy, 2, ([3, 3, 200], 200)));
            cases.push((sql, strategy, 3, ([1, 1, 7], 7)));
        }
        cases.push((sql, ExecStrategy::Lazy, 3, ([8, 8, 7], 7)));
    }
    for (backend, store) in backends() {
        let db = scadr(store, |i| [0, 250, 200, 7][i % 4]);
        let optimizer = Optimizer::cost_based(Statistics::new());
        for &(sql, strategy, user, expected) in &cases {
            let got = run(&db, sql, &optimizer, strategy, user);
            assert_eq!(
                got, expected,
                "{backend} {strategy:?}: {sql} for user {user}"
            );
        }
    }
}

#[test]
fn gc_pages_an_index_past_its_page_size() {
    for (backend, store) in backends() {
        let db = Database::new(store);
        db.execute_ddl(
            "CREATE TABLE notes (id INT NOT NULL, tag VARCHAR(16) NOT NULL, \
             PRIMARY KEY (id))",
        )
        .unwrap();
        db.execute_ddl("CREATE INDEX notes_by_tag ON notes (tag)")
            .unwrap();
        db.bulk_load(
            "notes",
            (0..1_100).map(|i| tuple![i, format!("tag{:03}", i % 97).as_str()]),
        )
        .unwrap();
        // 40 entries of rows that were never stored, and 25 of rows whose
        // tag has moved on, spread over every page: what writers that
        // crashed mid-way leave
        let catalog = db.catalog();
        let table = catalog.table("notes").unwrap().clone();
        let index = catalog.index("notes_by_tag").unwrap().clone();
        let parts = keys::index_key_parts(&table, &index).unwrap();
        let store = db.cluster();
        let (primary, by_tag) = (
            store.namespace(&Catalog::table_namespace(&table)),
            store.namespace(&Catalog::index_namespace(&index)),
        );
        for id in 0..40 {
            let ghost = tuple![5_000 + id, "ghost"];
            keys::entry_keys(&parts, &ghost, |key| {
                store.bulk_put(by_tag, key, Vec::new())
            })
            .unwrap();
        }
        for id in (0..25).map(|k| k * 44) {
            let moved = tuple![id, "moved"];
            let pk = keys::primary_key_from(&table, &[0], &moved).unwrap();
            let record = keys::encode_row_from(&moved, 2).unwrap();
            store.bulk_put(primary, pk, record);
        }
        let before = db.cluster().tally();
        let mut session = Session::new();
        let collected = db.gc_indexes(&mut session, "notes").unwrap();
        let asked = db.cluster().tally();
        let s = session.stats;
        let booked = [s.rounds, s.logical_requests, s.entries];
        assert_eq!(booked, [0, 1, 2].map(|i| asked[i] - before[i]), "{backend}");
        // 1,140 entries: pages of 512, 512 and 116, each followed by a
        // round of gets of the records and a round of deletes
        assert_eq!((booked, collected), ([9, 1_208, 1_140], 65), "{backend}");
        let mut session = Session::new();
        assert_eq!(db.gc_indexes(&mut session, "notes").unwrap(), 0);
        let s = session.stats;
        let again = [s.rounds, s.logical_requests, s.entries];
        assert_eq!(again, [6, 1_078, 1_075], "{backend}: idempotent");
    }
}

#[test]
fn backfill_pages_a_table_past_its_page_size() {
    // 2,500 rows end on a short page, 2,048 on an empty one
    for (rows, expected) in [(2_500, [3, 3, 2_500, 2_500]), (2_048, [3, 3, 2_048, 2_048])] {
        for (backend, store) in backends() {
            let db = Database::new(store);
            db.execute_ddl(
                "CREATE TABLE notes (id INT NOT NULL, tag VARCHAR(16) NOT NULL, \
                 PRIMARY KEY (id))",
            )
            .unwrap();
            db.bulk_load(
                "notes",
                (0..rows).map(|i| tuple![i, format!("tag{:03}", i % 97).as_str()]),
            )
            .unwrap();
            let before = db.cluster().tally();
            db.execute_ddl("CREATE INDEX notes_by_tag ON notes (tag)")
                .unwrap();
            let asked = db.cluster().tally();
            let got = [0, 1, 2, 3].map(|i| asked[i] - before[i]);
            assert_eq!(got, expected, "{backend}: {rows} rows");
        }
    }
}
