//! Every outcome of every write, as the exact requests it sends: each round
//! in order, each request in its place. The table carries a plain index, a
//! `TOKEN` index and a `CARDINALITY LIMIT` (whose enforcement index is a
//! second plain one), so each §7.2 step shows up: entries first, then the
//! record's test-and-set, then the counts and the stale drops or undos.
//!
//! Writes run as schedules of `piql_kv::testkit::Schedule`, a store double
//! that parks each writer's thread before each of its rounds until the
//! schedule picks it, on the simulated cluster and the live one. Each
//! single-writer outcome is a schedule of one, stopped before each of its
//! rounds, and the store it leaves is checked as §7.2 promises readers and
//! later writers: (a) every record is found through every index entry its
//! row derives, (b) a `LIMIT k` read of an index key returns min(k, live
//! matches), (c) every insert the live records allow under the limit is
//! accepted and (d) no owner holds more live rows than its limit. Checks
//! (c) and (d) fail today at known stops, pinned by name. On a live one
//! logging to a write-ahead log, each stop is also crashed: (e) the store
//! recovered from the log equals the stopped one, and checks (a)–(d) find
//! in it what they find in the live store. Last, every schedule of each
//! named pair of actors runs, enumerated depth first by replay, and is
//! checked by (a)–(d) and by (s): the records equal those of some serial
//! order of the two writes, and each write's answer agrees with that
//! order. The checks still failing for a pair are pinned by name.

use piql_core::catalog::Catalog;
use piql_core::codec::key::{decode_key, encode_key_asc, prefix_upper_bound, Dir};
use piql_core::codec::row::{decode_tuple, encode_tuple};
use piql_core::plan::params::Params;
use piql_core::text;
use piql_core::tuple::Tuple;
use piql_core::value::{DataType, Value};
use piql_durability::{Durability, DurabilityConfig};
use piql_engine::{Database, DbError, WriteError};
use piql_kv::testkit::{self, explore, swap, Participant, Schedule, Step};
use piql_kv::{
    ClusterConfig, KvEntry, KvRequest, KvStore, LiveCluster, LiveConfig, NsId, RequestRound,
    Session, SimCluster,
};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::slice;
use std::sync::Arc;

const DDL: &[&str] = &[
    "CREATE TABLE notes (id INT NOT NULL, owner VARCHAR(8) NOT NULL, tag VARCHAR(8), \
     body VARCHAR(40), seen INT, PRIMARY KEY (id), CARDINALITY LIMIT 2 (owner))",
    "CREATE INDEX notes_by_tag ON notes (tag)",
    "CREATE INDEX notes_by_body ON notes (TOKEN(body))",
];

const INSERT: &str = "INSERT INTO notes VALUES (<id>, <owner>, <tag>, <body>, <seen>)";
const SET_BODY: &str = "UPDATE notes SET body = <body> WHERE id = <id>";
const SET_SEEN: &str = "UPDATE notes SET seen = <seen> WHERE id = <id>";
const DELETE: &str = "DELETE FROM notes WHERE id = <id>";

/// One row of `notes`.
#[derive(Clone, Copy)]
struct Note {
    id: i32,
    owner: &'static str,
    tag: &'static str,
    body: &'static str,
    seen: i32,
}

const fn note(id: i32, owner: &'static str, tag: &'static str, body: &'static str) -> Note {
    Note {
        id,
        owner,
        tag,
        body,
        seen: 0,
    }
}

impl Note {
    fn values(self) -> [Value; 5] {
        [
            Value::Int(self.id),
            Value::Varchar(self.owner.into()),
            Value::Varchar(self.tag.into()),
            Value::Varchar(self.body.into()),
            Value::Int(self.seen),
        ]
    }

    fn params(self) -> Params {
        Params::from_values(self.values())
    }

    fn record(self) -> Vec<u8> {
        encode_tuple(&Tuple::new(self.values().to_vec()))
    }
}

/// A key of ascending components: a string, then an id.
fn key(text: &str, id: i32) -> Vec<u8> {
    encode_key_asc(&[Value::Varchar(text.into()), Value::Int(id)]).unwrap()
}

fn pk(id: i32) -> Vec<u8> {
    encode_key_asc(&[Value::Int(id)]).unwrap()
}

fn put(ns: NsId, key: Vec<u8>) -> KvRequest {
    KvRequest::Put {
        ns,
        key,
        value: Vec::new(),
    }
}

fn del(ns: NsId, key: Vec<u8>) -> KvRequest {
    KvRequest::Delete { ns, key }
}

/// The namespaces of `notes`: its records and, in the order the write path
/// keeps them, its indexes, `notes_by_seen` once it is created.
struct Ns {
    rec: NsId,
    owner: NsId,
    tag: NsId,
    body: NsId,
    seen: Option<NsId>,
}

impl Ns {
    fn get(&self, id: i32) -> KvRequest {
        KvRequest::Get {
            ns: self.rec,
            key: pk(id),
        }
    }

    fn tas(&self, id: i32, expect: Option<Note>, value: Note) -> KvRequest {
        let expect = expect.map(Note::record);
        swap(self.rec, &pk(id), &value.record(), expect.as_deref())
    }

    fn count(&self, owner: &str) -> KvRequest {
        let start = encode_key_asc(&[Value::Varchar(owner.into())]).unwrap();
        KvRequest::CountRange {
            ns: self.owner,
            end: prefix_upper_bound(&start),
            start,
        }
    }

    fn scan(&self, ns: NsId) -> KvRequest {
        KvRequest::GetRange {
            ns,
            start: Vec::new(),
            end: None,
            limit: Some(512),
            reverse: false,
        }
    }
}

/// `notes` created over `store`, empty: what a boot runs.
fn bootstrap<S: KvStore>(store: S) -> Database<S> {
    let db = Database::new(Arc::new(store));
    for ddl in DDL {
        db.execute_ddl(ddl).unwrap();
    }
    db
}

/// A fresh `notes` over `store`, holding `rows`, with a `tag` entry that no
/// record derives planted for a sweep in `writes`, and the log emptied.
fn notes<S: KvStore>(store: S, rows: &[Note], writes: &[Write]) -> (Database<Schedule<S>>, Ns) {
    let db = bootstrap(Schedule::new(store));
    let mut session = Session::new();
    for row in rows {
        db.execute_dml(&mut session, INSERT, &row.params()).unwrap();
    }
    let ns = namespaces(&db);
    if writes.iter().any(|write| matches!(write, Write::Sweep)) {
        // not a round, and committed before it returns
        db.cluster().bulk_put(ns.tag, key("blue", 1), Vec::new());
    }
    db.cluster().take();
    (db, ns)
}

/// Where `notes`' records and entries live in `db`.
fn namespaces<S: KvStore>(db: &Database<S>) -> Ns {
    let catalog = db.catalog();
    let table = catalog.table("notes").unwrap();
    let indexes = catalog.indexes_for_table(table.id);
    let names: Vec<&str> = indexes.iter().map(|i| i.name.as_str()).collect();
    assert_eq!(names[1..3], ["notes_by_tag", "notes_by_body"]);
    let ns = |i: usize| db.store().namespace(&Catalog::index_namespace(&indexes[i]));
    Ns {
        rec: db.store().namespace(&Catalog::table_namespace(table)),
        owner: ns(0),
        tag: ns(1),
        body: ns(2),
        seen: (names.get(3) == Some(&"notes_by_seen")).then(|| ns(3)),
    }
}

fn body(id: i32, body: &str) -> Params {
    Params::from_values([Value::Varchar(body.into()), Value::Int(id)])
}

fn seen(id: i32, seen: i32) -> Params {
    Params::from_values([Value::Int(seen), Value::Int(id)])
}

fn id(id: i32) -> Params {
    Params::from_values([Value::Int(id)])
}

const AMY: Note = note(1, "amy", "red", "hello world");
const AMY_TOO: Note = note(2, "amy", "red", "x");
const TWIN: Note = note(1, "amy", "blue", "hello there");
const THIRD: Note = note(3, "amy", "red", "so long");
const TOKEN_SET: Note = Note {
    body: "hello there",
    ..AMY
};
const SEEN: Note = Note { seen: 7, ..AMY };

/// A write the outcomes and pairs below send.
enum Write {
    /// A `dml` statement and its parameters.
    Dml(&'static str, Params),
    /// `gc_indexes` over `notes`, after a `tag` entry that no record
    /// derives is planted.
    Sweep,
    /// A `CREATE INDEX` on `notes`.
    Ddl(&'static str),
}

/// What a write answers: a statement's `()` as 0, a sweep's collected
/// entries.
type Answer = Result<u64, DbError>;

impl Write {
    /// Send this write to `db` on a session of its own.
    fn send<S: KvStore>(&self, db: &Database<S>) -> Answer {
        let mut session = Session::new();
        match self {
            Write::Dml(sql, params) => db.execute_dml(&mut session, sql, params).map(|()| 0),
            Write::Sweep => db.gc_indexes(&mut session, "notes"),
            Write::Ddl(sql) => db.execute_ddl(sql).map(|()| 0),
        }
    }
}

/// One outcome of one write by a single writer: the rows `notes` starts
/// with, the write, the answer it must give and the rounds it sends. Both
/// tests below read this table, so an outcome added here is pinned round
/// by round and stopped before each of its rounds.
struct Outcome {
    name: &'static str,
    rows: &'static [Note],
    write: Write,
    answer: fn(&Answer) -> bool,
    rounds: fn(&Ns) -> Vec<RequestRound>,
}

fn outcomes() -> Vec<Outcome> {
    vec![
        Outcome {
            // every entry, the record expecting absence, the count
            name: "insert",
            rows: &[],
            write: Write::Dml(INSERT, AMY.params()),
            answer: |a| matches!(a, Ok(0)),
            rounds: |ns| {
                vec![
                    vec![
                        put(ns.owner, key("amy", 1)),
                        put(ns.tag, key("red", 1)),
                        put(ns.body, key("hello", 1)),
                        put(ns.body, key("world", 1)),
                    ],
                    vec![ns.tas(1, None, AMY)],
                    vec![ns.count("amy")],
                ]
            },
        },
        Outcome {
            // the undo drops only what the stored row does not derive
            name: "duplicate",
            rows: &[AMY],
            write: Write::Dml(INSERT, TWIN.params()),
            answer: |a| matches!(a, Err(DbError::Write(WriteError::DuplicateKey { .. }))),
            rounds: |ns| {
                vec![
                    vec![
                        put(ns.owner, key("amy", 1)),
                        put(ns.tag, key("blue", 1)),
                        put(ns.body, key("hello", 1)),
                        put(ns.body, key("there", 1)),
                    ],
                    vec![ns.tas(1, None, TWIN)],
                    vec![del(ns.tag, key("blue", 1)), del(ns.body, key("there", 1))],
                ]
            },
        },
        Outcome {
            // counted, then undone as a DELETE ends: the record, then
            // every entry
            name: "over the limit",
            rows: &[AMY, AMY_TOO],
            write: Write::Dml(INSERT, THIRD.params()),
            answer: |a| {
                matches!(
                    a,
                    Err(DbError::Write(WriteError::CardinalityExceeded {
                        limit: 2,
                        ..
                    }))
                )
            },
            rounds: |ns| {
                let entries = [
                    (ns.owner, key("amy", 3)),
                    (ns.tag, key("red", 3)),
                    (ns.body, key("long", 3)),
                    (ns.body, key("so", 3)),
                ];
                vec![
                    entries.iter().map(|(n, k)| put(*n, k.clone())).collect(),
                    vec![ns.tas(3, None, THIRD)],
                    vec![ns.count("amy")],
                    vec![del(ns.rec, pk(3))],
                    entries.iter().map(|(n, k)| del(*n, k.clone())).collect(),
                ]
            },
        },
        Outcome {
            // a token set that partly changes: only the new token is put,
            // and only the old one dropped, after the swap
            name: "token update",
            rows: &[AMY],
            write: Write::Dml(SET_BODY, body(1, "hello there")),
            answer: |a| matches!(a, Ok(0)),
            rounds: |ns| {
                vec![
                    vec![ns.get(1)],
                    vec![put(ns.body, key("there", 1))],
                    vec![ns.tas(1, Some(AMY), TOKEN_SET)],
                    vec![del(ns.body, key("world", 1))],
                ]
            },
        },
        Outcome {
            // nothing indexed changes: the read and the swap alone
            name: "unindexed update",
            rows: &[AMY],
            write: Write::Dml(SET_SEEN, seen(1, 7)),
            answer: |a| matches!(a, Ok(0)),
            rounds: |ns| vec![vec![ns.get(1)], vec![ns.tas(1, Some(AMY), SEEN)]],
        },
        Outcome {
            // no such row: the read alone
            name: "missing update",
            rows: &[AMY],
            write: Write::Dml(SET_BODY, body(9, "hello")),
            answer: |a| matches!(a, Err(DbError::Write(WriteError::NotFound { .. }))),
            rounds: |ns| vec![vec![ns.get(9)]],
        },
        Outcome {
            // the record first, then every entry it derived
            name: "delete",
            rows: &[AMY],
            write: Write::Dml(DELETE, id(1)),
            answer: |a| matches!(a, Ok(0)),
            rounds: |ns| {
                vec![
                    vec![ns.get(1)],
                    vec![del(ns.rec, pk(1))],
                    vec![
                        del(ns.owner, key("amy", 1)),
                        del(ns.tag, key("red", 1)),
                        del(ns.body, key("hello", 1)),
                        del(ns.body, key("world", 1)),
                    ],
                ]
            },
        },
        Outcome {
            name: "missing delete",
            rows: &[],
            write: Write::Dml(DELETE, id(1)),
            answer: |a| matches!(a, Ok(0)),
            rounds: |ns| vec![vec![ns.get(1)]],
        },
        Outcome {
            // each index is scanned, each entry's record read in one
            // round, and the dangling one dropped
            name: "sweep",
            rows: &[AMY],
            write: Write::Sweep,
            answer: |a| matches!(a, Ok(1)),
            rounds: |ns| {
                vec![
                    vec![ns.scan(ns.owner)],
                    vec![ns.get(1)],
                    vec![ns.scan(ns.tag)],
                    vec![ns.get(1), ns.get(1)],
                    vec![del(ns.tag, key("blue", 1))],
                    vec![ns.scan(ns.body)],
                    vec![ns.get(1), ns.get(1)],
                ]
            },
        },
    ]
}

/// Run `writes` over `db` as one schedule: the one `prefix` starts, stopped
/// after `limit` steps if given. Hands back each write's answer (`None`
/// when it was stopped) and the steps taken.
fn run<S: KvStore>(
    db: &Database<Schedule<S>>,
    writes: &[Write],
    prefix: &[usize],
    limit: Option<usize>,
) -> (Vec<Option<Answer>>, Vec<Step>) {
    let writers = writes
        .iter()
        .map(|write| Box::new(|| write.send(db)) as Participant<'_, _>);
    testkit::run(writers.collect(), prefix, limit)
}

/// Set up `outcome` over `store` and send its write as a schedule of one,
/// stopped before round `k + 1` when `stop` is `Some(k)` (its first step
/// starts it). Hands back the database, its namespaces, the write's answer
/// (`None` when it was stopped) and the rounds it sent.
fn send<S: KvStore>(
    store: S,
    outcome: &Outcome,
    stop: Option<usize>,
) -> (Database<Schedule<S>>, Ns, Option<Answer>, Vec<RequestRound>) {
    let writes = slice::from_ref(&outcome.write);
    let (db, ns) = notes(store, outcome.rows, writes);
    let (mut answers, _) = run(&db, writes, &[], stop.map(|k| k + 1));
    let rounds = db.cluster().take().into_iter().map(|(_, round)| round);
    (db, ns, answers.pop().unwrap(), rounds.collect())
}

fn in_order<S: KvStore>(store: impl Fn() -> S, backend: &str) {
    for outcome in outcomes() {
        let (_db, ns, answer, rounds) = send(store(), &outcome, None);
        let answer = answer.expect("no stop was set");
        assert!(
            (outcome.answer)(&answer),
            "{backend}: {}: {answer:?}",
            outcome.name
        );
        assert_eq!(rounds, (outcome.rounds)(&ns), "{backend}: {}", outcome.name);
    }
}

#[test]
fn every_outcome_sends_its_requests_in_order() {
    in_order(sim, "sim");
    in_order(live, "live");
}

/// The records of `notes` that miss an index entry their row derives, as
/// `id: key` lines, read from the store under `db`'s double.
fn unindexed<S: KvStore>(db: &Database<Schedule<S>>, ns: &Ns) -> Vec<String> {
    let store = &db.cluster().inner;
    let mut session = Session::new();
    let mut missing = Vec::new();
    for (_, record) in records(db, ns) {
        let row = decode_tuple(&record).unwrap();
        let [Value::Int(id), Value::Varchar(owner), tag, Value::Varchar(body), seen] = row.values()
        else {
            panic!("not a note: {row:?}");
        };
        let mut derived = vec![(ns.owner, key(owner, *id))];
        if let Value::Varchar(tag) = tag {
            derived.push((ns.tag, key(tag, *id)));
        }
        let _ = text::each_token(body, &mut String::new(), |token| {
            derived.push((ns.body, key(token, *id)));
            ControlFlow::<()>::Continue(())
        });
        if let Some(index) = ns.seen {
            derived.push((
                index,
                encode_key_asc(&[seen.clone(), Value::Int(*id)]).unwrap(),
            ));
        }
        for (index, key) in derived {
            let get = KvRequest::Get { ns: index, key };
            if store
                .execute_one(&mut session, get.clone())
                .into_value()
                .unwrap()
                .is_none()
            {
                missing.push(format!("{id}: {get:?}"));
            }
        }
    }
    missing
}

/// Every record of `notes`, read from the store under `db`'s double.
fn records<S: KvStore>(db: &Database<Schedule<S>>, ns: &Ns) -> Vec<KvEntry> {
    (db.cluster().inner)
        .execute_one(&mut Session::new(), ns.scan(ns.rec))
        .into_entries()
        .unwrap()
}

/// The distinct first components (all strings) of the entries in index
/// `index`.
fn index_keys<S: KvStore>(db: &Database<Schedule<S>>, ns: &Ns, index: NsId) -> BTreeSet<String> {
    let entries = (db.cluster().inner)
        .execute_one(&mut Session::new(), ns.scan(index))
        .into_entries()
        .unwrap();
    let first = |key: &[u8]| match decode_key(key, &[DataType::Varchar(40)], &[Dir::Asc]) {
        Ok((values, _)) => match &values[..] {
            [Value::Varchar(s)] => s.clone(),
            other => panic!("not a string component: {other:?}"),
        },
        Err(e) => panic!("undecodable index key: {e:?}"),
    };
    entries.iter().map(|(key, _)| first(key)).collect()
}

/// The rows of `notes` that match `predicate` for `value`, as the
/// reference executor reads the records.
fn live_matches<S: KvStore>(db: &Database<Schedule<S>>, predicate: &str, value: &str) -> usize {
    let params = Params::from_values([Value::Varchar(value.into())]);
    let sql = format!("SELECT * FROM notes WHERE {predicate}");
    db.reference_query(&sql, &params).unwrap().len()
}

/// `notes`' `CARDINALITY LIMIT` on `owner`.
const OWNER_LIMIT: usize = 2;

/// Checks (b)–(d) on the store a stopped write left: each failure as its
/// check's name and what it saw. Check (c) writes, so it runs last.
fn reader_and_writer_checks<S: KvStore>(
    db: &Database<Schedule<S>>,
    ns: &Ns,
) -> Vec<(char, String)> {
    let mut failed = Vec::new();
    let mut session = Session::new();
    let indexes = [
        (ns.owner, "owner = <v>"),
        (ns.tag, "tag = <v>"),
        (ns.body, "body LIKE <v>"),
    ];
    for (index, predicate) in indexes {
        for value in index_keys(db, ns, index) {
            let live = live_matches(db, predicate, &value);
            for k in 1..=2 {
                let sql = format!("SELECT * FROM notes WHERE {predicate} LIMIT {k}");
                let params = Params::from_values([Value::Varchar(value.clone())]);
                let got = db.query(&mut session, &sql, &params).unwrap().rows.len();
                if got != k.min(live) {
                    let saw = format!("{predicate} {value:?} LIMIT {k}: {got} rows, {live} live");
                    failed.push(('b', saw));
                }
            }
        }
    }
    let owners = index_keys(db, ns, ns.owner);
    for owner in &owners {
        let live = live_matches(db, "owner = <v>", owner);
        if live > OWNER_LIMIT {
            failed.push(('d', format!("{owner:?} holds {live} live rows")));
        }
    }
    for (n, owner) in owners.iter().enumerate() {
        for fresh in live_matches(db, "owner = <v>", owner)..OWNER_LIMIT {
            let id = 100 + (OWNER_LIMIT * n + fresh) as i32;
            let row = [
                Value::Int(id),
                Value::Varchar(owner.clone()),
                Value::Varchar("new".into()),
                Value::Varchar("fresh".into()),
                Value::Int(0),
            ];
            let insert = db.execute_dml(&mut session, INSERT, &Params::from_values(row));
            if let Err(e) = insert {
                failed.push((
                    'c',
                    format!("{owner:?} row {} of {OWNER_LIMIT}: {e}", fresh + 1),
                ));
            }
        }
    }
    failed
}

/// Checks (a)–(d) on `db`: each failure as its check's name and what it
/// saw.
fn checks<S: KvStore>(db: &Database<Schedule<S>>, ns: &Ns) -> Vec<(char, String)> {
    let unindexed = unindexed(db, ns).into_iter().map(|line| ('a', line));
    unindexed.chain(reader_and_writer_checks(db, ns)).collect()
}

/// Each of `found` as one row `at: (check)` in `failed`, and what it saw in
/// `seen`.
fn record(
    found: &[(char, String)],
    at: &str,
    failed: &mut BTreeSet<String>,
    seen: &mut Vec<String>,
) {
    for (check, line) in found {
        failed.insert(format!("{at}: ({check})"));
        seen.push(format!("{at}: ({check}) {line}"));
    }
}

/// Every write stopped before each of its rounds, and once after its
/// last, checked as the module doc says. Each failing check is one row,
/// `backend: outcome stopped before round k: (check)`, collected into
/// `failed`; what it saw goes into `seen`.
fn every_prefix<S: KvStore>(
    store: impl Fn() -> S,
    backend: &str,
    failed: &mut BTreeSet<String>,
    seen: &mut Vec<String>,
) {
    for outcome in outcomes() {
        let count = send(store(), &outcome, None).3.len();
        for k in 0..=count {
            let (db, ns, answer, rounds) = send(store(), &outcome, Some(k));
            // the stop landed where it was aimed: before round k + 1
            let at = format!("{backend}: {} stopped before round {}", outcome.name, k + 1);
            assert_eq!(answer.is_none(), k < count, "{at}");
            assert_eq!(rounds.len(), k.min(count), "{at}");
            record(&checks(&db, &ns), &at, failed, seen);
        }
    }
}

/// `failed` is exactly the `known` rows under each of `prefixes`.
fn assert_known(failed: &BTreeSet<String>, seen: &[String], prefixes: &[&str], known: &[&str]) {
    let known: BTreeSet<String> = prefixes
        .iter()
        .flat_map(|prefix| known.iter().map(move |row| format!("{prefix}: {row}")))
        .collect();
    assert!(
        *failed == known,
        "failing now, not known:\n{}\nknown, passing now:\n{}\nwhat each failure saw:\n{}",
        failed
            .difference(&known)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n"),
        known
            .difference(failed)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n"),
        seen.join("\n"),
    );
}

/// The stops where a check fails today, on each backend.
/// - (c): an owner entry the stop left dangling is counted against the
///   limit, so the second of two inserts the one live row allows is
///   refused (a dangling entry never refuses a valid write, once fixed).
/// - (d): the insert over the limit is stored, with its third row live,
///   from its test-and-set until its undo deletes it (a limit that holds
///   at every instant, once fixed).
///
/// (b) fails nowhere: every entry a stop leaves dangling sorts after the
/// live entries of its key, or is under a key with none.
const KNOWN: &[&str] = &[
    "insert stopped before round 2: (c)",
    "delete stopped before round 3: (c)",
    "over the limit stopped before round 3: (d)",
    "over the limit stopped before round 4: (d)",
];

#[test]
fn a_write_stopped_before_any_round_leaves_what_readers_and_writers_expect() {
    let (mut failed, mut seen) = (BTreeSet::new(), Vec::new());
    every_prefix(sim, "sim", &mut failed, &mut seen);
    every_prefix(live, "live", &mut failed, &mut seen);
    assert_known(&failed, &seen, &["sim", "live"], KNOWN);
}

/// Check (e): every single-writer outcome on a live store that logs to a
/// write-ahead log, stopped before each round and once after its last,
/// then crashed. Every round a stop let through was acknowledged, so the
/// store recovered from the log with the same bootstrap holds exactly
/// what the stopped one does, and checks (a)–(d) fail on it where they
/// fail on the live store.
#[test]
fn a_write_stopped_before_any_round_recovers_as_it_stopped() {
    let dir = std::env::temp_dir().join(format!("piql-write-sequence-{}", std::process::id()));
    let config = || DurabilityConfig::new(&dir);
    let (mut failed, mut seen) = (BTreeSet::new(), Vec::new());
    for outcome in outcomes() {
        let count = send(live(), &outcome, None).3.len();
        for k in 0..=count {
            let _ = std::fs::remove_dir_all(&dir);
            let (_, log) = Durability::open(config()).unwrap();
            let logged = live();
            logged.attach_wal(log.clone());
            let (db, ..) = send(logged, &outcome, Some(k));
            log.simulate_crash();
            let stopped = db.cluster().inner.export_namespaces();
            drop((db, log));

            let (recovered, _log) = Durability::open(config()).unwrap();
            let db = bootstrap(Schedule::new(live()));
            recovered.apply_kv(&db.cluster().inner).unwrap();
            let at = format!("{} stopped before round {}", outcome.name, k + 1);
            assert!(
                db.cluster().inner.export_namespaces() == stopped,
                "{at}: the recovered store differs",
            );
            let at = format!("recovered: {at}");
            record(&checks(&db, &namespaces(&db)), &at, &mut failed, &mut seen);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert_known(&failed, &seen, &["recovered"], KNOWN);
}

const SET_TAG: &str = "UPDATE notes SET tag = <tag> WHERE id = <id>";

fn tag(id: i32, tag: &str) -> Params {
    Params::from_values([Value::Varchar(tag.into()), Value::Int(id)])
}

/// Two actors over `notes`: the rows it starts with, and the two writes
/// whose every schedule runs.
struct Pair {
    name: &'static str,
    rows: &'static [Note],
    writes: [Write; 2],
}

fn pairs() -> Vec<Pair> {
    let fifth = note(5, "amy", "red", "hello world");
    vec![
        Pair {
            // R9 (i): red → blue, and back before the first drops `red`
            name: "ABA",
            rows: &[AMY],
            writes: [
                Write::Dml(SET_TAG, tag(1, "blue")),
                Write::Dml(SET_TAG, tag(1, "red")),
            ],
        },
        Pair {
            // R9 (ii): the sweep reads record 5 absent, then its swap lands
            name: "collector",
            rows: &[AMY],
            writes: [Write::Dml(INSERT, fifth.params()), Write::Sweep],
        },
        Pair {
            // R7 (ii): each counts the other's entry
            name: "two at the limit",
            rows: &[AMY],
            writes: [
                Write::Dml(INSERT, AMY_TOO.params()),
                Write::Dml(INSERT, THIRD.params()),
            ],
        },
        Pair {
            name: "update vs delete",
            rows: &[AMY],
            writes: [
                Write::Dml(SET_BODY, body(1, "hello there")),
                Write::Dml(DELETE, id(1)),
            ],
        },
        Pair {
            name: "lost race",
            rows: &[AMY],
            writes: [
                Write::Dml(SET_BODY, body(1, "hello there")),
                Write::Dml(SET_BODY, body(1, "good world")),
            ],
        },
        Pair {
            // N15: the build waits for an INSERT that holds the catalog
            name: "online index",
            rows: &[AMY],
            writes: [
                Write::Dml(INSERT, Note { seen: 9, ..fifth }.params()),
                Write::Ddl(BY_SEEN),
            ],
        },
        Pair {
            name: "online index, update",
            rows: &[AMY],
            writes: [Write::Dml(SET_SEEN, seen(1, 7)), Write::Ddl(BY_SEEN)],
        },
        Pair {
            name: "online index, delete",
            rows: &[AMY],
            writes: [Write::Dml(DELETE, id(1)), Write::Ddl(BY_SEEN)],
        },
    ]
}

/// The index the online-index pairs build while a write runs.
const BY_SEEN: &str = "CREATE INDEX notes_by_seen ON notes (seen)";

/// What a run of a pair left: the records, and each write's answer.
type Ended = (Vec<KvEntry>, Vec<String>);

/// Every schedule of every pair over fresh stores, checked by (a)–(d) and
/// by (s): what the schedule left is what one of the two serial orders,
/// each run on one thread over a fresh store, leaves. Each failing check
/// is one row, `backend: pair: (check)`, in `failed`; what the first
/// schedule to fail it saw goes into `seen`. Prints, per pair, the
/// schedules run, the failing ones and the checks they fail.
fn every_schedule<S: KvStore>(
    store: impl Fn() -> S,
    backend: &str,
    failed: &mut BTreeSet<String>,
    seen: &mut Vec<String>,
) {
    for pair in pairs() {
        let serial: Vec<Ended> = [[0, 1], [1, 0]]
            .iter()
            .map(|order| {
                let (db, ns) = notes(store(), pair.rows, &pair.writes);
                let mut answers = vec![String::new(); 2];
                for &w in order {
                    answers[w] = format!("{:?}", pair.writes[w].send(&db));
                }
                (records(&db, &ns), answers)
            })
            .collect();
        let at = format!("{backend}: {}", pair.name);
        let (mut failing, mut fails) = (0, BTreeSet::new());
        let schedules = explore(|prefix| {
            let (db, ns) = notes(store(), pair.rows, &pair.writes);
            let (answers, steps) = run(&db, &pair.writes, prefix, None);
            let answers = answers.iter().map(|a| format!("{:?}", a.as_ref().unwrap()));
            let ended = (records(&db, &ns), answers.collect());
            let mut found = Vec::new();
            if !serial.contains(&ended) {
                found.push(('s', format!("answered {:?}", ended.1)));
            }
            found.extend(checks(&db, &namespaces(&db)));
            if !found.is_empty() {
                failing += 1;
                // what the first schedule to fail a check saw, and where
                let picks: Vec<usize> = steps.iter().map(|(_, pick)| *pick).collect();
                for (check, line) in found {
                    if fails.insert(check) {
                        let first = (check, format!("{line}, in {picks:?}"));
                        record(&[first], &at, failed, seen);
                    }
                }
            }
            steps
        });
        println!("{at}: {schedules} schedules, {failing} failing, checks {fails:?}");
    }
}

/// The checks still failing for a pair in some schedule, on each backend.
/// - ABA (a): the first UPDATE's stale drop removes the `red` entry the
///   record derives again by then (R9 i).
/// - collector (a), (b), (s): the sweep reads record 5 as absent just
///   before the INSERT's swap lands, and drops the record's owner entry
///   (R9 ii). The owner's `LIMIT 2` read then returns 1 of its 2 live rows,
///   and the sweep answers 2 collected, where run alone it collects 1.
/// - two at the limit (s): each INSERT counts the other's entry, so both
///   are refused where a serial order accepts one (R7 ii).
/// - lost race (a): the first UPDATE's stale drop of `world` lands after
///   the rival's swap to "good world", which derives it again (R9 i).
///
/// Update vs delete and the three online-index pairs fail nothing: the
/// first leaves at worst a dangling entry, and an index build waits for
/// the write, which holds the catalog for read through its last round
/// (N15). Released before the write's rounds, the INSERT and UPDATE pairs
/// fail (a); the DELETE pair passes even then, since a DELETE racing the
/// backfill leaves at worst a dangling entry (N12).
const KNOWN_RACES: &[&str] = &[
    "ABA: (a)",
    "collector: (a)",
    "collector: (b)",
    "collector: (s)",
    "two at the limit: (s)",
    "lost race: (a)",
];

#[test]
fn every_schedule_of_two_actors_leaves_what_readers_expect() {
    let (mut failed, mut seen) = (BTreeSet::new(), Vec::new());
    every_schedule(sim, "sim", &mut failed, &mut seen);
    every_schedule(live, "live", &mut failed, &mut seen);
    assert_known(&failed, &seen, &["sim", "live"], KNOWN_RACES);
}

#[test]
fn a_lost_race_retries_against_the_row_it_reads_again() {
    lost_race(sim, "sim");
    lost_race(live, "live");
}

/// The lost race's schedule in which the rival's swap lands between the
/// first UPDATE's read and its swap: the first starts and reads, the rival
/// starts, reads, puts and swaps, and the first runs to its end. Its swap
/// fails, and the retry diffs its entries against the row it reads again.
fn lost_race<S: KvStore>(store: impl Fn() -> S, backend: &str) {
    let pair = pairs().into_iter().find(|p| p.name == "lost race").unwrap();
    let (db, ns) = notes(store(), pair.rows, &pair.writes);
    run(&db, &pair.writes, &[0, 0, 1, 1, 1, 1], None);
    let raced = Note {
        body: "good world",
        ..AMY
    };
    let expected = vec![
        vec![ns.get(1)],
        vec![put(ns.body, key("there", 1))],
        vec![ns.tas(1, Some(AMY), TOKEN_SET)],
        vec![ns.get(1)],
        vec![put(ns.body, key("hello", 1)), put(ns.body, key("there", 1))],
        vec![ns.tas(1, Some(raced), TOKEN_SET)],
        vec![del(ns.body, key("good", 1)), del(ns.body, key("world", 1))],
    ];
    let sent = db
        .cluster()
        .take()
        .into_iter()
        .filter(|(who, _)| *who == Some(0));
    let sent: Vec<RequestRound> = sent.map(|(_, round)| round).collect();
    assert_eq!(sent, expected, "{backend}: lost race");
}

/// N12 (1): three `red` entries no record derives (as three INSERTs
/// stopped before their swaps leave them) sort ahead of 20 live rows, and
/// a `LIMIT 5` read counts them against its limit: 2 rows, not 5, on each
/// backend, until N12's fix flips it.
#[test]
fn dangling_entries_ahead_of_live_ones_shorten_a_limit_read() {
    fn short_limit<S: KvStore>(store: S) -> (usize, usize) {
        const OWNERS: [&str; 10] = ["o0", "o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8", "o9"];
        let rows: Vec<Note> = (4..24)
            .map(|id| note(id, OWNERS[id as usize / 2 % 10], "red", "x"))
            .collect();
        let (db, ns) = notes(store, &rows, &[]);
        for id in 1..4 {
            db.cluster().bulk_put(ns.tag, key("red", id), Vec::new());
        }
        let params = Params::from_values([Value::Varchar("red".into())]);
        let sql = "SELECT * FROM notes WHERE tag = <v>";
        let got = (db.query(&mut Session::new(), &format!("{sql} LIMIT 5"), &params))
            .unwrap()
            .rows
            .len();
        (got, db.reference_query(sql, &params).unwrap().len().min(5))
    }
    assert_eq!(short_limit(sim()), (2, 5), "sim");
    assert_eq!(short_limit(live()), (2, 5), "live");
}

fn sim() -> SimCluster {
    SimCluster::new(ClusterConfig::instant(2))
}

/// A live store whose rounds all run on their caller: no round here
/// carries service time, so a pool's workers would sit idle.
fn live() -> LiveCluster {
    LiveCluster::new(LiveConfig {
        pool_threads: 0,
        ..Default::default()
    })
}
