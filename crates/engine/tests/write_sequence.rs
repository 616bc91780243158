//! Every outcome of every write, as the exact requests it sends: each round
//! in order, each request in its place. The table carries a plain index, a
//! `TOKEN` index and a `CARDINALITY LIMIT` (whose enforcement index is a
//! second plain one), so each §7.2 step shows up: entries first, then the
//! record's test-and-set, then the counts and the stale drops or undos.
//! Run on the simulated cluster and the live one, through
//! `piql_kv::testkit::Interleave`.

use piql_core::catalog::Catalog;
use piql_core::codec::key::{encode_key_asc, prefix_upper_bound};
use piql_core::codec::row::encode_tuple;
use piql_core::plan::params::Params;
use piql_core::tuple::Tuple;
use piql_core::value::Value;
use piql_engine::{Database, DbError, WriteError};
use piql_kv::testkit::Interleave;
use piql_kv::{
    ClusterConfig, KvRequest, KvStore, LiveCluster, LiveConfig, NsId, RequestRound, Session,
    SimCluster,
};
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
/// keeps them, its indexes.
struct Ns {
    rec: NsId,
    owner: NsId,
    tag: NsId,
    body: NsId,
}

impl Ns {
    fn get(&self, id: i32) -> KvRequest {
        KvRequest::Get {
            ns: self.rec,
            key: pk(id),
        }
    }

    fn tas(&self, id: i32, expect: Option<Note>, value: Note) -> KvRequest {
        KvRequest::TestAndSet {
            ns: self.rec,
            key: pk(id),
            expect: expect.map(Note::record),
            value: Some(value.record()),
        }
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

/// A fresh `notes` over `store`, holding `rows`, with the log emptied.
fn notes<S: KvStore>(store: S, rows: &[Note]) -> (Database<Interleave<S>>, Ns) {
    let db = Database::new(Arc::new(Interleave::new(store)));
    for ddl in DDL {
        db.execute_ddl(ddl).unwrap();
    }
    let mut session = Session::new();
    for row in rows {
        db.execute_dml(&mut session, INSERT, &row.params()).unwrap();
    }
    let catalog = db.catalog();
    let table = catalog.table("notes").unwrap();
    let indexes = catalog.indexes_for_table(table.id);
    let names: Vec<&str> = indexes.iter().map(|i| i.name.as_str()).collect();
    assert_eq!(names[1..], ["notes_by_tag", "notes_by_body"]);
    let ns = |i: usize| db.store().namespace(&Catalog::index_namespace(&indexes[i]));
    let ns = Ns {
        rec: db.store().namespace(&Catalog::table_namespace(table)),
        owner: ns(0),
        tag: ns(1),
        body: ns(2),
    };
    db.cluster().take();
    (db, ns)
}

/// Run one statement and hand back its result and the rounds it sent.
fn run<S: KvStore>(
    db: &Database<Interleave<S>>,
    sql: &str,
    params: &Params,
) -> (Result<(), DbError>, Vec<RequestRound>) {
    let result = db.execute_dml(&mut Session::new(), sql, params);
    (result, db.cluster().take())
}

fn body(id: i32, body: &str) -> Params {
    Params::from_values([Value::Varchar(body.into()), Value::Int(id)])
}

fn id(id: i32) -> Params {
    Params::from_values([Value::Int(id)])
}

const AMY: Note = note(1, "amy", "red", "hello world");

fn inserts<S: KvStore>(store: impl Fn() -> S, backend: &str) {
    // succeeds: every entry, the record expecting absence, the count
    let (db, ns) = notes(store(), &[]);
    let (result, rounds) = run(&db, INSERT, &AMY.params());
    result.unwrap();
    let expected = vec![
        vec![
            put(ns.owner, key("amy", 1)),
            put(ns.tag, key("red", 1)),
            put(ns.body, key("hello", 1)),
            put(ns.body, key("world", 1)),
        ],
        vec![ns.tas(1, None, AMY)],
        vec![ns.count("amy")],
    ];
    assert_eq!(rounds, expected, "{backend}: insert");

    // a duplicate: the undo drops only what the stored row does not derive
    let (db, ns) = notes(store(), &[AMY]);
    let twin = note(1, "amy", "blue", "hello there");
    let (result, rounds) = run(&db, INSERT, &twin.params());
    assert!(
        matches!(result, Err(DbError::Write(WriteError::DuplicateKey { .. }))),
        "{backend}: {result:?}"
    );
    let expected = vec![
        vec![
            put(ns.owner, key("amy", 1)),
            put(ns.tag, key("blue", 1)),
            put(ns.body, key("hello", 1)),
            put(ns.body, key("there", 1)),
        ],
        vec![ns.tas(1, None, twin)],
        vec![del(ns.tag, key("blue", 1)), del(ns.body, key("there", 1))],
    ];
    assert_eq!(rounds, expected, "{backend}: duplicate");

    // over the limit: counted, then every entry and the record undone
    let (db, ns) = notes(store(), &[AMY, note(2, "amy", "red", "x")]);
    let third = note(3, "amy", "red", "so long");
    let (result, rounds) = run(&db, INSERT, &third.params());
    assert!(
        matches!(
            result,
            Err(DbError::Write(WriteError::CardinalityExceeded {
                limit: 2,
                ..
            }))
        ),
        "{backend}: {result:?}"
    );
    let entries = [
        (ns.owner, key("amy", 3)),
        (ns.tag, key("red", 3)),
        (ns.body, key("long", 3)),
        (ns.body, key("so", 3)),
    ];
    let expected = vec![
        entries.iter().map(|(n, k)| put(*n, k.clone())).collect(),
        vec![ns.tas(3, None, third)],
        vec![ns.count("amy")],
        entries.iter().map(|(n, k)| del(*n, k.clone())).collect(),
        vec![del(ns.rec, pk(3))],
    ];
    assert_eq!(rounds, expected, "{backend}: over the limit");
}

fn updates<S: KvStore>(store: impl Fn() -> S, backend: &str) {
    // a token set that partly changes: only the new token is put, and only
    // the old one dropped, after the swap
    let (db, ns) = notes(store(), &[AMY]);
    let (result, rounds) = run(&db, SET_BODY, &body(1, "hello there"));
    result.unwrap();
    let new = Note {
        body: "hello there",
        ..AMY
    };
    let expected = vec![
        vec![ns.get(1)],
        vec![put(ns.body, key("there", 1))],
        vec![ns.tas(1, Some(AMY), new)],
        vec![del(ns.body, key("world", 1))],
    ];
    assert_eq!(rounds, expected, "{backend}: token update");

    // nothing indexed changes: the read and the swap alone
    let (db, ns) = notes(store(), &[AMY]);
    let params = Params::from_values([Value::Int(7), Value::Int(1)]);
    let (result, rounds) = run(&db, SET_SEEN, &params);
    result.unwrap();
    let seen = Note { seen: 7, ..AMY };
    let expected = vec![vec![ns.get(1)], vec![ns.tas(1, Some(AMY), seen)]];
    assert_eq!(rounds, expected, "{backend}: unindexed update");

    // a write lands between the read and the swap: the swap fails, and the
    // retry diffs its entries against the row it reads again
    let (db, ns) = notes(store(), &[AMY]);
    let raced = Note {
        body: "good world",
        ..AMY
    };
    let rec = ns.rec;
    db.cluster().before(
        |round| matches!(round, [KvRequest::TestAndSet { .. }]),
        move |inner| {
            let put = KvRequest::Put {
                ns: rec,
                key: pk(1),
                value: raced.record(),
            };
            inner.execute_one(&mut Session::new(), put);
        },
    );
    let (result, rounds) = run(&db, SET_BODY, &body(1, "hello there"));
    result.unwrap();
    let expected = vec![
        vec![ns.get(1)],
        vec![put(ns.body, key("there", 1))],
        vec![ns.tas(1, Some(AMY), new)],
        vec![ns.get(1)],
        vec![put(ns.body, key("hello", 1)), put(ns.body, key("there", 1))],
        vec![ns.tas(1, Some(raced), new)],
        vec![del(ns.body, key("good", 1)), del(ns.body, key("world", 1))],
    ];
    assert_eq!(rounds, expected, "{backend}: lost race");

    // no such row: the read alone
    let (db, ns) = notes(store(), &[AMY]);
    let (result, rounds) = run(&db, SET_BODY, &body(9, "hello"));
    assert!(
        matches!(result, Err(DbError::Write(WriteError::NotFound { .. }))),
        "{backend}: {result:?}"
    );
    assert_eq!(rounds, vec![vec![ns.get(9)]], "{backend}: missing update");
}

fn deletes<S: KvStore>(store: impl Fn() -> S, backend: &str) {
    // the record first, then every entry it derived
    let (db, ns) = notes(store(), &[AMY]);
    let (result, rounds) = run(&db, DELETE, &id(1));
    result.unwrap();
    let expected = vec![
        vec![ns.get(1)],
        vec![del(ns.rec, pk(1))],
        vec![
            del(ns.owner, key("amy", 1)),
            del(ns.tag, key("red", 1)),
            del(ns.body, key("hello", 1)),
            del(ns.body, key("world", 1)),
        ],
    ];
    assert_eq!(rounds, expected, "{backend}: delete");

    let (result, rounds) = run(&db, DELETE, &id(1));
    result.unwrap();
    assert_eq!(rounds, vec![vec![ns.get(1)]], "{backend}: missing delete");
}

fn gc<S: KvStore>(store: impl Fn() -> S, backend: &str) {
    // one entry its record does not derive: each index is scanned, each
    // entry's record read in one round, and the dangling one dropped
    let (db, ns) = notes(store(), &[AMY]);
    db.store().bulk_put(ns.tag, key("blue", 1), Vec::new());
    let collected = db.gc_indexes(&mut Session::new(), "notes").unwrap();
    assert_eq!(collected, 1, "{backend}");
    let expected = vec![
        vec![ns.scan(ns.owner)],
        vec![ns.get(1)],
        vec![ns.scan(ns.tag)],
        vec![ns.get(1), ns.get(1)],
        vec![del(ns.tag, key("blue", 1))],
        vec![ns.scan(ns.body)],
        vec![ns.get(1), ns.get(1)],
    ];
    assert_eq!(db.cluster().take(), expected, "{backend}: gc");
}

fn sim() -> SimCluster {
    SimCluster::new(ClusterConfig::instant(2))
}

fn live() -> LiveCluster {
    LiveCluster::new(LiveConfig::default())
}

#[test]
fn inserts_send_their_requests_in_order() {
    inserts(sim, "sim");
    inserts(live, "live");
}

#[test]
fn updates_send_their_requests_in_order() {
    updates(sim, "sim");
    updates(live, "live");
}

#[test]
fn deletes_send_their_requests_in_order() {
    deletes(sim, "sim");
    deletes(live, "live");
}

#[test]
fn an_index_sweep_sends_its_requests_in_order() {
    gc(sim, "sim");
    gc(live, "live");
}
