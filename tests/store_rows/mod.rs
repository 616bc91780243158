//! The store section of the cost table (`tests/cost_golden.txt`): what one
//! execution of each statement spends at the store — logical requests,
//! rounds, entries and bytes shipped back, and a read's rows and their
//! digest — beside the bound its plan gives before it runs. It holds every
//! SCADr page-view and TPC-W Table-1 read, and every INSERT, UPDATE and
//! DELETE outcome. Each row is computed on a `LiveCluster` and a
//! `SimCluster` and must be equal on both, within its bound; a write ships
//! back no entries and no bytes.
//!
//! `read_cost.rs` pins the reads, `write_bound.rs` the inserts and the
//! updates and deletes, each against its own rows of the one table; the
//! set-up they share with `cost.rs`'s allocation rows — the page-view
//! SCADr and the TPC-W registries — is here, so no set-up or parameter
//! list is written twice.

// each test target that includes this module uses its own part of it
#![allow(dead_code)]

use piql_core::codec::row::encode_tuple;
use piql_core::plan::params::{ParamValue, Params};
use piql_core::plan::physical::QueryBounds;
use piql_core::tuple;
use piql_core::value::Value;
use piql_core::Rows;
use piql_engine::{Database, DbError, WriteError};
use piql_kv::testkit::{self, Participant, Schedule};
use piql_kv::{ClusterConfig, KvRequest, KvStore, LiveCluster, LiveConfig, Session, SimCluster};
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::StatementRegistry;
use piql_workloads::scadr::{self, ScadrConfig};
use piql_workloads::tpcw;
use std::sync::Arc;

/// The cost table, as `tests/cost_golden.txt` holds it.
const GOLDEN: &str = include_str!("../cost_golden.txt");

/// The part of the cost table from the line before the section titled
/// `from…` (or the table's start) up to the line before the section titled
/// `to…` (or the table's end).
pub fn golden(from: Option<&str>, to: Option<&str>) -> &'static str {
    let at = |title: Option<&str>, or: usize| {
        title.map_or(or, |title| {
            let at = GOLDEN.find(&format!("\n== {title}"));
            at.unwrap_or_else(|| panic!("no section `{title}` in the cost table"))
        })
    };
    &GOLDEN[at(from, 0)..at(to, GOLDEN.len())]
}

/// `actual` is `expected`, or the whole table and its first differing line
/// are shown.
pub fn assert_pinned(actual: &str, expected: &str) {
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "costs moved; first differing line {}:\n  expected: {:?}\n  actual:   {:?}\n\
             full table:\n{actual}",
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}

// -------------------------------------------------------------- set-up

pub fn registry<S: KvStore + 'static>(db: Arc<Database<S>>) -> Arc<StatementRegistry<S>> {
    Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
    ))
}

/// A registry over SCADr on `store` of `nodes` nodes that admits
/// everything.
pub fn scadr_registry<S: KvStore + 'static>(
    store: S,
    config: &ScadrConfig,
    nodes: usize,
) -> Arc<StatementRegistry<S>> {
    let db = Arc::new(Database::new(Arc::new(store)));
    scadr::setup(&db, config, nodes).unwrap();
    registry(db)
}

/// The four SCADr reads a page view makes, in the order it makes them.
pub const PAGE_VIEW_READS: [&str; 4] = [
    "find_user",
    "users_followed",
    "recent_thoughts",
    "thoughtstream",
];
pub const PAGE_VIEW_USERS: usize = 40;

pub fn page_view_user(i: usize) -> Vec<ParamValue> {
    let user = scadr::username(i % PAGE_VIEW_USERS);
    vec![ParamValue::Scalar(Value::Varchar(user))]
}

/// SCADr for page views: users with 10 subscriptions and 10 thoughts.
pub fn page_view_config() -> ScadrConfig {
    ScadrConfig {
        users_per_node: PAGE_VIEW_USERS,
        thoughts_per_user: 10,
        subscriptions_per_user: 10,
        ..Default::default()
    }
}

/// A registry over page-view SCADr on `store`, its four reads registered.
pub fn page_view_registry<S: KvStore + 'static>(store: S) -> Arc<StatementRegistry<S>> {
    let config = page_view_config();
    let registry = scadr_registry(store, &config, 1);
    let q = scadr::queries(&config);
    let sql = [
        &q.find_user,
        &q.users_followed,
        &q.recent_thoughts,
        &q.thoughtstream,
    ];
    for (name, sql) in PAGE_VIEW_READS.iter().zip(sql) {
        assert!(registry.register(name, sql).unwrap().is_admitted());
    }
    registry
}

/// The lines a TPC-W cart or order may hold.
pub const CART_LIMIT: u64 = 3;

/// A registry over TPC-W on `store`, its Table-1 reads registered, and
/// their parameters in `tpcw::TABLE1_SQL` order.
pub fn tpcw_registry<S: KvStore + 'static>(
    store: S,
) -> (Arc<StatementRegistry<S>>, [Vec<ParamValue>; 10]) {
    let db = Arc::new(Database::new(Arc::new(store)));
    let config = tpcw::TpcwConfig {
        items: 400,
        customers_per_node: 30,
        cart_limit: CART_LIMIT,
        ..Default::default()
    };
    let (_, _, orders) = tpcw::setup(&db, &config, 1).unwrap();
    let registry = registry(db);
    let text = |s: &str| vec![ParamValue::Scalar(Value::Varchar(s.into()))];
    let int = |i: i32| vec![ParamValue::Scalar(Value::Int(i))];
    let customer = text(&tpcw::customer_uname(11));
    let promotions = [3, 77, 150, 399, 4_000].map(Value::Int).to_vec();
    let params = [
        customer.clone(),
        vec![ParamValue::Collection(promotions)],
        text(tpcw::SUBJECTS[2]),
        int(42),
        text(tpcw::SURNAMES[5]),
        text(tpcw::TITLE_WORDS[9]),
        customer.clone(),
        customer,
        int(tpcw::initial_order_id(5, orders)),
        // a seeded cart: `setup` spreads 64 of them over the id space
        int((3 * (i32::MAX as i64 / 65)) as i32),
    ];
    for (label, sql) in tpcw::TABLE1_SQL {
        let admission = registry.register(label, sql).unwrap();
        assert!(admission.is_admitted(), "{label}");
    }
    (registry, params)
}

// --------------------------------------------------------------- store

/// What one execution spent at the store — logical requests, rounds, the
/// entries and bytes shipped back, the rows answered and, for a read,
/// their digest — and the bound its plan gave it before it ran.
#[derive(Debug, PartialEq)]
pub struct StoreRow {
    pub name: String,
    pub requests: u64,
    pub rounds: u64,
    pub entries: u64,
    pub bytes: u64,
    pub rows: u64,
    pub digest: Option<u64>,
    pub bound: QueryBounds,
}

impl StoreRow {
    /// What `session`, fresh for `shape`, spent on it, held to `bound`.
    fn new(shape: &str, session: &Session, bound: QueryBounds, rows: Option<&Rows>) -> StoreRow {
        let layer = if rows.is_some() {
            "execute_governed"
        } else {
            "execute_dml"
        };
        let stats = session.stats;
        let row = StoreRow {
            name: format!("{shape} · {layer}"),
            requests: stats.logical_requests,
            rounds: stats.rounds,
            entries: stats.entries,
            bytes: stats.bytes,
            rows: rows.map_or(0, |rows| rows.len() as u64),
            digest: rows.map(|rows| digest(&format!("{rows:?}"))),
            bound,
        };
        assert!(
            bound.guaranteed
                && row.requests <= bound.requests
                && row.rounds <= bound.rounds
                && row.bytes <= bound.bytes
                && row.rows <= bound.tuples,
            "over its bound: {row:?}"
        );
        assert!(row.requests >= 1, "{row:?} never reached the store");
        // measured, not assumed: a write ships nothing back
        if rows.is_none() {
            assert_eq!((row.entries, row.bytes), (0, 0), "{row:?}");
        }
        row
    }
}

/// FNV-1a.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run the registered read `name` once, as the row `{workload} {name}`.
fn read<S: KvStore>(
    registry: &StatementRegistry<S>,
    workload: &str,
    name: &str,
    params: &[ParamValue],
) -> StoreRow {
    let mut session = Session::new();
    let outcome = registry.execute_governed(&mut session, name, params, None);
    let rows = outcome.unwrap().result.rows;
    let bound = registry.get(name).unwrap().prepared().compiled.bounds;
    StoreRow::new(&format!("{workload} {name}"), &session, bound, Some(&rows))
}

/// Run one write, as the row `shape`; how it ended.
fn write<S: KvStore>(
    rows: &mut Vec<StoreRow>,
    db: &Database<S>,
    shape: &str,
    sql: &str,
    params: &Params,
) -> Result<(), WriteError> {
    let mut session = Session::new();
    let result = db.execute_dml(&mut session, sql, params);
    let bound = db.write_plan(sql).unwrap().bound();
    rows.push(StoreRow::new(shape, &session, bound, None));
    result.map_err(|e| match e {
        DbError::Write(e) => e,
        e => panic!("{shape}: {e}"),
    })
}

/// Every UPDATE and DELETE outcome, on a table with a plain and a TOKEN
/// index: a token set that partly changes, nothing indexed changing, a
/// lost test-and-set race retried, a missing row; a row deleted, then
/// deleted again.
fn notes_rows<S: KvStore>(rows: &mut Vec<StoreRow>, store: S) {
    let db = Database::new(Arc::new(Schedule::new(store)));
    for ddl in [
        "CREATE TABLE notes (id INT NOT NULL, owner VARCHAR(8) NOT NULL, tag VARCHAR(8), \
         body VARCHAR(40), seen INT, PRIMARY KEY (id), CARDINALITY LIMIT 2 (owner))",
        "CREATE INDEX notes_by_tag ON notes (tag)",
        "CREATE INDEX notes_by_body ON notes (TOKEN(body))",
    ] {
        db.execute_ddl(ddl).unwrap();
    }
    let note = |body: &str| tuple![1, "amy", "red", body, 0];
    let insert = "INSERT INTO notes VALUES (<id>, <owner>, <tag>, <body>, <seen>)";
    let params = Params::from_values(note("hello world").into_values());
    write(rows, &db, "notes insert", insert, &params).unwrap();
    let set_body = "UPDATE notes SET body = <body> WHERE id = <id>";
    let body =
        |id: i32, text: &str| Params::from_values([Value::Varchar(text.into()), Value::Int(id)]);
    let shape = "notes update, tokens partly change";
    write(rows, &db, shape, set_body, &body(1, "hello there")).unwrap();
    let set_seen = "UPDATE notes SET seen = <seen> WHERE id = <id>";
    let seen = Params::from_values([Value::Int(7), Value::Int(1)]);
    let shape = "notes update, nothing indexed changes";
    write(rows, &db, shape, set_seen, &seen).unwrap();

    // a racing write lands between the read and the swap: the swap fails
    // once, and the retry puts and drops entries again. The schedule starts
    // the update, lets its read through, then starts the racing put and
    // lets it through.
    let put = KvRequest::Put {
        ns: db.store().namespace("t/notes"),
        key: piql_core::codec::key::encode_key_asc(&[Value::Int(1)]).unwrap(),
        value: encode_tuple(&note("good world")),
    };
    let (update, mut raced) = (body(1, "so long"), Vec::new());
    let shape = "notes update, race lost once";
    let racers: Vec<Participant<'_, Result<(), WriteError>>> = vec![
        Box::new(|| write(&mut raced, &db, shape, set_body, &update)),
        Box::new(|| {
            db.store().execute_one(&mut Session::new(), put);
            Ok(())
        }),
    ];
    db.cluster().take();
    let (ended, _) = testkit::run(racers, &[0, 0, 1, 1], None);
    assert!(matches!(ended[..], [Some(Ok(())), Some(Ok(()))]));
    let swaps = db.cluster().take().into_iter().flat_map(|(_, round)| round);
    let swaps = swaps.filter(|r| matches!(r, KvRequest::TestAndSet { .. }));
    assert_eq!(swaps.count(), 2, "the first swap lost the race");
    rows.append(&mut raced);

    let shape = "notes update, row missing";
    let missing = write(rows, &db, shape, set_body, &body(9, "x"));
    assert!(matches!(missing, Err(WriteError::NotFound { .. })));
    let delete = "DELETE FROM notes WHERE id = <id>";
    let id = Params::from_values([Value::Int(1)]);
    for shape in ["notes delete", "notes delete, row missing"] {
        write(rows, &db, shape, delete, &id).unwrap();
    }
}

/// The store rows one test pins.
#[derive(Clone, Copy, Debug)]
pub enum Part {
    /// A page view's reads, then the TPC-W Table-1 reads.
    Reads,
    /// SCADr's and TPC-W's inserts.
    Inserts,
    /// Every UPDATE and DELETE outcome, on a table of their own.
    UpdatesAndDeletes,
}

impl Part {
    /// Whether `line`, a row of the store section, is this part's.
    fn holds(self, line: &str) -> bool {
        let read = line.contains(" · execute_governed");
        let notes = line.starts_with("notes ");
        match self {
            Part::Reads => read,
            Part::Inserts => line.contains(" · execute_dml") && !notes,
            Part::UpdatesAndDeletes => notes,
        }
    }

    /// This part's rows, on the backend `store` makes.
    fn rows<S: KvStore + 'static>(self, store: impl Fn() -> S) -> Vec<StoreRow> {
        let mut rows = Vec::new();
        match self {
            Part::Reads => {
                let registry = page_view_registry(store());
                let user = page_view_user(7);
                rows.extend(PAGE_VIEW_READS.map(|name| read(&registry, "page view", name, &user)));
                let (registry, params) = tpcw_registry(store());
                for ((label, _), params) in tpcw::TABLE1_SQL.iter().zip(&params) {
                    rows.push(read(&registry, "tpcw", label, params));
                }
            }
            Part::Inserts => {
                post_thought(&mut rows, store());
                tpcw_inserts(&mut rows, store());
            }
            Part::UpdatesAndDeletes => notes_rows(&mut rows, store()),
        }
        rows
    }
}

/// `part`'s store rows, computed on `LiveCluster` and on `SimCluster`,
/// which must agree, are its rows of the store section of
/// `tests/cost_golden.txt`; its rows on `LiveCluster`.
pub fn assert_store_rows_pinned(part: Part) -> Vec<StoreRow> {
    let live = part.rows(|| LiveCluster::new(LiveConfig::default()));
    let sim = part.rows(|| SimCluster::new(ClusterConfig::instant(3)));
    assert_eq!(live.len(), sim.len(), "{part:?}");
    let mut table = vec![
        String::new(),
        "== store: one execution, observed/bound, on LiveCluster and SimCluster alike".into(),
        format!(
            "{:<54} requests rounds entries       bytes  rows               digest",
            "shape · layer"
        ),
    ];
    for (live, sim) in live.iter().zip(&sim) {
        assert_eq!(sim, live, "{}: SimCluster against LiveCluster", live.name);
        let (name, bound) = (&live.name, live.bound);
        let digest = live.digest.map_or("-".to_string(), |d| d.to_string());
        table.push(format!(
            "{name:<54} {:>8} {:>6} {:>7} {:>11} {:>5} {digest:>20}",
            format!("{}/{}", live.requests, bound.requests),
            format!("{}/{}", live.rounds, bound.rounds),
            live.entries,
            format!("{}/{}", live.bytes, bound.bytes),
            format!("{}/{}", live.rows, bound.tuples),
        ));
    }
    let actual = table.join("\n");
    println!("{actual}");
    // the section's title and header, and this part's rows
    let expected = golden(Some("store"), Some("durable")).lines();
    let expected: Vec<&str> = expected
        .filter(|line| !line.contains(" · execute_") || part.holds(line))
        .collect();
    assert_pinned(&actual, &expected.join("\n"));
    live
}

/// A thought posted, then posted again.
fn post_thought<S: KvStore + 'static>(rows: &mut Vec<StoreRow>, store: S) {
    let registry = page_view_registry(store);
    let post = scadr::queries(&page_view_config()).post_thought;
    let params = Params::from_values([
        Value::Varchar(scadr::username(3)),
        Value::Timestamp(9_000_000_000),
        Value::Varchar("a thought of several words, tokenised nowhere".into()),
    ]);
    let db = registry.db();
    write(rows, db, "post_thought", &post, &params).unwrap();
    let again = write(rows, db, "post_thought, duplicate", &post, &params);
    assert!(matches!(again, Err(WriteError::DuplicateKey { .. })));
}

/// Each Buy Request insert and its duplicate, cart and order lines up to
/// their cardinality limit and one more, and the insert whose bound
/// depends on its text.
fn tpcw_inserts<S: KvStore + 'static>(rows: &mut Vec<StoreRow>, store: S) {
    let (registry, _) = tpcw_registry(store);
    let db = registry.db();
    let (int, now) = (Value::Int, Value::Timestamp(1));
    let cart = Params::from_values([int(4_242), now.clone()]);
    let order = Params::from_values([int(4_343), Value::Varchar("c00000001".into()), now]);
    for (shape, sql, params) in [
        ("tpcw cart", tpcw::INSERT_CART, &cart),
        ("tpcw order", tpcw::INSERT_ORDER, &order),
    ] {
        write(rows, db, shape, sql, params).unwrap();
        let again = write(rows, db, &format!("{shape}, duplicate"), sql, params);
        assert!(matches!(again, Err(WriteError::DuplicateKey { .. })));
    }
    // lines up to the cardinality limit, then one more: counted, refused
    // and undone — the most a line insert can cost
    for line in 0..=CART_LIMIT {
        let cart_line = Params::from_values([int(4_242), int(line as i32), int(1)]);
        let order_line = Params::from_values([int(4_343), int(line as i32), int(line as i32)]);
        for (shape, sql, params) in [
            ("tpcw cart line", tpcw::INSERT_CART_LINE, &cart_line),
            ("tpcw order line", tpcw::INSERT_ORDER_LINE, &order_line),
        ] {
            let shape = format!("{shape} {} of {CART_LIMIT}", line + 1);
            match write(rows, db, &shape, sql, params) {
                Ok(()) => assert!(line < CART_LIMIT),
                Err(WriteError::CardinalityExceeded { limit, .. }) => assert_eq!(limit, line),
                other => panic!("{shape}: {other:?}"),
            }
        }
    }
    // not a Buy Request shape, but the one whose bound depends on the text:
    // `item` carries the title-search token index, and a title made of
    // one-letter words has as many entries as its VARCHAR(60) can hold
    let title = "a b c d e f g h i j k l m n o p q r s t u v w x y z 0 1 2 3";
    let item = Params::from_values([int(77_777), Value::Varchar(title.into())]);
    let sql = "INSERT INTO item (i_id, i_title) VALUES (<id>, <title>)";
    write(rows, db, "tpcw item, 30 title words", sql, &item).unwrap();
    let tokens = rows.last().unwrap().requests;
    assert!(tokens > 30, "one index entry per token, and the record");
    let again = write(rows, db, "tpcw item, duplicate", sql, &item);
    assert!(matches!(again, Err(WriteError::DuplicateKey { .. })));
    let cached = db.write_plan_stats().cached;
    assert_eq!(cached, tpcw::BUY_REQUEST_INSERTS.len() as u64 + 1);
}
