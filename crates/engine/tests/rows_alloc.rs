//! What a result set costs in allocations: the executor decodes stored
//! rows straight into one packed [`Rows`] block — a cell vector and a text
//! buffer, sized from what the store answered — so a primary scan
//! allocates the same whether it returns one row or a hundred, and a join
//! adds a constant for its output block, not a vector per row, a `String`
//! per field or a copy of the left row per match. What the store is asked
//! and answers costs nothing once warm: probe and bound keys, a join's
//! packed round, the store's answer block, the sorted join's merge order
//! and a TOKEN-index entry's re-check against its record are built in the
//! executing thread's scratch, kept from one execution to the next, so a
//! warm read allocates its result blocks and nothing else. On the write
//! side, an UPDATE's record reaches the store in a key built with room for
//! it, so the store's test-and-set grows nothing.
//!
//! A counting `#[global_allocator]` needs a binary of its own, hence this
//! file (the pattern of `crates/kv/tests/range_alloc.rs`); it counts per
//! thread, and the store, with no service time to overlap, runs its
//! rounds on the calling thread whatever the width of its pool.
//!
//! [`Rows`]: piql_core::rows::Rows

use piql_core::plan::params::Params;
use piql_core::tuple;
use piql_core::value::Value;
use piql_engine::{Database, Prepared};
use piql_kv::{KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, NsId, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: TLS may already be torn down during thread exit
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract is `System.alloc`'s own
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as above
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as above
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// What `f` returns, and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

const SIZES: [usize; 3] = [1, 10, 100];

const DDL: &[&str] = &[
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
       CARDINALITY LIMIT 100 (owner) )",
    "CREATE TABLE thoughts ( \
       owner VARCHAR(32) NOT NULL, \
       timestamp TIMESTAMP NOT NULL, \
       text VARCHAR(140), \
       PRIMARY KEY (owner, timestamp), \
       FOREIGN KEY (owner) REFERENCES users )",
];

fn followee(i: usize) -> String {
    format!("followee{i:03}")
}

/// For each `n` of [`SIZES`]: `reader{n}` follows `followee000..n`;
/// `author{n}a` and `author{n}b` have `n` thoughts each, and `fan{n}`
/// follows those two.
fn database() -> Database<LiveCluster> {
    let db = Database::new(Arc::new(LiveCluster::new(LiveConfig {
        shards_per_namespace: 1,
        ..LiveConfig::default()
    })));
    for ddl in DDL {
        db.execute_ddl(ddl).unwrap();
    }
    let mut users: Vec<String> = (0..100).map(followee).collect();
    let mut follows = Vec::new();
    let mut thoughts = Vec::new();
    for n in SIZES {
        let (reader, fan) = (format!("reader{n}"), format!("fan{n}"));
        follows.extend((0..n).map(|i| (reader.clone(), followee(i))));
        for half in ["a", "b"] {
            let author = format!("author{n}{half}");
            follows.push((fan.clone(), author.clone()));
            thoughts.extend((0..n).map(|t| (author.clone(), t)));
            users.push(author);
        }
        users.extend([reader, fan]);
    }
    db.bulk_load(
        "users",
        users.iter().map(|u| tuple![u.as_str(), "Berkeley"]),
    )
    .unwrap();
    db.bulk_load(
        "subscriptions",
        follows
            .iter()
            .map(|(owner, target)| tuple![owner.as_str(), target.as_str(), true]),
    )
    .unwrap();
    db.bulk_load(
        "thoughts",
        thoughts.iter().map(|(owner, t)| {
            let text = format!("thought {t} of {owner}");
            tuple![
                owner.as_str(),
                Value::Timestamp(1_000 + *t as i64),
                text.as_str()
            ]
        }),
    )
    .unwrap();
    db
}

/// Allocations of one warm execution of `prepared` for `user`, which must
/// answer `rows` rows.
fn execution(db: &Database<LiveCluster>, prepared: &Prepared, user: &str, rows: usize) -> u64 {
    let params = Params::from_values([Value::Varchar(user.into())]);
    let mut session = Session::new();
    // warm: the first round of a thread may set up thread-local state,
    // and the thread's execution scratch grows to what this read needs;
    // then leave every stripe of the store's operation-sample sink drained
    // but with room (a run samples at least once, eight stripes), so that
    // where the counted run's samples land costs nothing
    for _ in 0..8 {
        db.execute(&mut session, prepared, &params).unwrap();
    }
    db.cluster().sample_sink().drain();
    let (result, made) = counted(|| db.execute(&mut session, prepared, &params).unwrap());
    assert_eq!(result.rows.len(), rows, "{user}");
    made
}

#[test]
// Rank tracking in `lock-order` builds keeps per-thread held-lock state,
// which allocates by design.
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_result_set_allocates_per_operator_not_per_row() {
    let db = database();

    // a primary scan: the block's two buffers (at 8e3b630 six: its start
    // key, end bound and range answer's two buffers besides)
    let scan = db
        .prepare("SELECT * FROM thoughts WHERE owner = <o> ORDER BY timestamp DESC LIMIT 100")
        .unwrap();
    let scans = SIZES.map(|n| execution(&db, &scan, &format!("author{n}a"), n));
    assert!(
        scans.iter().all(|&made| made == scans[0]),
        "1, 10 and 100 rows must cost the same: {scans:?}"
    );
    assert!(scans[0] <= 2, "{scans:?}");

    // a sorted join, two probes: what each probe matches is merged and
    // decoded behind its child's cells into one block, the child scan's
    // block and its own
    let stream = db
        .prepare(
            "SELECT s.owner, thoughts.* FROM subscriptions s JOIN thoughts \
             WHERE thoughts.owner = s.target AND s.owner = <o> \
             ORDER BY thoughts.timestamp DESC LIMIT 200",
        )
        .unwrap();
    let streams = SIZES.map(|n| execution(&db, &stream, &format!("fan{n}"), 2 * n));
    assert!(
        streams.iter().all(|&made| made == streams[0]),
        "2, 20 and 200 rows from two probes must cost the same: {streams:?}"
    );
    assert!(streams[0] <= 4, "{streams:?}");

    // an FK join: one get per child, issued as one packed round and
    // answered as one block, so 1, 10 and 100 gets cost the same too: the
    // two blocks (at 8e3b630 fourteen: the scan's four temporaries, the
    // join's probe, round and answer)
    let followed = db
        .prepare(
            "SELECT s.owner, u.* FROM subscriptions s JOIN users u \
             WHERE u.username = s.target AND s.owner = <o>",
        )
        .unwrap();
    let joins = SIZES.map(|n| execution(&db, &followed, &format!("reader{n}"), n));
    assert!(
        joins.iter().all(|&made| made == joins[0]),
        "joining 1, 10 and 100 rows must cost the same: {joins:?}"
    );
    assert!(joins[0] <= 4, "{joins:?}");
    println!(
        "allocations per execution: scan {scans:?}, sorted join {streams:?}, FK join {joins:?}"
    );
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_token_index_dereference_allocates_per_operator_not_per_row() {
    let db = Database::new(Arc::new(LiveCluster::new(LiveConfig {
        shards_per_namespace: 1,
        ..LiveConfig::default()
    })));
    db.execute_ddl(
        "CREATE TABLE books ( \
           id INT NOT NULL, \
           title VARCHAR(100), \
           PRIMARY KEY (id) )",
    )
    .unwrap();
    // `set{n}` names exactly n multi-word titles, each with a repeated
    // token and words every title shares
    const SETS: [usize; 3] = [1, 10, 50];
    let mut titles = Vec::new();
    for n in SETS {
        titles.extend((0..n).map(|i| format!("The Grapes of Wrath, volume {i} of set{n}")));
    }
    db.bulk_load(
        "books",
        (titles.iter().enumerate()).map(|(id, title)| tuple![id as i32, title.as_str()]),
    )
    .unwrap();
    // the LIKE is served by a TOKEN(title) index that does not cover the
    // row: every entry is dereferenced and re-checked against its record
    let search = db
        .prepare("SELECT * FROM books WHERE title LIKE <word> LIMIT 50")
        .unwrap();
    let plan = search.compiled.explain();
    assert!(
        plan.contains("IndexScan(idx_books_tok_title") && plan.contains("deref"),
        "{plan}"
    );
    let searches = SETS.map(|n| {
        let params = Params::from_values([Value::Varchar(format!("set{n}"))]);
        let mut session = Session::new();
        // warm, and leave every stripe of the store's operation-sample
        // sink drained but with room (two samples a run, eight stripes),
        // so that where the counted run's samples land costs nothing
        for _ in 0..4 {
            db.execute(&mut session, &search, &params).unwrap();
        }
        db.cluster().sample_sink().drain();
        let (result, made) = counted(|| db.execute(&mut session, &search, &params).unwrap());
        assert_eq!(result.rows.len(), n, "set{n}");
        made
    });
    // at decf205 each re-check rebuilt every key its record derives: 28
    // allocations a row for these titles, [45, 297, 1417] here; at 8e3b630
    // 19 each, for the search token, the keys, both rounds and answers and
    // the index entries' rows besides the block
    assert!(
        searches.iter().all(|&made| made == searches[0]),
        "1, 10 and 50 dereferenced rows must cost the same: {searches:?}"
    );
    assert!(searches[0] <= 2, "{searches:?}");
    println!("allocations per TOKEN-index search: {searches:?}");
}

/// A `LiveCluster` that counts the test-and-sets it serves, the ones whose
/// key arrives with room for exactly their record, and the allocations the
/// store makes serving them.
struct TasCounted {
    inner: LiveCluster,
    swaps: AtomicU64,
    roomy: AtomicU64,
    made: AtomicU64,
}

impl KvStore for TasCounted {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }
    fn execute_round(&self, session: &mut Session, round: Vec<KvRequest>) -> Vec<KvResponse> {
        self.inner.execute_round(session, round)
    }
    fn execute_one(&self, session: &mut Session, req: KvRequest) -> KvResponse {
        let KvRequest::TestAndSet {
            key,
            value: Some(value),
            ..
        } = &req
        else {
            return self.inner.execute_one(session, req);
        };
        let roomy = key.capacity() == key.len() + value.len();
        let (response, made) = counted(|| self.inner.execute_one(session, req));
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.roomy.fetch_add(u64::from(roomy), Ordering::Relaxed);
        self.made.fetch_add(made, Ordering::Relaxed);
        response
    }
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.inner.bulk_put(ns, key, value)
    }
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn an_update_hands_the_store_its_entry_ready_made() {
    let store = Arc::new(TasCounted {
        inner: LiveCluster::new(LiveConfig::default()),
        swaps: AtomicU64::new(0),
        roomy: AtomicU64::new(0),
        made: AtomicU64::new(0),
    });
    let db = Database::new(store.clone());
    for ddl in DDL {
        db.execute_ddl(ddl).unwrap();
    }
    db.bulk_load(
        "thoughts",
        (0..20).map(|t| tuple!["author", Value::Timestamp(t), "first draft"]),
    )
    .unwrap();
    let edit = "UPDATE thoughts SET text = <text> WHERE owner = 'author' AND timestamp = <ts>";
    let mut session = Session::new();
    for t in 0..20 {
        let text = format!("revision {t} of a thought, longer than its first draft");
        let params = Params::from_values([Value::Varchar(text), Value::Timestamp(t)]);
        db.execute_dml(&mut session, edit, &params).unwrap();
    }
    let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    assert_eq!(count(&store.swaps), 20, "every update swapped its record");
    assert_eq!(count(&store.roomy), 20, "each key has room for its record");
    // the key's own buffer becomes the entry: at 60cee7c the store grew
    // each key into it, one allocation per update
    assert_eq!(count(&store.made), 0, "the store's write grows nothing");
}
