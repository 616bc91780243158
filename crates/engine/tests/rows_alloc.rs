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
//! side, an UPDATE's stored key and new record reach the store as one
//! exactly-sized buffer, which the store's test-and-set keeps as its entry.
//!
//! A counting `#[global_allocator]` needs a binary of its own, hence this
//! file (the pattern of `crates/kv/tests/range_alloc.rs`); it counts per
//! thread, and the store, with no service time to overlap, runs its
//! rounds on the calling thread whatever the width of its pool.
//!
//! [`Rows`]: piql_core::rows::Rows

use piql_core::catalog::Catalog;
use piql_core::plan::params::Params;
use piql_core::tuple;
use piql_core::value::{Value, ValueRef};
use piql_engine::{Database, Prepared};
use piql_kv::{BulkFeed, KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, NsId, Session};
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
/// entry arrives in a buffer of exactly its size, and the allocations the
/// store makes serving them.
struct TasCounted {
    inner: LiveCluster,
    swaps: AtomicU64,
    exact: AtomicU64,
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
        let KvRequest::TestAndSet { entry, .. } = &req else {
            return self.inner.execute_one(session, req);
        };
        let exact = entry.capacity() == entry.len();
        let (response, made) = counted(|| self.inner.execute_one(session, req));
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.exact.fetch_add(u64::from(exact), Ordering::Relaxed);
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
        exact: AtomicU64::new(0),
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
    let writes: Vec<u64> = (0..20)
        .map(|t| {
            let text = format!("revision {t} of a thought, longer than its first draft");
            let params = Params::from_values([Value::Varchar(text), Value::Timestamp(t)]);
            counted(|| db.execute_dml(&mut session, edit, &params).unwrap()).1
        })
        .collect();
    let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    assert_eq!(count(&store.swaps), 20, "every update swapped its record");
    assert_eq!(count(&store.exact), 20, "each entry is exactly sized");
    // the request's buffer is the entry: at 60cee7c the store grew each
    // key into it, one allocation per update
    assert_eq!(count(&store.made), 0, "the store's write allocates nothing");
    // the first update compiles the statement; the rest cost the same
    let warm = &writes[1..];
    println!("allocations per warm UPDATE: {warm:?}");
    assert!(warm.iter().all(|&made| made == warm[0]), "{warm:?}");
    assert_eq!(warm[0], UPDATE_ALLOCS, "{warm:?}");
}

/// Allocations of one warm UPDATE of `thoughts`, the writer and the store
/// together. It was 10 when the new record and the key it is stored under
/// were two buffers, which the store joined into one, and 9 when the row
/// it replaces was decoded into an owned tuple: a vector and a `String`
/// per text column, where borrowed values need the vector alone.
const UPDATE_ALLOCS: u64 = 7;

/// No secondary index: each row stores exactly one entry.
const NOTES: &str = "CREATE TABLE notes ( \
       id INT NOT NULL, \
       owner VARCHAR(16) NOT NULL, \
       body VARCHAR(100), \
       seen BIGINT, \
       PRIMARY KEY (owner, id) )";

/// A `LiveCluster` that lays a namespace out in `shards` shards, holding
/// [`NOTES`].
fn notes_database(shards: usize) -> Database<LiveCluster> {
    let db = Database::new(Arc::new(LiveCluster::new(LiveConfig {
        shards_per_namespace: shards,
        ..LiveConfig::default()
    })));
    db.execute_ddl(NOTES).unwrap();
    db
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_borrowed_load_allocates_one_buffer_per_row() {
    const N: u64 = 5_000;
    const SHARDS: u64 = 16;
    let db = notes_database(SHARDS as usize);
    let owners: Vec<String> = (0..10).map(|o| format!("owner{o}")).collect();
    let mut body = String::new();
    let (loaded, made) = counted(|| {
        db.bulk_load_with("notes", |rows| {
            for i in 0..N as i32 {
                body.clear();
                body.push_str("note number ");
                body.push_str(&owners[i as usize % 10]);
                rows.push(&[
                    ValueRef::Int(i),
                    ValueRef::Varchar(&owners[i as usize % 10]),
                    ValueRef::Varchar(&body),
                    // widened to the column's BIGINT as it is stored
                    ValueRef::Int(i),
                ])?;
            }
            Ok(())
        })
        .unwrap()
    });
    assert_eq!(loaded, N);
    let table = db.catalog().table("notes").unwrap().clone();
    let primary = db.cluster().namespace(&Catalog::table_namespace(&table));
    assert_eq!(db.cluster().ns_len(primary), N as usize);
    // each row is one buffer, its key and then its record, which
    // becomes its entry; the rest is the store's full leaves, its batch,
    // the loader's own buffers and the table's write-side resolution.
    // At 96a66bb the same rows, loaded as tuples, made 30,513: six a row
    println!("a borrowed load of {N} rows: {made} allocations");
    assert!(
        made <= N + N / 10 + 16 * SHARDS,
        "{made} allocations to load {N} rows"
    );
}

/// A `LiveCluster` that keeps apart the allocations it makes storing bulk
/// batches: each batch is collected first, then stored, counted.
struct BatchCounted {
    inner: LiveCluster,
    stored: AtomicU64,
}

impl KvStore for BatchCounted {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }
    fn execute_round(&self, session: &mut Session, round: Vec<KvRequest>) -> Vec<KvResponse> {
        self.inner.execute_round(session, round)
    }
    fn execute_one(&self, session: &mut Session, req: KvRequest) -> KvResponse {
        self.inner.execute_one(session, req)
    }
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.inner.bulk_put(ns, key, value)
    }
    fn bulk_put_all(&self, ns: NsId, feed: &mut BulkFeed<'_>) {
        let mut batch = Vec::new();
        feed(&mut |bytes, key_len| batch.push((bytes, key_len)));
        let (_, made) = counted(|| {
            self.inner.bulk_put_all(ns, &mut |push| {
                for (bytes, key_len) in batch.drain(..) {
                    push(bytes, key_len);
                }
            })
        });
        self.stored.fetch_add(made, Ordering::Relaxed);
    }
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_token_backfill_allocates_per_entry_and_page_not_per_record() {
    // (records, pages of 1,024 records, entries the TOKEN(body) index
    // derives, allocations outside the store's own batch handling)
    let backfills = [1_000usize, 4_000].map(|records| {
        let store = Arc::new(BatchCounted {
            inner: LiveCluster::new(LiveConfig {
                shards_per_namespace: 4,
                ..LiveConfig::default()
            }),
            stored: AtomicU64::new(0),
        });
        let db = Database::new(store.clone());
        db.execute_ddl(NOTES).unwrap();
        db.bulk_load(
            "notes",
            (0..records).map(|i| {
                let body = format!("words {} and {} again", i % 7, i % 5);
                tuple![i as i32, "owner", body.as_str(), Value::Null]
            }),
        )
        .unwrap();
        let stored_before = store.stored.load(Ordering::Relaxed);
        let (_, made) = counted(|| {
            db.execute_ddl("CREATE INDEX notes_by_word ON notes (TOKEN(body))")
                .unwrap()
        });
        let stored = store.stored.load(Ordering::Relaxed) - stored_before;
        let index = db.catalog().index("notes_by_word").unwrap().clone();
        let ns = store.namespace(&Catalog::index_namespace(&index));
        let entries = store.inner.ns_len(ns) as u64;
        (
            records,
            records.div_ceil(1024) as u64,
            entries,
            made - stored,
        )
    });
    println!("TOKEN backfills (records, pages, entries, allocations): {backfills:?}");
    for (records, pages, entries, made) in backfills {
        // five tokens a record: "words", "and", "again" and two digits,
        // one entry for both when they are equal
        assert!(entries >= 4 * records as u64, "{backfills:?}");
        // each entry's own buffer, a few buffers a page (its range
        // answer, the next page's start key, the batch), and the DDL's
        // parse and catalog work. At 96a66bb each record was decoded into
        // a tuple and its tokens expanded in fresh buffers: 19,365 and
        // 79,831 allocations in all, the store's included, about fourteen
        // a record besides the entries
        assert!(made <= entries + 64 * pages + 512, "{backfills:?}");
    }
    let [(_, few_pages, few_entries, few), (_, many_pages, many_entries, many)] = backfills;
    assert!(
        many - many_entries <= few - few_entries + 64 * (many_pages - few_pages),
        "what grows past the entries grows per page: {backfills:?}"
    );
}
