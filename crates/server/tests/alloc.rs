//! The hot-path acceptance tests: after warm-up, a binary point read —
//! decode → registry lookup → `point_get` → encode — performs **zero**
//! heap allocations on the serving thread, a binary `dml` INSERT performs
//! only the ones for what the store keeps (the record and its entry), a
//! JSON one adds only its decoded request, and a JSON page view or a
//! TPC-W read allocates for its result blocks, stage by stage, and not per
//! row, for what it asks the store, or for the layers between. The
//! application's decode of a response allocates once per nesting level,
//! and the tree it builds is freed whole.
//!
//! A counting `#[global_allocator]` wraps the system allocator, counting
//! allocations and bytes per thread (so the cluster's pool workers don't
//! pollute the single-request measurements) and allocations for the whole
//! process (a round with service time would run partly on those workers;
//! the tests take turns, so the process count is the measured test's own). The warm-up must
//! saturate every lazily-grown buffer that legitimately allocates early:
//! the cluster's `LiveSampleSink` (65,536 samples, dropped-not-grown once
//! full) — hence the 72k warm requests. A statement's latency ring is
//! allocated whole when it is registered.

use piql_core::plan::params::ParamValue;
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::{LiveCluster, LiveConfig, Session};
use piql_server::protocol::ok_response;
use piql_server::server::respond;
use piql_server::testkit::linear_predictor;
use piql_server::{
    decode_page, BinaryConn, BinaryWire, Envelope, JsonWire, Reply, Request, SloConfig,
    StatementRegistry, Wire,
};
use piql_workloads::scadr::{self, ScadrConfig};
use piql_workloads::tpcw;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes held now: asked for, less given back.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn bump(bytes: usize, live: i64) {
    // `try_with`: TLS may already be torn down during thread exit
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + live));
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes_on_this_thread() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// What `f` returns, and the allocations it made on this thread and the
/// bytes they asked for.
fn thread_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, bytes) = (allocs_on_this_thread(), BYTES.with(Cell::get));
    let value = f();
    (
        value,
        allocs_on_this_thread() - allocs,
        BYTES.with(Cell::get) - bytes,
    )
}

/// What `f` returns, and the allocations it caused on any thread. Its
/// rounds are joined before it returns, so the workers' share has been
/// counted by then.
fn process_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = PROCESS_ALLOCS.load(Ordering::Relaxed);
    let value = f();
    (value, PROCESS_ALLOCS.load(Ordering::Relaxed) - before)
}

/// One test measures at a time: the process-wide count has no owner.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size(), layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size(), layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get() - layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WARM_REQUESTS: usize = 72_000;
const MEASURED_REQUESTS: usize = 2_000;

#[test]
// Rank tracking in `lock-order` builds keeps per-thread held-lock state
// (and captures backtraces), which allocates by design; the zero-alloc
// guarantee is a property of release builds, where the wrappers are
// pass-throughs.
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn warm_binary_point_reads_do_not_allocate() {
    let _turn = one_at_a_time();
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    scadr::setup(
        &db,
        &ScadrConfig {
            users_per_node: 20,
            thoughts_per_user: 5,
            subscriptions_per_user: 4,
            ..Default::default()
        },
        2,
    )
    .unwrap();
    let registry = Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        SloConfig {
            slo_ms: 1e9,
            interval_confidence: 1.0,
            allow_degrade: false,
        },
    ));
    registry
        .register("point", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
    assert!(
        registry.get("point").unwrap().fast_point().is_some(),
        "statement must qualify for the fast path"
    );

    // pre-encode request frames (hits and a miss) outside the measurement
    let wire = BinaryWire;
    let frames: Vec<Vec<u8>> = (0..40)
        .map(|i| {
            let name = if i == 13 {
                "absent-user".to_string() // a miss is a hot-path response too
            } else {
                scadr::username(i)
            };
            let mut frame = Vec::new();
            wire.encode_envelope(
                &Envelope {
                    id: None,
                    request: Request::Execute {
                        name: "point".into(),
                        params: vec![Value::Varchar(name).into()],
                        cursor: None,
                    },
                },
                &mut frame,
            );
            frame.split_off(4) // body only, as the server's read loop delivers it
        })
        .collect();

    let mut conn = BinaryConn::new(registry.clone());
    for i in 0..WARM_REQUESTS {
        conn.handle_frame(&frames[i % frames.len()]);
        assert!(!conn.output().is_empty());
        conn.clear_output();
    }

    let before = allocs_on_this_thread();
    for i in 0..MEASURED_REQUESTS {
        conn.handle_frame(&frames[i % frames.len()]);
        conn.clear_output();
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "warm point reads must not allocate ({delta} allocations across {MEASURED_REQUESTS} requests)"
    );

    // sanity: every measured request actually took the fast path
    let fast = registry
        .counters
        .fast_point_reads
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(fast as usize, WARM_REQUESTS + MEASURED_REQUESTS);
}

/// Allocations a warm binary INSERT into `thoughts` may make on the
/// serving thread — what the store keeps, and nothing around it: 0 to
/// decode the request (the connection decodes into the request it kept:
/// the same text is not rewritten, the parameter list and its strings keep
/// their buffers), 1 for the entry (the primary key, then the record, in
/// one buffer the store keeps as it is), 0 for the `{"ok":true}` answer
/// (printed without a tree) and a fraction for the store's tree nodes
/// (1.16 measured). Each secondary index adds its entry's key and its own
/// tree's fraction (2.31 with one). At 422cd00 the same insert made 9.16:
/// 4 to decode (text, parameter list, two strings), 2 for the answer's
/// tree and 1 growing the key into the entry on top; until the record
/// was encoded behind its key, 1 more for the record as a buffer of its
/// own (2.16, 3.31). A parse, a catalog clone, a payload copy or a
/// decoded buffer no longer reused adds at least one.
const INSERT_ALLOC_BUDGET: f64 = 1.5;
const INSERT_ALLOC_BUDGET_ONE_INDEX: f64 = 2.5;

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn warm_binary_inserts_stay_within_their_allocation_budget() {
    let _turn = one_at_a_time();
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    let config = ScadrConfig {
        users_per_node: 20,
        thoughts_per_user: 5,
        subscriptions_per_user: 4,
        ..Default::default()
    };
    scadr::setup(&db, &config, 2).unwrap();
    let registry = Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        SloConfig {
            slo_ms: 1e9,
            interval_confidence: 1.0,
            allow_degrade: false,
        },
    ));

    const WARM: usize = 2_000;
    const MEASURED: usize = 2_000;
    let wire = BinaryWire;
    let post_thought = scadr::queries(&config).post_thought;
    let mut next = 0usize;
    let mut frames = |n: usize| -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                next += 1;
                let mut frame = Vec::new();
                wire.encode_envelope(
                    &Envelope {
                        id: None,
                        request: Request::Dml {
                            sql: post_thought.clone(),
                            params: vec![
                                Value::Varchar(scadr::username(next % 40)).into(),
                                Value::Timestamp(2_000_000_000_000_000 + next as i64).into(),
                                Value::Varchar(format!("thought number {next}")).into(),
                            ],
                        },
                    },
                    &mut frame,
                );
                frame.split_off(4)
            })
            .collect()
    };

    let mut conn = BinaryConn::new(registry.clone());
    let mut allocs_per_insert = |frames: Vec<Vec<u8>>| {
        for frame in &frames[..WARM] {
            conn.handle_frame(frame);
            conn.clear_output();
        }
        let before = allocs_on_this_thread();
        for frame in &frames[WARM..] {
            conn.handle_frame(frame);
            conn.clear_output();
        }
        (allocs_on_this_thread() - before) as f64 / MEASURED as f64
    };

    // SCADr's reads use the primary key, so `thoughts` has no secondary
    // index: this is the benchmark's `post_v3` statement
    let plain = allocs_per_insert(frames(WARM + MEASURED));
    registry
        .db()
        .execute_ddl("CREATE INDEX thoughts_by_text ON thoughts (text)")
        .unwrap();
    let indexed = allocs_per_insert(frames(WARM + MEASURED));
    println!("allocations per warm binary insert: {plain:.3}, with one index {indexed:.3}");
    assert!(
        plain <= INSERT_ALLOC_BUDGET,
        "a warm insert made {plain:.2} allocations, budget {INSERT_ALLOC_BUDGET}"
    );
    assert!(
        indexed <= INSERT_ALLOC_BUDGET_ONE_INDEX,
        "with one index: {indexed:.2} allocations, budget {INSERT_ALLOC_BUDGET_ONE_INDEX}"
    );

    let writes = registry.db().write_plan_stats();
    assert_eq!(
        writes.compiles, 2,
        "one text, compiled once per catalog generation"
    );
    let executed = registry
        .counters
        .dml_executed
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        executed as usize,
        2 * (WARM + MEASURED),
        "every insert applied"
    );
}

/// Allocations per stage of one warm JSON INSERT, over the whole
/// process: decoding the line builds the `Request` (text, parameter list,
/// two strings: 4), `respond` makes what the store keeps (the entry) and
/// a fraction of a tree node (1.16 measured), and the `{"ok":true}` answer
/// is printed without a tree. At 422cd00 `respond` made 5.16: the key grew
/// into the entry once, and the answer was a `BTreeMap` of two
/// allocations; until the record was encoded behind its key, 2.16, the
/// record a buffer of its own.
const DML_DECODE_CEILING: f64 = 4.0;
const DML_RESPOND_CEILING: f64 = 1.5;
const DML_ENCODE_CEILING: f64 = 0.0;

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn warm_json_inserts_allocate_for_the_request_and_the_store_only() {
    let _turn = one_at_a_time();
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    let config = ScadrConfig {
        users_per_node: 20,
        thoughts_per_user: 5,
        subscriptions_per_user: 4,
        ..Default::default()
    };
    scadr::setup(&db, &config, 2).unwrap();
    let registry = Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        SloConfig {
            slo_ms: 1e9,
            interval_confidence: 1.0,
            allow_degrade: false,
        },
    ));

    const WARM: usize = 2_000;
    const MEASURED: usize = 2_000;
    let wire = JsonWire;
    let post_thought = scadr::queries(&config).post_thought;
    let frames: Vec<Vec<u8>> = (0..WARM + MEASURED)
        .map(|i| {
            let mut line = Vec::new();
            wire.encode_envelope(
                &Envelope {
                    id: Some((i as i64).into()),
                    request: Request::Dml {
                        sql: post_thought.clone(),
                        params: vec![
                            Value::Varchar(scadr::username(i % 40)).into(),
                            Value::Timestamp(2_000_000_000_000_000 + i as i64).into(),
                            Value::Varchar(format!("thought number {i}")).into(),
                        ],
                    },
                },
                &mut line,
            );
            line.pop();
            line
        })
        .collect();

    let mut session = Session::new();
    let mut out = Vec::new();
    let (mut decode, mut handle, mut encode) = (0, 0, 0);
    for (i, frame) in frames.iter().enumerate() {
        let (envelope, decoded) = process_allocs(|| wire.decode_envelope(frame).unwrap());
        let (reply, handled) =
            process_allocs(|| respond(&envelope.request, &mut session, &registry));
        out.clear();
        let ((), encoded) =
            process_allocs(|| wire.encode_reply(envelope.id.as_ref(), &reply, &mut out));
        assert_eq!(out, format!("{{\"id\":{i},\"ok\":true}}\n").as_bytes());
        if i >= WARM {
            decode += decoded;
            handle += handled;
            encode += encoded;
        }
    }
    let per_insert = |n: u64| n as f64 / MEASURED as f64;
    let (decode, handle, encode) = (per_insert(decode), per_insert(handle), per_insert(encode));
    println!(
        "allocations per warm JSON insert: decode_envelope {decode:.2}, respond {handle:.2}, \
         encode_reply {encode:.2}"
    );
    assert!(decode <= DML_DECODE_CEILING, "decode_envelope: {decode:.2}");
    assert!(handle <= DML_RESPOND_CEILING, "respond: {handle:.2}");
    assert!(encode <= DML_ENCODE_CEILING, "encode_reply: {encode:.2}");
}

/// Allocations per stage of one warm JSON page view — a `batch` of the
/// four SCADr reads for a user with 10 subscriptions and 10 thoughts,
/// answering 1 + 10 + 10 + 10 rows — counted over the whole process.
/// What is left is the `Request` that is kept (13 — the line is read in
/// place, no tree) and the rows: two buffers per result block — rows are
/// decoded straight into one packed `Rows` per operator, no vector per
/// row, no `String` per field, no left row copied per join output — and a
/// vector of four replies (13.0). The keys, rounds and store answers the
/// reads are made with are the executing thread's, kept from its last
/// page view; nothing for the response, which both codecs print from the
/// blocks. At 8e3b630 `respond` made 44.0: per scan its start key, end
/// bound and range answer, per join a probe buffer, a packed round and an
/// answer block, and the sorted join's merge order. At 52f8695, 115.9: a
/// key and a bound per probe, a record per get, an answer per range and
/// the two joins' rounds scattered over the pool. At f7a4128 the three
/// stages made 13, 314.9 (a `Vec<Value>` per row and a `String` per field)
/// and 0; at 25fd9a5, 67, 1444 and 347. A tree per line adds fifty to the
/// first; a key, round or answer built per execution again adds one to
/// three a statement to the second, a vector per probe or per entry
/// fetched 19 or 121 a page view, a scattered round eight; a per-row or
/// per-field allocation between store and socket ten or more to a
/// statement.
const DECODE_ENVELOPE_CEILING: f64 = 14.0;
const RESPOND_CEILING: f64 = 13.5;
const ENCODE_REPLY_CEILING: f64 = 0.0;
/// What the application's side makes of that response. `decode_response`
/// builds its tree a nesting level at a time: the members of every array
/// on one level in one block, those of every object in another, each
/// string of up to 22 bytes in place — six blocks for a page view, one
/// per level, however many rows it holds (measured 6). At f460500 it made
/// 134, one block per array and object: 31 rows, 93 tagged values and 10
/// containers; at 02f15c6, 321: per tagged value a `BTreeMap` node, its
/// key and its string. A block per container again adds 128 a page view,
/// a string or key allocated again 93.
const CLIENT_TREE_CEILING: f64 = 6.5;
/// A `decode_page` per result turns the tree into tuples, each page and
/// row sized once, one `String` per string value (measured 108; 114 at
/// 02f15c6, where every row and page grew by doubling).
const DECODE_PAGE_CEILING: f64 = 108.5;
/// Per execution of `find_user`, `users_followed`, `recent_thoughts`,
/// `thoughtstream` through `execute_governed`: their result blocks
/// (measured 2, 4, 2, 4; at 8e3b630: 6, 14, 6, 17; at 52f8695: 6, 40.4,
/// 6.4, 62.1; at f7a4128: 9, 118.4, 35.4, 151.1).
const EXECUTE_CEILINGS: [f64; 4] = [2.5, 4.5, 2.5, 4.5];

/// The four SCADr reads a page view makes, in the order it makes them.
const PAGE_VIEW_READS: [&str; 4] = [
    "find_user",
    "users_followed",
    "recent_thoughts",
    "thoughtstream",
];
const PAGE_VIEW_USERS: usize = 40;

fn page_view_user(i: usize) -> Vec<ParamValue> {
    vec![ParamValue::Scalar(Value::Varchar(scadr::username(
        i % PAGE_VIEW_USERS,
    )))]
}

/// SCADr with 10 subscriptions and 10 thoughts a user and the page-view
/// reads registered, and for each user one `batch` line of the four as
/// the server's read loop delivers it (no newline).
fn page_view_setup() -> (Arc<StatementRegistry>, Vec<Vec<u8>>) {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    let config = ScadrConfig {
        users_per_node: PAGE_VIEW_USERS,
        thoughts_per_user: 10,
        subscriptions_per_user: 10,
        ..Default::default()
    };
    scadr::setup(&db, &config, 1).unwrap();
    let registry = Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        SloConfig {
            slo_ms: 1e9,
            interval_confidence: 1.0,
            allow_degrade: false,
        },
    ));
    let q = scadr::queries(&config);
    for (name, sql) in PAGE_VIEW_READS.iter().zip([
        &q.find_user,
        &q.users_followed,
        &q.recent_thoughts,
        &q.thoughtstream,
    ]) {
        assert!(registry.register(name, sql).unwrap().is_admitted());
    }
    let frames = (0..PAGE_VIEW_USERS)
        .map(|i| {
            let requests = PAGE_VIEW_READS.iter().map(|name| Request::Execute {
                name: name.to_string(),
                params: page_view_user(i),
                cursor: None,
            });
            let mut line = Vec::new();
            JsonWire.encode_envelope(
                &Envelope {
                    id: Some((i as i64).into()),
                    request: Request::Batch {
                        requests: requests.collect(),
                    },
                },
                &mut line,
            );
            line.pop(); // the newline: frames arrive without their framing
            line
        })
        .collect();
    (registry, frames)
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn warm_json_page_views_allocate_for_rows_not_for_layers() {
    let _turn = one_at_a_time();
    let (registry, frames) = page_view_setup();
    const WARM: usize = 400;
    const MEASURED: usize = 400;
    let wire = JsonWire;
    let mut session = Session::new();
    let mut out = Vec::new();
    let (mut decode, mut handle, mut encode, mut client) = (0, 0, 0, [0; 2]);
    for i in 0..WARM + MEASURED {
        let frame = &frames[i % PAGE_VIEW_USERS];
        let (envelope, decoded) = process_allocs(|| wire.decode_envelope(frame).unwrap());
        let (reply, handled) =
            process_allocs(|| respond(&envelope.request, &mut session, &registry));
        out.clear();
        let ((), encoded) =
            process_allocs(|| wire.encode_reply(envelope.id.as_ref(), &reply, &mut out));
        // the application's side: the response decoded, each page read
        let ((_, body), read) =
            process_allocs(|| wire.decode_response(&out[..out.len() - 1]).unwrap());
        let ((), paged) = process_allocs(|| {
            for result in body.get("results").unwrap().as_arr().unwrap() {
                decode_page(result).unwrap();
            }
        });
        if i >= WARM {
            decode += decoded;
            handle += handled;
            encode += encoded;
            client[0] += read;
            client[1] += paged;
        }
        if i == 0 {
            // what is being measured is the page view the comment describes
            let rows: Vec<usize> = body
                .get("results")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|r| r.get("rows").unwrap().as_arr().unwrap().len())
                .collect();
            assert_eq!(rows, [1, 10, 10, 10]);
        }
    }
    let per_request = |n: u64| n as f64 / MEASURED as f64;
    let (decode, handle, encode, [tree, pages]) = (
        per_request(decode),
        per_request(handle),
        per_request(encode),
        client.map(per_request),
    );

    let mut executes = [0.0; 4];
    for (slot, name) in executes.iter_mut().zip(PAGE_VIEW_READS) {
        let total: u64 = (0..MEASURED)
            .map(|i| {
                let params = page_view_user(i);
                let (result, made) = process_allocs(|| {
                    registry.execute_governed(&mut session, name, params.as_slice(), None)
                });
                assert!(result.is_ok());
                made
            })
            .sum();
        *slot = per_request(total);
    }
    println!(
        "allocations per warm JSON page view: decode_envelope {decode:.2}, respond {handle:.2}, \
         encode_reply {encode:.2}; client decode_response {tree:.2}, decode_page {pages:.2}; \
         per execute_governed {PAGE_VIEW_READS:?} = {executes:.2?}"
    );
    assert!(
        decode <= DECODE_ENVELOPE_CEILING,
        "decode_envelope: {decode:.2}"
    );
    assert!(handle <= RESPOND_CEILING, "respond: {handle:.2}");
    assert!(encode <= ENCODE_REPLY_CEILING, "encode_reply: {encode:.2}");
    assert!(tree <= CLIENT_TREE_CEILING, "decode_response: {tree:.2}");
    assert!(pages <= DECODE_PAGE_CEILING, "decode_page: {pages:.2}");
    for ((name, made), ceiling) in PAGE_VIEW_READS.iter().zip(executes).zip(EXECUTE_CEILINGS) {
        assert!(
            made <= ceiling,
            "{name}: {made:.2} allocations, ceiling {ceiling}"
        );
    }
}

/// A decoded page view is freed whole, whichever of its parts goes last:
/// a row kept past its document holds the blocks it reads from, and
/// nothing is left once it goes too. A level's block points only at the
/// levels below it, so no reference cycle can keep one alive.
#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_decoded_page_view_is_freed_whole() {
    let _turn = one_at_a_time();
    let (registry, frames) = page_view_setup();
    let wire = JsonWire;
    let mut session = Session::new();
    let envelope = wire.decode_envelope(&frames[3]).unwrap();
    let mut out = Vec::new();
    let reply = respond(&envelope.request, &mut session, &registry);
    wire.encode_reply(envelope.id.as_ref(), &reply, &mut out);
    let line = &out[..out.len() - 1];
    // the thread's tree scratch, grown once
    wire.decode_response(line).unwrap();

    let start = live_bytes_on_this_thread();
    let (_, body) = wire.decode_response(line).unwrap();
    let held = live_bytes_on_this_thread() - start;
    let results = body.get("results").unwrap().as_arr().unwrap();
    let rows = results[3].get("rows").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 10);
    // keeping a row copies nothing
    let (row, made, _) = thread_allocs(|| rows[4].clone());
    assert_eq!(made, 0, "a clone of a decoded row allocates");
    drop(body);
    let kept = live_bytes_on_this_thread() - start;
    assert!(
        0 < kept && kept < held,
        "the row keeps its levels, the rest goes: {kept} of {held} bytes"
    );
    assert_eq!(row.as_arr().map(<[_]>::len), Some(3));
    drop(row);
    assert_eq!(live_bytes_on_this_thread(), start, "bytes left behind");
}

/// A binary `{"ok":true}` answer — every `post_v3` insert's — decodes to
/// one block: the root object's one field, 56 bytes, with no reference
/// count, since it is the only container on its level.
#[test]
fn a_binary_ok_decodes_in_one_block() {
    let _turn = one_at_a_time();
    let mut frame = Vec::new();
    BinaryWire.encode_reply(None, &Reply::Done, &mut frame);
    let body = &frame[4..];
    // the thread's tree scratch, grown once
    BinaryWire.decode_response(body).unwrap();
    let ((id, doc), made, bytes) = thread_allocs(|| BinaryWire.decode_response(body).unwrap());
    assert_eq!((id, doc), (None, ok_response([])));
    assert_eq!((made, bytes), (1, 56));
}

/// Per warm execution of each TPC-W Table-1 read through
/// `execute_governed`, in `tpcw::TABLE1_SQL` order: its result blocks — a
/// collection parameter's, each remote operator's, a projection's — and
/// nothing for the keys, rounds, answers, merge orders or search tokens it
/// reads with (measured 2, 3, 3, 3, 5, 4, 5, 2, 4, 4; at 8e3b630: 6, 9,
/// 27, 13, 35, 31, 21, 18, 14, 14).
const TPCW_EXECUTE_CEILINGS: [f64; 10] = [2.5, 3.5, 3.5, 3.5, 5.5, 4.5, 5.5, 2.5, 4.5, 4.5];

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn warm_tpcw_reads_allocate_for_their_rows() {
    let _turn = one_at_a_time();
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    let config = tpcw::TpcwConfig {
        items: 400,
        customers_per_node: 30,
        ..Default::default()
    };
    let (_, _, orders) = tpcw::setup(&db, &config, 1).unwrap();
    let registry = Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        SloConfig {
            slo_ms: 1e9,
            interval_confidence: 1.0,
            allow_degrade: false,
        },
    ));
    let text = |s: &str| vec![ParamValue::Scalar(Value::Varchar(s.into()))];
    let int = |i: i32| vec![ParamValue::Scalar(Value::Int(i))];
    let customer = text(&tpcw::customer_uname(11));
    let promotions = [3, 77, 150, 399, 4_000].map(Value::Int).to_vec();
    // in `tpcw::TABLE1_SQL` order, each answering rows
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
    let mut session = Session::new();
    const WARM: usize = 100;
    const MEASURED: usize = 100;
    let mut executes = [0.0; 10];
    for (i, ((label, sql), params)) in tpcw::TABLE1_SQL.iter().zip(&params).enumerate() {
        assert!(
            registry.register(label, sql).unwrap().is_admitted(),
            "{label}"
        );
        let mut run = || {
            let outcome = registry.execute_governed(&mut session, label, params.as_slice(), None);
            assert!(!outcome.unwrap().result.rows.is_empty(), "{label}");
        };
        for _ in 0..WARM {
            run();
        }
        let ((), made) = process_allocs(|| (0..MEASURED).for_each(|_| run()));
        executes[i] = made as f64 / MEASURED as f64;
    }
    println!("allocations per warm TPC-W read, in Table-1 order: {executes:.2?}");
    for (((label, _), made), ceiling) in tpcw::TABLE1_SQL
        .iter()
        .zip(executes)
        .zip(TPCW_EXECUTE_CEILINGS)
    {
        assert!(
            made <= ceiling,
            "{label}: {made:.2} allocations, ceiling {ceiling}"
        );
    }
}
