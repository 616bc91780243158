//! The cost table: what each statement shape costs each layer, in heap
//! allocations, bytes asked for and bytes still held, as exact totals over
//! a fixed count of single-threaded requests. `tests/cost_golden.txt`
//! holds the table; a change that moves any count shows here as a line of
//! text, and that file's history is the history of every count.
//!
//! One counting `#[global_allocator]` wraps the system allocator and counts
//! per thread, so other tests' threads and the store's pool workers never
//! reach a row. Every store here serves its rounds on the calling thread
//! (no service time to overlap), so a row is the whole of its work.
//!
//! Besides the rows, the relations that make a row mean something are
//! asserted where they are measured: a warm point read allocates nothing,
//! and so does a warm tagged page view on the server; a result set costs
//! the same for 1, 10 and 100 rows, and so does a range answer; a decoded
//! page view is freed whole; a warm put or test-and-set allocates nothing
//! but arena chunks, and what overwrites leave dead is reclaimed; and a
//! rebalance after set-up moves nothing.
//!
//! The table's store section — what one execution of each statement
//! spends at the store, beside its plan's bound — is pinned by
//! `read_cost.rs` and `write_bound.rs`, from the module `store_rows`, which
//! also holds the page-view SCADr and TPC-W set-up those rows share with
//! the allocation rows here. Its durable section, pinned here, is the log
//! records and fsyncs of a write acknowledged on a durable stack's ordered
//! lane; that test counts no allocations, so `lock-order` builds run it
//! too.

use piql_core::catalog::Catalog;
use piql_core::plan::params::{ParamValue, Params};
use piql_core::tuple;
use piql_core::value::{Value, ValueRef};
use piql_durability::{Durability, DurabilityConfig, RecoveredState, WalRecord};
use piql_engine::{Database, Prepared, QueryResult};
use piql_kv::testkit::swap;
use piql_kv::{
    BulkFeed, KvEntry, KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, NsBalance, NsId,
    ReadAnswer, ReadRound, Session, WalSink, MILLIS,
};
use piql_predict::{LatencyHistogram, ModelKey, ModelStore, OpKind, SharedModelStore};
use piql_server::protocol::ok_response;
use piql_server::server::respond;
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{
    decode_page, open_durable, BinaryConn, BinaryWire, Dispatch, DurableOptions, Envelope,
    JsonConn, JsonWire, Reply, Request, StatementRegistry, Wire,
};
use piql_workloads::scadr::{self, ScadrConfig};
use piql_workloads::tpcw;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::ops::{AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod store_rows;
use store_rows::{
    assert_pinned, golden, page_view_registry, page_view_user, scadr_registry, tpcw_registry,
    PAGE_VIEW_READS, PAGE_VIEW_USERS,
};

// ------------------------------------------------------------ counting

/// What a thread has asked of the allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    /// Calls that hand out memory: alloc, alloc_zeroed, realloc.
    allocs: u64,
    /// Bytes those calls asked for (a realloc asks for its new size).
    bytes: u64,
    /// Bytes held now: asked for, less given back.
    held: i64,
}

impl Sub for Counts {
    type Output = Counts;
    fn sub(self, before: Counts) -> Counts {
        Counts {
            allocs: self.allocs - before.allocs,
            bytes: self.bytes - before.bytes,
            held: self.held - before.held,
        }
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, more: Counts) {
        self.allocs += more.allocs;
        self.bytes += more.bytes;
        self.held += more.held;
    }
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocs: 0, bytes: 0, held: 0 })
    };
}

/// Book a call that asked for `bytes` (none for a free) and changed the
/// bytes held by `held`.
fn book(calls: u64, bytes: usize, held: i64) {
    // `try_with`: TLS may already be torn down during thread exit
    let _ = COUNTS.try_with(|c| {
        let now = c.get();
        c.set(Counts {
            allocs: now.allocs + calls,
            bytes: now.bytes + bytes as u64,
            held: now.held + held,
        })
    });
}

struct CountingAlloc;

// SAFETY: every call goes to `System` with its arguments as they came; the
// bookkeeping beside it touches a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(1, layout.size(), layout.size() as i64);
        // SAFETY: the caller's contract is `System.alloc`'s own
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(1, layout.size(), layout.size() as i64);
        // SAFETY: as above
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(1, new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: as above
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(0, 0, -(layout.size() as i64));
        // SAFETY: as above
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// What `f` returns, and what it asked of the allocator on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = COUNTS.with(Cell::get);
    let value = f();
    (value, COUNTS.with(Cell::get) - before)
}

#[test]
fn the_allocator_counts_calls_bytes_and_what_is_held() {
    let all = |c: Counts| (c.allocs, c.bytes, c.held);
    let (mut v, made) = counted(|| Vec::<u64>::with_capacity(10));
    assert_eq!(all(made), (1, 80, 80));
    v.extend(0..10);
    let ((), grown) = counted(|| v.push(10));
    assert_eq!(all(grown), (1, 160, 80), "a grow is one call");
    let ((), freed) = counted(|| drop(v));
    assert_eq!(all(freed), (0, 0, -160));
}

// --------------------------------------------------------------- table

/// The rows, as `tests/cost_golden.txt` holds them.
struct Table(String);

impl Table {
    fn section(&mut self, title: &str) {
        let _ = writeln!(self.0, "\n== {title}");
    }

    /// The name column's header, then `columns`, lined up with the rows.
    fn header(&mut self, columns: &str) {
        let _ = writeln!(self.0, "{:<54} {columns}", "shape · layer");
    }

    /// `n` requests of `shape` cost `layer` `counts` in all.
    fn row(&mut self, shape: &str, layer: &str, n: u64, counts: Counts) {
        self.line(shape, layer, n, counts, &counts.held);
    }

    /// A row whose bytes held are not this thread's to count: what it
    /// frees goes on whichever thread lets go of it last.
    fn row_freed_elsewhere(&mut self, shape: &str, layer: &str, n: u64, counts: Counts) {
        self.line(shape, layer, n, counts, &"-");
    }

    fn line(&mut self, shape: &str, layer: &str, n: u64, counts: Counts, held: &dyn Display) {
        let (name, Counts { allocs, bytes, .. }) = (format!("{shape} · {layer}"), counts);
        let row = format!("{name:<54} {n:>6} {allocs:>7} {bytes:>10} {held:>10}");
        let _ = writeln!(self.0, "{row}");
    }
}

#[test]
// Rank tracking in `lock-order` builds keeps per-thread held-lock state
// (and captures backtraces), which allocates by design.
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn every_cost_row_is_pinned() {
    let mut table = Table(String::new());
    table.header("     n  allocs      bytes       held");
    server_rows(&mut table);
    engine_rows(&mut table);
    kv_rows(&mut table);
    durability_rows(&mut table);
    model_rows(&mut table);
    setup_rows(&mut table);
    assert_pinned(&table.0, golden(None, Some("store")));
}

/// SCADr of 20 users a node.
fn small_config() -> ScadrConfig {
    ScadrConfig {
        users_per_node: 20,
        thoughts_per_user: 5,
        subscriptions_per_user: 4,
        ..Default::default()
    }
}

/// SCADr on two nodes of 20 users, and its `post_thought` INSERT.
fn small_scadr() -> (Arc<StatementRegistry>, String) {
    let config = small_config();
    let sql = scadr::queries(&config).post_thought;
    let store = LiveCluster::new(LiveConfig::default());
    (scadr_registry(store, &config, 2), sql)
}

/// `frame` served as a JSON connection serves it: decoded into the
/// envelope the connection keeps (`kept`, its one kept envelope, let go
/// once it holds more than the connection may keep,
/// [`Envelope::worth_keeping`], as the server's reader lets go of one),
/// its answer printed into `out` and its result blocks then handed back to
/// this thread. What decoding, `respond` and `encode_reply` cost.
fn serve_json(
    registry: &StatementRegistry,
    session: &mut Session,
    kept: &mut Envelope,
    frame: &[u8],
    out: &mut Vec<u8>,
) -> [Counts; 3] {
    let ((), decoded) = counted(|| JsonWire.decode_into(frame, kept).unwrap());
    let (reply, handled) = counted(|| respond(&kept.request, session, registry));
    out.clear();
    let ((), encoded) = counted(|| JsonWire.encode_reply(kept.id.as_ref(), &reply, out));
    reply.give_back();
    if !kept.worth_keeping() {
        *kept = fresh_envelope();
    }
    [decoded, handled, encoded]
}

fn fresh_envelope() -> Envelope {
    Envelope {
        id: None,
        request: Request::Stats,
    }
}

/// `frames` served one by one as a JSON connection serves them, the first
/// `warm` of them uncounted; `check` reads each answer as printed. What
/// each stage costs the rest.
fn serve_json_stages(
    registry: &StatementRegistry,
    frames: &[Vec<u8>],
    warm: usize,
    mut check: impl FnMut(usize, &[u8]),
) -> [Counts; 3] {
    let (mut session, mut kept, mut out) = (Session::new(), fresh_envelope(), Vec::new());
    let mut stages = [Counts::default(); 3];
    for (i, frame) in frames.iter().enumerate() {
        let made = serve_json(registry, &mut session, &mut kept, frame, &mut out);
        check(i, &out);
        if i >= warm {
            for (stage, made) in stages.iter_mut().zip(made) {
                *stage += made;
            }
        }
    }
    stages
}

/// The three stages of serving a JSON request, as the table names them.
const JSON_STAGES: [&str; 3] = ["decode_envelope", "respond", "encode_reply"];

/// `request` as the server's read loop delivers it on a v3 connection: a
/// frame's body, without its length.
fn binary_frame(request: Request) -> Vec<u8> {
    let mut frame = Vec::new();
    BinaryWire.encode_envelope(&Envelope { id: None, request }, &mut frame);
    frame.split_off(4)
}

/// Request `id` (untagged: `None`) as the server's read loop delivers it
/// on a JSON connection: a line, without its newline.
fn json_line(id: Option<usize>, request: Request) -> Vec<u8> {
    let id = id.map(|id| (id as i64).into());
    let mut line = Vec::new();
    JsonWire.encode_envelope(&Envelope { id, request }, &mut line);
    line.pop();
    line
}

/// The SCADr `post_thought` INSERT of thought `i`.
fn post(sql: &str, i: usize) -> Request {
    Request::Dml {
        sql: sql.to_string(),
        params: vec![
            Value::Varchar(scadr::username(i % 40)).into(),
            Value::Timestamp(2_000_000_000_000_000 + i as i64).into(),
            Value::Varchar(format!("thought number {i}")).into(),
        ],
    }
}

fn server_rows(table: &mut Table) {
    table.section("server: SCADr on LiveCluster, a connection or `respond` on this thread");
    point_reads(table);
    json_point_reads(table);
    binary_inserts(table);
    json_inserts(table);
    page_views(table);
    tpcw_reads(table);
    tpcw_decodes(table);
}

/// The v3 fast lane: decode → registry lookup → `point_get` → encode, zero
/// allocations once warm. The warm-up fills the cluster's sample sink
/// (65,536 samples, dropped, not grown, once full).
fn point_reads(table: &mut Table) {
    const WARM: usize = 72_000;
    const MEASURED: usize = 2_000;
    let (registry, _) = small_scadr();
    registry
        .register("point", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
    assert!(registry.get("point").unwrap().fast_point().is_some());
    // hits, and a miss, which is a hot-path answer too
    let frames: Vec<Vec<u8>> = (0..40)
        .map(|i| {
            let name = if i == 13 {
                "absent-user".to_string()
            } else {
                scadr::username(i)
            };
            let request = Request::Execute {
                name: "point".into(),
                params: vec![Value::Varchar(name).into()],
                cursor: None,
            };
            binary_frame(request)
        })
        .collect();
    let mut conn = BinaryConn::new(registry.clone());
    let mut serve = |n: usize| {
        for i in 0..n {
            conn.handle_frame(&frames[i % frames.len()]);
            assert!(!conn.output().is_empty());
            conn.clear_output();
        }
    };
    serve(WARM);
    let ((), made) = counted(|| serve(MEASURED));
    let fast = registry.counters.fast_point_reads.load(Ordering::Relaxed);
    assert_eq!(
        fast as usize,
        WARM + MEASURED,
        "every read took the fast lane"
    );
    assert_eq!(made.allocs, 0, "warm point reads allocate");
    table.row("v3 point read", "handle_frame", MEASURED as u64, made);
}

/// The same point read on a JSON connection, stage by stage: the general
/// path, whose answer is one result block, handed back once printed.
fn json_point_reads(table: &mut Table) {
    const WARM: usize = 2_000;
    const MEASURED: usize = 2_000;
    let (registry, _) = small_scadr();
    registry
        .register("point", "SELECT * FROM users WHERE username = <u>")
        .unwrap();
    let frames: Vec<Vec<u8>> = (0..WARM + MEASURED)
        .map(|i| {
            let request = Request::Execute {
                name: "point".into(),
                params: vec![Value::Varchar(scadr::username(i % 40)).into()],
                cursor: None,
            };
            json_line(Some(i), request)
        })
        .collect();
    let stages = serve_json_stages(&registry, &frames, WARM, |i, out| {
        let user = scadr::username(i % 40);
        assert!(out.windows(user.len()).any(|w| w == user.as_bytes()));
    });
    for (layer, made) in JSON_STAGES.iter().zip(stages) {
        table.row("v2 point read", layer, MEASURED as u64, made);
    }
}

/// A warm v3 `post_thought` INSERT, with no secondary index (the
/// benchmark's `post_v3` statement) and with one.
fn binary_inserts(table: &mut Table) {
    const WARM: usize = 2_000;
    const MEASURED: usize = 2_000;
    let (registry, sql) = small_scadr();
    let mut conn = BinaryConn::new(registry.clone());
    let mut next = 0;
    for shape in ["v3 insert", "v3 insert, 1 index"] {
        if shape != "v3 insert" {
            let index = "CREATE INDEX thoughts_by_text ON thoughts (text)";
            registry.db().execute_ddl(index).unwrap();
        }
        let frames: Vec<Vec<u8>> = (next..next + WARM + MEASURED)
            .map(|i| binary_frame(post(&sql, i + 1)))
            .collect();
        next += WARM + MEASURED;
        let mut serve = |frames: &[Vec<u8>]| {
            for frame in frames {
                conn.handle_frame(frame);
                conn.clear_output();
            }
        };
        serve(&frames[..WARM]);
        let ((), made) = counted(|| serve(&frames[WARM..]));
        table.row(shape, "handle_frame", MEASURED as u64, made);
    }
    assert_eq!(registry.db().write_plan_stats().compiles, 2);
    let executed = registry.counters.dml_executed.load(Ordering::Relaxed);
    assert_eq!(executed as usize, next, "every insert applied");
}

/// A warm v2 INSERT, stage by stage.
fn json_inserts(table: &mut Table) {
    const WARM: usize = 2_000;
    const MEASURED: usize = 2_000;
    let (registry, sql) = small_scadr();
    let frames: Vec<Vec<u8>> = (0..WARM + MEASURED)
        .map(|i| json_line(Some(i), post(&sql, i)))
        .collect();
    let stages = serve_json_stages(&registry, &frames, WARM, |i, out| {
        assert_eq!(out, format!("{{\"id\":{i},\"ok\":true}}\n").as_bytes());
    });
    for (layer, made) in JSON_STAGES.iter().zip(stages) {
        table.row("v2 insert", layer, MEASURED as u64, made);
    }
}

/// A JSON page view — a `batch` of the four SCADr reads, answering
/// 1 + 10 + 10 + 10 rows — stage by stage, the application's decode of the
/// response included; then each read alone through `execute_governed`.
fn page_views(table: &mut Table) {
    const WARM: usize = 400;
    const MEASURED: usize = 400;
    let registry = page_view_registry(LiveCluster::new(LiveConfig::default()));
    let frames: Vec<Vec<u8>> = (0..PAGE_VIEW_USERS)
        .map(|i| {
            let requests = PAGE_VIEW_READS.iter().map(|name| Request::Execute {
                name: name.to_string(),
                params: page_view_user(i),
                cursor: None,
            });
            let requests = requests.collect();
            json_line(Some(i), Request::Batch { requests })
        })
        .collect();
    let (mut session, mut kept, mut out) = (Session::new(), fresh_envelope(), Vec::new());
    let mut stages = [Counts::default(); 5];
    for i in 0..WARM + MEASURED {
        let frame = &frames[i % PAGE_VIEW_USERS];
        let [decoded, handled, encoded] =
            serve_json(&registry, &mut session, &mut kept, frame, &mut out);
        let line = &out[..out.len() - 1];
        let ((_, body), read) = counted(|| JsonWire.decode_response(line).unwrap());
        let results = body.get("results").unwrap().as_arr().unwrap();
        let ((), paged) = counted(|| {
            for result in results {
                decode_page(result).unwrap();
            }
        });
        if i == 0 {
            let rows = results
                .iter()
                .map(|r| r.get("rows").unwrap().as_arr().unwrap().len());
            assert_eq!(rows.collect::<Vec<_>>(), [1, 10, 10, 10]);
        }
        if i >= WARM {
            for (stage, made) in stages
                .iter_mut()
                .zip([decoded, handled, encoded, read, paged])
            {
                *stage += made;
            }
        }
    }
    let layers = [
        "decode_envelope",
        "respond",
        "encode_reply",
        "client decode_response",
        "client decode_page",
    ];
    for (layer, made) in layers.iter().zip(stages) {
        table.row("v2 page view", layer, MEASURED as u64, made);
    }
    tagged_page_views(table, &registry, &frames);
    // each read alone, its answer handed back as a connection hands it
    // back once printed
    let users: Vec<Vec<ParamValue>> = (0..PAGE_VIEW_USERS).map(page_view_user).collect();
    for name in PAGE_VIEW_READS {
        let made = governed(&registry, name, &users, MEASURED);
        let shape = format!("page view {name}");
        table.row(&shape, "execute_governed", MEASURED as u64, made);
    }
    second_pages(table, &registry, &users);
    page_view_is_freed_whole(&registry, &frames[3]);
    ok_is_one_block(table);
}

/// The same page views as tagged requests on a connection whose dispatch
/// has no workers, so each one's decode and its job — the dispatch hop,
/// `respond`, printing the answer and handing its buffers back — run on
/// this thread, inside `handle_frame`, the job as a worker runs it. The store's sample sink is
/// emptied before the measured views, as a re-validation sweep empties it,
/// so no sample buffer grows among them: what is left is the server's path.
fn tagged_page_views(table: &mut Table, registry: &Arc<StatementRegistry>, frames: &[Vec<u8>]) {
    const WARM: usize = 400;
    const MEASURED: usize = 400;
    let dispatch = Arc::new(Dispatch::new(registry.clone(), 0));
    let mut conn = JsonConn::new(registry.clone(), dispatch, 0);
    let ids: Vec<String> = (0..frames.len())
        .map(|i| format!("{{\"id\":{i},\"ok\":true"))
        .collect();
    let mut out = Vec::new();
    let mut serve = |n: usize| {
        for i in 0..n {
            conn.handle_frame(&frames[i % frames.len()]);
            out.clear();
            conn.take_output(&mut out);
            assert!(out.starts_with(ids[i % frames.len()].as_bytes()));
        }
    };
    serve(WARM);
    registry.db().cluster().sample_sink().drain();
    let ((), made) = counted(|| serve(MEASURED));
    assert_eq!(made.allocs, 0, "a warm tagged page view allocates");
    table.row(
        "v2 page view, tagged",
        "handle_frame",
        MEASURED as u64,
        made,
    );
}

/// The second page of a paginated scan of a user's thoughts, resumed from
/// the first page's cursor, its answer and its cursor handed back.
fn second_pages(table: &mut Table, registry: &StatementRegistry, users: &[Vec<ParamValue>]) {
    const MEASURED: usize = 400;
    let sql = "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 4";
    assert!(registry.register("pages", sql).unwrap().is_admitted());
    let mut session = Session::new();
    let cursors: Vec<_> = users
        .iter()
        .map(|params| {
            let first = registry.execute_governed(&mut session, "pages", params.as_slice(), None);
            first.unwrap().result.cursor.unwrap()
        })
        .collect();
    let mut run = |n: usize| {
        for i in 0..n {
            let (params, cursor) = (users[i % users.len()].as_slice(), &cursors[i % users.len()]);
            let outcome = registry.execute_governed(&mut session, "pages", params, Some(cursor));
            let QueryResult { rows, cursor } = outcome.unwrap().result;
            assert_eq!(rows.len(), 4);
            // handed back as a connection hands back an answer it printed
            let degraded = false;
            Reply::Rows {
                rows,
                cursor,
                degraded,
            }
            .give_back();
        }
    };
    run(MEASURED);
    let ((), made) = counted(|| run(MEASURED));
    table.row(
        "paginated scan, page 2",
        "execute_governed",
        MEASURED as u64,
        made,
    );
}

/// A decoded page view is freed whole, whichever of its parts goes last: a
/// row kept past its document holds the levels it reads from, and nothing
/// is left once it goes too. A level's block points only at the levels
/// below it, so no reference cycle can keep one alive.
fn page_view_is_freed_whole(registry: &StatementRegistry, frame: &[u8]) {
    let mut out = Vec::new();
    serve_json(
        registry,
        &mut Session::new(),
        &mut fresh_envelope(),
        frame,
        &mut out,
    );
    let line = &out[..out.len() - 1];
    // the thread's tree scratch, grown once
    JsonWire.decode_response(line).unwrap();
    let ((_, body), decoded) = counted(|| JsonWire.decode_response(line).unwrap());
    let rows = body.get("results").unwrap().as_arr().unwrap()[3]
        .get("rows")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(rows.len(), 10);
    let (row, kept) = counted(|| rows[4].clone());
    assert_eq!(kept.allocs, 0, "a clone of a decoded row allocates");
    let ((), dropped) = counted(|| drop(body));
    let held = decoded.held + kept.held + dropped.held;
    assert!(
        0 < held && held < decoded.held,
        "the row keeps its levels, the rest goes: {held} of {} bytes",
        decoded.held
    );
    assert_eq!(row.as_arr().map(<[_]>::len), Some(3));
    let ((), last) = counted(|| drop(row));
    assert_eq!(held + last.held, 0, "bytes left behind");
}

/// A binary `{"ok":true}` answer — every `post_v3` insert's — as the
/// application decodes it.
fn ok_is_one_block(table: &mut Table) {
    let mut frame = Vec::new();
    BinaryWire.encode_reply(None, &Reply::Done, &mut frame);
    let body = &frame[4..];
    // the thread's tree scratch, grown once
    BinaryWire.decode_response(body).unwrap();
    let ((id, doc), made) = counted(|| BinaryWire.decode_response(body).unwrap());
    assert_eq!((id, doc), (None, ok_response([])));
    table.row("v3 ok answer", "client decode_response", 1, made);
}

/// Each TPC-W Table-1 read through `execute_governed`, warm, each
/// answering rows.
fn tpcw_reads(table: &mut Table) {
    const MEASURED: usize = 100;
    let (registry, params) = tpcw_registry(LiveCluster::new(LiveConfig::default()));
    for ((label, _), params) in tpcw::TABLE1_SQL.iter().zip(params) {
        let made = governed(&registry, label, &[params], MEASURED);
        let shape = format!("tpcw {label}");
        table.row(&shape, "execute_governed", MEASURED as u64, made);
    }
}

/// One TPC-W interaction of the ordering mix, as the benchmark's client
/// sends it: a `batch` of its statements, parameters drawn by `rng`.
/// `card` is its place on the mix's 0..100 deck.
fn tpcw_interaction(card: u32, rng: &mut StdRng) -> Request {
    let execute = |name: &str, params: Vec<ParamValue>| Request::Execute {
        name: name.to_string(),
        params,
        cursor: None,
    };
    let dml = |sql: &str, params: Vec<ParamValue>| Request::Dml {
        sql: sql.to_string(),
        params,
    };
    let int = |v: i32| -> ParamValue { Value::Int(v).into() };
    let text = |s: String| -> ParamValue { Value::Varchar(s).into() };
    let uname = text(tpcw::customer_uname(rng.gen_range(0..40_000)));
    let item = |rng: &mut StdRng| rng.gen_range(0..10_000);
    let word = |rng: &mut StdRng, words: &[&str]| text(words[rng.gen_range(0..words.len())].into());
    let requests = match card {
        0..=13 => {
            let promos = (0..5).map(|_| Value::Int(item(rng))).collect::<Vec<_>>();
            vec![
                execute("home_customer", vec![uname]),
                execute("home_promotions", vec![promos.into()]),
            ]
        }
        14..=24 => vec![execute("new_products", vec![word(rng, &tpcw::SUBJECTS)])],
        25..=40 => vec![execute("product_detail", vec![int(item(rng))])],
        41..=49 => vec![execute("search_author", vec![word(rng, &tpcw::SURNAMES)])],
        50..=58 => vec![execute("search_title", vec![word(rng, &tpcw::TITLE_WORDS)])],
        59..=71 => vec![
            execute("od_customer", vec![uname.clone()]),
            execute("od_last_order", vec![uname]),
            execute("od_lines", vec![int(rng.gen_range(1..i32::MAX))]),
        ],
        _ => {
            let (cart, order) = (rng.gen_range(1..i32::MAX), rng.gen_range(1..i32::MAX));
            let now: ParamValue = Value::Timestamp(rng.gen_range(0..i64::MAX)).into();
            let items: Vec<i32> = (0..rng.gen_range(1..4)).map(|_| item(rng)).collect();
            let mut requests = vec![dml(tpcw::INSERT_CART, vec![int(cart), now.clone()])];
            for &i in &items {
                let qty = rng.gen_range(1..4);
                requests.push(dml(
                    tpcw::INSERT_CART_LINE,
                    vec![int(cart), int(i), int(qty)],
                ));
            }
            requests.push(execute("buy_cart", vec![int(cart)]));
            requests.push(dml(tpcw::INSERT_ORDER, vec![int(order), uname, now]));
            for (l, &i) in items.iter().enumerate() {
                let line = vec![int(order), int(l as i32), int(i)];
                requests.push(dml(tpcw::INSERT_ORDER_LINE, line));
            }
            requests
        }
    };
    Request::Batch { requests }
}

/// The ordering mix's seven interactions as tagged JSON lines, dealt from
/// shuffled decks of 100 that hold each interaction's share of the mix, as
/// the benchmark deals them; then a JSON reader's decode of them: into the
/// one envelope it keeps, and into envelopes drawn from a pool of five in
/// a seeded order, as the dispatch workers' completion order hands spares
/// back to it. Either way a warm decode allocates nothing, whichever shape
/// the envelope held before.
fn tpcw_decodes(table: &mut Table) {
    const WARM: usize = 2_000;
    const MEASURED: usize = 2_000;
    const POOL: usize = 5;
    let mut rng = StdRng::seed_from_u64(62);
    let mut deck = Vec::new();
    let frames: Vec<Vec<u8>> = (0..WARM + MEASURED)
        .map(|i| {
            if deck.is_empty() {
                deck = (0..100).collect();
                for j in (1..deck.len()).rev() {
                    deck.swap(j, rng.gen_range(0..j + 1));
                }
            }
            let card = deck.pop().unwrap();
            json_line(Some(i), tpcw_interaction(card, &mut rng))
        })
        .collect();
    let draws: Vec<usize> = frames.iter().map(|_| rng.gen_range(0..POOL)).collect();
    for (shape, pool) in [("tpcw mix", 1), ("tpcw mix, pool of 5 envelopes", POOL)] {
        let mut envelopes: Vec<Envelope> = (0..pool).map(|_| fresh_envelope()).collect();
        let mut decode = |i: usize| {
            let kept = &mut envelopes[draws[i] % pool];
            JsonWire.decode_into(&frames[i], kept).unwrap();
            assert_eq!(kept.id, Some((i as i64).into()));
            if !kept.worth_keeping() {
                *kept = fresh_envelope();
            }
        };
        (0..WARM).for_each(&mut decode);
        let ((), made) = counted(|| (WARM..WARM + MEASURED).for_each(&mut decode));
        assert_eq!(made.allocs, 0, "{shape}: a warm decode allocates");
        table.row(shape, "decode_envelope", MEASURED as u64, made);
    }
}

/// What the registered read `name` costs through `execute_governed` over
/// `n` runs, after `n` uncounted, for each of `params` in turn, each
/// answering rows that are handed back as a connection hands them back
/// once printed.
fn governed<S: KvStore>(
    registry: &StatementRegistry<S>,
    name: &str,
    params: &[Vec<ParamValue>],
    n: usize,
) -> Counts {
    let mut session = Session::new();
    let mut run = |n: usize| {
        for i in 0..n {
            let params = params[i % params.len()].as_slice();
            let outcome = registry.execute_governed(&mut session, name, params, None);
            let rows = outcome.unwrap().result.rows;
            assert!(!rows.is_empty(), "{name}");
            piql_engine::exec::give_back(rows);
        }
    };
    run(n);
    counted(|| run(n)).1
}

// -------------------------------------------------------------- engine

fn engine_rows(table: &mut Table) {
    table.section("engine: Database on LiveCluster, one shard a namespace");
    result_sets(table);
    token_search(table);
    updates(table);
    borrowed_load(table);
    token_backfills(table);
}

const SIZES: [usize; 3] = [1, 10, 100];

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
       CARDINALITY LIMIT 100 (owner) )",
    "CREATE TABLE thoughts ( \
       owner VARCHAR(32) NOT NULL, \
       timestamp TIMESTAMP NOT NULL, \
       text VARCHAR(140), \
       PRIMARY KEY (owner, timestamp), \
       FOREIGN KEY (owner) REFERENCES users )",
];

/// A database over `wrap` of a `LiveCluster` of `shards` shards a
/// namespace.
fn database_on<S: KvStore>(wrap: impl FnOnce(LiveCluster) -> S, shards: usize) -> Database<S> {
    Database::new(Arc::new(wrap(LiveCluster::new(LiveConfig {
        shards_per_namespace: shards,
        ..LiveConfig::default()
    }))))
}

fn followee(i: usize) -> String {
    format!("followee{i:03}")
}

/// For each `n` of [`SIZES`]: `reader{n}` follows `followee000..n`;
/// `author{n}a` and `author{n}b` have `n` thoughts each, and `fan{n}`
/// follows those two.
fn follows_database() -> Database<LiveCluster> {
    let db = database_on(|c| c, 1);
    for ddl in SCADR_DDL {
        db.execute_ddl(ddl).unwrap();
    }
    let mut users: Vec<String> = (0..100).map(followee).collect();
    let (mut follows, mut thoughts) = (Vec::new(), Vec::new());
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
    let users = users.iter().map(|u| tuple![u.as_str(), "Berkeley"]);
    db.bulk_load("users", users).unwrap();
    let follows = follows
        .iter()
        .map(|(o, t)| tuple![o.as_str(), t.as_str(), true]);
    db.bulk_load("subscriptions", follows).unwrap();
    let thoughts = thoughts.iter().map(|(owner, t)| {
        let text = format!("thought {t} of {owner}");
        tuple![
            owner.as_str(),
            Value::Timestamp(1_000 + *t as i64),
            text.as_str()
        ]
    });
    db.bulk_load("thoughts", thoughts).unwrap();
    db
}

/// One warm execution of `prepared` for `param`, which must answer `rows`
/// rows. The warm runs grow the thread's execution scratch to what this
/// read needs; then every stripe of the store's operation-sample sink is
/// left drained but with room, so where the counted run's samples land
/// costs nothing.
fn execution(db: &Database<LiveCluster>, prepared: &Prepared, param: &str, rows: usize) -> Counts {
    let params = Params::from_values([Value::Varchar(param.into())]);
    let mut session = Session::new();
    for _ in 0..8 {
        db.execute(&mut session, prepared, &params).unwrap();
    }
    db.cluster().sample_sink().drain();
    let (result, made) = counted(|| db.execute(&mut session, prepared, &params).unwrap());
    assert_eq!(result.rows.len(), rows, "{param}");
    made
}

/// A result set is decoded straight into one packed block per operator, so
/// 1, 10 and 100 rows cost the same number of allocations.
fn result_sets(table: &mut Table) {
    let db = follows_database();
    let reads = [
        (
            "scan",
            "SELECT * FROM thoughts WHERE owner = <o> ORDER BY timestamp DESC LIMIT 100",
            "author{n}a",
            1,
        ),
        (
            "sorted join",
            "SELECT s.owner, thoughts.* FROM subscriptions s JOIN thoughts \
             WHERE thoughts.owner = s.target AND s.owner = <o> \
             ORDER BY thoughts.timestamp DESC LIMIT 200",
            "fan{n}",
            2,
        ),
        (
            "FK join",
            "SELECT s.owner, u.* FROM subscriptions s JOIN users u \
             WHERE u.username = s.target AND s.owner = <o>",
            "reader{n}",
            1,
        ),
    ];
    for (shape, sql, param, per_n) in reads {
        let prepared = db.prepare(sql).unwrap();
        let costs = SIZES.map(|n| {
            let rows = per_n * n;
            let made = execution(&db, &prepared, &param.replace("{n}", &n.to_string()), rows);
            table.row(&format!("{shape}, {rows} rows"), "execute", 1, made);
            made.allocs
        });
        assert!(costs.iter().all(|&c| c == costs[0]), "{shape}: {costs:?}");
    }
}

/// A TOKEN-index search that does not cover the row: every entry is
/// dereferenced and re-checked against its record, in the thread's
/// scratch, so 1, 10 and 50 rows cost the same.
fn token_search(table: &mut Table) {
    let db = database_on(|c| c, 1);
    db.execute_ddl("CREATE TABLE books (id INT NOT NULL, title VARCHAR(100), PRIMARY KEY (id))")
        .unwrap();
    // `set{n}` names exactly n multi-word titles, each with a repeated
    // token and words every title shares
    const SETS: [usize; 3] = [1, 10, 50];
    let titles: Vec<String> = SETS
        .iter()
        .flat_map(|&n| (0..n).map(move |i| format!("The Grapes of Wrath, volume {i} of set{n}")))
        .collect();
    let books = titles.iter().enumerate();
    db.bulk_load(
        "books",
        books.map(|(id, title)| tuple![id as i32, title.as_str()]),
    )
    .unwrap();
    let search = db
        .prepare("SELECT * FROM books WHERE title LIKE <word> LIMIT 50")
        .unwrap();
    let plan = search.compiled.explain();
    assert!(
        plan.contains("IndexScan(idx_books_tok_title") && plan.contains("deref"),
        "{plan}"
    );
    let costs = SETS.map(|n| {
        let made = execution(&db, &search, &format!("set{n}"), n);
        table.row(&format!("TOKEN search, {n} rows"), "execute", 1, made);
        made.allocs
    });
    assert!(costs.iter().all(|&c| c == costs[0]), "{costs:?}");
}

/// A `LiveCluster` whose test-and-sets are counted apart: how many, and
/// what the store's side cost.
struct TasCounted {
    inner: LiveCluster,
    swaps: AtomicU64,
    made: Mutex<Counts>,
}

impl KvStore for TasCounted {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }
    fn execute_round(&self, session: &mut Session, round: Vec<KvRequest>) -> Vec<KvResponse> {
        self.inner.execute_round(session, round)
    }
    fn execute_one(&self, session: &mut Session, req: KvRequest) -> KvResponse {
        if !matches!(req, KvRequest::TestAndSet { .. }) {
            return self.inner.execute_one(session, req);
        }
        let (response, made) = counted(|| self.inner.execute_one(session, req));
        self.swaps.fetch_add(1, Ordering::Relaxed);
        *self.made.lock().unwrap() += made;
        response
    }
    fn point_get(
        &self,
        session: &mut Session,
        ns: NsId,
        key: &[u8],
        out: &mut Vec<u8>,
    ) -> Option<bool> {
        self.inner.point_get(session, ns, key, out)
    }
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.inner.bulk_put(ns, key, value)
    }
}

/// A warm UPDATE of `thoughts`: the writer and the store together, and
/// the store's test-and-set alone, which copies the entry into room its
/// shard's arena has and hands the request's buffers back to the thread's
/// spare, where the next update builds its entry.
fn updates(table: &mut Table) {
    const UPDATES: i64 = 20;
    let db = database_on(
        |inner| TasCounted {
            inner,
            swaps: AtomicU64::new(0),
            made: Mutex::default(),
        },
        LiveConfig::default().shards_per_namespace,
    );
    for ddl in SCADR_DDL {
        db.execute_ddl(ddl).unwrap();
    }
    let drafts = (0..UPDATES).map(|t| tuple!["author", Value::Timestamp(t), "first draft"]);
    db.bulk_load("thoughts", drafts).unwrap();
    let edit = "UPDATE thoughts SET text = <text> WHERE owner = 'author' AND timestamp = <ts>";
    let mut session = Session::new();
    let mut update = |t: i64| {
        let text = format!("revision {t} of a thought, longer than its first draft");
        let params = Params::from_values([Value::Varchar(text), Value::Timestamp(t)]);
        counted(|| db.execute_dml(&mut session, edit, &params).unwrap()).1
    };
    // the first update compiles the statement; the rest cost the same,
    // but for the buffer of the first record longer than any before it
    // (revision 10's), which the spare has none with room for
    update(0);
    let warm: Vec<Counts> = (1..UPDATES).map(update).collect();
    for (t, made) in (1..).zip(&warm) {
        let outgrown = u64::from(t == 10);
        assert_eq!(made.allocs, warm[0].allocs + outgrown, "{t}: {warm:?}");
    }
    let store = db.cluster();
    assert_eq!(
        store.swaps.load(Ordering::Relaxed),
        UPDATES as u64,
        "every update swapped"
    );
    let swaps = *store.made.lock().unwrap();
    assert_eq!(swaps.allocs, 0, "a swap's entry fits the arena's room");
    let mut all = Counts::default();
    warm.into_iter().for_each(|made| all += made);
    table.row("update", "execute_dml", UPDATES as u64 - 1, all);
    table.row("update", "store test-and-set", UPDATES as u64, swaps);

    // then each of them deleted, the first compiling the statement
    let delete = "DELETE FROM thoughts WHERE owner = 'author' AND timestamp = <ts>";
    let mut delete = |t: i64| {
        let params = Params::from_values([Value::Timestamp(t)]);
        counted(|| db.execute_dml(&mut session, delete, &params).unwrap()).1
    };
    delete(0);
    let mut all = Counts::default();
    (1..UPDATES).for_each(|t| all += delete(t));
    let scan = db
        .prepare("SELECT * FROM thoughts WHERE owner = <o> LIMIT 50")
        .unwrap();
    let params = Params::from_values([Value::Varchar("author".into())]);
    let left = db.execute(&mut Session::new(), &scan, &params).unwrap();
    assert!(left.rows.is_empty(), "rows left: {:?}", left.rows);
    table.row("delete", "execute_dml", UPDATES as u64 - 1, all);
}

/// No secondary index: each row stores exactly one entry.
const NOTES: &str = "CREATE TABLE notes ( \
       id INT NOT NULL, \
       owner VARCHAR(16) NOT NULL, \
       body VARCHAR(100), \
       seen BIGINT, \
       PRIMARY KEY (owner, id) )";

/// A load of borrowed rows: each row one buffer, its key and then its
/// record, which becomes its entry.
fn borrowed_load(table: &mut Table) {
    const N: u64 = 5_000;
    let db = database_on(|c| c, 16);
    db.execute_ddl(NOTES).unwrap();
    let owners: Vec<String> = (0..10).map(|o| format!("owner{o}")).collect();
    let mut body = String::new();
    let (loaded, made) = counted(|| {
        db.bulk_load_with("notes", |rows| {
            for i in 0..N as i32 {
                let owner = &owners[i as usize % 10];
                body.clear();
                body.push_str("note number ");
                body.push_str(owner);
                rows.push(&[
                    ValueRef::Int(i),
                    ValueRef::Varchar(owner),
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
    let notes = db.catalog().table("notes").unwrap().clone();
    let primary = db.cluster().namespace(&Catalog::table_namespace(&notes));
    assert_eq!(db.cluster().ns_len(primary), N as usize);
    table.row("borrowed load, 16 shards", "bulk_load_with", N, made);
}

/// A `LiveCluster` that keeps apart what it costs to store bulk batches:
/// each batch is collected first, then stored, counted.
struct BatchCounted {
    inner: LiveCluster,
    stored: Mutex<Counts>,
}

impl KvStore for BatchCounted {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }
    fn execute_round(&self, session: &mut Session, round: Vec<KvRequest>) -> Vec<KvResponse> {
        self.inner.execute_round(session, round)
    }
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.inner.bulk_put(ns, key, value)
    }
    fn bulk_put_all(&self, ns: NsId, feed: &mut BulkFeed<'_>) {
        let mut batch = Vec::new();
        feed(&mut |bytes, key_len| batch.push((bytes, key_len)));
        let ((), made) = counted(|| {
            self.inner.bulk_put_all(ns, &mut |push| {
                for (bytes, key_len) in batch.drain(..) {
                    push(bytes, key_len);
                }
            })
        });
        *self.stored.lock().unwrap() += made;
    }
}

/// A TOKEN index backfilled over 1,000 and 4,000 records, in pages of
/// 1,024: each entry's own buffer and a few buffers a page, outside the
/// store's own batch handling.
fn token_backfills(table: &mut Table) {
    for records in [1_000i32, 4_000] {
        let db = database_on(
            |inner| BatchCounted {
                inner,
                stored: Mutex::default(),
            },
            4,
        );
        db.execute_ddl(NOTES).unwrap();
        let rows = (0..records).map(|i| {
            let body = format!("words {} and {} again", i % 7, i % 5);
            tuple![i, "owner", body.as_str(), Value::Null]
        });
        db.bulk_load("notes", rows).unwrap();
        let stored_before = *db.cluster().stored.lock().unwrap();
        let ((), made) = counted(|| {
            db.execute_ddl("CREATE INDEX notes_by_word ON notes (TOKEN(body))")
                .unwrap()
        });
        let stored = *db.cluster().stored.lock().unwrap() - stored_before;
        let index = db.catalog().index("notes_by_word").unwrap().clone();
        let ns = db.cluster().namespace(&Catalog::index_namespace(&index));
        let entries = db.cluster().inner.ns_len(ns);
        // five tokens a record, "words", "and", "again" and two digits,
        // one entry for both when they are equal
        assert!(entries >= 4 * records as usize);
        let shape = format!("TOKEN backfill, {records} records, {entries} entries");
        table.row(&shape, "create index", records as u64, made - stored);
    }
}

// ------------------------------------------------------------------ kv

fn kv_rows(table: &mut Table) {
    table.section("kv: LiveCluster, rounds on this thread");
    range_answers(table);
    writes_and_swaps(table);
    overwrite_churn(table);
    held_entries(table);
    rebalances(table);
}

fn live(shards: usize) -> LiveCluster {
    LiveCluster::new(LiveConfig {
        shards_per_namespace: shards,
        pool_threads: 0,
        request_delay_us: 0,
    })
}

fn range(ns: NsId, start: u8, end: u8, limit: Option<u64>, reverse: bool) -> KvRequest {
    KvRequest::GetRange {
        ns,
        start: vec![start],
        end: Some(vec![end]),
        limit,
        reverse,
    }
}

/// A range answer is a packed block of two buffers sized while the shard
/// is held, so 1, 10 and 100 entries cost the same; nothing found, a count
/// and a miss cost the round's response vector alone.
fn range_answers(table: &mut Table) {
    let store = live(1);
    let ns = store.namespace("t");
    for i in 0u8..200 {
        store.bulk_put(ns, vec![i, 0xAA], vec![i; 40]);
    }
    let mut session = Session::new();
    // the round's own vector is built beforehand
    let mut served = |request: KvRequest| {
        let round = vec![request];
        let (mut responses, made) = counted(|| store.execute_round(&mut session, round));
        (responses.remove(0), made)
    };
    // warm: the first round of a thread may set up thread-local state
    served(range(ns, 0, 1, None, false));
    for reverse in [false, true] {
        let direction = if reverse { "reverse" } else { "forward" };
        let mut costs = Vec::new();
        for n in [1u8, 10, 100] {
            // by its bounds, and by its limit out of a larger interval
            let by = [
                ("bounds", range(ns, 50, 50 + n, None, reverse)),
                ("limit", range(ns, 20, 190, Some(u64::from(n)), reverse)),
            ];
            for (how, request) in by {
                let (response, made) = served(request);
                assert_eq!(response.expect_entries().len(), usize::from(n));
                table.row(
                    &format!("range of {n} by {how}, {direction}"),
                    "round",
                    1,
                    made,
                );
                costs.push(made.allocs);
            }
        }
        assert!(costs.iter().all(|&c| c == costs[0]), "{costs:?}");
    }
    // a limit nobody could allocate for up front is sized by what is there
    let (response, made) = served(range(ns, 0, 255, Some(u64::MAX), false));
    assert_eq!(response.expect_entries().len(), 200);
    table.row("range of 200, limit u64::MAX", "round", 1, made);
    let nothing = [
        ("range finding nothing", range(ns, 210, 220, None, false)),
        (
            "range with end before start",
            range(ns, 90, 10, None, false),
        ),
        (
            "count",
            KvRequest::CountRange {
                ns,
                start: vec![0],
                end: Some(vec![150]),
            },
        ),
        (
            "get missing",
            KvRequest::Get {
                ns,
                key: vec![7, 7, 7],
            },
        ),
    ];
    for (shape, request) in nothing {
        let (_, made) = served(request);
        table.row(shape, "round", 1, made);
    }
}

/// A key of `len` bytes for entry `i`, spread over the key space in a
/// scrambled order (as a load's keys arrive), never repeating.
fn key(i: u32, len: usize) -> Vec<u8> {
    let scrambled = i.wrapping_mul(2_654_435_761);
    let mut key = scrambled.to_be_bytes().to_vec();
    key.resize(len, i as u8);
    key
}

fn put(ns: NsId, key: Vec<u8>, value: Vec<u8>) -> KvRequest {
    KvRequest::Put { ns, key, value }
}

/// A stored entry is copied into its shard's arena, the key then the
/// value, and the request's buffers go to the thread's spare: a put or a
/// successful test-and-set allocates nothing while the arena's last chunk
/// has room, a fresh key only the B-tree's node splits and the arena's
/// chunks, and a failed test-and-set only the copy it returns.
fn writes_and_swaps(table: &mut Table) {
    let store = live(16);
    let ns = store.namespace("rows");
    for i in 0..1_000 {
        store.bulk_put(ns, key(i, 20), vec![1; 100]);
    }
    let served = |request: KvRequest| {
        let mut session = Session::new();
        counted(|| store.execute_one(&mut session, request))
    };
    let (_, made) = served(put(ns, key(7, 20), vec![2; 100]));
    table.row("put over an entry", "execute_one", 1, made);
    let index = store.namespace("index");
    store.bulk_put(index, key(7, 24), Vec::new());
    let (_, made) = served(put(index, key(7, 24), Vec::new()));
    table.row("put over an index entry", "execute_one", 1, made);
    let fresh: Vec<KvRequest> = (1_000..2_000)
        .map(|i| put(ns, key(i, 20), vec![3; 100]))
        .collect();
    let mut session = Session::new();
    let ((), made) = counted(|| {
        for request in fresh {
            store.execute_one(&mut session, request);
        }
    });
    table.row("put of a fresh key", "execute_one", 1_000, made);
    let (response, made) = served(swap(ns, &key(7, 20), &[4; 100], Some(&[2; 100])));
    assert_eq!(response.tas().unwrap(), (true, None), "the swap applies");
    assert_eq!(made.allocs, 0, "copied into the arena's room");
    table.row("swap that applies", "execute_one", 1, made);
    let (response, made) = served(swap(ns, &key(7, 20), &[5; 100], None));
    assert_eq!(response.tas().unwrap(), (false, Some(&[4; 100][..])));
    table.row("swap that fails", "execute_one", 1, made);
}

/// 100 keys overwritten 100 times each, from an empty namespace, every
/// request built in buffers from the thread's spare as the engine builds
/// them: a warm put allocates nothing but arena chunks, and since a shard
/// whose dead bytes pass its live ones is compacted, what stays held is
/// near the 12,000 live bytes, not the 1.2 MB written.
fn overwrite_churn(table: &mut Table) {
    const KEYS: u32 = 100;
    const ROUNDS: u8 = 100;
    let store = live(16);
    let ns = store.namespace("churn");
    // `key(i, 20)`, and `len` bytes of `fill`, in spare buffers
    let key = |i: u32| {
        let mut key = piql_kv::spare::take(20);
        key.extend_from_slice(&i.wrapping_mul(2_654_435_761).to_be_bytes());
        key.resize(20, i as u8);
        key
    };
    let value = |fill: u8, len: usize| {
        let mut value = piql_kv::spare::take(len);
        value.resize(len, fill);
        value
    };
    let mut session = Session::new();
    let ((), made) = counted(|| {
        for round in 0..ROUNDS {
            for i in 0..KEYS {
                let request = put(ns, key(i), value(round, 100));
                store.execute_one(&mut session, request);
            }
        }
    });
    let live_bytes = i64::from(KEYS) * (20 + 100);
    assert!(
        made.held < 3 * live_bytes,
        "{} bytes held for {live_bytes} live ones",
        made.held
    );
    let shape = format!("overwrite churn, {KEYS} keys × {ROUNDS} rounds");
    table.row(
        &shape,
        "execute_one",
        u64::from(KEYS) * u64::from(ROUNDS),
        made,
    );
}

/// What the store holds for 20,000 entries of two shapes, put one by one
/// and as one batch of joined buffers: the requests are built and consumed
/// inside the count, so what the store did not keep nets out.
fn held_entries(table: &mut Table) {
    const N: u32 = 20_000;
    for (shape, key_len, value_len) in [("post_v3 row", 20, 100), ("index entry", 24, 0)] {
        let pair = |i: u32| (key(i, key_len), vec![i as u8; value_len]);
        let store = live(16);
        let ns = store.namespace("t");
        let mut session = Session::new();
        let ((), made) = counted(|| {
            for i in 0..N {
                let (key, value) = pair(i);
                store.execute_one(&mut session, put(ns, key, value));
            }
        });
        assert_eq!(store.ns_len(ns), N as usize);
        table.row(
            &format!("{shape}, built and put"),
            "execute_one",
            u64::from(N),
            made,
        );

        let store = live(16);
        let ns = store.namespace("t");
        let mut buffers: Vec<(Vec<u8>, usize)> = (0..N)
            .map(|i| {
                let (mut bytes, value) = pair(i);
                bytes.reserve_exact(value_len);
                bytes.extend_from_slice(&value);
                (bytes, key_len)
            })
            .collect();
        let ((), made) = counted(|| {
            store.bulk_put_all(ns, &mut |push| {
                for (bytes, key_len) in buffers.drain(..) {
                    push(bytes, key_len);
                }
            })
        });
        assert_eq!(store.ns_len(ns), N as usize);
        table.row(
            &format!("{shape}, joined, one batch"),
            "bulk_put_all",
            u64::from(N),
            made,
        );
    }
}

const ENTRIES: u32 = 10_000;

/// A 16-shard store whose one namespace holds `ENTRIES` entries put one by
/// one, so all in its one part, and those entries in key order.
fn skewed() -> (LiveCluster, NsId, Vec<KvEntry>) {
    let store = live(16);
    let ns = store.namespace("t");
    let expected: Vec<KvEntry> = (0..ENTRIES)
        .map(|i| (i.to_be_bytes().to_vec(), vec![i as u8; 40]))
        .collect();
    for (key, value) in &expected {
        store.bulk_put(ns, key.clone(), value.clone());
    }
    assert_eq!(store.balance()[0].max_entry_share(), 1.0);
    (store, ns, expected)
}

/// The rebalanced store is even and answers a full scan with `expected`.
fn assert_even_and_whole(store: &LiveCluster, ns: NsId, expected: &[KvEntry]) {
    let balance = &store.balance()[0];
    assert!(
        balance.max_entry_share() <= 2.0 / 16.0,
        "{:?}",
        balance.entries
    );
    let scan = KvRequest::GetRange {
        ns,
        start: Vec::new(),
        end: None,
        limit: None,
        reverse: false,
    };
    let scan = store.execute_one(&mut Session::new(), scan);
    assert_eq!(scan.expect_entries().to_vec(), expected);
}

/// A rebalance moves a retiring generation nobody holds — each new shard
/// bulk-built from a sorted run — and copies each entry once of one a
/// reader holds.
fn rebalances(table: &mut Table) {
    let (store, ns, expected) = skewed();
    let ((), made) = counted(|| store.rebalance());
    assert_even_and_whole(&store, ns, &expected);
    let shape = format!("rebalance of {ENTRIES} entries, unshared");
    table.row(&shape, "rebalance", 1, made);

    // a store once re-split moves nothing at its next rebalance, so each
    // attempt skews a store of its own; a move frees each old shard as it
    // goes and a copy frees none of the ~440 kB it copied, so the bytes
    // held say which path it took
    let copied = (0..100).find_map(|_| {
        let (store, ns, expected) = skewed();
        let mut round = ReadRound::gets(ns, 2);
        round.push_get(&expected[0].0);
        round.push_get(&expected[1].0);
        // a read round served on its caller holds the generation it loaded
        // across every probe's service time: 2 x 40 ms here
        store.set_request_delay_us(40_000);
        let made = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut answer = ReadAnswer::default();
                store.read_round(&mut Session::new(), &round, &mut answer)
            });
            std::thread::sleep(Duration::from_millis(10));
            let ((), made) = counted(|| store.rebalance());
            reader.join().unwrap().unwrap();
            made
        });
        store.set_request_delay_us(0);
        (made.held > i64::from(ENTRIES) * 22).then_some((made, store, ns, expected))
    });
    let (made, store, ns, expected) = copied.expect("no rebalance overlapped a reader's round");
    assert_even_and_whole(&store, ns, &expected);
    // the reader frees the generation it held if it lets go last
    let shape = format!("rebalance of {ENTRIES} entries, held by a reader");
    table.row_freed_elsewhere(&shape, "rebalance", 1, made);
}

// ---------------------------------------------------------- durability

/// An empty data directory named for this process and `name`.
fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("piql-cost-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `n` entries in key order, spread over every leading byte, with
/// row-sized values.
fn entries(n: u32) -> Vec<KvEntry> {
    let mut entries: Vec<KvEntry> = (0..n)
        .map(|i| {
            (
                [&[(i % 256) as u8][..], &i.to_be_bytes()].concat(),
                vec![i as u8; 100],
            )
        })
        .collect();
    entries.sort();
    entries
}

fn durability_rows(table: &mut Table) {
    table.section("durability: the log, recovery and export, on this thread");
    // a snapshot's entries are copied into a batch and sorted, each
    // shard's run copied into one chunk of exactly its size, and its
    // shards bulk-built
    let snapshot = entries(ENTRIES);
    let mut state = RecoveredState::default();
    state.snapshot_namespaces = vec![("t".to_string(), snapshot.clone())];
    let recovered = live(16);
    let (applied, made) = counted(|| state.apply_kv(&recovered).unwrap());
    assert_eq!(applied, u64::from(ENTRIES));
    table.row("recovery from a snapshot", "apply_kv", applied, made);
    // a checkpoint copies each key and value once
    let (exported, made) = counted(|| recovered.export_namespaces());
    assert_eq!(exported, vec![("t".to_string(), snapshot)]);
    table.row(
        "checkpoint export",
        "export_namespaces",
        u64::from(ENTRIES),
        made,
    );

    // a logged put is loaded from its record's bytes
    let logged = entries(ENTRIES);
    let recovered = live(16);
    let ns = recovered.namespace("t").0;
    let mut state = RecoveredState::default();
    let create = WalRecord::NsCreate {
        ns,
        name: "t".to_string(),
    };
    let puts = logged.iter().map(|(key, value)| WalRecord::Put {
        ns,
        key: key.clone(),
        value: value.clone(),
    });
    state.kv_tail = std::iter::once(create).chain(puts).collect();
    let (applied, made) = counted(|| state.apply_kv(&recovered).unwrap());
    assert_eq!(applied, u64::from(ENTRIES));
    assert_eq!(
        recovered.export_namespaces(),
        vec![("t".to_string(), logged)]
    );
    table.row("recovery from logged puts", "apply_kv", applied, made);

    // a warm logged put is encoded straight into the staging buffer, and a
    // commit writes from it
    const PUTS: u64 = 64;
    let dir = temp_dir("append");
    let (_, log) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
    let (key, value) = ([7u8; 16], [9u8; 100]);
    let puts = || (0..PUTS).for_each(|_| log.append_put(NsId(0), &key, &value));
    // a commit swaps the staging buffer for a spare: two rounds grow both
    for _ in 0..2 {
        puts();
        assert!(log.commit());
    }
    let ((), made) = counted(puts);
    table.row("WAL put", "append_put", PUTS, made);
    let (durable, made) = counted(|| log.commit());
    assert!(durable);
    table.row("WAL commit", "commit", 1, made);
    log.close();
    std::fs::remove_dir_all(&dir).unwrap();

    recovered_models(table);
}

/// Recovered model intervals move into the store: 64 logged rotations of 8
/// keys fold into the newest three.
fn recovered_models(table: &mut Table) {
    const ROTATIONS: u32 = 64;
    const KEYS: u32 = 8;
    let interval = |r: u32| -> BTreeMap<ModelKey, LatencyHistogram> {
        (0..KEYS)
            .map(|k| {
                let key = ModelKey {
                    op: OpKind::IndexScan,
                    alpha_c: k + 1,
                    alpha_j: 1,
                    beta: 40,
                };
                (key, LatencyHistogram::from_sparse([(r, 1), (100 + k, 2)]))
            })
            .collect()
    };
    let dir = temp_dir("models");
    let (_, log) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
    for r in 0..ROTATIONS {
        log.log_model_interval(&interval(r));
    }
    log.close();
    drop(log);
    let (mut state, _log) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
    let (models, made) = counted(|| state.models(ModelStore::new(3)));
    let newest: Vec<_> = (ROTATIONS - 3..ROTATIONS).map(interval).collect();
    assert_eq!(models.interval_maps(), &newest[..]);
    table.row("recovery of 64 model intervals", "models", 1, made);
    std::fs::remove_dir_all(&dir).unwrap();
}

// --------------------------------------------------------------- model

/// A lattice point [`SharedModelStore::record_live`] keeps as it is.
const KEY: ModelKey = ModelKey {
    op: OpKind::IndexScan,
    alpha_c: 10,
    alpha_j: 1,
    beta: 40,
};

/// A §6.1 model store holds each histogram's nonzero bins and nothing
/// else; a rotation moves the drained interval into the store it
/// publishes, and journals it from there.
fn model_rows(table: &mut Table) {
    table.section("predict: the §6.1 model store");
    let (_, made) = counted(|| ModelStore::linear(200, 100, 2));
    table.row(
        "fabricated lattice, 420 keys",
        "ModelStore::linear",
        1,
        made,
    );

    let shared = SharedModelStore::new(ModelStore::linear(200, 100, 2));
    shared.record_live(KEY, 7 * MILLIS);
    let (folded, made) = counted(|| shared.rotate());
    assert_eq!(folded, 1);
    table.row("rotation of one live sample", "rotate", 1, made);

    // the store a rotation builds, built directly from the same interval
    let mut live = BTreeMap::new();
    let mut histogram = LatencyHistogram::standard();
    for latency in [7, 9, 40] {
        histogram.record(latency * MILLIS);
    }
    live.insert(KEY, histogram);
    let seed = ModelStore::linear(200, 100, 2);
    let (direct, built) = counted(|| seed.rotated(live));
    let shared = SharedModelStore::new(ModelStore::linear(200, 100, 2));
    let journaled = Arc::new(AtomicU64::new(0));
    shared.set_rotation_observer(Some(Box::new({
        let journaled = journaled.clone();
        move |interval| {
            let samples = interval.values().map(LatencyHistogram::count).sum();
            journaled.fetch_add(samples, Ordering::Relaxed);
        }
    })));
    for latency in [7, 9, 40] {
        shared.record_live(KEY, latency * MILLIS);
    }
    let (folded, rotation) = counted(|| shared.rotate());
    assert_eq!(folded, 3);
    assert_eq!(journaled.load(Ordering::Relaxed), 3, "journaled as folded");
    assert_eq!(shared.snapshot().interval_maps(), direct.interval_maps());
    // the store it builds and the `Arc` it publishes it in, and no copy of
    // the drained interval for the journal
    assert_eq!(rotation.allocs, built.allocs + 1);
    table.row(
        "rotation of three samples, journaled",
        "rotate",
        1,
        rotation,
    );
    table.row(
        "the store that rotation builds",
        "ModelStore::rotated",
        1,
        built,
    );
}

// --------------------------------------------------------------- setup

/// SCADr's default set-up on one node, counted per stored entry; a
/// rebalance after it moves nothing, since the layout the data was stored
/// in is already the one its quantiles give.
fn setup_rows(table: &mut Table) {
    table.section("workloads: set-up on LiveCluster, 16 shards a namespace");
    let db = Database::new(Arc::new(live(16)));
    let (users, made) = counted(|| scadr::setup(&db, &ScadrConfig::default(), 1).unwrap());
    let entries: u64 = (db.cluster().balance().iter())
        .flat_map(|b| b.entries.iter())
        .sum();
    let shape = format!("SCADr set-up, {users} users, {entries} entries");
    table.row(&shape, "scadr::setup", entries, made);
    let laid_out = db.cluster().balance();
    db.cluster().rebalance();
    let entries = |balance: Vec<NsBalance>| -> Vec<(String, Vec<u64>)> {
        balance.into_iter().map(|b| (b.name, b.entries)).collect()
    };
    assert_eq!(
        entries(db.cluster().balance()),
        entries(laid_out),
        "a rebalance moved entries"
    );
}

// ------------------------------------------------------------- durable

/// `post_thought` INSERTs on a durable stack's ordered lane, as a v3
/// connection and as untagged JSON lines: the log records each appends
/// and the fsyncs its acknowledgement waits for.
fn durable_rows(table: &mut Table) {
    const WRITES: usize = 40;
    table.section("durable: post_thought on open_durable's ordered lane, per write");
    table.header("     n wal records fsyncs");
    let dir = temp_dir("durable");
    let mut options = DurableOptions::new(&dir);
    options.slo = permissive_slo();
    let config = small_config();
    let sql = scadr::queries(&config).post_thought;
    let stack = open_durable(options, linear_predictor(200, 100, 2), |db| {
        scadr::setup(db, &config, 2).map(|_| ())
    })
    .unwrap();
    let registry = stack.registry.clone();
    let mut binary = BinaryConn::new(registry.clone());
    let dispatch = Arc::new(Dispatch::new(registry.clone(), 0));
    let mut json = JsonConn::new(registry, dispatch, 0);
    let (mut next, mut out, mut done) = (0, Vec::new(), Vec::new());
    BinaryWire.encode_reply(None, &Reply::Done, &mut done);
    let lanes: [(&str, &mut dyn FnMut(Request)); 2] = [
        ("v3 insert, durable", &mut |request| {
            binary.handle_frame(&binary_frame(request));
            assert_eq!(binary.output(), done);
            binary.clear_output();
        }),
        ("v2 insert, durable, untagged", &mut |request| {
            json.handle_frame(&json_line(None, request));
            out.clear();
            json.take_output(&mut out);
            assert_eq!(out, b"{\"ok\":true}\n");
        }),
    ];
    for (shape, serve) in lanes {
        // the first write of a lane compiles its plan
        serve(post(&sql, next));
        let before = stack.durability.health();
        for i in next + 1..next + 1 + WRITES {
            serve(post(&sql, i));
        }
        next += 1 + WRITES;
        let after = stack.durability.health();
        let per_write = |n: u64| format!("{:.2}", n as f64 / WRITES as f64);
        let _ = writeln!(
            table.0,
            "{:<54} {WRITES:>6} {:>11} {:>6}",
            format!("{shape} · handle_frame"),
            per_write(after.wal_records - before.wal_records),
            per_write(after.fsyncs - before.fsyncs),
        );
    }
    stack.close();
    drop(stack);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_durable_row_is_pinned() {
    let mut table = Table(String::new());
    durable_rows(&mut table);
    println!("{}", table.0);
    assert_pinned(&table.0, golden(Some("durable"), None));
}
