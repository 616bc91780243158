//! The multi-threaded, pipelined TCP front-end.
//!
//! Every connection speaks one of two codecs behind the same [`Wire`]
//! seam: newline-delimited JSON (v2, the default) or length-prefixed
//! binary frames (v3, negotiated when the first byte is the
//! [`binary::MAGIC`] preamble — no JSON line can start with `0xB3`, so
//! sniffing is unambiguous).
//!
//! A request runs in one of two venues, behind one handler ([`respond`])
//! (the wire contract is PROTOCOL.md §5):
//!
//! * **Ordered work runs where it arrives.** A JSON request without an
//!   `id` is answered by the connection's own thread — the *reader*, which
//!   decodes request lines — on a [`Session`] that thread owns: id-less
//!   answers leave in arrival order because one thread produced them,
//!   byte-for-byte the pre-pipelining behavior. While the reader executes,
//!   its connection's later lines wait undecoded. That is fine: the work
//!   is what this client asked to have done in order, a tagged line had no
//!   promise of overtaking it, and no other connection is involved — a
//!   request parked on a slow store or a tenant budget holds no worker
//!   that others need.
//! * **Tagged work runs on the pool.** A JSON request carrying an `id`
//!   goes to the server-wide dispatch [`RoundPool`], is handled
//!   **concurrently** on a fresh session and answered in *completion
//!   order* (the id is how the client correlates). The pool bounds how
//!   many tagged requests the whole server handles at once; ordered work
//!   is bounded by the connection count, and both by the tenant budget
//!   inside `execute_governed`.
//!
//! The thread that computes an answer also prints it, into the
//! connection's one output buffer, and then hands the answer's result
//! blocks back to its own execution scratch for its next read. Each JSON
//! connection also has a **writer** thread that only writes bytes: it
//! takes everything printed so far and writes it with no lock held, so a
//! pipelined burst coalesces into few syscalls — and no thread doing work
//! ever blocks on a slow socket.
//!
//! All state a client needs to resume — registered statement names and
//! pagination cursors — lives either in the shared registry or in the
//! cursor the client holds, so reconnecting to the same (or another)
//! server continues cleanly.
//!
//! A **binary** (v3) connection is the ordered venue alone, run inline on
//! its own thread by a [`BinaryConn`]: decode → route → respond with
//! per-connection scratch buffers (the last request among them, decoded
//! into in place), so the warm point-read path — a
//! registered statement whose plan is a full-primary-key lookup (see
//! `FastPointPlan`) — performs **zero heap allocations** per request
//! (pinned by a counting-allocator test). Responses are byte-identical
//! to the general path's; a client wanting concurrency opens N
//! connections (PROTOCOL.md §9 makes no completion-order promise
//! usable across frames of one binary connection).
//!
//! Threads only *block*; storage parallelism comes from the backing
//! cluster. On a `LiveCluster`, a round fans out over the cluster's one
//! shared `RoundPool` (sized by `LiveConfig::pool_threads`) only when it
//! has injected service time to overlap; any other round runs on the
//! session's own thread.

use crate::binary::{self, BinaryWire, OP_EXECUTE, OP_RESPONSE};
use crate::gate::Gate;
use crate::json::Json;
use crate::protocol::{
    budget_exceeded_response, err_response, ok_response, parse_request, Envelope, ProtoError,
    Reply, Request, RequestId,
};
use crate::registry::{
    Admission, FastKeyPart, RegistryError, Revalidator, Run, SloConfig, StatementRegistry,
};
use crate::wire::{JsonWire, Wire};
use piql_analysis::ordered::{Condvar, Mutex};
use piql_analysis::rank;
use piql_core::codec::key::{encode_component_ref, Dir};
use piql_core::codec::row::RowReader;
use piql_engine::Database;
use piql_kv::{KvStore, LiveCluster, NsBalance, RoundPool, Session};
use piql_predict::SloPredictor;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// Server-level knobs beyond the registry's own configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerTuning {
    /// Width of the server-wide pool for `id`-tagged requests. `0` degrades
    /// every connection to inline (strictly sequential) handling.
    pub dispatch_threads: usize,
    /// Per-connection backpressure: the reader lane stops decoding once
    /// this many requests are decoded but not yet written back. `0`
    /// disables the cap: the window is unbounded.
    /// Applies to JSON (v2) connections; a binary (v3) connection is
    /// inherently one-at-a-time and needs no cap.
    pub max_in_flight_per_conn: usize,
}

impl Default for ServerTuning {
    fn default() -> Self {
        ServerTuning {
            dispatch_threads: piql_kv::pool::default_pool_threads(),
            max_in_flight_per_conn: 0,
        }
    }
}

/// A running query service.
pub struct PiqlServer<S: KvStore + 'static = LiveCluster> {
    registry: Arc<StatementRegistry<S>>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<AtomicU64>,
    /// Every accepted stream, held weakly: its handler owns it, and
    /// shutdown closes those still open to unblock their handlers.
    streams: Arc<Mutex<Vec<Weak<TcpStream>>>>,
    /// Periodic admission re-validation (see
    /// [`PiqlServer::enable_revalidation`]); stopped when the server drops.
    revalidator: Option<Revalidator>,
}

impl<S: KvStore + 'static> PiqlServer<S> {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving.
    pub fn start(
        db: Arc<Database<S>>,
        predictor: SloPredictor,
        slo: SloConfig,
        addr: &str,
    ) -> io::Result<Self> {
        let registry = Arc::new(StatementRegistry::new(db, predictor, slo));
        Self::start_with_registry(registry, addr)
    }

    /// Start serving an externally built registry (lets callers pre-register
    /// statements before the first client connects). The dispatch pool is
    /// sized for the host, like `LiveConfig::pool_threads`.
    pub fn start_with_registry(
        registry: Arc<StatementRegistry<S>>,
        addr: &str,
    ) -> io::Result<Self> {
        Self::start_tuned(registry, addr, ServerTuning::default())
    }

    /// [`PiqlServer::start_with_registry`] with the full [`ServerTuning`]
    /// knob set (dispatch width + per-connection backpressure).
    pub fn start_tuned(
        registry: Arc<StatementRegistry<S>>,
        addr: &str,
        tuning: ServerTuning,
    ) -> io::Result<Self> {
        let max_in_flight = tuning.max_in_flight_per_conn;
        // The server-wide request-handling pool: every pipelined
        // (`id`-carrying) JSON request runs on these workers. The accept
        // thread and every connection's reader share it.
        let dispatch = Arc::new(RoundPool::new(tuning.dispatch_threads));
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let streams: Arc<Mutex<Vec<Weak<TcpStream>>>> = Arc::new(Mutex::new(
            rank::SERVER_STREAMS,
            "server.streams",
            Vec::new(),
        ));
        let accept_thread = {
            let registry = registry.clone();
            let shutdown = shutdown.clone();
            let connections = connections.clone();
            let streams = streams.clone();
            std::thread::Builder::new()
                .name("piql-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let stream = match stream {
                            Ok(s) => s,
                            Err(_) => {
                                // transient accept failure (e.g. fd
                                // exhaustion): back off instead of spinning
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                continue;
                            }
                        };
                        connections.fetch_add(1, Ordering::Relaxed);
                        let stream = Arc::new(stream);
                        {
                            let mut held = streams.lock();
                            // forget connections whose handler has returned
                            held.retain(|s| s.strong_count() > 0);
                            held.push(Arc::downgrade(&stream));
                        }
                        let registry = registry.clone();
                        let dispatch = dispatch.clone();
                        let _ =
                            std::thread::Builder::new()
                                .name("piql-conn".into())
                                .spawn(move || {
                                    let _ =
                                        serve_connection(stream, registry, dispatch, max_in_flight);
                                });
                    }
                })?
        };
        Ok(PiqlServer {
            registry,
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            connections,
            streams,
            revalidator: None,
        })
    }

    /// Start the background [`Revalidator`]: every `period` the registry
    /// folds drained live samples into the models and re-predicts every
    /// registered statement (clients can also force a sweep with the
    /// `revalidate` verb). Idempotent: a second call replaces the period.
    pub fn enable_revalidation(&mut self, period: std::time::Duration) {
        self.revalidator = Some(Revalidator::spawn(self.registry.clone(), period));
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn registry(&self) -> &Arc<StatementRegistry<S>> {
        &self.registry
    }

    /// Connections accepted since start.
    pub fn connection_count(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }
}

impl<S: KvStore + 'static> Drop for PiqlServer<S> {
    fn drop(&mut self) {
        // stop the sweep thread first so no re-validation runs mid-teardown
        self.revalidator = None;
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the listener so `incoming()` returns and observes the flag.
        // A server bound to an unspecified address (0.0.0.0 / [::]) is not
        // connectable *at* that address, so aim the poke at loopback on
        // the bound port — otherwise the accept thread would only exit on
        // the next real client.
        let poke = if self.local_addr.ip().is_unspecified() {
            let loopback: IpAddr = match self.local_addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            SocketAddr::new(loopback, self.local_addr.port())
        } else {
            self.local_addr
        };
        let _ = TcpStream::connect(poke);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // close every open connection so handler threads blocked in a
        // read unblock and exit rather than outliving the server
        for stream in self.streams.lock().drain(..) {
            if let Some(stream) = stream.upgrade() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// Reader side of a JSON connection's backpressure window: take a place
/// before dispatching a frame, parking while the window is full (one stall
/// per park; TCP flow control then pushes back on the client). The writer
/// leaves once per response, and every frame gets one. `false` once the
/// writer closed the window on a socket error: stop decoding.
fn enter_window(window: &Gate<()>, stalls: &AtomicU64) -> bool {
    let mut door = window.lock();
    if !door.has_room() && !door.closed {
        stalls.fetch_add(1, Ordering::Relaxed);
        door = window.wait(door, None);
    }
    if door.closed {
        return false;
    }
    door.held += 1;
    true
}

/// [`respond`] with panic containment: a handler panic becomes an error
/// response instead of wedging the connection's lane or killing a pool
/// worker. Every input a client can send is meant to get a typed answer,
/// so a panic here is a bug — and one a client has reached before (an
/// inverted range used to panic the store) — which is why each is counted
/// in `stats.handler_panics` rather than only contained.
fn run_handler<S: KvStore>(
    request: &Request,
    session: &mut Session,
    registry: &StatementRegistry<S>,
) -> Reply {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        respond(request, session, registry)
    }))
    .unwrap_or_else(|_| {
        registry
            .counters
            .handler_panics
            .fetch_add(1, Ordering::Relaxed);
        Reply::Doc(err_response("internal error: request handler panicked"))
    })
}

/// The answer to a frame that did not decode: the error, under whatever
/// id can still be recovered from it (the stream stays alive, and a
/// pipelining client can correlate the failure).
fn undecodable(wire: &impl Wire, frame: &[u8], e: ProtoError) -> (Option<RequestId>, Reply) {
    (
        wire.extract_id(frame),
        Reply::Doc(err_response(e.to_string())),
    )
}

/// Serve one client until EOF. Sniffs the codec from the first byte —
/// [`binary::MAGIC`] starts with `0xB3`, which no JSON line can — then
/// runs the matching loop: the pipelined reader/writer lanes for JSON, the
/// inline [`BinaryConn`] loop for binary. This is the connection's one
/// owner: the server holds it weakly, so it closes when this returns.
fn serve_connection<S: KvStore + 'static>(
    stream: Arc<TcpStream>,
    registry: Arc<StatementRegistry<S>>,
    dispatch: Arc<RoundPool>,
    max_in_flight: usize,
) -> io::Result<()> {
    let stream = &*stream;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream);
    let first = match reader.fill_buf() {
        Ok([]) => return Ok(()), // EOF before the first byte
        Ok(&[first, ..]) => first,
        Err(e) => return Err(e),
    };
    if first == binary::MAGIC[0] {
        let mut magic = [0u8; binary::MAGIC.len()];
        reader.read_exact(&mut magic)?;
        if magic != binary::MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad v3 magic preamble",
            ));
        }
        return serve_binary(reader, stream, registry);
    }
    serve_lanes(reader, stream, registry, dispatch, max_in_flight)
}

/// A JSON connection's answers on their way to its writer: the thread that
/// computes an answer prints it here, and the writer takes what is printed
/// whole and writes it.
struct Outbox {
    printed: Mutex<Printed>,
    /// Where the writer waits for an answer, or for the end.
    ready: Condvar,
}

/// What an [`Outbox`] holds, read and changed only under its lock.
struct Printed {
    /// Answers printed and not yet taken, one line each.
    bytes: Vec<u8>,
    /// How many answers `bytes` holds.
    answers: u32,
    /// Tagged requests dispatched and not yet answered.
    owed: u32,
    /// The reader has stopped: no request is still to come.
    done: bool,
    /// The writer has stopped on a socket error: answers are dropped.
    closed: bool,
    /// The writer is parked on `ready`.
    waiting: bool,
}

impl Printed {
    /// The writer has something to do: answers to write, or nothing left
    /// to wait for.
    fn writable(&self) -> bool {
        self.answers > 0 || (self.done && self.owed == 0)
    }
}

impl Outbox {
    fn new() -> Self {
        let printed = Printed {
            bytes: Vec::new(),
            answers: 0,
            owed: 0,
            done: false,
            closed: false,
            waiting: false,
        };
        Outbox {
            printed: Mutex::new(rank::SERVER_OUTBOX, "server.conn.outbox", printed),
            ready: Condvar::new(),
        }
    }

    /// Change what is printed, and wake the writer if it waits for what
    /// the change brought.
    fn update(&self, change: impl FnOnce(&mut Printed)) {
        let mut printed = self.printed.lock();
        change(&mut printed);
        if printed.waiting && printed.writable() {
            printed.waiting = false;
            drop(printed);
            self.ready.notify_one();
        }
    }

    /// Print `reply` as the answer carrying `id` — a tagged request's,
    /// `owed` since its dispatch — unless the writer has stopped, then hand
    /// its blocks back to this thread.
    fn print(&self, id: Option<&RequestId>, reply: Reply, owed: bool) {
        self.update(|printed| {
            printed.owed -= u32::from(owed);
            if !printed.closed {
                JsonWire.encode_reply(id, &reply, &mut printed.bytes);
                printed.answers += 1;
            }
        });
        reply.give_back();
    }
}

/// The pipelined reader/writer lanes of a JSON connection. Every request
/// line gets exactly one response line; protocol errors are answered (not
/// fatal) so a client bug cannot wedge the connection out from under its
/// own pipeline. This thread is the *reader*: it decodes each line and
/// picks its venue (see the module docs), then joins the writer — which
/// writes every answer still owed — before returning.
fn serve_lanes<S: KvStore + 'static>(
    mut reader: BufReader<&TcpStream>,
    stream: &TcpStream,
    registry: Arc<StatementRegistry<S>>,
    dispatch: Arc<RoundPool>,
    max_in_flight: usize,
) -> io::Result<()> {
    let outbox = Arc::new(Outbox::new());
    // cap 0 = unlimited: no window at all, the lanes behave exactly as
    // before the backpressure control existed
    let window = (max_in_flight > 0).then(|| {
        let cap = u32::try_from(max_in_flight).unwrap_or(u32::MAX);
        Gate::new(rank::SERVER_INFLIGHT, "server.conn.window", Some(cap), ())
    });
    std::thread::scope(|scope| {
        let writer_thread = std::thread::Builder::new()
            .name("piql-conn-writer".into())
            .spawn_scoped(scope, || write_loop(stream, &outbox, window.as_ref()))?;
        // the ordered venue's session
        let mut session = Session::new();
        let read_result: io::Result<()> = (|| {
            let mut frame = Vec::new();
            while JsonWire.read_frame(&mut reader, &mut frame)? {
                // backpressure: park until the in-flight window has room (a
                // full window means the client outran the server — TCP stops
                // reading new bytes while we park, pushing back upstream)
                if let Some(window) = &window {
                    if !enter_window(window, &registry.counters.backpressure_stalls) {
                        break;
                    }
                }
                let (id, reply) = match JsonWire.decode_envelope(&frame) {
                    // on a session of its own: a session is a clock and
                    // counters, `sync_session` sets the clock at every
                    // execute and nothing reads it after the request
                    Ok(Envelope {
                        id: Some(id),
                        request,
                    }) => {
                        outbox.update(|printed| printed.owed += 1);
                        let (registry, outbox) = (registry.clone(), outbox.clone());
                        dispatch.spawn(move || {
                            let reply = run_handler(&request, &mut Session::new(), &registry);
                            outbox.print(Some(&id), reply, true);
                        });
                        continue;
                    }
                    // the ordered venue: answered here, in arrival order,
                    // a line that did not decode in its place
                    Ok(env) => (None, run_handler(&env.request, &mut session, &registry)),
                    Err(e) => undecodable(&JsonWire, &frame, e),
                };
                // once the writer has stopped, it shut the socket's read
                // side, so reading ends with the lines already buffered
                outbox.print(id.as_ref(), reply, false);
            }
            Ok(())
        })();
        // the writer exits once every answer owed is written
        outbox.update(|printed| printed.done = true);
        let _ = writer_thread.join();
        read_result
    })
}

/// The writer half: take every answer printed so far and write it in one
/// go, holding no lock while the socket takes it — a pipelined burst leaves
/// in few write syscalls, and no thread computing an answer ever waits on
/// the socket. The taken buffer and the outbox's trade places, so both are
/// reused. A socket error shuts the socket's read side, so the reader stops
/// accepting work whose answers would be discarded.
fn write_loop(mut stream: &TcpStream, outbox: &Outbox, window: Option<&Gate<()>>) {
    let mut taken = Vec::new();
    loop {
        let answers = {
            let mut printed = outbox.printed.lock();
            while !printed.writable() {
                printed.waiting = true;
                printed = outbox.ready.wait(printed);
            }
            printed.waiting = false;
            if printed.answers == 0 {
                return;
            }
            std::mem::swap(&mut printed.bytes, &mut taken);
            std::mem::take(&mut printed.answers)
        };
        if stream.write_all(&taken).is_err() {
            let _ = stream.shutdown(Shutdown::Read);
            outbox.update(|printed| printed.closed = true);
            // a reader parked on a full window must wake up and exit, not
            // wait for responses that will never be written
            if let Some(window) = window {
                window.reset(|door| door.closed = true);
            }
            return;
        }
        taken.clear();
        // every answer written leaves the backpressure window
        if let Some(window) = window {
            (0..answers).for_each(|_| window.leave());
        }
    }
}

/// The binary (v3) connection loop: one strictly ordered lane, run inline
/// on the connection's own thread (no writer thread, no dispatch hop —
/// the per-request overhead the hot path exists to avoid). Responses
/// accumulate in the conn's output buffer and flush right before a read
/// would block.
fn serve_binary<S: KvStore + 'static>(
    mut reader: BufReader<&TcpStream>,
    mut stream: &TcpStream,
    registry: Arc<StatementRegistry<S>>,
) -> io::Result<()> {
    let mut hello = Vec::new();
    binary::put_hello(&mut hello);
    stream.write_all(&hello)?;
    let wire = BinaryWire;
    let mut conn = BinaryConn::new(registry);
    let mut frame = Vec::new();
    loop {
        if !conn.output().is_empty() && !binary::complete_frame_buffered(reader.buffer()) {
            stream.write_all(conn.output())?;
            conn.clear_output();
        }
        if !wire.read_frame(&mut reader, &mut frame)? {
            break;
        }
        conn.handle_frame(&frame);
    }
    if !conn.output().is_empty() {
        stream.write_all(conn.output())?;
    }
    Ok(())
}

/// One binary (v3) connection's request handler: decode → route → respond
/// into per-connection scratch buffers.
///
/// For a registered statement whose plan qualifies as a
/// [`FastPointPlan`](crate::registry::FastPointPlan) — a full-primary-key
/// equality lookup — `handle_frame` runs the **allocation-free** path:
/// the probe key is encoded from frame-borrowed parameter values, the
/// store answers through `KvStore::point_get` into a reused value buffer,
/// and the stored row is transcoded straight onto the wire. The emitted
/// frame is byte-identical to the general path's, and *any* irregularity
/// (unknown statement, collection params, explicit cursor, trailing
/// bytes, unsupported backend, corrupt row) rewinds the output and reruns
/// the frame through the general decode → [`respond`] → encode
/// path, which defines the behavior.
pub struct BinaryConn<S: KvStore + 'static> {
    registry: Arc<StatementRegistry<S>>,
    session: Session,
    /// Encoded response frames not yet handed to the socket.
    out: Vec<u8>,
    /// Probe-key scratch.
    key_buf: Vec<u8>,
    /// Stored-row scratch (`point_get` appends here).
    val_buf: Vec<u8>,
    /// Byte offsets (into the request payload) of each scalar parameter's
    /// tagged value, re-scanned per fast-path attempt.
    param_offsets: Vec<usize>,
    /// The last request the general path decoded; the next one is decoded
    /// into its buffers ([`BinaryWire::decode_into`]). It keeps no more
    /// spare room than the frame it was just decoded from: past that it is
    /// dropped, so one large parameter is not held for the connection's
    /// lifetime. Boxed, so a connection is no larger to hold or move.
    request: Box<Envelope>,
}

impl<S: KvStore + 'static> BinaryConn<S> {
    pub fn new(registry: Arc<StatementRegistry<S>>) -> Self {
        BinaryConn {
            registry,
            session: Session::new(),
            out: Vec::new(),
            key_buf: Vec::new(),
            val_buf: Vec::new(),
            param_offsets: Vec::new(),
            request: Box::new(empty_request()),
        }
    }

    /// Encoded-but-unflushed response bytes.
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// Discard flushed output (capacity is kept).
    pub fn clear_output(&mut self) {
        self.out.clear();
    }

    /// Handle one request frame (the bytes after the length prefix),
    /// appending exactly one response frame to [`BinaryConn::output`].
    pub fn handle_frame(&mut self, frame: &[u8]) {
        let mark = self.out.len();
        if self.try_fast_point(frame).is_none() {
            self.out.truncate(mark);
            self.handle_general(frame);
        }
    }

    /// The zero-allocation point-read path. `None` means "not taken" (for
    /// whatever reason) — the caller rewinds and runs the general path.
    fn try_fast_point(&mut self, frame: &[u8]) -> Option<()> {
        let (opcode, raw_id, payload) = binary::split_frame(frame).ok()?;
        if opcode != OP_EXECUTE {
            return None;
        }
        let mut cur = binary::Cur::new(payload);
        let name = cur.str().ok()?;
        let statement = self.registry.get(name)?;
        let plan = statement.fast_point()?;
        if !binary::scan_scalar_params(&mut cur, &mut self.param_offsets).ok()? {
            return None;
        }
        if cur.u8().ok()? != 0 {
            return None; // explicit cursor: not a point read
        }
        cur.done().ok()?;

        // probe key: plan constants + frame-borrowed parameter values,
        // through the same component codec the scan path probes with
        self.key_buf.clear();
        for part in &plan.parts {
            let value = match part {
                FastKeyPart::Const(v) => piql_core::value::ValueRef::of(v),
                FastKeyPart::Param(i) => {
                    let off = *self.param_offsets.get(*i)?;
                    binary::read_value_ref(&mut binary::Cur::new(&payload[off..])).ok()?
                }
            };
            encode_component_ref(&mut self.key_buf, value, Dir::Asc).ok()?;
        }

        // the run begins last before the store, so a budget reconfigured
        // while the frame was parsed is honoured; dropped unbooked, it
        // leaves the frame's one admission to the general path
        let run = Run::lock_free(&self.registry, &statement, &mut self.session)?;
        let store = self.registry.db().store();
        self.session.op_tag = Some(plan.tag);
        self.val_buf.clear();
        let found = store.point_get(&mut self.session, plan.ns, &self.key_buf, &mut self.val_buf);
        self.session.op_tag = None;
        // a backend without a fast get: fall back (nothing was accounted)
        let found = found?;

        let fmark = binary::begin_frame(&mut self.out);
        self.out.push(OP_RESPONSE);
        self.out.extend_from_slice(raw_id);
        if found {
            let (mut row, arity) = RowReader::new(&self.val_buf).ok()?;
            if arity != plan.arity {
                return None;
            }
            binary::put_rows_header(&mut self.out, None, false, 1);
            binary::put_row_header(&mut self.out, arity as u32);
            for _ in 0..arity {
                binary::put_row_value(&mut self.out, row.next_value().ok()?);
            }
            row.finish().ok()?;
        } else {
            binary::put_rows_header(&mut self.out, None, false, 0);
        }
        binary::finish_frame(&mut self.out, fmark);
        run.book(&self.session, Ok(())).ok()
    }

    /// The general path: full decode into the kept request → the shared
    /// request router → generic encode, a decode error answered in place
    /// ([`undecodable`]) as the JSON reader answers one.
    fn handle_general(&mut self, frame: &[u8]) {
        let wire = BinaryWire;
        match wire.decode_into(frame, &mut self.request) {
            Ok(()) => {
                let reply = run_handler(&self.request.request, &mut self.session, &self.registry);
                wire.encode_reply(self.request.id.as_ref(), &reply, &mut self.out);
                reply.give_back();
            }
            Err(e) => {
                let (id, reply) = undecodable(&wire, frame, e);
                wire.encode_reply(id.as_ref(), &reply, &mut self.out);
            }
        }
        if binary::spare_bytes(&self.request) > frame.len() {
            *self.request = empty_request();
        }
    }
}

/// A request slot holding nothing.
fn empty_request() -> Envelope {
    Envelope {
        id: None,
        request: Request::Stats,
    }
}

/// Dispatch one request line to a response object (ignoring any `id` —
/// embedders doing their own transport handle correlation themselves).
pub fn handle_line<S: KvStore>(
    line: &str,
    session: &mut Session,
    registry: &StatementRegistry<S>,
) -> Json {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return err_response(e.to_string()),
    };
    handle_request(&request, session, registry)
}

/// Answer one parsed [`Request`] on `session` with the response envelope
/// as a tree: [`respond`] for embedders that do their own transport.
pub fn handle_request<S: KvStore>(
    request: &Request,
    session: &mut Session,
    registry: &StatementRegistry<S>,
) -> Json {
    respond(request, session, registry).into_json()
}

/// Answer one parsed [`Request`] on `session`. Rows are handed on as the
/// executor produced them; every other verb, and every error, answers a
/// document. Batches recurse: each sub-request is answered in place,
/// sequentially on the same session (so a `dml` is visible to the
/// `execute` after it), and a sub-error becomes an `{"ok":false,...}`
/// entry instead of aborting the rest.
pub fn respond<S: KvStore>(
    request: &Request,
    session: &mut Session,
    registry: &StatementRegistry<S>,
) -> Reply {
    Reply::Doc(match request {
        Request::Execute {
            name,
            params,
            cursor,
        } => match registry.execute_governed(session, name, params.as_slice(), cursor.as_ref()) {
            Ok(outcome) => {
                return Reply::Rows {
                    rows: outcome.result.rows,
                    cursor: outcome.result.cursor,
                    degraded: outcome.shed,
                }
            }
            Err(RegistryError::BudgetExceeded { tenant }) => budget_exceeded_response(&tenant),
            Err(e) => err_response(e.to_string()),
        },
        Request::Batch { requests } => {
            return Reply::Batch(
                requests
                    .iter()
                    .map(|sub| respond(sub, session, registry))
                    .collect(),
            )
        }
        Request::Prepare { name, sql } => prepare_response(registry, name, sql),
        Request::Dml { sql, params } => {
            match registry.execute_dml(session, sql, params.as_slice()) {
                // a dead WAL voids the durability guarantee: the write
                // applied in memory, but acknowledging it as a success
                // would silently promise durability the store can no
                // longer provide — answer an error the client can see
                // (the `stats` durability block reports `wal_dead` too)
                Ok(()) if registry.db().cluster().wal_degraded() => err_response(
                    "write-ahead log has failed: the write applied in memory but is not durable",
                ),
                Ok(()) => return Reply::Done,
                Err(e) => err_response(e.to_string()),
            }
        }
        Request::Stats => stats_response(registry),
        Request::Revalidate => {
            let summary = registry.revalidate();
            ok_response([
                ("sweep", Json::uint(summary.sweep)),
                ("samples_folded", Json::uint(summary.samples_folded)),
                ("models_rotated", Json::Bool(summary.models_rotated)),
                ("statements", Json::uint(summary.statements)),
                ("steady", Json::uint(summary.steady)),
                ("redegraded", Json::uint(summary.redegraded)),
                ("relaxed", Json::uint(summary.relaxed)),
                ("flagged", Json::uint(summary.flagged)),
                ("recovered", Json::uint(summary.recovered)),
            ])
        }
        Request::Rebalance => {
            let balance = registry.rebalance();
            ok_response([
                ("rebalances", count(&registry.counters.rebalances)),
                ("shard_balance", balance_to_json(&balance)),
            ])
        }
        Request::Snapshot => match registry.durability() {
            Some(control) => match control.checkpoint() {
                Ok(summary) => ok_response([
                    ("generation", Json::uint(summary.generation)),
                    ("entries", Json::uint(summary.entries)),
                    ("bytes", Json::uint(summary.bytes)),
                    (
                        "compacted_wal_bytes",
                        Json::uint(summary.compacted_wal_bytes),
                    ),
                    ("duration_ms", Json::Float(summary.duration_ms)),
                ]),
                Err(e) => err_response(format!("snapshot failed: {e}")),
            },
            None => err_response("durability is not enabled on this server"),
        },
        Request::Explain { name, sql } => {
            explain_response(registry, name.as_deref(), sql.as_deref())
        }
    })
}

/// The `prepare` verb: register the statement and report the admission
/// verdict with the plan facts a client sizes its pages by.
fn prepare_response<S: KvStore>(registry: &StatementRegistry<S>, name: &str, sql: &str) -> Json {
    match registry.register(name, sql) {
        Ok(admission) => {
            let mut fields = vec![("status", Json::str(admission.verdict()))];
            if let Some(p99) = admission.predicted_p99_ms() {
                fields.push(("predicted_p99_ms", Json::Float(p99)));
            }
            admission_detail(&admission, &mut fields);
            if admission.is_admitted() {
                // Admission and this lookup are not atomic: a rival
                // prepare of the same name that lands on a rejection
                // path uninstalls the entry (see `register`), so the
                // statement can already be gone. That is an answerable
                // race, not a panic a client gets to trigger.
                let Some(statement) = registry.get(name) else {
                    return err_response(format!(
                        "statement '{name}' was removed by a concurrent prepare/unprepare"
                    ));
                };
                let prepared = statement.prepared();
                fields.push((
                    "columns",
                    Json::Arr(
                        prepared
                            .columns
                            .iter()
                            .map(|c| Json::str(c.clone()))
                            .collect(),
                    ),
                ));
                let bounds = &prepared.compiled.bounds;
                fields.push((
                    "bounds",
                    Json::obj([
                        ("requests", Json::uint(bounds.requests)),
                        ("rounds", Json::uint(bounds.rounds)),
                        ("tuples", Json::uint(bounds.tuples)),
                    ]),
                ));
            }
            ok_response(fields)
        }
        Err(e) => err_response(e.to_string()),
    }
}

/// What a verdict carries beyond its name and prediction, as response
/// fields — the one rendering of an [`Admission`], shared by `prepare` and
/// the per-statement block of `stats`.
fn admission_detail(admission: &Admission, fields: &mut Vec<(&'static str, Json)>) {
    match admission {
        Admission::Admitted { .. } | Admission::RejectedSlo { .. } => {}
        Admission::Degraded {
            original_limit,
            limit,
            ..
        } => {
            fields.push(("original_limit", Json::uint(*original_limit)));
            fields.push(("limit", Json::uint(*limit)));
        }
        Admission::RejectedUnbounded { report } => {
            // the Insight Assistant's diagnosis, field by field
            fields.push(("problem", Json::str(report.problem.clone())));
            fields.push((
                "relation",
                match &report.relation {
                    Some(rel) => Json::str(rel.clone()),
                    None => Json::Null,
                },
            ));
            fields.push((
                "suggestions",
                Json::Arr(
                    report
                        .suggestions
                        .iter()
                        .map(|s| Json::str(s.to_string()))
                        .collect(),
                ),
            ));
        }
        // a flagged statement ships the auditor's structured explanation
        // of the violation, not just the number (flags come from sweeps:
        // registration never answers one)
        Admission::Flagged { diagnostics, .. } => {
            if !diagnostics.is_empty() {
                let diagnostics = diagnostics.iter().map(|d| d.to_json()).collect();
                fields.push(("diagnostics", Json::Arr(diagnostics)));
            }
        }
    }
}

/// The `explain` verb: run the static auditor over a prepared statement
/// (by `name`, auditing the plan *as currently installed* — degraded
/// bounds and all) or a candidate statement (by `sql`, compiled against
/// the catalog without registering anything), under the server's SLO.
/// Pure analysis: no storage operation is issued either way.
fn explain_response<S: KvStore>(
    registry: &StatementRegistry<S>,
    name: Option<&str>,
    sql: Option<&str>,
) -> Json {
    let predictor = registry.models().predictor();
    let slo = *registry.slo();
    let audit = match (name, sql) {
        (Some(name), None) => {
            let Some(statement) = registry.get(name) else {
                return err_response(format!("unknown statement '{name}' (prepare it first)"));
            };
            let prepared = statement.prepared();
            piql_audit::audit_compiled(&predictor, name, &statement.sql, &prepared.compiled, slo)
        }
        (None, Some(sql)) => {
            let catalog = registry.db().catalog();
            piql_audit::audit_statement(&catalog, &predictor, "candidate", sql, slo)
        }
        // the codecs reject these shapes at decode time; embedders calling
        // `handle_request` directly still get an answer, not a panic
        _ => return err_response("explain requires exactly one of 'name' or 'sql'"),
    };
    ok_response([("explain", audit.to_json())])
}

/// The `durability` object of a `stats` response (PROTOCOL.md §4.6).
fn durability_to_json(health: &piql_durability::DurabilityHealth) -> Json {
    let r = &health.recovery;
    Json::obj([
        ("generation", Json::uint(health.generation)),
        ("policy", Json::str(health.policy)),
        ("wal_dead", Json::Bool(health.dead)),
        ("wal_bytes", Json::uint(health.wal_bytes)),
        ("wal_records", Json::uint(health.wal_records)),
        ("commits", Json::uint(health.commits)),
        ("fsyncs", Json::uint(health.fsyncs)),
        (
            "last_snapshot_age_ms",
            match health.last_snapshot_age_ms {
                Some(ms) => Json::uint(ms),
                None => Json::Null,
            },
        ),
        (
            "recovery",
            Json::obj([
                ("snapshot_loaded", Json::Bool(r.snapshot_loaded)),
                ("snapshot_entries", Json::uint(r.snapshot_entries)),
                ("wal_records", Json::uint(r.wal_records)),
                ("wal_tail", Json::str(r.wal_tail.clone())),
                ("truncated_bytes", Json::uint(r.truncated_bytes)),
                ("statements", Json::uint(r.statements)),
                ("ddl", Json::uint(r.ddl)),
                ("duration_ms", Json::Float(r.duration_ms)),
            ]),
        ),
    ])
}

/// The `writes` object of a `stats` response (PROTOCOL.md §4.6): `dml`
/// outcomes and the engine's write-plan cache.
fn writes_to_json<S: KvStore>(registry: &StatementRegistry<S>) -> Json {
    let c = &registry.counters;
    let plans = registry.db().write_plan_stats();
    Json::obj([
        ("dml_executed", count(&c.dml_executed)),
        ("dml_errors", count(&c.dml_errors)),
        ("write_plans", Json::uint(plans.cached)),
        ("write_plan_compiles", Json::uint(plans.compiles)),
        ("write_plan_evictions", Json::uint(plans.evictions)),
    ])
}

/// Per-namespace shard balance as the wire object (`stats` and the
/// `rebalance` verb both ship it).
fn balance_to_json(balance: &[NsBalance]) -> Json {
    Json::Arr(
        balance
            .iter()
            .map(|b| {
                Json::obj([
                    ("namespace", Json::str(b.name.clone())),
                    ("shards", Json::uint(b.shards)),
                    ("entries", Json::uint(b.total_entries())),
                    ("max_entry_share", Json::Float(b.max_entry_share())),
                    ("max_op_share", Json::Float(b.max_op_share())),
                ])
            })
            .collect(),
    )
}

/// The `overload` object of a `stats` response (PROTOCOL.md §4.6):
/// service-wide overload-control counters plus one entry per tenant
/// budget the registry has materialized. A budget outcome is counted once,
/// by its tenant: the service-wide totals are the sums over `tenants`.
fn overload_to_json<S: KvStore>(registry: &StatementRegistry<S>) -> Json {
    let c = &registry.counters;
    let (mut rejected, mut shed) = (0, 0);
    let tenants: Vec<Json> = registry
        .tenant_budgets()
        .iter()
        .map(|budget| {
            let snap = budget.snapshot();
            rejected += snap.rejected;
            shed += snap.shed;
            Json::obj([
                ("tenant", Json::str(snap.tenant)),
                (
                    "capacity",
                    match snap.capacity {
                        Some(cap) => Json::uint(cap),
                        None => Json::Null,
                    },
                ),
                ("policy", Json::str(snap.policy)),
                ("in_flight", Json::uint(snap.in_flight)),
                ("admitted", Json::uint(snap.admitted)),
                ("rejected", Json::uint(snap.rejected)),
                ("queued", Json::uint(snap.queued)),
                ("queue_timeouts", Json::uint(snap.queue_timeouts)),
                ("shed", Json::uint(snap.shed)),
            ])
        })
        .collect();
    Json::obj([
        ("backpressure_stalls", count(&c.backpressure_stalls)),
        ("budget_rejected", Json::uint(rejected)),
        ("budget_shed", Json::uint(shed)),
        ("auto_rebalances", count(&c.auto_rebalances)),
        ("tenants", Json::Arr(tenants.into())),
    ])
}

/// Drift intervals shipped per statement in a `stats` reply. The registry
/// retains more; capping the wire copy keeps `stats` cost flat no matter
/// how many sweeps a long-lived server has run (pinned by a test).
const STATS_DRIFT_INTERVALS: usize = 8;

/// A counter as the wire carries it.
fn count(counter: &AtomicU64) -> Json {
    Json::uint(counter.load(Ordering::Relaxed))
}

fn stats_response<S: KvStore>(registry: &StatementRegistry<S>) -> Json {
    let c = &registry.counters;
    let durability = registry
        .durability()
        .map(|d| durability_to_json(&d.health()));
    let statements: Vec<Json> = registry
        .list()
        .iter()
        .map(|s| {
            let admission = s.admission();
            let mut fields = vec![
                ("name", Json::str(s.name.clone())),
                ("status", Json::str(admission.verdict())),
                ("kind", Json::str(s.kind_name())),
                ("executions", count(&s.executions)),
                // observed quantiles next to the refreshed prediction: the
                // pair the feedback loop exists to keep honest
                ("p50_ms", Json::Float(s.quantile_ms(0.5))),
                ("p99_ms", Json::Float(s.quantile_ms(0.99))),
                ("predicted_p99_ms", Json::Float(s.last_predicted_p99_ms())),
            ];
            admission_detail(&admission, &mut fields);
            let drift = s.recent_drift(STATS_DRIFT_INTERVALS);
            if !drift.is_empty() {
                fields.push((
                    "drift",
                    Json::Arr(
                        drift
                            .iter()
                            .map(|d| {
                                Json::obj([
                                    ("sweep", Json::uint(d.sweep)),
                                    ("predicted_p99_ms", Json::Float(d.predicted_p99_ms)),
                                    ("action", Json::str(d.action.name())),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            Json::obj(fields)
        })
        .collect();
    let mut response = ok_response([
        ("admitted", count(&c.admitted)),
        ("degraded", count(&c.degraded)),
        ("rejected_slo", count(&c.rejected_slo)),
        ("rejected_unbounded", count(&c.rejected_unbounded)),
        ("executed", count(&c.executed)),
        ("fast_point_reads", count(&c.fast_point_reads)),
        ("exec_errors", count(&c.exec_errors)),
        ("handler_panics", count(&c.handler_panics)),
        ("writes", writes_to_json(registry)),
        ("revalidations", count(&c.revalidations)),
        ("samples_folded", count(&c.samples_folded)),
        ("drift_redegraded", count(&c.drift_redegraded)),
        ("drift_relaxed", count(&c.drift_relaxed)),
        ("drift_flagged", count(&c.drift_flagged)),
        ("drift_recovered", count(&c.drift_recovered)),
        ("rebalances", count(&c.rebalances)),
        (
            "shard_balance",
            balance_to_json(&registry.db().cluster().balance()),
        ),
        ("overload", overload_to_json(registry)),
        ("slo_ms", Json::Float(registry.slo().slo_ms)),
        ("statements", Json::Arr(statements.into())),
    ]);
    // the durability health block only exists on durable stacks — its
    // absence is how a client tells an in-memory server apart
    if let (Json::Obj(m), Some(d)) = (&mut response, durability) {
        m.insert("durability", d);
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::linear_predictor;
    use crate::SloConfig;
    use piql_core::plan::params::ParamValue;
    use piql_core::value::Value;
    use piql_kv::LiveConfig;

    fn dml_frame(text: &str) -> Vec<u8> {
        let mut frame = Vec::new();
        BinaryWire.encode_envelope(
            &Envelope {
                id: None,
                request: Request::Dml {
                    sql: "INSERT INTO t VALUES (<a>)".into(),
                    params: vec![ParamValue::Scalar(Value::Varchar(text.into()))],
                },
            },
            &mut frame,
        );
        frame.split_off(4)
    }

    fn text_buffer(request: &Envelope) -> *const u8 {
        match &request.request {
            Request::Dml { params, .. } => match &params[0] {
                ParamValue::Scalar(Value::Varchar(s)) => s.as_ptr(),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    /// The bound on what a connection keeps: after each frame its request
    /// holds no more spare room than that frame's bytes, which the frame
    /// buffer already holds — so one large parameter is not kept for the
    /// connection's lifetime, while frames alike reuse the buffers.
    #[test]
    fn a_kept_request_holds_no_more_spare_room_than_the_frame_just_read() {
        let db = Arc::new(Database::new(Arc::new(LiveCluster::new(
            LiveConfig::default(),
        ))));
        let registry = Arc::new(StatementRegistry::new(
            db,
            linear_predictor(200, 100, 2),
            SloConfig {
                slo_ms: 1e9,
                interval_confidence: 1.0,
                allow_degrade: false,
            },
        ));
        let mut conn = BinaryConn::new(registry);
        let large = dml_frame(&"x".repeat(1 << 20));
        conn.handle_frame(&large);
        assert_eq!(binary::spare_bytes(&conn.request), 0, "all of it in use");
        let small = dml_frame("a short thought");
        for _ in 0..3 {
            conn.handle_frame(&small);
            assert!(binary::spare_bytes(&conn.request) <= small.len());
        }
        let kept = text_buffer(&conn.request);
        conn.handle_frame(&dml_frame("another thought"));
        assert_eq!(text_buffer(&conn.request), kept, "a frame alike reuses it");
        assert!(!conn.output().is_empty());
    }
}
