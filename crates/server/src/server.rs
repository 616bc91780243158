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
//! * **Tagged work runs on the dispatch workers.** A JSON request carrying
//!   an `id` moves, as a `Job` value, into the queue of the server-wide
//!   [`Dispatch`], is handled **concurrently** on a fresh session and
//!   answered in *completion order* (the id is how the client correlates).
//!   The dispatch width bounds how many tagged requests the whole server
//!   handles at once; ordered work is bounded by the connection count, and
//!   both by the tenant budget inside `execute_governed`.
//!
//! The thread that computes an answer also prints it, into the
//! connection's one output buffer, and then hands the answer's result
//! blocks back to its own execution scratch for its next read. Each JSON
//! connection also has a **writer** thread that only writes bytes: it
//! takes everything printed so far and writes it with no lock held, so a
//! pipelined burst coalesces into few syscalls — and no thread doing work
//! ever blocks on a slow socket. The buffer's lock is also the connection's
//! decode window (`ServerTuning::max_in_flight_per_conn`): the reader enters
//! it per frame, the writer leaves it per write or closes it on an error.
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
use crate::gate::{Door, Gate};
use crate::json::Json;
use crate::protocol::{
    budget_exceeded_response, err_response, ok_response, parse_request, Envelope, ProtoError,
    Reply, Request, RequestId, KEPT_ENVELOPE_BYTES,
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
use piql_kv::{KvStore, LiveCluster, NsBalance, Session, Workers};
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
        // The server-wide request-handling workers: every pipelined
        // (`id`-carrying) JSON request runs on them. The accept thread and
        // every connection's reader share them.
        let dispatch = Arc::new(Dispatch::new(registry.clone(), tuning.dispatch_threads));
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
    dispatch: Arc<Dispatch>,
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
    let conn = JsonConn::new(registry, dispatch, max_in_flight);
    serve_lanes(reader, stream, conn)
}

/// A JSON connection's decode window and its answers on their way to its
/// writer: the reader enters the gate before it decodes a frame, the thread
/// that computes an answer prints it here, and the writer takes what is
/// printed whole, writes it and leaves the window by that many answers.
struct Outbox {
    /// The window (`cap`; `None`: none) and the printed answers under one
    /// lock, closed by the writer on a socket error.
    gate: Gate<Printed>,
    /// Where the writer waits for an answer, or for the end.
    ready: Condvar,
    /// The window has a cap; without one, no lock is taken for it.
    windowed: bool,
    /// Most envelopes `Printed::spares` keeps, however little they hold.
    spare_limit: usize,
}

/// What an [`Outbox`] holds beside its window, read and changed only under
/// its gate's lock.
struct Printed {
    /// Answers printed and not yet taken, one line each.
    bytes: Vec<u8>,
    /// How many answers `bytes` holds.
    answers: u32,
    /// Tagged requests dispatched and not yet answered.
    owed: u32,
    /// The reader has stopped: no request is still to come.
    done: bool,
    /// The writer is parked on `ready`.
    waiting: bool,
    /// Envelopes of tagged requests answered, for the reader to decode
    /// its next lines into.
    spares: Vec<Envelope>,
    /// Heap bytes the connection's kept envelopes hold: the spares, and
    /// the reader's own as it last counted it (`JsonConn::counted`). Never
    /// more than [`KEPT_ENVELOPE_BYTES`].
    kept_bytes: usize,
}

impl Printed {
    /// The writer has something to do: answers to write, or nothing left
    /// to wait for.
    fn writable(&self) -> bool {
        self.answers > 0 || (self.done && self.owed == 0)
    }

    /// Count an envelope that holds `held` bytes among the kept ones, in
    /// place of the `counted` bytes it was counted at, if the kept
    /// envelopes then hold no more than [`KEPT_ENVELOPE_BYTES`] together;
    /// else stop counting it. Whether it is kept.
    fn count_kept(&mut self, counted: usize, held: usize) -> bool {
        self.kept_bytes -= counted;
        let keep = self.kept_bytes + held <= KEPT_ENVELOPE_BYTES;
        if keep {
            self.kept_bytes += held;
        }
        keep
    }
}

impl Door<Printed> {
    /// Print `reply` as the answer carrying `id`, unless the writer has
    /// stopped.
    fn print(&mut self, id: Option<&RequestId>, reply: &Reply) {
        if !self.closed {
            JsonWire.encode_reply(id, reply, &mut self.state.bytes);
            self.state.answers += 1;
        }
    }
}

impl Outbox {
    /// The outbox of a connection whose window is `max_in_flight` (`0`:
    /// none) on a dispatch pool of `dispatch_width` workers. It keeps as
    /// many spare envelopes as the window, which bounds how many tagged
    /// requests are out at once, or without one, one more than the pool's
    /// width — and, with the reader's own, no more bytes than
    /// [`KEPT_ENVELOPE_BYTES`].
    fn new(max_in_flight: usize, dispatch_width: usize) -> Self {
        let (cap, spare_limit) = match max_in_flight {
            0 => (None, dispatch_width + 1),
            window => (Some(u32::try_from(window).unwrap_or(u32::MAX)), window),
        };
        let printed = Printed {
            bytes: Vec::new(),
            answers: 0,
            owed: 0,
            done: false,
            waiting: false,
            spares: Vec::new(),
            kept_bytes: 0,
        };
        Outbox {
            gate: Gate::new(rank::SERVER_OUTBOX, "server.conn.outbox", cap, printed),
            ready: Condvar::new(),
            windowed: cap.is_some(),
            spare_limit,
        }
    }

    /// The reader's place in the window, taken before it decodes a frame:
    /// park while the window is full (one stall per park; TCP flow control
    /// then pushes back on the client). `false` once the writer has closed
    /// the door on a socket error: stop decoding.
    fn enter(&self, stalls: &AtomicU64) -> bool {
        if !self.windowed {
            return true;
        }
        let mut door = self.gate.lock();
        if !door.has_room() && !door.closed {
            stalls.fetch_add(1, Ordering::Relaxed);
            door = self.gate.wait(door, None);
        }
        if door.closed {
            return false;
        }
        door.held += 1;
        true
    }

    /// Change what is printed, and wake the writer if it waits for what
    /// the change brought.
    fn update<T>(&self, change: impl FnOnce(&mut Door<Printed>) -> T) -> T {
        let mut door = self.gate.lock();
        let value = change(&mut door);
        if door.state.waiting && door.state.writable() {
            door.state.waiting = false;
            drop(door);
            self.ready.notify_one();
        }
        value
    }

    /// Print `reply` as the reader's answer carrying `id`, unless the
    /// writer has stopped, and count the reader's envelope, now holding
    /// `held` bytes, among the kept ones in place of its `counted` bytes
    /// ([`Printed::count_kept`]); then hand the reply's blocks back to this
    /// thread. Whether the reader keeps its envelope.
    fn print_ordered(
        &self,
        id: Option<&RequestId>,
        reply: Reply,
        counted: usize,
        held: usize,
    ) -> bool {
        let keep = self.update(|door| {
            door.print(id, &reply);
            door.state.count_kept(counted, held)
        });
        reply.give_back();
        keep
    }

    /// Print `reply` as the answer to the tagged request `env`, and keep
    /// `env` for the reader if the spares have room for it, in number and
    /// in bytes; then hand the reply's blocks back to this thread.
    fn print_tagged(&self, env: Envelope, reply: Reply) {
        let held = env.held_bytes();
        let let_go = self.update(|door| {
            door.state.owed -= 1;
            door.print(env.id.as_ref(), &reply);
            if door.state.spares.len() < self.spare_limit && door.state.count_kept(0, held) {
                door.state.spares.push(env);
                None
            } else {
                Some(env)
            }
        });
        // freed with the lock released
        drop(let_go);
        reply.give_back();
    }
}

/// A tagged request on its way to a dispatch worker: its envelope and the
/// outbox its answer goes to. It moves into the dispatch queue as a value,
/// so the hop allocates nothing once the queue has grown.
struct Job {
    env: Envelope,
    outbox: Arc<Outbox>,
}

/// The server-wide dispatch: the workers that answer tagged requests, each
/// holding the registry, and the queue of `Job`s they take them from.
/// Each request is handled on a session of its own: a session is a clock
/// and counters, `sync_session` sets the clock at every execute and
/// nothing reads it after the request. With no workers a tagged request is
/// answered on the reader that decoded it, strictly in order.
pub struct Dispatch(Workers<Job>);

impl Dispatch {
    /// `threads` workers answering over `registry`.
    pub fn new<S: KvStore + 'static>(registry: Arc<StatementRegistry<S>>, threads: usize) -> Self {
        Dispatch(Workers::new(
            threads,
            "piql-dispatch",
            rank::DISPATCH_QUEUE,
            "server.dispatch.queue",
            move |job: Job| {
                let reply = run_handler(&job.env.request, &mut Session::new(), &registry);
                job.outbox.print_tagged(job.env, reply);
            },
        ))
    }

    /// How many workers answer tagged requests.
    pub(crate) fn width(&self) -> usize {
        self.0.count()
    }
}

/// The reader's side of a JSON connection, socket aside: it decodes each
/// request line into the envelope it keeps ([`Wire::decode_into`]) and
/// picks its venue (see the module docs). An untagged line is answered in
/// its envelope, on the connection's own session; a tagged one takes its
/// envelope to the dispatch workers as a `Job`, which hands it back
/// among the outbox's spares as it prints the answer, and the reader keeps
/// a spare in its place, if there is one, from the same update that counts
/// the answer owed. The reader's envelope and the spares together hold no
/// more than [`KEPT_ENVELOPE_BYTES`] between requests, counted under the
/// outbox's lock in the updates that print or owe an answer; what a
/// request of another shape leaves unused waits in the reader thread's
/// decode stash. Every answer is printed into the connection's outbox, for
/// its writer to write.
pub struct JsonConn<S: KvStore + 'static> {
    registry: Arc<StatementRegistry<S>>,
    dispatch: Arc<Dispatch>,
    outbox: Arc<Outbox>,
    /// The ordered venue's session.
    session: Session,
    kept: Envelope,
    /// The bytes `kept` is counted at among the kept envelopes
    /// (`Printed::kept_bytes`).
    counted: usize,
}

impl<S: KvStore + 'static> JsonConn<S> {
    /// A connection whose window is `max_in_flight` (`0`: none), its tagged
    /// requests answered on `dispatch`.
    pub fn new(
        registry: Arc<StatementRegistry<S>>,
        dispatch: Arc<Dispatch>,
        max_in_flight: usize,
    ) -> Self {
        let outbox = Arc::new(Outbox::new(max_in_flight, dispatch.width()));
        JsonConn {
            registry,
            dispatch,
            outbox,
            session: Session::new(),
            kept: Envelope::empty(),
            counted: 0,
        }
    }

    /// Handle one request line (without its newline): exactly one answer
    /// is printed for it, here or on a dispatch worker.
    pub fn handle_frame(&mut self, frame: &[u8]) {
        let (id, reply) = match JsonWire.decode_into(frame, &mut self.kept) {
            Ok(()) if self.kept.id.is_some() => {
                // the envelope leaves for a job: no longer counted as kept,
                // while a spare that takes its place stays counted
                let counted = self.counted;
                let spare = self.outbox.update(|door| {
                    door.state.owed += 1;
                    door.state.kept_bytes -= counted;
                    door.state.spares.pop()
                });
                let spare = spare.unwrap_or_else(Envelope::empty);
                self.counted = spare.held_bytes();
                let env = std::mem::replace(&mut self.kept, spare);
                let outbox = self.outbox.clone();
                self.dispatch.0.push(Job { env, outbox });
                return;
            }
            // the ordered venue: answered here, in arrival order, a line
            // that did not decode in its place
            Ok(()) => (
                None,
                run_handler(&self.kept.request, &mut self.session, &self.registry),
            ),
            Err(e) => undecodable(&JsonWire, frame, e),
        };
        let held = self.kept.held_bytes();
        if self
            .outbox
            .print_ordered(id.as_ref(), reply, self.counted, held)
        {
            self.counted = held;
        } else {
            self.kept = Envelope::empty();
            self.counted = 0;
        }
    }

    /// Move the answers printed so far, one line each, to the end of
    /// `out` — what the connection's writer does, for a caller that serves
    /// the connection without one.
    pub fn take_output(&self, out: &mut Vec<u8>) {
        self.outbox.update(|door| {
            out.append(&mut door.state.bytes);
            door.state.answers = 0;
        });
    }
}

/// The pipelined reader/writer lanes of a JSON connection. Every request
/// line gets exactly one response line; protocol errors are answered (not
/// fatal) so a client bug cannot wedge the connection out from under its
/// own pipeline. This thread is the *reader*: it enters the window and
/// hands each line to `conn` ([`JsonConn::handle_frame`]), then joins the
/// writer — which writes every answer still owed — before returning.
fn serve_lanes<S: KvStore + 'static>(
    mut reader: BufReader<&TcpStream>,
    stream: &TcpStream,
    mut conn: JsonConn<S>,
) -> io::Result<()> {
    let outbox = conn.outbox.clone();
    std::thread::scope(|scope| {
        let writer_thread = std::thread::Builder::new()
            .name("piql-conn-writer".into())
            .spawn_scoped(scope, || write_loop(stream, &outbox))?;
        let read_result: io::Result<()> = (|| {
            let mut frame = Vec::new();
            // once the writer has stopped, it shut the socket's read side
            // and closed the door, so reading ends with the lines already
            // buffered, or at once for a reader parked at a full window
            while JsonWire.read_frame(&mut reader, &mut frame)?
                && outbox.enter(&conn.registry.counters.backpressure_stalls)
            {
                conn.handle_frame(&frame);
            }
            Ok(())
        })();
        // the writer exits once every answer owed is written
        outbox.update(|door| door.state.done = true);
        let _ = writer_thread.join();
        read_result
    })
}

/// The writer half: take every answer printed so far and write it in one
/// go, holding no lock while the socket takes it — a pipelined burst leaves
/// in few write syscalls, and no thread computing an answer ever waits on
/// the socket. The taken buffer and the outbox's trade places, so both are
/// reused. The written answers leave the window in one step. A socket error
/// shuts the socket's read side and closes the door, so the reader stops
/// accepting work whose answers would be discarded, parked or not.
fn write_loop(mut stream: &TcpStream, outbox: &Outbox) {
    let mut taken = Vec::new();
    loop {
        let answers = {
            let mut door = outbox.gate.lock();
            while !door.state.writable() {
                door.state.waiting = true;
                door = outbox.ready.wait(door);
            }
            door.state.waiting = false;
            if door.state.answers == 0 {
                return;
            }
            std::mem::swap(&mut door.state.bytes, &mut taken);
            std::mem::take(&mut door.state.answers)
        };
        if stream.write_all(&taken).is_err() {
            let _ = stream.shutdown(Shutdown::Read);
            outbox.gate.reset(|door| door.closed = true);
            return;
        }
        taken.clear();
        if outbox.windowed {
            outbox.gate.reset(|door| door.held -= answers);
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
    /// The last request the general path decoded, while it is
    /// [`Envelope::worth_keeping`] as the connection's one kept envelope;
    /// the next one is decoded into its buffers ([`Wire::decode_into`]).
    /// Boxed, so a connection is no larger to hold or move.
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
            request: Box::new(Envelope::empty()),
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
        if !self.request.worth_keeping() {
            *self.request = Envelope::empty();
        }
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
            let mut replies = Reply::batch_vec();
            replies.extend(requests.iter().map(|sub| respond(sub, session, registry)));
            return Reply::Batch(replies);
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
    use crate::testkit::{linear_predictor, permissive_slo};
    use piql_core::plan::params::ParamValue;
    use piql_core::rows::Rows;
    use piql_core::value::Value;
    use piql_engine::exec::scratch_bytes;
    use piql_engine::CursorState;
    use piql_kv::{KvRequest, KvResponse, LiveConfig, NsId};
    use std::time::{Duration, Instant};

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

    /// `request`, untagged, as `wire`'s read loop delivers it.
    fn frame_of(wire: &dyn Wire, request: Request) -> Vec<u8> {
        let mut frame = Vec::new();
        wire.encode_envelope(&Envelope { id: None, request }, &mut frame);
        match wire.version() {
            2 => frame[..frame.len() - 1].to_vec(),
            _ => frame.split_off(4),
        }
    }

    /// A batch of `n` `dml`s, each over a text of `len` bytes.
    fn batch_of_texts(n: usize, len: usize) -> Request {
        let dml = |i: usize| Request::Dml {
            sql: format!("{i:0len$}"),
            params: vec![ParamValue::Scalar(Value::Varchar(format!("{i}")))],
        };
        Request::Batch {
            requests: (0..n).map(dml).collect(),
        }
    }

    /// The bound on what a connection keeps for decoding: a request that
    /// holds more than `KEPT_ENVELOPE_BYTES` is let go once answered, while
    /// frames alike reuse one kept request's buffers; and what a shorter
    /// batch leaves waits in the thread's decode stash only up to
    /// `DECODE_STASH_BYTES`, on both codecs.
    #[test]
    fn a_kept_request_and_the_decode_stash_stay_within_their_byte_bounds() {
        use crate::protocol::{decode_stash_bytes, DECODE_STASH_BYTES};
        let db = Arc::new(Database::new(Arc::new(LiveCluster::new(
            LiveConfig::default(),
        ))));
        let registry = Arc::new(StatementRegistry::new(
            db,
            linear_predictor(200, 100, 2),
            permissive_slo(),
        ));
        let mut conn = BinaryConn::new(registry);
        let large = dml_frame(&"x".repeat(1 << 20));
        conn.handle_frame(&large);
        assert_eq!(conn.request.held_bytes(), 0, "the large request is let go");
        let small = dml_frame("a short thought");
        conn.handle_frame(&small);
        let held = conn.request.held_bytes();
        assert!(held > 0 && held <= KEPT_ENVELOPE_BYTES, "{held}");
        let kept = text_buffer(&conn.request);
        conn.handle_frame(&dml_frame("another thought"));
        assert_eq!(text_buffer(&conn.request), kept, "a frame alike reuses it");
        assert!(!conn.output().is_empty());

        // 200 slots of 1 KiB each, left by a batch of one: more than the
        // stash may hold, so it keeps what fits and lets the rest go
        for wire in [&JsonWire as &dyn Wire, &BinaryWire] {
            let mut env = Envelope::empty();
            let big = frame_of(wire, batch_of_texts(200, 1 << 10));
            wire.decode_into(&big, &mut env).unwrap();
            assert!(env.held_bytes() > 2 * DECODE_STASH_BYTES);
            wire.decode_into(&frame_of(wire, batch_of_texts(1, 8)), &mut env)
                .unwrap();
            let stashed = decode_stash_bytes();
            assert!(
                stashed > DECODE_STASH_BYTES / 2 && stashed <= DECODE_STASH_BYTES,
                "v{}: {stashed} bytes stashed",
                wire.version()
            );
            // and the next batch as long takes its slots back
            wire.decode_into(&big, &mut env).unwrap();
            assert!(decode_stash_bytes() < stashed, "v{}", wire.version());
        }
    }

    /// A JSON connection served on a thread of its own, and its client.
    struct BurstConn {
        client: TcpStream,
        registry: Arc<StatementRegistry<LiveCluster>>,
        outbox: Arc<Outbox>,
        served: JoinHandle<io::Result<()>>,
    }

    /// A JSON connection on a dispatch pool of `width` workers with a
    /// window of `window` (`0`: none), over a store whose every request
    /// takes 2 ms.
    fn burst_conn(width: usize, window: usize) -> BurstConn {
        let store = LiveCluster::new(LiveConfig {
            request_delay_us: 2_000,
            pool_threads: 0,
            ..Default::default()
        });
        let db = Arc::new(Database::new(Arc::new(store)));
        db.execute_ddl("CREATE TABLE t (k INT NOT NULL, v VARCHAR(8), PRIMARY KEY (k))")
            .unwrap();
        let registry = Arc::new(StatementRegistry::new(
            db,
            linear_predictor(200, 100, 2),
            permissive_slo(),
        ));
        registry
            .register("q", "SELECT * FROM t WHERE k = <k>")
            .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // a connection the server wedges fails its test, not hangs it
        client
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let (conn, _) = listener.accept().unwrap();
        let dispatch = Arc::new(Dispatch::new(registry.clone(), width));
        let json = JsonConn::new(registry.clone(), dispatch, window);
        let outbox = json.outbox.clone();
        let served = std::thread::spawn(move || serve_lanes(BufReader::new(&conn), &conn, json));
        BurstConn {
            client,
            registry,
            outbox,
            served,
        }
    }

    /// What [`serve_burst`] saw.
    struct Burst {
        answers: Vec<String>,
        /// The spare envelopes the outbox holds once it has answered every
        /// line, and their limit.
        spares: Vec<Envelope>,
        spare_limit: usize,
        /// What the outbox counted its kept envelopes at, once done.
        kept_bytes: usize,
        /// The most requests ever decoded and not yet written, as the
        /// window counts them or as the owed and printed answers show them.
        most_out: u32,
        /// What the window still counted once every answer was written.
        held_after: u32,
        stalls: u64,
    }

    /// `lines` sent at once to a [`burst_conn`], then the client's write
    /// side shut and every answer read.
    fn serve_burst(lines: &[String], width: usize, window: usize) -> Burst {
        let mut conn = burst_conn(width, window);
        let done = Arc::new(AtomicBool::new(false));
        let probe = {
            let (outbox, done) = (conn.outbox.clone(), done.clone());
            std::thread::spawn(move || {
                let mut most = 0;
                while !done.load(Ordering::SeqCst) {
                    let door = outbox.gate.lock();
                    let shown = door.state.owed + door.state.answers;
                    most = most.max(door.held).max(shown);
                    drop(door);
                    std::thread::yield_now();
                }
                most
            })
        };
        let lines = format!("{}\n", lines.join("\n"));
        conn.client.write_all(lines.as_bytes()).unwrap();
        conn.client.shutdown(Shutdown::Write).unwrap();
        let answers = BufReader::new(&conn.client).lines();
        let answers = answers.map(Result::unwrap).collect();
        conn.served.join().unwrap().unwrap();
        done.store(true, Ordering::SeqCst);
        let most_out = probe.join().unwrap();
        let mut door = conn.outbox.gate.lock();
        let stalls = &conn.registry.counters.backpressure_stalls;
        Burst {
            answers,
            spares: std::mem::take(&mut door.state.spares),
            spare_limit: conn.outbox.spare_limit,
            kept_bytes: door.state.kept_bytes,
            most_out,
            held_after: door.held,
            stalls: stalls.load(Ordering::Relaxed),
        }
    }

    fn tagged_read(id: usize) -> String {
        format!(r#"{{"cmd":"execute","id":{id},"name":"q","params":[{{"int":{id}}}]}}"#)
    }

    /// The bound on what a JSON connection keeps: after a burst of tagged
    /// requests, more than its limit of envelopes out at once, it holds no
    /// more spares than the limit — one more than the dispatch pool's width
    /// — and its kept envelopes, the reader's among them, hold no more than
    /// `KEPT_ENVELOPE_BYTES` together; an envelope past that is let go.
    #[test]
    fn a_burst_of_tagged_requests_leaves_no_more_spare_envelopes_than_the_limit() {
        let burst: Vec<String> = (0..12).map(tagged_read).collect();
        let seen = serve_burst(&burst, 2, 0);
        assert_eq!((seen.answers.len(), seen.spare_limit), (12, 3));
        let spares = seen.spares.len();
        assert!(spares > 0 && spares <= seen.spare_limit, "{spares}");

        // requests under ids of 24 KiB: three such spares would hold more
        // than the bound, so the connection keeps fewer
        let long_id = |k: usize| format!("{k}{}", "x".repeat(24 << 10));
        let long_ids: Vec<String> = (0..12)
            .map(|k| {
                let id = long_id(k);
                format!(r#"{{"cmd":"execute","id":"{id}","name":"q","params":[{{"int":{k}}}]}}"#)
            })
            .collect();
        let seen = serve_burst(&long_ids, 2, 0);
        assert_eq!(seen.answers.len(), 12);
        let held: usize = seen.spares.iter().map(Envelope::held_bytes).sum();
        assert!(!seen.spares.is_empty(), "none kept");
        assert!(
            held <= seen.kept_bytes && seen.kept_bytes <= KEPT_ENVELOPE_BYTES,
            "{} spares hold {held} bytes of {} counted",
            seen.spares.len(),
            seen.kept_bytes
        );

        // an untagged request for a name longer than the bound, answered
        // in the reader's envelope and then let go; the tagged lines after
        // it are decoded into envelopes of their own size
        let long = format!(
            r#"{{"cmd":"execute","name":"{}","params":[]}}"#,
            "x".repeat(KEPT_ENVELOPE_BYTES)
        );
        let Burst {
            answers, spares, ..
        } = serve_burst(&[long, tagged_read(1), tagged_read(2)], 2, 0);
        assert_eq!(answers.len(), 3);
        assert!(answers[0].contains("unknown"), "{}", answers[0]);
        assert!(!spares.is_empty());
        for spare in &spares {
            assert!(spare.held_bytes() < 1 << 10, "{}", spare.held_bytes());
        }
    }

    /// The window, not the dispatch width, bounds a burst: over a pool
    /// twice as wide as the window, a tagged burst never has more requests
    /// decoded and unwritten than the window, the reader stalls at it, and
    /// once every answer is written the window is empty again.
    #[test]
    fn a_tagged_burst_never_has_more_out_than_the_window() {
        let burst: Vec<String> = (0..32).map(tagged_read).collect();
        let seen = serve_burst(&burst, 8, 4);
        assert_eq!(seen.answers.len(), 32);
        assert!(seen.most_out <= 4, "{} out at once", seen.most_out);
        assert!(seen.stalls >= 1, "the reader never parked at the window");
        assert_eq!(seen.held_after, 0, "every written answer left the window");
    }

    /// A reader parked at a full window returns once its writer's socket
    /// fails: the client pipelines past the window, reads nothing, and
    /// resets the connection (it closes with answers unread) while the
    /// reader waits for room.
    #[test]
    fn a_reader_parked_at_a_full_window_returns_once_its_socket_fails() {
        let BurstConn {
            mut client,
            registry,
            outbox,
            served,
        } = burst_conn(4, 2);
        // slow enough that the reader is parked when the next answers come
        registry.db().cluster().set_request_delay_us(100_000);
        let burst: Vec<String> = (0..8).map(tagged_read).collect();
        let lines = format!("{}\n", burst.join("\n"));
        client.write_all(lines.as_bytes()).unwrap();
        // the first answers are written and left unread ...
        client.peek(&mut [0]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        let parked = || {
            let door = outbox.gate.lock();
            door.waiting == 1 && door.held == 2
        };
        while !parked() {
            assert!(Instant::now() < deadline, "the reader never parked");
            std::thread::yield_now();
        }
        // ... so closing resets the connection
        drop(client);
        while !served.is_finished() {
            assert!(Instant::now() < deadline, "the reader never returned");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(served.join().is_ok());
        assert!(outbox.gate.lock().closed);
    }

    /// A store whose rounds panic while armed: what an engine or backend
    /// bug looks like from the handler.
    struct FaultyStore {
        inner: LiveCluster,
        armed: AtomicBool,
    }

    impl KvStore for FaultyStore {
        fn namespace(&self, name: &str) -> NsId {
            self.inner.namespace(name)
        }
        fn execute_round(&self, session: &mut Session, round: Vec<KvRequest>) -> Vec<KvResponse> {
            assert!(
                !self.armed.load(Ordering::SeqCst),
                "injected store fault (this panic is the test's)"
            );
            self.inner.execute_round(session, round)
        }
        fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
            self.inner.bulk_put(ns, key, value)
        }
    }

    /// A registry over a [`FaultyStore`] holding `t`, rows (o, k) for o in
    /// 1..=2 and k in 1..=5, with `q` reading one row by key and `pages`
    /// paging through an `o`'s rows two at a time.
    fn faulty_registry() -> (Arc<StatementRegistry<FaultyStore>>, Arc<FaultyStore>) {
        let store = Arc::new(FaultyStore {
            inner: LiveCluster::new(LiveConfig::default()),
            armed: AtomicBool::new(false),
        });
        let db = Arc::new(Database::new(store.clone()));
        db.execute_ddl("CREATE TABLE t (o INT NOT NULL, k INT NOT NULL, PRIMARY KEY (o, k))")
            .unwrap();
        let insert = "INSERT INTO t VALUES (<o>, <k>)";
        for (o, k) in (1..=2).flat_map(|o| (1..=5).map(move |k| (o, k))) {
            let params = [Value::Int(o).into(), Value::Int(k).into()];
            db.execute_dml(&mut Session::new(), insert, params.as_slice())
                .unwrap();
        }
        let registry = Arc::new(StatementRegistry::new(
            db,
            linear_predictor(200, 100, 2),
            permissive_slo(),
        ));
        let q = "SELECT * FROM t WHERE o = 1 AND k = <k>";
        registry.register("q", q).unwrap();
        let pages = "SELECT * FROM t WHERE o = <o> PAGINATE 2";
        assert!(registry.register("pages", pages).unwrap().is_admitted());
        (registry, store)
    }

    /// The answers `conn` has printed, once there are `n` of them.
    fn printed<S: KvStore>(conn: &JsonConn<S>, n: usize) -> Vec<String> {
        let (deadline, mut out) = (Instant::now() + Duration::from_secs(30), Vec::new());
        loop {
            conn.take_output(&mut out);
            let text = std::str::from_utf8(&out).unwrap();
            if text.lines().count() >= n {
                return text.lines().map(str::to_string).collect();
            }
            assert!(Instant::now() < deadline, "{n} answers never came: {text}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A tagged request is a job on the dispatch workers, or with none,
    /// answered on the reader that decoded it before the next line is
    /// read; every one is answered under its id either way.
    #[test]
    fn tagged_requests_are_answered_with_and_without_dispatch_workers() {
        let (registry, _) = faulty_registry();
        for width in [2, 0] {
            let dispatch = Arc::new(Dispatch::new(registry.clone(), width));
            let mut conn = JsonConn::new(registry.clone(), dispatch, 0);
            for k in 0..8 {
                conn.handle_frame(tagged_read(k).as_bytes());
                if width == 0 {
                    let answer = printed(&conn, 1).remove(0);
                    assert!(
                        answer.contains(&format!(r#""id":{k},"ok":true"#)),
                        "{answer}"
                    );
                }
            }
            if width > 0 {
                let answers = printed(&conn, 8);
                for k in 0..8 {
                    let id = format!(r#""id":{k},"ok":true"#);
                    let under_k = answers.iter().filter(|a| a.contains(&id)).count();
                    assert_eq!(under_k, 1, "{answers:?}");
                }
            }
        }
    }

    /// A handler that panics on a dispatch worker is answered with the
    /// internal error under its id, and the worker survives it: with one
    /// worker, the next tagged request is answered by that same worker.
    /// With none, the reader survives it the same way.
    #[test]
    fn a_handler_panic_on_a_dispatch_worker_is_answered_and_the_worker_survives() {
        let (registry, store) = faulty_registry();
        for width in [1, 0] {
            let dispatch = Arc::new(Dispatch::new(registry.clone(), width));
            let mut conn = JsonConn::new(registry.clone(), dispatch, 0);
            store.armed.store(true, Ordering::SeqCst);
            conn.handle_frame(tagged_read(1).as_bytes());
            let failed = printed(&conn, 1).remove(0);
            store.armed.store(false, Ordering::SeqCst);
            assert_eq!(
                failed,
                r#"{"error":"internal error: request handler panicked","id":1,"ok":false}"#
            );
            conn.handle_frame(tagged_read(2).as_bytes());
            let answer = printed(&conn, 1).remove(0);
            assert!(answer.contains(r#"[[{"int":1},{"int":2}]]"#), "{answer}");
        }
        let panics = registry.counters.handler_panics.load(Ordering::Relaxed);
        assert_eq!(panics, 2);
    }

    fn batch_of_pages(o: i32) -> Request {
        let page = || Request::Execute {
            name: "pages".into(),
            params: vec![Value::Int(o).into()],
            cursor: None,
        };
        Request::Batch {
            requests: vec![page(), page()],
        }
    }

    /// The addresses of a batch answer's buffers: its vector, and its
    /// cursors' keys.
    fn batch_buffers(reply: &Reply) -> (usize, Vec<usize>) {
        let Reply::Batch(replies) = reply else {
            panic!("{reply:?}")
        };
        let keys = replies.iter().map(|sub| match sub {
            Reply::Rows {
                cursor: Some(cursor),
                ..
            } => match &cursor.state {
                CursorState::ScanAfter { last_key } => last_key.as_ptr() as usize,
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        });
        (replies.as_ptr() as usize, keys.collect())
    }

    /// A printed batch hands its emptied vector and its cursors' key
    /// buffers back to the thread that printed it, and that thread's next
    /// batch answers into them; another thread's batch does not.
    #[test]
    fn a_printed_batch_hands_its_vector_and_cursor_keys_back_to_its_thread() {
        let (registry, _) = faulty_registry();
        let mut session = Session::new();
        let mut first = respond(&batch_of_pages(1), &mut session, &registry);
        let (vector, mut keys) = batch_buffers(&first);
        let Reply::Batch(replies) = &mut first else {
            unreachable!()
        };
        let cursors: Vec<_> = replies
            .iter_mut()
            .map(|sub| match sub {
                Reply::Rows { cursor, .. } => cursor.take(),
                other => panic!("{other:?}"),
            })
            .collect();
        first.give_back();
        let spare = Reply::batch_vec();
        assert_eq!(spare.as_ptr() as usize, vector, "the vector is kept");
        assert!(spare.capacity() >= 2);
        Reply::Batch(spare).give_back();
        let without_keys = scratch_bytes();
        for cursor in cursors {
            let rows = Rows::default();
            let degraded = false;
            Reply::Rows {
                rows,
                cursor,
                degraded,
            }
            .give_back();
        }
        assert!(scratch_bytes() > without_keys, "the cursors' keys are kept");

        let second = respond(&batch_of_pages(2), &mut session, &registry);
        let (again, mut keys_again) = batch_buffers(&second);
        assert_eq!(again, vector, "the next batch answers into the vector");
        keys.sort_unstable();
        keys_again.sort_unstable();
        assert_eq!(keys_again, keys, "and copies its cursors' keys into theirs");
        second.give_back();

        let elsewhere = std::thread::scope(|scope| {
            let other = scope.spawn(|| {
                assert_eq!(
                    Reply::batch_vec().capacity(),
                    0,
                    "a fresh thread keeps none"
                );
                let reply = respond(&batch_of_pages(1), &mut Session::new(), &registry);
                batch_buffers(&reply)
            });
            other.join().unwrap()
        });
        assert_ne!(elsewhere.0, vector, "another thread keeps its own");
        let third = respond(&batch_of_pages(1), &mut session, &registry);
        assert_eq!(batch_buffers(&third).0, vector, "still this thread's");
    }
}
