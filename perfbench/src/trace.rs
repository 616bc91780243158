//! Spans recorded from the benchmark's own side of each public seam:
//! `KvStore` and `WalSink` wrappers sit between the engine and the store,
//! so storage and log time show up as true children of the handler span
//! of the request being replayed. Used by the traced run only.

use piql_kv::{
    KvRequest, KvResponse, KvStore, LiveCluster, NsBalance, NsId, OpSample, Session, WalSink,
};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Position of the replayed request in its stream.
    pub request_id: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recording {
    spans: Vec<Span>,
    /// Open spans of the replaying thread, innermost last.
    open: Vec<u32>,
    request_id: u32,
}

/// An in-memory span buffer, preallocated, written out at exit.
pub struct Tracer {
    epoch: Instant,
    recording: Mutex<Recording>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            recording: Mutex::new(Recording {
                spans: Vec::with_capacity(capacity),
                open: Vec::new(),
                request_id: 0,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recording> {
        self.recording
            .lock()
            .expect("tracer lock: a recorder panicked")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with [`exit`].
    pub fn enter(&self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        let mut r = self.lock();
        let index = r.spans.len() as u32;
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: r.open.last().copied().unwrap_or(NO_PARENT),
            request_id: r.request_id,
        };
        r.spans.push(span);
        r.open.push(index);
        index
    }

    pub fn exit(&self, index: u32) {
        let end_ns = self.now_ns();
        let mut r = self.lock();
        r.spans[index as usize].end_ns = end_ns;
        r.open.retain(|&i| i != index);
    }

    /// Record a finished span that has no children. Safe from any thread:
    /// the store appends to the log from its pool workers.
    fn leaf(&self, name: &'static str, start_ns: u64) {
        let end_ns = self.now_ns();
        let mut r = self.lock();
        let span = Span {
            name,
            start_ns,
            end_ns,
            parent: r.open.last().copied().unwrap_or(NO_PARENT),
            request_id: r.request_id,
        };
        r.spans.push(span);
    }

    /// Open the root span of request `request_id`.
    pub fn request(&self, name: &'static str, request_id: u32) -> u32 {
        self.lock().request_id = request_id;
        self.enter(name)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// One JSON object per line: name, start_ns, end_ns, parent, request_id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.lock().spans.iter() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request_id
            )?;
        }
        out.flush()
    }
}

/// Total time of the spans called `name`, and of their direct children.
pub fn time_and_children(spans: &[Span], name: &str) -> (u64, u64) {
    let own: u64 = spans.iter().filter(|s| s.name == name).map(Span::ns).sum();
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT && spans[s.parent as usize].name == name)
        .map(Span::ns)
        .sum();
    (own, children)
}

/// A `KvStore` that records a span around each call the engine makes
/// into the store and passes everything through.
pub struct TracedStore {
    inner: Arc<LiveCluster>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    pub fn new(inner: Arc<LiveCluster>, tracer: Arc<Tracer>) -> TracedStore {
        TracedStore { inner, tracer }
    }
}

impl KvStore for TracedStore {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }

    fn execute_round(&self, session: &mut Session, round: Vec<KvRequest>) -> Vec<KvResponse> {
        let span = self.tracer.enter("kv.execute_round");
        let responses = self.inner.execute_round(session, round);
        self.tracer.exit(span);
        responses
    }

    fn point_get(
        &self,
        session: &mut Session,
        ns: NsId,
        key: &[u8],
        out: &mut Vec<u8>,
    ) -> Option<bool> {
        let span = self.tracer.enter("kv.point_get");
        let found = self.inner.point_get(session, ns, key, out);
        self.tracer.exit(span);
        found
    }

    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.inner.bulk_put(ns, key, value)
    }

    fn rebalance(&self) {
        self.inner.rebalance()
    }

    fn balance(&self) -> Vec<NsBalance> {
        self.inner.balance()
    }

    fn sync_session(&self, session: &mut Session) {
        self.inner.sync_session(session)
    }

    fn drain_samples(&self) -> Vec<OpSample> {
        self.inner.drain_samples()
    }

    fn wal_degraded(&self) -> bool {
        self.inner.wal_degraded()
    }
}

/// A `WalSink` that records a span around each append and commit barrier.
pub struct TracedWal {
    inner: Arc<dyn WalSink>,
    tracer: Arc<Tracer>,
}

impl TracedWal {
    pub fn new(inner: Arc<dyn WalSink>, tracer: Arc<Tracer>) -> TracedWal {
        TracedWal { inner, tracer }
    }
}

impl WalSink for TracedWal {
    fn append_ns(&self, ns: NsId, name: &str) {
        self.inner.append_ns(ns, name)
    }

    fn append_put(&self, ns: NsId, key: &[u8], value: &[u8]) {
        let start = self.tracer.now_ns();
        self.inner.append_put(ns, key, value);
        self.tracer.leaf("wal.append", start);
    }

    fn append_delete(&self, ns: NsId, key: &[u8]) {
        let start = self.tracer.now_ns();
        self.inner.append_delete(ns, key);
        self.tracer.leaf("wal.append", start);
    }

    fn commit(&self) -> bool {
        let start = self.tracer.now_ns();
        let durable = self.inner.commit();
        self.tracer.leaf("wal.commit", start);
        durable
    }
}
