//! The load generator: real client connections over loopback TCP, one
//! load thread per connection in a closed loop, a paced sender plus a
//! reader per connection in the open loop. Only the generator's own
//! clocks are read here.

use crate::check::Checker;
use crate::gen::Stream;
use crate::spec::{Workload, CONNECTIONS};
use piql_server::{binary, Wire};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// A response that takes this long is a failure, not a sample.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// The measured part is cut into this many slices of equal sample
/// count; each end-to-end rate or time is the median of its per-slice
/// values, so a disturbance shorter than half the run does not move it.
pub const SLICES: usize = 10;

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    wire: &'static dyn Wire,
    frame: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr, wire: &'static dyn Wire) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let mut conn = Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(64 << 10, stream),
            wire,
            frame: Vec::new(),
        };
        if wire.version() == 3 {
            conn.writer.write_all(&binary::MAGIC)?;
            if !conn.read()? || binary::parse_hello(&conn.frame).ok() != Some(binary::VERSION) {
                return Err(std::io::Error::other("server did not greet in binary v3"));
            }
        }
        Ok(conn)
    }

    /// Read the next response frame into `self.frame`.
    fn read(&mut self) -> std::io::Result<bool> {
        self.wire.read_frame(&mut self.reader, &mut self.frame)
    }
}

/// What one load thread saw.
#[derive(Default)]
pub struct Seen {
    /// One latency per measured sample (window round trip or interaction
    /// from its due time), ns, and the slice it completed in.
    pub latency_ns: Vec<u64>,
    pub slice: Vec<u8>,
    /// How late the generator was, ns (see `loadgen.send_lag_p99_us`).
    pub lag_ns: Vec<u64>,
    pub ok: u64,
    pub failed: u64,
    pub examples: Vec<String>,
    /// Open loop: responses still outstanding when the last request fell due.
    pub backlog: u64,
}

impl Seen {
    fn with_capacity(samples: usize) -> Seen {
        Seen {
            latency_ns: Vec::with_capacity(samples),
            slice: Vec::with_capacity(samples),
            lag_ns: Vec::with_capacity(samples),
            ..Seen::default()
        }
    }

    fn tally(&mut self, checker: Checker) {
        self.ok += checker.ok;
        self.failed += checker.failed;
        self.examples.extend(checker.examples);
    }
}

/// The clocks at a slice boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    pub at_ns: u64,
    pub cpu_s: f64,
    /// Heap allocations by the process so far, and their bytes.
    pub allocs: (u64, u64),
    /// OK statements so far.
    pub stmts: u64,
}

/// Progress of the measured part, shared by the load threads: it is cut
/// into [`SLICES`] slices of equal sample count, and whichever thread
/// completes a slice's last sample reads the clocks for it.
struct Progress {
    per_slice: usize,
    done: AtomicUsize,
    stmts: AtomicU64,
    marks: Mutex<Vec<Mark>>,
}

impl Progress {
    fn new(samples: usize) -> Progress {
        Progress {
            per_slice: (samples / SLICES).max(1),
            done: AtomicUsize::new(0),
            stmts: AtomicU64::new(0),
            marks: Mutex::new(Vec::with_capacity(SLICES + 1)),
        }
    }

    fn mark(&self, epoch: Instant, stmts: u64) {
        let mark = Mark {
            at_ns: epoch.elapsed().as_nanos() as u64,
            cpu_s: crate::proc::cpu_seconds(),
            allocs: crate::alloc::totals(),
            stmts,
        };
        self.marks
            .lock()
            .expect("marks lock: a load thread panicked")
            .push(mark);
    }

    /// A sample with `stmts` OK statements completed; returns its slice.
    fn completed(&self, epoch: Instant, stmts: u64) -> u8 {
        let total = self.stmts.fetch_add(stmts, Ordering::Relaxed) + stmts;
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(self.per_slice) && done / self.per_slice <= SLICES {
            self.mark(epoch, total);
        }
        ((done - 1) / self.per_slice).min(SLICES - 1) as u8
    }
}

/// Everything the load threads saw, and the clocks around and within the
/// measured part.
pub struct Outcome {
    pub seen: Seen,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Heap allocations over the measured part, and their bytes.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub rss_peak_mb: f64,
    /// The start of the measured part, then the end of each slice.
    pub marks: Vec<Mark>,
}

/// Per-slice values of the end-to-end metrics.
pub struct Slices {
    pub stmt_per_s: Vec<f64>,
    pub cpu_us_per_stmt: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p90_us: Vec<f64>,
}

impl Outcome {
    pub fn slices(&self) -> Slices {
        let mut by_slice = vec![Vec::new(); SLICES];
        for (ns, slice) in self.seen.latency_ns.iter().zip(&self.seen.slice) {
            by_slice[*slice as usize].push(*ns);
        }
        let mut slices = Slices {
            stmt_per_s: Vec::new(),
            cpu_us_per_stmt: Vec::new(),
            p50_us: Vec::new(),
            p90_us: Vec::new(),
        };
        for (k, pair) in self.marks.windows(2).enumerate() {
            let stmts = (pair[1].stmts - pair[0].stmts).max(1) as f64;
            let seconds = (pair[1].at_ns - pair[0].at_ns).max(1) as f64 / 1e9;
            slices.stmt_per_s.push(stmts / seconds);
            slices
                .cpu_us_per_stmt
                .push((pair[1].cpu_s - pair[0].cpu_s) * 1e6 / stmts);
            by_slice[k].sort_unstable();
            slices.p50_us.push(quantile(&by_slice[k], 0.5) / 1e3);
            slices.p90_us.push(quantile(&by_slice[k], 0.9) / 1e3);
        }
        slices
    }
}

/// One part (warm-up or measured) of a closed-loop run: a shared counter
/// hands out windows, so every connection stays busy to the end.
struct Part {
    requests: Range<usize>,
    window: usize,
    next: AtomicUsize,
}

impl Part {
    fn new(requests: Range<usize>, window: usize) -> Part {
        Part {
            requests,
            window,
            next: AtomicUsize::new(0),
        }
    }

    fn windows(&self) -> usize {
        self.requests.len().div_ceil(self.window)
    }

    fn claim(&self) -> Option<Range<usize>> {
        let lo = self.requests.start + self.next.fetch_add(1, Ordering::Relaxed) * self.window;
        (lo < self.requests.end).then(|| lo..(lo + self.window).min(self.requests.end))
    }
}

/// Send one window and read all its answers. Returns false when the
/// connection is no longer usable.
fn exchange(
    conn: &mut Conn,
    stream: &Stream,
    window: Range<usize>,
    out: &mut Vec<u8>,
    checker: &mut Checker,
) -> (bool, Instant) {
    out.clear();
    for i in window.clone() {
        out.extend_from_slice(stream.frame(i));
    }
    let mut open: Vec<usize> = window.collect();
    let unanswered =
        |open: &[usize]| -> u64 { open.iter().map(|&i| stream.meta(i).stmts as u64).sum() };
    if let Err(e) = conn.writer.write_all(out) {
        checker.unanswered(unanswered(&open), &format!("write: {e}"));
        return (false, Instant::now());
    }
    let sent = Instant::now();
    while !open.is_empty() {
        match conn.read() {
            Ok(true) => {}
            Ok(false) => {
                checker.unanswered(unanswered(&open), "server closed the connection");
                return (false, sent);
            }
            Err(e) => {
                checker.unanswered(unanswered(&open), &format!("read: {e}"));
                return (false, sent);
            }
        }
        if checker.positional() {
            let i = open.remove(0);
            checker.check_frame(&stream.meta(i), &conn.frame);
            continue;
        }
        let decoded = checker.decode(&conn.frame);
        let slot = decoded.as_ref().and_then(|(id, _)| {
            let id = (*id)?;
            open.iter().position(|&i| stream.id(i) == id)
        });
        match (decoded, slot) {
            (Some((_, body)), Some(slot)) => {
                let i = open.remove(slot);
                checker.check(&stream.meta(i), &body);
            }
            _ => {
                // an answer to nothing we asked: its request can no
                // longer be told from the others
                checker.unanswered(unanswered(&open), "response does not match a request");
                return (false, sent);
            }
        }
    }
    (true, sent)
}

/// What the load threads of a closed loop share.
struct ClosedLoop<'a> {
    w: &'a Workload,
    stream: &'a Stream,
    /// Warm-up, then the measured part.
    parts: [Part; 2],
    progress: Progress,
    barrier: Barrier,
    epoch: Instant,
    deadline: Duration,
}

fn closed_thread(mut conn: Conn, run: &ClosedLoop) -> Seen {
    let mut seen = Seen::with_capacity(run.parts[1].windows());
    let mut checker = Checker::new(run.w);
    let mut out = Vec::new();
    for (measured, part) in run.parts.iter().enumerate() {
        let measured = measured == 1;
        if measured {
            // warm-up failures still fail the run, but are not throughput
            seen.failed += checker.failed;
            (checker.ok, checker.failed) = (0, 0);
            run.barrier.wait(); // warm-up done everywhere
            run.barrier.wait(); // main thread has read its clocks
        }
        let mut last_done: Option<Instant> = None;
        while let Some(window) = part.claim() {
            let ok_before = checker.ok;
            let started = Instant::now();
            let (usable, sent) = exchange(&mut conn, run.stream, window, &mut out, &mut checker);
            let done = Instant::now();
            if measured {
                seen.latency_ns.push((done - started).as_nanos() as u64);
                seen.slice
                    .push(run.progress.completed(run.epoch, checker.ok - ok_before));
                if let Some(last) = last_done {
                    seen.lag_ns.push((sent - last).as_nanos() as u64);
                }
            }
            last_done = Some(done);
            if !usable || run.epoch.elapsed() > run.deadline {
                break;
            }
        }
    }
    run.barrier.wait(); // measured part done everywhere
    seen.tally(checker);
    seen
}

fn merge(parts: Vec<Seen>) -> Seen {
    let mut all = Seen::default();
    for s in parts {
        all.latency_ns.extend(s.latency_ns);
        all.slice.extend(s.slice);
        all.lag_ns.extend(s.lag_ns);
        all.ok += s.ok;
        all.failed += s.failed;
        all.examples.extend(s.examples);
        all.backlog += s.backlog;
    }
    all
}

/// Closed loop: `warm` requests discarded, then the rest measured.
pub fn closed_loop(
    w: &Workload,
    addr: SocketAddr,
    stream: &Stream,
    warm: usize,
    deadline: Duration,
) -> Outcome {
    let measured = Part::new(warm..stream.len(), w.window);
    let run = ClosedLoop {
        w,
        stream,
        progress: Progress::new(measured.windows()),
        parts: [Part::new(0..warm, w.window), measured],
        barrier: Barrier::new(CONNECTIONS + 1),
        epoch: Instant::now(),
        deadline,
    };
    let wire = crate::gen::wire(w.kind);
    let seen = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let conn = Conn::open(addr, wire).expect("connect");
                let run = &run;
                scope.spawn(move || closed_thread(conn, run))
            })
            .collect();
        run.barrier.wait();
        run.progress.mark(run.epoch, 0);
        run.barrier.wait();
        run.barrier.wait();
        merge(
            threads
                .into_iter()
                .map(|t| t.join().expect("load thread"))
                .collect(),
        )
    });
    Outcome::new(seen, run.epoch, run.progress)
}

impl Outcome {
    /// Read the closing clocks; `progress` holds the opening ones.
    fn new(seen: Seen, epoch: Instant, progress: Progress) -> Outcome {
        let end = Mark {
            at_ns: epoch.elapsed().as_nanos() as u64,
            cpu_s: crate::proc::cpu_seconds(),
            allocs: crate::alloc::totals(),
            stmts: seen.ok,
        };
        let marks = progress
            .marks
            .into_inner()
            .expect("marks lock: a load thread panicked");
        Outcome {
            seen,
            wall_s: (end.at_ns - marks[0].at_ns) as f64 / 1e9,
            cpu_s: end.cpu_s - marks[0].cpu_s,
            allocs: end.allocs.0 - marks[0].allocs.0,
            alloc_bytes: end.allocs.1 - marks[0].allocs.1,
            rss_peak_mb: crate::proc::rss_peak_mb(),
            marks,
        }
    }
}

/// Sleep most of the way to `at`, then spin: a sleeping thread wakes up
/// to a timer-slack late, which would show as send lag.
fn wait_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(80);
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        match (at - now).checked_sub(SPIN) {
            Some(sleep) if !sleep.is_zero() => std::thread::sleep(sleep),
            _ => std::hint::spin_loop(),
        }
    }
}

/// Open loop: every request is sent when it falls due, on the connection
/// `position % CONNECTIONS`; latency runs from the due time. Requests
/// before `warm` are sent but not measured.
pub fn open_loop(w: &Workload, addr: SocketAddr, stream: &Stream, warm: usize) -> Outcome {
    let wire = crate::gen::wire(w.kind);
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_nanos(stream.due_ns[i]);
    let last_due = due(stream.len() - 1);
    let progress = Progress::new(stream.len() - warm);
    let (seen, start) = std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut readers = Vec::new();
        for c in 0..CONNECTIONS {
            let conn = Conn::open(addr, wire).expect("connect");
            let mut writer = conn.writer.try_clone().expect("clone socket");
            let mine = move || (c..stream.len()).step_by(CONNECTIONS);
            senders.push(scope.spawn(move || {
                let mut lag_ns = Vec::with_capacity(stream.len() / CONNECTIONS + 1);
                for i in mine() {
                    wait_until(due(i));
                    let late = due(i).elapsed();
                    if writer.write_all(stream.frame(i)).is_err() {
                        break; // the reader reports the unanswered rest
                    }
                    if i >= warm {
                        lag_ns.push(late.as_nanos() as u64);
                    }
                }
                lag_ns
            }));
            let progress = &progress;
            readers.push(scope.spawn(move || {
                let mut conn = conn;
                let mut seen = Seen::with_capacity(stream.len() / CONNECTIONS + 1);
                let (mut warm_checker, mut checker) = (Checker::new(w), Checker::new(w));
                let mut open: u64 = mine().map(|i| stream.meta(i).stmts as u64).sum();
                for _ in mine() {
                    let why = match conn.read() {
                        Ok(true) => None,
                        Ok(false) => Some("server closed the connection".to_string()),
                        Err(e) => Some(format!("read: {e}")),
                    };
                    let at = Instant::now();
                    let answered = why.is_none().then(|| checker.decode(&conn.frame)).flatten();
                    let Some((Some(id), body)) = answered else {
                        checker.unanswered(open, why.as_deref().unwrap_or("response without id"));
                        break;
                    };
                    let i = id as usize;
                    if i >= stream.len() || i % CONNECTIONS != c {
                        checker.unanswered(open, "response does not match a request");
                        break;
                    }
                    let meta = stream.meta(i);
                    open -= meta.stmts as u64;
                    if i < warm {
                        warm_checker.check(&meta, &body);
                        continue;
                    }
                    let ok_before = checker.ok;
                    checker.check(&meta, &body);
                    seen.latency_ns
                        .push(at.saturating_duration_since(due(i)).as_nanos() as u64);
                    seen.slice
                        .push(progress.completed(start, checker.ok - ok_before));
                    seen.backlog += (at > last_due) as u64;
                }
                seen.failed += warm_checker.failed;
                seen.examples.append(&mut warm_checker.examples);
                seen.tally(checker);
                seen
            }));
        }
        wait_until(due(warm));
        progress.mark(start, 0);
        let mut parts: Vec<Seen> = readers
            .into_iter()
            .map(|t| t.join().expect("reader thread"))
            .collect();
        for (part, sender) in parts.iter_mut().zip(senders) {
            part.lag_ns = sender.join().expect("sender thread");
        }
        (merge(parts), start)
    });
    Outcome::new(seen, start, progress)
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Coefficient of variation.
pub fn cv(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt() / mean
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n => (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
    }
}
