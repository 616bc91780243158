//! The write-ahead log: framed records on disk, group commit in front.
//!
//! # Group commit
//!
//! Appenders never touch the file. [`Wal::append`] encodes the frame into
//! an in-memory pending buffer under a short mutex and returns an LSN
//! (the byte offset the segment will have once the frame is written). A
//! dedicated **committer thread** swaps the buffer out, writes it with
//! one `write` + `fdatasync`, then advances the **durable watermark** and
//! wakes everyone blocked in [`Wal::commit`]. While an fsync is in flight
//! new appenders keep accumulating in the fresh buffer, so `k` concurrent
//! write rounds cost ~1 fsync, not `k` — the classic group-commit
//! amortization. This is the only commit path: every append goes through
//! the buffer.
//!
//! # Torn tails
//!
//! A crash can leave a partial frame at the end of the segment.
//! [`read_wal`] stops at the first frame that is short, fails its CRC, or
//! fails to decode, and reports how far the log is intact; recovery
//! truncates to that point and appends from there. Nothing panics on a
//! torn tail — it is the *expected* shape of a crashed log.

use crate::record::{crc32, RecordError, WalRecord};
use piql_analysis::ordered::{Condvar, Mutex};
use piql_analysis::rank;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Frame header: `[len: u32][crc: u32]`.
const HEADER: usize = 8;
/// Sanity bound on a single payload; a length field above this is treated
/// as tail corruption, not an allocation request.
const MAX_PAYLOAD: u32 = 1 << 30;

/// When appended records hit stable storage. There is one answer: appends
/// are buffered and a committer thread coalesces concurrent commits into
/// one `fdatasync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    GroupCommit,
}

impl SyncPolicy {
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::GroupCommit => "group-commit",
        }
    }
}

/// How a replayed segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// The last frame ended exactly at end-of-file.
    Clean,
    /// Fewer than 8 bytes of frame header at `at`.
    TornHeader { at: u64 },
    /// A frame header at `at` promises more payload than the file holds
    /// (or an insane length field).
    TornPayload { at: u64 },
    /// The payload at `at` does not match its checksum.
    BadCrc { at: u64 },
    /// The checksum held but the payload did not decode — corruption that
    /// made it past framing, still treated as end-of-log.
    BadRecord { at: u64, err: RecordError },
}

impl TailState {
    pub fn is_clean(self) -> bool {
        matches!(self, TailState::Clean)
    }
}

impl fmt::Display for TailState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TailState::Clean => write!(f, "clean"),
            TailState::TornHeader { at } => write!(f, "torn header at byte {at}"),
            TailState::TornPayload { at } => write!(f, "torn payload at byte {at}"),
            TailState::BadCrc { at } => write!(f, "checksum mismatch at byte {at}"),
            TailState::BadRecord { at, err } => write!(f, "undecodable record at byte {at}: {err}"),
        }
    }
}

/// Everything [`read_wal`] learned about a segment.
#[derive(Debug)]
pub struct WalContents {
    /// Intact records, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the intact prefix; recovery truncates here.
    pub valid_len: u64,
    pub tail: TailState,
}

/// Read a segment, tolerating a torn tail. A missing file is an empty
/// clean log (the first boot).
pub fn read_wal(path: &Path) -> io::Result<WalContents> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut at = 0usize;
    let tail = loop {
        if at == data.len() {
            break TailState::Clean;
        }
        if data.len() - at < HEADER {
            break TailState::TornHeader { at: at as u64 };
        }
        let (Some(len), Some(crc)) = (le_u32_at(&data, at), le_u32_at(&data, at + 4)) else {
            break TailState::TornHeader { at: at as u64 };
        };
        if len > MAX_PAYLOAD || data.len() - at - HEADER < len as usize {
            break TailState::TornPayload { at: at as u64 };
        }
        let payload = &data[at + HEADER..at + HEADER + len as usize];
        if crc32(payload) != crc {
            break TailState::BadCrc { at: at as u64 };
        }
        match WalRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(err) => break TailState::BadRecord { at: at as u64, err },
        }
        at += HEADER + len as usize;
    };
    Ok(WalContents {
        records,
        valid_len: at as u64,
        tail,
    })
}

/// Little-endian u32 at `at`, or `None` if the slice ends first — replay
/// treats that as a torn header, never a panic.
fn le_u32_at(data: &[u8], at: usize) -> Option<u32> {
    let bytes = data.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

fn frame(rec: &WalRecord) -> Vec<u8> {
    let payload = rec.encode();
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

#[derive(Default)]
struct Pending {
    buf: Vec<u8>,
}

struct Sink {
    file: File,
}

/// Monotonic WAL counters (relaxed; reporting only).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalCounters {
    /// Bytes appended to the current segment (segment length once synced).
    pub segment_bytes: u64,
    /// Records appended to the current segment — i.e. since the last
    /// snapshot rotation.
    pub segment_records: u64,
    /// Records appended over the WAL's lifetime.
    pub total_records: u64,
    /// `fdatasync` calls issued.
    pub fsyncs: u64,
    /// [`Wal::commit`] barriers requested.
    pub commits: u64,
}

/// An append-only segmented log with a durable watermark.
pub struct Wal {
    pending: Mutex<Pending>,
    /// Wakes the committer when the pending buffer gains bytes.
    work: Condvar,
    sink: Mutex<Sink>,
    /// Highest LSN (segment byte offset) known to be on stable storage.
    durable: Mutex<u64>,
    durable_cv: Condvar,
    /// Next LSN to hand out: lifetime bytes appended (monotonic across
    /// segment rotations, so blocked commit barriers stay valid).
    appended: AtomicU64,
    /// LSN at which the current segment began; `appended - segment_start`
    /// is the segment's on-disk length.
    segment_start: AtomicU64,
    /// Graceful shutdown: flush pending, then stop.
    shutdown: AtomicBool,
    /// Crash simulation: pending bytes are *discarded*, waiters released.
    dead: AtomicBool,
    committer: Mutex<Option<std::thread::JoinHandle<()>>>,
    segment_records: AtomicU64,
    total_records: AtomicU64,
    fsyncs: AtomicU64,
    commits: AtomicU64,
}

impl Wal {
    /// Open `path` for appending at `valid_len` (from [`read_wal`] —
    /// anything beyond it is a torn tail and is truncated away) and start
    /// the committer thread. `existing_records` seeds the segment record
    /// counter so "records since last snapshot" survives a restart.
    pub fn open(
        path: &Path,
        valid_len: u64,
        existing_records: u64,
    ) -> io::Result<std::sync::Arc<Wal>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        file.sync_data()?;
        let wal = std::sync::Arc::new(Wal {
            pending: Mutex::new(rank::WAL_PENDING, "wal.pending", Pending::default()),
            work: Condvar::new(),
            sink: Mutex::new(rank::WAL_SINK, "wal.sink", Sink { file }),
            durable: Mutex::new(rank::WAL_DURABLE, "wal.durable", valid_len),
            durable_cv: Condvar::new(),
            appended: AtomicU64::new(valid_len),
            segment_start: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            committer: Mutex::new(rank::WAL_COMMITTER, "wal.committer", None),
            segment_records: AtomicU64::new(existing_records),
            total_records: AtomicU64::new(existing_records),
            fsyncs: AtomicU64::new(0),
            commits: AtomicU64::new(0),
        });
        let w = wal.clone();
        let handle = std::thread::Builder::new()
            .name("piql-wal-commit".into())
            .spawn(move || w.committer_loop())
            .map_err(io::Error::other)?;
        *wal.committer.lock() = Some(handle);
        Ok(wal)
    }

    fn committer_loop(&self) {
        loop {
            let (chunk, target, mut s) = {
                let mut p = self.pending.lock();
                while p.buf.is_empty()
                    && !self.shutdown.load(Ordering::Acquire)
                    && !self.dead.load(Ordering::Acquire)
                {
                    p = self.work.wait(p);
                }
                if self.dead.load(Ordering::Acquire) {
                    return;
                }
                if p.buf.is_empty() {
                    // shutdown with nothing left to flush
                    return;
                }
                // Take the sink *before* releasing `pending` (the same
                // pending→sink order `rotate_to` uses). A rotation can
                // therefore never slip between taking the chunk and
                // writing it: it would sync the old file without the
                // chunk, swap segments, and publish a watermark covering
                // LSNs that exist only in this thread's memory — losing
                // acknowledged writes on a crash and spilling old-segment
                // records into the new file. The watermark target is the
                // LSN at the moment the buffer is taken: everything in
                // `chunk` is below it.
                let chunk = std::mem::take(&mut p.buf);
                let target = self.appended.load(Ordering::Acquire);
                (chunk, target, self.sink.lock())
            };
            let result = s.file.write_all(&chunk).and_then(|_| s.file.sync_data());
            drop(s);
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            if let Err(e) = result {
                // a failing log device voids the durability guarantee;
                // release everyone rather than hanging the write path
                eprintln!("piql-wal: write/sync failed, log is dead: {e}");
                self.dead.store(true, Ordering::Release);
                self.durable_cv.notify_all();
                return;
            }
            let mut d = self.durable.lock();
            if target > *d {
                *d = target;
            }
            drop(d);
            self.durable_cv.notify_all();
        }
    }

    /// Append one record; returns its LSN. Cheap (one short mutex +
    /// memcpy) — safe to call under a shard write lock. Durability comes
    /// from a later [`Wal::commit`].
    pub fn append(&self, rec: &WalRecord) -> u64 {
        if self.dead.load(Ordering::Acquire) {
            return self.appended.load(Ordering::Acquire);
        }
        let bytes = frame(rec);
        let mut p = self.pending.lock();
        let lsn = self
            .appended
            .fetch_add(bytes.len() as u64, Ordering::AcqRel)
            + bytes.len() as u64;
        p.buf.extend_from_slice(&bytes);
        drop(p);
        self.work.notify_one();
        self.segment_records.fetch_add(1, Ordering::Relaxed);
        self.total_records.fetch_add(1, Ordering::Relaxed);
        lsn
    }

    /// Block until every record appended before this call is durable —
    /// the barrier [`piql_kv::WalSink::commit`] maps to. Concurrent
    /// callers coalesce onto the committer's next fsync. Returns `false`
    /// when the log died before the barrier was reached: the records are
    /// *not* durable and the caller must not acknowledge them as such.
    pub fn commit(&self) -> bool {
        self.commits.fetch_add(1, Ordering::Relaxed);
        let reached = self.wait_durable(self.appended.load(Ordering::Acquire));
        // a dead log dropped appends at the door without advancing the
        // barrier LSN, so reaching the watermark proves nothing — once
        // dead, no commit may report durability
        reached && !self.dead.load(Ordering::Acquire)
    }

    /// Block until the watermark reaches `lsn` (or the log dies). Returns
    /// whether the watermark actually got there.
    pub fn wait_durable(&self, lsn: u64) -> bool {
        let mut d = self.durable.lock();
        while *d < lsn && !self.dead.load(Ordering::Acquire) {
            d = self.durable_cv.wait(d);
        }
        *d >= lsn
    }

    /// The durable watermark (reporting).
    pub fn durable_lsn(&self) -> u64 {
        *self.durable.lock()
    }

    /// Atomically flush + fsync the current segment and switch appends to
    /// a fresh file at `new_path` — the first step of a snapshot: every
    /// record after this call lands in the new segment, so a state export
    /// taken *after* the rotation plus the new segment replays to the
    /// same state.
    pub fn rotate_to(&self, new_path: &Path) -> io::Result<()> {
        // holding `pending` blocks appenders for the whole swap; holding
        // `sink` waits out an in-flight committer write. The committer
        // acquires sink before releasing pending, so once both locks are
        // held here no chunk can be in flight: the watermark published
        // below only covers bytes this call has actually synced.
        let mut p = self.pending.lock();
        let chunk = std::mem::take(&mut p.buf);
        let target = self.appended.load(Ordering::Acquire);
        let mut s = self.sink.lock();
        if !chunk.is_empty() {
            s.file.write_all(&chunk)?;
        }
        s.file.sync_data()?;
        let new_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(new_path)?;
        s.file = new_file;
        drop(s);
        let mut d = self.durable.lock();
        if target > *d {
            *d = target;
        }
        drop(d);
        self.durable_cv.notify_all();
        // LSNs keep counting lifetime bytes (commit barriers taken before
        // the rotation stay valid); only the segment accounting resets
        self.segment_start.store(target, Ordering::Release);
        self.segment_records.store(0, Ordering::Release);
        Ok(())
    }

    /// Crash simulation (tests): drop all buffered-but-unwritten bytes
    /// and kill the log, releasing every waiter. File state afterwards is
    /// exactly what a `kill -9` would have left: the durable prefix.
    pub fn abandon(&self) {
        {
            let mut p = self.pending.lock();
            p.buf.clear();
            self.dead.store(true, Ordering::Release);
        }
        self.work.notify_all();
        self.durable_cv.notify_all();
        if let Some(h) = self.committer.lock().take() {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: flush everything pending, then stop the
    /// committer. Called by `Drop`; idempotent.
    pub fn close(&self) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        self.commit();
        {
            // under `pending`, like `abandon`'s `dead`: the committer reads
            // the flag and parks on `work` under that lock, so the flag
            // cannot land between its check and its wait, and the notify
            // below cannot be lost
            let _pending = self.pending.lock();
            self.shutdown.store(true, Ordering::Release);
        }
        self.work.notify_all();
        if let Some(h) = self.committer.lock().take() {
            let _ = h.join();
        }
    }

    /// True once the log has been abandoned or hit an I/O error.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    pub fn counters(&self) -> WalCounters {
        WalCounters {
            segment_bytes: self.appended.load(Ordering::Acquire)
                - self.segment_start.load(Ordering::Acquire),
            segment_records: self.segment_records.load(Ordering::Relaxed),
            total_records: self.total_records.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("piql-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn put(i: u64) -> WalRecord {
        WalRecord::Put {
            ns: 0,
            key: i.to_be_bytes().to_vec(),
            value: vec![7; 16],
        }
    }

    #[test]
    fn append_commit_replay_roundtrip() {
        let dir = temp("roundtrip");
        let path = dir.join("wal-0.log");
        let wal = Wal::open(&path, 0, 0).unwrap();
        for i in 0..100 {
            wal.append(&put(i));
        }
        wal.commit();
        assert_eq!(wal.counters().segment_records, 100);
        assert_eq!(
            wal.durable_lsn(),
            wal.counters().segment_bytes,
            "commit covers every append"
        );
        wal.close();
        let contents = read_wal(&path).unwrap();
        assert!(contents.tail.is_clean());
        assert_eq!(contents.records.len(), 100);
        assert_eq!(contents.records[3], put(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_commits_coalesce_into_few_fsyncs() {
        let dir = temp("coalesce");
        let path = dir.join("wal-0.log");
        let wal = Wal::open(&path, 0, 0).unwrap();
        let per_thread = 50;
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let lsn = wal.append(&put(t * 1000 + i));
                        wal.wait_durable(lsn);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let c = wal.counters();
        assert_eq!(c.segment_records, 8 * per_thread);
        assert!(
            c.fsyncs < 8 * per_thread,
            "group commit must coalesce: {} fsyncs for {} durable appends",
            c.fsyncs,
            8 * per_thread
        );
        wal.close();
        let contents = read_wal(&path).unwrap();
        assert!(contents.tail.is_clean());
        assert_eq!(contents.records.len() as u64, 8 * per_thread);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_moves_new_appends_to_new_segment() {
        let dir = temp("rotate");
        let old = dir.join("wal-0.log");
        let new = dir.join("wal-1.log");
        let wal = Wal::open(&old, 0, 0).unwrap();
        for i in 0..5 {
            wal.append(&put(i));
        }
        wal.rotate_to(&new).unwrap();
        assert_eq!(wal.counters().segment_records, 0, "fresh segment");
        for i in 5..8 {
            wal.append(&put(i));
        }
        wal.commit();
        wal.close();
        assert_eq!(read_wal(&old).unwrap().records.len(), 5);
        let tail = read_wal(&new).unwrap();
        assert_eq!(tail.records.len(), 3);
        assert_eq!(tail.records[0], put(5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_concurrent_with_group_commit_keeps_lsn_layout() {
        // Regression: the committer used to release `pending` before
        // taking `sink`, so a rotation could sneak between the two, sync
        // the old segment *without* the in-flight chunk, publish a
        // watermark covering the chunk's LSNs (acknowledging writes that
        // existed only in committer memory), and leave the chunk to be
        // written into the freshly rotated segment. With consistent
        // pending→sink ordering every acknowledged byte sits exactly at
        // its returned LSN in the on-disk layout.
        let dir = temp("rotate-race");
        let wal = Wal::open(&dir.join("wal-0.log"), 0, 0).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let wal = Arc::clone(&wal);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut acked = Vec::new(); // (record id, end LSN)
                    let mut i = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let id = t * 1_000_000 + i;
                        let lsn = wal.append(&put(id));
                        assert!(wal.wait_durable(lsn), "log died mid-test");
                        acked.push((id, lsn));
                        i += 1;
                    }
                    acked
                })
            })
            .collect();
        let mut last_gen = 0u64;
        for _ in 0..40 {
            std::thread::sleep(std::time::Duration::from_millis(1));
            last_gen += 1;
            wal.rotate_to(&dir.join(format!("wal-{last_gen}.log")))
                .unwrap();
        }
        stop.store(true, Ordering::Release);
        let mut acked = std::collections::HashMap::new();
        for t in threads {
            for (id, lsn) in t.join().unwrap() {
                acked.insert(id, lsn);
            }
        }
        wal.close();
        // replay all segments in order and recompute each record's global
        // end offset; it must equal the LSN its appender was acknowledged
        // at, and every acknowledged record must be present
        let mut offset = 0u64;
        let mut seen = 0usize;
        for g in 0..=last_gen {
            let contents = read_wal(&dir.join(format!("wal-{g}.log"))).unwrap();
            assert!(contents.tail.is_clean());
            for rec in &contents.records {
                offset += HEADER as u64 + rec.encode().len() as u64;
                let WalRecord::Put { key, .. } = rec else {
                    panic!("unexpected record type in test log")
                };
                let id = u64::from_be_bytes(key[..8].try_into().unwrap());
                if let Some(lsn) = acked.get(&id) {
                    assert_eq!(
                        offset, *lsn,
                        "record {id} is on disk at offset {offset}, not its acknowledged LSN"
                    );
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, acked.len(), "acknowledged records missing from disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abandon_keeps_durable_prefix_only() {
        let dir = temp("abandon");
        let path = dir.join("wal-0.log");
        let wal = Wal::open(&path, 0, 0).unwrap();
        for i in 0..20 {
            wal.append(&put(i));
        }
        wal.commit(); // 20 durable
        let durable = read_wal(&path).unwrap().records.len();
        for i in 20..40 {
            wal.append(&put(i)); // buffered, never committed
        }
        wal.abandon();
        let contents = read_wal(&path).unwrap();
        assert!(contents.records.len() >= durable);
        // appends after death are no-ops, commit returns immediately
        wal.append(&put(99));
        wal.commit();
        assert!(wal.is_dead());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_at_valid_len() {
        let dir = temp("reopen");
        let path = dir.join("wal-0.log");
        {
            let wal = Wal::open(&path, 0, 0).unwrap();
            for i in 0..10 {
                wal.append(&put(i));
            }
            wal.close();
        }
        let first = read_wal(&path).unwrap();
        assert!(first.tail.is_clean());
        {
            let wal = Wal::open(&path, first.valid_len, first.records.len() as u64).unwrap();
            assert_eq!(wal.counters().segment_records, 10);
            for i in 10..15 {
                wal.append(&put(i));
            }
            wal.close();
        }
        let all = read_wal(&path).unwrap();
        assert!(all.tail.is_clean());
        assert_eq!(all.records.len(), 15);
        assert_eq!(all.records[14], put(14));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
