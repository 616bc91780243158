//! The write-ahead log: framed records on disk, group commit in front.
//!
//! # Group commit
//!
//! An append never touches the file. [`Wal::append`] encodes its frame
//! straight into a staging buffer under a short mutex and returns an LSN
//! (the byte offset the log will have once the frame is written). A
//! caller that needs its records on stable storage calls [`Wal::commit`]:
//! it returns at once when the durable watermark already covers them, and
//! otherwise queues on the segment lock. The first in line leads: it takes
//! everything staged, writes it with one `write` + `fdatasync` and
//! publishes the watermark. A committer queued behind it usually finds
//! its LSN covered once it gets the lock, so `k` concurrent write rounds
//! share ~1 fsync, not `k`, and no thread is there to hand work to.
//!
//! Every path that takes both locks — a leader, [`Wal::rotate_to`],
//! [`Wal::abandon`] — takes the segment before `pending`. Staged bytes
//! therefore leave `pending` only into the hands of the segment's holder,
//! who writes them before anyone else can: a watermark never covers a byte
//! that is not in the file, and no byte lands in a later segment than its
//! LSN says.
//!
//! # Torn tails
//!
//! A crash can leave a partial frame at the end of the segment.
//! [`read_wal`] stops at the first frame that is short, fails its CRC, or
//! fails to decode, and reports how far the log is intact; recovery
//! truncates to that point and appends from there. Nothing panics on a
//! torn tail — it is the *expected* shape of a crashed log.

use crate::record::{crc32, Interval, Record, RecordError, WalRecord};
use piql_analysis::ordered::Mutex;
use piql_analysis::rank;
use std::borrow::Borrow;
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
/// are staged, and the first of a queue of concurrent commits writes them
/// all with one `fdatasync`.
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

/// The open segment, and the buffer its last leader wrote from.
struct Segment {
    file: File,
    /// Kept empty between leaders: a leader swaps it for the staged
    /// buffer, so appends and commits reuse two buffers and allocate
    /// nothing once both have grown.
    spare: Vec<u8>,
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
    /// The open segment. A leader holds it across its write and sync;
    /// taken before `pending` wherever both are.
    segment: Mutex<Segment>,
    /// Frames staged but not yet written, ending at LSN `appended`.
    pending: Mutex<Vec<u8>>,
    /// Next LSN to hand out: lifetime bytes appended (monotonic across
    /// segment rotations, so an LSN taken before a rotation stays valid).
    /// Advanced under `pending`.
    appended: AtomicU64,
    /// Highest LSN on stable storage. Advanced under `segment`.
    durable: AtomicU64,
    /// LSN at which the current segment began; `appended - segment_start`
    /// is the segment's length once everything staged is written.
    segment_start: AtomicU64,
    /// Crashed or failed: staged bytes are discarded, appends dropped, and
    /// no commit reports durability again.
    dead: AtomicBool,
    segment_records: AtomicU64,
    total_records: AtomicU64,
    fsyncs: AtomicU64,
    commits: AtomicU64,
}

impl Wal {
    /// Open `path` for appending at `valid_len` (from [`read_wal`] —
    /// anything beyond it is a torn tail and is truncated away).
    /// `existing_records` seeds the segment record counter so "records
    /// since last snapshot" survives a restart.
    pub fn open(
        path: &Path,
        valid_len: u64,
        existing_records: u64,
    ) -> io::Result<std::sync::Arc<Wal>> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        file.sync_data()?;
        Ok(std::sync::Arc::new(Wal {
            segment: Mutex::new(
                rank::WAL_SEGMENT,
                "wal.segment",
                Segment {
                    file,
                    spare: Vec::new(),
                },
            ),
            pending: Mutex::new(rank::WAL_PENDING, "wal.pending", Vec::new()),
            appended: AtomicU64::new(valid_len),
            durable: AtomicU64::new(valid_len),
            segment_start: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            segment_records: AtomicU64::new(existing_records),
            total_records: AtomicU64::new(existing_records),
            fsyncs: AtomicU64::new(0),
            commits: AtomicU64::new(0),
        }))
    }

    /// Stage one record; returns its LSN. Its frame is encoded straight
    /// into the staging buffer under one short mutex, and nothing touches
    /// the file — safe to call under a shard write lock. Durability comes
    /// from a later [`Wal::commit`].
    pub fn append(
        &self,
        rec: &Record<impl AsRef<[u8]>, impl AsRef<str>, impl Borrow<Interval>>,
    ) -> u64 {
        let mut staged = self.pending.lock();
        if self.is_dead() {
            return self.appended.load(Ordering::Acquire);
        }
        let start = staged.len();
        staged.extend_from_slice(&[0; HEADER]);
        rec.encode_into(&mut staged);
        let payload = &staged[start + HEADER..];
        let header = [
            (payload.len() as u32).to_le_bytes(),
            crc32(payload).to_le_bytes(),
        ];
        staged[start..start + HEADER].copy_from_slice(header.as_flattened());
        let framed = (staged.len() - start) as u64;
        // counted under `pending`, so a rotation resets no count of a
        // record in the segment it closes
        self.segment_records.fetch_add(1, Ordering::Relaxed);
        self.total_records.fetch_add(1, Ordering::Relaxed);
        self.appended.fetch_add(framed, Ordering::AcqRel) + framed
    }

    /// Block until every record appended before this call is durable —
    /// the barrier [`piql_kv::WalSink::commit`] maps to. Returns `false`
    /// when the log is dead: the records are *not* durable and the caller
    /// must not acknowledge them as such.
    pub fn commit(&self) -> bool {
        self.commits.fetch_add(1, Ordering::Relaxed);
        // a dead log dropped appends at the door without advancing the
        // barrier LSN, so reaching the watermark proves nothing — once
        // dead, no commit may report durability
        self.wait_durable(self.appended.load(Ordering::Acquire)) && !self.is_dead()
    }

    /// Block until the watermark reaches `lsn`, leading a write if no one
    /// ahead has covered it. Returns whether the watermark got there (not
    /// when the log is dead).
    pub fn wait_durable(&self, lsn: u64) -> bool {
        if self.durable.load(Ordering::Acquire) < lsn {
            let mut segment = self.segment.lock();
            // a leader ahead of this caller in the queue may have covered
            // `lsn` while it waited
            if self.durable.load(Ordering::Acquire) < lsn && !self.is_dead() {
                let Segment { file, spare } = &mut *segment;
                let end = {
                    let mut staged = self.pending.lock();
                    std::mem::swap(&mut *staged, spare);
                    self.appended.load(Ordering::Acquire)
                };
                // a failure has killed the log; the answer below says so
                let _ = self.sync(file, spare, end);
                spare.clear();
            }
        }
        self.durable.load(Ordering::Acquire) >= lsn
    }

    /// Write `bytes`, which end the log at LSN `end`, sync them and
    /// publish `end` as the watermark: the one way bytes reach a segment,
    /// run with the segment lock held. A failing log device voids the
    /// durability guarantee, so a failure kills the log.
    fn sync(&self, file: &mut File, bytes: &[u8], end: u64) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = file.write_all(bytes).and_then(|()| file.sync_data()) {
            eprintln!("piql-wal: write/sync failed, log is dead: {e}");
            self.dead.store(true, Ordering::Release);
            return Err(e);
        }
        self.durable.fetch_max(end, Ordering::AcqRel);
        Ok(())
    }

    /// Atomically flush + fsync the current segment and switch appends to
    /// a fresh file at `new_path` — the first step of a snapshot: every
    /// record after this call lands in the new segment, so a state export
    /// taken *after* the rotation plus the new segment replays to the
    /// same state.
    pub fn rotate_to(&self, new_path: &Path) -> io::Result<()> {
        // the segment lock waits out an in-flight leader; `pending`, held
        // to the end, keeps appenders out, so everything staged before
        // this call goes to the old segment and everything after to the
        // new one
        let mut segment = self.segment.lock();
        let mut staged = self.pending.lock();
        let end = self.appended.load(Ordering::Acquire);
        self.sync(&mut segment.file, &staged, end)?;
        staged.clear();
        segment.file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(new_path)?;
        // LSNs keep counting lifetime bytes; only the segment accounting
        // resets
        self.segment_start.store(end, Ordering::Release);
        self.segment_records.store(0, Ordering::Release);
        Ok(())
    }

    /// Crash simulation (tests): wait out an in-flight write, drop every
    /// staged byte and kill the log. File state afterwards is exactly what
    /// a `kill -9` would have left: the durable prefix.
    pub fn abandon(&self) {
        let _segment = self.segment.lock();
        // under `pending`, where `append` reads it: no frame is staged
        // after the clear
        let mut staged = self.pending.lock();
        staged.clear();
        self.dead.store(true, Ordering::Release);
    }

    /// Graceful shutdown: make everything appended durable. Called by
    /// `Drop`; idempotent.
    pub fn close(&self) {
        if !self.is_dead() {
            self.commit();
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
        let synced = read_wal(&path).unwrap();
        assert_eq!(synced.records.len(), 100, "commit covers every append");
        assert_eq!(synced.valid_len, wal.counters().segment_bytes);
        wal.close();
        let contents = read_wal(&path).unwrap();
        assert!(contents.tail.is_clean());
        assert_eq!(contents.records.len(), 100);
        assert_eq!(contents.records[3], put(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_sync_nothing_until_one_commit_syncs_them_all() {
        let dir = temp("one-fsync");
        let path = dir.join("wal-0.log");
        let wal = Wal::open(&path, 0, 0).unwrap();
        for i in 0..50 {
            wal.append(&put(i));
        }
        // long enough for a background writer to have synced, were there one
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert_eq!(wal.counters().fsyncs, 0, "an append reached the file");
        assert_eq!(read_wal(&path).unwrap().records.len(), 0);
        assert!(wal.commit());
        assert_eq!(wal.counters().fsyncs, 1, "one commit, one fsync");
        assert_eq!(read_wal(&path).unwrap().records.len(), 50);
        wal.close();
        assert_eq!(wal.counters().fsyncs, 1, "a covered commit syncs nothing");
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
        // Regression: a chunk taken from `pending` by a writer that did
        // not yet hold the segment let a rotation sync the old segment
        // *without* it, publish a watermark covering its LSNs
        // (acknowledging writes that existed only in memory), and leave
        // it to be written into the freshly rotated segment. With every
        // path taking the segment before `pending`, every acknowledged
        // byte sits exactly at its returned LSN in the on-disk layout.
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
