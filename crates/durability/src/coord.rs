//! The durability coordinator: generations, recovery, and checkpoints.
//!
//! On-disk layout of a data directory:
//!
//! ```text
//! MANIFEST            current generation g (temp+rename, so atomic)
//! snapshot-<g>.snap   checkpoint of the whole state (absent for g = 0)
//! wal-<g>.log         records appended since that checkpoint
//! wal-<g+k>.log       later segments, if a snapshot never committed
//! ```
//!
//! A snapshot rotates the WAL to generation `g+1` *first*, then exports
//! state, writes `snapshot-<g+1>.snap`, and commits by rewriting
//! `MANIFEST`; only then are the old generation's files deleted. A crash
//! anywhere in that sequence is safe: until the manifest commits, the
//! previous generation's snapshot + *all* later WAL segments replay to
//! the current state (segments after the manifest generation hold exactly
//! the records appended after their rotations — [`Durability::open`]
//! replays every consecutive segment it finds).
//!
//! Recovery is split in two so the embedder can re-run its boot-time
//! schema/seed code first: [`Durability::open`] only *reads* (and returns
//! the [`RecoveredState`]); [`RecoveredState::apply_kv`] then loads the
//! store. Namespace ids are verified during replay — records carry the id
//! the original process assigned, and a bootstrap that creates namespaces
//! in a different order is reported as an error instead of silently
//! corrupting keys.

use crate::record::{Interval, RecordRef, WalRecord};
use crate::snapshot::{read_snapshot, write_snapshot, ModelCheckpoint, SnapshotState};
use crate::wal::{read_wal, SyncPolicy, Wal, WalCounters};
use piql_analysis::ordered::Mutex;
use piql_analysis::rank;
use piql_kv::{KvEntry, KvStore, LiveCluster, NsId, WalSink};
use piql_predict::ModelStore;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

/// Configuration for [`Durability::open`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The data directory (created if missing).
    pub dir: PathBuf,
    /// How appends reach disk: group commit, the one commit path.
    pub policy: SyncPolicy,
    /// Advisory auto-snapshot threshold: when the current WAL segment
    /// exceeds this many bytes, [`Durability::wants_snapshot`] turns true
    /// (a daemon or operator decides when to act on it).
    pub snapshot_wal_bytes: u64,
}

impl DurabilityConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            policy: SyncPolicy::GroupCommit,
            snapshot_wal_bytes: 64 << 20,
        }
    }
}

/// What recovery found, reported through `stats` for observability.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Generation the manifest pointed at.
    pub generation: u64,
    pub snapshot_loaded: bool,
    /// KV entries loaded from the snapshot.
    pub snapshot_entries: u64,
    /// WAL records replayed from segments after the snapshot.
    pub wal_records: u64,
    /// Final segment's tail condition ("clean" or a description of the
    /// torn tail that was truncated away).
    pub wal_tail: String,
    /// Bytes dropped when truncating a torn tail.
    pub truncated_bytes: u64,
    /// Prepared statements recovered (before re-admission).
    pub statements: usize,
    /// DDL statements recovered.
    pub ddl: usize,
    /// Model rotations folded into the recovered models.
    pub model_rotations: u64,
    pub duration_ms: f64,
}

/// Result of one [`Durability::snapshot_with`] checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotSummary {
    /// The generation this checkpoint created.
    pub generation: u64,
    /// KV entries written.
    pub entries: u64,
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// WAL bytes made deletable by this checkpoint.
    pub compacted_wal_bytes: u64,
    pub duration_ms: f64,
}

/// Durability health for the `stats` verb.
#[derive(Debug, Clone)]
pub struct DurabilityHealth {
    pub generation: u64,
    pub policy: &'static str,
    /// True once the WAL has hit an I/O error (or was abandoned): writes
    /// still apply in memory but are no longer durable.
    pub dead: bool,
    /// Bytes in the current WAL segment (records since last snapshot).
    pub wal_bytes: u64,
    /// Records appended since the last snapshot.
    pub wal_records: u64,
    pub commits: u64,
    pub fsyncs: u64,
    /// Milliseconds since the last snapshot (file mtime across restarts);
    /// `None` before the first checkpoint.
    pub last_snapshot_age_ms: Option<u64>,
    pub recovery: RecoveryReport,
}

/// Everything [`Durability::open`] read from disk, ready to be applied.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Snapshot namespaces in original id order (empty without snapshot).
    pub snapshot_namespaces: Vec<(String, Vec<KvEntry>)>,
    /// KV records (`NsCreate`, `Put`, `Delete`) from WAL segments after
    /// the snapshot, in order.
    pub kv_tail: Vec<WalRecord>,
    /// DDL in execution order (snapshot section + tail records).
    pub ddl: Vec<String>,
    /// Final registered-statement map (upserts and drops resolved).
    pub statements: BTreeMap<String, String>,
    /// Model checkpoint intervals from the snapshot, if any.
    snapshot_models: Option<Vec<Interval>>,
    /// Rotations to fold on top (seq > checkpoint seq), in order.
    model_rotations: Vec<Interval>,
    pub report: RecoveryReport,
}

impl RecoveredState {
    /// Load the recovered KV state into `cluster`. Call *after* the
    /// embedder's bootstrap (which must create namespaces in the same
    /// order as the original boot — verified via recorded ids). A snapshot
    /// namespace replaces what the namespace held, so boot-time seed rows
    /// that were deleted pre-snapshot stay deleted.
    pub fn apply_kv(&self, cluster: &LiveCluster) -> io::Result<u64> {
        let mut applied = 0u64;
        let mut known = 0u32;
        for (idx, (name, entries)) in self.snapshot_namespaces.iter().enumerate() {
            let id = cluster.namespace(name);
            if id.0 as usize != idx {
                return Err(ns_mismatch(name, idx as u32, id.0));
            }
            cluster.load_namespace(id, entries);
            applied += entries.len() as u64;
            known = known.max(id.0 + 1);
        }
        for rec in &self.kv_tail {
            match rec {
                WalRecord::NsCreate { ns, name } => {
                    let id = cluster.namespace(name);
                    if id.0 != *ns {
                        return Err(ns_mismatch(name, *ns, id.0));
                    }
                    known = known.max(id.0 + 1);
                }
                WalRecord::Put { ns, key, value } => {
                    if *ns >= known {
                        return Err(unknown_ns(*ns));
                    }
                    cluster.bulk_load(NsId(*ns), key, value);
                    applied += 1;
                }
                WalRecord::Delete { ns, key } => {
                    if *ns >= known {
                        return Err(unknown_ns(*ns));
                    }
                    cluster.bulk_delete(NsId(*ns), key);
                    applied += 1;
                }
                // `open` routes every other record elsewhere
                _ => {}
            }
        }
        Ok(applied)
    }

    /// The recovered model store: the snapshot checkpoint (or `seed` when
    /// there is none) with every logged rotation folded on top — the same
    /// fold sequence the original process performed. The recovered
    /// intervals move into the store, so a second call folds onto `seed`
    /// alone.
    pub fn models(&mut self, seed: ModelStore) -> ModelStore {
        let store = match self.snapshot_models.take() {
            Some(intervals) => ModelStore::from_intervals(intervals),
            None => seed,
        };
        store.rotated_by(std::mem::take(&mut self.model_rotations))
    }
}

fn ns_mismatch(name: &str, recorded: u32, actual: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "namespace '{name}' recovered with id {actual} but the log recorded id {recorded}; \
             the bootstrap sequence changed between runs"
        ),
    )
}

fn unknown_ns(ns: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("log references namespace id {ns} that was never created"),
    )
}

/// What the snapshot exporter hands to [`Durability::snapshot_with`].
pub struct SnapshotInputs {
    /// `LiveCluster::export_namespaces` output.
    pub namespaces: Vec<(String, Vec<KvEntry>)>,
    /// Registered statements, `(name, sql)` by name: the registry's own
    /// map, read after the rotation like everything else here.
    pub statements: Vec<(String, String)>,
    /// `(rotations this process, interval maps)` from
    /// `SharedModelStore::snapshot_with_rotations`, or `None` when no
    /// model store is wired in.
    pub models: Option<(u64, Vec<Interval>)>,
}

/// The durability coordinator: owns the WAL, the generation counter, and
/// a mirror of the DDL (its only copy: the catalog keeps definitions, not
/// text). Everything else a checkpoint writes, the caller's `collect`
/// reads from where it lives.
pub struct Durability {
    config: DurabilityConfig,
    wal: Arc<Wal>,
    /// Current WAL segment generation (>= manifest generation).
    wal_gen: AtomicU64,
    /// Generation the manifest points at.
    manifest_gen: AtomicU64,
    /// Serializes checkpoints.
    snapshot_lock: Mutex<()>,
    ddl: Mutex<Vec<String>>,
    /// Model rotations journaled over the store's durable lifetime.
    model_seq: AtomicU64,
    /// Rotations that predate this process (recovered); process-local
    /// rotation counts add onto this base.
    model_seq_base: u64,
    snapshot_time: Mutex<Option<SystemTime>>,
    report: RecoveryReport,
}

fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen}.log"))
}

fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snapshot-{gen}.snap"))
}

fn read_manifest(dir: &Path) -> io::Result<u64> {
    match std::fs::read_to_string(dir.join("MANIFEST")) {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "unreadable MANIFEST")),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e),
    }
}

fn write_manifest(dir: &Path, gen: u64) -> io::Result<()> {
    let tmp = dir.join("MANIFEST.tmp");
    std::fs::write(&tmp, format!("{gen}\n"))?;
    std::fs::File::open(&tmp)?.sync_all()?;
    std::fs::rename(&tmp, dir.join("MANIFEST"))?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Delete files a committed manifest makes obsolete: WAL segments and
/// snapshots from generations before `gen`, and snapshots from
/// generations after it (written but never committed — their records
/// live on in the replayable WAL segments). Best-effort.
fn cleanup(dir: &Path, gen: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = if let Some(g) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            g < gen
        } else if let Some(g) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".snap"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            g != gen
        } else {
            name.ends_with(".tmp")
        };
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

impl Durability {
    /// Open (or create) a data directory: load the manifest generation's
    /// snapshot, replay every consecutive WAL segment from there,
    /// truncate a torn tail, and resume appending. Returns the recovered
    /// state for the embedder to apply.
    pub fn open(config: DurabilityConfig) -> io::Result<(RecoveredState, Arc<Durability>)> {
        let t0 = Instant::now();
        std::fs::create_dir_all(&config.dir)?;
        let manifest_gen = read_manifest(&config.dir)?;
        cleanup(&config.dir, manifest_gen);

        let mut recovered = RecoveredState::default();
        let mut snapshot_time = None;
        let mut model_seq: u64 = 0;
        if manifest_gen > 0 {
            let path = snap_path(&config.dir, manifest_gen);
            snapshot_time = std::fs::metadata(&path).and_then(|m| m.modified()).ok();
            let snap = read_snapshot(&path)?;
            recovered.report.snapshot_loaded = true;
            recovered.report.snapshot_entries =
                snap.namespaces.iter().map(|(_, e)| e.len() as u64).sum();
            recovered.snapshot_namespaces = snap.namespaces;
            recovered.ddl = snap.ddl;
            recovered.statements = snap.statements.into_iter().collect();
            if let Some(checkpoint) = snap.models {
                model_seq = checkpoint.seq;
                recovered.snapshot_models = Some(checkpoint.intervals);
            }
        }

        // replay every consecutive segment; only the last may be torn
        let mut gen = manifest_gen;
        let (tail, valid_len, truncated, last_records) = loop {
            let path = wal_path(&config.dir, gen);
            let contents = read_wal(&path)?;
            let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let next_exists = wal_path(&config.dir, gen + 1).exists();
            if !contents.tail.is_clean() && next_exists {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "non-final WAL segment {gen} is corrupt ({}); only the last segment \
                         may have a torn tail",
                        contents.tail
                    ),
                ));
            }
            recovered.report.wal_records += contents.records.len() as u64;
            let segment_records = contents.records.len() as u64;
            for rec in contents.records {
                match rec {
                    WalRecord::NsCreate { .. }
                    | WalRecord::Put { .. }
                    | WalRecord::Delete { .. } => recovered.kv_tail.push(rec),
                    WalRecord::Ddl { sql } => {
                        // logs written before deduplication may carry
                        // repeats; DDL is append-only, so replaying the
                        // first occurrence re-derives the same state
                        if !recovered.ddl.contains(&sql) {
                            recovered.ddl.push(sql);
                        }
                    }
                    WalRecord::StatementUpsert { name, sql } => {
                        recovered.statements.insert(name, sql);
                    }
                    WalRecord::StatementDrop { name } => {
                        recovered.statements.remove(&name);
                    }
                    WalRecord::ModelInterval { seq, interval } => {
                        if seq > model_seq {
                            recovered.model_rotations.push(interval);
                            model_seq = seq;
                        }
                    }
                }
            }
            if !next_exists {
                break (
                    contents.tail,
                    contents.valid_len,
                    file_len.saturating_sub(contents.valid_len),
                    segment_records,
                );
            }
            gen += 1;
        };

        let wal = Wal::open(&wal_path(&config.dir, gen), valid_len, last_records)?;
        recovered.report.generation = manifest_gen;
        recovered.report.wal_tail = tail.to_string();
        recovered.report.truncated_bytes = truncated;
        recovered.report.statements = recovered.statements.len();
        recovered.report.ddl = recovered.ddl.len();
        recovered.report.model_rotations = model_seq;
        recovered.report.duration_ms = t0.elapsed().as_secs_f64() * 1e3;

        let durability = Arc::new(Durability {
            wal,
            wal_gen: AtomicU64::new(gen),
            manifest_gen: AtomicU64::new(manifest_gen),
            snapshot_lock: Mutex::new(rank::DUR_SNAPSHOT, "dur.snapshot", ()),
            ddl: Mutex::new(rank::DUR_MIRROR, "dur.ddl-mirror", recovered.ddl.clone()),
            model_seq: AtomicU64::new(model_seq),
            model_seq_base: model_seq,
            snapshot_time: Mutex::new(rank::DUR_SNAPSHOT_TIME, "dur.snapshot-time", snapshot_time),
            report: recovered.report.clone(),
            config,
        });
        Ok((recovered, durability))
    }

    /// Journal a DDL statement (call after it executed successfully).
    ///
    /// The mirror is deduplicated: DDL is append-only (`CREATE TABLE` /
    /// `CREATE INDEX`, no drops), so re-executing a statement whose exact
    /// text is already journaled re-derives the same catalog state on
    /// replay — journaling it again would only grow every future snapshot
    /// and recovery. This bounds the DDL section by the catalog size
    /// instead of the server's lifetime; it must be revisited if DDL ever
    /// grows non-idempotent forms. The append happens under the mirror
    /// lock so journal order always matches mirror order.
    pub fn log_ddl(&self, sql: &str) {
        {
            let mut ddl = self.ddl.lock();
            if ddl.iter().any(|s| s == sql) {
                return;
            }
            ddl.push(sql.to_string());
            self.wal.append(&RecordRef::Ddl { sql });
        }
        self.wal.commit();
    }

    /// Journal a statement registration (upsert semantics). The caller
    /// orders racing (un)registrations of one name: the registry appends
    /// under its statements write lock, in the order its map changes.
    pub fn log_statement_upsert(&self, name: &str, sql: &str) {
        self.wal.append(&RecordRef::StatementUpsert { name, sql });
        self.wal.commit();
    }

    /// Journal a statement removal (ordered by the caller, like
    /// [`Durability::log_statement_upsert`]).
    pub fn log_statement_drop(&self, name: &str) {
        self.wal.append(&RecordRef::StatementDrop { name });
        self.wal.commit();
    }

    /// Journal one model rotation (call from the rotation observer, which
    /// runs under the store's rotation lock — that ordering is what makes
    /// the sequence numbers agree with the fold order).
    pub fn log_model_interval(&self, interval: &Interval) {
        let seq = self.model_seq.fetch_add(1, Ordering::AcqRel) + 1;
        self.wal.append(&RecordRef::ModelInterval { seq, interval });
        self.wal.commit();
    }

    /// Take a checkpoint: rotate the WAL to a new generation, export
    /// state via `collect` (which must read its sources *after* this call
    /// begins — it is invoked post-rotation), write the snapshot, commit
    /// the manifest, and delete the previous generation's files.
    pub fn snapshot_with(
        &self,
        collect: impl FnOnce() -> SnapshotInputs,
    ) -> io::Result<SnapshotSummary> {
        let _guard = self.snapshot_lock.lock();
        if self.wal.is_dead() {
            return Err(io::Error::other("write-ahead log is dead"));
        }
        let t0 = Instant::now();
        let old_bytes = self.wal.counters().segment_bytes;
        let new_gen = self.wal_gen.load(Ordering::Acquire) + 1;
        self.wal.rotate_to(&wal_path(&self.config.dir, new_gen))?;
        // from here on, even an error leaves a replayable chain: the new
        // segment receives all new records and recovery replays every
        // consecutive segment after the committed manifest generation
        self.wal_gen.store(new_gen, Ordering::Release);

        let inputs = collect();
        // the mirror read must follow the rotation: anything a concurrent
        // writer appended to the *old* (now deletable) segment finished
        // its mirror update before the rotation, so it is in this clone
        let ddl = self.ddl.lock().clone();
        let entries: u64 = inputs.namespaces.iter().map(|(_, e)| e.len() as u64).sum();
        let models = inputs.models.map(|(rotations, intervals)| ModelCheckpoint {
            seq: self.model_seq_base + rotations,
            intervals,
        });
        let state = SnapshotState {
            namespaces: inputs.namespaces,
            ddl,
            statements: inputs.statements,
            models,
        };
        let bytes = write_snapshot(&snap_path(&self.config.dir, new_gen), &state)?;
        write_manifest(&self.config.dir, new_gen)?;
        self.manifest_gen.store(new_gen, Ordering::Release);
        *self.snapshot_time.lock() = Some(SystemTime::now());
        // the records behind the checkpoint are now dead weight
        cleanup(&self.config.dir, new_gen);
        Ok(SnapshotSummary {
            generation: new_gen,
            entries,
            bytes,
            compacted_wal_bytes: old_bytes,
            duration_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// True when the current WAL segment has outgrown the configured
    /// auto-snapshot threshold.
    pub fn wants_snapshot(&self) -> bool {
        self.wal.counters().segment_bytes >= self.config.snapshot_wal_bytes
    }

    /// Graceful shutdown: make everything appended durable.
    pub fn close(&self) {
        self.wal.close();
    }

    /// Crash simulation (tests): discard buffered records and kill the
    /// log — the on-disk state afterwards is what a `kill -9` leaves.
    pub fn simulate_crash(&self) {
        self.wal.abandon();
    }

    /// True once the log is dead (crashed or I/O failure).
    pub fn is_dead(&self) -> bool {
        self.wal.is_dead()
    }

    pub fn wal_counters(&self) -> WalCounters {
        self.wal.counters()
    }

    pub fn generation(&self) -> u64 {
        self.manifest_gen.load(Ordering::Acquire)
    }

    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Health block for the `stats` verb.
    pub fn health(&self) -> DurabilityHealth {
        let counters = self.wal.counters();
        let age = self.snapshot_time.lock().and_then(|t| {
            SystemTime::now()
                .duration_since(t)
                .ok()
                .map(|d| d.as_millis() as u64)
        });
        DurabilityHealth {
            generation: self.generation(),
            policy: self.config.policy.name(),
            dead: self.wal.is_dead(),
            wal_bytes: counters.segment_bytes,
            wal_records: counters.segment_records,
            commits: counters.commits,
            fsyncs: counters.fsyncs,
            last_snapshot_age_ms: age,
            recovery: self.report.clone(),
        }
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        self.close();
    }
}

/// The cluster-facing side: `Durability` *is* the [`WalSink`] a
/// [`LiveCluster`] attaches.
impl WalSink for Durability {
    fn append_ns(&self, ns: NsId, name: &str) {
        self.wal.append(&RecordRef::NsCreate { ns: ns.0, name });
    }

    fn append_put(&self, ns: NsId, key: &[u8], value: &[u8]) {
        self.wal.append(&RecordRef::Put {
            ns: ns.0,
            key,
            value,
        });
    }

    fn append_delete(&self, ns: NsId, key: &[u8]) {
        self.wal.append(&RecordRef::Delete { ns: ns.0, key });
    }

    fn commit(&self) -> bool {
        self.wal.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_checkpoint_leaves_only_its_own_generation() {
        let dir = std::env::temp_dir().join(format!("piql-coord-{}-cleanup", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (_, d) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
        for _ in 0..2 {
            d.log_ddl("CREATE TABLE t (id INT PRIMARY KEY)");
            d.snapshot_with(|| SnapshotInputs {
                namespaces: Vec::new(),
                statements: Vec::new(),
                models: None,
            })
            .unwrap();
        }
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["MANIFEST", "snapshot-2.snap", "wal-2.log"]);
        d.close();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
