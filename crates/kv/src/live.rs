//! `LiveCluster` — a real-time, thread-safe key/value backend.
//!
//! Where [`SimCluster`](crate::SimCluster) models a distributed store in
//! virtual time, `LiveCluster` *is* a store: sharded ordered maps serving
//! concurrent sessions on the wall clock. It implements the same
//! [`KvStore`] trait, so the whole engine — optimizer bounds, executors,
//! cursors, the write path — runs against it unchanged; this is what
//! `piql-server` fronts with its TCP interface.
//!
//! Design:
//!
//! * Each namespace is split into **contiguous key-range shards** at
//!   explicit split points (initially `shards_per_namespace` leading-byte
//!   stripes), each an ordered set of entries under its own `RwLock`. Point
//!   operations binary-search the split points and touch exactly one
//!   shard; range scans walk the overlapping shards in key order, so lock
//!   contention is striped while scan semantics stay identical to a single
//!   ordered map.
//! * [`LiveCluster::rebalance`] re-learns each namespace's split points at
//!   quantiles of its observed keys — the live-path analog of the SCADS
//!   Director the simulator models — and atomically swaps the re-sharded
//!   namespace in behind an `Arc`'d routing table. Readers route through
//!   the snapshot they loaded; writers briefly serialize on the swap;
//!   concurrent sessions never observe a missing key. A store re-sharded
//!   online does not need twice its data to do it: the entries **move**
//!   into the new generation when no reader holds the old one, and are
//!   **copied** only when one does (so that reader still finds them).
//! * A bulk batch ([`KvStore::bulk_put_all`]) is sorted and cut into
//!   per-shard runs by the cutter a new generation is built with, and
//!   each shard takes its run in one step under its write lock.
//! * A round with service time to overlap — injected per request — has
//!   its requests **fan out over a shared worker pool** ([`RoundPool`]),
//!   and completes at the slowest request: the same round semantics
//!   `SimCluster` models in virtual time (§4, Fig. 12). A round without
//!   any is served on the thread that issued it, where an in-memory lookup
//!   costs less than the hop to a worker would. Responses stay positional.
//!   Within one round, requests must be independent (the engine's rounds
//!   always are); the store may execute them in any order or interleaving.
//! * An operator's packed read round ([`ReadRound`]) served on its caller
//!   is answered as one block sized over the whole round: every probe is
//!   found once to count what its answer holds, and again to copy it.
//! * Sessions carry wall-clock time: `Session::now` is set to the cluster's
//!   monotonic epoch offset when a round completes, so
//!   `Session::elapsed_since` measures real latency with the same API the
//!   simulation uses.
//! * Single-copy strong consistency: `test_and_set` is atomic under the
//!   owning shard's write lock, reads always observe the latest write.
//! * Every storage operation is counted. [`LiveCluster::op_count`] is the
//!   hook the admission-control tests use to prove rejected statements
//!   issue **zero** storage requests.

use crate::cluster::{read_by_requests, KvStore, NsBalance};
use crate::op::{
    Entries, KvEntry, KvRequest, KvResponse, MalformedRound, NsId, Probe, ReadAnswer, ReadRound,
    RequestRound,
};
use crate::partition::SplitPoints;
use crate::pool::{default_pool_threads, RoundPool};
use crate::sample::{LiveSampleSink, OpSample};
use crate::session::{Session, SessionStats};
use crate::store::byte_range;
use crate::wal::WalSink;
use piql_analysis::ordered::RwLock;
use piql_analysis::rank;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `LiveCluster` sizing.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Lock-striping factor: contiguous key-range shards per namespace.
    pub shards_per_namespace: usize,
    /// Workers in the round fan-out pool, which only rounds with injected
    /// service time use. `0` executes every round sequentially on the
    /// calling thread (the pre-pool behavior — useful as a baseline and
    /// for single-threaded determinism).
    pub pool_threads: usize,
    /// Injected service time per storage request, µs. Zero in production;
    /// tests and benches set it to make round timing observable (an
    /// in-memory map serves requests in nanoseconds, so parallel-vs-serial
    /// differences would otherwise drown in noise). Adjustable at runtime
    /// via [`LiveCluster::set_request_delay_us`] — the drift tests slow a
    /// *running* store down without restarting anything.
    pub request_delay_us: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            shards_per_namespace: 16,
            pool_threads: default_pool_threads(),
            request_delay_us: 0,
        }
    }
}

/// The store's own operation counters (all `Relaxed`; read for reporting
/// only). What a request shipped, and in which round, is the session's
/// ledger ([`SessionStats`]); the store keeps only what outlives sessions.
#[derive(Debug, Default)]
pub struct LiveStats {
    /// Logical storage requests served (one per round entry + bulk loads).
    pub ops: AtomicU64,
    /// Per-shard operations: a range request overlapping k shards counts
    /// k here and 1 in `ops` — mirroring `SimCluster`'s logical-vs-physical
    /// (replica/partition visit) accounting.
    pub physical_ops: AtomicU64,
    /// Completed [`LiveCluster::rebalance`] calls (each re-splits every
    /// namespace).
    pub rebalances: AtomicU64,
}

impl LiveStats {
    /// Book one served request, timed or bulk, and answer its session
    /// [`share`]: the one booking of every request, so the store's counts
    /// and the session's cannot disagree. Plain relaxed adds, so the point
    /// lane stays allocation-free.
    fn book(&self, share: SessionStats) -> SessionStats {
        (self.ops).fetch_add(share.logical_requests, Ordering::Relaxed);
        (self.physical_ops).fetch_add(share.physical_requests, Ordering::Relaxed);
        share
    }
}

/// A point-in-time copy of [`LiveStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStatsSnapshot {
    pub ops: u64,
    pub physical_ops: u64,
    pub rebalances: u64,
}

/// Keys sampled per namespace to learn split points (a stride keeps the
/// sample representative when the namespace is large).
const SPLIT_SAMPLE_CAP: usize = 8_192;

/// The cluster's one write-ahead slot: the attached [`WalSink`], if any
/// (see [`LiveCluster::attach_wal`]). A write holds it for read across its
/// mutation, so a detach waits out every write it could still miss.
type WalSlot = RwLock<Option<Arc<dyn WalSink>>>;

/// The attached sink as one write logs to it: the slot's sink, borrowed
/// for the write, and the id of the namespace the write lands in.
#[derive(Clone, Copy)]
struct WalHook<'a> {
    ns: NsId,
    sink: &'a dyn WalSink,
}

impl WalHook<'_> {
    fn log(&self, key: &[u8], value: Option<&[u8]>) {
        match value {
            Some(v) => self.sink.append_put(self.ns, key, v),
            None => self.sink.append_delete(self.ns, key),
        }
    }
}

/// One stored entry: the key and then the value in one exactly-sized heap
/// allocation, which the entry owns. Its shard slot holds where that
/// allocation starts, how long it is and where the key ends — 16 bytes,
/// where a `(Vec<u8>, Vec<u8>)` pair took a 48-byte slot and two
/// allocations. With the key's length in the slot, a search compares keys
/// without first reading anything else from the heap.
///
/// An entry is equal to, ordered like and borrowed as its key alone, so a
/// shard is a set of entries that answers every key-slice lookup and range
/// a map keyed by `Vec<u8>` did; the value never takes part in the order.
struct Entry {
    /// Start of the `len` bytes that [`Entry::new`] took from a
    /// `Box<[u8]>`; owned by this entry and never written again.
    ptr: NonNull<u8>,
    len: u32,
    key_len: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

// SAFETY: an entry owns its bytes alone, as the `Box<[u8]>` they came from
// did, and never writes them after construction: sending it moves that
// ownership, and sharing it only reads.
unsafe impl Send for Entry {}
// SAFETY: as above.
unsafe impl Sync for Entry {}

impl Entry {
    /// `key`'s own buffer, grown in place to hold the entry: room for
    /// exactly `value` is reserved, so building it costs that one growth
    /// (none for an empty value) and no copy of the key into a fresh
    /// buffer.
    fn new(mut key: Vec<u8>, value: &[u8]) -> Entry {
        let len = u32::try_from(key.len() + value.len())
            .expect("a stored entry is under 4 GiB: requests arrive in frames of at most 64 MiB");
        // at most `len`, which fits
        let key_len = key.len() as u32;
        key.reserve_exact(value.len());
        key.extend_from_slice(value);
        let bytes: &'static mut [u8] = Box::leak(key.into_boxed_slice());
        Entry {
            ptr: NonNull::from(bytes).cast(),
            len,
            key_len,
        }
    }

    /// An entry copied from borrowed bytes: one allocation, sized exactly.
    fn copied(key: &[u8], value: &[u8]) -> Entry {
        let mut buf = Vec::with_capacity(key.len() + value.len());
        buf.extend_from_slice(key);
        Entry::new(buf, value)
    }

    /// `(key, value)`, both slices of the one allocation.
    fn parts(&self) -> (&[u8], &[u8]) {
        // SAFETY: `ptr` starts the `len` initialised bytes `new` leaked,
        // which this entry owns until `drop` and nothing writes
        let bytes = unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len as usize) };
        bytes.split_at(self.key_len as usize)
    }

    fn key(&self) -> &[u8] {
        self.parts().0
    }

    fn value(&self) -> &[u8] {
        self.parts().1
    }
}

impl Drop for Entry {
    fn drop(&mut self) {
        let bytes = std::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len as usize);
        // SAFETY: `bytes` is the whole `Box<[u8]>` `new` leaked, owned by
        // this entry alone and given back once, here
        drop(unsafe { Box::from_raw(bytes) });
    }
}

impl Clone for Entry {
    fn clone(&self) -> Entry {
        let (key, value) = self.parts();
        Entry::copied(key, value)
    }
}

impl Borrow<[u8]> for Entry {
    fn borrow(&self) -> &[u8] {
        self.key()
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(other.key())
    }
}

/// One shard's entries, in key order.
type Shard = BTreeSet<Entry>;

/// One immutable routing generation of a namespace: explicit split points
/// and the shards they route to — the same [`SplitPoints`] the
/// simulator's partitions route by, so a key or an interval visits the
/// same parts on both stores.
///
/// A generation's *layout* never changes; [`LiveNamespace::rebalance`]
/// builds a fresh generation off to the side and atomically publishes it.
/// Shard *contents* do change (writers mutate the current generation). A
/// retired generation some reader still holds keeps every key it held at
/// swap time — that reader never observes a missing key; one nobody holds
/// gives its entries up to its successor.
struct ShardSet {
    /// `shards.len() == splits.parts()`.
    splits: SplitPoints,
    shards: Vec<RwLock<Shard>>,
    /// Storage operations served per shard by this generation — the skew
    /// signal [`NsBalance`] reports; starts at zero when a rebalance
    /// installs the generation.
    ops: Vec<AtomicU64>,
}

impl ShardSet {
    /// Hand `each` every part of `splits` in turn, with the run of `sorted`
    /// — entries in strictly increasing key order — that part holds,
    /// bulk-built into a shard of full B-tree leaves. The one cutter of a
    /// new generation ([`ShardSet::cut`]) and of a batch
    /// ([`ShardSet::merge`]).
    fn runs(
        splits: &SplitPoints,
        sorted: impl Iterator<Item = Entry>,
        mut each: impl FnMut(usize, Shard),
    ) {
        let mut entries = sorted.peekable();
        for part in 0..splits.parts() {
            let run = std::iter::from_fn(|| entries.next_if(|e| splits.part_of(e.key()) == part));
            each(part, run.collect());
        }
        assert!(entries.peek().is_none(), "cut entries arrive in key order");
    }

    /// A generation holding `sorted`, which arrives in key order, cut at
    /// `splits`: each shard is the run its split points give it, and every
    /// entry moves in.
    fn cut(splits: SplitPoints, sorted: impl Iterator<Item = Entry>) -> Self {
        let mut shards = Vec::with_capacity(splits.parts());
        ShardSet::runs(&splits, sorted, |_, run| {
            shards.push(RwLock::new(rank::KV_SHARD, "kv.shard", run))
        });
        let ops = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        ShardSet {
            splits,
            shards,
            ops,
        }
    }

    /// The pre-rebalance default, holding `sorted`: contiguous
    /// leading-byte stripes, expressed as explicit split points (`n = 4` →
    /// splits at `[64]`, `[128]`, `[192]`).
    fn striped(shards: usize, sorted: impl Iterator<Item = Entry>) -> Self {
        let n = shards.max(1);
        let mut splits: Vec<Vec<u8>> = (1..n)
            .map(|i| vec![((i * 256).div_ceil(n)).min(255) as u8])
            .collect();
        // > 256 stripes would repeat boundary bytes; collapse the
        // permanently empty shards between duplicates
        splits.dedup();
        ShardSet::cut(SplitPoints::new(splits), sorted)
    }

    /// A generation holding `retired`'s entries — the retiring
    /// generation's shards (or copies of them), in index order — re-split
    /// at the quantiles of their keys: the Director's job, learned by the
    /// same pick as the simulator's, over a strided sample when the
    /// namespace is large. Shards are contiguous ranges, so the entries
    /// arrive in global key order, ready to be cut.
    fn regrouped<S>(retired: Vec<S>, parts: usize) -> Self
    where
        S: IntoIterator<Item = Entry>,
        for<'s> &'s S: IntoIterator<Item = &'s Entry>,
    {
        let total = retired.iter().flatten().count();
        let stride = total.div_ceil(SPLIT_SAMPLE_CAP).max(1);
        let mut sample: Vec<&[u8]> = Vec::with_capacity(total.div_ceil(stride));
        sample.extend(retired.iter().flatten().step_by(stride).map(Entry::key));
        let splits = SplitPoints::at_quantiles(sample.into_iter(), parts);
        ShardSet::cut(splits, retired.into_iter().flatten())
    }

    fn touch(&self, idx: usize) {
        self.ops[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Hand `each` what `probe` finds, in scan order — a get's entry, or up
    /// to `limit` of a range's, shard by shard — and answer the shards
    /// visited (each visit is one physical operation, like a partition
    /// visit in `SimCluster`). An empty or inverted interval is answered by
    /// the shard `start` routes to, with nothing. Each shard is read-locked
    /// while its entries are handed over. Only a `served` probe counts in
    /// the shards' op counters: one whose answer is sized first is found
    /// twice and served once.
    fn find(&self, probe: Probe<'_>, served: bool, mut each: impl FnMut(&[u8], &[u8])) -> u64 {
        let visit = |idx: usize| {
            if served {
                self.touch(idx);
            }
            self.shards[idx].read()
        };
        let (start, end, limit, reverse) = match probe {
            Probe::Get(key) => {
                if let Some(entry) = visit(self.splits.part_of(key)).get(key) {
                    let (key, value) = entry.parts();
                    each(key, value);
                }
                return 1;
            }
            Probe::Range {
                start,
                end,
                limit,
                reverse,
            } => (start, end, limit, reverse),
        };
        let Some(bounds) = byte_range(start, end) else {
            if served {
                self.touch(self.splits.part_of(start));
            }
            return 1;
        };
        let want = usize::try_from(limit.unwrap_or(u64::MAX)).unwrap_or(usize::MAX);
        let (first, last) = self.splits.parts_for_range(start, end).into_inner();
        let (mut found, mut visited) = (0, 0);
        for step in 0..=last - first {
            if found >= want {
                break;
            }
            visited += 1;
            let shard = visit(if reverse { last - step } else { first + step });
            let entries = shard.range::<[u8], _>(bounds).map(Entry::parts);
            let room = want - found;
            let mut hand = |(key, value): (&[u8], &[u8])| {
                found += 1;
                each(key, value);
            };
            if reverse {
                entries.rev().take(room).for_each(&mut hand);
            } else {
                entries.take(room).for_each(&mut hand);
            }
        }
        visited
    }

    /// The entries and the key and value bytes `probe` finds now: the room
    /// its answer needs.
    fn measure(&self, probe: Probe<'_>) -> (usize, usize) {
        let (mut entries, mut bytes) = (0, 0);
        self.find(probe, false, |key, value| {
            entries += 1;
            bytes += key.len() + value.len();
        });
        (entries, bytes)
    }

    fn insert(&self, entry: Entry, wal: Option<WalHook<'_>>) {
        let idx = self.splits.part_of(entry.key());
        self.touch(idx);
        let mut shard = self.shards[idx].write();
        // append while holding the shard lock so the log observes per-key
        // effects in memory order (see crate::wal); the sink only buffers
        if let Some(hook) = wal {
            hook.log(entry.key(), Some(entry.value()));
        }
        shard.replace(entry);
    }

    /// Store `sorted`, a batch in strictly increasing key order: each shard
    /// takes the run its split points give it under its write lock, logged
    /// first, one put per entry. An empty shard has the run swapped in; any
    /// other replaces the run's entries one by one, as
    /// [`ShardSet::insert`] does.
    fn merge(&self, sorted: impl Iterator<Item = Entry>, wal: Option<WalHook<'_>>) {
        ShardSet::runs(&self.splits, sorted, |idx, run| {
            if run.is_empty() {
                return;
            }
            self.ops[idx].fetch_add(run.len() as u64, Ordering::Relaxed);
            let mut shard = self.shards[idx].write();
            if let Some(hook) = wal {
                for entry in &run {
                    hook.log(entry.key(), Some(entry.value()));
                }
            }
            if shard.is_empty() {
                *shard = run;
            } else {
                for entry in run {
                    shard.replace(entry);
                }
            }
        });
    }

    fn remove(&self, key: &[u8], wal: Option<WalHook<'_>>) {
        let idx = self.splits.part_of(key);
        self.touch(idx);
        let mut shard = self.shards[idx].write();
        if let Some(hook) = wal {
            hook.log(key, None);
        }
        shard.remove(key);
    }

    fn test_and_set(
        &self,
        key: Vec<u8>,
        expect: Option<&[u8]>,
        value: Option<Vec<u8>>,
        wal: Option<WalHook<'_>>,
    ) -> (bool, Option<Vec<u8>>) {
        let idx = self.splits.part_of(&key);
        self.touch(idx);
        let mut shard = self.shards[idx].write();
        let stored = shard.get(key.as_slice()).map(Entry::value);
        if stored != expect {
            return (false, stored.map(<[u8]>::to_vec));
        }
        // only the *effect* of a successful TAS is logged — replay applies
        // it as a plain put/delete without re-checking the expectation
        if let Some(hook) = wal {
            hook.log(&key, value.as_deref());
        }
        // the response reports the value now stored: the request's own
        // value answers, and the stored entry is its copy, grown into the
        // key's buffer
        match &value {
            Some(v) => {
                shard.replace(Entry::new(key, v));
            }
            None => {
                shard.remove(key.as_slice());
            }
        }
        (true, value)
    }

    /// Count `[start, end)`; also reports shards visited.
    fn count_range(&self, start: &[u8], end: Option<&[u8]>) -> (u64, u64) {
        let Some(bounds) = byte_range(start, end) else {
            self.touch(self.splits.part_of(start));
            return (0, 1);
        };
        let mut visited = 0u64;
        let total = self
            .splits
            .parts_for_range(start, end)
            .map(|idx| {
                visited += 1;
                self.touch(idx);
                self.shards[idx].read().range::<[u8], _>(bounds).count() as u64
            })
            .sum();
        (total, visited)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn entries_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.read().len() as u64).collect()
    }

    fn ops_per_shard(&self) -> Vec<u64> {
        self.ops.iter().map(|o| o.load(Ordering::Relaxed)).collect()
    }

    /// Every entry in global key order (shards are contiguous ranges, so
    /// index order is key order). Fuzzy under concurrent writers: each
    /// shard is a consistent point-in-time copy, and any write racing the
    /// export is in the WAL segment opened before the export began. Room
    /// for each shard is reserved while it is held, so the answer grows
    /// once per shard and ends exactly sized.
    fn export(&self) -> Vec<KvEntry> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            out.reserve_exact(shard.len());
            let copies = shard.iter().map(Entry::parts);
            out.extend(copies.map(|(key, value)| (key.to_vec(), value.to_vec())));
        }
        out
    }
}

/// One namespace: its id and an `Arc`-swapped routing table over the
/// current [`ShardSet`] generation. Its writes log to the cluster's
/// [`WalSlot`], which each takes as an argument.
///
/// Concurrency protocol (what makes a rebalance invisible to sessions):
///
/// * **Readers** clone the `Arc` under a momentary table read lock and
///   route through the snapshot they loaded — long scans never block a
///   swap, and a retired generation a reader holds keeps its data until
///   that reader drops it.
/// * **Writers** hold the table read lock *across* their shard mutation,
///   so the swap (which takes the write lock) serializes with in-flight
///   writes: no write can land in a generation after its entries left.
/// * **A rebalance** takes the table write lock, so the retiring
///   generation is frozen, and asks `Arc::get_mut` whether anyone else
///   holds it. Nobody can start to — a new reference is only taken under
///   the read lock — so the answer stands until the swap: **moved** when
///   unshared (the retired generation is left empty, and nothing can ever
///   read it), **copied** when a reader holds it (that reader keeps
///   finding every key).
struct LiveNamespace {
    id: NsId,
    table: RwLock<Arc<ShardSet>>,
}

impl LiveNamespace {
    fn new(id: NsId, shards: usize) -> Self {
        LiveNamespace {
            id,
            table: RwLock::new(
                rank::KV_TABLE,
                "kv.ns.table",
                Arc::new(ShardSet::striped(shards, std::iter::empty())),
            ),
        }
    }

    /// What a write to this namespace logs through while it holds the
    /// cluster's slot, read.
    fn hook<'a>(&self, sink: &'a Option<Arc<dyn WalSink>>) -> Option<WalHook<'a>> {
        sink.as_deref().map(|sink| WalHook { ns: self.id, sink })
    }

    /// The current generation, for lock-free reading.
    fn load(&self) -> Arc<ShardSet> {
        self.table.read().clone()
    }

    fn insert(&self, wal: &WalSlot, entry: Entry) {
        let sink = wal.read();
        // hold the table read lock across the mutation (see the struct doc)
        self.table.read().insert(entry, self.hook(&sink));
    }

    /// Store a batch in key order (see [`ShardSet::merge`]), under the
    /// same locks as [`LiveNamespace::insert`].
    fn merge(&self, wal: &WalSlot, sorted: impl Iterator<Item = Entry>) {
        let sink = wal.read();
        self.table.read().merge(sorted, self.hook(&sink));
    }

    fn remove(&self, wal: &WalSlot, key: &[u8]) {
        let sink = wal.read();
        self.table.read().remove(key, self.hook(&sink));
    }

    fn test_and_set(
        &self,
        wal: &WalSlot,
        key: Vec<u8>,
        expect: Option<&[u8]>,
        value: Option<Vec<u8>>,
    ) -> (bool, Option<Vec<u8>>) {
        let sink = wal.read();
        let table = self.table.read();
        table.test_and_set(key, expect, value, self.hook(&sink))
    }

    fn count_range(&self, start: &[u8], end: Option<&[u8]>) -> (u64, u64) {
        self.load().count_range(start, end)
    }

    fn len(&self) -> usize {
        self.load().len()
    }

    fn balance(&self, name: String) -> NsBalance {
        let set = self.load();
        NsBalance {
            name,
            shards: set.shards.len(),
            entries: set.entries_per_shard(),
            ops: set.ops_per_shard(),
        }
    }

    /// Re-split this namespace at learned quantiles of its current keys
    /// and atomically publish the re-sharded generation, built from the
    /// retiring one's entries — moved or copied, see the struct doc.
    fn rebalance(&self, parts: usize) {
        let mut table = self.table.write();
        let next = match Arc::get_mut(&mut table) {
            // the shard locks are uncontended: nobody else holds this set
            Some(retired) => ShardSet::regrouped(
                (retired.shards.iter())
                    .map(|shard| std::mem::take(&mut *shard.write()))
                    .collect::<Vec<Shard>>(),
                parts,
            ),
            // a run per shard, sized while it is held: one allocation per
            // entry, and the regroup moves the copies
            None => ShardSet::regrouped(
                (table.shards.iter())
                    .map(|shard| shard.read().iter().cloned().collect())
                    .collect::<Vec<Vec<Entry>>>(),
                parts,
            ),
        };
        *table = Arc::new(next);
    }
}

/// The real-time backend.
pub struct LiveCluster {
    config: LiveConfig,
    namespaces: RwLock<Vec<Arc<LiveNamespace>>>,
    names: RwLock<BTreeMap<String, NsId>>,
    epoch: Instant,
    /// The fan-out pool, shared by every session of this cluster.
    pool: Arc<RoundPool>,
    /// Runtime-adjustable copy of `config.request_delay_us`.
    request_delay_us: AtomicU64,
    /// Observed operator latencies awaiting the online-training consumer.
    sink: LiveSampleSink,
    /// Attached write-ahead sink, if any (see [`LiveCluster::attach_wal`]):
    /// its one holder. Shared with the pool tasks a write round scatters.
    wal: Arc<WalSlot>,
    /// Latched when the attached sink fails a commit barrier: durability
    /// has silently become memory-only and acknowledgements must say so.
    wal_degraded: AtomicBool,
    pub stats: Arc<LiveStats>,
}

impl Default for LiveCluster {
    fn default() -> Self {
        Self::new(LiveConfig::default())
    }
}

impl LiveCluster {
    pub fn new(config: LiveConfig) -> Self {
        LiveCluster {
            pool: Arc::new(RoundPool::new(config.pool_threads)),
            request_delay_us: AtomicU64::new(config.request_delay_us),
            config,
            namespaces: RwLock::new(rank::KV_NAMESPACES, "kv.namespaces", Vec::new()),
            names: RwLock::new(rank::KV_NAMES, "kv.names", BTreeMap::new()),
            epoch: Instant::now(),
            sink: LiveSampleSink::default(),
            wal: Arc::new(RwLock::new(rank::KV_CLUSTER_WAL, "kv.cluster.wal", None)),
            wal_degraded: AtomicBool::new(false),
            stats: Arc::new(LiveStats::default()),
        }
    }

    /// Attach a write-ahead sink: every namespace creation, put, delete,
    /// and successful test-and-set from now on is appended to `sink`, and
    /// each write round blocks on `sink.commit()` before acknowledging.
    ///
    /// Every namespace that already exists is announced to the sink
    /// (`append_ns`, in id order) so a log replayed after the same
    /// bootstrap sequence reproduces the same id assignment. Serialized
    /// against concurrent namespace creation by the names write lock.
    pub fn attach_wal(&self, sink: Arc<dyn WalSink>) {
        let names = self.names.write();
        let mut by_id: Vec<(&String, NsId)> = names.iter().map(|(n, id)| (n, *id)).collect();
        by_id.sort_by_key(|(_, id)| id.0);
        for (name, id) in by_id {
            sink.append_ns(id, name);
        }
        *self.wal.write() = Some(sink);
        // a fresh sink starts with its durability guarantee intact
        self.wal_degraded.store(false, Ordering::Release);
    }

    /// Detach the write-ahead sink (crash simulation and shutdown): later
    /// writes are memory-only again, and once this returns no write is
    /// still logging to it.
    pub fn detach_wal(&self) {
        *self.wal.write() = None;
        self.wal_degraded.store(false, Ordering::Release);
    }

    /// True once the attached write-ahead sink has failed a commit
    /// barrier: writes from that point on apply in memory only. Latched
    /// until a (fresh) sink is attached. See [`KvStore::wal_degraded`].
    pub fn wal_degraded(&self) -> bool {
        self.wal_degraded.load(Ordering::Acquire)
    }

    /// Change the injected per-request service time of a *running* cluster.
    /// Tests use this to make a fast store drift slow (or recover) under a
    /// live server, exercising admission re-validation without a restart.
    pub fn set_request_delay_us(&self, us: u64) {
        self.request_delay_us.store(us, Ordering::Relaxed);
    }

    /// The live sample sink (observability; consumers normally drain via
    /// [`KvStore::drain_samples`]).
    pub fn sample_sink(&self) -> &LiveSampleSink {
        &self.sink
    }

    /// The round fan-out pool (observability).
    pub fn pool(&self) -> &Arc<RoundPool> {
        &self.pool
    }

    fn ns_data(&self, ns: NsId) -> Arc<LiveNamespace> {
        self.namespaces.read()[ns.0 as usize].clone()
    }

    /// Total storage operations served so far (including bulk loads).
    pub fn op_count(&self) -> u64 {
        self.stats.ops.load(Ordering::Relaxed)
    }

    /// Entries currently in a namespace.
    pub fn ns_len(&self, ns: NsId) -> usize {
        self.ns_data(ns).len()
    }

    /// Microseconds since this cluster was created (the time base sessions
    /// advance on).
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub fn stats_snapshot(&self) -> LiveStatsSnapshot {
        LiveStatsSnapshot {
            ops: self.stats.ops.load(Ordering::Relaxed),
            physical_ops: self.stats.physical_ops.load(Ordering::Relaxed),
            rebalances: self.stats.rebalances.load(Ordering::Relaxed),
        }
    }

    /// Re-learn every namespace's split points from the keys it currently
    /// holds and atomically publish the re-sharded namespaces — the
    /// Director's job (quantile split points, exactly like
    /// [`SimCluster::rebalance`](crate::SimCluster::rebalance)), performed
    /// online: concurrent sessions keep reading and writing throughout.
    pub fn rebalance(&self) {
        let namespaces: Vec<Arc<LiveNamespace>> = self.namespaces.read().clone();
        for ns in &namespaces {
            ns.rebalance(self.config.shards_per_namespace);
        }
        self.stats.rebalances.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-namespace shard balance (entry and op distribution over the
    /// current layout) — the skew signal that tells an operator (or a
    /// future auto-trigger) a rebalance is due.
    pub fn balance(&self) -> Vec<NsBalance> {
        let names: Vec<(String, NsId)> = self
            .names
            .read()
            .iter()
            .map(|(n, id)| (n.clone(), *id))
            .collect();
        names
            .into_iter()
            .map(|(name, id)| self.ns_data(id).balance(name))
            .collect()
    }

    /// Name and contents of every namespace, ordered by namespace id —
    /// the snapshot export. Fuzzy under concurrent writers (each shard is
    /// copied at a consistent instant); safe to pair with a WAL segment
    /// rotated *before* the export, because replaying that segment's
    /// puts/deletes over the copy is idempotent.
    pub fn export_namespaces(&self) -> Vec<(String, Vec<KvEntry>)> {
        let mut by_id: Vec<(String, NsId)> = self
            .names
            .read()
            .iter()
            .map(|(n, id)| (n.clone(), *id))
            .collect();
        by_id.sort_by_key(|(_, id)| id.0);
        by_id
            .into_iter()
            .map(|(name, id)| (name, self.ns_data(id).load().export()))
            .collect()
    }

    /// Store a copy of `key` → `value` outside any timed session:
    /// [`KvStore::bulk_put`] from borrowed bytes, in the one allocation the
    /// entry is. Recovery loads logged puts with it.
    pub fn bulk_load(&self, ns: NsId, key: &[u8], value: &[u8]) {
        self.stats.book(WRITE);
        self.ns_data(ns)
            .insert(&self.wal, Entry::copied(key, value));
    }

    /// Remove `key` outside any timed session — the replay-side mirror of
    /// [`LiveCluster::bulk_load`], used by recovery to apply logged deletes.
    pub fn bulk_delete(&self, ns: NsId, key: &[u8]) {
        self.stats.book(WRITE);
        self.ns_data(ns).remove(&self.wal, key);
    }

    /// Replace everything `ns` holds with copies of `entries`, on the
    /// initial striped layout. Recovery loads a snapshot's namespace with
    /// it, so rows that were deleted pre-snapshot (and so appear in neither
    /// snapshot nor WAL) cannot be resurrected by an embedder's boot-time
    /// seed data. Each entry is one allocation, and each shard is cut from
    /// the sorted copies, as a rebalance builds them, rather than grown
    /// insert by insert; of equal keys the last one wins.
    pub fn load_namespace(&self, ns: NsId, entries: &[KvEntry]) {
        let mut sorted: Vec<Entry> = (entries.iter())
            .map(|(key, value)| {
                self.stats.book(WRITE);
                Entry::copied(key, value)
            })
            .collect();
        // stable, and a shard's build keeps the last of equal keys
        sorted.sort();
        let set = ShardSet::striped(self.config.shards_per_namespace, sorted.into_iter());
        *self.ns_data(ns).table.write() = Arc::new(set);
    }
}

/// One request's share of what its round books on the session
/// ([`LiveCluster::complete_round`]): itself, its shard visits, and the
/// entries and bytes it shipped.
const fn share(physical: u64, entries: u64, bytes: u64) -> SessionStats {
    SessionStats {
        rounds: 0,
        logical_requests: 1,
        physical_requests: physical,
        entries,
        bytes,
    }
}

/// A write's [`share`]: one shard, nothing shipped back.
const WRITE: SessionStats = share(1, 0, 0);

/// Serve the read `probe` from `table`, handing `each` what it finds, and
/// book it on `stats`; answers its [`share`]. A range ships the keys and
/// values of its entries over the shards it visits; a get ships nothing
/// the session counts.
fn serve_read(
    table: &ShardSet,
    stats: &LiveStats,
    probe: Probe<'_>,
    mut each: impl FnMut(&[u8], &[u8]),
) -> SessionStats {
    let (mut entries, mut bytes) = (0, 0);
    let visited = table.find(probe, true, |key, value| {
        entries += 1;
        bytes += (key.len() + value.len()) as u64;
        each(key, value);
    });
    let physical = visited.max(1);
    stats.book(match probe {
        Probe::Get(_) => share(physical, 0, 0),
        Probe::Range { .. } => share(physical, entries, bytes),
    })
}

/// The injected per-request service time. Always slept *inside* a round's
/// timed window, so the sampled latency is what a slow store would show.
fn inject_delay(delay_us: u64) {
    if delay_us > 0 {
        std::thread::sleep(std::time::Duration::from_micros(delay_us));
    }
}

impl LiveCluster {
    /// Whether a round of `requests` is scattered over the pool rather than
    /// served on the thread that issued it: only when it has service time
    /// to overlap — two requests or more, a worker to take them, and an
    /// injected per-request delay. An in-memory lookup takes a fraction of
    /// a microsecond, less than handing it to a worker and joining it back
    /// (ARCHITECTURE.md, "Concurrency model").
    fn fans_out(&self, requests: usize, delay_us: u64) -> bool {
        requests >= 2 && delay_us > 0 && self.pool.worker_count() > 0
    }

    /// Everything a round does once its requests have been served: the
    /// durability barrier, the latency sample, and the session accounting.
    /// The one epilogue of `execute_round`, `read_round`, `execute_one` and
    /// `point_get`; `round` is the sum of its requests' [`share`]s.
    fn complete_round(
        &self,
        session: &mut Session,
        started: u64,
        round: SessionStats,
        has_write: bool,
    ) {
        // durability barrier: a round containing writes is only
        // acknowledged once its appended records are on stable storage.
        // Inside the timed window on purpose — commit latency is real
        // write latency and must show up in the sampled round time.
        if has_write {
            let sink = self.wal.read().clone();
            if let Some(sink) = sink {
                if !sink.commit() {
                    // the log died: these writes exist in memory only.
                    // Latch the degradation so the serving layer can fail
                    // (or flag) write acknowledgements instead of silently
                    // serving a store that no longer survives a restart.
                    self.wal_degraded.store(true, Ordering::Release);
                }
            }
        }
        // advance to wall-clock completion (monotonic per session even if
        // the session was created before this cluster's epoch)
        let completed = self.now_micros();
        // tagged rounds feed the online-training sink: one sample per
        // round, at the round's wall-clock latency — fan-out included,
        // which is exactly the operator random variable Θ the §6.1 models
        // are histograms of
        if let Some(tag) = session.op_tag {
            self.sink.record(OpSample {
                tag,
                micros: completed.saturating_sub(started),
            });
        }
        session.now = session.now.max(completed);
        session.stats += SessionStats { rounds: 1, ..round };
    }
}

/// Serve one request against its namespace. Free-standing (not `&self`) so
/// rounds can scatter it across pool threads. Takes the request **by
/// value**: a round owns its requests, so the keys and payloads of writes
/// move into the shard instead of being copied. Returns the response and
/// the request's [`share`]. A range's answer is sized, then copied: its
/// entries are found once to count and sum them, room for exactly that is
/// made, and they are found again and copied — two allocations however
/// many shards it spans. A write between the two finds may cost one
/// regrowth; the answer is what the second found.
fn execute_request(
    data: &LiveNamespace,
    stats: &LiveStats,
    wal: &WalSlot,
    req: KvRequest,
    delay_us: u64,
) -> (KvResponse, SessionStats) {
    inject_delay(delay_us);
    match req {
        KvRequest::Get { key, .. } => {
            let mut value = None;
            let served = serve_read(&data.load(), stats, Probe::Get(&key), |_, stored| {
                value = Some(stored.to_vec())
            });
            (KvResponse::Value(value), served)
        }
        KvRequest::Put { key, value, .. } => {
            data.insert(wal, Entry::new(key, &value));
            (KvResponse::Done, stats.book(WRITE))
        }
        KvRequest::Delete { key, .. } => {
            data.remove(wal, &key);
            (KvResponse::Done, stats.book(WRITE))
        }
        KvRequest::TestAndSet {
            key, expect, value, ..
        } => {
            let (success, current) = data.test_and_set(wal, key, expect.as_deref(), value);
            let response = KvResponse::TasResult { success, current };
            (response, stats.book(WRITE))
        }
        KvRequest::GetRange {
            start,
            end,
            limit,
            reverse,
            ..
        } => {
            let probe = Probe::Range {
                start: &start,
                end: end.as_deref(),
                limit,
                reverse,
            };
            let table = data.load();
            let (entries, bytes) = table.measure(probe);
            let mut found = Entries::with_capacity(entries, bytes);
            let served = serve_read(&table, stats, probe, |key, value| found.push(key, value));
            (KvResponse::Entries(found), served)
        }
        KvRequest::CountRange { start, end, .. } => {
            let (total, visited) = data.count_range(&start, end.as_deref());
            let counted = stats.book(share(visited.max(1), 0, 0));
            (KvResponse::Count(total), counted)
        }
    }
}

impl KvStore for LiveCluster {
    fn namespace(&self, name: &str) -> NsId {
        if let Some(id) = self.names.read().get(name) {
            return *id;
        }
        let mut names = self.names.write();
        if let Some(id) = names.get(name) {
            return *id;
        }
        let mut data = self.namespaces.write();
        let id = NsId(data.len() as u32);
        if let Some(sink) = self.wal.read().as_ref() {
            sink.append_ns(id, name);
        }
        let shards = self.config.shards_per_namespace;
        data.push(Arc::new(LiveNamespace::new(id, shards)));
        names.insert(name.to_string(), id);
        id
    }

    /// Issue one parallel round. When it fans out
    /// (`LiveCluster::fans_out`) its requests are scattered over the
    /// shared worker pool and the round completes at the *slowest* request
    /// — the semantics the paper's latency model and `SimCluster` assume;
    /// otherwise they are served in order on the calling thread. Either
    /// way responses come back in request order.
    fn execute_round(&self, session: &mut Session, round: RequestRound) -> Vec<KvResponse> {
        if round.is_empty() {
            return Vec::new();
        }
        let has_write = round.iter().any(KvRequest::is_write);
        let started = self.now_micros();
        let delay_us = self.request_delay_us.load(Ordering::Relaxed);
        let mut booked = SessionStats::default();
        let mut responses = Vec::with_capacity(round.len());
        let mut join = |(response, served): (KvResponse, SessionStats)| {
            booked += served;
            responses.push(response);
        };
        if self.fans_out(round.len(), delay_us) {
            // resolve namespaces on the calling thread (cheap; keeps tasks
            // 'static), then scatter
            let tasks: Vec<_> = round
                .into_iter()
                .map(|req| {
                    let data = self.ns_data(req.ns());
                    let (stats, wal) = (self.stats.clone(), self.wal.clone());
                    move || execute_request(&data, &stats, &wal, req, delay_us)
                })
                .collect();
            self.pool.scatter(tasks).into_iter().for_each(&mut join);
        } else {
            for req in round {
                join(execute_request(
                    &self.ns_data(req.ns()),
                    &self.stats,
                    &self.wal,
                    req,
                    delay_us,
                ));
            }
        }
        self.complete_round(session, started, booked, has_write);
        responses
    }

    /// An operator's read round. One that fans out
    /// (`LiveCluster::fans_out`), or has no probes, is issued as the
    /// requests it stands for (the trait's default). One served on the
    /// calling thread is answered as one block sized over the whole round,
    /// in the caller's answer: every probe is found once to count what it
    /// holds, room for exactly that is made, and every probe is found
    /// again, copied and booked as the request it stands for. A write
    /// between the two finds may cost the answer one regrowth; what it
    /// holds is what the second found.
    fn read_round(
        &self,
        session: &mut Session,
        round: &ReadRound,
        answer: &mut ReadAnswer,
    ) -> Result<(), MalformedRound> {
        let delay_us = self.request_delay_us.load(Ordering::Relaxed);
        if self.fans_out(round.len(), delay_us) || round.is_empty() {
            return read_by_requests(self, session, round, answer);
        }
        let started = self.now_micros();
        let table = self.ns_data(round.ns()).load();
        let (mut entries, mut bytes) = (0, 0);
        for (probe_entries, probe_bytes) in round.probes().map(|probe| table.measure(probe)) {
            entries += probe_entries;
            bytes += probe_bytes;
        }
        answer.reset(round.len(), entries, bytes);
        let mut booked = SessionStats::default();
        for probe in round.probes() {
            inject_delay(delay_us);
            booked += serve_read(&table, &self.stats, probe, |key, value| {
                answer.push(key, value)
            });
            answer.end_probe();
        }
        self.complete_round(session, started, booked, false);
        Ok(())
    }

    /// A round of one, served on the calling thread with neither the
    /// request nor the response boxed into a vector.
    fn execute_one(&self, session: &mut Session, req: KvRequest) -> KvResponse {
        let has_write = req.is_write();
        let started = self.now_micros();
        let delay_us = self.request_delay_us.load(Ordering::Relaxed);
        let data = self.ns_data(req.ns());
        let (response, served) = execute_request(&data, &self.stats, &self.wal, req, delay_us);
        self.complete_round(session, started, served, has_write);
        response
    }

    /// Single-key fast path: equivalent to a one-request `GetRange` round
    /// (same counters, same sampled latency — injected service time
    /// included — same session accounting), but appending the value into a
    /// caller-owned buffer instead of returning freshly allocated entries —
    /// in steady state this performs no heap allocation at all.
    fn point_get(
        &self,
        session: &mut Session,
        ns: NsId,
        key: &[u8],
        out: &mut Vec<u8>,
    ) -> Option<bool> {
        let started = self.now_micros();
        inject_delay(self.request_delay_us.load(Ordering::Relaxed));
        let table = self.ns_data(ns).load();
        let mut entry_bytes = None;
        table.find(Probe::Get(key), true, |key, value| {
            out.extend_from_slice(value);
            entry_bytes = Some((key.len() + value.len()) as u64);
        });
        let found = entry_bytes.is_some();
        let served = share(1, found as u64, entry_bytes.unwrap_or(0));
        self.complete_round(session, started, self.stats.book(served), false);
        Some(found)
    }

    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.stats.book(WRITE);
        self.ns_data(ns).insert(&self.wal, Entry::new(key, &value));
    }

    /// Each pair becomes its entry as it is pulled, grown into its key's
    /// buffer and booked as one write; the batch is stable-sorted, of equal
    /// keys the last is kept, and each shard takes its run in one locked
    /// step (`ShardSet::merge`), rather than taking the locks and
    /// descending the B-tree once per entry.
    fn bulk_put_all(&self, ns: NsId, entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>) {
        let mut batch = Vec::with_capacity(entries.size_hint().0);
        for (key, value) in entries {
            self.stats.book(WRITE);
            batch.push(Entry::new(key, &value));
        }
        batch.sort();
        // `dedup_by` drops `later` and keeps `kept`: swapping first keeps
        // the later value in the earlier slot
        batch.dedup_by(|later, kept| {
            later.key() == kept.key() && {
                std::mem::swap(later, kept);
                true
            }
        });
        self.ns_data(ns).merge(&self.wal, batch.into_iter());
    }

    fn rebalance(&self) {
        LiveCluster::rebalance(self);
    }

    fn balance(&self) -> Vec<NsBalance> {
        LiveCluster::balance(self)
    }

    fn sync_session(&self, session: &mut Session) {
        session.now = session.now.max(self.now_micros());
    }

    fn drain_samples(&self) -> Vec<OpSample> {
        self.sink.drain()
    }

    fn wal_degraded(&self) -> bool {
        LiveCluster::wal_degraded(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LiveCluster {
        LiveCluster::new(LiveConfig {
            shards_per_namespace: 4,
            ..Default::default()
        })
    }

    #[test]
    fn point_ops_roundtrip() {
        let c = small();
        let ns = c.namespace("t");
        let mut s = Session::new();
        c.execute_round(
            &mut s,
            vec![KvRequest::Put {
                ns,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }],
        );
        let r = c.execute_round(
            &mut s,
            vec![KvRequest::Get {
                ns,
                key: b"k".to_vec(),
            }],
        );
        assert_eq!(r[0].expect_value(), Some(b"v".as_slice()));
        c.execute_round(
            &mut s,
            vec![KvRequest::Delete {
                ns,
                key: b"k".to_vec(),
            }],
        );
        let r = c.execute_round(
            &mut s,
            vec![KvRequest::Get {
                ns,
                key: b"k".to_vec(),
            }],
        );
        assert_eq!(r[0].expect_value(), None);
        assert_eq!(c.op_count(), 4);
        assert_eq!(s.stats.rounds, 4);
    }

    #[test]
    fn ranges_cross_shards_in_order() {
        let c = small();
        let ns = c.namespace("r");
        // keys spread over the whole leading-byte space → all 4 shards
        for i in 0..=255u8 {
            c.bulk_put(ns, vec![i, 1], vec![i]);
        }
        let mut s = Session::new();
        let r = c.execute_round(
            &mut s,
            vec![KvRequest::GetRange {
                ns,
                start: vec![10],
                end: Some(vec![250]),
                limit: None,
                reverse: false,
            }],
        );
        let entries = r[0].expect_entries().to_vec();
        assert_eq!(entries.len(), 240);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let r = c.execute_round(
            &mut s,
            vec![KvRequest::GetRange {
                ns,
                start: vec![0],
                end: None,
                limit: Some(7),
                reverse: true,
            }],
        );
        let entries = r[0].expect_entries().to_vec();
        assert_eq!(entries.len(), 7);
        assert_eq!(entries[0].0, vec![255, 1]);
        assert!(entries.windows(2).all(|w| w[0].0 > w[1].0));
        let r = c.execute_round(
            &mut s,
            vec![KvRequest::CountRange {
                ns,
                start: vec![10],
                end: Some(vec![20]),
            }],
        );
        assert_eq!(r[0].expect_count(), 10);
    }

    #[test]
    fn tas_is_atomic_under_contention() {
        let c = Arc::new(small());
        let ns = c.namespace("tas");
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let c = c.clone();
                std::thread::spawn(move || {
                    let mut s = Session::new();
                    let r = c.execute_round(
                        &mut s,
                        vec![KvRequest::TestAndSet {
                            ns,
                            key: b"winner".to_vec(),
                            expect: None,
                            value: Some(vec![i]),
                        }],
                    );
                    matches!(r[0], KvResponse::TasResult { success: true, .. })
                })
            })
            .collect();
        let wins = threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .filter(|&won| won)
            .count();
        assert_eq!(wins, 1, "exactly one TAS may claim an absent key");
    }

    #[test]
    fn multi_shard_scans_count_per_shard_physical_ops() {
        let c = small();
        let ns = c.namespace("phys");
        for i in 0..=255u8 {
            c.bulk_put(ns, vec![i], vec![i]);
        }
        let before = c.stats_snapshot();
        let mut s = Session::new();
        // full-keyspace scan touches all 4 shards: 1 logical, 4 physical
        c.execute_round(
            &mut s,
            vec![KvRequest::GetRange {
                ns,
                start: vec![],
                end: None,
                limit: None,
                reverse: false,
            }],
        );
        assert_eq!(s.stats.logical_requests, 1);
        assert_eq!(s.stats.physical_requests, 4, "one op per shard visited");
        let after = c.stats_snapshot();
        assert_eq!(after.ops - before.ops, 1);
        assert_eq!(after.physical_ops - before.physical_ops, 4);

        // a limited scan that fills from the first shard visits just one
        let mut s2 = Session::new();
        c.execute_round(
            &mut s2,
            vec![KvRequest::CountRange {
                ns,
                start: vec![10],
                end: Some(vec![20]),
            }],
        );
        assert_eq!(s2.stats.physical_requests, 1, "count within one shard");
    }

    #[test]
    fn delayed_round_completes_at_slowest_not_sum() {
        let c = LiveCluster::new(LiveConfig {
            shards_per_namespace: 4,
            pool_threads: 8,
            request_delay_us: 10_000, // 10 ms per request
        });
        let ns = c.namespace("slow");
        let mut s = Session::new();
        let t0 = Instant::now();
        let round: RequestRound = (0..8u8)
            .map(|i| KvRequest::Get { ns, key: vec![i] })
            .collect();
        c.execute_round(&mut s, round);
        let elapsed = t0.elapsed();
        // 8 × 10 ms sequentially is 80 ms; fanned out it is ~10 ms
        assert!(
            elapsed < std::time::Duration::from_millis(40),
            "round should complete at ~max request latency, took {elapsed:?}"
        );
    }

    #[test]
    fn zero_thread_pool_still_conforms_sequentially() {
        let c = LiveCluster::new(LiveConfig {
            shards_per_namespace: 4,
            pool_threads: 0,
            request_delay_us: 0,
        });
        let ns = c.namespace("seq");
        let mut s = Session::new();
        let responses = c.execute_round(
            &mut s,
            vec![
                KvRequest::Put {
                    ns,
                    key: b"a".to_vec(),
                    value: b"1".to_vec(),
                },
                KvRequest::Get {
                    ns,
                    key: b"a".to_vec(),
                },
            ],
        );
        assert_eq!(responses.len(), 2);
        assert_eq!(c.pool().worker_count(), 0);
    }

    #[test]
    fn exclusive_end_on_shard_boundary_stays_left() {
        // 4 stripes → splits at [64], [128], [192]; an exclusive end
        // exactly on a boundary must not visit the shard to its right
        let c = small();
        let ns = c.namespace("edge");
        for i in 0..=255u8 {
            c.bulk_put(ns, vec![i], vec![i]);
        }
        let mut s = Session::new();
        let r = c.execute_round(
            &mut s,
            vec![KvRequest::CountRange {
                ns,
                start: vec![0],
                end: Some(vec![64]),
            }],
        );
        assert_eq!(r[0].expect_count(), 64);
        assert_eq!(s.stats.physical_requests, 1, "[0, [64]) lives in shard 0");
        let mut s2 = Session::new();
        let r = c.execute_round(
            &mut s2,
            vec![KvRequest::GetRange {
                ns,
                start: vec![64],
                end: Some(vec![128]),
                limit: None,
                reverse: false,
            }],
        );
        assert_eq!(r[0].expect_entries().len(), 64);
        assert_eq!(s2.stats.physical_requests, 1, "one full stripe, one shard");
        // an end past the boundary still visits the next shard
        let mut s3 = Session::new();
        c.execute_round(
            &mut s3,
            vec![KvRequest::CountRange {
                ns,
                start: vec![0],
                end: Some(vec![64, 0]),
            }],
        );
        assert_eq!(s3.stats.physical_requests, 2);
    }

    #[test]
    fn rebalance_learns_quantile_splits_and_keeps_results() {
        let c = small();
        let ns = c.namespace("skew");
        // 90% of keys under leading byte 0xAA — all piled on one stripe
        let mut expected: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..400u16 {
            let mut key = if i % 10 != 0 {
                vec![0xAA, 0xAA]
            } else {
                vec![(i % 251) as u8]
            };
            key.extend_from_slice(&i.to_be_bytes());
            expected.push((key.clone(), i.to_be_bytes().to_vec()));
            c.bulk_put(ns, key, i.to_be_bytes().to_vec());
        }
        expected.sort();
        let before = c.balance();
        let skewed = &before[0];
        assert!(
            skewed.max_entry_share() >= 0.9,
            "stripes pile the skewed prefix onto one shard: {:?}",
            skewed.entries
        );

        c.rebalance();

        let after = c.balance();
        let even = &after[0];
        assert_eq!(even.name, "skew");
        assert!(
            even.max_entry_share() <= 2.0 / even.shards as f64,
            "quantile splits even the shards out: {:?}",
            even.entries
        );
        assert_eq!(c.stats_snapshot().rebalances, 1);
        assert_eq!(even.ops.iter().sum::<u64>(), 0, "new layout, fresh ops");

        // results are bitwise identical to the pre-rebalance contents
        let mut s = Session::new();
        let r = c.execute_round(
            &mut s,
            vec![KvRequest::GetRange {
                ns,
                start: vec![],
                end: None,
                limit: None,
                reverse: false,
            }],
        );
        assert_eq!(r[0].expect_entries().to_vec(), expected);
    }

    #[test]
    fn a_generation_held_across_a_rebalance_is_copied_not_emptied() {
        let ns = LiveNamespace::new(NsId(0), 4);
        let wal: WalSlot = RwLock::new(rank::KV_CLUSTER_WAL, "kv.cluster.wal", None);
        // one leading byte: every entry starts on stripe 2 of 4
        let expected: Vec<(Vec<u8>, Vec<u8>)> = (0..500u16)
            .map(|i| {
                (
                    [&[0xAA][..], &i.to_be_bytes()].concat(),
                    i.to_le_bytes().to_vec(),
                )
            })
            .collect();
        for (key, value) in &expected {
            ns.insert(&wal, Entry::new(key.clone(), value));
        }
        let held = ns.load();
        ns.rebalance(4);
        let current = ns.load();
        assert!(
            !Arc::ptr_eq(&held, &current),
            "a new generation is published"
        );
        assert_eq!(held.entries_per_shard(), [0, 0, 500, 0]);
        assert_eq!(current.entries_per_shard(), [125; 4]);
        let everything = Probe::Range {
            start: &[],
            end: None,
            limit: None,
            reverse: false,
        };
        for set in [&held, &current] {
            for (key, value) in &expected {
                let mut found = Vec::new();
                set.find(Probe::Get(key), false, |_, v| found.push(v.to_vec()));
                assert_eq!(found, std::slice::from_ref(value));
            }
            let mut scan = Vec::new();
            set.find(everything, false, |k, v| {
                scan.push((k.to_vec(), v.to_vec()))
            });
            assert_eq!(scan, expected);
        }
    }

    #[test]
    fn rebalance_of_empty_namespace_is_harmless() {
        let c = small();
        let ns = c.namespace("empty");
        c.rebalance();
        let mut s = Session::new();
        let r = c.execute_round(
            &mut s,
            vec![KvRequest::Get {
                ns,
                key: b"k".to_vec(),
            }],
        );
        assert_eq!(r[0].expect_value(), None);
        c.execute_round(
            &mut s,
            vec![KvRequest::Put {
                ns,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }],
        );
        assert_eq!(c.ns_len(ns), 1);
    }

    #[test]
    fn point_get_matches_single_get_range_round_accounting() {
        let c = small();
        let ns = c.namespace("pg");
        c.bulk_put(ns, b"hit".to_vec(), b"value".to_vec());
        let before = c.stats_snapshot();
        let mut s = Session::new();
        let mut out = Vec::new();
        assert_eq!(c.point_get(&mut s, ns, b"hit", &mut out), Some(true));
        assert_eq!(out, b"value");
        assert_eq!(s.stats.rounds, 1);
        assert_eq!(s.stats.logical_requests, 1);
        assert_eq!(s.stats.physical_requests, 1);
        assert_eq!(s.stats.entries, 1);
        assert_eq!(s.stats.bytes, (b"hit".len() + b"value".len()) as u64);
        let after = c.stats_snapshot();
        assert_eq!(after.ops - before.ops, 1);
        assert_eq!(after.physical_ops - before.physical_ops, 1);
        // a miss still counts the round but ships no entry
        out.clear();
        assert_eq!(c.point_get(&mut s, ns, b"absent", &mut out), Some(false));
        assert!(out.is_empty());
        assert_eq!(s.stats.entries, 1);
        assert_eq!(s.stats.rounds, 2);
    }

    #[test]
    fn point_get_sample_includes_the_injected_service_time() {
        use crate::sample::{ModelKey, OpKind};
        let c = LiveCluster::new(LiveConfig {
            request_delay_us: 5_000,
            ..LiveConfig::default()
        });
        let ns = c.namespace("pg");
        c.bulk_put(ns, b"hit".to_vec(), b"value".to_vec());
        let mut s = Session::new();
        // `beta` tells the two lanes' samples apart after the drain
        let tag = |beta| Some(ModelKey::new(OpKind::IndexScan, 1, 1, beta));
        s.op_tag = tag(1);
        assert_eq!(c.point_get(&mut s, ns, b"hit", &mut Vec::new()), Some(true));
        s.op_tag = tag(2);
        c.execute_one(
            &mut s,
            KvRequest::GetRange {
                ns,
                start: b"hit".to_vec(),
                end: None,
                limit: Some(1),
                reverse: false,
            },
        );
        let samples = c.drain_samples();
        let micros = |beta| samples.iter().find(|s| s.tag.beta == beta).unwrap().micros;
        // each lane's sample covers the injected 5 ms; no ratio between
        // the two, which one host stall during either sleep would break
        for (lane, beta) in [("point_get", 1), ("execute_one", 2)] {
            let sampled = micros(beta);
            assert!(
                sampled >= 5_000,
                "{lane}: the store took 5 ms; sampled {sampled} us"
            );
        }
    }

    #[test]
    fn sessions_measure_wall_clock() {
        let c = small();
        let ns = c.namespace("t");
        let mut s = Session::new();
        let t0 = s.begin();
        c.execute_round(
            &mut s,
            vec![KvRequest::Put {
                ns,
                key: b"a".to_vec(),
                value: b"b".to_vec(),
            }],
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
        c.execute_round(
            &mut s,
            vec![KvRequest::Get {
                ns,
                key: b"a".to_vec(),
            }],
        );
        assert!(s.elapsed_since(t0) >= 2_000, "{}", s.elapsed_since(t0));
    }
}
