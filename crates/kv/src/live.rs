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
//!   explicit split points, each an ordered set of entries under its own
//!   `RwLock`. Point operations binary-search the split points and touch
//!   exactly one shard; range scans walk the overlapping shards in key
//!   order, so scan semantics stay identical to a single ordered map.
//! * A namespace is laid out one way: cut into `shards_per_namespace`
//!   parts at the quantiles of the entries it holds when it is laid out
//!   — the live-path analog of the SCADS Director the simulator models —
//!   or left one part while it holds fewer. A fresh namespace holds
//!   nothing, so it is one part. Its first bulk batch
//!   ([`KvStore::bulk_put_all`]), a recovered snapshot
//!   ([`LiveCluster::load_namespace`]) and a [`LiveCluster::rebalance`]
//!   that moves entries each build a generation by that rule, and a
//!   rebalance atomically swaps it in behind an `Arc`'d routing table.
//!   Readers route through the generation they loaded; writers briefly
//!   serialize on the swap; concurrent sessions never observe a missing
//!   key. A rebalance **moves** the entries when no reader holds the old
//!   generation and **copies** them only when one does, and a namespace
//!   whose learned split points are the ones it has keeps its generation.
//! * A later bulk batch is sorted and cut into per-shard runs by the
//!   cutter a new generation is built with, one binary search per split
//!   point, and each shard takes its run in one step under its write
//!   lock.
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
use crate::ns_table::NsTable;
use crate::op::{
    BulkFeed, Entries, KvEntry, KvRequest, KvResponse, MalformedRound, NsId, Probe, ReadAnswer,
    ReadRound, RequestRound,
};
use crate::partition::{quantiles, SplitPoints};
use crate::pool::{default_pool_threads, RoundPool};
use crate::sample::{LiveSampleSink, OpSample};
use crate::session::{Session, SessionStats};
use crate::store::byte_range;
use crate::wal::WalSink;
use piql_analysis::ordered::RwLock;
use piql_analysis::rank;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `LiveCluster` sizing.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Contiguous key-range shards a namespace is cut into when it is laid
    /// out — by its first bulk batch, a recovered snapshot or a rebalance —
    /// at the quantiles of the entries it holds then. A namespace holding
    /// fewer entries stays one shard.
    pub shards_per_namespace: usize,
    /// Workers in the round fan-out pool, which only rounds with injected
    /// service time use. `0` executes every round sequentially on the
    /// calling thread, whatever its service time (a baseline, and
    /// single-threaded determinism).
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

/// Where a namespace of `total` entries in key order is split into `parts`
/// shards: the positions of the keys [`SplitPoints::at_quantiles`] picks
/// from a strided sample of at most [`SPLIT_SAMPLE_CAP`] of them — the
/// Director's job, learned by the same pick as the simulator's. None when
/// there are fewer entries than parts. The one rule every layout of a
/// namespace follows ([`ShardSet::laid_out`]).
fn split_positions(total: usize, parts: usize) -> impl Iterator<Item = usize> {
    let stride = total.div_ceil(SPLIT_SAMPLE_CAP).max(1);
    quantiles((0..total).step_by(stride), parts)
}

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
    /// Start of the `len` bytes that [`Entry::joined`] took from a
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
        let key_len = key.len();
        key.reserve_exact(value.len());
        key.extend_from_slice(value);
        Entry::joined(key, key_len)
    }

    /// The entry whose key is `bytes[..key_len]` and whose value is the
    /// rest, in `bytes`' own buffer: nothing is allocated or copied when
    /// the buffer is exactly full.
    fn joined(bytes: Vec<u8>, key_len: usize) -> Entry {
        let len = u32::try_from(bytes.len())
            .expect("a stored entry is under 4 GiB: requests arrive in frames of at most 64 MiB");
        assert!(key_len <= bytes.len(), "an entry's key ends inside it");
        let bytes: &'static mut [u8] = Box::leak(bytes.into_boxed_slice());
        Entry {
            ptr: NonNull::from(bytes).cast(),
            len,
            // at most `len`, which fits
            key_len: key_len as u32,
        }
    }

    /// An entry copied from borrowed bytes: one allocation, sized exactly.
    fn copied(key: &[u8], value: &[u8]) -> Entry {
        Entry::joined([key, value].concat(), key.len())
    }

    /// `(key, value)`, both slices of the one allocation.
    fn parts(&self) -> (&[u8], &[u8]) {
        // SAFETY: `ptr` starts the `len` initialised bytes `joined` leaked,
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
        // SAFETY: `bytes` is the whole `Box<[u8]>` `joined` leaked, owned by
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
    /// signal [`NsBalance`] reports; restarts at zero at every rebalance.
    ops: Vec<AtomicU64>,
}

impl ShardSet {
    /// Hand `each` every part of `splits` in turn, with the run of `sorted`
    /// — entries in strictly increasing key order — that part holds,
    /// bulk-built into a shard of full B-tree leaves. Each run is found by
    /// one binary search for the split point that ends it. The one cutter
    /// of a new generation ([`ShardSet::laid_out`]) and of a batch
    /// ([`ShardSet::merge`]).
    fn runs(splits: &SplitPoints, sorted: Vec<Entry>, mut each: impl FnMut(usize, Shard)) {
        debug_assert!(
            sorted.windows(2).all(|pair| pair[0] < pair[1]),
            "cut entries arrive in key order"
        );
        let mut entries = sorted.into_iter();
        for part in 0..splits.parts() {
            let len = splits.run_len(part, entries.as_slice());
            each(part, entries.by_ref().take(len).collect());
        }
    }

    /// A generation holding `sorted`, entries in strictly increasing key
    /// order, laid out by the one rule every layout follows: cut into
    /// `parts` at its own quantiles ([`split_positions`]), or kept whole
    /// while it holds fewer entries than that, so a namespace holding
    /// nothing is one part. Each shard has served one operation per entry
    /// it took. A first batch, a recovered snapshot and a rebalance that
    /// moves entries all build their generation here.
    fn laid_out(sorted: Vec<Entry>, parts: usize) -> Self {
        let splits = split_positions(sorted.len(), parts)
            .map(|at| sorted[at].key().to_vec())
            .collect();
        let splits = SplitPoints::new(splits);
        let mut shards = Vec::with_capacity(splits.parts());
        let mut ops = Vec::with_capacity(splits.parts());
        ShardSet::runs(&splits, sorted, |_, run| {
            ops.push(AtomicU64::new(run.len() as u64));
            shards.push(RwLock::new(rank::KV_SHARD, "kv.shard", run));
        });
        ShardSet {
            splits,
            shards,
            ops,
        }
    }

    /// The split points a rebalance would cut this generation's entries at
    /// now ([`split_positions`]), found by walking its shards one at a
    /// time: no entry moves. Stable only while no writer can change the
    /// shards, as under the table's write lock.
    fn learned_splits(&self, parts: usize) -> SplitPoints {
        let mut picks = split_positions(self.len(), parts).peekable();
        let mut splits = Vec::new();
        // the position of the current shard's first entry
        let mut first = 0;
        for shard in &self.shards {
            let shard = shard.read();
            let mut keys = shard.iter().map(Entry::key);
            // the position of `keys`' next entry
            let mut next = first;
            while let Some(at) = picks.next_if(|&at| at < first + shard.len()) {
                let key = keys.nth(at - next).expect("a pick inside the shard");
                splits.push(key.to_vec());
                next = at + 1;
            }
            first += shard.len();
        }
        SplitPoints::new(splits)
    }

    /// Every entry of `retired`, a retiring generation, in key order: its
    /// shards in index order, shards being contiguous ranges. The entries
    /// **move** when nobody else holds `retired`, and are **copied** when a
    /// reader does (so that reader still finds them).
    fn retired_entries(retired: &mut Arc<ShardSet>) -> Vec<Entry> {
        let mut entries = Vec::with_capacity(retired.len());
        match Arc::get_mut(retired) {
            // the shard locks are uncontended: nobody else holds this set
            Some(unshared) => {
                for shard in &unshared.shards {
                    entries.extend(std::mem::take(&mut *shard.write()));
                }
            }
            None => {
                for shard in &retired.shards {
                    entries.extend(shard.read().iter().cloned());
                }
            }
        }
        entries
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
    fn merge(&self, sorted: Vec<Entry>, wal: Option<WalHook<'_>>) {
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

    /// Store `entry` iff the value stored under its key is `expect`
    /// (absent for `None`): `(true, None)` when it is — the caller holds
    /// the value it sent — else `(false, a copy of the stored value)`.
    fn test_and_set(
        &self,
        entry: Entry,
        expect: Option<&[u8]>,
        wal: Option<WalHook<'_>>,
    ) -> (bool, Option<Vec<u8>>) {
        let idx = self.splits.part_of(entry.key());
        self.touch(idx);
        let mut shard = self.shards[idx].write();
        let stored = shard.get(entry.key()).map(Entry::value);
        if stored != expect {
            return (false, stored.map(<[u8]>::to_vec));
        }
        // only the *effect* of a successful TAS is logged — replay applies
        // it as a plain put without re-checking the expectation
        if let Some(hook) = wal {
            hook.log(entry.key(), Some(entry.value()));
        }
        shard.replace(entry);
        (true, None)
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

    fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
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
///   finding every key). It learns the split points first, moving
///   nothing; when they are the ones the generation has, it keeps it.
/// * **The first batch** into a namespace whose shards are all empty is
///   swapped in as a generation of its own, under the table write lock,
///   like a rebalance's: no write can land in the empty one meanwhile.
struct LiveNamespace {
    id: NsId,
    table: RwLock<Arc<ShardSet>>,
}

impl LiveNamespace {
    /// A namespace holding nothing, so one part.
    fn new(id: NsId) -> Self {
        let empty = Arc::new(ShardSet::laid_out(Vec::new(), 1));
        LiveNamespace {
            id,
            table: RwLock::new(rank::KV_TABLE, "kv.ns.table", empty),
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

    /// Store a batch in key order, under the same locks as
    /// [`LiveNamespace::insert`]: merged into the current generation (see
    /// [`ShardSet::merge`]), unless it is the first to land in a namespace
    /// whose shards are all empty. That one is logged first, one put per
    /// entry, and swapped in cut at its own quantiles
    /// ([`ShardSet::laid_out`]) under the table write lock, which is where
    /// the namespace's emptiness is decided.
    fn merge(&self, wal: &WalSlot, sorted: Vec<Entry>, parts: usize) {
        let sink = wal.read();
        let hook = self.hook(&sink);
        {
            let table = self.table.read();
            if sorted.is_empty() || !table.is_empty() {
                return table.merge(sorted, hook);
            }
        }
        let mut table = self.table.write();
        if !table.is_empty() {
            // a write landed between the two locks
            return table.merge(sorted, hook);
        }
        if let Some(hook) = hook {
            for entry in &sorted {
                hook.log(entry.key(), Some(entry.value()));
            }
        }
        *table = Arc::new(ShardSet::laid_out(sorted, parts));
    }

    fn remove(&self, wal: &WalSlot, key: &[u8]) {
        let sink = wal.read();
        self.table.read().remove(key, self.hook(&sink));
    }

    fn test_and_set(
        &self,
        wal: &WalSlot,
        entry: Entry,
        expect: Option<&[u8]>,
    ) -> (bool, Option<Vec<u8>>) {
        let sink = wal.read();
        let table = self.table.read();
        table.test_and_set(entry, expect, self.hook(&sink))
    }

    fn count_range(&self, start: &[u8], end: Option<&[u8]>) -> (u64, u64) {
        self.load().count_range(start, end)
    }

    fn len(&self) -> usize {
        self.load().len()
    }

    /// The namespace's balance under its current generation, and the
    /// shards a rebalance into `parts` would cut it into now.
    fn balance(&self, name: String, parts: usize) -> NsBalance {
        let set = self.load();
        let entries = set.entries_per_shard();
        let total = entries.iter().sum::<u64>() as usize;
        NsBalance {
            name,
            shards: set.shards.len(),
            rebalanced_shards: split_positions(total, parts).count() + 1,
            entries,
            ops: set.ops_per_shard(),
        }
    }

    /// Re-learn this namespace's split points at quantiles of its current
    /// keys. When they are the ones it has, the generation stays; otherwise
    /// the retiring one's entries — moved or copied, see the struct doc —
    /// are laid out afresh ([`ShardSet::laid_out`]) and atomically
    /// published. Either way the op counters restart at zero.
    fn rebalance(&self, parts: usize) {
        let mut table = self.table.write();
        if table.learned_splits(parts) != table.splits {
            let entries = ShardSet::retired_entries(&mut table);
            *table = Arc::new(ShardSet::laid_out(entries, parts));
        }
        for ops in &table.ops {
            ops.store(0, Ordering::Relaxed);
        }
    }
}

/// The real-time backend.
pub struct LiveCluster {
    config: LiveConfig,
    namespaces: NsTable<LiveNamespace>,
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
            namespaces: NsTable::new("kv.namespaces"),
            epoch: Instant::now(),
            sink: LiveSampleSink::default(),
            wal: Arc::new(RwLock::new(rank::KV_CLUSTER_WAL, "kv.cluster.wal", None)),
            wal_degraded: AtomicBool::new(false),
            stats: Arc::new(LiveStats::default()),
        }
    }

    /// Attach a write-ahead sink: every namespace creation, put, delete,
    /// and successful test-and-set from now on is appended to `sink`, and
    /// each write round or bulk write blocks on `sink.commit()` before it
    /// returns.
    ///
    /// Every namespace that already exists is announced to the sink
    /// (`append_ns`, in id order) so a log replayed after the same
    /// bootstrap sequence reproduces the same id assignment. Namespace
    /// creation waits until the sink is in place, so a namespace is
    /// announced once: here, or by its own creation.
    pub fn attach_wal(&self, sink: Arc<dyn WalSink>) {
        self.namespaces.frozen(|all| {
            for (id, name) in all {
                sink.append_ns(id, name);
            }
            *self.wal.write() = Some(sink);
        });
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

    /// Total storage operations served so far (including bulk loads).
    pub fn op_count(&self) -> u64 {
        self.stats.ops.load(Ordering::Relaxed)
    }

    /// Entries currently in a namespace.
    pub fn ns_len(&self, ns: NsId) -> usize {
        self.namespaces.get(ns).len()
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
        for (_, ns) in self.namespaces.all() {
            ns.rebalance(self.config.shards_per_namespace);
        }
        self.stats.rebalances.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-namespace shard balance (entry and op distribution over the
    /// current layout) — the skew signal that tells an operator (or a
    /// future auto-trigger) a rebalance is due.
    pub fn balance(&self) -> Vec<NsBalance> {
        let parts = self.config.shards_per_namespace;
        (self.namespaces.all().into_iter())
            .map(|(name, ns)| ns.balance(name.to_string(), parts))
            .collect()
    }

    /// Name and contents of every namespace, ordered by namespace id —
    /// the snapshot export. Fuzzy under concurrent writers (each shard is
    /// copied at a consistent instant); safe to pair with a WAL segment
    /// rotated *before* the export, because replaying that segment's
    /// puts/deletes over the copy is idempotent.
    pub fn export_namespaces(&self) -> Vec<(String, Vec<KvEntry>)> {
        (self.namespaces.all().into_iter())
            .map(|(name, ns)| (name.to_string(), ns.load().export()))
            .collect()
    }

    /// Store a copy of `key` → `value` outside any timed session:
    /// [`KvStore::bulk_put`] from borrowed bytes, in the one allocation the
    /// entry is, committed before it returns. Recovery loads logged puts
    /// with it.
    pub fn bulk_load(&self, ns: NsId, key: &[u8], value: &[u8]) {
        self.stats.book(WRITE);
        self.namespaces
            .get(ns)
            .insert(&self.wal, Entry::copied(key, value));
        self.commit_barrier();
    }

    /// Remove `key` outside any timed session, committed before it
    /// returns — the replay-side mirror of [`LiveCluster::bulk_load`], used
    /// by recovery to apply logged deletes.
    pub fn bulk_delete(&self, ns: NsId, key: &[u8]) {
        self.stats.book(WRITE);
        self.namespaces.get(ns).remove(&self.wal, key);
        self.commit_barrier();
    }

    /// Replace everything `ns` holds with copies of `entries`, laid out
    /// as a first batch of them would be (`ShardSet::laid_out`).
    /// Recovery loads a snapshot's namespace with it, so rows that were
    /// deleted pre-snapshot (and so appear in neither snapshot nor WAL)
    /// cannot be resurrected by an embedder's boot-time seed data. Each
    /// entry is one allocation; of equal keys the last one wins.
    pub fn load_namespace(&self, ns: NsId, entries: &[KvEntry]) {
        let batch = (entries.iter())
            .map(|(key, value)| {
                self.stats.book(WRITE);
                Entry::copied(key, value)
            })
            .collect();
        let set = ShardSet::laid_out(normalised(batch), self.config.shards_per_namespace);
        *self.namespaces.get(ns).table.write() = Arc::new(set);
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

/// `batch` as the store takes it, in strictly increasing key order: stable
/// sorted, and of equal keys the last kept, as if its entries were put one
/// by one in order. Bulk batches and recovered snapshots both go through
/// it.
fn normalised(mut batch: Vec<Entry>) -> Vec<Entry> {
    batch.sort();
    // `dedup_by` drops `later` and keeps `kept`: swapping first keeps the
    // later value in the earlier slot
    batch.dedup_by(|later, kept| {
        later.key() == kept.key() && {
            std::mem::swap(later, kept);
            true
        }
    });
    batch
}

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
    /// The durability barrier: block until every record appended to the
    /// attached sink, if any, is on stable storage. Every write round ends
    /// with it, and so does every bulk write.
    fn commit_barrier(&self) {
        let sink = self.wal.read().clone();
        if let Some(sink) = sink {
            if !sink.commit() {
                // the log died: these writes exist in memory only. Latch
                // the degradation so the serving layer can fail (or flag)
                // write acknowledgements instead of silently serving a
                // store that no longer survives a restart.
                self.wal_degraded.store(true, Ordering::Release);
            }
        }
    }

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
        // a round containing writes is only acknowledged once its
        // appended records are on stable storage. Inside the timed window
        // on purpose — commit latency is real write latency and must show
        // up in the sampled round time.
        if has_write {
            self.commit_barrier();
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
            entry,
            key_len,
            expect,
            ..
        } => {
            let entry = Entry::joined(entry, key_len);
            let (success, current) = data.test_and_set(wal, entry, expect.as_deref());
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
    /// A new namespace is announced to the attached sink, if any, before
    /// its id is handed out.
    fn namespace(&self, name: &str) -> NsId {
        self.namespaces.resolve(name, |id| {
            if let Some(sink) = self.wal.read().as_ref() {
                sink.append_ns(id, name);
            }
            LiveNamespace::new(id)
        })
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
                    let data = self.namespaces.get(req.ns());
                    let (stats, wal) = (self.stats.clone(), self.wal.clone());
                    move || execute_request(&data, &stats, &wal, req, delay_us)
                })
                .collect();
            self.pool.scatter(tasks).into_iter().for_each(&mut join);
        } else {
            for req in round {
                join(execute_request(
                    &self.namespaces.get(req.ns()),
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
        let table = self.namespaces.get(round.ns()).load();
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
        let data = self.namespaces.get(req.ns());
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
        let table = self.namespaces.get(ns).load();
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
        self.namespaces
            .get(ns)
            .insert(&self.wal, Entry::new(key, &value));
        self.commit_barrier();
    }

    /// Each buffer becomes its entry as it is pushed, as it is; the batch
    /// is booked as one write per buffer, `normalised`, and each shard
    /// takes its run in one locked step (`LiveNamespace::merge`), rather
    /// than taking the locks and descending the B-tree once per entry. The
    /// first batch of an empty namespace lays out its shards at its own
    /// quantiles. The batch is committed before this returns.
    fn bulk_put_all(&self, ns: NsId, feed: &mut BulkFeed<'_>) {
        let mut batch = Vec::new();
        feed(&mut |bytes, key_len| batch.push(Entry::joined(bytes, key_len)));
        let writes = batch.len() as u64;
        (self.stats).book(SessionStats {
            logical_requests: writes,
            physical_requests: writes,
            ..WRITE
        });
        let parts = self.config.shards_per_namespace;
        self.namespaces
            .get(ns)
            .merge(&self.wal, normalised(batch), parts);
        self.commit_barrier();
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
                        vec![crate::testkit::swap(ns, b"winner", &[i], None)],
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
    fn a_swap_stores_its_requests_buffer() {
        let c = small();
        let ns = c.namespace("swap");
        let request = crate::testkit::swap(ns, b"key", b"record", None);
        let KvRequest::TestAndSet { entry, .. } = &request else {
            unreachable!("a swap is a test-and-set")
        };
        let sent = entry.as_ptr();
        let r = c.execute_one(&mut Session::new(), request);
        assert_eq!(r.tas().unwrap(), (true, None));
        let table = c.namespaces.get(ns).load();
        let shard = table.shards[table.splits.part_of(b"key")].read();
        let stored = shard.get(&b"key"[..]).expect("stored");
        assert_eq!(stored.parts(), (&b"key"[..], &b"record"[..]));
        assert_eq!(stored.ptr.as_ptr().cast_const(), sent, "kept as it is");
    }

    #[test]
    fn a_generation_held_across_a_rebalance_is_copied_not_emptied() {
        let ns = LiveNamespace::new(NsId(0));
        let wal: WalSlot = RwLock::new(rank::KV_CLUSTER_WAL, "kv.cluster.wal", None);
        // put one by one: every entry lands in the namespace's one part
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
        assert_eq!(held.entries_per_shard(), [500]);
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
    fn a_rebalance_that_moves_nothing_keeps_its_generation() {
        let ns = LiveNamespace::new(NsId(0));
        let wal: WalSlot = RwLock::new(rank::KV_CLUSTER_WAL, "kv.cluster.wal", None);
        let batch: Vec<Entry> = (0..400u16)
            .map(|i| Entry::new([&[0x03][..], &i.to_be_bytes()].concat(), &[1]))
            .collect();
        ns.merge(&wal, batch, 4);
        let laid_out = ns.load();
        assert_eq!(laid_out.entries_per_shard(), [100; 4]);
        assert_eq!(laid_out.ops_per_shard(), [100; 4]);
        ns.rebalance(4);
        assert!(Arc::ptr_eq(&laid_out, &ns.load()), "nothing to move");
        assert_eq!(laid_out.entries_per_shard(), [100; 4]);
        assert_eq!(laid_out.ops_per_shard(), [0; 4]);
    }

    #[test]
    fn a_write_between_the_first_batchs_two_locks_is_kept() {
        let ns = Arc::new(LiveNamespace::new(NsId(0)));
        let wal = Arc::new(RwLock::new(rank::KV_CLUSTER_WAL, "kv.cluster.wal", None));
        let key = |i: u16| [&[0x03][..], &i.to_be_bytes()].concat();
        let table = ns.table.read();
        let batch: Vec<Entry> = (0..400).map(|i| Entry::new(key(2 * i), &[])).collect();
        let merge = {
            let (ns, wal) = (ns.clone(), wal.clone());
            std::thread::spawn(move || ns.merge(&wal, batch, 4))
        };
        // the batch finds the namespace empty and waits for the write lock;
        // a write the held read lock lets through lands meanwhile
        std::thread::sleep(std::time::Duration::from_millis(20));
        table.insert(Entry::new(key(1), &[]), None);
        drop(table);
        merge.join().unwrap();
        assert_eq!(ns.len(), 401);
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
