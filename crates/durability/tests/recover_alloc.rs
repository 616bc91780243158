//! What logging, recovery and a checkpoint cost in allocations. A logged
//! put is encoded from the caller's bytes straight into the log's staging
//! buffer, and a commit writes from it: once warm, neither allocates.
//! Recovery builds each entry once, from the snapshot's or the log
//! record's borrowed bytes, into the one allocation the store keeps — no
//! clone of the key and value first — and a snapshot's shards are
//! bulk-built from their runs; recovered model intervals move into the
//! store. Exporting for a checkpoint copies each key and value once into
//! an answer that grows once per shard.
//!
//! A counting `#[global_allocator]` needs a binary of its own, hence this
//! file; it counts per thread, and logging, recovery and export run on the
//! calling thread.

use piql_durability::{Durability, DurabilityConfig, RecoveredState, WalRecord};
use piql_kv::{KvEntry, KvStore, LiveCluster, LiveConfig, NsId, WalSink};
use piql_predict::{LatencyHistogram, ModelKey, ModelStore, OpKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: TLS may already be torn down during thread exit
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract is `System.alloc`'s own
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as above
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as above
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const ENTRIES: u32 = 10_000;
const SHARDS: usize = 16;

/// The allocations `f` makes on this thread, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// An empty data directory named for this process and `name`.
fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("piql-alloc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store() -> LiveCluster {
    LiveCluster::new(LiveConfig {
        shards_per_namespace: SHARDS,
        pool_threads: 0,
        request_delay_us: 0,
    })
}

/// `n` entries in key order, spread over every leading byte, with
/// row-sized values.
fn entries(n: u32) -> Vec<KvEntry> {
    let mut entries: Vec<KvEntry> = (0..n)
        .map(|i| {
            let key = [&[(i % 256) as u8][..], &i.to_be_bytes()].concat();
            (key, vec![i as u8; 100])
        })
        .collect();
    entries.sort();
    entries
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn recovery_builds_each_entry_once_and_export_sizes_its_answer() {
    let snapshot = entries(ENTRIES);
    let mut state = RecoveredState::default();
    state.snapshot_namespaces = vec![("t".to_string(), snapshot.clone())];
    let recovered = store();

    let (applied, made) = counted(|| state.apply_kv(&recovered).expect("apply"));
    assert_eq!(applied, u64::from(ENTRIES));
    println!("apply_kv: {made} allocations for {ENTRIES} snapshot entries");
    // measured: 11,005 — an entry each, then the sorted copies' buffers
    // and each shard's bulk-built nodes. Cloning each key and value before
    // a put made 21,681
    assert!(
        made <= u64::from(ENTRIES + ENTRIES / 8),
        "{made} allocations to apply {ENTRIES} snapshot entries"
    );

    let (exported, made) = counted(|| recovered.export_namespaces());
    println!("export_namespaces: {made} allocations for {ENTRIES} entries");
    // measured: 20,019 — a key and a value per entry, one growth per
    // shard, and the name, id list and answer of the one namespace
    assert_eq!(exported, vec![("t".to_string(), snapshot)]);
    assert!(
        made <= 2 * u64::from(ENTRIES) + SHARDS as u64 + 3,
        "{made} allocations to export {ENTRIES} entries over {SHARDS} shards"
    );
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_logged_put_is_loaded_from_its_record() {
    let logged = entries(ENTRIES);
    let recovered = store();
    let ns = recovered.namespace("t").0;
    let mut state = RecoveredState::default();
    state.kv_tail = std::iter::once(WalRecord::NsCreate {
        ns,
        name: "t".to_string(),
    })
    .chain(logged.iter().map(|(key, value)| WalRecord::Put {
        ns,
        key: key.clone(),
        value: value.clone(),
    }))
    .collect();

    let (applied, made) = counted(|| state.apply_kv(&recovered).expect("apply"));
    assert_eq!(applied, u64::from(ENTRIES));
    println!("apply_kv: {made} allocations for {ENTRIES} logged puts");
    // measured: 11,637 — an entry each, and a B-tree node per ~7 entries
    // put in key order. Cloning each key and value before a put made 21,637
    assert!(
        made <= u64::from(ENTRIES + ENTRIES / 5),
        "{made} allocations to apply {ENTRIES} logged puts"
    );
    assert_eq!(
        recovered.export_namespaces(),
        vec![("t".to_string(), logged)]
    );
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_warm_logged_put_and_its_commit_allocate_nothing() {
    const PUTS: usize = 64;
    let dir = temp_dir("append");
    let (_, log) = Durability::open(DurabilityConfig::new(&dir)).expect("open");
    let (key, value) = ([7u8; 16], [9u8; 100]);
    let puts = || (0..PUTS).for_each(|_| log.append_put(NsId(0), &key, &value));
    // a commit swaps the staging buffer for a spare: two rounds grow both
    for _ in 0..2 {
        puts();
        assert!(log.commit());
    }
    let ((), made) = counted(puts);
    assert_eq!(made, 0, "{PUTS} warm logged puts allocated");
    let (durable, made) = counted(|| log.commit());
    assert!(durable);
    assert_eq!(made, 0, "a warm commit allocated");
    log.close();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn recovered_model_intervals_move_into_the_store() {
    const ROTATIONS: u32 = 64;
    const KEYS: u32 = 8;
    let interval = |r: u32| -> std::collections::BTreeMap<ModelKey, LatencyHistogram> {
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
    let (_, log) = Durability::open(DurabilityConfig::new(&dir)).expect("open");
    for r in 0..ROTATIONS {
        log.log_model_interval(&interval(r));
    }
    log.close();
    drop(log);

    let (mut state, _log) = Durability::open(DurabilityConfig::new(&dir)).expect("reopen");
    let (models, made) = counted(|| state.models(ModelStore::new(3)));
    println!("models: {made} allocations over {ROTATIONS} recovered intervals of {KEYS} keys");
    // the newest three survive, as three rotations of the seed leave them
    let newest: Vec<_> = (ROTATIONS - 3..ROTATIONS).map(interval).collect();
    assert_eq!(models.interval_maps(), &newest[..]);
    // measured: 11 — the aggregate's histograms and node, and the interval
    // list grown once. A copy of even the three surviving intervals takes
    // a histogram per key each
    assert!(
        made <= u64::from(2 * KEYS + 4),
        "{made} allocations to fold {ROTATIONS} recovered intervals"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
