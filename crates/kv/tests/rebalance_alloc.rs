//! What a rebalance costs in allocations. When no reader holds the
//! retiring generation, its entries *move* into the new one — no entry is
//! copied, and each new shard is bulk-built from a sorted run, so the
//! count is the new B-tree nodes (about one per eleven entries) plus a few
//! buffers per shard. When a reader holds it, each entry is copied once —
//! one allocation, since an entry is one allocation — into one run, and
//! the copies move into the new generation as above.
//!
//! A counting `#[global_allocator]` needs a binary of its own, hence this
//! file; it counts per thread, and a rebalance runs on the calling thread.

use piql_kv::{KvEntry, KvRequest, KvStore, LiveCluster, LiveConfig, NsId, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

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

/// A 16-shard store whose one namespace holds `ENTRIES` entries put one by
/// one, so all in its one part, and those entries in key order.
fn skewed() -> (LiveCluster, NsId, Vec<KvEntry>) {
    let store = LiveCluster::new(LiveConfig {
        shards_per_namespace: 16,
        pool_threads: 0,
        request_delay_us: 0,
    });
    let ns = store.namespace("t");
    let expected: Vec<KvEntry> = (0..ENTRIES)
        .map(|i| (i.to_be_bytes().to_vec(), vec![i as u8; 40]))
        .collect();
    for (key, value) in &expected {
        store.bulk_put(ns, key.clone(), value.clone());
    }
    assert_eq!(store.balance()[0].max_entry_share(), 1.0);
    (store, ns, expected)
}

/// The rebalanced store is even and answers a full scan with `expected`.
fn assert_even_and_whole(store: &LiveCluster, ns: NsId, expected: &[KvEntry]) {
    let balance = &store.balance()[0];
    assert!(
        balance.max_entry_share() <= 2.0 / 16.0,
        "{:?}",
        balance.entries
    );
    let mut session = Session::new();
    let scan = store.execute_one(
        &mut session,
        KvRequest::GetRange {
            ns,
            start: Vec::new(),
            end: None,
            limit: None,
            reverse: false,
        },
    );
    assert_eq!(scan.expect_entries().to_vec(), expected);
}

/// Allocations `store.rebalance()` makes on this thread.
fn rebalance_allocs(store: &LiveCluster) -> u64 {
    let before = ALLOCS.with(Cell::get);
    store.rebalance();
    ALLOCS.with(Cell::get) - before
}

#[test]
// Rank tracking in `lock-order` builds keeps per-thread held-lock state,
// which allocates by design.
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn rebalancing_an_unshared_namespace_moves_its_entries() {
    let (store, ns, expected) = skewed();
    let made = rebalance_allocs(&store);
    // measured: 1,016 — about 930 B-tree nodes, the rest each new shard's
    // run buffers and the split keys (learned to compare, then again to lay
    // the entries out). The copy this replaced made 26,659:
    // a key and a value per entry, and a key per sampled split candidate
    assert!(
        made < u64::from(ENTRIES) / 8,
        "{made} allocations to re-shard {ENTRIES} entries"
    );
    assert_even_and_whole(&store, ns, &expected);
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn rebalancing_a_held_namespace_copies_each_entry_once() {
    // a store once re-split moves nothing at its next rebalance, so each
    // attempt skews a store of its own
    let copied = (0..100).find_map(|_| {
        let (store, ns, expected) = skewed();
        let stop = AtomicBool::new(false);
        let exports = AtomicU64::new(0);
        let made = std::thread::scope(|scope| {
            // each export holds the generation from before its first shard
            // to after its last; the reader's allocations are its own
            // thread's, not counted here
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    store.export_namespaces();
                    exports.fetch_add(1, Ordering::Release);
                }
            });
            // rebalance a moment into a fresh export
            let seen = exports.load(Ordering::Acquire);
            while exports.load(Ordering::Acquire) == seen {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_micros(100));
            let made = rebalance_allocs(&store);
            stop.store(true, Ordering::Release);
            made
        });
        // a move makes ~1,100 allocations and a copy ~ENTRIES more, so
        // the count says which path the rebalance took
        (made > u64::from(ENTRIES) / 2).then_some((made, store, ns, expected))
    });
    let (made, store, ns, expected) = copied.expect("no rebalance overlapped a reader's export");
    // measured: 11,000 — one per entry, then the move's nodes and runs.
    // The clone of each shard's map this replaced made 22,794: a key and a
    // value per entry, and the clone's own B-tree nodes
    assert!(
        made <= u64::from(ENTRIES + ENTRIES / 8),
        "{made} allocations to copy and re-shard {ENTRIES} entries"
    );
    assert_even_and_whole(&store, ns, &expected);
}
