//! What a rebalance costs in allocations: when no reader holds the
//! retiring generation, its entries *move* into the new one — no key or
//! value is cloned, and each new shard is bulk-built from a sorted run, so
//! the count is the new B-tree nodes (about one per eleven entries) plus a
//! few buffers per shard, not two per entry.
//!
//! A counting `#[global_allocator]` needs a binary of its own, hence this
//! file; it counts per thread, and a rebalance runs on the calling thread.

use piql_kv::{KvRequest, KvStore, LiveCluster, LiveConfig, Session};
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

#[test]
// Rank tracking in `lock-order` builds keeps per-thread held-lock state,
// which allocates by design.
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn rebalancing_an_unshared_namespace_moves_its_entries() {
    let store = LiveCluster::new(LiveConfig {
        shards_per_namespace: 16,
        pool_threads: 0,
        request_delay_us: 0,
    });
    let ns = store.namespace("t");
    // big-endian counters all lead with byte 0: one stripe holds them all
    let expected: Vec<(Vec<u8>, Vec<u8>)> = (0..ENTRIES)
        .map(|i| (i.to_be_bytes().to_vec(), vec![i as u8; 40]))
        .collect();
    for (key, value) in &expected {
        store.bulk_put(ns, key.clone(), value.clone());
    }
    assert_eq!(store.balance()[0].max_entry_share(), 1.0);

    let before = ALLOCS.with(Cell::get);
    store.rebalance();
    let made = ALLOCS.with(Cell::get) - before;
    // measured: 1,128 — about 1,000 B-tree nodes, the rest each new
    // shard's run buffer. The copy this replaced made 26,659: a key and a
    // value per entry, and a key per sampled split candidate
    assert!(
        made < u64::from(ENTRIES) / 8,
        "{made} allocations to re-shard {ENTRIES} entries"
    );

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
