//! What a §6.1 model store costs in memory: a histogram holds its nonzero
//! bins and nothing else, so the bytes a store allocates follow the bins
//! it stores — not its keys times a dense 0..4 s bin vector (32 KB each).
//!
//! A rotation moves the drained interval into the store it publishes, and
//! journals it from there: it copies nothing it does not keep.
//!
//! A counting `#[global_allocator]` needs a binary of its own, hence this
//! file; it counts bytes requested and allocation calls per thread, and
//! everything measured here runs on the calling thread.

use piql_kv::MILLIS;
use piql_predict::{LatencyHistogram, ModelKey, ModelStore, OpKind, SharedModelStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: TLS may already be torn down during thread exit
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s own
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: as above
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
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

/// `f`'s result and the bytes it allocated.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// `f`'s result and the allocation calls it made.
fn calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// Nonzero bins held across every interval of `store`.
fn stored_bins(store: &ModelStore) -> usize {
    (store.interval_maps().iter())
        .flat_map(|interval| interval.values())
        .map(|h| h.nonzero_bins().len())
        .sum()
}

#[test]
fn the_fabricated_lattice_costs_kilobytes() {
    let (store, bytes) = allocated(|| ModelStore::linear(200, 100, 2));
    // 420 lattice points × (2 intervals + the aggregate) = 1,260 histograms
    assert_eq!(store.keys().len(), 420);
    // measured: 206,232 B for 2,168 interval bins; the dense 0..4 s bin
    // vectors this replaced allocated 40,438,512 B
    assert!(
        bytes <= 1 << 20,
        "{bytes} B for {} bins",
        stored_bins(&store)
    );
}

/// A lattice point [`SharedModelStore::record_live`] keeps as it is.
const KEY: ModelKey = ModelKey {
    op: OpKind::IndexScan,
    alpha_c: 10,
    alpha_j: 1,
    beta: 40,
};

#[test]
// Rank tracking in `lock-order` builds keeps per-thread held-lock state,
// which allocates by design.
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_rotation_costs_the_bins_it_stores() {
    let shared = SharedModelStore::new(ModelStore::linear(200, 100, 2));
    shared.record_live(KEY, 7 * MILLIS);
    // the rotation copies one surviving interval, adds the one-key live
    // interval and rebuilds the aggregate over both
    let (folded, bytes) = allocated(|| shared.rotate());
    assert_eq!(folded, 1);
    let bins = stored_bins(&shared.snapshot());
    // measured: 131,376 B for 1,085 interval bins (121 B a bin, the map
    // nodes included); dense, the same rotation allocated 26,993,984 B
    assert!(bytes <= 256 * bins as u64, "{bytes} B for {bins} bins");
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_rotation_folds_its_interval_in_by_move_and_journals_it_from_there() {
    // the store a rotation builds, built directly from the same interval
    let mut live = BTreeMap::new();
    let mut histogram = LatencyHistogram::standard();
    for latency in [7, 9, 40] {
        histogram.record(latency * MILLIS);
    }
    live.insert(KEY, histogram);
    let seed = ModelStore::linear(200, 100, 2);
    let (direct, built) = calls(|| seed.rotated(live));

    let shared = SharedModelStore::new(ModelStore::linear(200, 100, 2));
    let journaled = Arc::new(AtomicU64::new(0));
    shared.set_rotation_observer(Some(Box::new({
        let journaled = journaled.clone();
        move |interval| {
            let samples = interval.values().map(LatencyHistogram::count).sum();
            journaled.fetch_add(samples, Ordering::Relaxed);
        }
    })));
    for latency in [7, 9, 40] {
        shared.record_live(KEY, latency * MILLIS);
    }
    let (folded, rotation) = calls(|| shared.rotate());
    assert_eq!(folded, 3);
    assert_eq!(journaled.load(Ordering::Relaxed), 3, "journaled as folded");
    assert_eq!(shared.snapshot().interval_maps(), direct.interval_maps());
    // the rotation costs the store it builds and the `Arc` it publishes it
    // in, and nothing else: copying the drained interval to publish it,
    // while the journal read the original, cost 2 more (its one map node
    // and its histogram's bins)
    println!("a rotation: {rotation} allocations, the store it builds {built}");
    assert_eq!(rotation, built + 1);
}
