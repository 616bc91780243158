//! What a write and a stored entry cost. A `LiveCluster` entry is one
//! exactly-sized allocation (the key, then the value): a put grows its own
//! key buffer into it, once inside the store (an index entry's, whose
//! value is empty, or one whose key was built with room for its value,
//! not at all); a test-and-set carries its entry as one buffer, which a
//! successful swap keeps as it is — no allocation, and no answer but its
//! success — and a failed one allocates only the copy it returns. Held, an
//! entry costs its payload plus a share of its shard's B-tree nodes of
//! 16-byte slots, where a `(Vec<u8>, Vec<u8>)` pair cost two allocations
//! and a 48-byte slot. A batch (`bulk_put_all`) hands each entry over as
//! one buffer, the key and then the value, which becomes the entry with no
//! allocation, and builds each shard from its sorted run, so it holds less
//! node per entry than the same puts one by one.
//!
//! A counting `#[global_allocator]` needs a binary of its own, hence this
//! file; it counts calls and live bytes per thread, and the store runs its
//! rounds on the calling thread (`pool_threads: 0`).

use piql_kv::testkit::swap;
use piql_kv::{KvEntry, KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, NsId, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A batch of `(key, value)` pairs, each joined into its key's buffer as
/// it is pushed.
fn joined(pairs: impl IntoIterator<Item = KvEntry>) -> impl FnMut(&mut dyn FnMut(Vec<u8>, usize)) {
    let mut pairs = Some(pairs);
    move |push| {
        for (mut key, value) in pairs.take().into_iter().flatten() {
            let key_len = key.len();
            key.extend_from_slice(&value);
            push(key, key_len);
        }
    }
}

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Book an allocation call that changes this thread's live bytes by `delta`.
fn bump(delta: i64) {
    // `try_with`: TLS may already be torn down during thread exit
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: the caller's contract is `System.alloc`'s own
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: as above
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        // SAFETY: as above
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as i64));
        // SAFETY: as above
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn store() -> LiveCluster {
    LiveCluster::new(LiveConfig {
        shards_per_namespace: 16,
        pool_threads: 0,
        request_delay_us: 0,
    })
}

/// The response to `request`, and the allocations the store made serving
/// it (the request is built beforehand).
fn served(store: &LiveCluster, request: KvRequest) -> (KvResponse, u64) {
    let mut session = Session::new();
    let before = ALLOCS.with(Cell::get);
    let response = store.execute_one(&mut session, request);
    (response, ALLOCS.with(Cell::get) - before)
}

/// A key of `len` bytes for entry `i`, spread over the key space in a
/// scrambled order (as a load's keys arrive), never repeating.
fn key(i: u32, len: usize) -> Vec<u8> {
    let scrambled = i.wrapping_mul(2_654_435_761);
    let mut key = scrambled.to_be_bytes().to_vec();
    key.resize(len, i as u8);
    key
}

fn put(ns: NsId, key: Vec<u8>, value: Vec<u8>) -> KvRequest {
    KvRequest::Put { ns, key, value }
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_write_allocates_once_inside_the_store() {
    let store = store();
    let ns = store.namespace("rows");
    for i in 0..1_000 {
        store.bulk_put(ns, key(i, 20), vec![1; 100]);
    }

    // overwriting keeps the B-tree as it is: what is left is the entry
    let (_, made) = served(&store, put(ns, key(7, 20), vec![2; 100]));
    assert_eq!(made, 1, "a put grows its key into the entry");
    // a key built with room for exactly its value is the entry's buffer
    // as it is: nothing grows, nothing shrinks
    let mut roomy = Vec::with_capacity(20 + 100);
    roomy.extend_from_slice(&key(7, 20));
    let (_, made) = served(&store, put(ns, roomy, vec![2; 100]));
    assert_eq!(made, 0, "a key with room for its value becomes the entry");
    let index = store.namespace("index");
    store.bulk_put(index, key(7, 24), Vec::new());
    let (_, made) = served(&store, put(index, key(7, 24), Vec::new()));
    assert_eq!(made, 0, "an index entry is its key's own buffer");
    // a fresh key adds a node now and then: one per ~7 entries
    let fresh: Vec<KvRequest> = (1_000..2_000)
        .map(|i| put(ns, key(i, 20), vec![3; 100]))
        .collect();
    let before = ALLOCS.with(Cell::get);
    let mut session = Session::new();
    for request in fresh {
        store.execute_one(&mut session, request);
    }
    let made = ALLOCS.with(Cell::get) - before;
    assert!(
        made <= 1_000 + 1_000 / 5,
        "{made} allocations for 1,000 puts"
    );

    // a successful test-and-set keeps the request's buffer as its entry
    // (the same pointer, `live.rs`' `a_swap_stores_its_requests_buffer`)
    let (response, made) = served(&store, swap(ns, &key(7, 20), &[4; 100], Some(&[2; 100])));
    assert_eq!(response.tas().unwrap(), (true, None), "the swap applies");
    assert_eq!(made, 0, "the request's buffer is the entry");

    // a failed one allocates only the copy of the live value it returns
    let (response, made) = served(&store, swap(ns, &key(7, 20), &[5; 100], None));
    assert_eq!(response.tas().unwrap(), (false, Some(&[4; 100][..])));
    assert_eq!(made, 1, "only the returned copy");
}

/// Entry `i` of a load of `key_len`-byte keys and `value_len`-byte values.
fn pair(i: u32, key_len: usize, value_len: usize) -> KvEntry {
    (key(i, key_len), vec![i as u8; value_len])
}

/// Live bytes the store holds per entry after `n` puts of `key_len`-byte
/// keys and `value_len`-byte values, one by one or as one batch: the
/// requests are built and consumed inside the count, so what the store
/// did not keep nets out.
fn held_per_entry(n: u32, key_len: usize, value_len: usize, batched: bool) -> f64 {
    let store = store();
    let ns = store.namespace("t");
    let mut session = Session::new();
    let before = LIVE.with(Cell::get);
    if batched {
        let pairs = (0..n).map(|i| pair(i, key_len, value_len));
        store.bulk_put_all(ns, &mut joined(pairs));
    } else {
        for i in 0..n {
            let (key, value) = pair(i, key_len, value_len);
            store.execute_one(&mut session, put(ns, key, value));
        }
    }
    let held = LIVE.with(Cell::get) - before;
    assert_eq!(store.ns_len(ns), n as usize);
    held as f64 / f64::from(n)
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_stored_entry_costs_its_payload_plus_a_little() {
    const N: u32 = 20_000;
    // (shape, key bytes, value bytes, ceiling on live bytes per entry).
    // Measured: 148.1 and 52.1 — the payload, and 28.1 bytes of B-tree
    // node per entry. A map of `(Vec<u8>, Vec<u8>)` pairs held 196.6 and
    // 100.6 for the same puts.
    let shapes = [
        ("post_v3 row", 20, 100, 150.0),
        ("index entry", 24, 0, 55.0),
    ];
    for (shape, key_len, value_len, ceiling) in shapes {
        let held = held_per_entry(N, key_len, value_len, false);
        let payload = key_len + value_len;
        println!(
            "{shape}: {held:.1} live allocator bytes per entry for {payload} payload bytes \
             ({:.1} over)",
            held - payload as f64
        );
        assert!(
            held <= ceiling,
            "{shape}: {held:.1} bytes held per {payload}-byte entry"
        );
    }
}

#[test]
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_batch_of_joined_buffers_allocates_only_its_leaves() {
    const N: u32 = 20_000;
    const SHARDS: u64 = 16;
    // (shape, key bytes, value bytes, ceiling on live bytes per entry).
    // Each entry arrives as one exactly-sized buffer, its key and then its
    // value, and is adopted as it is: the store allocates nothing per
    // entry. Each shard is built from its sorted run: B-tree leaves filled
    // to their 11 slots, about one node per 11 entries where puts one by
    // one leave them two-thirds full, plus a few buffers per shard — the
    // batch as it grows, its sort's scratch and each run's. Measured:
    // 2,031 allocations for either shape, 138.4 and 42.4 live bytes per
    // entry (18.4 of B-tree node, not 28.1).
    let shapes = [
        ("post_v3 row", 20, 100, 140.0),
        ("index entry", 24, 0, 44.0),
    ];
    for (shape, key_len, value_len, ceiling) in shapes {
        let store = store();
        let ns = store.namespace("t");
        let mut buffers: Vec<(Vec<u8>, usize)> = (0..N)
            .map(|i| {
                let (mut bytes, value) = pair(i, key_len, value_len);
                bytes.reserve_exact(value_len);
                bytes.extend_from_slice(&value);
                (bytes, key_len)
            })
            .collect();
        let before = ALLOCS.with(Cell::get);
        store.bulk_put_all(ns, &mut |push| {
            for (bytes, key_len) in buffers.drain(..) {
                push(bytes, key_len);
            }
        });
        let made = ALLOCS.with(Cell::get) - before;
        let held = held_per_entry(N, key_len, value_len, true);
        println!("{shape}, as one batch: {made} allocations, {held:.1} live bytes per entry");
        let n = u64::from(N);
        assert!(
            made <= n / 10 + 16 * SHARDS,
            "{shape}: {made} allocations to load {N} entries"
        );
        assert!(held <= ceiling, "{shape}: {held:.1} bytes held per entry");
    }
}
