//! What a range answer costs in allocations: a packed [`Entries`] block is
//! two buffers sized while the shard is held, so a one-shard `GetRange`
//! allocates the same whether it returns one entry or a hundred — no clone
//! per key and value, no copy of either bound, no growth by doubling — and
//! a count or a miss allocates nothing beyond the round's response vector.
//!
//! A counting `#[global_allocator]` needs a binary of its own, hence this
//! file; it counts per thread, and the store runs its rounds on the calling
//! thread (`pool_threads: 0`).
//!
//! [`Entries`]: piql_kv::Entries

use piql_kv::{KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, NsId, Session};
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

/// The response to `request` as a round of one, and the allocations the
/// store made serving it (the round's own vector is built beforehand).
fn served(store: &LiveCluster, session: &mut Session, request: KvRequest) -> (KvResponse, u64) {
    let round = vec![request];
    let before = ALLOCS.with(Cell::get);
    let mut responses = store.execute_round(session, round);
    let made = ALLOCS.with(Cell::get) - before;
    (responses.remove(0), made)
}

fn range(ns: NsId, start: u8, end: u8, limit: Option<u64>, reverse: bool) -> KvRequest {
    KvRequest::GetRange {
        ns,
        start: vec![start],
        end: Some(vec![end]),
        limit,
        reverse,
    }
}

#[test]
// Rank tracking in `lock-order` builds keeps per-thread held-lock state,
// which allocates by design.
#[cfg_attr(
    feature = "lock-order",
    ignore = "lock-order tracking allocates by design"
)]
fn a_range_answer_allocates_two_buffers_whatever_its_size() {
    let store = LiveCluster::new(LiveConfig {
        shards_per_namespace: 1,
        pool_threads: 0,
        request_delay_us: 0,
    });
    let ns = store.namespace("t");
    for i in 0u8..200 {
        store.bulk_put(ns, vec![i, 0xAA], vec![i; 40]);
    }
    let mut session = Session::new();
    // warm: the first round of a thread may set up thread-local state
    served(&store, &mut session, range(ns, 0, 1, None, false));

    for reverse in [false, true] {
        let mut costs = Vec::new();
        for n in [1u8, 10, 100] {
            // by its bounds, and by its limit out of a larger interval
            for request in [
                range(ns, 50, 50 + n, None, reverse),
                range(ns, 20, 190, Some(u64::from(n)), reverse),
            ] {
                let (response, made) = served(&store, &mut session, request);
                assert_eq!(response.expect_entries().len(), usize::from(n));
                costs.push(made);
            }
        }
        assert!(
            costs.iter().all(|&made| made == costs[0]),
            "1, 10 and 100 entries must cost the same: {costs:?}"
        );
        assert!(
            costs[0] <= 3,
            "payload, offsets and the response vector: {costs:?}"
        );
    }

    // a limit nobody could allocate for up front is sized by what is there
    let (response, made) = served(
        &store,
        &mut session,
        range(ns, 0, 255, Some(u64::MAX), false),
    );
    assert_eq!(response.expect_entries().len(), 200);
    assert!(made <= 3, "{made}");

    // nothing found, a count, a miss: the response vector and nothing else
    let nothing_but_the_response = [
        range(ns, 210, 220, None, false),
        range(ns, 90, 10, None, false),
        KvRequest::CountRange {
            ns,
            start: vec![0],
            end: Some(vec![150]),
        },
        KvRequest::Get {
            ns,
            key: vec![7, 7, 7],
        },
    ];
    for request in nothing_but_the_response {
        let what = format!("{request:?}");
        let (_, made) = served(&store, &mut session, request);
        assert!(made <= 1, "{what}: {made} allocations");
    }
}
