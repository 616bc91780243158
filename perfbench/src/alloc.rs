//! A counting global allocator: how many heap allocations, and of how
//! many bytes, the process makes. Unlike every clock, these counts do not
//! depend on how fast the host happens to run, so they are the cost
//! metrics two runs of the same code agree on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counters are striped by thread so that counting does not make the
/// threads of the program under test share a cache line.
const STRIPES: usize = 64;

#[repr(align(64))]
struct Stripe {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTS: [Stripe; STRIPES] = [const {
    Stripe {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe; `usize::MAX` until its first allocation.
    /// Const-initialised and without a destructor, so touching it from
    /// inside the allocator allocates nothing.
    static MINE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(bytes: usize) {
    // `try_with`: the thread-local may already be gone during thread exit
    let stripe = MINE
        .try_with(|mine| {
            if mine.get() == usize::MAX {
                mine.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES);
            }
            mine.get()
        })
        .unwrap_or(0);
    // statistics only: nothing is published through these counters
    COUNTS[stripe].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTS[stripe]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

/// `(allocations, bytes)` requested by the whole process so far; a
/// `realloc` counts as one allocation of its new size.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(allocs, bytes), stripe| {
        (
            allocs + stripe.allocs.load(Ordering::Relaxed),
            bytes + stripe.bytes.load(Ordering::Relaxed),
        )
    })
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and a
// const-initialised thread-local, and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}
