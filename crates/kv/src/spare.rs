//! The writer's spare buffers: what a write's request buffers become once
//! `LiveCluster` has copied their bytes into a shard's arena.
//!
//! The store keeps no buffer a request brought: it copies the key and the
//! value into the shard's chunks and hands the emptied buffers to the
//! calling thread's spare, which the engine's key builders
//! (`keys::record_entry` and the index-entry builders) take from before
//! they allocate. A warm thread that writes entries of the sizes it has
//! written before therefore allocates no buffer for them. The spare is
//! bounded, in buffers and in bytes ([`SPARE_BUFFERS`], [`SPARE_BYTES`]);
//! what would take it past either is let go, smallest first. `SimCluster`
//! keeps the buffers it is given as its storage, and hands nothing back.

use std::cell::Cell;

/// The most buffers one thread's spare keeps: room for the entries of one
/// write with a few dozen index entries.
pub const SPARE_BUFFERS: usize = 64;

/// The most bytes the buffers one thread's spare keeps may hold.
pub const SPARE_BYTES: usize = 16 * 1024;

/// Emptied buffers in ascending order of capacity, and the bytes they hold.
struct Spare {
    buffers: Vec<Vec<u8>>,
    bytes: usize,
}

thread_local! {
    /// The spare of the writes this thread issues.
    static SPARE: Cell<Spare> = const {
        Cell::new(Spare {
            buffers: Vec::new(),
            bytes: 0,
        })
    };
}

/// Run `f` with the calling thread's spare, or with none once the thread's
/// locals are torn down (during thread exit).
fn with<R>(f: impl FnOnce(&mut Spare) -> R) -> Option<R> {
    let empty = || Spare {
        buffers: Vec::new(),
        bytes: 0,
    };
    let mut spare = SPARE.try_with(|slot| slot.replace(empty())).ok()?;
    let answer = f(&mut spare);
    let _ = SPARE.try_with(|slot| slot.set(spare));
    Some(answer)
}

/// An empty buffer with room for at least `len` bytes: the smallest one
/// the calling thread's spare keeps that has that room, else a new one of
/// exactly `len`.
pub fn take(len: usize) -> Vec<u8> {
    let kept = with(|spare| {
        let at = spare.buffers.partition_point(|b| b.capacity() < len);
        (at < spare.buffers.len()).then(|| {
            let buffer = spare.buffers.remove(at);
            spare.bytes -= buffer.capacity();
            buffer
        })
    });
    kept.flatten().unwrap_or_else(|| Vec::with_capacity(len))
}

/// Keep `buffer`, emptied, on the calling thread for a later [`take`]; the
/// smallest buffers go while the spare holds more than [`SPARE_BUFFERS`]
/// or [`SPARE_BYTES`].
pub(crate) fn keep(mut buffer: Vec<u8>) {
    if buffer.capacity() == 0 || buffer.capacity() > SPARE_BYTES {
        return;
    }
    buffer.clear();
    with(|spare| {
        if spare.buffers.capacity() == 0 {
            spare.buffers.reserve_exact(SPARE_BUFFERS + 1);
        }
        let at = (spare.buffers).partition_point(|b| b.capacity() < buffer.capacity());
        let full =
            spare.buffers.len() == SPARE_BUFFERS || spare.bytes + buffer.capacity() > SPARE_BYTES;
        if at == 0 && full {
            // it would be the first to go
            return;
        }
        spare.bytes += buffer.capacity();
        spare.buffers.insert(at, buffer);
        while spare.buffers.len() > SPARE_BUFFERS || spare.bytes > SPARE_BYTES {
            let smallest = spare.buffers.remove(0);
            spare.bytes -= smallest.capacity();
        }
    });
}

/// Buffers and bytes the calling thread's spare keeps.
#[cfg(test)]
pub(crate) fn held() -> (usize, usize) {
    with(|spare| (spare.buffers.len(), spare.bytes)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_kept_buffer_is_taken_back_by_the_smallest_that_fits() {
        let (small, large) = (Vec::with_capacity(16), Vec::with_capacity(100));
        let (small_at, large_at) = (small.as_ptr(), large.as_ptr());
        keep(large);
        keep(small);
        assert_eq!(held(), (2, 116));
        let taken = take(10);
        assert_eq!(taken.as_ptr(), small_at, "the smallest that fits");
        let fresh = take(200);
        assert_eq!(fresh.capacity(), 200, "none fits: a new one, exactly sized");
        let taken = take(50);
        assert_eq!(taken.as_ptr(), large_at);
        assert_eq!(held(), (0, 0));
    }

    #[test]
    fn the_spare_keeps_the_largest_within_its_bounds() {
        for len in 1..=SPARE_BUFFERS + 10 {
            keep(Vec::with_capacity(len));
        }
        let (buffers, bytes) = held();
        assert_eq!(buffers, SPARE_BUFFERS);
        assert!(bytes <= SPARE_BYTES);
        assert!(take(1).capacity() > 10, "the smallest went first");
        keep(Vec::with_capacity(SPARE_BYTES + 1));
        assert_eq!(held().0, SPARE_BUFFERS - 1, "too large to keep");
        keep(Vec::with_capacity(SPARE_BYTES));
        assert_eq!(held(), (1, SPARE_BYTES), "one buffer may take it all");
    }
}
