//! Allocation counts of the time-travel index's write side, measured by a
//! counting global allocator on the calling thread only (so tests running
//! in parallel do not see each other's allocations).
//!
//! An insert into an existing series allocates exactly its node, and an
//! expiry sweep retires every series' chain in one deferral, so its
//! allocation count does not grow with the number of nodes it evicts. A
//! per-node retirement (one boxed closure per evicted tuple) fails the
//! second test by three orders of magnitude.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oij_common::{Timestamp, Tuple};
use oij_skiplist::TimeTravelIndex;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded caller contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const KEYS: u64 = 64;

fn tuple(ts: i64, key: u64) -> Tuple {
    Tuple::new(Timestamp::from_micros(ts), key, 1.0)
}

#[test]
fn inserts_into_existing_series_allocate_one_node_each() {
    let (mut w, _r) = TimeTravelIndex::new();
    for key in 0..KEYS {
        w.insert(tuple(0, key));
    }
    let allocs = allocs_in(|| {
        for i in 1..=1_000i64 {
            w.insert(tuple(i, i as u64 % KEYS));
        }
    });
    assert_eq!(
        allocs, 1_000,
        "an insert allocates its node and nothing else"
    );
}

/// Allocations one sweep may make, whatever it evicts: the chain list, the
/// one boxed deferral, and at most one growth each of the global garbage
/// list and of the collection offer's ready list.
const SWEEP_ALLOCS: u64 = 4;

#[test]
fn a_sweep_allocates_a_constant_not_one_per_evicted_node() {
    let (mut w, _r) = TimeTravelIndex::new();
    for ts in 0..40i64 {
        for key in 0..KEYS {
            w.insert(tuple(ts, key));
        }
    }
    // Warm-up sweep: registers this thread with the epoch engine.
    assert_eq!(w.evict_below(Timestamp::from_micros(1)), KEYS as usize);
    let mut evicted = 0;
    let allocs = allocs_in(|| evicted = w.evict_below(Timestamp::from_micros(20)));
    assert!(evicted >= 1_000, "{evicted}");
    assert!(
        allocs <= SWEEP_ALLOCS,
        "a sweep evicting {evicted} nodes over {KEYS} series allocated {allocs} times"
    );
}
