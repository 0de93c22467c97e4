//! Loom model checks for the batch-buffer recycling pool (DESIGN.md §10)
//! and the window summary's bucket cells (DESIGN.md §3.4).
//!
//! Compile and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p oij-core --test loom --release
//! ```
//!
//! Under `--cfg loom` the crate's `sync` facade swaps `SlotPool`'s slot
//! state words to the vendored loom's instrumented atomics, and
//! `loom::model` explores the distinct thread interleavings of each
//! scenario (up to the preemption bound). Same caveats as the skiplist
//! models: the stand-in is sequentially consistent only (wrong
//! `Release`/`Acquire` orderings are ThreadSanitizer's layer, see
//! `scripts/sanitize.sh`), and plain `UnsafeCell` accesses are not
//! instrumented — the scenarios assert value conservation directly.
//!
//! `SlotPool` is the one lock-free structure the batched routing path
//! added: drivers `take()` recycled `Vec<DataMsg>` buffers while joiners
//! `put()` drained ones back, concurrently and from different threads.
//! The contract checked here is **conservation**: a value put into the
//! pool is observed by exactly one taker exactly once — never duplicated
//! (double-vend would alias a live buffer) and never lost while a slot
//! is free (leak would defeat recycling).

#![cfg(loom)]

use loom::thread;
use oij_agg::PartialAgg;
use oij_core::scaleoij::summary::{BucketRing, CellRead};
use oij_core::SlotPool;
use std::sync::Arc;

/// Two concurrent `put`s into a two-slot pool: both values are accepted
/// (capacity suffices) and two subsequent `take`s vend exactly those two
/// values, each once.
#[test]
fn concurrent_puts_conserve_values() {
    loom::model(|| {
        let pool = Arc::new(SlotPool::new(2));
        let p1 = Arc::clone(&pool);
        let p2 = Arc::clone(&pool);
        let t1 = thread::spawn(move || p1.put(1u32));
        let t2 = thread::spawn(move || p2.put(2u32));
        let r1 = t1.join().unwrap();
        let r2 = t2.join().unwrap();
        // Two slots, two puts: neither bounces.
        assert_eq!(r1, None);
        assert_eq!(r2, None);
        let mut got = [pool.take(), pool.take()];
        got.sort();
        assert_eq!(got, [Some(1), Some(2)]);
        assert_eq!(pool.take(), None);
    });
}

/// A `put` racing a `take` on a one-slot pool: the taker sees the value
/// or nothing, and whatever it missed is still in the pool afterwards —
/// the value is never lost and never observed twice.
#[test]
fn put_take_race_conserves_the_value() {
    loom::model(|| {
        let pool = Arc::new(SlotPool::new(1));
        let producer = {
            let p = Arc::clone(&pool);
            thread::spawn(move || {
                assert_eq!(p.put(7u32), None);
            })
        };
        let consumer = {
            let p = Arc::clone(&pool);
            thread::spawn(move || p.take())
        };
        producer.join().unwrap();
        let taken = consumer.join().unwrap();
        match taken {
            Some(v) => {
                assert_eq!(v, 7);
                // Already vended: the pool must not vend it again.
                assert_eq!(pool.take(), None);
            }
            None => {
                // The taker ran before publication: the value is intact.
                assert_eq!(pool.take(), Some(7));
            }
        }
    });
}

/// Two takers racing for a single stored value: exactly one wins, the
/// other sees an empty pool — a slot is never vended twice.
#[test]
fn competing_takers_vend_exactly_once() {
    loom::model(|| {
        let pool = Arc::new(SlotPool::new(1));
        assert_eq!(pool.put(9u32), None);
        let t1 = {
            let p = Arc::clone(&pool);
            thread::spawn(move || p.take())
        };
        let t2 = {
            let p = Arc::clone(&pool);
            thread::spawn(move || p.take())
        };
        let a = t1.join().unwrap();
        let b = t2.join().unwrap();
        match (a, b) {
            (Some(9), None) | (None, Some(9)) => {}
            other => panic!("expected exactly one taker to win, got {other:?}"),
        }
        assert_eq!(pool.take(), None);
    });
}

/// A one-cell `BucketRing`, so buckets 4 and 5 share the slot: the owner
/// folds two values into bucket 4 and then recycles the cell for bucket 5
/// while a reader reads both buckets. Every `Hit` must be a state the
/// owner actually published for **that** bucket — never a torn
/// `(id, sum, count, min, max)`, never bucket 4's sum under id 5 — and a
/// read that cannot be validated is `Torn`, which callers answer from the
/// index.
#[test]
fn a_cell_read_is_consistent_across_update_and_recycle() {
    let partial = |vals: &[f64]| {
        let mut p = PartialAgg::empty();
        vals.iter().for_each(|&v| p.add(v));
        p
    };
    loom::model(move || {
        let ring = Arc::new(BucketRing::new(1));
        let owner = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                ring.add(4, 1.0);
                ring.add(4, 2.0);
                ring.add(5, 10.0);
            })
        };
        let (old, new) = (ring.read(4), ring.read(5));
        owner.join().unwrap();
        let old_ok = [
            CellRead::Hit(partial(&[])),
            CellRead::Hit(partial(&[1.0])),
            CellRead::Hit(partial(&[1.0, 2.0])),
            CellRead::Recycled,
            CellRead::Torn,
        ];
        assert!(old_ok.contains(&old), "bucket 4 read as {old:?}");
        let new_ok = [
            CellRead::Hit(partial(&[])), // the slot has not reached 5 yet
            CellRead::Hit(partial(&[10.0])),
            CellRead::Torn,
        ];
        assert!(new_ok.contains(&new), "bucket 5 read as {new:?}");
        // Reads are ordered: once bucket 4 reads as recycled, 5 is there.
        if old == CellRead::Recycled {
            assert_ne!(new, CellRead::Hit(partial(&[])));
        }
        // Quiescent: the cell holds exactly what the owner stored last.
        assert_eq!(ring.read(4), CellRead::Recycled);
        assert_eq!(ring.read(5), CellRead::Hit(partial(&[10.0])));
    });
}
