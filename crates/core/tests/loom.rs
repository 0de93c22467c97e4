//! Loom model check for the window summary's bucket cells (DESIGN.md
//! §3.4), oij-core's one lock-free publication protocol.
//!
//! Compile and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p oij-core --test loom --release
//! ```
//!
//! Under `--cfg loom` the crate's `sync` facade swaps the cells' seqlock
//! words to the vendored loom's instrumented atomics, and `loom::model`
//! explores the distinct thread interleavings of the scenario (up to the
//! preemption bound). Same caveat as the skiplist models: the stand-in is
//! sequentially consistent only (wrong `Release`/`Acquire` orderings are
//! ThreadSanitizer's layer, see `scripts/sanitize.sh`).

#![cfg(loom)]

use loom::thread;
use oij_agg::PartialAgg;
use oij_core::scaleoij::summary::{BucketRing, CellRead};
use std::sync::Arc;

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
