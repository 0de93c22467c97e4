//! Loom model checks for the Jiffy-lite and HINT-lite backends'
//! publish/snapshot paths.
//!
//! Compile and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p oij-index --test loom --release
//! ```
//!
//! Both backends publish through `RcuCell`: one `Release` pointer swap per
//! touched key. The scenarios pin the two ways that publication could
//! break (the same caveats as the skip-list models apply: the vendored
//! loom is sequentially consistent, so wrong orderings are
//! ThreadSanitizer's job, not loom's):
//!
//! 1. **Batch runs publish atomically per key**: a reader racing an
//!    `insert_batch` run over one key sees either none or all of the
//!    run's entries, never a prefix (one RCU swap publishes the run).
//! 2. **Eviction swaps snapshots atomically**: a scan racing
//!    `evict_below` sees the pre-eviction or the post-eviction series,
//!    never a torn mixture.

#![cfg(loom)]

use loom::thread;
use oij_common::{Timestamp, Tuple};
use oij_index::{IndexBackend, OijIndexReader, OijIndexWriter};

const BACKENDS: [IndexBackend; 2] = [IndexBackend::JiffyLite, IndexBackend::HintLite];

fn tuple(ts: i64, value: f64) -> Tuple {
    Tuple::new(Timestamp::from_micros(ts), 1, value)
}

fn scan_all(reader: &impl OijIndexReader) -> Vec<i64> {
    let mut rows = Vec::new();
    reader.scan_ts_range(1, Timestamp::MIN, Timestamp::MAX, |t| {
        rows.push(t.ts.as_micros());
    });
    rows
}

#[test]
fn batch_runs_publish_atomically_per_key() {
    for backend in BACKENDS {
        loom::model(move || {
            let (mut w, r) = backend.build_with_seed(3);
            let reader = thread::spawn(move || scan_all(&r));
            w.insert_batch(vec![(tuple(10, 1.0), false), (tuple(20, 2.0), false)]);
            let rows = reader.join().unwrap();
            assert!(
                rows.is_empty() || rows == [10, 20],
                "{}: torn batch publication: {:?}",
                backend.label(),
                rows
            );
        });
    }
}

#[test]
fn eviction_swaps_snapshots_atomically() {
    for backend in BACKENDS {
        loom::model(move || {
            let (mut w, r) = backend.build_with_seed(3);
            w.insert(tuple(10, 1.0));
            w.insert(tuple(20, 2.0));
            let reader = thread::spawn(move || scan_all(&r));
            let evicted = w.evict_below(Timestamp::from_micros(15));
            assert_eq!(evicted, 1);
            let rows = reader.join().unwrap();
            assert!(
                rows == [10, 20] || rows == [20],
                "{}: torn eviction snapshot: {:?}",
                backend.label(),
                rows
            );
        });
    }
}
