//! Backend-differential property suite: every `IndexBackend` must be an
//! observationally identical implementation of the index contract.
//!
//! A random operation sequence (inserts, whole-run batch inserts,
//! evictions) is applied to all three backends in lockstep; after every
//! eviction and at the end, every read-side observation must agree
//! **bit-identically** with the skip-list reference:
//!
//! - full-range scans: same `(ts, key, value)` rows in the same order,
//! - windowed scans (`scan_window`, `scan_ts_range`) over random bounds,
//! - per-key `key_len`,
//! - `len`, `key_count`, and each `evict_below` return value.
//!
//! This also pins the eviction/compaction interaction per backend: runs
//! interleave eviction with further inserts (including re-inserting below
//! previously evicted bounds) so Jiffy's run compaction and HINT's bucket
//! drops are exercised mid-stream, not only on a frozen index.

use oij_common::{Timestamp, Tuple, Window};
use oij_index::{BackendReader, BackendWriter, IndexBackend, OijIndexReader, OijIndexWriter};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// One insert, published immediately.
    Insert { key: u64, ts: i64 },
    /// A whole run handed to `insert_batch` (one publish per touched key).
    Batch(Vec<(u64, i64)>),
    /// Evict everything strictly below the bound.
    Evict { bound: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..6, -2_000i64..60_000).prop_map(|(key, ts)| Op::Insert { key, ts }),
        2 => proptest::collection::vec((0u64..6, -2_000i64..60_000), 1..40).prop_map(Op::Batch),
        1 => (-1_000i64..50_000).prop_map(|bound| Op::Evict { bound }),
    ]
}

fn tuple(key: u64, ts: i64) -> Tuple {
    // Value derived from (key, ts) so a row mismatch is self-describing.
    Tuple::new(
        Timestamp::from_micros(ts),
        key,
        (ts as f64) + key as f64 / 8.0,
    )
}

/// Everything a reader can observe about one index, in comparable form.
#[derive(Debug, PartialEq)]
struct Observation {
    len: usize,
    key_count: usize,
    /// Per probed key: `key_len`.
    keys: Vec<usize>,
    /// Full-range rows per probed key: (ts, key, value-bits).
    rows: Vec<Vec<(i64, u64, u64)>>,
    /// Windowed scan rows + counts over the probe windows.
    windowed: Vec<Vec<(i64, u64)>>,
}

fn observe(writer: &BackendWriter, reader: &BackendReader, windows: &[(i64, i64)]) -> Observation {
    let keys = (0u64..6).map(|k| reader.key_len(k)).collect();
    let rows = (0u64..6)
        .map(|k| {
            let mut rows = Vec::new();
            reader.scan_ts_range(k, Timestamp::MIN, Timestamp::MAX, |t| {
                rows.push((t.ts.as_micros(), t.key, t.value.to_bits()));
            });
            rows
        })
        .collect();
    let windowed = (0u64..6)
        .flat_map(|k| windows.iter().map(move |&(lo, hi)| (k, lo, hi)))
        .map(|(k, lo, hi)| {
            let mut rows = Vec::new();
            let win = Window {
                start: Timestamp::from_micros(lo),
                end: Timestamp::from_micros(hi),
            };
            reader.scan_window(k, win, |t| rows.push((t.ts.as_micros(), t.value.to_bits())));
            rows
        })
        .collect();
    Observation {
        len: writer.len(),
        key_count: writer.key_count(),
        keys,
        rows,
        windowed,
    }
}

fn apply(writer: &mut BackendWriter, op: &Op) -> usize {
    match op {
        Op::Insert { key, ts } => {
            writer.insert(tuple(*key, *ts));
            0
        }
        Op::Batch(run) => {
            writer.insert_batch(run.iter().map(|&(k, ts)| (tuple(k, ts), false)).collect());
            0
        }
        Op::Evict { bound } => writer.evict_below(Timestamp::from_micros(*bound)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn backends_are_observationally_identical(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        windows in proptest::collection::vec((-500i64..40_000, 0i64..20_000), 1..4),
    ) {
        let windows: Vec<(i64, i64)> =
            windows.into_iter().map(|(lo, span)| (lo, lo + span)).collect();
        let (mut ref_w, ref_r) = IndexBackend::SkipList.build_with_seed(7);
        let mut others: Vec<(BackendWriter, BackendReader)> =
            [IndexBackend::JiffyLite, IndexBackend::HintLite]
                .iter()
                .map(|b| b.build_with_seed(7))
                .collect();

        for (step, op) in ops.iter().enumerate() {
            let want_evicted = apply(&mut ref_w, op);
            for (w, _) in others.iter_mut() {
                let got_evicted = apply(w, op);
                prop_assert_eq!(
                    got_evicted, want_evicted,
                    "evict count diverged at step {} ({:?}) on {}",
                    step, op, w.backend().label()
                );
            }
            // Compare after every eviction (the compaction-sensitive
            // moment) and at the end; every step would be O(n^2).
            let last = step + 1 == ops.len();
            if matches!(op, Op::Evict { .. }) || last {
                let want = observe(&ref_w, &ref_r, &windows);
                for (w, r) in others.iter() {
                    let got = observe(w, r, &windows);
                    prop_assert_eq!(
                        &got, &want,
                        "observation diverged at step {} ({:?}) on {}",
                        step, op, w.backend().label()
                    );
                }
            }
        }
    }

    #[test]
    fn eviction_bound_is_exact_per_backend(
        inserts in proptest::collection::vec((0u64..4, 0i64..10_000), 1..80),
        bound in 0i64..12_000,
    ) {
        // `evict_below(b)` must drop exactly the tuples with `ts < b` —
        // the same bound the durability layer uses for WAL retention, so
        // an off-by-one here silently breaks crash recovery.
        for backend in IndexBackend::ALL {
            let (mut w, r) = backend.build();
            for &(k, ts) in &inserts {
                w.insert(tuple(k, ts));
            }
            let below = inserts.iter().filter(|&&(_, ts)| ts < bound).count();
            let evicted = w.evict_below(Timestamp::from_micros(bound));
            prop_assert_eq!(evicted, below, "backend {}", backend.label());
            prop_assert_eq!(w.len(), inserts.len() - below, "backend {}", backend.label());
            let mut seen_below = 0usize;
            for k in 0u64..4 {
                r.scan_ts_range(k, Timestamp::MIN, Timestamp::MAX, |t| {
                    if t.ts.as_micros() < bound {
                        seen_below += 1;
                    }
                });
            }
            prop_assert_eq!(seen_below, 0, "backend {}", backend.label());
        }
    }

    #[test]
    fn batch_and_sequential_inserts_converge(
        run in proptest::collection::vec((0u64..5, -100i64..5_000), 1..60),
    ) {
        // For every backend, one `insert_batch(run)` must leave the index
        // in the same observable state as inserting the run one by one —
        // same rows, same order, same per-key lengths.
        for backend in IndexBackend::ALL {
            let (mut batched_w, batched_r) = backend.build_with_seed(11);
            let (mut seq_w, seq_r) = backend.build_with_seed(11);
            batched_w.insert_batch(
                run.iter().map(|&(k, ts)| (tuple(k, ts), false)).collect(),
            );
            for &(k, ts) in &run {
                seq_w.insert(tuple(k, ts));
            }
            let windows = [(0i64, 2_500i64)];
            let want = observe(&seq_w, &seq_r, &windows);
            let got = observe(&batched_w, &batched_r, &windows);
            prop_assert_eq!(&got, &want, "backend {}", backend.label());
        }
    }
}
