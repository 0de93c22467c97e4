//! The double-layer *time-travel* index (paper §V-A, Figure 10).
//!
//! lint: hot_path
//!
//! Layer 1 is an SWMR skip list mapping `key → second-layer handle`; each
//! second layer is an SWMR skip list mapping `(timestamp, seq) → tuple`
//! (the sequence number disambiguates equal timestamps, preserving every
//! tuple). Locating a window boundary costs
//! `O(log N_key) + O(log N_ts)` and a scan then touches **only** in-window
//! tuples — this is what makes lateness "insignificant to the performance"
//! (paper Finding 3): out-of-window tuples retained for late arrivals are
//! never visited.
//!
//! The owning joiner writes through [`IndexWriter`]; every member of its
//! virtual team reads through cloned [`IndexReader`]s, exploiting the SWMR
//! property of both layers.

use std::collections::HashMap;

use oij_common::{Key, Timestamp, Tuple, Window};

use crate::swmr::{Reader, SwmrSkipList, Writer};

/// Second-layer key: event timestamp plus a per-index dense sequence number
/// so that tuples with identical timestamps coexist.
pub type TsKey = (Timestamp, u64);

type SeriesWriter = Writer<TsKey, Tuple>;
type SeriesReader = Reader<TsKey, Tuple>;

/// Factory for the double-layer index.
pub struct TimeTravelIndex;

impl TimeTravelIndex {
    /// Creates an empty index, returning the unique writer and an initial
    /// reader handle.
    #[allow(clippy::new_ret_no_self)] // factory type: handles ARE the API
    pub fn new() -> (IndexWriter, IndexReader) {
        Self::with_seed(0xC0FF_EE11_D00D_F00D)
    }

    /// Creates an empty index with a deterministic skip-list height seed.
    pub fn with_seed(seed: u64) -> (IndexWriter, IndexReader) {
        let (kw, kr) = SwmrSkipList::with_seed::<Key, SeriesReader>(seed);
        (
            IndexWriter {
                keys: kw,
                series: HashMap::new(),
                seed: seed.rotate_left(17) | 1,
                next_seq: 0,
                len: 0,
            },
            IndexReader { keys: kr },
        )
    }
}

/// The unique mutating handle: insert tuples, expire old ones.
pub struct IndexWriter {
    /// Layer 1 (shared with readers).
    keys: Writer<Key, SeriesReader>,
    /// The writer halves of every second-layer list. Only this joiner
    /// inserts, so keeping them privately in a hash map gives O(1) writer
    /// lookup while readers still locate series through the layer-1 skip
    /// list as in the paper.
    series: HashMap<Key, SeriesWriter>,
    seed: u64,
    next_seq: u64,
    len: usize,
}

impl IndexWriter {
    /// Approximate in-memory footprint of one second-layer node, in bytes —
    /// what a window scan actually touches per tuple (used to drive the
    /// cache simulator with realistic access sizes).
    pub fn node_footprint() -> usize {
        // key (ts, seq) + tuple + tower of MAX_HEIGHT atomics.
        std::mem::size_of::<TsKey>()
            + std::mem::size_of::<Tuple>()
            + crate::swmr::MAX_HEIGHT * std::mem::size_of::<usize>()
    }

    /// Inserts a tuple, creating its key series on first sight.
    pub fn insert(&mut self, tuple: Tuple) {
        self.insert_traced(tuple);
    }

    /// Like [`insert`](Self::insert), additionally reporting the new
    /// node's address for cache-traffic simulation.
    pub fn insert_traced(&mut self, tuple: Tuple) -> usize {
        let ts = tuple.ts;
        let seq = self.next_seq;
        self.next_seq += 1;
        let series = self.series.entry(tuple.key).or_insert_with(|| {
            self.seed = self
                .seed
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(1);
            let (sw, sr) = SwmrSkipList::with_seed::<TsKey, Tuple>(self.seed | 1);
            // Publish the series reader through layer 1 so the virtual
            // team can find it.
            self.keys.insert(tuple.key, sr);
            sw
        });
        // PANIC-OK: duplicate (ts, seq) is impossible — `seq` increments per insert, so `insert_traced` cannot observe an equal key.
        let addr = series
            .insert_traced((ts, seq), tuple)
            .expect("(ts, seq) keys are unique by construction");
        self.len += 1;
        addr
    }

    /// Expires every tuple with `ts < bound` across all keys. Returns the
    /// number of evicted tuples. Empty series stay registered (key churn is
    /// low in the paper's workloads; a key's series is reused on re-arrival).
    pub fn evict_below(&mut self, bound: Timestamp) -> usize {
        let limit = (bound, 0u64);
        let mut evicted = 0usize;
        for series in self.series.values_mut() {
            evicted += series.evict_below(&limit);
        }
        self.len -= evicted;
        evicted
    }

    /// A reader handle sharing this index.
    pub fn reader(&self) -> IndexReader {
        IndexReader {
            keys: self.keys.reader(),
        }
    }

    /// Total live tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct keys ever inserted.
    pub fn key_count(&self) -> usize {
        self.series.len()
    }
}

/// A cloneable read handle over the double-layer index.
pub struct IndexReader {
    keys: Reader<Key, SeriesReader>,
}

impl Clone for IndexReader {
    fn clone(&self) -> Self {
        IndexReader {
            keys: self.keys.clone(),
        }
    }
}

impl IndexReader {
    /// Visits every stored tuple of `key` whose timestamp lies in `window`
    /// (inclusive bounds), in timestamp order. The callback also receives a
    /// stable node address for cache simulation. Returns the number visited
    /// — which, by construction, equals the number matched.
    pub fn scan_window_addr(
        &self,
        key: Key,
        window: Window,
        mut f: impl FnMut(&Tuple, usize),
    ) -> usize {
        let lo = (window.start, 0u64);
        let hi = (window.end, u64::MAX);
        self.keys
            .get_with(&key, |series| {
                series.for_each_range_addr(&lo, &hi, |_, tuple, addr| f(tuple, addr))
            })
            .unwrap_or(0)
    }

    /// Visits every stored tuple of `key` inside `window`, in timestamp
    /// order. Returns the number visited.
    pub fn scan_window(&self, key: Key, window: Window, mut f: impl FnMut(&Tuple)) -> usize {
        self.scan_window_addr(key, window, |t, _| f(t))
    }

    /// Visits every stored tuple of `key` inside `window` in `(ts, seq)`
    /// order, passing each tuple's dense per-index insertion sequence
    /// number. A reader that remembers the writer's insert count at some
    /// instant can filter on `seq < count` to reproduce exactly the
    /// prefix of inserts that preceded that instant — the serving
    /// runtime's shared-index visibility bound.
    pub fn scan_window_seq(
        &self,
        key: Key,
        window: Window,
        mut f: impl FnMut(&Tuple, u64),
    ) -> usize {
        let lo = (window.start, 0u64);
        let hi = (window.end, u64::MAX);
        self.keys
            .get_with(&key, |series| {
                series.for_each_range(&lo, &hi, |k, tuple| f(tuple, k.1))
            })
            .unwrap_or(0)
    }

    /// Visits every stored tuple of `key` with `lo ≤ ts ≤ hi` — the
    /// incremental join uses this to scan only the delta between two
    /// overlapping windows.
    pub fn scan_ts_range(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        mut f: impl FnMut(&Tuple),
    ) -> usize {
        self.scan_ts_range_addr(key, lo, hi, |t, _| f(t))
    }

    /// [`scan_ts_range`](Self::scan_ts_range) with node addresses for cache
    /// simulation.
    pub fn scan_ts_range_addr(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        mut f: impl FnMut(&Tuple, usize),
    ) -> usize {
        if hi < lo {
            return 0;
        }
        self.scan_window_addr(key, Window { start: lo, end: hi }, &mut f)
    }

    /// Number of live tuples stored under `key` (approximate under writes).
    pub fn key_len(&self, key: Key) -> usize {
        self.keys.get_with(&key, |series| series.len()).unwrap_or(0)
    }

    /// Number of distinct keys (approximate under writes).
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oij_common::Duration;

    fn tup(ts: i64, key: Key, value: f64) -> Tuple {
        Tuple::new(Timestamp::from_micros(ts), key, value)
    }

    fn win(lo: i64, hi: i64) -> Window {
        Window {
            start: Timestamp::from_micros(lo),
            end: Timestamp::from_micros(hi),
        }
    }

    #[test]
    fn scan_window_filters_key_and_time() {
        let (mut w, r) = TimeTravelIndex::new();
        w.insert(tup(10, 1, 1.0));
        w.insert(tup(20, 1, 2.0));
        w.insert(tup(30, 1, 3.0));
        w.insert(tup(20, 2, 99.0)); // other key
        let mut vals = Vec::new();
        let n = r.scan_window(1, win(15, 30), |t| vals.push(t.value));
        assert_eq!(vals, vec![2.0, 3.0]);
        assert_eq!(n, 2);
        // Unknown key
        assert_eq!(r.scan_window(7, win(0, 100), |_| panic!()), 0);
    }

    #[test]
    fn duplicate_timestamps_are_all_kept() {
        let (mut w, r) = TimeTravelIndex::new();
        for i in 0..5 {
            w.insert(tup(42, 9, i as f64));
        }
        let mut sum = 0.0;
        assert_eq!(r.scan_window(9, win(42, 42), |t| sum += t.value), 5);
        assert_eq!(sum, 0.0 + 1.0 + 2.0 + 3.0 + 4.0);
    }

    #[test]
    fn out_of_order_inserts_scan_in_ts_order() {
        let (mut w, r) = TimeTravelIndex::new();
        for ts in [50, 10, 40, 20, 30] {
            w.insert(tup(ts, 1, ts as f64));
        }
        let mut seen = Vec::new();
        r.scan_window(1, win(0, 100), |t| seen.push(t.ts.as_micros()));
        assert_eq!(seen, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn evict_below_prunes_every_key() {
        let (mut w, r) = TimeTravelIndex::new();
        for key in 0..4u64 {
            for ts in 0..10 {
                w.insert(tup(ts * 10, key, 1.0));
            }
        }
        assert_eq!(w.len(), 40);
        let evicted = w.evict_below(Timestamp::from_micros(50));
        assert_eq!(evicted, 4 * 5);
        assert_eq!(w.len(), 20);
        for key in 0..4u64 {
            assert_eq!(r.key_len(key), 5);
            assert_eq!(r.scan_window(key, win(0, 49), |_| panic!()), 0);
            assert_eq!(r.scan_window(key, win(0, 1000), |_| ()), 5);
        }
    }

    #[test]
    fn ts_range_scan_for_incremental_deltas() {
        let (mut w, r) = TimeTravelIndex::new();
        for ts in 0..20 {
            w.insert(tup(ts, 3, ts as f64));
        }
        // Delta (b, b'] with exclusive-then-inclusive semantics is expressed
        // by callers as [b+1, b'].
        let mut sum = 0.0;
        let n = r.scan_ts_range(
            3,
            Timestamp::from_micros(11),
            Timestamp::from_micros(14),
            |t| sum += t.value,
        );
        assert_eq!(n, 4);
        assert_eq!(sum, 11.0 + 12.0 + 13.0 + 14.0);
        // Inverted range empty
        assert_eq!(
            r.scan_ts_range(
                3,
                Timestamp::from_micros(5),
                Timestamp::from_micros(4),
                |_| panic!()
            ),
            0
        );
    }

    #[test]
    fn window_spec_integration() {
        use oij_common::WindowSpec;
        let (mut w, r) = TimeTravelIndex::new();
        for ts in [980, 990, 1000, 1010, 1020] {
            w.insert(tup(ts, 1, 1.0));
        }
        let spec = WindowSpec::new(
            Duration::from_micros(20),
            Duration::from_micros(10),
            Duration::ZERO,
        )
        .unwrap();
        // Base tuple at ts=1000 → window [980, 1010]
        let n = r.scan_window(1, spec.window_of(Timestamp::from_micros(1000)), |_| ());
        assert_eq!(n, 4);
    }

    #[test]
    fn node_footprint_is_plausible() {
        let f = IndexWriter::node_footprint();
        // key (16) + Tuple + tower — sane bounds, used by the cache sim.
        assert!(f > 32, "{f}");
        assert!(f < 512, "{f}");
    }

    #[test]
    fn concurrent_team_readers() {
        use std::sync::atomic::{AtomicBool, Ordering as O};
        use std::sync::Arc;
        let (mut w, r) = TimeTravelIndex::new();
        let stop = Arc::new(AtomicBool::new(false));
        let team: Vec<_> = (0..3)
            .map(|_| {
                let r = r.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(O::Relaxed) {
                        for key in 0..8u64 {
                            let mut last = i64::MIN;
                            r.scan_window(key, win(0, i64::MAX / 2), |t| {
                                assert!(t.ts.as_micros() >= last, "unordered scan");
                                last = t.ts.as_micros();
                                assert_eq!(t.key, key);
                            });
                        }
                    }
                })
            })
            .collect();

        // Miri runs threads but executes ~100× slower; a shorter run still
        // exercises the same insert/evict/scan interleavings.
        const ROUNDS: i64 = if cfg!(miri) { 20 } else { 200 };
        for round in 0i64..ROUNDS {
            for key in 0..8u64 {
                w.insert(tup(round * 100 + key as i64, key, 1.0));
            }
            if round % 10 == 9 {
                w.evict_below(Timestamp::from_micros((round - 5) * 100));
            }
        }
        stop.store(true, O::Relaxed);
        for h in team {
            h.join().unwrap();
        }
    }
}
