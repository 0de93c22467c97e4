//! The double-layer *time-travel* index (paper §V-A, Figure 10).
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

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_methods,
    reason = "hot path: readers and the joiner loop never unwind or block (DESIGN.md §8)"
)]

use std::collections::HashMap;

use oij_common::{Key, Timestamp, Tuple, Window};

use crate::swmr::{evict_all_below, expected_node_bytes, Reader, SwmrSkipList, Writer};

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
    /// Expected in-memory footprint of one second-layer node, in bytes —
    /// what a window scan actually touches per tuple (used to drive the
    /// cache simulator with realistic access sizes): the `(ts, seq)` key,
    /// the tuple and the expected 1⅓ tower slots the list allocates.
    pub fn node_footprint() -> usize {
        expected_node_bytes::<TsKey, Tuple>()
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
        #[expect(
            clippy::expect_used,
            reason = "duplicate (ts, seq) is impossible: `seq` increments per insert, so \
                      `insert_traced` cannot observe an equal key"
        )]
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
        let evicted = evict_all_below(self.series.values_mut(), &(bound, 0u64));
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
        // The node the list allocates: key (16) + Tuple + the height byte,
        // padded to pointer alignment, then between one and two tower
        // slots on average (1⅓ expected), not a full MAX_HEIGHT tower.
        let slot = std::mem::size_of::<usize>();
        let header = (std::mem::size_of::<TsKey>() + std::mem::size_of::<Tuple>() + 1)
            .next_multiple_of(slot);
        assert!(f > header + slot, "{f}");
        assert!(f < header + 2 * slot, "{f}");
    }

    use crate::swmr::tests::{drops_after_flush, Canary};

    type CanaryLists = Vec<(Writer<TsKey, Canary>, Reader<TsKey, Canary>)>;

    fn canary_lists(keys: u64) -> CanaryLists {
        (0..keys)
            .map(|k| SwmrSkipList::with_seed::<TsKey, Canary>(k.wrapping_mul(0x9E37) | 1))
            .collect()
    }

    #[test]
    fn drop_sweep_frees_every_series_prefix_once() {
        use std::sync::atomic::{AtomicUsize, Ordering as O};
        const KEYS: u64 = 64;
        const PER_KEY: i64 = if cfg!(miri) { 8 } else { 40 };
        let drops = std::sync::Arc::new(AtomicUsize::new(0));
        let mut lists = canary_lists(KEYS);
        for (k, (w, _)) in lists.iter_mut().enumerate() {
            for ts in 0..PER_KEY {
                // Interleaved timestamps per key, as a shared stream has.
                let key = (Timestamp::from_micros(ts * 100 + k as i64), 0);
                assert!(w.insert(key, Canary::new(ts as u64, &drops)));
            }
        }
        let bound = (Timestamp::from_micros(PER_KEY / 2 * 100 + 31), 0);
        let evicted = evict_all_below(lists.iter_mut().map(|(w, _)| w), &bound);
        // Every key loses its first PER_KEY/2 entries; keys k < 31 also
        // lose the next one, at PER_KEY/2 * 100 + k < bound.
        let per_key_below = |k: i64| PER_KEY / 2 + i64::from(k < 31);
        let expected: i64 = (0..KEYS as i64).map(per_key_below).sum();
        assert_eq!(evicted as i64, expected);
        assert_eq!(
            drops_after_flush(&drops, evicted),
            evicted,
            "sweep freed the wrong nodes"
        );
        for (k, (w, r)) in lists.iter().enumerate() {
            let mut last = None;
            let visited = r.for_each(|key, c| {
                c.check();
                assert!(*key >= bound, "evicted entry survived");
                assert!(last.is_none_or(|l| *key > l), "survivors out of order");
                last = Some(*key);
            });
            assert_eq!(visited as i64, PER_KEY - per_key_below(k as i64));
            assert_eq!(w.len(), visited);
        }
        // Nothing expired: no chain, no deferral, nothing dropped.
        assert_eq!(evict_all_below(lists.iter_mut().map(|(w, _)| w), &bound), 0);
        drop(lists);
        assert_eq!(drops.load(O::SeqCst), (KEYS as i64 * PER_KEY) as usize);
    }

    #[test]
    fn drop_sweep_under_concurrent_scans_never_frees_early() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as O};
        use std::sync::Arc;
        const KEYS: u64 = 8;
        const ROUNDS: i64 = if cfg!(miri) { 20 } else { 300 };
        let drops = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (mut writers, readers): (Vec<_>, Vec<_>) = canary_lists(KEYS).into_iter().unzip();
        let scanners: Vec<_> = (0..2)
            .map(|_| {
                let readers = readers.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut scans = 0u64;
                    while !stop.load(O::Relaxed) {
                        for r in &readers {
                            let mut last = None;
                            r.for_each(|key, c| {
                                c.check();
                                assert!(last.is_none_or(|l| *key > l), "unordered scan");
                                last = Some(*key);
                            });
                        }
                        scans += 1;
                    }
                    scans
                })
            })
            .collect();

        let mut evicted = 0usize;
        for round in 0..ROUNDS {
            for (k, w) in writers.iter_mut().enumerate() {
                for i in 0..4 {
                    let key = (Timestamp::from_micros(round * 100 + i * 10 + k as i64), 0);
                    w.insert(key, Canary::new(round as u64, &drops));
                }
            }
            let bound = (Timestamp::from_micros((round - 3) * 100), 0);
            evicted += evict_all_below(writers.iter_mut(), &bound);
        }
        stop.store(true, O::Relaxed);
        for h in scanners {
            assert!(h.join().unwrap() > 0, "reader never completed a scan");
        }
        assert_eq!(drops_after_flush(&drops, evicted), evicted);
        let live: usize = writers.iter().map(|w| w.len()).sum();
        assert_eq!(live + evicted, (KEYS as i64 * ROUNDS * 4) as usize);
        drop(writers);
        drop(readers);
        assert_eq!(drops.load(O::SeqCst), (KEYS as i64 * ROUNDS * 4) as usize);
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
