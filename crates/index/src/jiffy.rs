//! Jiffy-lite backend: immutable sorted runs with whole-batch publication.
//!
//! Adapted from Jiffy's batched lock-free skip list (PAPERS.md) to the
//! SWMR setting the engines run in. Layer 1 reuses the paper's SWMR skip
//! list to map `key → Arc<JiffyShared>`; the per-key second layer is
//! **not** a linked structure at all but a set of immutable sorted
//! *runs* (each sorted by `(ts, seq)`), published atomically through an
//! [`RcuCell`]. The writer appends into a copy-on-write tail run and
//! seals it at [`RUN_SEAL`] entries; `insert_batch` consumes a whole
//! coalesced `Msg::Batch` run and performs **one** publication per
//! touched key — the Jiffy batching idea. Readers pay O(1) for a
//! snapshot (`RcuCell::load`) and then a k-way merge over the few runs
//! that overlap the probe window.
//!
//! Eviction compacts: survivors of `evict_below` are merged into a
//! single fresh run, so run count stays proportional to the live window
//! rather than the stream length.

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
use std::sync::Arc;

use oij_common::{Key, Timestamp, Tuple, Window};
use oij_skiplist::{RcuCell, Reader, SwmrSkipList, Writer};

use crate::{OijIndex, OijIndexReader, OijIndexWriter};

/// Second-layer key: event timestamp plus the per-index dense sequence
/// number, so tuples with identical timestamps coexist and every scan
/// has one deterministic order.
type TsKey = (Timestamp, u64);
type Entry = (TsKey, Tuple);
type Run = Arc<Vec<Entry>>;

/// A tail run is sealed (made immutable forever) once it reaches this
/// many entries; appends then open a fresh tail. Bounds the
/// copy-on-write cost of a single-tuple publication.
const RUN_SEAL: usize = 32;

/// The published snapshot of one key's series.
struct RunSet {
    runs: Vec<Run>,
    live: usize,
}

/// Per-key state published through layer 1.
type JiffyShared = RcuCell<RunSet>;

/// Factory for the Jiffy-lite index.
pub struct JiffyIndex;

impl JiffyIndex {
    /// Creates an empty index, returning the unique writer and an
    /// initial reader handle.
    #[allow(clippy::new_ret_no_self)] // factory type: handles ARE the API
    pub fn new() -> (JiffyWriter, JiffyReader) {
        Self::with_seed(0xC0FF_EE11_D00D_F00D)
    }

    /// Creates an empty index with a deterministic layer-1 height seed.
    pub fn with_seed(seed: u64) -> (JiffyWriter, JiffyReader) {
        <Self as OijIndex>::with_seed(seed)
    }
}

impl OijIndex for JiffyIndex {
    type Writer = JiffyWriter;
    type Reader = JiffyReader;

    fn with_seed(seed: u64) -> (JiffyWriter, JiffyReader) {
        let (kw, kr) = SwmrSkipList::with_seed::<Key, Arc<JiffyShared>>(seed);
        (
            JiffyWriter {
                keys: kw,
                series: HashMap::new(),
                next_seq: 0,
                len: 0,
            },
            JiffyReader { keys: kr },
        )
    }
}

/// Writer-private per-key state: the mirror of the published run set
/// (tail mutated copy-on-write via [`Arc::make_mut`]) plus the staging
/// bookkeeping `insert_batch` uses to defer publication.
struct JiffySeries {
    shared: Arc<JiffyShared>,
    runs: Vec<Run>,
    live: usize,
    /// Whether `runs` moved since the last publication.
    dirty: bool,
}

impl JiffySeries {
    /// Appends one entry into the (copy-on-write) tail run, keeping the
    /// run sorted; does NOT publish.
    fn stage(&mut self, entry: Entry) {
        match self.runs.last_mut().filter(|r| r.len() < RUN_SEAL) {
            Some(tail) => {
                let tail = Arc::make_mut(tail);
                let pos = tail.partition_point(|e| e.0 <= entry.0);
                tail.insert(pos, entry);
            }
            None => self.runs.push(Arc::new(vec![entry])),
        }
        self.live += 1;
        self.dirty = true;
    }

    /// Publishes the staged run set with one swap.
    fn publish(&mut self) {
        if !self.dirty {
            return;
        }
        self.shared.replace(RunSet {
            runs: self.runs.clone(),
            live: self.live,
        });
        self.dirty = false;
    }
}

/// The unique mutating handle of the Jiffy-lite index.
pub struct JiffyWriter {
    /// Layer 1 (shared with readers).
    keys: Writer<Key, Arc<JiffyShared>>,
    series: HashMap<Key, JiffySeries>,
    next_seq: u64,
    len: usize,
}

impl JiffyWriter {
    /// Stages one tuple into its series (creating it on first sight) and
    /// returns its key. Publication is the caller's responsibility.
    fn stage_inner(&mut self, tuple: Tuple) -> Key {
        let key = tuple.key;
        let ts = tuple.ts;
        let seq = self.next_seq;
        self.next_seq += 1;
        let state = self.series.entry(key).or_insert_with(|| {
            let shared = Arc::new(RcuCell::new(RunSet {
                runs: Vec::new(),
                live: 0,
            }));
            // Publish the shared state through layer 1 so readers can
            // find the series.
            self.keys.insert(key, Arc::clone(&shared));
            JiffySeries {
                shared,
                runs: Vec::new(),
                live: 0,
                dirty: false,
            }
        });
        state.stage(((ts, seq), tuple));
        self.len += 1;
        key
    }

    fn publish_key(&mut self, key: Key) {
        if let Some(state) = self.series.get_mut(&key) {
            state.publish();
        }
    }
}

impl OijIndexWriter for JiffyWriter {
    type Reader = JiffyReader;

    fn node_footprint(&self) -> usize {
        // One run entry: the (ts, seq) key plus the tuple. No tower —
        // runs are contiguous, which is exactly the backend's pitch to
        // the cache simulator.
        std::mem::size_of::<Entry>()
    }

    fn insert(&mut self, tuple: Tuple) {
        let key = self.stage_inner(tuple);
        self.publish_key(key);
    }

    fn insert_traced(&mut self, tuple: Tuple) -> usize {
        let ts = tuple.ts;
        let seq = self.next_seq;
        let key = self.stage_inner(tuple);
        self.publish_key(key);
        // Report the published entry's address for cache simulation. A
        // staged entry always lands in the tail (last) run.
        self.series
            .get(&key)
            .and_then(|state| state.runs.last())
            .and_then(|run| run.iter().find(|e| e.0 == (ts, seq)))
            .map(|e| e as *const Entry as usize)
            .unwrap_or(0)
    }

    fn insert_batch(&mut self, run: Vec<(Tuple, bool)>) {
        // The Jiffy move: stage the whole coalesced run, then ONE
        // publication per touched key. Sequence numbers are assigned in
        // arrival order, identical to one-at-a-time inserts.
        let mut touched: Vec<Key> = Vec::with_capacity(4);
        for (tuple, _) in run {
            let key = self.stage_inner(tuple);
            if !touched.contains(&key) {
                touched.push(key);
            }
        }
        for key in touched {
            self.publish_key(key);
        }
    }

    fn evict_below(&mut self, bound: Timestamp) -> usize {
        let limit: TsKey = (bound, 0u64);
        let mut total = 0usize;
        for state in self.series.values_mut() {
            // A run's first entry is its minimum; if no run dips below
            // the bound there is nothing to evict for this key.
            let needs = state
                .runs
                .iter()
                .any(|r| r.first().is_some_and(|e| e.0 < limit));
            if !needs {
                continue;
            }
            // Compact: merge the survivors into one fresh sorted run.
            let mut merged: Vec<Entry> = Vec::new();
            merge_in_range(
                &state.runs,
                limit,
                (Timestamp::MAX, u64::MAX),
                |e: &Entry| merged.push(e.clone()),
            );
            let evicted = state.live - merged.len();
            state.live = merged.len();
            state.runs = if merged.is_empty() {
                Vec::new()
            } else {
                vec![Arc::new(merged)]
            };
            state.dirty = true;
            state.publish();
            total += evicted;
        }
        self.len -= total;
        total
    }

    fn reader(&self) -> JiffyReader {
        JiffyReader {
            keys: self.keys.reader(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn key_count(&self) -> usize {
        self.series.len()
    }
}

/// A cloneable read handle over the Jiffy-lite index.
pub struct JiffyReader {
    keys: Reader<Key, Arc<JiffyShared>>,
}

impl Clone for JiffyReader {
    fn clone(&self) -> Self {
        JiffyReader {
            keys: self.keys.clone(),
        }
    }
}

impl OijIndexReader for JiffyReader {
    fn scan_window_addr(&self, key: Key, window: Window, f: impl FnMut(&Tuple, usize)) -> usize {
        self.scan_ts_range_addr(key, window.start, window.end, f)
    }

    fn scan_ts_range_addr(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        mut f: impl FnMut(&Tuple, usize),
    ) -> usize {
        if hi < lo {
            return 0;
        }
        self.keys
            .get_with(&key, |shared| {
                // O(1) snapshot; the Arc keeps every run alive for the
                // duration of the merge regardless of concurrent
                // publications.
                let snap = shared.load();
                merge_in_range(&snap.runs, (lo, 0u64), (hi, u64::MAX), |e: &Entry| {
                    f(&e.1, e as *const Entry as usize)
                })
            })
            .unwrap_or(0)
    }

    fn scan_window_seq(&self, key: Key, window: Window, mut f: impl FnMut(&Tuple, u64)) -> usize {
        if window.end < window.start {
            return 0;
        }
        self.keys
            .get_with(&key, |shared| {
                let snap = shared.load();
                merge_in_range(
                    &snap.runs,
                    (window.start, 0u64),
                    (window.end, u64::MAX),
                    |e: &Entry| f(&e.1, e.0 .1),
                )
            })
            .unwrap_or(0)
    }

    fn key_len(&self, key: Key) -> usize {
        self.keys
            .get_with(&key, |shared| shared.load().live)
            .unwrap_or(0)
    }

    fn key_count(&self) -> usize {
        self.keys.len()
    }
}

/// k-way merge over sorted runs, visiting every entry with
/// `lo ≤ entry.0 ≤ hi` in `(ts, seq)` order. Returns the number visited.
///
/// Runs whose span misses `[lo, hi]` never get a cursor, and cursors are
/// dropped the moment they run past `hi`: a windowed probe pays for the
/// few runs its window overlaps, not for the key's whole retained
/// history (between evictions a hot key accumulates many sealed runs,
/// and an all-runs peek loop per emitted entry turns scanning
/// quadratic).
fn merge_in_range(runs: &[Run], lo: TsKey, hi: TsKey, mut f: impl FnMut(&Entry)) -> usize {
    let mut cursors: Vec<std::iter::Peekable<std::slice::Iter<'_, Entry>>> = runs
        .iter()
        .filter(|r| {
            r.first().is_some_and(|first| first.0 <= hi) && r.last().is_some_and(|l| l.0 >= lo)
        })
        .map(|r| {
            let start = r.partition_point(|e| e.0 < lo);
            r.get(start..).unwrap_or(&[]).iter().peekable()
        })
        .collect();
    let mut visited = 0usize;
    loop {
        // Runs are sorted: a cursor past `hi` (or exhausted) is done.
        cursors.retain_mut(|c| matches!(c.peek(), Some(e) if e.0 <= hi));
        let mut best: Option<(usize, TsKey)> = None;
        for (i, c) in cursors.iter_mut().enumerate() {
            if let Some(e) = c.peek() {
                if best.is_none_or(|(_, k)| e.0 < k) {
                    best = Some((i, e.0));
                }
            }
        }
        let Some((i, _)) = best else { break };
        if let Some(e) = cursors.get_mut(i).and_then(|c| c.next()) {
            f(e);
            visited += 1;
        }
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(key: Key, us: i64, v: f64) -> Tuple {
        Tuple::new(Timestamp::from_micros(us), key, v)
    }

    #[test]
    fn runs_seal_and_scans_merge_across_them() {
        let (mut w, r) = JiffyIndex::with_seed(5);
        // Three sealed runs plus a tail, with late arrivals interleaved.
        for i in 0..(3 * RUN_SEAL as i64 + 7) {
            let us = if i % 5 == 0 { i } else { 10_000 + i };
            w.insert(t(1, us, i as f64));
        }
        let mut prev: Option<(i64, f64)> = None;
        let mut n = 0usize;
        r.scan_ts_range(1, Timestamp::MIN, Timestamp::MAX, |tp| {
            let cur = (tp.ts.as_micros(), tp.value);
            if let Some(p) = prev {
                assert!(p.0 <= cur.0, "scan left ts order: {p:?} then {cur:?}");
            }
            prev = Some(cur);
            n += 1;
        });
        assert_eq!(n, 3 * RUN_SEAL + 7);
    }

    #[test]
    fn batch_publishes_once_but_matches_sequential() {
        let (mut wa, ra) = JiffyIndex::with_seed(9);
        let (mut wb, rb) = JiffyIndex::with_seed(9);
        let run: Vec<(Tuple, bool)> = (0..40)
            .map(|i| (t(2, (40 - i) * 10, i as f64), false))
            .collect();
        wa.insert_batch(run.clone());
        for (tuple, _) in run {
            wb.insert(tuple);
        }
        let collect = |r: &JiffyReader| {
            let mut v = Vec::new();
            r.scan_ts_range(2, Timestamp::MIN, Timestamp::MAX, |tp| {
                v.push((tp.ts.as_micros(), tp.value));
            });
            v
        };
        assert_eq!(collect(&ra), collect(&rb));
    }

    #[test]
    fn eviction_compacts_to_a_single_run() {
        let (mut w, r) = JiffyIndex::with_seed(13);
        for i in 0..100i64 {
            w.insert(t(3, i, i as f64));
        }
        let evicted = w.evict_below(Timestamp::from_micros(90));
        assert_eq!(evicted, 90);
        assert_eq!(r.key_len(3), 10);
        let state = w.series.get(&3).unwrap();
        assert_eq!(state.runs.len(), 1);
        let mut seen = Vec::new();
        r.scan_window(
            3,
            Window {
                start: Timestamp::from_micros(0),
                end: Timestamp::from_micros(200),
            },
            |tp| seen.push(tp.ts.as_micros()),
        );
        assert_eq!(seen, (90..100).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_survives_concurrent_publication() {
        let (mut w, r) = JiffyIndex::with_seed(21);
        w.insert(t(4, 10, 1.0));
        let keys = r.keys.clone();
        let snap = keys.get_with(&4, |s| s.load()).unwrap();
        for i in 0..100i64 {
            w.insert(t(4, 20 + i, 2.0));
        }
        w.evict_below(Timestamp::from_micros(100));
        // The old snapshot still sees exactly the pre-publication state.
        assert_eq!(snap.live, 1);
        let mut n = 0;
        merge_in_range(
            &snap.runs,
            (Timestamp::MIN, 0),
            (Timestamp::MAX, u64::MAX),
            |_| n += 1,
        );
        assert_eq!(n, 1);
    }
}
