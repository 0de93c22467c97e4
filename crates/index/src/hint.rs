//! HINT-lite backend: hierarchical time buckets for the probe path.
//!
//! Adapted from HINT's hierarchical main-memory interval index
//! (PAPERS.md) to the point-event, SWMR setting the engines run in.
//! Layer 1 reuses the paper's SWMR skip list to map
//! `key → Arc<HintShared>`; the per-key second layer partitions event
//! time into fixed-width leaf buckets of `2^BUCKET_SHIFT` µs (entries
//! inside a bucket sorted by `(ts, seq)`) and keeps one coarser summary
//! level grouping `2^GROUP_SHIFT` consecutive leaves. A window probe
//! descends the hierarchy: whole groups outside the probed bucket range
//! are skipped with one comparison, then only the leaf buckets that
//! overlap the window are visited, with the two boundary buckets
//! binary-searched. HINT proper stores intervals in logarithmically many
//! levels; with point data every tuple lives in exactly one leaf, so the
//! hierarchy degenerates to this two-level directory — documented
//! honestly in DESIGN.md.
//!
//! Snapshots are published through an [`RcuCell`] (one swap per insert,
//! or per touched key for a whole `insert_batch` run).

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

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

use oij_common::{Key, Timestamp, Tuple, Window};
use oij_skiplist::{RcuCell, Reader, SwmrSkipList, Writer};

use crate::{OijIndexReader, OijIndexWriter};

/// Second-layer key: event timestamp plus the per-index dense sequence
/// number (identical tie-break to every other backend).
type TsKey = (Timestamp, u64);
type Entry = (TsKey, Tuple);
type Bucket = Arc<Vec<Entry>>;

/// Leaf buckets cover `2^BUCKET_SHIFT` µs (≈ 4 ms).
const BUCKET_SHIFT: u32 = 12;
/// One summary group spans `2^GROUP_SHIFT` consecutive leaf buckets.
const GROUP_SHIFT: u32 = 3;

/// Leaf-bucket id of a timestamp (arithmetic shift = floor division, so
/// negative timestamps map consistently).
fn bucket_id(ts: Timestamp) -> i64 {
    ts.as_micros() >> BUCKET_SHIFT
}

/// One summary-level group: a contiguous slice of the leaf vector.
struct Group {
    gid: i64,
    /// Index range into `HintSnapshot::leaves`.
    start: usize,
    end: usize,
}

/// The published snapshot of one key's bucket hierarchy.
struct HintSnapshot {
    /// Leaf level, sorted by bucket id.
    leaves: Vec<(i64, Bucket)>,
    /// Summary level over `leaves`, sorted by group id.
    groups: Vec<Group>,
    live: usize,
}

/// Per-key state published through layer 1.
type HintShared = RcuCell<HintSnapshot>;

/// Factory for the HINT-lite index.
pub struct HintIndex;

impl HintIndex {
    /// Creates an empty index, returning the unique writer and an
    /// initial reader handle.
    #[allow(clippy::new_ret_no_self)] // factory type: handles ARE the API
    pub fn new() -> (HintWriter, HintReader) {
        Self::with_seed(0xC0FF_EE11_D00D_F00D)
    }

    /// Creates an empty index with a deterministic layer-1 height seed.
    pub fn with_seed(seed: u64) -> (HintWriter, HintReader) {
        let (kw, kr) = SwmrSkipList::with_seed::<Key, Arc<HintShared>>(seed);
        (
            HintWriter {
                keys: kw,
                series: HashMap::new(),
                next_seq: 0,
                len: 0,
            },
            HintReader { keys: kr },
        )
    }
}

/// Writer-private per-key state: mutable buckets (copy-on-write via
/// [`Arc::make_mut`] so published snapshots stay immutable) plus the
/// staging bookkeeping for deferred batch publication.
struct HintSeries {
    shared: Arc<HintShared>,
    buckets: BTreeMap<i64, Bucket>,
    live: usize,
    dirty: bool,
}

impl HintSeries {
    /// Inserts one entry into its leaf bucket, keeping the bucket
    /// sorted; does NOT publish.
    fn stage(&mut self, entry: Entry) {
        let id = bucket_id(entry.0 .0);
        let bucket = self.buckets.entry(id).or_default();
        let bucket = Arc::make_mut(bucket);
        let pos = bucket.partition_point(|e| e.0 <= entry.0);
        bucket.insert(pos, entry);
        self.live += 1;
        self.dirty = true;
    }

    /// Publishes the hierarchy with one swap.
    fn publish(&mut self) {
        if !self.dirty {
            return;
        }
        let leaves: Vec<(i64, Bucket)> = self
            .buckets
            .iter()
            .map(|(id, b)| (*id, Arc::clone(b)))
            .collect();
        let mut groups: Vec<Group> = Vec::new();
        for (idx, (id, _)) in leaves.iter().enumerate() {
            let gid = id >> GROUP_SHIFT;
            match groups.last_mut() {
                Some(g) if g.gid == gid => g.end = idx + 1,
                _ => groups.push(Group {
                    gid,
                    start: idx,
                    end: idx + 1,
                }),
            }
        }
        self.shared.replace(HintSnapshot {
            leaves,
            groups,
            live: self.live,
        });
        self.dirty = false;
    }
}

/// The unique mutating handle of the HINT-lite index.
pub struct HintWriter {
    /// Layer 1 (shared with readers).
    keys: Writer<Key, Arc<HintShared>>,
    series: HashMap<Key, HintSeries>,
    next_seq: u64,
    len: usize,
}

impl HintWriter {
    fn stage_inner(&mut self, tuple: Tuple) -> Key {
        let key = tuple.key;
        let ts = tuple.ts;
        let seq = self.next_seq;
        self.next_seq += 1;
        let state = self.series.entry(key).or_insert_with(|| {
            let shared = Arc::new(RcuCell::new(HintSnapshot {
                leaves: Vec::new(),
                groups: Vec::new(),
                live: 0,
            }));
            self.keys.insert(key, Arc::clone(&shared));
            HintSeries {
                shared,
                buckets: BTreeMap::new(),
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

impl OijIndexWriter for HintWriter {
    type Reader = HintReader;

    fn node_footprint(&self) -> usize {
        // One bucket entry: the (ts, seq) key plus the tuple; buckets
        // are contiguous vectors.
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
        self.series
            .get(&key)
            .and_then(|state| state.buckets.get(&bucket_id(ts)))
            .and_then(|bucket| bucket.iter().find(|e| e.0 == (ts, seq)))
            .map(|e| e as *const Entry as usize)
            .unwrap_or(0)
    }

    fn insert_batch(&mut self, run: Vec<(Tuple, bool)>) {
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
        let bound_bucket = bucket_id(bound);
        let limit: TsKey = (bound, 0u64);
        let mut total = 0usize;
        for state in self.series.values_mut() {
            let mut evicted = 0usize;
            // Whole leaves strictly below the boundary bucket go in one
            // O(1) drop each — the hierarchy's eviction advantage.
            let keep = state.buckets.split_off(&bound_bucket);
            for (_, bucket) in std::mem::replace(&mut state.buckets, keep) {
                evicted += bucket.len();
            }
            // The boundary bucket straddles the bound: filter in place —
            // but only when its minimum actually dips below the limit,
            // so a no-op eviction tick doesn't deep-copy the (snapshot-
            // shared) bucket via make_mut.
            if let Some(bucket) = state
                .buckets
                .get_mut(&bound_bucket)
                .filter(|b| b.first().is_some_and(|e| e.0 < limit))
            {
                let bucket = Arc::make_mut(bucket);
                let before = bucket.len();
                bucket.retain(|e| e.0 >= limit);
                evicted += before - bucket.len();
            }
            if evicted > 0 {
                state.live -= evicted;
                state.dirty = true;
                state.publish();
                total += evicted;
            }
        }
        self.len -= total;
        total
    }

    fn reader(&self) -> HintReader {
        HintReader {
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

/// A cloneable read handle over the HINT-lite index.
pub struct HintReader {
    keys: Reader<Key, Arc<HintShared>>,
}

impl Clone for HintReader {
    fn clone(&self) -> Self {
        HintReader {
            keys: self.keys.clone(),
        }
    }
}

impl HintReader {
    /// The shared scan body: visits every entry of `key` with
    /// `lo ≤ ts ≤ hi` in `(ts, seq)` order. Both public scan shapes
    /// (address-reporting and seq-reporting) project from the `Entry`
    /// this hands out.
    fn for_each_entry_in(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        mut f: impl FnMut(&Entry),
    ) -> usize {
        if hi < lo {
            return 0;
        }
        let (blo, bhi) = (bucket_id(lo), bucket_id(hi));
        let (glo, ghi) = (blo >> GROUP_SHIFT, bhi >> GROUP_SHIFT);
        let lo_key: TsKey = (lo, 0u64);
        let hi_key: TsKey = (hi, u64::MAX);
        self.keys
            .get_with(&key, |shared| {
                let snap = shared.load();
                let mut visited = 0usize;
                // Descend: prune whole summary groups, then walk only
                // the overlapping leaves.
                for group in &snap.groups {
                    if group.gid < glo {
                        continue;
                    }
                    if group.gid > ghi {
                        break;
                    }
                    for (id, bucket) in snap.leaves.get(group.start..group.end).unwrap_or(&[]) {
                        if *id < blo {
                            continue;
                        }
                        if *id > bhi {
                            break;
                        }
                        // Interior buckets are fully covered; boundary
                        // buckets get binary-searched bounds.
                        let start = if *id == blo {
                            bucket.partition_point(|e| e.0 < lo_key)
                        } else {
                            0
                        };
                        for e in bucket.get(start..).unwrap_or(&[]) {
                            if e.0 > hi_key {
                                break;
                            }
                            f(e);
                            visited += 1;
                        }
                    }
                }
                visited
            })
            .unwrap_or(0)
    }
}

impl OijIndexReader for HintReader {
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
        self.for_each_entry_in(key, lo, hi, |e| f(&e.1, e as *const Entry as usize))
    }

    fn scan_window_seq(&self, key: Key, window: Window, mut f: impl FnMut(&Tuple, u64)) -> usize {
        self.for_each_entry_in(key, window.start, window.end, |e| f(&e.1, e.0 .1))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn t(key: Key, us: i64, v: f64) -> Tuple {
        Tuple::new(Timestamp::from_micros(us), key, v)
    }

    #[test]
    fn probe_touches_only_overlapping_buckets() {
        let (mut w, r) = HintIndex::with_seed(7);
        let width = 1i64 << BUCKET_SHIFT;
        // Spread tuples over many buckets (and several summary groups).
        for i in 0..64i64 {
            w.insert(t(1, i * width, i as f64));
        }
        let mut seen = Vec::new();
        r.scan_ts_range(
            1,
            Timestamp::from_micros(10 * width),
            Timestamp::from_micros(12 * width),
            |tp| seen.push(tp.value as i64),
        );
        assert_eq!(seen, vec![10, 11, 12]);
    }

    #[test]
    fn boundary_buckets_are_filtered_exactly() {
        let (mut w, r) = HintIndex::with_seed(17);
        for us in [5, 10, 15, 20, 25] {
            w.insert(t(2, us, us as f64));
        }
        let mut seen = Vec::new();
        r.scan_ts_range(
            2,
            Timestamp::from_micros(10),
            Timestamp::from_micros(20),
            |tp| seen.push(tp.ts.as_micros()),
        );
        assert_eq!(seen, vec![10, 15, 20]);
    }

    #[test]
    fn eviction_drops_whole_buckets_and_filters_the_boundary() {
        let (mut w, r) = HintIndex::with_seed(23);
        let width = 1i64 << BUCKET_SHIFT;
        for i in 0..10i64 {
            for j in 0..4i64 {
                w.insert(t(3, i * width + j, 0.0));
            }
        }
        // Bound inside bucket 5: buckets 0–4 dropped whole, bucket 5
        // filtered (entries at offsets 0,1 evicted; 2,3 kept).
        let evicted = w.evict_below(Timestamp::from_micros(5 * width + 2));
        assert_eq!(evicted, 5 * 4 + 2);
        assert_eq!(r.key_len(3), 40 - 22);
        let mut first = None;
        r.scan_ts_range(3, Timestamp::MIN, Timestamp::MAX, |tp| {
            first.get_or_insert(tp.ts.as_micros());
        });
        assert_eq!(first, Some(5 * width + 2));
    }

    #[test]
    fn negative_timestamps_bucket_consistently() {
        let (mut w, r) = HintIndex::with_seed(29);
        for us in [-5000, -100, 0, 100, 5000] {
            w.insert(t(4, us, us as f64));
        }
        let mut seen = Vec::new();
        r.scan_ts_range(
            4,
            Timestamp::from_micros(-200),
            Timestamp::from_micros(200),
            |tp| seen.push(tp.ts.as_micros()),
        );
        assert_eq!(seen, vec![-100, 0, 100]);
    }
}
