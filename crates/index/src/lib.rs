//! # oij-index — pluggable SWMR index backends for the join engines
//!
//! The paper's double-layer time-travel skip list
//! ([`oij_skiplist::TimeTravelIndex`]) is the heart of every engine, but
//! it is one point in a design space. This crate extracts its contract
//! into the [`OijIndexWriter`] / [`OijIndexReader`] trait pair and races
//! three implementations behind a runtime [`IndexBackend`] selection:
//!
//! * **[`IndexBackend::SkipList`]** — the reference: a 1:1 delegation to
//!   `TimeTravelIndex`, bit-for-bit the behavior the engines shipped
//!   with.
//! * **[`IndexBackend::JiffyLite`]** ([`jiffy`]) — a Jiffy-style design
//!   (PAPERS.md): the writer appends tuples to immutable sorted *runs*
//!   and publishes whole `Msg::Batch` runs with a single lock-free
//!   pointer swap; readers take an O(1) snapshot and merge the runs.
//! * **[`IndexBackend::HintLite`]** ([`hint`]) — a HINT-style design
//!   (PAPERS.md): per-key hierarchical time buckets with a coarse
//!   summary level, so a window probe descends straight to the buckets
//!   that overlap the window.
//!
//! ## The SWMR contract every backend must uphold
//!
//! Exactly **one** thread mutates an index through its writer handle;
//! any number of threads read concurrently through cloneable reader
//! handles. Beyond memory safety, the engines rely on two behavioral
//! invariants (enforced by `tests/index_equivalence.rs` and the
//! differential proptest suite in this crate):
//!
//! 1. **Scan order** — every scan visits tuples in `(ts, seq)` order,
//!    where `seq` is the per-index dense insertion sequence number.
//!    Because all backends assign `seq` identically (increment per
//!    insert, in writer order), scans are bit-identical across
//!    backends for the same insert history.
//! 2. **Eviction bound** — `evict_below(bound)` evicts exactly the
//!    tuples with `ts < bound` and nothing newer; the engines derive
//!    `bound` from the watermark so it never exceeds the durability
//!    retention bound (DESIGN.md §11), which recovery replay depends
//!    on.
//!
//! An insert (or a whole `insert_batch` run) is visible to every reader
//! once the call returns; the engines announce it to teammates through
//! their progress frontiers only after that.
//!
//! ## Adding a backend
//!
//! Implement [`OijIndexWriter`] + [`OijIndexReader`] for a new pair of
//! handle types, add an [`IndexBackend`] variant with arms in
//! [`BackendWriter`]/[`BackendReader`], and the backend-differential
//! suites (`tests/index_equivalence.rs`, `tests/differential.rs` here,
//! the `tests/property_equivalence.rs` backend axis) plus the
//! bench-smoke per-backend rows pick it up from `IndexBackend::ALL`.

#![warn(missing_docs)]

pub mod hint;
pub mod jiffy;

use oij_common::{Key, Timestamp, Tuple, Window};
use oij_skiplist::{IndexReader as SkipReader, IndexWriter as SkipWriter, TimeTravelIndex};

pub use hint::{HintIndex, HintReader, HintWriter};
pub use jiffy::{JiffyIndex, JiffyReader, JiffyWriter};

/// The backend selection engines carry in their configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexBackend {
    /// The double-layer time-travel skip list (`TimeTravelIndex`) — the
    /// reference backend and the default.
    #[default]
    SkipList,
    /// Jiffy-style immutable sorted runs with whole-batch publication.
    JiffyLite,
    /// HINT-style hierarchical time buckets for the window-probe path.
    HintLite,
}

impl IndexBackend {
    /// Every backend, reference first — the differential suites iterate
    /// this so a new backend gets coverage for free.
    pub const ALL: [IndexBackend; 3] = [
        IndexBackend::SkipList,
        IndexBackend::JiffyLite,
        IndexBackend::HintLite,
    ];

    /// Stable label used in bench reports, CI matrix legs, and the
    /// `OIJ_INDEX_BACKEND` test filter.
    pub fn label(self) -> &'static str {
        match self {
            IndexBackend::SkipList => "skiplist",
            IndexBackend::JiffyLite => "jiffy-lite",
            IndexBackend::HintLite => "hint-lite",
        }
    }

    /// Parses a [`label`](Self::label) (case-insensitive; `_` and `-`
    /// interchangeable).
    pub fn from_label(s: &str) -> Option<IndexBackend> {
        let norm = s.trim().to_ascii_lowercase().replace('_', "-");
        IndexBackend::ALL.into_iter().find(|b| b.label() == norm)
    }

    /// Builds an empty index of this backend with the backend's default
    /// seed, returning the unique writer and an initial reader.
    pub fn build(self) -> (BackendWriter, BackendReader) {
        match self {
            IndexBackend::SkipList => {
                let (w, r) = TimeTravelIndex::new();
                (BackendWriter::SkipList(w), BackendReader::SkipList(r))
            }
            IndexBackend::JiffyLite => {
                let (w, r) = JiffyIndex::new();
                (BackendWriter::Jiffy(w), BackendReader::Jiffy(r))
            }
            IndexBackend::HintLite => {
                let (w, r) = HintIndex::new();
                (BackendWriter::Hint(w), BackendReader::Hint(r))
            }
        }
    }

    /// Builds an empty index with a deterministic structural seed (tower
    /// heights for the skip list; forwarded so identical seeds give
    /// identical layouts run to run).
    pub fn build_with_seed(self, seed: u64) -> (BackendWriter, BackendReader) {
        match self {
            IndexBackend::SkipList => {
                let (w, r) = TimeTravelIndex::with_seed(seed);
                (BackendWriter::SkipList(w), BackendReader::SkipList(r))
            }
            IndexBackend::JiffyLite => {
                let (w, r) = JiffyIndex::with_seed(seed);
                (BackendWriter::Jiffy(w), BackendReader::Jiffy(r))
            }
            IndexBackend::HintLite => {
                let (w, r) = HintIndex::with_seed(seed);
                (BackendWriter::Hint(w), BackendReader::Hint(r))
            }
        }
    }
}

/// Writer half of the SWMR index contract (see the crate docs for the
/// invariants). Exactly one thread holds the writer; it is `Send` but
/// deliberately not `Sync`/`Clone`.
pub trait OijIndexWriter: Send {
    /// The reader type [`reader`](Self::reader) hands out.
    type Reader: OijIndexReader;

    /// Approximate in-memory footprint of one stored node, in bytes —
    /// what a window scan actually touches per tuple (drives the cache
    /// simulator with realistic access sizes).
    fn node_footprint(&self) -> usize;

    /// Inserts a tuple.
    fn insert(&mut self, tuple: Tuple);

    /// Like [`insert`](Self::insert), additionally reporting the new
    /// node's address for cache-traffic simulation.
    fn insert_traced(&mut self, tuple: Tuple) -> usize;

    /// Consumes a whole coalesced run of tuples in arrival order.
    /// Backends may defer *publication* to one atomic swap at the end of
    /// the run — so callers must not read the index (nor advance any
    /// frontier announcing these tuples) between the call and its
    /// return. Sequence numbers are identical to inserting the run one
    /// tuple at a time.
    ///
    /// The `bool` beside each tuple is ignored; the pair stays because
    /// the benchmark crate (`benchmark/src/layers.rs`) calls this
    /// signature.
    fn insert_batch(&mut self, run: Vec<(Tuple, bool)>) {
        for (tuple, _) in run {
            self.insert(tuple);
        }
    }

    /// Expires every tuple with `ts < bound` across all keys, returning
    /// the number evicted.
    fn evict_below(&mut self, bound: Timestamp) -> usize;

    /// A reader handle sharing this index.
    fn reader(&self) -> Self::Reader;

    /// Total live tuples.
    fn len(&self) -> usize;

    /// Whether the index holds no tuples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct keys ever inserted.
    fn key_count(&self) -> usize;
}

/// Reader half of the SWMR index contract: cloneable, shareable across
/// the virtual team, safe under concurrent writes.
pub trait OijIndexReader: Clone + Send + Sync {
    /// Visits every stored tuple of `key` inside `window` (inclusive
    /// bounds) in `(ts, seq)` order, passing a stable node address for
    /// cache simulation. Returns the number visited.
    fn scan_window_addr(&self, key: Key, window: Window, f: impl FnMut(&Tuple, usize)) -> usize;

    /// Visits every stored tuple of `key` inside `window` in `(ts, seq)`
    /// order. Returns the number visited.
    fn scan_window(&self, key: Key, window: Window, mut f: impl FnMut(&Tuple)) -> usize {
        self.scan_window_addr(key, window, |t, _| f(t))
    }

    /// Visits every stored tuple of `key` inside `window` in `(ts, seq)`
    /// order, passing each tuple's dense per-index insertion sequence
    /// number (invariant 1 in the crate docs: all backends assign `seq`
    /// identically, in writer order). A caller that remembers the
    /// writer's insert count at some instant can filter on `seq < count`
    /// to recover exactly the insert prefix that preceded that instant —
    /// the serving runtime's shared-index visibility bound (DESIGN.md
    /// §13). Returns the number visited (before any caller-side filter).
    fn scan_window_seq(&self, key: Key, window: Window, f: impl FnMut(&Tuple, u64)) -> usize;

    /// Visits every stored tuple of `key` with `lo ≤ ts ≤ hi`; returns 0
    /// when `hi < lo`.
    fn scan_ts_range(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        mut f: impl FnMut(&Tuple),
    ) -> usize {
        self.scan_ts_range_addr(key, lo, hi, |t, _| f(t))
    }

    /// [`scan_ts_range`](Self::scan_ts_range) with node addresses for
    /// cache simulation.
    fn scan_ts_range_addr(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        f: impl FnMut(&Tuple, usize),
    ) -> usize;

    /// Number of live tuples stored under `key` (approximate under
    /// writes).
    fn key_len(&self, key: Key) -> usize;

    /// Number of distinct keys (approximate under writes).
    fn key_count(&self) -> usize;
}

// ---------------------------------------------------------------------
// Reference backend: 1:1 delegation to the time-travel skip list.
// ---------------------------------------------------------------------

impl OijIndexWriter for SkipWriter {
    type Reader = SkipReader;

    fn node_footprint(&self) -> usize {
        SkipWriter::node_footprint()
    }

    fn insert(&mut self, tuple: Tuple) {
        SkipWriter::insert(self, tuple);
    }

    fn insert_traced(&mut self, tuple: Tuple) -> usize {
        SkipWriter::insert_traced(self, tuple)
    }

    fn evict_below(&mut self, bound: Timestamp) -> usize {
        SkipWriter::evict_below(self, bound)
    }

    fn reader(&self) -> SkipReader {
        SkipWriter::reader(self)
    }

    fn len(&self) -> usize {
        SkipWriter::len(self)
    }

    fn key_count(&self) -> usize {
        SkipWriter::key_count(self)
    }
}

impl OijIndexReader for SkipReader {
    fn scan_window_addr(&self, key: Key, window: Window, f: impl FnMut(&Tuple, usize)) -> usize {
        SkipReader::scan_window_addr(self, key, window, f)
    }

    fn scan_window_seq(&self, key: Key, window: Window, f: impl FnMut(&Tuple, u64)) -> usize {
        SkipReader::scan_window_seq(self, key, window, f)
    }

    fn scan_ts_range_addr(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        f: impl FnMut(&Tuple, usize),
    ) -> usize {
        SkipReader::scan_ts_range_addr(self, key, lo, hi, f)
    }

    fn key_len(&self, key: Key) -> usize {
        SkipReader::key_len(self, key)
    }

    fn key_count(&self) -> usize {
        SkipReader::key_count(self)
    }
}

// ---------------------------------------------------------------------
// Runtime dispatch: the concrete pair engines hold.
// ---------------------------------------------------------------------

macro_rules! dispatch_writer {
    ($self:ident, $w:ident => $body:expr) => {
        match $self {
            BackendWriter::SkipList($w) => $body,
            BackendWriter::Jiffy($w) => $body,
            BackendWriter::Hint($w) => $body,
        }
    };
}

macro_rules! dispatch_reader {
    ($self:ident, $r:ident => $body:expr) => {
        match $self {
            BackendReader::SkipList($r) => $body,
            BackendReader::Jiffy($r) => $body,
            BackendReader::Hint($r) => $body,
        }
    };
}

/// Runtime-dispatched writer over the three backends. Built via
/// [`IndexBackend::build_with_seed`]; implements [`OijIndexWriter`] by
/// delegation, so engines stay backend-agnostic.
pub enum BackendWriter {
    /// Time-travel skip list (reference).
    SkipList(SkipWriter),
    /// Jiffy-lite sorted runs.
    Jiffy(JiffyWriter),
    /// HINT-lite bucket hierarchy.
    Hint(HintWriter),
}

impl BackendWriter {
    /// Which backend this writer is.
    pub fn backend(&self) -> IndexBackend {
        match self {
            BackendWriter::SkipList(_) => IndexBackend::SkipList,
            BackendWriter::Jiffy(_) => IndexBackend::JiffyLite,
            BackendWriter::Hint(_) => IndexBackend::HintLite,
        }
    }
}

impl OijIndexWriter for BackendWriter {
    type Reader = BackendReader;

    fn node_footprint(&self) -> usize {
        dispatch_writer!(self, w => w.node_footprint())
    }

    fn insert(&mut self, tuple: Tuple) {
        dispatch_writer!(self, w => OijIndexWriter::insert(w, tuple))
    }

    fn insert_traced(&mut self, tuple: Tuple) -> usize {
        dispatch_writer!(self, w => OijIndexWriter::insert_traced(w, tuple))
    }

    fn insert_batch(&mut self, run: Vec<(Tuple, bool)>) {
        dispatch_writer!(self, w => w.insert_batch(run))
    }

    fn evict_below(&mut self, bound: Timestamp) -> usize {
        dispatch_writer!(self, w => w.evict_below(bound))
    }

    fn reader(&self) -> BackendReader {
        match self {
            BackendWriter::SkipList(w) => BackendReader::SkipList(w.reader()),
            BackendWriter::Jiffy(w) => BackendReader::Jiffy(OijIndexWriter::reader(w)),
            BackendWriter::Hint(w) => BackendReader::Hint(OijIndexWriter::reader(w)),
        }
    }

    fn len(&self) -> usize {
        dispatch_writer!(self, w => OijIndexWriter::len(w))
    }

    fn key_count(&self) -> usize {
        dispatch_writer!(self, w => OijIndexWriter::key_count(w))
    }
}

/// Runtime-dispatched reader over the three backends.
pub enum BackendReader {
    /// Time-travel skip list (reference).
    SkipList(SkipReader),
    /// Jiffy-lite sorted runs.
    Jiffy(JiffyReader),
    /// HINT-lite bucket hierarchy.
    Hint(HintReader),
}

impl Clone for BackendReader {
    fn clone(&self) -> Self {
        match self {
            BackendReader::SkipList(r) => BackendReader::SkipList(r.clone()),
            BackendReader::Jiffy(r) => BackendReader::Jiffy(r.clone()),
            BackendReader::Hint(r) => BackendReader::Hint(r.clone()),
        }
    }
}

impl OijIndexReader for BackendReader {
    fn scan_window_addr(&self, key: Key, window: Window, f: impl FnMut(&Tuple, usize)) -> usize {
        dispatch_reader!(self, r => r.scan_window_addr(key, window, f))
    }

    fn scan_window_seq(&self, key: Key, window: Window, f: impl FnMut(&Tuple, u64)) -> usize {
        dispatch_reader!(self, r => r.scan_window_seq(key, window, f))
    }

    fn scan_ts_range_addr(
        &self,
        key: Key,
        lo: Timestamp,
        hi: Timestamp,
        f: impl FnMut(&Tuple, usize),
    ) -> usize {
        dispatch_reader!(self, r => r.scan_ts_range_addr(key, lo, hi, f))
    }

    fn key_len(&self, key: Key) -> usize {
        dispatch_reader!(self, r => r.key_len(key))
    }

    fn key_count(&self) -> usize {
        dispatch_reader!(self, r => r.key_count())
    }
}

// ---------------------------------------------------------------------
// Exclusive: mutable-only sharing for !Sync writers behind a lock.
// ---------------------------------------------------------------------

/// A cell that is `Sync` for any `Send` payload by refusing all shared
/// access to it (the `std::sync::Exclusive` pattern, reproduced here
/// because the workspace MSRV predates its stabilization being usable).
///
/// The OpenMLDB baseline keeps its shared store behind an `RwLock`; a
/// [`BackendWriter`] is deliberately `!Sync` (single writer), so the
/// lock alone cannot make it shareable. Wrapping it in `Exclusive`
/// restores `Sync` soundly: the only way to touch the payload is
/// [`get_mut`](Self::get_mut), which requires `&mut self` and therefore
/// the write lock — concurrent `&Exclusive` references can do nothing.
pub struct Exclusive<T> {
    inner: T,
}

// SAFETY: `Exclusive` exposes no `&self` access to `inner` — every path
// to the payload goes through `&mut self` (`get_mut`) or ownership
// (`into_inner`), so shared references across threads cannot touch `T`
// and `T: Send` suffices.
unsafe impl<T: Send> Sync for Exclusive<T> {}

impl<T> Exclusive<T> {
    /// Wraps a value.
    pub fn new(inner: T) -> Self {
        Exclusive { inner }
    }

    /// Mutable access — the only access. Requires exclusivity, which the
    /// caller proves by holding `&mut` (e.g. a write-lock guard).
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oij_common::Duration;

    fn t(key: Key, us: i64, v: f64) -> Tuple {
        Tuple::new(Timestamp::from_micros(us), key, v)
    }

    #[test]
    fn labels_round_trip() {
        for b in IndexBackend::ALL {
            assert_eq!(IndexBackend::from_label(b.label()), Some(b));
        }
        assert_eq!(
            IndexBackend::from_label("JIFFY_LITE"),
            Some(IndexBackend::JiffyLite)
        );
        assert_eq!(IndexBackend::from_label("nope"), None);
    }

    #[test]
    fn every_backend_scans_in_ts_seq_order() {
        for backend in IndexBackend::ALL {
            let (mut w, r) = backend.build_with_seed(0x9E37_79B9 | 1);
            w.insert(t(7, 30, 3.0));
            w.insert(t(7, 10, 1.0));
            w.insert(t(7, 30, 4.0)); // duplicate ts: seq breaks the tie
            w.insert(t(7, 20, 2.0));
            let mut seen = Vec::new();
            let visited = r.scan_window(
                7,
                Window {
                    start: Timestamp::from_micros(0),
                    end: Timestamp::from_micros(100),
                },
                |tp| seen.push((tp.ts.as_micros(), tp.value)),
            );
            assert_eq!(visited, 4, "{}", backend.label());
            assert_eq!(
                seen,
                vec![(10, 1.0), (20, 2.0), (30, 3.0), (30, 4.0)],
                "{}",
                backend.label()
            );
        }
    }

    #[test]
    fn every_backend_exposes_dense_insert_seq() {
        for backend in IndexBackend::ALL {
            let (mut w, r) = backend.build_with_seed(0xC0FFEE);
            // Interleave keys: seq is dense over the *index*, not per key.
            w.insert(t(1, 30, 3.0)); // seq 0
            w.insert(t(2, 5, 9.0)); // seq 1
            w.insert(t(1, 10, 1.0)); // seq 2
            w.insert(t(1, 30, 4.0)); // seq 3 (duplicate ts: seq breaks tie)
            let win = Window {
                start: Timestamp::from_micros(0),
                end: Timestamp::from_micros(100),
            };
            let mut seen = Vec::new();
            let visited = r.scan_window_seq(1, win, |tp, seq| {
                seen.push((tp.ts.as_micros(), seq, tp.value));
            });
            assert_eq!(visited, 3, "{}", backend.label());
            assert_eq!(
                seen,
                vec![(10, 2, 1.0), (30, 0, 3.0), (30, 3, 4.0)],
                "{}",
                backend.label()
            );
            // A prefix filter on seq reproduces the state after the
            // first two inserts exactly.
            let mut prefix = Vec::new();
            r.scan_window_seq(1, win, |tp, seq| {
                if seq < 2 {
                    prefix.push((tp.ts.as_micros(), tp.value));
                }
            });
            assert_eq!(prefix, vec![(30, 3.0)], "{}", backend.label());
            // Inverted windows visit nothing.
            let none = r.scan_window_seq(
                1,
                Window {
                    start: Timestamp::from_micros(10),
                    end: Timestamp::from_micros(5),
                },
                |_, _| panic!("inverted window must not visit"),
            );
            assert_eq!(none, 0, "{}", backend.label());
        }
    }

    #[test]
    fn every_backend_evicts_below_bound_exactly() {
        for backend in IndexBackend::ALL {
            let (mut w, r) = backend.build_with_seed(11);
            for us in [10, 20, 30, 40] {
                w.insert(t(5, us, us as f64));
            }
            let evicted = w.evict_below(Timestamp::from_micros(30));
            assert_eq!(evicted, 2, "{}", backend.label());
            assert_eq!(OijIndexWriter::len(&w), 2, "{}", backend.label());
            let mut left = Vec::new();
            r.scan_ts_range(5, Timestamp::MIN, Timestamp::MAX, |tp| {
                left.push(tp.ts.as_micros());
            });
            assert_eq!(left, vec![30, 40], "{}", backend.label());
        }
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        let run: Vec<(Tuple, bool)> = vec![
            (t(1, 10, 1.0), false),
            (t(2, 5, 2.0), true),
            (t(1, 8, 3.0), false),
            (t(1, 12, 4.0), false),
        ];
        for backend in IndexBackend::ALL {
            let (mut wa, ra) = backend.build_with_seed(77);
            let (mut wb, rb) = backend.build_with_seed(77);
            wa.insert_batch(run.clone());
            for (tuple, _) in run.clone() {
                wb.insert(tuple);
            }
            for key in [1u64, 2] {
                let collect = |r: &BackendReader| {
                    let mut v = Vec::new();
                    r.scan_ts_range(key, Timestamp::MIN, Timestamp::MAX, |tp| {
                        v.push((tp.ts.as_micros(), tp.value));
                    });
                    v
                };
                assert_eq!(collect(&ra), collect(&rb), "{} key {key}", backend.label());
            }
        }
    }

    #[test]
    fn window_spec_duration_smoke() {
        // Keep the oij-common dev-surface exercised from this crate too.
        let w = Window {
            start: Timestamp::from_micros(0),
            end: Timestamp::from_micros(10),
        };
        assert_eq!(w.length(), Duration(10));
    }
}
