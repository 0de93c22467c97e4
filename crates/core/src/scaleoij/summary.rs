//! The per-joiner **window summary**: bucket partials beside the index.
//!
//! Next to its index writer every Scale-OIJ joiner keeps, per key, a fixed
//! ring of time-bucket cells `(bucket id, PartialAgg)`. The owner folds
//! each probe into its bucket's cell at insert; the whole virtual team
//! reads cells lock-free and answers a window range as `Σ whole-bucket
//! cells + two edge scans` instead of one node visit per tuple
//! (DESIGN.md §3.4). The summary is a pure accelerator: when a cell cannot
//! answer for the bucket asked — the ring has wrapped past it, a late
//! tuple's bucket was overwritten long ago, the read was torn by a
//! concurrent update — [`BucketRing::read`] says so and the caller scans
//! that bucket's range in the index instead. Correctness never depends on
//! the ring's size.
//!
//! Why a hit is exact: the owner folds **every** probe it stores, so a
//! cell whose id is `B` lacks a tuple of `B` only if that tuple arrived
//! while the slot held another id. Ids only grow per slot, so it was a
//! higher one then — and the slot can never return to `B`. What a cell
//! cannot see is eviction; callers therefore take cells only for buckets
//! that start at or above the team's retention bound.

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

use oij_agg::PartialAgg;
use oij_common::{Duration, Key, Tuple, WindowSpec};
use oij_skiplist::{Reader, SwmrSkipList, Writer};

use crate::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};

/// Buckets per lateness: the width is the largest power of two at or
/// below `lateness / 16`, so a lateness-long range is 16–32 cell reads.
const BUCKETS_PER_LATENESS: i64 = 16;

/// Narrowest bucket worth a cell, as a power of two of µs. A cell read
/// costs about one node visit, and at the event rates this repository
/// generates (≤ 1 tuple/µs) an 8 µs bucket holds a handful of tuples of
/// one key at best — so lateness under `16 × 8 µs` builds no summary.
const MIN_SHIFT: u32 = 3;

/// Longest ring, in cells (3 KiB per key and joiner). Enough for a window
/// about as long as the lateness plus that lateness; wider windows keep
/// their settled prefix in Subtract-on-Evict state and need cells only
/// for the unsettled suffix.
const MAX_CELLS: i64 = 64;

/// A slot that never held a bucket. No timestamp maps here: ids are
/// `ts >> shift` with `shift ≥ MIN_SHIFT`.
const VACANT: i64 = i64::MIN;

/// How often a reader re-reads a cell the owner is updating before it
/// gives the read up as torn.
const READ_ATTEMPTS: usize = 2;

/// Bucket width and ring length of a window summary — a pure function of
/// the query's window ([`for_window`](Self::for_window)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryShape {
    /// Bucket width is `1 << shift` µs.
    shift: u32,
    /// Cells per key; a power of two.
    cells: usize,
    /// Whether the ring spans `PRE + FOL + lateness`: every range a live
    /// window can ask for.
    spans_window: bool,
}

impl SummaryShape {
    /// The shape `window` calls for: `None` when its lateness is under
    /// `16` buckets of the narrowest width (nothing unsettled to speak
    /// of); otherwise the widest power-of-two bucket that still cuts the
    /// lateness into at least `16`, and a ring over `PRE + FOL + lateness`
    /// plus one partial bucket at each end, rounded up to a power of two
    /// and capped at 64 cells.
    pub fn for_window(window: &WindowSpec) -> Option<SummaryShape> {
        let per_bucket = window.lateness.as_micros() / BUCKETS_PER_LATENESS;
        if per_bucket < 1 << MIN_SHIFT {
            return None;
        }
        let shift = per_bucket.ilog2();
        let span = window.length().saturating_add(window.lateness);
        let need = (span.as_micros() >> shift).saturating_add(2);
        Some(SummaryShape {
            shift,
            cells: (need.min(MAX_CELLS) as usize).next_power_of_two(),
            spans_window: need <= MAX_CELLS,
        })
    }

    /// Bucket width.
    pub fn width(&self) -> Duration {
        Duration::from_micros(1 << self.shift)
    }

    /// Cells per key.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Whether cells alone (plus two edge scans) answer any live window of
    /// the query, so no settled prefix state is worth keeping.
    pub fn spans_window(&self) -> bool {
        self.spans_window
    }

    /// The bucket holding event time `ts` µs (floor, also below zero).
    #[inline]
    pub fn bucket_of(&self, ts: i64) -> i64 {
        ts >> self.shift
    }

    /// First event time of `bucket`.
    #[inline]
    pub fn start_of(&self, bucket: i64) -> i64 {
        bucket << self.shift
    }

    /// Last event time of `bucket`.
    #[inline]
    pub fn end_of(&self, bucket: i64) -> i64 {
        self.start_of(bucket) | ((1 << self.shift) - 1)
    }

    /// The buckets lying wholly inside `[lo, hi]`, as an inclusive id
    /// range (empty when `first > last`).
    #[inline]
    pub fn whole_buckets(&self, lo: i64, hi: i64) -> (i64, i64) {
        let (first, last) = (self.bucket_of(lo), self.bucket_of(hi));
        (
            first + i64::from(self.start_of(first) != lo),
            last - i64::from(self.end_of(last) != hi),
        )
    }
}

/// One bucket's partial behind a single-writer seqlock: `seq` is odd
/// while the owner rewrites the fields.
struct Cell {
    seq: AtomicU64,
    id: AtomicI64,
    sum: AtomicU64,
    count: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// One key's ring of bucket cells; bucket `b` lives in slot `b mod cells`.
/// Exactly one thread — the owning joiner — calls [`add`](Self::add); any
/// thread may [`read`](Self::read).
pub struct BucketRing {
    cells: Box<[Cell]>,
    mask: i64,
}

impl BucketRing {
    /// An empty ring of `cells` slots (a power of two).
    pub fn new(cells: usize) -> BucketRing {
        assert!(
            cells.is_power_of_two(),
            "ring length must be a power of two"
        );
        let empty = PartialAgg::empty();
        BucketRing {
            cells: (0..cells)
                .map(|_| Cell {
                    seq: AtomicU64::new(0),
                    id: AtomicI64::new(VACANT),
                    sum: AtomicU64::new(empty.sum.to_bits()),
                    count: AtomicU64::new(empty.count),
                    min: AtomicU64::new(empty.min.to_bits()),
                    max: AtomicU64::new(empty.max.to_bits()),
                })
                .collect(),
            mask: cells as i64 - 1,
        }
    }

    #[inline]
    fn cell(&self, bucket: i64) -> Option<&Cell> {
        self.cells.get((bucket & self.mask) as usize)
    }

    /// Owner only: folds `value` into `bucket`'s cell, recycling the slot
    /// when it holds an older bucket. A tuple for a bucket the slot has
    /// moved past stays index-only (its bucket reads as recycled).
    #[inline]
    pub fn add(&self, bucket: i64, value: f64) {
        let Some(cell) = self.cell(bucket) else {
            return; // the mask keeps every slot in range
        };
        // ORDERING: Relaxed — the owner is the only writer of every field, so its own loads see its own last stores.
        let held = cell.id.load(Ordering::Relaxed);
        if held > bucket {
            return;
        }
        let mut agg = PartialAgg::empty();
        if held == bucket {
            // ORDERING: Relaxed — owner re-reading its own stores (see above).
            agg.sum = f64::from_bits(cell.sum.load(Ordering::Relaxed));
            // ORDERING: Relaxed — owner re-reading its own stores.
            agg.count = cell.count.load(Ordering::Relaxed);
            // ORDERING: Relaxed — owner re-reading its own stores.
            agg.min = f64::from_bits(cell.min.load(Ordering::Relaxed));
            // ORDERING: Relaxed — owner re-reading its own stores.
            agg.max = f64::from_bits(cell.max.load(Ordering::Relaxed));
        }
        agg.add(value);
        // ORDERING: Relaxed — owner re-reading its own counter.
        let seq = cell.seq.load(Ordering::Relaxed);
        // ORDERING: Relaxed — made visible ahead of the field stores by the fence on the next line.
        cell.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        // ORDERING: Release fence — orders the odd count before the field stores below; pairs with the Acquire fence in `read`, so a reader that saw any new field re-reads a changed `seq`.
        fence(Ordering::Release);
        // ORDERING: Relaxed — field stores bracketed by the two `seq` stores; readers validate through `seq`.
        cell.id.store(bucket, Ordering::Relaxed);
        // ORDERING: Relaxed — bracketed by `seq` (see above).
        cell.sum.store(agg.sum.to_bits(), Ordering::Relaxed);
        // ORDERING: Relaxed — bracketed by `seq`.
        cell.count.store(agg.count, Ordering::Relaxed);
        // ORDERING: Relaxed — bracketed by `seq`.
        cell.min.store(agg.min.to_bits(), Ordering::Relaxed);
        // ORDERING: Relaxed — bracketed by `seq`.
        cell.max.store(agg.max.to_bits(), Ordering::Relaxed);
        // ORDERING: Release — publishes the fields with the even count; pairs with the Acquire `seq` load that opens `read`.
        cell.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// What the ring says about `bucket`. Never a torn mixture: a partial
    /// is returned only if `seq` was even and unchanged around the field
    /// loads.
    #[inline]
    pub fn read(&self, bucket: i64) -> CellRead {
        let Some(cell) = self.cell(bucket) else {
            return CellRead::Torn; // the mask keeps every slot in range
        };
        for _ in 0..READ_ATTEMPTS {
            // ORDERING: Acquire — pairs with the Release `seq` store closing `add`: an even count implies that update's fields are visible.
            let before = cell.seq.load(Ordering::Acquire);
            // ORDERING: Relaxed — validated by the `seq` re-read below.
            let id = cell.id.load(Ordering::Relaxed);
            let agg = PartialAgg {
                // ORDERING: Relaxed — validated by the `seq` re-read below.
                sum: f64::from_bits(cell.sum.load(Ordering::Relaxed)),
                // ORDERING: Relaxed — validated by the `seq` re-read below.
                count: cell.count.load(Ordering::Relaxed),
                // ORDERING: Relaxed — validated by the `seq` re-read below.
                min: f64::from_bits(cell.min.load(Ordering::Relaxed)),
                // ORDERING: Relaxed — validated by the `seq` re-read below.
                max: f64::from_bits(cell.max.load(Ordering::Relaxed)),
            };
            // ORDERING: Acquire fence — orders the field loads before the re-read; pairs with the Release fence in `add`, so fields of a later update imply a changed `seq` below.
            fence(Ordering::Acquire);
            // ORDERING: Relaxed — ordered after the field loads by the fence above.
            if before % 2 == 0 && cell.seq.load(Ordering::Relaxed) == before {
                return match id.cmp(&bucket) {
                    std::cmp::Ordering::Equal => CellRead::Hit(agg),
                    std::cmp::Ordering::Less => CellRead::Hit(PartialAgg::empty()),
                    std::cmp::Ordering::Greater => CellRead::Recycled,
                };
            }
        }
        CellRead::Torn
    }
}

/// What [`BucketRing::read`] found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellRead {
    /// Everything the owner has folded into the bucket so far — nothing
    /// at all while the slot is vacant or still on an earlier bucket: the
    /// first tuple of a bucket is what moves its slot there.
    Hit(PartialAgg),
    /// The slot has moved on to a later bucket: the owner is at least a
    /// ring's length of event time past this one, which therefore is
    /// closed under the lateness contract. Only the index still has it.
    Recycled,
    /// The owner kept rewriting the cell between the attempts.
    Torn,
}

/// The owner's half of one joiner's window summary.
pub struct SummaryWriter {
    shape: SummaryShape,
    /// Published `key → ring` map the team reads.
    keys: Writer<Key, Arc<BucketRing>>,
    /// The same rings for the owner's O(1) lookup; rings are allocated on
    /// a key's first probe and live as long as the summary.
    rings: HashMap<Key, Arc<BucketRing>>,
}

/// The team's half: cloneable, lock-free.
#[derive(Clone)]
pub struct SummaryReader {
    shape: SummaryShape,
    keys: Reader<Key, Arc<BucketRing>>,
}

impl SummaryWriter {
    /// An empty summary of the given shape, with a reader onto it.
    pub fn new(shape: SummaryShape) -> (SummaryWriter, SummaryReader) {
        let (keys, reader) = SwmrSkipList::new();
        let writer = SummaryWriter {
            shape,
            keys,
            rings: HashMap::new(),
        };
        (
            writer,
            SummaryReader {
                shape,
                keys: reader,
            },
        )
    }

    /// Folds one stored probe into its bucket's cell.
    #[inline]
    pub fn record(&mut self, probe: &Tuple) {
        let ring = self.rings.entry(probe.key).or_insert_with(|| {
            let ring = Arc::new(BucketRing::new(self.shape.cells));
            self.keys.insert(probe.key, Arc::clone(&ring));
            ring
        });
        ring.add(self.shape.bucket_of(probe.ts.as_micros()), probe.value);
    }
}

impl SummaryReader {
    /// The summary's shape.
    #[inline]
    pub fn shape(&self) -> SummaryShape {
        self.shape
    }

    /// Runs `f` on `key`'s ring; `None` when the owner has stored no probe
    /// of `key` yet.
    #[inline]
    pub fn with_ring<T>(&self, key: Key, f: impl FnOnce(&BucketRing) -> T) -> Option<T> {
        self.keys.get_with(&key, |ring| f(ring))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oij_common::Timestamp;

    fn spec(pre: i64, lateness: i64) -> WindowSpec {
        WindowSpec::preceding_only(Duration::from_micros(pre), Duration::from_micros(lateness))
            .unwrap()
    }

    #[test]
    fn shape_is_derived_from_lateness_and_window() {
        // Under 16 buckets of 8 µs: nothing.
        assert_eq!(SummaryShape::for_window(&spec(5_000, 0)), None);
        assert_eq!(SummaryShape::for_window(&spec(5_000, 127)), None);
        // skew.late: 5 ms / 16 = 312 µs → 256 µs buckets; 10 ms span is
        // 39 buckets + 2 edges → 64 cells, the window fits.
        let s = SummaryShape::for_window(&spec(5_000, 5_000)).unwrap();
        assert_eq!((s.width().as_micros(), s.cells()), (256, 64));
        assert!(s.spans_window());
        // A window far wider than the lateness: same buckets, capped ring.
        let wide = SummaryShape::for_window(&spec(100_000, 5_000)).unwrap();
        assert_eq!((wide.width().as_micros(), wide.cells()), (256, 64));
        assert!(!wide.spans_window());
        // A short window needs a shorter ring.
        let short = SummaryShape::for_window(&spec(10, 128)).unwrap();
        assert_eq!((short.width().as_micros(), short.cells()), (8, 32));
    }

    #[test]
    fn whole_buckets_exclude_partial_edges_also_below_zero() {
        let s = SummaryShape::for_window(&spec(100, 128)).unwrap(); // 8 µs
        assert_eq!(s.whole_buckets(0, 23), (0, 2));
        assert_eq!(s.whole_buckets(1, 22), (1, 1));
        assert_eq!(s.whole_buckets(1, 14), (1, 0)); // none
        assert_eq!(s.whole_buckets(-16, -1), (-2, -1));
        assert_eq!(s.whole_buckets(-15, -2), (-1, -2)); // none
        assert_eq!((s.start_of(-2), s.end_of(-2)), (-16, -9));
    }

    fn hit(ring: &BucketRing, bucket: i64) -> (f64, u64, f64, f64) {
        match ring.read(bucket) {
            CellRead::Hit(p) => (p.sum, p.count, p.min, p.max),
            other => panic!("bucket {bucket}: expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn a_cell_holds_its_bucket_until_the_ring_wraps_over_it() {
        let ring = BucketRing::new(4);
        assert_eq!(ring.read(5), CellRead::Hit(PartialAgg::empty()), "vacant");
        ring.add(5, 2.0);
        ring.add(5, 3.0);
        assert_eq!(hit(&ring, 5), (5.0, 2, 2.0, 3.0));
        // Slot 1 has not reached bucket 9: nothing stored there yet.
        assert_eq!(ring.read(9), CellRead::Hit(PartialAgg::empty()));
        // Bucket 9 takes the slot over: 5 is recycled, only the index has it.
        ring.add(9, 7.0);
        assert_eq!(ring.read(5), CellRead::Recycled);
        assert_eq!(hit(&ring, 9), (7.0, 1, 7.0, 7.0));
        // A late tuple for the overwritten bucket changes nothing.
        ring.add(5, 100.0);
        assert_eq!(ring.read(5), CellRead::Recycled);
        assert_eq!(hit(&ring, 9), (7.0, 1, 7.0, 7.0));
        // Negative buckets map into the ring too (slot 2 here).
        ring.add(-2, 1.5);
        assert_eq!(hit(&ring, -2).0, 1.5);
    }

    #[test]
    fn rings_are_allocated_per_key_on_first_probe() {
        let shape = SummaryShape::for_window(&spec(100, 128)).unwrap();
        let (mut w, r) = SummaryWriter::new(shape);
        assert_eq!(r.with_ring(7, |_| ()), None);
        w.record(&Tuple::new(Timestamp::from_micros(17), 7, 4.0));
        let got = r.with_ring(7, |ring| hit(ring, shape.bucket_of(17)));
        assert_eq!(got.unwrap().0, 4.0);
        assert_eq!(r.with_ring(8, |_| ()), None);
    }

    /// Every value is 1.0, so any consistent read has `sum == count` and
    /// `min == max == 1.0` whichever bucket the slot holds; a torn read
    /// across a recycle (count of one bucket, sum of the next) does not.
    #[test]
    fn concurrent_reads_are_never_torn() {
        const BUCKETS: i64 = 200_000;
        let ring = Arc::new(BucketRing::new(2));
        let start = Arc::new(std::sync::Barrier::new(3));
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (ring, start) = (Arc::clone(&ring), Arc::clone(&start));
                    s.spawn(move || {
                        start.wait();
                        let mut hits = 0u64;
                        loop {
                            let mut newest = VACANT;
                            for slot in 0..2 {
                                // ORDERING: Relaxed — test-only peek at which bucket a slot holds.
                                let id = ring.cells[slot].id.load(Ordering::Relaxed);
                                newest = newest.max(id);
                                // Recycled or torn meanwhile, or (the slot
                                // moved on) not yet there: empty.
                                if let CellRead::Hit(p) = ring.read(id) {
                                    assert_eq!(p.sum, p.count as f64, "torn sum/count");
                                    if p.count > 0 {
                                        assert_eq!((p.min, p.max), (1.0, 1.0), "torn min/max");
                                        hits += 1;
                                    }
                                }
                            }
                            if newest == BUCKETS - 1 {
                                return hits;
                            }
                        }
                    })
                })
                .collect();
            start.wait();
            for bucket in 0..BUCKETS {
                for _ in 0..1 + bucket % 5 {
                    ring.add(bucket, 1.0);
                }
            }
            for r in readers {
                assert!(r.join().unwrap() > 0, "a reader never hit a cell");
            }
        });
    }
}
