//! The Scale-OIJ joiner thread: owns one time-travel index, reads its
//! virtual team's indexes, maintains incremental window aggregates.
//!
//! ## What answers a window
//!
//! * **Settled prefix — Subtract-on-Evict.** The incremental state per
//!   (joiner, key) covers only the window prefix `[start, settled_end]`
//!   with `settled_end` strictly below the watermark. The lateness
//!   contract guarantees nothing below the watermark can still arrive, so
//!   the settled region is immutable and **no invalidation tracking is
//!   needed**. The state keeps the tuples it absorbed in a timestamp-ordered
//!   FIFO, so what leaves the window is subtracted from the state's own
//!   copy: no index read ever reaches below the window being answered, and
//!   eviction needs nothing from the state.
//! * **Every other range — bucket cells + edges.** The unsettled suffix
//!   `(settled_end, window_end]`, the suffix leg of an out-of-order base,
//!   and a window with no settled prefix worth keeping are answered by
//!   [`TeamIndexes::fold`]: whole buckets from the team's window summaries
//!   ([`super::summary`]), the partial bucket at each end from the index.
//! * **Fallback — index scan.** A bucket whose cell misses, and every range
//!   of a query whose lateness builds no summary, is scanned tuple by
//!   tuple; `fold` without cells *is* that scan.
//!
//! Tuples that violate the lateness contract (timestamp below the
//! watermark at arrival) may land inside a settled region; they are
//! counted (`late_violations`) and excluded from the incremental
//! guarantee, exactly like every other engine treats them best-effort.

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

use crate::sync::atomic::{AtomicI64, Ordering};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use oij_agg::{FullWindowAgg, PartialAgg, RunningAgg, TwoStackAgg};
use oij_common::{AggSpec, FeatureRow, Key, Timestamp};
use oij_index::{BackendReader, BackendWriter, OijIndexReader, OijIndexWriter};
use oij_skiplist::RcuCell;

use crate::config::{EngineConfig, LatePolicy};
use crate::faults::DrainBarrier;
use crate::hash_key;
use crate::instrument::JoinerInstruments;
use crate::message::DataMsg;
use crate::shell::{emit, insert_probe, Joiner, Supervision};
use crate::sink::Sink;

use super::schedule::Schedule;
use super::summary::{CellRead, SummaryReader, SummaryWriter};

/// Incremental join state for one key on one joiner (paper §V-C). See the
/// [module docs](self) for the settled/unsettled split.
struct IncState {
    /// Settled coverage `[start, settled_end]` in µs (inclusive).
    start: i64,
    settled_end: i64,
    /// The settled region's tuples as `(ts µs, value)`, in timestamp
    /// order: exactly what `agg` has absorbed and not yet evicted.
    settled: VecDeque<(i64, f64)>,
    /// The running aggregate over `settled`.
    agg: IncAggState,
}

/// Aggregate state behind the incremental path.
///
/// Invertible aggregates use Subtract-on-Evict (paper §V-C). Non-invertible
/// `min`/`max` — which the paper defers to future work — use the two-stack
/// FIFO aggregator, pushed and evicted in step with [`IncState`]'s FIFO.
enum IncAggState {
    Run(RunningAgg),
    Stack(TwoStackAgg),
}

impl IncAggState {
    #[expect(
        clippy::expect_used,
        reason = "guarded by the `spec.is_invertible()` branch"
    )]
    fn fresh(spec: AggSpec) -> IncAggState {
        if spec.is_invertible() {
            IncAggState::Run(RunningAgg::new(spec).expect("invertible"))
        } else {
            IncAggState::Stack(TwoStackAgg::new(spec))
        }
    }

    fn add(&mut self, v: f64) {
        match self {
            IncAggState::Run(run) => run.add(v),
            IncAggState::Stack(stack) => stack.push(v),
        }
    }

    /// Evicts `v`, the oldest value still held.
    fn evict(&mut self, v: f64) {
        match self {
            IncAggState::Run(run) => run.evict(v),
            // The stack holds exactly the FIFO's values, so it is not
            // empty while the FIFO handed over `v`.
            IncAggState::Stack(stack) => {
                let _ = stack.evict();
            }
        }
    }
}

impl IncState {
    /// An empty state; [`rebuild`](Self::rebuild) gives it its region.
    fn new(spec: AggSpec) -> Self {
        IncState {
            start: i64::MIN,
            settled_end: i64::MIN,
            settled: VecDeque::new(),
            agg: IncAggState::fresh(spec),
        }
    }

    /// Makes this the state over `[start, settled_end]` holding the
    /// `(ts µs, value)` pairs found there. The FIFO keeps its allocation:
    /// a short window rebuilds on nearly every base.
    fn rebuild(
        &mut self,
        spec: AggSpec,
        (start, settled_end): (i64, i64),
        pairs: &mut Vec<(i64, f64)>,
    ) {
        self.start = start;
        self.settled_end = settled_end;
        self.settled.clear();
        self.agg = IncAggState::fresh(spec);
        self.absorb(pairs);
    }

    /// Subtract-on-Evict: drops every settled tuple below `a` from the
    /// front of the FIFO and from the aggregate.
    fn evict_before(&mut self, a: i64) {
        while let Some(&(ts, v)) = self.settled.front() {
            if ts >= a {
                break;
            }
            self.settled.pop_front();
            self.agg.evict(v);
        }
    }

    /// Takes in newly settled `(ts µs, value)` pairs, all above what the
    /// FIFO already holds, in timestamp order.
    fn absorb(&mut self, pairs: &mut Vec<(i64, f64)>) {
        pairs.sort_unstable_by_key(|(t, _)| *t);
        for (ts, v) in pairs.drain(..) {
            self.agg.add(v);
            self.settled.push_back((ts, v));
        }
    }

    /// Merges the settled aggregate with the freshly folded unsettled
    /// partial into the emitted `(value, matched)` pair.
    fn emit_with(&self, spec: AggSpec, fresh: &PartialAgg) -> (Option<f64>, u64) {
        let matched = self.settled.len() as u64 + fresh.count;
        let value = match (&self.agg, spec) {
            (IncAggState::Run(run), AggSpec::Sum) => Some(run.sum() + fresh.sum),
            (IncAggState::Run(_), AggSpec::Count) => Some(matched as f64),
            (IncAggState::Run(run), AggSpec::Avg) => {
                if matched == 0 {
                    None
                } else {
                    Some((run.sum() + fresh.sum) / matched as f64)
                }
            }
            (IncAggState::Stack(stack), AggSpec::Min) => {
                opt_combine(stack.value(), fresh.finish(AggSpec::Min), f64::min)
            }
            (IncAggState::Stack(stack), AggSpec::Max) => {
                opt_combine(stack.value(), fresh.finish(AggSpec::Max), f64::max)
            }
            // The constructor pairs Run with invertible specs and Stack
            // with min/max; other combinations cannot exist.
            _ => unreachable!("aggregate state does not match spec"),
        };
        (value, matched)
    }
}

fn opt_combine(a: Option<f64>, b: Option<f64>, f: impl Fn(f64, f64) -> f64) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(f(a, b)),
        (x, None) | (None, x) => x,
    }
}

pub(crate) struct ScaleJoiner {
    id: usize,
    cfg: EngineConfig,
    sink: Sink,
    writer: BackendWriter,
    /// This joiner's window summary, folded into beside every index
    /// insert; `None` when the query builds none.
    summary: Option<SummaryWriter>,
    indexes: TeamIndexes,
    schedule: Arc<RcuCell<Schedule>>,
    part_mask: u64,
    inc: HashMap<Key, IncState>,
    progress: Arc<Vec<AtomicI64>>,
    /// Per-joiner *hold* frontier: `min(progress, oldest deferred emit-ts)`.
    /// Eviction must use `min(hold)` rather than `min(progress)` — a
    /// teammate's deferred base tuple still needs the window below its
    /// emit timestamp even after everyone's watermark has moved past it.
    hold: Arc<Vec<AtomicI64>>,
    barrier: Arc<DrainBarrier>,
    /// Shared failure report + engine kill flag: the end-of-input barrier
    /// falls through on either (degraded drain instead of deadlock).
    sup: Supervision,
    scratch: Vec<f64>,
    scratch_pairs: Vec<(i64, f64)>,
}

/// Scale-OIJ stores probes one at a time: per-tuple progress publication
/// is load-bearing for the cross-joiner frontiers, and the SWMR writer
/// already amortizes same-key inserts through its internal position hint.
/// Batching still amortizes the channel synchronization and per-message
/// allocation.
impl Joiner<DataMsg> for ScaleJoiner {
    /// Under `LatePolicy::SideOutput` the violating tuple goes to the sink
    /// as a marked late row instead of being processed best-effort.
    fn divert_late(&mut self, inst: &mut JoinerInstruments, msg: &DataMsg) -> bool {
        if self.cfg.late_policy != LatePolicy::SideOutput {
            return false;
        }
        inst.late_side_outputs += 1;
        let t = &msg.tuple;
        self.sink
            .emit(FeatureRow::late_marker(t.ts, t.key, msg.seq));
        true
    }

    /// Cell and index both change before the step's `publish`, so
    /// published progress still implies both are visible.
    fn store(&mut self, inst: &mut JoinerInstruments, probe: DataMsg) {
        if let Some(summary) = &mut self.summary {
            summary.record(&probe.tuple);
        }
        insert_probe(&mut self.writer, inst, probe.tuple);
    }

    fn answer(&mut self, inst: &mut JoinerInstruments, base: &DataMsg, watermark: Timestamp) {
        let (key, ts) = (base.tuple.key, base.tuple.ts);
        let (value, matched) = self.join(inst, key, ts, watermark);
        let row = FeatureRow::new(ts, key, base.seq, value, matched);
        emit(&self.sink, inst, row, base.arrival);
    }

    /// Publishes progress (a monotone max: heartbeats and data interleave
    /// in send order) and re-publishes the hold frontier. The hold is
    /// monotone too: the watermark only grows, draining only raises the
    /// oldest deferred emit-ts, and a newly deferred base has `emit_ts ≥
    /// wm ≥` the previous hold. At end of input progress is infinite but
    /// the hold is not — deferred bases still guard their windows.
    fn publish(&mut self, wm: Timestamp, oldest_deferred: Option<Timestamp>) {
        // ORDERING: Release — publishes every index write up to `wm` before the frontier advances; pairs with the Acquire loads in `drain_frontier`.
        #[expect(
            clippy::indexing_slicing,
            reason = "`self.id` < joiners == slot-array length by construction"
        )]
        self.progress[self.id].fetch_max(wm.as_micros(), Ordering::Release);
        let hold = oldest_deferred.map_or(wm, |oldest| wm.min(oldest));
        // ORDERING: Release — pairs with the Acquire loads in `retention_bound`, so a raised hold implies the deferred set that justified it is visible.
        #[expect(
            clippy::indexing_slicing,
            reason = "`self.id` < joiners == slot-array length by construction"
        )]
        self.hold[self.id].store(hold.as_micros(), Ordering::Release);
    }

    /// The safe frontier `min_j progress_j`: every joiner has fully
    /// processed all input up to this event time (see module docs of
    /// [`super`]).
    fn drain_frontier(&self, _wm: Timestamp) -> Timestamp {
        // ORDERING: Acquire — pairs with each joiner's Release store in `publish`: a frontier at `t` implies every index covers `t`.
        Timestamp::from_micros(min_slot(&self.progress))
    }

    /// Evicts this joiner's index below the retention bound. Settled
    /// states own their tuples, so the bound needs nothing from them.
    fn evict(&mut self, _wm: Timestamp) -> u64 {
        let retention = self.retention_bound();
        if retention == i64::MIN {
            return 0; // no joiner has published a hold yet
        }
        // Memory hygiene: a state whose settled region ends before
        // `retention − 1` can never advance again (a base that is not late
        // has its window start at or above the bound), so its idle key
        // rebuilds on its next base tuple instead.
        self.inc
            .retain(|_, st| st.settled_end >= retention.saturating_sub(1));
        self.writer.evict_below(Timestamp::from_micros(retention)) as u64
    }

    /// End of input (infinite progress is already published): wait for
    /// the whole team so every index is complete before the final drain.
    #[expect(
        clippy::disallowed_methods,
        reason = "end-of-input rendezvous: the streaming hot loop is over, and the barrier is \
                  kill/poison-aware so fault supervision can release it"
    )]
    fn end(&mut self, drain: impl FnOnce(&mut Self)) {
        // A teammate died or the engine is tearing down when the wait
        // falls through: skip the final drain (its indexes are incomplete
        // anyway) and surface what we have as a degraded partial report.
        if self.barrier.wait(&self.sup.failures, &self.sup.kill) {
            drain(self);
        }
    }
}

/// Effectiveness (paper Eq. 1) is matched / visited over index nodes. The
/// incremental paths visit only nodes that are (or were) in-window — the
/// time-travel property — while cells and running state stand in for the
/// rest, so their ratio is 1 **by construction**, not by measurement: it
/// is recorded as such so the meter counts every base tuple. What these
/// paths do measure is `nodes_visited` and `cells_merged`; the measured
/// ratio is the `without_incremental` ablation's.
#[inline]
fn record_time_travel_effectiveness(inst: &mut JoinerInstruments, matched: u64) {
    inst.record_effectiveness(matched, matched);
}

/// The minimum over one cross-joiner frontier array (Acquire loads; the
/// call sites name the Release stores they pair with).
#[expect(
    clippy::expect_used,
    reason = "at least one joiner is guaranteed by EngineConfig validation"
)]
fn min_slot(slots: &[AtomicI64]) -> i64 {
    // ORDERING: Acquire — see the call sites.
    slots
        .iter()
        .map(|p| p.load(Ordering::Acquire))
        .min()
        .expect("≥1 joiner")
}

/// Every joiner's time-travel index, readable by all (virtual-team
/// visibility).
struct TeamReaders {
    readers: Vec<BackendReader>,
    node_bytes: usize,
}

impl TeamReaders {
    /// Visits `key`'s tuples with `lo ≤ ts ≤ hi` in member `m`'s index
    /// (none when `hi < lo`), feeding each node touch to the LLC model.
    /// Returns the tuples visited.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "`m` is a team member index, validated < joiners == readers length when the \
                  schedule is built"
    )]
    fn scan_member(
        &self,
        inst: &mut JoinerInstruments,
        m: usize,
        key: Key,
        (lo, hi): (i64, i64),
        mut visit: impl FnMut(i64, f64),
    ) -> u64 {
        let (lo, hi) = (Timestamp::from_micros(lo), Timestamp::from_micros(hi));
        self.readers[m].scan_ts_range_addr(key, lo, hi, |t, addr| {
            if let Some(c) = inst.cache.as_mut() {
                c.access(addr, self.node_bytes);
            }
            visit(t.ts.as_micros(), t.value);
        }) as u64
    }
}

/// One teammate's closed buckets as `(bucket id, partial)`, in a ring of
/// the summary's own length (bucket `b` in slot `b mod len`).
type ClosedBuckets = Box<[(i64, PartialAgg)]>;

/// What a joiner reads to answer a window: the team's indexes, the team's
/// window summaries, and its own notes on buckets a summary has recycled.
struct TeamIndexes {
    index: TeamReaders,
    /// One per joiner, like the readers; empty when the query builds no
    /// summary.
    summaries: Vec<SummaryReader>,
    /// Per (member, key): partials of closed buckets whose cell the
    /// member's ring has recycled, scanned once from its index and kept in
    /// a ring of the same shape. A joiner running behind a teammate —
    /// whose ring then sits a whole queue of event time ahead — would
    /// otherwise rescan that teammate's half of every window.
    recycled: HashMap<(usize, Key), ClosedBuckets>,
}

impl TeamIndexes {
    /// Whether the summaries' rings span `PRE + FOL + lateness`
    /// ([`SummaryShape::spans_window`](super::summary::SummaryShape::spans_window)):
    /// cells then answer whole windows and no settled state is kept.
    fn cells_span_window(&self) -> bool {
        self.summaries
            .first()
            .is_some_and(|s| s.shape().spans_window())
    }

    /// The per-tuple team scan: `key`'s tuples in `range` from every team
    /// member's index go to `visit` as `(ts µs, value)`; the elapsed time
    /// is Fig 6 lookup time. Returns the tuples visited.
    fn scan(
        &self,
        inst: &mut JoinerInstruments,
        team: &[usize],
        key: Key,
        range: (i64, i64),
        mut visit: impl FnMut(i64, f64),
    ) -> u64 {
        let lookup_t0 = inst.wants_breakdown().then(Instant::now);
        let mut visited = 0;
        for &m in team {
            visited += self.index.scan_member(inst, m, key, range, &mut visit);
        }
        inst.nodes_visited += visited;
        if let Some(t0) = lookup_t0 {
            inst.add_breakdown(t0.elapsed().as_nanos() as u64, 0, 0);
        }
        visited
    }

    /// The one answer to a range outside the settled state: the partial
    /// over `key`'s tuples in `[lo, hi]` across the team, as `Σ whole-bucket
    /// cells + index scans` of whatever no cell answered — the partial
    /// bucket at each end, buckets whose read was torn, and the whole range
    /// for a query without a summary. Adjacent unanswered stretches share
    /// one scan. A bucket the owner's ring has recycled is closed: it is
    /// scanned on its own, once, and remembered.
    ///
    /// `split` hands the scanned tuples at or below it to `settled`
    /// instead of the partial (the newly settled delta rides the lower
    /// edge's scan); cells are taken only for buckets wholly above it.
    /// `intact_from` is the team's retention bound: every eviction so far
    /// used a bound at or below it, so a bucket starting there has lost
    /// nothing its cell still counts. The elapsed time is Fig 6 lookup
    /// time.
    fn fold(
        &mut self,
        inst: &mut JoinerInstruments,
        team: &[usize],
        key: Key,
        (lo, hi): (i64, i64),
        (split, intact_from): (i64, i64),
        mut settled: impl FnMut(i64, f64),
    ) -> PartialAgg {
        let lookup_t0 = inst.wants_breakdown().then(Instant::now);
        let TeamIndexes {
            index,
            summaries,
            recycled,
        } = self;
        let (mut scanned, mut summed) = (PartialAgg::empty(), PartialAgg::empty());
        let mut visit = |ts: i64, v: f64| {
            if ts <= split {
                settled(ts, v);
            } else {
                scanned.add(v);
            }
        };
        let cells_from = lo.max(split.saturating_add(1)).max(intact_from);
        let (mut nodes, mut cells) = (0, 0);
        for &m in team {
            let Some(summary) = summaries.get(m) else {
                nodes += index.scan_member(inst, m, key, (lo, hi), &mut visit);
                continue;
            };
            let shape = summary.shape();
            let (first, last) = shape.whole_buckets(cells_from, hi);
            // No ring: `m` has stored no probe of `key`, so its index has
            // nothing to scan either (`store` records before it inserts).
            summary.with_ring(key, |ring| {
                // Start of what no cell has answered yet.
                let mut pending = lo;
                // This member's notes, out of the map while in use.
                let mut notes = None;
                for bucket in first..=last {
                    let (start, end) = (shape.start_of(bucket), shape.end_of(bucket));
                    let cell = match ring.read(bucket) {
                        CellRead::Hit(cell) => cell,
                        CellRead::Torn => continue,
                        CellRead::Recycled => {
                            let notes = notes.get_or_insert_with(|| {
                                recycled.remove(&(m, key)).unwrap_or_else(|| {
                                    vec![(i64::MIN, PartialAgg::empty()); shape.cells()].into()
                                })
                            });
                            #[expect(
                                clippy::indexing_slicing,
                                reason = "the index is reduced modulo the slice's own length"
                            )]
                            let note = &mut notes[bucket.rem_euclid(shape.cells() as i64) as usize];
                            if note.0 != bucket {
                                let mut closed = PartialAgg::empty();
                                nodes += index
                                    .scan_member(inst, m, key, (start, end), |_, v| closed.add(v));
                                *note = (bucket, closed);
                            }
                            note.1
                        }
                    };
                    let below = (pending, start.saturating_sub(1));
                    nodes += index.scan_member(inst, m, key, below, &mut visit);
                    summed.merge(&cell);
                    cells += 1;
                    pending = end.saturating_add(1);
                }
                nodes += index.scan_member(inst, m, key, (pending, hi), &mut visit);
                if let Some(notes) = notes {
                    recycled.insert((m, key), notes);
                }
            });
        }
        inst.nodes_visited += nodes;
        inst.cells_merged += cells;
        if let Some(t0) = lookup_t0 {
            inst.add_breakdown(t0.elapsed().as_nanos() as u64, 0, 0);
        }
        scanned.merge(&summed);
        scanned
    }
}

impl ScaleJoiner {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        cfg: &EngineConfig,
        sink: Sink,
        (writer, summary): (BackendWriter, Option<SummaryWriter>),
        (readers, summaries): (Vec<BackendReader>, Vec<SummaryReader>),
        schedule: Arc<RcuCell<Schedule>>,
        progress: Arc<Vec<AtomicI64>>,
        hold: Arc<Vec<AtomicI64>>,
        barrier: Arc<DrainBarrier>,
        sup: &Supervision,
    ) -> Self {
        let node_bytes = writer.node_footprint();
        ScaleJoiner {
            id,
            cfg: cfg.clone(),
            sink,
            writer,
            summary,
            indexes: TeamIndexes {
                index: TeamReaders {
                    readers,
                    node_bytes,
                },
                summaries,
                recycled: HashMap::new(),
            },
            schedule,
            part_mask: (cfg.partitions - 1) as u64,
            inc: HashMap::new(),
            progress,
            hold,
            barrier,
            sup: sup.clone(),
            scratch: Vec::new(),
            scratch_pairs: Vec::new(),
        }
    }

    /// `min_j hold_j − window`: no probe below this event time is needed
    /// by an un-emitted base tuple anywhere in the team (`i64::MIN` until
    /// every joiner has published a hold). A base that is not late has its
    /// window start at or above it: the answering joiner's own hold is at
    /// most the base's timestamp (its emit timestamp, if deferred) until
    /// the row is out.
    fn retention_bound(&self) -> i64 {
        // ORDERING: Acquire — pairs with each joiner's Release store in `publish`.
        Timestamp::from_micros(min_slot(&self.hold))
            .saturating_sub(self.cfg.query.window.length())
            .as_micros()
    }

    /// The Scale-OIJ join: read the whole virtual team's time-travel
    /// indexes, incrementally over the watermark-settled region when
    /// possible. Returns the aggregate and the match count.
    fn join(
        &mut self,
        inst: &mut JoinerInstruments,
        key: Key,
        ts: Timestamp,
        watermark: Timestamp,
    ) -> (Option<f64>, u64) {
        let window = self.cfg.query.window.window_of(ts);
        let (a, b) = (window.start.as_micros(), window.end.as_micros());
        // Fresh schedule load: the channel recv that delivered this base
        // happens-after the driver's routing loads, so this sees at least
        // the schedule any relevant probe was routed under.
        let sched = self.schedule.load();
        let p = (hash_key(key) & self.part_mask) as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "`p` is masked to < partitions == schedule team count"
        )]
        let team = &sched.teams[p];

        if !self.cfg.incremental {
            return self.plain_rescan(inst, key, a, b, team);
        }

        let agg = self.cfg.query.agg;
        let retention = self.retention_bound();
        // Settled frontier: everything strictly below the watermark is
        // immutable. (`wm == MIN` before any observation ⇒ nothing settled.)
        let settled_hi = if watermark == Timestamp::MIN {
            i64::MIN
        } else {
            b.min(watermark.as_micros() - 1)
        };
        if settled_hi < a || self.indexes.cells_span_window() {
            // No settled prefix worth keeping: the whole window is still
            // unsettled (startup, or lateness ≫ window), or it is short
            // enough that its bucket cells answer it outright (lateness ≈
            // window, as in Workload C — under disorder the state would
            // cover a sliver and every base would fold around it). A state
            // this key already has stays: it owns its tuples, so it is still
            // exact for its region, and the janitor frees it once no base
            // can use it.
            let unsplit = (i64::MIN, retention);
            let fresh = self
                .indexes
                .fold(inst, team, key, (a, b), unsplit, |_, _| {});
            record_time_travel_effectiveness(inst, fresh.count);
            return (fresh.finish(agg), fresh.count);
        }

        let fresh = match self.inc.get(&key) {
            Some(st) if st.settled_end > settled_hi => {
                self.rebuild_settled(inst, key, (a, settled_hi, b), retention, team)
            }
            // Slide the state forward (in-order base).
            Some(st) if st.start <= a && st.settled_end >= a - 1 => {
                self.advance_settled(inst, key, (a, settled_hi, b), retention, team)
            }
            // Out-of-order base: the state still covers a suffix of this
            // window — serve it read-only with two boundary legs instead
            // of throwing the state away. The prefix `[a, st.start)` has
            // left the state; it is bounded by the jitter and lies a
            // window behind the ring, so it is scanned from the index,
            // which holds it while `a` is at or above the retention bound.
            // The suffix folds.
            Some(st) if a < st.start && a >= retention && st.settled_end < b => {
                let (st_start, st_end) = (st.start, st.settled_end);
                let (suffix, unsplit) = ((st_end + 1, b), (i64::MIN, retention));
                let mut fresh = self
                    .indexes
                    .fold(inst, team, key, suffix, unsplit, |_, _| {});
                self.indexes
                    .scan(inst, team, key, (a, st_start - 1), |_, v| fresh.add(v));
                fresh
            }
            _ => self.rebuild_settled(inst, key, (a, settled_hi, b), retention, team),
        };
        #[expect(
            clippy::expect_used,
            reason = "every arm above found, advanced or rebuilt this key's entry"
        )]
        let st = self.inc.get(&key).expect("state kept above");
        let (value, matched) = st.emit_with(agg, &fresh);
        record_time_travel_effectiveness(inst, matched);
        (value, matched)
    }

    /// Evicts the state's tuples below `a`, then one
    /// [`fold`](TeamIndexes::fold) of `(st.settled_end, b]`: what it scans
    /// up to `settled_hi` joins the settled state, the rest is the
    /// returned unsettled partial.
    fn advance_settled(
        &mut self,
        inst: &mut JoinerInstruments,
        key: Key,
        (a, settled_hi, b): (i64, i64, i64),
        retention: i64,
        team: &[usize],
    ) -> PartialAgg {
        #[expect(clippy::expect_used, reason = "the caller matched this key's state")]
        let st = self.inc.get_mut(&key).expect("caller checked");
        self.scratch_pairs.clear();
        let fresh = self.indexes.fold(
            inst,
            team,
            key,
            (st.settled_end + 1, b),
            (settled_hi, retention),
            |ts, v| self.scratch_pairs.push((ts, v)),
        );
        let match_t0 = inst.wants_breakdown().then(Instant::now);
        st.evict_before(a);
        st.absorb(&mut self.scratch_pairs);
        st.start = a;
        st.settled_end = settled_hi;
        if let Some(t0) = match_t0 {
            inst.add_breakdown(0, t0.elapsed().as_nanos() as u64, 0);
        }
        fresh
    }

    /// Builds a fresh settled state over `[a, settled_hi]` with one
    /// [`fold`](TeamIndexes::fold) of `[a, b]`, returning the unsettled
    /// partial.
    fn rebuild_settled(
        &mut self,
        inst: &mut JoinerInstruments,
        key: Key,
        (a, settled_hi, b): (i64, i64, i64),
        retention: i64,
        team: &[usize],
    ) -> PartialAgg {
        self.scratch_pairs.clear();
        let fresh = self
            .indexes
            .fold(inst, team, key, (a, b), (settled_hi, retention), |ts, v| {
                self.scratch_pairs.push((ts, v))
            });
        let match_t0 = inst.wants_breakdown().then(Instant::now);
        let spec = self.cfg.query.agg;
        self.inc
            .entry(key)
            .or_insert_with(|| IncState::new(spec))
            .rebuild(spec, (a, settled_hi), &mut self.scratch_pairs);
        if let Some(t0) = match_t0 {
            inst.add_breakdown(0, t0.elapsed().as_nanos() as u64, 0);
        }
        fresh
    }

    /// Non-incremental full window scan (the "Scale-OIJ w/o inc" ablation).
    fn plain_rescan(
        &mut self,
        inst: &mut JoinerInstruments,
        key: Key,
        a: i64,
        b: i64,
        team: &[usize],
    ) -> (Option<f64>, u64) {
        self.scratch.clear();
        let visited = self
            .indexes
            .scan(inst, team, key, (a, b), |_, v| self.scratch.push(v));
        let match_t0 = inst.wants_breakdown().then(Instant::now);
        let mut full = FullWindowAgg::new(self.cfg.query.agg);
        self.scratch.iter().for_each(|&v| full.add(v));
        if let Some(t0) = match_t0 {
            inst.add_breakdown(0, t0.elapsed().as_nanos() as u64, 0);
        }
        // The time-travel property: visited == matched.
        inst.record_effectiveness(full.count(), visited);
        (full.finish(), full.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Instrumentation;
    use crate::sync::Mutex;
    use oij_common::{Duration, EmitMode, OijQuery, Side, Tuple};

    type Rows = Arc<Mutex<Vec<FeatureRow>>>;

    /// A team of one with no window summary over a 10 µs preceding
    /// window, driven directly through its [`Joiner`] hooks.
    fn solo(agg: AggSpec) -> (ScaleJoiner, JoinerInstruments, Rows) {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(10))
            .agg(agg)
            .emit(EmitMode::Eager)
            .build()
            .unwrap();
        let cfg = EngineConfig::new(query, 1).unwrap();
        let (writer, reader) = cfg.index_backend.build();
        let (sink, rows) = Sink::collect();
        let joiner = ScaleJoiner::new(
            0,
            &cfg,
            sink,
            (writer, None),
            (vec![reader], Vec::new()),
            Arc::new(RcuCell::new(Schedule::initial(cfg.partitions, 1))),
            Arc::new(vec![AtomicI64::new(i64::MIN)]),
            Arc::new(vec![AtomicI64::new(i64::MIN)]),
            Arc::new(DrainBarrier::new(1)),
            &Supervision::default(),
        );
        let inst = JoinerInstruments::new(&Instrumentation::none(), Instant::now());
        (joiner, inst, rows)
    }

    fn msg(side: Side, key: Key, ts: i64, value: f64) -> DataMsg {
        DataMsg {
            side,
            tuple: Tuple::new(Timestamp::from_micros(ts), key, value),
            seq: 0,
            arrival: Instant::now(),
            watermark: Timestamp::MIN,
        }
    }

    /// Stores one probe of key 7 per µs in `ts`.
    fn store(j: &mut ScaleJoiner, inst: &mut JoinerInstruments, ts: impl Iterator<Item = i64>) {
        for t in ts {
            let value = if t == 6 { 100.0 } else { 1.0 };
            j.store(inst, msg(Side::Probe, 7, t, value));
        }
    }

    /// Answers a base of `key` at `ts` under watermark `wm`: the row's
    /// `(agg, matched)`.
    fn answer(
        j: &mut ScaleJoiner,
        inst: &mut JoinerInstruments,
        rows: &Rows,
        (key, ts, wm): (Key, i64, i64),
    ) -> (Option<f64>, u64) {
        j.answer(
            inst,
            &msg(Side::Base, key, ts, 0.0),
            Timestamp::from_micros(wm),
        );
        #[allow(
            clippy::disallowed_methods,
            reason = "test code reads the collecting sink"
        )]
        let row = rows.lock().pop().unwrap();
        (row.agg, row.matched)
    }

    fn settled_ts(j: &ScaleJoiner, key: Key) -> Vec<i64> {
        j.inc[&key].settled.iter().map(|(t, _)| *t).collect()
    }

    #[test]
    fn advance_evicts_exactly_what_the_state_absorbed() {
        // Window [5, 15] settles whole, including the spike at 6. The
        // index then loses everything below 8 — a teammate's sweep — and
        // the next window [8, 18] must still drop exactly [5, 8) from the
        // state: the state subtracts its own copies, not an index read.
        for (agg, first, second) in [(AggSpec::Sum, 110.0, 11.0), (AggSpec::Max, 100.0, 1.0)] {
            let (mut j, mut inst, rows) = solo(agg);
            store(&mut j, &mut inst, 0..=30);
            assert_eq!(
                answer(&mut j, &mut inst, &rows, (7, 15, 16)),
                (Some(first), 11)
            );
            assert_eq!(settled_ts(&j, 7), (5..=15).collect::<Vec<_>>());
            j.writer.evict_below(Timestamp::from_micros(8));
            assert_eq!(
                answer(&mut j, &mut inst, &rows, (7, 18, 19)),
                (Some(second), 11)
            );
            assert_eq!(settled_ts(&j, 7), (8..=18).collect::<Vec<_>>());
        }
    }

    #[test]
    fn out_of_order_base_reads_its_prefix_from_the_index() {
        let (mut j, mut inst, rows) = solo(AggSpec::Count);
        store(&mut j, &mut inst, 0..=30);
        // Window [8, 18] under watermark 12: the state covers [8, 11].
        assert_eq!(
            answer(&mut j, &mut inst, &rows, (7, 18, 12)),
            (Some(11.0), 11)
        );
        assert_eq!(settled_ts(&j, 7), (8..=11).collect::<Vec<_>>());
        // Window [6, 16] starts below the state: the prefix [6, 7] and the
        // suffix (11, 16] come from the index — 7 nodes, not the 11 a
        // rebuild would visit — and the state is left as it was.
        let before = inst.nodes_visited;
        assert_eq!(
            answer(&mut j, &mut inst, &rows, (7, 16, 13)),
            (Some(11.0), 11)
        );
        assert_eq!(inst.nodes_visited - before, 7);
        let st = &j.inc[&7];
        assert_eq!((st.start, st.settled_end), (8, 11));
        assert_eq!(settled_ts(&j, 7), (8..=11).collect::<Vec<_>>());
    }

    #[test]
    fn a_state_below_the_retention_bound_is_dropped_and_rebuilt() {
        let (mut j, mut inst, rows) = solo(AggSpec::Sum);
        store(&mut j, &mut inst, 0..=30);
        answer(&mut j, &mut inst, &rows, (7, 18, 19)); // state [8, 18]
                                                       // Key 9's state ends at 49: a base at 60 could still advance it.
        answer(&mut j, &mut inst, &rows, (9, 59, 50));
        assert_eq!(j.inc[&9].settled_end, 49);
        // Hold 60 puts the retention bound at 50: key 7's state can never
        // advance again and goes; key 9's stays.
        j.publish(Timestamp::from_micros(60), None);
        assert_eq!(j.evict(Timestamp::from_micros(60)), 31);
        assert!(!j.inc.contains_key(&7));
        assert!(j.inc.contains_key(&9));
        // Key 7's next base rebuilds from the index.
        for t in 50..=70 {
            j.store(&mut inst, msg(Side::Probe, 7, t, 2.0));
        }
        assert_eq!(
            answer(&mut j, &mut inst, &rows, (7, 65, 66)),
            (Some(22.0), 11)
        );
        assert_eq!(settled_ts(&j, 7), (55..=65).collect::<Vec<_>>());
    }
}
