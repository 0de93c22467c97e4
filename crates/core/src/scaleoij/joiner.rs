//! The Scale-OIJ joiner thread: owns one time-travel index, reads its
//! virtual team's indexes, maintains incremental window aggregates.
//!
//! lint: hot_path
//!
//! ## What answers a window
//!
//! * **Settled prefix — Subtract-on-Evict.** The incremental state per
//!   (joiner, key) covers only the window prefix `[start, settled_end]`
//!   with `settled_end` strictly below the watermark. The lateness
//!   contract guarantees nothing below the watermark can still arrive, so
//!   the settled region is immutable: the Subtract-on-Evict deltas against
//!   it are always complete and **no invalidation tracking is needed**.
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

use crate::sync::atomic::{AtomicI64, Ordering};
use std::collections::HashMap;
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
    /// The running aggregate over the settled region.
    agg: IncAggState,
}

/// Aggregate state behind the incremental path.
///
/// Invertible aggregates use Subtract-on-Evict (paper §V-C). Non-invertible
/// `min`/`max` — which the paper defers to future work — use the two-stack
/// FIFO aggregator: the settled region's tuples are kept in timestamp
/// order, advancing evicts exactly the `[old_start, new_start)` count from
/// the front and pushes the `(old_settled_end, new_settled_end]` delta
/// (sorted by timestamp) at the back.
enum IncAggState {
    Run(RunningAgg),
    Stack(TwoStackAgg),
}

impl IncAggState {
    fn fresh(spec: AggSpec) -> IncAggState {
        if spec.is_invertible() {
            // PANIC-OK: guarded by the `spec.is_invertible()` branch above.
            IncAggState::Run(RunningAgg::new(spec).expect("invertible"))
        } else {
            IncAggState::Stack(TwoStackAgg::new(spec))
        }
    }

    fn count(&self) -> u64 {
        match self {
            IncAggState::Run(a) => a.count(),
            IncAggState::Stack(a) => a.len() as u64,
        }
    }

    /// Takes in the newly settled `(ts µs, value)` pairs (the two-stack
    /// FIFO needs them in timestamp order).
    fn absorb(&mut self, pairs: &mut Vec<(i64, f64)>) {
        match self {
            IncAggState::Run(run) => pairs.drain(..).for_each(|(_, v)| run.add(v)),
            IncAggState::Stack(stack) => {
                pairs.sort_unstable_by_key(|(t, _)| *t);
                pairs.drain(..).for_each(|(_, v)| stack.push(v));
            }
        }
    }

    /// Merges the settled aggregate with the freshly scanned unsettled
    /// suffix into the emitted `(value, matched)` pair.
    fn emit_with(&self, spec: AggSpec, fresh: &PartialAgg) -> (Option<f64>, u64) {
        let matched = self.count() + fresh.count;
        let value = match (self, spec) {
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
    /// Per-joiner *incremental floor*: the smallest `start` of this
    /// joiner's live incremental states (`i64::MAX` when none). Eviction
    /// also respects `min(inc_floor)` so subtract-deltas never race
    /// expiration; a janitor drops states older than one extra
    /// window+lateness so the floor cannot pin memory indefinitely.
    inc_floor: Arc<Vec<AtomicI64>>,
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
        // PANIC-OK: `self.id` < joiners == slot-array length by construction.
        self.progress[self.id].fetch_max(wm.as_micros(), Ordering::Release);
        let hold = oldest_deferred.map_or(wm, |oldest| wm.min(oldest));
        // ORDERING: Release — pairs with the Acquire loads in `retention_bound`, so a raised hold implies the deferred set that justified it is visible.
        // PANIC-OK: `self.id` < joiners == slot-array length by construction.
        self.hold[self.id].store(hold.as_micros(), Ordering::Release);
    }

    /// The safe frontier `min_j progress_j`: every joiner has fully
    /// processed all input up to this event time (see module docs of
    /// [`super`]).
    fn drain_frontier(&self, _wm: Timestamp) -> Timestamp {
        // ORDERING: Acquire — pairs with each joiner's Release store in `publish`: a frontier at `t` implies every index covers `t`.
        Timestamp::from_micros(min_slot(&self.progress))
    }

    fn evict(&mut self, _wm: Timestamp) -> u64 {
        let retention_bound = self.retention_bound();
        if retention_bound == i64::MIN {
            return 0; // no joiner has published a hold yet
        }

        // Janitor: drop incremental states more than one extra
        // window+lateness behind (idle keys — they rebuild cheaply on their
        // next base tuple), then publish this joiner's floor.
        let slack =
            self.cfg.query.window.length().as_micros() + self.cfg.query.window.lateness.as_micros();
        let stale_cut = retention_bound.saturating_sub(slack);
        self.inc.retain(|_, st| st.start >= stale_cut);
        let floor = self
            .inc
            .values()
            .map(|st| st.start)
            .min()
            .unwrap_or(i64::MAX);
        // ORDERING: Release — publishes the incremental states behind the floor before teammates' Acquire floor loads allow eviction.
        // PANIC-OK: `self.id` < joiners == slot-array length by construction.
        self.inc_floor[self.id].store(floor, Ordering::Release);

        // Evict below min(retention, every joiner's incremental floor):
        // subtract-deltas then never read evicted data.
        // ORDERING: Acquire — pairs with each joiner's Release `inc_floor` store above, so eviction never outruns a teammate's incremental state.
        let bound = retention_bound.min(min_slot(&self.inc_floor));
        self.writer.evict_below(Timestamp::from_micros(bound)) as u64
    }

    /// End of input (infinite progress is already published): wait for
    /// the whole team so every index is complete before the final drain.
    fn end(&mut self, drain: impl FnOnce(&mut Self)) {
        // A teammate died or the engine is tearing down when the wait
        // falls through: skip the final drain (its indexes are incomplete
        // anyway) and surface what we have as a degraded partial report.
        // BLOCKING-OK: end-of-input rendezvous — the streaming hot loop is over, and the barrier is kill/poison-aware so fault supervision can release it.
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
fn min_slot(slots: &[AtomicI64]) -> i64 {
    // ORDERING: Acquire — see the call sites.
    // PANIC-OK: at least one joiner is guaranteed by EngineConfig validation.
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
    fn scan_member(
        &self,
        inst: &mut JoinerInstruments,
        m: usize,
        key: Key,
        (lo, hi): (i64, i64),
        mut visit: impl FnMut(i64, f64),
    ) -> u64 {
        let (lo, hi) = (Timestamp::from_micros(lo), Timestamp::from_micros(hi));
        // PANIC-OK: `m` is a team member index, validated < joiners == readers length when the schedule is built.
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
                            // PANIC-OK: the index is reduced modulo the slice's own length.
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
        inc_floor: Arc<Vec<AtomicI64>>,
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
            inc_floor,
            barrier,
            sup: sup.clone(),
            scratch: Vec::new(),
            scratch_pairs: Vec::new(),
        }
    }

    /// `min_j hold_j − window`: no probe below this event time is needed
    /// by an un-emitted base tuple anywhere in the team (`i64::MIN` until
    /// every joiner has published a hold).
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
        // PANIC-OK: `p` is masked to < partitions == schedule team count.
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
            // cover a sliver and every base would fold around it).
            self.inc.remove(&key);
            let unsplit = (i64::MIN, retention);
            let fresh = self
                .indexes
                .fold(inst, team, key, (a, b), unsplit, |_, _| {});
            record_time_travel_effectiveness(inst, fresh.count);
            return (fresh.finish(agg), fresh.count);
        }

        // ORDERING: Acquire — pairs with the Release `inc_floor` stores; see the eviction bound in `evict`.
        let evict_bound = retention.min(min_slot(&self.inc_floor));
        let fresh = match self.inc.get(&key) {
            Some(st) if st.start < evict_bound || st.settled_end > settled_hi => {
                self.rebuild_settled(inst, key, (a, settled_hi, b), retention, team)
            }
            // Slide the state forward (in-order base).
            Some(st) if st.start <= a && st.settled_end >= a - 1 => {
                self.advance_settled(inst, key, (a, settled_hi, b), retention, team)
            }
            // Out-of-order base: the state still covers a suffix of this
            // window — serve it read-only with two boundary legs instead
            // of throwing the state away. The prefix `[a, st.start)` is
            // bounded by the jitter and lies a window behind the ring, so
            // it is scanned; the suffix folds.
            Some(st) if a < st.start && a >= evict_bound && st.settled_end < b => {
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
        // PANIC-OK: every arm above found, advanced or rebuilt this key's entry.
        let st = self.inc.get(&key).expect("state kept above");
        let (value, matched) = st.agg.emit_with(agg, &fresh);
        record_time_travel_effectiveness(inst, matched);
        (value, matched)
    }

    /// Subtract `[st.start, a)`, then one [`fold`](TeamIndexes::fold) of
    /// `(st.settled_end, b]`: what it scans up to `settled_hi` joins the
    /// settled state, the rest is the returned unsettled partial.
    fn advance_settled(
        &mut self,
        inst: &mut JoinerInstruments,
        key: Key,
        (a, settled_hi, b): (i64, i64, i64),
        retention: i64,
        team: &[usize],
    ) -> PartialAgg {
        let (old_start, old_end) = {
            // PANIC-OK: the caller verified this key has incremental state.
            let st = self.inc.get(&key).expect("caller checked");
            (st.start, st.settled_end)
        };
        self.scratch.clear();
        self.indexes
            .scan(inst, team, key, (old_start, a - 1), |_, v| {
                self.scratch.push(v)
            });
        self.scratch_pairs.clear();
        let fresh = self.indexes.fold(
            inst,
            team,
            key,
            (old_end + 1, b),
            (settled_hi, retention),
            |ts, v| self.scratch_pairs.push((ts, v)),
        );

        let match_t0 = inst.wants_breakdown().then(Instant::now);
        // PANIC-OK: the caller verified this key has incremental state.
        let st = self.inc.get_mut(&key).expect("caller checked");
        if self.scratch.len() as u64 > st.agg.count() {
            // Only possible when lateness-violating tuples landed in the
            // settled region; rebuild rather than underflow.
            return self.rebuild_settled(inst, key, (a, settled_hi, b), retention, team);
        }
        match &mut st.agg {
            IncAggState::Run(run) => self.scratch.iter().for_each(|&v| run.evict(v)),
            IncAggState::Stack(stack) => {
                // FIFO fronts are the oldest timestamps — exactly the
                // subtract range, because pushes are ts-sorted.
                for _ in 0..self.scratch.len() {
                    // PANIC-OK: the loop bound is `scratch.len()`, which counted exactly the evictable fronts.
                    stack.evict().expect("guarded by count check");
                }
            }
        }
        st.agg.absorb(&mut self.scratch_pairs);
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
        let mut agg = IncAggState::fresh(self.cfg.query.agg);
        agg.absorb(&mut self.scratch_pairs);
        // A state that starts below the floor this joiner last published
        // (`evict` found none, or only later ones) is announced at once.
        // While this base is being answered it still holds the team's
        // retention bound at or below `a`; the floor store precedes the
        // step's next `publish`, so a teammate that sees the hold rise
        // past the window also sees the floor that keeps `[a, ..]` from
        // eviction until the subtract-delta has read it.
        // PANIC-OK: `self.id` < joiners == slot-array length by construction.
        let floor = &self.inc_floor[self.id];
        // ORDERING: Relaxed — this joiner's own slot; it is the only writer.
        if a < floor.load(Ordering::Relaxed) {
            // ORDERING: Release — pairs with the Acquire `inc_floor` loads in `evict`, like the store there.
            floor.store(a, Ordering::Release);
        }
        self.inc.insert(
            key,
            IncState {
                start: a,
                settled_end: settled_hi,
                agg,
            },
        );
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
