//! The Scale-OIJ joiner thread: owns one time-travel index, reads its
//!
//! lint: hot_path
//! virtual team's indexes, maintains incremental window aggregates.
//!
//! ## Watermark-settled incremental aggregation
//!
//! The incremental state per (joiner, key) covers only the **settled**
//! window prefix `[start, settled_end]` with `settled_end` strictly below
//! the watermark. The lateness contract guarantees nothing below the
//! watermark can still arrive, so the settled region is immutable: the
//! Subtract-on-Evict deltas against it are always complete and **no
//! invalidation tracking is needed**. The *unsettled* suffix
//! `(settled_end, window_end]` — bounded by the lateness plus the stream's
//! watermark lag, i.e. a small constant amount of data — is rescanned
//! fresh for every base tuple and merged into the emitted value.
//!
//! Tuples that violate the lateness contract (timestamp below the
//! watermark at arrival) may land inside a settled region; they are
//! counted (`late_violations`) and excluded from the incremental
//! guarantee, exactly like every other engine treats them best-effort.

use crate::sync::atomic::{AtomicI64, Ordering};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use oij_agg::{FullWindowAgg, PartialAgg, RunningAgg, TwoStackAgg};
use oij_common::{AggSpec, EmitMode, FeatureRow, Key, Side, Timestamp};
use oij_index::{BackendReader, BackendWriter, OijIndexReader, OijIndexWriter};
use oij_skiplist::RcuCell;

use crate::config::{EngineConfig, LatePolicy};
use crate::faults::DrainBarrier;
use crate::hash_key;
use crate::instrument::{JoinerInstruments, JoinerReport};
use crate::message::DataMsg;
use crate::shell::{Joiner, Supervision};
use crate::sink::Sink;

use super::schedule::Schedule;

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

struct PendingBase {
    key: Key,
    ts: Timestamp,
    arrival: Instant,
}

pub(crate) struct ScaleJoiner {
    id: usize,
    cfg: EngineConfig,
    sink: Sink,
    inst: JoinerInstruments,
    writer: BackendWriter,
    readers: Vec<BackendReader>,
    schedule: Arc<RcuCell<Schedule>>,
    part_mask: u64,
    inc: HashMap<Key, IncState>,
    pending: BTreeMap<(i64, u64), PendingBase>,
    progress: Arc<Vec<AtomicI64>>,
    /// Per-joiner *hold* frontier: `min(progress, oldest pending emit-ts)`.
    /// Eviction must use `min(hold)` rather than `min(progress)` — a
    /// teammate's pending base tuple still needs the window below its
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
    since_expire: usize,
    node_bytes: usize,
}

/// Scale-OIJ keeps the default per-message `on_batch`: per-tuple progress
/// publication and pending drains are load-bearing for the cross-joiner
/// frontiers, and the SWMR writer already amortizes same-key inserts
/// through its internal position hint. Batching still amortizes the
/// channel synchronization and per-message allocation.
impl Joiner<DataMsg> for ScaleJoiner {
    fn instruments(&mut self) -> &mut JoinerInstruments {
        &mut self.inst
    }

    fn on_heartbeat(&mut self, wm: Timestamp) {
        self.store_progress(wm);
        if self.cfg.query.emit == EmitMode::Watermark {
            self.drain_pending(self.safe_frontier());
        }
        self.maybe_expire();
    }

    fn on_data(&mut self, msg: DataMsg) {
        self.inst.processed += 1;
        if msg.tuple.ts < msg.watermark {
            self.inst.late_violations += 1;
            if self.cfg.late_policy == LatePolicy::SideOutput {
                // Route the violating tuple to the sink as a marked late
                // row instead of processing it best-effort; bookkeeping
                // (progress, drains, expiration) still runs below so the
                // frontiers keep advancing.
                self.inst.late_side_outputs += 1;
                self.sink.emit(FeatureRow::late_marker(
                    msg.tuple.ts,
                    msg.tuple.key,
                    msg.seq,
                ));
                self.store_progress(msg.watermark);
                if self.cfg.query.emit == EmitMode::Watermark {
                    self.drain_pending(self.safe_frontier());
                }
                self.maybe_expire();
                return;
            }
        }
        match msg.side {
            Side::Probe => {
                if self.inst.cache.is_some() {
                    let addr = self.writer.insert_hinted_traced(msg.tuple, false);
                    self.inst.record_access(addr, self.node_bytes);
                } else {
                    self.writer.insert(msg.tuple);
                }
            }
            Side::Base => match self.cfg.query.emit {
                EmitMode::Eager => self.join_and_emit(
                    msg.tuple.key,
                    msg.tuple.ts,
                    msg.seq,
                    msg.arrival,
                    msg.watermark,
                ),
                EmitMode::Watermark => {
                    let emit_ts = msg.tuple.ts + self.cfg.query.window.following;
                    self.pending.insert(
                        (emit_ts.as_micros(), msg.seq),
                        PendingBase {
                            key: msg.tuple.key,
                            ts: msg.tuple.ts,
                            arrival: msg.arrival,
                        },
                    );
                }
            },
        }
        // Publish progress only after the message is fully applied, so the
        // safe frontier implies completeness.
        self.store_progress(msg.watermark);
        if self.cfg.query.emit == EmitMode::Watermark {
            self.drain_pending(self.safe_frontier());
        }
        self.maybe_expire();
    }

    fn on_end(&mut self) {
        // End of input: publish infinite progress (but NOT an infinite
        // hold — pending bases still guard their windows) and wait for the
        // whole team so every index is complete before the final drain.
        // ORDERING: Release — publishes this joiner's completed index before the infinite progress mark; pairs with teammates' Acquire loads in `safe_frontier`.
        // PANIC-OK: `self.id` < joiners == slot-array length by construction.
        self.progress[self.id].store(i64::MAX, Ordering::Release);
        self.publish_hold();
        // A teammate died or the engine is tearing down when the wait
        // falls through: skip the final drain (its indexes are incomplete
        // anyway) and surface what we have as a degraded partial report.
        // BLOCKING-OK: end-of-input rendezvous — the streaming hot loop is over, and the barrier is kill/poison-aware so fault supervision can release it.
        if self.barrier.wait(&self.sup.failures, &self.sup.kill) {
            self.drain_pending(Timestamp::MAX);
        }
    }

    fn into_report(self) -> JoinerReport {
        self.inst
    }
}

impl ScaleJoiner {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        cfg: &EngineConfig,
        sink: Sink,
        origin: Instant,
        writer: BackendWriter,
        readers: Vec<BackendReader>,
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
            inst: JoinerInstruments::new(&cfg.instrument, origin),
            cfg: cfg.clone(),
            sink,
            writer,
            readers,
            schedule,
            part_mask: (cfg.partitions - 1) as u64,
            inc: HashMap::new(),
            pending: BTreeMap::new(),
            progress,
            hold,
            inc_floor,
            barrier,
            sup: sup.clone(),
            scratch: Vec::new(),
            scratch_pairs: Vec::new(),
            since_expire: 0,
            node_bytes,
        }
    }

    #[inline]
    fn store_progress(&self, wm: Timestamp) {
        // Monotone max: heartbeats and data interleave in send order, so a
        // plain store would already be monotone, but fetch_max is cheap and
        // robust.
        // ORDERING: Release — publishes every index write up to `wm` before the frontier advances; pairs with the Acquire loads in `safe_frontier`.
        // PANIC-OK: `self.id` < joiners == slot-array length by construction.
        self.progress[self.id].fetch_max(wm.as_micros(), Ordering::Release);
        self.publish_hold();
    }

    /// Re-publishes this joiner's hold frontier. Monotone: the watermark
    /// only grows, draining only raises the oldest pending emit-ts, and a
    /// newly pended base has `emit_ts ≥ wm ≥` the previous hold.
    #[inline]
    fn publish_hold(&self) {
        // ORDERING: Relaxed — this joiner is the only writer of its own progress slot; remote slots are read with Acquire in the frontier scans.
        // PANIC-OK: `self.id` < joiners == slot-array length by construction.
        let wm = self.progress[self.id].load(Ordering::Relaxed);
        let oldest_pending = self
            .pending
            .first_key_value()
            .map(|(k, _)| k.0)
            .unwrap_or(i64::MAX);
        // ORDERING: Release — pairs with the Acquire loads in `hold_frontier`, so a raised hold implies the pending set that justified it is visible.
        // PANIC-OK: `self.id` < joiners == slot-array length by construction.
        self.hold[self.id].store(wm.min(oldest_pending), Ordering::Release);
    }

    /// `min_j hold_j`: nothing at or above this event time may be needed by
    /// an un-emitted base tuple anywhere in the team.
    fn hold_frontier(&self) -> Timestamp {
        // ORDERING: Acquire — pairs with each joiner's Release store in `publish_hold`.
        // PANIC-OK: at least one joiner is guaranteed by EngineConfig validation.
        let min = self
            .hold
            .iter()
            .map(|p| p.load(Ordering::Acquire))
            .min()
            .expect("≥1 joiner");
        Timestamp::from_micros(min)
    }

    /// `min_j progress_j`: every joiner has fully processed all input up to
    /// this event time (see module docs of [`super`]).
    fn safe_frontier(&self) -> Timestamp {
        // ORDERING: Acquire — pairs with each joiner's Release store in `store_progress`: a frontier at `t` implies every index covers `t`.
        // PANIC-OK: at least one joiner is guaranteed by EngineConfig validation.
        let min = self
            .progress
            .iter()
            .map(|p| p.load(Ordering::Acquire))
            .min()
            .expect("≥1 joiner");
        Timestamp::from_micros(min)
    }

    fn maybe_expire(&mut self) {
        self.since_expire += 1;
        if self.since_expire < self.cfg.expire_every {
            return;
        }
        self.since_expire = 0;
        let frontier = self.hold_frontier();
        if frontier == Timestamp::MIN {
            return;
        }
        let other_t0 = self.inst.wants_breakdown().then(Instant::now);
        let retention_bound = frontier
            .saturating_sub(self.cfg.query.window.length())
            .as_micros();

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
        // PANIC-OK: at least one joiner is guaranteed by EngineConfig validation.
        let floor_min = self
            .inc_floor
            .iter()
            .map(|p| p.load(Ordering::Acquire))
            .min()
            .expect("≥1 joiner");
        let bound = Timestamp::from_micros(retention_bound.min(floor_min));
        self.inst.evicted += self.writer.evict_below(bound) as u64;
        if let Some(t0) = other_t0 {
            self.inst
                .add_breakdown(0, 0, t0.elapsed().as_nanos() as u64);
        }
    }

    fn drain_pending(&mut self, frontier: Timestamp) {
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > frontier.as_micros() {
                break;
            }
            let ((_, seq), base) = entry.remove_entry();
            self.join_and_emit(base.key, base.ts, seq, base.arrival, frontier);
        }
        self.publish_hold();
    }

    /// The Scale-OIJ join: read the whole virtual team's time-travel
    /// indexes, incrementally over the watermark-settled region when
    /// possible.
    fn join_and_emit(
        &mut self,
        key: Key,
        ts: Timestamp,
        seq: u64,
        arrival: Instant,
        watermark: Timestamp,
    ) {
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
            self.plain_rescan(key, a, b, team, seq, ts, arrival);
            return;
        }

        // Settled frontier: everything strictly below the watermark is
        // immutable. (`wm == MIN` before any observation ⇒ nothing settled.)
        let settled_hi = if watermark == Timestamp::MIN {
            i64::MIN
        } else {
            b.min(watermark.as_micros() - 1)
        };
        if settled_hi < a {
            // The whole window is still unsettled (startup, or lateness ≫
            // window as in Workload C): fresh scan, no state to keep.
            self.inc.remove(&key);
            self.plain_rescan(key, a, b, team, seq, ts, arrival);
            return;
        }

        let evict_bound = {
            let retention = self
                .hold_frontier()
                .saturating_sub(self.cfg.query.window.length())
                .as_micros();
            // ORDERING: Acquire — pairs with the Release `inc_floor` stores; see the eviction bound in `on_watermark`.
            // PANIC-OK: at least one joiner is guaranteed by EngineConfig validation.
            let floor_min = self
                .inc_floor
                .iter()
                .map(|p| p.load(Ordering::Acquire))
                .min()
                .expect("≥1 joiner");
            retention.min(floor_min)
        };
        enum Plan {
            /// Slide the state forward (in-order base).
            Advance,
            /// Out-of-order base: the state still covers a suffix of this
            /// window — serve it read-only with two small boundary scans
            /// instead of throwing the state away (jitter is bounded by the
            /// lateness, so the prefix `[a, st.start)` is tiny).
            ReadOnly,
            Rebuild,
        }
        let plan = match self.inc.get(&key) {
            Some(st) if st.start < evict_bound || st.settled_end > settled_hi => Plan::Rebuild,
            Some(st) if st.start <= a && st.settled_end >= a - 1 => Plan::Advance,
            Some(st) if a < st.start && a >= evict_bound && st.settled_end < b => Plan::ReadOnly,
            Some(_) => Plan::Rebuild,
            None => Plan::Rebuild,
        };
        let (value, matched) = match plan {
            Plan::Advance => {
                let fresh = self.advance_settled(key, a, settled_hi, b, team);
                // PANIC-OK: `advance_settled` created or updated this key's entry.
                let st = self.inc.get(&key).expect("advanced above");
                st.agg.emit_with(self.cfg.query.agg, &fresh)
            }
            Plan::ReadOnly => {
                let (st_start, st_end) = {
                    // PANIC-OK: the Plan::ReadOnly arm is only taken when the entry matched above.
                    let st = self.inc.get(&key).expect("matched above");
                    (st.start, st.settled_end)
                };
                let mut fresh = self.scan_suffix(key, a, st_start - 1, team);
                let suffix = self.scan_suffix(key, st_end + 1, b, team);
                fresh.merge(&suffix);
                // PANIC-OK: entry existence re-checked by the match that chose this plan.
                let st = self.inc.get(&key).expect("matched above");
                st.agg.emit_with(self.cfg.query.agg, &fresh)
            }
            Plan::Rebuild => {
                let fresh = self.rebuild_settled(key, a, settled_hi, b, team);
                // PANIC-OK: `rebuild_settled` created this key's entry.
                let st = self.inc.get(&key).expect("rebuilt above");
                st.agg.emit_with(self.cfg.query.agg, &fresh)
            }
        };
        // The time-travel property holds for the delta scans too: every
        // visited tuple is (or was) in-window.
        self.inst.record_effectiveness(matched, matched);
        self.emit(key, ts, seq, arrival, value, matched);
    }

    /// Subtract `[st.start, a)`; one merged forward scan
    /// `(st.settled_end, b]` feeds the settled state (`ts ≤ settled_hi`)
    /// and the returned unsettled partial (`ts > settled_hi`) — adjacent
    /// ranges share a single index seek.
    fn advance_settled(
        &mut self,
        key: Key,
        a: i64,
        settled_hi: i64,
        b: i64,
        team: &[usize],
    ) -> PartialAgg {
        let (old_start, old_end) = {
            // PANIC-OK: the caller verified this key has incremental state.
            let st = self.inc.get(&key).expect("caller checked");
            (st.start, st.settled_end)
        };
        let lookup_t0 = self.inst.breakdown.is_some().then(Instant::now);
        let scratch = &mut self.scratch;
        let pairs = &mut self.scratch_pairs;
        let readers = &self.readers;
        let node_bytes = self.node_bytes;
        let mut cache = self.inst.cache.as_mut();
        scratch.clear();
        pairs.clear();
        for &m in team {
            let cache = &mut cache;
            // PANIC-OK: `m` is a team member index, validated < joiners == readers length when the schedule is built.
            readers[m].scan_ts_range_addr(
                key,
                Timestamp::from_micros(old_start),
                Timestamp::from_micros(a - 1),
                |t, addr| {
                    if let Some(c) = cache.as_mut() {
                        c.access(addr, node_bytes);
                    }
                    scratch.push(t.value);
                },
            );
        }
        let mut fresh = PartialAgg::empty();
        for &m in team {
            let cache = &mut cache;
            let fresh = &mut fresh;
            // PANIC-OK: `m` is a team member index, validated < joiners == readers length when the schedule is built.
            readers[m].scan_ts_range_addr(
                key,
                Timestamp::from_micros(old_end + 1),
                Timestamp::from_micros(b),
                |t, addr| {
                    if let Some(c) = cache.as_mut() {
                        c.access(addr, node_bytes);
                    }
                    let ts = t.ts.as_micros();
                    if ts <= settled_hi {
                        pairs.push((ts, t.value));
                    } else {
                        fresh.add(t.value);
                    }
                },
            );
        }

        let match_t0 = lookup_t0.map(|t0| (t0, Instant::now()));
        let settled_count = self.inc.get(&key).map(|st| st.agg.count()).unwrap_or(0);
        if self.scratch.len() as u64 > settled_count {
            // Only possible when lateness-violating tuples landed in the
            // settled region; rebuild rather than underflow.
            return self.rebuild_settled(key, a, settled_hi, b, team);
        }
        // PANIC-OK: the caller verified this key has incremental state.
        let st = self.inc.get_mut(&key).expect("caller checked");
        match &mut st.agg {
            IncAggState::Run(run) => {
                for &v in self.scratch.iter() {
                    run.evict(v);
                }
                for &(_, v) in self.scratch_pairs.iter() {
                    run.add(v);
                }
            }
            IncAggState::Stack(stack) => {
                // FIFO fronts are the oldest timestamps — exactly the
                // subtract range, because pushes are ts-sorted.
                for _ in 0..self.scratch.len() {
                    // PANIC-OK: the loop bound is `scratch.len()`, which counted exactly the evictable fronts.
                    stack.evict().expect("guarded by count check");
                }
                self.scratch_pairs.sort_unstable_by_key(|(t, _)| *t);
                for &(_, v) in self.scratch_pairs.iter() {
                    stack.push(v);
                }
            }
        }
        st.start = a;
        st.settled_end = settled_hi;
        if let Some((t0, t1)) = match_t0 {
            let t2 = Instant::now();
            self.inst.add_breakdown(
                t1.duration_since(t0).as_nanos() as u64,
                t2.duration_since(t1).as_nanos() as u64,
                0,
            );
        }
        fresh
    }

    /// Builds a fresh settled state over `[a, settled_hi]` with one merged
    /// scan of `[a, b]`, returning the unsettled partial (`ts > settled_hi`).
    fn rebuild_settled(
        &mut self,
        key: Key,
        a: i64,
        settled_hi: i64,
        b: i64,
        team: &[usize],
    ) -> PartialAgg {
        let lookup_t0 = self.inst.breakdown.is_some().then(Instant::now);
        let pairs = &mut self.scratch_pairs;
        let readers = &self.readers;
        let node_bytes = self.node_bytes;
        let mut cache = self.inst.cache.as_mut();
        pairs.clear();
        let mut fresh = PartialAgg::empty();
        for &m in team {
            let cache = &mut cache;
            let fresh = &mut fresh;
            // PANIC-OK: `m` is a team member index, validated < joiners == readers length when the schedule is built.
            readers[m].scan_ts_range_addr(
                key,
                Timestamp::from_micros(a),
                Timestamp::from_micros(b),
                |t, addr| {
                    if let Some(c) = cache.as_mut() {
                        c.access(addr, node_bytes);
                    }
                    let ts = t.ts.as_micros();
                    if ts <= settled_hi {
                        pairs.push((ts, t.value));
                    } else {
                        fresh.add(t.value);
                    }
                },
            );
        }
        let match_t0 = lookup_t0.map(|t0| (t0, Instant::now()));
        let mut state = IncAggState::fresh(self.cfg.query.agg);
        match &mut state {
            IncAggState::Run(run) => {
                for &(_, v) in self.scratch_pairs.iter() {
                    run.add(v);
                }
            }
            IncAggState::Stack(stack) => {
                self.scratch_pairs.sort_unstable_by_key(|(t, _)| *t);
                for &(_, v) in self.scratch_pairs.iter() {
                    stack.push(v);
                }
            }
        }
        self.inc.insert(
            key,
            IncState {
                start: a,
                settled_end: settled_hi,
                agg: state,
            },
        );
        if let Some((t0, t1)) = match_t0 {
            let t2 = Instant::now();
            self.inst.add_breakdown(
                t1.duration_since(t0).as_nanos() as u64,
                t2.duration_since(t1).as_nanos() as u64,
                0,
            );
        }
        fresh
    }

    /// Scans `[lo, hi]` across the team into a mergeable partial.
    fn scan_suffix(&mut self, key: Key, lo: i64, hi: i64, team: &[usize]) -> PartialAgg {
        let mut fresh = PartialAgg::empty();
        if hi < lo {
            return fresh;
        }
        let lookup_t0 = self.inst.breakdown.is_some().then(Instant::now);
        let readers = &self.readers;
        let node_bytes = self.node_bytes;
        let mut cache = self.inst.cache.as_mut();
        for &m in team {
            let cache = &mut cache;
            // PANIC-OK: `m` is a team member index, validated < joiners == readers length when the schedule is built.
            readers[m].scan_ts_range_addr(
                key,
                Timestamp::from_micros(lo),
                Timestamp::from_micros(hi),
                |t, addr| {
                    if let Some(c) = cache.as_mut() {
                        c.access(addr, node_bytes);
                    }
                    fresh.add(t.value);
                },
            );
        }
        if let Some(t0) = lookup_t0 {
            self.inst
                .add_breakdown(t0.elapsed().as_nanos() as u64, 0, 0);
        }
        fresh
    }

    /// Non-incremental full window scan (the "Scale-OIJ w/o inc" ablation).
    #[allow(clippy::too_many_arguments)]
    fn plain_rescan(
        &mut self,
        key: Key,
        a: i64,
        b: i64,
        team: &[usize],
        seq: u64,
        ts: Timestamp,
        arrival: Instant,
    ) {
        let lookup_t0 = self.inst.breakdown.is_some().then(Instant::now);
        let scratch = &mut self.scratch;
        let readers = &self.readers;
        let node_bytes = self.node_bytes;
        let mut cache = self.inst.cache.as_mut();
        scratch.clear();
        let mut visited = 0u64;
        for &m in team {
            let cache = &mut cache;
            // PANIC-OK: `m` is a team member index, validated < joiners == readers length when the schedule is built.
            visited += readers[m].scan_ts_range_addr(
                key,
                Timestamp::from_micros(a),
                Timestamp::from_micros(b),
                |t, addr| {
                    if let Some(c) = cache.as_mut() {
                        c.access(addr, node_bytes);
                    }
                    scratch.push(t.value);
                },
            ) as u64;
        }
        let t1 = lookup_t0.map(|t0| (t0, Instant::now()));
        let mut full = FullWindowAgg::new(self.cfg.query.agg);
        for &v in self.scratch.iter() {
            full.add(v);
        }
        let (value, matched) = (full.finish(), full.count());
        if let Some((t0, t1)) = t1 {
            let t2 = Instant::now();
            self.inst.add_breakdown(
                t1.duration_since(t0).as_nanos() as u64,
                t2.duration_since(t1).as_nanos() as u64,
                0,
            );
        }
        // The time-travel property: visited == matched.
        self.inst.record_effectiveness(matched, visited);
        self.emit(key, ts, seq, arrival, value, matched);
    }

    #[inline]
    fn emit(
        &mut self,
        key: Key,
        ts: Timestamp,
        seq: u64,
        arrival: Instant,
        agg: Option<f64>,
        matched: u64,
    ) {
        self.sink.emit(FeatureRow::new(ts, key, seq, agg, matched));
        self.inst.results += 1;
        self.inst.record_latency(arrival);
    }
}
