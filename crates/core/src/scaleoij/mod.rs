//! **Scale-OIJ** — the paper's proposal (§V).
//!
//! Combines the three optimisations:
//!
//! 1. **SWMR time-travel index** (§V-A): each joiner owns a double-layer
//!    skip list; the virtual team reads it lock-free while the owner
//!    writes. Window boundaries are located in `O(log)` so only in-window
//!    tuples are visited, making lateness irrelevant to join cost.
//! 2. **Dynamic balanced schedule** (§V-B, Algorithm 3): keys hash into
//!    fixed partitions; every [`SCHEDULE_EVERY`](schedule::SCHEDULE_EVERY)
//!    heartbeats' worth of routed tuples, the driver's router replicates
//!    hot partitions from the most loaded joiner onto the least loaded one
//!    and publishes the new schedule through an RCU cell before it routes
//!    under it. Tuples of a shared partition are spread round-robin over
//!    the virtual team.
//! 3. **Incremental window aggregation** (§V-C): per (joiner, key) running
//!    aggregates over the watermark-settled window prefix advance by
//!    `⊖ evicted ⊕ added` instead of full window scans. The settled region
//!    is immutable, so the state needs no invalidation, and the state keeps
//!    the tuples it absorbed, so `⊖` reads its own copy, not the index.
//!    What is not settled is answered from per-bucket partials kept beside
//!    each index ([`summary`]) plus two edge scans.
//!
//! ## Cross-joiner safety
//!
//! Joiners publish their processed watermark (`progress`) and their *hold*
//! (`progress`, or the emit timestamp of their oldest deferred base if
//! lower). Watermark-mode emission uses `min(progress)` as the completeness
//! frontier; expiration evicts below `min(hold) − (PRE + FOL)`, the
//! retention bound. A base that is not late starts its window at or above
//! that bound, and every index range a join reads lies inside the window,
//! so no read races an eviction. A settled state owns its tuples, so
//! eviction needs nothing from it; a state is rebuilt only when a base
//! arrives below its settled end or outside the range it can serve. Bucket
//! cells are taken only at or above the retention bound (eviction is the
//! one thing a cell cannot see).

pub mod schedule;
pub mod summary;

mod joiner;

use crate::sync::atomic::AtomicI64;
use std::sync::Arc;

use oij_common::Result;
use oij_skiplist::RcuCell;

use crate::config::{EngineConfig, LatePolicy};
use crate::driver::open_durability;
use crate::engine::RunStats;
use crate::faults::DrainBarrier;
use crate::hash_key;
use crate::message::DataMsg;
use crate::shell::{forward_engine, EngineShell, Routing, Supervision};
use crate::sink::{worker_sink_stack, Sink};

use schedule::{
    rebalance, PartitionStats, Schedule, SCHEDULE_DECAY, SCHEDULE_DELTA, SCHEDULE_EVERY,
    SCHEDULE_FLOOR,
};
use summary::{SummaryShape, SummaryWriter};

/// The Scale-OIJ engine. See the [module docs](self).
pub struct ScaleOij(EngineShell<TeamRoute>);

/// Algorithm 3's routing: keys hash into fixed partitions, and the tuples
/// of a partition are spread round-robin over its virtual team. The route
/// also runs Algorithm 3 itself, inline on the driver thread.
struct TeamRoute {
    /// The joiners' view of their teams; only this route replaces it.
    published: Arc<RcuCell<Schedule>>,
    /// The schedule tuples are routed under: the last one published.
    current: Arc<Schedule>,
    stats: PartitionStats,
    /// Routed tuples between two passes; `None`: the schedule is static.
    period: Option<usize>,
    /// Routed tuples left until the next pass.
    countdown: usize,
    joiners: usize,
    /// Schedules published so far.
    changes: u64,
    /// Per-partition round-robin cursors for team-member selection.
    rr: Vec<u32>,
    part_mask: u64,
}

impl TeamRoute {
    /// One pass of Algorithm 3 over the counts routed so far. The new
    /// schedule is published before any tuple is routed under it, so a
    /// joiner that receives a tuple (send → recv) loads at least the
    /// schedule it was routed under.
    fn schedule_pass(&mut self) {
        let counts = self.stats.snapshot();
        // Only intervene above the floor: replication is monotone, so
        // acting on noise ratchets fan-out.
        if self.current.unbalancedness(&counts, self.joiners) > SCHEDULE_FLOOR {
            if let Some(next) = rebalance(&self.current, &counts, self.joiners, SCHEDULE_DELTA) {
                self.published.replace(next);
                self.current = self.published.load();
                self.changes += 1;
            }
        }
        self.stats.decay(SCHEDULE_DECAY);
    }
}

impl Routing for TeamRoute {
    const HEARTBEATS: bool = true;

    /// A schedule change while a lane is parked is benign: the buffer
    /// still drains to the member chosen at coalescing time, which stays a
    /// valid team member (teams only grow).
    #[inline]
    fn lane(&mut self, msg: &DataMsg) -> usize {
        let p = (hash_key(msg.tuple.key) & self.part_mask) as usize;
        self.stats.bump(p);
        if let Some(period) = self.period {
            self.countdown -= 1;
            if self.countdown == 0 {
                self.countdown = period;
                self.schedule_pass();
            }
        }
        let team = &self.current.teams[p];
        let member = team[(self.rr[p] as usize) % team.len()];
        self.rr[p] = self.rr[p].wrapping_add(1);
        member
    }

    fn fold(&self, stats: &mut RunStats) {
        stats.schedule_changes = self.changes;
    }
}

impl ScaleOij {
    /// Spawns joiners (each owning one time-travel index) and wires every
    /// reader to every joiner (virtual-team visibility).
    pub fn spawn(cfg: EngineConfig, sink: Sink) -> Result<Self> {
        let shape = SummaryShape::for_window(&cfg.query.window);
        Self::spawn_summarised(cfg, sink, shape)
    }

    /// [`spawn`](Self::spawn) with the window summaries' shape given
    /// rather than derived from the query (`None`: no summary) — the
    /// before/after lever of the tests that count index nodes visited.
    pub(crate) fn spawn_summarised(
        cfg: EngineConfig,
        sink: Sink,
        shape: Option<SummaryShape>,
    ) -> Result<Self> {
        cfg.validate()?;
        let joiners = cfg.joiners;

        // One SWMR index per joiner (backend chosen by the config;
        // `IndexBackend::SkipList` reproduces the original layout
        // bit-for-bit); readers shared with everyone.
        // Beside each index, its window summary — backend-agnostic, and
        // only where something reads it (the per-tuple ablation does not).
        let shape = shape.filter(|_| cfg.incremental);
        let mut writers = Vec::with_capacity(joiners);
        let mut readers = Vec::with_capacity(joiners);
        let mut summaries = Vec::new();
        for j in 0..joiners {
            let (w, r) = cfg
                .index_backend
                .build_with_seed((0x5CA1E0 ^ ((j as u64) << 7)) | 1);
            let (sw, sr) = shape.map(SummaryWriter::new).unzip();
            writers.push((w, sw));
            readers.push(r);
            summaries.extend(sr);
        }

        let schedule = Arc::new(RcuCell::new(Schedule::initial(cfg.partitions, joiners)));
        let frontier = |init: i64| -> Arc<Vec<AtomicI64>> {
            Arc::new((0..joiners).map(|_| AtomicI64::new(init)).collect())
        };
        let (progress, hold) = (frontier(i64::MIN), frontier(i64::MIN));
        let barrier = Arc::new(DrainBarrier::new(joiners));
        let sup = Supervision::default();
        // Late tuples become side-output markers only under that policy;
        // otherwise they are processed best-effort like everywhere else.
        let durable = open_durability(&cfg, cfg.late_policy == LatePolicy::SideOutput)?;

        let workers = writers
            .into_iter()
            .enumerate()
            .map(|(id, writer)| {
                joiner::ScaleJoiner::new(
                    id,
                    &cfg,
                    worker_sink_stack(&cfg, id, sink.clone(), &durable, &sup),
                    writer,
                    (readers.clone(), summaries.clone()),
                    Arc::clone(&schedule),
                    Arc::clone(&progress),
                    Arc::clone(&hold),
                    Arc::clone(&barrier),
                    &sup,
                )
            })
            .collect();

        let period =
            (cfg.dynamic_schedule && joiners > 1).then_some(SCHEDULE_EVERY * cfg.heartbeat_every);
        let routing = TeamRoute {
            current: schedule.load(),
            published: schedule,
            stats: PartitionStats::new(cfg.partitions),
            period,
            countdown: period.unwrap_or(0),
            joiners,
            changes: 0,
            rr: vec![0; cfg.partitions],
            part_mask: (cfg.partitions - 1) as u64,
        };
        EngineShell::assemble("scale-oij", &cfg, durable, sup, routing, workers, None).map(ScaleOij)
    }

    /// The current published schedule (diagnostics / tests).
    pub fn current_schedule(&self) -> Arc<Schedule> {
        Arc::clone(&self.0.routing.current)
    }
}

forward_engine!(ScaleOij);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Instrumentation;
    use crate::engine::OijEngine;
    use crate::keyoij::KeyOij;
    use crate::oracle::Oracle;
    use oij_common::{
        AggSpec, Duration, EmitMode, Event, FeatureRow, OijQuery, Side, Timestamp, Tuple,
    };

    fn query(pre: i64, lateness: i64, emit: EmitMode) -> OijQuery {
        OijQuery::builder()
            .preceding(Duration::from_micros(pre))
            .lateness(Duration::from_micros(lateness))
            .agg(AggSpec::Sum)
            .emit(emit)
            .build()
            .unwrap()
    }

    fn in_order_events(n: u64, keys: u64, base_mod: u64) -> Vec<Event> {
        let mut events = Vec::new();
        let mut x = 99u64;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let side = if x.is_multiple_of(base_mod) {
                Side::Base
            } else {
                Side::Probe
            };
            events.push(Event::data(
                i,
                side,
                Tuple::new(Timestamp::from_micros(i as i64), x % keys, (x % 40) as f64),
            ));
        }
        events
    }

    fn disordered_events(n: i64, keys: u64, jitter_max: i64) -> Vec<Event> {
        let mut staged: Vec<(i64, Side, Tuple)> = Vec::new();
        let mut x = 1234u64;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let side = if x.is_multiple_of(3) {
                Side::Base
            } else {
                Side::Probe
            };
            let jitter = (x >> 9) as i64 % jitter_max;
            staged.push((
                i + jitter,
                side,
                Tuple::new(Timestamp::from_micros(i), x % keys, (x % 25) as f64),
            ));
        }
        staged.sort_by_key(|(a, _, _)| *a);
        staged
            .into_iter()
            .enumerate()
            .map(|(s, (_, side, t))| Event::data(s as u64, side, t))
            .collect()
    }

    fn run_scale(cfg: EngineConfig, events: &[Event]) -> (RunStats, Vec<FeatureRow>) {
        let (sink, rows) = Sink::collect();
        let mut engine = ScaleOij::spawn(cfg, sink).unwrap();
        for e in events {
            engine.push(e.clone()).unwrap();
        }
        let stats = engine.finish().unwrap();
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        (stats, got)
    }

    fn assert_rows_equal(got: &[FeatureRow], want: &[FeatureRow]) {
        assert_eq!(got.len(), want.len(), "row count");
        for (g, o) in got.iter().zip(want) {
            assert_eq!(g.seq, o.seq);
            assert_eq!(g.matched, o.matched, "seq {}", g.seq);
            assert!(
                g.agg_approx_eq(o, 1e-9),
                "seq {}: {:?} vs {:?}",
                g.seq,
                g.agg,
                o.agg
            );
        }
    }

    #[test]
    fn single_joiner_eager_matches_oracle() {
        let q = query(100, 50, EmitMode::Eager);
        let events = disordered_events(3000, 6, 50);
        let want = Oracle::new(q.clone()).run(&events);
        let (stats, got) = run_scale(EngineConfig::new(q, 1).unwrap(), &events);
        assert_eq!(stats.results as usize, want.len());
        assert_rows_equal(&got, &want);
    }

    #[test]
    fn watermark_mode_is_exact_with_four_joiners_and_disorder() {
        let q = query(120, 300, EmitMode::Watermark);
        let events = disordered_events(5000, 4, 300);
        let want = Oracle::new(q.clone()).run(&events);
        let (_, got) = run_scale(EngineConfig::new(q, 4).unwrap(), &events);
        let mut want = want;
        want.sort_by_key(|r| r.seq);
        assert_rows_equal(&got, &want);
    }

    #[test]
    fn watermark_incremental_equals_non_incremental() {
        let q = query(200, 150, EmitMode::Watermark);
        let events = disordered_events(4000, 3, 150);
        let (_, with_inc) = run_scale(EngineConfig::new(q.clone(), 3).unwrap(), &events);
        let (_, without) = run_scale(
            EngineConfig::new(q, 3).unwrap().without_incremental(),
            &events,
        );
        assert_rows_equal(&with_inc, &without);
    }

    #[test]
    fn eager_multi_joiner_never_exceeds_the_watermark_oracle() {
        // The cross-member race makes eager J>1 approximate: the engine
        // may miss probes still in flight, but it can never see more than
        // the settled window holds. How close it gets is timing, so it is
        // not asserted; exact eager equality is
        // `single_joiner_eager_matches_oracle`.
        let q = query(100, 0, EmitMode::Eager);
        let events = in_order_events(8000, 8, 3);
        let exact = Oracle::new(OijQuery {
            emit: EmitMode::Watermark,
            ..q.clone()
        })
        .run(&events);
        let (_, got) = run_scale(EngineConfig::new(q, 4).unwrap(), &events);
        // One row per base tuple in either emission mode.
        assert_eq!(got.len(), exact.len());
        for (g, x) in got.iter().zip(&exact) {
            assert!(g.matched <= x.matched, "seq {}: engine saw too much", g.seq);
        }
    }

    #[test]
    fn bucket_cells_cut_the_nodes_visited_under_disorder() {
        // `skew.late`'s shape: window = lateness, arrival jitter 0.4 × the
        // window, eager emission — at most the jitter's worth of a window
        // is ever settled. One joiner, so every count is deterministic.
        let q = query(2_000, 2_000, EmitMode::Eager);
        let events = disordered_events(30_000, 4, 800);
        let run = |shape| {
            let (sink, rows) = Sink::collect();
            let cfg = EngineConfig::new(q.clone(), 1).unwrap();
            let mut engine = ScaleOij::spawn_summarised(cfg, sink, shape).unwrap();
            for e in &events {
                engine.push(e.clone()).unwrap();
            }
            let stats = engine.finish().unwrap();
            let got = rows.lock().clone();
            (stats, got)
        };
        let shape = SummaryShape::for_window(&q.window);
        assert!(shape.is_some_and(|s| s.spans_window()), "{shape:?}");
        let (with, with_rows) = run(shape);
        let (without, without_rows) = run(None);
        assert_rows_equal(&with_rows, &without_rows);
        assert_eq!(without.cells_merged, 0);
        assert!(with.cells_merged > 0);
        assert!(
            with.nodes_visited * 3 <= without.nodes_visited,
            "nodes visited per base: {:.1} with cells, {:.1} without",
            with.nodes_visited as f64 / with.results as f64,
            without.nodes_visited as f64 / without.results as f64,
        );
        // The counters are counts, not timings: they repeat exactly.
        let (again, _) = run(shape);
        assert_eq!(
            (again.nodes_visited, again.cells_merged),
            (with.nodes_visited, with.cells_merged)
        );
    }

    #[test]
    fn dynamic_schedule_balances_few_keys() {
        // 2 keys on 4 joiners: Key-OIJ leaves ≥2 joiners idle; Scale-OIJ's
        // replication spreads the load.
        let q = query(50, 0, EmitMode::Eager);
        let mut events = Vec::new();
        for i in 0..60_000u64 {
            events.push(Event::data(
                i,
                if i % 4 == 0 { Side::Base } else { Side::Probe },
                Tuple::new(Timestamp::from_micros(i as i64), i % 2, 1.0),
            ));
        }
        let (scale_stats, _) = run_scale(EngineConfig::new(q.clone(), 4).unwrap(), &events);

        let (sink, _) = Sink::collect();
        let mut key = KeyOij::spawn(EngineConfig::new(q, 4).unwrap(), sink).unwrap();
        for e in &events {
            key.push(e.clone()).unwrap();
        }
        let key_stats = key.finish().unwrap();

        assert!(
            scale_stats.schedule_changes > 0,
            "the schedule never changed"
        );
        assert!(
            scale_stats.unbalancedness < key_stats.unbalancedness * 0.7,
            "scale {} vs key {} (loads {:?} vs {:?})",
            scale_stats.unbalancedness,
            key_stats.unbalancedness,
            scale_stats.joiner_loads,
            key_stats.joiner_loads
        );
        let idle = scale_stats.joiner_loads.iter().filter(|&&l| l == 0).count();
        assert_eq!(idle, 0, "loads: {:?}", scale_stats.joiner_loads);
    }

    #[test]
    fn effectiveness_stays_one_under_large_lateness() {
        // The Figure 11 mechanism: Scale-OIJ's time-travel index never
        // visits out-of-window tuples, Key-OIJ's full scan does.
        let q = query(50, 2000, EmitMode::Eager);
        let events = disordered_events(20_000, 4, 2000);

        let cfg = EngineConfig::new(q.clone(), 2)
            .unwrap()
            .without_incremental()
            .with_instrument(Instrumentation {
                effectiveness: true,
                ..Instrumentation::none()
            });
        let (scale_stats, _) = run_scale(cfg, &events);

        let (sink, _) = Sink::collect();
        let key_cfg = EngineConfig::new(q, 2)
            .unwrap()
            .with_instrument(Instrumentation {
                effectiveness: true,
                ..Instrumentation::none()
            });
        let mut key = KeyOij::spawn(key_cfg, sink).unwrap();
        for e in &events {
            key.push(e.clone()).unwrap();
        }
        let key_stats = key.finish().unwrap();

        let scale_eff = scale_stats.effectiveness.unwrap();
        let key_eff = key_stats.effectiveness.unwrap();
        assert!(scale_eff > 0.999, "scale effectiveness {scale_eff}");
        assert!(key_eff < 0.5, "key effectiveness {key_eff}");
    }

    #[test]
    fn min_max_incremental_two_stack_stays_correct() {
        // min/max use the two-stack incremental extension (the paper's
        // future-work item); they must stay exact under disorder, with and
        // without the incremental path.
        for agg in [AggSpec::Max, AggSpec::Min] {
            let mut q = query(80, 100, EmitMode::Watermark);
            q.agg = agg;
            let events = disordered_events(3000, 5, 100);
            let mut want = Oracle::new(q.clone()).run(&events);
            want.sort_by_key(|r| r.seq);
            let (_, with_inc) = run_scale(EngineConfig::new(q.clone(), 2).unwrap(), &events);
            assert_rows_equal(&with_inc, &want);
            let (_, without) = run_scale(
                EngineConfig::new(q, 2).unwrap().without_incremental(),
                &events,
            );
            assert_rows_equal(&without, &want);
        }
    }

    #[test]
    fn eviction_never_outruns_a_freshly_built_state() {
        // Two hot keys, a schedule pass every 256 routed tuples and a
        // sweep every third message: teammates evict all the time while
        // states are built for keys they share. A teammate's sweep may
        // evict tuples a state still counts; the state must then subtract
        // its own copies, or rows over-count. The race needs the schedule
        // change to land mid-stream, and the event-count cadence puts it
        // there on every run.
        let mut q = query(1_500, 160, EmitMode::Watermark);
        q.agg = AggSpec::Max;
        let events = disordered_events(6_000, 2, 1);
        let mut want = Oracle::new(q.clone()).run(&events);
        want.sort_by_key(|r| r.seq);
        let mut cfg = EngineConfig::new(q, 2).unwrap();
        cfg.expire_every = 3;
        cfg.heartbeat_every = 16;
        let (stats, got) = run_scale(cfg, &events);
        assert!(stats.schedule_changes >= 1, "no mid-stream schedule change");
        assert_rows_equal(&got, &want);
    }

    #[test]
    fn routing_is_a_pure_function_of_input_and_config() {
        // Skewed keys on two joiners, a pass every 128 routed tuples: the
        // schedule changes mid-stream, and how many tuples each joiner
        // processes must still repeat exactly, run after run.
        let q = query(200, 0, EmitMode::Eager);
        let mut x = 7u64;
        let events: Vec<Event> = (0..20_000u64)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Key 0 takes half the tuples; 15 others share the rest.
                let key = if (x >> 33).is_multiple_of(2) {
                    0
                } else {
                    (x >> 40) % 15 + 1
                };
                let side = if i % 4 == 0 { Side::Base } else { Side::Probe };
                Event::data(
                    i,
                    side,
                    Tuple::new(Timestamp::from_micros(i as i64), key, 1.0),
                )
            })
            .collect();
        let run = || {
            let mut cfg = EngineConfig::new(q.clone(), 2).unwrap();
            cfg.heartbeat_every = 8;
            run_scale(cfg, &events).0
        };
        let first = run();
        assert!(first.schedule_changes > 0, "the schedule never changed");
        for _ in 0..3 {
            let again = run();
            assert_eq!(again.joiner_loads, first.joiner_loads);
            assert_eq!(again.schedule_changes, first.schedule_changes);
        }
    }

    #[test]
    fn expiration_under_watermark_mode_stays_exact() {
        let q = query(60, 100, EmitMode::Watermark);
        let mut cfg = EngineConfig::new(q.clone(), 3).unwrap();
        cfg.expire_every = 8;
        cfg.heartbeat_every = 64;
        let events = disordered_events(6000, 4, 100);
        let want = Oracle::new(q).run(&events);
        let (stats, got) = run_scale(cfg, &events);
        assert!(stats.evicted > 0, "expiration must have run");
        let mut want = want;
        want.sort_by_key(|r| r.seq);
        assert_rows_equal(&got, &want);
    }
}
