//! **SplitJoin-OIJ** — SplitJoin (Najafi et al., USENIX ATC'16) adapted to
//! online interval join semantics (paper §V-D).
//!
//! SplitJoin's top-down model splits the join into independent *store* and
//! *process* steps: every incoming tuple is **broadcast** to all joiners;
//! each joiner **stores** only its round-robin slice of the probe stream
//! but **processes** every base tuple against that slice, emitting a
//! partial window aggregate. A collector merges the `J` partials per base
//! tuple into the final feature row. Per the paper's adaptation, each join
//! comparison carries an extra predicate filtering tuples outside the
//! relative window.
//!
//! Characteristics the paper observes, reproduced by construction:
//! perfectly balanced load (everybody processes everything) but heavy
//! broadcast traffic and full-scan lookups, so throughput trails Scale-OIJ
//! and degrades with thread count when windows are small (Figure 21).

use crate::sync::atomic::AtomicBool;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crossbeam_channel::{bounded, Receiver, Sender};

use oij_agg::PartialAgg;
use oij_common::{FeatureRow, Key, Result, Timestamp};

use crate::config::EngineConfig;
use crate::driver::open_durability;
use crate::engine::RunStats;
use crate::faults::{FaultAction, WorkerFaults};
use crate::instrument::JoinerInstruments;
use crate::keyoij::{FullScanJoiner, Slice};
use crate::message::DataMsg;
use crate::shell::{forward_engine, AuxRole, AuxThread, Broadcast, EngineShell, Supervision};
use crate::sink::{worker_sink_stack, Sink};

/// The SplitJoin-OIJ engine. See the [module docs](self).
///
/// In a [`FaultPlan`](crate::faults::FaultPlan), the collector is
/// addressed as worker `joiners` (one past the last joiner id) — its sink
/// faults and message faults bind there.
pub struct SplitJoin(EngineShell<Broadcast, Collector>);

/// What one joiner tells the collector about one base tuple.
struct Partial {
    seq: u64,
    key: Key,
    ts: Timestamp,
    arrival: Instant,
    agg: PartialAgg,
}

enum ToCollector {
    Partial(Box<Partial>),
    JoinerDone,
}

struct CollectorReport {
    results: u64,
    latency: Option<oij_metrics::LatencyHistogram>,
}

/// The collector's auxiliary-thread role: joined after the joiners whose
/// partials it merges.
struct Collector;

impl AuxRole for Collector {
    type Report = CollectorReport;
    const LABEL: &'static str = "splitjoin-collector";

    /// The collector is the only thread that emits to the sink, so without
    /// its report no emitted-row count can be claimed.
    fn fold(report: Option<CollectorReport>, stats: &mut RunStats) -> usize {
        let Some(col) = report else {
            stats.results = 0;
            return 1;
        };
        stats.results = col.results;
        match (&mut stats.latency, col.latency) {
            (Some(acc), Some(h)) => acc.merge(&h),
            (slot @ None, Some(h)) => *slot = Some(h),
            _ => {}
        }
        0
    }
}

impl SplitJoin {
    /// Spawns the joiners and the collector.
    pub fn spawn(cfg: EngineConfig, sink: Sink) -> Result<Self> {
        cfg.validate()?;
        let joiners = cfg.joiners;
        // Partial results fan in from every joiner.
        let (col_tx, col_rx) = bounded::<ToCollector>(cfg.channel_capacity);
        let sup = Supervision::default();
        // SplitJoin never emits side-output markers.
        let durable = open_durability(&cfg, false)?;
        let workers = (0..joiners)
            .map(|id| {
                let collector = col_tx.clone();
                let share = Share {
                    id,
                    joiners,
                    collector,
                };
                FullScanJoiner::new(&cfg, share)
            })
            .collect();
        drop(col_tx);

        let latency_on = cfg.instrument.latency;
        let spec = cfg.query.agg;
        // The sink lives on the collector; its faults (and any message
        // faults for the collector itself) are addressed as worker
        // `joiners` in the plan.
        let col_sink = worker_sink_stack(&cfg, joiners, sink, &durable, &sup);
        let col_faults = cfg
            .faults
            .for_worker(joiners, Collector::LABEL, &sup.failures);
        let kill = Arc::clone(&sup.kill);
        let collector = AuxThread::spawn(joiners, cfg.send_timeout, &sup, move || {
            collector_loop(
                col_rx, joiners, spec, col_sink, latency_on, col_faults, kill,
            )
        })?;
        EngineShell::assemble(
            "splitjoin",
            &cfg,
            durable,
            sup,
            Broadcast,
            workers,
            Some(collector),
        )
        .map(SplitJoin)
    }
}

forward_engine!(SplitJoin);

fn collector_loop(
    rx: Receiver<ToCollector>,
    joiners: usize,
    spec: oij_common::AggSpec,
    sink: Sink,
    latency_on: bool,
    faults: Option<WorkerFaults>,
    kill: Arc<AtomicBool>,
) -> CollectorReport {
    let mut open: HashMap<u64, (Partial, usize)> = HashMap::new();
    let mut done = 0usize;
    let mut results = 0u64;
    let mut ordinal = 0u64;
    let mut latency = latency_on.then(oij_metrics::LatencyHistogram::new);
    for msg in rx {
        match msg {
            ToCollector::JoinerDone => {
                done += 1;
                if done == joiners {
                    break;
                }
            }
            ToCollector::Partial(p) => {
                if let Some(f) = &faults {
                    let action = f.before_message(ordinal, &kill);
                    ordinal += 1;
                    if action == FaultAction::Exit {
                        return CollectorReport { results, latency };
                    }
                }
                let p = *p;
                let seq = p.seq;
                let entry = open.entry(seq).or_insert_with(|| {
                    (
                        Partial {
                            seq: p.seq,
                            key: p.key,
                            ts: p.ts,
                            arrival: p.arrival,
                            agg: PartialAgg::empty(),
                        },
                        0,
                    )
                });
                entry.0.agg.merge(&p.agg);
                entry.1 += 1;
                if entry.1 == joiners {
                    let (full, _) = open.remove(&seq).expect("just inserted");
                    sink.emit(FeatureRow::new(
                        full.ts,
                        full.key,
                        full.seq,
                        full.agg.finish(spec),
                        full.agg.count,
                    ));
                    results += 1;
                    if let Some(h) = &mut latency {
                        h.record(full.arrival.elapsed().as_nanos() as u64);
                    }
                }
            }
        }
    }
    // On a clean shutdown every partial merged; after a joiner failure the
    // channel disconnects early and unmerged partials are expected.
    debug_assert!(
        done < joiners || open.is_empty(),
        "unmerged partial results at clean shutdown"
    );
    CollectorReport { results, latency }
}

/// SplitJoin's [`Slice`] of a [`FullScanJoiner`]: stores its round-robin
/// share of the probe stream, processes every base tuple against it and
/// ships the partial aggregate to the collector.
struct Share {
    id: usize,
    joiners: usize,
    collector: Sender<ToCollector>,
}

impl Slice for Share {
    fn owns(&self, seq: u64) -> bool {
        seq as usize % self.joiners == self.id
    }

    fn deliver(&mut self, inst: &mut JoinerInstruments, base: &DataMsg, agg: PartialAgg) {
        // Partial results produced by this joiner.
        inst.results += 1;
        // The collector loops on recv until all JoinerDone markers arrive
        // and never sends back to joiners, so this edge cannot cycle; a
        // dead collector surfaces as a send error, not a wedge.
        let _ = self.collector.send(ToCollector::Partial(Box::new(Partial {
            seq: base.seq,
            key: base.tuple.key,
            ts: base.tuple.ts,
            arrival: base.arrival,
            agg,
        })));
    }

    /// Every broadcast message reached every joiner, so the local slice
    /// was complete when the deferred bases drained.
    fn close(&mut self) {
        // Teardown marker; the collector drains until every joiner's Done
        // arrives, so this send can only block while it is still reading.
        let _ = self.collector.send(ToCollector::JoinerDone);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OijEngine;
    use crate::oracle::Oracle;
    use oij_common::{AggSpec, Duration, EmitMode, Event, OijQuery, Side, Tuple};

    fn query(pre: i64, lateness: i64, emit: EmitMode) -> OijQuery {
        OijQuery::builder()
            .preceding(Duration::from_micros(pre))
            .lateness(Duration::from_micros(lateness))
            .agg(AggSpec::Sum)
            .emit(emit)
            .build()
            .unwrap()
    }

    fn run_split(cfg: EngineConfig, events: &[Event]) -> (RunStats, Vec<FeatureRow>) {
        let (sink, rows) = Sink::collect();
        let mut engine = SplitJoin::spawn(cfg, sink).unwrap();
        for e in events {
            engine.push(e.clone()).unwrap();
        }
        let stats = engine.finish().unwrap();
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        (stats, got)
    }

    fn random_events(n: u64, keys: u64, jitter: i64) -> Vec<Event> {
        let mut staged: Vec<(i64, Side, Tuple)> = Vec::new();
        let mut x = 77u64;
        for i in 0..n as i64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let side = if x.is_multiple_of(3) {
                Side::Base
            } else {
                Side::Probe
            };
            let j = if jitter > 0 {
                (x >> 11) as i64 % jitter
            } else {
                0
            };
            staged.push((
                i + j,
                side,
                Tuple::new(Timestamp::from_micros(i), x % keys, (x % 20) as f64),
            ));
        }
        staged.sort_by_key(|(a, _, _)| *a);
        staged
            .into_iter()
            .enumerate()
            .map(|(s, (_, side, t))| Event::data(s as u64, side, t))
            .collect()
    }

    #[test]
    fn broadcast_slicing_is_exact_in_eager_mode() {
        // Unlike Scale-OIJ, SplitJoin's broadcast gives every joiner a
        // consistent arrival prefix, so eager results are deterministic and
        // match the oracle for any J — even under disorder.
        let q = query(100, 80, EmitMode::Eager);
        let events = random_events(4000, 6, 80);
        let want = Oracle::new(q.clone()).run(&events);
        for joiners in [1usize, 3] {
            let (stats, got) = run_split(EngineConfig::new(q.clone(), joiners).unwrap(), &events);
            assert_eq!(stats.results as usize, want.len(), "J={joiners}");
            assert_eq!(got.len(), want.len());
            for (g, o) in got.iter().zip(&want) {
                assert_eq!(g.matched, o.matched, "J={joiners} seq {}", g.seq);
                assert!(g.agg_approx_eq(o, 1e-9), "J={joiners} seq {}", g.seq);
            }
        }
    }

    #[test]
    fn watermark_mode_is_exact() {
        let q = query(90, 200, EmitMode::Watermark);
        let events = random_events(4000, 4, 200);
        let want = Oracle::new(q.clone()).run(&events);
        let mut want = want;
        want.sort_by_key(|r| r.seq);
        let (_, got) = run_split(EngineConfig::new(q, 4).unwrap(), &events);
        assert_eq!(got.len(), want.len());
        for (g, o) in got.iter().zip(&want) {
            assert_eq!(g.matched, o.matched, "seq {}", g.seq);
            assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
        }
    }

    #[test]
    fn loads_are_perfectly_balanced() {
        let q = query(50, 0, EmitMode::Eager);
        let events = random_events(3000, 2, 0); // few keys — SplitJoin doesn't care
        let (stats, _) = run_split(EngineConfig::new(q, 4).unwrap(), &events);
        assert!(
            stats.unbalancedness < 1e-9,
            "loads: {:?}",
            stats.joiner_loads
        );
        // Everyone processed everything (the broadcast cost).
        for &l in &stats.joiner_loads {
            assert_eq!(l, events.len() as u64);
        }
    }

    #[test]
    fn min_aggregate_through_partials() {
        let mut q = query(100, 0, EmitMode::Eager);
        q.agg = AggSpec::Min;
        let events = random_events(2000, 3, 0);
        let want = Oracle::new(q.clone()).run(&events);
        let (_, got) = run_split(EngineConfig::new(q, 3).unwrap(), &events);
        for (g, o) in got.iter().zip(&want) {
            assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
        }
    }

    #[test]
    fn expiration_preserves_results() {
        let q = query(40, 30, EmitMode::Eager);
        let mut cfg = EngineConfig::new(q.clone(), 2).unwrap();
        cfg.expire_every = 4;
        let events = random_events(3000, 4, 30);
        let want = Oracle::new(q).run(&events);
        let (stats, got) = run_split(cfg, &events);
        assert!(stats.evicted > 0);
        for (g, o) in got.iter().zip(&want) {
            assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
        }
    }
}
