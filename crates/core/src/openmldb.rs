//! **OpenMLDB baseline** — the unmodified feature-store execution path the
//! paper compares against in §V-E (Figures 22–23).
//!
//! OpenMLDB's online engine is a read-optimised in-memory store: ordered
//! per-key time series, shared by all processing threads. Two properties
//! make it struggle with streams, both modelled here:
//!
//! 1. **Shared-state insertion**: "all the processing threads share the
//!    same data structure; thus insertion will become a potential
//!    performance bottleneck". We model the store as one map behind a
//!    writer-exclusive `RwLock`: every insert blocks all readers and
//!    writers.
//! 2. **No disorder handling**: "it cannot properly handle data
//!    out-of-order". The paper disables accuracy checking for this
//!    comparison, so the baseline ignores lateness entirely: tuples join
//!    against whatever is present (eager), and retention ignores `l`.
//!
//! The read path is genuinely good — an ordered time-range scan over the
//! configured index backend (OpenMLDB's skip-list storage) — which is why
//! the baseline holds up at low arrival rates (Workload D) and collapses
//! at high ones.

use crate::sync::atomic::{AtomicI64, Ordering};
use crate::sync::RwLock;
use std::sync::Arc;
use std::time::Instant;

use oij_agg::FullWindowAgg;
use oij_common::{EmitMode, Error, FeatureRow, Result, Timestamp};
use oij_index::{BackendReader, BackendWriter, Exclusive, OijIndexReader, OijIndexWriter};

use crate::config::EngineConfig;
use crate::driver::open_durability;
use crate::instrument::JoinerInstruments;
use crate::message::DataMsg;
use crate::shell::{emit, forward_engine, EngineShell, Joiner, ProbeRuns, RoundRobin, Supervision};
use crate::sink::{worker_sink_stack, Sink};

/// The shared store: one backend index writer behind a writer-exclusive
/// lock (the insertion bottleneck the paper measures), plus its snapshot
/// reader handle. Workers still scan under the *read* lock: this models
/// OpenMLDB's reader/writer contention faithfully, and it is also
/// load-bearing for correctness — `insert_batch` may defer publication to
/// the end of a run, and the run executes under the write lock, so no
/// reader can observe a half-published batch.
struct Store {
    writer: RwLock<Exclusive<BackendWriter>>,
    reader: BackendReader,
}

/// The OpenMLDB-style baseline engine. See the [module docs](self).
///
/// Only `EmitMode::Eager` is supported — the store has no watermark
/// machinery, which is precisely the paper's point.
pub struct OpenMldbBaseline(EngineShell<RoundRobin>);

impl OpenMldbBaseline {
    /// Spawns the worker threads over one shared store.
    pub fn spawn(cfg: EngineConfig, sink: Sink) -> Result<Self> {
        cfg.validate()?;
        if cfg.query.emit == EmitMode::Watermark {
            return Err(Error::InvalidConfig(
                "the OpenMLDB baseline has no out-of-order handling; \
                 watermark emission is unsupported (paper §V-E)"
                    .into(),
            ));
        }
        let (writer, reader) = cfg.index_backend.build();
        let store: Arc<Store> = Arc::new(Store {
            writer: RwLock::new("openmldb_store", Exclusive::new(writer)),
            reader,
        });
        // Deduplicates concurrent expiration sweeps.
        let expired_to = Arc::new(AtomicI64::new(i64::MIN));
        let sup = Supervision::default();
        // The baseline never emits side-output markers.
        let durable = open_durability(&cfg, false)?;
        let workers = (0..cfg.joiners)
            .map(|id| MldbWorker {
                cfg: cfg.clone(),
                sink: worker_sink_stack(&cfg, id, sink.clone(), &durable, &sup),
                store: Arc::clone(&store),
                expired_to: Arc::clone(&expired_to),
            })
            .collect();
        let routing = RoundRobin {
            joiners: cfg.joiners,
            last: 0,
        };
        EngineShell::assemble("openmldb", &cfg, durable, sup, routing, workers, None)
            .map(OpenMldbBaseline)
    }
}

forward_engine!(OpenMldbBaseline);

struct MldbWorker {
    cfg: EngineConfig,
    sink: Sink,
    store: Arc<Store>,
    expired_to: Arc<AtomicI64>,
}

impl Joiner<DataMsg> for MldbWorker {
    /// One writer-lock acquisition covers a whole run of consecutive
    /// probes. Deferred publication is safe because readers scan under
    /// the read lock, so no reader can overlap the run.
    const PROBE_RUNS: ProbeRuns = ProbeRuns::AnyKey;

    fn store(&mut self, _inst: &mut JoinerInstruments, probe: DataMsg) {
        // The bottleneck the paper measures: a writer-exclusive lock over
        // the whole store per insertion.
        let mut store = self.store.writer.write();
        store.get_mut().insert(probe.tuple);
    }

    fn store_run(&mut self, run: impl Iterator<Item = DataMsg>) {
        let run = run.map(|m| (m.tuple, false)).collect();
        let mut store = self.store.writer.write();
        store.get_mut().insert_batch(run);
    }

    fn answer(&mut self, inst: &mut JoinerInstruments, base: &DataMsg, _frontier: Timestamp) {
        let (key, ts) = (base.tuple.key, base.tuple.ts);
        let window = self.cfg.query.window.window_of(ts);
        let mut agg = FullWindowAgg::new(self.cfg.query.agg);
        {
            // Read path: ordered range scan — OpenMLDB is good at this. The
            // read lock models the shared-store contention (and guarantees
            // no half-published batch is visible; see [`Store`]).
            let store = self.store.writer.read();
            let lookup_t0 = inst.wants_breakdown().then(Instant::now);
            self.store
                .reader
                .scan_ts_range(key, window.start, window.end, |t| agg.add(t.value));
            if let Some(t0) = lookup_t0 {
                // Ordered scans fuse lookup+match; attribute to lookup.
                inst.add_breakdown(t0.elapsed().as_nanos() as u64, 0, 0);
            }
            drop(store);
        }
        let matched = agg.count();
        inst.record_effectiveness(matched, matched);
        let row = FeatureRow::new(ts, key, base.seq, agg.finish(), matched);
        emit(&self.sink, inst, row, base.arrival);
    }

    fn evict(&mut self, wm: Timestamp) -> u64 {
        if wm == Timestamp::MIN {
            return 0;
        }
        // No lateness slack — the baseline ignores disorder. Retention is
        // the window length only.
        let bound = (wm + self.cfg.query.window.lateness)
            .saturating_sub(self.cfg.query.window.length())
            .as_micros();
        // ORDERING: AcqRel — the winning worker both observes the previous bound (Acquire) and publishes the new one to later callers (Release), so expiry never runs twice for one bound.
        // Skip if another worker already expired past this bound.
        if self.expired_to.fetch_max(bound, Ordering::AcqRel) >= bound {
            return 0;
        }
        let mut store = self.store.writer.write();
        store.get_mut().evict_below(Timestamp::from_micros(bound)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OijEngine;
    use crate::oracle::Oracle;
    use oij_common::{AggSpec, Duration, Event, OijQuery, Side, Tuple};

    fn query(pre: i64) -> OijQuery {
        OijQuery::builder()
            .preceding(Duration::from_micros(pre))
            .agg(AggSpec::Sum)
            .build()
            .unwrap()
    }

    fn in_order_events(n: u64, keys: u64) -> Vec<Event> {
        let mut events = Vec::new();
        let mut x = 41u64;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let side = if x.is_multiple_of(3) {
                Side::Base
            } else {
                Side::Probe
            };
            events.push(Event::data(
                i,
                side,
                Tuple::new(Timestamp::from_micros(i as i64), x % keys, (x % 15) as f64),
            ));
        }
        events
    }

    #[test]
    fn rejects_watermark_mode() {
        let q = OijQuery {
            emit: EmitMode::Watermark,
            ..query(10)
        };
        let (sink, _) = Sink::collect();
        assert!(OpenMldbBaseline::spawn(EngineConfig::new(q, 1).unwrap(), sink).is_err());
    }

    #[test]
    fn single_worker_matches_eager_oracle() {
        let q = query(80);
        let events = in_order_events(3000, 5);
        let want = Oracle::new(q.clone()).run(&events);
        let (sink, rows) = Sink::collect();
        let mut engine = OpenMldbBaseline::spawn(EngineConfig::new(q, 1).unwrap(), sink).unwrap();
        for e in &events {
            engine.push(e.clone()).unwrap();
        }
        let stats = engine.finish().unwrap();
        assert_eq!(stats.results as usize, want.len());
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        for (g, o) in got.iter().zip(&want) {
            assert_eq!(g.matched, o.matched, "seq {}", g.seq);
            assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
        }
    }

    #[test]
    fn multi_worker_is_near_oracle_on_in_order_streams() {
        // The shared store is globally consistent, but round-robin dispatch
        // means a base may be served before an earlier probe is inserted —
        // bounded by the in-flight window.
        let q = query(100);
        let events = in_order_events(6000, 4);
        let want = Oracle::new(q.clone()).run(&events);
        let (sink, rows) = Sink::collect();
        let mut engine = OpenMldbBaseline::spawn(EngineConfig::new(q, 4).unwrap(), sink).unwrap();
        for e in &events {
            engine.push(e.clone()).unwrap();
        }
        engine.finish().unwrap();
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        assert_eq!(got.len(), want.len());
        let close = got
            .iter()
            .zip(&want)
            .filter(|(g, o)| g.matched.abs_diff(o.matched) <= 4)
            .count();
        assert!(
            close as f64 > got.len() as f64 * 0.9,
            "{close}/{} rows close to oracle",
            got.len()
        );
    }

    #[test]
    fn expiration_runs_once_per_bound() {
        let q = query(50);
        let mut cfg = EngineConfig::new(q, 2).unwrap();
        cfg.expire_every = 16;
        let events = in_order_events(4000, 3);
        let (sink, _) = Sink::collect();
        let mut engine = OpenMldbBaseline::spawn(cfg, sink).unwrap();
        for e in &events {
            engine.push(e.clone()).unwrap();
        }
        let stats = engine.finish().unwrap();
        assert!(stats.evicted > 0);
        // With retention = window only, storage stays near the window size;
        // most of the stream must have been evicted.
        assert!(stats.evicted > events.len() as u64 / 4);
    }
}
