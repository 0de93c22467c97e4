//! **Key-OIJ** — the Flink-style key-partitioned parallel OIJ baseline
//! (paper §II-C).
//!
//! Every tuple is routed by `hash(key) mod J` to a statically bound joiner.
//! Each joiner buffers probe tuples per key in the configured
//! [`IndexBackend`](crate::config::EngineConfig::index_backend); every base
//! tuple triggers a **full scan** of its key's buffer — the whole retained
//! timestamp range, filtering by the window predicate engine-side — so the
//! baseline keeps its defining inefficiency no matter how capable the
//! backing store is. Expired tuples are removed by periodic sweeps. These
//! three properties are exactly what the paper's study blames for
//! Key-OIJ's pitfalls:
//!
//! 1. lateness forces the buffers to hold (and every scan to wade through)
//!    out-of-window tuples (Figure 7),
//! 2. a small key count starves most joiners (Figure 8a),
//! 3. overlapping windows are recomputed from scratch (Figure 9).

use std::time::Instant;

use oij_agg::PartialAgg;
use oij_common::{AggSpec, FeatureRow, Key, Result, Timestamp, Window, WindowSpec};
use oij_index::{BackendReader, BackendWriter, OijIndexReader, OijIndexWriter};

use crate::config::EngineConfig;
use crate::driver::open_durability;
use crate::instrument::JoinerInstruments;
use crate::message::DataMsg;
use crate::shell::{
    emit, forward_engine, insert_probe, EngineShell, HashRoute, Joiner, ProbeRuns, Supervision,
};
use crate::sink::{worker_sink_stack, Sink};

/// The Key-OIJ engine. See the [module docs](self).
pub struct KeyOij(EngineShell<HashRoute>);

impl KeyOij {
    /// Spawns the joiner threads and returns the ready engine.
    pub fn spawn(cfg: EngineConfig, sink: Sink) -> Result<Self> {
        cfg.validate()?;
        let sup = Supervision::default();
        // Key-OIJ never emits side-output markers (SideOutput degrades to
        // Drop here), so late tuples join best-effort and must be retained.
        let durable = open_durability(&cfg, false)?;
        let joiners = (0..cfg.joiners)
            .map(|id| {
                let sink = worker_sink_stack(&cfg, id, sink.clone(), &durable, &sup);
                let agg = cfg.query.agg;
                FullScanJoiner::new(&cfg, ToSink { sink, agg })
            })
            .collect();
        let routing = HashRoute(cfg.joiners as u64);
        EngineShell::assemble("key-oij", &cfg, durable, sup, routing, joiners, None).map(KeyOij)
    }
}

forward_engine!(KeyOij);

/// What tells the two full-scan baselines apart: which probes a joiner
/// stores, and where one base tuple's aggregate over that store goes.
pub(crate) trait Slice {
    /// Store step: whether this joiner keeps the probe that arrived as
    /// `seq`.
    fn owns(&self, _seq: u64) -> bool {
        true
    }
    /// Process step: hands on `base`'s aggregate over this joiner's store.
    fn deliver(&mut self, inst: &mut JoinerInstruments, base: &DataMsg, agg: PartialAgg);
    /// Clean end of input, after the final drain.
    fn close(&mut self) {}
}

/// Key-OIJ: the joiner owns its keys outright, so the aggregate is the
/// feature row.
struct ToSink {
    sink: Sink,
    agg: AggSpec,
}

impl Slice for ToSink {
    fn deliver(&mut self, inst: &mut JoinerInstruments, base: &DataMsg, agg: PartialAgg) {
        let (t, value) = (&base.tuple, agg.finish(self.agg));
        let row = FeatureRow::new(t.ts, t.key, base.seq, value, agg.count);
        emit(&self.sink, inst, row, base.arrival);
    }
}

/// One worker thread of a full-scan baseline (Key-OIJ, and SplitJoin per
/// slice): probe tuples are buffered per key behind the pluggable index
/// backend, and every base tuple is answered by a [`scan_unpruned`] of
/// its key's whole retained buffer, so lateness still inflates every
/// scan, Figure 7 style.
pub(crate) struct FullScanJoiner<S> {
    window: WindowSpec,
    writer: BackendWriter,
    reader: BackendReader,
    node_bytes: usize,
    slice: S,
}

impl<S> FullScanJoiner<S> {
    pub(crate) fn new(cfg: &EngineConfig, slice: S) -> Self {
        let (writer, reader) = cfg.index_backend.build();
        FullScanJoiner {
            window: cfg.query.window,
            node_bytes: writer.node_footprint(),
            writer,
            reader,
            slice,
        }
    }
}

impl<S: Slice> Joiner<DataMsg> for FullScanJoiner<S> {
    /// Runs of same-key probes go to the backend as one `insert_batch`.
    const PROBE_RUNS: ProbeRuns = ProbeRuns::SameKey;

    fn store(&mut self, inst: &mut JoinerInstruments, probe: DataMsg) {
        if self.slice.owns(probe.seq) {
            insert_probe(&mut self.writer, inst, probe.tuple);
        }
    }

    fn store_run(&mut self, run: impl Iterator<Item = DataMsg>) {
        // A run with no owned probe inserts nothing, so no key state is
        // created (matching the scalar path).
        let owned: Vec<_> = run
            .filter(|m| self.slice.owns(m.seq))
            .map(|m| (m.tuple, false))
            .collect();
        if !owned.is_empty() {
            self.writer.insert_batch(owned);
        }
    }

    fn answer(&mut self, inst: &mut JoinerInstruments, base: &DataMsg, _frontier: Timestamp) {
        let window = self.window.window_of(base.tuple.ts);
        let mut agg = PartialAgg::empty();
        let (reader, node_bytes, key) = (&self.reader, self.node_bytes, base.tuple.key);
        let visited = scan_unpruned(reader, inst, node_bytes, key, window, |v| agg.add(v));
        inst.record_effectiveness(agg.count, visited);
        self.slice.deliver(inst, base, agg);
    }

    /// Delegated to the backend's `evict_below`. A probe at `t` can still
    /// serve a lateness-compliant base `s ≥ wm` whose window starts at
    /// `s − PRE`; deferred bases reach back a further FOL. Keep
    /// `t ≥ wm − PRE − FOL`.
    fn evict(&mut self, wm: Timestamp) -> u64 {
        if wm == Timestamp::MIN {
            return 0;
        }
        self.writer
            .evict_below(wm.saturating_sub(self.window.length())) as u64
    }

    fn end(&mut self, drain: impl FnOnce(&mut Self)) {
        drain(self);
        self.slice.close();
    }
}

/// The full-scan baselines' lookup (Key-OIJ, and SplitJoin per slice):
/// visits `key`'s **whole** retained range — the backend's timestamp order
/// is deliberately *not* used to prune — filters by `window` engine-side,
/// feeds every in-window value to `add` and returns the tuples visited.
pub(crate) fn scan_unpruned(
    reader: &BackendReader,
    inst: &mut JoinerInstruments,
    node_bytes: usize,
    key: Key,
    window: Window,
    mut add: impl FnMut(f64),
) -> u64 {
    let (min, max) = (Timestamp::MIN, Timestamp::MAX);
    if let Some(cache) = inst.cache.as_mut() {
        // Instrumented scan: feed every node touch into the LLC model,
        // then aggregate as usual.
        reader.scan_ts_range_addr(key, min, max, |t, addr| {
            cache.access(addr, node_bytes);
            if window.contains(t.ts) {
                add(t.value);
            }
        }) as u64
    } else if inst.wants_breakdown() {
        // Two-phase scan so lookup and match are timed separately,
        // mirroring the paper's Figure 6 categories.
        let t0 = Instant::now();
        let mut hits: Vec<f64> = Vec::with_capacity(16);
        let visited = reader.scan_ts_range(key, min, max, |t| {
            if window.contains(t.ts) {
                hits.push(t.value);
            }
        }) as u64;
        let t1 = Instant::now();
        hits.into_iter().for_each(add);
        let matched_ns = t1.elapsed().as_nanos() as u64;
        inst.add_breakdown(t1.duration_since(t0).as_nanos() as u64, matched_ns, 0);
        visited
    } else {
        reader.scan_ts_range(key, min, max, |t| {
            if window.contains(t.ts) {
                add(t.value);
            }
        }) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OijEngine;
    use oij_common::{Duration, EmitMode, Event, OijQuery, Side, Tuple};

    fn query(pre: i64, lateness: i64, emit: EmitMode) -> OijQuery {
        OijQuery::builder()
            .preceding(Duration::from_micros(pre))
            .lateness(Duration::from_micros(lateness))
            .agg(AggSpec::Sum)
            .emit(emit)
            .build()
            .unwrap()
    }

    fn ev(seq: u64, side: Side, ts: i64, key: Key, value: f64) -> Event {
        Event::data(
            seq,
            side,
            Tuple::new(Timestamp::from_micros(ts), key, value),
        )
    }

    #[test]
    fn single_joiner_matches_eager_oracle() {
        let q = query(100, 50, EmitMode::Eager);
        let mut events = Vec::new();
        let mut x = 3u64;
        for i in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let side = if x.is_multiple_of(3) {
                Side::Base
            } else {
                Side::Probe
            };
            events.push(ev(i, side, i as i64 * 2, x % 5, (x % 50) as f64));
        }
        let oracle_rows = crate::oracle::Oracle::new(q.clone()).run(&events);

        let (sink, rows) = Sink::collect();
        let mut engine = KeyOij::spawn(EngineConfig::new(q, 1).unwrap(), sink).unwrap();
        for e in &events {
            engine.push(e.clone()).unwrap();
        }
        let stats = engine.finish().unwrap();
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        assert_eq!(stats.results as usize, oracle_rows.len());
        assert_eq!(got.len(), oracle_rows.len());
        for (g, o) in got.iter().zip(&oracle_rows) {
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
    fn multi_joiner_matches_eager_oracle_in_order() {
        // With in-order streams, key partitioning preserves per-key order,
        // so any J matches the oracle exactly.
        let q = query(60, 0, EmitMode::Eager);
        let mut events = Vec::new();
        let mut x = 11u64;
        for i in 0..3000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let side = if x.is_multiple_of(2) {
                Side::Base
            } else {
                Side::Probe
            };
            events.push(ev(i, side, i as i64, x % 16, (x % 10) as f64));
        }
        let oracle_rows = crate::oracle::Oracle::new(q.clone()).run(&events);

        let (sink, rows) = Sink::collect();
        let mut engine = KeyOij::spawn(EngineConfig::new(q, 4).unwrap(), sink).unwrap();
        for e in &events {
            engine.push(e.clone()).unwrap();
        }
        engine.finish().unwrap();
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        assert_eq!(got.len(), oracle_rows.len());
        for (g, o) in got.iter().zip(&oracle_rows) {
            assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
        }
    }

    #[test]
    fn watermark_mode_is_exact_under_disorder() {
        let q = query(80, 200, EmitMode::Watermark);
        // Build a disordered feed: jitter arrival by ≤ 200µs.
        let mut staged: Vec<(i64, Side, Tuple)> = Vec::new();
        let mut x = 17u64;
        for i in 0..4000i64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let side = if x.is_multiple_of(3) {
                Side::Base
            } else {
                Side::Probe
            };
            let jitter = (x >> 7) as i64 % 200;
            staged.push((
                i + jitter,
                side,
                Tuple::new(Timestamp::from_micros(i), x % 8, (x % 30) as f64),
            ));
        }
        staged.sort_by_key(|(a, _, _)| *a);
        let events: Vec<Event> = staged
            .into_iter()
            .enumerate()
            .map(|(s, (_, side, t))| Event::data(s as u64, side, t))
            .collect();

        let oracle_rows = crate::oracle::Oracle::new(q.clone()).run(&events);
        let (sink, rows) = Sink::collect();
        let mut engine = KeyOij::spawn(EngineConfig::new(q, 4).unwrap(), sink).unwrap();
        for e in &events {
            engine.push(e.clone()).unwrap();
        }
        engine.finish().unwrap();
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        let mut want = oracle_rows.clone();
        want.sort_by_key(|r| r.seq);
        assert_eq!(got.len(), want.len());
        for (g, o) in got.iter().zip(&want) {
            assert_eq!(g.matched, o.matched, "seq {}", g.seq);
            assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
        }
    }

    #[test]
    fn expiration_keeps_results_correct() {
        // Aggressive expiration (every message) must not change results on
        // a lateness-compliant stream.
        let q = query(50, 20, EmitMode::Eager);
        let mut cfg = EngineConfig::new(q.clone(), 2).unwrap();
        cfg.expire_every = 1;
        let mut events = Vec::new();
        for i in 0..2000u64 {
            let side = if i % 2 == 0 { Side::Probe } else { Side::Base };
            events.push(ev(i, side, i as i64 * 3, i % 4, 1.0));
        }
        let oracle_rows = crate::oracle::Oracle::new(q).run(&events);
        let (sink, rows) = Sink::collect();
        let mut engine = KeyOij::spawn(cfg, sink).unwrap();
        for e in &events {
            engine.push(e.clone()).unwrap();
        }
        let stats = engine.finish().unwrap();
        assert!(stats.evicted > 0, "expiration must actually run");
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        for (g, o) in got.iter().zip(&oracle_rows) {
            assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
        }
    }

    #[test]
    fn loads_concentrate_with_few_keys() {
        // The paper's Figure 8 pathology: 2 keys on 4 joiners leaves at
        // least two joiners idle.
        let q = query(50, 0, EmitMode::Eager);
        let (sink, _) = Sink::collect();
        let mut engine = KeyOij::spawn(EngineConfig::new(q, 4).unwrap(), sink).unwrap();
        for i in 0..1000u64 {
            engine
                .push(ev(i, Side::Probe, i as i64, i % 2, 1.0))
                .unwrap();
        }
        let stats = engine.finish().unwrap();
        let idle = stats.joiner_loads.iter().filter(|&&l| l == 0).count();
        assert!(idle >= 2, "loads: {:?}", stats.joiner_loads);
        assert!(stats.unbalancedness > 0.5);
    }

    #[test]
    fn breakdown_and_latency_instrumentation_populate() {
        use crate::config::Instrumentation;
        let q = query(200, 50, EmitMode::Eager);
        let cfg = EngineConfig::new(q, 2)
            .unwrap()
            .with_instrument(Instrumentation::full());
        let (sink, _) = Sink::collect();
        let mut engine = KeyOij::spawn(cfg, sink).unwrap();
        let mut bases = 0u64;
        for i in 0..4000u64 {
            let side = if i % 2 == 0 { Side::Probe } else { Side::Base };
            if side == Side::Base {
                bases += 1;
            }
            engine.push(ev(i, side, i as i64, i % 3, 1.0)).unwrap();
        }
        let stats = engine.finish().unwrap();
        let b = stats.breakdown.expect("breakdown on");
        assert!(b.lookup_ns > 0, "lookup time recorded");
        assert!(b.match_ns > 0, "match time recorded");
        let lat = stats.latency.expect("latency on");
        assert_eq!(lat.count(), bases);
        assert!(lat.mean_ns() > 0.0);
        let eff = stats.effectiveness.expect("effectiveness on");
        assert!(eff > 0.0 && eff <= 1.0);
    }

    #[test]
    fn cache_sim_counts_buffer_traffic() {
        use crate::config::Instrumentation;
        use oij_cachesim::CacheConfig;
        let q = query(500, 0, EmitMode::Eager);
        let mut cfg = EngineConfig::new(q, 1)
            .unwrap()
            .with_instrument(Instrumentation {
                cache: Some(CacheConfig::tiny()),
                ..Instrumentation::none()
            });
        // The simulated LLC makes every insert and scan slow; on a loaded
        // host the default 1 s send deadline would fail a healthy run.
        cfg.send_timeout = std::time::Duration::from_secs(30);
        let (sink, _) = Sink::collect();
        let mut engine = KeyOij::spawn(cfg, sink).unwrap();
        for i in 0..4000u64 {
            let side = if i % 2 == 0 { Side::Probe } else { Side::Base };
            engine.push(ev(i, side, i as i64, 1, 1.0)).unwrap();
        }
        let stats = engine.finish().unwrap();
        assert!(stats.cache_accesses > 0);
        assert!(stats.cache_misses > 0);
        assert!(stats.cache_miss_ratio() > 0.0 && stats.cache_miss_ratio() <= 1.0);
    }
}
