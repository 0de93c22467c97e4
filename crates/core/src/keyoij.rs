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

use std::collections::BTreeMap;
use std::time::Instant;

use oij_agg::FullWindowAgg;
use oij_common::{EmitMode, FeatureRow, Key, Result, Side, Timestamp, Window};
use oij_index::{BackendReader, BackendWriter, OijIndexReader, OijIndexWriter};

use crate::config::EngineConfig;
use crate::driver::open_durability;
use crate::instrument::{JoinerInstruments, JoinerReport};
use crate::message::DataMsg;
use crate::shell::{forward_engine, EngineShell, HashRoute, Joiner, Supervision};
use crate::sink::{worker_sink_stack, Sink};

/// The Key-OIJ engine. See the [module docs](self).
pub struct KeyOij(EngineShell<HashRoute>);

impl KeyOij {
    /// Spawns the joiner threads and returns the ready engine.
    pub fn spawn(cfg: EngineConfig, sink: Sink) -> Result<Self> {
        cfg.validate()?;
        let origin = Instant::now();
        let sup = Supervision::default();
        // Key-OIJ never emits side-output markers (SideOutput degrades to
        // Drop here), so late tuples join best-effort and must be retained.
        let durable = open_durability(&cfg, false)?;
        let joiners = (0..cfg.joiners)
            .map(|id| {
                let sink = worker_sink_stack(&cfg, id, sink.clone(), &durable, &sup);
                KeyJoiner::new(&cfg, sink, origin)
            })
            .collect();
        let routing = HashRoute(cfg.joiners as u64);
        EngineShell::assemble("key-oij", &cfg, durable, sup, routing, joiners, None).map(KeyOij)
    }
}

forward_engine!(KeyOij);

/// One Key-OIJ worker thread's state.
struct KeyJoiner {
    cfg: EngineConfig,
    sink: Sink,
    inst: JoinerInstruments,
    /// Per-key probe buffers (the paper's "buffer"), behind the pluggable
    /// index backend. The join path deliberately ignores the backend's
    /// timestamp order: it always scans the key's full retained range.
    writer: BackendWriter,
    reader: BackendReader,
    node_bytes: usize,
    /// Watermark mode: pending base tuples keyed by (emit_ts, seq).
    pending: BTreeMap<(i64, u64), PendingBase>,
    since_expire: usize,
    last_wm: Timestamp,
}

struct PendingBase {
    key: Key,
    ts: Timestamp,
    arrival: Instant,
}

impl Joiner<DataMsg> for KeyJoiner {
    fn instruments(&mut self) -> &mut JoinerInstruments {
        &mut self.inst
    }

    fn on_heartbeat(&mut self, wm: Timestamp) {
        // Key-OIJ is single-owner per key: a heartbeat only refreshes the
        // expiration watermark.
        self.last_wm = self.last_wm.max(wm);
        if self.cfg.query.emit == EmitMode::Watermark {
            self.drain_pending(self.last_wm);
        }
    }

    fn on_data(&mut self, msg: DataMsg) {
        self.inst.processed += 1;
        self.last_wm = msg.watermark;
        if msg.tuple.ts < msg.watermark {
            self.inst.late_violations += 1;
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
                EmitMode::Eager => {
                    self.join_and_emit(msg.tuple.key, msg.tuple.ts, msg.seq, msg.arrival)
                }
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
        if self.cfg.query.emit == EmitMode::Watermark {
            self.drain_pending(msg.watermark);
        }
        self.since_expire += 1;
        if self.since_expire >= self.cfg.expire_every {
            self.since_expire = 0;
            self.expire();
        }
    }

    /// Processes one coalesced batch. Semantically identical to calling
    /// [`on_data`](Joiner::on_data) once per message — the only shortcut is
    /// handing a run of consecutive same-key probes in eager mode to the
    /// backend as one [`insert_batch`](OijIndexWriter::insert_batch) call
    /// (inserts have no emission side effects, and nothing reads the index
    /// mid-run, so deferred publication is safe). The run is capped at the
    /// remaining expiration budget so the periodic sweep still fires after
    /// exactly the same message as on the unbatched path.
    fn on_batch(&mut self, msgs: &mut Vec<DataMsg>) {
        let eager = self.cfg.query.emit == EmitMode::Eager;
        let mut i = 0;
        while i < msgs.len() {
            if !(eager && msgs[i].side == Side::Probe) || self.inst.cache.is_some() {
                // Base tuples and watermark mode keep the scalar path:
                // both can emit, which couples every message to the ones
                // before it. So does the cache model, which needs a node
                // address per insert.
                self.on_data(msgs[i].clone());
                i += 1;
                continue;
            }
            let key = msgs[i].tuple.key;
            let budget = (self.cfg.expire_every - self.since_expire).max(1);
            let mut end = i + 1;
            while end < msgs.len()
                && end - i < budget
                && msgs[end].side == Side::Probe
                && msgs[end].tuple.key == key
            {
                end += 1;
            }
            let mut run = Vec::with_capacity(end - i);
            for m in &msgs[i..end] {
                self.inst.processed += 1;
                self.last_wm = m.watermark;
                if m.tuple.ts < m.watermark {
                    self.inst.late_violations += 1;
                }
                run.push((m.tuple.clone(), false));
            }
            self.writer.insert_batch(run);
            self.since_expire += end - i;
            if self.since_expire >= self.cfg.expire_every {
                self.since_expire = 0;
                self.expire();
            }
            i = end;
        }
    }

    fn on_end(&mut self) {
        // End of input: everything is buffered, so all pending bases are
        // complete — drain them at an infinite watermark.
        self.drain_pending(Timestamp::MAX);
    }

    fn into_report(self) -> JoinerReport {
        self.inst
    }
}

impl KeyJoiner {
    fn new(cfg: &EngineConfig, sink: Sink, origin: Instant) -> Self {
        let (writer, reader) = cfg.index_backend.build();
        let node_bytes = writer.node_footprint();
        KeyJoiner {
            inst: JoinerInstruments::new(&cfg.instrument, origin),
            cfg: cfg.clone(),
            sink,
            writer,
            reader,
            node_bytes,
            pending: BTreeMap::new(),
            since_expire: 0,
            last_wm: Timestamp::MIN,
        }
    }

    /// Emits pending base tuples whose windows closed below `watermark`.
    fn drain_pending(&mut self, watermark: Timestamp) {
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > watermark.as_micros() {
                break;
            }
            let ((_, seq), base) = entry.remove_entry();
            self.join_and_emit(base.key, base.ts, seq, base.arrival);
        }
    }

    /// The Key-OIJ join: a [`scan_unpruned`] of the key's whole retained
    /// buffer, so lateness still inflates every scan, Figure 7 style.
    fn join_and_emit(&mut self, key: Key, ts: Timestamp, seq: u64, arrival: Instant) {
        let window = self.cfg.query.window.window_of(ts);
        let mut agg = FullWindowAgg::new(self.cfg.query.agg);
        let (reader, node_bytes) = (&self.reader, self.node_bytes);
        let visited = scan_unpruned(reader, &mut self.inst, node_bytes, key, window, |v| {
            agg.add(v)
        });
        let matched = agg.count();
        self.inst.record_effectiveness(matched, visited);
        self.sink
            .emit(FeatureRow::new(ts, key, seq, agg.finish(), matched));
        self.inst.results += 1;
        self.inst.record_latency(arrival);
    }

    /// Periodic expiration sweep, delegated to the backend's
    /// `evict_below` (the bound is identical to the original
    /// retain-by-timestamp sweep: keep `t ≥ wm − PRE − FOL`).
    fn expire(&mut self) {
        if self.last_wm == Timestamp::MIN {
            return;
        }
        // A probe at `t` can still serve a lateness-compliant base `s ≥ wm`
        // whose window starts at `s − PRE`; pending bases reach back a
        // further FOL. Keep `t ≥ wm − PRE − FOL`.
        let bound = self.last_wm.saturating_sub(self.cfg.query.window.length());
        let other_t0 = self.inst.wants_breakdown().then(Instant::now);
        self.inst.evicted += self.writer.evict_below(bound) as u64;
        if let Some(t0) = other_t0 {
            self.inst
                .add_breakdown(0, 0, t0.elapsed().as_nanos() as u64);
        }
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
    use oij_common::{AggSpec, Duration, Event, OijQuery, Tuple};

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
        let cfg = EngineConfig::new(q, 1)
            .unwrap()
            .with_instrument(Instrumentation {
                cache: Some(CacheConfig::tiny()),
                ..Instrumentation::none()
            });
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
