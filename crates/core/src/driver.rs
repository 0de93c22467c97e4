//! Driver-side bookkeeping shared by all engines.
//!
//! Each engine's `push` runs on the caller's thread ("the driver"). This
//! helper owns the watermark tracker and run timing and converts public
//! [`Event`]s into internal [`DataMsg`]s. With durability configured it
//! also write-ahead-logs every ingested tuple (with its pre-observation
//! watermark stamp) before the engine may dispatch it, and replays
//! recovered tuples with their **original** stamps so late/on-time
//! classification is identical across the crash (DESIGN.md §11).

use std::sync::Arc;
use std::time::Instant;

use oij_common::{Duration, Error, Event, EventKind, Result, Timestamp, WatermarkTracker};
use oij_durability::{DurabilityRuntime, LoggedEvent, RetentionSpec};

use crate::config::EngineConfig;
use crate::engine::RunStats;
use crate::message::DataMsg;

/// Opens the durability runtime for `cfg` (or `None` when durability is
/// off). `side_output` tells the checkpoint compactor whether late
/// tuples are diverted to markers (Scale-OIJ under
/// `LatePolicy::SideOutput`) or processed best-effort like everywhere
/// else.
pub(crate) fn open_durability(
    cfg: &EngineConfig,
    side_output: bool,
) -> Result<Option<Arc<DurabilityRuntime>>> {
    match &cfg.durability {
        Some(d) => {
            let spec = RetentionSpec {
                extent: cfg.query.window.length(),
                lateness: cfg.query.window.lateness,
                side_output,
            };
            Ok(Some(Arc::new(DurabilityRuntime::open(d, spec)?)))
        }
        None => Ok(None),
    }
}

/// Watermark + timing state for one run.
pub(crate) struct Driver {
    tracker: WatermarkTracker,
    durable: Option<Arc<DurabilityRuntime>>,
    started: Option<Instant>,
    pushed: u64,
    finished: bool,
}

impl Driver {
    /// A driver with optional durability. On recovery the watermark
    /// tracker is re-seeded with the maximum event time restored from
    /// the log, so the first live event after replay sees the same
    /// watermark it would have in the uninterrupted run.
    pub(crate) fn with_durability(
        lateness: Duration,
        durable: Option<Arc<DurabilityRuntime>>,
    ) -> Self {
        let mut tracker = WatermarkTracker::new(lateness);
        if let Some(rt) = &durable {
            if let Some(max_ts) = rt.recovered_max_ts() {
                tracker.observe(Timestamp::from_micros(max_ts));
            }
        }
        Driver {
            tracker,
            durable,
            started: None,
            pushed: 0,
            finished: false,
        }
    }

    /// Converts an incoming event, stamping arrival time and the
    /// **pre-observation** watermark (see [`DataMsg::watermark`]). `None`:
    /// the event was an input flush marker — nothing to route.
    ///
    /// `stamp` selects the ingest mode. `None` is **live** ingest: the
    /// stamp is read off the tracker, and with durability enabled the
    /// event is appended to the WAL *before* it is returned for dispatch
    /// — once the caller sees `Ok`, the tuple survives a crash. `Some` is
    /// **replay**: the message carries the logged stamp instead of a
    /// freshly computed one (identical late classification), nothing is
    /// appended (the event is already in the WAL), and the replay counter
    /// ticks.
    pub(crate) fn prepare(
        &mut self,
        event: Event,
        stamp: Option<Timestamp>,
    ) -> Result<Option<DataMsg>> {
        if self.finished {
            return Err(Error::InvalidState("push after finish".into()));
        }
        let now = Instant::now();
        if self.started.is_none() {
            self.started = Some(now);
        }
        match event.kind {
            EventKind::Flush => Ok(None),
            EventKind::Data { side, tuple } => {
                // The stamp must be read BEFORE the tracker observes the
                // tuple (the "pre-observation watermark" contract) and the
                // WAL append must precede dispatch (crash durability).
                // STAMP: stamp-observe.pre
                let watermark = stamp.unwrap_or_else(|| self.tracker.current().time());
                if let Some(rt) = &self.durable {
                    if stamp.is_some() {
                        rt.note_replayed();
                    } else {
                        // STAMP: wal-dispatch.pre
                        rt.record_event(LoggedEvent {
                            seq: event.seq,
                            side,
                            ts: tuple.ts.as_micros(),
                            key: tuple.key,
                            value: tuple.value,
                            stamp: watermark.as_micros(),
                        })?;
                    }
                }
                // STAMP: stamp-observe.post
                self.tracker.observe(tuple.ts);
                self.pushed += 1;
                // STAMP: wal-dispatch.post
                Ok(Some(DataMsg {
                    side,
                    tuple,
                    seq: event.seq,
                    arrival: now,
                    watermark,
                }))
            }
        }
    }

    /// Marks the run finished; returns `(input_tuples, elapsed)`.
    pub(crate) fn finish(&mut self) -> Result<(u64, std::time::Duration)> {
        if self.finished {
            return Err(Error::InvalidState("finish called twice".into()));
        }
        self.finished = true;
        let elapsed = self
            .started
            .map(|s| s.elapsed())
            .unwrap_or_else(|| std::time::Duration::from_nanos(1));
        Ok((self.pushed, elapsed))
    }

    /// Folds durability metrics into the run stats. With durability
    /// enabled the ingest/emission counters are replaced by the
    /// *lifetime* counters restored from the log, so a crashed-and-
    /// recovered run reports the same totals as an uninterrupted one
    /// (replayed events are not re-counted). No-op otherwise.
    pub(crate) fn finalize_stats(&self, stats: &mut RunStats) {
        let Some(rt) = &self.durable else {
            return;
        };
        let m = rt.metrics();
        stats.input_tuples = m.total_ingested;
        stats.results = m.emitted_rows;
        stats.late_violations = m.total_late;
        stats.late_side_outputs = m.emitted_late;
        stats.wal_bytes_written = m.wal_bytes_written;
        stats.wal_records_replayed = m.wal_records_replayed;
        stats.checkpoint_count = m.checkpoint_count;
        stats.recovery_duration = m.recovery_duration;
        stats.rows_deduped_on_recovery = m.rows_deduped_on_recovery;
        let secs = stats.elapsed.as_secs_f64().max(1e-9);
        stats.throughput = stats.input_tuples as f64 / secs;
    }

    /// The current watermark.
    #[cfg(test)]
    pub(crate) fn watermark(&self) -> Timestamp {
        self.tracker.current().time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oij_common::{Side, Tuple};

    fn ev(seq: u64, ts: i64) -> Event {
        Event::data(
            seq,
            Side::Probe,
            Tuple::new(Timestamp::from_micros(ts), 1, 0.0),
        )
    }

    #[test]
    fn watermark_is_pre_observation() {
        let mut d = Driver::with_durability(Duration::from_micros(10), None);
        let m1 = d.prepare(ev(0, 100), None).unwrap().expect("data");
        assert_eq!(m1.watermark, Timestamp::MIN); // nothing observed before
        let m2 = d.prepare(ev(1, 200), None).unwrap().expect("data");
        assert_eq!(m2.watermark, Timestamp::from_micros(90)); // 100 - 10
    }

    #[test]
    fn push_after_finish_errors() {
        let mut d = Driver::with_durability(Duration::ZERO, None);
        d.prepare(ev(0, 1), None).unwrap();
        let (n, _) = d.finish().unwrap();
        assert_eq!(n, 1);
        assert!(d.prepare(ev(1, 2), None).is_err());
        assert!(d.finish().is_err());
    }

    /// The recovery re-seed: a driver over a recovered log starts from the
    /// log's maximum event time *before* anything is replayed. Replay alone
    /// does not restore it — a checkpoint drops emitted base tuples whatever
    /// their event time, so the tuple that set the maximum may not be among
    /// the replayed ones, and the first live stamp would regress below
    /// stamps already handed out. (`tests/protocol_witness.rs` cannot see
    /// this at any heartbeat cadence: its crash lands before a checkpoint
    /// has compacted anything.)
    #[test]
    fn recovery_reseeds_the_tracker_from_the_log() {
        use oij_durability::DurabilityConfig;
        let dir = std::env::temp_dir().join(format!("oij-driver-reseed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurabilityConfig::new(dir.clone());
        let spec = RetentionSpec {
            extent: Duration::from_micros(100),
            lateness: Duration::from_micros(10),
            side_output: false,
        };
        let crashed = DurabilityRuntime::open(&cfg, spec).unwrap();
        crashed
            .record_event(LoggedEvent {
                seq: 0,
                side: Side::Probe,
                ts: 500,
                key: 1,
                value: 0.0,
                stamp: i64::MIN,
            })
            .unwrap();
        drop(crashed);
        let recovered = Arc::new(DurabilityRuntime::open(&cfg, spec).unwrap());
        let d = Driver::with_durability(Duration::from_micros(10), Some(recovered));
        assert_eq!(d.watermark(), Timestamp::from_micros(490));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stamped_replay_keeps_the_logged_watermark() {
        let mut d = Driver::with_durability(Duration::from_micros(10), None);
        // A replayed event carries its original stamp even though the
        // tracker would compute something else.
        let m = d
            .prepare(ev(0, 100), Some(Timestamp::from_micros(42)))
            .unwrap()
            .expect("data");
        assert_eq!(m.watermark, Timestamp::from_micros(42));
        // The tracker still observed the event time.
        assert_eq!(d.watermark(), Timestamp::from_micros(90));
    }
}
