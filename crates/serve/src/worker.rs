//! One registered query's worker threads.
//!
//! A [`QueryWorker`] is the serving-runtime analogue of an engine joiner:
//! it receives **base** tuples for its hash slice of the key space over
//! the plan's own `driver -> joiner` worker pool (the ingest thread is
//! every plan's driver) and answers each one with a seq-bounded window
//! scan of the *shared* probe index (DESIGN.md §13).
//! Probe tuples never travel through these channels — the ingest thread
//! inserts each probe exactly once into the shared single-writer index,
//! and every base message carries the writer's insert count at dispatch
//! time as its visibility `bound`. Filtering the scan to `seq < bound`
//! recovers exactly the probe prefix a solo engine run would have indexed
//! when that base arrived, which is what makes N concurrently served
//! queries bit-identical to N solo runs.

use std::sync::Arc;
use std::time::Instant;

use oij_agg::FullWindowAgg;
use oij_common::{FeatureRow, Side, Timestamp, Tuple};
use oij_core::config::EngineConfig;
use oij_core::instrument::JoinerInstruments;
use oij_core::message::Payload;
use oij_core::shell::{emit, Joiner};
use oij_core::sink::Sink;
use oij_index::{BackendReader, OijIndexReader};

use crate::sync::atomic::{AtomicI64, Ordering};

/// One base tuple dispatched to a query worker.
///
/// `bound` is the shared writer's probe-insert count read on the ingest
/// thread immediately before dispatch; the channel send publishes every
/// insert below it (happens-before), so the worker's filtered scan sees
/// exactly that prefix — never a torn one.
#[derive(Debug, Clone)]
pub(crate) struct BaseMsg {
    /// The base tuple itself.
    pub tuple: Tuple,
    /// Global ingest sequence number (row identity, as in solo runs).
    pub seq: u64,
    /// Arrival instant (latency accounting).
    pub arrival: Instant,
    /// The query's pre-observation watermark stamp for this event.
    pub watermark: Timestamp,
    /// Shared-index visibility bound: number of probes inserted before
    /// this event was dispatched.
    pub bound: u64,
}

impl Payload for BaseMsg {
    #[inline]
    fn arrival(&self) -> Instant {
        self.arrival
    }
    #[inline]
    fn watermark(&self) -> Timestamp {
        self.watermark
    }
    #[inline]
    fn side(&self) -> Side {
        Side::Base
    }
    #[inline]
    fn tuple(&self) -> &Tuple {
        &self.tuple
    }
    #[inline]
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// The state owned by one query worker thread.
pub(crate) struct QueryWorker {
    pub cfg: EngineConfig,
    pub sink: Sink,
    /// Cloned reader over the runtime's shared probe index.
    pub reader: BackendReader,
    /// Monotone acknowledged watermark (µs) published to the central
    /// evictor: the runtime may only evict below the *minimum* of these
    /// across all workers of all queries, minus the window extent, so a
    /// backlogged worker's pending scans keep their probes.
    pub ack: Arc<AtomicI64>,
}

/// Panics unwind into the pool's supervisor, which records them in the
/// query's failure cell — one query's panic never reaches its neighbours.
impl Joiner<BaseMsg> for QueryWorker {
    fn store(&mut self, _inst: &mut JoinerInstruments, _probe: BaseMsg) {
        unreachable!("probes never travel a served plan's edge");
    }

    /// Answers one base tuple: a window scan of the shared index in
    /// `(ts, seq)` order, filtered to the probes visible at dispatch.
    /// The scan order and the `f64` accumulation order are therefore
    /// identical to a solo engine run's, bit for bit.
    fn answer(&mut self, inst: &mut JoinerInstruments, msg: &BaseMsg, _frontier: Timestamp) {
        let (key, ts) = (msg.tuple.key, msg.tuple.ts);
        let window = self.cfg.query.window.window_of(ts);
        let mut agg = FullWindowAgg::new(self.cfg.query.agg);
        let bound = msg.bound;
        let visited = self.reader.scan_window_seq(key, window, |t, s| {
            if s < bound {
                agg.add(t.value);
            }
        }) as u64;
        let matched = agg.count();
        inst.record_effectiveness(matched, visited);
        let row = FeatureRow::new(ts, key, msg.seq, agg.finish(), matched);
        emit(&self.sink, inst, row, msg.arrival);
    }

    /// Publishes watermark progress to the central evictor — after each
    /// answered base, and on heartbeats, which keep idle workers'
    /// acknowledgements moving.
    fn publish(&mut self, wm: Timestamp, _oldest_deferred: Option<Timestamp>) {
        // ORDERING: Release — the evictor's Acquire load must see this
        // worker's completed scans before trusting the acknowledgement;
        // fetch_max keeps the counter monotone under reordered stamps.
        self.ack.fetch_max(wm.as_micros(), Ordering::Release);
    }
}
