//! Per-joiner instrumentation bundle.
//!
//! Every engine's joiner owns one [`JoinerInstruments`], configured from
//! [`crate::config::Instrumentation`]. All probes are `Option`al so that a
//! disabled probe costs one branch on the hot path and nothing else.

use std::time::Instant;

use oij_cachesim::CacheSim;
use oij_common::Timestamp;
use oij_metrics::{
    BatchOccupancy, BusyTimeline, EffectivenessMeter, LatencyHistogram, TimeBreakdown,
};

use crate::config::Instrumentation;

/// Receive-side shadow of the driver→joiner edge — the workspace's one
/// check of the `(batch|heartbeat)* flush` grammar (DESIGN.md §8). Its
/// one ordering invariant: stamps never decrease along an edge, over
/// every payload watermark and every heartbeat. That covers a heartbeat
/// running backwards, a heartbeat below data already delivered, and data
/// delivered below an earlier heartbeat (a heartbeat that overtook parked
/// data). Always on: one compare per payload and per heartbeat, and a
/// protocol regression — including traffic after `Flush` — must fail
/// plain `cargo test`.
///
/// A panic from here surfaces through the engine supervisors as a
/// `WorkerFailure`, so a violating run fails loudly instead of emitting
/// wrong windows.
#[derive(Debug)]
pub struct ProtoProbe {
    edge: &'static str,
    /// The highest stamp observed so far.
    last: Timestamp,
    finished: bool,
}

impl ProtoProbe {
    /// Opens the shadow of the edge named `edge` (the name only labels
    /// the panic message).
    pub fn new(edge: &'static str) -> ProtoProbe {
        ProtoProbe {
            edge,
            last: Timestamp::MIN,
            finished: false,
        }
    }

    fn check_open(&self, sym: &str) {
        if self.finished {
            panic!(
                "protocol violation on edge `{}`: `{sym}` observed after the edge's \
                 terminal Flush",
                self.edge
            );
        }
    }

    /// Observes one `sym` stamped `ts`; panics when `ts` is below a stamp
    /// already observed.
    #[inline]
    fn stamp(&mut self, sym: &str, ts: Timestamp) {
        self.check_open(sym);
        assert!(
            ts >= self.last,
            "protocol violation on edge `{}`: stamp regression ({sym} {} after {})",
            self.edge,
            ts.as_micros(),
            self.last.as_micros()
        );
        self.last = ts;
    }

    /// Observes one data payload carrying `watermark`.
    #[inline]
    pub fn data(&mut self, watermark: Timestamp) {
        self.stamp("data", watermark);
    }

    /// Observes one `Heartbeat` carrying `ts`.
    #[inline]
    pub fn heartbeat(&mut self, ts: Timestamp) {
        self.stamp("heartbeat", ts);
    }

    /// Observes the edge's terminal `Flush`; anything after panics.
    pub fn finish(&mut self) {
        self.check_open("finish");
        self.finished = true;
    }
}

/// The measurement state carried by one joiner thread.
pub struct JoinerInstruments {
    /// Result latency histogram.
    pub latency: Option<LatencyHistogram>,
    /// Lookup/match/other breakdown.
    pub breakdown: Option<TimeBreakdown>,
    /// Effectiveness meter.
    pub effectiveness: Option<EffectivenessMeter>,
    /// LLC simulator (per joiner; the harness sums counters).
    pub cache: Option<CacheSim>,
    /// Busy-time timeline.
    pub timeline: Option<BusyTimeline>,
    /// Tuples processed by this joiner (its workload `W_i`).
    pub processed: u64,
    /// Tuples that violated the lateness bound (arrived below the
    /// watermark). Processed best-effort but counted.
    pub late_violations: u64,
    /// Lateness marker rows routed to the sink under
    /// [`LatePolicy::SideOutput`](crate::config::LatePolicy).
    pub late_side_outputs: u64,
    /// Tuples evicted by expiration.
    pub evicted: u64,
    /// Feature rows this joiner emitted.
    pub results: u64,
    /// Index nodes Scale-OIJ's `answer` visited (always on: one add per
    /// team scan).
    pub nodes_visited: u64,
    /// Window-summary cells `answer` merged in place of node visits.
    pub cells_merged: u64,
    /// Fill levels of the `Msg::Batch`es this joiner received (always on:
    /// two adds per *batch*, nothing per tuple).
    pub batch_occupancy: BatchOccupancy,
    /// Receive-side protocol shadow of the driver→joiner edge (always
    /// on; every joiner, in every engine and every served plan, receives
    /// on that edge).
    pub proto: ProtoProbe,
}

impl JoinerInstruments {
    /// Builds the bundle for one joiner. `origin` anchors the busy timeline
    /// (pass the same instant to all joiners).
    pub fn new(spec: &Instrumentation, origin: Instant) -> Self {
        JoinerInstruments {
            latency: spec.latency.then(LatencyHistogram::new),
            breakdown: spec.breakdown.then(TimeBreakdown::new),
            effectiveness: spec.effectiveness.then(EffectivenessMeter::new),
            cache: spec.cache.map(CacheSim::new),
            timeline: spec
                .timeline_bucket
                .map(|b| BusyTimeline::new(origin, b.as_nanos() as u64)),
            processed: 0,
            late_violations: 0,
            late_side_outputs: 0,
            evicted: 0,
            results: 0,
            nodes_visited: 0,
            cells_merged: 0,
            batch_occupancy: BatchOccupancy::new(),
            proto: ProtoProbe::new("driver-joiner"),
        }
    }

    /// Records the fill level of one received batch.
    #[inline]
    pub fn record_batch(&mut self, len: usize) {
        self.batch_occupancy.record(len);
    }

    /// Records one emitted result's latency given its arrival instant.
    #[inline]
    pub fn record_latency(&mut self, arrival: Instant) {
        if let Some(h) = &mut self.latency {
            h.record(arrival.elapsed().as_nanos() as u64);
        }
    }

    /// Records a base tuple's matched/visited counts.
    #[inline]
    pub fn record_effectiveness(&mut self, matched: u64, visited: u64) {
        if let Some(e) = &mut self.effectiveness {
            e.record(matched, visited);
        }
    }

    /// Feeds one buffer access into the cache simulator.
    #[inline]
    pub fn record_access(&mut self, addr: usize, bytes: usize) {
        if let Some(c) = &mut self.cache {
            c.access(addr, bytes);
        }
    }

    /// Attributes a busy span that ends now to the timeline.
    #[inline]
    pub fn record_busy(&mut self, started: Instant) {
        if let Some(t) = &mut self.timeline {
            let now = Instant::now();
            t.record(now, now.duration_since(started).as_nanos() as u64);
        }
    }

    /// Whether breakdown timing should be taken for this message.
    #[inline]
    pub fn wants_breakdown(&self) -> bool {
        self.breakdown.is_some()
    }

    /// Adds to the breakdown buckets (no-ops when disabled).
    #[inline]
    pub fn add_breakdown(&mut self, lookup_ns: u64, match_ns: u64, other_ns: u64) {
        if let Some(b) = &mut self.breakdown {
            b.lookup_ns += lookup_ns;
            b.match_ns += match_ns;
            b.other_ns += other_ns;
        }
    }
}

/// What a joiner thread reports after flush — its final instruments;
/// merged by the engine into [`crate::engine::RunStats`].
pub type JoinerReport = JoinerInstruments;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_stay_none() {
        let i = JoinerInstruments::new(&Instrumentation::none(), Instant::now());
        assert!(i.latency.is_none());
        assert!(i.breakdown.is_none());
        assert!(i.effectiveness.is_none());
        assert!(i.cache.is_none());
        assert!(i.timeline.is_none());
    }

    #[test]
    fn enabled_probes_record() {
        let mut i = JoinerInstruments::new(&Instrumentation::full(), Instant::now());
        i.record_latency(Instant::now());
        i.record_effectiveness(1, 2);
        i.add_breakdown(10, 20, 30);
        assert_eq!(i.latency.as_ref().unwrap().count(), 1);
        assert_eq!(i.effectiveness.as_ref().unwrap().count(), 1);
        assert_eq!(i.breakdown.unwrap().total_ns(), 60);
    }
}
