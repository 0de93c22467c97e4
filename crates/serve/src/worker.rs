//! One scan group's worker threads.
//!
//! A [`GroupWorker`] is the serving-runtime analogue of an engine joiner:
//! it receives **base** tuples for its hash slice of the key space over
//! the group's `driver -> joiner` worker pool (the ingest thread is every
//! group's driver) and answers each one **once for all members**: one
//! seq-bounded scan of the *shared* probe index over the union of the
//! members' windows, then one fold per member over that member's own
//! sub-range of the scanned values (DESIGN.md §13).
//! Probe tuples never travel through these channels — the ingest thread
//! inserts each probe exactly once into the shared single-writer index,
//! and every base message carries the writer's insert count at dispatch
//! time as its visibility `bound`. Filtering the scan to `seq < bound`
//! recovers exactly the probe prefix a solo engine run would have indexed
//! when that base arrived, which is what makes N concurrently served
//! queries bit-identical to N solo runs.
//!
//! Membership changes travel the same channel ([`GroupMsg::Control`]), so
//! a member sees exactly the bases dispatched between its `Join` and its
//! `Leave`.

use std::ops::Range;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use oij_agg::FullWindowAgg;
use oij_common::{AggSpec, Duration, FeatureRow, Side, Timestamp, Tuple, Window, WindowSpec};
use oij_core::instrument::{JoinerInstruments, JoinerReport};
use oij_core::message::Payload;
use oij_core::shell::{emit, Joiner};
use oij_core::sink::Sink;
use oij_index::{BackendReader, OijIndexReader};

use crate::sync::atomic::{AtomicI64, Ordering};

/// One base tuple dispatched to a group worker.
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
    /// The group's pre-observation watermark stamp for this event.
    pub watermark: Timestamp,
    /// Shared-index visibility bound: number of probes inserted before
    /// this event was dispatched.
    pub bound: u64,
}

/// What travels a group's `driver -> joiner` edge.
pub(crate) enum GroupMsg {
    /// A base tuple, answered for every current member.
    Base(BaseMsg),
    /// A membership change, FIFO with the bases around it. It carries the
    /// two stamps the shell reads off every payload.
    Control {
        arrival: Instant,
        watermark: Timestamp,
        change: Membership,
    },
}

pub(crate) enum Membership {
    /// The member answers every base behind this message.
    Join(Box<Member>),
    /// The member answered every base ahead of this message; the worker
    /// hands back its index and the member's measurements.
    Leave {
        id: u64,
        reply: Sender<(usize, JoinerReport)>,
    },
}

impl Payload for GroupMsg {
    #[inline]
    fn arrival(&self) -> Instant {
        match self {
            GroupMsg::Base(base) => base.arrival,
            GroupMsg::Control { arrival, .. } => *arrival,
        }
    }
    #[inline]
    fn watermark(&self) -> Timestamp {
        match self {
            GroupMsg::Base(base) => base.watermark,
            GroupMsg::Control { watermark, .. } => *watermark,
        }
    }
    #[inline]
    fn side(&self) -> Side {
        Side::Base
    }
    #[inline]
    fn tuple(&self) -> &Tuple {
        match self {
            GroupMsg::Base(base) => &base.tuple,
            GroupMsg::Control { .. } => unreachable!("a control message carries no tuple"),
        }
    }
    #[inline]
    fn seq(&self) -> u64 {
        match self {
            GroupMsg::Base(base) => base.seq,
            GroupMsg::Control { .. } => 0,
        }
    }
    #[inline]
    fn is_control(&self) -> bool {
        matches!(self, GroupMsg::Control { .. })
    }
}

/// One plan's share of one group worker: what distinguishes it from its
/// group mates (window bounds, aggregate), where its rows go, and its own
/// measurements — merged into the plan's `RunStats` exactly as a solo
/// joiner's report would be.
pub(crate) struct Member {
    pub id: u64,
    pub window: WindowSpec,
    pub agg: AggSpec,
    pub sink: Sink,
    pub inst: JoinerInstruments,
}

/// The state owned by one group worker thread.
pub(crate) struct GroupWorker {
    /// This worker's index in its pool (orders the `Leave` replies).
    index: usize,
    /// Cloned reader over the runtime's shared probe index.
    reader: BackendReader,
    /// Monotone acknowledged watermark (µs) published to the central
    /// evictor: the runtime may only evict below the *minimum* of these
    /// across all workers of all groups, minus the window extent, so a
    /// backlogged worker's pending scans keep their probes.
    ack: Arc<AtomicI64>,
    /// Current members, in join order. Never empty while data flows: the
    /// ingest thread ends the pool behind the last `Leave`.
    members: Vec<Member>,
    /// The union window's reach: the widest `preceding` and the widest
    /// `following` among the members.
    reach: (Duration, Duration),
    /// Timestamps and values of the visible (`seq < bound`) tuples of the
    /// last union scan, in `(ts, seq)` order; reused across bases.
    seen_ts: Vec<Timestamp>,
    seen_vals: Vec<f64>,
    /// Timestamps of the scanned tuples that were not yet visible. Only
    /// filled under the effectiveness probe, whose denominator is every
    /// index node a member's own window scan would have visited.
    hidden_ts: Vec<Timestamp>,
    /// Whether the members carry that probe (instrumentation is part of
    /// the group key: one has it iff all do).
    metered: bool,
}

impl GroupWorker {
    pub(crate) fn new(
        index: usize,
        reader: BackendReader,
        ack: Arc<AtomicI64>,
        founder: Member,
    ) -> Self {
        let mut worker = GroupWorker {
            index,
            reader,
            ack,
            members: vec![founder],
            reach: (Duration::ZERO, Duration::ZERO),
            seen_ts: Vec::new(),
            seen_vals: Vec::new(),
            hidden_ts: Vec::new(),
            metered: false,
        };
        worker.refit();
        worker
    }

    /// Recomputes what depends on the member set after it changed.
    fn refit(&mut self) {
        let widest = |f: fn(&WindowSpec) -> Duration| {
            let spans = self.members.iter().map(|m| f(&m.window));
            spans.max().unwrap_or(Duration::ZERO)
        };
        self.reach = (widest(|w| w.preceding), widest(|w| w.following));
        self.metered = self.members.iter().any(|m| m.inst.effectiveness.is_some());
    }
}

/// The positions of `window` in `stamps` (ascending).
#[inline]
fn span(stamps: &[Timestamp], window: Window) -> Range<usize> {
    let start = stamps.partition_point(|&t| t < window.start);
    start..stamps.partition_point(|&t| t <= window.end)
}

/// Panics unwind into the pool's supervisor, which records them in the
/// group's failure cell — one group's panic never reaches another group.
impl Joiner<GroupMsg> for GroupWorker {
    fn store(&mut self, _inst: &mut JoinerInstruments, _probe: GroupMsg) {
        unreachable!("probes never travel a scan group's edge");
    }

    /// Answers one base tuple for every member: one scan of the shared
    /// index over the union window in `(ts, seq)` order, filtered to the
    /// probes visible at dispatch, then one fold per member over the
    /// contiguous sub-range its own window covers. Each member's values
    /// and their `f64` accumulation order are therefore identical to a
    /// solo engine run's, bit for bit.
    fn answer(&mut self, _inst: &mut JoinerInstruments, msg: &GroupMsg, _frontier: Timestamp) {
        let GroupMsg::Base(base) = msg else {
            unreachable!("the loop hands control messages to `control`");
        };
        let (key, ts, bound) = (base.tuple.key, base.tuple.ts, base.bound);
        let GroupWorker {
            reader,
            members,
            reach,
            seen_ts,
            seen_vals,
            hidden_ts,
            metered,
            ..
        } = self;
        let union = Window {
            start: ts.saturating_sub(reach.0),
            end: ts.saturating_add(reach.1),
        };
        seen_ts.clear();
        seen_vals.clear();
        hidden_ts.clear();
        reader.scan_window_seq(key, union, |t, s| {
            if s < bound {
                seen_ts.push(t.ts);
                seen_vals.push(t.value);
            } else if *metered {
                hidden_ts.push(t.ts);
            }
        });
        let late = ts < base.watermark;
        for m in members {
            let window = m.window.window_of(ts);
            let mut agg = FullWindowAgg::new(m.agg);
            agg.extend(&seen_vals[span(seen_ts, window)]);
            let matched = agg.count();
            m.inst.processed += 1;
            m.inst.late_violations += u64::from(late);
            let visited = matched + span(hidden_ts, window).len() as u64;
            m.inst.record_effectiveness(matched, visited);
            let row = FeatureRow::new(ts, key, base.seq, agg.finish(), matched);
            emit(&m.sink, &mut m.inst, row, base.arrival);
        }
    }

    fn control(&mut self, _inst: &mut JoinerInstruments, msg: GroupMsg) {
        let GroupMsg::Control { change, .. } = msg else {
            unreachable!("the loop hands only control messages to `control`");
        };
        match change {
            Membership::Join(member) => self.members.push(*member),
            Membership::Leave { id, reply } => {
                let at = self.members.iter().position(|m| m.id == id);
                let member = self.members.remove(at.expect("a leaving plan is a member"));
                // The canceller may have given up waiting; its loss.
                let _ = reply.send((self.index, member.inst));
            }
        }
        self.refit();
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

#[cfg(test)]
mod tests {
    use super::*;
    use oij_core::config::Instrumentation;
    use oij_index::{IndexBackend, OijIndexWriter};

    /// What a plan of its own answers: its own window scan, one `add` per
    /// visible tuple. The reference the union scan must reproduce.
    fn own_scan(
        reader: &BackendReader,
        window: WindowSpec,
        agg: AggSpec,
        base: &BaseMsg,
    ) -> (FeatureRow, u64) {
        let mut acc = FullWindowAgg::new(agg);
        let visited =
            reader.scan_window_seq(base.tuple.key, window.window_of(base.tuple.ts), |t, s| {
                if s < base.bound {
                    acc.add(t.value);
                }
            });
        let (ts, key) = (base.tuple.ts, base.tuple.key);
        let row = FeatureRow::new(ts, key, base.seq, acc.finish(), acc.count());
        (row, visited as u64)
    }

    #[test]
    fn the_union_scan_answers_every_member_as_its_own_scan_would() {
        let (mut writer, reader) = IndexBackend::SkipList.build();
        // Two keys, duplicate timestamps, values whose sum depends on the
        // fold order.
        for i in 0..400i64 {
            let value = if i % 7 == 0 { 1e16 } else { 0.1 * i as f64 };
            writer.insert(Tuple::new(
                Timestamp::from_micros(i / 2),
                (i % 2) as u64,
                value,
            ));
        }
        let us = Duration::from_micros;
        let shapes = [
            (us(10), us(0), AggSpec::Sum),
            (us(40), us(5), AggSpec::Avg),
            (us(0), us(0), AggSpec::Count),
            (us(25), us(30), AggSpec::Min),
            (us(90), us(0), AggSpec::Max),
        ];
        let origin = Instant::now();
        let mut stores = Vec::new();
        let mut members = shapes.iter().enumerate().map(|(id, &(pre, fol, agg))| {
            let (sink, rows) = Sink::collect();
            stores.push(rows);
            Member {
                id: id as u64,
                window: WindowSpec::new(pre, fol, Duration::ZERO).unwrap(),
                agg,
                sink,
                inst: JoinerInstruments::new(&Instrumentation::full(), origin),
            }
        });
        let founder = members.next().unwrap();
        let ack = Arc::new(AtomicI64::new(i64::MIN));
        let mut worker = GroupWorker::new(0, reader.clone(), ack, founder);
        let mut loop_inst = JoinerInstruments::new(&Instrumentation::none(), origin);
        for member in members {
            let join = GroupMsg::Control {
                arrival: origin,
                watermark: Timestamp::MIN,
                change: Membership::Join(Box::new(member)),
            };
            worker.control(&mut loop_inst, join);
        }

        // Bounds that hide none, some and all of the in-window tuples.
        let mut wanted: Vec<Vec<(FeatureRow, u64)>> = vec![Vec::new(); shapes.len()];
        let mut seq = 0;
        for ts in [0, 3, 57, 120, 199, 230] {
            for bound in [0, 90, 250, 400] {
                let base = BaseMsg {
                    tuple: Tuple::new(Timestamp::from_micros(ts), seq % 2, 0.0),
                    seq,
                    arrival: origin,
                    watermark: Timestamp::MIN,
                    bound,
                };
                seq += 1;
                for (want, &(pre, fol, agg)) in wanted.iter_mut().zip(&shapes) {
                    let window = WindowSpec::new(pre, fol, Duration::ZERO).unwrap();
                    want.push(own_scan(&reader, window, agg, &base));
                }
                worker.answer(&mut loop_inst, &GroupMsg::Base(base), Timestamp::MIN);
            }
        }

        for (id, (want, rows)) in wanted.iter().zip(&stores).enumerate() {
            let (reply, replies) = std::sync::mpsc::channel();
            let leave = GroupMsg::Control {
                arrival: origin,
                watermark: Timestamp::MIN,
                change: Membership::Leave {
                    id: id as u64,
                    reply,
                },
            };
            worker.control(&mut loop_inst, leave);
            let (index, report) = replies.recv().unwrap();
            assert_eq!(index, 0);
            let want_rows: Vec<FeatureRow> = want.iter().map(|(row, _)| row.clone()).collect();
            assert_eq!(*rows.lock(), want_rows, "member {id}");
            assert_eq!(report.results, want.len() as u64);
            // Equation 1 over the member's own window: matched / visited,
            // 1 where the window is empty.
            let ratios = want.iter().map(|(row, visited)| match visited {
                0 => 1.0,
                _ => row.matched as f64 / *visited as f64,
            });
            let solo = ratios.sum::<f64>() / want.len() as f64;
            let got = report.effectiveness.unwrap().value();
            assert_eq!(got.to_bits(), solo.to_bits(), "member {id}");
            assert!(got < 1.0, "member {id}: some bound hid an in-window tuple");
        }
        assert!(worker.members.is_empty());
    }
}
