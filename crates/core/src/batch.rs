//! Driver-side coalescing for the driver→joiner edge.
//!
//! The driver→joiner path sends data through a bounded channel, so at high
//! rates channel synchronization dominates before any join work starts
//! (the per-tuple overhead the paper's scalability argument is about,
//! §V–§VI). [`Batcher`] keeps one coalescing buffer per destination on the
//! driver (DESIGN.md §10). A buffer is flushed when it reaches
//! `EngineConfig::batch_size`, when its oldest tuple exceeds
//! `EngineConfig::flush_deadline`, before any heartbeat broadcast (so a
//! heartbeat can never overtake parked data), and at end of input. Every
//! data message is a batch: `batch_size == 1` fills and flushes a batch of
//! one on every push, through the same code.

use std::time::{Duration as StdDuration, Instant};

use crate::message::{Msg, Payload};

/// Per-destination coalescing buffers on the driver thread (one worker
/// pool owns one; not shared across threads — only the buffers travel).
///
/// All flush triggers live here so the four engines and the serving tier
/// share one set of semantics; see the module docs for the trigger list.
pub(crate) struct Batcher<T> {
    batch_size: usize,
    deadline: StdDuration,
    /// One pending buffer per destination, oldest message first.
    bufs: Vec<Vec<T>>,
    /// Arrival instant of each buffer's oldest message (`None` = empty).
    first_at: Vec<Option<Instant>>,
    /// Non-empty buffer count, so the per-push deadline sweep is a single
    /// branch while everything is flushed.
    armed: usize,
}

impl<T: Payload> Batcher<T> {
    /// A batcher for `destinations` workers.
    pub(crate) fn new(destinations: usize, batch_size: usize, deadline: StdDuration) -> Self {
        Batcher {
            batch_size,
            deadline,
            bufs: (0..destinations).map(|_| Vec::new()).collect(),
            first_at: vec![None; destinations],
            armed: 0,
        }
    }

    /// Coalesces `msg` toward `dest`; returns the filled batch the caller
    /// must route to `dest` now once the buffer reaches `batch_size`.
    #[inline]
    pub(crate) fn push(&mut self, dest: usize, msg: T) -> Option<Msg<T>> {
        let buf = &mut self.bufs[dest];
        if buf.is_empty() {
            self.first_at[dest] = Some(msg.arrival());
            self.armed += 1;
            // The previous batch left with its buffer; the joiner drops it.
            *buf = Vec::with_capacity(self.batch_size);
        }
        buf.push(msg);
        if buf.len() >= self.batch_size {
            return Some(self.detach(dest));
        }
        None
    }

    /// Pops one buffer whose oldest message is older than the flush
    /// deadline as of `now` (call in a loop until `None`). `now` is the
    /// arrival stamp of the current push — the driver thread never reads
    /// the clock twice per tuple.
    #[inline]
    pub(crate) fn pop_expired(&mut self, now: Instant) -> Option<(usize, Msg<T>)> {
        if self.armed == 0 {
            return None;
        }
        for dest in 0..self.first_at.len() {
            if let Some(first) = self.first_at[dest] {
                if now.saturating_duration_since(first) >= self.deadline {
                    return Some((dest, self.detach(dest)));
                }
            }
        }
        None
    }

    /// Pops any non-empty buffer (call in a loop until `None`): the
    /// flush-everything path used before heartbeat broadcasts and at end
    /// of input.
    #[inline]
    pub(crate) fn pop_any(&mut self) -> Option<(usize, Msg<T>)> {
        if self.armed == 0 {
            return None;
        }
        let dest = self.first_at.iter().position(Option::is_some)?;
        Some((dest, self.detach(dest)))
    }

    #[inline]
    fn detach(&mut self, dest: usize) -> Msg<T> {
        self.armed -= 1;
        self.first_at[dest] = None;
        Msg::Batch(Box::new(std::mem::take(&mut self.bufs[dest])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::DataMsg;
    use oij_common::{Side, Timestamp, Tuple};

    fn msg(seq: u64, arrival: Instant) -> DataMsg {
        DataMsg {
            side: Side::Probe,
            tuple: Tuple::new(Timestamp::from_micros(seq as i64), 1, 1.0),
            seq,
            arrival,
            watermark: Timestamp::MIN,
        }
    }

    fn seqs(m: Msg<DataMsg>) -> Vec<u64> {
        match m {
            Msg::Batch(msgs) => msgs.iter().map(|m| m.seq).collect(),
            other => panic!("expected Batch, got {other:?}"),
        }
    }

    #[test]
    fn batch_size_one_sends_a_batch_of_one_at_once() {
        let now = Instant::now();
        let mut b = Batcher::new(3, 1, StdDuration::from_micros(100));
        assert_eq!(seqs(b.push(2, msg(0, now)).expect("flushed")), vec![0]);
        assert!(b.pop_expired(now).is_none());
        assert!(b.pop_any().is_none());
    }

    #[test]
    fn fills_flush_at_batch_size() {
        let now = Instant::now();
        let mut b = Batcher::new(2, 3, StdDuration::from_secs(1));
        assert!(b.push(0, msg(0, now)).is_none());
        assert!(b.push(0, msg(1, now)).is_none());
        assert!(b.push(1, msg(2, now)).is_none());
        assert_eq!(seqs(b.push(0, msg(3, now)).expect("full")), vec![0, 1, 3]);
        // Destination 1 still has a partial batch.
        let (dest, m) = b.pop_any().expect("partial remains");
        assert_eq!(dest, 1);
        assert_eq!(seqs(m), vec![2]);
        assert!(b.pop_any().is_none());
    }

    #[test]
    fn deadline_flushes_partial_batches() {
        let t0 = Instant::now();
        let mut b = Batcher::new(2, 8, StdDuration::from_micros(50));
        assert!(b.push(0, msg(0, t0)).is_none());
        assert!(b.pop_expired(t0).is_none(), "not yet due");
        let late = t0 + StdDuration::from_micros(60);
        let (dest, m) = b.pop_expired(late).expect("deadline passed");
        assert_eq!(dest, 0);
        assert_eq!(seqs(m), vec![0]);
        assert!(b.pop_expired(late).is_none());
    }
}
