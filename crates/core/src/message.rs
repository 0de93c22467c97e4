//! Driver → joiner channel messages, generic over the payload: the four
//! engines carry [`DataMsg`], the serving runtime its own scan-group
//! message (DESIGN.md "Engine shell").

use std::time::Instant;

use oij_common::{Side, Timestamp, Tuple};

/// What the shared shell needs to know about a data payload: the two
/// stamps the driver already took, so coalescing and protocol shadowing
/// add no clock read and no field per tuple, and what the per-message
/// joiner step branches on.
pub trait Payload: Send + 'static {
    /// Instant the driver accepted the tuple (flush-deadline anchor).
    fn arrival(&self) -> Instant;
    /// The driver's pre-observation watermark stamp for the tuple.
    fn watermark(&self) -> Timestamp;
    /// Which stream the tuple belongs to.
    fn side(&self) -> Side;
    /// The tuple.
    fn tuple(&self) -> &Tuple;
    /// Global arrival sequence number.
    fn seq(&self) -> u64;
    /// Whether this is an in-band control payload rather than a tuple:
    /// the worker loop hands it to [`Joiner::control`](crate::shell::Joiner::control)
    /// in channel order and applies none of the per-tuple step to it. The
    /// engines' payload never is one, so their loop loses the branch.
    #[inline]
    fn is_control(&self) -> bool {
        false
    }
}

/// One unit of work handed to a joiner.
#[derive(Debug, Clone)]
pub enum Msg<T> {
    /// Up to `EngineConfig::batch_size` payloads for this destination,
    /// oldest first — the edge's one data message; `batch_size = 1` sends
    /// a batch of one. Semantically equivalent to sending each payload
    /// individually: joiners process the run element by element (late
    /// accounting, watermark bookkeeping and expiration cadence are applied
    /// per tuple), and fault ordinals keep addressing individual tuples
    /// inside the batch. Batching only amortizes channel synchronization
    /// and lets joiners pin a key/index lookup across a same-key run.
    ///
    /// Boxed so that a `Msg` stays two words: every bounded channel
    /// preallocates `channel_capacity` slots, and a bare `Vec` would grow
    /// each ring from 64 KiB to 96 KiB at the default capacity.
    Batch(Box<Vec<T>>),
    /// Periodic watermark broadcast so that joiners receiving little or no
    /// data still advance their published progress (enabling expiration
    /// and watermark-mode emission on their teammates).
    ///
    /// Ordering contract: the driver flushes every coalescing buffer
    /// *before* broadcasting a heartbeat, so a heartbeat can never advance
    /// a joiner's watermark past tuples still parked in a driver-side
    /// batch buffer (see DESIGN.md §10); the receiver's probe checks it.
    Heartbeat(Timestamp),
    /// End of input. After receiving this a joiner drains its pending
    /// state and reports its statistics.
    Flush,
}

impl<T> Msg<T> {
    /// Data tuples this message carries (0 for control traffic) — what a
    /// lossy sender counts when it sheds the message.
    pub fn tuples(&self) -> usize {
        match self {
            Msg::Batch(msgs) => msgs.len(),
            Msg::Heartbeat(_) | Msg::Flush => 0,
        }
    }
}

/// The engines' data payload.
#[derive(Debug, Clone)]
pub(crate) struct DataMsg {
    /// Which stream the tuple belongs to.
    pub side: Side,
    /// The tuple.
    pub tuple: Tuple,
    /// Global arrival sequence number.
    pub seq: u64,
    /// Wall-clock instant the driver accepted the tuple (latency anchor).
    pub arrival: Instant,
    /// The driver's watermark **before** observing this tuple. Joiners use
    /// it for expiration and, in watermark emission mode, for deciding when
    /// pending base tuples are complete. Pre-observation semantics make
    /// `tuple.ts > watermark + lateness` the exact "this tuple advances the
    /// maximum" test.
    pub watermark: Timestamp,
}

impl Payload for DataMsg {
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
        self.side
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_message_is_two_words() {
        assert_eq!(
            std::mem::size_of::<Msg<DataMsg>>(),
            2 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn a_data_message_fits_one_cache_line() {
        assert!(std::mem::size_of::<DataMsg>() <= 64);
    }
}
