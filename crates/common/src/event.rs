//! Stream events: what sources deliver to engines.
//!
//! An [`Event`] wraps a [`Tuple`] with its stream [`Side`] and the
//! *arrival* metadata engines need for latency accounting and watermark
//! maintenance. Arrival order is captured by a dense sequence number so
//! workloads are exactly replayable; wall-clock arrival instants are
//! assigned by the runtime when measuring latency.

use serde::{Deserialize, Serialize};

use crate::tuple::{Side, Tuple};

/// What an event carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A data tuple on one of the two streams.
    Data {
        /// The stream the tuple belongs to.
        side: Side,
        /// The tuple itself.
        tuple: Tuple,
    },
    /// End of input: sources emit this once; engines flush pending state.
    Flush,
}

/// One element of the merged, arrival-ordered input feed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Dense arrival sequence number (0, 1, 2, …) across both streams.
    /// Defines the replayable arrival order, which may differ from event-time
    /// order when the stream is disordered.
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// Creates a data event.
    #[inline]
    pub fn data(seq: u64, side: Side, tuple: Tuple) -> Self {
        Event {
            seq,
            kind: EventKind::Data { side, tuple },
        }
    }

    /// Creates the flush sentinel.
    #[inline]
    pub fn flush(seq: u64) -> Self {
        Event {
            seq,
            kind: EventKind::Flush,
        }
    }

    /// Returns the contained tuple and side, if this is a data event.
    #[inline]
    pub fn as_data(&self) -> Option<(Side, &Tuple)> {
        match &self.kind {
            EventKind::Data { side, tuple } => Some((*side, tuple)),
            EventKind::Flush => None,
        }
    }

    /// Whether this is the flush sentinel.
    #[inline]
    pub fn is_flush(&self) -> bool {
        matches!(self.kind, EventKind::Flush)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    #[test]
    fn data_event_accessors() {
        let t = Tuple::new(Timestamp::from_micros(1), 2, 3.0);
        let e = Event::data(7, Side::Probe, t);
        assert_eq!(e.seq, 7);
        let (side, tuple) = e.as_data().unwrap();
        assert_eq!(side, Side::Probe);
        assert_eq!(tuple, &t);
        assert!(!e.is_flush());
    }

    #[test]
    fn flush_event() {
        let e = Event::flush(100);
        assert!(e.is_flush());
        assert!(e.as_data().is_none());
    }
}
