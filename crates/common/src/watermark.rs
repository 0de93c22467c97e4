//! Watermarks: event-time progress under bounded disorder.
//!
//! A watermark at time `w` asserts that no tuple with timestamp `< w` will
//! arrive any more. With lateness bound `l`, the watermark trails the
//! largest observed timestamp by `l`: `w = max_ts - l`. Engines use it to
//! expire buffered tuples (retention windows are computed from
//! [`crate::WindowSpec`]) and — in watermark emission mode — to decide when
//! a base tuple's aggregate is final.

use serde::{Deserialize, Serialize};

use crate::time::{Duration, Timestamp};

/// An immutable watermark value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Watermark(pub Timestamp);

impl Watermark {
    /// The initial watermark: no progress asserted yet.
    pub const INITIAL: Watermark = Watermark(Timestamp::MIN);

    /// The asserted event-time lower bound for future arrivals.
    #[inline]
    pub fn time(self) -> Timestamp {
        self.0
    }
}

/// Watermark tracker of one driver: the engine `Driver` and each serving
/// scan group own one and stamp every ingested tuple from it.
///
/// The driver feeds observed timestamps through [`observe`](Self::observe);
/// the tracker maintains `max_ts` monotonically and derives the watermark as
/// `max_ts - lateness`. Joiners never read it: the driver stamps each tuple
/// with [`current`](Self::current) before observing it.
#[derive(Debug)]
pub struct WatermarkTracker {
    max_ts: i64,
    lateness: Duration,
}

impl WatermarkTracker {
    /// Creates a tracker for streams with the given lateness bound.
    pub fn new(lateness: Duration) -> Self {
        WatermarkTracker {
            max_ts: i64::MIN,
            lateness,
        }
    }

    /// Records an observed tuple timestamp, advancing `max_ts` if needed.
    /// Returns `true` if this observation advanced the maximum.
    #[inline]
    pub fn observe(&mut self, ts: Timestamp) -> bool {
        let advanced = ts.0 > self.max_ts;
        if advanced {
            self.max_ts = ts.0;
        }
        advanced
    }

    /// Current watermark: the largest observed timestamp minus the
    /// lateness (saturating), or [`Watermark::INITIAL`] before any
    /// observation.
    #[inline]
    pub fn current(&self) -> Watermark {
        if self.max_ts == i64::MIN {
            Watermark::INITIAL
        } else {
            Watermark(Timestamp(self.max_ts).saturating_sub(self.lateness))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_watermark_is_min() {
        let t = WatermarkTracker::new(Duration::from_micros(10));
        assert_eq!(t.current(), Watermark::INITIAL);
    }

    #[test]
    fn watermark_trails_max_by_lateness() {
        let mut t = WatermarkTracker::new(Duration::from_micros(10));
        assert!(t.observe(Timestamp::from_micros(100)));
        assert_eq!(t.current().time(), Timestamp::from_micros(90));
    }

    #[test]
    fn observation_is_monotone() {
        let mut t = WatermarkTracker::new(Duration::ZERO);
        assert!(t.observe(Timestamp::from_micros(50)));
        assert!(!t.observe(Timestamp::from_micros(40))); // regression ignored
        assert_eq!(t.current().time(), Timestamp::from_micros(50));
        assert!(t.observe(Timestamp::from_micros(60)));
        assert_eq!(t.current().time(), Timestamp::from_micros(60));
    }
}
