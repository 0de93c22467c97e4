//! Stream tuples and stream identity.

use serde::{Deserialize, Serialize};

use crate::time::Timestamp;

/// A join key. Keys are pre-hashed 64-bit identities; the workload layer maps
/// application keys (user ids, card numbers, …) onto this space.
pub type Key = u64;

/// Which of the two joined streams a tuple belongs to.
///
/// The paper calls `S` the **base** stream (each of its tuples produces one
/// output feature row) and `R` the **probe** stream (its tuples populate the
/// relative windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The base stream `S`: drives window creation, one output per tuple.
    Base,
    /// The probe stream `R`: provides the data aggregated inside windows.
    Probe,
}

impl Side {
    /// The opposite stream: the one a tuple of this side joins against.
    #[inline]
    pub const fn opposite(self) -> Side {
        match self {
            Side::Base => Side::Probe,
            Side::Probe => Side::Base,
        }
    }

    /// Short label used in logs and benchmark output (`"S"` / `"R"`).
    #[inline]
    pub const fn label(self) -> &'static str {
        match self {
            Side::Base => "S",
            Side::Probe => "R",
        }
    }
}

/// An input tuple `x = {t, k, p}` (paper Table I), reduced to what the join
/// reads: the timestamp, the key and `value`, the one column of the row `p`
/// that window aggregations (sum/avg/min/…) consume.
///
/// The rest of a real feature platform's row never reaches the engines, so
/// it is out of scope here (DESIGN.md §5). A tuple is therefore a 24-byte
/// `Copy` value: moving it allocates nothing and shares no refcount.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// Event-time timestamp `t`.
    pub ts: Timestamp,
    /// Join key `k`.
    pub key: Key,
    /// The numeric column that aggregations read (e.g. `col2` in the paper's
    /// example SQL).
    pub value: f64,
}

impl Tuple {
    /// Creates a tuple.
    #[inline]
    pub fn new(ts: Timestamp, key: Key, value: f64) -> Self {
        Tuple { ts, key, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_side_is_involutive() {
        assert_eq!(Side::Base.opposite(), Side::Probe);
        assert_eq!(Side::Probe.opposite(), Side::Base);
        assert_eq!(Side::Base.opposite().opposite(), Side::Base);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(Side::Base.label(), "S");
        assert_eq!(Side::Probe.label(), "R");
    }

    #[test]
    fn a_tuple_is_a_24_byte_copy_value() {
        fn is_copy<T: Copy>() {}
        is_copy::<Tuple>();
        assert_eq!(std::mem::size_of::<Tuple>(), 24);
    }
}
