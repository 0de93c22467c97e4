//! Recompute-from-scratch window aggregation.
//!
//! The baseline path: fold every in-window tuple into a fresh accumulator.
//! Key-OIJ, SplitJoin and the OpenMLDB baseline always aggregate this way;
//! Scale-OIJ falls back to it for out-of-order base tuples and when the
//! incremental optimisation is disabled.

use oij_common::AggSpec;

/// A one-shot window accumulator. Create, feed every in-window value with
/// [`add`](Self::add), read the answer with [`finish`](Self::finish).
#[derive(Debug, Clone, Copy)]
pub struct FullWindowAgg {
    spec: AggSpec,
    sum: f64,
    count: u64,
    extreme: f64,
}

impl FullWindowAgg {
    /// Creates an empty accumulator for the given aggregate.
    #[inline]
    pub fn new(spec: AggSpec) -> Self {
        FullWindowAgg {
            spec,
            sum: 0.0,
            count: 0,
            extreme: match spec {
                AggSpec::Min => f64::INFINITY,
                AggSpec::Max => f64::NEG_INFINITY,
                _ => 0.0,
            },
        }
    }

    /// Folds one in-window value.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        match self.spec {
            AggSpec::Sum | AggSpec::Avg => self.sum += v,
            AggSpec::Count => {}
            AggSpec::Min => self.extreme = self.extreme.min(v),
            AggSpec::Max => self.extreme = self.extreme.max(v),
        }
    }

    /// Folds a run of in-window values, in order: bit-identical to calling
    /// [`add`](Self::add) on each, with the aggregate matched once outside
    /// the loop (`count` reads no value at all).
    #[inline]
    pub fn extend(&mut self, vals: &[f64]) {
        self.count += vals.len() as u64;
        match self.spec {
            AggSpec::Sum | AggSpec::Avg => self.sum = vals.iter().fold(self.sum, |s, &v| s + v),
            AggSpec::Count => {}
            AggSpec::Min => self.extreme = vals.iter().fold(self.extreme, |e, &v| e.min(v)),
            AggSpec::Max => self.extreme = vals.iter().fold(self.extreme, |e, &v| e.max(v)),
        }
    }

    /// Number of values folded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The aggregate. `sum`/`count` answer `Some(0.0)` on empty windows;
    /// `avg`/`min`/`max` have no value on empty windows.
    #[inline]
    pub fn finish(&self) -> Option<f64> {
        match self.spec {
            AggSpec::Sum => Some(self.sum),
            AggSpec::Count => Some(self.count as f64),
            AggSpec::Avg => {
                if self.count == 0 {
                    None
                } else {
                    Some(self.sum / self.count as f64)
                }
            }
            AggSpec::Min | AggSpec::Max => {
                if self.count == 0 {
                    None
                } else {
                    Some(self.extreme)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(spec: AggSpec, vals: &[f64]) -> Option<f64> {
        let mut a = FullWindowAgg::new(spec);
        for &v in vals {
            a.add(v);
        }
        a.finish()
    }

    #[test]
    fn sum_count_avg() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(run(AggSpec::Sum, &vals), Some(10.0));
        assert_eq!(run(AggSpec::Count, &vals), Some(4.0));
        assert_eq!(run(AggSpec::Avg, &vals), Some(2.5));
    }

    #[test]
    fn min_max() {
        let vals = [3.0, -1.0, 2.0];
        assert_eq!(run(AggSpec::Min, &vals), Some(-1.0));
        assert_eq!(run(AggSpec::Max, &vals), Some(3.0));
    }

    #[test]
    fn empty_window_semantics() {
        assert_eq!(run(AggSpec::Sum, &[]), Some(0.0));
        assert_eq!(run(AggSpec::Count, &[]), Some(0.0));
        assert_eq!(run(AggSpec::Avg, &[]), None);
        assert_eq!(run(AggSpec::Min, &[]), None);
        assert_eq!(run(AggSpec::Max, &[]), None);
    }

    #[test]
    fn extend_is_bit_identical_to_repeated_add() {
        const SPECS: [AggSpec; 5] = [
            AggSpec::Sum,
            AggSpec::Count,
            AggSpec::Avg,
            AggSpec::Min,
            AggSpec::Max,
        ];
        let inputs: [&[f64]; 9] = [
            &[],
            &[2.5],
            &[0.0, -0.0],
            &[-0.0, 0.0],
            &[1.0, f64::NAN, 3.0],
            &[f64::NAN],
            &[f64::INFINITY, 1.0, f64::NEG_INFINITY],
            &[f64::NEG_INFINITY, f64::MAX, f64::MAX],
            // Not representable: the sum depends on the fold order.
            &[0.1, 0.2, 0.3, 1e16, -1e16, 0.7],
        ];
        for spec in SPECS {
            for vals in inputs {
                // Whole, and split at every point: a second `extend`
                // continues the first.
                for cut in 0..=vals.len() {
                    let mut folded = FullWindowAgg::new(spec);
                    folded.extend(&vals[..cut]);
                    folded.extend(&vals[cut..]);
                    let mut added = FullWindowAgg::new(spec);
                    for &v in vals {
                        added.add(v);
                    }
                    assert_eq!(folded.count(), added.count(), "{spec:?} {vals:?}");
                    assert_eq!(
                        folded.finish().map(f64::to_bits),
                        added.finish().map(f64::to_bits),
                        "{spec:?} {vals:?} cut {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_and_duplicate_values() {
        assert_eq!(run(AggSpec::Sum, &[-5.0, -5.0, 10.0]), Some(0.0));
        assert_eq!(run(AggSpec::Min, &[2.0, 2.0]), Some(2.0));
    }
}
