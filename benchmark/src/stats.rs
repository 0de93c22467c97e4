//! Small statistics shared by every leg: medians and quartiles of
//! repeats, exact quantiles of sampled spans, the failure share, and the
//! feed fingerprint that proves `--seed` alone determines the input.

use oij_common::Event;
use oij_metrics::LatencyHistogram;

/// Median and quartiles of a set of repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Linear-interpolated quantile (`q` in 0..=1) of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// Quartiles of a non-empty sample.
pub fn quartiles(xs: &[f64]) -> Quartiles {
    let s = sorted(xs);
    Quartiles {
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
    }
}

/// Exact quantile of raw nanosecond samples (0.0 when there are none).
pub fn quantile_ns(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.iter().map(|&n| n as f64).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("integers convert to finite floats"));
    quantile_sorted(&v, q)
}

/// Quantile of a latency histogram in milliseconds, interpolated inside
/// the bucket the quantile falls in. `LatencyHistogram::quantile_ns`
/// returns the bucket's lower bound, which moves in steps of ~6 % (16
/// linear sub-buckets per power of two) and so reads the same run after
/// run; a gated metric needs every digit.
pub fn quantile_ms(hist: &LatencyHistogram, q: f64) -> f64 {
    let mut below = 0.0;
    for (lower_ns, cumulative) in hist.cdf() {
        if cumulative >= q {
            let width = if lower_ns < 32 {
                1
            } else {
                1u64 << (lower_ns.ilog2() - 4)
            };
            let inside = ((q - below) / (cumulative - below)).clamp(0.0, 1.0);
            let ns = lower_ns as f64 + inside * width as f64;
            return ns.min(hist.max_ns() as f64) / 1e6;
        }
        below = cumulative;
    }
    hist.max_ns() as f64 / 1e6
}

/// Operations attempted and failed, summed over every leg of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`; a run that attempted nothing failed whole.
    pub fn failed_share(self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed.min(self.attempted) as f64 / self.attempted as f64
        }
    }
}

/// Rows of a paced leg that missed the latency limit, from the share of
/// the histogram at or below it.
pub fn rows_over_limit(rows: u64, share_within_limit: f64) -> u64 {
    let over = (1.0 - share_within_limit.clamp(0.0, 1.0)) * rows as f64;
    over.round() as u64
}

/// FNV-1a over every field of every event: two feeds hash equal exactly
/// when they are the same input.
pub fn feed_hash(events: &[Event]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for ev in events {
        mix(ev.seq);
        if let Some((side, t)) = ev.as_data() {
            mix(side as u64);
            mix(t.ts.as_micros() as u64);
            mix(t.key);
            mix(t.value.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        let q = quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.25, 1.5, 1.75));
    }

    #[test]
    fn sample_quantiles_are_exact() {
        let s: Vec<u64> = (1..=101).collect();
        assert_eq!(quantile_ns(&s, 0.5), 51.0);
        assert_eq!(quantile_ns(&s, 0.99), 100.0);
        assert_eq!(quantile_ns(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_their_bucket() {
        let mut h = LatencyHistogram::new();
        for ns in (100_000..200_000).step_by(10) {
            h.record(ns);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = (100_000.0 + q * 100_000.0) / 1e6;
            let got = quantile_ms(&h, q);
            assert!(
                (got - exact).abs() / exact < 0.005,
                "q{q}: {got} vs {exact}"
            );
            // Never below the histogram's own (lower-bound) answer, and
            // less than one bucket (1/16) above it.
            let lower = h.quantile_ns(q) as f64 / 1e6;
            assert!(got >= lower && got < lower * (1.0 + 1.0 / 16.0), "q{q}");
        }
        assert_eq!(quantile_ms(&LatencyHistogram::new(), 0.5), 0.0);
    }

    #[test]
    fn failed_share_arithmetic() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 1.0, "nothing attempted counts as failed");
        t.add(Tally {
            attempted: 1000,
            failed: 0,
        });
        assert_eq!(t.failed_share(), 0.0);
        t.add(Tally {
            attempted: 1000,
            failed: 50,
        });
        assert_eq!(t.failed_share(), 0.025);
        // A whole failed leg can be charged more than once; the share
        // still tops out at 1.
        t.add(Tally {
            attempted: 0,
            failed: 10_000,
        });
        assert_eq!(t.failed_share(), 1.0);

        assert_eq!(rows_over_limit(10_000, 1.0), 0);
        assert_eq!(rows_over_limit(10_000, 0.999), 10);
        assert_eq!(rows_over_limit(10_000, 0.0), 10_000);
    }
}
