//! Parameterised synthetic stream generation.
//!
//! The generator produces a merged, arrival-ordered event feed for two
//! streams (base `S` and probe `R`) with:
//!
//! - evenly spaced event timestamps at a configurable event-time rate,
//! - keys drawn uniformly, Zipf-skewed, or from a rotating hot set
//!   (paper Figure 14's "random set of hot keys flow periodically"),
//! - bounded disorder: each tuple's *arrival* is delayed by a uniform
//!   jitter of at most `disorder`, so event-time inversions never exceed
//!   `disorder` and a lateness of `l ≥ disorder` yields exact results,
//! - a configurable probe/base split and value range.
//!
//! Everything is seeded and replayable.

use oij_common::{Duration, Event, Side, Timestamp, Tuple};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Key-selection distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf with the given exponent (> 0; larger = more skew). Rank 1 is
    /// key 0.
    Zipf {
        /// Skew exponent `s` in `p(rank) ∝ rank^{-s}`.
        exponent: f64,
    },
    /// A hot subset of keys receives `hot_fraction` of the traffic; the
    /// subset is re-drawn every `period` of event time (paper Figure 14).
    RotatingHot {
        /// Number of simultaneously hot keys.
        hot_keys: u64,
        /// Fraction of tuples routed to the hot set (0..=1).
        hot_fraction: f64,
        /// Event-time between hot-set rotations.
        period: Duration,
    },
}

/// Full generator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Total tuples to generate (both streams combined).
    pub tuples: usize,
    /// Number of unique keys `u`.
    pub unique_keys: u64,
    /// Key distribution.
    pub key_dist: KeyDist,
    /// Fraction of tuples on the probe stream `R` (the rest are base `S`).
    pub probe_fraction: f64,
    /// Event-time spacing between consecutive tuples, i.e. the inverse of
    /// the event-time arrival rate `v`.
    pub spacing: Duration,
    /// Maximum event-time disorder of the arrival order. Zero = in order.
    pub disorder: Duration,
    /// Ignored: tuples carry no payload. Kept only for struct literals
    /// outside this workspace that still name it.
    #[deprecated(note = "tuples carry no payload; ignored")]
    pub payload_bytes: usize,
    /// RNG seed; identical configs generate identical feeds.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    #[expect(deprecated, reason = "initialises the ignored field")]
    fn default() -> Self {
        SyntheticConfig {
            tuples: 100_000,
            unique_keys: 100,
            key_dist: KeyDist::Uniform,
            probe_fraction: 0.5,
            spacing: Duration::from_micros(1),
            disorder: Duration::ZERO,
            payload_bytes: 0,
            seed: 0xA11CE,
        }
    }
}

impl SyntheticConfig {
    /// Event-time arrival rate in tuples/second implied by `spacing`.
    pub fn event_rate_per_sec(&self) -> f64 {
        1e6 / self.spacing.as_micros().max(1) as f64
    }

    /// Expected probe tuples of one key inside a window of length `w`
    /// (the paper's "matching elements in each time window").
    pub fn expected_matches_per_window(&self, w: Duration) -> f64 {
        let per_key_rate =
            self.event_rate_per_sec() * self.probe_fraction / self.unique_keys as f64;
        per_key_rate * w.as_micros() as f64 / 1e6
    }

    /// Generates the arrival-ordered event feed (without a trailing flush).
    pub fn generate(&self) -> Vec<Event> {
        assert!(
            (0.0..=1.0).contains(&self.probe_fraction),
            "probe_fraction must be in [0,1]"
        );
        assert!(self.spacing.as_micros() > 0, "spacing must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut key_picker = KeyPicker::new(&self.key_dist, self.unique_keys, &mut rng);
        let value_dist = Uniform::new(-100.0f64, 100.0);

        // 1) Ideal, in-order tuples.
        let mut staged: Vec<(i64, Side, Tuple)> = Vec::with_capacity(self.tuples);
        let spacing = self.spacing.as_micros();
        let disorder = self.disorder.as_micros();
        for i in 0..self.tuples {
            let ts = Timestamp::from_micros(i as i64 * spacing);
            let side = if rng.gen_bool(self.probe_fraction) {
                Side::Probe
            } else {
                Side::Base
            };
            let key = key_picker.pick(ts, &mut rng);
            let tuple = Tuple::new(ts, key, value_dist.sample(&mut rng));
            // 2) Arrival instant = event time + bounded jitter.
            let jitter = if disorder == 0 {
                0
            } else {
                rng.gen_range(0..=disorder)
            };
            staged.push((ts.as_micros() + jitter, side, tuple));
        }

        // 3) Arrival order = sort by (jittered instant, original index);
        //    stable sort keeps equal-instant tuples in event order.
        staged.sort_by_key(|(arrival, _, _)| *arrival);
        staged
            .into_iter()
            .enumerate()
            .map(|(seq, (_, side, tuple))| Event::data(seq as u64, side, tuple))
            .collect()
    }
}

/// Internal sampler over the configured key distribution.
struct KeyPicker {
    keys: u64,
    kind: PickerKind,
}

enum PickerKind {
    Uniform,
    /// Precomputed Zipf CDF over ranks.
    Zipf(Vec<f64>),
    RotatingHot {
        hot_keys: u64,
        hot_fraction: f64,
        period_us: i64,
        current_period: i64,
        hot_set: Vec<u64>,
    },
}

impl KeyPicker {
    fn new(dist: &KeyDist, keys: u64, rng: &mut StdRng) -> Self {
        let kind = match dist {
            KeyDist::Uniform => PickerKind::Uniform,
            KeyDist::Zipf { exponent } => {
                assert!(*exponent > 0.0, "Zipf exponent must be positive");
                let mut cdf = Vec::with_capacity(keys as usize);
                let mut acc = 0.0;
                for rank in 1..=keys {
                    acc += (rank as f64).powf(-exponent);
                    cdf.push(acc);
                }
                for v in &mut cdf {
                    *v /= acc;
                }
                PickerKind::Zipf(cdf)
            }
            KeyDist::RotatingHot {
                hot_keys,
                hot_fraction,
                period,
            } => {
                assert!(*hot_keys > 0 && *hot_keys <= keys, "hot set within keys");
                assert!((0.0..=1.0).contains(hot_fraction));
                assert!(period.as_micros() > 0, "rotation period must be positive");
                PickerKind::RotatingHot {
                    hot_keys: *hot_keys,
                    hot_fraction: *hot_fraction,
                    period_us: period.as_micros(),
                    current_period: -1,
                    hot_set: draw_hot_set(*hot_keys, keys, rng),
                }
            }
        };
        KeyPicker { keys, kind }
    }

    fn pick(&mut self, ts: Timestamp, rng: &mut StdRng) -> u64 {
        match &mut self.kind {
            PickerKind::Uniform => rng.gen_range(0..self.keys),
            PickerKind::Zipf(cdf) => {
                let x: f64 = rng.gen();
                cdf.partition_point(|&c| c < x) as u64
            }
            PickerKind::RotatingHot {
                hot_keys,
                hot_fraction,
                period_us,
                current_period,
                hot_set,
            } => {
                let period = ts.as_micros() / *period_us;
                if period != *current_period {
                    *current_period = period;
                    *hot_set = draw_hot_set(*hot_keys, self.keys, rng);
                }
                if rng.gen_bool(*hot_fraction) {
                    hot_set[rng.gen_range(0..hot_set.len())]
                } else {
                    rng.gen_range(0..self.keys)
                }
            }
        }
    }
}

fn draw_hot_set(hot: u64, keys: u64, rng: &mut StdRng) -> Vec<u64> {
    let mut set = std::collections::HashSet::with_capacity(hot as usize);
    while (set.len() as u64) < hot {
        set.insert(rng.gen_range(0..keys));
    }
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig {
            tuples: 1000,
            disorder: Duration::from_micros(50),
            ..Default::default()
        };
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn seeds_change_the_feed() {
        let a = SyntheticConfig::default().generate();
        let b = SyntheticConfig {
            seed: 7,
            ..Default::default()
        }
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn in_order_when_disorder_zero() {
        let events = SyntheticConfig {
            tuples: 5000,
            ..Default::default()
        }
        .generate();
        let mut last = i64::MIN;
        for e in &events {
            let (_, t) = e.as_data().unwrap();
            assert!(t.ts.as_micros() >= last);
            last = t.ts.as_micros();
        }
    }

    #[test]
    fn disorder_is_bounded() {
        let disorder = 200i64;
        let events = SyntheticConfig {
            tuples: 10_000,
            disorder: Duration::from_micros(disorder),
            ..Default::default()
        }
        .generate();
        // max_ts_so_far - current_ts never exceeds the disorder bound.
        let mut max_seen = 0i64;
        let mut worst = 0i64;
        for e in &events {
            let ts = e.as_data().unwrap().1.ts.as_micros();
            worst = worst.max(max_seen - ts);
            max_seen = max_seen.max(ts);
        }
        assert!(worst > 0, "some disorder expected");
        assert!(
            worst <= disorder,
            "disorder {worst} exceeds bound {disorder}"
        );
    }

    #[test]
    fn probe_fraction_is_respected() {
        let events = SyntheticConfig {
            tuples: 20_000,
            probe_fraction: 0.25,
            ..Default::default()
        }
        .generate();
        let probes = events
            .iter()
            .filter(|e| e.as_data().unwrap().0 == Side::Probe)
            .count();
        let frac = probes as f64 / events.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "probe fraction {frac}");
    }

    #[test]
    fn uniform_keys_cover_the_space_evenly() {
        let events = SyntheticConfig {
            tuples: 50_000,
            unique_keys: 10,
            ..Default::default()
        }
        .generate();
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for e in &events {
            *counts.entry(e.as_data().unwrap().1.key).or_default() += 1;
        }
        assert_eq!(counts.len(), 10);
        for (&k, &c) in &counts {
            assert!(k < 10);
            let frac = c as f64 / events.len() as f64;
            assert!((frac - 0.1).abs() < 0.02, "key {k}: {frac}");
        }
    }

    #[test]
    fn zipf_is_head_heavy_and_rank_ordered() {
        let events = SyntheticConfig {
            tuples: 50_000,
            unique_keys: 100,
            key_dist: KeyDist::Zipf { exponent: 1.2 },
            ..Default::default()
        }
        .generate();
        let mut counts = vec![0usize; 100];
        for e in &events {
            counts[e.as_data().unwrap().1.key as usize] += 1;
        }
        // Key 0 (rank 1) clearly dominates key 50.
        assert!(
            counts[0] > counts[50] * 5,
            "{} vs {}",
            counts[0],
            counts[50]
        );
        // Head keys carry most of the mass.
        let head: usize = counts[..10].iter().sum();
        assert!(head * 2 > events.len(), "head mass too small: {head}");
    }

    #[test]
    fn rotating_hot_set_changes_over_time() {
        let period = Duration::from_micros(10_000);
        let events = SyntheticConfig {
            tuples: 100_000,
            unique_keys: 10_000,
            key_dist: KeyDist::RotatingHot {
                hot_keys: 10,
                hot_fraction: 0.9,
                period,
            },
            ..Default::default()
        }
        .generate();
        // Within each period, traffic concentrates on few keys; the top key
        // set differs across periods.
        let mut per_period: HashMap<i64, HashMap<u64, usize>> = HashMap::new();
        for e in &events {
            let t = e.as_data().unwrap().1;
            *per_period
                .entry(t.ts.as_micros() / period.as_micros())
                .or_default()
                .entry(t.key)
                .or_default() += 1;
        }
        let tops: Vec<std::collections::BTreeSet<u64>> = per_period
            .values()
            .map(|counts| {
                let mut v: Vec<_> = counts.iter().collect();
                v.sort_by_key(|(_, c)| std::cmp::Reverse(**c));
                v.into_iter().take(10).map(|(k, _)| *k).collect()
            })
            .collect();
        assert!(tops.len() >= 5);
        // Concentration: top-10 keys carry ≥ 70% of a period's traffic.
        for (period_id, counts) in &per_period {
            let total: usize = counts.values().sum();
            let mut v: Vec<usize> = counts.values().cloned().collect();
            v.sort_by_key(|c| std::cmp::Reverse(*c));
            let top: usize = v.into_iter().take(10).sum();
            assert!(
                top as f64 > 0.7 * total as f64,
                "period {period_id}: top {top}/{total}"
            );
        }
        // Rotation: at least two periods have different hot sets.
        assert!(
            tops.windows(2).any(|w| w[0] != w[1]),
            "hot set never rotated"
        );
    }

    #[test]
    fn expected_matches_formula() {
        let cfg = SyntheticConfig {
            unique_keys: 5,
            probe_fraction: 0.5,
            spacing: Duration::from_micros(1), // 1M tuples/s event time
            ..Default::default()
        };
        // per-key probe rate = 1e6*0.5/5 = 1e5/s; window 40ms → 4000.
        let m = cfg.expected_matches_per_window(Duration::from_millis(40));
        assert!((m - 4000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "hot set within keys")]
    fn rotating_hot_set_larger_than_key_space_panics() {
        SyntheticConfig {
            tuples: 10,
            unique_keys: 5,
            key_dist: KeyDist::RotatingHot {
                hot_keys: 10,
                hot_fraction: 0.5,
                period: Duration::from_micros(100),
            },
            ..Default::default()
        }
        .generate();
    }

    #[test]
    #[should_panic(expected = "probe_fraction")]
    fn probe_fraction_out_of_range_panics() {
        SyntheticConfig {
            tuples: 10,
            probe_fraction: 1.5,
            ..Default::default()
        }
        .generate();
    }

    #[test]
    #[should_panic(expected = "Zipf exponent")]
    fn non_positive_zipf_exponent_panics() {
        SyntheticConfig {
            tuples: 10,
            key_dist: KeyDist::Zipf { exponent: 0.0 },
            ..Default::default()
        }
        .generate();
    }
}
