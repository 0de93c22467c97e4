//! Proxies of the paper's named workloads.
//!
//! Table II publishes, for each proprietary workload, the arrival rate `v`,
//! unique keys `u`, window length `|w|`, lateness `l`, and (in the prose)
//! the density that actually drives join cost: *matching elements per
//! window*. The proxies here hold `u` and the densities faithful and scale
//! the event-time axis so a bench-sized run covers many windows (a pure
//! unit change: every engine compares timestamps only relatively, so
//! shrinking `|w|`, `l` and inter-arrival spacing together is behaviour-
//! preserving). The published wall-clock arrival rate is kept for latency
//! pacing.

use oij_common::{AggSpec, Duration, OijQuery};
use serde::{Deserialize, Serialize};

use crate::synthetic::{KeyDist, SyntheticConfig};

/// What Table II / the Section III-C prose publishes about a workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperSpec {
    /// Arrival rate `v` in tuples/s; `None` = ∞ (push as fast as possible).
    pub arrival_rate: Option<f64>,
    /// Unique keys `u`.
    pub unique_keys: u64,
    /// Window length `|w|` in seconds.
    pub window_secs: f64,
    /// Lateness `l` in seconds.
    pub lateness_secs: f64,
    /// "About N matching elements in each time window."
    pub matches_per_window: f64,
}

/// A named, reproducible workload: the paper's published spec plus the
/// derived event-time-scaled generator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedWorkload {
    /// Short name ("A", "B", "C", "D", "TableIV", "TableV").
    pub name: &'static str,
    /// Business sector the paper attributes the workload to.
    pub sector: &'static str,
    /// The published parameters.
    pub paper: PaperSpec,
    /// Derived event-time window (µs) at scale 1.0.
    pub window_us: i64,
    /// Derived event-time lateness (µs) at scale 1.0.
    pub lateness_us: i64,
    /// Probe-stream share used in derivation.
    pub probe_fraction: f64,
    /// Target utilisation for paced latency runs, as a fraction of the
    /// engine's measured capacity. Derived from the ratio between the
    /// paper's arrival rate and its evaluation machine's headroom: A and B
    /// run near saturation, C is unbounded (None = push at full speed),
    /// D idles at an eighth of A's rate.
    pub load_factor: Option<f64>,
}

/// Event-time arrival rate used by every proxy (1 tuple/µs).
const EVENT_RATE: f64 = 1e6;

impl NamedWorkload {
    fn derive(
        name: &'static str,
        sector: &'static str,
        paper: PaperSpec,
        probe_fraction: f64,
    ) -> Self {
        // window so that per-key in-window probe count matches the paper:
        // matches = EVENT_RATE * pf / u * w  ⇒  w = matches·u / (pf·rate)
        let window_secs =
            paper.matches_per_window * paper.unique_keys as f64 / (probe_fraction * EVENT_RATE);
        // lateness keeps the paper's l/|w| ratio (that ratio is what decides
        // how much out-of-window data a full-scan engine wades through).
        let lateness_secs = window_secs * paper.lateness_secs / paper.window_secs;
        // None (∞ arrival rate) pushes as fast as possible; otherwise anchor
        // A (120 K/s) at 50% utilisation, scale linearly with the published
        // rate, and cap at 90%.
        let load_factor = paper
            .arrival_rate
            .map(|rate| (0.5 * rate / 120_000.0).min(0.9));
        NamedWorkload {
            name,
            sector,
            paper,
            window_us: (window_secs * 1e6).round() as i64,
            lateness_us: (lateness_secs * 1e6).round().max(1.0) as i64,
            probe_fraction,
            load_factor,
        }
    }

    /// Workload A — logistics; few keys (5), medium window & lateness,
    /// ~4000 matches per window.
    pub fn a() -> Self {
        Self::derive(
            "A",
            "logistics",
            PaperSpec {
                arrival_rate: Some(120_000.0),
                unique_keys: 5,
                window_secs: 1.0,
                lateness_secs: 1.0,
                matches_per_window: 4000.0,
            },
            0.5,
        )
    }

    /// Workload B — retail; medium keys (111), **large window** (150 s),
    /// ~6000 matches per window.
    pub fn b() -> Self {
        Self::derive(
            "B",
            "retail",
            PaperSpec {
                arrival_rate: Some(200_000.0),
                unique_keys: 111,
                window_secs: 150.0,
                lateness_secs: 10.0,
                matches_per_window: 6000.0,
            },
            0.5,
        )
    }

    /// Workload C — retail; unbounded arrival rate, **large lateness**
    /// (100 s vs an 8 s window), ~300 matches per window.
    pub fn c() -> Self {
        Self::derive(
            "C",
            "retail",
            PaperSpec {
                arrival_rate: None,
                unique_keys: 45,
                window_secs: 8.0,
                lateness_secs: 100.0,
                matches_per_window: 300.0,
            },
            0.5,
        )
    }

    /// Workload D — logistics; like A but at a low arrival rate (15 K/s).
    pub fn d() -> Self {
        Self::derive(
            "D",
            "logistics",
            PaperSpec {
                arrival_rate: Some(15_000.0),
                unique_keys: 5,
                window_secs: 1.0,
                lateness_secs: 2.0,
                matches_per_window: 4000.0,
            },
            0.5,
        )
    }

    /// The four real-world proxies in paper order.
    pub fn all_real() -> [NamedWorkload; 4] {
        [Self::a(), Self::b(), Self::c(), Self::d()]
    }

    /// Table IV default synthetic workload: u = 100, |w| = 1000 µs,
    /// l = 100 µs (event-time literal, no scaling applied).
    pub fn table_iv() -> Self {
        NamedWorkload {
            name: "TableIV",
            sector: "synthetic",
            paper: PaperSpec {
                arrival_rate: None,
                unique_keys: 100,
                window_secs: 0.001,
                lateness_secs: 0.0001,
                matches_per_window: 5.0, // 1M/s · 0.5 / 100 · 1ms
            },
            window_us: 1000,
            lateness_us: 100,
            probe_fraction: 0.5,
            load_factor: None,
        }
    }

    /// Table V adversarial synthetic workload: u = 1000, |w| = 100 µs,
    /// l = 10 µs — many keys, tiny window, tiny lateness (where Key-OIJ
    /// wins, paper Figure 21).
    pub fn table_v() -> Self {
        NamedWorkload {
            name: "TableV",
            sector: "synthetic",
            paper: PaperSpec {
                arrival_rate: None,
                unique_keys: 1000,
                window_secs: 0.0001,
                lateness_secs: 0.00001,
                matches_per_window: 0.05,
            },
            window_us: 100,
            lateness_us: 10,
            probe_fraction: 0.5,
            load_factor: None,
        }
    }

    /// Generator configuration for a run of `tuples` events at density
    /// `scale` (1.0 = the paper's published densities; smaller values
    /// shrink matches-per-window proportionally for quick runs).
    pub fn config(&self, tuples: usize, scale: f64) -> SyntheticConfig {
        SyntheticConfig {
            tuples,
            unique_keys: self.paper.unique_keys,
            key_dist: KeyDist::Uniform,
            probe_fraction: self.probe_fraction,
            spacing: Duration::from_micros(1),
            disorder: self.scaled_lateness(scale),
            seed: 0xBEEF ^ self.paper.unique_keys,
            ..Default::default()
        }
    }

    /// The OIJ query this workload runs (sum over the preceding window).
    pub fn query(&self, scale: f64) -> OijQuery {
        OijQuery::builder()
            .preceding(self.scaled_window(scale))
            .lateness(self.scaled_lateness(scale))
            .agg(AggSpec::Sum)
            .build()
            .expect("derived offsets are non-negative")
    }

    /// Event-time window at the given density scale.
    pub fn scaled_window(&self, scale: f64) -> Duration {
        Duration::from_micros(((self.window_us as f64 * scale).round() as i64).max(1))
    }

    /// Event-time lateness at the given density scale.
    pub fn scaled_lateness(&self, scale: f64) -> Duration {
        Duration::from_micros(((self.lateness_us as f64 * scale).round() as i64).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_densities_match_published() {
        for w in NamedWorkload::all_real() {
            let cfg = w.config(1000, 1.0);
            let m = cfg.expected_matches_per_window(w.scaled_window(1.0));
            let rel = (m - w.paper.matches_per_window).abs() / w.paper.matches_per_window;
            assert!(
                rel < 0.01,
                "workload {}: {m} vs {}",
                w.name,
                w.paper.matches_per_window
            );
        }
    }

    #[test]
    fn lateness_window_ratio_is_preserved() {
        for w in NamedWorkload::all_real() {
            let ours = w.lateness_us as f64 / w.window_us as f64;
            let paper = w.paper.lateness_secs / w.paper.window_secs;
            assert!(
                (ours - paper).abs() / paper < 0.02,
                "workload {}: {ours} vs {paper}",
                w.name
            );
        }
    }

    #[test]
    fn table_ii_parameters_recorded() {
        let a = NamedWorkload::a();
        assert_eq!(a.paper.unique_keys, 5);
        assert_eq!(a.paper.arrival_rate, Some(120_000.0));
        let b = NamedWorkload::b();
        assert_eq!(b.paper.unique_keys, 111);
        assert_eq!(b.paper.window_secs, 150.0);
        let c = NamedWorkload::c();
        assert_eq!(c.paper.arrival_rate, None);
        assert_eq!(c.paper.lateness_secs, 100.0);
        let d = NamedWorkload::d();
        assert_eq!(d.paper.arrival_rate, Some(15_000.0));
    }

    #[test]
    fn c_has_dominant_lateness_b_has_dominant_window() {
        let b = NamedWorkload::b();
        assert!(b.window_us > 10 * b.lateness_us, "B: window-dominated");
        let c = NamedWorkload::c();
        assert!(c.lateness_us > 10 * c.window_us, "C: lateness-dominated");
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let b = NamedWorkload::b();
        let full = b.scaled_window(1.0).as_micros();
        let tenth = b.scaled_window(0.1).as_micros();
        assert!((tenth as f64 - full as f64 * 0.1).abs() <= 1.0);
    }

    #[test]
    fn query_uses_workload_offsets() {
        let w = NamedWorkload::table_iv();
        let q = w.query(1.0);
        assert_eq!(q.window.preceding, Duration::from_micros(1000));
        assert_eq!(q.window.lateness, Duration::from_micros(100));
        assert_eq!(q.window.following, Duration::ZERO);
    }

    #[test]
    fn load_factors_reflect_published_rates() {
        assert!((NamedWorkload::a().load_factor.unwrap() - 0.5).abs() < 1e-9);
        assert!((NamedWorkload::b().load_factor.unwrap() - 0.8333).abs() < 1e-3);
        assert!((NamedWorkload::d().load_factor.unwrap() - 0.0625).abs() < 1e-9);
        assert_eq!(NamedWorkload::c().load_factor, None); // ∞ rate
        assert_eq!(NamedWorkload::table_iv().load_factor, None);
    }

    #[test]
    fn configs_are_generatable() {
        for w in [
            NamedWorkload::a(),
            NamedWorkload::table_iv(),
            NamedWorkload::table_v(),
        ] {
            let events = w.config(2000, 0.5).generate();
            assert_eq!(events.len(), 2000);
        }
    }
}
