//! # oij-metrics — measurement toolkit for the OIJ study
//!
//! Implements the performance metrics of the paper's Section III-B and the
//! derived quantities its analysis relies on:
//!
//! - [`latency::LatencyHistogram`] — log-bucketed latency recorder with
//!   percentile and CDF output (Figures 5, 17–20, 23).
//! - [`breakdown::TimeBreakdown`] — lookup / match / other processing-time
//!   split (Figure 6).
//! - [`stats`] — *effectiveness* (Equation 1), *unbalancedness*
//!   (Equation 2) and helper statistics.
//! - [`occupancy::BatchOccupancy`] — fill-level histogram for the batched
//!   routing path (oij-core DESIGN.md §10): how full each coalesced batch
//!   was when its joiner received it.
//! - [`timeline::BusyTimeline`] — per-joiner busy-time over wall-clock
//!   buckets, the in-process stand-in for the CPU-utilisation sampling of
//!   Figure 14.
//! - [`disorder::DisorderEstimator`] — online lateness recommendation, an
//!   implementation of the paper's "tunable accuracy without prior
//!   knowledge" future-work item.

#![warn(missing_docs)]

pub mod breakdown;
pub mod disorder;
pub mod latency;
pub mod occupancy;
pub mod stats;
pub mod timeline;

pub use breakdown::TimeBreakdown;
pub use disorder::DisorderEstimator;
pub use latency::LatencyHistogram;
pub use occupancy::BatchOccupancy;
pub use stats::{effectiveness, unbalancedness, EffectivenessMeter};
pub use timeline::BusyTimeline;
