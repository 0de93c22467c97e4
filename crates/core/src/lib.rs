//! # oij-core — the online interval join engines
//!
//! This crate is the primary contribution of the reproduction: four
//! complete parallel OIJ engines behind one [`engine::OijEngine`] interface,
//! matching the systems evaluated in the paper.
//!
//! | Engine | Paper role | Module |
//! |---|---|---|
//! | **Key-OIJ** | the existing Flink-style baseline: static key partitioning, unsorted buffers, full scans | [`keyoij`] |
//! | **Scale-OIJ** | the paper's proposal: SWMR time-travel index, virtual-team shared processing, dynamic balanced schedule, incremental window aggregation | [`scaleoij`] |
//! | **SplitJoin-OIJ** | SplitJoin (USENIX ATC'16) adapted to OIJ semantics: broadcast distribution, sliced storage, partial-aggregate collection | [`splitjoin`] |
//! | **OpenMLDB baseline** | the unmodified feature-store path: one shared ordered store behind a writer-exclusive lock, no disorder handling | [`openmldb`] |
//!
//! Each engine module holds only its joiner (the join algorithm) and a
//! `spawn`; the driver→joiner edge around it — batching, guarded sends,
//! heartbeats, supervision, teardown, the receive loop and the one real
//! [`engine::OijEngine`] implementation — is the shared [`shell`].
//! A single-threaded brute-force [`oracle`] provides ground truth for the
//! test suite.
//!
//! ## Lifecycle
//!
//! ```
//! use oij_core::{engine::OijEngine, keyoij::KeyOij, config::EngineConfig, sink::Sink};
//! use oij_common::{Event, Side, Tuple, Timestamp, OijQuery, Duration};
//!
//! let query = OijQuery::sum_over_preceding(
//!     Duration::from_micros(100), Duration::ZERO).unwrap();
//! let config = EngineConfig::new(query, 2).unwrap();
//! let (sink, rows) = Sink::collect();
//! let mut engine = KeyOij::spawn(config, sink).unwrap();
//!
//! engine.push(Event::data(0, Side::Probe, Tuple::new(Timestamp::from_micros(10), 7, 2.5))).unwrap();
//! engine.push(Event::data(1, Side::Base, Tuple::new(Timestamp::from_micros(50), 7, 0.0))).unwrap();
//! let stats = engine.finish().unwrap();
//!
//! assert_eq!(stats.results, 1);
//! assert_eq!(rows.lock()[0].agg, Some(2.5));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod batch;
pub mod config;
pub(crate) mod driver;
pub mod engine;
pub mod faults;
pub mod instrument;
pub mod keyoij;
pub mod message;
pub mod openmldb;
pub mod oracle;
pub mod recovery;
pub mod scaleoij;
pub mod shell;
pub mod sink;
pub mod splitjoin;
pub(crate) mod sync;

pub use config::SinkRetryPolicy;
pub use config::{EngineConfig, Instrumentation, LatePolicy};
pub use engine::{EngineKind, OijEngine, RunStats};
pub use faults::{FailureCell, FaultPlan, WorkerFailure};
pub use keyoij::KeyOij;
pub use oij_durability::{DurabilityConfig, FsyncPolicy};
pub use openmldb::OpenMldbBaseline;
pub use oracle::Oracle;
pub use recovery::{recover, spawn_engine, RecoveryReport};
pub use scaleoij::ScaleOij;
pub use sink::Sink;
pub use splitjoin::SplitJoin;

/// 64-bit finalising mix (from MurmurHash3): maps keys to well-spread hash
/// values for partitioning.
#[inline]
pub fn hash_key(key: u64) -> u64 {
    let mut h = key;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}
