//! # oij — scalable online interval join for feature engineering
//!
//! A from-scratch Rust reproduction of *"Scalable Online Interval Join on
//! Modern Multicore Processors in OpenMLDB"* (ICDE 2023): the **Scale-OIJ**
//! engine with its SWMR time-travel index, dynamic balanced scheduling and
//! incremental window aggregation — plus every baseline the paper
//! evaluates (Key-OIJ, SplitJoin-OIJ, an OpenMLDB-style shared store), a
//! workload generator suite, a metrics toolkit, an LLC simulator and an
//! OpenMLDB-dialect SQL front-end.
//!
//! This facade crate re-exports the workspace's public surface. Most users
//! want:
//!
//! - [`engine::ScaleOij`] (or another [`engine::OijEngine`] implementation),
//! - [`OijQuery`] / [`sql::parse`] to describe the join,
//! - [`workload`] to generate input streams,
//! - [`metrics`] to interpret the returned [`engine::RunStats`].
//!
//! ```
//! use oij::prelude::*;
//!
//! // sum of probe values over the last 100µs per key, exact results
//! let query = OijQuery::builder()
//!     .preceding(Duration::from_micros(100))
//!     .lateness(Duration::from_micros(20))
//!     .agg(AggSpec::Sum)
//!     .emit(EmitMode::Watermark)
//!     .build()
//!     .unwrap();
//!
//! let (sink, rows) = Sink::collect();
//! let mut engine = ScaleOij::spawn(EngineConfig::new(query, 2).unwrap(), sink).unwrap();
//! engine.push(Event::data(0, Side::Probe, Tuple::new(Timestamp::from_micros(50), 1, 3.0))).unwrap();
//! engine.push(Event::data(1, Side::Base, Tuple::new(Timestamp::from_micros(120), 1, 0.0))).unwrap();
//! let stats = engine.finish().unwrap();
//! assert_eq!(stats.results, 1);
//! assert_eq!(rows.lock()[0].agg, Some(3.0));
//! ```

#![warn(missing_docs)]

pub use oij_common::{
    AggSpec, Duration, EmitMode, Error, Event, EventKind, FeatureRow, Key, OijQuery,
    OijQueryBuilder, Result, Side, Timestamp, Tuple, Watermark, WatermarkTracker, Window,
    WindowSpec,
};

/// The OIJ engines and their shared interface (re-export of `oij-core`).
pub mod engine {
    pub use oij_core::config::{EngineConfig, Instrumentation, LatePolicy, SinkRetryPolicy};
    pub use oij_core::engine::{EngineKind, OijEngine, RunStats};
    pub use oij_core::faults::{FailureCell, FaultPlan, WorkerFailure};
    pub use oij_core::scaleoij::schedule::{rebalance, PartitionStats, Schedule};
    pub use oij_core::scaleoij::summary::SummaryShape;
    pub use oij_core::sink::Sink;
    pub use oij_core::{KeyOij, OpenMldbBaseline, Oracle, ScaleOij, SplitJoin};
}

/// Durability & crash recovery: the write-ahead log + checkpoint
/// configuration (re-export of `oij-durability`) and the recovery driver
/// (re-export of `oij_core::recovery`). See DESIGN.md §11.
pub mod durability {
    pub use oij_core::recovery::{recover, spawn_engine, RecoveryReport};
    pub use oij_core::{DurabilityConfig, FsyncPolicy};
}

/// Window aggregation building blocks (re-export of `oij-agg`).
pub mod agg {
    pub use oij_agg::{FullWindowAgg, PartialAgg, RunningAgg, TwoStackAgg};
}

/// The SWMR skip list and time-travel index (re-export of `oij-skiplist`),
/// plus the pluggable index-backend contract (re-export of `oij-index`):
/// the [`OijIndexWriter`](index::OijIndexWriter) /
/// [`OijIndexReader`](index::OijIndexReader) trait pair, the
/// [`IndexBackend`](index::IndexBackend) selector carried by
/// `EngineConfig`, and the backend implementations.
pub mod index {
    pub use oij_index::{
        BackendReader, BackendWriter, HintIndex, IndexBackend, JiffyIndex, OijIndexReader,
        OijIndexWriter,
    };
    pub use oij_skiplist::{
        IndexReader, IndexWriter, RcuCell, Reader, SwmrSkipList, TimeTravelIndex, Writer,
    };
}

/// Stream workload generators (re-export of `oij-workload`).
pub mod workload {
    pub use oij_workload::{
        read_csv, read_events, write_csv, write_events, ChurnAction, ChurnPlan, KeyDist,
        NamedWorkload, OpenLoopConfig, OpenLoopPlan, Pacing, PaperSpec, SyntheticConfig,
    };
}

/// Measurement toolkit (re-export of `oij-metrics`).
pub mod metrics {
    pub use oij_metrics::{
        effectiveness, unbalancedness, BusyTimeline, DisorderEstimator, EffectivenessMeter,
        LatencyHistogram, TimeBreakdown,
    };
}

/// Software LLC model (re-export of `oij-cachesim`).
pub mod cache {
    pub use oij_cachesim::{CacheConfig, CacheSim};
}

/// The OpenMLDB SQL dialect front-end (re-export of `oij-sql`).
pub mod sql {
    pub use oij_sql::{parse, parse_many, WindowUnionQuery};
}

/// The multi-query feature-serving runtime (re-export of `oij-serve`):
/// concurrent OIJ plans over one shared ingest with admission control,
/// backpressure, and per-query fault isolation. See DESIGN.md §13.
pub mod serve {
    pub use oij_serve::{QueryId, QueryStats, ServeConfig, ServeRuntime, ServeSnapshot};
}

/// Class-carrying locks behind the workspace lockdep witness (re-export
/// of `oij_common::lockdep`). [`Sink::collect`](engine::Sink::collect)
/// hands back rows behind one of these; `lock()` returns the guard
/// directly (non-poisoning, no `Result`).
pub mod sync {
    pub use oij_common::lockdep::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
}

/// Everything a typical application needs, in one import.
pub mod prelude {
    pub use crate::durability::{recover, DurabilityConfig, FsyncPolicy, RecoveryReport};
    pub use crate::engine::{
        EngineConfig, EngineKind, FaultPlan, Instrumentation, KeyOij, LatePolicy, OijEngine,
        OpenMldbBaseline, Oracle, RunStats, ScaleOij, Sink, SinkRetryPolicy, SplitJoin,
    };
    pub use crate::index::IndexBackend;
    pub use crate::serve::{ServeConfig, ServeRuntime};
    pub use crate::sql::parse as parse_sql;
    pub use crate::workload::{KeyDist, NamedWorkload, SyntheticConfig};
    pub use crate::{
        AggSpec, Duration, EmitMode, Event, FeatureRow, Key, OijQuery, Side, Timestamp, Tuple,
        WindowSpec,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let q = OijQuery::sum_over_preceding(Duration::from_micros(10), Duration::ZERO).unwrap();
        let cfg = EngineConfig::new(q, 1).unwrap();
        let (sink, _) = Sink::collect();
        let mut e = KeyOij::spawn(cfg, sink).unwrap();
        e.push(Event::data(
            0,
            Side::Base,
            Tuple::new(Timestamp::from_micros(5), 1, 1.0),
        ))
        .unwrap();
        let stats = e.finish().unwrap();
        assert_eq!(stats.results, 1);
    }
}
