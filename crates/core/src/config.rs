//! Engine configuration.

use std::time::Duration as StdDuration;

use oij_cachesim::CacheConfig;
use oij_common::{Error, OijQuery, Result};
use oij_durability::DurabilityConfig;
pub use oij_index::IndexBackend;

use crate::faults::FaultPlan;

/// How long teardown keeps polling a worker after raising the kill flag
/// before detaching the handle as wedged (`join_within`). Long enough to
/// cover an injected stall's final sleep; short enough that a chaos-suite
/// run with several wedged workers still finishes promptly.
pub const JOIN_KILL_GRACE: StdDuration = StdDuration::from_millis(500);

/// How long a send-side disconnect waits for the dead worker's supervisor
/// to record the panic payload before reporting a generic disconnect
/// (`send_guarded`). The supervisor only needs to finish `catch_unwind`
/// and a brief `failure_slot` critical section, so this is half
/// of [`JOIN_KILL_GRACE`].
pub const DISCONNECT_ATTRIBUTION_GRACE: StdDuration = StdDuration::from_millis(250);

/// What to do with tuples that arrive below the watermark (lateness
/// contract violations, paper §3.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LatePolicy {
    /// Silently drop the tuple, counting it in
    /// [`RunStats::late_violations`](crate::engine::RunStats::late_violations)
    /// (the paper's behaviour and the default).
    #[default]
    Drop,
    /// Route a marker row ([`FeatureRow::late_marker`](oij_common::FeatureRow::late_marker))
    /// to the sink so downstream consumers can observe the violation.
    /// Implemented by Scale-OIJ; the other engines treat it as `Drop`.
    SideOutput,
}

/// What to measure during a run. Everything defaults to **off**: the hot
/// path then contains no timing calls and no simulator feeds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Instrumentation {
    /// Record per-result latency histograms.
    pub latency: bool,
    /// Record the lookup/match/other time breakdown (adds two `Instant`
    /// reads per base tuple).
    pub breakdown: bool,
    /// Record effectiveness (matched/visited per base tuple).
    pub effectiveness: bool,
    /// Feed tuple-buffer accesses into a per-joiner LLC simulator.
    pub cache: Option<CacheConfig>,
    /// Record per-joiner busy-time timelines with this bucket width.
    pub timeline_bucket: Option<StdDuration>,
}

impl Instrumentation {
    /// Everything off (the default): pure throughput runs.
    pub fn none() -> Self {
        Self::default()
    }

    /// Latency histograms only.
    pub fn latency() -> Self {
        Instrumentation {
            latency: true,
            ..Self::default()
        }
    }

    /// The full profiling set used by the study figures.
    pub fn full() -> Self {
        Instrumentation {
            latency: true,
            breakdown: true,
            effectiveness: true,
            cache: None,
            timeline_bucket: None,
        }
    }
}

/// Bounded retry with exponential backoff for transient sink failures
/// (`EngineConfig::sink_retry`; `None` — the default — keeps the
/// fail-fast behaviour where any sink panic kills the worker).
///
/// An emission is attempted up to `max_attempts` times; between
/// attempts the worker sleeps `base_delay * 2^(attempt-1)` capped at
/// `max_delay`, plus a small deterministic jitter. Retries are counted
/// in [`RunStats::sink_retries`](crate::engine::RunStats::sink_retries);
/// an emission that exhausts the budget still escalates to a supervised
/// [`Error::WorkerFailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkRetryPolicy {
    /// Total attempts per emission (≥ 1; `1` means no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: StdDuration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: StdDuration,
}

impl SinkRetryPolicy {
    /// A policy with study defaults: 1 ms base backoff capped at 50 ms.
    pub fn new(max_attempts: u32) -> Self {
        SinkRetryPolicy {
            max_attempts,
            base_delay: StdDuration::from_millis(1),
            max_delay: StdDuration::from_millis(50),
        }
    }
}

/// Configuration shared by every engine (Scale-OIJ additionally reads the
/// `partitions`/`dynamic_schedule`/`incremental` knobs; Algorithm 3's
/// constants live in [`schedule`](crate::scaleoij::schedule)).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The query to execute.
    pub query: OijQuery,
    /// Number of joiner threads `J`.
    pub joiners: usize,
    /// Bounded capacity of each joiner's input channel (backpressure).
    pub channel_capacity: usize,
    /// Messages between expiration sweeps on each joiner.
    pub expire_every: usize,
    /// Pushes between watermark heartbeats broadcast to all joiners (keeps
    /// idle joiners' expiration and watermark emission moving).
    pub heartbeat_every: usize,
    /// What to measure.
    pub instrument: Instrumentation,
    /// Deadline for routed sends into worker channels. When a worker stops
    /// draining its channel, `push` gives up after this long and reports a
    /// structured [`Error::WorkerStalled`]/[`Error::WorkerFailed`] instead
    /// of blocking forever.
    pub send_timeout: StdDuration,
    /// Deterministic fault-injection plan (empty in production; zero extra
    /// cost on the hot path when empty).
    pub faults: FaultPlan,
    /// What to do with tuples that arrive below the watermark.
    pub late_policy: LatePolicy,
    /// Maximum data messages coalesced into one `Msg::Batch` per
    /// destination before the driver routes it (DESIGN.md §10). The
    /// default `1` sends every tuple at once, as a batch of one.
    pub batch_size: usize,
    /// Age bound for a partially filled batch buffer: once the oldest
    /// coalesced tuple has waited this long, the buffer is flushed on the
    /// next push regardless of fill, so trickle inputs never stall behind
    /// a partial batch. Never reached when `batch_size == 1`.
    pub flush_deadline: StdDuration,
    /// Durability subsystem (WAL + checkpoints + crash recovery,
    /// DESIGN.md §11). `None` — the default — disables durability
    /// entirely and keeps the hot path free of any logging cost.
    pub durability: Option<DurabilityConfig>,
    /// Bounded retry for transient sink failures. `None` — the default —
    /// keeps sink panics fail-fast.
    pub sink_retry: Option<SinkRetryPolicy>,
    /// Which SWMR index backend every joiner builds its tuple store
    /// from (`oij-index`). The default [`IndexBackend::SkipList`] is the
    /// paper's double-layer time-travel skip list; the alternatives are
    /// raced against it by `tests/index_equivalence.rs` and the
    /// per-backend bench rows.
    pub index_backend: IndexBackend,

    /// Scale-OIJ: number of key-hash partitions `P` (power of two).
    pub partitions: usize,
    /// Scale-OIJ: enable the dynamic schedule (off = static partitioning,
    /// for ablations).
    pub dynamic_schedule: bool,
    /// Scale-OIJ: enable incremental window aggregation (Subtract-on-Evict).
    pub incremental: bool,
}

impl EngineConfig {
    /// A validated config with the defaults used throughout the study.
    pub fn new(query: OijQuery, joiners: usize) -> Result<Self> {
        let cfg = EngineConfig {
            query,
            joiners,
            channel_capacity: 4096,
            expire_every: 256,
            heartbeat_every: 512,
            instrument: Instrumentation::none(),
            send_timeout: StdDuration::from_secs(1),
            faults: FaultPlan::none(),
            late_policy: LatePolicy::default(),
            batch_size: 1,
            flush_deadline: StdDuration::from_micros(200),
            durability: None,
            sink_retry: None,
            index_backend: IndexBackend::default(),
            partitions: 64,
            dynamic_schedule: true,
            incremental: true,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Replaces the instrumentation set.
    pub fn with_instrument(mut self, instrument: Instrumentation) -> Self {
        self.instrument = instrument;
        self
    }

    /// Disables the incremental aggregation path (Scale-OIJ ablation,
    /// "Scale-OIJ w/o inc" in Figures 17–20).
    pub fn without_incremental(mut self) -> Self {
        self.incremental = false;
        self
    }

    /// Disables the dynamic schedule (Scale-OIJ ablation: static teams).
    pub fn without_dynamic_schedule(mut self) -> Self {
        self.dynamic_schedule = false;
        self
    }

    /// Replaces the routing batch size (`1` = a batch of one per tuple).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Enables the durability subsystem (WAL + checkpoints + recovery).
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Enables bounded sink retry for transient sink failures.
    pub fn with_sink_retry(mut self, policy: SinkRetryPolicy) -> Self {
        self.sink_retry = Some(policy);
        self
    }

    /// Replaces the SWMR index backend every joiner builds from.
    pub fn with_index_backend(mut self, backend: IndexBackend) -> Self {
        self.index_backend = backend;
        self
    }

    /// Validates invariants; called by constructors and engine spawn.
    pub fn validate(&self) -> Result<()> {
        if self.joiners == 0 {
            return Err(Error::InvalidConfig("joiners must be > 0".into()));
        }
        if self.joiners > 1024 {
            return Err(Error::InvalidConfig(format!(
                "joiners = {} is unreasonably large",
                self.joiners
            )));
        }
        if self.channel_capacity == 0 {
            return Err(Error::InvalidConfig("channel_capacity must be > 0".into()));
        }
        if self.expire_every == 0 {
            return Err(Error::InvalidConfig("expire_every must be > 0".into()));
        }
        if self.heartbeat_every == 0 {
            return Err(Error::InvalidConfig("heartbeat_every must be > 0".into()));
        }
        if self.send_timeout.is_zero() {
            return Err(Error::InvalidConfig("send_timeout must be > 0".into()));
        }
        if self.batch_size == 0 {
            return Err(Error::InvalidConfig("batch_size must be > 0".into()));
        }
        if self.batch_size > 65_536 {
            return Err(Error::InvalidConfig(format!(
                "batch_size = {} is unreasonably large",
                self.batch_size
            )));
        }
        if self.batch_size > 1 && self.flush_deadline.is_zero() {
            return Err(Error::InvalidConfig(
                "flush_deadline must be > 0 when batching".into(),
            ));
        }
        if !self.partitions.is_power_of_two() {
            return Err(Error::InvalidConfig(format!(
                "partitions must be a power of two, got {}",
                self.partitions
            )));
        }
        if let Some(d) = &self.durability {
            if d.checkpoint_every == 0 {
                return Err(Error::InvalidConfig(
                    "durability checkpoint_every must be > 0".into(),
                ));
            }
            if d.segment_bytes < 64 {
                return Err(Error::InvalidConfig(format!(
                    "durability segment_bytes = {} cannot hold a WAL frame",
                    d.segment_bytes
                )));
            }
        }
        if let Some(p) = &self.sink_retry {
            if p.max_attempts == 0 {
                return Err(Error::InvalidConfig(
                    "sink_retry max_attempts must be ≥ 1".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oij_common::Duration;

    fn query() -> OijQuery {
        OijQuery::sum_over_preceding(Duration::from_micros(100), Duration::ZERO).unwrap()
    }

    #[test]
    fn defaults_validate() {
        let cfg = EngineConfig::new(query(), 4).unwrap();
        assert!(cfg.validate().is_ok());
        assert!(cfg.incremental);
        assert!(cfg.dynamic_schedule);
    }

    #[test]
    fn rejects_zero_joiners() {
        assert!(EngineConfig::new(query(), 0).is_err());
    }

    #[test]
    fn rejects_non_power_of_two_partitions() {
        let mut cfg = EngineConfig::new(query(), 2).unwrap();
        cfg.partitions = 48;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_send_timeout() {
        let mut cfg = EngineConfig::new(query(), 2).unwrap();
        cfg.send_timeout = StdDuration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_plan_is_empty_and_policy_drops() {
        let cfg = EngineConfig::new(query(), 2).unwrap();
        assert!(cfg.faults.is_empty());
        assert_eq!(cfg.late_policy, LatePolicy::Drop);
    }

    #[test]
    fn batching_defaults_off_and_validates() {
        let cfg = EngineConfig::new(query(), 2).unwrap();
        assert_eq!(cfg.batch_size, 1, "batch_size = 1 must be the default");
        let mut cfg = cfg.with_batch_size(64);
        assert!(cfg.validate().is_ok());
        cfg.batch_size = 0;
        assert!(cfg.validate().is_err());
        cfg.batch_size = 1 << 20;
        assert!(cfg.validate().is_err());
        cfg.batch_size = 8;
        cfg.flush_deadline = StdDuration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn durability_and_retry_default_off_and_validate() {
        let cfg = EngineConfig::new(query(), 2).unwrap();
        assert!(cfg.durability.is_none(), "durability must default to None");
        assert!(cfg.sink_retry.is_none(), "sink_retry must default to None");

        let cfg = cfg
            .with_durability(DurabilityConfig::new("/tmp/oij-test-dura"))
            .with_sink_retry(SinkRetryPolicy::new(3));
        assert!(cfg.validate().is_ok());

        let mut bad = cfg.clone();
        bad.sink_retry = Some(SinkRetryPolicy {
            max_attempts: 0,
            base_delay: StdDuration::from_millis(1),
            max_delay: StdDuration::from_millis(1),
        });
        assert!(bad.validate().is_err());

        let mut bad = cfg;
        bad.durability.as_mut().unwrap().checkpoint_every = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn index_backend_defaults_to_skiplist() {
        let cfg = EngineConfig::new(query(), 2).unwrap();
        assert_eq!(
            cfg.index_backend,
            IndexBackend::SkipList,
            "the reference backend must stay the default"
        );
        let cfg = cfg.with_index_backend(IndexBackend::JiffyLite);
        assert_eq!(cfg.index_backend, IndexBackend::JiffyLite);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn ablation_builders() {
        let cfg = EngineConfig::new(query(), 2)
            .unwrap()
            .without_incremental()
            .without_dynamic_schedule();
        assert!(!cfg.incremental);
        assert!(!cfg.dynamic_schedule);
    }
}
