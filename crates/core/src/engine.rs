//! The engine interface and run statistics.

use std::time::Duration as StdDuration;

use oij_common::{Event, Result, Timestamp};
use oij_metrics::{unbalancedness, BatchOccupancy, LatencyHistogram, TimeBreakdown};
use serde::{Deserialize, Serialize};

use crate::instrument::JoinerReport;

/// Which engine a harness run used (for labeling output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// The Flink-style key-partitioned baseline.
    KeyOij,
    /// The paper's proposal with all optimisations on.
    ScaleOij,
    /// Scale-OIJ without incremental aggregation.
    ScaleOijNoInc,
    /// SplitJoin adapted to OIJ semantics.
    SplitJoin,
    /// The OpenMLDB shared-store baseline.
    OpenMldb,
}

impl EngineKind {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::KeyOij => "Key-OIJ",
            EngineKind::ScaleOij => "Scale-OIJ",
            EngineKind::ScaleOijNoInc => "Scale-OIJ w/o inc",
            EngineKind::SplitJoin => "SplitJoin",
            EngineKind::OpenMldb => "OpenMLDB",
        }
    }
}

/// Common interface of all parallel OIJ engines.
///
/// The driver thread feeds arrival-ordered [`Event`]s through
/// [`push`](Self::push) and terminates the run with
/// [`finish`](Self::finish), which flushes all workers, joins their threads
/// and returns the merged [`RunStats`].
pub trait OijEngine {
    /// Feeds one event. Blocks when worker channels are full
    /// (backpressure). Flush events terminate input early.
    fn push(&mut self, event: Event) -> Result<()>;

    /// Feeds one **replayed** event during crash recovery: `stamp` is
    /// the pre-observation watermark logged when the event was first
    /// ingested, so its late/on-time classification is identical to the
    /// original run. Nothing is write-ahead-logged (the event is
    /// already in the log); see `oij_core::recovery`.
    fn push_stamped(&mut self, event: Event, stamp: Timestamp) -> Result<()>;

    /// Ends the run: flushes workers, joins threads, merges statistics.
    /// Calling `push` or `finish` again afterwards is an error.
    fn finish(&mut self) -> Result<RunStats>;

    /// Tears the engine down after a failure, salvaging what it can:
    /// raises the kill flag, joins every surviving worker and returns
    /// partial [`RunStats`] with [`aborted`](RunStats::aborted) set and
    /// the in-flight results of the surviving workers accounted. Unlike
    /// [`finish`](Self::finish), this never fails on a poisoned engine —
    /// it is the degraded exit path.
    fn abort(&mut self) -> Result<RunStats>;
}

/// Aggregated statistics of one finished run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunStats {
    /// Input tuples accepted by `push`.
    pub input_tuples: u64,
    /// Feature rows emitted.
    pub results: u64,
    /// Wall-clock from the first push to the completion of `finish`.
    pub elapsed: StdDuration,
    /// `input_tuples / elapsed` (the paper's throughput definition).
    pub throughput: f64,
    /// Merged latency histogram (if instrumented).
    pub latency: Option<LatencyHistogram>,
    /// Merged time breakdown (if instrumented).
    pub breakdown: Option<TimeBreakdown>,
    /// Average effectiveness, Equation 1 (if instrumented).
    pub effectiveness: Option<f64>,
    /// Tuples processed per joiner (`W_i`).
    pub joiner_loads: Vec<u64>,
    /// Unbalancedness of `joiner_loads`, Equation 2.
    pub unbalancedness: f64,
    /// Summed LLC-simulator accesses/misses (if instrumented).
    pub cache_accesses: u64,
    /// Summed LLC-simulator misses (if instrumented).
    pub cache_misses: u64,
    /// Per-joiner utilisation timelines (if instrumented).
    pub timelines: Vec<oij_metrics::timeline::UtilizationSeries>,
    /// Tuples dropped by expiration.
    pub evicted: u64,
    /// Tuples that arrived below the watermark (lateness violations).
    pub late_violations: u64,
    /// Schedule publications performed (Scale-OIJ only).
    pub schedule_changes: u64,
    /// Lateness side-output marker rows emitted
    /// ([`LatePolicy::SideOutput`](crate::config::LatePolicy)).
    #[serde(default)]
    pub late_side_outputs: u64,
    /// `true` when the run ended through [`OijEngine::abort`] after a
    /// failure — `results`/`joiner_loads` then cover only the surviving
    /// workers' salvaged output.
    #[serde(default)]
    pub aborted: bool,
    /// Workers whose reports could not be salvaged (panicked or wedged at
    /// teardown). Zero on a clean run.
    #[serde(default)]
    pub workers_lost: usize,
    /// Fill levels of the coalesced batches the joiners received
    /// (DESIGN.md §10); every batch holds one tuple when `batch_size == 1`.
    #[serde(default)]
    pub batch_occupancy: BatchOccupancy,
    /// Bytes appended to the write-ahead log (durability enabled only).
    #[serde(default)]
    pub wal_bytes_written: u64,
    /// Logged events replayed through the engine after a crash.
    #[serde(default)]
    pub wal_records_replayed: u64,
    /// Checkpoints taken during the run (durability enabled only).
    #[serde(default)]
    pub checkpoint_count: u64,
    /// Wall-clock spent recovering (directory open through last replayed
    /// record); zero for fresh runs.
    #[serde(default)]
    pub recovery_duration: StdDuration,
    /// Replay re-emissions suppressed by the emitted-output frontier
    /// (each one is a row that would have been a duplicate at the sink).
    #[serde(default)]
    pub rows_deduped_on_recovery: u64,
    /// Sink emissions re-attempted under
    /// [`SinkRetryPolicy`](crate::config::SinkRetryPolicy).
    #[serde(default)]
    pub sink_retries: u64,
    /// Base tuples the serving runtime's lossy admission path dropped for
    /// this query instead of blocking the shared ingest (load shedding
    /// under overload; see `oij-serve`). Always 0 for standalone engine
    /// runs.
    #[serde(default)]
    pub shed_events: u64,
    /// Index nodes visited while answering base tuples, summed over the
    /// joiners (Scale-OIJ only).
    #[serde(default)]
    pub nodes_visited: u64,
    /// Window-summary cells merged in place of node visits (Scale-OIJ
    /// only; zero when the query builds no summary).
    #[serde(default)]
    pub cells_merged: u64,
}

impl RunStats {
    /// Merges per-joiner reports into run-level statistics.
    pub fn from_reports(
        input_tuples: u64,
        elapsed: StdDuration,
        reports: Vec<JoinerReport>,
        schedule_changes: u64,
    ) -> RunStats {
        let mut latency: Option<LatencyHistogram> = None;
        let mut breakdown: Option<TimeBreakdown> = None;
        let mut eff_sum: Option<oij_metrics::EffectivenessMeter> = None;
        let mut joiner_loads = Vec::with_capacity(reports.len());
        let mut results = 0;
        let mut cache_accesses = 0;
        let mut cache_misses = 0;
        let mut timelines = Vec::new();
        let mut evicted = 0;
        let mut late_violations = 0;
        let mut late_side_outputs = 0;
        let mut batch_occupancy = BatchOccupancy::new();
        let (mut nodes_visited, mut cells_merged) = (0, 0);

        for inst in reports {
            results += inst.results;
            nodes_visited += inst.nodes_visited;
            cells_merged += inst.cells_merged;
            joiner_loads.push(inst.processed);
            evicted += inst.evicted;
            late_violations += inst.late_violations;
            late_side_outputs += inst.late_side_outputs;
            batch_occupancy.merge(&inst.batch_occupancy);
            if let Some(h) = inst.latency {
                match &mut latency {
                    None => latency = Some(h),
                    Some(acc) => acc.merge(&h),
                }
            }
            if let Some(b) = inst.breakdown {
                match &mut breakdown {
                    None => breakdown = Some(b),
                    Some(acc) => acc.merge(&b),
                }
            }
            if let Some(e) = inst.effectiveness {
                match &mut eff_sum {
                    None => eff_sum = Some(e),
                    Some(acc) => acc.merge(&e),
                }
            }
            if let Some(c) = inst.cache {
                cache_accesses += c.accesses();
                cache_misses += c.misses();
            }
            if let Some(t) = inst.timeline {
                timelines.push(t.finish());
            }
        }

        let secs = elapsed.as_secs_f64().max(1e-9);
        let loads_f: Vec<f64> = joiner_loads.iter().map(|&l| l as f64).collect();
        RunStats {
            input_tuples,
            results,
            elapsed,
            throughput: input_tuples as f64 / secs,
            latency,
            breakdown,
            effectiveness: eff_sum.map(|e| e.value()),
            unbalancedness: unbalancedness(&loads_f),
            joiner_loads,
            cache_accesses,
            cache_misses,
            timelines,
            evicted,
            late_violations,
            schedule_changes,
            late_side_outputs,
            aborted: false,
            workers_lost: 0,
            batch_occupancy,
            wal_bytes_written: 0,
            wal_records_replayed: 0,
            checkpoint_count: 0,
            recovery_duration: StdDuration::ZERO,
            rows_deduped_on_recovery: 0,
            sink_retries: 0,
            shed_events: 0,
            nodes_visited,
            cells_merged,
        }
    }

    /// Marks these stats as the partial output of an aborted run.
    pub fn mark_aborted(mut self, workers_lost: usize) -> RunStats {
        self.aborted = true;
        self.workers_lost = workers_lost;
        self
    }

    /// LLC miss ratio over the simulated accesses (0.0 if uninstrumented).
    pub fn cache_miss_ratio(&self) -> f64 {
        if self.cache_accesses == 0 {
            0.0
        } else {
            self.cache_misses as f64 / self.cache_accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Instrumentation;
    use crate::instrument::JoinerInstruments;
    use std::time::Instant;

    #[test]
    fn merges_reports() {
        let origin = Instant::now();
        let mk = |processed: u64, results: u64| {
            let mut inst = JoinerInstruments::new(&Instrumentation::full(), origin);
            inst.processed = processed;
            inst.record_effectiveness(1, 2);
            inst.record_latency(origin);
            inst.results = results;
            inst
        };
        let stats = RunStats::from_reports(
            100,
            StdDuration::from_millis(10),
            vec![mk(60, 30), mk(40, 20)],
            3,
        );
        assert_eq!(stats.results, 50);
        assert_eq!(stats.joiner_loads, vec![60, 40]);
        assert!(stats.unbalancedness > 0.0);
        assert_eq!(stats.latency.as_ref().unwrap().count(), 2);
        assert!((stats.effectiveness.unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(stats.schedule_changes, 3);
        assert!((stats.throughput - 100.0 / 0.01).abs() / stats.throughput < 0.01);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(EngineKind::KeyOij.label(), "Key-OIJ");
        assert_eq!(EngineKind::ScaleOij.label(), "Scale-OIJ");
        assert_eq!(EngineKind::SplitJoin.label(), "SplitJoin");
    }
}
