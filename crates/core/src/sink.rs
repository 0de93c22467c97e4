//! Result sinks: where feature rows go.

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use oij_common::FeatureRow;
use oij_durability::{frontier_key, DurabilityRuntime};

use crate::config::SinkRetryPolicy;
use crate::faults::{FailureCell, SinkFaults};
use crate::shell::Supervision;

/// Destination for emitted feature rows. Cloned into every joiner (or the
/// collector, for SplitJoin).
#[derive(Debug, Clone)]
pub enum Sink {
    /// Discard rows (throughput benchmarks — emission is still counted).
    Null,
    /// Collect rows into a shared vector (tests, examples).
    Collect(Arc<Mutex<Vec<FeatureRow>>>),
    /// A sink wrapped with injected faults (slow and/or erroring
    /// emissions) — built by [`FaultPlan::wrap_sink`](crate::faults::FaultPlan),
    /// never in production configs.
    Faulty(Arc<SinkFaults>, Box<Sink>),
    /// The exactly-once gate in front of the user sink (DESIGN.md §11):
    /// consults the durability runtime's emitted-output frontier before
    /// delivering, marks the row emitted after, and delivers nothing
    /// once the engine's simulated-crash flag is raised (a dead process
    /// emits nothing). Built when `EngineConfig::durability` is set.
    Durable {
        /// Shared durability state (frontier + WAL).
        runtime: Arc<DurabilityRuntime>,
        /// The engine's failure cell, for the crash gate.
        failures: Arc<FailureCell>,
        /// Where admitted rows go.
        inner: Box<Sink>,
    },
    /// Bounded retry with exponential backoff around a fallible sink
    /// (`EngineConfig::sink_retry`). A panic from `inner` is caught and
    /// the emission re-attempted; exhausting the budget re-raises the
    /// last panic so it escalates to a supervised worker failure.
    Retry {
        /// The retry budget and backoff shape.
        policy: SinkRetryPolicy,
        /// Shared count of retries performed (folded into `RunStats`).
        retries: Arc<AtomicU64>,
        /// The sink being retried.
        inner: Box<Sink>,
    },
}

impl Sink {
    /// A discarding sink.
    pub fn null() -> Sink {
        Sink::Null
    }

    /// A collecting sink plus the handle to read the rows back after
    /// [`finish`](crate::engine::OijEngine::finish).
    pub fn collect() -> (Sink, Arc<Mutex<Vec<FeatureRow>>>) {
        let store = Arc::new(Mutex::new("sink_collect", Vec::new()));
        (Sink::Collect(Arc::clone(&store)), store)
    }

    /// Wraps `inner` with injected sink faults (see
    /// [`FaultPlan`](crate::faults::FaultPlan) for the knobs).
    pub(crate) fn faulty(
        inner: Sink,
        delay: Option<StdDuration>,
        stall_from: u64,
        fail: Option<(u64, u64)>,
        kill: Arc<AtomicBool>,
    ) -> Sink {
        Sink::Faulty(
            Arc::new(SinkFaults {
                emitted: AtomicU64::new(0),
                delay,
                stall_from,
                fail,
                kill,
            }),
            Box::new(inner),
        )
    }

    /// Wraps `inner` with the exactly-once durability gate.
    pub(crate) fn durable(
        runtime: Arc<DurabilityRuntime>,
        failures: Arc<FailureCell>,
        inner: Sink,
    ) -> Sink {
        Sink::Durable {
            runtime,
            failures,
            inner: Box::new(inner),
        }
    }

    /// Wraps `inner` with bounded retry.
    pub(crate) fn retrying(policy: SinkRetryPolicy, retries: Arc<AtomicU64>, inner: Sink) -> Sink {
        Sink::Retry {
            policy,
            retries,
            inner: Box::new(inner),
        }
    }

    /// Emits one row.
    #[inline]
    pub fn emit(&self, row: FeatureRow) {
        match self {
            Sink::Null => {}
            Sink::Collect(store) => {
                store.lock().push(row);
            }
            Sink::Faulty(faults, inner) => {
                faults.before_emit();
                inner.emit(row);
            }
            Sink::Durable {
                runtime,
                failures,
                inner,
            } => {
                if failures.is_crashed() {
                    // Simulated process death: the row is not delivered
                    // and — critically — not marked emitted, so recovery
                    // replays it.
                    return;
                }
                let fkey = frontier_key(row.seq, row.late);
                if runtime.admit(fkey) {
                    // STAMP: deliver-mark.pre
                    inner.emit(row);
                    // Delivered ⇒ logged. If the mark itself cannot be
                    // persisted the run must not continue claiming
                    // exactly-once, so escalate to the supervisor.
                    // STAMP: deliver-mark.post
                    if let Err(e) = runtime.mark_emitted(fkey) {
                        panic!("durable sink failed to log emission: {e}");
                    }
                }
            }
            Sink::Retry {
                policy,
                retries,
                inner,
            } => {
                let mut attempt = 1u32;
                loop {
                    match catch_unwind(AssertUnwindSafe(|| inner.emit(row.clone()))) {
                        Ok(()) => return,
                        Err(payload) => {
                            if attempt >= policy.max_attempts {
                                resume_unwind(payload);
                            }
                            // ORDERING: Relaxed — statistics counter; no cross-thread ordering required.
                            retries.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(backoff(policy, attempt, row.seq));
                            attempt += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Builds one worker's full sink stack around the user sink:
/// `Retry(Faulty(Durable(user)))`. Retry sits outermost so it also
/// absorbs injected sink faults (each attempt advances the faulty
/// ordinal); the durability gate sits innermost so exactly-once applies
/// at the user sink — an attempt that panics before delivery is never
/// marked emitted, and recovery replays it.
pub fn worker_sink_stack(
    cfg: &crate::config::EngineConfig,
    worker: usize,
    user: Sink,
    durable: &Option<Arc<DurabilityRuntime>>,
    sup: &Supervision,
) -> Sink {
    let user = match durable {
        Some(rt) => Sink::durable(Arc::clone(rt), Arc::clone(&sup.failures), user),
        None => user,
    };
    let faulted = cfg.faults.wrap_sink(worker, user, Arc::clone(&sup.kill));
    match cfg.sink_retry {
        Some(policy) => Sink::retrying(policy, Arc::clone(&sup.retries), faulted),
        None => faulted,
    }
}

/// Exponential backoff capped at `max_delay`, plus a deterministic
/// jitter (up to +25%) derived from the row identity and attempt so
/// that concurrent workers retrying the same outage desynchronize
/// without a random-number dependency.
fn backoff(policy: &SinkRetryPolicy, attempt: u32, seq: u64) -> StdDuration {
    let exp = policy
        .base_delay
        .saturating_mul(1u32 << (attempt - 1).min(16));
    let base = exp.min(policy.max_delay);
    let mix = seq
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(attempt));
    let jitter_span = base.as_nanos() as u64 / 4;
    let jitter = if jitter_span == 0 {
        0
    } else {
        mix % jitter_span
    };
    base + StdDuration::from_nanos(jitter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oij_common::Timestamp;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn collect_sink_stores_rows() {
        let (sink, rows) = Sink::collect();
        sink.emit(FeatureRow::new(
            Timestamp::from_micros(1),
            2,
            0,
            Some(3.0),
            1,
        ));
        let clone = sink.clone();
        clone.emit(FeatureRow::new(Timestamp::from_micros(2), 2, 1, None, 0));
        let rows = rows.lock();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].agg, Some(3.0));
    }

    #[test]
    fn null_sink_discards() {
        let sink = Sink::null();
        sink.emit(FeatureRow::new(
            Timestamp::from_micros(1),
            2,
            0,
            Some(3.0),
            1,
        ));
        // nothing to observe — must simply not panic
    }

    #[test]
    fn faulty_sink_fails_at_the_configured_emission() {
        let (inner, rows) = Sink::collect();
        let kill = Arc::new(AtomicBool::new(false));
        let sink = Sink::faulty(inner, None, 0, Some((1, 1)), kill);
        let row = |seq: u64| FeatureRow::new(Timestamp::from_micros(seq as i64), 1, seq, None, 0);
        sink.emit(row(0)); // emission 0 passes through
        let err = catch_unwind(AssertUnwindSafe(|| sink.emit(row(1))));
        assert!(err.is_err(), "emission 1 must panic");
        assert_eq!(rows.lock().len(), 1);
    }

    #[test]
    fn faulty_sink_stall_is_interruptible() {
        let (inner, _rows) = Sink::collect();
        let kill = Arc::new(AtomicBool::new(true)); // already killed
        let sink = Sink::faulty(inner, Some(StdDuration::from_secs(60)), 0, None, kill);
        let start = std::time::Instant::now();
        sink.emit(FeatureRow::new(Timestamp::from_micros(1), 1, 0, None, 0));
        assert!(start.elapsed() < StdDuration::from_secs(5));
    }

    /// `Sink::durable` over a fresh temp-dir runtime and a collecting
    /// inner sink (`wrap`ped, e.g. with injected faults).
    struct DurableFixture {
        sink: Sink,
        rt: Arc<DurabilityRuntime>,
        failures: Arc<FailureCell>,
        rows: Arc<Mutex<Vec<FeatureRow>>>,
        dir: std::path::PathBuf,
    }

    impl DurableFixture {
        fn new(tag: &str) -> Self {
            Self::wrapping(tag, |collect| collect)
        }

        fn wrapping(tag: &str, wrap: impl FnOnce(Sink) -> Sink) -> Self {
            let dir = std::env::temp_dir().join(format!("oij-sink-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let spec = oij_durability::RetentionSpec {
                extent: oij_common::Duration::from_micros(10),
                lateness: oij_common::Duration::ZERO,
                side_output: false,
            };
            let rt = DurabilityRuntime::open(&oij_durability::DurabilityConfig::new(&dir), spec);
            let rt = Arc::new(rt.expect("open durability runtime"));
            let failures = Arc::new(FailureCell::new());
            let (inner, rows) = Sink::collect();
            DurableFixture {
                sink: Sink::durable(Arc::clone(&rt), Arc::clone(&failures), wrap(inner)),
                rt,
                failures,
                rows,
                dir,
            }
        }
    }

    impl Drop for DurableFixture {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn durable_sink_delivers_once_and_marks() {
        const N: u64 = 20;
        let f = DurableFixture::new("once");
        let row = |seq: u64| FeatureRow::new(Timestamp::from_micros(seq as i64), 1, seq, None, 0);
        for seq in 0..N {
            f.sink.emit(row(seq));
        }
        // A re-emitted (seq, late) identity — what replay after a crash
        // produces — is dropped by `admit`, because the first delivery
        // was marked.
        f.sink.emit(row(3));
        let seqs: Vec<u64> = f.rows.lock().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..N).collect::<Vec<_>>(), "each row exactly once");
        let m = f.rt.metrics();
        assert_eq!(m.emitted_rows, N);
        assert_eq!(m.rows_deduped_on_recovery, 1);
        for seq in 0..N {
            assert!(
                !f.rt.admit(frontier_key(seq, false)),
                "seq {seq} missing from the emitted frontier"
            );
        }
        // The late marker of the same seq is a different identity.
        assert!(f.rt.admit(frontier_key(3, true)));
    }

    #[test]
    fn crashed_cell_neither_delivers_nor_marks() {
        let f = DurableFixture::new("crash");
        f.failures.record_crash("test", 0);
        f.sink
            .emit(FeatureRow::new(Timestamp::from_micros(1), 1, 0, None, 0));
        assert!(f.rows.lock().is_empty(), "a dead process delivers nothing");
        assert_eq!(f.rt.metrics().emitted_rows, 0);
        assert!(
            f.rt.admit(frontier_key(0, false)),
            "an undelivered row must stay replayable"
        );
    }

    /// Deliver before mark: a delivery that fails below the gate leaves
    /// the row unmarked, so it stays replayable and its retry is
    /// delivered and marked exactly once.
    #[test]
    fn a_failed_delivery_is_not_marked() {
        let kill = Arc::new(AtomicBool::new(false));
        let f = DurableFixture::wrapping("unmarked", |collect| {
            Sink::faulty(collect, None, 0, Some((0, 1)), kill)
        });
        let row = FeatureRow::new(Timestamp::from_micros(1), 1, 0, None, 0);
        let err = catch_unwind(AssertUnwindSafe(|| f.sink.emit(row.clone())));
        assert!(err.is_err(), "emission 0 must fail");
        assert!(
            f.rt.admit(frontier_key(0, false)),
            "a failed delivery must stay replayable"
        );
        assert_eq!(f.rt.metrics().emitted_rows, 0);
        f.sink.emit(row);
        assert_eq!(f.rows.lock().len(), 1, "the retry is delivered");
        assert_eq!(f.rt.metrics().emitted_rows, 1, "and marked once");
        assert!(!f.rt.admit(frontier_key(0, false)));
    }

    #[test]
    fn retry_sink_absorbs_transient_failures() {
        let (collect, rows) = Sink::collect();
        let kill = Arc::new(AtomicBool::new(false));
        // Faulty inner sink: emissions 0 and 1 fail, 2 succeeds. Each
        // retry advances the faulty ordinal, so attempt 3 goes through.
        let faulty = Sink::faulty(collect, None, 0, Some((0, 2)), kill);
        let retries = Arc::new(AtomicU64::new(0));
        let sink = Sink::retrying(SinkRetryPolicy::new(3), Arc::clone(&retries), faulty);
        sink.emit(FeatureRow::new(Timestamp::from_micros(1), 1, 0, None, 0));
        assert_eq!(rows.lock().len(), 1);
        assert_eq!(retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn retry_sink_reraises_after_exhaustion() {
        let (collect, rows) = Sink::collect();
        let kill = Arc::new(AtomicBool::new(false));
        let faulty = Sink::faulty(collect, None, 0, Some((0, 10)), kill);
        let retries = Arc::new(AtomicU64::new(0));
        let sink = Sink::retrying(SinkRetryPolicy::new(3), Arc::clone(&retries), faulty);
        let err = catch_unwind(AssertUnwindSafe(|| {
            sink.emit(FeatureRow::new(Timestamp::from_micros(1), 1, 0, None, 0));
        }));
        assert!(err.is_err(), "exhausted retries must re-raise");
        assert_eq!(
            retries.load(Ordering::Relaxed),
            2,
            "two retries before giving up"
        );
        assert!(rows.lock().is_empty());
    }

    #[test]
    fn backoff_is_capped_and_jittered() {
        let p = SinkRetryPolicy {
            max_attempts: 10,
            base_delay: StdDuration::from_millis(1),
            max_delay: StdDuration::from_millis(8),
        };
        assert!(backoff(&p, 1, 0) >= StdDuration::from_millis(1));
        // Cap plus at most 25% jitter.
        for attempt in 1..10 {
            assert!(backoff(&p, attempt, 7) <= StdDuration::from_millis(10));
        }
    }
}
