//! Crash-recovery chaos tests (DESIGN.md §11): kill an engine mid-run
//! with the simulated-process-death `Crash` fault, recover from the
//! durability directory, resume live ingest, and require the union of
//! pre-crash and post-recovery sink output to equal an uninterrupted
//! run — no missing rows, no duplicates — plus the sink-retry policy
//! tests that ride on the same fault machinery.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration as StdDuration;

use oij::durability::recover;
use oij::prelude::*;
use oij::Error;

/// Fresh scratch directory per test run (pid + counter: parallel test
/// binaries and threads never collide).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("oij-recovery-{tag}-{}-{n}", std::process::id()))
}

/// Runs the test body under a watchdog thread: a hang turns into a loud
/// panic instead of a stuck CI job (same idiom as tests/robustness.rs).
fn with_watchdog(secs: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(StdDuration::from_secs(secs)) {
        Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            t.join().expect("test body panicked")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: test exceeded {secs}s — recovery failed to stay bounded")
        }
    }
}

/// A lateness-compliant disordered workload: jitter stays well inside
/// the lateness budget so watermark-mode engines are exact.
fn disordered(tuples: usize, keys: u64, disorder_us: i64, seed: u64) -> Vec<Event> {
    SyntheticConfig {
        tuples,
        unique_keys: keys,
        key_dist: KeyDist::Uniform,
        probe_fraction: 0.5,
        spacing: Duration::from_micros(1),
        disorder: Duration::from_micros(disorder_us),
        seed,
        ..Default::default()
    }
    .generate()
}

fn watermark_query() -> OijQuery {
    OijQuery::builder()
        .preceding(Duration::from_micros(120))
        .lateness(Duration::from_micros(200))
        .agg(AggSpec::Sum)
        .emit(EmitMode::Watermark)
        .build()
        .unwrap()
}

fn sorted(mut rows: Vec<FeatureRow>) -> Vec<FeatureRow> {
    rows.sort_by_key(|r| (r.seq, r.late));
    rows
}

fn assert_rows_equal(got: &[FeatureRow], want: &[FeatureRow], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for (g, o) in got.iter().zip(want) {
        assert_eq!(g.seq, o.seq, "{ctx}");
        assert_eq!(g.late, o.late, "{ctx}: seq {}", g.seq);
        assert_eq!(g.matched, o.matched, "{ctx}: seq {}", g.seq);
        assert!(
            g.agg_approx_eq(o, 1e-9),
            "{ctx}: seq {} — {:?} vs {:?}",
            g.seq,
            g.agg,
            o.agg
        );
    }
}

/// Phase 1 of every crash scenario: run the durable engine with a
/// `Crash` fault until the failure surfaces, abort, and return the rows
/// that reached the sink before the simulated process death.
fn run_until_crash(kind: EngineKind, cfg: EngineConfig, events: &[Event]) -> Vec<FeatureRow> {
    let (sink, rows) = Sink::collect();
    let mut engine = oij::durability::spawn_engine(kind, cfg, sink).unwrap();
    let mut crashed = false;
    for ev in events {
        if let Err(e) = engine.push(ev.clone()) {
            assert!(
                matches!(&e, Error::WorkerFailed { cause, .. } if cause.contains("simulated process crash")),
                "expected the crash fault, got {e:?}"
            );
            crashed = true;
            break;
        }
    }
    if !crashed {
        // Roomy channels can absorb the whole stream; the dead worker
        // then surfaces at finish.
        let e = engine.finish().expect_err("crash fault must surface");
        assert!(
            matches!(&e, Error::WorkerFailed { cause, .. } if cause.contains("simulated process crash")),
            "expected the crash fault, got {e:?}"
        );
    } else {
        let _ = engine.abort();
    }
    drop(engine);
    let out = rows.lock().clone();
    out
}

/// Phase 2: recover from the durability directory, resume live ingest
/// past the last logged sequence, finish, and return (rows, stats).
fn recover_and_resume(
    kind: EngineKind,
    cfg: EngineConfig,
    events: &[Event],
) -> (Vec<FeatureRow>, RunStats) {
    let (sink, rows) = Sink::collect();
    let (mut engine, report) = recover(kind, cfg, sink).unwrap();
    let resume_after = report.last_seq.expect("the crashed run logged events");
    assert!(report.replayed > 0, "recovery must replay retained events");
    for ev in events.iter().filter(|e| e.seq > resume_after) {
        engine.push(ev.clone()).unwrap();
    }
    let stats = engine.finish().unwrap();
    let out = rows.lock().clone();
    (out, stats)
}

/// Uninterrupted reference run of the same engine without durability.
fn reference_run(
    kind: EngineKind,
    cfg: EngineConfig,
    events: &[Event],
) -> (Vec<FeatureRow>, RunStats) {
    let (sink, rows) = Sink::collect();
    let mut engine = oij::durability::spawn_engine(kind, cfg, sink).unwrap();
    for ev in events {
        engine.push(ev.clone()).unwrap();
    }
    let stats = engine.finish().unwrap();
    let out = rows.lock().clone();
    (out, stats)
}

/// One full crash → recover → diff cycle. Returns the recovered run's
/// stats for scenario-specific assertions.
fn crash_cycle(
    kind: EngineKind,
    mut base_cfg: EngineConfig,
    events: &[Event],
    crash_worker: usize,
    crash_ordinal: u64,
    dir: &PathBuf,
) -> RunStats {
    let ctx = format!("{kind:?} @ worker {crash_worker} ordinal {crash_ordinal}");
    let durable = DurabilityConfig::new(dir.clone());
    // Uninterrupted reference: same engine, no durability, no faults.
    let (want, want_stats) = reference_run(kind, base_cfg.clone(), events);
    let want = sorted(want);

    // Phase 1: crash.
    let crash_cfg = {
        let mut c = base_cfg.clone().with_durability(durable.clone());
        c.faults = FaultPlan::none().crash_at(crash_worker, crash_ordinal);
        c.send_timeout = StdDuration::from_millis(500);
        c.channel_capacity = 16;
        c
    };
    let pre = run_until_crash(kind, crash_cfg, events);

    // Phase 2: recover + resume with a clean fault plan.
    base_cfg.durability = Some(durable);
    let (post, stats) = recover_and_resume(kind, base_cfg, events);

    // Exactly-once: the union must have no duplicate row identity...
    let mut seen = HashSet::new();
    for r in pre.iter().chain(&post) {
        assert!(
            seen.insert((r.seq, r.late)),
            "{ctx}: duplicate row seq {} late {}",
            r.seq,
            r.late
        );
    }
    // ...and must equal the uninterrupted run's output.
    let union = sorted(pre.into_iter().chain(post).collect());
    assert_rows_equal(&union, &want, &ctx);

    // Lifetime counters survive the crash: the recovered run reports the
    // same totals as the uninterrupted one.
    assert_eq!(stats.input_tuples, want_stats.input_tuples, "{ctx}");
    assert_eq!(stats.results, want_stats.results, "{ctx}");
    assert!(stats.wal_records_replayed > 0, "{ctx}");
    assert!(stats.wal_bytes_written > 0, "{ctx}");
    let _ = std::fs::remove_dir_all(dir);
    stats
}

// ---------------------------------------------------------------------------
// The engine × crash-ordinal matrix
// ---------------------------------------------------------------------------

#[test]
fn watermark_engines_recover_bit_identical_across_crash_ordinals() {
    with_watchdog(300, || {
        let events = disordered(4_000, 6, 150, 0xC0FFEE);
        for kind in [
            EngineKind::KeyOij,
            EngineKind::ScaleOij,
            EngineKind::SplitJoin,
        ] {
            for ordinal in [0u64, 7, 113] {
                let cfg = EngineConfig::new(watermark_query(), 2).unwrap();
                let dir = scratch_dir("matrix");
                crash_cycle(kind, cfg, &events, 0, ordinal, &dir);
            }
        }
    });
}

#[test]
fn openmldb_recovers_on_in_order_streams() {
    with_watchdog(120, || {
        // Eager emission is deterministic at J=1 with in-order input.
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(100))
            .agg(AggSpec::Sum)
            .emit(EmitMode::Eager)
            .build()
            .unwrap();
        let events = disordered(3_000, 5, 0, 0xBEEF);
        for ordinal in [0u64, 13] {
            let cfg = EngineConfig::new(query.clone(), 1).unwrap();
            let dir = scratch_dir("openmldb");
            crash_cycle(EngineKind::OpenMldb, cfg, &events, 0, ordinal, &dir);
        }
    });
}

#[test]
fn mid_batch_crash_recovers_exactly() {
    with_watchdog(120, || {
        // batch_size 8 with the crash at data-message ordinal 13: the
        // fault fires on the 6th message of the victim's second batch,
        // never on a batch boundary.
        let events = disordered(4_000, 6, 150, 0xFACE);
        let cfg = EngineConfig::new(watermark_query(), 2)
            .unwrap()
            .with_batch_size(8);
        let dir = scratch_dir("midbatch");
        crash_cycle(EngineKind::KeyOij, cfg, &events, 0, 13, &dir);
    });
}

#[test]
fn crash_between_checkpoint_and_wal_tail_dedups_emitted_rows() {
    with_watchdog(120, || {
        // A tight checkpoint cadence guarantees the crash lands after at
        // least one checkpoint, with live WAL tail behind it; recovery
        // must stitch both together and dedup already-delivered rows.
        let events = disordered(4_000, 6, 150, 0xABBA);
        let mut cfg = EngineConfig::new(watermark_query(), 2).unwrap();
        let dir = scratch_dir("ckpt");
        let durable = DurabilityConfig::new(dir.clone()).with_checkpoint_every(256);
        let (want, _) = reference_run(EngineKind::ScaleOij, cfg.clone(), &events);
        let want = sorted(want);

        let crash_cfg = {
            let mut c = cfg.clone().with_durability(durable.clone());
            c.faults = FaultPlan::none().crash_at(0, 1_200);
            c.send_timeout = StdDuration::from_millis(500);
            c.channel_capacity = 16;
            c
        };
        let pre = run_until_crash(EngineKind::ScaleOij, crash_cfg, &events);
        assert!(
            !pre.is_empty(),
            "a late crash must leave already-delivered rows to dedup"
        );

        cfg.durability = Some(durable);
        let (post, stats) = recover_and_resume(EngineKind::ScaleOij, cfg, &events);
        assert!(stats.checkpoint_count >= 1, "checkpoints must have fired");
        assert!(
            stats.rows_deduped_on_recovery > 0,
            "replay must have suppressed already-delivered rows"
        );
        let union = sorted(pre.into_iter().chain(post).collect());
        assert_rows_equal(&union, &want, "checkpoint+tail");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

// ---------------------------------------------------------------------------
// Index-backend axis: recovery must be backend-invariant
// ---------------------------------------------------------------------------

#[test]
fn watermark_recovery_is_backend_invariant() {
    with_watchdog(300, || {
        // The WAL logs events, not index state: replay rebuilds the index
        // through whichever backend the config selects, so the full
        // crash → recover → diff cycle must pass on all of them.
        let events = disordered(4_000, 6, 150, 0x1DE9);
        for backend in IndexBackend::ALL {
            let cfg = EngineConfig::new(watermark_query(), 2)
                .unwrap()
                .with_index_backend(backend);
            let dir = scratch_dir(backend.label());
            crash_cycle(EngineKind::ScaleOij, cfg, &events, 0, 57, &dir);
        }
    });
}

#[test]
fn compaction_bound_agrees_with_index_eviction_across_backends() {
    with_watchdog(300, || {
        // Regression pin for the eviction/retention contract: every
        // backend's `evict_below` drops tuples with `ts < watermark −
        // window length`, while the checkpoint compactor retains probes
        // down to `anchor − extent − lateness` (RetentionSpec::extent is
        // the window length, anchor ≤ watermark) — one extra lateness pad
        // *below* any backend's eviction bound. If a backend ever evicted
        // more aggressively than the compactor assumes (or the compactor
        // pruned above a backend's bound), a crash landing after many
        // compactions would replay an incomplete window and this diff
        // would catch the missing rows.
        let events = disordered(4_000, 6, 150, 0x0B0B);
        for backend in IndexBackend::ALL {
            let ctx = format!("retention on {}", backend.label());
            let mut cfg = EngineConfig::new(watermark_query(), 2)
                .unwrap()
                .with_index_backend(backend);
            let dir = scratch_dir("retention");
            // Tight cadence: compaction fires repeatedly before the late
            // crash, so the checkpoint's retained prefix is as small as
            // the bound allows when replay reconstructs the index.
            let durable = DurabilityConfig::new(dir.clone()).with_checkpoint_every(256);
            let (want, _) = reference_run(EngineKind::ScaleOij, cfg.clone(), &events);
            let want = sorted(want);

            let crash_cfg = {
                let mut c = cfg.clone().with_durability(durable.clone());
                c.faults = FaultPlan::none().crash_at(0, 1_200);
                c.send_timeout = StdDuration::from_millis(500);
                c.channel_capacity = 16;
                c
            };
            let pre = run_until_crash(EngineKind::ScaleOij, crash_cfg, &events);

            cfg.durability = Some(durable);
            let (post, stats) = recover_and_resume(EngineKind::ScaleOij, cfg, &events);
            assert!(
                stats.checkpoint_count >= 1,
                "{ctx}: compaction must have fired"
            );
            let union = sorted(pre.into_iter().chain(post).collect());
            assert_rows_equal(&union, &want, &ctx);
            let _ = std::fs::remove_dir_all(&dir);
        }
    });
}

// ---------------------------------------------------------------------------
// Durable-but-uninterrupted runs and fsync policies
// ---------------------------------------------------------------------------

#[test]
fn durable_uninterrupted_run_matches_non_durable() {
    with_watchdog(120, || {
        let events = disordered(3_000, 5, 150, 0xD00D);
        let cfg = EngineConfig::new(watermark_query(), 2).unwrap();
        let (want, want_stats) = reference_run(EngineKind::ScaleOij, cfg.clone(), &events);

        for fsync in [FsyncPolicy::Never, FsyncPolicy::EveryBatch] {
            let dir = scratch_dir("clean");
            let durable_cfg = cfg
                .clone()
                .with_durability(DurabilityConfig::new(dir.clone()).with_fsync(fsync));
            let (got, stats) = reference_run(EngineKind::ScaleOij, durable_cfg, &events);
            assert_rows_equal(&sorted(got), &sorted(want.clone()), "durable clean run");
            assert_eq!(stats.input_tuples, want_stats.input_tuples);
            assert_eq!(stats.results, want_stats.results);
            assert!(stats.wal_bytes_written > 0);
            assert_eq!(stats.wal_records_replayed, 0, "nothing to replay");
            assert_eq!(stats.rows_deduped_on_recovery, 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    });
}

#[test]
fn recover_without_durability_config_is_rejected() {
    let cfg = EngineConfig::new(watermark_query(), 2).unwrap();
    let (sink, _) = Sink::collect();
    match recover(EngineKind::KeyOij, cfg, sink) {
        Err(Error::InvalidConfig(msg)) => assert!(msg.contains("durability")),
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("recover without durability must be rejected"),
    }
}

#[test]
fn side_output_markers_survive_crash_recovery() {
    with_watchdog(120, || {
        // Scale-OIJ under LatePolicy::SideOutput: late markers carry the
        // odd frontier keys; they must be exactly-once too.
        let events = disordered(3_000, 5, 150, 0x5EED);
        let mut cfg = EngineConfig::new(watermark_query(), 2).unwrap();
        cfg.late_policy = LatePolicy::SideOutput;
        let dir = scratch_dir("sideout");
        crash_cycle(EngineKind::ScaleOij, cfg, &events, 0, 41, &dir);
    });
}

// ---------------------------------------------------------------------------
// SinkRetryPolicy: bounded retry with exponential backoff
// ---------------------------------------------------------------------------

#[test]
fn transient_sink_failure_is_retried_and_the_run_completes() {
    with_watchdog(60, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(50))
            .build()
            .unwrap();
        let mut cfg = EngineConfig::new(query, 1)
            .unwrap()
            .with_sink_retry(SinkRetryPolicy::new(3));
        // Emissions 3 and 4 panic; attempts 2/3 of each retry loop succeed.
        cfg.faults = FaultPlan::none().sink_fail_burst(0, 3, 2);
        let (sink, rows) = Sink::collect();
        let mut engine = KeyOij::spawn(cfg, sink).unwrap();
        for i in 0..64u64 {
            engine
                .push(Event::data(
                    i,
                    Side::Base,
                    Tuple::new(Timestamp::from_micros(i as i64), 1, 1.0),
                ))
                .unwrap();
        }
        let stats = engine.finish().unwrap();
        assert_eq!(stats.results, 64, "every row must be delivered");
        assert_eq!(rows.lock().len(), 64);
        assert!(
            stats.sink_retries >= 2,
            "retries must be counted, got {}",
            stats.sink_retries
        );
        assert!(!stats.aborted);
    });
}

#[test]
fn permanent_sink_failure_exhausts_retries_and_fails_the_worker() {
    with_watchdog(60, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(50))
            .build()
            .unwrap();
        let mut cfg = EngineConfig::new(query, 1)
            .unwrap()
            .with_sink_retry(SinkRetryPolicy::new(3));
        // A burst longer than the retry budget: attempt 3 still panics.
        cfg.faults = FaultPlan::none().sink_fail_burst(0, 0, 50);
        cfg.send_timeout = StdDuration::from_millis(500);
        let mut engine: Box<dyn OijEngine> = Box::new(KeyOij::spawn(cfg, Sink::null()).unwrap());
        let events: Vec<Event> = (0..64u64)
            .map(|i| {
                Event::data(
                    i,
                    Side::Base,
                    Tuple::new(Timestamp::from_micros(i as i64), 1, 1.0),
                )
            })
            .collect();
        let mut err = None;
        for ev in &events {
            if let Err(e) = engine.push(ev.clone()) {
                err = Some(e);
                break;
            }
        }
        let err = err.unwrap_or_else(|| {
            engine
                .finish()
                .expect_err("exhausted retries must fail the worker")
        });
        assert!(
            matches!(&err, Error::WorkerFailed { cause, .. } if cause.contains("injected sink failure")),
            "got {err:?}"
        );
    });
}
