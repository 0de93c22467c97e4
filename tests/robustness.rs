//! Robustness and lifecycle tests: aggressive expiration + scheduling
//! churn under disorder, the shared lifecycle contract (misuse, poison,
//! drop-without-finish), and the fault matrix.

use oij::engine::Oracle;
use oij::prelude::*;

fn workload(tuples: usize, keys: u64, disorder_us: i64, seed: u64) -> Vec<Event> {
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

#[test]
fn scale_oij_survives_aggressive_everything() {
    // Expiration every message, heartbeats every 16 pushes (and a schedule
    // pass every 256), Zipf keys, disorder — and still exact in watermark
    // mode.
    let query = OijQuery::builder()
        .preceding(Duration::from_micros(150))
        .lateness(Duration::from_micros(200))
        .agg(AggSpec::Sum)
        .emit(EmitMode::Watermark)
        .build()
        .unwrap();
    let events = {
        let mut cfg = SyntheticConfig {
            tuples: 30_000,
            unique_keys: 5,
            key_dist: KeyDist::Zipf { exponent: 1.0 },
            probe_fraction: 0.5,
            spacing: Duration::from_micros(1),
            disorder: Duration::from_micros(200),
            seed: 0xDEAD,
            ..Default::default()
        };
        cfg.key_dist = KeyDist::Zipf { exponent: 1.0 };
        cfg.generate()
    };
    let mut want = Oracle::new(query.clone()).run(&events);
    want.sort_by_key(|r| r.seq);

    let mut cfg = EngineConfig::new(query, 4).unwrap();
    cfg.expire_every = 1;
    cfg.heartbeat_every = 16;
    cfg.channel_capacity = 64;

    let (sink, rows) = Sink::collect();
    let mut engine = ScaleOij::spawn(cfg, sink).unwrap();
    for e in &events {
        engine.push(e.clone()).unwrap();
    }
    let stats = engine.finish().unwrap();
    assert!(stats.evicted > 0, "expiration must have run");

    let mut got = rows.lock().clone();
    got.sort_by_key(|r| r.seq);
    assert_eq!(got.len(), want.len());
    for (g, o) in got.iter().zip(&want) {
        assert_eq!(g.matched, o.matched, "seq {}", g.seq);
        assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
    }
}

#[test]
fn flush_event_mid_stream_stops_input() {
    let query = OijQuery::builder()
        .preceding(Duration::from_micros(100))
        .build()
        .unwrap();
    let (sink, _) = Sink::collect();
    let mut e = KeyOij::spawn(EngineConfig::new(query, 1).unwrap(), sink).unwrap();
    e.push(Event::data(
        0,
        Side::Base,
        Tuple::new(Timestamp::from_micros(1), 1, 1.0),
    ))
    .unwrap();
    e.push(Event::flush(1)).unwrap();
    let stats = e.finish().unwrap();
    assert_eq!(stats.input_tuples, 1); // the flush marker is not data
}

#[test]
fn tiny_channels_backpressure_without_deadlock() {
    let query = OijQuery::builder()
        .preceding(Duration::from_micros(50))
        .build()
        .unwrap();
    let mut cfg = EngineConfig::new(query, 2).unwrap();
    cfg.channel_capacity = 1;
    let events = workload(5_000, 4, 0, 8);
    let (sink, _) = Sink::collect();
    let mut e = SplitJoin::spawn(cfg, sink).unwrap();
    for ev in &events {
        e.push(ev.clone()).unwrap();
    }
    let stats = e.finish().unwrap();
    assert_eq!(stats.input_tuples, events.len() as u64);
}

#[test]
fn single_key_single_partition_extreme() {
    // The most extreme skew: one key. The dynamic schedule should grow the
    // team; watermark mode must stay exact.
    let query = OijQuery::builder()
        .preceding(Duration::from_micros(200))
        .lateness(Duration::from_micros(50))
        .agg(AggSpec::Avg)
        .emit(EmitMode::Watermark)
        .build()
        .unwrap();
    let events = workload(20_000, 1, 50, 21);
    let mut want = Oracle::new(query.clone()).run(&events);
    want.sort_by_key(|r| r.seq);

    let cfg = EngineConfig::new(query, 4).unwrap();
    let (sink, rows) = Sink::collect();
    let mut engine = ScaleOij::spawn(cfg, sink).unwrap();
    for e in &events {
        engine.push(e.clone()).unwrap();
    }
    let stats = engine.finish().unwrap();
    let mut got = rows.lock().clone();
    got.sort_by_key(|r| r.seq);
    assert_eq!(got.len(), want.len());
    for (g, o) in got.iter().zip(&want) {
        assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
    }
    // With one key the schedule should have replicated it across joiners.
    let active = stats.joiner_loads.iter().filter(|&&l| l > 0).count();
    assert!(active >= 2, "loads: {:?}", stats.joiner_loads);
}

#[test]
fn empty_and_degenerate_streams() {
    let query = OijQuery::builder()
        .preceding(Duration::from_micros(10))
        .build()
        .unwrap();
    // No input at all.
    let (sink, rows) = Sink::collect();
    let mut e = ScaleOij::spawn(EngineConfig::new(query.clone(), 2).unwrap(), sink).unwrap();
    let stats = e.finish().unwrap();
    assert_eq!(stats.input_tuples, 0);
    assert_eq!(stats.results, 0);
    assert!(rows.lock().is_empty());

    // Probe-only stream: zero results.
    let (sink, _) = Sink::collect();
    let mut e = ScaleOij::spawn(EngineConfig::new(query.clone(), 2).unwrap(), sink).unwrap();
    for i in 0..100u64 {
        e.push(Event::data(
            i,
            Side::Probe,
            Tuple::new(Timestamp::from_micros(i as i64), 1, 1.0),
        ))
        .unwrap();
    }
    assert_eq!(e.finish().unwrap().results, 0);

    // Base-only stream: every window is empty but rows still emit.
    let (sink, rows) = Sink::collect();
    let mut e = ScaleOij::spawn(EngineConfig::new(query, 2).unwrap(), sink).unwrap();
    for i in 0..100u64 {
        e.push(Event::data(
            i,
            Side::Base,
            Tuple::new(Timestamp::from_micros(i as i64), 1, 1.0),
        ))
        .unwrap();
    }
    assert_eq!(e.finish().unwrap().results, 100);
    assert!(rows.lock().iter().all(|r| r.agg == Some(0.0)));
}

// ---------------------------------------------------------------------------
// Fault matrix: injected worker failures across all four engines
// ---------------------------------------------------------------------------

use oij::Error;
use std::time::Duration as StdDuration;

const ENGINES: [&str; 4] = ["key-oij", "scale-oij", "splitjoin", "openmldb"];

/// Runs the test body under a watchdog thread: a hang (the exact failure
/// mode this PR's supervision exists to prevent) turns into a loud panic
/// instead of a stuck CI job.
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
            panic!("watchdog: test exceeded {secs}s — supervision failed to prevent a hang")
        }
    }
}

fn spawn_engine(kind: &str, cfg: EngineConfig, sink: Sink) -> Box<dyn OijEngine> {
    match kind {
        "key-oij" => Box::new(KeyOij::spawn(cfg, sink).unwrap()),
        "scale-oij" => Box::new(ScaleOij::spawn(cfg, sink).unwrap()),
        "splitjoin" => Box::new(SplitJoin::spawn(cfg, sink).unwrap()),
        "openmldb" => Box::new(OpenMldbBaseline::spawn(cfg, sink).unwrap()),
        other => unreachable!("unknown engine {other}"),
    }
}

/// Pushes events until the first error, falling back to `finish` — an
/// injected failure must surface through one of the two within the send
/// deadline. Returns the error and the still-poisoned engine.
fn drive_to_error(engine: &mut Box<dyn OijEngine>, events: &[Event]) -> Error {
    for ev in events {
        if let Err(e) = engine.push(ev.clone()) {
            return e;
        }
    }
    engine
        .finish()
        .expect_err("injected fault must surface from push or finish")
}

/// The engine shell's lifecycle contract, once for all four engines (they
/// share one `EngineShell`, so they must share one contract): misuse after
/// `finish` is an error, an injected worker panic poisons the engine so
/// every later call fails fast with the original cause, `abort` is the
/// degraded exit that still works then, and dropping an engine without
/// `finish` — healthy mid-stream or poisoned — joins its threads inside
/// `send_timeout + JOIN_KILL_GRACE`.
#[test]
fn lifecycle_contract_holds_for_every_engine() {
    use oij::durability::spawn_engine as spawn_kind;
    use oij_core::config::JOIN_KILL_GRACE;
    with_watchdog(120, || {
        for kind in [
            EngineKind::KeyOij,
            EngineKind::ScaleOij,
            EngineKind::SplitJoin,
            EngineKind::OpenMldb,
        ] {
            let label = kind.label();
            let query = OijQuery::builder()
                .preceding(Duration::from_micros(50))
                .build()
                .unwrap();
            let mut cfg = EngineConfig::new(query, 2).unwrap();
            cfg.send_timeout = StdDuration::from_millis(500);
            cfg.channel_capacity = 8;
            let teardown_bound = cfg.send_timeout + JOIN_KILL_GRACE;
            let events = workload(4_000, 16, 0, 37);

            // Misuse after a completed finish.
            let mut engine = spawn_kind(kind, cfg.clone(), Sink::null()).unwrap();
            for ev in &events[..500] {
                engine.push(ev.clone()).unwrap();
            }
            assert_eq!(engine.finish().unwrap().input_tuples, 500, "{label}");
            assert!(
                engine.push(events[500].clone()).is_err(),
                "{label}: push after finish"
            );
            assert!(engine.finish().is_err(), "{label}: finish twice");
            assert!(engine.abort().is_err(), "{label}: abort after finish");
            drop(engine);

            // Drop without finish, healthy and mid-stream.
            let mut engine = spawn_kind(kind, cfg.clone(), Sink::null()).unwrap();
            for ev in &events[..500] {
                engine.push(ev.clone()).unwrap();
            }
            let t0 = std::time::Instant::now();
            drop(engine);
            assert!(
                t0.elapsed() < teardown_bound,
                "{label}: drop took {:?}",
                t0.elapsed()
            );

            // Poison: fail fast with the first cause, from push and finish.
            let mut faulty = cfg.clone();
            faulty.faults = FaultPlan::none().panic_at(0, 0, "contract panic");
            let mut engine = spawn_kind(kind, faulty.clone(), Sink::null()).unwrap();
            let first = drive_to_error(&mut engine, &events);
            assert!(
                matches!(&first, Error::WorkerFailed { worker: 0, cause, .. } if cause == "contract panic"),
                "{label}: got {first:?}"
            );
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                let again = engine.push(events[0].clone()).expect_err("poisoned push");
                assert_eq!(again, first, "{label}");
                assert!(
                    t0.elapsed() < StdDuration::from_millis(50),
                    "{label}: not fail-fast"
                );
            }
            let at_finish = engine.finish().expect_err("poisoned finish");
            assert_eq!(at_finish, first, "{label}");
            // The degraded exit still works, exactly once.
            assert!(
                engine.abort().expect("abort after poison").aborted,
                "{label}"
            );
            assert!(engine.abort().is_err(), "{label}: abort twice");

            // Drop of a poisoned engine that was never aborted.
            let mut engine = spawn_kind(kind, faulty, Sink::null()).unwrap();
            drive_to_error(&mut engine, &events);
            let t0 = std::time::Instant::now();
            drop(engine);
            assert!(
                t0.elapsed() < teardown_bound,
                "{label}: drop took {:?}",
                t0.elapsed()
            );
        }
    });
}

#[test]
fn injected_panic_surfaces_structured_error_in_every_engine() {
    with_watchdog(90, || {
        for kind in ENGINES {
            let query = OijQuery::builder()
                .preceding(Duration::from_micros(50))
                .build()
                .unwrap();
            let mut cfg = EngineConfig::new(query, 2).unwrap();
            cfg.faults = FaultPlan::none().panic_at(0, 0, "injected worker panic");
            cfg.send_timeout = StdDuration::from_millis(500);
            cfg.channel_capacity = 8;
            let events = workload(4_000, 16, 0, 3);
            let mut engine = spawn_engine(kind, cfg, Sink::null());
            let err = drive_to_error(&mut engine, &events);
            match &err {
                Error::WorkerFailed {
                    engine: label,
                    worker,
                    cause,
                } => {
                    assert_eq!(*label, kind, "engine label");
                    assert_eq!(*worker, 0, "{kind}: worker identity");
                    assert_eq!(cause, "injected worker panic", "{kind}: payload");
                }
                other => panic!("{kind}: expected WorkerFailed, got {other:?}"),
            }
            // The engine is poisoned: subsequent pushes fail fast with the
            // original cause instead of blocking on dead channels.
            let again = engine
                .push(events[0].clone())
                .expect_err("poisoned engine must reject pushes");
            assert!(
                matches!(again, Error::WorkerFailed { worker: 0, .. }),
                "{kind}: poisoned push must carry the original failure, got {again:?}"
            );
            // Drop after a mid-run panic must terminate without hanging
            // (implicitly verified by the watchdog).
            drop(engine);
        }
    });
}

#[test]
fn wedged_joiner_classifies_as_stall_and_drop_releases_it() {
    with_watchdog(60, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(50))
            .build()
            .unwrap();
        let mut cfg = EngineConfig::new(query, 2).unwrap();
        // Worker 0 wedges on its first message: alive, never receiving.
        cfg.faults = FaultPlan::none().wedge_at(0, 0);
        cfg.send_timeout = StdDuration::from_millis(200);
        cfg.channel_capacity = 2;
        let events = workload(2_000, 16, 0, 7);
        let mut engine = KeyOij::spawn(cfg, Sink::null()).unwrap();
        let mut first = None;
        for ev in &events {
            let t0 = std::time::Instant::now();
            match engine.push(ev.clone()) {
                Ok(()) => {}
                Err(e) => {
                    first = Some((e, t0.elapsed()));
                    break;
                }
            }
        }
        let (err, waited) = first.expect("a wedged worker must stall the push path");
        // No panic was recorded, so the timeout classifies as a stall —
        // with the worker identity — not as a failure.
        assert!(
            matches!(err, Error::WorkerStalled { worker: 0, .. }),
            "got {err:?}"
        );
        assert!(
            waited < StdDuration::from_secs(2),
            "push must return within the send deadline, took {waited:?}"
        );
        // Drop must raise the kill flag, releasing the wedge (watchdog
        // catches the hang otherwise).
        drop(engine);
    });
}

#[test]
fn slow_sink_backpressure_bounds_push() {
    with_watchdog(60, || {
        // Every emission stalls 1s: in eager mode the joiner falls behind
        // immediately, the bounded channel fills, and push must surface a
        // stall within the send deadline instead of blocking indefinitely.
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(50))
            .build()
            .unwrap();
        let mut cfg = EngineConfig::new(query, 1).unwrap();
        cfg.faults = FaultPlan::none().sink_stall_from(0, 0, StdDuration::from_secs(1));
        cfg.send_timeout = StdDuration::from_millis(200);
        cfg.channel_capacity = 2;
        let mut engine = KeyOij::spawn(cfg, Sink::null()).unwrap();
        let mut stalled = None;
        for i in 0..64u64 {
            let t0 = std::time::Instant::now();
            match engine.push(Event::data(
                i,
                Side::Base,
                Tuple::new(Timestamp::from_micros(i as i64), 1, 1.0),
            )) {
                Ok(()) => {}
                Err(e) => {
                    stalled = Some((e, t0.elapsed()));
                    break;
                }
            }
        }
        let (err, waited) = stalled.expect("a saturated sink must backpressure into a stall");
        assert!(
            matches!(err, Error::WorkerStalled { worker: 0, .. }),
            "got {err:?}"
        );
        assert!(
            waited < StdDuration::from_secs(2),
            "push must be bounded by the send deadline, took {waited:?}"
        );
        // Drop interrupts the injected sink sleep via the kill flag.
        drop(engine);
    });
}

#[test]
fn erroring_sink_escalates_to_worker_failure() {
    with_watchdog(60, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(50))
            .build()
            .unwrap();
        let mut cfg = EngineConfig::new(query, 1).unwrap();
        cfg.faults = FaultPlan::none().sink_fail_at(0, 0);
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
        let err = drive_to_error(&mut engine, &events);
        match err {
            Error::WorkerFailed {
                worker: 0, cause, ..
            } => {
                assert!(
                    cause.contains("injected sink failure"),
                    "payload must identify the sink fault: {cause}"
                );
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    });
}

#[test]
fn benign_stall_slows_but_completes_the_run() {
    with_watchdog(60, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(50))
            .build()
            .unwrap();
        let mut cfg = EngineConfig::new(query, 2).unwrap();
        // 1ms per message on worker 0: within the send deadline, so the
        // run degrades gracefully to slower instead of failing.
        cfg.faults = FaultPlan::none().stall_from(0, 0, StdDuration::from_millis(1));
        let events = workload(400, 8, 0, 11);
        let (sink, _) = Sink::collect();
        let mut engine = KeyOij::spawn(cfg, sink).unwrap();
        for ev in &events {
            engine.push(ev.clone()).unwrap();
        }
        let stats = engine.finish().unwrap();
        assert_eq!(stats.input_tuples, events.len() as u64);
        assert!(!stats.aborted);
    });
}

#[test]
fn abort_mid_run_yields_partial_stats_in_every_engine() {
    with_watchdog(90, || {
        for kind in ENGINES {
            let query = OijQuery::builder()
                .preceding(Duration::from_micros(50))
                .build()
                .unwrap();
            let cfg = EngineConfig::new(query, 2).unwrap();
            let events = workload(2_000, 8, 0, 17);
            let mut engine = spawn_engine(kind, cfg, Sink::null());
            for ev in &events[..1_000] {
                engine.push(ev.clone()).unwrap();
            }
            let stats = engine.abort().expect("abort on a healthy engine");
            assert!(stats.aborted, "{kind}");
            assert_eq!(stats.workers_lost, 0, "{kind}: all workers salvageable");
            assert_eq!(stats.input_tuples, 1_000, "{kind}");
        }
    });
}

#[test]
fn abort_after_panic_reports_lost_workers() {
    with_watchdog(60, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(50))
            .build()
            .unwrap();
        let mut cfg = EngineConfig::new(query, 2).unwrap();
        cfg.faults = FaultPlan::none().panic_at(0, 0, "boom");
        cfg.send_timeout = StdDuration::from_millis(500);
        let events = workload(4_000, 16, 0, 19);
        let mut engine: Box<dyn OijEngine> = Box::new(KeyOij::spawn(cfg, Sink::null()).unwrap());
        let err = drive_to_error(&mut engine, &events);
        assert!(matches!(err, Error::WorkerFailed { .. }), "got {err:?}");
        // The degraded exit: salvage the survivor's partial stats.
        let stats = engine
            .abort()
            .expect("abort must succeed on a poisoned engine");
        assert!(stats.aborted);
        assert_eq!(stats.workers_lost, 1, "one of two workers panicked");
    });
}

// ---------------------------------------------------------------------------
// Batched routing under faults (DESIGN.md §10): fault ordinals address
// individual data messages, so injection points landing mid-batch must
// behave exactly like the unbatched path.
// ---------------------------------------------------------------------------

#[test]
fn mid_batch_panic_surfaces_structured_error_in_every_engine() {
    with_watchdog(120, || {
        for kind in ENGINES {
            let query = OijQuery::builder()
                .preceding(Duration::from_micros(50))
                .build()
                .unwrap();
            // batch_size 8 with the panic at data-message ordinal 13: the
            // fault fires on the 6th message of the victim's second batch,
            // never on a batch boundary.
            let mut cfg = EngineConfig::new(query, 2).unwrap().with_batch_size(8);
            cfg.faults = FaultPlan::none().panic_at(0, 13, "mid-batch panic");
            cfg.send_timeout = StdDuration::from_millis(500);
            cfg.channel_capacity = 8;
            let events = workload(6_000, 16, 0, 29);
            let mut engine = spawn_engine(kind, cfg, Sink::null());
            let err = drive_to_error(&mut engine, &events);
            match &err {
                Error::WorkerFailed { worker, cause, .. } => {
                    assert_eq!(*worker, 0, "{kind}: worker identity");
                    assert_eq!(cause, "mid-batch panic", "{kind}: payload");
                }
                other => panic!("{kind}: expected WorkerFailed, got {other:?}"),
            }
            // Bounded teardown with correct loss accounting: the abort path
            // salvages the survivor and reports exactly one lost worker.
            let stats = engine
                .abort()
                .expect("abort must succeed after a mid-batch panic");
            assert!(stats.aborted, "{kind}");
            assert_eq!(stats.workers_lost, 1, "{kind}: one of two workers died");
        }
    });
}

#[test]
fn mid_batch_wedge_classifies_as_stall() {
    with_watchdog(60, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(50))
            .build()
            .unwrap();
        // Worker 0 wedges on data-message ordinal 13 — mid-batch, since
        // batches carry 8. The driver keeps coalescing toward the wedged
        // worker until its channel fills, then push must classify the
        // timeout as a stall with the worker identity, exactly as on the
        // unbatched path.
        let mut cfg = EngineConfig::new(query, 2).unwrap().with_batch_size(8);
        cfg.faults = FaultPlan::none().wedge_at(0, 13);
        cfg.send_timeout = StdDuration::from_millis(200);
        cfg.channel_capacity = 2;
        let events = workload(6_000, 16, 0, 31);
        let mut engine = KeyOij::spawn(cfg, Sink::null()).unwrap();
        let mut first = None;
        for ev in &events {
            let t0 = std::time::Instant::now();
            match engine.push(ev.clone()) {
                Ok(()) => {}
                Err(e) => {
                    first = Some((e, t0.elapsed()));
                    break;
                }
            }
        }
        let (err, waited) = first.expect("a wedged worker must stall the push path");
        assert!(
            matches!(err, Error::WorkerStalled { worker: 0, .. }),
            "got {err:?}"
        );
        assert!(
            waited < StdDuration::from_secs(2),
            "push must return within the send deadline, took {waited:?}"
        );
        drop(engine); // kill flag releases the wedge; watchdog checks it
    });
}

#[test]
fn flush_deadline_drains_trickle_input_before_finish() {
    with_watchdog(60, || {
        // A slow producer must never see its tuples parked indefinitely in
        // a partial batch: the flush deadline (armed on the first tuple,
        // checked against each later arrival) hands the buffer over even
        // though it never reaches batch_size. Assert rows emit *before*
        // finish() — end-of-input flushing alone would also produce them,
        // but only afterwards.
        for kind in ENGINES {
            let query = OijQuery::builder()
                .preceding(Duration::from_micros(50))
                .build()
                .unwrap();
            let mut cfg = EngineConfig::new(query, 1).unwrap().with_batch_size(64);
            cfg.flush_deadline = StdDuration::from_millis(1);
            // Keep driver heartbeats out of the way so the deadline is the
            // only thing that can flush a partial batch.
            cfg.heartbeat_every = 100_000;
            let (sink, rows) = Sink::collect();
            let mut engine = spawn_engine(kind, cfg, sink);
            for i in 0..10u64 {
                engine
                    .push(Event::data(
                        i,
                        Side::Base,
                        Tuple::new(Timestamp::from_micros(i as i64), 1, 1.0),
                    ))
                    .unwrap();
                std::thread::sleep(StdDuration::from_millis(3));
            }
            // Every push after the first arrived past the deadline, so at
            // least the first nine tuples must have been flushed, joined,
            // and emitted by now — without any finish() involvement.
            let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
            loop {
                let emitted = rows.lock().len();
                if emitted >= 9 {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "{kind}: only {emitted}/9 rows before finish — trickle \
                     input stalled behind a partial batch"
                );
                std::thread::sleep(StdDuration::from_millis(5));
            }
            let stats = engine.finish().unwrap();
            assert_eq!(stats.input_tuples, 10, "{kind}");
            assert_eq!(rows.lock().len(), 10, "{kind}");
        }
    });
}

#[test]
fn served_plan_flush_deadline_drains_trickle_input_before_cancel() {
    with_watchdog(60, || {
        // The serving tier's fan-out is the engines' worker pool, so a
        // served plan with `batch_size > 1` gets the same flush deadline:
        // three bases park in a partial batch, then probe traffic — which
        // sends nothing to the plan's workers but advances its driver
        // time — steps past the deadline and must hand the batch over.
        // Arrival instants are explicit, so no sleep paces the feed.
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(50))
            .build()
            .unwrap();
        let mut cfg = EngineConfig::new(query, 1).unwrap().with_batch_size(64);
        cfg.flush_deadline = StdDuration::from_millis(1);
        // Keep heartbeats out of the way: only the deadline may flush.
        cfg.heartbeat_every = 100_000;
        let mut rt = oij::serve::ServeRuntime::new(oij::serve::ServeConfig::new()).unwrap();
        let (sink, rows) = Sink::collect();
        let id = rt.register(cfg, sink, None).unwrap();
        let t0 = std::time::Instant::now();
        let tuple = |i: u64| Tuple::new(Timestamp::from_micros(i as i64), 1, 1.0);
        for i in 0..3u64 {
            rt.push_at(Event::data(i, Side::Base, tuple(i)), t0)
                .unwrap();
        }
        for i in 3..6u64 {
            let at = t0 + StdDuration::from_millis(5 * (i - 2));
            rt.push_at(Event::data(i, Side::Probe, tuple(i)), at)
                .unwrap();
        }
        let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
        while rows.lock().len() < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "only {}/3 rows before cancel — the partial batch stayed parked",
                rows.lock().len()
            );
            std::thread::sleep(StdDuration::from_millis(5));
        }
        let stats = rt.cancel(id).unwrap();
        assert_eq!(stats.results, 3);
        assert_eq!(rows.lock().len(), 3);
    });
}

// ---------------------------------------------------------------------------
// LatePolicy: configurable handling of lateness-contract violations
// ---------------------------------------------------------------------------

fn late_stream() -> Vec<Event> {
    let mut events: Vec<Event> = (0..100u64)
        .map(|i| {
            Event::data(
                i,
                Side::Probe,
                Tuple::new(Timestamp::from_micros(i as i64), 1, 1.0),
            )
        })
        .collect();
    // Far below the watermark (99 − lateness 10 = 89 ≫ 5): a violation.
    events.push(Event::data(
        100,
        Side::Base,
        Tuple::new(Timestamp::from_micros(5), 1, 0.0),
    ));
    events
}

fn late_query() -> OijQuery {
    OijQuery::builder()
        .preceding(Duration::from_micros(50))
        .lateness(Duration::from_micros(10))
        .agg(AggSpec::Sum)
        .emit(EmitMode::Eager)
        .build()
        .unwrap()
}

#[test]
fn late_policy_drop_keeps_best_effort_behavior() {
    with_watchdog(60, || {
        let cfg = EngineConfig::new(late_query(), 2).unwrap();
        assert_eq!(cfg.late_policy, LatePolicy::Drop);
        let (sink, rows) = Sink::collect();
        let mut engine = ScaleOij::spawn(cfg, sink).unwrap();
        for ev in late_stream() {
            engine.push(ev).unwrap();
        }
        let stats = engine.finish().unwrap();
        assert_eq!(stats.late_violations, 1);
        assert_eq!(stats.late_side_outputs, 0);
        let rows = rows.lock();
        // Best-effort: the violating base still produced a regular row.
        assert!(rows.iter().all(|r| !r.late));
        assert!(rows.iter().any(|r| r.seq == 100));
    });
}

#[test]
fn late_policy_side_output_routes_markers_to_the_sink() {
    with_watchdog(60, || {
        let mut cfg = EngineConfig::new(late_query(), 2).unwrap();
        cfg.late_policy = LatePolicy::SideOutput;
        let (sink, rows) = Sink::collect();
        let mut engine = ScaleOij::spawn(cfg, sink).unwrap();
        for ev in late_stream() {
            engine.push(ev).unwrap();
        }
        let stats = engine.finish().unwrap();
        assert_eq!(stats.late_violations, 1);
        assert_eq!(stats.late_side_outputs, 1);
        let rows = rows.lock();
        let markers: Vec<_> = rows.iter().filter(|r| r.late).collect();
        assert_eq!(markers.len(), 1);
        assert_eq!(markers[0].seq, 100);
        assert_eq!(markers[0].key, 1);
        // The violating tuple was routed, not processed: no regular row.
        assert!(rows.iter().filter(|r| !r.late).all(|r| r.seq != 100));
    });
}

#[test]
fn empty_fault_plan_keeps_every_engine_exact() {
    with_watchdog(90, || {
        // The zero-cost claim, behaviorally: a default (empty) plan must
        // leave results identical to the oracle.
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(100))
            .lateness(Duration::from_micros(50))
            .agg(AggSpec::Sum)
            .emit(EmitMode::Watermark)
            .build()
            .unwrap();
        let events = workload(5_000, 6, 50, 23);
        let mut want = Oracle::new(query.clone()).run(&events);
        want.sort_by_key(|r| r.seq);
        let cfg = EngineConfig::new(query, 3).unwrap();
        assert!(cfg.faults.is_empty());
        let (sink, rows) = Sink::collect();
        let mut engine = ScaleOij::spawn(cfg, sink).unwrap();
        for ev in &events {
            engine.push(ev.clone()).unwrap();
        }
        engine.finish().unwrap();
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        assert_eq!(got.len(), want.len());
        for (g, o) in got.iter().zip(&want) {
            assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
        }
    });
}

/// The lockdep CI job is only a check if the witness is really compiled
/// into the locks the engines use: nest two classes in opposite orders
/// and require the cycle panic. (Under plain `cargo test` the wrappers are
/// inert shims and this test does not exist.)
#[cfg(lockdep)]
#[test]
fn lockdep_witness_is_compiled_in_and_rejects_an_order_cycle() {
    use oij::sync::Mutex;
    use std::sync::Arc;

    let a = Arc::new(Mutex::new("robustness_cycle_a", ()));
    let b = Arc::new(Mutex::new("robustness_cycle_b", ()));
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    let err = std::thread::spawn(move || {
        let _gb = b.lock();
        let _ga = a.lock();
    })
    .join()
    .expect_err("b -> a after a -> b must trip the witness");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("lock-order cycle"), "{msg}");
}
