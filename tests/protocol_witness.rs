//! Message-protocol suite (DESIGN.md §8): the tests behind the one check
//! of the driver→joiner `(batch|heartbeat)* flush` grammar.
//!
//! Every joiner carries an always-on [`ProtoProbe`] shadowing its
//! receive side of the driver→joiner edge: it panics — surfacing as a
//! supervised `WorkerFailed` — when a stamp decreases along the edge (a
//! heartbeat running backwards, a heartbeat below data already
//! delivered, data delivered below an earlier heartbeat), or on any
//! traffic after the edge's terminal `Flush`. There is no second,
//! cfg-gated witness and no send-site tag rule behind it: the probe runs
//! in every build, so plain `cargo test` is the gate. The property tests
//! here drive disordered workloads through **all four engines × batch
//! sizes {1, 2, 7, 64}** and require clean completion: a run that
//! finishes `Ok` is a run in which the stamps on every channel were
//! monotone — no heartbeat below data delivered before it, and no data
//! below a heartbeat delivered before it.
//!
//! The direct probe tests prove the probe actually bites (so the
//! clean-completion assertion is not vacuous), and the recovery test
//! extends the property across a crash: replayed tuples go through
//! `push_stamped` with their WAL-logged original stamps, and the probes
//! stay armed through replay and resumed live ingest.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use oij::prelude::*;
use oij_core::instrument::ProtoProbe;
use proptest::prelude::*;

/// The batch shapes the acceptance gate requires: batches of one, constant
/// flushing, ragged partials, and the bench default.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

/// Heartbeat cadence of every run here, far below the default 512: at 512
/// a 1 500-event run carries two heartbeats per joiner, and a heartbeat
/// stamped with event time instead of the watermark went unseen — it runs
/// backwards only when two heartbeats fall inside one disorder span. Not
/// 1: every heartbeat flushes the batcher first, and the batch-size axis
/// would never fill a batch. (The other regression once listed beside it,
/// a recovery that forgets to re-seed the watermark tracker, is invisible
/// here at any cadence — replay re-observes every retained tuple — and is
/// pinned by `driver::tests::recovery_reseeds_the_tracker_from_the_log`.)
const HEARTBEAT_EVERY: usize = 5;

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

fn spawn_kind(kind: &str, cfg: EngineConfig, sink: Sink) -> Box<dyn OijEngine> {
    match kind {
        "key-oij" => Box::new(KeyOij::spawn(cfg, sink).unwrap()),
        "scale-oij" => Box::new(ScaleOij::spawn(cfg, sink).unwrap()),
        "splitjoin" => Box::new(SplitJoin::spawn(cfg, sink).unwrap()),
        "openmldb" => Box::new(OpenMldbBaseline::spawn(cfg, sink).unwrap()),
        other => unreachable!("unknown engine {other}"),
    }
}

proptest! {
    // Each case runs 4 engines × 4 batch sizes with real threads.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Heartbeats and data never undercut each other, whatever the
    /// batching: with the per-joiner probes armed, any channel on which a
    /// stamp dropped below one already observed (a heartbeat below
    /// delivered data, data below a heartbeat that overtook it, or a
    /// heartbeat running backwards), or on which anything followed the
    /// terminal Flush, panics the joiner and fails the run. Completing
    /// `Ok` across the full engine × batch matrix IS the property.
    /// OpenMLDB rejects watermark mode by contract, so it runs eager —
    /// same probes, same edge discipline.
    #[test]
    fn no_sink_observes_data_above_a_later_heartbeat(
        pre in 1i64..400,
        disorder in 0i64..200,
        keys in 1u64..10,
        joiners in 1usize..4,
        seed in any::<u64>(),
    ) {
        let events = disordered(1_500, keys, disorder, seed);
        for kind in ["key-oij", "scale-oij", "splitjoin", "openmldb"] {
            let emit = if kind == "openmldb" { EmitMode::Eager } else { EmitMode::Watermark };
            let query = OijQuery::builder()
                .preceding(Duration::from_micros(pre))
                .lateness(Duration::from_micros(disorder.max(1)))
                .agg(AggSpec::Sum)
                .emit(emit)
                .build()
                .unwrap();
            for batch in BATCH_SIZES {
                let mut cfg = EngineConfig::new(query.clone(), joiners)
                    .unwrap()
                    .with_batch_size(batch);
                cfg.heartbeat_every = HEARTBEAT_EVERY;
                let (sink, _rows) = Sink::collect();
                let mut engine = spawn_kind(kind, cfg, sink);
                for e in &events {
                    engine.push(e.clone()).unwrap_or_else(|e| {
                        panic!("{kind} batch={batch}: protocol violation surfaced: {e}")
                    });
                }
                engine.finish().unwrap_or_else(|e| {
                    panic!("{kind} batch={batch}: protocol violation at finish: {e}")
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The probe must actually bite, or the property above is vacuous.
// ---------------------------------------------------------------------------

fn probe_panic(f: impl FnOnce() + Send + 'static) -> String {
    let err = std::thread::spawn(f).join().expect_err("must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn probe_rejects_a_heartbeat_regression() {
    let msg = probe_panic(|| {
        let mut p = ProtoProbe::new("driver-joiner");
        p.heartbeat(Timestamp::from_micros(100));
        p.heartbeat(Timestamp::from_micros(99));
    });
    assert!(
        msg.contains("stamp regression (heartbeat 99 after 100)"),
        "{msg}"
    );
}

#[test]
fn probe_rejects_a_heartbeat_below_delivered_data() {
    let msg = probe_panic(|| {
        let mut p = ProtoProbe::new("driver-joiner");
        p.data(Timestamp::from_micros(500));
        p.heartbeat(Timestamp::from_micros(400));
    });
    assert!(
        msg.contains("stamp regression (heartbeat 400 after 500)"),
        "{msg}"
    );
}

/// The order the property above is named for: data delivered after a
/// heartbeat must not be stamped below it — what a `tick` that sends its
/// heartbeat before flushing the parked lanes produces.
#[test]
fn probe_rejects_data_below_an_earlier_heartbeat() {
    let msg = probe_panic(|| {
        let mut p = ProtoProbe::new("driver-joiner");
        p.heartbeat(Timestamp::from_micros(500));
        p.data(Timestamp::from_micros(400));
    });
    assert!(
        msg.contains("stamp regression (data 400 after 500)"),
        "{msg}"
    );
}

#[test]
fn probe_rejects_traffic_after_the_terminal_flush() {
    let msg = probe_panic(|| {
        let mut p = ProtoProbe::new("driver-joiner");
        p.data(Timestamp::from_micros(1));
        p.finish();
        p.data(Timestamp::from_micros(2));
    });
    assert!(msg.contains("after the edge's terminal Flush"), "{msg}");
}

#[test]
fn probe_accepts_a_monotone_stream() {
    let mut p = ProtoProbe::new("driver-joiner");
    p.data(Timestamp::from_micros(10));
    p.data(Timestamp::from_micros(20));
    p.heartbeat(Timestamp::from_micros(20));
    p.heartbeat(Timestamp::from_micros(20)); // equal is fine: monotone, not strict
    p.data(Timestamp::from_micros(30));
    p.finish();
}

// ---------------------------------------------------------------------------
// The property holds across a crash: stamped replay keeps it monotone.
// ---------------------------------------------------------------------------

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("oij-protocol-{tag}-{}-{n}", std::process::id()))
}

/// Crash mid-run, recover (replaying retained tuples through
/// `push_stamped` with their original WAL-logged watermark stamps),
/// resume live ingest, and finish. The probes are armed in both the
/// crashed and the recovered engine: a replay that re-stamped tuples out
/// of order — or a heartbeat computed from a regressed tracker — would
/// panic a joiner and fail this test. Exactly-once row identity rides
/// along as a sanity check.
#[test]
fn stamped_recovery_replay_preserves_the_heartbeat_bound() {
    let events = disordered(3_000, 6, 150, 0xBEEF);
    let query = OijQuery::builder()
        .preceding(Duration::from_micros(120))
        .lateness(Duration::from_micros(200))
        .agg(AggSpec::Sum)
        .emit(EmitMode::Watermark)
        .build()
        .unwrap();
    for kind in [
        EngineKind::KeyOij,
        EngineKind::ScaleOij,
        EngineKind::SplitJoin,
    ] {
        let dir = scratch_dir("replay");
        let durable = DurabilityConfig::new(dir.clone());
        let crash_cfg = {
            let mut c = EngineConfig::new(query.clone(), 2)
                .unwrap()
                .with_batch_size(7)
                .with_durability(durable.clone());
            c.faults = FaultPlan::none().crash_at(0, 113);
            c.heartbeat_every = HEARTBEAT_EVERY;
            c
        };
        let (sink, pre_rows) = Sink::collect();
        let mut engine = oij::durability::spawn_engine(kind, crash_cfg, sink).unwrap();
        let mut crashed = false;
        for ev in &events {
            if engine.push(ev.clone()).is_err() {
                crashed = true;
                break;
            }
        }
        if !crashed {
            engine.finish().expect_err("crash fault must surface");
        } else {
            let _ = engine.abort();
        }
        drop(engine);

        let mut resume_cfg = EngineConfig::new(query.clone(), 2)
            .unwrap()
            .with_batch_size(7);
        resume_cfg.durability = Some(durable);
        resume_cfg.heartbeat_every = HEARTBEAT_EVERY;
        let (sink, post_rows) = Sink::collect();
        let (mut engine, report) = oij::durability::recover(kind, resume_cfg, sink).unwrap();
        assert!(report.replayed > 0, "{kind:?}: recovery must replay");
        let resume_after = report.last_seq.expect("crashed run logged events");
        for ev in events.iter().filter(|e| e.seq > resume_after) {
            engine
                .push(ev.clone())
                .unwrap_or_else(|e| panic!("{kind:?}: protocol violation after recovery: {e}"));
        }
        engine
            .finish()
            .unwrap_or_else(|e| panic!("{kind:?}: protocol violation at finish: {e}"));

        let mut seen = HashSet::new();
        // One `sink_collect` guard at a time: copy the first row set out
        // before locking the second (the lockdep witness forbids nesting).
        let pre = pre_rows.lock().clone();
        for r in pre.iter().chain(post_rows.lock().iter()) {
            assert!(
                seen.insert((r.seq, r.late)),
                "{kind:?}: duplicate row seq {} late {}",
                r.seq,
                r.late
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
