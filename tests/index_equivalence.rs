//! Backend-differential engine suite: every `IndexBackend` must drive
//! every engine to **the same output** as the skip-list reference.
//!
//! The pluggable-index contract (DESIGN.md §12) promises that swapping
//! `EngineConfig::index_backend` is observationally invisible. This suite
//! races the three backends through the full engine stack, reusing the
//! batching-differential comparison policy from
//! `tests/property_equivalence.rs`:
//!
//! - **J = 1, eager**: bit-identical rows in the same emission order
//!   (late markers included) plus identical lateness accounting, across
//!   `batch_size ∈ {1, 2, 7, 64}` and both late policies;
//! - **multi-joiner, watermark**: sorted by `(seq, late)`; Key-OIJ is
//!   bit-identical, the parallel engines agree to 1e-9 (float
//!   accumulation order may differ across joiners, never row identity);
//! - **crash → recover**: a mid-run simulated process death followed by
//!   WAL replay must reproduce the uninterrupted run per backend — the
//!   recovery path rebuilds the index through the same `OijIndexWriter`
//!   interface the live path uses.
//!
//! Set `OIJ_INDEX_BACKEND=<label>` (`skiplist`, `jiffy-lite`,
//! `hint-lite`) to restrict the backend axis to one backend — the CI
//! matrix leg runs one process per backend. The skip-list *reference*
//! run is unaffected by the filter.
//!
//! On a row mismatch both row sets are dumped to
//! `target/index-equivalence/` before panicking; CI uploads that
//! directory as a failure artifact so divergences are diffable offline.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration as StdDuration;

use oij::durability::{recover, spawn_engine};
use oij::prelude::*;
use oij::Error;

/// The batching axis: batches of one plus the three coalescing sizes the
/// property-equivalence suite uses (prime, small, channel-bound).
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

const PARALLEL_ENGINES: [EngineKind; 3] = [
    EngineKind::KeyOij,
    EngineKind::ScaleOij,
    EngineKind::SplitJoin,
];

/// The backend axis, optionally restricted by `OIJ_INDEX_BACKEND`.
fn backends_under_test() -> Vec<IndexBackend> {
    match std::env::var("OIJ_INDEX_BACKEND") {
        Ok(raw) => {
            let backend = IndexBackend::from_label(&raw)
                .unwrap_or_else(|| panic!("OIJ_INDEX_BACKEND={raw:?} is not a backend label"));
            vec![backend]
        }
        Err(_) => IndexBackend::ALL.to_vec(),
    }
}

fn workload(
    tuples: usize,
    keys: u64,
    disorder_us: i64,
    probe_fraction: f64,
    seed: u64,
) -> Vec<Event> {
    SyntheticConfig {
        tuples,
        unique_keys: keys,
        key_dist: KeyDist::Uniform,
        probe_fraction,
        spacing: Duration::from_micros(1),
        disorder: Duration::from_micros(disorder_us),
        seed,
        ..Default::default()
    }
    .generate()
}

/// Runs the test body under a watchdog thread: a hang turns into a loud
/// panic instead of a stuck CI job (same idiom as tests/recovery.rs).
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
            panic!("watchdog: test exceeded {secs}s — backend run failed to stay bounded")
        }
    }
}

/// Runs `kind` on `backend` over `events` and returns the rows **in
/// emission order** plus the run stats.
fn run_on_backend(
    kind: EngineKind,
    backend: IndexBackend,
    query: &OijQuery,
    joiners: usize,
    batch: usize,
    late_policy: LatePolicy,
    events: &[Event],
) -> (Vec<FeatureRow>, RunStats) {
    let mut cfg = EngineConfig::new(query.clone(), joiners)
        .unwrap()
        .with_batch_size(batch)
        .with_index_backend(backend);
    cfg.late_policy = late_policy;
    let (sink, rows) = Sink::collect();
    let mut engine = spawn_engine(kind, cfg, sink).unwrap();
    for e in events {
        engine.push(e.clone()).expect("push");
    }
    let stats = engine.finish().expect("finish");
    let got = rows.lock().clone();
    (got, stats)
}

// ---------------------------------------------------------------------------
// Mismatch artifacts
// ---------------------------------------------------------------------------

/// `target/index-equivalence/` under the workspace root — uploaded by CI
/// as a failure artifact.
fn dump_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("index-equivalence")
}

/// Writes one row set as line-oriented text (aggregates as f64 bits so
/// the dump is lossless) and returns the path.
fn dump_rows(name: &str, rows: &[FeatureRow]) -> PathBuf {
    let dir = dump_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(name);
    let mut body = String::with_capacity(rows.len() * 48);
    for r in rows {
        body.push_str(&format!(
            "seq={} ts={} key={} late={} matched={} agg_bits={:?}\n",
            r.seq,
            r.ts.as_micros(),
            r.key,
            r.late,
            r.matched,
            r.agg.map(f64::to_bits),
        ));
    }
    let _ = std::fs::write(&path, body);
    path
}

fn dump_and_panic(ctx: &str, got: &[FeatureRow], want: &[FeatureRow], detail: String) -> ! {
    let tag: String = ctx
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let got_path = dump_rows(&format!("{tag}.got.txt"), got);
    let want_path = dump_rows(&format!("{tag}.want.txt"), want);
    panic!(
        "{ctx}: {detail} (got {} rows, want {}); dumps: {} / {}",
        got.len(),
        want.len(),
        got_path.display(),
        want_path.display()
    );
}

/// Bit-identical comparison, emission order included. `FeatureRow`'s
/// `PartialEq` compares the aggregate as raw f64 equality, so this pins
/// every bit of every row.
fn assert_rows_bit_identical(ctx: &str, got: &[FeatureRow], want: &[FeatureRow]) {
    if got == want {
        return;
    }
    let first = got
        .iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.len().min(want.len()));
    dump_and_panic(
        ctx,
        got,
        want,
        format!("rows diverge from the skip-list reference at position {first}"),
    );
}

fn sorted(mut rows: Vec<FeatureRow>) -> Vec<FeatureRow> {
    rows.sort_by_key(|r| (r.seq, r.late));
    rows
}

/// Sorted-by-identity comparison for multi-joiner runs: row identity
/// (`seq`, `late`, `matched`) is exact; the aggregate is bitwise when
/// `exact`, else within 1e-9 (cross-joiner accumulation order).
fn assert_rows_equal_sorted(ctx: &str, got: &[FeatureRow], want: &[FeatureRow], exact: bool) {
    if got.len() != want.len() {
        dump_and_panic(ctx, got, want, "row count diverges".to_string());
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let identity_ok = g.seq == w.seq && g.late == w.late && g.matched == w.matched;
        let agg_ok = if exact {
            g.agg.map(f64::to_bits) == w.agg.map(f64::to_bits)
        } else {
            g.agg_approx_eq(w, 1e-9)
        };
        if !(identity_ok && agg_ok) {
            dump_and_panic(ctx, got, want, format!("row {i} diverges: {g:?} vs {w:?}"));
        }
    }
}

// ---------------------------------------------------------------------------
// J = 1, eager: the bit-identity tier
// ---------------------------------------------------------------------------

/// Every backend × batch size × late policy must reproduce the skip-list
/// `batch_size = 1` run bit-identically on single-joiner eager configs —
/// rows, emission order, late markers, and lateness accounting. The
/// lateness budget sits below the disorder jitter so genuinely late
/// tuples reach every backend.
#[test]
fn eager_single_joiner_is_bit_identical_across_backends() {
    with_watchdog(600, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(120))
            .lateness(Duration::from_micros(80))
            .agg(AggSpec::Sum)
            .emit(EmitMode::Eager)
            .build()
            .unwrap();
        let events = workload(3_000, 6, 150, 0.5, 0x1DE9_0001);
        let engines = [
            EngineKind::KeyOij,
            EngineKind::ScaleOij,
            EngineKind::SplitJoin,
            EngineKind::OpenMldb,
        ];
        for policy in [LatePolicy::Drop, LatePolicy::SideOutput] {
            for kind in engines {
                let (want_rows, want_stats) =
                    run_on_backend(kind, IndexBackend::SkipList, &query, 1, 1, policy, &events);
                for backend in backends_under_test() {
                    for batch in BATCH_SIZES {
                        let ctx = format!(
                            "{kind:?} on {} batch={batch} policy={policy:?}",
                            backend.label()
                        );
                        let (got_rows, got_stats) =
                            run_on_backend(kind, backend, &query, 1, batch, policy, &events);
                        assert_rows_bit_identical(&ctx, &got_rows, &want_rows);
                        assert_eq!(
                            got_stats.late_violations, want_stats.late_violations,
                            "{ctx}: late_violations"
                        );
                        assert_eq!(
                            got_stats.late_side_outputs, want_stats.late_side_outputs,
                            "{ctx}: late_side_outputs"
                        );
                        assert_eq!(got_stats.results, want_stats.results, "{ctx}: results");
                        assert_eq!(
                            got_stats.input_tuples, want_stats.input_tuples,
                            "{ctx}: input_tuples"
                        );
                    }
                }
            }
        }
    });
}

/// Watermark mode at J = 1 drains at heartbeats, so even the emission
/// order is deterministic and must be backend-invariant (OpenMLDB is
/// excluded: it rejects watermark mode by contract).
#[test]
fn watermark_single_joiner_order_is_backend_invariant() {
    with_watchdog(300, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(200))
            .lateness(Duration::from_micros(150))
            .agg(AggSpec::Avg)
            .emit(EmitMode::Watermark)
            .build()
            .unwrap();
        let events = workload(3_000, 5, 120, 0.6, 0x1DE9_0002);
        for kind in PARALLEL_ENGINES {
            let (want_rows, _) = run_on_backend(
                kind,
                IndexBackend::SkipList,
                &query,
                1,
                1,
                LatePolicy::Drop,
                &events,
            );
            for backend in backends_under_test() {
                for batch in [1usize, 7] {
                    let ctx = format!("{kind:?} on {} batch={batch} watermark", backend.label());
                    let (got_rows, _) =
                        run_on_backend(kind, backend, &query, 1, batch, LatePolicy::Drop, &events);
                    assert_rows_bit_identical(&ctx, &got_rows, &want_rows);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Multi-joiner: sorted-by-identity tier
// ---------------------------------------------------------------------------

/// Multi-joiner watermark runs must agree with the skip-list reference
/// row-for-row after sorting by `(seq, late)`. Key-OIJ is single-threaded
/// per key and stays bit-identical; Scale-OIJ and SplitJoin may
/// accumulate floats in a different cross-joiner order, so their
/// aggregates get the usual 1e-9 tolerance — identity fields stay exact.
#[test]
fn multi_joiner_watermark_matches_reference_per_backend() {
    with_watchdog(600, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(150))
            .lateness(Duration::from_micros(200))
            .agg(AggSpec::Sum)
            .emit(EmitMode::Watermark)
            .build()
            .unwrap();
        let events = workload(4_000, 8, 150, 0.5, 0x1DE9_0003);
        for kind in PARALLEL_ENGINES {
            for joiners in [2usize, 4] {
                let (want_rows, want_stats) = run_on_backend(
                    kind,
                    IndexBackend::SkipList,
                    &query,
                    joiners,
                    1,
                    LatePolicy::Drop,
                    &events,
                );
                let want_rows = sorted(want_rows);
                for backend in backends_under_test() {
                    for batch in [1usize, 64] {
                        let ctx =
                            format!("{kind:?} on {} J={joiners} batch={batch}", backend.label());
                        let (got_rows, got_stats) = run_on_backend(
                            kind,
                            backend,
                            &query,
                            joiners,
                            batch,
                            LatePolicy::Drop,
                            &events,
                        );
                        let got_rows = sorted(got_rows);
                        let exact = kind == EngineKind::KeyOij;
                        assert_rows_equal_sorted(&ctx, &got_rows, &want_rows, exact);
                        assert_eq!(
                            got_stats.late_violations, want_stats.late_violations,
                            "{ctx}: late_violations"
                        );
                        assert_eq!(got_stats.results, want_stats.results, "{ctx}: results");
                    }
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Crash → recover replay per backend
// ---------------------------------------------------------------------------

/// Fresh scratch directory per test run (pid + counter: parallel test
/// binaries and threads never collide).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("oij-idxeq-{tag}-{}-{n}", std::process::id()))
}

fn run_until_crash(kind: EngineKind, cfg: EngineConfig, events: &[Event]) -> Vec<FeatureRow> {
    let (sink, rows) = Sink::collect();
    let mut engine = spawn_engine(kind, cfg, sink).unwrap();
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

/// WAL replay rebuilds the index through the same `OijIndexWriter`
/// insertion path the live run uses, so crash → recover → resume must be
/// output-equivalent to an uninterrupted run **per backend** — and the
/// uninterrupted run itself must match the skip-list reference.
#[test]
fn crash_recovery_replays_identically_per_backend() {
    with_watchdog(600, || {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(120))
            .lateness(Duration::from_micros(200))
            .agg(AggSpec::Sum)
            .emit(EmitMode::Watermark)
            .build()
            .unwrap();
        let events = workload(4_000, 6, 150, 0.5, 0x1DE9_0004);
        let base_cfg = |backend: IndexBackend| {
            EngineConfig::new(query.clone(), 2)
                .unwrap()
                .with_index_backend(backend)
        };

        // Skip-list reference: uninterrupted, non-durable.
        let (sink, rows) = Sink::collect();
        let mut engine =
            spawn_engine(EngineKind::ScaleOij, base_cfg(IndexBackend::SkipList), sink).unwrap();
        for ev in &events {
            engine.push(ev.clone()).unwrap();
        }
        engine.finish().unwrap();
        let reference = sorted(rows.lock().clone());

        for backend in backends_under_test() {
            let ctx = format!("ScaleOij crash-recovery on {}", backend.label());
            let dir = scratch_dir(backend.label());
            let durable = DurabilityConfig::new(dir.clone());

            // Uninterrupted run on this backend: must match the skip-list
            // reference (identity exact, aggregates to 1e-9 at J=2).
            let (sink, rows) = Sink::collect();
            let mut engine = spawn_engine(EngineKind::ScaleOij, base_cfg(backend), sink).unwrap();
            for ev in &events {
                engine.push(ev.clone()).unwrap();
            }
            let want_stats = engine.finish().unwrap();
            let want = sorted(rows.lock().clone());
            assert_rows_equal_sorted(&format!("{ctx}: uninterrupted"), &want, &reference, false);

            // Phase 1: crash mid-run with the WAL on.
            let crash_cfg = {
                let mut c = base_cfg(backend).with_durability(durable.clone());
                c.faults = FaultPlan::none().crash_at(0, 41);
                c.send_timeout = StdDuration::from_millis(500);
                c.channel_capacity = 16;
                c
            };
            let pre = run_until_crash(EngineKind::ScaleOij, crash_cfg, &events);

            // Phase 2: recover from the WAL, resume past the last logged
            // sequence, finish.
            let mut resume_cfg = base_cfg(backend);
            resume_cfg.durability = Some(durable);
            let (sink, rows) = Sink::collect();
            let (mut engine, report) = recover(EngineKind::ScaleOij, resume_cfg, sink).unwrap();
            let resume_after = report.last_seq.expect("the crashed run logged events");
            assert!(report.replayed > 0, "{ctx}: recovery must replay events");
            for ev in events.iter().filter(|e| e.seq > resume_after) {
                engine.push(ev.clone()).unwrap();
            }
            let stats = engine.finish().unwrap();
            let post = rows.lock().clone();

            // Exactly-once across the crash: no duplicate row identity,
            // and the union equals the uninterrupted run on this backend.
            let mut seen = HashSet::new();
            for r in pre.iter().chain(&post) {
                assert!(
                    seen.insert((r.seq, r.late)),
                    "{ctx}: duplicate row seq {} late {}",
                    r.seq,
                    r.late
                );
            }
            let union = sorted(pre.into_iter().chain(post).collect());
            assert_rows_equal_sorted(&format!("{ctx}: crash union"), &union, &want, false);
            assert_eq!(stats.input_tuples, want_stats.input_tuples, "{ctx}");
            assert_eq!(stats.results, want_stats.results, "{ctx}");
            assert!(stats.wal_records_replayed > 0, "{ctx}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    });
}
