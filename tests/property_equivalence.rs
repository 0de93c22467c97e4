//! Property-based integration tests: for arbitrary workload shapes, the
//! parallel engines in exact (watermark) mode must equal the brute-force
//! oracle, and stream generation must respect its disorder contract.
//!
//! The second half is the **differential batching suite** (DESIGN.md
//! §10): for every engine, running with `batch_size ∈ {2, 7, 64}` must be
//! observably identical to `batch_size = 1` (a batch of one per tuple) — same
//! rows, same `late_violations`/`late_side_outputs` accounting, and (for
//! deterministic single-joiner configurations) the same emission order,
//! watermark mode included.
//!
//! The index backend is a matrix axis throughout: every property draws an
//! `IndexBackend` and must hold on all of them — the oracle tests pin
//! backend-vs-oracle exactness, the batching tests pin that coalescing is
//! invisible *on each backend* (cross-backend bit-identity lives in
//! `tests/index_equivalence.rs`).

use oij::engine::Oracle;
use oij::prelude::*;
use proptest::prelude::*;

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

proptest! {
    // Each case spawns threads; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scale-OIJ in watermark mode equals the oracle for arbitrary window,
    /// lateness, key-count, probe-ratio, joiner-count and agg choices.
    #[test]
    fn scale_oij_watermark_equals_oracle(
        pre in 1i64..600,
        disorder in 0i64..300,
        keys in 1u64..12,
        probe_fraction in 0.1f64..0.9,
        joiners in 1usize..5,
        seed in any::<u64>(),
        agg_idx in 0usize..3,
        backend_idx in 0usize..3,
    ) {
        let backend = IndexBackend::ALL[backend_idx];
        let agg = [AggSpec::Sum, AggSpec::Count, AggSpec::Avg][agg_idx];
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(pre))
            .lateness(Duration::from_micros(disorder.max(1)))
            .agg(agg)
            .emit(EmitMode::Watermark)
            .build()
            .unwrap();
        let events = workload(4_000, keys, disorder, probe_fraction, seed);
        let mut want = Oracle::new(query.clone()).run(&events);
        want.sort_by_key(|r| r.seq);

        let (sink, rows) = Sink::collect();
        let cfg = EngineConfig::new(query, joiners).unwrap().with_index_backend(backend);
        let mut engine = ScaleOij::spawn(cfg, sink).expect("spawn");
        for e in &events {
            engine.push(e.clone()).expect("push");
        }
        engine.finish().expect("finish");
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);

        prop_assert_eq!(got.len(), want.len());
        for (g, o) in got.iter().zip(&want) {
            prop_assert_eq!(g.matched, o.matched, "seq {}", g.seq);
            prop_assert!(g.agg_approx_eq(o, 1e-9), "seq {}: {:?} vs {:?}", g.seq, g.agg, o.agg);
        }
    }

    /// Eviction pressure: a sweep and a heartbeat after every message, on
    /// one joiner and on two with a schedule pass every 16 tuples, so
    /// teammates evict below windows whose settled state is still live.
    /// Watermark mode must still equal the oracle for all five aggregates:
    /// a settled state subtracts its own copies of what leaves the window,
    /// whatever the indexes have already dropped.
    #[test]
    fn scale_oij_watermark_equals_oracle_under_eviction_pressure(
        pre in 50i64..1_500,
        disorder in 0i64..200,
        keys in 1u64..5,
        seed in any::<u64>(),
    ) {
        let events = workload(3_000, keys, disorder, 0.6, seed);
        for agg in [AggSpec::Sum, AggSpec::Count, AggSpec::Avg, AggSpec::Min, AggSpec::Max] {
            let query = OijQuery::builder()
                .preceding(Duration::from_micros(pre))
                .lateness(Duration::from_micros(disorder.max(1)))
                .agg(agg)
                .emit(EmitMode::Watermark)
                .build()
                .unwrap();
            let mut want = Oracle::new(query.clone()).run(&events);
            want.sort_by_key(|r| r.seq);
            for joiners in [1, 2] {
                let mut cfg = EngineConfig::new(query.clone(), joiners).unwrap();
                cfg.expire_every = 1;
                cfg.heartbeat_every = 1;
                let (got, stats) = run_scale(cfg, &events);
                // At J=2 a joiner that finishes its input first parks its
                // hold at its oldest deferred base, which can hold every
                // sweep back on a loaded host; one joiner always evicts.
                prop_assert!(
                    joiners > 1 || stats.evicted > 0,
                    "{:?}: nothing was evicted", agg
                );
                prop_assert_eq!(got.len(), want.len());
                for (g, o) in got.iter().zip(&want) {
                    prop_assert_eq!(g.matched, o.matched, "{:?} J={} seq {}", agg, joiners, g.seq);
                    prop_assert!(
                        g.agg_approx_eq(o, 1e-9),
                        "{:?} J={} seq {}: {:?} vs {:?}", agg, joiners, g.seq, g.agg, o.agg
                    );
                }
            }
        }
    }

    /// Key-OIJ in watermark mode equals the oracle under the same space.
    #[test]
    fn key_oij_watermark_equals_oracle(
        pre in 1i64..600,
        disorder in 0i64..300,
        keys in 1u64..12,
        joiners in 1usize..5,
        seed in any::<u64>(),
        backend_idx in 0usize..3,
    ) {
        let backend = IndexBackend::ALL[backend_idx];
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(pre))
            .lateness(Duration::from_micros(disorder.max(1)))
            .agg(AggSpec::Sum)
            .emit(EmitMode::Watermark)
            .build()
            .unwrap();
        let events = workload(4_000, keys, disorder, 0.5, seed);
        let mut want = Oracle::new(query.clone()).run(&events);
        want.sort_by_key(|r| r.seq);

        let (sink, rows) = Sink::collect();
        let cfg = EngineConfig::new(query, joiners).unwrap().with_index_backend(backend);
        let mut engine = KeyOij::spawn(cfg, sink).expect("spawn");
        for e in &events {
            engine.push(e.clone()).expect("push");
        }
        engine.finish().expect("finish");
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);

        prop_assert_eq!(got.len(), want.len());
        for (g, o) in got.iter().zip(&want) {
            prop_assert_eq!(g.matched, o.matched, "seq {}", g.seq);
            prop_assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
        }
    }

    /// Generated streams never violate their own disorder bound: with
    /// lateness = disorder, no engine ever counts a lateness violation.
    #[test]
    fn generator_disorder_respects_lateness_contract(
        disorder in 0i64..500,
        keys in 1u64..20,
        seed in any::<u64>(),
    ) {
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(100))
            .lateness(Duration::from_micros(disorder))
            .agg(AggSpec::Sum)
            .build()
            .unwrap();
        let events = workload(3_000, keys, disorder, 0.5, seed);
        let (sink, _) = Sink::collect();
        let mut engine = KeyOij::spawn(EngineConfig::new(query, 2).unwrap(), sink).unwrap();
        for e in &events {
            engine.push(e.clone()).unwrap();
        }
        let stats = engine.finish().unwrap();
        prop_assert_eq!(stats.late_violations, 0);
    }
}

// ---------------------------------------------------------------------------
// Disorder axis: the window summary's bucket cells against both oracles
// ---------------------------------------------------------------------------

/// Runs Scale-OIJ over `events`; rows sorted by base sequence.
fn run_scale(cfg: EngineConfig, events: &[Event]) -> (Vec<FeatureRow>, RunStats) {
    let (sink, rows) = Sink::collect();
    let mut engine = ScaleOij::spawn(cfg, sink).expect("spawn");
    for e in events {
        engine.push(e.clone()).expect("push");
    }
    let stats = engine.finish().expect("finish");
    let mut got = rows.lock().clone();
    got.sort_by_key(|r| r.seq);
    (got, stats)
}

fn assert_rows_agree(got: &[FeatureRow], want: &[FeatureRow], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (g, o) in got.iter().zip(want) {
        assert_eq!(g.seq, o.seq, "{what}");
        assert_eq!(g.matched, o.matched, "{what}: seq {}", g.seq);
        assert!(
            g.agg_approx_eq(o, 1e-9),
            "{what}: seq {}: {:?} vs {:?}",
            g.seq,
            g.agg,
            o.agg
        );
    }
}

/// Disorder ∈ {0, < window, ≥ window} × all five aggregates × every index
/// backend, with lateness wide enough that the summary is really built
/// (asserted through `cells_merged`, so the path cannot be bypassed
/// silently): watermark mode must equal the oracle, and eager emission on
/// one joiner must equal the per-tuple `without_incremental()` ablation.
///
/// The 1 500 µs window over 8–64 µs buckets covers both regimes — lateness
/// ≪ window keeps a settled prefix and folds cells only into the suffix,
/// lateness ≥ window answers whole windows from cells — and 6 000 µs of
/// stream is many times the 64-cell ring, so every cell is recycled over
/// and over. Mid-stream one probe arrives far below the watermark, for a
/// bucket its slot has long moved past: it must leave the newer bucket's
/// cell alone (no window reaches it, so both oracles ignore it).
#[test]
fn scale_oij_survives_disorder_on_bucket_cells() {
    const PRE: i64 = 1_500;
    const AGGS: [AggSpec; 5] = [
        AggSpec::Sum,
        AggSpec::Count,
        AggSpec::Avg,
        AggSpec::Min,
        AggSpec::Max,
    ];
    for (disorder, seed) in [(0, 11), (400, 12), (1_600, 13)] {
        let lateness = disorder.max(160);
        let mut events = workload(6_000, 5, disorder, 0.6, seed);
        let straggler = Tuple::new(Timestamp::from_micros(-100_000), 2, 1e6);
        events.insert(3_000, Event::data(0, Side::Probe, straggler));
        let events: Vec<Event> = events
            .into_iter()
            .enumerate()
            .map(|(seq, e)| {
                let (side, tuple) = e.as_data().expect("data event");
                Event::data(seq as u64, side, *tuple)
            })
            .collect();
        for agg in AGGS {
            for backend in IndexBackend::ALL {
                let what = format!("disorder {disorder} {agg:?} {}", backend.label());
                let query = |emit| {
                    OijQuery::builder()
                        .preceding(Duration::from_micros(PRE))
                        .lateness(Duration::from_micros(lateness))
                        .agg(agg)
                        .emit(emit)
                        .build()
                        .unwrap()
                };
                let cfg = |emit, joiners| {
                    EngineConfig::new(query(emit), joiners)
                        .unwrap()
                        .with_index_backend(backend)
                };
                let shape = oij::engine::SummaryShape::for_window(&query(EmitMode::Eager).window)
                    .expect("lateness ≥ 128 µs builds a summary");
                assert_eq!(shape.spans_window(), disorder >= PRE, "{what}");

                // (a) watermark mode ≡ the oracle.
                let mut want = Oracle::new(query(EmitMode::Watermark)).run(&events);
                want.sort_by_key(|r| r.seq);
                let (got, stats) = run_scale(cfg(EmitMode::Watermark, 2), &events);
                assert_rows_agree(&got, &want, &format!("{what} watermark"));
                assert_eq!(stats.late_violations, 1, "{what}: the straggler");
                // Deferred bases are settled by the time they are answered:
                // only whole-window folds read cells then.
                assert_eq!(stats.cells_merged > 0, shape.spans_window(), "{what}");

                // (b) eager, one joiner: incremental ≡ per-tuple ablation.
                let (inc, stats) = run_scale(cfg(EmitMode::Eager, 1), &events);
                let (plain, plain_stats) =
                    run_scale(cfg(EmitMode::Eager, 1).without_incremental(), &events);
                assert_rows_agree(&inc, &plain, &format!("{what} eager"));
                assert!(stats.cells_merged > 0, "{what}: no cell was ever merged");
                assert!(stats.nodes_visited < plain_stats.nodes_visited, "{what}");
                assert_eq!(plain_stats.cells_merged, 0, "{what}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential batching suite: batch_size must be invisible in the results
// ---------------------------------------------------------------------------

/// The batch sizes the acceptance gate requires beside the batch-of-one
/// oracle: 2 exercises constant flushing, 7 leaves ragged partial batches
/// at heartbeats and end-of-input, 64 is the bench default.
const BATCH_SIZES: [usize; 3] = [2, 7, 64];

const ALL_ENGINES: [&str; 4] = ["key-oij", "scale-oij", "splitjoin", "openmldb"];

fn spawn_kind(kind: &str, cfg: EngineConfig, sink: Sink) -> Box<dyn OijEngine> {
    match kind {
        "key-oij" => Box::new(KeyOij::spawn(cfg, sink).unwrap()),
        "scale-oij" => Box::new(ScaleOij::spawn(cfg, sink).unwrap()),
        "splitjoin" => Box::new(SplitJoin::spawn(cfg, sink).unwrap()),
        "openmldb" => Box::new(OpenMldbBaseline::spawn(cfg, sink).unwrap()),
        other => unreachable!("unknown engine {other}"),
    }
}

/// Runs `kind` over `events` with the given batch size and index backend
/// and returns the rows **in emission order** plus the run stats.
fn run_with_batch(
    kind: &str,
    query: &OijQuery,
    joiners: usize,
    batch: usize,
    backend: IndexBackend,
    late_policy: LatePolicy,
    events: &[Event],
) -> (Vec<FeatureRow>, RunStats) {
    let mut cfg = EngineConfig::new(query.clone(), joiners)
        .unwrap()
        .with_batch_size(batch)
        .with_index_backend(backend);
    cfg.late_policy = late_policy;
    let (sink, rows) = Sink::collect();
    let mut engine = spawn_kind(kind, cfg, sink);
    for e in events {
        engine.push(e.clone()).expect("push");
    }
    let stats = engine.finish().expect("finish");
    let got = rows.lock().clone();
    (got, stats)
}

proptest! {
    // Each case runs 4 engines × 4 batch sizes; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Single joiner, eager mode: every engine is fully deterministic, so
    /// every batch size must reproduce the `batch_size = 1` run
    /// **bit-identically** — same rows in the same emission order (late
    /// markers included) and the same lateness accounting. Lateness is
    /// drawn independently of disorder so some runs genuinely violate the
    /// contract and exercise the mid-batch late checks.
    #[test]
    fn batching_is_invisible_on_deterministic_configs(
        pre in 1i64..400,
        disorder in 0i64..200,
        lateness in 0i64..200,
        keys in 1u64..10,
        probe_fraction in 0.1f64..0.9,
        side_output in any::<bool>(),
        seed in any::<u64>(),
        backend_idx in 0usize..3,
    ) {
        let backend = IndexBackend::ALL[backend_idx];
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(pre))
            .lateness(Duration::from_micros(lateness))
            .agg(AggSpec::Sum)
            .emit(EmitMode::Eager)
            .build()
            .unwrap();
        let policy = if side_output { LatePolicy::SideOutput } else { LatePolicy::Drop };
        let events = workload(2_000, keys, disorder, probe_fraction, seed);
        for kind in ALL_ENGINES {
            let (want_rows, want_stats) =
                run_with_batch(kind, &query, 1, 1, backend, policy, &events);
            // `batch_size = 1` sends every tuple as a batch of one.
            prop_assert_eq!(want_stats.batch_occupancy.max(), 1, "{}", kind);
            prop_assert_eq!(
                want_stats.batch_occupancy.tuples(), events.len() as u64,
                "{}", kind
            );
            for batch in BATCH_SIZES {
                let (got_rows, got_stats) =
                    run_with_batch(kind, &query, 1, batch, backend, policy, &events);
                // Bit-identical, order included: FeatureRow's PartialEq
                // compares the aggregate as raw f64 equality.
                prop_assert_eq!(
                    &got_rows, &want_rows,
                    "{} batch={}: rows diverge from the unbatched oracle", kind, batch
                );
                prop_assert_eq!(
                    got_stats.late_violations, want_stats.late_violations,
                    "{} batch={}", kind, batch
                );
                prop_assert_eq!(
                    got_stats.late_side_outputs, want_stats.late_side_outputs,
                    "{} batch={}", kind, batch
                );
                prop_assert_eq!(got_stats.results, want_stats.results, "{} batch={}", kind, batch);
                prop_assert_eq!(
                    got_stats.input_tuples, want_stats.input_tuples,
                    "{} batch={}", kind, batch
                );
                // The sweep cadence matches the unbatched path exactly:
                // every sweep fires after the same message, so it evicts
                // the same tuples.
                prop_assert_eq!(got_stats.evicted, want_stats.evicted, "{} batch={}", kind, batch);
                prop_assert_eq!(
                    &got_stats.joiner_loads, &want_stats.joiner_loads,
                    "{} batch={}", kind, batch
                );
                // The occupancy histogram proves batches actually flowed
                // (conservation: every tuple arrived inside some batch).
                prop_assert_eq!(
                    got_stats.batch_occupancy.tuples(), events.len() as u64,
                    "{} batch={}", kind, batch
                );
                prop_assert!(
                    got_stats.batch_occupancy.max() <= batch as u64,
                    "{} batch={}: a batch exceeded the configured size", kind, batch
                );
            }
        }
    }

    /// Single joiner, watermark mode: drains happen at heartbeats, so the
    /// emission order itself is deterministic and must survive batching
    /// unchanged (flush-before-heartbeat keeps coalesced tuples ahead of
    /// the watermark that would drain them). OpenMLDB is excluded: it
    /// rejects watermark mode by contract.
    #[test]
    fn watermark_emission_order_survives_batching(
        pre in 1i64..400,
        disorder in 0i64..150,
        keys in 1u64..10,
        seed in any::<u64>(),
        backend_idx in 0usize..3,
    ) {
        let backend = IndexBackend::ALL[backend_idx];
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(pre))
            .lateness(Duration::from_micros(disorder.max(1)))
            .agg(AggSpec::Avg)
            .emit(EmitMode::Watermark)
            .build()
            .unwrap();
        let events = workload(2_000, keys, disorder, 0.5, seed);
        for kind in ["key-oij", "scale-oij", "splitjoin"] {
            let (want_rows, _) =
                run_with_batch(kind, &query, 1, 1, backend, LatePolicy::Drop, &events);
            for batch in BATCH_SIZES {
                let (got_rows, _) =
                    run_with_batch(kind, &query, 1, batch, backend, LatePolicy::Drop, &events);
                prop_assert_eq!(
                    &got_rows, &want_rows,
                    "{} batch={}: watermark emission order diverged", kind, batch
                );
            }
        }
    }

    /// Multiple joiners: sink interleaving across worker threads is
    /// scheduling-dependent, so rows are compared sorted by base sequence.
    /// Key-OIJ stays bit-identical (disjoint per-key state, deterministic
    /// routing); SplitJoin and Scale-OIJ may re-associate floating-point
    /// partial merges, so aggregates compare within 1e-9. OpenMLDB's
    /// shared-store baseline is racy between workers even unbatched and
    /// is covered by the single-joiner case above.
    #[test]
    fn multi_joiner_batching_matches_unbatched(
        pre in 1i64..400,
        disorder in 0i64..150,
        keys in 1u64..10,
        joiners in 2usize..5,
        seed in any::<u64>(),
        backend_idx in 0usize..3,
    ) {
        let backend = IndexBackend::ALL[backend_idx];
        let query = OijQuery::builder()
            .preceding(Duration::from_micros(pre))
            .lateness(Duration::from_micros(disorder.max(1)))
            .agg(AggSpec::Sum)
            .emit(EmitMode::Watermark)
            .build()
            .unwrap();
        let events = workload(2_000, keys, disorder, 0.5, seed);
        for kind in ["key-oij", "scale-oij", "splitjoin"] {
            let (mut want_rows, want_stats) =
                run_with_batch(kind, &query, joiners, 1, backend, LatePolicy::Drop, &events);
            want_rows.sort_by_key(|r| r.seq);
            for batch in BATCH_SIZES {
                let (mut got_rows, got_stats) =
                    run_with_batch(kind, &query, joiners, batch, backend, LatePolicy::Drop, &events);
                got_rows.sort_by_key(|r| r.seq);
                prop_assert_eq!(got_rows.len(), want_rows.len(), "{} batch={}", kind, batch);
                for (g, o) in got_rows.iter().zip(&want_rows) {
                    prop_assert_eq!(g.seq, o.seq, "{} batch={}", kind, batch);
                    prop_assert_eq!(
                        g.matched, o.matched,
                        "{} batch={} seq {}", kind, batch, g.seq
                    );
                    if kind == "key-oij" {
                        prop_assert_eq!(
                            g.agg, o.agg,
                            "{} batch={} seq {}: per-key state is disjoint, \
                             aggregates must be bit-identical", kind, batch, g.seq
                        );
                    } else {
                        prop_assert!(
                            g.agg_approx_eq(o, 1e-9),
                            "{} batch={} seq {}: {:?} vs {:?}", kind, batch, g.seq, g.agg, o.agg
                        );
                    }
                }
                prop_assert_eq!(
                    got_stats.late_violations, want_stats.late_violations,
                    "{} batch={}", kind, batch
                );
                prop_assert_eq!(
                    got_stats.input_tuples, want_stats.input_tuples,
                    "{} batch={}", kind, batch
                );
            }
        }
    }
}
