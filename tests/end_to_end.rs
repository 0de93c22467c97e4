//! Cross-crate integration: SQL text → parsed plan → engine execution →
//! metrics, validated against the brute-force oracle.

use oij::engine::Oracle;
use oij::prelude::*;

/// The paper's Section II-A SQL, with the lateness extension, scaled to
/// microsecond event time for a fast test run.
const SQL: &str = "SELECT sum(col2) OVER w1 FROM S \
    WINDOW w1 AS (UNION R PARTITION BY key ORDER BY timestamp \
    ROWS_RANGE BETWEEN 500us PRECEDING AND CURRENT ROW LATENESS 100us)";

fn workload(tuples: usize, disorder_us: i64, keys: u64, seed: u64) -> Vec<Event> {
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

fn collect_sorted(rows: &oij::sync::Mutex<Vec<FeatureRow>>) -> Vec<FeatureRow> {
    let mut v = rows.lock().clone();
    v.sort_by_key(|r| r.seq);
    v
}

#[test]
fn sql_to_scale_oij_matches_oracle_exactly() {
    let plan = parse_sql(SQL).expect("paper SQL parses");
    assert_eq!(plan.base_table, "S");
    assert_eq!(plan.union_table, "R");
    let mut query = plan.to_oij_query().expect("plan lowers");
    query.emit = EmitMode::Watermark; // exact mode for the equality check

    let events = workload(20_000, 100, 16, 42);
    let want = Oracle::new(query.clone()).run(&events);

    let (sink, rows) = Sink::collect();
    let mut engine = ScaleOij::spawn(EngineConfig::new(query, 4).unwrap(), sink).expect("spawn");
    for e in &events {
        engine.push(e.clone()).expect("push");
    }
    let stats = engine.finish().expect("finish");

    assert_eq!(stats.input_tuples, events.len() as u64);
    assert_eq!(stats.results as usize, want.len());
    let got = collect_sorted(&rows);
    let mut want = want;
    want.sort_by_key(|r| r.seq);
    for (g, o) in got.iter().zip(&want) {
        assert_eq!(g.matched, o.matched, "seq {}", g.seq);
        assert!(g.agg_approx_eq(o, 1e-9), "seq {}", g.seq);
    }
}

#[test]
fn every_engine_agrees_on_in_order_single_worker_runs() {
    // With one worker and an in-order stream, eager semantics are
    // deterministic for every engine, so all five implementations must
    // produce identical feature rows.
    let query = OijQuery::builder()
        .preceding(Duration::from_micros(300))
        .agg(AggSpec::Avg)
        .build()
        .unwrap();
    let events = workload(10_000, 0, 8, 7);
    let want = Oracle::new(query.clone()).run(&events);

    type Spawner = fn(EngineConfig, Sink) -> oij::Result<Box<dyn OijEngine>>;
    let spawners: Vec<(&str, Spawner)> = vec![
        ("key-oij", |c, s| Ok(Box::new(KeyOij::spawn(c, s)?))),
        ("scale-oij", |c, s| Ok(Box::new(ScaleOij::spawn(c, s)?))),
        ("splitjoin", |c, s| Ok(Box::new(SplitJoin::spawn(c, s)?))),
        ("openmldb", |c, s| {
            Ok(Box::new(OpenMldbBaseline::spawn(c, s)?))
        }),
    ];
    for (name, spawn) in spawners {
        let (sink, rows) = Sink::collect();
        let mut engine = spawn(EngineConfig::new(query.clone(), 1).unwrap(), sink).expect("spawn");
        for e in &events {
            engine.push(e.clone()).expect("push");
        }
        let stats = engine.finish().expect("finish");
        assert_eq!(stats.results as usize, want.len(), "{name}");
        let got = collect_sorted(&rows);
        for (g, o) in got.iter().zip(&want) {
            assert_eq!(g.matched, o.matched, "{name} seq {}", g.seq);
            assert!(g.agg_approx_eq(o, 1e-9), "{name} seq {}", g.seq);
        }
    }
}

#[test]
fn exact_engines_agree_under_disorder_and_parallelism() {
    // Watermark mode must make Key-OIJ, Scale-OIJ (± incremental) and
    // SplitJoin all exact — one shared ground truth.
    let query = OijQuery::builder()
        .preceding(Duration::from_micros(400))
        .lateness(Duration::from_micros(250))
        .agg(AggSpec::Sum)
        .emit(EmitMode::Watermark)
        .build()
        .unwrap();
    let events = workload(15_000, 250, 6, 99);
    let want = {
        let mut w = Oracle::new(query.clone()).run(&events);
        w.sort_by_key(|r| r.seq);
        w
    };

    type Spawner = fn(EngineConfig, Sink) -> oij::Result<Box<dyn OijEngine>>;
    let spawners: Vec<(&str, Spawner, bool)> = vec![
        (
            "key-oij",
            (|c, s| Ok(Box::new(KeyOij::spawn(c, s)?))) as Spawner,
            false,
        ),
        (
            "scale-oij+inc",
            |c, s| Ok(Box::new(ScaleOij::spawn(c, s)?)),
            false,
        ),
        (
            "scale-oij-inc",
            |c, s| Ok(Box::new(ScaleOij::spawn(c, s)?)),
            true,
        ),
        (
            "splitjoin",
            |c, s| Ok(Box::new(SplitJoin::spawn(c, s)?)),
            false,
        ),
    ];
    for (name, spawn, no_inc) in spawners {
        let mut cfg = EngineConfig::new(query.clone(), 4).unwrap();
        if no_inc {
            cfg = cfg.without_incremental();
        }
        let (sink, rows) = Sink::collect();
        let mut engine = spawn(cfg, sink).expect("spawn");
        for e in &events {
            engine.push(e.clone()).expect("push");
        }
        engine.finish().expect("finish");
        let got = collect_sorted(&rows);
        assert_eq!(got.len(), want.len(), "{name}");
        for (g, o) in got.iter().zip(&want) {
            assert_eq!(g.matched, o.matched, "{name} seq {}", g.seq);
            assert!(g.agg_approx_eq(o, 1e-9), "{name} seq {}", g.seq);
        }
    }
}

#[test]
fn run_stats_are_consistent_with_sink_contents() {
    let query = OijQuery::builder()
        .preceding(Duration::from_micros(200))
        .agg(AggSpec::Count)
        .build()
        .unwrap();
    let events = workload(8_000, 0, 4, 3);
    let bases = events
        .iter()
        .filter(|e| matches!(e.as_data(), Some((Side::Base, _))))
        .count();

    let (sink, rows) = Sink::collect();
    let cfg = EngineConfig::new(query, 2)
        .unwrap()
        .with_instrument(Instrumentation::full());
    let mut engine = KeyOij::spawn(cfg, sink).unwrap();
    for e in &events {
        engine.push(e.clone()).unwrap();
    }
    let stats = engine.finish().unwrap();

    assert_eq!(stats.results as usize, bases);
    assert_eq!(rows.lock().len(), bases);
    assert_eq!(stats.input_tuples, events.len() as u64);
    assert_eq!(
        stats.joiner_loads.iter().sum::<u64>(),
        events.len() as u64,
        "every tuple processed exactly once"
    );
    let lat = stats.latency.expect("latency on");
    assert_eq!(lat.count() as usize, bases);
    let eff = stats.effectiveness.expect("effectiveness on");
    assert!((0.0..=1.0).contains(&eff));
    assert!(stats.breakdown.expect("breakdown on").total_ns() > 0);
    assert!(stats.throughput > 0.0);
}
