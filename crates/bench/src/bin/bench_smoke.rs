//! Smoke measurement of the batched routing path (DESIGN.md §10,
//! EXPERIMENTS.md §bench-smoke). Prints and writes its rows; it gates
//! nothing — the performance gate is the `benchmark/` crate.
//!
//! Measures every engine on one fixed small workload at `batch_size = 1`
//! (batches of one, the oracle) and `batch_size = 64`, three trials each,
//! reporting **median throughput** and **p99 latency**. The index
//! backend is a matrix axis: every engine runs on the skip-list
//! reference, and the flagship Scale-OIJ additionally on Jiffy-lite and
//! HINT-lite, so a backend-local regression can't hide behind the
//! default rows:
//!
//! ```text
//! cargo run --release -p oij-bench --bin bench_smoke [out.json]
//! ```
//!
//! The measurement is written to `target/bench_smoke.json` (or the path
//! given as the sole positional argument).
//!
//! Env knobs: `OIJ_BENCH_TUPLES` (default 120 000) and
//! `OIJ_BENCH_TRIALS` (default 3; the median wants an odd count).

use std::process::ExitCode;

use serde::Serialize;

use oij_bench::run_engine_cfg;
use oij_core::config::{EngineConfig, IndexBackend, Instrumentation};
use oij_core::engine::EngineKind;
use oij_workload::{KeyDist, SyntheticConfig};

use oij_common::{Duration, OijQuery};

/// The batch sizes measured: batches of one (the oracle) and the default
/// coalescing depth.
const BATCHES: [usize; 2] = [1, 64];

const ENGINES: [EngineKind; 4] = [
    EngineKind::KeyOij,
    EngineKind::ScaleOij,
    EngineKind::SplitJoin,
    EngineKind::OpenMldb,
];

/// The engine × backend rows measured: every engine on the skip-list
/// reference, plus Scale-OIJ on each alternative backend.
fn bench_matrix() -> Vec<(EngineKind, IndexBackend)> {
    let mut rows: Vec<(EngineKind, IndexBackend)> = ENGINES
        .iter()
        .map(|&k| (k, IndexBackend::SkipList))
        .collect();
    rows.push((EngineKind::ScaleOij, IndexBackend::JiffyLite));
    rows.push((EngineKind::ScaleOij, IndexBackend::HintLite));
    rows
}

/// One engine × backend × batch-size measurement (medians over trials).
#[derive(Debug, Clone, Serialize)]
struct Measurement {
    /// Engine label (paper legend name).
    engine: String,
    /// Index backend label.
    backend: String,
    /// Coalescing depth this row was measured at.
    batch_size: usize,
    /// Median throughput over the trials, tuples/second.
    throughput: f64,
    /// Every trial's throughput, for eyeballing variance.
    trials: Vec<f64>,
    /// Median p99 arrival→emission latency, milliseconds.
    p99_ms: f64,
}

/// The output file format.
#[derive(Debug, Clone, Serialize)]
struct Report {
    /// Workload identity.
    workload: String,
    /// Events per trial.
    tuples: usize,
    /// Trials per configuration.
    trials: usize,
    /// Joiners per engine.
    joiners: usize,
    /// All measurements.
    measurements: Vec<Measurement>,
    /// batch=64 over batch=1 median-throughput ratio per engine.
    speedups: Vec<(String, f64)>,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN throughput"));
    xs[xs.len() / 2]
}

fn measure(tuples: usize, trials: usize, joiners: usize) -> Report {
    // Fixed probe-heavy workload: lots of cheap per-tuple work, so the
    // per-message routing overhead the batched path amortizes dominates.
    let events = SyntheticConfig {
        tuples,
        unique_keys: 64,
        key_dist: KeyDist::Uniform,
        probe_fraction: 0.8,
        spacing: Duration::from_micros(1),
        disorder: Duration::ZERO,
        seed: 0x5EED_0004,
        ..Default::default()
    }
    .generate();
    let query = OijQuery::sum_over_preceding(Duration::from_micros(100), Duration::ZERO)
        .expect("static query");

    let mut measurements = Vec::new();
    for (kind, backend) in bench_matrix() {
        for batch in BATCHES {
            let mut tput = Vec::with_capacity(trials);
            let mut p99 = Vec::with_capacity(trials);
            for _ in 0..trials {
                let cfg = EngineConfig::new(query.clone(), joiners)
                    .expect("valid config")
                    .with_instrument(Instrumentation::latency())
                    .with_batch_size(batch)
                    .with_index_backend(backend);
                let stats = run_engine_cfg(kind, cfg, &events).expect("bench run");
                tput.push(stats.throughput);
                p99.push(
                    stats
                        .latency
                        .as_ref()
                        .map(|h| h.quantile_ns(0.99) as f64 / 1e6)
                        .unwrap_or(0.0),
                );
            }
            let m = Measurement {
                engine: kind.label().to_string(),
                backend: backend.label().to_string(),
                batch_size: batch,
                throughput: median(&mut tput.clone()),
                trials: tput,
                p99_ms: median(&mut p99),
            };
            println!(
                "{:>12} {:>10} batch={:<3} {:>12.0} tuples/s   p99 {:>8.3} ms",
                m.engine, m.backend, m.batch_size, m.throughput, m.p99_ms
            );
            measurements.push(m);
        }
    }

    // Speedups stay a per-engine summary on the reference backend.
    let skiplist = IndexBackend::SkipList.label();
    let speedups = ENGINES
        .iter()
        .map(|k| {
            let at = |b: usize| {
                measurements
                    .iter()
                    .find(|m| m.engine == k.label() && m.backend == skiplist && m.batch_size == b)
                    .map(|m| m.throughput)
                    .unwrap_or(f64::NAN)
            };
            (k.label().to_string(), at(64) / at(1))
        })
        .collect::<Vec<_>>();
    for (engine, s) in &speedups {
        println!("{engine:>12} batch=64 speedup over batch=1: {s:.2}x");
    }

    Report {
        workload: "uniform-64keys-0.8probe-100us-window".into(),
        tuples,
        trials,
        joiners,
        measurements,
        speedups,
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tuples = env_usize("OIJ_BENCH_TUPLES", 120_000);
    let trials = env_usize("OIJ_BENCH_TRIALS", 3).max(1);
    let joiners = 4;

    let out = args
        .first()
        .map(String::as_str)
        .unwrap_or("target/bench_smoke.json");
    let report = measure(tuples, trials, joiners);
    let json = serde_json::to_string_pretty(&report).expect("serialisable report");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("error: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("[saved {out}]");
    ExitCode::SUCCESS
}
