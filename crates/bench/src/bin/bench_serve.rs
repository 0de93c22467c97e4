//! Serving-runtime measurement harness (DESIGN.md §13, EXPERIMENTS.md
//! §bench-serve): sustainable multi-query throughput plus tail latency
//! under overload, measured **coordinated-omission-safe**. Prints and
//! writes its rows; it gates nothing — the performance gate is the
//! `benchmark/` crate (`serve.16plans`).
//!
//! For each concurrent query count in {1, 4, 16} the harness runs two
//! legs over the same seeded feed:
//!
//! 1. **Closed-loop calibration** — ingest at full speed through a
//!    lossless [`ServeRuntime`] and time the run to completion
//!    (including shutdown drain). The resulting rate is the runtime's
//!    *sustainable throughput* at that query count.
//! 2. **Open-loop overload** — offer the feed at 2× the calibrated rate
//!    from a fixed arrival schedule ([`OpenLoopConfig`]) with load
//!    shedding on. Each event is pushed with its **scheduled** arrival
//!    instant (`push_at`), which is in the past whenever the feeder
//!    fell behind, so per-row latency includes the queueing delay a
//!    closed-loop driver would silently omit. The leg reports p99/p999
//!    latency and the shed count — expected **nonzero** under 2×
//!    overload, proving the backpressure path actually engages.
//!
//! ```text
//! cargo run --release -p oij-bench --bin bench_serve [out.json]
//! ```
//!
//! The measurement is written to `target/bench_serve.json` (or the path
//! given as the sole positional argument). Tail latency under the
//! deliberate 2× overload is unbounded by design; a leg that sheds
//! nothing is warned about (run too short to backlog?).
//!
//! Env knobs: `OIJ_BENCH_TUPLES` (default 60 000) and
//! `OIJ_BENCH_TRIALS` (default 3; the median wants an odd count).

use std::process::ExitCode;
use std::time::{Duration as StdDuration, Instant};

use serde::Serialize;

use oij_common::{AggSpec, Duration, EmitMode, OijQuery};
use oij_core::config::{EngineConfig, Instrumentation};
use oij_core::sink::Sink;
use oij_serve::{QueryId, ServeConfig, ServeRuntime};
use oij_workload::{KeyDist, OpenLoopConfig, SyntheticConfig};

/// The concurrency axis: one plan, a handful, and the equivalence
/// suite's sixteen.
const QUERY_COUNTS: [usize; 3] = [1, 4, 16];

/// Overload legs offer this multiple of the calibrated rate.
const OVERLOAD_FACTOR: f64 = 2.0;

/// Per-worker channel capacity in the overload leg — small enough that
/// a backlogged worker visibly sheds instead of absorbing the whole
/// overload into buffering.
const OVERLOAD_CAPACITY: usize = 512;

fn workload(tuples: usize) -> SyntheticConfig {
    SyntheticConfig {
        tuples,
        unique_keys: 16,
        key_dist: KeyDist::Uniform,
        probe_fraction: 0.5,
        spacing: Duration::from_micros(1),
        disorder: Duration::ZERO,
        seed: 0x5EED_0010,
        ..Default::default()
    }
}

/// Slot `i` gets its own window extent and aggregate, like the
/// serve-equivalence suite, so concurrent plans do distinct work.
fn query_for(slot: usize) -> OijQuery {
    const AGGS: [AggSpec; 5] = [
        AggSpec::Sum,
        AggSpec::Count,
        AggSpec::Avg,
        AggSpec::Min,
        AggSpec::Max,
    ];
    OijQuery::builder()
        .preceding(Duration::from_micros(2000 + 500 * slot as i64))
        .lateness(Duration::ZERO)
        .agg(AGGS[slot % AGGS.len()])
        .emit(EmitMode::Eager)
        .build()
        .expect("static query")
}

fn register_all(rt: &mut ServeRuntime, queries: usize, capacity: Option<usize>) -> Vec<QueryId> {
    (0..queries)
        .map(|slot| {
            let mut cfg = EngineConfig::new(query_for(slot), 1)
                .expect("valid config")
                .with_instrument(Instrumentation::latency());
            if let Some(cap) = capacity {
                cfg.channel_capacity = cap;
            }
            rt.register(cfg, Sink::null(), None).expect("admission")
        })
        .collect()
}

/// Closed-loop leg: full-speed ingest, timed to drained completion.
fn calibrate(events: &[oij_common::Event], queries: usize) -> f64 {
    let mut rt = ServeRuntime::new(ServeConfig::new()).expect("runtime");
    let ids = register_all(&mut rt, queries, None);
    let start = Instant::now();
    for ev in events {
        rt.push(ev.clone()).expect("push");
    }
    for id in ids {
        rt.cancel(id).expect("clean shutdown");
    }
    events.len() as f64 / start.elapsed().as_secs_f64()
}

/// One open-loop overload leg's results.
struct Overload {
    offered_rate: f64,
    shed: u64,
    served_rows: u64,
    p99_ms: f64,
    p999_ms: f64,
}

/// Open-loop leg at `rate` tuples/s with shedding on: never skips or
/// delays a due event for the system's sake; pushes late with the
/// scheduled instant when behind.
fn overload(base: &SyntheticConfig, queries: usize, rate: f64) -> Overload {
    let plan = OpenLoopConfig::steady(base.clone(), rate).plan();
    let mut rt = ServeRuntime::new(ServeConfig::new().with_shedding()).expect("runtime");
    let ids = register_all(&mut rt, queries, Some(OVERLOAD_CAPACITY));
    let start = Instant::now();
    for (offset, ev) in plan.iter() {
        let due = start + offset;
        // Sleep down to ~200µs before the due instant, then spin.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let ahead = due - now;
            if ahead > StdDuration::from_micros(200) {
                std::thread::sleep(ahead - StdDuration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
        rt.push_at(ev.clone(), due).expect("push");
    }
    let mut out = Overload {
        offered_rate: rate,
        shed: 0,
        served_rows: 0,
        p99_ms: 0.0,
        p999_ms: 0.0,
    };
    for id in ids {
        let stats = rt.cancel(id).expect("clean shutdown");
        out.shed += stats.shed_events;
        out.served_rows += stats.results;
        if let Some(lat) = &stats.latency {
            out.p99_ms = out.p99_ms.max(lat.quantile_ns(0.99) as f64 / 1e6);
            out.p999_ms = out.p999_ms.max(lat.quantile_ns(0.999) as f64 / 1e6);
        }
    }
    out
}

/// One query-count row of the committed baseline.
#[derive(Debug, Clone, Serialize)]
struct Measurement {
    /// Concurrently registered plans.
    queries: usize,
    /// Median closed-loop sustainable throughput, tuples/s (gated).
    sustainable: f64,
    /// Every calibration trial, for eyeballing variance.
    trials: Vec<f64>,
    /// Offered rate of the overload leg (2× sustainable), tuples/s.
    offered_rate: f64,
    /// Base messages shed across all plans under overload.
    shed: u64,
    /// Feature rows actually served under overload.
    served_rows: u64,
    /// Worst per-plan p99 latency under overload, ms (from scheduled
    /// arrivals — coordinated-omission-safe; not gated).
    p99_ms: f64,
    /// Worst per-plan p99.9 latency under overload, ms.
    p999_ms: f64,
}

/// The committed baseline file format.
#[derive(Debug, Clone, Serialize)]
struct Report {
    /// Workload identity, so a baseline is never compared across shapes.
    workload: String,
    /// Events per leg.
    tuples: usize,
    /// Calibration trials per query count.
    trials: usize,
    /// All measurements.
    measurements: Vec<Measurement>,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN throughput"));
    xs[xs.len() / 2]
}

fn measure(tuples: usize, trials: usize) -> Report {
    let base = workload(tuples);
    let events = base.generate();
    let mut measurements = Vec::new();
    for queries in QUERY_COUNTS {
        let mut tput: Vec<f64> = (0..trials).map(|_| calibrate(&events, queries)).collect();
        let sustainable = median(&mut tput);
        let over = overload(&base, queries, sustainable * OVERLOAD_FACTOR);
        println!(
            "queries={queries:<3} sustainable {sustainable:>10.0} tuples/s   \
             overload @{:.0}: shed {} served {}  p99 {:.3} ms  p999 {:.3} ms",
            over.offered_rate, over.shed, over.served_rows, over.p99_ms, over.p999_ms
        );
        measurements.push(Measurement {
            queries,
            sustainable,
            trials: tput,
            offered_rate: over.offered_rate,
            shed: over.shed,
            served_rows: over.served_rows,
            p99_ms: over.p99_ms,
            p999_ms: over.p999_ms,
        });
    }
    Report {
        workload: "uniform-16keys-0.5probe-2ms-windows-serve".into(),
        tuples,
        trials,
        measurements,
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
    let tuples = env_usize("OIJ_BENCH_TUPLES", 60_000);
    let trials = env_usize("OIJ_BENCH_TRIALS", 3).max(1);

    let out = args
        .first()
        .map(String::as_str)
        .unwrap_or("target/bench_serve.json");
    let report = measure(tuples, trials);
    for m in report.measurements.iter().filter(|m| m.shed == 0) {
        eprintln!(
            "WARNING: {} queries shed nothing under {OVERLOAD_FACTOR}x overload \
             (run too short to backlog?)",
            m.queries
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("serialisable report");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("error: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("[saved {out}]");
    ExitCode::SUCCESS
}
