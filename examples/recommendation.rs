//! Product-recommendation features — the paper's motivating scenario.
//!
//! "When a user is browsing or searching (recorded in the action table),
//! we recommend products based on pre-defined features, which may require
//! joining the tuples in the history orders within the last certain
//! period." Here the *action* stream is the base side and the *order*
//! stream is the probe side; the feature is the sum of order amounts in
//! the last hour per user.
//!
//! Run with: `cargo run --release --example recommendation`

use oij::prelude::*;

const USERS: u64 = 500;

fn main() -> oij::Result<()> {
    // Feature: sum(order.amount) over the last hour of each user action.
    // Event time is scaled 3600:1 (1 "hour" = 1 s of event time) so the
    // example finishes instantly; the join logic is unit-agnostic.
    let query = OijQuery::builder()
        .preceding(Duration::from_secs(1))
        .lateness(Duration::from_millis(20))
        .agg(AggSpec::Sum)
        .build()?;

    // A synthetic day of shopping traffic: orders (probe) outnumbered by
    // browsing actions (base) 1:4, Zipf-skewed users, mild disorder.
    let events = SyntheticConfig {
        tuples: 300_000,
        unique_keys: USERS,
        key_dist: KeyDist::Zipf { exponent: 0.8 },
        probe_fraction: 0.2,
        spacing: Duration::from_micros(2),
        disorder: Duration::from_millis(20),
        seed: 2024,
        ..Default::default()
    }
    .generate();

    let (sink, rows) = Sink::collect();
    let cfg = EngineConfig::new(query, 4)?.with_instrument(Instrumentation::latency());
    let mut engine = ScaleOij::spawn(cfg, sink)?;
    for e in &events {
        engine.push(e.clone())?;
    }
    let stats = engine.finish()?;

    println!("== recommendation feature pipeline ==");
    println!("input tuples     : {}", stats.input_tuples);
    println!("feature rows     : {}", stats.results);
    println!("throughput       : {:.0} tuples/s", stats.throughput);
    if let Some(lat) = &stats.latency {
        println!(
            "latency p50/p99  : {:.2} ms / {:.2} ms",
            lat.quantile_ns(0.5) as f64 / 1e6,
            lat.quantile_ns(0.99) as f64 / 1e6
        );
    }
    println!("schedule changes : {}", stats.schedule_changes);

    // Show the hottest user's latest features, as a recommender would read
    // them.
    let rows = rows.lock();
    let mut hot: Vec<&FeatureRow> = rows.iter().filter(|r| r.key == 0).collect();
    hot.sort_by_key(|r| r.seq);
    println!("\nlatest features for the hottest user (key 0):");
    for row in hot.iter().rev().take(5) {
        println!(
            "  action@{:>9}us  spend_last_hour={:>10.2}  orders={}",
            row.ts.as_micros(),
            row.agg.unwrap_or(0.0),
            row.matched
        );
    }
    Ok(())
}
