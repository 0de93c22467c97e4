//! Anti-fraud features with exact results under heavy disorder.
//!
//! Banks are the paper's most demanding OpenMLDB users ("a 20 ms latency
//! is strictly required by an online banking service"), and fraud features
//! must be *exactly* accurate. This example scores card swipes (base
//! stream) against the count of that card's transactions in the preceding
//! interval (probe stream), with heavily disordered arrivals, using
//! watermark emission for exactness — and verifies every feature against
//! the brute-force oracle.
//!
//! Run with: `cargo run --release --example anti_fraud`

use oij::engine::Oracle;
use oij::prelude::*;

fn main() -> oij::Result<()> {
    // Feature: number of transactions on the same card in the last 500 ms
    // (event time), tolerating up to 200 ms of disorder, exact.
    let query = OijQuery::builder()
        .preceding(Duration::from_millis(500))
        .lateness(Duration::from_millis(200))
        .agg(AggSpec::Count)
        .emit(EmitMode::Watermark)
        .build()?;

    let events = SyntheticConfig {
        tuples: 100_000,
        unique_keys: 200, // cards
        key_dist: KeyDist::Uniform,
        probe_fraction: 0.7,
        spacing: Duration::from_micros(10),
        disorder: Duration::from_millis(200),
        seed: 777,
        ..Default::default()
    }
    .generate();

    let (sink, rows) = Sink::collect();
    let mut engine = ScaleOij::spawn(EngineConfig::new(query.clone(), 4)?, sink)?;
    for e in &events {
        engine.push(e.clone())?;
    }
    let stats = engine.finish()?;

    // Ground truth from the single-threaded oracle.
    let oracle = Oracle::new(query).run(&events);
    let mut got = rows.lock().clone();
    got.sort_by_key(|r| r.seq);
    assert_eq!(got.len(), oracle.len(), "row cardinality");
    let mut mismatches = 0;
    for (g, o) in got.iter().zip(&oracle) {
        if !g.agg_approx_eq(o, 1e-9) {
            mismatches += 1;
        }
    }

    println!("== anti-fraud feature pipeline (exact mode) ==");
    println!("input tuples      : {}", stats.input_tuples);
    println!("swipes scored     : {}", stats.results);
    println!("lateness violations: {}", stats.late_violations);
    println!("oracle mismatches : {mismatches} (must be 0)");
    assert_eq!(mismatches, 0, "watermark mode must be exact");

    // A trivial velocity rule on top of the feature.
    let flagged = got.iter().filter(|r| r.agg.unwrap_or(0.0) >= 30.0).count();
    println!(
        "cards flagged (≥30 txns / 500ms window): {flagged} of {} swipes",
        got.len()
    );
    println!("\nexact under 200ms disorder. ✔");
    Ok(())
}
