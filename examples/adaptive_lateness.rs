//! Learning the lateness bound online — no prior knowledge required.
//!
//! The paper lists "tunable accuracy without prior knowledge (i.e.,
//! lateness)" as future work. This example shows the workflow with
//! `DisorderEstimator`: sample the live stream, read off the lateness for
//! a target coverage, then run the join with the learned bound and verify
//! the violation rate matches the chosen coverage.
//!
//! Run with: `cargo run --release --example adaptive_lateness`

use oij::metrics::DisorderEstimator;
use oij::prelude::*;

fn main() -> oij::Result<()> {
    // A stream whose disorder we pretend not to know: bulk of tuples within
    // ~2 ms, occasional stragglers much later.
    let events = SyntheticConfig {
        tuples: 300_000,
        unique_keys: 50,
        key_dist: KeyDist::Uniform,
        probe_fraction: 0.5,
        spacing: Duration::from_micros(1),
        disorder: Duration::from_millis(2),
        seed: 0x5EED,
        ..Default::default()
    }
    .generate();

    // Phase 1: observe a prefix of the stream.
    let mut est = DisorderEstimator::new();
    for e in events.iter().take(50_000) {
        if let Some((_, tuple)) = e.as_data() {
            est.observe(tuple.ts);
        }
    }
    println!("== learned disorder profile (50k-tuple sample) ==");
    println!("late fraction   : {:.1}%", est.late_fraction() * 100.0);
    println!("max disorder    : {}", est.max_disorder());
    for coverage in [0.9, 0.99, 0.999, 1.0] {
        println!(
            "lateness for {:>6.1}% coverage: {}",
            coverage * 100.0,
            est.recommended_lateness(coverage)
        );
    }

    // Phase 2: run the join with the learned bound plus a 10% safety
    // margin — a finite sample cannot bound the unseen tail exactly. (The
    // sub-1.0 coverages above trade bounded violation rates for memory,
    // quantised by the histogram's ~6% bucket resolution.)
    let learned =
        Duration::from_micros((est.recommended_lateness(1.0).as_micros() as f64 * 1.1) as i64);
    let query = OijQuery::builder()
        .preceding(Duration::from_millis(5))
        .lateness(learned)
        .agg(AggSpec::Count)
        .build()?;
    let (sink, _) = Sink::collect();
    let mut engine = ScaleOij::spawn(EngineConfig::new(query, 2)?, sink)?;
    for e in &events {
        engine.push(e.clone())?;
    }
    let stats = engine.finish()?;

    let violation_rate = stats.late_violations as f64 / stats.input_tuples as f64;
    println!("\n== join with learned lateness {learned} ==");
    println!("throughput          : {:.0} tuples/s", stats.throughput);
    println!(
        "lateness violations : {} / {} ({:.3}%)",
        stats.late_violations,
        stats.input_tuples,
        violation_rate * 100.0
    );
    // The margined bound covers the generator's true disorder, so the
    // remainder of the stream is violation-free.
    assert_eq!(
        stats.late_violations, 0,
        "margined full-coverage bound must eliminate violations"
    );
    println!("\nno violations under the learned bound. ✔");
    Ok(())
}
