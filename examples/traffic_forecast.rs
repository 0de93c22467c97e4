//! Network-traffic forecast features under rotating hot spots.
//!
//! One of OpenMLDB's production scenarios is network traffic forecasting.
//! Traffic is bursty: a changing subset of cells is hot at any moment —
//! exactly the situation the paper's Figure 14 stresses. This example
//! computes per-cell byte-rate features (avg bytes over the preceding
//! interval) with a rotating hot set, and contrasts Key-OIJ's static
//! partitioning with Scale-OIJ's dynamic schedule.
//!
//! Run with: `cargo run --release --example traffic_forecast`

use oij::prelude::*;

fn run<E: OijEngine>(mut engine: E, events: &[Event]) -> oij::Result<RunStats> {
    for e in events {
        engine.push(e.clone())?;
    }
    engine.finish()
}

fn main() -> oij::Result<()> {
    let query = OijQuery::builder()
        .preceding(Duration::from_millis(5))
        .lateness(Duration::from_micros(500))
        .agg(AggSpec::Avg)
        .build()?;

    // 10k cells, but 20 hot ones carry 90% of the packets; the hot set
    // rotates every 50ms of event time.
    let events = SyntheticConfig {
        tuples: 400_000,
        unique_keys: 10_000,
        key_dist: KeyDist::RotatingHot {
            hot_keys: 20,
            hot_fraction: 0.9,
            period: Duration::from_millis(50),
        },
        probe_fraction: 0.5,
        spacing: Duration::from_micros(1),
        disorder: Duration::from_micros(500),
        seed: 99,
        ..Default::default()
    }
    .generate();

    let joiners = 4;
    println!("== traffic forecast: rotating hot cells, {joiners} joiners ==\n");

    let cfg = EngineConfig::new(query.clone(), joiners)?;
    let scale = run(ScaleOij::spawn(cfg, Sink::null())?, &events)?;
    let key = run(
        KeyOij::spawn(EngineConfig::new(query, joiners)?, Sink::null())?,
        &events,
    )?;

    let report = |name: &str, s: &RunStats| {
        println!(
            "{name:<22} throughput {:>10.0} t/s   unbalancedness {:.3}   loads {:?}",
            s.throughput, s.unbalancedness, s.joiner_loads
        );
    };
    report(EngineKind::ScaleOij.label(), &scale);
    report(EngineKind::KeyOij.label(), &key);
    println!(
        "\nScale-OIJ republished its schedule {} times to track the hot set.",
        scale.schedule_changes
    );
    Ok(())
}
