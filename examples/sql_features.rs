//! From SQL to features: the OpenMLDB window-union dialect end to end.
//!
//! Parses the exact SQL from Section II-A of the paper, lowers it to an
//! OIJ plan, and executes it with Scale-OIJ over generated streams.
//!
//! Run with: `cargo run --release --example sql_features`

use oij::prelude::*;

const FEATURE_SQL: &str = "\
SELECT sum(col2) OVER w1 FROM S
WINDOW w1 AS (
    UNION R
    PARTITION BY key
    ORDER BY timestamp
    ROWS_RANGE
    BETWEEN 1s PRECEDING AND CURRENT ROW
    LATENESS 50ms);";

fn main() -> oij::Result<()> {
    println!("feature definition:\n{FEATURE_SQL}\n");

    let plan = parse_sql(FEATURE_SQL)?;
    println!(
        "parsed: {}({}) over base '{}' ∪ probe '{}', key '{}', order '{}'",
        plan.agg.sql_name(),
        plan.agg_column,
        plan.base_table,
        plan.union_table,
        plan.partition_key,
        plan.order_column
    );
    println!(
        "window: [ts - {}, ts + {}], lateness {}\n",
        plan.preceding, plan.following, plan.lateness
    );

    let query = plan.to_oij_query()?;
    let events = SyntheticConfig {
        tuples: 200_000,
        unique_keys: 64,
        key_dist: KeyDist::Uniform,
        probe_fraction: 0.5,
        spacing: Duration::from_micros(20),
        disorder: Duration::from_millis(50),
        seed: 31415,
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

    println!("executed on Scale-OIJ with 4 joiners:");
    println!("  feature rows : {}", stats.results);
    println!("  throughput   : {:.0} tuples/s", stats.throughput);
    if let Some(lat) = &stats.latency {
        println!(
            "  p99 latency  : {:.2} ms (bank SLA: 20 ms)",
            lat.quantile_ns(0.99) as f64 / 1e6
        );
    }

    let rows = rows.lock();
    println!("\nfirst feature rows:");
    for row in rows.iter().take(5) {
        println!(
            "  key={:<3} ts={:>9}us  {}(col2)={:.2}",
            row.key,
            row.ts.as_micros(),
            plan.agg.sql_name(),
            row.agg.unwrap_or(0.0)
        );
    }
    Ok(())
}
