//! Ablation (beyond the paper's figures): how much of Scale-OIJ's win
//! comes from the dynamic schedule alone?
//!
//! Runs Scale-OIJ with the dynamic schedule enabled vs disabled (static
//! partition→joiner binding, everything else identical) across key counts,
//! isolating Algorithm 3 from the time-travel index and incremental
//! aggregation. Complements Figure 13: there Scale-OIJ is compared against
//! Key-OIJ, which differs in *all three* techniques at once.

use oij_core::config::Instrumentation;
use oij_core::engine::EngineKind;
use oij_workload::NamedWorkload;

use crate::{run_engine, run_engine_cfg, BenchCtx, Figure};
use oij_core::config::EngineConfig;

/// Runs the ablation.
pub fn run(ctx: &BenchCtx) {
    let joiners = *ctx.threads.last().expect("threads non-empty");
    let base = NamedWorkload::table_iv();
    let mut tp_fig = Figure::new(
        "abl_schedule_throughput",
        "Ablation: dynamic schedule on/off (Scale-OIJ)",
        "unique keys",
        "throughput [tuples/s]",
    );
    let mut unb_fig = Figure::new(
        "abl_schedule_unbalancedness",
        "Ablation: dynamic schedule on/off — unbalancedness",
        "unique keys",
        "unbalancedness",
    );

    for dynamic in [true, false] {
        let label = if dynamic {
            "dynamic schedule"
        } else {
            "static partitions"
        };
        let mut tp = Vec::new();
        let mut unb = Vec::new();
        for u in [2u64, 5, 20, 100, 1000] {
            let mut config = base.config(ctx.tuples, 1.0);
            config.unique_keys = u;
            let events = config.generate();
            let stats = if dynamic {
                run_engine(
                    EngineKind::ScaleOij,
                    base.query(1.0),
                    joiners,
                    Instrumentation::none(),
                    &events,
                )
            } else {
                let cfg = EngineConfig::new(base.query(1.0), joiners)
                    .expect("valid config")
                    .without_dynamic_schedule();
                run_engine_cfg(EngineKind::ScaleOij, cfg, &events)
            }
            .expect("engine run");
            println!(
                "  u={u:>5} {label:<18}: {:>12.0} tuples/s, unb {:.3}",
                stats.throughput, stats.unbalancedness
            );
            tp.push((u as f64, stats.throughput));
            unb.push((u as f64, stats.unbalancedness));
        }
        tp_fig.push_series(label, tp);
        unb_fig.push_series(label, unb);
    }
    tp_fig.finish(ctx);
    unb_fig.finish(ctx);
}
