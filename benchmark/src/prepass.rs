//! Correctness pre-pass, run before any timing and fatal on mismatch:
//! the head of the workload's feed through the workload's own engine
//! configuration, compared row by row with the brute-force oracle.

use oij_common::{EmitMode, Event, FeatureRow, OijQuery};
use oij_core::{EngineKind, Instrumentation, Oracle};

use crate::legs::{closed_loop, spawn, Driven, SpawnOpts};
use crate::workloads::Workload;

/// Events checked against the oracle.
pub const PREPASS_EVENTS: usize = 50_000;

/// How rows must agree with the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agreement {
    /// Same `matched`, aggregates within 1e-9 (parallel accumulation
    /// order differs), as `tests/end_to_end.rs` compares.
    Approx,
    /// Bit-identical rows (in-order eager serving).
    Exact,
}

fn compare(
    label: &str,
    mut got: Vec<FeatureRow>,
    mut want: Vec<FeatureRow>,
    how: Agreement,
) -> Result<(), String> {
    got.sort_by_key(|r| r.seq);
    want.sort_by_key(|r| r.seq);
    if got.len() != want.len() {
        return Err(format!(
            "{label}: {} rows, the oracle has {}",
            got.len(),
            want.len()
        ));
    }
    for (g, o) in got.iter().zip(&want) {
        let same = match how {
            Agreement::Exact => g == o,
            Agreement::Approx => {
                g.seq == o.seq && g.matched == o.matched && g.agg_approx_eq(o, 1e-9)
            }
        };
        if !same {
            return Err(format!(
                "{label}: seq {} is {g:?}, the oracle has {o:?}",
                o.seq
            ));
        }
    }
    Ok(())
}

/// Checks one engine (or the serving runtime) of the workload; returns
/// the rows compared.
fn check(
    w: &Workload,
    driven: Driven,
    queries: &[OijQuery],
    events: &[Event],
) -> Result<u64, String> {
    let mut opts = SpawnOpts::new(Instrumentation::none());
    opts.collect = true;
    // Watermark emission is exact under disorder ≤ lateness. The served
    // plans and OpenMLDB only emit eagerly, which is deterministic on an
    // in-order feed; OpenMLDB's shared store races between workers, so
    // it is checked with one joiner.
    let (emit, how) = match driven {
        Driven::Serve => (EmitMode::Eager, Agreement::Exact),
        Driven::Engine(EngineKind::OpenMldb) => {
            opts.joiners = 1;
            (EmitMode::Eager, Agreement::Approx)
        }
        Driven::Engine(_) => (EmitMode::Watermark, Agreement::Approx),
    };
    if emit == EmitMode::Eager && w.disorder.as_micros() > 0 {
        return Err(format!(
            "{}: eager emission cannot be checked on a disordered feed",
            driven.label()
        ));
    }
    opts.emit = Some(emit);
    let mut spawned =
        spawn(driven, queries, &opts).map_err(|e| format!("{}: spawn: {e}", driven.label()))?;
    let leg = closed_loop(driven, &mut spawned.target, events, None);
    if leg.push_failed + leg.finish_failed > 0 {
        return Err(format!("{}: the run failed", driven.label()));
    }
    let mut compared = 0;
    for (plan, (query, store)) in queries.iter().zip(&spawned.rows).enumerate() {
        let mut query = query.clone();
        query.emit = emit;
        let want = Oracle::new(query).run(events);
        // LOCK: sink_collect
        let got = store.lock().clone();
        compared += want.len() as u64;
        compare(&format!("{} plan {plan}", driven.label()), got, want, how)?;
    }
    Ok(compared)
}

/// Runs the pre-pass for every engine of the workload.
pub fn run(w: &Workload, queries: &[OijQuery], feed: &[Event]) -> Result<u64, String> {
    let events = &feed[..feed.len().min(PREPASS_EVENTS)];
    let mut compared = 0;
    for driven in crate::legs::driven_by(w) {
        compared += check(w, driven, queries, events)?;
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oij_common::Timestamp;

    fn row(seq: u64, agg: f64, matched: u64) -> FeatureRow {
        FeatureRow::new(
            Timestamp::from_micros(seq as i64),
            1,
            seq,
            Some(agg),
            matched,
        )
    }

    #[test]
    fn compare_accepts_reordered_rows_and_rejects_the_rest() {
        let want = vec![row(0, 1.0, 1), row(1, 2.0, 2)];
        let got = vec![row(1, 2.0, 2), row(0, 1.0, 1)];
        assert!(compare("t", got, want.clone(), Agreement::Exact).is_ok());
        let close = vec![row(0, 1.0 + 1e-12, 1), row(1, 2.0, 2)];
        assert!(compare("t", close.clone(), want.clone(), Agreement::Approx).is_ok());
        assert!(compare("t", close, want.clone(), Agreement::Exact).is_err());
        assert!(compare("t", vec![row(0, 1.0, 1)], want.clone(), Agreement::Approx).is_err());
        let wrong = vec![row(0, 1.0, 1), row(1, 2.0, 3)];
        assert!(compare("t", wrong, want, Agreement::Approx).is_err());
    }
}
