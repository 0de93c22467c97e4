//! The five workloads. Every size below was measured on the 2-core
//! reference host so that one closed-loop repeat lasts at least 1.5 s;
//! `BENCHMARK.json` and `README.md` carry the same one-line reasons.

use oij_common::{AggSpec, Duration, Event, OijQuery, Result};
use oij_core::EngineKind;
use oij_workload::{KeyDist, SyntheticConfig};

/// Joiners per engine: the lowest count at which routing, virtual teams
/// and unbalancedness (Eq. 2) exist, and the reference host's core count.
pub const JOINERS: usize = 2;

/// Routing batch size of the solo engines; everything else is
/// `EngineConfig::new`'s default. `send_timeout` and `channel_capacity`
/// in particular stay put: a stalled worker must surface as a counted
/// failure, not be tuned away. At batch 1 repeats drifted 1.24 M → 0.86 M
/// tuples/s inside one process; at 64 they held within ±7 %.
pub const BATCH: usize = 64;

/// Plans registered by the serving workload.
pub const SERVE_PLANS: usize = 16;

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One Scale-OIJ engine, optionally write-ahead-logged.
    Solo { durable: bool },
    /// Key-OIJ, SplitJoin and the OpenMLDB baseline in turn.
    Baselines,
    /// One lossless `ServeRuntime` with [`SERVE_PLANS`] one-joiner plans.
    Serve,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    /// Feed length.
    pub tuples: usize,
    /// Prefix of the feed one closed-loop repeat pushes (per engine):
    /// about 1.6 s of work at the seed's rate, so that five repeats fit.
    pub closed_tuples: usize,
    pub unique_keys: u64,
    pub key_dist: KeyDist,
    pub probe_fraction: f64,
    pub disorder: Duration,
    pub preceding: Duration,
    pub lateness: Duration,
    /// Offered rate of the paced (open-loop) leg, tuples/s.
    pub paced_rate: f64,
    /// Prefix of the feed the per-layer extra passes use (`--trace 1`).
    pub layer_tuples: usize,
}

pub const BASELINE_ENGINES: [EngineKind; 3] = [
    EngineKind::KeyOij,
    EngineKind::SplitJoin,
    EngineKind::OpenMldb,
];

pub fn all() -> Vec<Workload> {
    let narrow = Workload {
        name: "ingest.narrow",
        why: "64 uniform keys, ~1 match per window: stamp, batcher, channel and index insert do \
              the work and joiners idle; bypasses scan, scheduler and WAL",
        kind: Kind::Solo { durable: false },
        tuples: 4_000_000,
        closed_tuples: 4_000_000,
        unique_keys: 64,
        key_dist: KeyDist::Uniform,
        probe_fraction: 0.8,
        disorder: Duration::ZERO,
        preceding: Duration::from_micros(100),
        lateness: Duration::ZERO,
        paced_rate: 500_000.0,
        layer_tuples: 1_000_000,
    };
    vec![
        narrow.clone(),
        Workload {
            name: "skew.late",
            why: "8 Zipf(1.2) keys, 2 ms disorder, 5 ms window: the paper's headline case; scans, \
                  aggregation and Algorithm 3 scheduling bound the joiners, index insert barely \
                  shows",
            kind: Kind::Solo { durable: false },
            tuples: 1_500_000,
            closed_tuples: 1_100_000,
            unique_keys: 8,
            key_dist: KeyDist::Zipf { exponent: 1.2 },
            probe_fraction: 0.5,
            disorder: Duration::from_millis(2),
            preceding: Duration::from_millis(5),
            lateness: Duration::from_millis(5),
            paced_rate: 250_000.0,
            layer_tuples: 400_000,
        },
        Workload {
            name: "serve.16plans",
            why: "16 plans re-scan one shared index per base tuple: the only workload where \
                  shared-scan or serve-tier changes can show; the solo workloads bypass it",
            kind: Kind::Serve,
            tuples: 100_000,
            closed_tuples: 70_000,
            unique_keys: 16,
            key_dist: KeyDist::Uniform,
            probe_fraction: 0.5,
            disorder: Duration::ZERO,
            preceding: Duration::from_micros(2_000),
            lateness: Duration::ZERO,
            paced_rate: 15_000.0,
            layer_tuples: 100_000,
        },
        Workload {
            name: "durable.ingest",
            why: "ingest.narrow's feed with WAL append, checkpoints and the exactly-once sink \
                  gate: a driver change that taxes logging shows here and nowhere else",
            kind: Kind::Solo { durable: true },
            tuples: 800_000,
            closed_tuples: 520_000,
            paced_rate: 100_000.0,
            layer_tuples: 400_000,
            ..narrow.clone()
        },
        Workload {
            name: "baselines.narrow",
            why: "Key-OIJ, SplitJoin and OpenMLDB in turn over ingest.narrow's feed: the shell \
                  all four engines share is about to be rewritten, a regression in three of them \
                  must show",
            kind: Kind::Baselines,
            tuples: 1_000_000,
            closed_tuples: 1_000_000,
            paced_rate: 200_000.0,
            layer_tuples: 400_000,
            ..narrow
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The seeded feed: 1 µs spacing, no payload.
    pub fn generate(&self, seed: u64) -> Vec<Event> {
        SyntheticConfig {
            tuples: self.tuples,
            unique_keys: self.unique_keys,
            key_dist: self.key_dist.clone(),
            probe_fraction: self.probe_fraction,
            spacing: Duration::from_micros(1),
            disorder: self.disorder,
            payload_bytes: 0,
            seed,
        }
        .generate()
    }

    /// The workload's statements as OpenMLDB SQL, parsed during set-up:
    /// one for the solo engines, [`SERVE_PLANS`] for the serving tier
    /// (window 2 000 + 500·slot µs, Sum/Count/Avg/Min/Max in rotation, as
    /// `bench_serve::query_for`).
    pub fn sql(&self) -> Vec<String> {
        const AGGS: [AggSpec; 5] = [
            AggSpec::Sum,
            AggSpec::Count,
            AggSpec::Avg,
            AggSpec::Min,
            AggSpec::Max,
        ];
        let statement = |agg: AggSpec, preceding: Duration| {
            format!(
                "SELECT {}(value) OVER w FROM S WINDOW w AS (UNION R PARTITION BY key \
                 ORDER BY ts ROWS_RANGE BETWEEN {}us PRECEDING AND CURRENT ROW LATENESS {}us)",
                agg.sql_name(),
                preceding.as_micros(),
                self.lateness.as_micros(),
            )
        };
        match self.kind {
            Kind::Serve => (0..SERVE_PLANS)
                .map(|slot| {
                    statement(
                        AGGS[slot % AGGS.len()],
                        Duration::from_micros(self.preceding.as_micros() + 500 * slot as i64),
                    )
                })
                .collect(),
            _ => vec![statement(AggSpec::Sum, self.preceding)],
        }
    }

    /// Parses [`sql`](Self::sql) into engine-ready queries.
    pub fn parse_queries(&self) -> Result<Vec<OijQuery>> {
        self.sql()
            .iter()
            .map(|s| oij_sql::parse(s)?.to_oij_query())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::feed_hash;

    #[test]
    fn the_seed_alone_determines_the_feed() {
        for w in all() {
            let small = Workload {
                tuples: 20_000,
                ..w
            };
            let a = feed_hash(&small.generate(7));
            let b = feed_hash(&small.generate(7));
            let c = feed_hash(&small.generate(8));
            assert_eq!(a, b, "{}: same seed, same feed", small.name);
            assert_ne!(a, c, "{}: another seed, another feed", small.name);
        }
    }

    #[test]
    fn every_statement_parses_and_lowers() {
        for w in all() {
            let queries = w.parse_queries().expect("workload SQL parses");
            let want = if w.kind == Kind::Serve {
                SERVE_PLANS
            } else {
                1
            };
            assert_eq!(queries.len(), want, "{}", w.name);
            assert_eq!(queries[0].window.preceding, w.preceding);
            assert_eq!(queries[0].window.lateness, w.lateness);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all().iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().len());
    }
}
