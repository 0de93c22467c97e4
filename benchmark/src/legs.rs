//! The timed legs. A single generator thread — the caller of `push` —
//! drives an engine or the serving runtime through its public API only:
//! a closed loop at saturation for throughput, and an open loop at a
//! fixed offered rate for latency.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use oij_common::lockdep::Mutex;
use oij_common::{EmitMode, Event, FeatureRow, OijQuery, Result, Side};
use oij_core::{spawn_engine, DurabilityConfig, EngineKind, Instrumentation, OijEngine, RunStats};
use oij_core::{EngineConfig, Sink};
use oij_metrics::LatencyHistogram;
use oij_serve::{QueryId, ServeConfig, ServeRuntime};

use crate::spans::Recorder;
use crate::stats::Tally;
use crate::workloads::{Kind, Workload, BASELINE_ENGINES, JOINERS};

/// One `push` in this many is timed in a traced run.
pub const PUSH_SAMPLE_EVERY: usize = 64;

/// A sampled `push` slower than this waited (on a full channel, a
/// checkpoint, a wake-up).
pub const PUSH_BLOCKED: StdDuration = StdDuration::from_micros(10);

/// A paced-leg row slower than this counts as failed. Five times the
/// worst host stall seen on the reference host (49 ms), and far below
/// the seconds a growing backlog produces: it catches collapse, not
/// hiccups — those move `latency_p99_ms`.
pub const LATENCY_LIMIT: StdDuration = StdDuration::from_millis(250);

/// A paced window whose `finish` drains longer than this had a growing
/// backlog and fails whole.
pub const MAX_DRAIN: StdDuration = StdDuration::from_secs(1);

/// A paced leg whose generator ran later than this (p99 over all its
/// windows) did not offer the stated rate and fails whole. A generator
/// that cannot keep up falls behind by seconds; `durable.ingest` sits at
/// ~5 ms because `push` itself waits out every checkpoint.
pub const MAX_GEN_LAG: StdDuration = StdDuration::from_millis(50);

pub type Rows = Arc<Mutex<Vec<FeatureRow>>>;

/// What a leg drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driven {
    Engine(EngineKind),
    Serve,
}

impl Driven {
    pub fn label(self) -> &'static str {
        match self {
            Driven::Engine(kind) => kind.label(),
            Driven::Serve => "ServeRuntime",
        }
    }
}

/// The engines a workload drives, in order.
pub fn driven_by(w: &Workload) -> Vec<Driven> {
    match w.kind {
        Kind::Solo { .. } => vec![Driven::Engine(EngineKind::ScaleOij)],
        Kind::Baselines => BASELINE_ENGINES
            .iter()
            .copied()
            .map(Driven::Engine)
            .collect(),
        Kind::Serve => vec![Driven::Serve],
    }
}

/// How to spawn one target; everything else is the workload's config.
#[derive(Debug, Clone)]
pub struct SpawnOpts {
    pub instrument: Instrumentation,
    /// Collect rows (validated legs) instead of discarding them.
    pub collect: bool,
    /// Joiners of a solo engine (served plans always get one).
    pub joiners: usize,
    /// Routing batch size of a solo engine (served plans keep the
    /// default of 1, as `bench_serve` registers them).
    pub batch: usize,
    /// Overrides every query's emission mode (the correctness pre-pass).
    pub emit: Option<EmitMode>,
    /// Fresh directory for the write-ahead log of a durable run.
    pub durable_dir: Option<PathBuf>,
}

impl SpawnOpts {
    pub fn new(instrument: Instrumentation) -> Self {
        SpawnOpts {
            instrument,
            collect: false,
            joiners: JOINERS,
            batch: crate::workloads::BATCH,
            emit: None,
            durable_dir: None,
        }
    }
}

/// A spawned engine or serving runtime, ready for `push`.
pub enum Target {
    Engine(Box<dyn OijEngine>),
    Serve {
        rt: Box<ServeRuntime>,
        ids: Vec<QueryId>,
    },
}

pub struct Spawned {
    pub target: Target,
    /// One collected-row store per plan when `SpawnOpts::collect`.
    pub rows: Vec<Rows>,
}

fn sink_for(opts: &SpawnOpts, rows: &mut Vec<Rows>) -> Sink {
    if opts.collect {
        let (sink, store) = Sink::collect();
        rows.push(store);
        sink
    } else {
        Sink::null()
    }
}

pub fn config_for(driven: Driven, mut query: OijQuery, opts: &SpawnOpts) -> Result<EngineConfig> {
    if let Some(emit) = opts.emit {
        query.emit = emit;
    }
    if driven == Driven::Engine(EngineKind::OpenMldb) {
        query.emit = EmitMode::Eager; // the baseline's only mode
    }
    let (joiners, batch) = match driven {
        Driven::Serve => (1, 1),
        Driven::Engine(_) => (opts.joiners, opts.batch),
    };
    let mut cfg = EngineConfig::new(query, joiners)?
        .with_batch_size(batch)
        .with_instrument(opts.instrument.clone());
    if let Some(dir) = &opts.durable_dir {
        cfg = cfg.with_durability(DurabilityConfig::new(dir));
    }
    Ok(cfg)
}

pub fn spawn(driven: Driven, queries: &[OijQuery], opts: &SpawnOpts) -> Result<Spawned> {
    let mut rows = Vec::new();
    let target = match driven {
        Driven::Engine(kind) => {
            let cfg = config_for(driven, queries[0].clone(), opts)?;
            Target::Engine(spawn_engine(kind, cfg, sink_for(opts, &mut rows))?)
        }
        Driven::Serve => {
            let mut rt = Box::new(ServeRuntime::new(ServeConfig::new())?);
            let mut ids = Vec::with_capacity(queries.len());
            for query in queries {
                let cfg = config_for(driven, query.clone(), opts)?;
                ids.push(rt.register(cfg, sink_for(opts, &mut rows), None)?);
            }
            Target::Serve { rt, ids }
        }
    };
    Ok(Spawned { target, rows })
}

impl Target {
    /// Plans each pushed tuple is fed to.
    pub fn fanout(&self) -> u64 {
        match self {
            Target::Engine(_) => 1,
            Target::Serve { ids, .. } => ids.len() as u64,
        }
    }

    #[inline]
    fn push(&mut self, event: Event) -> Result<()> {
        match self {
            Target::Engine(e) => e.push(event),
            Target::Serve { rt, .. } => rt.push(event),
        }
    }

    /// Ends the run: `finish()` on an engine, `cancel()` of every plan on
    /// the serving runtime. One result per engine or plan.
    fn finish(&mut self) -> Vec<Result<RunStats>> {
        match self {
            Target::Engine(e) => vec![e.finish()],
            Target::Serve { rt, ids } => ids.drain(..).map(|id| rt.cancel(id)).collect(),
        }
    }
}

/// What one leg did, before validation.
pub struct Leg {
    pub driven: Driven,
    /// Tuples handed to `push` (whether or not it succeeded).
    pub offered: u64,
    pub fanout: u64,
    /// Tuples whose `push` failed or was never made because the engine
    /// had already failed.
    pub push_failed: u64,
    /// First push → `finish()`/last `cancel()` returned.
    pub elapsed: StdDuration,
    /// `finish()`/`cancel()` alone.
    pub drain: StdDuration,
    pub stats: Vec<RunStats>,
    /// Engines or plans whose `finish`/`cancel` returned an error (a
    /// poisoned plan reports its failure there).
    pub finish_failed: u64,
    /// Sampled `push` durations, ns (traced closed loops only).
    pub push_samples: Vec<u64>,
    /// Due-versus-actual send instants (paced legs only).
    pub gen_lag: LatencyHistogram,
}

impl Leg {
    pub fn tps(&self) -> f64 {
        self.offered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// All plans' latency histograms merged.
    pub fn latency(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for h in self.stats.iter().filter_map(|s| s.latency.as_ref()) {
            all.merge(h);
        }
        all
    }
}

fn end_leg(mut leg: Leg, target: &mut Target, started: Instant) -> Leg {
    let drain_from = Instant::now();
    for result in target.finish() {
        match result {
            Ok(stats) => leg.stats.push(stats),
            Err(e) => {
                eprintln!("FAILED {}: finish: {e}", leg.driven.label());
                leg.finish_failed += 1;
            }
        }
    }
    let now = Instant::now();
    leg.drain = now - drain_from;
    leg.elapsed = now - started;
    leg
}

fn new_leg(driven: Driven, target: &Target, offered: usize) -> Leg {
    Leg {
        driven,
        offered: offered as u64,
        fanout: target.fanout(),
        push_failed: 0,
        elapsed: StdDuration::ZERO,
        drain: StdDuration::ZERO,
        stats: Vec::new(),
        finish_failed: 0,
        push_samples: Vec::new(),
        gen_lag: LatencyHistogram::new(),
    }
}

/// Closed loop: push the whole slice as fast as `push` returns, then
/// finish. With a recorder, one push in [`PUSH_SAMPLE_EVERY`] is timed
/// and kept as a `feed.push` span whose id is the event's `seq`.
pub fn closed_loop(
    driven: Driven,
    target: &mut Target,
    events: &[Event],
    mut trace: Option<&mut Recorder>,
) -> Leg {
    let mut leg = new_leg(driven, target, events.len());
    let feed_span = trace.as_deref_mut().map(|r| r.begin("feed"));
    let started = Instant::now();
    for (i, event) in events.iter().enumerate() {
        let sampled = trace.is_some() && i % PUSH_SAMPLE_EVERY == 0;
        let before = sampled.then(Instant::now);
        let pushed = target.push(event.clone());
        if let (Some(before), Some(rec)) = (before, trace.as_deref_mut()) {
            let after = Instant::now();
            leg.push_samples.push((after - before).as_nanos() as u64);
            rec.leaf("feed.push", before, after, event.seq);
        }
        if let Err(e) = pushed {
            eprintln!("FAILED {}: push seq {}: {e}", driven.label(), event.seq);
            leg.push_failed = (events.len() - i) as u64;
            break;
        }
    }
    if let (Some(span), Some(rec)) = (feed_span, trace.as_deref_mut()) {
        rec.end(span);
    }
    let drain_span = trace.as_deref_mut().map(|r| r.begin("finish.drain"));
    let leg = end_leg(leg, target, started);
    if let (Some(span), Some(rec)) = (drain_span, trace) {
        rec.end(span);
    }
    leg
}

/// Open loop: event `i` is due at `start + i / rate`, whatever the
/// system does. The generator sleeps while it is far ahead, yields the
/// last stretch, and when behind sends at once.
///
/// Latency is timed from the actual `push` (the engines stamp arrival
/// themselves; `ServeRuntime::push` does the same), not from the due
/// instant: on the 2-core reference host the generator shares the cores
/// with up to 16 plan workers, and its own scheduling delay (lag p99
/// 0.2–1.2 ms, varying 6× between runs of the same code) would own the
/// serve p99 if it were added. The lag is recorded beside the latency
/// instead, and a leg whose lag p99 exceeds [`MAX_GEN_LAG`] fails whole.
pub fn paced(driven: Driven, target: &mut Target, events: &[Event], rate: f64) -> Leg {
    let mut leg = new_leg(driven, target, events.len());
    let ns_per_tuple = 1e9 / rate;
    let started = Instant::now();
    for (i, event) in events.iter().enumerate() {
        let due = started + StdDuration::from_nanos((i as f64 * ns_per_tuple) as u64);
        let mut now = Instant::now();
        while now < due {
            let ahead = due - now;
            if ahead > StdDuration::from_micros(200) {
                std::thread::sleep(ahead - StdDuration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
            now = Instant::now();
        }
        leg.gen_lag.record((now - due).as_nanos() as u64);
        if let Err(e) = target.push(event.clone()) {
            eprintln!("FAILED {}: push seq {}: {e}", driven.label(), event.seq);
            leg.push_failed = (events.len() - i) as u64;
            break;
        }
    }
    end_leg(leg, target, started)
}

fn base_count(events: &[Event]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e.as_data(), Some((Side::Base, _))))
        .count() as u64
}

/// Rows of one plan that break "exactly one row per base tuple, none for
/// anything else": missing, duplicate and stray `seq`s.
fn wrong_rows(store: &Rows, events: &[Event]) -> u64 {
    let mut per_seq = vec![0u32; events.len()];
    let mut stray = 0u64;
    // LOCK: sink_collect
    for row in store.lock().iter() {
        match per_seq.get_mut(row.seq as usize) {
            Some(n) => *n += 1,
            None => stray += 1,
        }
    }
    let wrong: u64 = events
        .iter()
        .zip(&per_seq)
        .map(|(e, &n)| {
            let want = u32::from(matches!(e.as_data(), Some((Side::Base, _))));
            u64::from(n.abs_diff(want))
        })
        .sum();
    wrong + stray
}

/// Operations attempted and failed by a leg: a tuple counts once per plan
/// it is fed to. Failed are pushes that errored or were never made, shed
/// base tuples, and base tuples without exactly one row — checked per
/// `seq` when rows were collected, by count otherwise.
pub fn tally(leg: &Leg, events: &[Event], rows: &[Rows]) -> Tally {
    let bases = base_count(events);
    let mut failed = leg.push_failed * leg.fanout;
    // A plan that failed to finish delivered nothing that can be trusted.
    failed += leg.finish_failed * bases;
    failed += leg.stats.iter().map(|s| s.shed_events).sum::<u64>();
    failed += if rows.is_empty() {
        leg.stats
            .iter()
            .map(|s| s.results.abs_diff(bases))
            .sum::<u64>()
    } else {
        rows.iter()
            .map(|store| wrong_rows(store, events))
            .sum::<u64>()
    };
    Tally {
        attempted: leg.offered * leg.fanout,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oij_common::{Timestamp, Tuple};

    fn event(seq: u64, side: Side) -> Event {
        Event::data(
            seq,
            side,
            Tuple::new(Timestamp::from_micros(seq as i64), 1, 1.0),
        )
    }

    fn leg(offered: u64, fanout: u64, results: &[u64]) -> Leg {
        let stats = results
            .iter()
            .map(|&r| {
                let mut s = RunStats::from_reports(offered, StdDuration::from_secs(1), vec![], 0);
                s.results = r;
                s
            })
            .collect();
        Leg {
            driven: Driven::Serve,
            offered,
            fanout,
            push_failed: 0,
            elapsed: StdDuration::from_secs(1),
            drain: StdDuration::ZERO,
            stats,
            finish_failed: 0,
            push_samples: Vec::new(),
            gen_lag: LatencyHistogram::new(),
        }
    }

    #[test]
    fn a_clean_leg_fails_nothing_and_counts_each_plan() {
        let events = [
            event(0, Side::Probe),
            event(1, Side::Base),
            event(2, Side::Base),
        ];
        let t = tally(&leg(3, 2, &[2, 2]), &events, &[]);
        assert_eq!(
            t,
            Tally {
                attempted: 6,
                failed: 0
            }
        );
    }

    #[test]
    fn missing_rows_shed_tuples_and_failed_pushes_are_charged() {
        let events = [
            event(0, Side::Probe),
            event(1, Side::Base),
            event(2, Side::Base),
        ];
        let mut l = leg(3, 2, &[1, 2]);
        l.stats[1].shed_events = 1;
        l.push_failed = 2;
        let t = tally(&l, &events, &[]);
        // one missing row + one shed + two unpushed tuples × two plans
        assert_eq!(t.failed, 1 + 1 + 4);

        let mut l = leg(3, 2, &[2]);
        l.finish_failed = 1;
        assert_eq!(
            tally(&l, &events, &[]).failed,
            2,
            "a lost plan loses every row"
        );
    }

    #[test]
    fn collected_rows_are_checked_per_seq() {
        let events = [
            event(0, Side::Probe),
            event(1, Side::Base),
            event(2, Side::Base),
        ];
        let row = |seq: u64| FeatureRow::new(Timestamp::from_micros(0), 1, seq, Some(0.0), 0);
        let (_, store) = Sink::collect();
        // seq 1 twice (duplicate), seq 2 missing, seq 0 is a probe (stray
        // row), seq 9 is outside the feed.
        // LOCK: sink_collect
        store.lock().extend([row(1), row(1), row(0), row(9)]);
        assert_eq!(wrong_rows(&store, &events), 4);
        // The row count alone (4 rows for 2 bases) would have seen two.
        let t = tally(&leg(3, 1, &[4]), &events, &[store]);
        assert_eq!(t.failed, 4);
    }
}
