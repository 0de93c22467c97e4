//! One workload, one process: set-up, the correctness pre-pass, then
//! either the timed legs (`--trace 0`, the end-to-end metrics) or the
//! traced run (`--trace 1`, the per-layer metrics and the span file).

use std::path::{Path, PathBuf};
use std::time::{Duration as StdDuration, Instant};

use oij_common::{Event, OijQuery};
use oij_core::{EngineKind, Instrumentation, RunStats};
use oij_metrics::{BatchOccupancy, LatencyHistogram, TimeBreakdown};
use serde_json::Value;

use crate::json::{metric, num, nums, obj, text};
use crate::layers::{self, Metrics};
use crate::legs::{
    closed_loop, driven_by, paced, spawn, tally, Driven, Leg, SpawnOpts, Target, LATENCY_LIMIT,
    MAX_DRAIN, MAX_GEN_LAG, PUSH_BLOCKED,
};
use crate::metrics::{per_layer, END_TO_END};
use crate::spans::Recorder;
use crate::stats::{
    feed_hash, median, quantile_ms, quantile_ns, quartiles, rows_over_limit, Tally,
};
use crate::workloads::{Kind, Workload};
use crate::{host, prepass};

/// Timed closed-loop repeats: one per 4 s of `--seconds` (five at the
/// driver's 20 s), never fewer than three. A fixed count, not "until the
/// time is up": a run that is a little faster must not gain a repeat.
const MIN_TIMED_REPEATS: usize = 3;
const MAX_TIMED_REPEATS: usize = 9;

/// The paced leg is cut into windows this long, each an engine run of
/// its own with its own latency histogram; the latency metrics are
/// medians over the windows. On this host a stall of 10–50 ms comes
/// about every 10 s and owns the last percentile of whichever run it
/// hits: two 6 s legs gave a p99 spread of 60 % between runs of the same
/// code. At 0.5 s four windows in ten of `skew.late` still caught a burst
/// of slow rows and its median sat between the two modes (spread 26 %);
/// at 0.25 s two in ten do (spread 5 %).
const PACED_WINDOW_SECS: f64 = 0.25;

/// Set-up is repeated until it has run this often and this long, and the
/// median is reported: short set-ups are too noisy to gate one by one.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const MIN_SETUP_TOTAL: StdDuration = StdDuration::from_millis(600);

/// Events of the plan-count sweep in the traced run.
const SWEEP_EVENTS: usize = 40_000;

/// Length of the traced run's paced leg (generator lag only).
const TRACE_PACED_SECS: f64 = 2.0;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What `main` prints and exits on.
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    /// The contract's `metrics` object.
    pub metrics: Value,
    /// Everything else worth keeping: host block, repeats, quartiles.
    pub detail: Value,
}

/// Scratch space inside the checkout, removed when the run ends.
struct Scratch {
    dir: PathBuf,
    next: u32,
}

impl Scratch {
    fn new(out: &Path, workload: &str) -> Result<Self, String> {
        let dir = out.join(format!("scratch-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch { dir, next: 0 })
    }

    /// A directory no earlier run has logged into.
    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("wal-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and by the
        // next run, which uses its own process id.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The benchmark's output directory: `benchmark/out` from the repository
/// root (where the one command runs), `out` from inside `benchmark/`.
fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

struct Setup {
    feed: Vec<Event>,
    queries: Vec<OijQuery>,
    generate: StdDuration,
    total: StdDuration,
}

/// Feed generation, SQL parse and engine spawn / plan registration: all
/// a user waits for before the first `push`. The spawned engines are torn
/// down again off the clock.
fn set_up(
    w: &Workload,
    seed: u64,
    scratch: &mut Scratch,
    mut trace: Option<&mut Recorder>,
) -> Result<Setup, String> {
    let started = Instant::now();
    let span = trace.as_deref_mut().map(|r| r.begin("setup.generate"));
    let feed = w.generate(seed);
    if let (Some(span), Some(r)) = (span, trace.as_deref_mut()) {
        r.end(span);
    }
    let generate = started.elapsed();
    let span = trace.as_deref_mut().map(|r| r.begin("setup.spawn"));
    let queries = w.parse_queries().map_err(|e| format!("sql: {e}"))?;
    let mut spawned = Vec::new();
    for driven in driven_by(w) {
        let mut opts = SpawnOpts::new(Instrumentation::none());
        if matches!(w.kind, Kind::Solo { durable: true }) {
            opts.durable_dir = Some(scratch.fresh());
        }
        spawned.push((
            driven,
            spawn(driven, &queries, &opts).map_err(|e| format!("spawn: {e}"))?,
        ));
    }
    if let (Some(span), Some(r)) = (span, trace) {
        r.end(span);
    }
    let total = started.elapsed();
    for (driven, mut s) in spawned {
        closed_loop(driven, &mut s.target, &[], None);
    }
    Ok(Setup {
        feed,
        queries,
        generate,
        total,
    })
}

/// One repeat over every engine of the workload.
struct Repeat {
    legs: Vec<Leg>,
    tally: Tally,
}

impl Repeat {
    /// Tuples over time summed across the engines (one engine: its rate;
    /// `baselines.narrow`: 3 M / Σ elapsed).
    fn tps(&self) -> f64 {
        let offered: u64 = self.legs.iter().map(|l| l.offered).sum();
        let elapsed: f64 = self.legs.iter().map(|l| l.elapsed.as_secs_f64()).sum();
        offered as f64 / elapsed.max(1e-9)
    }

    fn stats(&self) -> impl Iterator<Item = &RunStats> {
        self.legs.iter().flat_map(|l| l.stats.iter())
    }
}

/// Engines ready to be driven: their parsed queries and the scratch
/// space durable runs log into.
struct Bench<'a> {
    driven: Vec<Driven>,
    durable: bool,
    paced_rate: f64,
    queries: &'a [OijQuery],
    scratch: &'a mut Scratch,
}

impl<'a> Bench<'a> {
    fn of(w: &Workload, queries: &'a [OijQuery], scratch: &'a mut Scratch) -> Self {
        Bench {
            driven: driven_by(w),
            durable: matches!(w.kind, Kind::Solo { durable: true }),
            paced_rate: w.paced_rate,
            queries,
            scratch,
        }
    }

    /// Spawns each engine of the workload in turn and drives `events`
    /// through it with `drive`.
    fn repeat(
        &mut self,
        events: &[Event],
        opts: &SpawnOpts,
        mut drive: impl FnMut(Driven, &mut Target) -> Leg,
    ) -> Result<Repeat, String> {
        let mut out = Repeat {
            legs: Vec::new(),
            tally: Tally::default(),
        };
        for &driven in &self.driven {
            let mut opts = opts.clone();
            opts.durable_dir = self.durable.then(|| self.scratch.fresh());
            let mut spawned =
                spawn(driven, self.queries, &opts).map_err(|e| format!("spawn: {e}"))?;
            let leg = drive(driven, &mut spawned.target);
            out.tally.add(tally(&leg, events, &spawned.rows));
            out.legs.push(leg);
            if let Some(dir) = &opts.durable_dir {
                // Best effort: the whole scratch directory goes at exit.
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        Ok(out)
    }

    /// One closed-loop repeat, untraced.
    fn closed(&mut self, events: &[Event], opts: &SpawnOpts) -> Result<Repeat, String> {
        self.repeat(events, opts, |driven, target| {
            closed_loop(driven, target, events, None)
        })
    }

    /// One paced window at the workload's offered rate, with latency
    /// histograms on.
    fn paced(&mut self, events: &[Event]) -> Result<Repeat, String> {
        let rate = self.paced_rate;
        let opts = SpawnOpts::new(Instrumentation::latency());
        self.repeat(events, &opts, |driven, target| {
            paced(driven, target, events, rate)
        })
    }
}

/// The outcome of a run whose pre-pass disagreed with the oracle.
fn mismatch(w: &Workload, what: &str) -> Outcome {
    eprintln!("MISMATCH {}: {what}", w.name);
    Outcome {
        correct: false,
        tally: Tally {
            attempted: 1,
            failed: 1,
        },
        metrics: obj(vec![]),
        detail: obj(vec![("workload", text(w.name)), ("mismatch", text(what))]),
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(w: &Workload, args: &RunArgs) -> Result<Outcome, String> {
    let out = out_dir();
    let mut scratch = Scratch::new(&out, w.name)?;
    if args.trace {
        traced(w, args, &out, &mut scratch)
    } else {
        end_to_end(w, args, &mut scratch)
    }
}

fn end_to_end(w: &Workload, args: &RunArgs, scratch: &mut Scratch) -> Result<Outcome, String> {
    // Set-up, several times over; the last feed is the one measured (the
    // seed alone determines it).
    let mut setups = Vec::new();
    let mut setup_total = StdDuration::ZERO;
    let mut setup = set_up(w, args.seed, scratch, None)?;
    loop {
        setups.push(setup.total.as_secs_f64());
        setup_total += setup.total;
        let enough = setups.len() >= MIN_SETUPS && setup_total >= MIN_SETUP_TOTAL;
        if enough || setups.len() >= MAX_SETUPS {
            break;
        }
        drop(setup);
        setup = set_up(w, args.seed, scratch, None)?;
    }
    let Setup { feed, queries, .. } = setup;

    let compared = match prepass::run(w, &queries, &feed) {
        Ok(n) => n,
        Err(what) => return Ok(mismatch(w, &what)),
    };

    let mut bench = Bench::of(w, &queries, scratch);
    let mut total = Tally::default();

    // Closed loop. The first repeat runs slow (page faults) and is
    // discarded; it collects its rows instead, so every `seq` is checked.
    let closed_events = &feed[..w.closed_tuples.min(feed.len())];
    let timed_started = Instant::now();
    let mut warm = SpawnOpts::new(Instrumentation::none());
    warm.collect = true;
    let warmup = bench.closed(closed_events, &warm)?;
    total.add(warmup.tally);
    let warmup_secs = timed_started.elapsed().as_secs_f64();

    // Then the timed closed-loop repeats, each followed by its share of
    // the paced windows: this host has slow phases that last seconds, and
    // repeats spread over the whole run do not all fall into one.
    let repeats = ((args.seconds / 4.0) as usize).clamp(MIN_TIMED_REPEATS, MAX_TIMED_REPEATS);
    let plain = SpawnOpts::new(Instrumentation::none());
    // A window's quarter second is split evenly among the workload's engines.
    let per_engine_secs = PACED_WINDOW_SECS / driven_by(w).len() as f64;
    let paced_events = &feed[..((w.paced_rate * per_engine_secs) as usize).clamp(1, feed.len())];
    let limit_ns = LATENCY_LIMIT.as_nanos() as u64;
    let mut timed: Vec<Repeat> = Vec::new();
    let (mut p50, mut p99, mut maxes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rows, mut over_limit, mut paced_offered) = (0u64, 0u64, 0u64);
    let mut lag = LatencyHistogram::new();
    for done in 0..repeats {
        let r = bench.closed(closed_events, &plain)?;
        total.add(r.tally);
        timed.push(r);

        // Windows until this repeat's share of `--seconds` is used up.
        let slot_ends =
            warmup_secs + (args.seconds - warmup_secs) * (done + 1) as f64 / repeats as f64;
        let mut windows = 0;
        while windows == 0 || timed_started.elapsed().as_secs_f64() + PACED_WINDOW_SECS <= slot_ends
        {
            windows += 1;
            let r = bench.paced(paced_events)?;
            total.add(r.tally);
            let mut hist = LatencyHistogram::new();
            for leg in &r.legs {
                hist.merge(&leg.latency());
                lag.merge(&leg.gen_lag);
                paced_offered += leg.offered * leg.fanout;
                if leg.drain > MAX_DRAIN {
                    eprintln!(
                        "FAILED {} paced window on {}: finish drained {:.3} s: the backlog grew",
                        w.name,
                        leg.driven.label(),
                        leg.drain.as_secs_f64()
                    );
                    total.failed += leg.offered * leg.fanout;
                }
            }
            rows += hist.count();
            over_limit += rows_over_limit(hist.count(), hist.cdf_at(limit_ns));
            p50.push(quantile_ms(&hist, 0.5));
            p99.push(quantile_ms(&hist, 0.99));
            maxes.push(hist.max_ns() as f64 / 1e6);
        }
    }
    if over_limit > 0 {
        eprintln!(
            "FAILED {}: {over_limit} of {rows} paced rows over the {} ms latency limit",
            w.name,
            LATENCY_LIMIT.as_millis()
        );
        total.failed += over_limit;
    }
    // The generator's lag is judged over all windows together: one host
    // stall fills a short window's last percentile, not the run's.
    let lag_p99 = StdDuration::from_nanos(lag.quantile_ns(0.99));
    if lag_p99 > MAX_GEN_LAG {
        eprintln!(
            "FAILED {}: generator lag p99 {:.3} ms (> {} ms): the rate was not offered",
            w.name,
            lag_p99.as_secs_f64() * 1e3,
            MAX_GEN_LAG.as_millis()
        );
        total.failed += paced_offered;
    }
    let tps: Vec<f64> = timed.iter().map(Repeat::tps).collect();
    let per_engine: Vec<(&str, Value)> = driven_by(w)
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let rates: Vec<f64> = timed.iter().map(|r| r.legs[i].tps()).collect();
            (d.label(), num(median(&rates)))
        })
        .collect();

    let values = [
        median(&tps),
        median(&p50),
        median(&p99),
        peak_rss_mib(),
        median(&setups),
    ];
    let metrics = obj(END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, metric(v, m.unit)))
        .collect());
    let q = quartiles(&tps);
    let detail = obj(vec![
        ("workload", text(w.name)),
        ("why", text(w.why)),
        (
            "host",
            host::block(
                args.seed,
                &[("timed_repeats", timed.len()), ("paced_windows", p99.len())],
            ),
        ),
        ("feed_hash", text(&format!("{:016x}", feed_hash(&feed)))),
        ("failed_share", num(total.failed_share())),
        ("prepass_rows_compared", Value::U64(compared)),
        ("throughput_tps_repeats", nums(&tps)),
        ("throughput_tps_quartiles", nums(&[q.q1, q.median, q.q3])),
        ("throughput_tps_warmup", num(warmup.tps())),
        ("throughput_tps_by_engine", obj(per_engine)),
        ("closed_loop_tuples", Value::U64(closed_events.len() as u64)),
        ("paced_rate_tps", num(w.paced_rate)),
        (
            "paced_tuples_per_window",
            Value::U64(paced_events.len() as u64),
        ),
        ("latency_samples", Value::U64(rows)),
        ("latency_p50_ms_windows", nums(&p50)),
        ("latency_p99_ms_windows", nums(&p99)),
        ("latency_max_ms_windows", nums(&maxes)),
        ("latency_limit_ms", num(LATENCY_LIMIT.as_secs_f64() * 1e3)),
        ("gen_lag_p99_us", num(lag_p99.as_secs_f64() * 1e6)),
        ("gen_lag_max_us", num(lag.max_ns() as f64 / 1e3)),
        ("setup_s_repeats", nums(&setups)),
    ]);
    Ok(Outcome {
        correct: true,
        tally: total,
        metrics,
        detail,
    })
}

/// `core.*` per-layer metrics out of closed-loop legs.
fn core_metrics(traced: &Repeat, instrumented: &Repeat, gain: f64) -> Metrics {
    let samples: Vec<u64> = traced
        .legs
        .iter()
        .flat_map(|l| l.push_samples.iter().copied())
        .collect();
    // Share of the sampled push time spent in pushes that waited: with
    // batching only one push in 64 sends at all, so a share of pushes
    // would read ≈ 0 even when the driver mostly waits.
    let limit = PUSH_BLOCKED.as_nanos() as u64;
    let blocked_ns: u64 = samples.iter().filter(|&&ns| ns > limit).sum();
    let sampled_ns: u64 = samples.iter().sum();
    let drain: f64 = traced
        .legs
        .iter()
        .map(|l| l.drain.as_secs_f64() * 1e3)
        .sum();
    let mut occupancy = BatchOccupancy::new();
    for s in traced.stats() {
        occupancy.merge(&s.batch_occupancy);
    }
    let loads: Vec<u64> = traced
        .stats()
        .flat_map(|s| s.joiner_loads.clone())
        .collect();

    let mut breakdown = TimeBreakdown::new();
    let (mut bases, mut effectiveness, mut plans) = (0u64, 0.0, 0u32);
    for s in instrumented.stats() {
        if let Some(b) = &s.breakdown {
            breakdown.merge(b);
        }
        if let Some(e) = s.effectiveness {
            effectiveness += e;
            plans += 1;
        }
        bases += s.results;
    }
    let per_base = |ns: u64| ns as f64 / bases.max(1) as f64;
    let sum = |r: &Repeat, f: fn(&RunStats) -> u64| r.stats().map(f).sum::<u64>() as f64;

    [
        ("core.push_ns_p50", quantile_ns(&samples, 0.5)),
        ("core.push_ns_p99", quantile_ns(&samples, 0.99)),
        (
            "core.push_blocked_share",
            blocked_ns as f64 / sampled_ns.max(1) as f64,
        ),
        ("core.finish_drain_ms", drain),
        ("core.batch.occupancy_mean", occupancy.mean()),
        ("core.batch.occupancy_max", occupancy.max() as f64),
        ("core.batch.gain", gain),
        ("core.joiner.lookup_ns", per_base(breakdown.lookup_ns)),
        ("core.joiner.match_ns", per_base(breakdown.match_ns)),
        ("core.joiner.other_ns", per_base(breakdown.other_ns)),
        (
            "core.joiner.effectiveness",
            effectiveness / f64::from(plans.max(1)),
        ),
        (
            "core.joiner.late_violations",
            sum(instrumented, |s| s.late_violations),
        ),
        ("core.joiner.evicted", sum(instrumented, |s| s.evicted)),
        (
            "core.scaleoij.unbalancedness",
            traced.stats().map(|s| s.unbalancedness).fold(0.0, f64::max),
        ),
        (
            "core.scaleoij.joiner_load_min",
            loads.iter().copied().min().unwrap_or(0) as f64,
        ),
        (
            "core.scaleoij.joiner_load_max",
            loads.iter().copied().max().unwrap_or(0) as f64,
        ),
        (
            "core.scaleoij.schedule_changes",
            sum(traced, |s| s.schedule_changes),
        ),
        ("sink.retries", sum(traced, |s| s.sink_retries)),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

fn traced(
    w: &Workload,
    args: &RunArgs,
    out: &Path,
    scratch: &mut Scratch,
) -> Result<Outcome, String> {
    let mut rec = Recorder::new();
    let run_span = rec.begin("run");
    let Setup {
        feed,
        queries,
        generate,
        ..
    } = set_up(w, args.seed, scratch, Some(&mut rec))?;

    if let Err(what) = rec.within("prepass", |_| prepass::run(w, &queries, &feed)) {
        return Ok(mismatch(w, &what));
    }

    let mut bench = Bench::of(w, &queries, scratch);
    let mut total = Tally::default();
    let none = SpawnOpts::new(Instrumentation::none());
    let closed_events = &feed[..w.closed_tuples.min(feed.len())];

    // The closed-loop leg once more with the benchmark's own spans on,
    // beside untraced repeats of the same leg: the difference is what
    // tracing costs.
    let warmup = rec.within("closed.warmup", |_| bench.closed(closed_events, &none))?;
    total.add(warmup.tally);
    let pairs = ((args.seconds / 10.0) as usize).max(1);
    let (mut untraced_tps, mut traced_tps, mut last_traced) = (Vec::new(), Vec::new(), None);
    for _ in 0..pairs {
        let plain = rec.within("closed.untraced", |_| bench.closed(closed_events, &none))?;
        total.add(plain.tally);
        untraced_tps.push(plain.tps());
        let with_spans = rec.within("closed.traced", |rec| {
            bench.repeat(closed_events, &none, |driven, target| {
                closed_loop(driven, target, closed_events, Some(&mut *rec))
            })
        })?;
        total.add(with_spans.tally);
        traced_tps.push(with_spans.tps());
        last_traced = Some(with_spans);
    }
    let traced_leg = last_traced.expect("at least one traced repeat");
    let overhead = (1.0 - median(&traced_tps) / median(&untraced_tps)) * 100.0;

    // Extra passes over a prefix of the feed.
    let layer_events = &feed[..w.layer_tuples.min(feed.len())];
    let full = SpawnOpts::new(Instrumentation::full());
    let instrumented = rec.within("pass.instrumented", |_| bench.closed(layer_events, &full))?;
    total.add(instrumented.tally);

    // Batch 64 against batch 1: one Scale-OIJ engine, the workload's
    // (first) query.
    let mut solo_bench = Bench {
        driven: vec![Driven::Engine(EngineKind::ScaleOij)],
        durable: false,
        paced_rate: w.paced_rate,
        queries: &queries[..1],
        scratch: &mut *bench.scratch,
    };
    let mut tps_at = |batch: usize| -> Result<f64, String> {
        let mut opts = none.clone();
        opts.batch = batch;
        let r = rec.within("pass.batch", |_| solo_bench.closed(layer_events, &opts))?;
        total.add(r.tally);
        Ok(r.tps())
    };
    let gain = tps_at(crate::workloads::BATCH)? / tps_at(1)?;

    let paced_events = &feed[..((w.paced_rate * TRACE_PACED_SECS / driven_by(w).len() as f64)
        as usize)
        .clamp(1, feed.len())];
    let paced_leg = rec.within("pass.paced", |_| bench.paced(paced_events))?;
    total.add(paced_leg.tally);
    let mut lag = LatencyHistogram::new();
    for leg in &paced_leg.legs {
        lag.merge(&leg.gen_lag);
    }

    let mut values: Metrics = vec![
        (
            "workload.gen_ns_per_tuple".into(),
            generate.as_nanos() as f64 / feed.len().max(1) as f64,
        ),
        (
            "workload.gen_lag_p99_us".into(),
            lag.quantile_ns(0.99) as f64 / 1e3,
        ),
    ];
    values.extend(core_metrics(&traced_leg, &instrumented, gain));
    values.extend(layers::index(w, &queries[0], layer_events, &mut rec));
    values.extend(layers::agg(layer_events, &mut rec));
    values.extend(layers::durability(
        &queries[0],
        &layer_events[..layer_events.len().min(200_000)],
        &bench.scratch.fresh(),
        &mut rec,
    )?);
    values.extend(layers::serve_sweep(
        &layer_events[..layer_events.len().min(SWEEP_EVENTS)],
        &mut rec,
    )?);
    values.extend(layers::sink(layer_events, &mut rec));
    values.extend(layers::sql(&mut rec)?);
    values.push(("trace_overhead_pct".into(), overhead));
    rec.end(run_span);

    // Every metric of the table, in table order, and nothing else.
    let table = per_layer();
    if let Some((stray, _)) = values
        .iter()
        .find(|(n, _)| table.iter().all(|(name, _, _)| name != n))
    {
        return Err(format!("per-layer metric {stray} is not in the table"));
    }
    let mut listed = Vec::with_capacity(table.len());
    for (name, unit, _) in &table {
        let (_, value) = values
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        listed.push((name.as_str(), metric(*value, unit)));
    }
    let metrics = obj(listed);

    let plans: Vec<Value> = traced_leg
        .stats()
        .map(|s| {
            obj(vec![
                ("pushed", Value::U64(s.input_tuples)),
                ("shed", Value::U64(s.shed_events)),
                ("results", Value::U64(s.results)),
                (
                    "joiner_loads",
                    Value::Seq(s.joiner_loads.iter().map(|&l| Value::U64(l)).collect()),
                ),
            ])
        })
        .collect();
    let counts = obj(vec![
        ("layers", metrics.clone()),
        ("plans", Value::Seq(plans)),
        ("untraced_tps", nums(&untraced_tps)),
        ("traced_tps", nums(&traced_tps)),
    ]);
    let path = out.join(format!("trace-{}.json", w.name));
    let body = crate::json::compact(&rec.to_json(w.name, counts));
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;

    let detail = obj(vec![
        ("workload", text(w.name)),
        ("host", host::block(args.seed, &[("traced_repeats", pairs)])),
        ("failed_share", num(total.failed_share())),
        ("trace_file", text(&path.display().to_string())),
        ("spans", Value::U64(rec.spans().len() as u64)),
        ("layers", metrics.clone()),
    ]);
    Ok(Outcome {
        correct: true,
        tally: total,
        metrics,
        detail,
    })
}
