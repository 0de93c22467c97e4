//! Per-layer micro-loops of the traced run: each times calls into one
//! layer's public functions from outside, single-threaded, over the
//! workload's own tuples, under one span. None of these numbers is
//! gated; `README.md` says which end-to-end metric each should move.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration as StdDuration, Instant};

use oij_agg::{FullWindowAgg, RunningAgg, TwoStackAgg};
use oij_common::{AggSpec, Event, FeatureRow, OijQuery, Side, Timestamp, Tuple};
use oij_core::{recover, EngineKind, Instrumentation, Sink};
use oij_durability::wal::{Appender, Record};
use oij_durability::{checkpoint, Frontier, LoggedEvent};
use oij_index::{IndexBackend, OijIndexReader, OijIndexWriter};

use crate::legs::{closed_loop, spawn, Driven, SpawnOpts};
use crate::spans::Recorder;
use crate::stats::{median, quantile_ns};
use crate::workloads::{self, Workload, BATCH};

pub type Metrics = Vec<(String, f64)>;

/// Events between eviction sweeps and timer reads in the index loop.
const INDEX_CHUNK: usize = 256;

/// Sliding-window length of the aggregation loops.
const AGG_WINDOW: usize = 256;

fn per(total: StdDuration, n: u64) -> f64 {
    total.as_nanos() as f64 / n.max(1) as f64
}

fn data(events: &[Event]) -> impl Iterator<Item = (Side, &Tuple)> {
    events.iter().filter_map(Event::as_data)
}

/// Where the engines would evict after `chunk`: its newest timestamp
/// minus what a late base tuple can still reach back to.
fn evict_bound(chunk: &[Event], retention_us: i64) -> Timestamp {
    let newest = data(chunk)
        .map(|(_, t)| t.ts.as_micros())
        .max()
        .unwrap_or(0);
    Timestamp::from_micros(newest - retention_us)
}

/// `index.<backend>.*`: the workload's probes inserted and its bases'
/// windows scanned through `IndexBackend::build()`'s writer and reader,
/// in arrival order, with the eviction the engines would do. Within a
/// chunk the inserts run before the scans so each kind is timed as one
/// block.
pub fn index(w: &Workload, query: &OijQuery, events: &[Event], rec: &mut Recorder) -> Metrics {
    let retention = w.preceding.as_micros() + w.lateness.as_micros() + w.disorder.as_micros();
    let mut out = Metrics::new();
    for backend in IndexBackend::ALL {
        let span = rec.begin("layer.index");
        let (mut writer, reader) = backend.build();
        let (mut insert, mut scan, mut evict) =
            (StdDuration::ZERO, StdDuration::ZERO, StdDuration::ZERO);
        let (mut inserts, mut scans, mut visits, mut evicted) = (0u64, 0u64, 0u64, 0u64);
        let mut acc = 0.0;
        for chunk in events.chunks(INDEX_CHUNK) {
            let t0 = Instant::now();
            for (side, tuple) in data(chunk) {
                if side == Side::Probe {
                    writer.insert(tuple.clone());
                    inserts += 1;
                }
            }
            let t1 = Instant::now();
            for (side, tuple) in data(chunk) {
                if side == Side::Base {
                    let window = query.window.window_of(tuple.ts);
                    visits += reader.scan_window(tuple.key, window, |p| acc += p.value) as u64;
                    scans += 1;
                }
            }
            let t2 = Instant::now();
            evicted += writer.evict_below(evict_bound(chunk, retention)) as u64;
            let t3 = Instant::now();
            insert += t1 - t0;
            scan += t2 - t1;
            evict += t3 - t2;
        }
        black_box(acc);

        // The batched entry point, on a fresh index with the same
        // eviction (untimed here).
        let (mut writer, _reader) = backend.build();
        let mut batched = StdDuration::ZERO;
        for chunk in events.chunks(INDEX_CHUNK) {
            let probes: Vec<(Tuple, bool)> = data(chunk)
                .filter(|(side, _)| *side == Side::Probe)
                .map(|(_, t)| (t.clone(), false))
                .collect();
            let t0 = Instant::now();
            for run in probes.chunks(BATCH) {
                writer.insert_batch(run.to_vec());
            }
            batched += t0.elapsed();
            writer.evict_below(evict_bound(chunk, retention));
        }
        rec.end(span);

        let name = |what: &str| format!("index.{}.{what}", backend.label());
        out.push((name("insert_ns"), per(insert, inserts)));
        out.push((name("insert_batch64_ns"), per(batched, inserts)));
        out.push((name("scan_ns_per_call"), per(scan, scans)));
        out.push((name("scan_ns_per_visit"), per(scan, visits)));
        out.push((name("evict_ns"), per(evict, evicted)));
    }
    out
}

/// `agg.*`: the three aggregators over the workload's probe values, a
/// [`AGG_WINDOW`]-value window sliding one value at a time.
pub fn agg(events: &[Event], rec: &mut Recorder) -> Metrics {
    let values: Vec<f64> = data(events)
        .filter(|(side, _)| *side == Side::Probe)
        .map(|(_, t)| t.value)
        .collect();
    let n = values.len() as u64;
    rec.within("layer.agg", |_| {
        let mut running = RunningAgg::new(AggSpec::Sum).expect("sum is invertible");
        let t0 = Instant::now();
        for (i, &v) in values.iter().enumerate() {
            running.add(v);
            if i >= AGG_WINDOW {
                running.evict(values[i - AGG_WINDOW]);
            }
        }
        let running_ns = per(t0.elapsed(), n);
        black_box(running.value());

        let mut stacks = TwoStackAgg::new(AggSpec::Max);
        let t0 = Instant::now();
        for &v in &values {
            stacks.push(v);
            if stacks.len() > AGG_WINDOW {
                black_box(stacks.evict().expect("the window is not empty"));
            }
        }
        let stacks_ns = per(t0.elapsed(), n);
        black_box(stacks.value());

        let t0 = Instant::now();
        for window in values.chunks(AGG_WINDOW) {
            let mut full = FullWindowAgg::new(AggSpec::Sum);
            for &v in window {
                full.add(v);
            }
            black_box(full.finish());
        }
        let full_ns = per(t0.elapsed(), n);
        vec![
            ("agg.running_add_evict_ns".into(), running_ns),
            ("agg.twostack_push_evict_ns".into(), stacks_ns),
            ("agg.full_add_ns".into(), full_ns),
        ]
    })
}

fn logged(events: &[Event]) -> Vec<LoggedEvent> {
    events
        .iter()
        .filter_map(|e| {
            e.as_data().map(|(side, t)| LoggedEvent {
                seq: e.seq,
                side,
                ts: t.ts.as_micros(),
                key: t.key,
                value: t.value,
                stamp: i64::MIN,
            })
        })
        .collect()
}

/// `durability.*`: WAL appends and a checkpoint write under `dir`, then a
/// durable Scale-OIJ run over the same events and `oij_core::recover` on
/// the directory it leaves behind.
pub fn durability(
    query: &OijQuery,
    events: &[Event],
    dir: &Path,
    rec: &mut Recorder,
) -> Result<Metrics, String> {
    let io = |what: &str, e: std::io::Error| format!("durability micro-loop: {what}: {e}");
    let span = rec.begin("layer.durability");
    let records = logged(events);

    let wal_dir = dir.join("wal-micro");
    std::fs::create_dir_all(&wal_dir).map_err(|e| io("create dir", e))?;
    let mut appender = Appender::resume(&wal_dir, 4 << 20, 0, 0);
    let mut bytes = 0u64;
    let t0 = Instant::now();
    for ev in &records {
        bytes += appender
            .append(&Record::Event(*ev))
            .map_err(|e| io("append", e))?;
    }
    let append_ns = per(t0.elapsed(), records.len() as u64);

    // One checkpoint as the engines cut them: 4 096 retained events.
    let cut = &records[..records.len().min(4096)];
    let ckpt = checkpoint::Checkpoint {
        last_seq: cut.last().map_or(0, |e| e.seq),
        max_ts: cut.iter().map(|e| e.ts).max().unwrap_or(0),
        total_ingested: cut.len() as u64,
        total_late: 0,
        frontier: Frontier::new(),
        emitted_rows: 0,
        emitted_late: 0,
        retained: cut.to_vec(),
    };
    let mut writes = Vec::new();
    for id in 0..5 {
        let t0 = Instant::now();
        checkpoint::write(&wal_dir, id, &ckpt).map_err(|e| io("checkpoint", e))?;
        writes.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let run_dir = dir.join("wal-recover");
    let mut opts = SpawnOpts::new(Instrumentation::none());
    opts.durable_dir = Some(run_dir);
    let driven = Driven::Engine(EngineKind::ScaleOij);
    let queries = [query.clone()];
    let mut spawned =
        spawn(driven, &queries, &opts).map_err(|e| format!("durable run: spawn: {e}"))?;
    let leg = closed_loop(driven, &mut spawned.target, events, None);
    if leg.push_failed + leg.finish_failed > 0 {
        return Err("durable run failed".into());
    }
    drop(spawned);
    let cfg = crate::legs::config_for(driven, query.clone(), &opts)
        .map_err(|e| format!("recover: config: {e}"))?;
    let (mut engine, report) =
        recover(EngineKind::ScaleOij, cfg, Sink::null()).map_err(|e| format!("recover: {e}"))?;
    engine
        .finish()
        .map_err(|e| format!("recover: finish: {e}"))?;
    rec.end(span);

    Ok(vec![
        ("durability.append_ns".into(), append_ns),
        (
            "durability.bytes_per_record".into(),
            bytes as f64 / records.len().max(1) as f64,
        ),
        ("durability.checkpoint_write_ms".into(), median(&writes)),
        (
            "durability.recover_ms".into(),
            report.duration.as_secs_f64() * 1e3,
        ),
        ("durability.replayed".into(), report.replayed as f64),
    ])
}

/// `sink.emit_*`: one row per base tuple into the discarding and the
/// collecting sink.
pub fn sink(events: &[Event], rec: &mut Recorder) -> Metrics {
    let rows: Vec<FeatureRow> = events
        .iter()
        .filter_map(|e| match e.as_data() {
            Some((Side::Base, t)) => Some(FeatureRow::new(t.ts, t.key, e.seq, Some(t.value), 1)),
            _ => None,
        })
        .collect();
    let n = rows.len() as u64;
    rec.within("layer.sink", |_| {
        let null = Sink::null();
        let t0 = Instant::now();
        for row in &rows {
            black_box(&null).emit(row.clone());
        }
        let null_ns = per(t0.elapsed(), n);
        let (collect, store) = Sink::collect();
        let t0 = Instant::now();
        for row in &rows {
            collect.emit(row.clone());
        }
        let collect_ns = per(t0.elapsed(), n);
        // LOCK: sink_collect
        black_box(store.lock().len());
        vec![
            ("sink.emit_null_ns".into(), null_ns),
            ("sink.emit_collect_ns".into(), collect_ns),
        ]
    })
}

/// `sql.parse_ns`: parse and lowering of the 16 serve statements.
pub fn sql(rec: &mut Recorder) -> Result<Metrics, String> {
    let statements = serve_workload().sql();
    const ROUNDS: u64 = 200;
    rec.within("layer.sql", |_| {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for s in &statements {
                let parsed = oij_sql::parse(s).map_err(|e| format!("sql: {e}"))?;
                black_box(parsed.to_oij_query().map_err(|e| format!("sql: {e}"))?);
            }
        }
        let ns = per(t0.elapsed(), ROUNDS * statements.len() as u64);
        Ok(vec![("sql.parse_ns".into(), ns)])
    })
}

fn serve_workload() -> Workload {
    workloads::all()
        .into_iter()
        .find(|w| w.kind == workloads::Kind::Serve)
        .expect("the serving workload is defined")
}

/// `serve.*`: the serve statements registered 1, 4 and 16 at a time over
/// the same events, closed loop. Flat-versus-1/N across the three rates
/// is the shape ROADMAP item 3 must change.
pub fn serve_sweep(events: &[Event], rec: &mut Recorder) -> Result<Metrics, String> {
    let serve = serve_workload();
    let queries = serve
        .parse_queries()
        .map_err(|e| format!("serve sweep: sql: {e}"))?;
    let mut out = Metrics::new();
    for plans in [1usize, 4, 16] {
        let span = rec.begin("layer.serve");
        let opts = SpawnOpts::new(Instrumentation::none());
        let mut spawned = spawn(Driven::Serve, &queries[..plans], &opts)
            .map_err(|e| format!("serve sweep: spawn: {e}"))?;
        let sample = (plans == 16).then_some(&mut *rec);
        let leg = closed_loop(Driven::Serve, &mut spawned.target, events, sample);
        rec.end(span);
        if leg.push_failed + leg.finish_failed > 0 {
            return Err(format!("serve sweep at {plans} plans failed"));
        }
        out.push((format!("serve.tps_at_{plans}_plans"), leg.tps()));
        if plans == 16 {
            let sum = |f: fn(&oij_core::RunStats) -> u64| leg.stats.iter().map(f).sum::<u64>();
            out.push((
                "serve.push_ns_p50".into(),
                quantile_ns(&leg.push_samples, 0.5),
            ));
            out.push((
                "serve.cancel_drain_ms".into(),
                leg.drain.as_secs_f64() * 1e3,
            ));
            out.push(("serve.pushed".into(), sum(|s| s.input_tuples) as f64));
            out.push(("serve.shed".into(), sum(|s| s.shed_events) as f64));
            out.push(("serve.results".into(), sum(|s| s.results) as f64));
        }
    }
    Ok(out)
}
