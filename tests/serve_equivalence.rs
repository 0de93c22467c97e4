//! Serving-runtime differential suite: N concurrently served queries,
//! answered from **shared scans**, must be **bit-identical** to N solo
//! engine runs.
//!
//! The serving runtime (DESIGN.md §13) shares one single-writer probe
//! index across every registered plan, and one worker team and one scan
//! per base tuple across the plans of a scan group. Its correctness
//! argument is that each base message carries the writer's probe-insert
//! count at dispatch as a visibility `bound`, and workers scan the union
//! of their members' windows in `(ts, seq)` order filtered to
//! `seq < bound`, folding each member over the contiguous sub-range its
//! own window covers — recovering exactly the probe prefix (and the `f64`
//! accumulation order) a solo run would have used. This suite checks
//! that claim end to end:
//!
//! - **16 concurrent queries** with distinct windows, aggregates and
//!   joiner counts — two scan groups — across backends {skip list,
//!   Jiffy-lite} × batch sizes {1, 64}: every query's rows equal its solo
//!   Key-OIJ run's rows, `assert_eq` on the full [`FeatureRow`] including
//!   float bits;
//! - **mid-stream registration**: a query admitted halfway through the
//!   feed — ingest never drains — into an existing group or founding its
//!   own answers exactly the solo rows from its admission point on (the
//!   shared index already holds the earlier probes);
//! - **mid-stream cancellation** of a group's widest and of a middle
//!   member: the cancelled plans return exactly their rows so far, the
//!   remaining members stay bit-identical;
//! - **fault isolation at scale**: one plan with an injected worker
//!   panic among 16 healthy neighbours; the panic is attributed to that
//!   plan alone and every neighbour stays bit-identical;
//! - **shedding**: a base message shed under overload is charged once to
//!   every member of the group that lost it.
//!
//! Debug builds additionally arm the runtime's single-writer tripwire,
//! so any concurrent access to the shared writer fails these tests.

use oij::prelude::*;
use oij::serve::{ServeConfig, ServeRuntime};
use oij::Error;

const QUERIES: usize = 16;
const LATENESS_US: i64 = 20;

/// A seeded feed with disorder inside the queries' lateness bound, so
/// every run is exact and the row comparison is meaningful.
fn feed(tuples: usize) -> Vec<Event> {
    SyntheticConfig {
        tuples,
        unique_keys: 16,
        key_dist: KeyDist::Uniform,
        probe_fraction: 0.5,
        spacing: Duration::from_micros(1),
        disorder: Duration::from_micros(LATENESS_US),
        seed: 0x5E21,
        ..Default::default()
    }
    .generate()
}

/// Slot `i` gets its own window extent, aggregate and joiner count, so
/// the 16 concurrent plans genuinely differ.
fn query_for(slot: usize) -> OijQuery {
    const AGGS: [AggSpec; 5] = [
        AggSpec::Sum,
        AggSpec::Count,
        AggSpec::Avg,
        AggSpec::Min,
        AggSpec::Max,
    ];
    OijQuery::builder()
        .preceding(Duration::from_micros(50 + 25 * slot as i64))
        .lateness(Duration::from_micros(LATENESS_US))
        .agg(AGGS[slot % AGGS.len()])
        .emit(EmitMode::Eager)
        .build()
        .unwrap()
}

fn cfg_for(slot: usize, batch: usize, backend: IndexBackend) -> EngineConfig {
    EngineConfig::new(query_for(slot), 1 + slot % 2)
        .unwrap()
        .with_batch_size(batch)
        .with_index_backend(backend)
}

/// Runs `cfg` solo over `events` and returns its seq-sorted rows.
fn solo_rows(cfg: EngineConfig, events: &[Event]) -> (Vec<FeatureRow>, u64) {
    let (sink, rows) = Sink::collect();
    let mut solo = KeyOij::spawn(cfg, sink).unwrap();
    for ev in events {
        solo.push(ev.clone()).unwrap();
    }
    let stats = solo.finish().unwrap();
    let mut rows = rows.lock().clone();
    rows.sort_by_key(|r| r.seq);
    (rows, stats.results)
}

fn served_match_solo(backend: IndexBackend, batch: usize) {
    let events = feed(6000);
    let mut rt = ServeRuntime::new(ServeConfig::new().with_index_backend(backend)).unwrap();
    let mut served = Vec::new();
    for slot in 0..QUERIES {
        let cfg = cfg_for(slot, batch, backend);
        let (sink, rows) = Sink::collect();
        let id = rt
            .register(cfg.clone(), sink, Some(format!("slot-{slot}")))
            .unwrap();
        served.push((slot, id, cfg, rows));
    }
    // The slots differ in window, aggregate and joiner count (1 or 2);
    // only the last splits them: two groups, three worker threads for
    // plans that reserved twenty-four.
    let snap = rt.snapshot();
    assert_eq!((snap.active_queries, snap.groups), (QUERIES, 2));
    assert_eq!(snap.worker_threads, 1 + 2);
    let reserved: usize = rt.stats().iter().map(|q| q.joiners).sum();
    assert_eq!(reserved, QUERIES + QUERIES / 2);
    for ev in &events {
        rt.push(ev.clone()).unwrap();
    }
    for (slot, id, cfg, rows) in served {
        let (want, want_results) = solo_rows(cfg, &events);
        let stats = rt.cancel(id).unwrap();
        assert_eq!(
            stats.results, want_results,
            "[{backend:?} batch={batch}] slot {slot}: result count"
        );
        assert_eq!(
            stats.shed_events, 0,
            "slot {slot}: lossless mode never sheds"
        );
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        assert_eq!(
            got, want,
            "[{backend:?} batch={batch}] slot {slot}: served rows must be \
             bit-identical to the solo run"
        );
    }
    let snap = rt.snapshot();
    assert_eq!(
        (snap.active_queries, snap.groups, snap.worker_threads),
        (0, 0, 0)
    );
    assert_eq!(
        snap.probe_inserts as usize,
        events.len() - snap_bases(&events)
    );
}

fn snap_bases(events: &[Event]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e.as_data(), Some((Side::Base, _))))
        .count()
}

#[test]
fn sixteen_served_queries_match_solo_runs_skiplist() {
    served_match_solo(IndexBackend::SkipList, 1);
}

#[test]
fn sixteen_served_queries_match_solo_runs_skiplist_batched() {
    served_match_solo(IndexBackend::SkipList, 64);
}

#[test]
fn sixteen_served_queries_match_solo_runs_jiffy() {
    served_match_solo(IndexBackend::JiffyLite, 1);
}

#[test]
fn sixteen_served_queries_match_solo_runs_jiffy_batched() {
    served_match_solo(IndexBackend::JiffyLite, 64);
}

/// Registers slot `late_slot` halfway through the feed, next to slot 0
/// running from the start.
fn mid_stream_registration(late_slot: usize, groups: usize) {
    let events = feed(4000);
    let cut = events.len() / 2;
    let mut rt = ServeRuntime::new(ServeConfig::new()).unwrap();

    // One query from the start, as a control.
    let early_cfg = cfg_for(0, 1, IndexBackend::SkipList);
    let (early_sink, early_rows) = Sink::collect();
    let early = rt.register(early_cfg.clone(), early_sink, None).unwrap();

    for ev in &events[..cut] {
        rt.push(ev.clone()).unwrap();
    }
    // Admission happens while ingest is live — no drain, no barrier.
    let late_cfg = cfg_for(late_slot, 1, IndexBackend::SkipList);
    let (late_sink, late_rows) = Sink::collect();
    let late = rt.register(late_cfg.clone(), late_sink, None).unwrap();
    assert_eq!(rt.snapshot().groups, groups);
    for ev in &events[cut..] {
        rt.push(ev.clone()).unwrap();
    }

    // The early query matches a full solo run.
    let (want_early, _) = solo_rows(early_cfg, &events);
    rt.cancel(early).unwrap();
    let mut got = early_rows.lock().clone();
    got.sort_by_key(|r| r.seq);
    assert_eq!(got, want_early);

    // The late query answers exactly the solo rows from its admission
    // point on: the shared index already held the earlier probes, so a
    // solo run over the full feed filtered to `seq >= cut` is the
    // ground truth.
    let (full, _) = solo_rows(late_cfg, &events);
    let want_late: Vec<FeatureRow> = full.into_iter().filter(|r| r.seq >= cut as u64).collect();
    let stats = rt.cancel(late).unwrap();
    assert_eq!(stats.input_tuples as usize, events.len() - cut);
    let mut got = late_rows.lock().clone();
    got.sort_by_key(|r| r.seq);
    assert_eq!(got, want_late, "late-registered query rows");
}

#[test]
fn mid_stream_registration_joins_without_draining_ingest() {
    // Slot 3 runs two joiners: it founds a group of its own.
    mid_stream_registration(3, 2);
}

#[test]
fn mid_stream_registration_into_a_live_group() {
    // Slot 2 differs from slot 0 in window and aggregate only: it joins
    // slot 0's group, whose union window widens under way.
    mid_stream_registration(2, 1);
}

#[test]
fn cancelling_the_widest_then_a_middle_member_leaves_the_rest_identical() {
    let events = feed(4500);
    let (first_cut, second_cut) = (1500, 3000);
    let mut rt = ServeRuntime::new(ServeConfig::new()).unwrap();
    // The one-joiner slots: one group, windows 50 to 450 µs.
    let mut members = Vec::new();
    for slot in (0..10).step_by(2) {
        let cfg = cfg_for(slot, 1, IndexBackend::SkipList);
        let (sink, rows) = Sink::collect();
        let id = rt.register(cfg.clone(), sink, None).unwrap();
        members.push((slot, id, cfg, rows));
    }
    assert_eq!(rt.snapshot().groups, 1);

    let mut fed = 0;
    // Slot 8 has the widest window, slot 4 a middle one.
    for (cut, slot) in [(first_cut, 8), (second_cut, 4), (events.len(), usize::MAX)] {
        for ev in &events[fed..cut] {
            rt.push(ev.clone()).unwrap();
        }
        fed = cut;
        let Some(at) = members.iter().position(|m| m.0 == slot) else {
            break;
        };
        let (_, id, cfg, rows) = members.remove(at);
        let stats = rt.cancel(id).unwrap();
        let (full, _) = solo_rows(cfg, &events);
        let want: Vec<FeatureRow> = full.into_iter().filter(|r| r.seq < cut as u64).collect();
        assert_eq!(stats.input_tuples as usize, cut, "slot {slot}");
        assert_eq!(stats.results as usize, want.len(), "slot {slot}");
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        assert_eq!(
            got, want,
            "cancelled slot {slot}: its rows up to the cancel"
        );
        assert_eq!(rt.snapshot().groups, 1);
    }

    for (slot, id, cfg, rows) in members {
        let (want, _) = solo_rows(cfg, &events);
        rt.cancel(id).unwrap();
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        assert_eq!(got, want, "slot {slot} diverged after its group mates left");
    }
}

#[test]
fn a_shed_base_is_charged_once_to_every_member() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let events = feed(3000);
    let bases = snap_bases(&events) as u64;
    let mut rt = ServeRuntime::new(ServeConfig::new().with_shedding()).unwrap();
    // One member's sink takes 2 ms per row: the group's worker stays
    // alive (heartbeats get through) but far behind ingest, so the
    // four-message queue overflows and ingest sheds.
    let stalling = FaultPlan::none()
        .sink_stall_from(0, 0, std::time::Duration::from_millis(2))
        .wrap_sink(0, Sink::null(), Arc::new(AtomicBool::new(false)));
    let mut ids = Vec::new();
    for (slot, sink) in [(0, Sink::null()), (2, stalling), (4, Sink::null())] {
        let mut cfg = cfg_for(slot, 1, IndexBackend::SkipList);
        cfg.channel_capacity = 4;
        ids.push(rt.register(cfg, sink, None).unwrap());
    }
    assert_eq!(rt.snapshot().groups, 1);
    for ev in &events {
        rt.push(ev.clone()).unwrap();
    }
    let live: Vec<u64> = rt.stats().iter().map(|q| q.shed).collect();

    let shed: Vec<u64> = ids
        .into_iter()
        .map(|id| {
            let stats = rt.cancel(id).unwrap();
            // Every base was answered or shed, for this member: once.
            assert_eq!(stats.results + stats.shed_events, bases, "{id}");
            stats.shed_events
        })
        .collect();
    assert!(shed[0] > 0, "the stalled group must have shed");
    assert_eq!(shed, vec![shed[0]; 3], "one charge per member");
    assert_eq!(live, shed, "the live counters agree");
}

#[test]
fn a_faulty_plan_among_sixteen_leaves_every_neighbour_bit_identical() {
    let events = feed(3000);
    let mut rt = ServeRuntime::new(ServeConfig::new()).unwrap();
    let mut healthy = Vec::new();
    for slot in 0..QUERIES {
        let cfg = cfg_for(slot, 1, IndexBackend::SkipList);
        let (sink, rows) = Sink::collect();
        let id = rt.register(cfg.clone(), sink, None).unwrap();
        healthy.push((slot, id, cfg, rows));
    }
    let mut bad = cfg_for(1, 1, IndexBackend::SkipList);
    bad.faults = FaultPlan::none().panic_at(0, 25, "injected serving-plan panic");
    let faulty = rt
        .register(bad, Sink::null(), Some("faulty".into()))
        .unwrap();

    for ev in &events {
        rt.push(ev.clone()).unwrap();
    }

    // The panic is attributed to the faulty plan alone.
    let err = rt.cancel(faulty).unwrap_err();
    assert!(
        matches!(
            err,
            Error::WorkerFailed {
                engine: "serve",
                ..
            }
        ),
        "got {err:?}"
    );

    for (slot, id, cfg, rows) in healthy {
        let (want, _) = solo_rows(cfg, &events);
        rt.cancel(id).unwrap();
        let mut got = rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        assert_eq!(got, want, "neighbour slot {slot} diverged after a fault");
    }
}
