//! # oij-serve — the multi-query feature-serving runtime
//!
//! OpenMLDB's online feature platform does not run one join at a time:
//! many feature queries are served **concurrently over the same ingested
//! stream**, registered and cancelled while ingest keeps flowing. This
//! crate is that long-running layer on top of the engines (DESIGN.md
//! §13):
//!
//! * **Shared single-writer ingest.** The runtime owns one SWMR index
//!   writer for the probe side of the stream; every scan group's workers
//!   scan it through cloned readers. A probe tuple is inserted exactly
//!   *once* no matter how many queries are active — the paper's
//!   shared-store insight, applied across plans instead of across
//!   joiners.
//! * **Shared scan.** Plans whose configurations differ only in window
//!   bounds and aggregate form one *scan group*: one worker team, one
//!   message per base tuple and one index scan over the union window,
//!   from which every member's aggregate is folded. A plan that matches
//!   no group founds one, so a plan running alone is a group of one.
//!   Membership changes travel in band with the base messages.
//! * **Bit-identical serving.** Each base message carries the writer's
//!   probe-insert count at dispatch as a visibility bound; workers
//!   filter their `(ts, seq)`-ordered scans to `seq < bound` (dense
//!   sequence numbers are an index-contract invariant) and fold each
//!   member over the contiguous sub-range its own window covers, so every
//!   query's output — multiset, order, and `f64` accumulation — is
//!   exactly what a solo run over the same events would produce.
//! * **Admission control.** [`ServeRuntime::register`] enforces budgets
//!   (concurrent queries, total joiner threads, per-query channel
//!   memory) and rejects with a reasoned [`Error::Admission`] instead of
//!   degrading everyone.
//! * **Backpressure and shedding.** Every group's fan-out is an engine
//!   [`WorkerPool`] (bounded channels, shared batcher and flush
//!   deadline, guarded sends). In the default lossless mode a stalled
//!   group blocks ingest at most `send_timeout` before it alone is
//!   poisoned; with [`ServeConfig::shed_when_full`] the runtime drops that
//!   group's base messages instead, counting them in every member's
//!   [`RunStats::shed_events`](oij_core::RunStats::shed_events).
//! * **Fault isolation.** Every group gets its own pool: supervised
//!   workers, failure cell, and kill flag. A panic, wedge, or slow sink in
//!   group A surfaces as [`Error::WorkerFailed`] from each of A's members;
//!   group B's output is untouched.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod sync;
mod worker;

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use oij_common::{
    Duration, EmitMode, Error, Event, EventKind, Result, Side, Timestamp, Tuple, WatermarkTracker,
};
use oij_core::instrument::{JoinerInstruments, JoinerReport};
use oij_core::message::Msg;
use oij_core::shell::{Supervision, WorkerPool};
use oij_core::sink::worker_sink_stack;
use oij_core::{hash_key, EngineConfig, RunStats, Sink};
use oij_index::{BackendWriter, IndexBackend, OijIndexWriter};

use crate::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use crate::sync::Mutex;
use crate::worker::{BaseMsg, GroupMsg, GroupWorker, Member, Membership};

/// Worker-failure attribution label for this runtime.
const ENGINE: &str = "serve";

/// Handle of one registered query, returned by
/// [`ServeRuntime::register`] and accepted by
/// [`cancel`](ServeRuntime::cancel)/[`stats`](ServeRuntime::stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl QueryId {
    /// The raw numeric id (stable for the runtime's lifetime).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Budgets and stream-wide knobs of one [`ServeRuntime`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission: maximum concurrently registered queries.
    pub max_queries: usize,
    /// Admission: maximum joiner threads summed over all active queries.
    pub max_total_joiners: usize,
    /// Admission: upper bound on a query's `channel_capacity` (the
    /// per-query memory budget — bounded channels are the only
    /// per-query buffering the runtime allocates).
    pub max_channel_capacity: usize,
    /// Joiner threads given to queries registered from SQL text
    /// ([`ServeRuntime::register_sql`], which has no [`EngineConfig`]).
    pub default_joiners: usize,
    /// Backend of the shared probe index. Per-query
    /// `EngineConfig::index_backend` is ignored: all queries scan the
    /// same store, so the runtime's choice wins.
    pub index_backend: IndexBackend,
    /// Ingest events between central eviction sweeps of the shared
    /// index.
    pub expire_every: usize,
    /// Overload policy: `false` (default) applies backpressure — a full
    /// group channel blocks ingest up to the group's `send_timeout`,
    /// then poisons *that group only*. `true` sheds instead: the base
    /// message is dropped for the full group and counted in every
    /// member's [`RunStats::shed_events`](oij_core::RunStats::shed_events),
    /// and ingest never blocks.
    pub shed_when_full: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_queries: 64,
            max_total_joiners: 256,
            max_channel_capacity: 1 << 16,
            default_joiners: 1,
            index_backend: IndexBackend::default(),
            expire_every: 1024,
            shed_when_full: false,
        }
    }
}

impl ServeConfig {
    /// The default budgets (64 queries / 256 joiners / 64 Ki messages).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the shared-index backend.
    pub fn with_index_backend(mut self, backend: IndexBackend) -> Self {
        self.index_backend = backend;
        self
    }

    /// Replaces the admission budgets.
    pub fn with_budgets(mut self, queries: usize, joiners: usize, capacity: usize) -> Self {
        self.max_queries = queries;
        self.max_total_joiners = joiners;
        self.max_channel_capacity = capacity;
        self
    }

    /// Enables load shedding instead of blocking backpressure.
    pub fn with_shedding(mut self) -> Self {
        self.shed_when_full = true;
        self
    }

    /// Validates invariants; called by [`ServeRuntime::new`].
    pub fn validate(&self) -> Result<()> {
        if self.max_queries == 0 {
            return Err(Error::InvalidConfig("max_queries must be > 0".into()));
        }
        if self.max_total_joiners == 0 {
            return Err(Error::InvalidConfig("max_total_joiners must be > 0".into()));
        }
        if self.max_channel_capacity == 0 {
            return Err(Error::InvalidConfig(
                "max_channel_capacity must be > 0".into(),
            ));
        }
        if self.default_joiners == 0 || self.default_joiners > self.max_total_joiners {
            return Err(Error::InvalidConfig(format!(
                "default_joiners = {} must be in 1..={}",
                self.default_joiners, self.max_total_joiners
            )));
        }
        if self.expire_every == 0 {
            return Err(Error::InvalidConfig("expire_every must be > 0".into()));
        }
        Ok(())
    }
}

/// Live counters of one registered query
/// ([`ServeRuntime::stats`]; final numbers come from
/// [`cancel`](ServeRuntime::cancel)'s [`RunStats`]).
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// The query's handle.
    pub id: QueryId,
    /// Optional `-- name:` label carried from SQL.
    pub name: Option<String>,
    /// Joiner threads the query holds from the admission budget.
    pub joiners: usize,
    /// The scan group the query is a member of: queries with the same
    /// index share one worker team and one scan per base tuple.
    pub group: usize,
    /// Events this query has ingested (probes and bases).
    pub pushed: u64,
    /// Base messages shed under overload (lossy mode only).
    pub shed: u64,
    /// Whether the query's group is poisoned (a worker failed or
    /// stalled); the cause is returned by [`cancel`](ServeRuntime::cancel).
    pub failed: bool,
}

/// Runtime-wide counters ([`ServeRuntime::snapshot`]).
#[derive(Debug, Clone)]
pub struct ServeSnapshot {
    /// Currently registered queries.
    pub active_queries: usize,
    /// Scan groups the registered queries form.
    pub groups: usize,
    /// Worker threads running: the groups' joiners, where the admission
    /// budget counts every query's.
    pub worker_threads: usize,
    /// Events ingested since start.
    pub events: u64,
    /// Probe tuples inserted into the shared index (each exactly once).
    pub probe_inserts: u64,
    /// Probe tuples currently retained by the shared index.
    pub retained: usize,
    /// Probe tuples evicted by the central sweeps.
    pub evicted: u64,
}

/// Admission bookkeeping, shared with any front-end thread that
/// registers or cancels queries.
#[derive(Default)]
struct Ledger {
    active_queries: usize,
    active_joiners: usize,
    /// Active `-- name:` labels → query id (labels are unique while
    /// registered; freed on cancel).
    names: BTreeMap<String, u64>,
}

impl Ledger {
    /// Reserves one query slot, `joiners` threads and (if given) the
    /// `name` for query `id`, or explains which budget refuses.
    fn reserve(
        &mut self,
        cfg: &ServeConfig,
        id: u64,
        joiners: usize,
        name: Option<&str>,
    ) -> Result<()> {
        if self.active_queries + 1 > cfg.max_queries {
            return Err(Error::Admission(format!(
                "concurrent query limit of {} reached",
                cfg.max_queries
            )));
        }
        if self.active_joiners + joiners > cfg.max_total_joiners {
            return Err(Error::Admission(format!(
                "joiner budget exhausted: {} in use of {}, query wants {}",
                self.active_joiners, cfg.max_total_joiners, joiners
            )));
        }
        if let Some(n) = name {
            if self.names.contains_key(n) {
                return Err(Error::Admission(format!(
                    "query name '{n}' is already registered"
                )));
            }
            self.names.insert(n.to_string(), id);
        }
        self.active_queries += 1;
        self.active_joiners += joiners;
        Ok(())
    }

    /// Returns exactly what one successful [`reserve`](Self::reserve)
    /// took.
    fn release(&mut self, joiners: usize, name: Option<&str>) {
        self.active_queries -= 1;
        self.active_joiners -= joiners;
        if let Some(n) = name {
            self.names.remove(n);
        }
    }
}

/// Whether two plans can share a scan group: their configurations differ
/// in nothing the group's one pool, tracker, batcher and worker loop read
/// — only in window bounds and aggregate, which the group worker applies
/// per member. A fault plan addresses one plan's workers and message
/// ordinals, so a plan that carries one always runs alone.
fn shares_scan(a: &EngineConfig, b: &EngineConfig) -> bool {
    a.faults.is_empty()
        && b.faults.is_empty()
        && a.query.window.lateness == b.query.window.lateness
        && a.query.emit == b.query.emit
        && a.joiners == b.joiners
        && a.batch_size == b.batch_size
        && a.channel_capacity == b.channel_capacity
        && a.send_timeout == b.send_timeout
        && a.flush_deadline == b.flush_deadline
        && a.heartbeat_every == b.heartbeat_every
        && a.expire_every == b.expire_every
        && a.late_policy == b.late_policy
        && a.sink_retry == b.sink_retry
        && a.instrument == b.instrument
}

/// What a group counts once for all its members. A member's own numbers
/// are the difference to the snapshot taken when it joined.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    /// Events ingested (probes and bases).
    pushed: u64,
    /// Base messages shed under overload (lossy mode only).
    shed: u64,
    /// Probe-side lateness violations (base-side ones are counted per
    /// member by the workers; the sum matches a solo run's accounting).
    probe_late: u64,
}

impl Counters {
    fn since(self, joined: Counters) -> Counters {
        Counters {
            pushed: self.pushed - joined.pushed,
            shed: self.shed - joined.shed,
            probe_late: self.probe_late - joined.probe_late,
        }
    }
}

/// One registered plan on the ingest side: a member of exactly one
/// [`Group`].
struct Plan {
    name: Option<String>,
    /// Joiner threads reserved from the admission budget.
    joiners: usize,
    /// The plan's window length `PRE + FOL`.
    width: Duration,
    group: usize,
    /// The group's counters when the plan joined it.
    joined: Counters,
    /// Retries of this plan's own sink stacks.
    retries: Arc<AtomicU64>,
    /// Arrival of the first event after the plan joined.
    started: Option<Instant>,
}

/// A scan group: the plans that share one [`WorkerPool`], one watermark
/// tracker, one batcher and one message per base tuple. The ingest thread
/// is the pool's driver. A plan that matches no group founds one, so a
/// plan running alone is a group of one.
struct Group {
    /// What every member shares: the founder's configuration, of which
    /// the window bounds and the aggregate are the founder's alone.
    cfg: EngineConfig,
    tracker: WatermarkTracker,
    /// The group's workers behind the shared engine fabric. A failure
    /// poisons this pool only: its members stop receiving, other groups
    /// are untouched.
    pool: WorkerPool<GroupMsg>,
    /// Per-worker acknowledged watermarks feeding the central evictor.
    acks: Vec<Arc<AtomicI64>>,
    counters: Counters,
    /// Member plan ids, in join order.
    members: Vec<u64>,
    /// The widest member window: what the central evictor must retain
    /// behind the workers' acknowledged progress.
    widest: Duration,
    /// Some member has not seen its first event yet.
    fresh: bool,
}

/// Hands one flushed lane of a group to its workers. Lossless mode is the
/// pool's guarded send (blocks up to `send_timeout`, then poisons the
/// group); lossy mode sheds what a full queue hands back, charged once to
/// every member. Control traffic never comes through here: the pool sends
/// it losslessly itself.
fn deliver(
    lossy: bool,
    shed: &mut u64,
) -> impl FnMut(&mut WorkerPool<GroupMsg>, usize, Msg<GroupMsg>) -> Result<()> + '_ {
    move |pool, worker, out| {
        if !lossy {
            return pool.route(worker, out);
        }
        if let Some(dropped) = pool.try_route(worker, out)? {
            *shed += dropped.tuples() as u64;
        }
        Ok(())
    }
}

impl Group {
    /// Sends every worker one membership change, in band: FIFO with the
    /// base messages dispatched before and after it.
    fn change(&mut self, lossy: bool, mut change: impl FnMut(usize) -> Membership) -> Result<()> {
        let (arrival, watermark) = (Instant::now(), self.tracker.current().time());
        self.pool
            .control(deliver(lossy, &mut self.counters.shed), |worker| {
                GroupMsg::Control {
                    arrival,
                    watermark,
                    change: change(worker),
                }
            })
    }

    /// Takes plan `id` out of every worker behind the bases dispatched so
    /// far and collects its per-worker reports, in worker order. A worker
    /// that died with the request queued, or does not get to it within the
    /// send deadline, loses the whole group: the pool is joined (which
    /// attributes the failure) and stays poisoned for every member.
    fn leave(&mut self, id: u64, lossy: bool) -> Result<Vec<JoinerReport>> {
        self.pool.check()?;
        let workers = self.acks.len();
        let (reply, replies) = mpsc::channel();
        self.change(lossy, |_| Membership::Leave {
            id,
            reply: reply.clone(),
        })?;
        drop(reply);
        let waited = self.cfg.send_timeout;
        let mut reports: Vec<(usize, JoinerReport)> = Vec::with_capacity(workers);
        while reports.len() < workers {
            let Ok(report) = replies.recv_timeout(waited) else {
                let silent = |w: &usize| reports.iter().all(|(replied, _)| replied != w);
                let worker = (0..workers).find(silent).unwrap_or(0);
                self.pool.supervision().raise_kill();
                let joined = self.pool.join_workers();
                let cause = joined.err().unwrap_or(Error::WorkerStalled {
                    engine: ENGINE,
                    worker,
                    waited,
                });
                self.pool.poison(&cause);
                return Err(cause);
            };
            reports.push(report);
        }
        reports.sort_by_key(|(worker, _)| *worker);
        Ok(reports.into_iter().map(|(_, report)| report).collect())
    }

    /// Ends the group behind its last member: flushes, joins every worker
    /// and returns the first failure (the poison, if already set). Workers
    /// are always joined, even on the failure path.
    fn shutdown(mut self) -> Result<()> {
        if self.pool.check().is_ok() {
            // Terminal flush; a failure here poisons and falls through to
            // the joins below so no thread leaks.
            let _ = self.pool.drain(WorkerPool::route);
        }
        if self.pool.check().is_err() {
            self.pool.supervision().raise_kill();
        }
        let _ = self.pool.join_workers(); // recorded as the poison unless one is set
        self.pool.check()
    }
}

/// The serving runtime. One instance per ingested stream; see the
/// [crate docs](self) for the model.
///
/// The runtime itself is driven from one thread (`&mut self` ingest —
/// the single-writer contract of the shared index); its workers are
/// supervised background threads. A debug-assertions tripwire flags any
/// unsound future attempt to touch the writer concurrently.
pub struct ServeRuntime {
    cfg: ServeConfig,
    writer: BackendWriter,
    probe_inserts: u64,
    plans: BTreeMap<u64, Plan>,
    groups: BTreeMap<usize, Group>,
    next_id: u64,
    next_group: usize,
    ledger: Mutex<Ledger>,
    /// Debug tripwire for the single-writer invariant (only read under
    /// `debug_assertions`; release builds keep the ingest path free).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    write_busy: AtomicBool,
    events: u64,
    since_expire: usize,
    evicted: u64,
}

impl ServeRuntime {
    /// A runtime with no registered queries.
    pub fn new(cfg: ServeConfig) -> Result<Self> {
        cfg.validate()?;
        let (writer, _) = cfg.index_backend.build();
        Ok(ServeRuntime {
            writer,
            cfg,
            probe_inserts: 0,
            plans: BTreeMap::new(),
            groups: BTreeMap::new(),
            next_id: 0,
            next_group: 0,
            ledger: Mutex::new("serve_admission", Ledger::default()),
            write_busy: AtomicBool::new(false),
            events: 0,
            since_expire: 0,
            evicted: 0,
        })
    }

    /// Registers a query given as OpenMLDB SQL text (one statement; an
    /// optional `-- name:` label names the plan). Uses
    /// [`ServeConfig::default_joiners`] and engine defaults.
    pub fn register_sql(&mut self, sql: &str, sink: Sink) -> Result<QueryId> {
        let parsed = oij_sql::parse(sql)?;
        let query = parsed.to_oij_query()?;
        let cfg = EngineConfig::new(query, self.cfg.default_joiners)?;
        self.register(cfg, sink, parsed.name)
    }

    /// Registers every `;`-separated statement of a SQL script,
    /// returning the ids in statement order. All-or-nothing: a failed
    /// admission mid-script cancels the statements already admitted.
    pub fn register_script(&mut self, sql: &str, sink: &Sink) -> Result<Vec<QueryId>> {
        let parsed = oij_sql::parse_many(sql)?;
        let mut ids = Vec::with_capacity(parsed.len());
        for stmt in parsed {
            let lowered = stmt.to_oij_query().and_then(|q| {
                EngineConfig::new(q, self.cfg.default_joiners)
                    .and_then(|cfg| self.register(cfg, sink.clone(), stmt.name.clone()))
            });
            match lowered {
                Ok(id) => ids.push(id),
                Err(e) => {
                    for id in ids {
                        let _ = self.cancel(id);
                    }
                    return Err(e);
                }
            }
        }
        Ok(ids)
    }

    /// Registers a query with an explicit engine configuration —
    /// joiners, channel capacity, batching, fault plan (tests) — and an
    /// optional unique name. Runs the admission checks, then joins the
    /// scan group the plan can share or founds one (spawning its
    /// supervised workers); ingest is **not** paused.
    pub fn register(
        &mut self,
        cfg: EngineConfig,
        sink: Sink,
        name: Option<String>,
    ) -> Result<QueryId> {
        cfg.validate()?;
        if cfg.query.emit != EmitMode::Eager {
            return Err(Error::Admission(
                "only eager emission is served (watermark emission needs per-query \
                 buffering the shared-ingest runtime does not provide)"
                    .into(),
            ));
        }
        if cfg.durability.is_some() {
            return Err(Error::Admission(
                "durability is per-engine-run; the serving runtime does not write-ahead-log".into(),
            ));
        }
        if cfg.channel_capacity > self.cfg.max_channel_capacity {
            return Err(Error::Admission(format!(
                "channel_capacity {} exceeds the per-query memory budget of {} messages",
                cfg.channel_capacity, self.cfg.max_channel_capacity
            )));
        }
        let id = self.next_id;
        // Reserve budget before spawning anything; `cfg` moves into the
        // plan, so remember what to hand back if the admission fails.
        let joiners = cfg.joiners;
        self.ledger
            .lock()
            .reserve(&self.cfg, id, joiners, name.as_deref())?;
        match self.admit(id, cfg, sink, name.clone()) {
            Ok(()) => {
                self.next_id += 1;
                Ok(QueryId(id))
            }
            Err(e) => {
                // Nothing was registered: hand the whole reservation back.
                self.ledger.lock().release(joiners, name.as_deref());
                Err(e)
            }
        }
    }

    /// Makes plan `id` a member of the healthy group it can share a scan
    /// with, or the founder of a new one.
    fn admit(
        &mut self,
        id: u64,
        mut cfg: EngineConfig,
        sink: Sink,
        name: Option<String>,
    ) -> Result<()> {
        // All plans scan the shared store; the runtime's backend wins.
        cfg.index_backend = self.cfg.index_backend;
        let shared = self
            .groups
            .iter_mut()
            .find(|(_, g)| g.pool.check().is_ok() && shares_scan(&g.cfg, &cfg));
        let retries = Arc::new(AtomicU64::new(0));
        // A member's sink stacks count their own retries and fail into
        // their group's supervision.
        let sup = Supervision {
            retries: Arc::clone(&retries),
            ..shared
                .as_ref()
                .map(|(_, g)| g.pool.supervision().clone())
                .unwrap_or_default()
        };
        let (joiners, width) = (cfg.joiners, cfg.query.window.length());
        let origin = Instant::now();
        let member = |worker: usize| Member {
            id,
            window: cfg.query.window,
            agg: cfg.query.agg,
            sink: worker_sink_stack(&cfg, worker, sink.clone(), &None, &sup),
            inst: JoinerInstruments::new(&cfg.instrument, origin),
        };
        let (group, joined) = match shared {
            Some((&gid, g)) => {
                g.change(self.cfg.shed_when_full, |w| {
                    Membership::Join(Box::new(member(w)))
                })?;
                g.members.push(id);
                g.widest = g.widest.max(width);
                g.fresh = true;
                (gid, g.counters)
            }
            None => {
                let gid = self.next_group;
                let acks: Vec<_> = (0..cfg.joiners)
                    .map(|_| Arc::new(AtomicI64::new(i64::MIN)))
                    .collect();
                let workers = acks
                    .iter()
                    .enumerate()
                    .map(|(w, ack)| {
                        GroupWorker::new(w, self.writer.reader(), Arc::clone(ack), member(w))
                    })
                    .collect();
                let prefix = format!("oij-serve-g{gid}-w");
                // Unicast lanes, heartbeats on: a group routes like Key-OIJ.
                let pool =
                    WorkerPool::spawn(ENGINE, &prefix, &cfg, cfg.joiners, true, sup, workers)?;
                self.next_group += 1;
                self.groups.insert(
                    gid,
                    Group {
                        tracker: WatermarkTracker::new(cfg.query.window.lateness),
                        pool,
                        acks,
                        counters: Counters::default(),
                        members: vec![id],
                        widest: width,
                        fresh: true,
                        cfg,
                    },
                );
                (gid, Counters::default())
            }
        };
        self.plans.insert(
            id,
            Plan {
                name,
                joiners,
                width,
                group,
                joined,
                retries,
                started: None,
            },
        );
        Ok(())
    }

    /// Deregisters a query without draining shared ingest: takes it out of
    /// its group's workers behind the bases dispatched so far (the last
    /// member's cancel also flushes and joins them), frees its admission
    /// budget, and returns its final [`RunStats`] — or the failure that
    /// poisoned its group ([`Error::WorkerFailed`]/[`Error::WorkerStalled`],
    /// the same from every member's cancel).
    pub fn cancel(&mut self, id: QueryId) -> Result<RunStats> {
        let plan = self
            .plans
            .remove(&id.0)
            .ok_or_else(|| Error::InvalidState(format!("unknown query {id}")))?;
        self.ledger
            .lock()
            .release(plan.joiners, plan.name.as_deref());
        let group = self
            .groups
            .get_mut(&plan.group)
            .expect("a group outlives its members");
        let reports = group.leave(id.0, self.cfg.shed_when_full);
        let counted = group.counters.since(plan.joined);
        group.members.retain(|&m| m != id.0);
        let widths = group.members.iter().map(|m| self.plans[m].width);
        group.widest = widths.max().unwrap_or(Duration::ZERO);
        let ended = if group.members.is_empty() {
            self.groups.remove(&plan.group).map(Group::shutdown)
        } else {
            None
        };
        let reports = reports?;
        ended.transpose()?;
        let elapsed = plan
            .started
            .map(|s| s.elapsed())
            .unwrap_or_else(|| std::time::Duration::from_nanos(1));
        let mut stats = RunStats::from_reports(counted.pushed, elapsed, reports, 0);
        stats.late_violations += counted.probe_late;
        stats.shed_events = counted.shed;
        // ORDERING: Relaxed — statistics counter; read after the plan's sink stacks left every worker.
        stats.sink_retries = plan.retries.load(Ordering::Relaxed);
        Ok(stats)
    }

    /// Cancels every remaining query (shutdown path); per-query results
    /// in registration order.
    pub fn finish(&mut self) -> Vec<(QueryId, Result<RunStats>)> {
        let ids: Vec<u64> = self.plans.keys().copied().collect();
        ids.into_iter()
            .map(|id| (QueryId(id), self.cancel(QueryId(id))))
            .collect()
    }

    /// Resolves an active query's `-- name:` label.
    pub fn lookup(&self, name: &str) -> Option<QueryId> {
        self.ledger.lock().names.get(name).copied().map(QueryId)
    }

    /// Live per-query counters, in registration order.
    pub fn stats(&self) -> Vec<QueryStats> {
        self.plans
            .iter()
            .map(|(&id, plan)| {
                let group = self
                    .groups
                    .get(&plan.group)
                    .expect("a group outlives its members");
                let counted = group.counters.since(plan.joined);
                QueryStats {
                    id: QueryId(id),
                    name: plan.name.clone(),
                    joiners: plan.joiners,
                    group: plan.group,
                    pushed: counted.pushed,
                    shed: counted.shed,
                    failed: group.pool.check().is_err(),
                }
            })
            .collect()
    }

    /// Runtime-wide counters.
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            active_queries: self.plans.len(),
            groups: self.groups.len(),
            worker_threads: self.groups.values().map(|g| g.acks.len()).sum(),
            events: self.events,
            probe_inserts: self.probe_inserts,
            retained: self.writer.len(),
            evicted: self.evicted,
        }
    }

    /// Feeds one event to every scan group. Probes are indexed once in
    /// the shared store; a base goes out once per group, with a visibility
    /// bound. Per-group failures are contained (the failing group is
    /// poisoned and skipped; see [`stats`](Self::stats) and
    /// [`cancel`](Self::cancel)) — `push` itself only fails on runtime-
    /// level misuse.
    pub fn push(&mut self, event: Event) -> Result<()> {
        self.push_at(event, Instant::now())
    }

    /// [`push`](Self::push) with an explicit arrival instant, from which
    /// per-row latency is measured. Open-loop load generators pass the
    /// event's **scheduled** arrival here (which may be in the past when
    /// the feeder fell behind), so queueing delay accumulated while
    /// ingest was backed up is charged to the runtime instead of being
    /// silently omitted (coordinated omission).
    pub fn push_at(&mut self, event: Event, arrival: Instant) -> Result<()> {
        match event.kind {
            // A flush marker ends one *feed*, not the service: queries
            // are long-running and are ended individually by `cancel`.
            EventKind::Flush => Ok(()),
            EventKind::Data { side, tuple } => {
                self.dispatch(event.seq, side, tuple, arrival);
                Ok(())
            }
        }
    }

    fn dispatch(&mut self, seq: u64, side: Side, tuple: Tuple, now: Instant) {
        self.events += 1;
        if side == Side::Probe {
            self.writer_enter();
            self.writer.insert(tuple);
            self.writer_exit();
            self.probe_inserts += 1;
        }
        let bound = self.probe_inserts;
        let lossy = self.cfg.shed_when_full;
        for g in self.groups.values_mut() {
            if g.pool.check().is_err() {
                continue;
            }
            if g.fresh {
                g.fresh = false;
                for member in &g.members {
                    if let Some(plan) = self.plans.get_mut(member) {
                        plan.started.get_or_insert(now);
                    }
                }
            }
            // Pre-observation stamp, exactly as the engine drivers do.
            // STAMP: stamp-observe.pre
            let watermark = g.tracker.current().time();
            // STAMP: stamp-observe.post
            g.tracker.observe(tuple.ts);
            g.counters.pushed += 1;
            let hand_over = deliver(lossy, &mut g.counters.shed);
            // Isolation: a failed route poisons g's pool only. Probes
            // send nothing on this edge but still advance the group's driver
            // time: flush deadlines and heartbeats keep their cadence.
            let _ = match side {
                Side::Probe => {
                    if tuple.ts < watermark {
                        g.counters.probe_late += 1;
                    }
                    g.pool.tick(now, watermark, hand_over)
                }
                Side::Base => {
                    let j = (hash_key(tuple.key) % g.cfg.joiners as u64) as usize;
                    let msg = GroupMsg::Base(BaseMsg {
                        tuple,
                        seq,
                        arrival: now,
                        watermark,
                        bound,
                    });
                    g.pool.dispatch(j, msg, hand_over)
                }
            };
        }
        self.since_expire += 1;
        if self.since_expire >= self.cfg.expire_every {
            self.since_expire = 0;
            self.expire();
        }
    }

    /// Central eviction of the shared index: conservative over every
    /// group's *acknowledged* progress, so a backlogged worker's pending
    /// scans never lose probes. (A solo engine evicts at its own
    /// `last_wm − window length`; the shared store must take the
    /// minimum, over watermarks the workers have actually caught up to,
    /// less each group's widest member window.)
    fn expire(&mut self) {
        let mut bound: Option<Timestamp> = None;
        for g in self.groups.values() {
            if g.pool.check().is_err() {
                // A poisoned group's workers may be gone and will never
                // acknowledge again; its output is already void, so it
                // no longer pins retention.
                continue;
            }
            let mut g_min = i64::MAX;
            for ack in &g.acks {
                // ORDERING: Acquire — pairs with the workers' Release fetch_max publications, so acknowledged scans are complete before we trust the watermark.
                g_min = g_min.min(ack.load(Ordering::Acquire));
            }
            if g_min == i64::MIN {
                // Some worker has not acknowledged anything yet
                // (group founded mid-stream or idle slice): retain all.
                return;
            }
            let cand = Timestamp::from_micros(g_min).saturating_sub(g.widest);
            bound = Some(match bound {
                None => cand,
                Some(b) => b.min(cand),
            });
        }
        if let Some(b) = bound {
            if b > Timestamp::MIN {
                self.writer_enter();
                self.evicted += self.writer.evict_below(b) as u64;
                self.writer_exit();
            }
        }
    }

    /// Single-writer tripwire (debug builds): every mutation of the
    /// shared index must be bracketed by enter/exit; any overlap —
    /// which the `&mut self` API should make impossible — panics
    /// instead of corrupting readers.
    #[inline]
    fn writer_enter(&self) {
        #[cfg(debug_assertions)]
        {
            // ORDERING: AcqRel — the swap both claims the writer (Acquire: later index writes cannot float above it) and publishes the claim (Release).
            let was = self.write_busy.swap(true, Ordering::AcqRel);
            assert!(
                !was,
                "single-writer invariant violated: concurrent access to the shared index writer"
            );
        }
    }

    #[inline]
    fn writer_exit(&self) {
        #[cfg(debug_assertions)]
        {
            // ORDERING: Release — index writes made under the claim are published before it is dropped.
            self.write_busy.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oij_common::{AggSpec, Duration, OijQuery};
    use oij_core::faults::FaultPlan;
    use oij_core::{KeyOij, OijEngine};

    fn query(pre: i64, lateness: i64) -> OijQuery {
        OijQuery::builder()
            .preceding(Duration::from_micros(pre))
            .lateness(Duration::from_micros(lateness))
            .agg(AggSpec::Sum)
            .emit(EmitMode::Eager)
            .build()
            .unwrap()
    }

    #[test]
    fn ledger_release_returns_exactly_what_reserve_took() {
        let budgets = ServeConfig::new().with_budgets(2, 5, 16);
        let mut ledger = Ledger::default();
        ledger.reserve(&budgets, 0, 3, Some("a")).unwrap();
        ledger.reserve(&budgets, 1, 2, None).unwrap();
        // Each budget refuses on its own, and a refusal reserves nothing.
        let full = ledger.reserve(&budgets, 2, 1, Some("c")).unwrap_err();
        assert!(full.to_string().contains("query limit"), "{full}");
        ledger.release(2, None);
        let joiners = ledger.reserve(&budgets, 2, 3, Some("c")).unwrap_err();
        assert!(joiners.to_string().contains("joiner budget"), "{joiners}");
        let name = ledger.reserve(&budgets, 2, 1, Some("a")).unwrap_err();
        assert!(name.to_string().contains("already registered"), "{name}");
        assert!(!ledger.names.contains_key("c"));
        ledger.release(3, Some("a"));
        assert_eq!((ledger.active_queries, ledger.active_joiners), (0, 0));
        assert!(ledger.names.is_empty());
    }

    fn events(n: u64) -> Vec<Event> {
        // Deterministic interleaved stream over a handful of keys with
        // mild compliant disorder.
        (0..n)
            .map(|i| {
                let ts = (i * 7 % 9 + i * 5) as i64;
                let side = if i % 3 == 0 { Side::Base } else { Side::Probe };
                Event::data(
                    i,
                    side,
                    Tuple::new(Timestamp::from_micros(ts), i % 4, i as f64 * 0.5),
                )
            })
            .collect()
    }

    #[test]
    fn one_served_query_matches_a_solo_engine_run() {
        let cfg = EngineConfig::new(query(40, 20), 2).unwrap();
        let (solo_sink, solo_rows) = Sink::collect();
        let mut solo = KeyOij::spawn(cfg.clone(), solo_sink).unwrap();
        let mut rt = ServeRuntime::new(ServeConfig::new()).unwrap();
        let (sink, rows) = Sink::collect();
        let id = rt.register(cfg, sink, None).unwrap();
        for ev in events(500) {
            solo.push(ev.clone()).unwrap();
            rt.push(ev).unwrap();
        }
        let solo_stats = solo.finish().unwrap();
        let stats = rt.cancel(id).unwrap();
        let mut a = solo_rows.lock().clone();
        let mut b = rows.lock().clone();
        a.sort_by_key(|r| r.seq);
        b.sort_by_key(|r| r.seq);
        assert_eq!(a, b, "served rows must be bit-identical to the solo run");
        assert_eq!(stats.results, solo_stats.results);
        assert_eq!(stats.late_violations, solo_stats.late_violations);
        assert_eq!(stats.shed_events, 0);
    }

    #[test]
    fn admission_budgets_reject_with_reasons() {
        let mut rt = ServeRuntime::new(ServeConfig::new().with_budgets(2, 3, 1 << 12)).unwrap();
        let cfg = |j| EngineConfig::new(query(10, 0), j).unwrap();
        let a = rt.register(cfg(2), Sink::null(), Some("a".into())).unwrap();
        // Joiner budget: 2 of 3 in use, next wants 2.
        let err = rt.register(cfg(2), Sink::null(), None).unwrap_err();
        assert!(matches!(err, Error::Admission(ref r) if r.contains("joiner budget")));
        let _b = rt.register(cfg(1), Sink::null(), Some("b".into())).unwrap();
        // Query-count limit.
        let err = rt.register(cfg(1), Sink::null(), None).unwrap_err();
        assert!(matches!(err, Error::Admission(ref r) if r.contains("query limit")));
        // Cancelling frees the budget.
        rt.cancel(a).unwrap();
        // Duplicate name while active.
        let err = rt
            .register(cfg(1), Sink::null(), Some("b".into()))
            .unwrap_err();
        assert!(matches!(err, Error::Admission(ref r) if r.contains("already registered")));
        let a2 = rt.register(cfg(2), Sink::null(), Some("a".into())).unwrap();
        assert_eq!(rt.lookup("a"), Some(a2));
        // Memory budget.
        let mut big = cfg(1);
        big.channel_capacity = 1 << 13;
        let err = rt.register(big, Sink::null(), None).unwrap_err();
        assert!(matches!(err, Error::Admission(ref r) if r.contains("memory budget")));
        // Watermark emission is not served.
        let wm_query = OijQuery::builder()
            .preceding(Duration::from_micros(10))
            .agg(AggSpec::Sum)
            .emit(EmitMode::Watermark)
            .build()
            .unwrap();
        let err = rt
            .register(EngineConfig::new(wm_query, 1).unwrap(), Sink::null(), None)
            .unwrap_err();
        assert!(matches!(err, Error::Admission(ref r) if r.contains("eager")));
    }

    #[test]
    fn sql_registration_carries_names() {
        let mut rt = ServeRuntime::new(ServeConfig::new()).unwrap();
        let sql = "-- name: spend\n\
                   SELECT SUM(value) OVER w FROM base WINDOW w AS (UNION probe \
                   PARTITION BY key ORDER BY ts ROWS_RANGE BETWEEN 100 PRECEDING AND CURRENT ROW)";
        let id = rt.register_sql(sql, Sink::null()).unwrap();
        assert_eq!(rt.lookup("spend"), Some(id));
        let stats = rt.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name.as_deref(), Some("spend"));
        assert_eq!(rt.cancel(id).unwrap().results, 0);
        assert_eq!(rt.lookup("spend"), None);
        assert!(rt.stats().is_empty());
    }

    #[test]
    fn a_panicking_query_is_isolated_from_its_neighbour() {
        let mut rt = ServeRuntime::new(ServeConfig::new()).unwrap();
        let cfg = EngineConfig::new(query(40, 20), 1).unwrap();
        // Healthy twin for comparison.
        let (sink_b, rows_b) = Sink::collect();
        let b = rt.register(cfg.clone(), sink_b, None).unwrap();
        let mut bad = cfg.clone();
        bad.faults = FaultPlan::none().panic_at(0, 10, "injected worker panic");
        let a = rt.register(bad, Sink::null(), None).unwrap();
        for ev in events(400) {
            rt.push(ev).unwrap();
        }
        let err = rt.cancel(a).unwrap_err();
        assert!(matches!(
            err,
            Error::WorkerFailed {
                engine: "serve",
                ..
            }
        ));
        // B is bit-identical to a solo run over the same events.
        let (solo_sink, solo_rows) = Sink::collect();
        let mut solo = KeyOij::spawn(cfg, solo_sink).unwrap();
        for ev in events(400) {
            solo.push(ev).unwrap();
        }
        solo.finish().unwrap();
        rt.cancel(b).unwrap();
        let mut got = rows_b.lock().clone();
        let mut want = solo_rows.lock().clone();
        got.sort_by_key(|r| r.seq);
        want.sort_by_key(|r| r.seq);
        assert_eq!(got, want, "the healthy neighbour must be unaffected");
    }

    #[test]
    fn eviction_keeps_the_shared_store_bounded() {
        let mut rt = ServeRuntime::new(ServeConfig {
            expire_every: 128,
            ..ServeConfig::new()
        })
        .unwrap();
        // Nested windows, one group: 50 µs inside 4 000 µs. The short
        // channel makes ingest wait for the worker, so its acknowledgements
        // trail by at most some twenty bases and retention is bounded by
        // arithmetic, not by timing.
        let cfg = |pre| {
            let mut cfg = EngineConfig::new(query(pre, 10), 1).unwrap();
            cfg.heartbeat_every = 64;
            cfg.channel_capacity = 16;
            cfg
        };
        let narrow = rt.register(cfg(50), Sink::null(), None).unwrap();
        let wide = rt.register(cfg(4_000), Sink::null(), None).unwrap();
        assert_eq!(rt.snapshot().groups, 1);
        // One tuple per µs, seven probes in eight.
        let mut feed = (0..40_000u64).map(|i| {
            let side = if i % 8 == 0 { Side::Base } else { Side::Probe };
            Event::data(
                i,
                side,
                Tuple::new(Timestamp::from_micros(i as i64), i % 3, 1.0),
            )
        });
        for ev in feed.by_ref().take(20_000) {
            rt.push(ev).unwrap();
        }
        let snap = rt.snapshot();
        assert!(snap.evicted > 0, "central eviction must have fired");
        assert!(
            (3_500..4_500).contains(&snap.retained),
            "retention must track the widest member's window, not the stream and not the \
             narrowest member: {} tuples live",
            snap.retained
        );
        // Behind the widest member's cancel, retention follows the
        // remaining one.
        assert_eq!(rt.cancel(wide).unwrap().input_tuples, 20_000);
        for ev in feed {
            rt.push(ev).unwrap();
        }
        let retained = rt.snapshot().retained;
        assert!(
            retained < 1_000,
            "retention must shrink to the remaining member's window: {retained} tuples live"
        );
        rt.cancel(narrow).unwrap();
    }

    #[test]
    fn members_keep_their_solo_effectiveness() {
        // In-order timestamps and no following offset: every index node a
        // member's own window scan visits is visible, so each member's
        // effectiveness is exactly 1 — alone or in a group. Charging a
        // member the union scan's visits would dilute the narrow one to
        // about 40 / 400.
        let mut rt = ServeRuntime::new(ServeConfig::new()).unwrap();
        let cfg = |pre| {
            EngineConfig::new(query(pre, 0), 1)
                .unwrap()
                .with_instrument(oij_core::Instrumentation::full())
        };
        let alone = rt.register(cfg(40), Sink::null(), None).unwrap();
        // Latency histograms only: another instrumentation, another group.
        let other = cfg(40).with_instrument(oij_core::Instrumentation::latency());
        let apart = rt.register(other, Sink::null(), None).unwrap();
        let wide = rt.register(cfg(400), Sink::null(), None).unwrap();
        let groups: Vec<usize> = rt.stats().iter().map(|q| q.group).collect();
        assert_eq!(groups, vec![0, 1, 0]);
        for i in 0..4_000u64 {
            let side = if i % 4 == 0 { Side::Base } else { Side::Probe };
            let tuple = Tuple::new(Timestamp::from_micros(i as i64), i % 2, 1.0);
            rt.push(Event::data(i, side, tuple)).unwrap();
        }
        for id in [alone, wide] {
            let stats = rt.cancel(id).unwrap();
            assert_eq!(stats.results, 1_000);
            assert_eq!(stats.effectiveness, Some(1.0), "{id}");
        }
        assert_eq!(rt.cancel(apart).unwrap().effectiveness, None);
    }

    /// A user sink that fails (`stall: false`) or stalls from its fifth
    /// row on; the returned flag releases a stalled one.
    fn bad_sink(stall: bool) -> (Sink, Arc<AtomicBool>) {
        let release = Arc::new(AtomicBool::new(false));
        let plan = if stall {
            FaultPlan::none().sink_stall_from(0, 5, std::time::Duration::from_secs(30))
        } else {
            FaultPlan::none().sink_fail_at(0, 5)
        };
        (
            plan.wrap_sink(0, Sink::null(), Arc::clone(&release)),
            release,
        )
    }

    #[test]
    fn a_group_failure_reaches_every_member() {
        for stall in [false, true] {
            let mut rt = ServeRuntime::new(ServeConfig::new()).unwrap();
            let cfg = |pre| {
                let mut cfg = EngineConfig::new(query(pre, 20), 1).unwrap();
                cfg.send_timeout = std::time::Duration::from_millis(50);
                cfg
            };
            // The fault sits in one member's own sink; its plan is empty,
            // so the three plans share a group.
            let (sink, release) = bad_sink(stall);
            let ids = [
                rt.register(cfg(40), Sink::null(), None).unwrap(),
                rt.register(cfg(60), sink, None).unwrap(),
                rt.register(cfg(80), Sink::null(), None).unwrap(),
            ];
            assert_eq!(rt.snapshot().groups, 1);
            for ev in events(400) {
                rt.push(ev).unwrap();
            }
            let errs: Vec<Error> = ids.map(|id| rt.cancel(id).unwrap_err()).into();
            // ORDERING: Release — pairs with the stalled sink's Acquire poll.
            release.store(true, Ordering::Release);
            match &errs[0] {
                Error::WorkerStalled { engine, .. } if stall => assert_eq!(*engine, "serve"),
                Error::WorkerFailed { engine, cause, .. } if !stall => {
                    assert_eq!(*engine, "serve");
                    assert!(cause.contains("injected sink failure"), "{cause}");
                }
                other => panic!("stall = {stall}: got {other:?}"),
            }
            assert!(
                errs.iter().all(|e| e.to_string() == errs[0].to_string()),
                "every member must report the group's one failure: {errs:?}"
            );
            assert_eq!(rt.snapshot().groups, 0);
        }
    }
}
