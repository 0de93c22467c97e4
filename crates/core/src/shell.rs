//! The engine shell: everything between `push` and the join algorithm
//! that does not depend on which algorithm it is (DESIGN.md "Engine
//! shell"), so it exists exactly once:
//!
//! * [`WorkerPool`] — the driver→joiner edge, generic over the payload
//!   (the engines' `DataMsg`, the serving runtime's base-tuple message):
//!   channels, batcher, guarded send, heartbeat cadence, supervision and
//!   bounded teardown.
//! * `EngineShell` — `Driver` + pool + routing policy + optional auxiliary
//!   thread: the only real [`OijEngine`] implementation; the four public
//!   engine types wrap one each and forward.
//! * `run_worker` — the one receive loop, over the [`Joiner`] trait.
//!
//! Policy and joiner are generic parameters: every call on the per-tuple
//! path is monomorphised — no `dyn`, no field added to the messages and
//! no clock read added per tuple.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};
use oij_common::{Error, Event, Result, Timestamp};
use oij_durability::DurabilityRuntime;

use crate::batch::{Batcher, SlotPool};
use crate::config::EngineConfig;
use crate::driver::Driver;
use crate::engine::{OijEngine, RunStats};
use crate::faults::{
    join_within, run_supervised, send_guarded, FailureCell, FaultAction, WorkerFaults,
};
use crate::hash_key;
use crate::instrument::{JoinerInstruments, JoinerReport};
use crate::message::{DataMsg, Msg, Payload};
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The supervision state all threads of one pool share: the first-failure
/// cell, the kill latch that releases wedged or stalled workers at
/// teardown, and the sink-retry counter.
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// First recorded worker failure (see [`FailureCell`]).
    pub failures: Arc<FailureCell>,
    /// Teardown latch polled by injected wedges, stalls and barriers.
    pub kill: Arc<AtomicBool>,
    /// Sink emissions re-attempted under the retry policy.
    pub retries: Arc<AtomicU64>,
}

impl Supervision {
    /// Raises the kill latch.
    pub fn raise_kill(&self) {
        // ORDERING: Release — pairs with the workers' Acquire `kill` loads (fault supervision paths), so teardown state precedes the flag.
        self.kill.store(true, Ordering::Release);
    }
}

/// What one worker thread plugs into the shared receive loop: the join
/// algorithm, and nothing about channels, faults or batching.
pub trait Joiner<T>: Sized {
    /// The worker's instrument bundle. The loop records protocol
    /// shadowing, batch occupancy and busy time into it.
    fn instruments(&mut self) -> &mut JoinerInstruments;
    /// A watermark heartbeat (never sent ahead of parked data). Never
    /// called on edges whose routing policy sends none.
    fn on_heartbeat(&mut self, _watermark: Timestamp) {}
    /// One data message.
    fn on_data(&mut self, msg: T);
    /// One coalesced run. Must be semantically identical to calling
    /// [`on_data`](Self::on_data) per message, which is what the default
    /// does; override only to amortize work across the run. The loop
    /// clears and recycles the buffer afterwards.
    fn on_batch(&mut self, msgs: &mut Vec<T>) {
        for msg in msgs.drain(..) {
            self.on_data(msg);
        }
    }
    /// Clean end of input — the terminal `Flush`, or a disconnect at
    /// teardown. Not called after a fault-plan exit: a dead worker drains
    /// nothing.
    fn on_end(&mut self) {}
    /// The final report.
    fn into_report(self) -> JoinerReport;
}

/// The one receive loop of the driver→joiner edge.
fn run_worker<T: Payload, J: Joiner<T>>(
    mut joiner: J,
    rx: Receiver<Msg<T>>,
    faults: Option<WorkerFaults>,
    kill: &AtomicBool,
    recycle: &SlotPool<Vec<T>>,
) -> JoinerReport {
    let timeline_on = joiner.instruments().timeline.is_some();
    let mut ordinal = 0u64;
    for msg in rx {
        match msg {
            Msg::Flush => {
                joiner.instruments().proto.finish();
                break;
            }
            Msg::Heartbeat(wm) => {
                joiner.instruments().proto.heartbeat(wm);
                joiner.on_heartbeat(wm);
            }
            Msg::Data(data) => {
                joiner.instruments().proto.data(data.watermark());
                // The one never-taken branch per message the empty
                // fault plan costs.
                if let Some(f) = &faults {
                    let action = f.before_message(ordinal, kill);
                    ordinal += 1;
                    if action == FaultAction::Exit {
                        return joiner.into_report();
                    }
                }
                let busy_start = timeline_on.then(Instant::now);
                joiner.on_data(*data);
                if let Some(s) = busy_start {
                    joiner.instruments().record_busy(s);
                }
            }
            Msg::Batch(mut batch) => {
                let inst = joiner.instruments();
                inst.record_batch(batch.msgs.len());
                inst.proto.batch(batch.msgs.len());
                for m in &batch.msgs {
                    inst.proto.data(m.watermark());
                }
                let busy_start = timeline_on.then(Instant::now);
                if let Some(f) = &faults {
                    // Fault ordinals address individual data messages
                    // inside the batch, so an injection point that is
                    // not on a batch boundary still fires exactly
                    // there, mid-batch.
                    for msg in batch.msgs.drain(..) {
                        let action = f.before_message(ordinal, kill);
                        ordinal += 1;
                        if action == FaultAction::Exit {
                            return joiner.into_report();
                        }
                        joiner.on_data(msg);
                    }
                } else {
                    joiner.on_batch(&mut batch.msgs);
                }
                if let Some(s) = busy_start {
                    joiner.instruments().record_busy(s);
                }
                // Recycle the (emptied) buffer; a full pool just
                // drops it.
                batch.msgs.clear();
                let _ = recycle.put(batch.msgs);
            }
        }
    }
    joiner.on_end();
    joiner.into_report()
}

/// The driver side of the driver→joiner edge plus the supervised worker
/// threads behind it. See the [module docs](self).
///
/// `dispatch`, `tick` and `drain` take the function that hands a flushed
/// lane to the workers: the engines' routing policy ([`route`](Self::route)
/// or [`broadcast`](Self::broadcast)), or the serving runtime's, which sheds
/// what [`try_route`](Self::try_route) hands back — lossy delivery never
/// becomes a mode of the pool itself.
pub struct WorkerPool<T: Payload> {
    engine: &'static str,
    send_timeout: StdDuration,
    /// `None`: this edge carries no heartbeats.
    heartbeat_every: Option<usize>,
    since_heartbeat: usize,
    senders: Vec<Sender<Msg<T>>>,
    handles: Vec<JoinHandle<Option<JoinerReport>>>,
    /// Reports salvaged from workers joined so far (kept across a failed
    /// drain so an abort can account partial output).
    reports: Vec<JoinerReport>,
    sup: Supervision,
    /// First observed failure: once set, the owner fails fast with it.
    poison: Option<Error>,
    /// Per-lane coalescing buffers (pass-through when `batch_size == 1`).
    batcher: Batcher<T>,
}

impl<T: Payload> WorkerPool<T> {
    /// Spawns one supervised worker thread per joiner, each behind its own
    /// bounded channel. `engine` labels failures; threads are named
    /// `thread_prefix` + worker index; `cfg` supplies channel capacity,
    /// send deadline, batching, heartbeat cadence and fault plan. `lanes`
    /// counts coalescing buffers (one per worker under unicast routing,
    /// one for the group under broadcast); `heartbeats`: whether the edge
    /// carries any.
    pub fn spawn<J>(
        engine: &'static str,
        thread_prefix: &str,
        cfg: &EngineConfig,
        lanes: usize,
        heartbeats: bool,
        sup: Supervision,
        joiners: Vec<J>,
    ) -> Result<Self>
    where
        J: Joiner<T> + Send + 'static,
    {
        // Sized so every destination can have a buffer in flight plus a
        // few spares (under broadcast every worker returns its own clone);
        // overflow just means one fresh allocation per batch.
        let recycle = Arc::new(SlotPool::new(joiners.len() * 8 + 16));
        let mut senders = Vec::with_capacity(joiners.len());
        let mut handles = Vec::with_capacity(joiners.len());
        for (id, joiner) in joiners.into_iter().enumerate() {
            // CHANNEL: driver -> joiner (one bounded queue per worker; the serving runtime's ingest thread is the driver of each plan's pool)
            let (tx, rx) = bounded::<Msg<T>>(cfg.channel_capacity);
            let faults = cfg.faults.for_worker(id, engine, id, &sup.failures);
            let (wsup, wrecycle) = (sup.clone(), Arc::clone(&recycle));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{thread_prefix}{id}"))
                    .spawn(move || {
                        run_supervised(engine, id, &wsup.failures, || {
                            run_worker(joiner, rx, faults, &wsup.kill, &wrecycle)
                        })
                    })
                    .map_err(|e| Error::InvalidState(format!("spawn failed: {e}")))?,
            );
            senders.push(tx);
        }
        Ok(WorkerPool {
            engine,
            send_timeout: cfg.send_timeout,
            heartbeat_every: heartbeats.then_some(cfg.heartbeat_every),
            since_heartbeat: 0,
            senders,
            handles,
            reports: Vec::new(),
            sup,
            poison: None,
            batcher: Batcher::new(lanes, cfg.batch_size, cfg.flush_deadline, recycle),
        })
    }

    /// Fails fast with the first observed failure, if any.
    #[inline]
    pub fn check(&self) -> Result<()> {
        match &self.poison {
            Some(cause) => Err(cause.clone()),
            None => Ok(()),
        }
    }

    /// Records `e` as the poison unless an earlier failure already is.
    pub fn poison(&mut self, e: &Error) {
        if self.poison.is_none() {
            self.poison = Some(e.clone());
        }
    }

    /// The pool's shared supervision state.
    pub fn supervision(&self) -> &Supervision {
        &self.sup
    }

    /// Non-blocking [`route`](Self::route): hands the message back when
    /// the worker's queue is full, so the caller decides what overload
    /// means (the serving runtime sheds). A dead worker takes the guarded
    /// path, which waits briefly for the supervisor's attribution and
    /// reports the real cause.
    pub fn try_route(&mut self, worker: usize, msg: Msg<T>) -> Result<Option<Msg<T>>> {
        match self.senders[worker].try_send(msg) {
            Ok(()) => Ok(None),
            Err(TrySendError::Full(back)) => Ok(Some(back)),
            Err(TrySendError::Disconnected(m)) => self.route(worker, m).map(|()| None),
        }
    }

    /// Routed send with the configured deadline; a failure poisons the
    /// pool.
    #[inline]
    pub fn route(&mut self, worker: usize, msg: Msg<T>) -> Result<()> {
        let sent = send_guarded(
            &self.senders[worker],
            msg,
            self.send_timeout,
            self.engine,
            worker,
            &self.sup.failures,
        );
        if let Err(e) = &sent {
            self.poison(e);
        }
        sent
    }

    /// The SplitJoin distribution tree: every worker gets the message
    /// (the last one receives the original, the rest clones).
    pub fn broadcast(&mut self, msg: Msg<T>) -> Result<()>
    where
        T: Clone,
    {
        let last = self.senders.len() - 1;
        for j in 0..last {
            self.route(j, msg.clone())?;
        }
        self.route(last, msg)
    }

    /// Coalesces one data message into `lane`, then [`tick`](Self::tick)s.
    #[inline]
    pub fn dispatch(
        &mut self,
        lane: usize,
        msg: T,
        mut deliver: impl FnMut(&mut Self, usize, Msg<T>) -> Result<()>,
    ) -> Result<()> {
        // The arrival stamp doubles as "now" for the flush deadline, so
        // batching adds no clock reads per tuple.
        let (now, watermark) = (msg.arrival(), msg.watermark());
        if let Some(out) = self.batcher.push(lane, msg) {
            deliver(self, lane, out)?;
        }
        self.tick(now, watermark, deliver)
    }

    /// One step of driver time: flushes lanes whose oldest tuple is past
    /// the flush deadline as of `now` (one branch while nothing is parked),
    /// then advances the heartbeat cadence. Call it for every ingested
    /// event, also one that sends nothing here, so a trickle never parks.
    #[inline]
    pub fn tick(
        &mut self,
        now: Instant,
        watermark: Timestamp,
        mut deliver: impl FnMut(&mut Self, usize, Msg<T>) -> Result<()>,
    ) -> Result<()> {
        while let Some((lane, out)) = self.batcher.pop_expired(now) {
            deliver(self, lane, out)?;
        }
        let Some(every) = self.heartbeat_every else {
            return Ok(());
        };
        self.since_heartbeat += 1;
        if self.since_heartbeat >= every {
            self.since_heartbeat = 0;
            // Flush-before-heartbeat: a heartbeat must never advance a
            // joiner's watermark (or published progress) past tuples
            // still parked in a coalescing buffer (DESIGN.md §10).
            // STAMP: flush-heartbeat.pre
            while let Some((lane, out)) = self.batcher.pop_any() {
                deliver(self, lane, out)?;
            }
            for j in 0..self.senders.len() {
                // Control traffic always takes the guarded send.
                // STAMP: flush-heartbeat.post
                // PROTO: driver-joiner.stream
                self.route(j, Msg::Heartbeat(watermark))?;
            }
        }
        Ok(())
    }

    /// End of input: hands over every partially filled lane, then sends
    /// each worker its terminal `Flush`.
    pub fn drain(
        &mut self,
        mut deliver: impl FnMut(&mut Self, usize, Msg<T>) -> Result<()>,
    ) -> Result<()> {
        while let Some((lane, out)) = self.batcher.pop_any() {
            deliver(self, lane, out)?;
        }
        for j in 0..self.senders.len() {
            // PROTO: driver-joiner.closed
            self.route(j, Msg::Flush)?;
        }
        Ok(())
    }

    /// Disconnects (workers that got no `Flush` see end of input) and
    /// joins every worker with a bounded deadline — never a blocking
    /// `join` on a thread that may be wedged — salvaging reports; returns
    /// (and records) the first failure.
    pub fn join_workers(&mut self) -> Result<()> {
        self.senders.clear();
        let mut first_err: Option<Error> = None;
        for (worker, handle) in self.handles.drain(..).enumerate() {
            let (report, err) = join_within(
                handle,
                self.send_timeout,
                self.engine,
                worker,
                &self.sup.failures,
                &self.sup.kill,
            );
            self.reports.extend(report);
            if let Some(e) = err {
                first_err.get_or_insert(e);
            }
        }
        // A worker that exited on a simulated crash still hands back a
        // report; the failure cell knows it never finished its input.
        match first_err.or_else(|| self.sup.failures.to_error()) {
            None => Ok(()),
            Some(e) => {
                self.poison(&e);
                Err(e)
            }
        }
    }

    /// Merges the reports salvaged so far (one `joiner_loads` entry each,
    /// in worker order) into run statistics, with the sink-retry count.
    pub fn stats(&mut self, input_tuples: u64, elapsed: StdDuration) -> RunStats {
        let reports = std::mem::take(&mut self.reports);
        let mut stats = RunStats::from_reports(input_tuples, elapsed, reports, 0);
        // ORDERING: Relaxed — statistics counter; read after the workers are joined.
        stats.sink_retries = self.sup.retries.load(Ordering::Relaxed);
        stats
    }
}

impl<T: Payload> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        // Dropped without a drain: raise the kill flag FIRST (releases
        // wedged/stalled workers), then disconnect the channels, then
        // join with a bounded deadline.
        self.sup.raise_kill();
        let _ = self.join_workers();
    }
}

/// How an engine maps a prepared tuple onto its pool (policy table:
/// DESIGN.md "Engine shell").
pub(crate) trait Routing {
    /// Heartbeats exist so that a joiner receiving little or no data still
    /// sees the watermark advance; policies that starve nobody (broadcast,
    /// round-robin) carry every stamp with the data and send none.
    const HEARTBEATS: bool;
    /// Coalescing lanes for `joiners` workers.
    fn lanes(joiners: usize) -> usize {
        joiners
    }
    /// The lane `msg` coalesces into.
    fn lane(&mut self, msg: &DataMsg) -> usize;
    /// Hands one flushed lane to the workers.
    #[inline]
    fn deliver(pool: &mut WorkerPool<DataMsg>, lane: usize, out: Msg<DataMsg>) -> Result<()> {
        pool.route(lane, out)
    }
}

/// Static binding: the key's hash picks one of the `.0` joiners, forever.
pub(crate) struct HashRoute(pub u64);

impl Routing for HashRoute {
    const HEARTBEATS: bool = true;
    #[inline]
    fn lane(&mut self, msg: &DataMsg) -> usize {
        (hash_key(msg.tuple.key) % self.0) as usize
    }
}

/// No key affinity — any thread can serve any request against a shared
/// store.
pub(crate) struct RoundRobin {
    pub joiners: usize,
    pub last: usize,
}

impl Routing for RoundRobin {
    const HEARTBEATS: bool = false;
    #[inline]
    fn lane(&mut self, _: &DataMsg) -> usize {
        self.last = (self.last + 1) % self.joiners;
        self.last
    }
}

/// One coalescing lane for the whole group: every joiner receives the
/// same batch.
pub(crate) struct Broadcast;

impl Routing for Broadcast {
    const HEARTBEATS: bool = false;
    fn lanes(_: usize) -> usize {
        1
    }
    #[inline]
    fn lane(&mut self, _: &DataMsg) -> usize {
        0
    }
    #[inline]
    fn deliver(pool: &mut WorkerPool<DataMsg>, _: usize, out: Msg<DataMsg>) -> Result<()> {
        pool.broadcast(out)
    }
}

/// The auxiliary thread an engine may run next to its joiners (SplitJoin's
/// collector, Scale-OIJ's scheduler; DESIGN.md "Engine shell").
pub(crate) trait AuxRole {
    /// What the thread hands back when joined.
    type Report: Send + 'static;
    /// Failure-attribution label.
    const LABEL: &'static str;
    /// Stop and join the thread before the input drain instead of after
    /// the workers.
    const BEFORE_DRAIN: bool;
    /// Folds the thread's report (`None`: never spawned, or lost) into
    /// the run statistics; returns how many workers' output is lost with
    /// it.
    fn fold(report: Option<Self::Report>, stats: &mut RunStats) -> usize;
}

/// No auxiliary thread.
impl AuxRole for () {
    type Report = ();
    const LABEL: &'static str = "";
    const BEFORE_DRAIN: bool = false;
    fn fold(_: Option<()>, _: &mut RunStats) -> usize {
        0
    }
}

/// A supervised auxiliary thread, joined with a bounded deadline (also on
/// `Drop`).
pub(crate) struct AuxThread<A: AuxRole> {
    worker: usize,
    deadline: StdDuration,
    /// Cooperative stop latch raised before the join, for threads that
    /// poll rather than end on a channel disconnect.
    stop: Option<Arc<AtomicBool>>,
    handle: Option<JoinHandle<Option<A::Report>>>,
    report: Option<A::Report>,
    sup: Supervision,
}

impl<A: AuxRole> AuxThread<A> {
    /// Spawns `body` under supervision, attributed as `worker` of
    /// `A::LABEL`.
    pub(crate) fn spawn(
        worker: usize,
        deadline: StdDuration,
        stop: Option<Arc<AtomicBool>>,
        sup: &Supervision,
        body: impl FnOnce() -> A::Report + Send + 'static,
    ) -> Result<Self> {
        let cell = Arc::clone(&sup.failures);
        let handle = std::thread::Builder::new()
            .name(A::LABEL.into())
            .spawn(move || run_supervised(A::LABEL, worker, &cell, body))
            .map_err(|e| Error::InvalidState(format!("spawn failed: {e}")))?;
        Ok(AuxThread {
            worker,
            deadline,
            stop,
            handle: Some(handle),
            report: None,
            sup: sup.clone(),
        })
    }

    /// Stops and joins the thread (bounded), keeping its report.
    fn join(&mut self) -> Option<Error> {
        if let Some(stop) = &self.stop {
            // ORDERING: Relaxed — `stop` is a standalone latch polled in a loop; no data is published through it.
            stop.store(true, Ordering::Relaxed);
        }
        let (report, err) = join_within(
            self.handle.take()?,
            self.deadline,
            A::LABEL,
            self.worker,
            &self.sup.failures,
            &self.sup.kill,
        );
        self.report = report;
        err
    }
}

impl<A: AuxRole> Drop for AuxThread<A> {
    fn drop(&mut self) {
        self.sup.raise_kill();
        let _ = self.join();
    }
}

/// `Driver` + [`WorkerPool`] + [`Routing`] policy + optional auxiliary
/// thread: the engine-independent half of every engine, and the only
/// non-forwarding [`OijEngine`] implementation.
///
/// Field order is teardown order when dropped without `finish`: the pool
/// (kill, disconnect, join the workers) before the auxiliary thread, so a
/// collector outlives the joiners feeding it.
pub(crate) struct EngineShell<R: Routing, A: AuxRole = ()> {
    driver: Driver,
    pool: WorkerPool<DataMsg>,
    pub(crate) routing: R,
    aux: Option<AuxThread<A>>,
    joiners: usize,
    done: bool,
}

impl<R: Routing, A: AuxRole> EngineShell<R, A> {
    /// Wires already-built joiners (and the auxiliary thread, if any)
    /// behind a fresh pool and driver.
    pub(crate) fn assemble<J>(
        engine: &'static str,
        cfg: &EngineConfig,
        durable: Option<Arc<DurabilityRuntime>>,
        sup: Supervision,
        routing: R,
        joiners: Vec<J>,
        aux: Option<AuxThread<A>>,
    ) -> Result<Self>
    where
        J: Joiner<DataMsg> + Send + 'static,
    {
        let (prefix, lanes) = (format!("{engine}-joiner-"), R::lanes(cfg.joiners));
        Ok(EngineShell {
            driver: Driver::with_durability(cfg.query.window.lateness, durable),
            pool: WorkerPool::spawn(engine, &prefix, cfg, lanes, R::HEARTBEATS, sup, joiners)?,
            routing,
            aux,
            joiners: cfg.joiners,
            done: false,
        })
    }

    /// Routes one prepared event. Shared by the live (`push`) and replay
    /// (`push_stamped`) ingest paths.
    #[inline]
    fn accept(&mut self, prepared: Option<DataMsg>) -> Result<()> {
        let Some(msg) = prepared else {
            return Ok(()); // input flush marker: nothing to route
        };
        let lane = self.routing.lane(&msg);
        self.pool.dispatch(lane, msg, R::deliver)
    }

    fn join_aux(&mut self) -> Option<Error> {
        self.aux.as_mut().and_then(AuxThread::join)
    }

    /// Merges the salvaged joiner reports and the auxiliary report into
    /// run statistics.
    fn build_stats(&mut self, aborted: bool) -> Result<RunStats> {
        let (input, elapsed) = self.driver.finish()?;
        let mut stats = self.pool.stats(input, elapsed);
        let mut lost = self.joiners - stats.joiner_loads.len();
        lost += A::fold(self.aux.as_mut().and_then(|a| a.report.take()), &mut stats);
        if aborted {
            stats = stats.mark_aborted(lost);
        }
        self.driver.finalize_stats(&mut stats);
        Ok(stats)
    }
}

impl<R: Routing, A: AuxRole> OijEngine for EngineShell<R, A> {
    fn push(&mut self, event: Event) -> Result<()> {
        self.pool.check()?;
        let prepared = self.driver.prepare(event)?;
        self.accept(prepared)
    }

    fn push_stamped(&mut self, event: Event, stamp: Timestamp) -> Result<()> {
        self.pool.check()?;
        let prepared = self.driver.prepare_stamped(event, stamp)?;
        self.accept(prepared)
    }

    fn finish(&mut self) -> Result<RunStats> {
        if self.done {
            return Err(Error::InvalidState("finish called twice".into()));
        }
        self.pool.check()?;
        if A::BEFORE_DRAIN {
            if let Some(e) = self.join_aux() {
                self.pool.poison(&e);
                return Err(e);
            }
        }
        self.pool.drain(R::deliver)?;
        let mut first_err = self.pool.join_workers().err();
        if !A::BEFORE_DRAIN {
            if let Some(e) = self.join_aux() {
                first_err.get_or_insert(e);
            }
        }
        if let Some(e) = first_err {
            self.pool.poison(&e);
            return Err(e);
        }
        self.done = true;
        self.build_stats(false)
    }

    fn abort(&mut self) -> Result<RunStats> {
        if self.done {
            return Err(Error::InvalidState("abort after a completed finish".into()));
        }
        self.done = true;
        self.pool.supervision().raise_kill();
        if A::BEFORE_DRAIN {
            let _ = self.join_aux();
        }
        let _ = self.pool.join_workers(); // failure already recorded; salvage
        if !A::BEFORE_DRAIN {
            let _ = self.join_aux();
        }
        self.build_stats(true)
    }
}

/// Implements [`OijEngine`] for a public engine type by forwarding to the
/// `EngineShell` in its first field.
macro_rules! forward_engine {
    ($engine:ty) => {
        impl $crate::engine::OijEngine for $engine {
            fn push(&mut self, event: oij_common::Event) -> oij_common::Result<()> {
                self.0.push(event)
            }
            fn push_stamped(
                &mut self,
                event: oij_common::Event,
                stamp: oij_common::Timestamp,
            ) -> oij_common::Result<()> {
                self.0.push_stamped(event, stamp)
            }
            fn finish(&mut self) -> oij_common::Result<$crate::engine::RunStats> {
                self.0.finish()
            }
            fn abort(&mut self) -> oij_common::Result<$crate::engine::RunStats> {
                self.0.abort()
            }
        }
    };
}
pub(crate) use forward_engine;
