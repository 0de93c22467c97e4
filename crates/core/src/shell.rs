//! The engine shell: everything between `push` and the join algorithm
//! that does not depend on which algorithm it is (DESIGN.md "Engine
//! shell"), so it exists exactly once:
//!
//! * [`WorkerPool`] — the driver→joiner edge, generic over the payload
//!   (the engines' `DataMsg`, the serving runtime's scan-group message):
//!   channels, batcher, guarded send, heartbeat cadence, supervision and
//!   bounded teardown.
//! * `EngineShell` — `Driver` + pool + routing policy + optional auxiliary
//!   thread: the only real [`OijEngine`] implementation; the four public
//!   engine types wrap one each and forward.
//! * `run_worker` — the one receive loop and the one per-message joiner
//!   step, over the [`Joiner`] trait.
//!
//! Policy and joiner are generic parameters: every call on the per-tuple
//! path is monomorphised — no `dyn`, no field added to the messages and
//! no clock read added per tuple.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_methods,
    reason = "hot path: readers and the joiner loop never unwind or block (DESIGN.md §8)"
)]

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};
use oij_common::{Duration, EmitMode, Error, Event, FeatureRow, Result, Side, Timestamp, Tuple};
use oij_durability::DurabilityRuntime;
use oij_index::{BackendWriter, OijIndexWriter};

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
use crate::sink::Sink;
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

/// Which consecutive probes of a coalesced batch a joiner takes as one
/// [`store_run`](Joiner::store_run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeRuns {
    /// None: every probe is stored on its own.
    Single,
    /// Consecutive probes of one key (a per-key structure stays pinned).
    SameKey,
    /// Any consecutive probes (one lock acquisition covers the run).
    AnyKey,
}

/// What one worker thread plugs into the shared loop: its store and its
/// scan. Accounting, the late check, watermark deferral, the expiry cadence
/// and probe-run batching are the loop's per-message step (DESIGN.md
/// "Engine shell"); the loop also owns the worker's instrument bundle and
/// lends it to the hooks that measure. Nothing here knows about channels
/// or faults.
pub trait Joiner<T: Payload>: Sized {
    /// How probes of one batch coalesce into [`store_run`](Self::store_run)
    /// calls. A joiner that overrides [`divert_late`](Self::divert_late)
    /// must keep `Single`: a run is stored without asking.
    const PROBE_RUNS: ProbeRuns = ProbeRuns::Single;

    /// A tuple below its watermark stamp (already counted as a lateness
    /// violation). `true`: the joiner disposed of it and the step neither
    /// stores nor answers it; progress, drains and expiry still run.
    fn divert_late(&mut self, _inst: &mut JoinerInstruments, _msg: &T) -> bool {
        false
    }

    /// Stores one probe tuple.
    fn store(&mut self, inst: &mut JoinerInstruments, probe: T);

    /// Stores a run of consecutive probes; implemented by exactly the
    /// joiners that set [`PROBE_RUNS`](Self::PROBE_RUNS). Nothing is
    /// answered, published or evicted mid-run, so publication may be
    /// deferred to the end of the run.
    fn store_run(&mut self, _run: impl Iterator<Item = T>) {
        unreachable!("PROBE_RUNS is Single: probes are stored one at a time");
    }

    /// Answers one base tuple at `frontier`: the tuple's own watermark
    /// stamp under eager emission, the drain frontier for a deferred one
    /// (`Timestamp::MAX` at end of input).
    fn answer(&mut self, inst: &mut JoinerInstruments, base: &T, frontier: Timestamp);

    /// Everything stamped up to `wm` is applied; `oldest_deferred` is the
    /// emission time of the oldest base tuple still waiting. Called after
    /// every message and heartbeat, again after a drain moved the oldest
    /// deferred base, and with `Timestamp::MAX` at end of input.
    fn publish(&mut self, _wm: Timestamp, _oldest_deferred: Option<Timestamp>) {}

    /// The frontier deferred base tuples may drain to once `wm` is
    /// published.
    fn drain_frontier(&self, wm: Timestamp) -> Timestamp {
        wm
    }

    /// One expiry sweep at watermark `wm`; returns the tuples evicted.
    fn evict(&mut self, _wm: Timestamp) -> u64 {
        0
    }

    /// Takes an in-band control payload ([`Payload::is_control`]), in
    /// channel order with the data around it. It is no tuple: it is not
    /// counted, addresses no fault ordinal, and publishes and sweeps
    /// nothing. `inst` is the loop's own bundle.
    fn control(&mut self, _inst: &mut JoinerInstruments, _msg: T) {
        unreachable!("this joiner's payload carries no control messages");
    }

    /// Clean end of input — the terminal `Flush`, or a disconnect at
    /// teardown; `drain` answers every base tuple still deferred. Not
    /// called after a fault-plan exit: a dead worker drains nothing.
    fn end(&mut self, drain: impl FnOnce(&mut Self)) {
        drain(self);
    }
}

/// The one result emission: the row goes to the sink, is counted, and
/// its latency recorded.
#[inline]
pub fn emit(sink: &Sink, inst: &mut JoinerInstruments, row: FeatureRow, arrival: Instant) {
    sink.emit(row);
    inst.results += 1;
    inst.record_latency(arrival);
}

/// The one probe insert: under the cache model the new node's address
/// feeds the LLC simulator.
#[inline]
pub(crate) fn insert_probe(writer: &mut BackendWriter, inst: &mut JoinerInstruments, tuple: Tuple) {
    if inst.cache.is_some() {
        let addr = writer.insert_traced(tuple);
        inst.record_access(addr, writer.node_footprint());
    } else {
        writer.insert(tuple);
    }
}

/// Watermark emission's queue (DESIGN.md §3.1): base tuples held until
/// the drain frontier reaches `ts + FOL`, in (emission time, arrival
/// sequence) order.
struct Deferred<T>(BTreeMap<(i64, u64), T>);

impl<T: Payload> Deferred<T> {
    fn push(&mut self, emit_ts: Timestamp, base: T) {
        self.0.insert((emit_ts.as_micros(), base.seq()), base);
    }

    fn oldest(&self) -> Option<Timestamp> {
        self.0.keys().next().map(|k| Timestamp::from_micros(k.0))
    }

    fn pop_due(&mut self, frontier: Timestamp) -> Option<T> {
        let entry = self.0.first_entry()?;
        (entry.key().0 <= frontier.as_micros()).then(|| entry.remove())
    }
}

/// The engine-independent state of one worker and the per-message step
/// over it: count and late check, store **or** answer-now / defer to
/// `ts + FOL`, publish, drain, expiry cadence.
struct Step<T> {
    /// The worker's measurements; its final state is the worker's report.
    inst: JoinerInstruments,
    /// Watermark emission: how far past its timestamp (FOL) a base tuple
    /// is deferred. `None`: eager emission answers it at once.
    defer_by: Option<Duration>,
    expire_every: usize,
    /// Messages (and heartbeats) since the last expiry sweep; always
    /// below `expire_every` between steps.
    since_expire: usize,
    /// Monotone maximum of the watermark stamps seen.
    last_wm: Timestamp,
    pending: Deferred<T>,
}

impl<T: Payload> Step<T> {
    /// `origin` anchors the busy timeline (the same instant for every
    /// worker of a pool).
    fn new(cfg: &EngineConfig, origin: Instant) -> Self {
        Step {
            inst: JoinerInstruments::new(&cfg.instrument, origin),
            defer_by: (cfg.query.emit == EmitMode::Watermark).then_some(cfg.query.window.following),
            expire_every: cfg.expire_every,
            since_expire: 0,
            last_wm: Timestamp::MIN,
            pending: Deferred(BTreeMap::new()),
        }
    }

    /// Counts one tuple; whether it violates the lateness contract.
    #[inline]
    fn count(&mut self, msg: &T) -> bool {
        self.inst.processed += 1;
        let late = msg.tuple().ts < msg.watermark();
        if late {
            self.inst.late_violations += 1;
        }
        late
    }

    /// One data message.
    #[inline]
    fn data<J: Joiner<T>>(&mut self, joiner: &mut J, msg: T) {
        let wm = msg.watermark();
        if self.count(&msg) && joiner.divert_late(&mut self.inst, &msg) {
            // Disposed of by the joiner.
        } else if msg.side() == Side::Probe {
            joiner.store(&mut self.inst, msg);
        } else if let Some(fol) = self.defer_by {
            self.pending.push(msg.tuple().ts + fol, msg);
        } else {
            joiner.answer(&mut self.inst, &msg, wm);
        }
        self.advance(joiner, wm, 1);
    }

    /// How many of `rest`'s leading messages extend the probe run `first`
    /// opens: capped at the remaining expiry budget, so the sweep fires
    /// after exactly the same message as on the unbatched path.
    #[inline]
    fn run_extent(&self, runs: ProbeRuns, first: &T, rest: &[T]) -> usize {
        if runs == ProbeRuns::Single || first.side() != Side::Probe {
            return 0;
        }
        let key = first.tuple().key;
        rest.iter()
            .take((self.expire_every - self.since_expire).saturating_sub(1))
            .take_while(|m| {
                m.side() == Side::Probe && (runs == ProbeRuns::AnyKey || m.tuple().key == key)
            })
            .count()
    }

    /// One probe run — `first` and the next `more` messages of `rest`:
    /// per-tuple accounting, one `store_run`, one step of bookkeeping
    /// (only eager emission forms runs, so no drain can fall inside one).
    fn run<J: Joiner<T>>(
        &mut self,
        joiner: &mut J,
        first: T,
        rest: &mut std::vec::Drain<'_, T>,
        more: usize,
    ) {
        self.count(&first);
        let mut wm = first.watermark();
        for m in rest.as_slice().iter().take(more) {
            self.count(m);
            wm = m.watermark();
        }
        joiner.store_run(std::iter::once(first).chain(rest.take(more)));
        self.advance(joiner, wm, more + 1);
    }

    /// The bookkeeping after `n` applied messages (or one heartbeat)
    /// stamped up to `wm`. Progress is published only after the messages
    /// are fully applied, so a published frontier implies completeness.
    #[inline]
    fn advance<J: Joiner<T>>(&mut self, joiner: &mut J, wm: Timestamp, n: usize) {
        self.last_wm = self.last_wm.max(wm);
        joiner.publish(self.last_wm, self.pending.oldest());
        if self.defer_by.is_some() {
            let frontier = joiner.drain_frontier(self.last_wm);
            self.drain_pending(joiner, frontier);
        }
        self.since_expire += n;
        if self.since_expire >= self.expire_every {
            self.since_expire = 0;
            // Eviction is Fig 6 "other" time, for every engine.
            let t0 = self.inst.wants_breakdown().then(Instant::now);
            self.inst.evicted += joiner.evict(self.last_wm);
            if let Some(t0) = t0 {
                self.inst
                    .add_breakdown(0, 0, t0.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Answers the deferred base tuples whose windows closed at or below
    /// `frontier`.
    fn drain_pending<J: Joiner<T>>(&mut self, joiner: &mut J, frontier: Timestamp) {
        let mut drained = false;
        while let Some(base) = self.pending.pop_due(frontier) {
            joiner.answer(&mut self.inst, &base, frontier);
            drained = true;
        }
        if drained {
            joiner.publish(self.last_wm, self.pending.oldest());
        }
    }

    /// Clean end of input: everything is applied, so every deferred base
    /// tuple is complete.
    fn finish<J: Joiner<T>>(mut self, joiner: &mut J) -> JoinerReport {
        self.last_wm = Timestamp::MAX;
        joiner.publish(Timestamp::MAX, self.pending.oldest());
        joiner.end(|j| self.drain_pending(j, Timestamp::MAX));
        self.inst
    }
}

/// The one receive loop of the driver→joiner edge.
fn run_worker<T: Payload, J: Joiner<T>>(
    mut joiner: J,
    rx: Receiver<Msg<T>>,
    faults: Option<WorkerFaults>,
    kill: &AtomicBool,
    recycle: &SlotPool<Vec<T>>,
    mut step: Step<T>,
) -> JoinerReport {
    let timeline_on = step.inst.timeline.is_some();
    // Probe runs need what only eager emission gives (inserts emit and
    // drain nothing, so grouping them is invisible); the cache model needs
    // a node address per insert, and fault ordinals address single tuples.
    let runs = if step.defer_by.is_none() && faults.is_none() && step.inst.cache.is_none() {
        J::PROBE_RUNS
    } else {
        ProbeRuns::Single
    };
    // Whether the fault plan ends the worker at the next data message —
    // one never-taken branch per message for the empty plan. Ordinals
    // address individual data messages, also inside a batch, so an
    // injection point that is not on a batch boundary still fires exactly
    // there, mid-batch.
    let mut ordinal = 0u64;
    let mut exits = || {
        let Some(f) = &faults else { return false };
        ordinal += 1;
        f.before_message(ordinal - 1, kill) == FaultAction::Exit
    };
    for msg in rx {
        let busy_start = (timeline_on && msg.tuples() > 0).then(Instant::now);
        match msg {
            Msg::Flush => {
                step.inst.proto.finish();
                break;
            }
            Msg::Heartbeat(wm) => {
                step.inst.proto.heartbeat(wm);
                step.advance(&mut joiner, wm, 1);
            }
            Msg::Data(data) => {
                step.inst.proto.data(data.watermark());
                if data.is_control() {
                    joiner.control(&mut step.inst, *data);
                } else {
                    if exits() {
                        return step.inst;
                    }
                    step.data(&mut joiner, *data);
                }
            }
            Msg::Batch(mut batch) => {
                step.inst.record_batch(batch.msgs.len());
                step.inst.proto.batch();
                for m in &batch.msgs {
                    step.inst.proto.data(m.watermark());
                }
                // The batch is consumed by value: no message is cloned.
                let mut rest = batch.msgs.drain(..);
                while let Some(first) = rest.next() {
                    if exits() {
                        return step.inst;
                    }
                    match step.run_extent(runs, &first, rest.as_slice()) {
                        0 => step.data(&mut joiner, first),
                        more => step.run(&mut joiner, first, &mut rest, more),
                    }
                }
                drop(rest);
                // Recycle the emptied buffer; a full pool just drops it.
                let _ = recycle.put(batch.msgs);
            }
        }
        if let Some(s) = busy_start {
            step.inst.record_busy(s);
        }
    }
    step.finish(&mut joiner)
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
    /// One edge per worker; `None` once closed — right after the worker's
    /// `Flush`, or at teardown — so nothing can follow the `Flush`.
    senders: Vec<Option<Sender<Msg<T>>>>,
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
        let origin = Instant::now();
        let mut senders = Vec::with_capacity(joiners.len());
        let mut handles = Vec::with_capacity(joiners.len());
        for (id, joiner) in joiners.into_iter().enumerate() {
            // One bounded queue per worker; the serving runtime's ingest
            // thread is the driver of each scan group's pool.
            let (tx, rx) = bounded::<Msg<T>>(cfg.channel_capacity);
            let faults = cfg.faults.for_worker(id, engine, &sup.failures);
            let (wsup, wrecycle, step) =
                (sup.clone(), Arc::clone(&recycle), Step::new(cfg, origin));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{thread_prefix}{id}"))
                    .spawn(move || {
                        run_supervised(engine, id, &wsup.failures, || {
                            run_worker(joiner, rx, faults, &wsup.kill, &wrecycle, step)
                        })
                    })
                    .map_err(|e| Error::InvalidState(format!("spawn failed: {e}")))?,
            );
            senders.push(Some(tx));
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

    /// The open edge to `worker`; an error once that edge is closed.
    fn edge(&self, worker: usize) -> Result<&Sender<Msg<T>>> {
        self.senders
            .get(worker)
            .and_then(Option::as_ref)
            .ok_or_else(|| {
                Error::InvalidState(format!("{}: edge to worker {worker} closed", self.engine))
            })
    }

    /// Non-blocking [`route`](Self::route): hands the message back when
    /// the worker's queue is full, so the caller decides what overload
    /// means (the serving runtime sheds). A dead worker takes the guarded
    /// path, which waits briefly for the supervisor's attribution and
    /// reports the real cause.
    pub fn try_route(&mut self, worker: usize, msg: Msg<T>) -> Result<Option<Msg<T>>> {
        match self.edge(worker)?.try_send(msg) {
            Ok(()) => Ok(None),
            Err(TrySendError::Full(back)) => Ok(Some(back)),
            Err(TrySendError::Disconnected(m)) => self.route(worker, m).map(|()| None),
        }
    }

    /// Routed send with the configured deadline; a failure (a closed edge
    /// included) poisons the pool.
    #[inline]
    pub fn route(&mut self, worker: usize, msg: Msg<T>) -> Result<()> {
        let sent = self.edge(worker).and_then(|tx| {
            send_guarded(
                tx,
                msg,
                self.send_timeout,
                self.engine,
                worker,
                &self.sup.failures,
            )
        });
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
        let last = self.senders.len().saturating_sub(1);
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
                self.route(j, Msg::Heartbeat(watermark))?;
            }
        }
        Ok(())
    }

    /// Hands over every partially filled lane.
    fn flush_lanes(
        &mut self,
        mut deliver: impl FnMut(&mut Self, usize, Msg<T>) -> Result<()>,
    ) -> Result<()> {
        while let Some((lane, out)) = self.batcher.pop_any() {
            deliver(self, lane, out)?;
        }
        Ok(())
    }

    /// Sends every worker its own in-band control payload
    /// ([`Payload::is_control`]), after handing over every parked lane so
    /// that it keeps its place in arrival order. Control never coalesces
    /// and always takes the guarded send, whatever `deliver` does with
    /// data.
    pub fn control(
        &mut self,
        deliver: impl FnMut(&mut Self, usize, Msg<T>) -> Result<()>,
        mut payload: impl FnMut(usize) -> T,
    ) -> Result<()> {
        self.flush_lanes(deliver)?;
        for j in 0..self.senders.len() {
            self.route(j, Msg::Data(Box::new(payload(j))))?;
        }
        Ok(())
    }

    /// End of input: hands over every partially filled lane, then sends
    /// each worker its terminal `Flush` and closes that worker's edge, so
    /// every later send fails instead of following the `Flush`.
    pub fn drain(
        &mut self,
        deliver: impl FnMut(&mut Self, usize, Msg<T>) -> Result<()>,
    ) -> Result<()> {
        self.flush_lanes(deliver)?;
        for j in 0..self.senders.len() {
            self.route(j, Msg::Flush)?;
            if let Some(edge) = self.senders.get_mut(j) {
                *edge = None;
            }
        }
        Ok(())
    }

    /// Disconnects (workers that got no `Flush` see end of input) and
    /// joins every worker with a bounded deadline — never a blocking
    /// `join` on a thread that may be wedged — salvaging reports; returns
    /// (and records) the first failure.
    pub fn join_workers(&mut self) -> Result<()> {
        self.senders.fill_with(|| None);
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
    /// Folds what the policy itself counted into the run statistics
    /// (finished and aborted runs alike).
    fn fold(&self, _stats: &mut RunStats) {}
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
/// collector; DESIGN.md "Engine shell"). It is joined after the workers,
/// and ends when the last of them disconnects from it.
pub(crate) trait AuxRole {
    /// What the thread hands back when joined.
    type Report: Send + 'static;
    /// Failure-attribution label.
    const LABEL: &'static str;
    /// Folds the thread's report (`None`: never spawned, or lost) into
    /// the run statistics; returns how many workers' output is lost with
    /// it.
    fn fold(report: Option<Self::Report>, stats: &mut RunStats) -> usize;
}

/// No auxiliary thread.
impl AuxRole for () {
    type Report = ();
    const LABEL: &'static str = "";
    fn fold(_: Option<()>, _: &mut RunStats) -> usize {
        0
    }
}

/// A supervised auxiliary thread, joined with a bounded deadline (also on
/// `Drop`).
pub(crate) struct AuxThread<A: AuxRole> {
    worker: usize,
    deadline: StdDuration,
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
            handle: Some(handle),
            report: None,
            sup: sup.clone(),
        })
    }

    /// Joins the thread (bounded), keeping its report.
    fn join(&mut self) -> Option<Error> {
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

    /// Merges the salvaged joiner reports, the routing policy's counts and
    /// the auxiliary report into run statistics.
    fn build_stats(&mut self, aborted: bool) -> Result<RunStats> {
        let (input, elapsed) = self.driver.finish()?;
        let mut stats = self.pool.stats(input, elapsed);
        self.routing.fold(&mut stats);
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
        let prepared = self.driver.prepare(event, None)?;
        self.accept(prepared)
    }

    fn push_stamped(&mut self, event: Event, stamp: Timestamp) -> Result<()> {
        self.pool.check()?;
        let prepared = self.driver.prepare(event, Some(stamp))?;
        self.accept(prepared)
    }

    fn finish(&mut self) -> Result<RunStats> {
        if self.done {
            return Err(Error::InvalidState("finish called twice".into()));
        }
        self.pool.check()?;
        self.pool.drain(R::deliver)?;
        let mut first_err = self.pool.join_workers().err();
        if let Some(e) = self.join_aux() {
            first_err.get_or_insert(e);
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
        let _ = self.pool.join_workers(); // failure already recorded; salvage
        let _ = self.join_aux();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::message::BatchMsg;
    use oij_common::OijQuery;

    /// Takes same-key probe runs, so a batch of same-key probes is one
    /// `store_run` unless something splits it.
    struct Runs;

    impl Joiner<DataMsg> for Runs {
        const PROBE_RUNS: ProbeRuns = ProbeRuns::SameKey;
        fn store(&mut self, _: &mut JoinerInstruments, _: DataMsg) {}
        fn answer(&mut self, _: &mut JoinerInstruments, _: &DataMsg, _: Timestamp) {}
    }

    #[test]
    fn a_fault_ordinal_mid_probe_run_fires_at_exactly_that_tuple() {
        let query = OijQuery::sum_over_preceding(Duration::from_micros(10), Duration::ZERO);
        let mut cfg = EngineConfig::new(query.unwrap(), 1).unwrap();
        cfg.faults = FaultPlan::none().crash_at(0, 5);
        let sup = Supervision::default();
        let mut pool = WorkerPool::spawn("test", "t-", &cfg, 1, false, sup, vec![Runs]).unwrap();
        let arrival = Instant::now();
        let msgs = (0..8)
            .map(|seq| DataMsg {
                side: Side::Probe,
                tuple: Tuple::new(Timestamp::from_micros(seq as i64), 7, 1.0),
                seq,
                arrival,
                watermark: Timestamp::MIN,
            })
            .collect();
        let batch = Msg::Batch(Box::new(BatchMsg { msgs }));
        pool.route(0, batch).unwrap();
        assert!(pool.join_workers().is_err(), "the crash must be reported");
        // Tuples 0..=4 were applied; the run did not swallow ordinal 5.
        let stats = pool.stats(8, StdDuration::ZERO);
        assert_eq!(stats.joiner_loads, vec![5]);
    }

    #[test]
    fn nothing_can_follow_the_flush() {
        let query = OijQuery::sum_over_preceding(Duration::from_micros(10), Duration::ZERO);
        let mut cfg = EngineConfig::new(query.unwrap(), 2).unwrap();
        cfg.heartbeat_every = 2;
        let sup = Supervision::default();
        let mut pool =
            WorkerPool::spawn("test", "t-", &cfg, 2, true, sup, vec![Runs, Runs]).unwrap();
        pool.drain(WorkerPool::route).unwrap();
        let closed =
            |r: Result<()>| matches!(r, Err(Error::InvalidState(m)) if m.contains("closed"));
        // The first tick stays below the heartbeat cadence; the second
        // crosses it and finds the edges closed before sending anything.
        let now = Instant::now();
        pool.tick(now, Timestamp::MAX, WorkerPool::route).unwrap();
        assert!(closed(pool.tick(now, Timestamp::MAX, WorkerPool::route)));
        assert!(closed(pool.route(1, Msg::Heartbeat(Timestamp::MAX))));
        // Both workers ended on their `Flush`, with no protocol failure.
        pool.join_workers().unwrap();
    }
}
