//! Deterministic fault injection and worker supervision.
//!
//! The paper pitches Scale-OIJ for *online* feature extraction, where a
//! hung joiner or a silently swallowed panic means wrong features under
//! live traffic. This module is the liveness/failure verification layer
//! that sits next to the memory-safety layer (DESIGN.md §8):
//!
//! - [`FaultPlan`] describes faults to inject, keyed by worker id and the
//!   worker-local ordinal of the data message that triggers them: a panic,
//!   a fixed per-message stall, a wedged (never-receiving) worker, and a
//!   slow or erroring sink. The plan is compiled in always but **zero-cost
//!   when empty**: workers carry `Option<WorkerFaults>` (one branch per
//!   message when `None`) and the engine front-ends add exactly one branch
//!   (the poison check) to `push`.
//! - [`FailureCell`] is the shared crash report: every worker body runs
//!   under [`run_supervised`] (`catch_unwind`), and the first panic's
//!   payload + worker identity land here, turning the old
//!   "worker panicked" guess into a structured
//!   [`Error::WorkerFailed`] report.
//! - [`send_guarded`] is the stall-tolerant routing primitive: a bounded
//!   `send_timeout` whose timeout consults the `FailureCell` to classify
//!   the outcome as a structured failure (worker died) or a stall (worker
//!   wedged but alive, [`Error::WorkerStalled`]).
//! - [`DrainBarrier`] replaces `std::sync::Barrier` for Scale-OIJ's final
//!   team drain: a plain barrier deadlocks forever when a teammate dies
//!   before arriving; this one falls through (and reports degradation)
//!   when the failure cell is poisoned or the engine raised its kill flag.

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use crossbeam_channel::{SendTimeoutError, Sender};
use oij_common::{Error, Result};

use crate::config::{DISCONNECT_ATTRIBUTION_GRACE, JOIN_KILL_GRACE};
use crate::sink::Sink;

/// A deterministic fault-injection plan, plumbed through
/// [`EngineConfig`](crate::config::EngineConfig). Empty by default; every
/// fault is keyed by `(worker, ordinal)` where `ordinal` is the 0-based
/// index of the data message as received by that worker (heartbeats and
/// flush markers do not count), so injection is deterministic in the
/// worker's local message sequence.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

#[derive(Debug, Clone)]
struct FaultEntry {
    worker: usize,
    ordinal: u64,
    kind: FaultKind,
}

/// What to inject (see the builder methods on [`FaultPlan`]).
#[derive(Debug, Clone)]
enum FaultKind {
    /// Panic with this payload when the worker reaches the ordinal.
    Panic(String),
    /// Sleep this long before every message from the ordinal onward.
    Stall(StdDuration),
    /// Stop receiving at the ordinal: the worker blocks (checking the
    /// engine's kill flag) and never drains its channel again.
    Wedge,
    /// Simulate a process crash at the ordinal: the worker marks the
    /// whole engine crashed (gating durable sinks) and exits without
    /// unwinding, as if the process had been killed.
    Crash,
    /// Sleep this long on every sink emission from the ordinal onward.
    SinkStall(StdDuration),
    /// Panic on `count` consecutive sink emissions starting at the
    /// ordinal (an erroring sink escalates to a supervised worker
    /// failure unless a retry policy absorbs it).
    SinkFail {
        /// How many consecutive emissions fail.
        count: u64,
    },
}

impl FaultPlan {
    /// The empty plan (no faults — the production configuration).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Panic inside `worker` when it receives its `ordinal`-th data
    /// message, with `message` as the panic payload.
    pub fn panic_at(mut self, worker: usize, ordinal: u64, message: &str) -> Self {
        self.entries.push(FaultEntry {
            worker,
            ordinal,
            kind: FaultKind::Panic(message.to_string()),
        });
        self
    }

    /// Stall `worker` by `delay` on every data message from `ordinal` on.
    pub fn stall_from(mut self, worker: usize, ordinal: u64, delay: StdDuration) -> Self {
        self.entries.push(FaultEntry {
            worker,
            ordinal,
            kind: FaultKind::Stall(delay),
        });
        self
    }

    /// Wedge `worker` at `ordinal`: it stops receiving (without dying)
    /// until the engine tears down.
    pub fn wedge_at(mut self, worker: usize, ordinal: u64) -> Self {
        self.entries.push(FaultEntry {
            worker,
            ordinal,
            kind: FaultKind::Wedge,
        });
        self
    }

    /// Slow `worker`'s sink: every emission from `emit_ordinal` on sleeps
    /// `delay` (for SplitJoin the sink lives on the collector, addressed
    /// as worker `joiners`).
    pub fn sink_stall_from(mut self, worker: usize, emit_ordinal: u64, delay: StdDuration) -> Self {
        self.entries.push(FaultEntry {
            worker,
            ordinal: emit_ordinal,
            kind: FaultKind::SinkStall(delay),
        });
        self
    }

    /// Make `worker`'s sink fail (panic) on its `emit_ordinal`-th
    /// emission.
    pub fn sink_fail_at(self, worker: usize, emit_ordinal: u64) -> Self {
        self.sink_fail_burst(worker, emit_ordinal, 1)
    }

    /// Make `worker`'s sink fail on `count` consecutive emissions
    /// starting at `emit_ordinal`. Because each retry attempt advances
    /// the emission ordinal, a single-ordinal failure is transient by
    /// construction under [`SinkRetryPolicy`](crate::SinkRetryPolicy);
    /// a burst longer than the retry budget models a permanent outage.
    pub fn sink_fail_burst(mut self, worker: usize, emit_ordinal: u64, count: u64) -> Self {
        self.entries.push(FaultEntry {
            worker,
            ordinal: emit_ordinal,
            kind: FaultKind::SinkFail {
                count: count.max(1),
            },
        });
        self
    }

    /// Simulate a process crash inside `worker` when it receives its
    /// `ordinal`-th data message: the engine-wide crash flag is raised
    /// (durable sinks stop admitting rows, as nothing leaves a dead
    /// process), and the worker exits without unwinding. With
    /// durability configured, `oij_core::recovery` brings the run back.
    pub fn crash_at(mut self, worker: usize, ordinal: u64) -> Self {
        self.entries.push(FaultEntry {
            worker,
            ordinal,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Compiles the message-path faults for one worker. `None` (the empty
    /// plan, or no faults for this worker) keeps the worker loop at a
    /// single never-taken branch per message. `engine` and `worker`
    /// identify the worker in crash reports (auxiliary threads report
    /// under their own label), and `cell` is where a simulated crash is
    /// recorded.
    pub fn for_worker(
        &self,
        worker: usize,
        engine: &'static str,
        cell: &Arc<FailureCell>,
    ) -> Option<WorkerFaults> {
        let mut faults = WorkerFaults {
            panic_at: None,
            stall_from: None,
            wedge_at: None,
            crash_at: None,
            engine,
            worker,
            cell: Arc::clone(cell),
        };
        let mut any = false;
        for e in self.entries.iter().filter(|e| e.worker == worker) {
            match &e.kind {
                FaultKind::Panic(msg) => {
                    faults.panic_at = Some((e.ordinal, msg.clone()));
                    any = true;
                }
                FaultKind::Stall(d) => {
                    faults.stall_from = Some((e.ordinal, *d));
                    any = true;
                }
                FaultKind::Wedge => {
                    faults.wedge_at = Some(e.ordinal);
                    any = true;
                }
                FaultKind::Crash => {
                    faults.crash_at = Some(e.ordinal);
                    any = true;
                }
                FaultKind::SinkStall(_) | FaultKind::SinkFail { .. } => {}
            }
        }
        any.then_some(faults)
    }

    /// Wraps `sink` with this plan's sink faults for `worker` (identity
    /// when there are none). `kill` lets injected sink stalls cut short at
    /// engine teardown instead of serving out their backlog.
    pub fn wrap_sink(&self, worker: usize, sink: Sink, kill: Arc<AtomicBool>) -> Sink {
        let mut delay = None;
        let mut stall_from = 0;
        let mut fail = None;
        for e in self.entries.iter().filter(|e| e.worker == worker) {
            match &e.kind {
                FaultKind::SinkStall(d) => {
                    delay = Some(*d);
                    stall_from = e.ordinal;
                }
                FaultKind::SinkFail { count } => fail = Some((e.ordinal, *count)),
                _ => {}
            }
        }
        if delay.is_none() && fail.is_none() {
            return sink;
        }
        Sink::faulty(sink, delay, stall_from, fail, kill)
    }
}

/// Compiled message-path faults for one worker (see
/// [`FaultPlan::for_worker`]).
#[derive(Debug, Clone)]
pub struct WorkerFaults {
    panic_at: Option<(u64, String)>,
    stall_from: Option<(u64, StdDuration)>,
    wedge_at: Option<u64>,
    crash_at: Option<u64>,
    /// Identity under which a simulated crash is recorded.
    engine: &'static str,
    worker: usize,
    cell: Arc<FailureCell>,
}

/// What the worker loop should do after consulting the faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Process the message normally.
    Continue,
    /// The worker was wedged and the engine has torn down: return the
    /// report immediately (skip the final drain — degraded output).
    Exit,
}

impl WorkerFaults {
    /// Applies the faults due at `ordinal`. May panic (the supervisor
    /// catches it), sleep, or block wedged until `kill` is raised.
    ///
    /// Ordinals count individual **data tuples**, not channel messages:
    /// a joiner draining a `Msg::Batch` calls this once per contained
    /// tuple, so an injection point fires at the same tuple whatever the
    /// batch size (remaining tuples in the batch are dropped on `Exit`,
    /// matching a worker death between channel receives).
    pub fn before_message(&self, ordinal: u64, kill: &AtomicBool) -> FaultAction {
        if let Some(at) = self.crash_at {
            if ordinal == at {
                // Simulated process death: gate durable sinks first (a
                // dead process emits nothing more), then exit without
                // unwinding — no drain, no partial-batch processing.
                self.cell.record_crash(self.engine, self.worker);
                return FaultAction::Exit;
            }
        }
        if let Some((at, msg)) = &self.panic_at {
            if ordinal == *at {
                panic!("{msg}");
            }
        }
        if let Some(at) = self.wedge_at {
            if ordinal >= at {
                // Wedged: alive but never receiving. Only the engine's
                // kill flag (raised at teardown) releases the worker.
                // ORDERING: Acquire — pairs with the Release `kill` store in the supervisor's deadline path, so teardown state set before the flag is visible here.
                while !kill.load(Ordering::Acquire) {
                    std::thread::sleep(StdDuration::from_millis(1));
                }
                return FaultAction::Exit;
            }
        }
        if let Some((from, delay)) = self.stall_from {
            if ordinal >= from {
                interruptible_sleep(delay, kill);
            }
        }
        FaultAction::Continue
    }
}

/// Sleeps `total` in small slices, returning early once `kill` is raised.
fn interruptible_sleep(total: StdDuration, kill: &AtomicBool) {
    let slice = StdDuration::from_millis(1);
    let mut remaining = total;
    while !remaining.is_zero() {
        // ORDERING: Acquire — pairs with the Release `kill` store in the supervisor's deadline path, so teardown state set before the flag is visible here.
        if kill.load(Ordering::Acquire) {
            return;
        }
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining -= step;
    }
}

/// A structured crash report: who died and with what payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Engine label (auxiliary threads use their own labels, e.g.
    /// `"splitjoin-collector"`).
    pub engine: &'static str,
    /// Worker index within the engine.
    pub worker: usize,
    /// Captured panic payload (or disconnect description).
    pub cause: String,
}

/// Shared first-failure slot for one engine instance. Workers record into
/// it from their supervisor; the driver thread consults it to classify
/// send timeouts and disconnects. First failure wins — later ones are
/// usually cascading effects of the first.
#[derive(Debug)]
pub struct FailureCell {
    poisoned: AtomicBool,
    crashed: AtomicBool,
    slot: Mutex<Option<WorkerFailure>>,
}

impl Default for FailureCell {
    fn default() -> Self {
        FailureCell {
            poisoned: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            slot: Mutex::new("failure_slot", None),
        }
    }
}

impl FailureCell {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a failure; keeps the first one.
    pub fn record(&self, engine: &'static str, worker: usize, cause: String) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(WorkerFailure {
                engine,
                worker,
                cause,
            });
        }
        drop(slot);
        // ORDERING: Release — publishes the recorded failure before the flag; pairs with the Acquire load in `is_poisoned`.
        self.poisoned.store(true, Ordering::Release);
    }

    /// Records a simulated process crash: raises the crash flag (gating
    /// durable sinks) before recording the failure, so by the time the
    /// driver observes poison, the sinks have stopped admitting rows.
    pub fn record_crash(&self, engine: &'static str, worker: usize) {
        // ORDERING: Release — the crash gate must be visible to sinks no later than the failure record; pairs with the Acquire load in `is_crashed`.
        self.crashed.store(true, Ordering::Release);
        self.record(engine, worker, "simulated process crash".into());
    }

    /// Whether a simulated process crash has been recorded (consulted by
    /// durable sinks on every emission; cheap, lock-free).
    pub fn is_crashed(&self) -> bool {
        // ORDERING: Acquire — pairs with the Release store in `record_crash`.
        self.crashed.load(Ordering::Acquire)
    }

    /// Whether any failure has been recorded (cheap, lock-free).
    pub fn is_poisoned(&self) -> bool {
        // ORDERING: Acquire — pairs with the Release store in `record`, so a true flag guarantees the failure entry is readable.
        self.poisoned.load(Ordering::Acquire)
    }

    /// The first recorded failure, if any.
    pub fn failure(&self) -> Option<WorkerFailure> {
        if !self.is_poisoned() {
            return None;
        }
        self.slot.lock().clone()
    }

    /// The first recorded failure as a structured error.
    pub fn to_error(&self) -> Option<Error> {
        self.failure().map(|f| Error::WorkerFailed {
            engine: f.engine,
            worker: f.worker,
            cause: f.cause,
        })
    }
}

/// Renders a panic payload into the `cause` string (the common `&str` /
/// `String` payloads verbatim; anything else by type name only).
fn panic_payload(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one worker body under supervision: a panic is caught, its payload
/// and the worker's identity are recorded into `cell`, and `None` is
/// returned instead of unwinding through the thread boundary.
pub fn run_supervised<R>(
    engine: &'static str,
    worker: usize,
    cell: &FailureCell,
    body: impl FnOnce() -> R,
) -> Option<R> {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(r) => Some(r),
        Err(payload) => {
            cell.record(engine, worker, panic_payload(payload.as_ref()));
            None
        }
    }
}

/// Stall-tolerant routed send: bounded by `deadline`, with the outcome
/// classified against the failure cell.
///
/// - fits within the deadline → `Ok`;
/// - the worker recorded a panic (timeout or disconnect) →
///   [`Error::WorkerFailed`] with the original cause;
/// - deadline exceeded with no recorded failure → the worker is wedged:
///   [`Error::WorkerStalled`];
/// - disconnected with no recorded failure → the receiving thread is gone
///   without a panic report (should not happen) → [`Error::WorkerFailed`]
///   with disconnect evidence.
pub fn send_guarded<T>(
    tx: &Sender<T>,
    msg: T,
    deadline: StdDuration,
    engine: &'static str,
    worker: usize,
    cell: &FailureCell,
) -> Result<()> {
    // The wait is deadline-bounded and a timeout is translated into a
    // WorkerStalled/WorkerFailed error.
    match tx.send_timeout(msg, deadline) {
        Ok(()) => Ok(()),
        Err(SendTimeoutError::Timeout(_)) => Err(cell.to_error().unwrap_or(Error::WorkerStalled {
            engine,
            worker,
            waited: deadline,
        })),
        Err(SendTimeoutError::Disconnected(_)) => {
            // A panicking worker drops its receiver while unwinding —
            // strictly before its supervisor records the payload. Grant the
            // supervisor a short grace so the disconnect is attributed to
            // the actual panic instead of a generic disconnect report.
            Err(
                await_failure(cell, DISCONNECT_ATTRIBUTION_GRACE).unwrap_or(Error::WorkerFailed {
                    engine,
                    worker,
                    cause: "input channel disconnected without a recorded panic".into(),
                }),
            )
        }
    }
}

/// Polls the failure cell for up to `grace` (the record usually lands
/// microseconds after the observable side effect of the failure).
fn await_failure(cell: &FailureCell, grace: StdDuration) -> Option<Error> {
    let start = std::time::Instant::now();
    loop {
        if let Some(e) = cell.to_error() {
            return Some(e);
        }
        if start.elapsed() >= grace {
            return None;
        }
        std::thread::sleep(StdDuration::from_micros(200));
    }
}

/// Resolves a supervised `JoinHandle` result into either the worker's
/// report or the structured failure (falling back to a generic report when
/// the cell is — unexpectedly — empty).
pub(crate) fn join_outcome<R>(
    outcome: std::thread::Result<Option<R>>,
    engine: &'static str,
    worker: usize,
    cell: &FailureCell,
) -> Result<R> {
    match outcome {
        Ok(Some(r)) => Ok(r),
        // `Ok(None)`: the supervisor caught a panic and recorded it.
        // `Err(_)`: the panic escaped `catch_unwind` (abort-on-unwind
        // payloads) — still surface whatever the cell knows.
        Ok(None) | Err(_) => Err(cell.to_error().unwrap_or(Error::WorkerFailed {
            engine,
            worker,
            cause: "worker terminated abnormally (no payload captured)".into(),
        })),
    }
}

/// Joins a supervised worker with a bounded deadline — never a blocking
/// `join` on a thread that may be wedged.
///
/// Returns `(salvaged report, error)`:
/// - worker wound down in time → its report, or the structured failure if
///   it panicked;
/// - deadline exceeded → the kill flag is raised (releasing injected
///   wedges and stalls) and a short grace granted; the worker's report is
///   salvaged if it then exits, the handle is **detached** if it does not.
///   Either way the outcome carries an error — the failure already in the
///   cell if one was recorded, [`Error::WorkerStalled`] otherwise.
pub fn join_within<R>(
    handle: std::thread::JoinHandle<Option<R>>,
    deadline: StdDuration,
    engine: &'static str,
    worker: usize,
    cell: &FailureCell,
    kill: &AtomicBool,
) -> (Option<R>, Option<Error>) {
    let poll = StdDuration::from_micros(200);
    let start = std::time::Instant::now();
    while !handle.is_finished() {
        if start.elapsed() >= deadline {
            // ORDERING: Release — publishes supervisor teardown state before workers observe the kill flag via their Acquire loads.
            kill.store(true, Ordering::Release);
            let grace = std::time::Instant::now();
            while !handle.is_finished() {
                if grace.elapsed() >= JOIN_KILL_GRACE {
                    let err = cell.to_error().unwrap_or(Error::WorkerStalled {
                        engine,
                        worker,
                        waited: deadline,
                    });
                    drop(handle); // detach: never block on a wedged worker
                    return (None, Some(err));
                }
                std::thread::sleep(poll);
            }
            let report = join_outcome(handle.join(), engine, worker, cell).ok();
            let err = cell.to_error().unwrap_or(Error::WorkerStalled {
                engine,
                worker,
                waited: deadline,
            });
            return (report, Some(err));
        }
        std::thread::sleep(poll);
    }
    match join_outcome(handle.join(), engine, worker, cell) {
        Ok(r) => (Some(r), None),
        Err(e) => (None, Some(e)),
    }
}

/// A failure-aware drain barrier for Scale-OIJ's end-of-input team
/// rendezvous. `wait` returns `true` when the whole team arrived (safe to
/// run the final drain) and `false` when a failure or the engine's kill
/// flag was observed first — the caller then skips the final drain and
/// reports partial output instead of deadlocking on a dead teammate.
#[derive(Debug)]
pub(crate) struct DrainBarrier {
    arrived: AtomicUsize,
    total: usize,
}

impl DrainBarrier {
    pub(crate) fn new(total: usize) -> Self {
        DrainBarrier {
            arrived: AtomicUsize::new(0),
            total,
        }
    }

    pub(crate) fn wait(&self, cell: &FailureCell, kill: &AtomicBool) -> bool {
        // ORDERING: AcqRel — each arrival is published to (and ordered with) every other worker's Acquire load below.
        self.arrived.fetch_add(1, Ordering::AcqRel);
        loop {
            // ORDERING: Acquire — pairs with the AcqRel `fetch_add` above: seeing `total` arrivals implies all pre-barrier writes are visible.
            if self.arrived.load(Ordering::Acquire) >= self.total {
                return true;
            }
            // ORDERING: Acquire — pairs with the Release `kill` store in the supervisor's deadline path, so teardown state set before the flag is visible here.
            if kill.load(Ordering::Acquire) || cell.is_poisoned() {
                return false;
            }
            std::thread::sleep(StdDuration::from_micros(50));
        }
    }
}

/// Shared sink-fault state (interior mutability because `Sink::emit` takes
/// `&self`; cloned sinks share the emission counter, matching how one
/// worker's sink handle may be cloned internally).
#[derive(Debug)]
pub struct SinkFaults {
    pub(crate) emitted: AtomicU64,
    pub(crate) delay: Option<StdDuration>,
    pub(crate) stall_from: u64,
    /// `(first_ordinal, count)`: fail this many consecutive emissions.
    pub(crate) fail: Option<(u64, u64)>,
    pub(crate) kill: Arc<AtomicBool>,
}

impl SinkFaults {
    /// Applies the configured sink faults to the emission with this
    /// ordinal; panics on an injected sink failure.
    pub(crate) fn before_emit(&self) {
        // ORDERING: Relaxed — ordinal allocator only; the panic decision needs no cross-thread ordering.
        let n = self.emitted.fetch_add(1, Ordering::Relaxed);
        if let Some((from, count)) = self.fail {
            if n >= from && n - from < count {
                panic!("injected sink failure at emit {n}");
            }
        }
        if let Some(d) = self.delay {
            if n >= self.stall_from {
                interruptible_sleep(d, &self.kill);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(plan: &FaultPlan, worker: usize) -> Option<WorkerFaults> {
        plan.for_worker(worker, "test-engine", &Arc::new(FailureCell::new()))
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(compile(&plan, 0).is_none());
        let kill = Arc::new(AtomicBool::new(false));
        let sink = plan.wrap_sink(0, Sink::null(), kill);
        assert!(matches!(sink, Sink::Null));
    }

    #[test]
    fn faults_bind_to_their_worker() {
        let plan =
            FaultPlan::none()
                .panic_at(2, 10, "boom")
                .stall_from(1, 0, StdDuration::from_millis(1));
        assert!(compile(&plan, 0).is_none());
        assert!(compile(&plan, 1).is_some());
        assert!(compile(&plan, 2).is_some());
    }

    #[test]
    fn crash_records_and_exits_without_unwinding() {
        let cell = Arc::new(FailureCell::new());
        let plan = FaultPlan::none().crash_at(3, 2);
        let faults = plan.for_worker(3, "test-engine", &cell).unwrap();
        let kill = AtomicBool::new(false);
        assert_eq!(faults.before_message(0, &kill), FaultAction::Continue);
        assert!(!cell.is_crashed());
        assert_eq!(faults.before_message(2, &kill), FaultAction::Exit);
        assert!(cell.is_crashed());
        assert!(cell.is_poisoned());
        let f = cell.failure().expect("crash recorded");
        assert_eq!((f.engine, f.worker), ("test-engine", 3));
        assert!(f.cause.contains("simulated process crash"));
    }

    #[test]
    fn sink_fail_burst_spans_consecutive_emissions() {
        let faults = SinkFaults {
            emitted: AtomicU64::new(0),
            delay: None,
            stall_from: 0,
            fail: Some((1, 2)),
            kill: Arc::new(AtomicBool::new(false)),
        };
        faults.before_emit(); // ordinal 0: fine
        for expect_panic in [true, true, false] {
            let r = catch_unwind(AssertUnwindSafe(|| faults.before_emit()));
            assert_eq!(r.is_err(), expect_panic);
        }
    }

    #[test]
    fn supervision_captures_payload_and_identity() {
        let cell = FailureCell::new();
        let out = run_supervised("test-engine", 7, &cell, || -> u32 {
            panic!("injected panic payload");
        });
        assert!(out.is_none());
        let f = cell.failure().expect("recorded");
        assert_eq!(f.engine, "test-engine");
        assert_eq!(f.worker, 7);
        assert_eq!(f.cause, "injected panic payload");
        // First failure wins.
        cell.record("test-engine", 9, "later".into());
        assert_eq!(cell.failure().unwrap().worker, 7);
    }

    #[test]
    fn supervision_passes_results_through() {
        let cell = FailureCell::new();
        let out = run_supervised("test-engine", 0, &cell, || 41 + 1);
        assert_eq!(out, Some(42));
        assert!(!cell.is_poisoned());
    }

    #[test]
    fn send_guarded_classifies_timeout_vs_failure() {
        let cell = FailureCell::new();
        let (tx, _rx) = crossbeam_channel::bounded::<u32>(1);
        tx.send(0).unwrap();
        // Full channel, empty cell → stalled.
        let err = send_guarded(&tx, 1, StdDuration::from_millis(10), "e", 3, &cell).unwrap_err();
        assert!(matches!(err, Error::WorkerStalled { worker: 3, .. }));
        // Full channel, poisoned cell → the recorded failure.
        cell.record("e", 5, "died first".into());
        let err = send_guarded(&tx, 1, StdDuration::from_millis(10), "e", 3, &cell).unwrap_err();
        assert!(matches!(err, Error::WorkerFailed { worker: 5, .. }));
    }

    #[test]
    fn send_guarded_classifies_disconnect() {
        let cell = FailureCell::new();
        let (tx, rx) = crossbeam_channel::bounded::<u32>(1);
        drop(rx);
        let err = send_guarded(&tx, 1, StdDuration::from_secs(5), "e", 0, &cell).unwrap_err();
        assert!(matches!(err, Error::WorkerFailed { .. }));
    }

    #[test]
    fn join_within_salvages_and_classifies() {
        let cell = FailureCell::new();
        let kill = Arc::new(AtomicBool::new(false));
        // Clean worker: report, no error.
        let h = std::thread::spawn(|| Some(7u32));
        let (r, e) = join_within(h, StdDuration::from_secs(1), "e", 0, &cell, &kill);
        assert_eq!(r, Some(7));
        assert!(e.is_none());
        // Worker that only winds down once killed: the deadline raises the
        // kill flag, the report is salvaged, the outcome is a stall.
        let k2 = Arc::clone(&kill);
        let h = std::thread::spawn(move || {
            while !k2.load(Ordering::Acquire) {
                std::thread::sleep(StdDuration::from_millis(1));
            }
            Some(9u32)
        });
        let (r, e) = join_within(h, StdDuration::from_millis(50), "e", 1, &cell, &kill);
        assert_eq!(r, Some(9));
        assert!(matches!(e, Some(Error::WorkerStalled { worker: 1, .. })));
    }

    #[test]
    fn drain_barrier_falls_through_on_poison() {
        let cell = Arc::new(FailureCell::new());
        let kill = AtomicBool::new(false);
        let barrier = DrainBarrier::new(2);
        cell.record("e", 0, "dead teammate".into());
        // Only one of two arrives; without the poison check this would
        // block forever.
        assert!(!barrier.wait(&cell, &kill));
    }

    #[test]
    fn wedge_releases_on_kill() {
        let plan = FaultPlan::none().wedge_at(0, 0);
        let faults = compile(&plan, 0).unwrap();
        let kill = Arc::new(AtomicBool::new(false));
        let k2 = Arc::clone(&kill);
        let h = std::thread::spawn(move || faults.before_message(0, &k2));
        std::thread::sleep(StdDuration::from_millis(20));
        assert!(!h.is_finished(), "wedge must hold until kill");
        kill.store(true, Ordering::Release);
        assert_eq!(h.join().unwrap(), FaultAction::Exit);
    }
}
