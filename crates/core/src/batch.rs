//! Batched routing support: driver-side coalescing and buffer recycling.
//!
//! The driver→joiner path sends one boxed message per tuple through a
//! bounded channel, so at high rates channel synchronization and
//! allocation dominate before any join work starts (the per-tuple
//! overhead the paper's scalability argument is about, §V–§VI). This
//! module provides the two pieces of the batched path (DESIGN.md §10):
//!
//! * [`Batcher`] — per-destination coalescing buffers on the driver. A
//!   buffer is flushed when it reaches `EngineConfig::batch_size`, when
//!   its oldest tuple exceeds `EngineConfig::flush_deadline`, before any
//!   heartbeat broadcast (so a heartbeat can never overtake parked data),
//!   and at end of input. With `batch_size == 1` the batcher is a pure
//!   pass-through and the engine behaves exactly as before.
//! * [`SlotPool`] — a small lock-free MPMC recycling pool for the batch
//!   buffers. The driver draws emptied `Vec`s from it, joiners return
//!   them after draining a batch, so steady state makes **zero
//!   allocations per tuple** on the routing path (worst case, one
//!   allocation per batch when the pool momentarily runs dry).

use std::cell::UnsafeCell;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crate::message::{BatchMsg, Msg, Payload};
use crate::sync::atomic::{AtomicUsize, Ordering};

/// Slot states of the [`SlotPool`] protocol. A slot cycles
/// `EMPTY → BUSY → FULL → BUSY → EMPTY`; `BUSY` marks exclusive ownership
/// by whichever thread won the CAS, for either direction.
const EMPTY: usize = 0;
const BUSY: usize = 1;
const FULL: usize = 2;

/// One pool slot: a state word guarding a value cell.
struct Slot<T> {
    state: AtomicUsize,
    /// Invariant: `Some` iff `state == FULL`, except while the slot is
    /// `BUSY`, when only the claiming thread may touch the cell.
    value: UnsafeCell<Option<T>>,
}

/// A fixed-capacity lock-free MPMC object pool.
///
/// [`put`](Self::put) parks a value in any `EMPTY` slot;
/// [`take`](Self::take) claims any `FULL` one. Both are wait-free apart
/// from the linear slot scan (capacities are small — a handful of buffers
/// per worker). A full pool rejects `put` (the caller drops the value)
/// and an empty pool returns `None` from `take` (the caller allocates
/// fresh); both paths are correct, the pool only exists to make the
/// steady state allocation-free.
///
/// Concurrency protocol: a slot is claimed in either direction with a CAS
/// to `BUSY`, giving the winner exclusive access to the value cell; the
/// final state store releases the cell contents to the next claimant.
/// Model-checked in `crates/core/tests/loom.rs` (xtask lint rule R5).
pub struct SlotPool<T> {
    slots: Box<[Slot<T>]>,
}

// SAFETY: the value cell is only accessed by the thread that CASed the
// slot to BUSY, so `&SlotPool` may cross threads as long as T itself can
// be moved between threads.
unsafe impl<T: Send> Send for SlotPool<T> {}
// SAFETY: as above — the BUSY protocol serializes all cell accesses, so
// shared references never yield concurrent access to a cell.
unsafe impl<T: Send> Sync for SlotPool<T> {}

impl<T> SlotPool<T> {
    /// Creates a pool with `capacity` empty slots.
    pub fn new(capacity: usize) -> Self {
        SlotPool {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    state: AtomicUsize::new(EMPTY),
                    value: UnsafeCell::new(None),
                })
                .collect(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Parks `value` in the pool; returns it back if every slot is
    /// occupied (or transiently claimed).
    pub fn put(&self, value: T) -> Option<T> {
        for slot in self.slots.iter() {
            // ORDERING: Acquire on success pairs with the Release store that
            // emptied this slot, so the cell is observed vacated before we
            // write it; Relaxed on failure — a lost race carries no data.
            if slot
                .state
                .compare_exchange(EMPTY, BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the CAS above won exclusive ownership of the BUSY
                // slot; no other thread touches the cell until the state
                // store below publishes it.
                unsafe { *slot.value.get() = Some(value) };
                // ORDERING: Release — publishes the cell write to the taker
                // whose claiming CAS acquires this slot.
                slot.state.store(FULL, Ordering::Release);
                return None;
            }
        }
        Some(value)
    }

    /// Claims a parked value, or `None` when the pool is empty (or every
    /// full slot is transiently claimed).
    pub fn take(&self) -> Option<T> {
        for slot in self.slots.iter() {
            // ORDERING: Acquire on success pairs with the Release store in
            // `put`, so the parked value is visible to this thread; Relaxed
            // on failure — a lost race carries no data.
            if slot
                .state
                .compare_exchange(FULL, BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the CAS above won exclusive ownership of the BUSY
                // slot; the protocol invariant makes the cell `Some` here.
                let value = unsafe { (*slot.value.get()).take() };
                debug_assert!(value.is_some(), "FULL slot held no value");
                // ORDERING: Release — publishes the vacated cell to the next
                // `put` that acquires this slot.
                slot.state.store(EMPTY, Ordering::Release);
                return value;
            }
        }
        None
    }
}

/// Per-destination coalescing buffers on the driver thread (one worker
/// pool owns one; not shared across threads — only the buffers travel).
///
/// All flush triggers live here so the four engines and the serving tier
/// share one set of semantics; see the module docs for the trigger list.
pub(crate) struct Batcher<T> {
    batch_size: usize,
    deadline: StdDuration,
    /// One pending buffer per destination, oldest message first.
    bufs: Vec<Vec<T>>,
    /// Arrival instant of each buffer's oldest message (`None` = empty).
    first_at: Vec<Option<Instant>>,
    /// Non-empty buffer count, so the per-push deadline sweep is a single
    /// branch while everything is flushed.
    armed: usize,
    pool: Arc<SlotPool<Vec<T>>>,
}

impl<T: Payload> Batcher<T> {
    /// A batcher for `destinations` workers. `batch_size == 1` constructs
    /// a pass-through (no buffers are ever armed).
    pub(crate) fn new(
        destinations: usize,
        batch_size: usize,
        deadline: StdDuration,
        pool: Arc<SlotPool<Vec<T>>>,
    ) -> Self {
        Batcher {
            batch_size,
            deadline,
            bufs: (0..destinations).map(|_| Vec::new()).collect(),
            first_at: vec![None; destinations],
            armed: 0,
            pool,
        }
    }

    /// Whether this batcher forwards every message unbuffered.
    #[inline]
    pub(crate) fn passthrough(&self) -> bool {
        self.batch_size <= 1
    }

    /// Coalesces `msg` toward `dest`; returns a message the caller must
    /// route to `dest` now — immediately in pass-through mode, or the
    /// filled batch once the buffer reaches `batch_size`.
    #[inline]
    pub(crate) fn push(&mut self, dest: usize, msg: T) -> Option<Msg<T>> {
        if self.passthrough() {
            return Some(Msg::Data(Box::new(msg)));
        }
        let buf = &mut self.bufs[dest];
        if buf.is_empty() {
            self.first_at[dest] = Some(msg.arrival());
            self.armed += 1;
            if buf.capacity() == 0 {
                // First use (or the pool handed back nothing at the last
                // flush): draw a recycled buffer before falling back to a
                // fresh allocation.
                *buf = self
                    .pool
                    .take()
                    .unwrap_or_else(|| Vec::with_capacity(self.batch_size));
            }
        }
        buf.push(msg);
        if buf.len() >= self.batch_size {
            self.armed -= 1;
            self.first_at[dest] = None;
            let msgs = std::mem::take(buf);
            return Some(Msg::Batch(Box::new(BatchMsg { msgs })));
        }
        None
    }

    /// Pops one buffer whose oldest message is older than the flush
    /// deadline as of `now` (call in a loop until `None`). `now` is the
    /// arrival stamp of the current push — the driver thread never reads
    /// the clock twice per tuple.
    #[inline]
    pub(crate) fn pop_expired(&mut self, now: Instant) -> Option<(usize, Msg<T>)> {
        if self.armed == 0 {
            return None;
        }
        for dest in 0..self.first_at.len() {
            if let Some(first) = self.first_at[dest] {
                if now.saturating_duration_since(first) >= self.deadline {
                    return Some((dest, self.detach(dest)));
                }
            }
        }
        None
    }

    /// Pops any non-empty buffer (call in a loop until `None`): the
    /// flush-everything path used before heartbeat broadcasts and at end
    /// of input.
    #[inline]
    pub(crate) fn pop_any(&mut self) -> Option<(usize, Msg<T>)> {
        if self.armed == 0 {
            return None;
        }
        let dest = self.first_at.iter().position(Option::is_some)?;
        Some((dest, self.detach(dest)))
    }

    fn detach(&mut self, dest: usize) -> Msg<T> {
        self.armed -= 1;
        self.first_at[dest] = None;
        let msgs = std::mem::take(&mut self.bufs[dest]);
        Msg::Batch(Box::new(BatchMsg { msgs }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::DataMsg;
    use oij_common::{Side, Timestamp, Tuple};

    fn msg(seq: u64, arrival: Instant) -> DataMsg {
        DataMsg {
            side: Side::Probe,
            tuple: Tuple::new(Timestamp::from_micros(seq as i64), 1, 1.0),
            seq,
            arrival,
            watermark: Timestamp::MIN,
        }
    }

    fn pool() -> Arc<SlotPool<Vec<DataMsg>>> {
        Arc::new(SlotPool::new(4))
    }

    #[test]
    fn pool_round_trips_values() {
        let p: SlotPool<u32> = SlotPool::new(2);
        assert_eq!(p.capacity(), 2);
        assert!(p.take().is_none());
        assert!(p.put(7).is_none());
        assert!(p.put(8).is_none());
        assert_eq!(p.put(9), Some(9), "full pool rejects");
        let mut got = vec![p.take().unwrap(), p.take().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![7, 8]);
        assert!(p.take().is_none());
    }

    #[test]
    fn passthrough_forwards_immediately() {
        let now = Instant::now();
        let mut b = Batcher::new(3, 1, StdDuration::from_micros(100), pool());
        assert!(b.passthrough());
        match b.push(2, msg(0, now)) {
            Some(Msg::Data(d)) => assert_eq!(d.seq, 0),
            other => panic!("expected Data, got {other:?}"),
        }
        assert!(b.pop_expired(now).is_none());
        assert!(b.pop_any().is_none());
    }

    #[test]
    fn fills_flush_at_batch_size() {
        let now = Instant::now();
        let mut b = Batcher::new(2, 3, StdDuration::from_secs(1), pool());
        assert!(b.push(0, msg(0, now)).is_none());
        assert!(b.push(0, msg(1, now)).is_none());
        assert!(b.push(1, msg(2, now)).is_none());
        match b.push(0, msg(3, now)) {
            Some(Msg::Batch(batch)) => {
                let seqs: Vec<u64> = batch.msgs.iter().map(|m| m.seq).collect();
                assert_eq!(seqs, vec![0, 1, 3]);
            }
            other => panic!("expected Batch, got {other:?}"),
        }
        // Destination 1 still has a partial batch.
        let (dest, m) = b.pop_any().expect("partial remains");
        assert_eq!(dest, 1);
        match m {
            Msg::Batch(batch) => assert_eq!(batch.msgs.len(), 1),
            other => panic!("expected Batch, got {other:?}"),
        }
        assert!(b.pop_any().is_none());
    }

    #[test]
    fn deadline_flushes_partial_batches() {
        let t0 = Instant::now();
        let mut b = Batcher::new(2, 8, StdDuration::from_micros(50), pool());
        assert!(b.push(0, msg(0, t0)).is_none());
        assert!(b.pop_expired(t0).is_none(), "not yet due");
        let late = t0 + StdDuration::from_micros(60);
        let (dest, m) = b.pop_expired(late).expect("deadline passed");
        assert_eq!(dest, 0);
        match m {
            Msg::Batch(batch) => assert_eq!(batch.msgs.len(), 1),
            other => panic!("expected Batch, got {other:?}"),
        }
        assert!(b.pop_expired(late).is_none());
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        let p = pool();
        let mut seed = Vec::with_capacity(16);
        seed.push(msg(99, Instant::now()));
        seed.clear();
        assert!(p.put(seed).is_none());
        let mut b = Batcher::new(1, 2, StdDuration::from_secs(1), Arc::clone(&p));
        let now = Instant::now();
        assert!(b.push(0, msg(0, now)).is_none());
        let batch = match b.push(0, msg(1, now)) {
            Some(Msg::Batch(batch)) => batch,
            other => panic!("expected Batch, got {other:?}"),
        };
        assert!(
            batch.msgs.capacity() >= 16,
            "the recycled buffer (capacity 16) should have been reused"
        );
    }
}
