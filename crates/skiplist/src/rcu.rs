//! Epoch-based read-copy-update cell.
//!
//! lint: hot_path
//!
//! The dynamic schedule (paper §V-B) periodically computes a new key
//! partition schedule and must publish it so that the joiners observe
//! either the old or the new schedule — never a mixture — without taking a
//! lock on the hot join path. [`RcuCell`] provides exactly that: readers
//! pay one epoch pin plus one `Acquire` load; the writer swaps in a new
//! value and defers destruction of the old one until all current readers
//! have moved on.

use crate::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Atomic, Owned};

/// A cell holding an `Arc<T>` that can be atomically replaced while being
/// read lock-free from any number of threads.
pub struct RcuCell<T> {
    slot: Atomic<Arc<T>>,
}

impl<T: Send + Sync + 'static> RcuCell<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: T) -> Self {
        RcuCell {
            slot: Atomic::new(Arc::new(value)),
        }
    }

    /// Returns a snapshot of the current value. The returned `Arc` keeps the
    /// snapshot alive independently of later [`replace`](Self::replace)s.
    pub fn load(&self) -> Arc<T> {
        let guard = epoch::pin();
        // ORDERING: Acquire — pairs with the AcqRel `swap` in `replace`, so the loaded schedule is fully constructed before any field is read.
        let shared = self.slot.load(Ordering::Acquire, &guard);
        // SAFETY: `shared` is non-null by construction (always initialised,
        // never stored null) and epoch-protected against reclamation while
        // `guard` is live; cloning the Arc extends the value's life past it.
        unsafe { shared.deref() }.clone()
    }

    /// Publishes a new value, returning a snapshot of the replaced one.
    ///
    /// Callers must serialise replacements (in the engine only the driver's
    /// router replaces); concurrent `load`s are always safe.
    pub fn replace(&self, value: T) -> Arc<T> {
        let guard = epoch::pin();
        // ORDERING: AcqRel — Release publishes the new value to readers' Acquire loads; Acquire orders the unlink before this thread reads the old value.
        let old = self
            .slot
            .swap(Owned::new(Arc::new(value)), Ordering::AcqRel, &guard);
        // SAFETY: non-null as above.
        let snapshot = unsafe { old.deref() }.clone();
        // SAFETY: `old` is unlinked; readers that loaded it earlier are
        // protected by their own pins until the grace period passes.
        unsafe { guard.defer_destroy(old) };
        snapshot
    }
}

impl<T> Drop for RcuCell<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access during drop; free the final value.
        unsafe {
            let guard = epoch::unprotected();
            // ORDERING: Relaxed — Drop has exclusive access; no concurrent loads remain.
            let shared = self.slot.load(Ordering::Relaxed, guard);
            if !shared.is_null() {
                drop(shared.into_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as O};

    #[test]
    fn load_returns_current_value() {
        let cell = RcuCell::new(41);
        assert_eq!(*cell.load(), 41);
        let old = cell.replace(42);
        assert_eq!(*old, 41);
        assert_eq!(*cell.load(), 42);
    }

    #[test]
    fn snapshots_outlive_replacement() {
        let cell = RcuCell::new(vec![1, 2, 3]);
        let snap = cell.load();
        cell.replace(vec![9]);
        assert_eq!(*snap, vec![1, 2, 3]); // old snapshot intact
        assert_eq!(*cell.load(), vec![9]);
    }

    #[test]
    fn concurrent_loads_never_see_torn_values() {
        // Invariant: value is (n, 2n); a torn read would break it.
        let cell = Arc::new(RcuCell::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let loads = Arc::new(AtomicUsize::new(0));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let loads = Arc::clone(&loads);
                std::thread::spawn(move || {
                    while !stop.load(O::Relaxed) {
                        let v = cell.load();
                        assert_eq!(v.1, v.0 * 2);
                        loads.fetch_add(1, O::Relaxed);
                    }
                })
            })
            .collect();

        let mut n = 0u64;
        // Keep replacing until the readers have observably run (bounded so
        // a pathological scheduler cannot hang the test).
        const MIN_REPLACES: u64 = if cfg!(miri) { 200 } else { 2_000 };
        const MAX_REPLACES: u64 = if cfg!(miri) { 100_000 } else { 50_000_000 };
        while n < MIN_REPLACES || (loads.load(O::Relaxed) == 0 && n < MAX_REPLACES) {
            n += 1;
            cell.replace((n, n * 2));
            if n.is_multiple_of(4096) {
                std::thread::yield_now();
            }
        }
        stop.store(true, O::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        assert!(loads.load(O::Relaxed) > 0);
    }

    #[test]
    fn drop_frees_value() {
        // Arc refcount proves the cell released its reference on drop.
        let marker = Arc::new(());
        let cell = RcuCell::new(Arc::clone(&marker));
        assert_eq!(Arc::strong_count(&marker), 2);
        drop(cell);
        // Epoch reclamation is deferred; flush by pinning repeatedly.
        for _ in 0..1000 {
            epoch::pin().flush();
            if Arc::strong_count(&marker) == 1 {
                break;
            }
        }
        // The value may legitimately still be queued; at minimum no UAF
        // occurred. If reclamation ran, the count is back to 1.
        assert!(Arc::strong_count(&marker) <= 2);
    }
}
