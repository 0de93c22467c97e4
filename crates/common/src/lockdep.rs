//! Class-carrying lock wrappers with a runtime lock-order witness.
//!
//! This module is the workspace's one lock-order check — a miniature
//! lockdep. [`Mutex`] and [`RwLock`] carry their class name; every
//! acquisition pushes onto a thread-local held stack, and every *nested*
//! acquisition records a `held_class -> acquired_class` edge in a global
//! observed-order graph. Two protocol violations panic on the spot:
//!
//! - **cycle**: an edge whose addition would make the observed graph
//!   cyclic — two threads that ever nest `A -> B` and `B -> A` can
//!   deadlock, whether or not they did this run;
//! - **re-entrancy**: acquiring a class already held by this thread
//!   (std locks are not re-entrant), reported with both site locations.
//!
//! Instrumentation is compiled under `--cfg lockdep` (and in this
//! crate's own unit tests); otherwise the wrappers are thin non-poisoning
//! shims over `std::sync` and the witness costs nothing.
//!
//! Engines never name this module directly — their `sync.rs` facades
//! re-export it, so the splice point is the same one loom uses.

use std::sync::PoisonError;

/// A class-carrying, non-poisoning [`std::sync::Mutex`].
///
/// `class` names the lock's role (`"sink_collect"`, `"failure_slot"`,
/// …); every lock of one class is one node of the witness's order graph.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    class: &'static str,
    inner: std::sync::Mutex<T>,
}

/// A class-carrying, non-poisoning [`std::sync::RwLock`].
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    class: &'static str,
    inner: std::sync::RwLock<T>,
}

impl<T> Mutex<T> {
    /// Wraps `value` in a mutex of lock class `class`.
    pub fn new(class: &'static str, value: T) -> Self {
        Mutex {
            class,
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, recording the acquisition in the witness.
    ///
    /// Non-poisoning: a panic while holding the guard does not wedge
    /// later acquisitions (the supervisors already translate worker
    /// panics into `WorkerFailure` values).
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = witness::acquire(self.class);
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }

    /// Acquires the mutex if it is free; `None` if it would block.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        // A try-acquisition that succeeded holds the lock like any other:
        // it participates in ordering (and can complete a deadlock cycle
        // as the loser's partner), so it is recorded the same way.
        Some(MutexGuard {
            inner,
            _token: witness::acquire(self.class),
        })
    }
}

impl<T> RwLock<T> {
    /// Wraps `value` in a reader-writer lock of lock class `class`.
    pub fn new(class: &'static str, value: T) -> Self {
        RwLock {
            class,
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard, recording the acquisition.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = witness::acquire(self.class);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }

    /// Acquires the exclusive write guard, recording the acquisition.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = witness::acquire(self.class);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }
}

macro_rules! guard {
    ($(#[$doc:meta])* $name:ident, $std:ident, $($mut_:tt)?) => {
        $(#[$doc])*
        #[must_use = "releasing the guard unlocks immediately"]
        pub struct $name<'a, T: ?Sized> {
            inner: std::sync::$std<'a, T>,
            _token: witness::HeldToken,
        }

        impl<T: ?Sized> std::ops::Deref for $name<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                &self.inner
            }
        }

        $(
            impl<T: ?Sized> std::ops::DerefMut for $name<'_, T> {
                fn deref_mut(&mut self) -> &$mut_ T {
                    &mut self.inner
                }
            }
        )?
    };
}

guard!(
    /// Guard returned by [`Mutex::lock`]; releases on drop.
    MutexGuard, MutexGuard, mut
);
guard!(
    /// Shared guard returned by [`RwLock::read`]; releases on drop.
    RwLockReadGuard, RwLockReadGuard,
);
guard!(
    /// Exclusive guard returned by [`RwLock::write`]; releases on drop.
    RwLockWriteGuard, RwLockWriteGuard, mut
);

#[cfg(any(lockdep, test))]
mod witness {
    //! The active witness: thread-local held stack + global order graph.

    use std::cell::RefCell;
    use std::panic::Location;
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// One lock currently held by this thread.
    struct HeldLock {
        class: &'static str,
        site: &'static Location<'static>,
        id: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
    }

    /// Pops its acquisition off the thread-local held stack on drop.
    pub(crate) struct HeldToken {
        id: u64,
    }

    impl Drop for HeldToken {
        fn drop(&mut self) {
            HELD.with(|h| h.borrow_mut().retain(|l| l.id != self.id));
        }
    }

    /// One first-observed nesting.
    struct ObservedEdge {
        from: &'static str,
        to: &'static str,
    }

    /// The global observed-order graph. Guarded by a plain std mutex —
    /// the witness must not recurse into itself.
    #[derive(Default)]
    struct Graph {
        edges: Vec<ObservedEdge>,
    }

    impl Graph {
        fn reachable(&self, from: &str, to: &str) -> bool {
            let mut stack = vec![from];
            let mut seen = vec![from];
            while let Some(cur) = stack.pop() {
                for e in &self.edges {
                    if e.from == cur && !seen.contains(&e.to) {
                        if e.to == to {
                            return true;
                        }
                        seen.push(e.to);
                        stack.push(e.to);
                    }
                }
            }
            false
        }
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(Mutex::default)
    }

    /// Records an acquisition of `class` at the caller's location:
    /// re-entrancy and would-be-cyclic nestings panic; new edges join the
    /// observed graph.
    #[track_caller]
    pub(crate) fn acquire(class: &'static str) -> HeldToken {
        let site = Location::caller();
        static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);

        HELD.with(|h| {
            let held = h.borrow();
            for l in held.iter() {
                if l.class == class {
                    panic!(
                        "lockdep: re-entrant acquisition of lock class `{class}`: first \
                         acquired at {}, re-acquired at {site}",
                        l.site
                    );
                }
            }
            let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
            for l in held.iter() {
                if g.edges.iter().any(|e| e.from == l.class && e.to == class) {
                    continue;
                }
                if g.reachable(class, l.class) {
                    panic!(
                        "lockdep: lock-order cycle: acquiring `{class}` at {site} while \
                         holding `{held}` (acquired at {held_site}), but `{class}` already \
                         precedes `{held}` in the observed order",
                        held = l.class,
                        held_site = l.site,
                    );
                }
                g.edges.push(ObservedEdge {
                    from: l.class,
                    to: class,
                });
            }
        });

        HELD.with(|h| {
            h.borrow_mut().push(HeldLock { class, site, id });
        });
        HeldToken { id }
    }
}

#[cfg(not(any(lockdep, test)))]
mod witness {
    //! The inert witness: zero-sized tokens, no tracking.

    pub(crate) struct HeldToken;

    #[inline]
    pub(crate) fn acquire(_class: &'static str) -> HeldToken {
        HeldToken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Runs `f` on a fresh thread and returns its panic message, if any.
    fn panic_message(f: impl FnOnce() + Send + 'static) -> Option<String> {
        let err = thread::Builder::new().spawn(f).unwrap().join().err()?;
        Some(match err.downcast::<String>() {
            Ok(s) => *s,
            Err(other) => other.downcast::<&'static str>().unwrap().to_string(),
        })
    }

    #[test]
    fn consistent_nesting_is_silent() {
        let a = Arc::new(Mutex::new("__selftest_nest_a", 1u64));
        let b = Arc::new(Mutex::new("__selftest_nest_b", 2u64));
        for _ in 0..2 {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
    }

    #[test]
    fn two_threads_nesting_opposite_orders_trip_the_cycle_panic() {
        // Thread 1 observes a -> b; thread 2 then nests b -> a, which
        // closes a cycle even though the threads never raced.
        let a = Arc::new(Mutex::new("__selftest_cycle_a", ()));
        let b = Arc::new(Mutex::new("__selftest_cycle_b", ()));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        thread::spawn(move || {
            let _ga = a1.lock();
            let _gb = b1.lock();
        })
        .join()
        .unwrap();
        let msg = panic_message(move || {
            let _gb = b.lock();
            let _ga = a.lock();
        })
        .expect("reversed nesting must panic");
        assert!(msg.contains("lock-order cycle"), "{msg}");
        assert!(
            msg.contains("__selftest_cycle_a") && msg.contains("__selftest_cycle_b"),
            "{msg}"
        );
    }

    #[test]
    fn reentrant_same_class_acquisition_reports_both_sites() {
        let mu = Arc::new(Mutex::new("__selftest_reent", ()));
        let msg = panic_message(move || {
            let _g1 = mu.lock(); // first site
            let _g2 = mu.lock(); // second site
        })
        .expect("re-entrant lock must panic");
        assert!(msg.contains("re-entrant"), "{msg}");
        assert!(msg.contains("__selftest_reent"), "{msg}");
        // Both the first and the second acquisition sites are named, as
        // file:line:col locations in this file.
        let sites = msg.matches("lockdep.rs").count();
        assert!(sites >= 2, "expected both sites in: {msg}");
    }

    #[test]
    fn rwlock_read_then_write_of_another_class_is_an_edge_not_a_panic() {
        let store = Arc::new(RwLock::new("__selftest_rw_store", 7u64));
        let side = Arc::new(Mutex::new("__selftest_rw_side", 0u64));
        let r = store.read();
        *side.lock() = *r;
        drop(r);
        assert_eq!(*side.lock(), 7);
    }

    #[test]
    fn released_guards_do_not_count_as_held() {
        let a = Arc::new(Mutex::new("__selftest_rel_a", ()));
        let b = Arc::new(Mutex::new("__selftest_rel_b", ()));
        // a -> b once...
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        // ...then b alone, then a alone: no nesting, no new edges, and in
        // particular no b -> a edge to close a cycle.
        let _gb = b.lock();
        drop(_gb);
        let _ga = a.lock();
    }

    #[test]
    fn try_lock_returns_none_when_contended() {
        let mu = Arc::new(Mutex::new("__selftest_try", 5u64));
        let g = mu.lock();
        let mu2 = Arc::clone(&mu);
        let got = thread::spawn(move || mu2.try_lock().map(|g| *g))
            .join()
            .unwrap();
        assert_eq!(got, None);
        drop(g);
        assert_eq!(mu.try_lock().map(|g| *g), Some(5));
    }
}
