//! Facade over the synchronization primitives the engine hot paths use.
//!
//! Mirrors `oij-skiplist`'s `sync` module (see DESIGN.md §8): in the
//! normal configuration `atomic` re-exports `std::sync::atomic`, and
//! under `RUSTFLAGS="--cfg loom"` it re-exports the vendored loom model
//! checker's instrumented atomics, so the engines compile unchanged
//! against either backend. The `cargo xtask lint` rule R2 enforces that
//! every module in this crate imports atomics and locks from here, never
//! `std::sync` directly — otherwise an atomic added in a refactor would
//! silently fall outside loom's view and the coverage map would rot.
//!
//! `Mutex` and `RwLock` come from `oij_common::lockdep` in both
//! configurations: the wrappers are non-poisoning, carry their lock
//! class (named at `Mutex::new("class", ..)`), and under
//! `RUSTFLAGS="--cfg lockdep"` record every acquisition in a runtime
//! lock-order witness that panics on observed cycles and re-entrancy.
//! The vendored loom stand-in has no lock support, and the engines'
//! locks sit on cold control paths (sink flushing, fault bookkeeping)
//! whose interleavings are exercised by the TSan job instead
//! (`scripts/sanitize.sh`). Routing them through the facade keeps the
//! import-surface audit complete and gives loom a single splice point if
//! lock modelling lands later.

#[cfg(not(loom))]
pub(crate) mod atomic {
    pub(crate) use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering,
    };
}

#[cfg(loom)]
pub(crate) mod atomic {
    pub(crate) use loom::sync::atomic::{fence, AtomicBool, AtomicI64, AtomicU64, AtomicUsize};
    pub(crate) use std::sync::atomic::Ordering;
}

pub(crate) use oij_common::lockdep::{Mutex, RwLock};
