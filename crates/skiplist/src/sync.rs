//! Facade over the synchronization primitives the index structures use.
//!
//! In the normal configuration this re-exports `std::sync::atomic`; when the
//! crate is compiled with `RUSTFLAGS="--cfg loom"` it re-exports the loom
//! model checker's instrumented atomics instead, so `swmr`, `timetravel`,
//! and `rcu` compile unchanged against either backend. The loom tests in
//! `tests/loom.rs` systematically explore thread interleavings of the
//! publication, linking, eviction, and RCU-swap protocols (under
//! sequential consistency only — the stand-in checker cannot catch wrong
//! `Release`/`Acquire` orderings; see DESIGN.md §8 for the coverage map).
//!
//! Everything in the data-structure modules must import atomics from
//! `crate::sync::atomic` — never from `std::sync::atomic` directly — or the
//! model checker cannot observe (and so cannot permute) those operations.
//! `crossbeam_epoch`'s pointer words are instrumented the same way by the
//! vendored crate's own `cfg(loom)` backend.

#[cfg(not(loom))]
pub(crate) mod atomic {
    pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};
}

#[cfg(loom)]
pub(crate) mod atomic {
    pub(crate) use loom::sync::atomic::AtomicUsize;
    pub(crate) use std::sync::atomic::Ordering;
}

/// Always-std atomics for debug tripwires that must not become loom
/// schedule points. The single user is `swmr`'s single-writer guard: its
/// compare-exchange merely *detects* a second `write_token()` caller (an
/// API-contract violation), so modelling it would multiply loom's state
/// space without exploring any legal interleaving — and the vendored
/// loom's `AtomicBool` deliberately omits `compare_exchange` for the same
/// reason. Protocol state never goes through this module (R2 still bans
/// `std::sync::atomic` elsewhere in the crate). Compiled only when the
/// tripwire is, so release builds carry no unused re-exports.
#[cfg(debug_assertions)]
pub(crate) mod uninstrumented {
    pub(crate) use std::sync::atomic::{AtomicBool, Ordering};
}

/// Class-carrying locks routed through the workspace lockdep witness
/// (`oij_common::lockdep`): under `RUSTFLAGS="--cfg lockdep"` acquisitions
/// are recorded in the runtime lock-order graph. The index structures are lock-free today, so nothing imports
/// these yet — but R2 bans `std::sync` locks crate-wide, so any future
/// lock lands here and inherits the instrumentation automatically.
#[allow(unused_imports)]
pub(crate) use oij_common::lockdep::{Mutex, RwLock};
