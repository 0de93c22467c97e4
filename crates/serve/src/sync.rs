//! Facade over the synchronization primitives the serving runtime uses.
//!
//! Mirrors `oij-core`'s `sync` module (see DESIGN.md §8): `cargo xtask
//! lint` rule R2 enforces that every module in this crate imports
//! atomics and locks from here, never `std::sync` directly, so the
//! import-surface audit stays complete. Unlike the engine crates,
//! `oij-serve` is not in the loom model-checking set (`lint.toml
//! [loom].crates`): its cross-thread protocol is one bounded channel per
//! worker plus monotone acknowledgement counters, both already covered
//! by the engine-side models, so there is no `--cfg loom` arm here. The
//! locks come from `oij_common::lockdep` and participate in the runtime
//! lock-order witness under `RUSTFLAGS="--cfg lockdep"`.

pub(crate) mod atomic {
    pub(crate) use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
}

pub(crate) use oij_common::lockdep::Mutex;
