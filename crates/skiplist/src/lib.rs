//! # oij-skiplist — SWMR lock-free ordered indexes for Scale-OIJ
//!
//! This crate implements the *time-travel data structure* of the paper's
//! Section V-A: a **single-writer, multiple-reader (SWMR)** lock-free skip
//! list ([`swmr::SwmrSkipList`]) and, built from two layers of it, the
//! double-layer index ([`timetravel::TimeTravelIndex`]) that maps
//! `key → (timestamp → tuple)`.
//!
//! ## Concurrency contract
//!
//! Exactly **one** thread (the owning joiner) mutates an index through its
//! [`swmr::Writer`] handle; any number of threads (the joiner's *virtual
//! team*) read concurrently through cloneable [`swmr::Reader`] handles. The
//! write path publishes new nodes with `Release` stores after preparing them
//! with `Relaxed` stores (paper Algorithm 2); readers traverse with
//! `Acquire` loads (Algorithm 1). The writer owns expiration: it cuts each
//! expired prefix off in one step, and a whole expiry sweep is retired
//! through `crossbeam-epoch` in one deferral, so readers that still hold
//! references into an evicted prefix remain safe until the grace period
//! ends. The writer itself never pins.
//!
//! The crate also provides [`rcu::RcuCell`], the epoch-based publication
//! cell the dynamic schedule's router uses to atomically replace the
//! partition schedule (paper §V-B: "atomically replaced after a new schedule").

#![warn(missing_docs)]

pub mod rcu;
pub mod swmr;
pub(crate) mod sync;
pub mod timetravel;

pub use rcu::RcuCell;
pub use swmr::{Reader, SwmrSkipList, Writer};
pub use timetravel::{IndexReader, IndexWriter, TimeTravelIndex};
