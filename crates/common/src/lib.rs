//! # oij-common — shared model for the online interval join (OIJ)
//!
//! This crate defines the vocabulary shared by every OIJ engine in the
//! workspace: tuples, streams, relative time windows, watermarks, queries
//! and results. It deliberately contains **no** engine logic — only the
//! data model from Section II of the paper (*"Scalable Online Interval Join
//! on Modern Multicore Processors in OpenMLDB"*, ICDE 2023).
//!
//! ## The model in one paragraph
//!
//! A [`Tuple`] is `{timestamp, key, value}`. Two unbounded streams
//! take part in a join: the **base** stream `S` and the **probe** stream `R`
//! (see [`Side`]). For every base tuple `s`, the OIJ aggregates all probe
//! tuples with the same key whose timestamps fall in the *relative* window
//! `[s.ts - PRE, s.ts + FOL]` (see [`WindowSpec`]). Streams may arrive out
//! of order, bounded by a *lateness* `l`; a [`Watermark`] tracks progress
//! and drives tuple expiration.

#![warn(missing_docs)]

pub mod error;
pub mod event;
pub mod lockdep;
pub mod query;
pub mod result;
pub mod time;
pub mod tuple;
pub mod watermark;
pub mod window;

pub use error::{Error, Result};
pub use event::{Event, EventKind};
pub use query::{AggSpec, EmitMode, OijQuery, OijQueryBuilder};
pub use result::FeatureRow;
pub use time::{Duration, Timestamp};
pub use tuple::{Key, Side, Tuple};
pub use watermark::{Watermark, WatermarkTracker};
pub use window::{Window, WindowSpec};
