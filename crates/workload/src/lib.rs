//! # oij-workload — stream workload generators
//!
//! Generates the input streams of the paper's evaluation (Section III-C):
//!
//! - [`synthetic`] — the fully parameterised generator: arrival rate,
//!   unique keys, key distribution (uniform / Zipf / rotating hot set),
//!   bounded event-time disorder, probe/base split.
//! - [`realworld`] — parameter-matched proxies of the four proprietary
//!   4Paradigm workloads (Table II) plus the Table IV default and Table V
//!   adversarial synthetic configurations.
//!
//! ## Substituting the proprietary datasets
//!
//! The paper's logistics/retail datasets are not public. Each proxy
//! reproduces every characteristic the paper publishes: unique keys,
//! arrival rate, window length, lateness, and the derived densities
//! (*matching elements per window*, *elements in the lateness range*).
//! Because the join algorithms are sensitive only to those distributional
//! parameters — the paper's own sensitivity study (Figures 7–9) varies
//! exactly them — the proxies preserve the behaviour the evaluation
//! measures. Event-time units are scaled so that a bench-sized run covers
//! many windows; the dimensionless densities are what is held faithful
//! (see [`realworld::NamedWorkload`]).

#![warn(missing_docs)]

pub mod csv;
pub mod openloop;
pub mod realworld;
pub mod replay;
pub mod synthetic;

pub use csv::{read_csv, write_csv};
pub use openloop::{ChurnAction, ChurnPlan, OpenLoopConfig, OpenLoopPlan, Pacing};
pub use realworld::{NamedWorkload, PaperSpec};
pub use replay::{read_events, write_events};
pub use synthetic::{KeyDist, SyntheticConfig};
