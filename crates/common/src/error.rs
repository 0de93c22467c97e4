//! Error types shared across the workspace.

use core::fmt;
use std::time::Duration as StdDuration;

/// Workspace-wide result alias.
pub type Result<T> = core::result::Result<T, Error>;

/// Errors surfaced by the OIJ engines and front-ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A configuration value is out of range or inconsistent
    /// (negative offsets, zero joiners, …).
    InvalidConfig(String),
    /// SQL text could not be parsed into an OIJ plan.
    SqlParse {
        /// Byte offset in the input where parsing failed.
        offset: usize,
        /// Human-readable explanation.
        message: String,
    },
    /// The engine was asked to do something in the wrong lifecycle state
    /// (e.g. pushing tuples after flush).
    InvalidState(String),
    /// A worker thread terminated abnormally. The supervisor captures the
    /// panic payload (or disconnect evidence) together with the worker's
    /// identity, so the failure is attributable instead of a guess.
    WorkerFailed {
        /// Which engine the worker belonged to (e.g. `"scale-oij"`;
        /// auxiliary threads report under their own label, e.g.
        /// `"splitjoin-collector"`).
        engine: &'static str,
        /// The worker's index within the engine.
        worker: usize,
        /// The captured panic payload or disconnect description.
        cause: String,
    },
    /// The durability subsystem failed: the WAL or a checkpoint could
    /// not be written, read or repaired. Carries the underlying I/O
    /// context.
    Durability(String),
    /// The serving runtime refused to register a query: the admission
    /// budget (concurrent queries, joiner threads, memory) is exhausted.
    /// Carries the reason so the caller can tell which limit bit and
    /// retry after capacity frees up.
    Admission(String),
    /// A worker stopped draining its input channel: a routed send exceeded
    /// the configured deadline without the worker having recorded a panic.
    /// Distinguishes a wedged-but-alive worker from a dead one.
    WorkerStalled {
        /// Which engine the worker belongs to.
        engine: &'static str,
        /// The worker's index within the engine.
        worker: usize,
        /// How long the send waited before giving up.
        waited: StdDuration,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::SqlParse { offset, message } => {
                write!(f, "SQL parse error at byte {offset}: {message}")
            }
            Error::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            Error::Admission(reason) => write!(f, "admission rejected: {reason}"),
            Error::Durability(msg) => write!(f, "durability: {msg}"),
            Error::WorkerFailed {
                engine,
                worker,
                cause,
            } => {
                write!(f, "worker failed: {engine} worker {worker}: {cause}")
            }
            Error::WorkerStalled {
                engine,
                worker,
                waited,
            } => {
                write!(
                    f,
                    "worker stalled: {engine} worker {worker} did not accept input \
                     within {waited:?} (send deadline exceeded)"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::InvalidConfig("joiners must be > 0".into());
        assert!(e.to_string().contains("joiners must be > 0"));

        let e = Error::SqlParse {
            offset: 12,
            message: "expected PRECEDING".into(),
        };
        let s = e.to_string();
        assert!(s.contains("12") && s.contains("PRECEDING"));
    }

    #[test]
    fn worker_failures_carry_identity_and_payload() {
        let e = Error::WorkerFailed {
            engine: "scale-oij",
            worker: 3,
            cause: "index out of bounds".into(),
        };
        let s = e.to_string();
        assert!(s.contains("scale-oij") && s.contains('3') && s.contains("index out of bounds"));

        let e = Error::WorkerStalled {
            engine: "key-oij",
            worker: 1,
            waited: StdDuration::from_millis(250),
        };
        let s = e.to_string();
        assert!(s.contains("key-oij") && s.contains("stalled") && s.contains("250"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::InvalidState("x".into()));
    }
}
