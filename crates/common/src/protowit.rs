//! Runtime message-protocol witness: per-channel trace checks.
//!
//! The static half of the workspace's temporal-protocol story is `cargo
//! xtask lint` rules R8/R9: send sites are tagged with declared
//! `lint.toml [protocol]` states and stamp pairs are lexically ordered.
//! This module is the dynamic half — the analogue of [`crate::lockdep`]
//! for message grammars. A [`ProtoChannel`] shadows one protocol edge on
//! its receive (or send) side and checks every observation against the
//! temporal contract; three violations panic on the spot, each reporting
//! the sites involved:
//!
//! - **heartbeat regression**: a `Heartbeat` timestamp below an earlier
//!   one, or below the watermark of data already seen — progress claims
//!   must be monotone, and a heartbeat must not un-declare data;
//! - **send after finish**: any observation after the edge's terminal
//!   `Finish` — the declared automaton has no outgoing transitions there
//!   (double-`Finish` reports both finish sites);
//! - **unmarked delivery**: a [`DeliveryGuard`] dropped without
//!   [`DeliveryGuard::marked`] — a row left the durable sink without the
//!   exactly-once mark that makes its delivery recoverable.
//!
//! Instrumentation is compiled under `--cfg protowit` (and in this
//! crate's own unit tests); otherwise every type here is an inert
//! zero-sized shim. Under `OIJ_PROTO_LOG=<path>` every first-observed
//! channel, per-symbol send, and finish is appended to `<path>`;
//! `cargo xtask proto-check <path>` then verifies observed ⊆ declared
//! against `lint.toml [protocol]`.
//!
//! Engines never name this module directly — `crates/core`'s
//! `instrument.rs` probes wrap it, so the splice point is the same one
//! the latency/backpressure instrumentation uses.

pub use imp::{begin_delivery, DeliveryGuard, ProtoChannel};

#[cfg(any(protowit, test))]
mod imp {
    //! The active witness.

    use std::io::Write as _;
    use std::panic::Location;
    use std::sync::{Mutex, PoisonError};

    use crate::Timestamp;

    /// Edges with this prefix (the witness's own self-tests) are checked
    /// but never logged, so a workspace-wide `OIJ_PROTO_LOG` capture
    /// records only the production protocol and `cargo xtask proto-check`
    /// does not demand the synthetic test edges be declared in lint.toml.
    const SELFTEST_PREFIX: &str = "__selftest_";

    /// Appends one log line if `OIJ_PROTO_LOG` is set. Failures are
    /// ignored — the witness must never take the process down over I/O.
    fn log_line(line: &str) {
        let Ok(path) = std::env::var("OIJ_PROTO_LOG") else {
            return;
        };
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            // One `write` per record: with O_APPEND that keeps records
            // from concurrent threads (and test binaries) whole, which
            // `writeln!`'s separate newline write does not.
            let _ = f.write_all(format!("{line}\n").as_bytes());
        }
    }

    /// Per-channel trace state, behind a plain std mutex — the witness
    /// must not recurse into the class-carrying wrappers it audits.
    #[derive(Default)]
    struct ChanState {
        last_heartbeat: Option<Timestamp>,
        max_data: Option<Timestamp>,
        finished: Option<&'static Location<'static>>,
        /// Symbols already logged for this channel (keep-first; the
        /// checker dedups across channels and binaries anyway).
        logged_syms: Vec<&'static str>,
    }

    /// The send-trace shadow of one protocol edge. One instance per
    /// observing endpoint (each joiner's receive loop, the collector);
    /// the temporal contract holds per stream, so each endpoint checks
    /// its own.
    #[derive(Debug)]
    pub struct ProtoChannel {
        edge: &'static str,
        state: Mutex<ChanState>,
    }

    impl std::fmt::Debug for ChanState {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ChanState").finish_non_exhaustive()
        }
    }

    impl ProtoChannel {
        /// Opens the shadow of protocol edge `edge` (a `lint.toml
        /// [protocol]` alias) at the caller's location.
        #[track_caller]
        pub fn new(edge: &'static str) -> ProtoChannel {
            if !edge.starts_with(SELFTEST_PREFIX) {
                log_line(&format!("channel {edge} {}", Location::caller()));
            }
            ProtoChannel {
                edge,
                state: Mutex::new(ChanState::default()),
            }
        }

        fn observe(
            &self,
            sym: &'static str,
            site: &'static Location<'static>,
            check: impl FnOnce(&mut ChanState, &'static str),
        ) {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(closed) = st.finished {
                panic!(
                    "protowit: `{sym}` on edge `{}` after finish (closed at {closed}, \
                     observed at {site})",
                    self.edge
                );
            }
            check(&mut st, self.edge);
            if !st.logged_syms.contains(&sym) && !self.edge.starts_with(SELFTEST_PREFIX) {
                st.logged_syms.push(sym);
                if sym == "finish" {
                    log_line(&format!("finish {} {site}", self.edge));
                } else {
                    log_line(&format!("send {} {sym} {site}", self.edge));
                }
            }
        }

        /// Observes one `Data` message carrying watermark `stamp`.
        #[track_caller]
        pub fn data(&self, stamp: Timestamp) {
            self.observe("data", Location::caller(), |st, _| {
                st.max_data = Some(st.max_data.map_or(stamp, |m| m.max(stamp)));
            });
        }

        /// Observes one `Batch` of `len` messages (the per-message
        /// watermarks go through [`data`](Self::data)).
        #[track_caller]
        pub fn batch(&self, len: usize) {
            let _ = len;
            self.observe("batch", Location::caller(), |_, _| {});
        }

        /// Observes one `Heartbeat` carrying timestamp `ts`. Panics on a
        /// regression: `ts` below an earlier heartbeat, or below the
        /// watermark of data already observed.
        #[track_caller]
        pub fn heartbeat(&self, ts: Timestamp) {
            self.observe("heartbeat", Location::caller(), |st, edge| {
                if let Some(prev) = st.last_heartbeat {
                    if ts < prev {
                        panic!(
                            "protowit: heartbeat regression on edge `{edge}`: {} after {} \
                             — progress claims must be monotone",
                            ts.as_micros(),
                            prev.as_micros()
                        );
                    }
                }
                if let Some(max) = st.max_data {
                    if ts < max {
                        panic!(
                            "protowit: heartbeat {} on edge `{edge}` below the watermark \
                             {} of data already observed — a heartbeat must not un-declare \
                             data",
                            ts.as_micros(),
                            max.as_micros()
                        );
                    }
                }
                st.last_heartbeat = Some(ts);
            });
        }

        /// Observes the edge's terminal `Finish`. A second finish panics
        /// reporting both sites; any later observation panics too.
        #[track_caller]
        pub fn finish(&self) {
            let site = Location::caller();
            self.observe("finish", site, |st, _| {
                st.finished = Some(site);
            });
        }
    }

    /// RAII armed between a durable sink's delivery and its
    /// exactly-once mark; see [`begin_delivery`].
    #[must_use = "dropping the guard unmarked is the violation it exists to catch"]
    #[derive(Debug)]
    pub struct DeliveryGuard {
        seq: u64,
        site: &'static Location<'static>,
        defused: bool,
    }

    /// Arms a delivery guard for the row identified by `seq`. Call
    /// before handing the row to the user sink; call
    /// [`DeliveryGuard::marked`] only after the emitted-mark persisted.
    /// Dropping the guard unmarked (outside an unwind already in
    /// progress) panics: the row was delivered but a crash now would
    /// replay it, breaking exactly-once.
    #[track_caller]
    pub fn begin_delivery(seq: u64) -> DeliveryGuard {
        DeliveryGuard {
            seq,
            site: Location::caller(),
            defused: false,
        }
    }

    impl DeliveryGuard {
        /// Defuses the guard: the delivery was marked emitted.
        pub fn marked(mut self) {
            self.defused = true;
        }
    }

    impl Drop for DeliveryGuard {
        fn drop(&mut self) {
            if !self.defused && !std::thread::panicking() {
                panic!(
                    "protowit: delivery of row seq {} (begun at {}) was never marked \
                     emitted — delivered ⇒ logged is the exactly-once contract",
                    self.seq, self.site
                );
            }
        }
    }
}

#[cfg(not(any(protowit, test)))]
mod imp {
    //! The inert witness: zero-sized shims, no tracking, no cost.

    use crate::Timestamp;

    /// Inert shadow of a protocol edge (`--cfg protowit` disabled).
    #[derive(Debug)]
    pub struct ProtoChannel;

    impl ProtoChannel {
        /// Opens an inert shadow.
        #[inline]
        pub fn new(_edge: &'static str) -> ProtoChannel {
            ProtoChannel
        }
        /// No-op.
        #[inline]
        pub fn data(&self, _stamp: Timestamp) {}
        /// No-op.
        #[inline]
        pub fn batch(&self, _len: usize) {}
        /// No-op.
        #[inline]
        pub fn heartbeat(&self, _ts: Timestamp) {}
        /// No-op.
        #[inline]
        pub fn finish(&self) {}
    }

    /// Inert delivery guard (`--cfg protowit` disabled).
    #[derive(Debug)]
    pub struct DeliveryGuard;

    /// Arms nothing.
    #[inline]
    pub fn begin_delivery(_seq: u64) -> DeliveryGuard {
        DeliveryGuard
    }

    impl DeliveryGuard {
        /// No-op.
        #[inline]
        pub fn marked(self) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;
    use std::thread;

    fn ts(us: i64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    /// Runs `f` on a fresh thread and returns its panic message, if any.
    fn panic_message(f: impl FnOnce() + Send + 'static) -> Option<String> {
        let err = thread::Builder::new().spawn(f).unwrap().join().err()?;
        Some(match err.downcast::<String>() {
            Ok(s) => *s,
            Err(other) => other.downcast::<&'static str>().unwrap().to_string(),
        })
    }

    #[test]
    fn well_formed_stream_is_silent() {
        let ch = ProtoChannel::new("__selftest_ok");
        ch.data(ts(5));
        ch.batch(3);
        ch.data(ts(9));
        ch.heartbeat(ts(9));
        ch.heartbeat(ts(12));
        ch.finish();
    }

    #[test]
    fn heartbeat_regression_panics() {
        let msg = panic_message(|| {
            let ch = ProtoChannel::new("__selftest_hb_regress");
            ch.heartbeat(ts(10));
            ch.heartbeat(ts(7));
        })
        .expect("regressing heartbeat must panic");
        assert!(msg.contains("heartbeat regression"), "{msg}");
        assert!(msg.contains('7') && msg.contains("10"), "{msg}");
    }

    #[test]
    fn heartbeat_below_observed_data_panics() {
        let msg = panic_message(|| {
            let ch = ProtoChannel::new("__selftest_hb_data");
            ch.data(ts(20));
            ch.heartbeat(ts(15));
        })
        .expect("heartbeat below data watermark must panic");
        assert!(msg.contains("un-declare"), "{msg}");
    }

    #[test]
    fn double_finish_reports_both_sites() {
        let msg = panic_message(|| {
            let ch = ProtoChannel::new("__selftest_double_finish");
            ch.finish(); // first site
            ch.finish(); // second site
        })
        .expect("double finish must panic");
        assert!(msg.contains("after finish"), "{msg}");
        // Both the first and the second finish sites are named, as
        // file:line:col locations in this file.
        let sites = msg.matches("protowit.rs").count();
        assert!(sites >= 2, "expected both sites in: {msg}");
    }

    #[test]
    fn send_after_finish_panics() {
        let msg = panic_message(|| {
            let ch = ProtoChannel::new("__selftest_post_finish");
            ch.data(ts(1));
            ch.finish();
            ch.data(ts(2));
        })
        .expect("send after finish must panic");
        assert!(
            msg.contains("`data`") && msg.contains("after finish"),
            "{msg}"
        );
    }

    #[test]
    fn unmarked_delivery_panics_on_drop() {
        let msg = panic_message(|| {
            let guard = begin_delivery(41);
            drop(guard);
        })
        .expect("unmarked delivery must panic");
        assert!(msg.contains("never marked emitted"), "{msg}");
        assert!(msg.contains("41"), "{msg}");
    }

    #[test]
    fn marked_delivery_is_silent_and_unwind_does_not_double_panic() {
        let guard = begin_delivery(1);
        guard.marked();
        // During an unwind the guard stays quiet — the original panic is
        // the report.
        let msg = panic_message(|| {
            let _guard = begin_delivery(2);
            panic!("original failure");
        })
        .unwrap();
        assert_eq!(msg, "original failure");
    }
}
