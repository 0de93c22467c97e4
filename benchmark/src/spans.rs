//! The benchmark's own spans (`--trace 1`): one per call into a layer,
//! recorded from outside the program, kept in memory and written out
//! when the run ends. In-program spans are a later change (ROADMAP
//! item 2).

use std::time::Instant;

use serde_json::Value;

use crate::json::{num, obj, text};

/// One closed span: offsets in nanoseconds from the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Event `seq` for sampled `feed.push` spans.
    pub id: Option<u64>,
}

/// In-memory span recorder for the benchmark's single driver thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.offset(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            id: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.offset(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.begin(name);
        let out = f(self);
        self.end(idx);
        out
    }

    /// Records an already-timed leaf span under the innermost open one.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        self.spans.push(Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent: self.open.last().copied(),
            id: Some(id),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file body: every span with its self-time, the
    /// self-times summed by name, and the run's counts.
    pub fn to_json(&self, workload: &str, counts: Value) -> Value {
        let selfs = self_times(&self.spans);
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        for (span, &self_ns) in self.spans.iter().zip(&selfs) {
            match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += self_ns;
                }
                None => by_name.push((span.name, 1, self_ns)),
            }
        }
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, &self_ns)| {
                let mut fields = vec![
                    ("name", text(s.name)),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                    ("self_ns", num(self_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                ];
                if let Some(id) = s.id {
                    fields.push(("id", Value::U64(id)));
                }
                obj(fields)
            })
            .collect();
        obj(vec![
            ("workload", text(workload)),
            (
                "self_time_by_name",
                Value::Seq(
                    by_name
                        .into_iter()
                        .map(|(name, count, self_ns)| {
                            obj(vec![
                                ("name", text(name)),
                                ("spans", Value::U64(count)),
                                ("self_ns", Value::U64(self_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("counts", counts),
            ("spans", Value::Seq(spans)),
        ])
    }
}

/// A span's self-time is its duration minus the part of that interval its
/// direct children cover. Children come from one thread, so they never
/// overlap each other; each is clipped to its parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for child in spans {
        if let Some(p) = child.parent {
            let parent = &spans[p];
            let start = child.start_ns.max(parent.start_ns);
            let end = child.end_ns.min(parent.end_ns);
            out[p] = out[p].saturating_sub(end.saturating_sub(start));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("run", 0, 1000, None),
            span("setup", 100, 300, Some(0)),
            span("feed", 300, 900, Some(0)),
            span("push", 400, 450, Some(2)),
            span("push", 500, 560, Some(2)),
        ];
        // run: 1000 − (200 + 600); feed: 600 − (50 + 60); leaves keep
        // their whole duration. Grandchildren are not subtracted twice.
        assert_eq!(self_times(&spans), vec![200, 200, 490, 50, 60]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span("p", 100, 200, None), span("c", 150, 260, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 110]);
    }

    #[test]
    fn recorder_nests_and_closes_in_order() {
        let mut r = Recorder::new();
        r.within("outer", |r| {
            r.within("inner", |_| ());
            let now = Instant::now();
            r.leaf("feed.push", now, now, 7);
        });
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].id, Some(7));
        assert!(s[0].end_ns >= s[1].end_ns);
    }
}
