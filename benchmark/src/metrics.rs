//! The metric tables. `BENCHMARK.json` at the repository root mirrors
//! them (a unit test holds the two together); later issues cite these
//! names.

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_tps",
        unit: "tuples/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric the traced run
/// prints, in print order. Never gated.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = [
        ("workload.gen_ns_per_tuple", "ns", "lower"),
        ("workload.gen_lag_p99_us", "us", "lower"),
        ("core.push_ns_p50", "ns", "lower"),
        ("core.push_ns_p99", "ns", "lower"),
        ("core.push_blocked_share", "share", "lower"),
        ("core.finish_drain_ms", "ms", "lower"),
        ("core.batch.occupancy_mean", "tuples", "higher"),
        ("core.batch.occupancy_max", "tuples", "higher"),
        ("core.batch.gain", "x", "higher"),
        ("core.joiner.lookup_ns", "ns", "lower"),
        ("core.joiner.match_ns", "ns", "lower"),
        ("core.joiner.other_ns", "ns", "lower"),
        ("core.joiner.effectiveness", "share", "higher"),
        ("core.joiner.late_violations", "count", "lower"),
        ("core.joiner.evicted", "count", "higher"),
        ("core.scaleoij.unbalancedness", "share", "lower"),
        ("core.scaleoij.joiner_load_min", "count", "higher"),
        ("core.scaleoij.joiner_load_max", "count", "lower"),
        ("core.scaleoij.schedule_changes", "count", "lower"),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect();
    for backend in oij_index::IndexBackend::ALL {
        for what in [
            "insert_ns",
            "insert_batch64_ns",
            "scan_ns_per_call",
            "scan_ns_per_visit",
            "evict_ns",
        ] {
            out.push((format!("index.{}.{what}", backend.label()), "ns", "lower"));
        }
    }
    out.extend(
        [
            ("agg.running_add_evict_ns", "ns", "lower"),
            ("agg.twostack_push_evict_ns", "ns", "lower"),
            ("agg.full_add_ns", "ns", "lower"),
            ("durability.append_ns", "ns", "lower"),
            ("durability.bytes_per_record", "bytes", "lower"),
            ("durability.checkpoint_write_ms", "ms", "lower"),
            ("durability.recover_ms", "ms", "lower"),
            ("durability.replayed", "count", "lower"),
            ("serve.tps_at_1_plans", "tuples/s", "higher"),
            ("serve.tps_at_4_plans", "tuples/s", "higher"),
            ("serve.tps_at_16_plans", "tuples/s", "higher"),
            ("serve.push_ns_p50", "ns", "lower"),
            ("serve.cancel_drain_ms", "ms", "lower"),
            ("serve.pushed", "count", "higher"),
            ("serve.shed", "count", "lower"),
            ("serve.results", "count", "higher"),
            ("sink.emit_null_ns", "ns", "lower"),
            ("sink.emit_collect_ns", "ns", "lower"),
            ("sink.retries", "count", "lower"),
            ("sql.parse_ns", "ns", "lower"),
            ("trace_overhead_pct", "%", "lower"),
        ]
        .into_iter()
        .map(|(n, u, b)| (n.to_string(), u, b)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` is what the driver reads; it must name exactly the
    /// workloads and metrics this crate prints, with the same bounds.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&raw).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc[key]
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| m["name"].as_str().expect("a name").to_string())
                .collect()
        };

        let workloads: Vec<String> = crate::workloads::all()
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names("workloads"), workloads);
        for (listed, w) in doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .zip(crate::workloads::all())
        {
            assert_eq!(listed["why"].as_str(), Some(w.why), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let listed = doc["end_to_end"].as_array().unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (l, m) in listed.iter().zip(END_TO_END) {
            assert_eq!(l["name"].as_str(), Some(m.name));
            assert_eq!(l["unit"].as_str(), Some(m.unit));
            assert_eq!(l["better"].as_str(), Some(m.better));
            assert_eq!(l["bound"].as_f64(), Some(m.bound), "{}", m.name);
        }

        let listed = doc["per_layer"].as_array().unwrap();
        let ours = per_layer();
        assert_eq!(listed.len(), ours.len());
        for (l, (name, unit, better)) in listed.iter().zip(&ours) {
            assert_eq!(l["name"].as_str(), Some(name.as_str()));
            assert_eq!(l["unit"].as_str(), Some(*unit), "{name}");
            assert_eq!(l["better"].as_str(), Some(*better), "{name}");
        }

        assert_eq!(
            doc["run_seconds"].as_f64(),
            Some(crate::DEFAULT_SECONDS),
            "the default --seconds is the driver's"
        );
    }
}
