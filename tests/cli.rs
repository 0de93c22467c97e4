//! End-to-end tests of the `oij` command-line binary.

use std::process::Command;

fn oij() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oij"))
}

#[test]
fn help_lists_commands() {
    let out = oij().arg("help").output().expect("run oij");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("oij run"));
    assert!(text.contains("oij gen"));
    assert!(text.contains("--engine"));
}

#[test]
fn workloads_prints_table_ii() {
    let out = oij().arg("workloads").output().expect("run oij");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["A", "B", "C", "D", "TableIV", "TableV"] {
        assert!(text.contains(name), "missing workload {name}:\n{text}");
    }
    assert!(text.contains("120K/s"));
}

#[test]
fn unknown_command_fails() {
    let out = oij().arg("frobnicate").output().expect("run oij");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn run_with_flags_reports_stats() {
    let out = oij()
        .args([
            "run",
            "--preceding",
            "200us",
            "--lateness",
            "50us",
            "--agg",
            "count",
            "--tuples",
            "20000",
            "--keys",
            "8",
            "--joiners",
            "2",
            "--engine",
            "scale",
            "--latency",
        ])
        .output()
        .expect("run oij");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("input tuples    : 20000"), "{text}");
    assert!(text.contains("throughput"), "{text}");
    assert!(text.contains("latency p50"), "{text}");
}

#[test]
fn run_with_sql_query() {
    let out = oij()
        .args([
            "run",
            "--sql",
            "SELECT sum(col2) OVER w1 FROM S WINDOW w1 AS (UNION R PARTITION BY key \
             ORDER BY timestamp ROWS_RANGE BETWEEN 1ms PRECEDING AND CURRENT ROW \
             LATENESS 100us)",
            "--tuples",
            "10000",
            "--engine",
            "key",
        ])
        .output()
        .expect("run oij");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("feature rows"));
}

#[test]
fn gen_then_replay_roundtrip() {
    let dir = std::env::temp_dir().join(format!("oij-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let feed = dir.join("feed.oij");

    let out = oij()
        .args([
            "gen",
            "--tuples",
            "5000",
            "--keys",
            "4",
            "--disorder",
            "100us",
            "--out",
            feed.to_str().unwrap(),
        ])
        .output()
        .expect("run oij gen");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(feed.exists());

    let out = oij()
        .args([
            "run",
            "--preceding",
            "500us",
            "--lateness",
            "100us",
            "--input",
            feed.to_str().unwrap(),
            "--engine",
            "splitjoin",
            "--joiners",
            "2",
        ])
        .output()
        .expect("run oij run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("input tuples    : 5000"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_engine_and_bad_duration_error_cleanly() {
    let out = oij()
        .args(["run", "--preceding", "1s", "--engine", "warp-drive"])
        .output()
        .expect("run oij");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown engine"));

    let out = oij()
        .args(["run", "--preceding", "1parsec"])
        .output()
        .expect("run oij");
    assert!(!out.status.success());
}

#[test]
fn serve_line_protocol_registers_feeds_and_cancels() {
    use std::io::Write;
    use std::process::Stdio;

    let mut child = oij()
        .args(["serve", "--joiners", "2", "--keys", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn oij serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"REGISTER -- name: spend\\nSELECT SUM(value) OVER w FROM base WINDOW w AS \
              (UNION probe PARTITION BY key ORDER BY ts ROWS_RANGE BETWEEN 100 PRECEDING \
              AND CURRENT ROW)\n\
              REGISTER nonsense query text\n\
              REGISTER SELECT MAX(value) OVER w FROM base WINDOW w AS (UNION probe \
              PARTITION BY key ORDER BY ts ROWS_RANGE BETWEEN 300 PRECEDING AND CURRENT ROW)\n\
              FEED 1000\n\
              STATS\n\
              CANCEL spend\n\
              STATS\n\
              QUIT\n",
        )
        .unwrap();
    let out = child.wait_with_output().expect("wait for oij serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("registered q0 (spend)"), "{text}");
    assert!(text.contains("rejected: SQL parse error"), "{text}");
    assert!(text.contains("fed 1000 events"), "{text}");
    // Both plans reserved two joiners; differing in window and aggregate
    // only, they run as one group on two threads.
    let shared = "active=2 groups=1 threads=2 events=1000 probes=";
    assert!(text.contains(shared), "{text}");
    let spend = "name=spend joiners=2 group=0 pushed=1000";
    assert!(text.contains(spend), "{text}");
    assert!(text.contains("q1 name=- joiners=2 group=0"), "{text}");
    // 1000 alternating events = 500 base rows answered by each query.
    assert!(text.contains("cancelled q0: results=500 shed=0"), "{text}");
    assert!(text.contains("active=1 groups=1 threads=2"), "{text}");
    assert!(text.contains("finished q1: results=500 shed=0"), "{text}");
}

#[test]
fn serve_admission_rejects_over_budget() {
    use std::io::Write;
    use std::process::Stdio;

    let sql = "REGISTER SELECT COUNT(value) OVER w FROM base WINDOW w AS (UNION probe \
               PARTITION BY key ORDER BY ts ROWS_RANGE BETWEEN 10 PRECEDING AND CURRENT ROW)\n";
    let mut child = oij()
        .args(["serve", "--max-queries", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn oij serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(format!("{sql}{sql}QUIT\n").as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("wait for oij serve");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("registered q0"), "{text}");
    assert!(text.contains("rejected: admission rejected"), "{text}");
    assert!(text.contains("finished q0: results=0"), "{text}");
}

#[test]
fn missing_query_is_reported() {
    let out = oij().args(["run", "--tuples", "10"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--preceding"));
}

#[test]
fn unknown_flags_and_missing_values_are_rejected() {
    for (args, flag) in [
        (&["--tupels", "10"][..], "--tupels"),
        (&["--payload", "8"], "--payload"),
        (&["--tuples"], "--tuples"),
    ] {
        let out = oij()
            .args(["run", "--preceding", "1ms"])
            .args(args)
            .output()
            .expect("run oij");
        assert!(!out.status.success(), "{args:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}
