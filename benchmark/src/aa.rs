//! `--all` and `--aa`: every workload in a child process of its own, so
//! no workload inherits another's heap, page cache or peak RSS.

use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::json::{compact, obj};
use crate::metrics::END_TO_END;
use crate::{workloads, Cli};

/// One workload's result line, as its child process printed it.
fn child(workload: &str, seed: u64, cli: &Cli) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: no result line: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: exited {}: {last}", output.status));
    }
    Ok(result)
}

/// One full set: every workload once, in order.
fn set(seed: u64, cli: &Cli) -> Result<Vec<(&'static str, Value)>, String> {
    workloads::all()
        .iter()
        .map(|w| {
            eprintln!("[{} seed {seed}]", w.name);
            Ok((w.name, child(w.name, seed, cli)?))
        })
        .collect()
}

pub fn run_all(cli: &Cli) -> ExitCode {
    match set(cli.seed, cli) {
        Ok(results) => {
            println!("{}", compact(&obj(results)));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Relative disagreement of two runs of the same code.
fn disagreement(a: f64, b: f64) -> f64 {
    (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
}

/// Two full sets back to back on `--seed` and two more on `--seed` + 1;
/// prints, as a Markdown table, every workload × end-to-end metric of
/// each pair with its relative difference beside its bound. Exits
/// non-zero if any pair disagrees by more than the bound.
pub fn run_aa(cli: &Cli) -> ExitCode {
    let mut worst_ok = true;
    println!("# A/A: two full sets of runs of the same code, back to back\n");
    println!(
        "`--aa --seed {} --seconds {}`; host: `{}`\n",
        cli.seed,
        cli.seconds,
        compact(&crate::host::block(cli.seed, &[]))
    );
    println!("| seed | workload | metric | first | second | difference | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|");
    for seed in [cli.seed, cli.seed + 1] {
        let (first, second) = match (set(seed, cli), set(seed, cli)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        for ((name, a), (_, b)) in first.iter().zip(&second) {
            for m in END_TO_END {
                let value = |r: &Value| r["metrics"][m.name]["value"].as_f64().unwrap_or(f64::NAN);
                let (va, vb) = (value(a), value(b));
                let diff = disagreement(va, vb);
                // NaN (a missing metric) fails the comparison too.
                let ok = diff <= m.bound;
                worst_ok &= ok;
                println!(
                    "| {seed} | {name} | {} | {va:.4} | {vb:.4} | {:.1} % | {:.0} % | {} |",
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0,
                    if ok { "agree" } else { "DISAGREE" }
                );
            }
        }
    }
    if worst_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("A/A: two runs of the same code disagree beyond a bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_relative_to_the_first_run() {
        assert_eq!(disagreement(100.0, 110.0), 0.1);
        assert_eq!(disagreement(100.0, 90.0), 0.1);
        assert!(disagreement(1.0, f64::NAN).is_nan());
    }
}
