//! The repository's one benchmark (see `README.md` beside this crate).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload <name> --seed <n>
//! ```
//!
//! runs the correctness pre-pass and the timed legs of one workload and
//! prints two lines of JSON: a report (host block, every repeat,
//! quartiles) and — last — the result the driver reads:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 1` selects
//! the traced run and the per-layer metrics, `--all` runs every workload
//! (each in a child process), `--aa` runs two full sets back to back and
//! compares them with the bounds.

mod aa;
mod host;
mod json;
mod layers;
mod legs;
mod metrics;
mod prepass;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use serde_json::Value;

use crate::json::{compact, obj};
use crate::run::RunArgs;

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// `--seed` when not given.
pub const DEFAULT_SEED: u64 = 20_230_403;

#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub all: bool,
    pub aa: bool,
}

const USAGE: &str = "usage: oij-benchmark (--workload <name> | --all | --aa) \
                     [--seed <n>] [--seconds <s>] [--trace [0|1]]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        all: false,
        aa: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
            }
            // `--trace` alone selects the traced run; the driver passes 0 or 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--all" => cli.all = true,
            "--aa" => cli.aa = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let modes = usize::from(cli.workload.is_some()) + usize::from(cli.all) + usize::from(cli.aa);
    if modes != 1 {
        return Err(format!(
            "give exactly one of --workload, --all, --aa\n{USAGE}"
        ));
    }
    Ok(cli)
}

/// The last line of standard output: exactly these four keys.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    compact(&obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", metrics),
    ]))
}

fn one_workload(name: &str, cli: &Cli) -> ExitCode {
    let Some(w) = workloads::by_name(name) else {
        let known: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    match run::run(&w, &args) {
        Ok(outcome) => {
            println!("{}", compact(&outcome.detail));
            let t = outcome.tally;
            println!(
                "{}",
                result_line(
                    outcome.correct,
                    t.attempted.max(1),
                    t.failed,
                    outcome.metrics
                )
            );
            if outcome.correct && t.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{name}: correct = {}, failed {} of {} (share {})",
                    outcome.correct,
                    t.failed,
                    t.attempted,
                    t.failed_share()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if cli.aa {
        aa::run_aa(&cli)
    } else if cli.all {
        aa::run_all(&cli)
    } else {
        let name = cli.workload.clone().expect("checked by parse_cli");
        one_workload(&name, &cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let c = cli(&[
            "--workload",
            "skew.late",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("skew.late"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 15.0, false));
        assert!(cli(&["--workload", "x", "--trace", "1"]).unwrap().trace);
        assert!(cli(&["--workload", "x", "--trace"]).unwrap().trace);
        assert!(cli(&["--trace", "--workload", "x"]).unwrap().trace);
    }

    #[test]
    fn bad_invocations_are_refused() {
        assert!(cli(&[]).is_err());
        assert!(cli(&["--all", "--aa"]).is_err());
        assert!(cli(&["--workload"]).is_err());
        assert!(cli(&["--all", "--seconds", "0"]).is_err());
        assert!(cli(&["--all", "--bogus"]).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, obj(vec![]));
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
