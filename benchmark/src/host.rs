//! The host block printed with every result: a number without it cannot
//! be compared with another.

use std::process::Command;

use serde_json::Value;

use crate::json::{obj, text};
use crate::workloads::{BATCH, JOINERS};

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `repeats` names what the run repeated and how often.
pub fn block(seed: u64, repeats: &[(&str, usize)]) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("cores", Value::U64(cores as u64)),
        ("rustc", text(&first_line("rustc", &["--version"]))),
        // "unknown" in an exported checkout, which is not a git repository.
        (
            "commit",
            text(&first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("joiners", Value::U64(JOINERS as u64)),
        ("batch_size", Value::U64(BATCH as u64)),
        ("seed", Value::U64(seed)),
    ];
    fields.extend(
        repeats
            .iter()
            .map(|&(what, n)| (what, Value::U64(n as u64))),
    );
    obj(fields)
}
