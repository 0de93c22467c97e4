//! `cargo xtask` — workspace task runner.
//!
//! One task: `lint` runs the concurrency-protocol rules R1, R2, R5 and R9
//! over the SWMR crates ([`xtask::lint`]) and exits non-zero on any
//! finding, so CI can gate on it directly. The `unsafe` discipline and the
//! hot-path panic/blocking rules are clippy lints (DESIGN.md §8).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => xtask::lint::run(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask <task>");
    eprintln!("tasks:");
    eprintln!("  lint   run the concurrency-protocol rules R1, R2, R5, R9 (see lint.toml)");
}
