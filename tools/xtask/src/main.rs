//! `cargo xtask` — workspace task runner.
//!
//! Subcommands:
//! - `unsafe-audit` — every `unsafe` site must carry a justification
//!   ([`xtask::audit`]).
//! - `lint` — the concurrency-protocol rules R1–R5 and R9 over the SWMR
//!   crates ([`xtask::lint`]); `--json` emits machine-readable diagnostics.
//!
//! Both passes share the comment/string-aware scanner in
//! [`xtask::lexer`] and exit non-zero on any finding, so CI can gate on
//! them directly.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("unsafe-audit") => xtask::audit::unsafe_audit(),
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
    eprintln!("  unsafe-audit   check that every `unsafe` site carries a justification");
    eprintln!("  lint           run the concurrency-protocol rules (R1-R5 and R9, see lint.toml); --json for machine output");
}
