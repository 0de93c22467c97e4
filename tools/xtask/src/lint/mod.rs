//! The concurrency-protocol lint engine (`cargo xtask lint`).
//!
//! A workspace-local static analysis pass over the token stream produced
//! by [`crate::lexer`]: a registry of domain rules checks that the SWMR
//! publication protocol's conventions hold everywhere, every time, instead
//! of being rediscovered per review. The rules (see [`rules`]):
//!
//! | id | name | invariant |
//! |----|------|-----------|
//! | R1 | `ordering-justification` | every atomic `Ordering::*` call site carries an `// ORDERING:` comment naming its pairing site |
//! | R2 | `facade-only-sync` | loom-verified crates import atomics/locks only through their `sync.rs` facade |
//! | R3 | `hot-path-panic` | no `unwrap`/`expect`/`panic!`/`todo!`/slice-index in `//! lint: hot_path` modules without `// PANIC-OK:` |
//! | R4 | `hot-path-blocking` | no lock acquisition, sleeps, or blocking channel ops in `hot_path` modules without `// BLOCKING-OK:` |
//! | R5 | `loom-coverage` | every public atomic-owning type is named in a loom model (or allowlisted as uncovered) |
//! | R9 | `stamp-discipline` | ordering-sentinel calls (`mark_emitted`, `record_event`, tracker `observe`) carry `// STAMP: <pair>.{pre,post}` naming a declared `[stamps]` pair, with pre lexically dominating post in its function |
//!
//! Scope and per-rule suppressions live in `lint.toml` at the workspace
//! root ([`config`]); diagnostics are rustc-style (`error[R1]: ...` with a
//! `-->` location and a `help:` suggestion). Test modules
//! (`#[cfg(test)]`) and integration-test trees are exempt from R1–R4:
//! the protocol rules protect production hot paths, and tests
//! deliberately use raw primitives, panics, and blocking calls.

pub mod config;
pub mod rules;

use std::fmt;
use std::process::ExitCode;

use crate::lexer::SourceFile;
use crate::{collect_rs_files, workspace_root};
use config::Config;
use rules::registry;

/// One lint finding, addressed by (rule, file, line) and matched against
/// allowlist entries by (rule, file, subject).
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule id (`R1`..`R5`, `R9`).
    pub rule: &'static str,
    /// Human-readable rule name (`ordering-justification`, ...).
    pub name: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was matched — an ordering token, an import path, a type name.
    /// Allowlist `subject` fields match against this.
    pub subject: String,
    /// One-sentence statement of the violation.
    pub message: String,
    /// Rustc-style `help:` suggestion.
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}/{}]: {}", self.rule, self.name, self.message)?;
        writeln!(f, "  --> {}:{}", self.file, self.line)?;
        write!(f, "   = help: {}", self.help)
    }
}

/// A registered lint rule. Rules see the whole workspace at once so
/// cross-file rules (R5's model-coverage audit) fit the same interface as
/// per-file token scans.
pub trait Rule {
    /// Stable id used in diagnostics and `lint.toml` (`"R1"`).
    fn id(&self) -> &'static str;
    /// Short kebab-case name (`"ordering-justification"`).
    fn name(&self) -> &'static str;
    /// Scans `files` and appends findings to `out`.
    fn check(&self, files: &[SourceFile], cfg: &Config, out: &mut Vec<Diagnostic>);
}

/// Outcome of [`check_files`]: surviving diagnostics plus bookkeeping on
/// how the allowlist was used.
pub struct LintOutcome {
    /// Diagnostics not suppressed by any allowlist entry.
    pub diagnostics: Vec<Diagnostic>,
    /// How many diagnostics each allowlist entry suppressed (parallel to
    /// `Config::allow`). An entry with 0 uses is stale and fails the run.
    pub allow_uses: Vec<usize>,
}

impl LintOutcome {
    /// Indices of allowlist entries that suppressed nothing.
    pub fn stale_allows(&self) -> Vec<usize> {
        self.allow_uses
            .iter()
            .enumerate()
            .filter_map(|(i, &n)| (n == 0).then_some(i))
            .collect()
    }
}

/// Runs every registered rule over already-parsed files and applies the
/// allowlist. This is the engine's pure core — the CLI feeds it the real
/// tree, the test suite feeds it fixtures.
pub fn check_files(files: &[SourceFile], cfg: &Config) -> LintOutcome {
    let mut raw = Vec::new();
    for rule in registry() {
        rule.check(files, cfg, &mut raw);
    }
    raw.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    let mut allow_uses = vec![0usize; cfg.allow.len()];
    let diagnostics = raw
        .into_iter()
        .filter(|d| {
            let mut suppressed = false;
            for (i, e) in cfg.allow.iter().enumerate() {
                if e.rule == d.rule
                    && e.file == d.file
                    && (e.subject.is_empty() || d.subject.contains(&e.subject))
                {
                    allow_uses[i] += 1;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();
    LintOutcome {
        diagnostics,
        allow_uses,
    }
}

/// Escapes `s` for embedding in a JSON string literal. Hand-rolled —
/// xtask is dependency-free by policy, and lint diagnostics only need
/// the mandatory escapes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics (and stale-allow findings, as pseudo-rule
/// `stale-allow`) as a JSON array for CI annotation tooling. Each item
/// carries a `span` — the `{"byte_start": s, "byte_end": e}` extent of
/// the diagnosed line in the file's original bytes — or `null` when the
/// diagnostic anchors to a file the engine did not parse (lint.toml's
/// declaration lines, stale allows). The schema is pinned by a fixture
/// test; changing a key or the span shape is a breaking change for the
/// CI artifact consumers.
pub fn render_json(outcome: &LintOutcome, cfg: &Config, files: &[SourceFile]) -> String {
    let span_of = |file: &str, line: usize| -> String {
        files
            .iter()
            .find(|f| f.rel == file)
            .and_then(|f| f.line_span(line))
            .map(|(s, e)| format!("{{\"byte_start\": {s}, \"byte_end\": {e}}}"))
            .unwrap_or_else(|| "null".to_string())
    };
    let mut items = Vec::new();
    for d in &outcome.diagnostics {
        items.push(format!(
            "  {{\"rule\": \"{}\", \"name\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"span\": {}, \"subject\": \"{}\", \"message\": \"{}\", \"help\": \"{}\"}}",
            json_escape(d.rule),
            json_escape(d.name),
            json_escape(&d.file),
            d.line,
            span_of(&d.file, d.line),
            json_escape(&d.subject),
            json_escape(&d.message),
            json_escape(&d.help),
        ));
    }
    for i in outcome.stale_allows() {
        let e = &cfg.allow[i];
        items.push(format!(
            "  {{\"rule\": \"stale-allow\", \"name\": \"stale-allow\", \"file\": \"lint.toml\", \
             \"line\": 0, \"span\": null, \"subject\": \"{}\", \"message\": \"[[allow]] entry \
             #{} ({} in {}) suppressed nothing — remove it\", \"help\": \"remove the stale \
             entry\"}}",
            json_escape(&e.subject),
            i + 1,
            json_escape(&e.rule),
            json_escape(&e.file),
        ));
    }
    format!("[\n{}\n]", items.join(",\n"))
}

/// CLI entry point: loads `lint.toml`, parses every file the config puts
/// in scope, runs the registry, prints diagnostics, and sets the exit
/// code. Stale allowlist entries are hard errors. With `--json` the
/// findings go to stdout as a JSON array instead of rustc-style text.
pub fn run(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    if let Some(bad) = args.iter().find(|a| *a != "--json") {
        eprintln!("lint: unknown option `{bad}` (supported: --json)");
        return ExitCode::FAILURE;
    }
    let root = workspace_root();
    let cfg_path = root.join("lint.toml");
    let cfg_text = match std::fs::read_to_string(&cfg_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lint: cannot read {}: {e}", cfg_path.display());
            return ExitCode::FAILURE;
        }
    };
    let cfg = match Config::parse(&cfg_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Parse every file any rule can look at: the scoped source dirs, the
    // loom-audited dirs, and the model files themselves.
    let mut paths = Vec::new();
    for dir in cfg
        .scope_src
        .iter()
        .chain(cfg.loom_crates.iter())
        .map(String::as_str)
    {
        collect_rs_files(&root.join(dir), &mut paths);
    }
    for model in &cfg.loom_models {
        let p = root.join(model);
        if p.is_file() {
            paths.push(p);
        } else {
            eprintln!("lint: loom model file {model} does not exist");
            return ExitCode::FAILURE;
        }
    }
    paths.sort();
    paths.dedup();

    let mut files = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("lint: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(&rel, &text));
    }

    let outcome = check_files(&files, &cfg);
    let mut failed = false;
    if json {
        println!("{}", render_json(&outcome, &cfg, &files));
        failed = !outcome.diagnostics.is_empty() || !outcome.stale_allows().is_empty();
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    for d in &outcome.diagnostics {
        eprintln!("{d}\n");
        failed = true;
    }
    for i in outcome.stale_allows() {
        let e = &cfg.allow[i];
        eprintln!(
            "error[stale-allow]: lint.toml [[allow]] entry #{} ({} in {}{}) suppressed \
             nothing — remove it\n",
            i + 1,
            e.rule,
            e.file,
            if e.subject.is_empty() {
                String::new()
            } else {
                format!(", subject `{}`", e.subject)
            }
        );
        failed = true;
    }
    let suppressed: usize = outcome.allow_uses.iter().sum();
    if failed {
        eprintln!(
            "lint: FAILED — {} violation(s) across {} file(s) ({} suppressed by lint.toml)",
            outcome.diagnostics.len(),
            files.len(),
            suppressed
        );
        ExitCode::FAILURE
    } else {
        println!(
            "lint: OK — {} file(s) clean under rules {} ({} finding(s) suppressed by lint.toml)",
            files.len(),
            registry()
                .iter()
                .map(|r| r.id())
                .collect::<Vec<_>>()
                .join("/"),
            suppressed
        );
        ExitCode::SUCCESS
    }
}
