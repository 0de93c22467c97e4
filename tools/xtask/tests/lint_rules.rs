//! End-to-end tests for the lint engine: each rule gets one positive and
//! one negative fixture under `tests/fixtures/`, parsed exactly as the
//! CLI would and pushed through [`xtask::lint::check_files`]. Assertions
//! compare the *full* `(rule, line)` set, so a rule firing on the wrong
//! line — or a different rule firing at all — fails the test.

use std::fs;
use std::path::Path;

use xtask::lexer::SourceFile;
use xtask::lint::check_files;
use xtask::lint::config::Config;

/// Parses `tests/fixtures/<name>` under the synthetic workspace-relative
/// path `rel`, which decides how `lint.toml` scopes apply to it.
fn fixture(rel: &str, name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    SourceFile::parse(rel, &text)
}

/// The fixture workspace: a scoped source dir, a facade file, a
/// loom-audited dir, and a model file — mirroring the real lint.toml.
fn demo_config(extra: &str) -> Config {
    let base = r#"
[scope]
src = ["crates/demo/src"]

[facade]
files = ["crates/demo/src/sync.rs"]

[loom]
crates = ["crates/demo/loomed"]
models = ["crates/demo/tests/loom.rs"]
"#;
    Config::parse(&format!("{base}{extra}")).expect("fixture config parses")
}

/// `(rule, line)` for every surviving diagnostic, in engine order.
fn findings(files: &[SourceFile], cfg: &Config) -> Vec<(&'static str, usize)> {
    check_files(files, cfg)
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn r1_flags_unjustified_ordering_sites_at_exact_lines() {
    let cfg = demo_config("");
    let f = fixture("crates/demo/src/r1_bad.rs", "r1_bad.rs");
    assert_eq!(
        findings(&[f], &cfg),
        vec![("R1", 8), ("R1", 10), ("R1", 12), ("R1", 17)]
    );
}

#[test]
fn r1_accepts_justified_ordering_sites() {
    let cfg = demo_config("");
    let f = fixture("crates/demo/src/r1_good.rs", "r1_good.rs");
    assert_eq!(findings(&[f], &cfg), vec![]);
}

#[test]
fn r2_flags_facade_bypasses_at_exact_lines() {
    let cfg = demo_config("");
    let f = fixture("crates/demo/src/r2_bad.rs", "r2_bad.rs");
    assert_eq!(
        findings(&[f], &cfg),
        vec![("R2", 4), ("R2", 5), ("R2", 6), ("R2", 9)]
    );
}

#[test]
fn r2_subjects_name_the_bypassed_path() {
    let cfg = demo_config("");
    let f = fixture("crates/demo/src/r2_bad.rs", "r2_bad.rs");
    let subjects: Vec<String> = check_files(&[f], &cfg)
        .diagnostics
        .into_iter()
        .map(|d| d.subject)
        .collect();
    assert_eq!(
        subjects,
        vec![
            "std::sync::atomic",
            "std::sync::Mutex",
            "std::sync::RwLock",
            "loom::sync"
        ]
    );
}

#[test]
fn r2_accepts_facade_imports_and_exempts_the_facade_itself() {
    let cfg = demo_config("");
    let good = fixture("crates/demo/src/r2_good.rs", "r2_good.rs");
    assert_eq!(findings(&[good], &cfg), vec![]);
    // The same bypassing file parsed *as* the facade raises nothing: the
    // facade is the one place allowed to name std::sync / loom::sync.
    let as_facade = fixture("crates/demo/src/sync.rs", "r2_bad.rs");
    assert_eq!(findings(&[as_facade], &cfg), vec![]);
}

#[test]
fn r3_flags_panicking_ops_at_exact_lines() {
    let cfg = demo_config("");
    let f = fixture("crates/demo/src/r3_bad.rs", "r3_bad.rs");
    assert_eq!(
        findings(&[f], &cfg),
        vec![("R3", 7), ("R3", 9), ("R3", 11), ("R3", 13), ("R3", 15)]
    );
}

#[test]
fn r3_accepts_justified_panics_and_non_panicking_cousins() {
    let cfg = demo_config("");
    let f = fixture("crates/demo/src/r3_good.rs", "r3_good.rs");
    assert_eq!(findings(&[f], &cfg), vec![]);
}

#[test]
fn r3_is_scoped_to_configured_source_dirs() {
    let cfg = demo_config("");
    // Same hot_path-tagged content outside [scope] src: not checked.
    let f = fixture("crates/other/src/r3_bad.rs", "r3_bad.rs");
    assert_eq!(findings(&[f], &cfg), vec![]);
}

#[test]
fn r4_flags_blocking_ops_at_exact_lines() {
    let cfg = demo_config("");
    let f = fixture("crates/demo/src/r4_bad.rs", "r4_bad.rs");
    assert_eq!(
        findings(&[f], &cfg),
        vec![("R4", 7), ("R4", 8), ("R4", 9), ("R4", 10), ("R4", 11)]
    );
}

#[test]
fn r4_accepts_try_variants_and_justified_blocking() {
    let cfg = demo_config("");
    let f = fixture("crates/demo/src/r4_good.rs", "r4_good.rs");
    assert_eq!(findings(&[f], &cfg), vec![]);
}

#[test]
fn r5_flags_the_model_uncovered_type_only() {
    let cfg = demo_config("");
    let files = [
        fixture("crates/demo/loomed/r5_src.rs", "r5_src.rs"),
        fixture("crates/demo/tests/loom.rs", "r5_models.rs"),
    ];
    let out = check_files(&files, &cfg);
    let got: Vec<(&str, usize, &str)> = out
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.line, d.subject.as_str()))
        .collect();
    // `Covered` is driven by the model; `Uncovered` is named there only
    // inside a comment, which masking hides; `Plain` owns no atomic; and
    // `View` holds atomics behind a raw pointer (a borrow, not ownership).
    assert_eq!(got, vec![("R5", 10, "Uncovered")]);
}

#[test]
fn r1_flags_the_untagged_backend_publish_idiom() {
    // The index-backend publish path (RCU swap, stamp store, late-count
    // bump) is the idiom crates/index lives on; each ordering site needs
    // its own justification.
    let cfg = demo_config("");
    let f = fixture("crates/demo/src/r1_publish_bad.rs", "r1_publish_bad.rs");
    assert_eq!(
        findings(&[f], &cfg),
        vec![("R1", 8), ("R1", 10), ("R1", 12)]
    );
}

#[test]
fn r1_accepts_the_tagged_backend_publish_idiom() {
    let cfg = demo_config("");
    let f = fixture("crates/demo/src/r1_publish_good.rs", "r1_publish_good.rs");
    assert_eq!(findings(&[f], &cfg), vec![]);
}

#[test]
fn r5_exempts_private_atomic_owning_backend_state() {
    // The backends keep their atomic-owning shared structs private and
    // drive them through public handles; R5 must not demand models for
    // types that cannot escape the crate — even with no model file at
    // all in the run.
    let cfg = demo_config("");
    let f = fixture("crates/demo/loomed/r5_private.rs", "r5_private.rs");
    assert_eq!(findings(&[f], &cfg), vec![]);
}

/// The `[stamps]` declarations the R9 fixtures are written against.
const STAMPS_TABLE: &str = r#"
[stamps]
pairs = [
    "wal-dispatch : wal-append < dispatch",
    "deliver-mark : deliver < mark-emitted",
    "stamp-observe : stamp-read < tracker-observe",
]
"#;

/// `(line, subject)` of every surviving diagnostic of one rule.
fn rule_findings(files: &[SourceFile], cfg: &Config, id: &str) -> Vec<(usize, String)> {
    check_files(files, cfg)
        .diagnostics
        .into_iter()
        .filter(|d| d.rule == id)
        .map(|d| (d.line, d.subject))
        .collect()
}

#[test]
fn r9_flags_untagged_unknown_misroled_missing_and_inverted_sites() {
    let cfg = demo_config(STAMPS_TABLE);
    let f = fixture("crates/demo/src/r9_bad.rs", "r9_bad.rs");
    let s = |t: &str| t.to_string();
    assert_eq!(
        rule_findings(&[f], &cfg, "R9"),
        vec![
            (5, s("record_event")),                     // untagged WAL append
            (6, s("mark_emitted")),                     // untagged exactly-once mark
            (7, s("tracker.observe")),                  // untagged tracker observation
            (11, s("ghost.pre")),                       // tag names no declared pair
            (16, s("wal-dispatch.during")),             // role is neither pre nor post
            (21, s("wal-dispatch.post")),               // post with no pre in the function
            (26, s("deliver-mark.post")),               // pre exists but only after post
            (cfg.stamp_pairs_line, s("stamp-observe")), // pair named by no tag here
        ]
    );
}

#[test]
fn r9_distinguishes_missing_from_inverted_orderings() {
    let cfg = demo_config(STAMPS_TABLE);
    let f = fixture("crates/demo/src/r9_bad.rs", "r9_bad.rs");
    let out = check_files(&[f], &cfg);
    let missing = out
        .diagnostics
        .iter()
        .find(|d| d.rule == "R9" && d.line == 21)
        .unwrap();
    assert!(missing.message.contains("first half is missing"));
    let inverted = out
        .diagnostics
        .iter()
        .find(|d| d.rule == "R9" && d.line == 26)
        .unwrap();
    assert!(inverted.message.contains("inverted"));
    assert!(
        inverted.message.contains("(line 28)"),
        "inversion must cite the late pre line: {}",
        inverted.message
    );
}

#[test]
fn r9_accepts_tagged_and_ordered_pairs() {
    let cfg = demo_config(STAMPS_TABLE);
    let f = fixture("crates/demo/src/r9_good.rs", "r9_good.rs");
    assert_eq!(rule_findings(&[f], &cfg, "R9"), vec![]);
}

#[test]
fn r9_allow_suppresses_an_untagged_sentinel_and_counts_the_use() {
    let cfg = demo_config(&format!(
        "{}{}",
        STAMPS_TABLE,
        r#"
[[allow]]
rule = "R9"
file = "crates/demo/src/r9_bad.rs"
subject = "tracker.observe"
reason = "replay-side observation of a stamp fixed in a prior run"
"#
    ));
    let f = fixture("crates/demo/src/r9_bad.rs", "r9_bad.rs");
    let out = check_files(&[f], &cfg);
    assert_eq!(out.allow_uses, vec![1]);
    assert!(out.stale_allows().is_empty());
    assert!(
        !out.diagnostics
            .iter()
            .any(|d| d.rule == "R9" && d.line == 7),
        "the allowed tracker.observe finding must be suppressed"
    );
}

#[test]
fn json_output_pins_the_schema_and_byte_spans() {
    // Schema pin: every diagnostic renders the eight keys in this order,
    // `span` carries the flagged line's byte range, and declaration-level
    // findings (anchored in lint.toml, which is not a parsed source file)
    // render `"span": null`. Treat a change here as a breaking change to
    // `cargo xtask lint --json` consumers.
    let cfg = demo_config(STAMPS_TABLE);
    let files = [fixture("crates/demo/src/r9_bad.rs", "r9_bad.rs")];
    let out = check_files(&files, &cfg);
    let json = xtask::lint::render_json(&out, &cfg, &files);
    assert!(
        json.contains(
            "{\"rule\": \"R9\", \"name\": \"stamp-discipline\", \
             \"file\": \"crates/demo/src/r9_bad.rs\", \"line\": 5, \
             \"span\": {\"byte_start\": 128, \"byte_end\": 152}, \
             \"subject\": \"record_event\""
        ),
        "span of r9_bad.rs:5 drifted:\n{json}"
    );
    // The stale-pair finding is anchored at lint.toml, which has no span.
    let stale = format!(
        "\"file\": \"lint.toml\", \"line\": {}, \"span\": null, \"subject\": \"stamp-observe\"",
        cfg.stamp_pairs_line
    );
    assert!(
        json.contains(&stale),
        "lint.toml-anchored findings must render a null span:\n{json}"
    );
}

#[test]
fn allowlist_suppresses_matching_diagnostics_and_counts_uses() {
    let cfg = demo_config(
        r#"
[[allow]]
rule = "R5"
file = "crates/demo/loomed/r5_src.rs"
subject = "Uncovered"
reason = "diagnostics-only latch; exercised by the chaos suite"
"#,
    );
    let files = [
        fixture("crates/demo/loomed/r5_src.rs", "r5_src.rs"),
        fixture("crates/demo/tests/loom.rs", "r5_models.rs"),
    ];
    let out = check_files(&files, &cfg);
    assert_eq!(out.diagnostics.len(), 0);
    assert_eq!(out.allow_uses, vec![1]);
    assert!(out.stale_allows().is_empty());
}

#[test]
fn stale_allow_entries_are_reported_by_index() {
    let cfg = demo_config(
        r#"
[[allow]]
rule = "R5"
file = "crates/demo/loomed/r5_src.rs"
subject = "Uncovered"
reason = "diagnostics-only latch; exercised by the chaos suite"

[[allow]]
rule = "R1"
file = "crates/demo/src/never_violates.rs"
reason = "left over from a deleted module"
"#,
    );
    let files = [
        fixture("crates/demo/loomed/r5_src.rs", "r5_src.rs"),
        fixture("crates/demo/tests/loom.rs", "r5_models.rs"),
    ];
    let out = check_files(&files, &cfg);
    assert_eq!(out.allow_uses, vec![1, 0]);
    assert_eq!(out.stale_allows(), vec![1]);
}

#[test]
fn rules_do_not_bleed_across_fixtures_in_a_joint_run() {
    // All fixtures together, once: the union of the per-rule expectations
    // and nothing more. Guards against a rule matching another rule's
    // bait (e.g. R2 firing on R1's `core::sync::atomic` import).
    let cfg = demo_config("");
    let files = [
        fixture("crates/demo/src/r1_bad.rs", "r1_bad.rs"),
        fixture("crates/demo/src/r1_good.rs", "r1_good.rs"),
        fixture("crates/demo/src/r2_bad.rs", "r2_bad.rs"),
        fixture("crates/demo/src/r2_good.rs", "r2_good.rs"),
        fixture("crates/demo/src/r3_bad.rs", "r3_bad.rs"),
        fixture("crates/demo/src/r3_good.rs", "r3_good.rs"),
        fixture("crates/demo/src/r4_bad.rs", "r4_bad.rs"),
        fixture("crates/demo/src/r4_good.rs", "r4_good.rs"),
        fixture("crates/demo/src/r9_bad.rs", "r9_bad.rs"),
        fixture("crates/demo/loomed/r5_src.rs", "r5_src.rs"),
        fixture("crates/demo/tests/loom.rs", "r5_models.rs"),
    ];
    let out = check_files(&files, &cfg);
    let per_rule = |id: &str| out.diagnostics.iter().filter(|d| d.rule == id).count();
    assert_eq!(per_rule("R1"), 4);
    assert_eq!(per_rule("R2"), 4);
    assert_eq!(per_rule("R3"), 5);
    assert_eq!(per_rule("R4"), 5);
    assert_eq!(per_rule("R5"), 1);
    // With no [stamps] declared, R9 stays inert even over its own bait
    // fixture.
    assert_eq!(per_rule("R9"), 0);
    assert_eq!(out.diagnostics.len(), 19);
}
