//! `lint.toml` — scope and allowlist configuration for `cargo xtask lint`.
//!
//! The file lives at the workspace root and uses a small, strict TOML
//! subset (the workspace is dependency-free by policy, so the parser is
//! local): `[table]` headers, `[[allow]]` array-of-tables headers,
//! `key = "string"`, and `key = ["a", "b"]` string arrays. An array may
//! span multiple lines — the value is accumulated until a line ends with
//! `]` — but each element stays a plain quoted string. Anything else is
//! a hard error — a lint whose config half-parses is worse than no lint.
//!
//! ```toml
//! [scope]
//! src = ["crates/skiplist/src", "crates/core/src"]
//!
//! [facade]
//! files = ["crates/skiplist/src/sync.rs"]
//!
//! [loom]
//! crates = ["crates/skiplist/src"]
//! models = ["crates/skiplist/tests/loom.rs"]
//!
//! [[allow]]
//! rule = "R5"
//! file = "crates/core/src/faults.rs"
//! subject = "FailureCell"
//! reason = "covered by the TSan'd fault matrix, not loom"
//! ```
//!
//! Every `[[allow]]` entry must name a `rule`, a `file`, and a non-empty
//! `reason`; `subject` narrows the suppression to diagnostics whose
//! subject contains it. Entries that suppress nothing fail the run
//! (stale suppressions rot into silent coverage holes).
//!
//! The stamp-discipline rule (R9) reads one more table:
//!
//! ```toml
//! [stamps]
//! pairs = ["wal-dispatch : wal-append < dispatch"]
//! ```
//!
//! `[stamps]` names ordered site pairs (`<name> : <pre-label> <
//! <post-label>`); the labels are documentation, the `name` is what
//! `// STAMP: <name>.{pre,post}` tags reference.

/// One allowlist entry from `[[allow]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowEntry {
    pub rule: String,
    pub file: String,
    /// Substring matched against the diagnostic's subject; empty matches
    /// every diagnostic of (rule, file).
    pub subject: String,
    pub reason: String,
}

/// One ordered site pair from `[stamps] pairs`.
#[derive(Debug, Clone, PartialEq)]
pub struct StampPair {
    /// Name referenced by `// STAMP: <name>.{pre,post}` tags.
    pub name: String,
    /// Human label of the "before" site (documentation only).
    pub pre: String,
    /// Human label of the "after" site (documentation only).
    pub post: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Directories whose `.rs` files are subject to the protocol rules
    /// (R1 ordering justification, R2 facade-only sync, R9 stamps).
    pub scope_src: Vec<String>,
    /// Facade files (R2): the only files in scope allowed to name
    /// `std::sync::atomic` / `std::sync::{Mutex,RwLock,Condvar}` /
    /// `loom::sync`.
    pub facade_files: Vec<String>,
    /// Directories scanned for atomic-owning public types (R5).
    pub loom_crates: Vec<String>,
    /// Files containing loom models; a public atomic-owning type must be
    /// named in at least one of them.
    pub loom_models: Vec<String>,
    /// Declared ordered site pairs (`[stamps] pairs`); every `// STAMP:`
    /// tag must name one (R9).
    pub stamp_pairs: Vec<StampPair>,
    /// 1-based lint.toml line of the `[stamps] pairs` key — the anchor
    /// for R9's whole-declaration diagnostics (stale pair).
    pub stamp_pairs_line: usize,
    pub allow: Vec<AllowEntry>,
}

impl Config {
    /// Parses the strict TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        // (table, key) -> values routing happens as lines stream by.
        let mut table = String::new();
        let raw_lines: Vec<&str> = text.lines().collect();
        let mut idx = 0;
        while idx < raw_lines.len() {
            let lineno = idx + 1;
            let mut line = strip_toml_comment(raw_lines[idx]).trim().to_string();
            idx += 1;
            if line.is_empty() {
                continue;
            }
            // Multi-line array: accumulate until the closing `]`. Anchor
            // diagnostics at the key's line.
            if line.contains("= [") && !line.ends_with(']') {
                while idx < raw_lines.len() {
                    let cont = strip_toml_comment(raw_lines[idx]).trim().to_string();
                    idx += 1;
                    if !cont.is_empty() {
                        line.push(' ');
                        line.push_str(&cont);
                    }
                    if cont.ends_with(']') {
                        break;
                    }
                }
                if !line.ends_with(']') {
                    return Err(format!("lint.toml:{lineno}: unterminated `[` array"));
                }
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                if name.trim() != "allow" {
                    return Err(format!(
                        "lint.toml:{lineno}: unknown array-of-tables `[[{}]]` (only `[[allow]]`)",
                        name.trim()
                    ));
                }
                cfg.allow.push(AllowEntry {
                    rule: String::new(),
                    file: String::new(),
                    subject: String::new(),
                    reason: String::new(),
                });
                table = "allow".to_string();
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                match name {
                    "scope" | "facade" | "loom" | "stamps" => table = name.to_string(),
                    other => {
                        return Err(format!("lint.toml:{lineno}: unknown table `[{other}]`"));
                    }
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("lint.toml:{lineno}: expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            match (table.as_str(), key) {
                ("scope", "src") => cfg.scope_src = parse_string_array(value, lineno)?,
                ("facade", "files") => cfg.facade_files = parse_string_array(value, lineno)?,
                ("loom", "crates") => cfg.loom_crates = parse_string_array(value, lineno)?,
                ("loom", "models") => cfg.loom_models = parse_string_array(value, lineno)?,
                ("stamps", "pairs") => {
                    cfg.stamp_pairs_line = lineno;
                    for s in parse_string_array(value, lineno)? {
                        cfg.stamp_pairs.push(parse_stamp_pair(&s, lineno)?);
                    }
                }
                ("allow", k) => {
                    let entry = cfg
                        .allow
                        .last_mut()
                        .ok_or_else(|| format!("lint.toml:{lineno}: key before `[[allow]]`"))?;
                    let v = parse_string(value, lineno)?;
                    match k {
                        "rule" => entry.rule = v,
                        "file" => entry.file = v,
                        "subject" => entry.subject = v,
                        "reason" => entry.reason = v,
                        other => {
                            return Err(format!(
                                "lint.toml:{lineno}: unknown allow key `{other}` \
                                 (rule/file/subject/reason)"
                            ));
                        }
                    }
                }
                (t, k) => {
                    return Err(format!("lint.toml:{lineno}: unknown key `{k}` in `[{t}]`"));
                }
            }
        }
        for (i, e) in cfg.allow.iter().enumerate() {
            if e.rule.is_empty() || e.file.is_empty() || e.reason.is_empty() {
                return Err(format!(
                    "lint.toml: [[allow]] entry #{} must set `rule`, `file`, and a \
                     non-empty `reason`",
                    i + 1
                ));
            }
        }
        cfg.validate_stamps()?;
        Ok(cfg)
    }

    fn validate_stamps(&self) -> Result<(), String> {
        for (i, p) in self.stamp_pairs.iter().enumerate() {
            if p.name.is_empty() || p.name.contains(|c: char| c.is_whitespace() || c == '.') {
                return Err(format!(
                    "lint.toml: [stamps] pair name `{}` must be non-empty and free of \
                     whitespace and `.` (it is referenced by `// STAMP: <name>.pre/post` tags)",
                    p.name
                ));
            }
            if p.pre.is_empty() || p.post.is_empty() {
                return Err(format!(
                    "lint.toml: [stamps] pair `{}` must label both sites (`name : pre < post`)",
                    p.name
                ));
            }
            if self.stamp_pairs[..i].iter().any(|q| q.name == p.name) {
                return Err(format!(
                    "lint.toml: [stamps] pair `{}` is declared twice",
                    p.name
                ));
            }
        }
        Ok(())
    }
}

/// Parses `"name : pre < post"` into a [`StampPair`].
fn parse_stamp_pair(s: &str, lineno: usize) -> Result<StampPair, String> {
    let err = || format!("lint.toml:{lineno}: expected `\"name : pre < post\"`, got `{s}`");
    let (name, rest) = s.split_once(':').ok_or_else(err)?;
    let (pre, post) = rest.split_once('<').ok_or_else(err)?;
    let (name, pre, post) = (name.trim(), pre.trim(), post.trim());
    if name.is_empty() || pre.is_empty() || post.is_empty() || post.contains('<') {
        return Err(err());
    }
    Ok(StampPair {
        name: name.to_string(),
        pre: pre.to_string(),
        post: post.to_string(),
    })
}

/// Drops a trailing `# comment` that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("lint.toml:{lineno}: expected a quoted string, got `{v}`"))
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("lint.toml:{lineno}: expected a single-line `[\"...\"]` array"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(item, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            r#"
# comment
[scope]
src = ["a/src", "b/src"] # trailing comment

[facade]
files = ["a/src/sync.rs"]

[loom]
crates = ["a/src"]
models = ["a/tests/loom.rs"]

[stamps]
pairs = ["wal-dispatch : wal-append < dispatch"]

[[allow]]
rule = "R5"
file = "b/src/x.rs"
subject = "Foo"
reason = "covered elsewhere"
"#,
        )
        .unwrap();
        assert_eq!(cfg.scope_src, vec!["a/src", "b/src"]);
        assert_eq!(cfg.facade_files, vec!["a/src/sync.rs"]);
        assert_eq!(cfg.loom_models, vec!["a/tests/loom.rs"]);
        assert_eq!(
            cfg.stamp_pairs,
            vec![StampPair {
                name: "wal-dispatch".into(),
                pre: "wal-append".into(),
                post: "dispatch".into(),
            }]
        );
        assert_eq!(cfg.stamp_pairs_line, 14);
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].subject, "Foo");
    }

    #[test]
    fn rejects_unknown_tables_and_reasonless_allows() {
        assert!(Config::parse("[nope]\n").is_err());
        assert!(Config::parse("[scope]\nwrong = \"x\"\n").is_err());
        let e = Config::parse("[[allow]]\nrule = \"R1\"\nfile = \"f.rs\"\n").unwrap_err();
        assert!(e.contains("reason"), "{e}");
    }

    #[test]
    fn rejects_bad_stamp_declarations() {
        let e = Config::parse("[stamps]\npairs = [\"a.b : x < y\"]\n").unwrap_err();
        assert!(e.contains("free of"), "{e}");
        let e = Config::parse("[stamps]\npairs = [\"p : x\"]\n").unwrap_err();
        assert!(e.contains("pre < post"), "{e}");
        let e = Config::parse("[stamps]\npairs = [\"p : x < y\", \"p : z < w\"]\n").unwrap_err();
        assert!(e.contains("declared twice"), "{e}");
    }

    #[test]
    fn multi_line_arrays_accumulate_and_anchor_at_the_key() {
        let cfg = Config::parse(
            "[scope]\nsrc = [\n    \"a/src\",\n    \"b/src\",\n]\n\n[facade]\nfiles = [\"f.rs\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.scope_src, vec!["a/src", "b/src"]);
        assert_eq!(cfg.facade_files, vec!["f.rs"]);
        let e = Config::parse("[scope]\nsrc = [\n    \"a/src\",\n").unwrap_err();
        assert!(e.contains("unterminated"), "{e}");
        assert!(e.contains(":2:"), "anchored at the key line: {e}");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg =
            Config::parse("[[allow]]\nrule = \"R1\"\nfile = \"f.rs\"\nreason = \"issue #7\"\n")
                .unwrap();
        assert_eq!(cfg.allow[0].reason, "issue #7");
    }
}
