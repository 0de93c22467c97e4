//! R9 `stamp-discipline`: ordered site pairs are tagged and the "before"
//! site lexically dominates the "after" site in its function.
//!
//! The durability and watermark contracts are two-site orderings: the
//! WAL append happens before the dispatch it logs, the delivery before
//! the mark that makes it exactly-once, the batcher flush before the
//! heartbeat that declares progress, the stamp read before the tracker
//! observation that could advance it. `lint.toml [stamps]` declares the
//! pairs; this rule keeps the code tagged and ordered:
//!
//! - sentinel calls that *are* one side of a declared ordering —
//!   `.mark_emitted(..)`, `.record_event(..)`, and `.observe(..)` on a
//!   tracker — must carry `// STAMP: <pair>.{pre,post}`;
//! - every tag must name a declared pair and the `pre`/`post` role;
//! - each `post` tag must be lexically dominated by a `pre` tag of the
//!   same pair in the same (innermost) function — a missing or inverted
//!   pre is an error;
//! - a declared pair no tag names is a stale declaration, anchored at
//!   the `[stamps] pairs` line of lint.toml.
//!
//! Lexical dominance catches reorderings introduced by refactors within
//! a function; what the ordering buys at run time is asserted by the
//! tests behind each pair (the recovery crash matrix, the `sink.rs` and
//! `driver.rs` unit tests, `tests/protocol_witness.rs`). The WAL callee itself
//! lives in `crates/durability`, outside `[scope] src` — the ordering
//! obligation sits at the core call sites, which is where this rule
//! looks. `#[cfg(test)]` code is exempt.

use crate::lexer::SourceFile;
use crate::lint::config::Config;
use crate::lint::rules::{fn_regions, has_method_call, innermost_region};
use crate::lint::{Diagnostic, Rule};

pub struct StampDiscipline;

impl Rule for StampDiscipline {
    fn id(&self) -> &'static str {
        "R9"
    }
    fn name(&self) -> &'static str {
        "stamp-discipline"
    }

    fn check(&self, files: &[SourceFile], cfg: &Config, out: &mut Vec<Diagnostic>) {
        // No declared pairs = stamp checking not adopted; stay inert.
        if cfg.stamp_pairs.is_empty() {
            return;
        }
        // Which declared pairs some `// STAMP:` tag actually names.
        let mut pair_used = vec![false; cfg.stamp_pairs.len()];
        for file in files.iter().filter(|f| f.under_any(&cfg.scope_src)) {
            // Well-formed tags in this file: (pair, is_pre, 0-based line).
            let mut tags: Vec<(String, bool, usize)> = Vec::new();
            for idx in 0..file.lines.len() {
                if file.in_test[idx] {
                    continue;
                }
                if let Some(token) = tag_token(&file.comment_lines[idx]) {
                    if let Some((pair, is_pre)) =
                        self.check_tag(file, cfg, idx, &token, &mut pair_used, out)
                    {
                        tags.push((pair, is_pre, idx));
                    }
                }
                if let Some(what) = stamp_sentinel(&file.masked_lines[idx]) {
                    if !file.marker_near(idx, "STAMP:") {
                        out.push(Diagnostic {
                            rule: self.id(),
                            name: self.name(),
                            file: file.rel.clone(),
                            line: idx + 1,
                            subject: what.to_string(),
                            message: format!(
                                "`{what}` call without a `// STAMP: <pair>.pre/post` tag — \
                                 it is one side of a declared ordering"
                            ),
                            help: "name the pair and role, e.g. \
                                   `// STAMP: deliver-mark.post`; if this call is genuinely \
                                   outside every declared ordering, record a reasoned \
                                   `[[allow]]`"
                                .to_string(),
                        });
                    }
                }
            }
            self.check_dominance(file, &tags, out);
        }
        for (i, used) in pair_used.iter().enumerate() {
            if !used {
                let p = &cfg.stamp_pairs[i];
                out.push(Diagnostic {
                    rule: self.id(),
                    name: self.name(),
                    file: "lint.toml".to_string(),
                    line: cfg.stamp_pairs_line,
                    subject: p.name.clone(),
                    message: format!(
                        "declared stamp pair `{}` ({} < {}) is named by no `// STAMP:` tag",
                        p.name, p.pre, p.post
                    ),
                    help: "remove the stale pair from lint.toml `[stamps] pairs`, or tag \
                           the sites that realise it"
                        .to_string(),
                });
            }
        }
    }
}

impl StampDiscipline {
    /// Validates one `// STAMP: <pair>.<role>` tag found on line `idx`.
    fn check_tag(
        &self,
        file: &SourceFile,
        cfg: &Config,
        idx: usize,
        token: &str,
        pair_used: &mut [bool],
        out: &mut Vec<Diagnostic>,
    ) -> Option<(String, bool)> {
        let mut diag = |subject: String, message: String, help: &str| {
            out.push(Diagnostic {
                rule: self.id(),
                name: self.name(),
                file: file.rel.clone(),
                line: idx + 1,
                subject,
                message,
                help: help.to_string(),
            });
        };
        let parsed = token
            .split_once('.')
            .filter(|(p, _)| !p.is_empty())
            .and_then(|(p, role)| match role {
                "pre" => Some((p, true)),
                "post" => Some((p, false)),
                _ => None,
            });
        let Some((pair, is_pre)) = parsed else {
            diag(
                token.to_string(),
                format!("malformed `// STAMP: {token}` (expected `<pair>.pre` or `<pair>.post`)"),
                "write the tag as `// STAMP: wal-dispatch.pre`",
            );
            return None;
        };
        let Some(pos) = cfg.stamp_pairs.iter().position(|p| p.name == pair) else {
            diag(
                token.to_string(),
                format!("`// STAMP: {token}` names no declared stamp pair `{pair}`"),
                "declare the pair in lint.toml `[stamps] pairs` (`\"name : pre < post\"`)",
            );
            return None;
        };
        pair_used[pos] = true;
        Some((pair.to_string(), is_pre))
    }

    /// Each `post` tag must have a `pre` tag of the same pair earlier in
    /// the same innermost function.
    fn check_dominance(
        &self,
        file: &SourceFile,
        tags: &[(String, bool, usize)],
        out: &mut Vec<Diagnostic>,
    ) {
        let regions = fn_regions(&file.masked_lines);
        for (pair, is_pre, idx) in tags {
            if *is_pre {
                continue;
            }
            let region = innermost_region(&regions, *idx);
            let same_fn_pres: Vec<usize> = tags
                .iter()
                .filter(|(p2, pre2, idx2)| {
                    p2 == pair && *pre2 && innermost_region(&regions, *idx2) == region
                })
                .map(|(_, _, idx2)| *idx2)
                .collect();
            if same_fn_pres.iter().any(|p| p < idx) {
                continue;
            }
            let (what, help) = if let Some(late) = same_fn_pres.first() {
                (
                    format!(
                        "`{pair}.post` (line {}) precedes `{pair}.pre` (line {}) — the \
                         declared order is inverted",
                        idx + 1,
                        late + 1
                    ),
                    "the pre site must execute first; reorder the calls (or fix the tags \
                     if they drifted from the code)",
                )
            } else {
                (
                    format!(
                        "`{pair}.post` has no `{pair}.pre` tag in the same function — the \
                         declared ordering's first half is missing"
                    ),
                    "tag the site that must happen first with `.pre` in the same function, \
                     or move the post call to where the ordering is visible",
                )
            };
            out.push(Diagnostic {
                rule: self.id(),
                name: self.name(),
                file: file.rel.clone(),
                line: idx + 1,
                subject: format!("{pair}.post"),
                message: what,
                help: help.to_string(),
            });
        }
    }
}

/// The first `// STAMP:` payload token on the comment-visible line.
fn tag_token(cline: &str) -> Option<String> {
    let pos = cline.find("STAMP:")?;
    let text = &cline[pos + "STAMP:".len()..];
    Some(text.split_whitespace().next().unwrap_or("").to_string())
}

/// `Some(label)` if the masked line calls a sentinel that is one side of
/// a declared ordering: the exactly-once mark, the WAL append, or a
/// watermark-tracker observation.
fn stamp_sentinel(mline: &str) -> Option<&'static str> {
    if has_method_call(mline, "mark_emitted") {
        return Some("mark_emitted");
    }
    if has_method_call(mline, "record_event") {
        return Some("record_event");
    }
    if has_method_call(mline, "observe") && mline.contains("tracker") {
        return Some("tracker.observe");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_matcher_sees_the_three_call_shapes() {
        assert_eq!(
            stamp_sentinel("runtime.mark_emitted(fkey)?;"),
            Some("mark_emitted")
        );
        assert_eq!(
            stamp_sentinel("rt.record_event(LoggedEvent {"),
            Some("record_event")
        );
        assert_eq!(
            stamp_sentinel("self.tracker.observe(tuple.ts);"),
            Some("tracker.observe")
        );
        // A non-tracker observe is someone else's method.
        assert_eq!(stamp_sentinel("histogram.observe(v);"), None);
        assert_eq!(stamp_sentinel("let x = mark_emitted;"), None);
    }

    #[test]
    fn tag_tokens_parse_with_trailing_prose() {
        assert_eq!(
            tag_token("// STAMP: wal-dispatch.pre (append before handoff)"),
            Some("wal-dispatch.pre".to_string())
        );
        assert_eq!(tag_token("// no tag"), None);
    }
}
