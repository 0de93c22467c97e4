//! The rule registry and the token-pattern helpers the rules share.
//!
//! Each rule is a unit struct implementing [`Rule`]; [`registry`] returns
//! them in id order. Rules scan the masked line view (comments and
//! literal contents blanked), so a pattern match is always a code match.

mod r1_ordering;
mod r2_facade;
mod r3_panic;
mod r4_blocking;
mod r5_loom;
mod r9_stamps;

use super::Rule;
use crate::lexer::{find_char_from, is_ident_byte, keyword_positions, match_brace};

/// All rules, in id order. `check_files` runs them in this order; ids are
/// stable and referenced from `lint.toml` (R6–R8 are retired, not reused:
/// DESIGN.md §8 names the runtime check that covers each).
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(r1_ordering::OrderingJustification),
        Box::new(r2_facade::FacadeOnlySync),
        Box::new(r3_panic::HotPathPanic),
        Box::new(r4_blocking::HotPathBlocking),
        Box::new(r5_loom::LoomCoverage),
        Box::new(r9_stamps::StampDiscipline),
    ]
}

/// Line spans `(first, last)` of every `fn` item body, in source order.
/// Bodiless declarations (trait methods, extern fns) contribute nothing:
/// the scan for the opening `{` stops at a `;`. R9's dominance check
/// reasons per function.
pub(crate) fn fn_regions(masked_lines: &[String]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (idx, mline) in masked_lines.iter().enumerate() {
        for pos in keyword_positions(mline, "fn") {
            let Some((ol, oc)) = body_open(masked_lines, idx, pos) else {
                continue;
            };
            if let Some(end) = match_brace(masked_lines, ol, oc) {
                out.push((idx, end));
            }
        }
    }
    out
}

/// The innermost `fn` region containing `line`, if any.
pub(crate) fn innermost_region(regions: &[(usize, usize)], line: usize) -> Option<(usize, usize)> {
    regions
        .iter()
        .filter(|(s, e)| *s <= line && line <= *e)
        .max_by_key(|(s, _)| *s)
        .copied()
}

/// Position of the `{` opening a `fn` body whose `fn` keyword sits at
/// (`line`, `col`), or `None` for a bodiless declaration (a `;` is seen
/// first).
fn body_open(masked_lines: &[String], line: usize, col: usize) -> Option<(usize, usize)> {
    let semi = find_char_from(masked_lines, line, col, ';');
    let open = find_char_from(masked_lines, line, col, '{')?;
    match semi {
        Some(s) if s < open => None,
        _ => Some(open),
    }
}

/// Byte offsets where `word` starts at an identifier boundary, with no
/// boundary requirement after it (`prefix_positions("AtomicU64", "Atomic")`
/// matches; `keyword_positions` would not).
pub(crate) fn prefix_positions(line: &str, word: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        if start == 0 || !is_ident_byte(bytes[start - 1]) {
            out.push(start);
        }
        from = start + word.len();
    }
    out
}

/// True if the masked line contains a method call `.name(`.
pub(crate) fn has_method_call(mline: &str, name: &str) -> bool {
    let bytes = mline.as_bytes();
    keyword_positions(mline, name).into_iter().any(|pos| {
        pos > 0 && bytes[pos - 1] == b'.' && bytes.get(pos + name.len()).copied() == Some(b'(')
    })
}

/// True if the masked line invokes the macro `name!`.
pub(crate) fn has_macro_call(mline: &str, name: &str) -> bool {
    let bytes = mline.as_bytes();
    keyword_positions(mline, name)
        .into_iter()
        .any(|pos| bytes.get(pos + name.len()).copied() == Some(b'!'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_positions_only_check_the_left_boundary() {
        assert_eq!(prefix_positions("AtomicU64", "Atomic"), vec![0]);
        assert_eq!(prefix_positions("Arc<AtomicBool>", "Atomic"), vec![4]);
        assert!(prefix_positions("NonAtomicU64", "Atomic").is_empty());
    }

    #[test]
    fn fn_regions_span_bodies_and_skip_declarations() {
        let src: Vec<String> = [
            "trait T {",           // 0
            "    fn decl(&self);", // 1
            "}",                   // 2
            "fn outer() {",        // 3
            "    fn inner() {",    // 4
            "    }",               // 5
            "}",                   // 6
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let regions = fn_regions(&src);
        assert_eq!(regions, vec![(3, 6), (4, 5)]);
        assert_eq!(innermost_region(&regions, 5), Some((4, 5)));
        assert_eq!(innermost_region(&regions, 6), Some((3, 6)));
        assert_eq!(innermost_region(&regions, 1), None);
    }

    #[test]
    fn method_and_macro_matchers() {
        assert!(has_method_call("x.unwrap()", "unwrap"));
        assert!(!has_method_call("x.unwrap_or(0)", "unwrap"));
        assert!(!has_method_call("unwrap()", "unwrap"));
        assert!(has_macro_call("panic!(\"boom\")", "panic"));
        assert!(!has_macro_call("panic()", "panic"));
    }
}
