//! Shared comment/string-aware Rust lexing for the xtask analysis passes.
//!
//! Both the unsafe audit and the concurrency-protocol lint need the same
//! view of a source file: the *code* with comments and string/char literal
//! contents blanked out (so keyword scans never match prose or literals),
//! next to the *original* lines (so justification markers like `SAFETY:`
//! or `ORDERING:` can be found in the comments). [`SourceFile`] computes
//! that view once per file; the passes share it instead of each carrying
//! its own string/comment state machine.

/// One parsed source file: original text, masked text, and the derived
/// line-level structure the rules consume.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes (used in diagnostics and
    /// matched against `lint.toml` scopes/allowlist entries).
    pub rel: String,
    /// Original lines, for diagnostics display.
    pub lines: Vec<String>,
    /// Masked lines: same shape as `lines`, but comment bodies and
    /// string/char literal contents are spaces. Keyword scans use these.
    pub masked_lines: Vec<String>,
    /// Comment-visible lines: string/char literal contents are spaces but
    /// comment text survives. Marker (`SAFETY:`, `ORDERING:`, `STAMP:`, …)
    /// and `//! lint:` tag lookups use these, so marker text quoted inside
    /// a string or a multi-line raw string can never satisfy a rule.
    pub comment_lines: Vec<String>,
    /// Per line: true if the line sits inside a `#[cfg(test)] mod { .. }`
    /// region. Protocol rules skip test code — tests deliberately use raw
    /// std primitives, panics, and blocking calls.
    pub in_test: Vec<bool>,
    /// Per line: `(byte_start, byte_end)` of the line in the original
    /// text, end exclusive of the newline. Diagnostics carry line
    /// numbers; the `--json` renderer turns them into byte spans for CI
    /// annotation tooling.
    pub line_spans: Vec<(usize, usize)>,
    /// Module-level lint tags declared as `//! lint: tag_a, tag_b`.
    pub tags: Vec<String>,
}

impl SourceFile {
    /// Lexes `text` into a [`SourceFile`]. `rel` should be the
    /// workspace-relative path with forward slashes.
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        let views = mask_views(text);
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let masked_lines: Vec<String> = views.masked.lines().map(str::to_string).collect();
        let comment_lines: Vec<String> = views.comments.lines().map(str::to_string).collect();
        let in_test = test_regions(&masked_lines);
        let tags = lint_tags(&comment_lines);
        let line_spans = line_spans(text);
        SourceFile {
            rel: rel.to_string(),
            lines,
            masked_lines,
            comment_lines,
            in_test,
            tags,
            line_spans,
        }
    }

    /// Byte span of 1-based line `lineno` in the original text, if the
    /// file has that many lines.
    pub fn line_span(&self, lineno: usize) -> Option<(usize, usize)> {
        lineno
            .checked_sub(1)
            .and_then(|i| self.line_spans.get(i))
            .copied()
    }

    /// Whether the module declared `//! lint: <tag>`.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.iter().any(|t| t == tag)
    }

    /// True if line `idx` (0-based) carries `marker` on the statement it
    /// belongs to — the line itself, an earlier line of the same
    /// multi-line statement, or the contiguous run of comment/attribute
    /// lines directly above the statement's first line. Scans the
    /// comment-visible view, so a marker quoted inside a string literal
    /// never counts.
    pub fn marker_near(&self, idx: usize, marker: &str) -> bool {
        let start = self.stmt_start(idx);
        self.comment_lines[start..=idx]
            .iter()
            .any(|l| l.contains(marker))
            || comment_run_has(&self.comment_lines, start, marker)
    }

    /// First line of the statement containing line `idx`: walks upward
    /// until the previous masked line ends a statement (`;`, `{`, `}`),
    /// is blank, or is pure comment. A heuristic, but a conservative one:
    /// over-extending the window only lets a justification sit a line or
    /// two higher than strictly adjacent.
    fn stmt_start(&self, idx: usize) -> usize {
        let mut i = idx;
        while i > 0 {
            let prev = self.masked_lines[i - 1].trim_end();
            let prev = prev.trim_start();
            if prev.is_empty() || prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}')
            {
                break;
            }
            i -= 1;
        }
        i
    }

    /// True if `self.rel` lives under any of `dirs` (path-prefix match on
    /// whole components).
    pub fn under_any(&self, dirs: &[String]) -> bool {
        dirs.iter().any(|d| {
            let d = d.trim_end_matches('/');
            self.rel == d || self.rel.starts_with(&format!("{d}/"))
        })
    }
}

/// True if `marker` appears on the contiguous run of comment / attribute
/// / doc lines directly above `idx`. `lines` must be the comment-visible
/// view so string contents cannot masquerade as comment lines (a raw
/// string whose interior lines start with `//` is blank in that view and
/// therefore terminates the run).
fn comment_run_has(lines: &[String], idx: usize, marker: &str) -> bool {
    lines[..idx]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|t| {
            t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!") || t.starts_with('*')
        })
        .any(|t| t.contains(marker))
}

/// `(byte_start, byte_end)` of every line of `text`, end exclusive of
/// the line's `\n`. Mirrors `str::lines` (a trailing newline does not
/// open an empty final line), so the result is parallel to the other
/// per-line views.
fn line_spans(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for line in text.lines() {
        // `lines()` yields subslices of `text`, so pointer arithmetic
        // recovers each line's offset even after `\r\n` trimming.
        let off = line.as_ptr() as usize - text.as_ptr() as usize;
        debug_assert!(off >= start);
        out.push((off, off + line.len()));
        start = off + line.len();
    }
    out
}

/// Byte offsets of `word` in `line` at identifier boundaries.
pub fn keyword_positions(line: &str, word: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let ok_before = start == 0 || !is_ident_byte(bytes[start - 1]);
        let ok_after = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if ok_before && ok_after {
            out.push(start);
        }
        from = end;
    }
    out
}

/// Whether `b` can be part of a Rust identifier (ASCII view).
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Module-level lint tags: every `//! lint: a, b` line contributes its
/// comma-separated tags. Scans the comment-visible view, so the tag
/// syntax quoted inside a (raw) string literal declares nothing.
fn lint_tags(lines: &[String]) -> Vec<String> {
    let mut tags = Vec::new();
    for line in lines {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("//! lint:") {
            for tag in rest.split(',') {
                let tag = tag.trim();
                if !tag.is_empty() {
                    tags.push(tag.to_string());
                }
            }
        }
    }
    tags
}

/// Marks the lines covered by `#[cfg(test)] mod <name> { ... }` regions.
///
/// Works on masked lines: the attribute and the braces are code, so they
/// survive masking, while a `#[cfg(test)]` quoted in a comment does not.
fn test_regions(masked_lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; masked_lines.len()];
    let mut i = 0;
    while i < masked_lines.len() {
        let t = masked_lines[i].trim();
        if t == "#[cfg(test)]" {
            // Scan past further attributes / blank lines to the `mod` item.
            let mut j = i + 1;
            while j < masked_lines.len() {
                let tj = masked_lines[j].trim();
                if tj.is_empty() || tj.starts_with("#[") {
                    j += 1;
                    continue;
                }
                break;
            }
            let is_mod = masked_lines
                .get(j)
                .map(|l| {
                    let l = l.trim();
                    l.starts_with("mod ") || l.starts_with("pub mod ") || l.starts_with("pub(")
                })
                .unwrap_or(false);
            if is_mod {
                if let Some((open_line, open_col)) = find_char_from(masked_lines, j, 0, '{') {
                    let end = match match_brace(masked_lines, open_line, open_col) {
                        Some(end_line) => end_line,
                        None => masked_lines.len() - 1, // unbalanced: to EOF
                    };
                    for flag in in_test.iter_mut().take(end + 1).skip(i) {
                        *flag = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    in_test
}

/// Finds the first occurrence of `c` at or after (`line`, `col`).
pub fn find_char_from(
    masked_lines: &[String],
    line: usize,
    col: usize,
    c: char,
) -> Option<(usize, usize)> {
    for (li, l) in masked_lines.iter().enumerate().skip(line) {
        let start = if li == line { col } else { 0 };
        if let Some(pos) = l.get(start..).and_then(|s| s.find(c)) {
            return Some((li, start + pos));
        }
    }
    None
}

/// Given the position of an opening `{`, returns the line of the matching
/// closing `}` (masked text, so braces in strings/comments don't count).
pub fn match_brace(masked_lines: &[String], line: usize, col: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (li, l) in masked_lines.iter().enumerate().skip(line) {
        let start = if li == line { col } else { 0 };
        for b in l.as_bytes().iter().skip(start) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(li);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// The two line-aligned views of one source text computed by
/// [`mask_views`].
pub struct MaskedViews {
    /// Comments and string/char literal contents replaced with spaces —
    /// keyword scanning only sees real code.
    pub masked: String,
    /// Only string/char literal contents replaced with spaces — comment
    /// text (and code) survives, for marker/tag lookups that must not be
    /// satisfiable from inside a literal.
    pub comments: String,
}

/// Replaces the contents of comments and string/char literals with spaces
/// so keyword scanning only sees real code. Newlines are preserved so line
/// numbers stay aligned with the original.
pub fn mask_non_code(text: &str) -> String {
    mask_views(text).masked
}

/// Computes both masked views ([`MaskedViews`]) in one pass over `text`.
/// Newlines are always preserved — including a `\` escape directly before
/// a newline inside a string literal, which must not collapse two source
/// lines into one or every later line number would shift.
pub fn mask_views(text: &str) -> MaskedViews {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let chars: Vec<char> = text.chars().collect();
    let mut masked = String::with_capacity(text.len());
    let mut comments = String::with_capacity(text.len());
    // Emits one source char into both views: `keep_code` controls the
    // masked view, `keep_comment` the comment-visible view; newlines are
    // always kept verbatim in both.
    let mut emit = |c: char, keep_code: bool, keep_comment: bool| {
        if c == '\n' {
            masked.push('\n');
            comments.push('\n');
        } else {
            masked.push(if keep_code { c } else { ' ' });
            comments.push(if keep_comment { c } else { ' ' });
        }
    };
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    emit(c, false, true);
                    emit('/', false, true);
                    i += 2;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    emit(c, false, true);
                    emit('*', false, true);
                    i += 2;
                }
                '"' => {
                    st = St::Str;
                    emit(c, false, false);
                    i += 1;
                }
                'r' if matches!(next, Some('"') | Some('#')) => {
                    // Raw string r"..." / r#"..."# (also after a b prefix,
                    // which the Code arm passes through harmlessly).
                    let mut hashes = 0u32;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            emit(' ', false, false);
                        }
                        i = j + 1;
                    } else {
                        emit(c, true, true);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char/byte literal vs lifetime: a literal closes with a
                    // quote one or two (escaped) chars ahead.
                    let is_char_lit =
                        next == Some('\\') || (next.is_some() && chars.get(i + 2) == Some(&'\''));
                    if is_char_lit {
                        st = St::Char;
                        emit(c, false, false);
                        i += 1;
                    } else {
                        emit(c, true, true);
                        i += 1;
                    }
                }
                _ => {
                    emit(c, true, true);
                    i += 1;
                }
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                }
                emit(c, false, true);
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    emit(c, false, true);
                    emit('/', false, true);
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    emit(c, false, true);
                    emit('*', false, true);
                    i += 2;
                } else {
                    emit(c, false, true);
                    i += 1;
                }
            }
            St::Str | St::Char => {
                let close = if st == St::Str { '"' } else { '\'' };
                if c == '\\' {
                    // The escaped char is consumed too — but an escaped
                    // newline (string line-continuation) must still emit
                    // its newline or the views desynchronize from the
                    // original line numbering.
                    emit(c, false, false);
                    if let Some(n) = next {
                        emit(n, false, false);
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == close {
                    st = St::Code;
                    emit(c, false, false);
                    i += 1;
                } else {
                    emit(c, false, false);
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = St::Code;
                        for _ in i..j {
                            emit(' ', false, false);
                        }
                        i = j;
                        continue;
                    }
                }
                emit(c, false, false);
                i += 1;
            }
        }
    }
    MaskedViews { masked, comments }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_hides_comments_and_literals() {
        let src = "let x = \"unsafe\"; // unsafe here\nlet y = 'u';\n/* unsafe */ let z = 1;\n";
        let masked = mask_non_code(src);
        assert!(!masked.contains("unsafe"));
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn keyword_positions_respect_identifier_boundaries() {
        assert_eq!(keyword_positions("unsafe {", "unsafe"), vec![0]);
        assert!(keyword_positions("unsafe_op_in_unsafe_fn", "unsafe").is_empty());
        assert_eq!(keyword_positions("x unsafe fn", "unsafe"), vec![2]);
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { x.unwrap(); }\n\
                   }\n\
                   fn also_live() {}\n";
        let f = SourceFile::parse("a.rs", src);
        assert_eq!(f.in_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_in_comment_or_string_is_ignored() {
        let src = "// #[cfg(test)]\nlet s = \"#[cfg(test)]\";\nfn f() {}\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.in_test.iter().all(|b| !b));
    }

    #[test]
    fn tags_parse_from_inner_doc_lines() {
        let src = "//! Module docs.\n//! lint: hot_path, other_tag\nfn f() {}\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.has_tag("hot_path"));
        assert!(f.has_tag("other_tag"));
        assert!(!f.has_tag("cold_path"));
    }

    #[test]
    fn marker_near_sees_line_and_comment_run() {
        let src =
            "// ORDERING: pairs with X\n#[inline]\nfoo.store(1, Ordering::Release);\nbar();\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.marker_near(2, "ORDERING:"));
        assert!(!f.marker_near(3, "ORDERING:"));
    }

    #[test]
    fn marker_above_a_multiline_statement_covers_its_last_line() {
        let src = "a();\n// ORDERING: pairs with Y\nself.inner\n    .flag\n    .store(true, Ordering::Release);\nb();\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.marker_near(4, "ORDERING:"));
        assert!(!f.marker_near(5, "ORDERING:"));
    }

    #[test]
    fn under_any_matches_whole_components() {
        let f = SourceFile::parse("crates/skiplist/src/swmr.rs", "");
        assert!(f.under_any(&["crates/skiplist/src".into()]));
        assert!(!f.under_any(&["crates/skip".into()]));
    }

    #[test]
    fn escaped_newline_in_string_keeps_line_numbers_aligned() {
        // A `\` directly before the newline is a string line-continuation;
        // the old escape handler consumed the newline and every later line
        // number shifted by one.
        let src = "let s = \"a \\\nb\";\nfoo.store(1, Ordering::Release); // ORDERING: pairs\n";
        let f = SourceFile::parse("a.rs", src);
        assert_eq!(f.masked_lines.len(), f.lines.len());
        assert_eq!(f.comment_lines.len(), f.lines.len());
        assert!(f.masked_lines[2].contains("store"));
        assert!(f.marker_near(2, "ORDERING:"));
    }

    #[test]
    fn marker_inside_a_string_literal_does_not_justify() {
        // "PANIC-OK:" as an expect() message is prose, not an annotation.
        let src = "let v = x.expect(\"PANIC-OK: not a marker\");\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(!f.marker_near(0, "PANIC-OK:"));
        // The same text in a real trailing comment does justify.
        let src = "let v = x.expect(\"boom\"); // PANIC-OK: startup only\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(f.marker_near(0, "PANIC-OK:"));
    }

    #[test]
    fn raw_string_interior_lines_are_not_comments_or_tags() {
        // A multi-line raw string whose interior lines look like comments
        // must neither declare module tags nor extend a comment run.
        let src = "let t = r#\"\n//! lint: hot_path\n// SAFETY: fake\n\"#;\nunsafe { op() };\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(!f.has_tag("hot_path"));
        assert!(!f.marker_near(4, "SAFETY:"));
        // Line-number alignment holds across the raw string.
        assert_eq!(f.masked_lines.len(), f.lines.len());
        assert!(f.masked_lines[4].contains("unsafe"));
    }

    #[test]
    fn line_spans_cover_the_original_bytes() {
        let src = "ab\ncdef\n\nxy";
        let f = SourceFile::parse("a.rs", src);
        assert_eq!(f.line_spans, vec![(0, 2), (3, 7), (8, 8), (9, 11)]);
        assert_eq!(f.line_span(2), Some((3, 7)));
        assert_eq!(&src[3..7], "cdef");
        assert_eq!(f.line_span(0), None);
        assert_eq!(f.line_span(5), None);
    }
}
