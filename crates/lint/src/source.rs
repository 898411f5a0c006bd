//! Lexical preprocessing: turn Rust source into a *masked* twin where
//! every comment, string literal, and char literal is replaced by
//! spaces (newlines preserved), so the rule matchers in
//! [`crate::rules`] never fire on pattern text that merely appears in
//! a doc comment or a format string. Offsets and line numbers in the
//! masked text are identical to the original.
//!
//! The lexer handles line and (nested) block comments, plain and raw
//! strings (`r"…"`, `r#"…"#`, byte variants), char literals, and the
//! lifetime-vs-char ambiguity (`'a` is code, `'a'` is masked).

/// A source file prepared for rule matching.
pub struct File {
    /// Workspace-relative path with forward slashes (the identity used
    /// by findings).
    pub path: String,
    /// Original text (used for excerpts).
    pub text: String,
    /// Comment/string-masked twin of `text`, same length.
    pub masked: String,
    /// Byte offset of the start of each line in `text`/`masked`.
    line_starts: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_spans: Vec<(usize, usize)>,
}

impl File {
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> File {
        let text = text.into();
        let masked = mask(&text);
        let mut line_starts = vec![0usize];
        for (i, b) in masked.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let test_spans = find_test_spans(&masked);
        File {
            path: path.into(),
            text,
            masked,
            line_starts,
            test_spans,
        }
    }

    /// 1-based line number of byte offset `off`.
    pub fn line_of(&self, off: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= off)
    }

    /// The trimmed original text of the line containing `off`.
    pub fn excerpt(&self, off: usize) -> String {
        let line = self.line_of(off);
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|&e| e.saturating_sub(1))
            .unwrap_or(self.text.len());
        self.text[start..end].trim().to_string()
    }

    /// Is `off` inside a `#[cfg(test)]` module or `#[test]` function?
    pub fn in_test_code(&self, off: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= off && off < e)
    }
}

/// Replace comments, string literals, and char literals with spaces.
fn mask(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let n = b.len();
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for slot in out.iter_mut().take(to).skip(from) {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
    };
    while i < n {
        let c = b[i];
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            let end = src[i..].find('\n').map(|p| i + p).unwrap_or(n);
            blank(&mut out, i, end);
            i = end;
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let mut depth = 1;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if b[j] == b'/' && j + 1 < n && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < n && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, i, j);
            i = j;
        } else if c == b'"' {
            let j = skip_string(b, i);
            blank(&mut out, i, j);
            i = j;
        } else if c == b'r' || c == b'b' {
            // r"…", r#"…"#, b"…", br#"…"# — only when `r`/`b` starts a
            // token (previous byte is not part of an identifier).
            let prev_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
            if prev_ident {
                i += 1;
                continue;
            }
            let mut k = i + 1;
            if c == b'b' && k < n && b[k] == b'r' {
                k += 1;
            }
            let mut hashes = 0;
            while k < n && b[k] == b'#' {
                hashes += 1;
                k += 1;
            }
            if k < n && b[k] == b'"' && (c == b'r' || hashes > 0 || (c == b'b' && k == i + 1)) {
                let j = if hashes == 0 && c == b'b' && k == i + 1 {
                    skip_string(b, k)
                } else {
                    skip_raw_string(src, k, hashes)
                };
                blank(&mut out, i, j);
                i = j;
            } else {
                i += 1;
            }
        } else if c == b'\'' {
            // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
            if i + 2 < n && b[i + 1] == b'\\' {
                // Escaped char literal.
                let mut j = i + 2;
                while j < n && b[j] != b'\'' {
                    j += 1;
                }
                blank(&mut out, i, (j + 1).min(n));
                i = (j + 1).min(n);
            } else if i + 2 < n && b[i + 2] == b'\'' {
                blank(&mut out, i, i + 3);
                i += 3;
            } else {
                i += 1; // lifetime
            }
        } else {
            i += 1;
        }
    }
    String::from_utf8(out).expect("masking only rewrites ASCII bytes")
}

/// Skip a plain string starting at the opening quote; returns the
/// offset one past the closing quote.
fn skip_string(b: &[u8], open: usize) -> usize {
    let n = b.len();
    let mut j = open + 1;
    while j < n {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    n
}

/// Skip a raw string whose opening quote is at `open` with `hashes`
/// leading `#`s; returns the offset one past the closing delimiter.
fn skip_raw_string(src: &str, open: usize, hashes: usize) -> usize {
    let closer: String = format!("\"{}", "#".repeat(hashes));
    src[open + 1..]
        .find(&closer)
        .map(|p| open + 1 + p + closer.len())
        .unwrap_or(src.len())
}

/// Byte spans of items annotated `#[cfg(test)]` or `#[test]` (from the
/// attribute to the closing brace of the item body).
fn find_test_spans(masked: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for pat in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(p) = masked[from..].find(pat) {
            let at = from + p;
            if let Some(open) = masked[at..].find('{').map(|o| at + o) {
                let close = matching_brace(masked.as_bytes(), open);
                spans.push((at, close));
                from = at + pat.len();
            } else {
                break;
            }
        }
    }
    spans.sort_unstable();
    spans
}

/// Offset one past the `}` matching the `{` at `open` (or end of
/// input when unbalanced).
pub fn matching_brace(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    b.len()
}

/// Offset one past the `)` matching the `(` at `open`.
pub fn matching_paren(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    b.len()
}

/// Is the byte before `off` something that could end an identifier?
/// Used to require word boundaries when matching keywords/names.
/// A preceding `:` is a boundary on purpose: `profile::note_instant(`
/// and `time::Instant::now` are qualified uses of the matched name.
pub fn ident_boundary_before(b: &[u8], off: usize) -> bool {
    off == 0 || !(b[off - 1].is_ascii_alphanumeric() || b[off - 1] == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let f = File::new(
            "x.rs",
            "let a = \"Instant::now()\"; // Instant::now()\nlet b = 1;\n",
        );
        assert!(!f.masked.contains("Instant::now"));
        assert!(f.masked.contains("let b = 1;"));
        assert_eq!(f.masked.len(), f.text.len());
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let f = File::new(
            "x.rs",
            "let s = r#\"HashMap text \" inner\"#; let c = 'x'; let lt: &'static str = \"y\";\n",
        );
        assert!(!f.masked.contains("HashMap"));
        assert!(f.masked.contains("'static"));
    }

    #[test]
    fn nested_block_comments() {
        let f = File::new("x.rs", "/* outer /* SystemTime */ still */ let x = 2;");
        assert!(!f.masked.contains("SystemTime"));
        assert!(f.masked.contains("let x = 2;"));
    }

    #[test]
    fn line_numbers_track_offsets() {
        let f = File::new("x.rs", "a\nbb\nccc\n");
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.line_of(2), 2);
        assert_eq!(f.line_of(5), 3);
        assert_eq!(f.excerpt(5), "ccc");
    }

    #[test]
    fn test_spans_cover_cfg_test_modules() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn tail() {}\n";
        let f = File::new("x.rs", src);
        let helper = src.find("helper").unwrap();
        let tail = src.find("tail").unwrap();
        assert!(f.in_test_code(helper));
        assert!(!f.in_test_code(tail));
        assert!(!f.in_test_code(0));
    }
}
