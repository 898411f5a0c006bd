//! lkk-lint: the workspace invariant linter.
//!
//! Enforces the hot-path and ownership invariants this codebase is
//! built around that clippy cannot express (see `docs/static-analysis.md`
//! for the rationale and `rules::Rule` for the rule set; the determinism
//! rules are clippy's, in `clippy.toml`). Runs as `cargo run -p lkk-lint`
//! locally and as the gating `lint-invariants` CI job; exit codes are
//! 0 (clean), 1 (findings), 2 (usage or I/O error).
//!
//! Output is byte-stable across runs and machines: files are walked in
//! sorted order with forward-slash relative paths, findings are sorted
//! by (path, line, rule), and nothing in the report depends on wall
//! time or hash order.

pub mod rules;
pub mod source;

use rules::Finding;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that are scanned.
const SCAN_ROOTS: &[&str] = &["src", "crates", "tests", "examples"];

/// Path segments that exclude a file from scanning: build output,
/// vendored shims (third-party idiom, not ours to lint), and lint
/// test fixtures (which contain violations on purpose).
const EXCLUDED_SEGMENTS: &[&str] = &["target", "shims", "fixtures"];

/// All `.rs` files to lint, as `(relative_path, absolute_path)`,
/// sorted by relative path for byte-stable output.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if EXCLUDED_SEGMENTS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// The outcome of a full workspace scan.
pub struct Report {
    /// Every violation, sorted.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scan every workspace file.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let files = workspace_files(root)?;
    let files_scanned = files.len();
    let mut findings = Vec::new();
    for (rel, abs) in files {
        let text = std::fs::read_to_string(&abs)?;
        findings.extend(rules::check_file(&source::File::new(rel, text)));
    }
    findings.sort();
    Ok(Report {
        findings,
        files_scanned,
    })
}

/// Render the report. Byte-stable: same tree in, same bytes out.
pub fn format_report(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "{} {}:{}: {}", f.rule.id(), f.path, f.line, f.detail);
        let _ = writeln!(out, "    | {}", f.excerpt);
        let _ = writeln!(out, "    = hint: {}", f.rule.hint());
    }
    let _ = writeln!(
        out,
        "lkk-lint: {} file(s) scanned, {} violation(s)",
        report.files_scanned,
        report.findings.len()
    );
    out
}

/// Walk up from `start` to the workspace root (the first ancestor
/// whose `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excluded_segments_cover_shims_and_fixtures() {
        for seg in ["target", "shims", "fixtures"] {
            assert!(EXCLUDED_SEGMENTS.contains(&seg));
        }
    }

    #[test]
    fn report_formatting_is_stable() {
        let report = Report {
            findings: vec![Finding {
                path: "crates/x/src/a.rs".into(),
                line: 3,
                rule: rules::Rule::Lkk004,
                excerpt: "let v = vec![0.0; 8];".into(),
                detail: "allocating call `vec!` inside a parallel dispatch".into(),
            }],
            files_scanned: 1,
        };
        let a = format_report(&report);
        let b = format_report(&report);
        assert_eq!(a, b);
        assert!(a.contains("LKK004 crates/x/src/a.rs:3"));
        assert!(a.ends_with("1 file(s) scanned, 1 violation(s)\n"));
    }
}
