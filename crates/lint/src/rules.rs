//! The five workspace invariant rules neither clippy nor the compiler
//! can express.
//!
//! Every rule is a heuristic matcher over the comment/string-masked
//! source (see [`crate::source`]) — deliberately AST-lite so the
//! linter has zero dependencies and runs in milliseconds, at the cost
//! of being pattern-driven. No rule has an exemption: a finding is fixed
//! at the site, never by weakening a rule. The determinism rules (wall
//! clock, OS entropy, hash containers) are clippy's, with resolved paths
//! and per-site `#[expect(.., reason)]` waivers (`clippy.toml`). Raw
//! scatters into captured outputs do not compile (E0594), and the
//! workspace lints leave no raw pointer to write through instead outside
//! lkk-kokkos and the rayon shim (`docs/static-analysis.md`).
//!
//! | id     | invariant                                                    |
//! |--------|--------------------------------------------------------------|
//! | LKK003 | every `note_*`/`flow_*` hook emission sits behind a          |
//! |        | `has_subscribers()` fast path                                |
//! | LKK004 | no allocating calls inside `parallel_*` dispatch closures    |
//! | LKK006 | no per-element `ScatterView::add` inside `parallel_*`        |
//! |        | closures (take one `access()` handle per work item)          |
//! | LKK010 | `target_feature` / CPU feature detection only in the ISA     |
//! |        | seam (`crates/kokkos/src/isa.rs`), and never enabling `fma`  |
//! | LKK011 | a `NeighborList`'s `neighbors` / `numneigh` storage is read  |
//! |        | only by its owner (`crates/core/src/neighbor.rs`) and tests  |

use crate::source::{ident_boundary_before, matching_paren, File};
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Profile hook emission without a `has_subscribers()` gate.
    Lkk003,
    /// Allocation inside a parallel dispatch closure.
    Lkk004,
    /// Per-element `ScatterView::add` inside a parallel closure.
    Lkk006,
    /// Instruction-set selection outside the ISA seam, or `fma` enabled.
    Lkk010,
    /// Neighbor-row storage read outside its owner.
    Lkk011,
}

impl Rule {
    pub const ALL: [Rule; 5] = [
        Rule::Lkk003,
        Rule::Lkk004,
        Rule::Lkk006,
        Rule::Lkk010,
        Rule::Lkk011,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::Lkk003 => "LKK003",
            Rule::Lkk004 => "LKK004",
            Rule::Lkk006 => "LKK006",
            Rule::Lkk010 => "LKK010",
            Rule::Lkk011 => "LKK011",
        }
    }

    pub fn summary(self) -> &'static str {
        match self {
            Rule::Lkk003 => "profile hook emission without a has_subscribers() fast path",
            Rule::Lkk004 => "allocation inside a parallel dispatch closure",
            Rule::Lkk006 => "per-element ScatterView::add inside a parallel dispatch closure",
            Rule::Lkk010 => "instruction-set selection outside the ISA seam, or fma enabled",
            Rule::Lkk011 => "neighbor-row storage read outside crates/core/src/neighbor.rs",
        }
    }

    pub fn hint(self) -> &'static str {
        match self {
            Rule::Lkk003 => {
                "building the hook payload (format!, joins, table walks) must be skipped when \
                 nobody is listening: wrap the emission in `if profile::has_subscribers() { .. }` \
                 (the hooks early-out internally, but only after the payload exists)"
            }
            Rule::Lkk004 => {
                "hot kernels must not touch the allocator (steady-state zero-alloc invariant): \
                 hoist buffers into pooled storage or per-thread scratch re-used across steps \
                 (see docs/performance.md)"
            }
            Rule::Lkk006 => {
                "ScatterView::add resolves the storage mode and the worker's copy on every \
                 call: take one handle per work item (`let a = sv.access();`) and add through \
                 it (`a.add(i, col, v)`, `a.add3(i, [fx, fy, fz])`); never store or send the handle"
            }
            Rule::Lkk010 => {
                "bits must not depend on the machine: write the kernel once as an \
                 #[inline(always)] fn and run it through lkk_kokkos::isa::Isa::call, the one \
                 place that names target features; fused multiply-add rounds once where \
                 mul + add round twice, so `fma` is never enabled"
            }
            Rule::Lkk011 => {
                "the row format (counts, strides, layout) has one owner: read rows through \
                 NeighborList::rows() (`len`, `row`, `chunk`) or NeighborList::within(); the \
                 fields are pub only for the pinned benchmark"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: Rule,
    pub excerpt: String,
    pub detail: String,
}

fn finding(file: &File, off: usize, rule: Rule, detail: String) -> Finding {
    Finding {
        path: file.path.clone(),
        line: file.line_of(off),
        rule,
        excerpt: file.excerpt(off),
        detail,
    }
}

/// Run every applicable rule over one file.
pub fn check_file(file: &File) -> Vec<Finding> {
    let mut out = Vec::new();
    lkk003_ungated_hooks(file, &mut out);
    let spans = dispatch_spans(file);
    lkk004_alloc_in_kernel(file, &spans, &mut out);
    lkk006_per_element_scatter(file, &spans, &mut out);
    lkk010_isa_seam(file, &mut out);
    lkk011_row_format(file, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Word-bounded occurrences of `pat` in the masked text.
fn occurrences<'a>(file: &'a File, pat: &'a str) -> impl Iterator<Item = usize> + 'a {
    let b = file.masked.as_bytes();
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(p) = file.masked[from..].find(pat) {
            let at = from + p;
            from = at + pat.len();
            if ident_boundary_before(b, at) {
                return Some(at);
            }
        }
        None
    })
}

// ---------------------------------------------------------------------
// LKK003 — ungated hook emission
// ---------------------------------------------------------------------

const HOOK_CALLS: &[&str] = &[
    "note_instant(",
    "note_counter(",
    "note_flow_begin(",
    "note_flow_end(",
];

/// Byte spans `(fn_kw, body_open, body_end)` of every `fn` item.
fn fn_spans(file: &File) -> Vec<(usize, usize, usize)> {
    let mut spans = Vec::new();
    let b = file.masked.as_bytes();
    for at in occurrences(file, "fn ") {
        // Find the body `{`, skipping the parameter list and any
        // return type; a `;` at depth 0 first means a bodyless decl.
        let mut j = at + 3;
        let mut paren = 0usize;
        let mut angle = 0usize;
        let open = loop {
            if j >= b.len() {
                break None;
            }
            match b[j] {
                b'(' => paren += 1,
                b')' => paren = paren.saturating_sub(1),
                b'<' => angle += 1,
                b'>' => angle = angle.saturating_sub(1),
                b'{' if paren == 0 => break Some(j),
                b';' if paren == 0 && angle == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        if let Some(open) = open {
            let close = crate::source::matching_brace(b, open);
            spans.push((at, open, close));
        }
    }
    spans
}

fn lkk003_ungated_hooks(file: &File, out: &mut Vec<Finding>) {
    // The hooks' own definitions (which early-out internally) live in
    // the profile module; the rule audits *callers*.
    if file.path == "crates/kokkos/src/profile.rs" {
        return;
    }
    let spans = fn_spans(file);
    for call in HOOK_CALLS {
        for at in occurrences(file, call) {
            if file.in_test_code(at) {
                continue;
            }
            // Skip definitions (`fn note_instant(…`).
            let before = file.masked[..at].trim_end();
            if before.ends_with("fn") {
                continue;
            }
            // Innermost enclosing fn body.
            let encl = spans
                .iter()
                .filter(|&&(_, open, close)| open < at && at < close)
                .max_by_key(|&&(_, open, _)| open);
            let gated = match encl {
                Some(&(_, open, _)) => file.masked[open..at].contains("has_subscribers"),
                None => false,
            };
            if !gated {
                let name = call.trim_end_matches('(');
                out.push(finding(
                    file,
                    at,
                    Rule::Lkk003,
                    format!("`{name}` emission without a has_subscribers() gate in scope"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// LKK004 / LKK006 — parallel dispatch closures
// ---------------------------------------------------------------------

const DISPATCHES: &[&str] = &[
    "parallel_for(",
    "parallel_for_parts(",
    "parallel_for_2d(",
    "parallel_for_team(",
    "parallel_for_team_parts(",
    "parallel_reduce(",
    "parallel_reduce_parts(",
    "parallel_reduce_sum(",
];

/// Byte spans of every parallel dispatch call's argument list
/// (closures included), excluding test code.
fn dispatch_spans(file: &File) -> Vec<(usize, usize)> {
    let b = file.masked.as_bytes();
    let mut spans = Vec::new();
    for d in DISPATCHES {
        for at in occurrences(file, d) {
            if file.in_test_code(at) {
                continue;
            }
            let open = at + d.len() - 1;
            spans.push((open, matching_paren(b, open)));
        }
    }
    spans.sort_unstable();
    spans
}

const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new(",
    "Vec::with_capacity(",
    "vec!",
    "Box::new(",
    "String::new(",
    "String::from(",
    "format!",
    ".to_string(",
    ".to_vec(",
    ".to_owned(",
    ".collect(",
    ".collect::<",
];

fn lkk004_alloc_in_kernel(file: &File, spans: &[(usize, usize)], out: &mut Vec<Finding>) {
    for &(open, close) in spans {
        for pat in ALLOC_PATTERNS {
            let region = &file.masked[open..close];
            let mut from = 0;
            while let Some(p) = region[from..].find(pat) {
                let at = open + from + p;
                from += p + pat.len();
                if pat.starts_with('.') || ident_boundary_before(file.masked.as_bytes(), at) {
                    out.push(finding(
                        file,
                        at,
                        Rule::Lkk004,
                        format!(
                            "allocating call `{}` inside a parallel dispatch",
                            pat.trim_end_matches('(')
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// LKK006 — per-element ScatterView::add inside a dispatch
// ---------------------------------------------------------------------

/// Names bound (via `let`, a parameter, or a struct field declaration)
/// to `ty` anywhere in the file.
fn bindings_to(file: &File, ty: &str) -> Vec<String> {
    let mut names = Vec::new();
    for at in occurrences(file, ty) {
        // Statement start: last `;`, `{`, `}` or `(` before the match.
        let stmt = file.masked[..at]
            .rfind([';', '{', '}', '('])
            .map(|p| p + 1)
            .unwrap_or(0);
        let before = &file.masked[stmt..at];
        if let Some(let_pos) = before.find("let ") {
            // `let [mut] NAME [: T] = …ScatterView…`
            let after_let = before[let_pos + 4..].trim_start();
            let after_let = after_let
                .strip_prefix("mut ")
                .unwrap_or(after_let)
                .trim_start();
            let name: String = after_let
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                names.push(name);
            }
        } else if let Some(colon) = before.rfind(':') {
            // Field or local type ascription: `NAME: ScatterView`.
            let head = before[..colon].trim_end();
            let name: String = head
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if !name.is_empty() && !name.chars().next().unwrap().is_ascii_digit() {
                names.push(name);
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

fn lkk006_per_element_scatter(file: &File, spans: &[(usize, usize)], out: &mut Vec<Finding>) {
    // Handles come from `.access()`, never from a `ScatterView`-typed
    // binding, so `handle.add(..)` is not matched.
    let views = bindings_to(file, "ScatterView");
    if views.is_empty() {
        return;
    }
    for &(open, close) in spans {
        let region = &file.masked[open..close];
        let mut from = 0;
        while let Some(p) = region[from..].find(".add(") {
            let at = open + from + p;
            from += p + 1;
            let receiver_start = file.masked[..at]
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                .map(|p| p + 1)
                .unwrap_or(0);
            let receiver = &file.masked[receiver_start..at];
            if views.iter().any(|v| v == receiver) {
                out.push(finding(
                    file,
                    at,
                    Rule::Lkk006,
                    format!("`{receiver}.add(…)` on a ScatterView inside a parallel dispatch"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// LKK010 — instruction-set selection stays in the ISA seam
// ---------------------------------------------------------------------

const ISA_SEAM: &str = "crates/kokkos/src/isa.rs";

fn lkk010_isa_seam(file: &File, out: &mut Vec<Finding>) {
    let b = file.masked.as_bytes();
    for pat in ["target_feature", "is_x86_feature_detected!"] {
        for at in occurrences(file, pat) {
            if file.path != ISA_SEAM {
                out.push(finding(
                    file,
                    at,
                    Rule::Lkk010,
                    format!("`{pat}` outside {ISA_SEAM}"),
                ));
            }
            // The feature names are string literals: read them from the
            // original text, `(enable = "..")` or `= ".."` alike.
            let open = at + pat.len();
            let end = if b.get(open) == Some(&b'(') {
                matching_paren(b, open)
            } else {
                file.text[open..].find('\n').map_or(b.len(), |n| open + n)
            };
            let fma = file.text[open..end]
                .split(|c: char| !c.is_ascii_alphanumeric())
                .any(|name| name == "fma");
            if fma {
                out.push(finding(
                    file,
                    at,
                    Rule::Lkk010,
                    "`fma` named in a target-feature list".to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// LKK011 — the neighbor-row format has one owner
// ---------------------------------------------------------------------

const ROW_OWNER: &str = "crates/core/src/neighbor.rs";

fn lkk011_row_format(file: &File, out: &mut Vec<Finding>) {
    if file.path == ROW_OWNER || file.path.split('/').any(|dir| dir == "tests") {
        return;
    }
    for field in [".neighbors.", ".numneigh."] {
        for (at, _) in file.masked.match_indices(field) {
            let after = &file.masked[at + field.len()..];
            let accessor = ["at(", "stride(", "as_slice("]
                .into_iter()
                .find(|m| after.starts_with(m));
            if let (Some(accessor), false) = (accessor, file.in_test_code(at)) {
                out.push(finding(
                    file,
                    at,
                    Rule::Lkk011,
                    format!("`{field}{accessor}…)` reads neighbor-row storage outside {ROW_OWNER}"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(&File::new(path, src))
    }

    #[test]
    fn patterns_in_comments_and_strings_are_ignored() {
        let f = check(
            "crates/x/src/a.rs",
            "// is_x86_feature_detected! is banned\nfn f() { let s = \"target_feature\"; }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
