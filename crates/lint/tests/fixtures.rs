//! Fixture-based end-to-end tests: each rule fires on its seeded
//! violation (with the right rule id and line) and stays silent on the
//! clean fixture. A scratch-workspace test exercises the walker and the
//! report the CI job relies on.

use lkk_lint::rules::{check_file, Rule};
use lkk_lint::source::File;

/// Scan a fixture under a synthetic in-scope path (the fixture dir
/// itself is excluded from real workspace scans by name).
fn scan(fixture: &str, text: &str) -> Vec<(Rule, usize)> {
    let path = format!("crates/scratch/src/{fixture}");
    check_file(&File::new(path, text))
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn lkk003_fires_on_ungated_hooks_only() {
    let found = scan(
        "lkk003_ungated_hook.rs",
        include_str!("fixtures/lkk003_ungated_hook.rs"),
    );
    let lkk003: Vec<usize> = found
        .iter()
        .filter(|&&(r, _)| r == Rule::Lkk003)
        .map(|&(_, l)| l)
        .collect();
    // The two ungated emissions fire; the gated one (line 12) must not.
    assert_eq!(lkk003, vec![5, 6], "{found:?}");
}

#[test]
fn lkk004_fires_on_kernel_allocations() {
    let found = scan(
        "lkk004_alloc_in_kernel.rs",
        include_str!("fixtures/lkk004_alloc_in_kernel.rs"),
    );
    let lkk004: Vec<usize> = found
        .iter()
        .filter(|&&(r, _)| r == Rule::Lkk004)
        .map(|&(_, l)| l)
        .collect();
    // vec! on line 10; .to_string + .collect on line 11.
    assert!(lkk004.contains(&10), "{found:?}");
    assert!(lkk004.contains(&11), "{found:?}");
}

#[test]
fn lkk006_fires_on_per_element_scatter_add() {
    let found = scan(
        "lkk006_per_element_scatter.rs",
        include_str!("fixtures/lkk006_per_element_scatter.rs"),
    );
    // The two `sv.add` inside the dispatch fire; the one outside it
    // (line 5) and the adds through the handle (line 9) must not.
    assert_eq!(found, vec![(Rule::Lkk006, 7), (Rule::Lkk006, 10)]);
}

#[test]
fn lkk010_fires_outside_the_isa_seam_and_on_fma_anywhere() {
    let text = include_str!("fixtures/lkk010_isa_seam.rs");
    // Both attributes and the detection fire; `fma` adds a second finding
    // on its line (line 9), folded here by the (rule, line) projection.
    let found = scan("lkk010_isa_seam.rs", text);
    assert_eq!(
        found,
        vec![
            (Rule::Lkk010, 4),
            (Rule::Lkk010, 9),
            (Rule::Lkk010, 9),
            (Rule::Lkk010, 15)
        ]
    );
    // Inside the seam the same text is allowed, except the `fma` list.
    let seam: Vec<_> = check_file(&File::new("crates/kokkos/src/isa.rs", text))
        .into_iter()
        .map(|f| (f.rule, f.line, f.detail))
        .collect();
    assert_eq!(
        seam,
        vec![(
            Rule::Lkk010,
            9,
            "`fma` named in a target-feature list".to_string()
        )]
    );
}

#[test]
fn lkk011_fires_outside_the_row_owner_and_outside_tests() {
    let text = include_str!("fixtures/lkk011_row_format.rs");
    // The three storage reads fire; the reader, the other fields, the
    // comment and the `#[cfg(test)]` oracle must not.
    let found = scan("lkk011_row_format.rs", text);
    assert_eq!(
        found,
        vec![(Rule::Lkk011, 5), (Rule::Lkk011, 6), (Rule::Lkk011, 7)]
    );
    // The owner and anything under a `tests/` directory are exempt.
    for exempt in ["crates/core/src/neighbor.rs", "tests/neighbor_recycle.rs"] {
        assert!(check_file(&File::new(exempt, text)).is_empty(), "{exempt}");
    }
}

#[test]
fn clean_fixture_produces_zero_findings() {
    let found = scan("clean.rs", include_str!("fixtures/clean.rs"));
    assert!(found.is_empty(), "{found:?}");
}

/// End-to-end: seed a violation into a scratch workspace on disk and
/// drive the same scan the CI job runs (walker + report).
#[test]
fn scratch_workspace_scan_finds_seeded_violation() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-scratch-ws");
    let src = root.join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "pub fn k(space: &Space) {\n    space.parallel_for(\"k\", 8, |_| {\n        \
         let _v = vec![0.0f64; 8];\n    });\n}\n",
    )
    .unwrap();

    let report = lkk_lint::scan_workspace(&root).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(f.rule, Rule::Lkk004);
    assert_eq!(f.path, "src/lib.rs");
    assert_eq!(f.line, 3);

    // Byte-stable output: two scans render identical reports.
    let a = lkk_lint::format_report(&report);
    let b = lkk_lint::format_report(&lkk_lint::scan_workspace(&root).unwrap());
    assert_eq!(a, b);
}

/// The committed workspace itself must be clean: this is the same
/// gate the `lint-invariants` CI job applies, run as a unit test so
/// `cargo test` catches regressions even without the CI lane.
#[test]
fn committed_workspace_is_clean() {
    let root = match lkk_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
    {
        Some(r) => r,
        None => return, // packaged out of tree: nothing to scan
    };
    let report = lkk_lint::scan_workspace(&root).unwrap();
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        lkk_lint::format_report(&report)
    );
}
