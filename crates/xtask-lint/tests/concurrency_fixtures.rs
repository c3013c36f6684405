//! Fixture tests for the concurrency rules (L6–L9): each rule must fire
//! on its known-bad snippet at the exact expected lines and stay silent
//! on the known-good twin.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;

use xtask_lint::{analyze_source_with, LockManifest};

/// Library-crate path the fixtures are analyzed under.
const AT: &str = "crates/neat/src/fixture.rs";

/// Three-lock manifest the L6 fixtures are ranked against.
const MANIFEST: &str = r#"
[[lock]]
crate = "neat"
name = "low"
rank = 10
[[lock]]
crate = "neat"
name = "high"
rank = 20
[[lock]]
crate = "neat"
name = "tip"
rank = 30
leaf = true
"#;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn manifest() -> LockManifest {
    LockManifest::parse(MANIFEST).expect("fixture manifest parses")
}

/// (rule, line) pairs found in `name`, analyzed at the synthetic path
/// `at` against the fixture manifest.
fn findings(name: &str, at: &str) -> Vec<(&'static str, u32)> {
    analyze_source_with(at, &fixture(name), &manifest())
        .violations
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn l6_bad_fires_every_lock_discipline_check() {
    let got = findings("l6_bad.rs", AT);
    assert_eq!(
        got,
        vec![
            ("L6", 4),  // raw .lock() outside the poison-policy helper
            ("L6", 9),  // rank inversion: low(10) under high(20)
            ("L6", 15), // nesting under a leaf lock
            ("L6", 21), // double acquisition of the same lock
            ("L6", 27), // guard held across fs I/O
            ("L6", 31), // acquisition of a lock the manifest doesn't know
        ]
    );
}

#[test]
fn l6_good_is_clean_and_counts_the_waiver() {
    let analysis = analyze_source_with(AT, &fixture("l6_good.rs"), &manifest());
    assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
    // The annotated local-policy block waives both the raw `.lock()`
    // and the undeclared-lock finding on the same line.
    assert_eq!(analysis.waived, 2);
}

#[test]
fn l6_bad_is_ignored_outside_library_scope() {
    assert!(
        findings("l6_bad.rs", "crates/bench/src/bin/fixture.rs").is_empty(),
        "binaries are not subject to lock discipline"
    );
}

#[test]
fn l7_bad_fires_on_bare_relaxed() {
    assert_eq!(findings("l7_bad.rs", AT), vec![("L7", 6)]);
}

#[test]
fn l7_bad_is_exempt_inside_counter_modules() {
    assert!(
        findings("l7_bad.rs", "crates/bench/src/log.rs").is_empty(),
        "counter modules may use Relaxed freely"
    );
}

#[test]
fn l7_good_is_clean_and_counts_the_waiver() {
    let analysis = analyze_source_with(AT, &fixture("l7_good.rs"), &manifest());
    assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
    assert_eq!(analysis.waived, 1);
}

#[test]
fn l8_bad_fires_on_both_unwind_idents_but_not_the_import() {
    let got = findings("l8_bad.rs", AT);
    assert_eq!(got, vec![("L8", 6), ("L8", 6)], "import line 3 is exempt");
}

#[test]
fn l8_good_is_clean_and_counts_both_waivers() {
    let analysis = analyze_source_with(AT, &fixture("l8_good.rs"), &manifest());
    assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
    assert_eq!(analysis.waived, 2);
}

#[test]
fn l9_bad_fires_on_every_impure_fold() {
    let got = findings("l9_bad.rs", AT);
    assert_eq!(
        got,
        vec![
            ("L9", 5),  // fetch_add inside try_map_ctl
            ("L9", 12), // borrow_mut inside try_map_ctl
            ("L9", 18), // unsafe block inside try_map_ctl
        ]
    );
}

#[test]
fn l9_good_is_clean() {
    let got = findings("l9_good.rs", AT);
    assert!(got.is_empty(), "{got:?}");
}
