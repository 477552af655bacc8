//! Fixture-driven tests for the lint registry, plus the meta-test that the
//! workspace itself stays clean.
//!
//! The files under `tests/fixtures/` are never compiled; each one is a
//! small source text that must trip (or, for the suppression fixtures,
//! stay clean under) exactly the rules its name announces. A fixture is
//! analyzed under its bare file name, which no scope glob in
//! `analyzer::config` matches, so every rule applies to it.

use std::fs;
use std::path::{Path, PathBuf};

use analyzer::{analyze_source, check_workspace, Diagnostic, LINT_NAMES};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

fn fixture_src(name: &str) -> String {
    let path = fixture_dir().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

fn run_fixture(name: &str) -> Vec<Diagnostic> {
    analyze_source(name, &fixture_src(name))
}

fn lints_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.lint.as_str()).collect()
}

#[test]
fn nondeterministic_iteration_fixture_fails() {
    let diags = run_fixture("nondeterministic_iteration.rs");
    assert!(
        !diags.is_empty() && lints_of(&diags).iter().all(|l| *l == "nondeterministic-iteration"),
        "expected only nondeterministic-iteration findings, got: {diags:?}"
    );
    // The `use`, the type annotation and the constructor all mention
    // `HashMap`; each mention is its own finding.
    assert!(diags.len() >= 3, "expected one finding per HashMap mention, got: {diags:?}");
}

#[test]
fn ambient_entropy_fixture_fails() {
    let diags = run_fixture("ambient_entropy.rs");
    let lints = lints_of(&diags);
    assert!(
        lints.contains(&"ambient-entropy"),
        "expected ambient-entropy findings, got: {diags:?}"
    );
    // Both the clock (`Instant`) and the environment read (`std::env`)
    // must be caught.
    assert!(
        diags.iter().any(|d| d.message.contains("`Instant`")),
        "Instant not flagged: {diags:?}"
    );
    assert!(diags.iter().any(|d| d.message.contains("`env`")), "std::env not flagged: {diags:?}");
}

#[test]
fn float_reduction_fixture_fails() {
    let diags = run_fixture("float_reduction.rs");
    let float_diags: Vec<_> =
        diags.iter().filter(|d| d.lint == "float-reduction-discipline").collect();
    // Exactly three sites: the f64 turbofish sum, the turbofish-less sum
    // (hidden element type), and the float-seeded closure fold. The
    // integer sum and the `f64::max` fold are fine.
    assert_eq!(float_diags.len(), 3, "expected 3 float-reduction findings, got: {diags:?}");
    let ok_lines: Vec<u32> = float_diags.iter().map(|d| d.line).collect();
    assert!(
        !ok_lines.contains(&19) && !ok_lines.contains(&23),
        "integer sum / exempt combiner wrongly flagged: {diags:?}"
    );
}

#[test]
fn panic_in_hot_path_fixture_fails() {
    let diags = run_fixture("panic_in_hot_path.rs");
    let hot: Vec<_> = diags.iter().filter(|d| d.lint == "panic-in-hot-path").collect();
    // `.unwrap()` and `panic!` inside the tagged function; the cold
    // function's `.unwrap_or` must not be flagged.
    assert_eq!(hot.len(), 2, "expected 2 panic-in-hot-path findings, got: {diags:?}");
    assert!(hot.iter().all(|d| d.line <= 11), "cold function wrongly flagged: {diags:?}");
}

#[test]
fn alloc_in_hot_path_fixture_fails() {
    let diags = run_fixture("alloc_in_hot_path.rs");
    let hot: Vec<_> = diags.iter().filter(|d| d.lint == "alloc-in-hot-path").collect();
    // `Vec::new()` and `.collect()` inside the tagged function; the cold
    // function's `.to_vec()` must not be flagged.
    assert_eq!(hot.len(), 2, "expected 2 alloc-in-hot-path findings, got: {diags:?}");
    assert!(hot.iter().all(|d| d.line <= 10), "cold function wrongly flagged: {diags:?}");
}

#[test]
fn vendor_only_imports_fixture_fails() {
    let diags = run_fixture("vendor_only_imports.rs");
    let lints = lints_of(&diags);
    assert!(
        lints.iter().filter(|l| **l == "vendor-only-imports").count() == 2,
        "expected exactly libc + rayon flagged, got: {diags:?}"
    );
    // The locally declared `mod helpers` and the allowlisted `serde` must
    // pass.
    assert!(
        !diags.iter().any(|d| d.message.contains("helpers") || d.message.contains("serde")),
        "local module or allowlisted crate wrongly flagged: {diags:?}"
    );
}

#[test]
fn justified_suppressions_keep_fixture_clean() {
    let diags = run_fixture("suppressed_clean.rs");
    assert!(diags.is_empty(), "allow-with-reason directives must suppress, got: {diags:?}");
}

#[test]
fn allow_without_reason_is_malformed_and_suppresses_nothing() {
    let diags = run_fixture("malformed_suppression.rs");
    let lints = lints_of(&diags);
    // Both bad directives are findings themselves...
    assert_eq!(
        lints.iter().filter(|l| **l == "malformed-suppression").count(),
        2,
        "expected 2 malformed-suppression findings, got: {diags:?}"
    );
    // ...and the underlying findings still fire.
    assert!(
        lints.contains(&"nondeterministic-iteration"),
        "reason-less allow must not suppress, got: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("needs a reason")),
        "missing-reason message absent: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.message.contains("unknown lint")),
        "unknown-lint message absent: {diags:?}"
    );
}

/// Every lint in the registry is demonstrated by at least one fixture — a
/// rule without a failing fixture is a rule nobody has proven fires.
#[test]
fn fixtures_cover_every_lint() {
    let mut seen: Vec<String> = Vec::new();
    for entry in fs::read_dir(fixture_dir()).expect("fixture dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            for d in run_fixture(&name) {
                if !seen.contains(&d.lint) {
                    seen.push(d.lint);
                }
            }
        }
    }
    for lint in LINT_NAMES {
        assert!(seen.iter().any(|s| s == lint), "no fixture demonstrates `{lint}`");
    }
}

/// The entropy and float scopes exempt exactly the files they name: a
/// fixture analyzed under an allowed or blessed path is clean of that
/// rule, and under any other production path it trips it.
#[test]
fn scopes_exempt_only_the_named_files() {
    let count = |name: &str, path: &str, lint: &str| {
        analyze_source(path, &fixture_src(name)).iter().filter(|d| d.lint == lint).count()
    };
    for path in [
        "crates/bench/src/bin/experiments.rs",
        "crates/serve/src/bin/served.rs",
        "crates/analyzer/src/main.rs",
    ] {
        assert_eq!(count("ambient_entropy.rs", path, "ambient-entropy"), 0, "{path}");
    }
    assert!(count("ambient_entropy.rs", "crates/core/src/runner.rs", "ambient-entropy") > 0);
    for path in ["crates/workflow/src/rank.rs", "crates/workflow/src/rank_engine.rs"] {
        assert_eq!(count("float_reduction.rs", path, "float-reduction-discipline"), 0, "{path}");
    }
    assert!(
        count("float_reduction.rs", "crates/core/src/aheft.rs", "float-reduction-discipline") > 0
    );
}

/// The workspace itself must be clean — the same check CI runs via
/// `cargo run -p analyzer -- check`.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let diags = check_workspace(&root).expect("workspace scan succeeds");
    assert!(
        diags.is_empty(),
        "workspace has unsuppressed findings:\n{}",
        diags.iter().map(Diagnostic::render).collect::<Vec<_>>().join("\n")
    );
}

/// JSON output is stable and escaped.
#[test]
fn json_rendering() {
    let diags = vec![Diagnostic {
        file: "a\\b.rs".into(),
        line: 3,
        lint: "ambient-entropy".into(),
        message: "say \"no\"".into(),
    }];
    let json = analyzer::to_json(&diags);
    assert!(json.contains("\"file\": \"a\\\\b.rs\""), "bad escaping: {json}");
    assert!(json.contains("\"line\": 3"), "missing line: {json}");
    assert_eq!(analyzer::to_json(&[]), "[]\n");
}
