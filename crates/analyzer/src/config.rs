//! The analyzer's scopes and the glob matcher that reads them.
//!
//! Paths are workspace-relative with forward slashes. A glob's `**` spans
//! path segments, `*` matches within one segment, and everything else is
//! literal. The hash-collection and float-fold rules apply to every
//! scanned file, so they have no module scope.

/// Directories whose `.rs` files are scanned. Production sources only:
/// integration tests and examples are not scanned, because the runtime
/// suites govern those and timing/unwrap idioms are legitimate there.
pub const SCAN_ROOTS: &[&str] = &[
    "src",
    "crates/workflow/src",
    "crates/gridsim/src",
    "crates/core/src",
    "crates/parcomp/src",
    "crates/serve/src",
    "crates/bench/src",
    "crates/analyzer/src",
];

/// Collection types with randomized iteration order. Every scanned module
/// is deterministic: iteration order anywhere in the
/// planner/runner/policy/sweep stack can reach schedules, traces or CSVs.
pub const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Files where ambient entropy is permitted. Wall-clock timing and env
/// reads belong to the CLI entry points, which time sweeps and read argv.
/// Everything else must be a pure function of explicit seeds and inputs.
pub const ENTROPY_ALLOWED: &[&str] =
    &["crates/bench/src/bin/**", "crates/serve/src/bin/**", "crates/analyzer/src/main.rs"];

/// Identifiers that read ambient state (clocks, OS entropy).
pub const ENTROPY_SOURCES: &[&str] =
    &["SystemTime", "Instant", "thread_rng", "OsRng", "from_entropy", "getrandom"];

/// The blessed rank/Eq. 2 kernels: their exact left-to-right fold order IS
/// the bit-identity contract, pinned by `tests/rank_engine_props.rs` and
/// the differential suites. New float folds belong there or need an allow.
pub const FLOAT_BLESSED: &[&str] =
    &["crates/workflow/src/rank.rs", "crates/workflow/src/rank_engine.rs"];

/// Order-insensitive fold combiners: max/min are associative and
/// commutative, and NaN never enters (costs and times are validated finite
/// at construction).
pub const EXEMPT_FOLDS: &[&str] = &["f64::max", "f64::min"];

/// First path segments permitted in `use` beyond
/// std/core/alloc/crate/self/super: the workspace crates and the vendored
/// stand-ins (see `vendor/`).
pub const IMPORT_ALLOW: &[&str] = &[
    "aheft",
    "aheft_workflow",
    "aheft_gridsim",
    "aheft_core",
    "aheft_parcomp",
    "aheft_serve",
    "aheft_bench",
    "analyzer",
    "rand",
    "serde",
    "serde_json",
    "proptest",
];

/// Match `path` (forward-slash separated, relative to the workspace root)
/// against a glob where `**` spans path segments, `*` matches within one
/// segment, and everything else is literal.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    match_segments(&pat, &segs)
}

fn match_segments(pat: &[&str], segs: &[&str]) -> bool {
    match pat.first() {
        None => segs.is_empty(),
        Some(&"**") => {
            // `**` matches zero or more whole segments.
            (0..=segs.len()).any(|skip| match_segments(&pat[1..], &segs[skip..]))
        }
        Some(p) => match segs.first() {
            Some(s) if match_one(p, s) => match_segments(&pat[1..], &segs[1..]),
            _ => false,
        },
    }
}

fn match_one(pat: &str, seg: &str) -> bool {
    // Segment-level wildcard match with `*`.
    let pb: Vec<char> = pat.chars().collect();
    let sb: Vec<char> = seg.chars().collect();
    fn go(p: &[char], s: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('*') => (0..=s.len()).any(|skip| go(&p[1..], &s[skip..])),
            Some(c) => s.first() == Some(c) && go(&p[1..], &s[1..]),
        }
    }
    go(&pb, &sb)
}

/// True when `path` matches any pattern in `globs`.
pub fn matches_any(globs: &[&str], path: &str) -> bool {
    globs.iter().any(|g| glob_match(g, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globs() {
        assert!(glob_match("crates/*/src/**", "crates/core/src/aheft.rs"));
        assert!(glob_match("src/**", "src/lib.rs"));
        assert!(glob_match("**/rank.rs", "crates/workflow/src/rank.rs"));
        assert!(!glob_match("crates/*/src/**", "crates/core/tests/x.rs"));
        assert!(glob_match("crates/bench/src/bin/**", "crates/bench/src/bin/experiments.rs"));
        assert!(!glob_match("crates/bench/src/bin/**", "crates/bench/src/lib.rs"));
        assert!(glob_match("a/**", "a"));
    }
}
