//! # analyzer
//!
//! The repo's determinism linter: a self-contained static pass (no external
//! dependencies, hand-rolled lexer — see [`lexer`]) that enforces the
//! source-level discipline behind this reproduction's guarantees:
//! bit-identical schedules across refactors, byte-identical sharded sweep
//! CSVs, and zero-allocation hot passes.
//!
//! Run it as `cargo run -p analyzer -- check` from the workspace root; the
//! rule catalog and suppression syntax are documented in
//! `docs/ANALYZER.md`, and the scopes are constants in [`config`]. The
//! runtime complements are the differential/property suites
//! (`tests/policy_differential.rs`, `tests/zero_alloc.rs`,
//! `tests/sweep_determinism.rs`): the analyzer rejects the *patterns* that
//! would make those suites flake, before they compile.

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod lints;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use lints::{analyze_source, Diagnostic, LINT_NAMES};

/// Analyze every `.rs` file under the [`config::SCAN_ROOTS`] of the
/// workspace at `root`. Returned diagnostics are sorted by (file, line, lint).
pub fn check_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut files = Vec::new();
    for r in config::SCAN_ROOTS {
        let dir = root.join(r);
        collect_rs_files(&dir, &mut files)
            .map_err(|e| format!("scanning {}: {e}", dir.display()))?;
    }
    files.sort();
    let mut diags = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(f).map_err(|e| format!("reading {}: {e}", f.display()))?;
        diags.extend(analyze_source(&rel, &src));
    }
    diags.sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));
    Ok(diags)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render diagnostics as a JSON array (stable field order, sorted input).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            json_escape(&d.lint),
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
