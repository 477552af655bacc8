//! `analyzer.toml` loading.
//!
//! The workspace is offline/vendored-only, so instead of a `toml`
//! dependency the analyzer parses the small TOML subset its config needs:
//! `[section]` / `[section.sub]` headers, `key = "string"`,
//! `key = true|false`, and (possibly multi-line) string arrays
//! `key = ["a", "b"]`. `#` comments are stripped outside strings.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `key = "text"`.
    Str(String),
    /// `key = true` / `key = false`.
    Bool(bool),
    /// `key = ["a", "b"]`.
    List(Vec<String>),
}

/// Parsed config: `section -> key -> value`, sections in lexical order so
/// everything downstream of the config is deterministic by construction.
#[derive(Debug, Default, Clone)]
pub struct Toml {
    sections: BTreeMap<String, BTreeMap<String, Value>>,
}

/// A config syntax error with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the offending text.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analyzer.toml:{}: {}", self.line, self.message)
    }
}

impl Toml {
    /// Parse the supported TOML subset.
    pub fn parse(src: &str) -> Result<Self, TomlError> {
        let mut out = Toml::default();
        let mut section = String::new();
        let mut lines = src.lines().enumerate();
        while let Some((i, raw)) = lines.next() {
            let lineno = i as u32 + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                out.sections.entry(section.clone()).or_default();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(TomlError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = line[..eq].trim().to_string();
            let mut rhs = line[eq + 1..].trim().to_string();
            // Multi-line arrays: keep consuming lines until brackets close.
            if rhs.starts_with('[') {
                while !array_closed(&rhs) {
                    let Some((_, next)) = lines.next() else {
                        return Err(TomlError {
                            line: lineno,
                            message: format!("unterminated array for key `{key}`"),
                        });
                    };
                    rhs.push(' ');
                    rhs.push_str(strip_comment(next).trim());
                }
            }
            let value = parse_value(&rhs).ok_or_else(|| TomlError {
                line: lineno,
                message: format!("unsupported value for `{key}`: `{rhs}`"),
            })?;
            out.sections.entry(section.clone()).or_default().insert(key, value);
        }
        Ok(out)
    }

    /// String list at `[section] key`, or empty when absent.
    pub fn list(&self, section: &str, key: &str) -> Vec<String> {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::List(v)) => v.clone(),
            Some(Value::Str(s)) => vec![s.clone()],
            _ => Vec::new(),
        }
    }

    /// Bool at `[section] key`, or `default` when absent.
    pub fn bool(&self, section: &str, key: &str, default: bool) -> bool {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::Bool(b)) => *b,
            _ => default,
        }
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn array_closed(rhs: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in rhs.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn parse_value(rhs: &str) -> Option<Value> {
    let rhs = rhs.trim();
    if rhs == "true" {
        return Some(Value::Bool(true));
    }
    if rhs == "false" {
        return Some(Value::Bool(false));
    }
    if let Some(s) = rhs.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        return Some(Value::Str(s.to_string()));
    }
    if let Some(inner) = rhs.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let s = part.strip_prefix('"')?.strip_suffix('"')?;
            items.push(s.to_string());
        }
        return Some(Value::List(items));
    }
    None
}

fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    parts.push(cur);
    parts
}

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
pub fn matches_any(globs: &[String], path: &str) -> bool {
    globs.iter().any(|g| glob_match(g, path))
}

/// The analyzer's resolved configuration (see `analyzer.toml` at the
/// workspace root and `docs/ANALYZER.md` for the catalog).
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (workspace-relative) whose `.rs` files are scanned.
    pub roots: Vec<String>,
    /// Module globs declared deterministic (nondeterministic-iteration).
    pub det_modules: Vec<String>,
    /// Collection type names with randomized iteration order.
    pub hash_types: Vec<String>,
    /// Module globs where ambient entropy (clocks, env) is permitted.
    pub entropy_allowed: Vec<String>,
    /// Identifier names that read ambient state.
    pub entropy_sources: Vec<String>,
    /// Module globs the float-reduction rule applies to.
    pub float_modules: Vec<String>,
    /// File globs of the blessed rank/Eq.2 kernels (exempt from the
    /// float-reduction rule: their fold order IS the contract, pinned by
    /// the differential suites).
    pub float_blessed: Vec<String>,
    /// Order-insensitive fold combiners (`f64::max`-style paths).
    pub exempt_folds: Vec<String>,
    /// Also flag postfix slice indexing in hot functions.
    pub flag_indexing: bool,
    /// First path segments permitted in `use` statements beyond
    /// std/core/alloc/crate/self/super.
    pub import_allow: Vec<String>,
}

impl Config {
    /// Resolve a parsed [`Toml`] into a full config, filling defaults.
    pub fn from_toml(t: &Toml) -> Self {
        let or = |v: Vec<String>, d: &[&str]| {
            if v.is_empty() {
                d.iter().map(|s| s.to_string()).collect()
            } else {
                v
            }
        };
        Self {
            roots: or(t.list("scan", "roots"), &["src"]),
            det_modules: t.list("lints.nondeterministic-iteration", "modules"),
            hash_types: or(
                t.list("lints.nondeterministic-iteration", "types"),
                &["HashMap", "HashSet"],
            ),
            entropy_allowed: t.list("lints.ambient-entropy", "allowed-modules"),
            entropy_sources: or(
                t.list("lints.ambient-entropy", "sources"),
                &["SystemTime", "Instant", "thread_rng", "OsRng", "from_entropy", "getrandom"],
            ),
            float_modules: t.list("lints.float-reduction-discipline", "modules"),
            float_blessed: t.list("lints.float-reduction-discipline", "blessed"),
            exempt_folds: or(
                t.list("lints.float-reduction-discipline", "exempt-folds"),
                &["f64::max", "f64::min"],
            ),
            flag_indexing: t.bool("lints.hot-path", "flag-indexing", false),
            import_allow: t.list("lints.vendor-only-imports", "allow"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_values() {
        let t = Toml::parse(
            r#"
            [scan]
            roots = ["src", "crates/core/src"] # comment
            [lints.hot-path]
            flag-indexing = false
            name = "hot"
            "#,
        )
        .unwrap();
        assert_eq!(t.list("scan", "roots"), vec!["src", "crates/core/src"]);
        assert!(!t.bool("lints.hot-path", "flag-indexing", true));
        assert_eq!(t.list("lints.hot-path", "name"), vec!["hot"]);
    }

    #[test]
    fn parses_multiline_arrays() {
        let t = Toml::parse("[s]\nxs = [\n  \"a\",\n  \"b\",\n]\n").unwrap();
        assert_eq!(t.list("s", "xs"), vec!["a", "b"]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Toml::parse("[s]\nnot a kv\n").is_err());
        assert!(Toml::parse("[s]\nx = [\"unterminated\"\n").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_comment() {
        let t = Toml::parse("[s]\nx = \"a#b\"\n").unwrap();
        assert_eq!(t.list("s", "x"), vec!["a#b"]);
    }

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
