//! The lint registry: project-specific determinism and hot-path rules.
//!
//! Every rule operates on the token stream of one file (see
//! [`crate::lexer`]) plus the file's workspace-relative path; none of them
//! need type information. That is deliberate: each rule is written so that
//! the *syntactic* pattern is already a policy violation in the modules it
//! applies to, and intentional exceptions are spelled out in source with
//! `// analyzer::allow(lint-name): reason`.

use crate::config::{
    matches_any, ENTROPY_ALLOWED, ENTROPY_SOURCES, EXEMPT_FOLDS, FLOAT_BLESSED, HASH_TYPES,
    IMPORT_ALLOW,
};
use crate::lexer::{lex, Comment, Token, TokenKind};

/// One diagnostic: a lint finding at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint rule name (kebab-case).
    pub lint: String,
    /// Human-readable message.
    pub message: String,
}

impl Diagnostic {
    /// Render in the rustc-like `file:line: lint: message` form.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.lint, self.message)
    }
}

/// Names of all lint rules, in reporting order.
pub const LINT_NAMES: &[&str] = &[
    "nondeterministic-iteration",
    "ambient-entropy",
    "float-reduction-discipline",
    "panic-in-hot-path",
    "alloc-in-hot-path",
    "vendor-only-imports",
    "malformed-suppression",
];

/// A parsed `// analyzer::allow(lint): reason` directive.
#[derive(Debug)]
struct Allow {
    lint: String,
    /// Lines the directive covers: its own line, and — for a standalone
    /// comment — the next line that carries code (continuation comment
    /// lines between the directive and the code do not break coverage).
    lines: (u32, u32),
}

/// Analyze one file's source text. `path` must be workspace-relative with
/// forward slashes (it is matched against the scope globs in
/// [`crate::config`]).
pub fn analyze_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let tokens = &lexed.tokens;
    let test_regions = test_regions(tokens);
    let hot_regions = hot_regions(tokens, &lexed.comments);
    let mut diags = Vec::new();
    let mut allows = Vec::new();

    for c in &lexed.comments {
        match parse_allow(c) {
            AllowParse::NotADirective => {}
            AllowParse::Ok(mut a) => {
                if !c.trailing {
                    // Standalone directive: cover the next code-bearing
                    // line (tokens skip comments, so a multi-line reason
                    // between the directive and the code is fine).
                    if let Some(t) = tokens.iter().find(|t| t.line > c.end_line) {
                        a.lines.1 = t.line;
                    }
                }
                allows.push(a);
            }
            AllowParse::Malformed(why) => diags.push(Diagnostic {
                file: path.to_string(),
                line: c.line,
                lint: "malformed-suppression".into(),
                message: why,
            }),
        }
    }

    let ctx = FileCtx { path, tokens, test_regions, hot_regions };
    lint_hash_collections(&ctx, &mut diags);
    lint_ambient_entropy(&ctx, &mut diags);
    lint_float_reductions(&ctx, &mut diags);
    lint_hot_paths(&ctx, &mut diags);
    lint_imports(&ctx, &mut diags);

    // Apply suppressions: a matching allow on the finding's line or the
    // line directly above swallows the finding.
    diags.retain(|d| {
        d.lint == "malformed-suppression"
            || !allows
                .iter()
                .any(|a| a.lint == d.lint && (a.lines.0 == d.line || a.lines.1 == d.line))
    });
    diags.sort_by(|a, b| (a.line, &a.lint, &a.message).cmp(&(b.line, &b.lint, &b.message)));
    diags
}

struct FileCtx<'a> {
    path: &'a str,
    tokens: &'a [Token],
    test_regions: Vec<(u32, u32)>,
    hot_regions: Vec<(u32, u32)>,
}

impl FileCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_regions.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    fn in_hot(&self, line: u32) -> bool {
        self.hot_regions.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    fn emit(&self, diags: &mut Vec<Diagnostic>, line: u32, lint: &str, message: String) {
        diags.push(Diagnostic {
            file: self.path.to_string(),
            line,
            lint: lint.to_string(),
            message,
        });
    }
}

enum AllowParse {
    NotADirective,
    Ok(Allow),
    Malformed(String),
}

fn parse_allow(c: &Comment) -> AllowParse {
    let Some(rest) = c.text.strip_prefix("analyzer::allow") else {
        return AllowParse::NotADirective;
    };
    let Some(open) = rest.find('(') else {
        return AllowParse::Malformed("`analyzer::allow` without `(lint-name)`".into());
    };
    let Some(close) = rest.find(')') else {
        return AllowParse::Malformed("`analyzer::allow(` without closing `)`".into());
    };
    let lint = rest[open + 1..close].trim();
    if !LINT_NAMES.contains(&lint) {
        return AllowParse::Malformed(format!("unknown lint `{lint}` in analyzer::allow"));
    }
    let tail = rest[close + 1..].trim_start();
    let reason = tail.strip_prefix(':').map_or("", str::trim);
    if reason.is_empty() {
        return AllowParse::Malformed(format!(
            "analyzer::allow({lint}) needs a reason: `// analyzer::allow({lint}): <why this is sound>`"
        ));
    }
    AllowParse::Ok(Allow { lint: lint.to_string(), lines: (c.line, c.line) })
}

/// Line spans of `#[cfg(test)]` / `#[test]`-gated items: lints about
/// production determinism and hot paths do not apply to test code.
fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Collect the attribute's tokens up to the matching `]`.
            let start_line = tokens[i].line;
            let mut j = i + 2;
            let mut depth = 1;
            let mut names: Vec<&str> = Vec::new();
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                } else if tokens[j].kind == TokenKind::Ident {
                    names.push(&tokens[j].text);
                }
                j += 1;
            }
            let is_test_attr = names.contains(&"test") && !names.contains(&"not");
            if is_test_attr {
                if let Some(end) = item_end(tokens, j) {
                    regions.push((start_line, end));
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

/// End line of the item starting at token index `i`: the matching `}` of
/// its first brace block, or the first top-level `;` (for `use`/`mod x;`).
/// Skips further attributes.
fn item_end(tokens: &[Token], mut i: usize) -> Option<u32> {
    // Skip stacked attributes (#[...]).
    while i + 1 < tokens.len() && tokens[i].is_punct('#') && tokens[i + 1].is_punct('[') {
        let mut depth = 0;
        loop {
            if tokens[i].is_punct('[') {
                depth += 1;
            } else if tokens[i].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
            if i >= tokens.len() {
                return None;
            }
        }
    }
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].is_punct(';') {
            return Some(tokens[j].line);
        }
        if tokens[j].is_punct('{') {
            let mut depth = 0;
            while j < tokens.len() {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some(tokens[j].line);
                    }
                }
                j += 1;
            }
            return None;
        }
        j += 1;
    }
    None
}

/// Body line spans of functions tagged `// analyzer: hot`.
fn hot_regions(tokens: &[Token], comments: &[Comment]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    for c in comments {
        if c.text != "analyzer: hot" {
            continue;
        }
        // The tag applies to the next `fn` item below the comment.
        let Some(fn_idx) = tokens.iter().position(|t| t.line > c.end_line && t.is_ident("fn"))
        else {
            continue;
        };
        // Body = first brace block after the signature.
        let mut j = fn_idx;
        while j < tokens.len() && !tokens[j].is_punct('{') {
            j += 1;
        }
        if let Some(end) = item_end(tokens, j) {
            regions.push((tokens[fn_idx].line, end));
        }
    }
    regions
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// nondeterministic-iteration: hash-ordered collections in modules declared
/// deterministic. `HashMap`/`HashSet` iteration order varies per process
/// (SipHash keys are randomized), so any use in planner/runner/sweep/CSV
/// modules must either switch to an order-stable structure or carry an
/// allow stating that the collection is never iterated.
fn lint_hash_collections(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    for t in ctx.tokens {
        if t.kind == TokenKind::Ident
            && HASH_TYPES.contains(&t.text.as_str())
            && !ctx.in_test(t.line)
        {
            ctx.emit(
                diags,
                t.line,
                "nondeterministic-iteration",
                format!(
                    "`{}` has randomized iteration order in a module declared deterministic; \
                     use Vec/BTreeMap/BTreeSet, or justify a membership-only use with an allow",
                    t.text
                ),
            );
        }
    }
}

/// ambient-entropy: wall clocks, OS entropy and environment reads leak
/// nondeterminism into anything they touch. Outside the allowed timing
/// modules every run must be a pure function of its inputs and seeds.
fn lint_ambient_entropy(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    if matches_any(ENTROPY_ALLOWED, ctx.path) {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let flagged = if ENTROPY_SOURCES.contains(&t.text.as_str()) {
            true
        } else if t.text == "env" {
            // `std::env` / `env::var` paths, not the `env!` macro or a
            // local called `env`.
            let path_next = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'));
            let path_prev = i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("std");
            path_next || path_prev
        } else {
            false
        };
        if flagged {
            ctx.emit(
                diags,
                t.line,
                "ambient-entropy",
                format!(
                    "`{}` reads ambient state (wall clock / OS entropy / environment); \
                     simulation results must derive from explicit seeds and inputs only",
                    t.text
                ),
            );
        }
    }
}

/// float-reduction-discipline: floating-point folds are not associative, so
/// the *order* of every float reduction is part of this repo's bit-identity
/// contract. Outside the blessed rank kernels, each `.sum()`/`.product()`
/// over floats and each float-seeded `.fold()` with a non-exempt combiner
/// must state why its order is fixed.
fn lint_float_reductions(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    if matches_any(FLOAT_BLESSED, ctx.path) {
        return;
    }
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if m.kind != TokenKind::Ident || ctx.in_test(m.line) {
            continue;
        }
        match m.text.as_str() {
            "sum" | "product" => {
                // `.sum::<T>()` — float T is a finding, integer T is fine;
                // `.sum()` without a turbofish hides the element type.
                let turbofish_ty = (toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 4).is_some_and(|t| t.is_punct('<')))
                .then(|| toks.get(i + 5).map(|t| t.text.clone()))
                .flatten();
                match turbofish_ty.as_deref() {
                    Some("f64" | "f32") => ctx.emit(
                        diags,
                        m.line,
                        "float-reduction-discipline",
                        format!(
                            "float `.{}()` outside the blessed rank kernels: the fold order is \
                             load-bearing for bit identity — justify it with an allow or move it \
                             into a blessed kernel",
                            m.text
                        ),
                    ),
                    Some(_) => {} // integer turbofish: associative, fine
                    None => ctx.emit(
                        diags,
                        m.line,
                        "float-reduction-discipline",
                        format!(
                            "`.{}()` without a turbofish hides whether this reduction is \
                             floating-point; write `.{}::<uN/iN>()` or justify a float fold",
                            m.text, m.text
                        ),
                    ),
                }
            }
            "fold" => {
                if !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                    continue;
                }
                let Some((seed, combiner)) = fold_args(toks, i + 2) else { continue };
                if !seed_is_float(&seed) {
                    continue;
                }
                if EXEMPT_FOLDS.contains(&combiner.as_str()) {
                    continue;
                }
                ctx.emit(
                    diags,
                    m.line,
                    "float-reduction-discipline",
                    format!(
                        "float-seeded `.fold({combiner})` outside the blessed rank kernels: \
                         non-exempt float combiners are order-sensitive — justify with an allow \
                         or use an exempt combiner"
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Split a `fold(seed, combiner)` call at token index `open` (the `(`) into
/// the seed's tokens and the combiner's path text (idents joined by `::`).
fn fold_args(toks: &[Token], open: usize) -> Option<(Vec<Token>, String)> {
    let mut depth = 0usize;
    let mut comma = None;
    let mut close = None;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                close = Some(j);
                break;
            }
        } else if t.is_punct(',') && depth == 1 && comma.is_none() {
            comma = Some(j);
        }
    }
    let (comma, close) = (comma?, close?);
    let seed = toks[open + 1..comma].to_vec();
    let combiner = toks[comma + 1..close]
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join("::");
    Some((seed, combiner))
}

fn seed_is_float(seed: &[Token]) -> bool {
    seed.iter().any(|t| match t.kind {
        TokenKind::Literal => {
            t.text.contains('.') || t.text.contains("f64") || t.text.contains("f32")
        }
        TokenKind::Ident => t.text == "f64" || t.text == "f32",
        _ => false,
    })
}

/// panic-in-hot-path and alloc-in-hot-path: inside functions tagged
/// `// analyzer: hot`, panicking shortcuts and per-pass heap allocations
/// are findings — the static complement of the runtime zero-alloc suite.
fn lint_hot_paths(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || !ctx.in_hot(t.line) || ctx.in_test(t.line) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        match t.text.as_str() {
            "unwrap" | "expect" if prev_dot => ctx.emit(
                diags,
                t.line,
                "panic-in-hot-path",
                format!(
                    "`.{}()` in a `// analyzer: hot` function: hot passes must not carry \
                     panicking shortcuts — handle the case or justify the invariant",
                    t.text
                ),
            ),
            "panic" if next_bang => ctx.emit(
                diags,
                t.line,
                "panic-in-hot-path",
                "`panic!` in a `// analyzer: hot` function".to_string(),
            ),
            "clone" | "cloned" | "to_vec" | "to_string" | "to_owned" | "collect"
            | "with_capacity"
                if prev_dot =>
            {
                ctx.emit(
                    diags,
                    t.line,
                    "alloc-in-hot-path",
                    format!(
                        "`.{}()` allocates in a `// analyzer: hot` function: hot passes reuse \
                         workspace buffers instead of allocating per pass",
                        t.text
                    ),
                );
            }
            "vec" | "format" if next_bang => ctx.emit(
                diags,
                t.line,
                "alloc-in-hot-path",
                format!("`{}!` allocates in a `// analyzer: hot` function", t.text),
            ),
            "Vec" | "String" | "Box" | "VecDeque" | "BTreeMap" | "BTreeSet" | "BinaryHeap"
            | "HashMap" | "HashSet"
                // `Type::new(...)` constructor
                if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_ident("new"))
                => {
                    ctx.emit(
                        diags,
                        t.line,
                        "alloc-in-hot-path",
                        format!("`{}::new()` constructs a container in a `// analyzer: hot` function", t.text),
                    );
                }
            _ => {}
        }
    }
}

/// vendor-only-imports: every `use` must resolve inside std, the workspace,
/// or the vendored stand-ins. The build is offline; an import outside the
/// allowlist either fails to build or smuggles in an unvetted dependency.
fn lint_imports(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    let toks = ctx.tokens;
    // Modules declared in this file (`mod x;` / `pub mod x {`): a
    // `use x::...` whose first segment is such a module is a local path,
    // not an external crate.
    let local_mods: Vec<&str> = toks
        .windows(2)
        .filter(|w| w[0].is_ident("mod") && w[1].kind == TokenKind::Ident)
        .map(|w| w[1].text.as_str())
        .collect();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("use") {
            continue;
        }
        // Statement position: start of file, after `;`, `{`, `}` or an
        // attribute `]`, optionally via `pub`/`pub(...)`.
        let mut j = i + 1;
        // Absolute paths: `use ::foo::...`
        while toks.get(j).is_some_and(|n| n.is_punct(':')) {
            j += 1;
        }
        let Some(first) = toks.get(j) else { continue };
        if first.kind != TokenKind::Ident {
            continue; // `use {..}` grouped form — segments re-checked inside
        }
        let seg = first.text.as_str();
        if matches!(seg, "crate" | "self" | "super" | "std" | "core" | "alloc") {
            continue;
        }
        if IMPORT_ALLOW.contains(&seg) || local_mods.contains(&seg) {
            continue;
        }
        ctx.emit(
            diags,
            first.line,
            "vendor-only-imports",
            format!(
                "`use {seg}::...` imports a crate outside the workspace/vendor allowlist; \
                 the build is offline — vendor a stand-in or drop the dependency"
            ),
        );
    }
}
