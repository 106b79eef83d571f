//! Rule engine: scans a lexed token stream for project-invariant
//! violations and reconciles them with `// lint: allow` directives.
//!
//! Rules:
//! - `decode-result` — every `pub fn` whose name is `open` or starts with
//!   `read_`/`decode`/`decompress`/`inflate` must return a `Result`.
//! - `taint` — untrusted-length data flow (see [`crate::taint`]): a value
//!   from a designated untrusted-read primitive — or from a *derived
//!   source*, a helper whose return the interprocedural fixed point
//!   ([`crate::summary`]) proved tainted — must pass a sanitizer before
//!   it reaches arithmetic, an allocation site, or a slice index.
//! - `overflow` — unchecked `+ * <<` arithmetic in a module that declares
//!   `#![warn(clippy::indexing_slicing)]` (literal operands exempt).
//! - `safety-comment` — every `unsafe` keyword needs a `// SAFETY:`
//!   comment on the same line or directly above.
//! - `unsafe-boundary` — `#[target_feature]` files need a runtime
//!   feature-detection guard; arch-gated fns need a same-name
//!   `#[cfg(not(target_arch ...))]` scalar fallback.
//! - `concurrency-discipline` — `Ordering::Relaxed` needs an
//!   `// ORDERING:` justification, `.lock().unwrap()` propagates poison,
//!   and `&mut` captures in scoped-spawn closures are races.
//!
//! Panics, unchecked indexing and missing docs are rustc and clippy lints,
//! declared in the crates and modules they govern (DESIGN.md "Static
//! analysis"); this engine only counts their `#[allow]`/`#[expect]`
//! suppressions, so the baseline ratchets on them too.
//!
//! Binary sources ([`FileContext::binary`]) relax `decode-result` and
//! `overflow`; the data-flow and unsafety rules stay on everywhere.
//!
//! Escape hatches, counted and reported:
//! - `// lint: allow(<rule>) -- <justification>` on the flagged line or
//!   the line directly above it;
//! - `// lint: allow-file(<rule>) -- <justification>` anywhere in the file.
//!
//! The justification is mandatory; a directive without one, naming an
//! unknown rule, or suppressing no finding is itself a `bad-allow`
//! violation that no directive can suppress.

use crate::lexer::{lex, LineComment, Tok, Token};
use crate::parser::matching_close;
use crate::taint;

/// Which invariant a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Public decode entry point that does not return `Result`.
    DecodeResult,
    /// Malformed `// lint:` directive, or one that suppresses nothing.
    BadAllow,
    /// Untrusted value reaches arithmetic/allocation/indexing unsanitized.
    Taint,
    /// Unchecked arithmetic in an untrusted-input module.
    Overflow,
    /// `unsafe` without a `// SAFETY:` comment.
    SafetyComment,
    /// `target_feature` intrinsics without a runtime detection guard, or
    /// a `cfg(target_arch)`-gated fn without a scalar fallback.
    UnsafeBoundary,
    /// Relaxed atomics without justification, lock-then-panic, or shared
    /// mutable captures in scoped threads.
    Concurrency,
}

impl Rule {
    /// The name used inside `allow(...)` directives and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::DecodeResult => "decode-result",
            Rule::BadAllow => "bad-allow",
            Rule::Taint => "taint",
            Rule::Overflow => "overflow",
            Rule::SafetyComment => "safety-comment",
            Rule::UnsafeBoundary => "unsafe-boundary",
            Rule::Concurrency => "concurrency-discipline",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "decode-result" => Some(Rule::DecodeResult),
            "taint" => Some(Rule::Taint),
            "overflow" => Some(Rule::Overflow),
            "safety-comment" => Some(Rule::SafetyComment),
            "unsafe-boundary" => Some(Rule::UnsafeBoundary),
            "concurrency-discipline" => Some(Rule::Concurrency),
            _ => None,
        }
    }

    /// Every rule name, for reporting.
    pub const ALL_NAMES: [&'static str; 7] = [
        "decode-result",
        "bad-allow",
        "taint",
        "overflow",
        "safety-comment",
        "unsafe-boundary",
        "concurrency-discipline",
    ];
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

/// Result of checking one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that survived directive reconciliation.
    pub findings: Vec<Finding>,
    /// Count of findings suppressed by an allow directive, per rule name.
    pub suppressed: Vec<(&'static str, usize)>,
    /// Total well-formed allow directives seen in the file: `// lint:`
    /// comments plus the lint paths of `#[allow]`/`#[expect]` attributes.
    pub allow_count: usize,
    /// Allow directives per rule name or lint path (sums to
    /// `allow_count`); the baseline keys directives by `(file, rule)` so
    /// counts survive refactors that move rules between files.
    pub allows_by_rule: Vec<(String, usize)>,
}

#[derive(Debug)]
struct Allow {
    line: u32,
    rule: Rule,
    whole_file: bool,
}

/// Per-file rule configuration.
#[derive(Debug, Default, Clone, Copy)]
pub struct FileContext {
    /// The file decodes untrusted external bytes — its module, or one
    /// above it, declares `#![warn(clippy::indexing_slicing)]` (see
    /// [`declares_untrusted`]): enables the `overflow` rule.
    pub untrusted: bool,
    /// The file is a binary/CLI entry point: library-hygiene rules
    /// (`overflow`, `decode-result`) are off and its lint attributes go
    /// uncounted — a CLI may unwrap and index freely — while the data-flow
    /// and unsafety rules (`taint`, `safety-comment`, `unsafe-boundary`,
    /// `concurrency-discipline`) stay on.
    pub binary: bool,
}

/// Check one library source file. `untrusted` enables the `overflow`
/// rule. Kept as the minimal entry point for tests and embedding — the
/// binary uses [`check_file`].
pub fn check_source(src: &str, untrusted: bool) -> FileReport {
    check_file(
        src,
        FileContext {
            untrusted,
            binary: false,
        },
    )
}

/// Check one source file with full per-file configuration.
pub fn check_file(src: &str, ctx: FileContext) -> FileReport {
    check_file_with(src, ctx, &[], Vec::new())
}

/// [`check_file`] with interprocedural context: `extra_sources` extends
/// the taint source list with derived source names proved by the summary
/// pass, and `extra` carries precomputed cross-function findings (they
/// are reconciled against allow directives like any local finding).
pub fn check_file_with(
    src: &str,
    ctx: FileContext,
    extra_sources: &[String],
    mut extra: Vec<Finding>,
) -> FileReport {
    let lexed = lex(src);
    let tokens = &lexed.tokens;
    let test_mask = test_region_mask(tokens);

    let mut raw: Vec<Finding> = Vec::new();
    let mut attrs = Vec::new();
    if !ctx.binary {
        scan_decode_signatures(tokens, &test_mask, &mut raw);
        attrs = lint_attributes(tokens, &test_mask);
    }
    if ctx.untrusted && !ctx.binary {
        taint::scan_overflow(tokens, &test_mask, &mut raw);
    }
    taint::scan_taint_with(tokens, &test_mask, extra_sources, &mut raw);
    scan_safety_comments(tokens, &lexed.comments, &test_mask, &mut raw);
    scan_unsafe_boundary(tokens, &test_mask, &mut raw);
    scan_concurrency(tokens, &lexed.comments, &test_mask, &mut raw);
    raw.append(&mut extra);

    let (allows, mut bad) = parse_directives(&lexed.comments);
    reconcile(raw, &allows, attrs, &mut bad)
}

/// Does the file open with an inner `#![warn(clippy::indexing_slicing)]`
/// (or `deny`/`forbid`)? That attribute is the one declaration of an
/// untrusted-input module: clippy checks its indexing, and the caller sets
/// [`FileContext::untrusted`] from it for the `overflow` rule.
pub fn declares_untrusted(src: &str) -> bool {
    let tokens = lex(src).tokens;
    let mut i = 0usize;
    while let Some((inner, body, close)) = attr_at(&tokens, i) {
        let enables = matches!(body.first().map(|t| &t.tok),
            Some(Tok::Ident(w)) if matches!(w.as_str(), "warn" | "deny" | "forbid"));
        if inner
            && enables
            && lint_paths(&body[1..])
                .iter()
                .any(|p| p == "clippy::indexing_slicing")
        {
            return true;
        }
        i = close + 1;
    }
    false
}

/// The lint paths named by every `#[allow(..)]`/`#[expect(..)]`, outer or
/// inner, outside test code: the toolchain's suppressions, counted beside
/// the `// lint: allow` directives so the baseline ratchets on both.
fn lint_attributes(tokens: &[Token], test_mask: &[bool]) -> Vec<String> {
    let mut paths = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        // One item's attribute run: a test gate anywhere in it makes the
        // item, and the suppressions on it, test code.
        let mut gated = test_mask.get(i).copied().unwrap_or(false);
        let mut run = Vec::new();
        while let Some((_, body, close)) = attr_at(tokens, i) {
            gated |= attr_is_test_gate(body);
            if matches!(body.first().map(|t| &t.tok), Some(Tok::Ident(w)) if w == "allow" || w == "expect")
            {
                run.extend(lint_paths(&body[1..]));
            }
            i = close + 1;
        }
        if !gated {
            paths.append(&mut run);
        }
        i += 1;
    }
    paths
}

/// The attribute whose `#` is `tokens[i]`: whether it is inner (`#![..]`),
/// its body between the brackets, and the index of its `]`.
fn attr_at(tokens: &[Token], i: usize) -> Option<(bool, &[Token], usize)> {
    if tokens.get(i)?.tok != Tok::Punct('#') {
        return None;
    }
    let inner = tokens.get(i + 1)?.tok == Tok::Punct('!');
    let open = i + 1 + usize::from(inner);
    if tokens.get(open)?.tok != Tok::Open('[') {
        return None;
    }
    let close = matching_close(tokens, open, '[')?;
    Some((inner, &tokens[open + 1..close], close))
}

/// The lint paths in an `allow`/`expect` argument list, `(a::b, c)` →
/// `["a::b", "c"]`; the `reason = "..."` field is not a path.
fn lint_paths(args: &[Token]) -> Vec<String> {
    let inner = match args {
        [open, inner @ .., close] if open.tok == Tok::Open('(') && close.tok == Tok::Close(')') => {
            inner
        }
        _ => return Vec::new(),
    };
    inner
        .split(|t| t.tok == Tok::Punct(','))
        .filter(|part| {
            !part.is_empty()
                && part
                    .iter()
                    .all(|t| matches!(&t.tok, Tok::Ident(_) | Tok::Punct(':')))
        })
        .map(|part| {
            let names: Vec<&str> = part
                .iter()
                .filter_map(|t| match &t.tok {
                    Tok::Ident(w) => Some(w.as_str()),
                    _ => None,
                })
                .collect();
            names.join("::")
        })
        .collect()
}

/// Public wrapper over the test-region mask for workspace-level passes
/// that flag call sites outside this module.
pub fn test_region_mask_for(tokens: &[Token]) -> Vec<bool> {
    test_region_mask(tokens)
}

/// Mark every token that lives inside `#[cfg(test)]`-gated items or
/// `#[test]`/`#[bench]` functions, so rules skip test code.
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_attr_start(tokens, i) {
            i += 1;
            continue;
        }
        // Consume a run of attributes, remembering whether any is a
        // test gate.
        let mut gated = false;
        while is_attr_start(tokens, i) {
            let end = match matching_close(tokens, i + 1, '[') {
                Some(e) => e,
                None => return mask,
            };
            if attr_is_test_gate(&tokens[i + 2..end]) {
                gated = true;
            }
            i = end + 1;
        }
        if !gated {
            continue;
        }
        // Skip the gated item: everything up to and including its brace
        // block (or a terminating `;` for body-less items).
        let start = i;
        while i < tokens.len() {
            match &tokens[i].tok {
                Tok::Open('{') => {
                    let end = matching_close(tokens, i, '{').unwrap_or(tokens.len() - 1);
                    for m in mask.iter_mut().take(end + 1).skip(start) {
                        *m = true;
                    }
                    i = end + 1;
                    break;
                }
                Tok::Punct(';') => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
    }
    mask
}

/// Is `tokens[i]` the `#` of an outer attribute `#[...]`?
fn is_attr_start(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i), Some(t) if t.tok == Tok::Punct('#'))
        && matches!(tokens.get(i + 1), Some(t) if t.tok == Tok::Open('['))
}

/// Does this attribute body gate test code? True for `test`, `bench`, and
/// `cfg(...)` whose predicate can only be satisfied under `cfg(test)` —
/// i.e. it mentions `test` outside any `not(...)` group.
fn attr_is_test_gate(body: &[Token]) -> bool {
    match body.first().map(|t| &t.tok) {
        Some(Tok::Ident(name)) if name == "test" || name == "bench" => body.len() == 1,
        Some(Tok::Ident(name)) if name == "cfg" => cfg_mentions_test(body),
        _ => false,
    }
}

fn cfg_mentions_test(body: &[Token]) -> bool {
    // Track group heads (`any`, `all`, `not`, ...) so `cfg(not(test))`
    // does not count as a test gate.
    let mut not_depth = 0usize;
    let mut paren_not_levels: Vec<bool> = Vec::new();
    let mut last_ident: Option<&str> = None;
    for t in body {
        match &t.tok {
            Tok::Ident(name) => {
                if name == "test" && not_depth == 0 && last_ident != Some("not") {
                    return true;
                }
                last_ident = Some(name);
            }
            Tok::Open('(') => {
                let is_not = last_ident == Some("not");
                paren_not_levels.push(is_not);
                if is_not {
                    not_depth += 1;
                }
                last_ident = None;
            }
            Tok::Close(')') => {
                if paren_not_levels.pop() == Some(true) {
                    not_depth = not_depth.saturating_sub(1);
                }
                last_ident = None;
            }
            _ => last_ident = None,
        }
    }
    false
}

/// Does `name` mark a public decode entry point?
fn is_decode_entry_name(name: &str) -> bool {
    name == "open"
        || name.starts_with("read_")
        || name.starts_with("decode")
        || name.starts_with("decompress")
        || name.starts_with("inflate")
}

fn scan_decode_signatures(tokens: &[Token], test_mask: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        // Match `pub fn <name>`. Restricted visibility (`pub(crate)`,
        // `pub(super)`) is not a public entry point and is exempt.
        if t.tok != Tok::Ident("pub".to_string()) {
            continue;
        }
        let j = i + 1;
        if matches!(tokens.get(j), Some(t) if t.tok == Tok::Open('(')) {
            continue;
        }
        if !matches!(tokens.get(j), Some(t) if t.tok == Tok::Ident("fn".to_string())) {
            continue;
        }
        let Some(name_tok) = tokens.get(j + 1) else {
            continue;
        };
        let Tok::Ident(name) = &name_tok.tok else {
            continue;
        };
        if !is_decode_entry_name(name) {
            continue;
        }
        if !signature_returns_result(tokens, j + 2) {
            out.push(Finding {
                line: name_tok.line,
                rule: Rule::DecodeResult,
                message: format!("public decode entry point `{name}` does not return `Result`"),
            });
        }
    }
}

/// From just past the fn name, skip generics and the parameter list, then
/// look for `Result` between `->` and the body `{` (or a trailing `;`).
fn signature_returns_result(tokens: &[Token], mut j: usize) -> bool {
    // Skip generics `<...>`; `<` nests but never contains parens or braces
    // at signature level.
    if matches!(tokens.get(j), Some(t) if t.tok == Tok::Punct('<')) {
        let mut depth = 0i32;
        while let Some(t) = tokens.get(j) {
            match t.tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => {
                    depth -= 1;
                    if depth <= 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Parameter list.
    if !matches!(tokens.get(j), Some(t) if t.tok == Tok::Open('(')) {
        return false;
    }
    let Some(params_end) = matching_close(tokens, j, '(') else {
        return false;
    };
    j = params_end + 1;
    // Return type and where clause run until the body opens.
    let mut saw_arrow = false;
    let mut saw_result = false;
    while let Some(t) = tokens.get(j) {
        match &t.tok {
            Tok::Open('{') | Tok::Punct(';') => break,
            Tok::Punct('-') if matches!(tokens.get(j + 1), Some(t) if t.tok == Tok::Punct('>')) => {
                saw_arrow = true;
                j += 1;
            }
            Tok::Ident(name) if name == "where" => break,
            Tok::Ident(name) if name.ends_with("Result") => saw_result = true,
            _ => {}
        }
        j += 1;
    }
    saw_arrow && saw_result
}

/// `unsafe` requires a `// SAFETY:` comment on the same line or within
/// the two lines above (the comment may sit above an attribute).
fn scan_safety_comments(
    tokens: &[Token],
    comments: &[LineComment],
    test_mask: &[bool],
    out: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if !matches!(&t.tok, Tok::Ident(w) if w == "unsafe") {
            continue;
        }
        let justified = comments.iter().any(|c| {
            c.text.trim_start().starts_with("SAFETY:") && c.line <= t.line && t.line - c.line <= 2
        });
        if !justified {
            out.push(Finding {
                line: t.line,
                rule: Rule::SafetyComment,
                message: "`unsafe` without a `// SAFETY:` comment".to_string(),
            });
        }
    }
}

/// The `unsafe-boundary` rule: SIMD/intrinsic code must keep its escape
/// hatches paired with guards. Two checks, both aimed at `checksum.rs`
/// and any future kernel code:
///
/// - a file using `#[target_feature(...)]` must also contain a runtime
///   feature-detection call (any identifier containing
///   `feature_detected`) — compiling for a feature is not the same as
///   checking the CPU has it;
/// - every `#[cfg(target_arch = ...)]`-gated *function* needs a same-name
///   fn under `#[cfg(not(target_arch ...))]` — the named scalar fallback.
///   Arch-gated `mod`s are exempt: gating a whole intrinsics module is
///   the idiom, and its call sites are the paired fns this check covers.
///
/// The `// SAFETY:` comment requirement on the `unsafe` blocks themselves
/// is the existing `safety-comment` rule; together the three checks form
/// the full boundary contract.
fn scan_unsafe_boundary(tokens: &[Token], test_mask: &[bool], out: &mut Vec<Finding>) {
    let has_detection = tokens
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(w) if w.contains("feature_detected")));
    let mut gated: Vec<(String, u32)> = Vec::new();
    let mut fallbacks: Vec<String> = Vec::new();

    let mut i = 0usize;
    while i < tokens.len() {
        if !is_attr_start(tokens, i) {
            i += 1;
            continue;
        }
        let in_test = test_mask.get(i).copied().unwrap_or(false);
        // Walk the attribute run attached to the next item.
        let mut arch_polarity: Option<bool> = None;
        let mut target_feature_line: Option<u32> = None;
        while is_attr_start(tokens, i) {
            let Some(end) = matching_close(tokens, i + 1, '[') else {
                return;
            };
            let body = &tokens[i + 2..end];
            match body.first().map(|t| &t.tok) {
                Some(Tok::Ident(w)) if w == "target_feature" => {
                    target_feature_line = Some(tokens[i].line);
                }
                Some(Tok::Ident(w)) if w == "cfg" => {
                    if let Some(pol) = cfg_arch_polarity(body) {
                        arch_polarity = Some(pol);
                    }
                }
                _ => {}
            }
            i = end + 1;
        }
        if in_test {
            continue;
        }
        if let (Some(line), false) = (target_feature_line, has_detection) {
            out.push(Finding {
                line,
                rule: Rule::UnsafeBoundary,
                message: "`#[target_feature]` in a file with no runtime feature-detection guard"
                    .to_string(),
            });
        }
        if let Some(pol) = arch_polarity {
            if let Some(name) = attached_fn_name(tokens, i) {
                if pol {
                    gated.push((name, tokens.get(i).map_or(0, |t| t.line)));
                } else {
                    fallbacks.push(name);
                }
            }
        }
    }
    for (name, line) in gated {
        if !fallbacks.contains(&name) {
            out.push(Finding {
                line,
                rule: Rule::UnsafeBoundary,
                message: format!(
                    "arch-gated fn `{name}` has no `#[cfg(not(target_arch ...))]` scalar fallback"
                ),
            });
        }
    }
}

/// Does this `cfg(...)` attribute body mention `target_arch`, and with
/// what polarity? `Some(true)` = outside any `not(...)` (the gated side),
/// `Some(false)` = only inside `not(...)` (the fallback side), `None` =
/// no mention.
fn cfg_arch_polarity(body: &[Token]) -> Option<bool> {
    let mut not_depth = 0usize;
    let mut paren_not_levels: Vec<bool> = Vec::new();
    let mut last_ident: Option<&str> = None;
    let mut inside = false;
    for t in body {
        match &t.tok {
            Tok::Ident(name) => {
                if name == "target_arch" {
                    if not_depth == 0 {
                        return Some(true);
                    }
                    inside = true;
                }
                last_ident = Some(name);
            }
            Tok::Open('(') => {
                let is_not = last_ident == Some("not");
                paren_not_levels.push(is_not);
                if is_not {
                    not_depth += 1;
                }
                last_ident = None;
            }
            Tok::Close(')') => {
                if paren_not_levels.pop() == Some(true) {
                    not_depth = not_depth.saturating_sub(1);
                }
                last_ident = None;
            }
            _ => last_ident = None,
        }
    }
    if inside {
        Some(false)
    } else {
        None
    }
}

/// If the item starting at `i` (just past its attributes) is a fn,
/// return its name. Modifier keywords and restricted visibility are
/// skipped; any other item kind (notably `mod`) returns `None`.
fn attached_fn_name(tokens: &[Token], mut i: usize) -> Option<String> {
    loop {
        match tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(w)) if w == "fn" => {
                return match tokens.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Ident(name)) => Some(name.clone()),
                    _ => None,
                };
            }
            Some(Tok::Ident(w))
                if matches!(w.as_str(), "pub" | "const" | "unsafe" | "async" | "extern") =>
            {
                i += 1;
            }
            Some(Tok::Open('(')) => {
                // `pub(crate)` restriction.
                i = matching_close(tokens, i, '(')? + 1;
            }
            Some(Tok::Str) => i += 1, // `extern "C"`
            _ => return None,
        }
    }
}

/// The `concurrency-discipline` rule, covering the three sharp edges of
/// the scoped-thread pipeline code:
///
/// - `Ordering::Relaxed` outside tests needs an `// ORDERING:` comment on
///   the same line or within the two lines above, stating why relaxed
///   ordering is sufficient. Acquire/Release/SeqCst are self-describing
///   and exempt.
/// - `.lock().unwrap()` / `.lock().expect(...)` panics on poison and
///   poisons every later consumer; recover with
///   `unwrap_or_else(|e| e.into_inner())` instead.
/// - inside a `scope(...)` block, a `&mut name` capture in a `.spawn(...)`
///   closure is flagged unless `name` is `let`-bound inside that closure
///   — a shared mutable capture across workers is a race (or a compile
///   error waiting to move).
fn scan_concurrency(
    tokens: &[Token],
    comments: &[LineComment],
    test_mask: &[bool],
    out: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        match &t.tok {
            // `Ordering :: Relaxed`
            Tok::Ident(w) if w == "Ordering" => {
                let tail = matches!(tokens.get(i + 1), Some(t) if t.tok == Tok::Punct(':'))
                    && matches!(tokens.get(i + 2), Some(t) if t.tok == Tok::Punct(':'))
                    && matches!(tokens.get(i + 3), Some(t) if matches!(&t.tok, Tok::Ident(w) if w == "Relaxed"));
                if !tail {
                    continue;
                }
                let line = tokens[i + 3].line;
                let justified = comments.iter().any(|c| {
                    c.text.trim_start().starts_with("ORDERING:")
                        && c.line <= line
                        && line - c.line <= 2
                });
                if !justified {
                    out.push(Finding {
                        line,
                        rule: Rule::Concurrency,
                        message: "`Ordering::Relaxed` without an `// ORDERING:` justification"
                            .to_string(),
                    });
                }
            }
            // `.lock().unwrap()` / `.lock().expect(...)`
            Tok::Ident(w) if w == "lock" => {
                let prev = i.checked_sub(1).map(|p| &tokens[p].tok);
                let shape = matches!(prev, Some(Tok::Punct('.')))
                    && matches!(tokens.get(i + 1), Some(t) if t.tok == Tok::Open('('))
                    && matches!(tokens.get(i + 2), Some(t) if t.tok == Tok::Close(')'))
                    && matches!(tokens.get(i + 3), Some(t) if t.tok == Tok::Punct('.'));
                if !shape {
                    continue;
                }
                if let Some(Tok::Ident(m)) = tokens.get(i + 4).map(|t| &t.tok) {
                    if (m == "unwrap" || m == "expect")
                        && matches!(tokens.get(i + 5), Some(t) if t.tok == Tok::Open('('))
                    {
                        out.push(Finding {
                            line: tokens[i + 4].line,
                            rule: Rule::Concurrency,
                            message: format!(
                                "`.lock().{m}()` panics on poison; use \
                                 `unwrap_or_else(|e| e.into_inner())`"
                            ),
                        });
                    }
                }
            }
            // `scope(...)` — look inside for `.spawn(...)` closures.
            Tok::Ident(w) if w == "scope" => {
                if !matches!(tokens.get(i + 1), Some(t) if t.tok == Tok::Open('(')) {
                    continue;
                }
                let Some(close) = matching_close(tokens, i + 1, '(') else {
                    continue;
                };
                scan_spawn_captures(tokens, i + 2, close, out);
            }
            _ => {}
        }
    }
}

/// Flag `&mut name` inside `.spawn(...)` argument spans when `name` is
/// not `let`-bound within that same span.
fn scan_spawn_captures(tokens: &[Token], lo: usize, hi: usize, out: &mut Vec<Finding>) {
    for i in lo..hi {
        let spawn = matches!(&tokens[i].tok, Tok::Ident(w) if w == "spawn")
            && i > 0
            && tokens[i - 1].tok == Tok::Punct('.')
            && matches!(tokens.get(i + 1), Some(t) if t.tok == Tok::Open('('));
        if !spawn {
            continue;
        }
        let Some(close) = matching_close(tokens, i + 1, '(') else {
            continue;
        };
        // Names the closure itself declares.
        let mut local: Vec<&str> = Vec::new();
        for k in i + 2..close {
            if matches!(&tokens[k].tok, Tok::Ident(w) if w == "let") {
                let mut j = k + 1;
                if matches!(tokens.get(j), Some(t) if matches!(&t.tok, Tok::Ident(w) if w == "mut"))
                {
                    j += 1;
                }
                if let Some(Tok::Ident(name)) = tokens.get(j).map(|t| &t.tok) {
                    local.push(name);
                }
            }
        }
        for k in i + 2..close.saturating_sub(1) {
            if tokens[k].tok != Tok::Punct('&') {
                continue;
            }
            if !matches!(&tokens[k + 1].tok, Tok::Ident(w) if w == "mut") {
                continue;
            }
            if let Some(Tok::Ident(name)) = tokens.get(k + 2).map(|t| &t.tok) {
                if !local.contains(&name.as_str()) {
                    out.push(Finding {
                        line: tokens[k].line,
                        rule: Rule::Concurrency,
                        message: format!(
                            "`&mut {name}` captured in a scoped-thread closure \
                             without a closure-local binding"
                        ),
                    });
                }
            }
        }
    }
}

/// Parse every `lint:` directive out of the file's line comments.
fn parse_directives(comments: &[LineComment]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        match parse_allow(rest.trim()) {
            Some((rule, whole_file)) => allows.push(Allow {
                line: c.line,
                rule,
                whole_file,
            }),
            None => bad.push(Finding {
                line: c.line,
                rule: Rule::BadAllow,
                message: "malformed lint directive; expected \
                          `lint: allow(<rule>) -- <justification>`"
                    .to_string(),
            }),
        }
    }
    (allows, bad)
}

/// Parse `allow(<rule>) -- <justification>` / `allow-file(<rule>) -- ...`.
fn parse_allow(s: &str) -> Option<(Rule, bool)> {
    let (head, tail) = s.split_once("--")?;
    if tail.trim().is_empty() {
        return None; // the justification is mandatory
    }
    let head = head.trim();
    let (whole_file, args) = if let Some(rest) = head.strip_prefix("allow-file") {
        (true, rest)
    } else if let Some(rest) = head.strip_prefix("allow") {
        (false, rest)
    } else {
        return None;
    };
    let args = args.trim();
    let inner = args.strip_prefix('(')?.strip_suffix(')')?;
    let rule = Rule::from_name(inner.trim())?;
    Some((rule, whole_file))
}

/// Apply allow directives to raw findings; malformed directives and
/// directives that cover no finding join the surviving findings. `attrs`
/// are the lint paths of the file's `#[allow]`/`#[expect]` attributes:
/// counted as directives, reconciled by rustc and clippy.
fn reconcile(
    raw: Vec<Finding>,
    allows: &[Allow],
    attrs: Vec<String>,
    bad: &mut Vec<Finding>,
) -> FileReport {
    let mut report = FileReport {
        allow_count: allows.len() + attrs.len(),
        ..FileReport::default()
    };
    for key in allows
        .iter()
        .map(|a| a.rule.name().to_string())
        .chain(attrs)
    {
        match report.allows_by_rule.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => report.allows_by_rule.push((key, 1)),
        }
    }
    let mut suppressed: Vec<(&'static str, usize)> = Vec::new();
    let mut used = vec![false; allows.len()];
    for f in raw {
        let mut covered = false;
        for (a, used) in allows.iter().zip(used.iter_mut()) {
            if a.rule == f.rule && (a.whole_file || a.line == f.line || a.line + 1 == f.line) {
                *used = true;
                covered = true;
            }
        }
        if covered {
            match suppressed
                .iter_mut()
                .find(|(name, _)| *name == f.rule.name())
            {
                Some((_, n)) => *n += 1,
                None => suppressed.push((f.rule.name(), 1)),
            }
        } else {
            report.findings.push(f);
        }
    }
    for (a, _) in allows.iter().zip(used).filter(|(_, used)| !used) {
        let form = if a.whole_file { "allow-file" } else { "allow" };
        report.findings.push(Finding {
            line: a.line,
            rule: Rule::BadAllow,
            message: format!("`{form}({})` suppresses nothing", a.rule.name()),
        });
    }
    report.findings.append(bad);
    report.findings.sort_by_key(|f| f.line);
    report.suppressed = suppressed;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(report: &FileReport, rule: Rule) -> Vec<u32> {
        report
            .findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn lib() -> u8 { 1 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   #[test]\n\
                   fn t() { unsafe { f() }; unsafe { g() }; }\n\
                   }";
        assert!(check_source(src, false).findings.is_empty());
    }

    #[test]
    fn test_attr_fn_is_exempt_but_neighbors_are_not() {
        let src = "#[test]\n\
                   fn t() { unsafe { f() }; }\n\
                   fn lib() { unsafe { f() }; }";
        let r = check_source(src, false);
        assert_eq!(lines_of(&r, Rule::SafetyComment), vec![3]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_gate() {
        let src = "#[cfg(not(test))]\nfn lib() { unsafe { f() }; }";
        let r = check_source(src, false);
        assert_eq!(lines_of(&r, Rule::SafetyComment), vec![2]);
    }

    #[test]
    fn cfg_any_test_is_a_test_gate() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nfn helper() { unsafe { f() }; }";
        assert!(check_source(src, false).findings.is_empty());
    }

    #[test]
    fn allow_on_same_line_suppresses_and_is_counted() {
        let src = "fn f(a: usize, b: usize) -> usize {\n\
                   a + b // lint: allow(overflow) -- documented invariant\n\
                   }";
        let r = check_source(src, true);
        assert!(r.findings.is_empty());
        assert_eq!(r.allow_count, 1);
        assert_eq!(r.suppressed, vec![("overflow", 1)]);
    }

    #[test]
    fn allow_on_line_above_suppresses() {
        let src = "fn f(a: usize, b: usize) -> usize {\n\
                   // lint: allow(overflow) -- checked two lines up\n\
                   a + b\n\
                   }";
        assert!(check_source(src, true).findings.is_empty());
    }

    #[test]
    fn allow_does_not_leak_to_other_lines_or_rules() {
        let src = "fn f(a: usize, b: usize) -> usize {\n\
                   // lint: allow(overflow) -- only covers the next line\n\
                   let x = a + b;\n\
                   let y = a + b;\n\
                   x ^ y\n\
                   }";
        let r = check_source(src, true);
        assert_eq!(lines_of(&r, Rule::Overflow), vec![4]);
    }

    #[test]
    fn allow_file_covers_whole_file() {
        let src = "// lint: allow-file(overflow) -- generated table module\n\
                   fn f(a: usize, b: usize) -> usize { a + b }\n\
                   fn g(a: usize, b: usize) -> usize { a * b }";
        let r = check_source(src, true);
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressed, vec![("overflow", 2)]);
    }

    #[test]
    fn allow_without_justification_is_a_violation() {
        let src = "fn f(a: usize, b: usize) -> usize {\n\
                   a + b // lint: allow(overflow)\n\
                   }";
        let r = check_source(src, true);
        assert_eq!(lines_of(&r, Rule::BadAllow), vec![2]);
        // The addition itself is also still reported.
        assert_eq!(lines_of(&r, Rule::Overflow), vec![2]);
    }

    #[test]
    fn allow_with_unknown_rule_is_a_violation() {
        let src = "// lint: allow(everything) -- please\nfn f() {}";
        let r = check_source(src, false);
        assert_eq!(lines_of(&r, Rule::BadAllow), vec![1]);
    }

    #[test]
    fn allow_that_suppresses_nothing_is_a_violation() {
        let src = "fn f(a: usize) -> usize {\n\
                   // lint: allow(overflow) -- nothing below adds\n\
                   a.saturating_add(1)\n\
                   }";
        let r = check_source(src, true);
        assert_eq!(lines_of(&r, Rule::BadAllow), vec![2]);
        assert_eq!(r.allow_count, 1);
        assert!(r.suppressed.is_empty());
    }

    #[test]
    fn lint_attributes_count_as_directives_by_lint_path() {
        let src = "#[expect(clippy::indexing_slicing, reason = \"masked, a, b\")]\n\
                   fn f(w: &mut [u8; 8], i: usize) { w[i & 7] = 0; }\n\
                   #[allow(dead_code, clippy::panic)]\n\
                   fn g() {}\n\
                   #[cfg(test)]\n\
                   #[expect(clippy::field_reassign_with_default, reason = \"tests\")]\n\
                   mod tests {\n\
                   #[expect(clippy::unwrap_used, reason = \"test\")]\n\
                   fn t() {}\n\
                   }";
        let r = check_source(src, false);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allow_count, 3);
        let key = |k: &str| (k.to_string(), 1);
        assert_eq!(
            r.allows_by_rule,
            vec![
                key("clippy::indexing_slicing"),
                key("dead_code"),
                key("clippy::panic")
            ]
        );
        let bin = FileContext {
            untrusted: false,
            binary: true,
        };
        assert_eq!(check_file(src, bin).allow_count, 0);
    }

    #[test]
    fn untrusted_scope_is_an_inner_indexing_declaration() {
        assert!(declares_untrusted(
            "//! Decoder.\n#![warn(clippy::indexing_slicing)]\nfn f() {}"
        ));
        assert!(declares_untrusted(
            "#![deny(clippy::panic, clippy::indexing_slicing)]\n//! Doc.\nfn f() {}"
        ));
        // Only an inner attribute at the top of the module declares it.
        assert!(!declares_untrusted(
            "#[warn(clippy::indexing_slicing)]\nfn f() {}"
        ));
        assert!(!declares_untrusted(
            "#![warn(clippy::panic)]\nfn f() {}\nmod m { #![warn(clippy::indexing_slicing)] }"
        ));
        assert!(!declares_untrusted(
            "#![allow(clippy::indexing_slicing)]\nfn f() {}"
        ));
    }

    #[test]
    fn unsafe_in_string_literal_is_not_flagged() {
        let src = "fn f() -> &'static str { \"never write unsafe { *p } or a + b\" }";
        assert!(check_source(src, true).findings.is_empty());
    }

    #[test]
    fn decode_entry_without_result_is_flagged() {
        let src = "pub fn decompress_fast(input: &[u8]) -> Vec<u8> { input.to_vec() }";
        let r = check_source(src, false);
        assert_eq!(lines_of(&r, Rule::DecodeResult), vec![1]);
        // With Result it is clean.
        let ok =
            "pub fn decompress_fast(input: &[u8]) -> Result<Vec<u8>, E> { Ok(input.to_vec()) }";
        assert!(check_source(ok, false).findings.is_empty());
    }

    #[test]
    fn decode_rule_covers_open_and_inflate_but_not_pub_crate() {
        let bad = "pub fn open(b: &[u8]) -> usize { b.len() }\n\
                   pub(crate) fn read_header(b: &[u8]) -> usize { b.len() }\n\
                   pub fn inflate_all(b: &[u8]) {}";
        let r = check_source(bad, false);
        assert_eq!(lines_of(&r, Rule::DecodeResult), vec![1, 3]);
    }

    #[test]
    fn decode_rule_ignores_private_fns_and_other_names() {
        let src = "fn decompress_impl(b: &[u8]) -> Vec<u8> { b.to_vec() }\n\
                   pub fn compress(b: &[u8]) -> Vec<u8> { b.to_vec() }\n\
                   pub fn reader(b: &[u8]) -> usize { b.len() }";
        assert!(check_source(src, false).findings.is_empty());
    }

    #[test]
    fn decode_rule_handles_generics_and_where_clauses() {
        let src = "pub fn read_array<const N: usize>(buf: &[u8]) -> Option<[u8; N]> { None }";
        let r = check_source(src, false);
        assert_eq!(lines_of(&r, Rule::DecodeResult), vec![1]);
        let ok = "pub fn read_into<R>(r: R) -> io::Result<Vec<u8>> where R: Sized { todo()\n}\nfn todo() -> io::Result<Vec<u8>> { unimplemented() }\nfn unimplemented() -> io::Result<Vec<u8>> { Ok(vec![]) }";
        assert!(check_source(ok, false).findings.is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\nunsafe { *p }\n}";
        let r = check_source(src, false);
        assert_eq!(lines_of(&r, Rule::SafetyComment), vec![2]);
    }

    #[test]
    fn unsafe_with_safety_comment_is_clean() {
        let src = "fn f(p: *const u8) -> u8 {\n\
                   // SAFETY: caller guarantees p is valid\n\
                   unsafe { *p }\n}";
        assert!(check_source(src, false).findings.is_empty());
        let attr = "// SAFETY: no interior mutability\n\
                    #[allow(dead_code)]\n\
                    unsafe fn g() {}";
        let r = check_source(attr, false);
        assert!(lines_of(&r, Rule::SafetyComment).is_empty());
    }

    #[test]
    fn new_rules_are_suppressible() {
        let src = "pub fn decode_raw(b: &[u8]) -> usize { b.len() } \
                   // lint: allow(decode-result) -- infallible shim\n\
                   fn g(p: *const u8) -> u8 {\n\
                   // lint: allow(safety-comment) -- justified elsewhere\n\
                   unsafe { *p }\n}";
        let r = check_source(src, false);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allow_count, 2);
    }
    #[test]
    fn target_feature_without_detection_fires() {
        let src = "mod simd {\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   unsafe fn fold() {}\n\
                   }";
        let r = check_source(src, false);
        assert_eq!(lines_of(&r, Rule::UnsafeBoundary), vec![2]);
    }

    #[test]
    fn target_feature_with_detection_is_clean() {
        let src = "fn entry() -> bool { is_x86_feature_detected!(\"avx2\") }\n\
                   mod simd {\n\
                   // SAFETY: caller checked avx2.\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   unsafe fn fold() {}\n\
                   }";
        let r = check_source(src, false);
        assert!(lines_of(&r, Rule::UnsafeBoundary).is_empty());
    }

    #[test]
    fn arch_gated_fn_without_fallback_fires() {
        let src = "#[cfg(target_arch = \"x86_64\")]\n\
                   fn fold_simd(x: u32) -> u32 { x }";
        let r = check_source(src, false);
        assert_eq!(lines_of(&r, Rule::UnsafeBoundary), vec![2]);
    }

    #[test]
    fn arch_gated_fn_with_named_fallback_is_clean() {
        let src = "#[cfg(target_arch = \"x86_64\")]\n\
                   fn fold_simd(x: u32) -> u32 { x }\n\
                   #[cfg(not(target_arch = \"x86_64\"))]\n\
                   fn fold_simd(x: u32) -> u32 { x + 1 }";
        let r = check_source(src, false);
        assert!(lines_of(&r, Rule::UnsafeBoundary).is_empty());
    }

    #[test]
    fn arch_gated_mod_is_exempt() {
        let src = "#[cfg(target_arch = \"x86_64\")]\n\
                   mod avx2 {\n\
                   fn inner() {}\n\
                   }";
        let r = check_source(src, false);
        assert!(lines_of(&r, Rule::UnsafeBoundary).is_empty());
    }

    #[test]
    fn relaxed_ordering_needs_justification() {
        let src = "fn bump(c: &AtomicUsize) -> usize {\n\
                   c.fetch_add(1, Ordering::Relaxed)\n}";
        let r = check_source(src, false);
        assert_eq!(lines_of(&r, Rule::Concurrency), vec![2]);
    }

    #[test]
    fn justified_relaxed_and_stronger_orderings_are_clean() {
        let src = "fn bump(c: &AtomicUsize) -> usize {\n\
                   // ORDERING: a monotonic ticket counter; no data is published.\n\
                   c.fetch_add(1, Ordering::Relaxed)\n}\n\
                   fn publish(f: &AtomicBool) {\n\
                   f.store(true, Ordering::Release);\n}";
        let r = check_source(src, false);
        assert!(lines_of(&r, Rule::Concurrency).is_empty());
    }

    #[test]
    fn lock_then_panic_fires_and_poison_recovery_is_clean() {
        let src = "fn f(m: &Mutex<u32>) -> u32 {\n\
                   let a = *m.lock().unwrap();\n\
                   let b = *m.lock().expect(\"poisoned\");\n\
                   let c = *m.lock().unwrap_or_else(|e| e.into_inner());\n\
                   a + b + c\n}";
        let r = check_source(src, false);
        assert_eq!(lines_of(&r, Rule::Concurrency), vec![2, 3]);
    }

    #[test]
    fn spawn_shared_mut_capture_fires_but_locals_are_clean() {
        let src = "fn run(jobs: &[Job], tallies: &mut [u32]) {\n\
                   std::thread::scope(|scope| {\n\
                   scope.spawn(|| {\n\
                   let mut scratch = Scratch::new();\n\
                   work(&mut scratch, &mut tallies[0]);\n\
                   });\n\
                   });\n}";
        let r = check_source(src, false);
        // `scratch` is closure-local; `tallies` is captured.
        assert_eq!(lines_of(&r, Rule::Concurrency), vec![5]);
    }

    #[test]
    fn test_code_is_exempt_from_concurrency_rules() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                   fn f(c: &AtomicUsize) -> usize { c.load(Ordering::Relaxed) }\n\
                   }";
        let r = check_source(src, false);
        assert!(lines_of(&r, Rule::Concurrency).is_empty());
    }
}
