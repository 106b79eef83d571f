//! `primacy-lint` — the workspace's in-tree panic-safety static analyzer.
//!
//! PRIMACY's containers cross staging I/O nodes, so every decode path must
//! degrade to `Err`, never abort the process. Since PR 1 made the
//! workspace hermetic and zero-dependency, that invariant is enforced with
//! this hand-rolled analyzer rather than external tooling: [`lexer`]
//! tokenizes Rust source just deeply enough to be trustworthy around
//! strings, comments, and lifetimes; [`parser`] recovers a shallow item
//! tree and function-body spans; [`callgraph`] links every `fn` in the
//! workspace by name with per-argument call-site spans; [`summary`] runs
//! the interprocedural fixed point (derived taint sources, allocation
//! parameters, transitive panic); [`taint`] is the per-body engine the
//! fixed point and the rules share; and [`rules`] scans for the project
//! rules (`panic`, `index`, `decode-result`, `taint`, `overflow`,
//! `safety-comment`, `pub-doc`, `unsafe-boundary`,
//! `concurrency-discipline`) while honoring counted
//! `// lint: allow(...)` escape hatches. [`report`] renders JSON
//! diagnostics and gates against the checked-in `lint-baseline.json`
//! under per-file per-rule keys, rendering a delta table on regression.
//!
//! [`analyze_workspace`] is the whole-workspace entry point: build the
//! call graph, iterate summaries to a fixed point, fold cross-function
//! allocation findings into each file's report, then run the per-file
//! rules with the derived source set.
//!
//! Run it with `cargo run -p primacy-lint` from the workspace root; the
//! binary exits non-zero if any violation survives or any count exceeds
//! the baseline. DESIGN.md ("Static analysis") documents the rules, the
//! taint model, the suppression burn-down playbook, and the allow
//! grammar.

pub(crate) mod bounds;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod summary;
pub mod taint;

/// Source files (workspace-relative, `/`-separated) and directories whose
/// contents decode *untrusted* external bytes: the `index` rule is
/// enforced there in addition to the workspace-wide rules. Entries ending
/// in `/` match whole directories.
pub const UNTRUSTED_MODULES: [&str; 8] = [
    "crates/codecs/src/deflate/decode.rs",
    "crates/codecs/src/lzr/",
    "crates/codecs/src/bwt/",
    "crates/codecs/src/fpz/",
    "crates/core/src/format.rs",
    "crates/core/src/archive.rs",
    "crates/core/src/stream.rs",
    "crates/serve/src/protocol.rs",
];

/// Is the file at `rel_path` (workspace-relative, `/`-separated) inside a
/// designated untrusted-input module?
pub fn is_untrusted_module(rel_path: &str) -> bool {
    UNTRUSTED_MODULES
        .iter()
        .any(|m| rel_path == *m || (m.ends_with('/') && rel_path.starts_with(m)))
}

/// Crates whose `pub` items must carry doc comments (the `pub-doc` rule):
/// the two crates forming the published API surface.
pub const DOC_CRATES: [&str; 2] = ["crates/core/src/", "crates/codecs/src/"];

/// Does the file at `rel_path` require documented `pub` items?
pub fn requires_docs(rel_path: &str) -> bool {
    DOC_CRATES.iter().any(|c| rel_path.starts_with(c))
}

/// One workspace source file queued for analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// File contents.
    pub src: String,
    /// Per-file rule configuration.
    pub ctx: rules::FileContext,
}

/// Analyze the whole workspace interprocedurally: build the call graph,
/// run the summary fixed point, then check each file with the derived
/// source set and cross-function allocation findings folded in. Returns
/// one report per input file, in order.
pub fn analyze_workspace(files: &[SourceFile]) -> Vec<rules::FileReport> {
    let lexed: Vec<lexer::LexOutput> = files.iter().map(|f| lexer::lex(&f.src)).collect();
    let tokens: Vec<&[lexer::Token]> = lexed.iter().map(|l| &l.tokens[..]).collect();
    let graph = callgraph::CallGraph::build(&tokens);
    let summaries = summary::summarize(&graph, &tokens);

    // Cross-function allocation findings: a tainted argument flowing
    // into a callee parameter that sizes an allocation.
    let mut extra: Vec<Vec<rules::Finding>> = files.iter().map(|_| Vec::new()).collect();
    for node in &graph.fns {
        let toks = tokens[node.file];
        let test_mask = rules::test_region_mask_for(toks);
        let bt = taint::body_taint(
            toks,
            node.body.0,
            node.body.1 + 1,
            &summaries.derived_sources,
            &[],
        );
        for site in callgraph::call_sites(toks, node.body.0, node.body.1) {
            if test_mask.get(site.idx).copied().unwrap_or(false) {
                continue;
            }
            for (j, (lo, hi)) in site.args.iter().enumerate() {
                if summary::callee_alloc_param(&graph, &summaries.per_fn, &site.callee, j)
                    && bt.span_tainted(*lo, *hi)
                {
                    extra[node.file].push(rules::Finding {
                        line: site.line,
                        rule: rules::Rule::Taint,
                        message: format!(
                            "untrusted value sizes an allocation inside callee `{}`",
                            site.callee
                        ),
                    });
                }
            }
        }
    }
    // Nested fn bodies are visited under their parents too: dedup.
    for per_file in &mut extra {
        per_file.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
        per_file.dedup_by(|a, b| a.line == b.line && a.message == b.message);
    }

    files
        .iter()
        .zip(extra)
        .map(|(f, extra)| rules::check_file_with(&f.src, f.ctx, &summaries.derived_sources, extra))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrusted_matching_covers_files_and_directories() {
        assert!(is_untrusted_module("crates/codecs/src/deflate/decode.rs"));
        assert!(is_untrusted_module("crates/codecs/src/lzr/mod.rs"));
        assert!(is_untrusted_module("crates/codecs/src/fpz/range.rs"));
        assert!(is_untrusted_module("crates/core/src/archive.rs"));
        // The serve wire decoder is an attacker-facing surface.
        assert!(is_untrusted_module("crates/serve/src/protocol.rs"));
        assert!(!is_untrusted_module("crates/codecs/src/deflate/encode.rs"));
        assert!(!is_untrusted_module("crates/codecs/src/checksum.rs"));
        assert!(!is_untrusted_module("crates/core/src/pipeline.rs"));
        assert!(!is_untrusted_module("crates/serve/src/server.rs"));
    }

    #[test]
    fn doc_requirement_covers_api_crates_only() {
        assert!(requires_docs("crates/core/src/pipeline.rs"));
        assert!(requires_docs("crates/codecs/src/fpz/mod.rs"));
        assert!(!requires_docs("crates/trace/src/json.rs"));
        assert!(!requires_docs("crates/lint/src/rules.rs"));
    }
}
