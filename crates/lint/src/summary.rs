//! Per-function summaries and the interprocedural fixed point.
//!
//! For every function in the [`crate::callgraph::CallGraph`] this pass
//! computes:
//!
//! - **`taints_return`** — the function's return value carries untrusted
//!   data: some `return` expression or the body's tail expression is
//!   tainted under the intraprocedural engine. Functions whose return is
//!   tainted become *derived sources*: their names join
//!   [`crate::taint::SOURCES`] on the next round, so taint flows through
//!   helpers (a varint wrapper taints its callers' bindings).
//! - **`alloc_params`** — parameter indices that, when tainted, size an
//!   allocation inside the function or transitively inside a callee.
//!   Call sites passing tainted arguments to such parameters are
//!   interprocedural allocation findings.
//!
//! Name collisions (two `fn decode` in different modules) are merged with
//! AND — a name only becomes a derived source or an alloc sink if *every*
//! function with that name has the property, so an unrelated same-name
//! function cannot manufacture findings.
//!
//! The fixed point iterates until summaries stop changing (all facts grow
//! monotonically; a round cap guards against pathological inputs).

use crate::callgraph::{call_sites, CallGraph, CallSite};
use crate::lexer::{Tok, Token};
use crate::taint::{body_taint, statement_end};

/// What one function does with untrusted data.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FnSummary {
    /// The return value is tainted by a source read.
    pub taints_return: bool,
    /// Parameters that size an allocation (directly or via a callee).
    pub alloc_params: Vec<usize>,
}

/// Summaries for every graph node plus the merged derived-source names.
#[derive(Debug, Default)]
pub struct Summaries {
    /// Parallel to `graph.fns`.
    pub per_fn: Vec<FnSummary>,
    /// Function names whose return is tainted in every same-name
    /// definition: the extra source set for the final lint pass.
    pub derived_sources: Vec<String>,
}

/// Per-parameter analysis cap: functions with more parameters than this
/// get summaries for the first few only (none in this workspace exceed
/// it on hot decode paths).
const MAX_PARAMS: usize = 6;

/// Fixed-point round cap.
const MAX_ROUNDS: usize = 10;

/// Compute summaries for every function in the graph. `files[i]` must be
/// the token stream of the file [`crate::callgraph::FnNode::file`]
/// indexes.
pub fn summarize(graph: &CallGraph, files: &[&[Token]]) -> Summaries {
    let sites: Vec<Vec<CallSite>> = graph
        .fns
        .iter()
        .map(|f| call_sites(files[f.file], f.body.0, f.body.1))
        .collect();

    let mut per_fn = vec![FnSummary::default(); graph.fns.len()];

    for _ in 0..MAX_ROUNDS {
        let derived = merged_sources(graph, &per_fn);
        let mut changed = false;

        for (i, f) in graph.fns.iter().enumerate() {
            let tokens = files[f.file];
            // Return taint under the current derived source set.
            if f.has_return && !per_fn[i].taints_return {
                let bt = body_taint(tokens, f.body.0, f.body.1 + 1, &derived, &[]);
                if return_spans(tokens, f.body.0, f.body.1)
                    .into_iter()
                    .any(|(lo, hi)| bt.span_tainted(lo, hi))
                {
                    per_fn[i].taints_return = true;
                    changed = true;
                }
            }
            // Per-parameter allocation reachability.
            for (p, pname) in f.params.iter().enumerate().take(MAX_PARAMS) {
                if pname == "_" || per_fn[i].alloc_params.contains(&p) {
                    continue;
                }
                let pre = [pname.clone()];
                let bt = body_taint(tokens, f.body.0, f.body.1 + 1, &derived, &pre);
                let hits = bt.allocates_tainted()
                    || sites[i].iter().any(|site| {
                        site.args.iter().enumerate().any(|(j, (lo, hi))| {
                            bt.span_tainted(*lo, *hi)
                                && callee_alloc_param(graph, &per_fn, &site.callee, j)
                        })
                    });
                if hits {
                    per_fn[i].alloc_params.push(p);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let derived_sources = merged_sources(graph, &per_fn);
    Summaries {
        per_fn,
        derived_sources,
    }
}

/// Does every definition of `name` treat parameter `param` as an
/// allocation size? Unresolved names never do.
pub fn callee_alloc_param(
    graph: &CallGraph,
    per_fn: &[FnSummary],
    name: &str,
    param: usize,
) -> bool {
    let targets = graph.resolve(name);
    !targets.is_empty()
        && targets
            .iter()
            .all(|&t| per_fn[t].alloc_params.contains(&param))
}

/// Names where *every* same-name definition taints its return.
fn merged_sources(graph: &CallGraph, per_fn: &[FnSummary]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !per_fn[i].taints_return || names.contains(&f.name) {
            continue;
        }
        let all = graph
            .resolve(&f.name)
            .iter()
            .all(|&t| per_fn[t].taints_return);
        if all {
            names.push(f.name.clone());
        }
    }
    names.sort();
    names
}

/// Token spans of every `return <expr>` plus the body's tail expression
/// (after the last depth-0 `;`), i.e. everything that flows to the
/// function's return value.
fn return_spans(tokens: &[Token], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut depth = 0usize;
    let mut last_semi = lo;
    for k in lo + 1..hi {
        match &tokens[k].tok {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => depth = depth.saturating_sub(1),
            Tok::Punct(';') if depth == 0 => last_semi = k,
            Tok::Ident(w) if w == "return" => {
                let end = statement_end(tokens, k + 1, hi);
                if end > k + 1 {
                    spans.push((k + 1, end - 1));
                }
            }
            _ => {}
        }
    }
    if last_semi + 1 < hi {
        spans.push((last_semi + 1, hi - 1));
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn setup(srcs: &[&str]) -> (CallGraph, Summaries) {
        let lexed: Vec<_> = srcs.iter().map(|s| lex(s)).collect();
        let tokens: Vec<&[Token]> = lexed.iter().map(|l| &l.tokens[..]).collect();
        let graph = CallGraph::build(&tokens);
        let summaries = summarize(&graph, &tokens);
        (graph, summaries)
    }

    fn by_name<'a>(graph: &CallGraph, s: &'a Summaries, name: &str) -> &'a FnSummary {
        let idx = graph.resolve(name)[0];
        &s.per_fn[idx]
    }

    #[test]
    fn source_wrappers_become_derived_sources_transitively() {
        // read_count wraps a primitive source; header_len wraps the
        // wrapper — two hops, both must end up derived.
        let (graph, s) = setup(&[
            "fn read_count(r: &mut Reader) -> usize { r.varint() as usize }\n\
              fn header_len(r: &mut Reader) -> usize { let n = read_count(r); n }\n\
              fn version(r: &mut Reader) -> u8 { 1 }",
        ]);
        assert!(by_name(&graph, &s, "read_count").taints_return);
        assert!(by_name(&graph, &s, "header_len").taints_return);
        assert!(!by_name(&graph, &s, "version").taints_return);
        assert_eq!(s.derived_sources, vec!["header_len", "read_count"]);
    }

    #[test]
    fn sanitized_wrapper_is_not_a_source() {
        let (graph, s) = setup(&[
            "fn capped(r: &mut Reader) -> usize { (r.varint() as usize).min(MAX_ELEMENTS) }",
        ]);
        assert!(!by_name(&graph, &s, "capped").taints_return);
        assert!(s.derived_sources.is_empty());
    }

    #[test]
    fn explicit_return_statements_count() {
        let (graph, s) = setup(&["fn f(r: &mut Reader) -> usize {\n\
              if ready { return r.varint() as usize; }\n\
              0\n}"]);
        assert!(by_name(&graph, &s, "f").taints_return);
    }

    #[test]
    fn alloc_params_found_directly_and_through_callees() {
        let (graph, s) = setup(&["fn make(n: usize, tag: u8) -> Vec<u8> { vec![tag; n] }\n\
              fn build(count: usize) -> Vec<u8> { make(count, 0) }\n\
              fn label(tag: u8) -> u8 { tag }"]);
        assert_eq!(by_name(&graph, &s, "make").alloc_params, vec![0]);
        // `count` flows into make's alloc param — one hop.
        assert_eq!(by_name(&graph, &s, "build").alloc_params, vec![0]);
        assert!(by_name(&graph, &s, "label").alloc_params.is_empty());
    }

    #[test]
    fn name_collisions_merge_with_and() {
        // Two `helper`s: only one taints its return, so the name is NOT
        // a derived source and callers stay clean.
        let (_, s) = setup(&[
            "fn helper(r: &mut Reader) -> usize { r.varint() as usize }",
            "fn helper(x: usize) -> usize { x.min(MAX_LEN) }\n\
             fn caller(r: &mut Reader) -> usize { let n = helper(4); n }",
        ]);
        assert!(s.derived_sources.is_empty());
    }

    #[test]
    fn cross_file_graph_links_params_to_sources() {
        // File A defines the wrapper; file B passes its result to an
        // allocator defined back in file A.
        let (graph, s) = setup(&[
            "pub fn read_len(r: &mut Reader) -> usize { r.varint() as usize }\n\
             pub fn alloc_table(n: usize) -> Vec<u32> { Vec::with_capacity(n) }",
            "pub fn load(r: &mut Reader) -> Vec<u32> {\n\
             let n = read_len(r);\n\
             alloc_table(n)\n}",
        ]);
        assert!(by_name(&graph, &s, "read_len").taints_return);
        assert_eq!(by_name(&graph, &s, "alloc_table").alloc_params, vec![0]);
        assert!(callee_alloc_param(&graph, &s.per_fn, "alloc_table", 0));
        // And load's own return (the Vec) is not tainted data.
        assert!(s.derived_sources.contains(&"read_len".to_string()));
    }
}
