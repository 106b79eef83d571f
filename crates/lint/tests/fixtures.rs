//! Fixture-corpus conformance: every rule has a firing fixture and a clean
//! fixture under `tests/fixtures/`, and the diagnostics are pinned down to
//! exact `(file, line, rule)` tuples. A change to a rule that shifts any
//! diagnostic must update this table deliberately.
//!
//! The `xtaint_*` pair exercises the interprocedural pass end to end: the
//! producer file defines the source wrappers and the allocating helper,
//! the consumer file triggers the cross-function finding two hops from
//! the primitive read.

use primacy_lint::callgraph::{call_sites, CallGraph};
use primacy_lint::lexer::{lex, Token};
use primacy_lint::rules::{check_file, FileContext, FileReport};
use primacy_lint::{analyze_workspace, SourceFile};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Run one fixture and return its diagnostics as `(line, rule-name)`.
fn diagnostics(name: &str, ctx: FileContext) -> Vec<(u32, &'static str)> {
    let report = check_file(&fixture(name), ctx);
    assert_eq!(
        report.allow_count, 0,
        "{name}: fixtures must not carry allow directives"
    );
    let mut out: Vec<(u32, &'static str)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.rule.name()))
        .collect();
    out.sort();
    out
}

const TRUSTED: FileContext = FileContext {
    untrusted: false,
    binary: false,
};
const UNTRUSTED: FileContext = FileContext {
    untrusted: true,
    binary: false,
};
// Binary context: the library-hygiene rules are off, so the concurrency
// fixtures pin concurrency-discipline diagnostics alone.
const BIN: FileContext = FileContext {
    untrusted: false,
    binary: true,
};

#[test]
fn taint_fixture_fires_at_exact_sites() {
    assert_eq!(
        diagnostics("taint_fire.rs", TRUSTED),
        vec![(6, "taint"), (7, "taint"), (8, "taint")]
    );
}

#[test]
fn taint_fixture_clean_when_sanitized() {
    assert_eq!(diagnostics("taint_clean.rs", TRUSTED), vec![]);
}

#[test]
fn overflow_fixture_fires_at_exact_sites() {
    assert_eq!(
        diagnostics("overflow_fire.rs", UNTRUSTED),
        vec![(5, "overflow"), (6, "overflow"), (7, "overflow")]
    );
}

#[test]
fn overflow_fixture_clean_with_checked_forms() {
    assert_eq!(diagnostics("overflow_clean.rs", UNTRUSTED), vec![]);
}

#[test]
fn safety_fixture_fires_without_comment() {
    assert_eq!(
        diagnostics("safety_fire.rs", TRUSTED),
        vec![(5, "safety-comment")]
    );
}

#[test]
fn safety_fixture_clean_with_comment() {
    assert_eq!(diagnostics("safety_clean.rs", TRUSTED), vec![]);
}

#[test]
fn unsafe_fixture_fires_at_exact_sites() {
    assert_eq!(
        diagnostics("unsafe_fire.rs", TRUSTED),
        vec![(5, "unsafe-boundary"), (12, "unsafe-boundary")]
    );
}

#[test]
fn unsafe_fixture_clean_with_detection_and_fallback() {
    assert_eq!(diagnostics("unsafe_clean.rs", TRUSTED), vec![]);
}

#[test]
fn concurrency_fixture_fires_at_exact_sites() {
    assert_eq!(
        diagnostics("concurrency_fire.rs", BIN),
        vec![
            (6, "concurrency-discipline"),
            (7, "concurrency-discipline"),
            (9, "concurrency-discipline"),
            (9, "concurrency-discipline"),
        ]
    );
}

#[test]
fn concurrency_fixture_clean_with_discipline() {
    assert_eq!(diagnostics("concurrency_clean.rs", BIN), vec![]);
}

/// Findings of a workspace-analyzed report as `(line, rule-name)`.
fn report_pairs(report: &FileReport) -> Vec<(u32, &'static str)> {
    let mut out: Vec<(u32, &'static str)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.rule.name()))
        .collect();
    out.sort();
    out
}

#[test]
fn cross_function_taint_fires_two_hops_from_the_read() {
    let files = [
        SourceFile {
            rel: "crates/x/src/reader.rs".to_string(),
            src: fixture("xtaint_reader.rs"),
            ctx: TRUSTED,
        },
        SourceFile {
            rel: "crates/x/src/driver.rs".to_string(),
            src: fixture("xtaint_driver.rs"),
            ctx: TRUSTED,
        },
    ];
    let reports = analyze_workspace(&files);
    // Producer file: wrappers and the allocator itself stay clean.
    assert_eq!(report_pairs(&reports[0]), vec![]);
    // Consumer file: `table_for(n)` with the two-hop tainted length fires;
    // the `.min(MAX_FRAME)`-capped call does not.
    assert_eq!(report_pairs(&reports[1]), vec![(8, "taint")]);
    assert!(
        reports[1].findings[0].message.contains("table_for"),
        "finding must name the allocating callee: {}",
        reports[1].findings[0].message
    );
}

#[test]
fn call_graph_links_the_multi_file_fixture() {
    let reader = fixture("xtaint_reader.rs");
    let driver = fixture("xtaint_driver.rs");
    let lexed = [lex(&reader), lex(&driver)];
    let tokens: Vec<&[Token]> = lexed.iter().map(|l| &l.tokens[..]).collect();
    let graph = CallGraph::build(&tokens);

    let names: Vec<(&str, usize)> = graph
        .fns
        .iter()
        .map(|f| (f.name.as_str(), f.file))
        .collect();
    assert_eq!(
        names,
        vec![
            ("frame_len", 0),
            ("header_len", 0),
            ("table_for", 0),
            ("load", 1),
            ("load_capped", 1),
        ]
    );

    // `load` in the driver file calls into the reader file, one argument
    // per site, and every callee resolves across the file boundary.
    let load = graph
        .fns
        .iter()
        .find(|f| f.name == "load")
        .expect("load in graph");
    let sites = call_sites(tokens[1], load.body.0, load.body.1);
    let callees: Vec<&str> = sites.iter().map(|s| s.callee.as_str()).collect();
    assert_eq!(callees, vec!["header_len", "table_for"]);
    for site in &sites {
        assert_eq!(site.args.len(), 1);
        let targets = graph.resolve(&site.callee);
        assert!(!targets.is_empty(), "{} unresolved", site.callee);
        assert!(targets.iter().all(|&i| graph.fns[i].file == 0));
    }
}

#[test]
fn firing_fixtures_are_suppressible() {
    // The directive machinery must cover the new rules: a whole-file allow
    // silences each firing fixture and is accounted as suppression.
    for (file, ctx, rule) in [
        ("taint_fire.rs", TRUSTED, "taint"),
        ("overflow_fire.rs", UNTRUSTED, "overflow"),
        ("safety_fire.rs", TRUSTED, "safety-comment"),
        ("unsafe_fire.rs", TRUSTED, "unsafe-boundary"),
        ("concurrency_fire.rs", BIN, "concurrency-discipline"),
    ] {
        let src = format!(
            "// lint: allow-file({rule}) -- fixture test\n{}",
            fixture(file)
        );
        let report = check_file(&src, ctx);
        assert!(report.findings.is_empty(), "{file}: {:?}", report.findings);
        let suppressed: usize = report
            .suppressed
            .iter()
            .filter(|(name, _)| *name == rule)
            .map(|(_, n)| *n)
            .sum();
        assert!(suppressed > 0, "{file}: nothing suppressed");
    }
}
