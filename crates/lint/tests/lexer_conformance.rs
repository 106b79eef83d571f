//! Lexer conformance: the tricky shapes of real Rust source that a
//! token-stream linter must survive without mis-tokenizing. Each case here
//! is an edge that once (or plausibly could have) produced phantom findings:
//! rule keywords hidden in literals, fences, shebangs, and shift operators.

use primacy_lint::lexer::{lex, Tok};

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .tokens
        .into_iter()
        .filter_map(|t| match t.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        })
        .collect()
}

#[test]
fn raw_string_hash_runs_of_every_depth() {
    // Fences of 0..=3 hashes, each hiding a `"`+fewer-hashes sequence that
    // would terminate a shallower scan, plus rule bait inside the literal.
    let src = concat!(
        "let a = r\"plain .unwrap() bait\";\n",
        "let b = r#\"one \" fence .unwrap()\"#;\n",
        "let c = r##\"two \"# fence\"##;\n",
        "let d = r###\"three \"## fence\"###;\n",
        "let tail = marker;\n",
    );
    let out = lex(src);
    let strs = out.tokens.iter().filter(|t| t.tok == Tok::Str).count();
    assert_eq!(strs, 4, "each raw string is exactly one token");
    let ids = idents(src);
    assert!(
        !ids.contains(&"unwrap".to_string()),
        "literal bodies are opaque"
    );
    assert!(
        ids.contains(&"marker".to_string()),
        "lexing resumes after the fences"
    );
}

#[test]
fn raw_byte_strings_and_raw_identifiers_disambiguate() {
    let src = "let x = br##\"byte \"# raw\"##; let r#fn = r#type; call();";
    let ids = idents(src);
    // `r#fn` and `r#type` arrive unprefixed; the literal body stays hidden.
    assert!(ids.contains(&"fn".to_string()));
    assert!(ids.contains(&"type".to_string()));
    assert!(ids.contains(&"call".to_string()));
    assert!(!ids.contains(&"raw".to_string()));
}

#[test]
fn shebang_skipped_but_inner_attribute_kept() {
    let out = lex("#!/usr/bin/env rust-script\n//! doc\nfn main() {}");
    assert_eq!(
        out.tokens.first().map(|t| t.tok.clone()),
        Some(Tok::Ident("fn".into())),
        "the shebang line contributes no tokens"
    );
    assert_eq!(out.comments.len(), 1);
    assert_eq!(out.comments[0].text, " doc");

    // `#![...]` on line one is an attribute, not a shebang.
    let attr = lex("#![no_std]\nfn main() {}");
    assert_eq!(attr.tokens[0].tok, Tok::Punct('#'));
    assert!(idents("#![no_std]\nfn main() {}").contains(&"no_std".to_string()));
}

#[test]
fn shift_operators_split_into_single_angles() {
    // `>>` must arrive as two `>` puncts (so `Vec<Vec<u8>>` parses), and a
    // rule that wants the shift operator reassembles adjacency itself.
    let out = lex("let x: Vec<Vec<u8>> = v; let y = a >> b; let z = a >>= 1;");
    let gts: Vec<u32> = out
        .tokens
        .iter()
        .filter(|t| t.tok == Tok::Punct('>'))
        .map(|t| t.line)
        .collect();
    assert_eq!(gts.len(), 6, "2 generic closes + 2 for >> + 2 for >>=");
    assert!(!out.tokens.iter().any(|t| matches!(
        &t.tok,
        Tok::Ident(s) if s == ">>"
    )));
}

#[test]
fn numeric_edges_do_not_swallow_operators() {
    for (src, want_nums) in [
        ("let a = 0xE+2;", 2),    // hex digit E is not an exponent
        ("let b = 1usize+2;", 2), // suffix ending in `e` is not an exponent
        ("let c = 1.5e-3;", 1),   // real exponent stays one token
        ("let d = 2E+6;", 1),
        ("let e = 0b1010+1;", 2), // radix prefixes rule out exponents
        ("for i in 0..10 {}", 2), // range dots survive
    ] {
        let out = lex(src);
        let nums = out
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Num(_)))
            .count();
        assert_eq!(nums, want_nums, "{src}");
    }
}

#[test]
fn comment_markers_and_directive_text_round_trip() {
    let src = "/// outer\n//! inner\n// lint: allow(overflow) -- reason\n//// ruler\n/* /* nested */ block */ fn f() {}";
    let out = lex(src);
    assert_eq!(
        out.comments.len(),
        4,
        "block comments are not line comments"
    );
    assert_eq!(out.comments[0].text, " outer");
    assert_eq!(out.comments[1].text, " inner");
    assert!(out.comments[2].text.contains("lint: allow(overflow)"));
    assert_eq!(out.comments[3].text, "// ruler");
    assert!(idents(src).contains(&"f".to_string()));
}

#[test]
fn line_numbers_survive_multiline_literals() {
    let src = "let a = r#\"line one\nline two\nline three\"#;\nlet b = 1;";
    let out = lex(src);
    let b_let = out
        .tokens
        .iter()
        .filter(|t| t.tok == Tok::Ident("let".into()))
        .nth(1)
        .unwrap();
    assert_eq!(b_let.line, 4, "lines inside the raw string still count");
}
