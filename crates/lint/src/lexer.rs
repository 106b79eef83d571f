//! A hand-rolled Rust lexer, just deep enough for rule scanning.
//!
//! Produces a flat token stream (identifiers, literals, delimiters,
//! single-char punctuation) with 1-based line numbers, and collects line
//! comments separately so the rule engine can parse `// lint: allow(...)`
//! directives. It is not a full Rust lexer — it only needs to never
//! mis-tokenize real code in ways that would make the rules fire inside
//! strings or comments, and to survive the tricky cases: raw strings with
//! `#` fences, nested block comments, byte/char literals, lifetimes, raw
//! identifiers, and numeric literals that sit next to `..` ranges.

/// One lexed token. Multi-character punctuation (`::`, `->`, `..`) is
/// emitted one char at a time; rules match short sequences instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword; raw identifiers arrive without the `r#`.
    Ident(String),
    /// A lifetime such as `'a` (the name is irrelevant to every rule).
    Lifetime,
    /// String, raw-string, byte-string, byte, or char literal.
    Str,
    /// Numeric literal, including suffixes (`0xFFu8`, `1.5e-3`). Carries
    /// the literal text so the bound-inference pass can evaluate constant
    /// array lengths and range offsets.
    Num(String),
    /// Opening delimiter: `(`, `[`, or `{`.
    Open(char),
    /// Closing delimiter: `)`, `]`, or `}`.
    Close(char),
    /// Any other single punctuation character.
    Punct(char),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A `//` comment (doc comments included), with its text after the slashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineComment {
    /// 1-based source line the comment sits on.
    pub line: u32,
    /// Comment body with the leading `//`, `///`, or `//!` stripped.
    pub text: String,
}

/// Full lexer output for one source file.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Every `//` comment, for directive parsing.
    pub comments: Vec<LineComment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Cursor {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) {
        while self.peek().is_some_and(&pred) {
            self.bump();
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Consume a (possibly escaped) quoted literal body after the opening quote.
fn eat_quoted(cur: &mut Cursor, quote: char) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            c if c == quote => break,
            _ => {}
        }
    }
}

/// Consume a raw-string body: `hashes` fence hashes were seen before the
/// opening quote, so the literal ends at `"` followed by that many `#`s.
fn eat_raw_string(cur: &mut Cursor, hashes: usize) {
    while let Some(c) = cur.bump() {
        if c == '"' {
            let mut seen = 0;
            while seen < hashes && cur.peek() == Some('#') {
                cur.bump();
                seen += 1;
            }
            if seen == hashes {
                break;
            }
        }
    }
}

/// Consume a block comment (Rust block comments nest).
fn eat_block_comment(cur: &mut Cursor) {
    let mut depth = 1usize;
    while depth > 0 {
        match cur.bump() {
            Some('/') if cur.peek() == Some('*') => {
                cur.bump();
                depth += 1;
            }
            Some('*') if cur.peek() == Some('/') => {
                cur.bump();
                depth -= 1;
            }
            Some(_) => {}
            None => break,
        }
    }
}

/// Consume a numeric literal. The first digit has already been bumped and
/// is passed as `first`. Handles hex/octal/binary prefixes, underscores,
/// type suffixes, and a fractional dot — but never swallows the `..` of a
/// range expression, the `+`/`-` after a hex digit `E` (`0xE+2` is an
/// addition, not an exponent), or the operator after a suffix that happens
/// to end in `e` (`1usize+2`).
fn eat_number(cur: &mut Cursor, first: char) {
    // A radix prefix (0x/0o/0b) rules out a decimal exponent entirely.
    let radix_prefixed =
        first == '0' && matches!(cur.peek(), Some('x') | Some('X') | Some('o') | Some('b'));
    let mut seen_dot = false;
    let mut prev = first;
    loop {
        match cur.peek() {
            Some(c) if c.is_alphanumeric() || c == '_' => {
                // An exponent sign is only valid in a decimal literal and
                // only when the `e`/`E` directly follows a digit (not a
                // type-suffix letter as in `1usize`).
                let was_exp = (c == 'e' || c == 'E') && !radix_prefixed && prev.is_ascii_digit();
                cur.bump();
                prev = c;
                if was_exp && matches!(cur.peek(), Some('+') | Some('-')) {
                    cur.bump();
                    prev = '+';
                }
            }
            Some('.') if !seen_dot => {
                // `1.5` continues the number; `1..n` does not.
                if cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                    seen_dot = true;
                    cur.bump();
                    prev = '.';
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
}

/// Lex `src` into tokens plus line comments.
pub fn lex(src: &str) -> LexOutput {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut out = LexOutput::default();

    // A shebang line (`#!/usr/bin/env ...`) is trivia, but `#![...]` at the
    // top of a file is an inner attribute and must reach the token stream.
    if cur.peek() == Some('#') && cur.peek_at(1) == Some('!') && cur.peek_at(2) != Some('[') {
        while cur.peek().is_some_and(|c| c != '\n') {
            cur.bump();
        }
    }

    while let Some(c) = cur.peek() {
        let line = cur.line;
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek_at(1) == Some('/') => {
                cur.bump();
                cur.bump();
                // Strip the doc-comment marker: `/// text` and `//! text`
                // both yield ` text`. Four-plus slashes (`////`) is a
                // plain ruler comment, not documentation.
                let doc = match (cur.peek(), cur.peek_at(1)) {
                    (Some('/'), next) => next != Some('/'),
                    (Some('!'), _) => true,
                    _ => false,
                };
                if doc {
                    cur.bump();
                }
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    if c == '\n' {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                out.comments.push(LineComment { line, text });
            }
            '/' if cur.peek_at(1) == Some('*') => {
                cur.bump();
                cur.bump();
                eat_block_comment(&mut cur);
            }
            '"' => {
                cur.bump();
                eat_quoted(&mut cur, '"');
                out.tokens.push(Token {
                    tok: Tok::Str,
                    line,
                });
            }
            '\'' => {
                cur.bump();
                // Lifetime vs char literal: `'a` followed by anything but a
                // closing quote is a lifetime; `'a'`, `'\n'`, `'('` are
                // char literals.
                let is_lifetime =
                    cur.peek().is_some_and(is_ident_start) && cur.peek_at(1) != Some('\'');
                if is_lifetime {
                    cur.eat_while(is_ident_continue);
                    out.tokens.push(Token {
                        tok: Tok::Lifetime,
                        line,
                    });
                } else {
                    eat_quoted(&mut cur, '\'');
                    out.tokens.push(Token {
                        tok: Tok::Str,
                        line,
                    });
                }
            }
            'r' | 'b' if starts_prefixed_literal(&cur) => {
                lex_prefixed_literal(&mut cur, &mut out, line);
            }
            c if is_ident_start(c) => {
                let start = cur.pos;
                cur.eat_while(is_ident_continue);
                let ident: String = cur.chars[start..cur.pos].iter().collect();
                out.tokens.push(Token {
                    tok: Tok::Ident(ident),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = cur.pos;
                cur.bump();
                eat_number(&mut cur, c);
                let text: String = cur.chars[start..cur.pos].iter().collect();
                out.tokens.push(Token {
                    tok: Tok::Num(text),
                    line,
                });
            }
            '(' | '[' | '{' => {
                cur.bump();
                out.tokens.push(Token {
                    tok: Tok::Open(c),
                    line,
                });
            }
            ')' | ']' | '}' => {
                cur.bump();
                out.tokens.push(Token {
                    tok: Tok::Close(c),
                    line,
                });
            }
            _ => {
                cur.bump();
                out.tokens.push(Token {
                    tok: Tok::Punct(c),
                    line,
                });
            }
        }
    }
    out
}

/// Does the cursor sit on `r"`, `r#"`, `r#ident`, `b"`, `b'`, `br"`, or
/// `br#"` — i.e. a prefixed literal or raw identifier rather than a plain
/// identifier that happens to start with `r` or `b`?
fn starts_prefixed_literal(cur: &Cursor) -> bool {
    let c0 = cur.peek();
    let c1 = cur.peek_at(1);
    match (c0, c1) {
        (Some('r'), Some('"')) | (Some('r'), Some('#')) => true,
        (Some('b'), Some('"')) | (Some('b'), Some('\'')) => true,
        (Some('b'), Some('r')) => matches!(cur.peek_at(2), Some('"') | Some('#')),
        _ => false,
    }
}

fn lex_prefixed_literal(cur: &mut Cursor, out: &mut LexOutput, line: u32) {
    let c0 = cur.peek();
    let c1 = cur.peek_at(1);
    match (c0, c1) {
        (Some('r'), Some('"')) => {
            cur.bump();
            cur.bump();
            eat_raw_string(cur, 0);
            out.tokens.push(Token {
                tok: Tok::Str,
                line,
            });
        }
        (Some('r'), Some('#')) => {
            // Either a raw string `r#"..."#` (any fence depth) or a raw
            // identifier `r#match`.
            let mut hashes = 0usize;
            while cur.peek_at(1 + hashes) == Some('#') {
                hashes += 1;
            }
            if cur.peek_at(1 + hashes) == Some('"') {
                cur.bump(); // r
                for _ in 0..hashes {
                    cur.bump();
                }
                cur.bump(); // "
                eat_raw_string(cur, hashes);
                out.tokens.push(Token {
                    tok: Tok::Str,
                    line,
                });
            } else {
                cur.bump(); // r
                cur.bump(); // #
                let start = cur.pos;
                cur.eat_while(is_ident_continue);
                let ident: String = cur.chars[start..cur.pos].iter().collect();
                out.tokens.push(Token {
                    tok: Tok::Ident(ident),
                    line,
                });
            }
        }
        (Some('b'), Some('"')) => {
            cur.bump();
            cur.bump();
            eat_quoted(cur, '"');
            out.tokens.push(Token {
                tok: Tok::Str,
                line,
            });
        }
        (Some('b'), Some('\'')) => {
            cur.bump();
            cur.bump();
            eat_quoted(cur, '\'');
            out.tokens.push(Token {
                tok: Tok::Str,
                line,
            });
        }
        (Some('b'), Some('r')) => {
            let mut hashes = 0usize;
            while cur.peek_at(2 + hashes) == Some('#') {
                hashes += 1;
            }
            cur.bump(); // b
            cur.bump(); // r
            for _ in 0..hashes {
                cur.bump();
            }
            cur.bump(); // "
            eat_raw_string(cur, hashes);
            out.tokens.push(Token {
                tok: Tok::Str,
                line,
            });
        }
        _ => {
            cur.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn basic_tokens_and_lines() {
        let out = lex("let x = 1;\nlet y = x;");
        assert_eq!(out.tokens[0].tok, Tok::Ident("let".into()));
        assert_eq!(out.tokens[0].line, 1);
        let second_let = out
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Ident("let".into()))
            .nth(1)
            .unwrap();
        assert_eq!(second_let.line, 2);
    }

    #[test]
    fn strings_hide_their_contents() {
        // The `unwrap(` inside the string must not surface as tokens.
        let out = lex(r#"let s = "call .unwrap() here";"#);
        assert!(idents(r#"let s = "call .unwrap() here";"#)
            .iter()
            .all(|i| i != "unwrap"));
        assert!(out.tokens.iter().any(|t| t.tok == Tok::Str));
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = "let s = r#\"quote \" and # inside\"#; let t = x.unwrap();";
        let ids = idents(src);
        assert!(ids.contains(&"unwrap".to_string()));
        // Exactly one Str token for the raw string.
        let strs = lex(src).tokens.iter().filter(|t| t.tok == Tok::Str).count();
        assert_eq!(strs, 1);
    }

    #[test]
    fn double_fence_raw_string() {
        let src = "r##\"has \"# inside\"##";
        let out = lex(src);
        assert_eq!(out.tokens.len(), 1);
        assert_eq!(out.tokens[0].tok, Tok::Str);
    }

    #[test]
    fn byte_strings_and_byte_literals() {
        let src = "let m = b\"FPZ1\"; let c = b'x'; let r = br#\"raw\"#;";
        let strs = lex(src).tokens.iter().filter(|t| t.tok == Tok::Str).count();
        assert_eq!(strs, 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'b' }";
        let out = lex(src);
        let lifetimes = out.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = out.tokens.iter().filter(|t| t.tok == Tok::Str).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
        // Escaped and punctuation char literals are chars, not lifetimes.
        let out = lex(r"let a = '\n'; let b = '('; let c = '\'';");
        assert_eq!(out.tokens.iter().filter(|t| t.tok == Tok::Str).count(), 3);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#match = 1;"), vec!["let", "match"]);
    }

    #[test]
    fn nested_generics_emit_single_angles() {
        let src = "fn f() -> Result<Vec<Option<u8>>> {}";
        let out = lex(src);
        let closes = out
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Punct('>'))
            .count();
        assert_eq!(closes, 4); // three generic closes + the arrow head
    }

    #[test]
    fn comments_are_trivia_but_collected() {
        let src = "// plain .unwrap() mention\nlet x = 1; // lint: allow(panic) -- why\n/* block\n.unwrap()\n*/\nlet y = 2;";
        let out = lex(src);
        assert!(!out
            .tokens
            .iter()
            .any(|t| t.tok == Tok::Ident("unwrap".into())));
        assert_eq!(out.comments.len(), 2);
        assert_eq!(out.comments[1].line, 2);
        assert!(out.comments[1].text.contains("lint: allow(panic)"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;";
        assert_eq!(idents(src), vec!["let", "x"]);
    }

    #[test]
    fn doc_comments_collected_with_marker_stripped() {
        let out = lex("/// summary line\n//! inner doc\n// plain\n//// ruler\nfn f() {}");
        assert_eq!(out.comments.len(), 4);
        assert_eq!(out.comments[0].text, " summary line");
        assert_eq!(out.comments[1].text, " inner doc");
        assert_eq!(out.comments[2].text, " plain");
        // Four or more slashes is a ruler, not documentation: the third
        // slash stays in the text.
        assert_eq!(out.comments[3].text, "// ruler");
    }

    #[test]
    fn shebang_is_trivia_but_inner_attrs_are_not() {
        let out = lex("#!/usr/bin/env run-cargo-script\nfn f() {}");
        assert_eq!(
            out.tokens.first().map(|t| t.tok.clone()),
            Some(Tok::Ident("fn".into()))
        );
        assert_eq!(out.tokens[0].line, 2);
        // `#![...]` at file start is an inner attribute, not a shebang.
        let attr = lex("#![deny(missing_docs)]\nfn f() {}");
        assert_eq!(attr.tokens[0].tok, Tok::Punct('#'));
        assert_eq!(attr.tokens[1].tok, Tok::Punct('!'));
    }

    #[test]
    fn hex_digits_and_suffixes_do_not_swallow_operators() {
        // `0xE+2` is `0xE + 2`, never a malformed exponent.
        let out = lex("let x = 0xE+2;");
        let nums = out
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Num(_)))
            .count();
        assert_eq!(nums, 2);
        assert!(out.tokens.iter().any(|t| t.tok == Tok::Punct('+')));
        // A type suffix ending in `e` is not an exponent either.
        let out = lex("let y = 1usize+2;");
        let nums = out
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Num(_)))
            .count();
        assert_eq!(nums, 2);
        assert!(out.tokens.iter().any(|t| t.tok == Tok::Punct('+')));
        // Real exponents still lex as one number.
        let out = lex("let z = 1.5e-3 + 2E+6;");
        let nums = out
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Num(_)))
            .count();
        assert_eq!(nums, 2);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let src = "for i in 0..10 { a[i]; } let f = 1.5e-3; let h = 0xFFu8;";
        let out = lex(src);
        let nums = out
            .tokens
            .iter()
            .filter(|t| matches!(t.tok, Tok::Num(_)))
            .count();
        assert_eq!(nums, 4); // 0, 10, 1.5e-3, 0xFFu8
                             // The range dots survive as punctuation.
        let dots = out
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Punct('.'))
            .count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn idents_starting_with_r_or_b_are_not_literals() {
        assert_eq!(
            idents("let range = 1; let bytes = 2; let b = 3; let r = 4;"),
            vec!["let", "range", "let", "bytes", "let", "b", "let", "r"]
        );
    }
}
