//! Bracket matching and function-body spans over the lexed token stream.
//!
//! This is not a Rust grammar: it recovers just enough structure for the
//! flow-aware rules — the token span of every function body, so the taint
//! pass can walk let-bindings and expressions intraprocedurally. Anything
//! it does not understand it skips token by token, so unknown syntax
//! degrades to "no structure here" rather than a parse failure.

use crate::lexer::{Tok, Token};

/// Index of the close delimiter matching the open delimiter at `open_idx`.
/// Returns `None` when the stream ends first.
pub(crate) fn matching_close(tokens: &[Token], open_idx: usize, open: char) -> Option<usize> {
    let close = match open {
        '(' => ')',
        '[' => ']',
        '{' => '}',
        _ => return None,
    };
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        match t.tok {
            Tok::Open(c) if c == open => depth += 1,
            Tok::Close(c) if c == close => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// From `i`, scan for the item's `{` body or a terminating `;`. Returns
/// the body span (if any) and the index just past the item.
fn seek_body_or_semi(tokens: &[Token], i: usize, end: usize) -> (Option<(usize, usize)>, usize) {
    for j in i..end {
        match tokens[j].tok {
            Tok::Open('{') => {
                let close = matching_close(tokens, j, '{').unwrap_or(end.saturating_sub(1));
                return (Some((j, close)), close + 1);
            }
            Tok::Punct(';') => return (None, j + 1),
            _ => {}
        }
    }
    (None, end)
}

/// Token spans of every `fn` body in the stream, including methods and
/// nested functions — the units the taint pass analyzes. Spans of nested
/// functions also appear inside their parent's span; callers dedup any
/// doubled findings.
pub fn fn_body_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let is_fn = matches!(&tokens[i].tok, Tok::Ident(w) if w == "fn");
        // `fn` as a function-pointer type (after `:` or `<`) has no body;
        // the seek below then stops at the statement's `;` harmlessly.
        if !is_fn {
            i += 1;
            continue;
        }
        let (body, next) = seek_body_or_semi(tokens, i + 1, tokens.len());
        if let Some(span) = body {
            spans.push(span);
        }
        // Re-scan from just inside the body so nested fns are found too.
        i = body.map(|(o, _)| o + 1).unwrap_or(next);
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_bodies_cover_methods_and_nested_fns() {
        let src = "fn outer() {\n    fn inner() { let x = 1; }\n}\n\
                   impl S { fn m(&self) { } }";
        let tokens = lex(src).tokens;
        let spans = fn_body_spans(&tokens);
        assert_eq!(spans.len(), 3);
        // The outer span contains the inner one.
        assert!(spans[0].0 < spans[1].0 && spans[1].1 <= spans[0].1);
    }
}
