//! The workspace's one JSON codec: a minimal hand-rolled emitter, a
//! recursive-descent parser, and [`Report`], the writer behind every
//! `PRIMACY_BENCH_JSON` document.
//!
//! The workspace's zero-external-dependency policy (DESIGN.md) rules out
//! `serde`/`serde_json`. Its JSON users (bench reports, the model's
//! calibration loader, the CLI's `--trace` JSON line and the lint baseline)
//! only ever need small documents of strings and finite numbers, so this
//! small subset is deliberate: no comments, no trailing commas, numbers are
//! `f64` (integer precision above 2⁵³ is not preserved), and non-finite
//! floats serialize as `null` (JSON has no NaN/Infinity).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// A parsed or to-be-emitted JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also the emitted form of NaN/±Inf numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string (unescaped form).
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap) so emission is deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn object<I, K>(pairs: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field accessor.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(x) => write_number(*x, out),
            Value::String(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Number(x)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Value {
        Value::Number(x as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}

fn write_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Integral values print without an exponent or trailing `.0` so the
        // output looks like ordinary JSON integers.
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's shortest-roundtrip Display for f64 is valid JSON syntax.
        let _ = write!(out, "{x}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Machine-readable results of one bench or smoke binary.
///
/// A binary records its headline numbers here next to the human-readable
/// table it prints; when the `PRIMACY_BENCH_JSON` environment variable is
/// set, [`Report::finish`] writes the collected records to that path (or to
/// stdout for `-`) as one `{"experiment": ..., "records": [...]}` document.
#[derive(Debug)]
pub struct Report {
    experiment: String,
    records: Vec<Value>,
}

impl Report {
    /// Start a report for the named experiment (conventionally the binary
    /// name, e.g. `table3_compression`).
    pub fn new(experiment: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            records: Vec::new(),
        }
    }

    /// Record one scalar metric as `{"key": ..., "value": ...}`.
    pub fn push(&mut self, key: impl Into<String>, value: f64) {
        self.push_record(Value::object([
            ("key", Value::from(key.into())),
            ("value", Value::from(value)),
        ]));
    }

    /// Record an arbitrary record object.
    pub fn push_record(&mut self, record: Value) {
        self.records.push(record);
    }

    /// Record a per-stage timing breakdown: one `{prefix}/stage/{name}`
    /// record per `(name, time)` pair (seconds), in the order given, plus
    /// their sum as `{prefix}/stage_total_s`. Pipeline callers pass
    /// `StageTimings::by_stage()`.
    pub fn push_stages<'a>(
        &mut self,
        prefix: &str,
        stages: impl IntoIterator<Item = (&'a str, Duration)>,
    ) {
        let mut total = Duration::ZERO;
        for (stage, d) in stages {
            total += d;
            self.push(format!("{prefix}/stage/{stage}"), d.as_secs_f64());
        }
        self.push(format!("{prefix}/stage_total_s"), total.as_secs_f64());
    }

    /// The full report as a JSON value.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("experiment", Value::from(self.experiment.as_str())),
            ("records", Value::Array(self.records.clone())),
        ])
    }

    /// Emit the report if `PRIMACY_BENCH_JSON` requests it. Call last in
    /// `main`; panics on an unwritable path so CI fails loudly.
    pub fn finish(self) {
        let Ok(dest) = std::env::var("PRIMACY_BENCH_JSON") else {
            return;
        };
        let text = self.to_value().to_json();
        if dest == "-" {
            println!("{text}");
        } else {
            std::fs::write(&dest, text)
                // lint: allow(panic) -- documented contract: CI must fail loudly on an unwritable report path
                .unwrap_or_else(|e| panic!("writing bench JSON to {dest}: {e}"));
        }
    }
}

/// Parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was wrong.
    pub message: &'static str,
    /// Byte offset where it was detected.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            message,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: \uD800-\uDBFF must be followed
                            // by a \uDC00-\uDFFF low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect_byte(b'\\', "expected low surrogate")?;
                                self.expect_byte(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Consume exactly 4 hex digits and return the code unit.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("invalid \\u escape"));
        }
        let cp = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        // The scanned span is ASCII digits/signs only; a non-UTF-8 span is
        // impossible, and an empty fallback fails the parse below instead.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("number out of range"))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_compact_documents() {
        let doc = Value::object([
            ("name", Value::from("gts_phi_l")),
            ("cr", Value::from(1.5)),
            ("chunks", Value::from(12usize)),
            ("ok", Value::Bool(true)),
            ("bad", Value::Number(f64::NAN)),
        ]);
        assert_eq!(
            doc.to_json(),
            r#"{"bad":null,"chunks":12,"cr":1.5,"name":"gts_phi_l","ok":true}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let s = Value::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_json(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "x"}], "c": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c"), Some(&Value::Object(BTreeMap::new())));
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        assert_eq!(
            parse(r#""a\n\t\"\\é""#).unwrap(),
            Value::String("a\n\t\"\\é".into())
        );
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("😀".into()));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::String("😀".into())
        );
        assert_eq!(
            parse("\"\\u0041\\u00e9\"").unwrap(),
            Value::String("Aé".into())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"abc",
            "[1] x",
            "01x",
            r#""\ud83d""#,
            "nul",
            "+1",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn roundtrips_through_emit_and_parse() {
        // A value whose shortest decimal form needs all 17 digits.
        let awkward = 0.1f64 + 0.2;
        let doc = Value::object([
            ("experiment", Value::from("table3")),
            (
                "records",
                Value::Array(vec![
                    Value::object([
                        ("key", Value::from("gts_phi_l/zlib_cr")),
                        ("paper", Value::from(1.35)),
                        ("measured", Value::from(awkward)),
                    ]),
                    Value::object([("key", Value::from("empty")), ("paper", Value::Null)]),
                ]),
            ),
        ]);
        let text = doc.to_json();
        assert_eq!(parse(&text).unwrap(), doc);
        // And float precision survives exactly.
        let back = parse(&text).unwrap();
        let m = back.get("records").unwrap().as_array().unwrap()[0]
            .get("measured")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(m.to_bits(), awkward.to_bits());
    }
}
