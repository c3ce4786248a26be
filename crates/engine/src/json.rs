//! A minimal JSON tree, writer and parser.
//!
//! The workspace vendors no serde, so the pieces that need structured
//! interchange — the on-disk result cache, the `bist` CLI's
//! `--format json` output, the bench harness reports — share this small
//! dependency-free implementation. It is deliberately modest: a [`Json`]
//! tree, a deterministic renderer (object keys keep insertion order, so
//! equal trees render byte-identically), and a strict parser for the
//! full JSON grammar minus exotic number forms.
//!
//! Exactness convention: `f64` values that must round-trip *bit-exactly*
//! (cached results) are stored as 16-hex-digit bit strings via
//! [`Json::f64_bits`] / [`Json::as_f64_bits`]; plain [`Json::Float`] is
//! for human-facing output where shortest-round-trip decimal rendering
//! is the point.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction/exponent).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved (and rendered).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object value under construction.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends `key: value` to an object (panics on non-objects — a
    /// builder misuse, not a data error).
    pub fn push(&mut self, key: impl Into<String>, value: Json) -> &mut Json {
        match self {
            Json::Object(pairs) => pairs.push((key.into(), value)),
            _ => panic!("Json::push on a non-object"),
        }
        self
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value from any unsigned counter.
    ///
    /// # Panics
    ///
    /// Panics if `v` exceeds `i64::MAX` (no workspace counter does).
    pub fn uint(v: usize) -> Json {
        Json::Int(i64::try_from(v).expect("counter fits i64"))
    }

    /// A bit-exact `f64`: 16 lowercase hex digits of [`f64::to_bits`].
    pub fn f64_bits(v: f64) -> Json {
        Json::Str(format!("{:016x}", v.to_bits()))
    }

    /// Reads a value written by [`Json::f64_bits`].
    pub fn as_f64_bits(&self) -> Option<f64> {
        let s = self.as_str()?;
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(f64::from_bits)
    }

    /// The value under `key`, for objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The integer payload as a non-negative count.
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_i64()?).ok()
    }

    /// The numeric payload (integers widen losslessly up to 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the tree as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the tree as indented multi-line JSON (2-space indent,
    /// trailing newline).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // shortest round-trip decimal; ".0" keeps integral
                    // floats typed as floats on re-parse
                    let text = format!("{v}");
                    let decimal = text.contains(['.', 'e', 'E']);
                    out.push_str(&text);
                    if !decimal {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    write_escaped(out, &pairs[i].0);
                    out.push_str(": ");
                    pairs[i].1.write(out, indent, depth + 1);
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        match indent {
            Some(w) => {
                out.push('\n');
                out.push_str(&" ".repeat(w * (depth + 1)));
            }
            None => {
                if i > 0 {
                    out.push(' ');
                }
            }
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the defect.
    pub offset: usize,
    /// What was expected / found.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest container nesting [`parse`] accepts. Parsing recurses per
/// level, so without a bound a hostile document (a corrupted cache
/// entry is untrusted input) could overflow the stack and abort the
/// process instead of returning an error. No producer in this
/// workspace nests past single digits.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut at = 0usize;
    let value = parse_value(bytes, &mut at, 0)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(err(at, "trailing characters after the document"));
    }
    Ok(value)
}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(bytes: &[u8], at: &mut usize, c: u8) -> Result<(), JsonError> {
    if *at < bytes.len() && bytes[*at] == c {
        *at += 1;
        Ok(())
    } else {
        Err(err(*at, format!("expected `{}`", c as char)))
    }
}

fn parse_value(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, at);
    if depth > MAX_DEPTH {
        return Err(err(*at, format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    match bytes.get(*at) {
        None => Err(err(*at, "unexpected end of input")),
        Some(b'{') => {
            *at += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Object(pairs));
            }
            loop {
                skip_ws(bytes, at);
                let key = parse_string(bytes, at)?;
                skip_ws(bytes, at);
                expect(bytes, at, b':')?;
                let value = parse_value(bytes, at, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Object(pairs));
                    }
                    _ => return Err(err(*at, "expected `,` or `}` in object")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, at, depth + 1)?);
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(err(*at, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, at)?)),
        Some(b't') => parse_keyword(bytes, at, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, at, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, at, "null", Json::Null),
        Some(_) => parse_number(bytes, at),
    }
}

fn parse_keyword(
    bytes: &[u8],
    at: &mut usize,
    keyword: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*at..].starts_with(keyword.as_bytes()) {
        *at += keyword.len();
        Ok(value)
    } else {
        Err(err(*at, format!("expected `{keyword}`")))
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Json, JsonError> {
    let start = *at;
    if bytes.get(*at) == Some(&b'-') {
        *at += 1;
    }
    let mut saw_digit = false;
    let mut fractional = false;
    while let Some(&b) = bytes.get(*at) {
        match b {
            b'0'..=b'9' => saw_digit = true,
            b'.' | b'e' | b'E' | b'+' | b'-' => fractional = true,
            _ => break,
        }
        *at += 1;
    }
    if !saw_digit {
        return Err(err(start, "expected a value"));
    }
    let text = std::str::from_utf8(&bytes[start..*at]).expect("ASCII number run");
    if fractional {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| err(start, format!("malformed number `{text}`")))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| err(start, format!("integer out of range `{text}`")))
    }
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, JsonError> {
    expect(bytes, at, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*at) {
            None => return Err(err(*at, "unterminated string")),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                match bytes.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*at + 1..*at + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*at, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*at, "malformed \\u escape"))?;
                        // surrogate pairs are not needed by any producer
                        // in this workspace; reject rather than mangle
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*at, "\\u escape is not a scalar value"))?;
                        out.push(c);
                        *at += 4;
                    }
                    _ => return Err(err(*at, "unknown escape")),
                }
                *at += 1;
            }
            Some(_) => {
                // copy the whole run up to the next `"` or `\`: both are
                // ASCII, so the run ends on a character boundary
                let rest = &bytes[*at..];
                let len = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                let run = std::str::from_utf8(&rest[..len])
                    .map_err(|_| err(*at, "string is not valid UTF-8"))?;
                out.push_str(run);
                *at += len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_deterministically() {
        let mut obj = Json::object();
        obj.push("name", Json::str("c432"));
        obj.push("points", Json::Array(vec![Json::Int(0), Json::Int(100)]));
        obj.push("speedup", Json::Float(2.5));
        assert_eq!(
            obj.render(),
            r#"{"name": "c432", "points": [0, 100], "speedup": 2.5}"#
        );
        assert_eq!(obj.render(), obj.clone().render());
    }

    #[test]
    fn parses_what_it_renders() {
        let mut obj = Json::object();
        obj.push("a", Json::Int(-42));
        obj.push("b", Json::Bool(true));
        obj.push("c", Json::Null);
        obj.push("d", Json::str("line\nbreak \"quoted\" \\slash"));
        obj.push("e", Json::Array(vec![Json::Float(0.125), Json::Int(7)]));
        obj.push("f", Json::Object(Vec::new()));
        for text in [obj.render(), obj.render_pretty()] {
            assert_eq!(parse(&text).expect("round-trip parses"), obj);
        }
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        for v in [0.0, -0.0, 1.0 / 3.0, 96.70000000000001, f64::MIN_POSITIVE] {
            let j = Json::f64_bits(v);
            let back = parse(&j.render()).expect("valid");
            assert_eq!(back.as_f64_bits().expect("bits").to_bits(), v.to_bits());
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\\q\"", "01x"] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing() {
        // a corrupted/planted cache entry must produce a JsonError, not
        // a stack-overflow abort
        let hostile = "[".repeat(100_000);
        let e = parse(&hostile).expect_err("too deep");
        assert!(e.message.contains("nesting"), "{e}");
        // the documented bound itself is fine
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep).is_ok());
    }

    #[test]
    fn one_long_string_parses_in_linear_time() {
        // a 4 MiB request line holding one string: a per-character
        // re-validation of the tail would take minutes here
        let payload = "A".repeat(4 << 20);
        let text = format!("{{\"spec\": \"{payload}\\n\u{e9}\"}}");
        let start = std::time::Instant::now();
        let v = parse(&text).expect("valid");
        let elapsed = start.elapsed();
        assert_eq!(
            v.get("spec").and_then(Json::as_str).map(str::len),
            Some(payload.len() + 3)
        );
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""caf\u00e9 \t tab""#).expect("valid");
        assert_eq!(v.as_str(), Some("café \t tab"));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 3, "pct": 96.7, "ok": true, "xs": [1]}"#).expect("valid");
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("pct").and_then(Json::as_f64), Some(96.7));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }
}
