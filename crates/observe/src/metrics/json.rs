//! A minimal JSON value: build, render, parse.
//!
//! The workspace is deliberately dependency-free (it builds
//! `--offline`), so the JSON spoken by the exporters and the
//! `/health`, `/spans.json` and `/causal.json` routes lives here —
//! one small, shared implementation instead of hand-rolled string
//! formatters.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `u64` (counts, nanoseconds).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number. Non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, for builder-style construction.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` (builder style; only meaningful on
    /// [`Json::Obj`], a no-op otherwise).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_owned(), value.into()));
        }
        self
    }

    /// Object field lookup (first match; `None` on non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (or a float with
    /// an exact integral value).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            Json::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, if it is numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders with two-space indentation (stable, diff-friendly — the
    /// format checked into `results/`).
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    for _ in 0..indent + 1 {
                        out.push_str("  ");
                    }
                    item.write_pretty(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                for _ in 0..indent {
                    out.push_str("  ");
                }
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    for _ in 0..indent + 1 {
                        out.push_str("  ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                for _ in 0..indent {
                    out.push_str("  ");
                }
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message on malformed input (including
    /// trailing junk after the top-level value).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                offset: pos,
                message: "trailing characters after value",
            });
        }
        Ok(value)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if let Ok(u) = u64::try_from(v) {
            Json::U64(u)
        } else {
            Json::I64(v)
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was expected.
    pub message: &'static str,
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

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            // Keep integral floats readable and round-trippable.
            let _ = write!(out, "{v:.1}");
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        out.push_str("null");
    }
}

fn write_str(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, message: &'static str) -> Result<(), ParseError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError {
            offset: *pos,
            message,
        })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        _ => Err(ParseError {
            offset: *pos,
            message: "expected a JSON value",
        }),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError {
            offset: *pos,
            message: "invalid literal",
        })
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'{', "expected '{'")?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':'")?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => {
                return Err(ParseError {
                    offset: *pos,
                    message: "expected ',' or '}'",
                })
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(ParseError {
                    offset: *pos,
                    message: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(ParseError {
                    offset: *pos,
                    message: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(ParseError {
                            offset: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| ParseError {
                            offset: *pos,
                            message: "invalid \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                            offset: *pos,
                            message: "invalid \\u escape",
                        })?;
                        // Surrogates (paired or lone) are replaced; the
                        // exporters never emit them.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            message: "invalid escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).unwrap_or("\u{fffd}"));
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| ParseError {
        offset: start,
        message: "invalid number",
    })?;
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>().map(Json::F64).map_err(|_| ParseError {
        offset: start,
        message: "invalid number",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_renders_compact_and_pretty() {
        let v = Json::obj()
            .field("experiment", "e1")
            .field("count", 3u64)
            .field("rate", 1.5)
            .field("items", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        assert_eq!(
            v.render(),
            r#"{"experiment":"e1","count":3,"rate":1.5,"items":[1,2]}"#
        );
        let pretty = v.render_pretty();
        assert!(pretty.contains("\"experiment\": \"e1\""));
        assert!(pretty.ends_with("}\n"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parse_round_trips() {
        let text = r#"{"a": [1, -2, 3.5, true, false, null], "b": {"c": "x\ty"}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 6);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ty"));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let err = Json::parse("nope").unwrap_err();
        assert!(err.to_string().contains("byte 0"));
    }

    #[test]
    fn numbers_keep_integer_precision() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = Json::parse("-5").unwrap();
        assert_eq!(v.as_f64(), Some(-5.0));
        assert_eq!(Json::F64(2.0).render(), "2.0");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
    }

    #[test]
    fn escapes_render_safely() {
        let v = Json::Str("a\"b\\c\nd\u{1}".to_owned());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
