//! A minimal JSON value, writer, and parser.
//!
//! The workspace is in-tree-only (no crates.io), so manifests are
//! serialized by hand. The subset implemented is exactly what
//! [`RunManifest`](crate::manifest::RunManifest) needs: objects keep
//! their field order (we feed them sorted), numbers print via Rust's
//! shortest-roundtrip `Display` for `f64` (deterministic for identical
//! bits), and the parser exists so tests and tools can validate that a
//! dump round-trips.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite float. NaN/infinity are rejected at write time.
    Num(f64),
    /// An unsigned integer (kept apart from `Num` so counters print
    /// without a decimal point and round-trip exactly).
    Uint(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; field order is preserved as given.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Build an object from `(key, value)` pairs with `&str` keys.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> Self {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Field lookup on an object; `None` on other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for JsonValue {
    /// Compact single-line JSON (one space after `:` and `,` for
    /// legibility). Non-finite floats serialize as `null` — the
    /// deterministic sections never contain them by construction.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(x) => {
                if x.is_finite() {
                    // Always keep a float distinguishable from an int so
                    // the type survives a round-trip.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            JsonValue::Uint(x) => write!(f, "{x}"),
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(": ")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {:?}", b as char))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected {lit}"))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.err("bad \\u escape");
                            };
                            self.pos += 4;
                            // Surrogates are not produced by our writer;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                b => {
                    // Re-decode multi-byte UTF-8 sequences whole.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = match b {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let Some(chunk) = self.bytes.get(start..start + len) else {
                            return self.err("truncated UTF-8");
                        };
                        let Ok(s) = std::str::from_utf8(chunk) else {
                            return self.err("invalid UTF-8");
                        };
                        out.push_str(s);
                        self.pos = start + len;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::Uint(u));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(JsonValue::Num(x)),
            Err(_) => self.err(format!("bad number {text:?}")),
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Object(fields));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'0'..=b'9' | b'-') => self.number(),
            Some(b) => self.err(format!("unexpected byte {:?}", b as char)),
            None => self.err("unexpected end of input"),
        }
    }
}

/// Parse a JSON document. Trailing whitespace is allowed; trailing
/// garbage is an error.
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_objects_in_given_order() {
        let v = JsonValue::object([
            ("b", JsonValue::Uint(2)),
            ("a", JsonValue::Str("x\"y".into())),
        ]);
        assert_eq!(v.to_string(), r#"{"b": 2, "a": "x\"y"}"#);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(JsonValue::Num(3.0).to_string(), "3.0");
        assert_eq!(JsonValue::Num(0.25).to_string(), "0.25");
        assert_eq!(JsonValue::Uint(3).to_string(), "3");
    }

    #[test]
    fn non_finite_floats_write_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn round_trips() {
        let v = JsonValue::object([
            ("name", JsonValue::Str("exp \u{2603} \n".into())),
            ("n", JsonValue::Uint(42)),
            ("x", JsonValue::Num(0.125)),
            ("flag", JsonValue::Bool(true)),
            ("nothing", JsonValue::Null),
            (
                "arr",
                JsonValue::Array(vec![JsonValue::Uint(1), JsonValue::Num(2.5)]),
            ),
            ("obj", JsonValue::object([("k", JsonValue::Uint(7))])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_external_whitespace_and_escapes() {
        let v = parse("  {\n \"a\" : [ 1 , -2.5, \"\\u0041\\t\" ] }  ").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Array(vec![
                JsonValue::Uint(1),
                JsonValue::Num(-2.5),
                JsonValue::Str("A\t".into()),
            ]))
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("nulll").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn get_and_accessors() {
        let v = parse(r#"{"s": "hi", "n": 3, "x": 1.5}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("hi"));
        assert_eq!(v.get("n"), Some(&JsonValue::Uint(3)));
        assert_eq!(v.get("x"), Some(&JsonValue::Num(1.5)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("s"), None);
    }
}
