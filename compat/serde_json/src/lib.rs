//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], and [`from_str`], bridging the
//! vendored serde's owned [`Value`] data model to JSON text.
//!
//! Formatting matches real serde_json where the result store depends on
//! it: floats that are mathematically integral print with a trailing
//! `.0` (so `f64` fields survive a write/read cycle as floats), strings
//! escape control characters as `\u00XX`, and struct fields keep
//! declaration order. Non-finite floats serialize as `null`, which is
//! serde_json's lossy default too.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::fmt;

/// A serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<SerdeError> for Error {
    fn from(e: SerdeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(x) => out.push_str(&x.to_string()),
        Value::UInt(x) => out.push_str(&x.to_string()),
        Value::Float(x) => write_float(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sep(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            write_sep(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sep(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            write_sep(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_sep(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e16 {
        // Keep the value recognizably a float on the wire, as serde_json does.
        out.push_str(&format!("{x:.1}"));
    } else {
        out.push_str(&format!("{x}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser (recursive descent)
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {} in JSON input",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of JSON input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::new(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string in JSON input"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape in JSON input"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::new(format!(
                                "invalid escape '\\{}' in JSON string",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 from the source slice.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error::new("truncated UTF-8 in JSON string"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| Error::new("invalid UTF-8 in JSON string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number '{text}'")))
        } else if text.starts_with('-') {
            // "-0" parses as Int(0); fine, both deserialize identically.
            // Below i64::MIN is out of range, not wrapped.
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::new(format!("invalid number '{text}'")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::new(format!("invalid number '{text}'")))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        let x: f64 = from_str("2.0").unwrap();
        assert_eq!(x, 2.0);
        let y: i64 = from_str("-7").unwrap();
        assert_eq!(y, -7);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "a\"b\\c\nd\u{1}é漢".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(json, "\"a\\\"b\\\\c\\nd\\u0001é漢\"");
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u64, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        let back: Vec<u64> = from_str(&json).unwrap();
        assert_eq!(back, v);

        let json = to_string(&Vec::<u64>::new()).unwrap();
        assert_eq!(json, "[]");

        let mut m = std::collections::BTreeMap::new();
        m.insert("a".to_string(), 1.5f64);
        let json = to_string(&m).unwrap();
        assert_eq!(json, "{\"a\":1.5}");
        let back: std::collections::BTreeMap<String, f64> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn pretty_indents() {
        let v = vec![1u64];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1\n]");
    }

    #[test]
    fn negative_integers_parse_exactly_or_fail() {
        let min: i64 = from_str("-9223372036854775808").unwrap();
        assert_eq!(min, i64::MIN);
        assert!(from_str::<i64>("-9223372036854775809").is_err());
        assert!(from_str::<i64>("-10000000000000000000").is_err());
        assert!(from_str::<i64>("-18446744073709551615").is_err());
        assert!(from_str::<u64>("-1").is_err());
    }

    #[test]
    fn whitespace_and_errors() {
        let back: Vec<u64> = from_str(" [ 1 , 2 ] ").unwrap();
        assert_eq!(back, vec![1, 2]);
        assert!(from_str::<u64>("12 34").is_err());
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<Vec<u64>>("[1,]").is_err());
    }
}
