//! # cpjson — dependency-free JSON for the CPRecycle workspace
//!
//! The build environment has no crates.io access, so `serde`/`serde_json` are not
//! available. This crate provides the small JSON layer the workspace needs instead:
//!
//! * [`Value`] — a JSON document model that keeps object-key insertion order and
//!   distinguishes integers from floats (so `u64` campaign seeds round-trip exactly);
//! * a strict recursive-descent [parser](Value::parse) and a pretty
//!   [printer](Value::pretty);
//! * the [`ToJson`] / [`FromJson`] conversion traits with implementations for the
//!   primitive types, `Vec<T>` and `Option<T>`.
//!
//! The campaign engine's checkpoint files and the `campaign` CLI's `--json` output go
//! through this crate, so the format is deliberately plain: UTF-8, `\uXXXX` escapes
//! accepted on input, only the mandatory escapes emitted on output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent (round-trips 64-bit seeds exactly).
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// Errors produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The input text is not valid JSON.
    Parse {
        /// Byte offset of the error.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A value had the wrong JSON type or was out of domain for the target type.
    Type {
        /// What the conversion expected.
        expected: String,
        /// A short rendering of what was found.
        found: String,
    },
    /// A required object field is absent.
    MissingField(
        /// The field name.
        String,
    ),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            JsonError::Type { expected, found } => {
                write!(f, "JSON type error: expected {expected}, found {found}")
            }
            JsonError::MissingField(name) => write!(f, "missing JSON field `{name}`"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Conversion result alias.
pub type Result<T> = std::result::Result<T, JsonError>;

impl Value {
    /// Parses a JSON document, requiring that the whole input is consumed.
    pub fn parse(text: &str) -> Result<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::Parse {
                offset: pos,
                message: "trailing characters after document".into(),
            });
        }
        Ok(value)
    }

    /// Renders the value as pretty-printed JSON (two-space indent, `\n` line ends).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, &mut out);
        out
    }

    /// Renders the value as compact single-line JSON.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required field of an object.
    pub fn field(&self, key: &str) -> Result<&Value> {
        self.get(key)
            .ok_or_else(|| JsonError::MissingField(key.to_string()))
    }

    /// Converts a required field into `T`.
    pub fn field_as<T: FromJson>(&self, key: &str) -> Result<T> {
        T::from_json(self.field(key)?)
    }

    fn type_error<T>(&self, expected: &str) -> Result<T> {
        Err(JsonError::Type {
            expected: expected.into(),
            found: self.type_name().into(),
        })
    }
}

/// Builds an object value from `(key, value)` pairs, preserving order.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Types that can render themselves as a [`Value`].
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait FromJson: Sized {
    /// Converts a JSON value into `Self`.
    fn from_json(value: &Value) -> Result<Self>;
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => other.type_error("bool"),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => other.type_error("string"),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => other.type_error("number"),
        }
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self> {
                match value {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| JsonError::Type {
                        expected: stringify!($t).into(),
                        found: format!("integer {i} out of range"),
                    }),
                    other => other.type_error(stringify!($t)),
                }
            }
        }
    )*};
}
impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            other => other.type_error("array"),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<K: ToString + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_error<T>(pos: usize, message: impl Into<String>) -> Result<T> {
    Err(JsonError::Parse {
        offset: pos,
        message: message.into(),
    })
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<()> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        parse_error(*pos, format!("expected `{}`", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => parse_error(*pos, "unexpected end of input"),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        parse_error(*pos, format!("expected `{word}`"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            _ => return parse_error(*pos, "expected `,` or `}` in object"),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return parse_error(*pos, "expected `,` or `]` in array"),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return parse_error(*pos, "unterminated string"),
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let unit = parse_hex4(bytes, pos)?;
                        // Surrogate pairs.
                        let ch = if (0xD800..0xDC00).contains(&unit) {
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                if (0xDC00..0xE000).contains(&low) {
                                    let c = 0x10000
                                        + ((unit as u32 - 0xD800) << 10)
                                        + (low as u32 - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    // High surrogate not followed by a low surrogate.
                                    None
                                }
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(unit as u32)
                        };
                        match ch {
                            Some(c) => out.push(c),
                            None => return parse_error(*pos, "invalid \\u escape"),
                        }
                        // parse_hex4 leaves pos on the last hex digit; advance below.
                    }
                    _ => return parse_error(*pos, "invalid escape"),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return parse_error(*pos, "control character in string"),
            Some(_) => {
                // Copy one UTF-8 scalar.
                let start = *pos;
                let mut end = start + 1;
                while end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                    end += 1;
                }
                match std::str::from_utf8(&bytes[start..end]) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return parse_error(start, "invalid UTF-8"),
                }
                *pos = end;
            }
        }
    }
}

/// Parses the 4 hex digits of a `\uXXXX` escape. On entry `pos` is at the `u`; on exit
/// it is at the last hex digit (the caller advances past it).
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u16> {
    let start = *pos + 1;
    if start + 4 > bytes.len() {
        return parse_error(*pos, "truncated \\u escape");
    }
    let hex = std::str::from_utf8(&bytes[start..start + 4]).map_err(|_| JsonError::Parse {
        offset: start,
        message: "invalid \\u escape".into(),
    })?;
    let unit = u16::from_str_radix(hex, 16).map_err(|_| JsonError::Parse {
        offset: start,
        message: "invalid \\u escape".into(),
    })?;
    *pos = start + 3;
    Ok(unit)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    if text.is_empty() || text == "-" {
        return parse_error(start, "expected a value");
    }
    if is_float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| JsonError::Parse {
                offset: start,
                message: format!("invalid number `{text}`: {e}"),
            })
    } else {
        text.parse::<i128>()
            .map(Value::Int)
            .map_err(|e| JsonError::Parse {
                offset: start,
                message: format!("invalid integer `{text}`: {e}"),
            })
    }
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(f: f64, out: &mut String) {
    if f.is_finite() {
        if f == f.trunc() && f.abs() < 1e15 {
            // Keep a fractional marker so floats stay floats on re-parse.
            out.push_str(&format!("{f:.1}"));
        } else {
            // `{:?}` is the shortest round-trip representation and uses an exponent
            // for large magnitudes, so whole floats >= 1e15 re-parse as floats (a bare
            // digit string would be routed to the integer path and could overflow it).
            out.push_str(&format!("{f:?}"));
        }
    } else {
        // JSON has no NaN/Inf; persist as null like serde_json's lossy modes.
        out.push_str("null");
    }
}

fn write_value(value: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_number(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            // Scalar-only arrays stay on one line to keep checkpoints readable.
            let scalar = items
                .iter()
                .all(|v| !matches!(v, Value::Array(_) | Value::Object(_)));
            if scalar {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_value(item, 0, out);
                }
                out.push(']');
            } else {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_value(item, indent + 1, out);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in fields.iter().enumerate() {
                out.push_str(&pad_in);
                write_escaped(k, out);
                out.push_str(": ");
                write_value(v, indent + 1, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn write_compact(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_number(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(v, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("42").unwrap(), Value::Int(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(
            Value::parse("\"a\\nb\"").unwrap(),
            Value::Str("a\nb".into())
        );
    }

    #[test]
    fn u64_seeds_roundtrip_exactly() {
        let seed = u64::MAX - 12345;
        let v = seed.to_json();
        let text = v.pretty();
        let back: u64 = u64::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, seed);
    }

    #[test]
    fn object_roundtrip_preserves_order_and_values() {
        let v = object(vec![
            ("name", "fig8".to_json()),
            ("trials", 2000u64.to_json()),
            ("rates", vec![0.25f64, 1.0, 99.5].to_json()),
            ("done", true.to_json()),
            ("note", Value::Null),
        ]);
        let text = v.pretty();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.field_as::<String>("name").unwrap(), "fig8");
        assert_eq!(back.field_as::<u64>("trials").unwrap(), 2000);
        assert_eq!(
            back.field_as::<Vec<f64>>("rates").unwrap(),
            vec![0.25, 1.0, 99.5]
        );
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a": [{"b": [1, 2.5, "x"]}, []], "c": {"d": null}}"#;
        let v = Value::parse(text).unwrap();
        let again = Value::parse(&v.pretty()).unwrap();
        assert_eq!(v, again);
        let compact = Value::parse(&v.compact()).unwrap();
        assert_eq!(v, compact);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "tab\t quote\" backslash\\ newline\n unicode é 😀".to_string();
        let v = original.to_json();
        let back: String = String::from_json(&Value::parse(&v.pretty()).unwrap()).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Value::parse(r#""é😀""#).unwrap();
        assert_eq!(v, Value::Str("é😀".into()));
        // Surrogate pair for U+1F600.
        let v = Value::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Value::Str("😀".into()));
    }

    #[test]
    fn lone_or_mismatched_surrogates_are_errors_not_panics() {
        for text in [r#""\ud800""#, r#""\ud800A""#, r#""\udc00""#] {
            assert!(
                matches!(Value::parse(text), Err(JsonError::Parse { .. })),
                "{text}"
            );
        }
    }

    #[test]
    fn large_whole_floats_roundtrip_as_floats() {
        for f in [1e15, 1e40, -2.5e38, 1.7976931348623157e308] {
            let text = f.to_json().pretty();
            let back = Value::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, Value::Float(f), "{text}");
        }
    }

    #[test]
    fn errors_carry_position_and_kind() {
        assert!(matches!(
            Value::parse("{\"a\": }"),
            Err(JsonError::Parse { .. })
        ));
        assert!(matches!(
            Value::parse("[1, 2"),
            Err(JsonError::Parse { .. })
        ));
        assert!(matches!(Value::parse("1 2"), Err(JsonError::Parse { .. })));
        let v = Value::parse("{\"a\": 1}").unwrap();
        assert!(matches!(
            v.field("missing"),
            Err(JsonError::MissingField(_))
        ));
        assert!(matches!(
            v.field_as::<String>("a"),
            Err(JsonError::Type { .. })
        ));
    }

    #[test]
    fn floats_keep_fraction_marker() {
        let text = 100.0f64.to_json().pretty();
        assert_eq!(text, "100.0");
        assert_eq!(Value::parse(&text).unwrap(), Value::Float(100.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json().pretty(), "null");
        let v: Option<f64> = Option::from_json(&Value::parse("null").unwrap()).unwrap();
        assert_eq!(v, None);
    }
}
