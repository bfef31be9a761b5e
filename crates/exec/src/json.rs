//! A small, strict JSON parser, and the writer every emitted document
//! goes through.
//!
//! The build environment has no crates.io access, so workload specs are
//! parsed with this hand-written recursive-descent parser instead of
//! `serde_json`. It accepts exactly RFC 8259 documents (no comments, no
//! trailing commas, no NaN/Infinity) and reports byte offsets on errors.
//! The way out is [`ToJson`]: trace lines, `Done` payloads, reports and
//! generated specs all list their fields through it.
//!
//! An integer token that fits a `u64` is kept exact, so what the writer
//! emits — a full 64-bit seed, say — reads back unchanged; every other
//! number is held as `f64`, and the integer accessor rejects one that is
//! fractional or beyond 2^53, where `f64` stops being exact.

use std::fmt::{self, Write as _};

pub use crate::fields;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written without fraction or exponent that
    /// fits a `u64`, exact.
    Integer(u64),
    /// Any other number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order preserved, duplicate keys rejected at
    /// parse time.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Human-readable name of this value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Integer(_) | Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// The fields if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value under `key` if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, value)| value)
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Integer(n) => Some(*n as f64),
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The value if this is a number exactly representing a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Integer(n) => Some(*n),
            Json::Number(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= MAX_EXACT => Some(*v as u64),
            _ => None,
        }
    }
}

/// A syntax error with the byte offset where it was detected.
#[derive(Debug, Clone)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_at,
                    message: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err(format!("invalid escape \\{}", esc as char))),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so it's valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected digit")),
        }
        let plain = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after '.'"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            self.digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if let (true, Ok(n)) = (plain, text.parse::<u64>()) {
            return Ok(Json::Integer(n));
        }
        let v: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !v.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Number(v))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// A value that writes itself as JSON text. The impls below are the only
/// code in the workspace that knows JSON syntax on the way out; every
/// emitted document lists its fields through [`object`] / [`obj`] and
/// [`fields!`](crate::fields), so quoting, commas and escaping cannot be
/// got wrong at a call site.
///
/// Integers are written exactly (a full `u64` seed survives, and
/// [`Json::Integer`] reads it back); `f64` uses Rust's shortest
/// round-trip rendering, [`fixed`] a set number of decimals.
pub trait ToJson {
    /// Append this value's JSON text to `out`.
    fn write_json(self, out: &mut String);
}

macro_rules! integers_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integers_to_json!(u16, u32, u64, usize);

impl ToJson for bool {
    fn write_json(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
}

impl ToJson for f64 {
    fn write_json(self, out: &mut String) {
        write_float(self, None, out);
    }
}

/// `v` with exactly `decimals` digits after the point (`{:.N}`).
pub fn fixed(v: f64, decimals: usize) -> impl ToJson {
    Fixed(v, decimals)
}

struct Fixed(f64, usize);

impl ToJson for Fixed {
    fn write_json(self, out: &mut String) {
        write_float(self.0, Some(self.1), out);
    }
}

/// JSON has no NaN or infinity; they are written as `null`.
fn write_float(v: f64, decimals: Option<usize>, out: &mut String) {
    if !v.is_finite() {
        return out.push_str("null");
    }
    let _ = match decimals {
        Some(n) => write!(out, "{v:.n$}"),
        None => write!(out, "{v}"),
    };
}

impl ToJson for &str {
    fn write_json(self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
}

impl ToJson for &String {
    fn write_json(self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// A pair is a two-element array (`[bucket, count]`, `[query, secs]`).
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

/// An array of whatever `items` yields.
pub fn arr<I>(items: I) -> impl ToJson
where
    I: IntoIterator,
    I::Item: ToJson,
{
    Arr(items)
}

struct Arr<I>(I);

impl<I> ToJson for Arr<I>
where
    I: IntoIterator,
    I::Item: ToJson,
{
    fn write_json(self, out: &mut String) {
        out.push('[');
        for (i, item) in self.0.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

/// An object under construction; see [`Object::field`].
#[derive(Debug)]
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    /// Append `"key":value`. Usually spelled through
    /// [`fields!`](crate::fields).
    pub fn field(&mut self, key: &str, value: impl ToJson) {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        key.write_json(self.out);
        self.out.push(':');
        value.write_json(self.out);
    }
}

/// A nested object whose fields `fields` lists.
pub fn obj<F: FnOnce(&mut Object<'_>)>(fields: F) -> impl ToJson {
    Obj(fields)
}

struct Obj<F>(F);

impl<F: FnOnce(&mut Object<'_>)> ToJson for Obj<F> {
    fn write_json(self, out: &mut String) {
        out.push('{');
        (self.0)(&mut Object { out, empty: true });
        out.push('}');
    }
}

/// One whole document: the object whose fields `fields` lists, as text.
pub fn object<F: FnOnce(&mut Object<'_>)>(fields: F) -> String {
    let mut out = String::new();
    obj(fields).write_json(&mut out);
    out
}

/// List fields on an [`Object`], in document order:
/// `fields!(o, "rel": 3, "finished": true)`.
#[macro_export]
macro_rules! fields {
    ($object:ident, $($key:literal : $value:expr),+ $(,)?) => {{
        $( $object.field($key, $value); )+
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x\n\u0041"}"#)
            .unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].1.as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(fields[2].1.as_str(), Some("x\nA"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "01",
            "1 2",
            "nul",
            "\"\\q\"",
            "\"unterminated",
            "{\"a\":1,\"a\":2}",
            "+1",
            "NaN",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integer_accessor_is_exact() {
        assert_eq!(parse("10000").unwrap().as_u64(), Some(10_000));
        assert_eq!(parse("0.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        // The whole u64 range reads back exactly; one past it does not fit
        // and is not rounded into it.
        let max = parse("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        assert_eq!(max.as_f64(), Some(u64::MAX as f64));
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\u{1}";
        let doc = object(|o| fields!(o, "s": s));
        assert_eq!(doc, r#"{"s":"a\"b\\c\nd\u0001"}"#);
        assert_eq!(parse(&doc).unwrap().get("s").unwrap().as_str(), Some(s));
    }

    #[test]
    fn writer_nests_and_keeps_numbers_exact() {
        let doc = object(|o| {
            fields!(o,
                "seed": u64::MAX, "f": 0.1 + 0.2, "secs": fixed(1.0 / 3.0, 6), "nan": f64::NAN,
                "none": None::<u64>, "on": true, "ids": arr([2u16, 1]),
                "pairs": arr([(0u32, 1.5)]), "why": obj(|o| fields!(o, "end_of_qf": 4u32)),
                "empty": obj(|_| {})
            )
        });
        assert_eq!(
            doc,
            "{\"seed\":18446744073709551615,\"f\":0.30000000000000004,\"secs\":0.333333,\
             \"nan\":null,\"none\":null,\"on\":true,\"ids\":[2,1],\"pairs\":[[0,1.5]],\
             \"why\":{\"end_of_qf\":4},\"empty\":{}}"
        );
        assert!(parse(&doc).is_ok());
    }

    /// JSON syntax lives in this file only: outside it, no shipped line
    /// under `crates/*/src` (tests excluded) splices an object by hand —
    /// the `{{\"` that opens one in a `format!` string, or the `\":{`
    /// that nests one.
    #[test]
    fn no_crate_splices_json_by_hand() {
        fn scan(dir: &std::path::Path, offenders: &mut Vec<String>) {
            for entry in std::fs::read_dir(dir).expect("readable source dir") {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    scan(&path, offenders);
                } else if path.extension().is_some_and(|e| e == "rs")
                    && !path.ends_with("exec/src/json.rs")
                {
                    let text = std::fs::read_to_string(&path).unwrap();
                    let shipped = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
                    for (n, line) in shipped.enumerate() {
                        if line.contains("{{\\\"") || line.contains("\\\":{") {
                            offenders.push(format!("{}:{}: {line}", path.display(), n + 1));
                        }
                    }
                }
            }
        }
        let crates = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let mut offenders = Vec::new();
        for krate in std::fs::read_dir(crates).unwrap() {
            let src = krate.unwrap().path().join("src");
            if src.is_dir() {
                scan(&src, &mut offenders);
            }
        }
        assert!(offenders.is_empty(), "{offenders:#?}");
    }
}
