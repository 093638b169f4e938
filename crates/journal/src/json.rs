//! The workspace's one JSON codec: an object writer, the string escaper,
//! and a reader for *flat* objects whose values are scalars
//! (string/number/bool/null) or one level of scalar arrays. Journal lines
//! ([`crate::encode_line`], [`crate::parse_journal_line`]), serve response
//! and request bodies, and cluster frames are all written and read here.
//! The workspace is dependency-free, so no serde.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::{f64_to_hex, Value};

/// Escapes a string for embedding in a JSON literal (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders an f64 as a JSON value: `Display` (shortest round-trip) for
/// finite values, `null` for NaN/infinities (JSON has no encoding for
/// them; bit-exact consumers read the `_bits` hex field instead).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental writer for one JSON object.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    fn key(&mut self, k: &str) -> &mut String {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        let _ = write!(self.buf, "\"{}\":", escape(k));
        &mut self.buf
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        let _ = write!(self.key(k), "\"{}\"", escape(v));
        self
    }

    /// Adds an array-of-strings field.
    pub fn strs<S: AsRef<str>>(mut self, k: &str, items: &[S]) -> Self {
        let buf = self.key(k);
        buf.push('[');
        for (i, item) in items.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(buf, "{sep}\"{}\"", escape(item.as_ref()));
        }
        buf.push(']');
        self
    }

    /// Adds a numeric field (`null` when non-finite).
    pub fn num(mut self, k: &str, v: f64) -> Self {
        let n = number(v);
        self.key(k).push_str(&n);
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, k: &str, v: u64) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Adds typed cell output fields, in order.
    pub fn values(self, fields: &[(&str, Value)]) -> Self {
        fields.iter().fold(self, |obj, &(k, v)| match v {
            Value::Int(n) => obj.int(k, n),
            Value::Num(x) => obj.num(k, x),
            Value::Str(text) => obj.str(k, text),
        })
    }

    /// Adds a value the way journal lines and sweep reports carry it: a
    /// `bits` field with the `f64` bit patterns `bits` in hex (canonical)
    /// and a `vals` field with the decimal mirror `vals`, for readers. The
    /// mirror quotes non-finite values, since JSON has no number for them.
    pub fn bits_vals(self, bits: &[u64], vals: &[f64]) -> Self {
        let hex: Vec<String> = bits.iter().map(|&b| f64_to_hex(f64::from_bits(b))).collect();
        let mirror: Vec<String> = vals
            .iter()
            .map(|v| if v.is_finite() { v.to_string() } else { format!("\"{v}\"") })
            .collect();
        self.strs("bits", &hex).raw("vals", &format!("[{}]", mirror.join(",")))
    }

    /// Adds a field whose value is already-encoded JSON.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k).push_str(v);
        self
    }

    /// Closes and returns the object.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// A value in a flat JSON object: a scalar, or an array of scalars.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string literal.
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of scalars (never of arrays).
    List(Vec<JsonValue>),
}

impl JsonValue {
    /// A scalar as parameter text, for a `name → text` schema lookup: a
    /// string as is, a number as its `Display` form (shortest round-trip,
    /// so it parses back to the same bits), `true`/`false`/`null` as
    /// written. `None` for an array.
    pub fn text(&self) -> Option<Cow<'_, str>> {
        match self {
            JsonValue::Str(s) => Some(Cow::Borrowed(s)),
            JsonValue::Num(n) => Some(Cow::Owned(n.to_string())),
            JsonValue::Bool(b) => Some(Cow::Borrowed(if *b { "true" } else { "false" })),
            JsonValue::Null => Some(Cow::Borrowed("null")),
            JsonValue::List(_) => None,
        }
    }
}

/// A parsed flat JSON object: string keys mapping to scalars or scalar
/// arrays.
#[derive(Debug, Clone, Default)]
pub struct FlatJson {
    fields: Vec<(String, JsonValue)>,
}

impl FlatJson {
    /// Parses `text` as one flat object. Nested objects, arrays inside
    /// arrays and trailing bytes are rejected with a readable error.
    pub fn parse(text: &str) -> Result<FlatJson, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        p.expect_byte(b'{')?;
        let mut fields = Vec::new();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            p.pos += 1;
        } else {
            loop {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                p.expect_byte(b':')?;
                p.skip_ws();
                let value = p.value()?;
                fields.push((key, value));
                p.skip_ws();
                match p.next() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(format!("expected ',' or '}}' at byte {}", p.pos)),
                }
            }
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes after object at byte {}", p.pos));
        }
        Ok(FlatJson { fields })
    }

    /// Whether the field is present (with any value, including `null`).
    pub fn has(&self, k: &str) -> bool {
        self.get(k).is_some()
    }

    /// The fields, in document order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &JsonValue)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The first field named `k`, with any value.
    fn get(&self, k: &str) -> Option<&JsonValue> {
        self.fields.iter().find_map(|(key, v)| (key == k).then_some(v))
    }

    /// A string field's value, if present and a string.
    pub fn get_str(&self, k: &str) -> Option<&str> {
        match self.get(k)? {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A numeric field's value, if present and a number.
    pub fn get_num(&self, k: &str) -> Option<f64> {
        match self.get(k)? {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A boolean field's value, if present and a bool.
    pub fn get_bool(&self, k: &str) -> Option<bool> {
        match self.get(k)? {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An array-of-strings field's items, if present and an array whose
    /// items are all strings.
    pub fn get_strs(&self, k: &str) -> Option<Vec<&str>> {
        match self.get(k)? {
            JsonValue::List(items) => items
                .iter()
                .map(|v| match v {
                    JsonValue::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            _ => Err(format!("expected {:?} at byte {}", want as char, self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        // Raw bytes are copied through and validated once at the closing
        // quote: quotes and backslashes are ASCII, so a multi-byte UTF-8
        // sequence is never split, and pushing bytes as chars would turn
        // it into mojibake.
        let mut out = Vec::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into())
                }
                Some(b'\\') => {
                    let c = match self.next() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for this flat
                            // codec; lone surrogates map to the replacement char.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(b) => out.push(b),
            }
        }
    }

    /// A field value: a scalar, or an array of scalars.
    fn value(&mut self) -> Result<JsonValue, String> {
        if self.peek() != Some(b'[') {
            return self.scalar();
        }
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::List(items));
        }
        loop {
            self.skip_ws();
            items.push(self.scalar()?);
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::List(items)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn scalar(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'{') => Err("nested objects are not supported".to_string()),
            Some(b'[') => Err("nested arrays are not supported".to_string()),
            Some(_) => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                raw.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| format!("bad number {raw:?} at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_writer_round_trips_through_parser() {
        let doc = JsonObject::new()
            .str("name", "a \"quoted\" value")
            .num("alpha", 0.33)
            .int("ad", 6)
            .bool("audit", true)
            .strs("list", &["", "a\u{1f}b"])
            .raw("nested_ok_when_raw", "null")
            .finish();
        let parsed = FlatJson::parse(&doc).unwrap();
        assert_eq!(parsed.get_str("name"), Some("a \"quoted\" value"));
        assert_eq!(parsed.get_num("alpha"), Some(0.33));
        assert_eq!(parsed.get_num("ad"), Some(6.0));
        assert_eq!(parsed.get_bool("audit"), Some(true));
        assert_eq!(parsed.get_strs("list"), Some(vec!["", "a\u{1f}b"]));
        assert!(parsed.has("nested_ok_when_raw"));
        assert_eq!(parsed.get_str("nested_ok_when_raw"), None);
    }

    #[test]
    fn parser_accepts_whitespace_and_empty() {
        assert!(FlatJson::parse("{}").unwrap().fields().next().is_none());
        let p = FlatJson::parse(" { \"a\" : 1 , \"b\" : \"x\" , \"c\" : [ ] } ").unwrap();
        assert_eq!(p.get_num("a"), Some(1.0));
        assert_eq!(p.get_str("b"), Some("x"));
        assert_eq!(p.get_strs("c"), Some(vec![]));
    }

    #[test]
    fn parser_rejects_nests_and_garbage() {
        let p = FlatJson::parse("{\"a\":[1, \"x\" ,true,null]}").unwrap();
        let items = vec![
            JsonValue::Num(1.0),
            JsonValue::Str("x".into()),
            JsonValue::Bool(true),
            JsonValue::Null,
        ];
        assert_eq!(p.get("a"), Some(&JsonValue::List(items)));
        assert_eq!(p.get_strs("a"), None, "not every item is a string");
        assert_eq!(p.get("a").and_then(JsonValue::text), None);
        assert!(FlatJson::parse("{\"a\":{}}").is_err());
        assert!(FlatJson::parse("{\"a\":[[1]]}").is_err());
        assert!(FlatJson::parse("{\"a\":[{}]}").is_err());
        assert!(FlatJson::parse("{\"a\":[1,]}").is_err());
        assert!(FlatJson::parse("{\"a\":[1 2]}").is_err());
        assert!(FlatJson::parse("{\"a\":[1").is_err());
        assert!(FlatJson::parse("{\"a\":1}trailing").is_err());
        assert!(FlatJson::parse("not json").is_err());
        assert!(FlatJson::parse("{\"a\":bogus}").is_err());
        assert!(FlatJson::parse("{\"a\"").is_err());
    }

    #[test]
    fn escapes_and_unicode() {
        let p = FlatJson::parse("{\"k\":\"line\\nbreak \\u0041 ünïcode 日本\"}").unwrap();
        assert_eq!(p.get_str("k"), Some("line\nbreak A ünïcode 日本"));
        let text = "q\"b\\ c\u{1}\t";
        let doc = JsonObject::new().str("k", text).finish();
        assert_eq!(doc, "{\"k\":\"q\\\"b\\\\ c\\u0001\\t\"}");
        assert_eq!(FlatJson::parse(&doc).unwrap().get_str("k"), Some(text));
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(0.25), "0.25");
    }
}
