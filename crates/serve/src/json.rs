//! A hand-rolled JSON codec for the serve API: an object writer and a
//! parser for *flat* objects (string/number/bool/null values only), which
//! is all `POST /v1/solve` accepts. The workspace is dependency-free, so
//! no serde — this mirrors the style of the sweep journal codec in
//! `bvc_journal`.

use std::borrow::Cow;
use std::fmt::Write as _;

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

/// A scalar value in a flat JSON object.
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
}

impl JsonValue {
    /// The value as parameter text, for a `name → text` schema lookup: a
    /// string as is, a number as its `Display` form (shortest round-trip,
    /// so it parses back to the same bits), `true`/`false`/`null` as
    /// written.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            JsonValue::Str(s) => Cow::Borrowed(s),
            JsonValue::Num(n) => Cow::Owned(n.to_string()),
            JsonValue::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            JsonValue::Null => Cow::Borrowed("null"),
        }
    }
}

/// A parsed flat JSON object: string keys mapping to scalar values.
#[derive(Debug, Clone, Default)]
pub struct FlatJson {
    fields: Vec<(String, JsonValue)>,
}

impl FlatJson {
    /// Parses `text` as one flat object. Nested objects or arrays are
    /// rejected with a readable error, as are trailing bytes.
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
                let value = p.scalar()?;
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
        self.fields.iter().any(|(key, _)| key == k)
    }

    /// The fields, in document order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &JsonValue)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// A string field's value, if present and a string.
    pub fn get_str(&self, k: &str) -> Option<&str> {
        self.fields.iter().find_map(|(key, v)| match v {
            JsonValue::Str(s) if key == k => Some(s.as_str()),
            _ => None,
        })
    }

    /// A numeric field's value, if present and a number.
    pub fn get_num(&self, k: &str) -> Option<f64> {
        self.fields.iter().find_map(|(key, v)| match v {
            JsonValue::Num(n) if key == k => Some(*n),
            _ => None,
        })
    }

    /// A boolean field's value, if present and a bool.
    pub fn get_bool(&self, k: &str) -> Option<bool> {
        self.fields.iter().find_map(|(key, v)| match v {
            JsonValue::Bool(b) if key == k => Some(*b),
            _ => None,
        })
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
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| "bad \\u escape".to_string())?;
                        self.pos += 4;
                        // Surrogate pairs are out of scope for this flat
                        // codec; lone surrogates map to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 from the source slice.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
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
            Some(b'[') => Err("arrays are not supported".to_string()),
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
            .raw("nested_ok_when_raw", "null")
            .finish();
        let parsed = FlatJson::parse(&doc).unwrap();
        assert_eq!(parsed.get_str("name"), Some("a \"quoted\" value"));
        assert_eq!(parsed.get_num("alpha"), Some(0.33));
        assert_eq!(parsed.get_num("ad"), Some(6.0));
        assert_eq!(parsed.get_bool("audit"), Some(true));
        assert!(parsed.has("nested_ok_when_raw"));
        assert_eq!(parsed.get_str("nested_ok_when_raw"), None);
    }

    #[test]
    fn parser_accepts_whitespace_and_empty() {
        assert!(FlatJson::parse("{}").unwrap().fields().next().is_none());
        let p = FlatJson::parse(" { \"a\" : 1 , \"b\" : \"x\" } ").unwrap();
        assert_eq!(p.get_num("a"), Some(1.0));
        assert_eq!(p.get_str("b"), Some("x"));
    }

    #[test]
    fn parser_rejects_nests_and_garbage() {
        assert!(FlatJson::parse("{\"a\":{}}").is_err());
        assert!(FlatJson::parse("{\"a\":[1]}").is_err());
        assert!(FlatJson::parse("{\"a\":1}trailing").is_err());
        assert!(FlatJson::parse("not json").is_err());
        assert!(FlatJson::parse("{\"a\":bogus}").is_err());
        assert!(FlatJson::parse("{\"a\"").is_err());
    }

    #[test]
    fn escapes_and_unicode() {
        let p = FlatJson::parse("{\"k\":\"line\\nbreak \\u0041 ünïcode\"}").unwrap();
        assert_eq!(p.get_str("k"), Some("line\nbreak A ünïcode"));
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(0.25), "0.25");
    }
}
