//! A minimal, dependency-free JSON writer helper, validator and reader.
//!
//! The vendored `serde` stub carries no `serde_json`, so trace and
//! report serialization is hand-rolled. This module provides the
//! pieces that keep that honest: correct string escaping on the way out,
//! a strict recursive-descent parser used by tests and the CI smoke job
//! to prove every emitted document actually parses, and a [`JsonValue`]
//! tree (`parse_json`) so tools like `perfbench` can read documents
//! back without an external dependency.

/// Escapes `s` as a JSON string literal, including the surrounding
/// quotes.
pub fn escape_json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out
}

/// A parsed JSON document.
///
/// Object members keep their source order (duplicate keys are kept as-is;
/// [`JsonValue::get`] returns the first).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the grammar guarantees it is finite).
    Number(f64),
    /// A string with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, members in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// First member named `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The members in source order, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses exactly one JSON document (strict RFC 8259 subset: no trailing
/// content, no trailing commas, finite numbers).
///
/// Returns `Err` with a byte offset and message on the first violation.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

/// Validates that `input` is exactly one JSON document; same grammar as
/// [`parse_json`], discarding the value.
pub fn validate_json(input: &str) -> Result<(), String> {
    parse_json(input).map(|_| ())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b't') => self.literal("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|_| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|_| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonValue::Number),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(members)),
                _ => {
                    self.pos -= usize::from(self.pos > 0);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut elements = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(elements));
        }
        loop {
            self.skip_ws();
            elements.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(elements)),
                _ => {
                    self.pos -= usize::from(self.pos > 0);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let first = self.hex4()?;
                        let code = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: require the paired low half.
                            if self.literal("\\u").is_err() {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let second = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err(self.err("unpaired surrogate"));
                            }
                            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                        } else {
                            first
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(self.err("bad \\u escape")),
                        }
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(c) => {
                    // Re-read the full UTF-8 scalar starting at this byte.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let rest = &self.bytes[start..];
                        let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                        let ch = s.chars().next().expect("non-empty");
                        out.push(ch);
                        self.pos = start + ch.len_utf8();
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            match self.bump() {
                Some(c) if c.is_ascii_hexdigit() => {
                    v = v * 16 + (c as char).to_digit(16).expect("hex digit");
                }
                _ => return Err(self.err("bad \\u escape")),
            }
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        debug_assert!(self.pos > start);
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits and sign are ASCII");
        let n: f64 = text.parse().map_err(|_| self.err("unparseable number"))?;
        if !n.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_the_validator() {
        for s in [
            "plain",
            "quo\"te",
            "back\\slash",
            "new\nline",
            "tab\there",
            "\u{1}ctl",
        ] {
            let lit = escape_json_string(s);
            validate_json(&lit).unwrap_or_else(|e| panic!("{lit}: {e}"));
        }
        assert_eq!(escape_json_string("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "null",
            "true",
            "-12.5e+3",
            "\"hi\"",
            "[]",
            "[1, 2, [3]]",
            "{}",
            "{\"a\": {\"b\": [1, null, \"x\"]}, \"c\": -0.5}",
            " { \"ts\" : 1.000 , \"dur\" : 4.000 } ",
        ] {
            validate_json(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn parses_values_with_structure_and_escapes() {
        let doc = "{\"a\": [1, -2.5e1, null, true], \"s\": \"q\\\"\\u0041\\n\", \"o\": {}}";
        let v = parse_json(doc).expect("parses");
        let a = v.get("a").and_then(JsonValue::as_array).expect("array");
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2], JsonValue::Null);
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("q\"A\n"));
        assert_eq!(v.get("o").and_then(JsonValue::as_object), Some(&[][..]));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_surrogate_pairs_and_rejects_lone_halves() {
        let v = parse_json("\"\\ud83e\\udde1\"").expect("astral escape");
        assert_eq!(v.as_str(), Some("\u{1F9E1}"));
        assert!(parse_json("\"\\ud83e\"").is_err());
        assert!(parse_json("\"\\ud83e\\u0041\"").is_err());
    }

    #[test]
    fn parsing_round_trips_escaped_output() {
        for s in ["plain", "quo\"te", "back\\slash", "new\nline", "héllo → 🌍"] {
            let lit = escape_json_string(s);
            assert_eq!(parse_json(&lit).unwrap().as_str(), Some(s), "{lit}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{'a': 1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\escape\"",
            "nulll",
            "[1] [2]",
            "{\"a\":1,}",
        ] {
            assert!(validate_json(doc).is_err(), "should reject: {doc}");
        }
    }
}
