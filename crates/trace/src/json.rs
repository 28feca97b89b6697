//! The workspace's one JSON parser: it reads `ringd`'s wire frames and
//! every trace line `tracecheck` and snapshot restore read back, and its
//! string escaping ([`quote`]) serves writers that lay out their own
//! documents, such as the `ringlint-v1` report.
//!
//! The build environment has no crates.io access, so the workspace
//! ships its own codec instead of pulling one in. It is deliberately
//! small and total — a daemon must survive any bytes a client writes:
//!
//! - objects decode into `BTreeMap` (deterministic iteration — encoding
//!   a value twice yields identical bytes, and the ringlint hash-map
//!   rules stay satisfied), and a key that appears twice in one object
//!   is an error, not a silent choice between the two values;
//! - non-negative integer literals that fit a `u64` decode exactly as
//!   [`Json::Uint`] (seeds and cycle counts use the whole 64-bit range,
//!   which an `f64` cannot carry past 2^53); every other number is an
//!   `f64`, and numbers follow JSON's grammar (no leading zeros, no bare
//!   `1.` or `1e`);
//! - strings are copied in runs between escapes, so parsing is linear
//!   in the input's length;
//! - a recursion-depth cap turns adversarially nested input into a
//!   typed error instead of a stack overflow.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth a frame may use. Protocol frames are two or
/// three levels deep; anything past this is hostile or broken.
const MAX_DEPTH: u32 = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal, exactly.
    Uint(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in key order.
    Obj(BTreeMap<String, Json>),
}

/// Why a frame failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (a frame is exactly one value).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing bytes after the value"));
        }
        Ok(v)
    }

    /// Field of an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Non-negative integral payload, if this is a whole number that a
    /// `u64` represents exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value in one line, keys in `BTreeMap` order —
    /// identical values always render to identical bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Uint(n) => out.push_str(&n.to_string()),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_quoted(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_quoted(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds an object from key/value pairs (a tidy literal syntax for
/// response construction).
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `s` as a JSON string literal, quotes included, escaped exactly as
/// [`Json::render`] escapes strings — for writers that lay out their
/// own documents.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_quoted(s, &mut out);
    out
}

fn write_quoted(s: &str, out: &mut String) {
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: msg.to_string(),
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("value nests too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte at start of value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.some_digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.some_digits()?;
        }
        // The scan above accepted ASCII bytes only.
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Uint(n));
        }
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// One or more digits: a fraction or exponent may not be empty.
    fn some_digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("malformed number"));
        }
        self.digits();
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, backslash
            // or control byte. All three are ASCII, so the run ends on a
            // char boundary of the (already UTF-8) input, and each byte
            // is looked at once.
            let start = self.pos;
            self.pos += self.bytes[start..]
                .iter()
                .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - start);
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control byte in string")),
            }
        }
    }

    /// Decodes one escape sequence; called with `pos` just past the
    /// backslash, leaves it just past the sequence.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // an escaped low surrogate.
                if !(0xD800..0xDC00).contains(&cp) {
                    return char::from_u32(cp).ok_or_else(|| self.err("bad code point"));
                }
                if self.peek() != Some(b'\\') {
                    return Err(self.err("lone high surrogate"));
                }
                self.pos += 1;
                self.eat(b'u')?;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("bad low surrogate"));
                }
                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        // Called with `pos` on the first hex digit (after `u`); leaves
        // `pos` one past the last digit.
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                return Err(self.err("trailing comma in object"));
            }
            let at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            match map.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(v);
                }
                Entry::Occupied(dup) => {
                    return Err(JsonError {
                        offset: at,
                        msg: format!("duplicate key {}", quote(dup.key())),
                    });
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                return Err(self.err("trailing comma in array"));
            }
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_of_a_protocol_frame() {
        let text = r#"{"v":1,"id":"7","cmd":"create","spec":{"scale":120,"chaos":false}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("create"));
        let spec = v.get("spec").unwrap();
        assert_eq!(spec.get("scale").and_then(Json::as_u64), Some(120));
        assert_eq!(spec.get("chaos").and_then(Json::as_bool), Some(false));
        // Render → parse is a fixpoint.
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        // Integers past 2^53 survive exactly, up to u64::MAX.
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let text = format!(r#"{{"spec":{{"seed":{n}}}}}"#);
            let v = Json::parse(&text).unwrap();
            let seed = v.get("spec").and_then(|s| s.get("seed"));
            assert_eq!(seed.and_then(Json::as_u64), Some(n));
            assert_eq!(v.render(), text);
        }
    }

    #[test]
    fn rendering_is_key_sorted_and_stable() {
        let a = Json::parse(r#"{"b":1,"a":2}"#).unwrap();
        let b = Json::parse(r#"{"a":2,"b":1}"#).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::Str("a\"b\\c\nd\u{1}".to_string());
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        let u = Json::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(u.as_str(), Some("Aé😀"));
    }

    #[test]
    fn malformed_frames_are_typed_errors_not_panics() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1,]",
            "nul",
            "\"unterminated",
            "01x",
            "1e999",
            "{\"a\":1}trailing",
            "\"\\ud800\"",
            "\"\\q\"",
            "\u{7f}",
            "-",
            "01",
            "-01",
            "1.",
            "1.e5",
            "1e",
            "1e+",
            "+1",
            "\"\\u+123\"",
            "{\"a\":1,}",
            "{,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.msg.contains("deep"), "{err}");
    }

    #[test]
    fn u64_extraction_is_exact_integers_only() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(2_000_000_000.0).render(), "2000000000");
        assert_eq!(Json::Num(1.5).render(), "1.5");
    }

    #[test]
    fn duplicate_keys_are_rejected_at_any_depth() {
        let err = Json::parse(r#"{"t":1,"n":0,"t":2}"#).unwrap_err();
        assert!(err.msg.contains(r#"duplicate key "t""#), "{err}");
        assert_eq!(err.offset, 13);
        assert!(Json::parse(r#"{"a":{"b":1,"b":1}}"#).is_err());
        // The same key in sibling objects is fine.
        assert!(Json::parse(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        assert_eq!(Json::parse("0").unwrap(), Json::Uint(0));
        assert_eq!(Json::parse("-0").unwrap(), Json::Num(0.0));
        assert_eq!(Json::parse("10").unwrap(), Json::Uint(10));
        assert_eq!(Json::parse("-2.5e-3").unwrap(), Json::Num(-2.5e-3));
        assert_eq!(Json::parse("1E2").unwrap(), Json::Num(100.0));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Num(0.5));
    }

    #[test]
    fn a_mebibyte_string_parses_in_linear_time() {
        // Quadratic copying took ~143 ms at 64 KiB in a release build and
        // grew ~4x per doubling; a linear scan is far inside a second at
        // 1 MiB even unoptimized.
        let body = r#"ab\u00e9c\""#.repeat(1 << 17) + &"x".repeat(1 << 19);
        let text = format!(r#"{{"s":"{body}"}}"#);
        assert!(text.len() > 1 << 20);
        let start = std::time::Instant::now();
        let v = Json::parse(&text).unwrap();
        let took = start.elapsed();
        let s = v.get("s").and_then(Json::as_str).unwrap();
        assert_eq!(s.len(), (1 << 17) * 6 + (1 << 19));
        assert!(s.starts_with("abéc\"ab"));
        assert!(took < std::time::Duration::from_secs(1), "{took:?}");
    }

    #[test]
    fn quote_is_the_renderers_escaping() {
        let s = "a\"b\\c\nd\r\t\u{1}é";
        assert_eq!(quote(s), Json::Str(s.to_string()).render());
        assert_eq!(quote(s), "\"a\\\"b\\\\c\\nd\\r\\t\\u0001é\"");
    }
}
