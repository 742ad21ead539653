//! A minimal JSON value: emit and parse, no external dependencies.
//!
//! Exists so the self-profile a sweep writes can be validated and
//! round-tripped without pulling a serde stack into an offline build.
//! The emitter is canonical enough for byte-stable structure: object
//! keys keep insertion order (callers insert deterministically),
//! integers print exactly ([`Json::Int`] is `i128`, wide enough for
//! histogram sums), and floats print Rust's shortest round-trip form,
//! written by [`num`] — so `parse(emit(v)) == v` bit-for-bit, which
//! the proptest suite checks.

use std::fmt::Write as _;

use crate::num;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i128),
    /// Any other number. Non-finite values emit as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved (insertion order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs (order preserved).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i128` if it is an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|v| u64::try_from(v).ok())
    }

    /// The value as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => match u64::try_from(*v) {
                Ok(u) => num::push_u64(s, u),
                // Negative or wider than u64: rare in what we emit.
                Err(_) => {
                    let _ = write!(s, "{v}");
                }
            },
            Json::Float(v) => {
                if v.is_finite() {
                    // The shortest string that parses back to the same
                    // f64, in decimal (the bytes of `{}`); a whole
                    // number gets `.0` so the parser reads it back as
                    // Float.
                    let start = s.len();
                    num::push_f64_display(s, *v);
                    if !s[start..].contains('.') {
                        s.push_str(".0");
                    }
                } else {
                    s.push_str("null");
                }
            }
            Json::Str(v) => write_escaped(s, v),
            Json::Arr(items) => {
                s.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    it.write(s);
                }
                s.push(']');
            }
            Json::Obj(pairs) => {
                s.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    write_escaped(s, k);
                    s.push(':');
                    v.write(s);
                }
                s.push('}');
            }
        }
    }

    /// Parse a JSON document. Errors carry a byte offset and message.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Compact serialization (no whitespace); `to_string()` is canonical —
/// byte-stable for a given value.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_escaped(s: &mut String, v: &str) {
    s.push('"');
    for ch in v.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogate pairs are not needed for our own
                        // output (we never escape above U+001F).
                        out.push(char::from_u32(code).ok_or("bad \\u code".to_string())?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "bad UTF-8".to_string())?;
                let ch = rest.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("bad number at byte {start}"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number `{text}`"))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| format!("bad number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_parse_scalars() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Int(0), "0"),
            (Json::Int(-42), "-42"),
            (
                Json::Int(i128::MAX),
                "170141183460469231731687303715884105727",
            ),
            (Json::Str("a\"b\\c\nd".into()), "\"a\\\"b\\\\c\\nd\""),
        ] {
            assert_eq!(v.to_string(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.5, 1.0 / 3.0, 1e300, -2.2250738585072014e-308, 123.456] {
            let s = Json::Float(v).to_string();
            match Json::parse(&s).unwrap() {
                Json::Float(back) => assert_eq!(back.to_bits(), v.to_bits(), "{s}"),
                other => panic!("expected float from `{s}`, got {other:?}"),
            }
        }
        // Whole-number floats keep their floatness through the trip.
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
        // Non-finite becomes null.
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj(vec![
            ("name", Json::Str("sweep".into())),
            ("runs", Json::Arr(vec![Json::Int(1), Json::Float(2.5)])),
            ("meta", Json::obj(vec![("ok", Json::Bool(true))])),
        ]);
        let s = v.to_string();
        assert_eq!(
            s,
            "{\"name\":\"sweep\",\"runs\":[1,2.5],\"meta\":{\"ok\":true}}"
        );
        assert_eq!(Json::parse(&s).unwrap(), v);
        assert_eq!(v.get("name").unwrap().as_str(), Some("sweep"));
        assert_eq!(v.get("runs").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap(),
            Json::obj(vec![("a", Json::Arr(vec![Json::Int(1), Json::Int(2)]))])
        );
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("tru").is_err());
    }

    #[test]
    fn unicode_survives() {
        let v = Json::Str("héllo → wörld".into());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }
}
