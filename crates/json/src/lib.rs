//! The workspace's one JSON module: a value type, its writer and its
//! parser. `mlp-experiments` writes reports with it; `mlp-stats`, the
//! surrogate corpus, `mlp-serve` and the benches read them back with it,
//! and `mlp-obs` escapes its JSONL events with it. It has no
//! dependencies, so any crate can use it.
//!
//! - **Writer** ([`Json::write`], [`write_str`]): `", "` between items,
//!   `": "` after keys, floats in Rust's shortest round-trip form and
//!   non-finite floats as `null` — the bytes the golden reports pin.
//! - **Parser** ([`parse`]): one pass, linear time, members in document
//!   order; a literal without `.` or exponent is [`Json::Int`] unless it
//!   overflows `i64`, everything else [`Json::Num`]. It is total: any
//!   input gives a value or a [`ParseError`] with a byte offset, never a
//!   panic, and nesting past [`MAX_DEPTH`] is an error, not a stack
//!   overflow.
//!
//! ```
//! use mlp_json::{parse, Json};
//!
//! let doc = parse(r#"{"mlp": 1.38, "rows": [1, 2]}"#).unwrap();
//! assert_eq!(doc.get("mlp").and_then(Json::as_f64), Some(1.38));
//! assert_eq!(doc.to_string(), r#"{"mlp": 1.38, "rows": [1, 2]}"#);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`parse`] accepts. Reports
/// nest five deep; the bound keeps hostile input from exhausting the
/// stack of a small (2 MiB) connection thread.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Object members keep insertion (or document) order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite float writes as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (written without a decimal point).
    Int(i64),
    /// A float, written in shortest round-trip form.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in order.
    Obj(Vec<(String, Json)>),
}

macro_rules! from_scalar {
    ($($t:ty => $variant:ident($conv:expr)),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant($conv(v))
            }
        }
    )*};
}

from_scalar! {
    bool => Bool(bool::from),
    i64 => Int(i64::from),
    u64 => Int(|v| v as i64),
    usize => Int(|v| v as i64),
    f64 => Num(f64::from),
    &str => Str(str::to_string),
    String => Str(String::from),
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(v: [T; N]) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// Member lookup on objects (linear, first match; objects are small).
    pub fn get(&self, key: &str) -> Option<&Json> {
        let members = self.as_obj()?;
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen, exactly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object members, in order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Appends the value's JSON text to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Appends `s` to `out` as a quoted JSON string: `"`, `\`, newline, tab
/// and carriage return get their short escapes, other control
/// characters `\u00XX`, and everything else passes through.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let short = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so these slices end on char boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        if short.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(short);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: what was wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser expected or rejected.
    pub message: &'static str,
    /// Byte offset of the offending input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        let offset = self.pos;
        ParseError { message, offset }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// One value; `depth` counts the containers already open around it.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err("nesting deeper than MAX_DEPTH"))
            }
            Some(b'[') => self.items(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'{') => self.items(b'}', |p| p.member(depth + 1)).map(Json::Obj),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The comma-separated items of the container opening here, through
    /// its `close` byte.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or the closing bracket"));
            }
        }
    }

    /// One `"key": value` object member.
    fn member(&mut self, depth: usize) -> Result<(String, Json), ParseError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string key"));
        }
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return Err(self.err("expected ':' after object key"));
        }
        Ok((key, self.value(depth)?))
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.err("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// A string whose opening quote is next. Unescaped runs are copied
    /// as whole slices, so each input byte is looked at once.
    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.err("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character an escape stands for; its backslash is consumed.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return Err(self.err("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits after `\u`, pairing surrogates.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.err("invalid unicode escape"))?;
            self.pos += 1;
        }
        Ok(code)
    }

    /// One or more decimal digits.
    fn digits(&mut self, message: &'static str) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(message));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// A number in the strict JSON grammar.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits("expected digit")?;
        }
        let fraction = self.eat(b'.');
        if fraction {
            self.digits("expected digit after '.'")?;
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits("expected exponent digit")?;
        }
        let literal = &self.text[start..self.pos];
        match literal.parse::<i64>() {
            Ok(i) if !fraction && !exponent => Ok(Json::Int(i)),
            // Magnitudes past the `f64` range read as infinities.
            _ => literal
                .parse()
                .map(Json::Num)
                .map_err(|_| self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(value: &Json) -> String {
        value.to_string()
    }

    #[test]
    fn writes_the_report_layout() {
        let value = Json::Arr(vec![
            Json::Null,
            Json::Bool(true),
            Json::Int(-3),
            Json::Num(1.38),
            Json::Num(f64::INFINITY),
            Json::Num(f64::NAN),
            Json::Str("a\"b\n".into()),
        ]);
        assert_eq!(
            text(&value),
            r#"[null, true, -3, 1.38, null, null, "a\"b\n"]"#
        );
        let obj = Json::Obj(vec![
            ("x".into(), Json::Num(0.1 + 0.2)),
            ("e".into(), Json::Obj(vec![])),
            ("a".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(
            text(&obj),
            r#"{"x": 0.30000000000000004, "e": {}, "a": []}"#
        );
        assert_eq!(text(&Json::Num(1.0)), "1");
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        write_str(&mut out, "q\"b\\n\nt\tr\r\u{1}\u{1f}\u{7f}é😀");
        assert_eq!(out, "\"q\\\"b\\\\n\\nt\\tr\\r\\u0001\\u001f\u{7f}é😀\"");
        assert_eq!(
            parse(&out).unwrap().as_str(),
            Some("q\"b\\n\nt\tr\r\u{1}\u{1f}\u{7f}é😀")
        );
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse("-1.5e2"), Ok(Json::Num(-150.0)));
        assert_eq!(parse(r#""a\nb\u0041""#), Ok(Json::Str("a\nbA".into())));
        let doc = parse(r#"{"a": 1, "b": [true, null, -2.5], "c": {"d": "x\ny"}}"#).unwrap();
        assert_eq!(doc.get("a"), Some(&Json::Int(1)));
        assert_eq!(
            doc.get("b").unwrap().as_arr().unwrap(),
            &[Json::Bool(true), Json::Null, Json::Num(-2.5)]
        );
        assert_eq!(
            doc.get("c").and_then(|c| c.get("d")).and_then(Json::as_str),
            Some("x\ny")
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Int(3).get("a"), None);
    }

    #[test]
    fn preserves_member_order_and_int_float_distinction() {
        let doc = parse(r#"{"z": 1, "a": 2, "m": 3.0, "e": 1e2}"#).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m", "e"]);
        assert_eq!(doc.get("z"), Some(&Json::Int(1)));
        assert_eq!(doc.get("m"), Some(&Json::Num(3.0)));
        assert_eq!(doc.get("e"), Some(&Json::Num(100.0)));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00""#).unwrap().as_str(),
            Some("é😀")
        );
        assert_eq!(parse(r#""\uD83D\uDE00""#).unwrap().as_str(), Some("😀"));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(parse(lone).is_err(), "{lone} must be rejected");
        }
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u00""#).is_err());
    }

    #[test]
    fn errors_carry_offsets() {
        assert_eq!(parse("{\"a\": }").unwrap_err().offset, 6);
        assert_eq!(parse("[1, 2").unwrap_err().offset, 5);
        assert_eq!(parse("1 2").unwrap_err().offset, 2);
        assert_eq!(parse("").unwrap_err().offset, 0);
        assert_eq!(parse("[1.]").unwrap_err().offset, 3);
        let err = parse("{\"a\" 1}").unwrap_err();
        assert_eq!(err.to_string(), "expected ':' after object key at byte 5");
    }

    #[test]
    fn big_u64_falls_back_to_float() {
        assert_eq!(parse("9223372036854775807"), Ok(Json::Int(i64::MAX)));
        assert_eq!(parse("-9223372036854775808"), Ok(Json::Int(i64::MIN)));
        // u64::MAX overflows i64; the magnitude survives as f64.
        assert_eq!(
            parse("18446744073709551615"),
            Ok(Json::Num(u64::MAX as f64))
        );
        assert_eq!(parse("1e999"), Ok(Json::Num(f64::INFINITY)));
    }

    #[test]
    fn rejects_hostile_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "[,1]",
            "1 trailing",
            "{\"a\"}",
            "{\"a\":1,}",
            "{1: 2}",
            "01",
            "-",
            "+1",
            ".5",
            "1e",
            "tru",
            "nul",
            "\"abc",
            "\"a\u{1}b\"",
            "\"\\x\"",
            "[1 2]",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&deep).unwrap_err().offset, MAX_DEPTH);
        let deep_obj = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep_obj).is_err());
    }

    #[test]
    fn accessors_check_the_variant() {
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Int(7).as_u64(), Some(7));
        assert_eq!(Json::Num(7.0).as_u64(), None);
        assert_eq!(Json::Int(7).as_f64(), Some(7.0));
        assert_eq!(Json::Str("x".into()).as_f64(), None);
        assert_eq!(Json::Null.as_str(), None);
        assert_eq!(Json::Null.as_arr(), None);
        assert_eq!(
            Json::from(vec![1u64, 2]),
            Json::Arr(vec![Json::Int(1), Json::Int(2)])
        );
        assert_eq!(Json::from(None::<f64>), Json::Null);
        assert_eq!(Json::from(["a"]), Json::Arr(vec![Json::Str("a".into())]));
    }
}
