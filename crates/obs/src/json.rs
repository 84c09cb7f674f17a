//! A minimal hand-rolled JSON layer: a writer and a strict parser.
//!
//! The workspace deliberately avoids serde; every serialized artifact
//! (NDJSON trace lines, metrics reports, run manifests) goes through
//! [`JsonBuf`], which handles comma placement, string escaping, and
//! non-finite floats (serialized as `null` — the only deterministic
//! rendering, since JSON has no infinities). The inverse direction is
//! [`parse`], a strict recursive-descent parser used by the trace
//! reader: it follows the JSON grammar exactly, so bare `NaN` /
//! `Infinity` tokens and overflowing exponents are *rejected* with a
//! byte-positioned error instead of smuggling non-finite floats into
//! downstream analysis (Rust's `f64::from_str` would happily accept
//! them).
//!
//! Both directions are built for the per-line trace path: the writer
//! can append to a caller's reusable buffer ([`JsonBuf::appending`])
//! and formats numbers in place, and a parsed [`JsonValue`] borrows its
//! strings from the input, copying only strings that hold an escape.

use std::borrow::Cow;
use std::fmt::Write as _;

/// An append-only JSON document builder.
///
/// Objects and arrays are opened/closed explicitly; the builder tracks
/// whether a separator comma is needed at each nesting level. Scopes
/// nest at most 64 deep (deeper panics). Closing more than was opened
/// panics in debug builds and produces invalid JSON in release —
/// callers are internal and tested.
#[derive(Debug, Default)]
pub struct JsonBuf {
    out: String,
    /// One "needs a comma before the next item" bit per open scope, the
    /// innermost at bit `depth - 1`: a bit set rather than a stack, so
    /// rendering a document allocates nothing beyond `out` itself.
    commas: u64,
    depth: u32,
}

impl JsonBuf {
    /// Deepest scope nesting the builder tracks: one bit of `commas`
    /// per scope.
    const MAX_DEPTH: u32 = u64::BITS;

    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Continue at the end of `out`: [`JsonBuf::finish`] hands back
    /// `out` with the document appended, so one buffer can collect
    /// many documents without a fresh allocation for each.
    pub fn appending(out: String) -> Self {
        Self {
            out,
            ..Self::default()
        }
    }

    /// Consume the builder, returning the document (after whatever
    /// [`JsonBuf::appending`] started from).
    pub fn finish(self) -> String {
        debug_assert!(self.depth == 0, "unclosed JSON scopes");
        self.out
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// The innermost scope's comma bit (0 at top level).
    fn scope_bit(&self) -> u64 {
        match self.depth {
            0 => 0,
            d => 1 << (d - 1),
        }
    }

    fn sep(&mut self) {
        let bit = self.scope_bit();
        if self.commas & bit != 0 {
            self.out.push(',');
        }
        self.commas |= bit;
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.sep();
        self.out.push(bracket);
        assert!(self.depth < Self::MAX_DEPTH, "JSON nesting too deep");
        self.depth += 1;
        self.commas &= !self.scope_bit();
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        debug_assert!(self.depth > 0, "closing an unopened JSON scope");
        self.depth = self.depth.saturating_sub(1);
        self.out.push(bracket);
        self
    }

    /// Open an object as the next value.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Open an array as the next value.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Write an object key; the next write supplies its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        // The value that follows must not emit another comma.
        self.commas &= !self.scope_bit();
        self
    }

    /// Write a string value.
    pub fn str_val(&mut self, v: &str) -> &mut Self {
        self.sep();
        write_escaped(&mut self.out, v);
        self
    }

    /// Write an `f64` value (`null` when non-finite).
    pub fn f64_val(&mut self, v: f64) -> &mut Self {
        self.sep();
        if v.is_finite() {
            // `{:?}` prints the shortest representation that round-trips,
            // which is also valid JSON for finite values.
            let _ = write!(self.out, "{v:?}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Write a `u64` value.
    pub fn u64_val(&mut self, v: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Write an `i64` value.
    pub fn i64_val(&mut self, v: i64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Write a boolean value.
    pub fn bool_val(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Write a `null` value.
    pub fn null_val(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }

    /// Splice a pre-rendered JSON value (trusted to be valid).
    pub fn raw_val(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.out.push_str(v);
        self
    }

    // ---- key+value conveniences -------------------------------------

    /// `"k": "v"`.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).str_val(v)
    }

    /// `"k": 1.5`.
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).f64_val(v)
    }

    /// `"k": 7`.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).u64_val(v)
    }

    /// `"k": true`.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k).bool_val(v)
    }
}

/// Whether byte `b` may stand for itself inside a JSON string: all but
/// `"`, `\` and the control characters. No byte of a multi-byte UTF-8
/// scalar is ASCII, so those are all plain.
fn is_plain(b: u8) -> bool {
    b != b'"' && b != b'\\' && b >= 0x20
}

/// Escape `s` as a JSON string (with surrounding quotes) onto `out`.
/// Runs of characters that need no escape are copied in one piece.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if is_plain(b) {
            continue;
        }
        // Every byte that needs an escape is ASCII, so `i` is a char
        // boundary.
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

// ---------------------------------------------------------------------
// Parsing.

/// A parsed JSON value, borrowing from the text it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite: the parser rejects overflow).
    Num(f64),
    /// A non-negative integer token that fits `u64` — kept exact so
    /// values above 2^53 (e.g. 64-bit seeds) survive a round trip.
    Uint(u64),
    /// A string: a slice of the input unless it held an escape, in
    /// which case the decoded copy.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<JsonValue<'a>>),
    /// An object's members in input order, duplicate keys included
    /// ([`JsonValue::get`] resolves a duplicate to the last).
    Obj(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

impl JsonValue<'_> {
    /// Object member lookup; `None` for non-objects or missing keys. A
    /// duplicate key resolves to its last value.
    pub fn get(&self, key: &str) -> Option<&Self> {
        match self {
            Self::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (integers wider than the
    /// f64 mantissa round to the nearest representable float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(v) => Some(*v),
            Self::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Uint(n) => Some(*n),
            Self::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure with the byte offset (0-based column within the
/// parsed text) where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(s: &str) -> Result<JsonValue<'_>, JsonError> {
    let mut p = Parser {
        src: s,
        s: s.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.i,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .s
            .get(self.i)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| self.err("unexpected end of input"))
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek()? != b {
            return Err(self.err(format!("expected {:?}", b as char)));
        }
        self.i += 1;
        Ok(())
    }

    fn lit(&mut self, word: &str, v: JsonValue<'a>) -> Result<JsonValue<'a>, JsonError> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected literal {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue<'a>, JsonError> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.lit("true", JsonValue::Bool(true)),
            b'f' => self.lit("false", JsonValue::Bool(false)),
            b'n' => self.lit("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(self.err(format!("unexpected character {:?}", other as char))),
        }
    }

    fn object(&mut self) -> Result<JsonValue<'a>, JsonError> {
        self.eat(b'{')?;
        // Enough for every trace line's members in one allocation.
        let mut m = Vec::with_capacity(8);
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(JsonValue::Obj(m));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(self.err("expected string key"));
            }
            let k = self.string()?;
            self.eat(b':')?;
            m.push((k, self.value()?));
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue<'a>, JsonError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(JsonValue::Arr(v));
        }
        loop {
            v.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// A string token: borrowed when it holds no escape, decoded into
    /// a copy from the first escape on.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let start = self.i;
        self.skip_plain();
        // The scan stopped at an ASCII byte or the end, so both slice
        // bounds are char boundaries.
        if self.s.get(self.i) == Some(&b'"') {
            let text = &self.src[start..self.i];
            self.i += 1;
            return Ok(Cow::Borrowed(text));
        }
        let mut out = String::from(&self.src[start..self.i]);
        loop {
            let b = *self
                .s
                .get(self.i)
                .ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.i += 1;
                    return Ok(Cow::Owned(out));
                }
                b'\\' => {
                    self.i += 1;
                    let esc = *self
                        .s
                        .get(self.i)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.s[self.i..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.i += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        other => return Err(self.err(format!("bad escape \\{:?}", other as char))),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    let run = self.i;
                    self.skip_plain();
                    out.push_str(&self.src[run..self.i]);
                }
            }
        }
    }

    /// Advance over string bytes that need no decoding.
    fn skip_plain(&mut self) {
        while self.s.get(self.i).is_some_and(|&b| is_plain(b)) {
            self.i += 1;
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.i + 4;
        let hex = self
            .src
            .get(self.i..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.i = end;
        Ok(v)
    }

    /// Parse a number following the JSON grammar exactly — so `NaN`,
    /// `Infinity`, `01`, `.5`, and `1.` are all rejected — then refuse
    /// any value that overflows to an infinity.
    fn number(&mut self) -> Result<JsonValue<'a>, JsonError> {
        let start = self.i;
        let negative = self.s.get(self.i) == Some(&b'-');
        if negative {
            self.i += 1;
        }
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.s.get(self.i) {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => {
                while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
                    self.i += 1;
                }
            }
            _ => return Err(self.err("malformed number")),
        }
        let integral = !matches!(self.s.get(self.i), Some(b'.' | b'e' | b'E'));
        if self.s.get(self.i) == Some(&b'.') {
            self.i += 1;
            if !self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
                return Err(self.err("digits required after decimal point"));
            }
            while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
                self.i += 1;
            }
        }
        if matches!(self.s.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.s.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
                return Err(self.err("digits required in exponent"));
            }
            while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
                self.i += 1;
            }
        }
        // The token is ASCII, so its bounds are char boundaries.
        let text = &self.src[start..self.i];
        // A plain non-negative integer token that fits u64 stays exact.
        if !negative && integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::Uint(n));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(format!("unparseable number {text:?}")))?;
        if !v.is_finite() {
            return Err(self.err(format!("number {text:?} overflows to a non-finite float")));
        }
        Ok(JsonValue::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document_renders() {
        let mut j = JsonBuf::new();
        j.begin_obj()
            .field_str("name", "run")
            .field_u64("seed", 42)
            .key("tails")
            .begin_arr()
            .f64_val(1.0)
            .f64_val(0.5)
            .end_arr()
            .key("inner")
            .begin_obj()
            .field_bool("ok", true)
            .end_obj()
            .end_obj();
        assert_eq!(
            j.finish(),
            r#"{"name":"run","seed":42,"tails":[1.0,0.5],"inner":{"ok":true}}"#
        );
    }

    #[test]
    fn every_scope_up_to_max_depth_keeps_its_own_commas() {
        let mut j = JsonBuf::appending("prefix ".to_owned());
        for _ in 0..JsonBuf::MAX_DEPTH {
            j.begin_arr().u64_val(1);
        }
        for _ in 0..JsonBuf::MAX_DEPTH {
            j.end_arr().u64_val(2);
        }
        let deeper = JsonBuf::MAX_DEPTH as usize - 1;
        let nested = format!("[1{}{}]", ",[1".repeat(deeper), "],2".repeat(deeper));
        // The last `2` follows the outermost array at top level.
        assert_eq!(j.finish(), format!("prefix {nested}2"));
        assert!(parse(&nested).is_ok());
    }

    #[test]
    #[should_panic(expected = "JSON nesting too deep")]
    fn nesting_past_max_depth_panics() {
        let mut j = JsonBuf::new();
        for _ in 0..=JsonBuf::MAX_DEPTH {
            j.begin_obj();
        }
    }

    #[test]
    fn escaping_covers_specials_and_controls() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001f""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut j = JsonBuf::new();
        j.begin_obj()
            .field_f64("inf", f64::INFINITY)
            .field_f64("nan", f64::NAN)
            .field_f64("x", 0.25)
            .end_obj();
        assert_eq!(j.finish(), r#"{"inf":null,"nan":null,"x":0.25}"#);
    }

    #[test]
    fn float_formatting_round_trips_and_is_json() {
        for v in [0.9, 1e-12, 3.541, 123456789.0, -0.0, 2e300] {
            let mut j = JsonBuf::new();
            j.f64_val(v);
            let s = j.finish();
            match parse(&s).unwrap() {
                JsonValue::Num(parsed) => assert_eq!(parsed, v, "{s}"),
                other => panic!("expected number for {s}, got {other:?}"),
            }
        }
    }

    #[test]
    fn parser_accepts_a_full_document() {
        let v = parse(r#" {"a":[1,2.5,-3e2,true,null],"b":"x\n\u0041","c":{"d":false}} "#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &JsonValue::Arr(vec![
                JsonValue::Uint(1),
                JsonValue::Num(2.5),
                JsonValue::Num(-300.0),
                JsonValue::Bool(true),
                JsonValue::Null,
            ])
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\nA"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn parser_rejects_non_finite_numbers() {
        // Bare NaN/Infinity tokens are not JSON; overflowing exponents
        // would round to infinity. All must fail instead of producing
        // non-finite floats (this was a panic path for adversarial
        // traces before the strict parser existed).
        for bad in [
            "NaN",
            "Infinity",
            "-Infinity",
            "inf",
            "1e999",
            "-1e999",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        for bad in [r#"{"t":NaN}"#, r#"{"t":1e999}"#, "[inf]"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parser_rejects_malformed_grammar() {
        for bad in [
            "",
            "{",
            "[1,",
            "01",
            ".5",
            "1.",
            "1e",
            "+1",
            "tru",
            "\"unterminated",
            "{\"a\":1,}",
            "[1 2]",
            "{'a':1}",
            "1 2",
            "\"\\q\"",
            "\"\x01\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parser_reports_error_offsets() {
        let err = parse(r#"{"a": nope}"#).unwrap_err();
        assert_eq!(err.offset, 6, "{err}");
        assert!(err.to_string().contains("byte 6"), "{err}");
    }

    #[test]
    fn parser_handles_unicode_and_surrogate_pairs() {
        assert_eq!(
            parse(r#""\ud83d\ude00 π""#).unwrap().as_str(),
            Some("\u{1F600} π")
        );
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn u64_accessor_is_strict() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
