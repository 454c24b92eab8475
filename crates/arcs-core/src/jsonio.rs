//! Minimal std-only JSON reader/writer for the wire protocol.
//!
//! The daemon's request schema (see [`crate::request`]) travels as JSON
//! inside length-prefixed frames, and the container has no network access
//! to pull in `serde`, so this module hand-rolls the small JSON subset the
//! wire needs:
//!
//! - a [`Json`] value tree (null / bool / f64 / string / array / object
//!   with insertion-ordered keys),
//! - a pull [`Reader`]: typed primitives (`begin_object` / `key`,
//!   `begin_array` / `next_element`, `number`, `bool`, `string`,
//!   `skip_value`) that let a decoder read a document straight into its
//!   own types without building a tree. Keys and strings that hold no
//!   escape borrow from the input. [`parse`] builds the tree from the same
//!   primitives, so the number grammar, the escapes, [`MAX_DEPTH`] and the
//!   byte-offset [`JsonError`]s exist once. Neither panics on malformed
//!   input, which the wire-protocol proptests depend on,
//! - writers: [`Json`]'s `Display` (`to_string`) for a tree, and
//!   [`write_number`] for encoders that print their own types (the
//!   served query reply).
//!   Numbers use Rust's shortest round-trip float formatting, so every
//!   finite `f64` survives a serialize → parse cycle bit-identically;
//!   integral values below 2^53 take an integer path that prints the same
//!   digits. Strings are copied a run of plain bytes at a time. (A served
//!   query result holds integers only; its decoder rebuilds the rules'
//!   measures from them, see [`crate::request::query_result_to_json`].)
//!
//! Non-finite floats (`NaN`, `±inf`) have no JSON representation; the
//! writer emits `null` for them, and the pipeline never produces them in
//! wire-visible fields.

use std::borrow::Cow;
use std::fmt;

/// Maximum nesting depth [`parse`] accepts before rejecting the document.
///
/// Wire payloads are a few levels deep at most; the limit exists so a
/// hostile frame full of `[[[[…` cannot overflow the parser's stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Objects keep their keys in insertion order (a `Vec` of pairs, not a
/// map): canonical encodings such as [`crate::serve::ClusterSpec`]'s cache
/// token rely on a stable field order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`parse`] on malformed input.
///
/// Carries the byte offset where parsing failed and a static description
/// of what was wrong — enough for the daemon to surface a typed
/// `PROTOCOL` error naming the offending position.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up a key in an object value; `None` for missing keys or
    /// non-object values.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a number that is a non-negative
    /// integer exactly representable in an `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The value as a `usize` (via [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a bool if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Serializes the value to compact JSON text (no whitespace) via
/// `to_string`.
///
/// Finite numbers use Rust's shortest round-trip formatting; integral
/// values print without a fractional part (`3`, not `3.0`), and both
/// forms parse back to the identical `f64`. Non-finite numbers emit
/// `null`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out);
        f.write_str(&out)
    }
}

/// `n` as a `u64` when it is a non-negative integer no larger than 2^53,
/// the range in which an `f64` holds every integer exactly. Shared by
/// [`Json::as_u64`] and decoders that read numbers through a [`Reader`].
pub fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= INTEGER_LIMIT).then_some(n as u64)
}

/// Convenience constructor: a JSON object from key/value pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (key, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

/// Appends the JSON text of `n`: exactly what `format!("{n}")` prints for
/// a finite `n` (the shortest string that parses back to the same bits,
/// never in exponent form), and `null` for a non-finite one.
pub fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n.fract() == 0.0 && n.abs() < INTEGER_LIMIT {
        write_integer(n, out);
        return;
    }
    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
}

/// Integral floats below this magnitude (2^53) convert to `u64` exactly,
/// so [`write_number`] prints them without the float formatter.
const INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Prints an integral `n` with `|n| < 2^53` as its decimal digits, signed
/// like the float formatter (`-0.0` prints `-0`).
fn write_integer(n: f64, out: &mut String) {
    let mut rest = n.abs() as u64;
    let mut digits = [0u8; 16];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n.is_sign_negative() {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Appends `s` as a JSON string literal. Runs of bytes that need no escape
/// are copied with one `push_str` each.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte != b'"' && byte != b'\\' && byte >= 0x20 {
            continue;
        }
        // Every byte that needs an escape is ASCII, so `run..i` lies on
        // char boundaries.
        out.push_str(&s[run..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{byte:04x}"));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses a JSON document from text.
///
/// Accepts exactly one top-level value (trailing whitespace allowed,
/// trailing garbage rejected). Never panics: every malformed input —
/// truncated, over-deep, bad escapes, invalid UTF-16 surrogates, trailing
/// bytes — produces a [`JsonError`] with the failing byte offset.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// The kind of the value at a [`Reader`]'s cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A pull reader over one JSON document: the primitives [`parse`] is
/// built from, for decoders that read straight into their own types.
///
/// Each value primitive skips leading whitespace, then consumes one value
/// of its kind or fails with a [`JsonError`] at the offending byte. An
/// object is read as [`begin_object`](Reader::begin_object), then
/// [`key`](Reader::key) followed by exactly one value per member until
/// `key` returns `None`; an array as
/// [`begin_array`](Reader::begin_array), then one value per `true` from
/// [`next_element`](Reader::next_element). [`finish`](Reader::finish)
/// rejects anything after the top-level value.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers opened and not yet closed.
    depth: usize,
    /// The cursor sits right after a `{` or `[`, where no `,` may come.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's top-level value.
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0, depth: 0, first: false }
    }

    /// Rejects anything but whitespace after the top-level value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// The kind of the next value, read from its first byte.
    pub fn kind(&mut self) -> Result<Kind, JsonError> {
        Ok(match self.start()? {
            b'n' => Kind::Null,
            b't' | b'f' => Kind::Bool,
            b'"' => Kind::Str,
            b'[' => Kind::Arr,
            b'{' => Kind::Obj,
            b'-' | b'0'..=b'9' => Kind::Num,
            _ => return Err(self.err("unexpected character")),
        })
    }

    /// Reads the next value with `read` when it is of `kind`; otherwise
    /// skips it and returns `None` — the reader's form of the tree's
    /// `Json::as_*` accessors.
    pub fn read_if<T>(
        &mut self,
        kind: Kind,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        if self.kind()? == kind {
            read(self).map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }

    /// Consumes `null`.
    fn null(&mut self) -> Result<(), JsonError> {
        match self.start()? {
            b'n' => self.literal("null"),
            _ => Err(self.err("expected null")),
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.start()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            _ => Err(self.err("expected a boolean")),
        }
    }

    /// Reads a number. Values that overflow `f64` are errors.
    pub fn number(&mut self) -> Result<f64, JsonError> {
        if !matches!(self.start()?, b'-' | b'0'..=b'9') {
            return Err(self.err("expected a number"));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one or more digits, no leading zeros beyond "0".
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
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
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(JsonError { offset: start, message: "number out of range" }),
        }
    }

    /// Reads a string, borrowed from the input when it holds no escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.start()?;
        self.string_body()
    }

    /// Consumes the `{` that opens an object.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{', "expected '{'")
    }

    /// The next member's key, leaving the cursor before its value, or
    /// `None` once the object's closing `}` is consumed.
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if !self.first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if !self.first => return Err(self.err("expected ',' or '}' in object")),
            _ => {}
        }
        self.first = false;
        let key = self.string_body()?;
        self.skip_ws();
        self.expect(b':', "expected ':' after object key")?;
        Ok(Some(key))
    }

    /// Consumes the `[` that opens an array.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[', "expected '['")
    }

    /// `true` when another element follows (read it next), `false` once
    /// the array's closing `]` is consumed.
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(b',') if !self.first => {
                self.pos += 1;
                Ok(true)
            }
            _ if !self.first => Err(self.err("expected ',' or ']' in array")),
            _ => {
                self.first = false;
                Ok(true)
            }
        }
    }

    /// Consumes the next value of any kind, checking it as strictly as
    /// [`parse`] would.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.kind()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Str => self.string().map(drop),
            Kind::Arr => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Obj => {
                self.begin_object()?;
                while self.key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }

    /// Reads the next value as a tree.
    fn value(&mut self) -> Result<Json, JsonError> {
        Ok(match self.kind()? {
            Kind::Null => {
                self.null()?;
                Json::Null
            }
            Kind::Bool => Json::Bool(self.bool()?),
            Kind::Num => Json::Num(self.number()?),
            Kind::Str => Json::Str(self.string()?.into_owned()),
            Kind::Arr => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Json::Arr(items)
            }
            Kind::Obj => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.key()? {
                    let value = self.value()?;
                    pairs.push((key.into_owned(), value));
                }
                Json::Obj(pairs)
            }
        })
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace before a value and returns the value's first
    /// byte, rejecting values nested deeper than [`MAX_DEPTH`].
    fn start(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.peek().ok_or_else(|| self.err("unexpected end of input"))
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, text: &'static str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn open(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        self.start()?;
        self.expect(byte, message)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Consumes a container's closing byte. The enclosing container, if
    /// any, now holds at least this one value, so it is past its first.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.first = false;
    }

    /// Reads a string literal from its opening quote. Runs of plain bytes
    /// are copied with one `push_str` each, and only when an escape forces
    /// an owned string.
    fn string_body(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let text = self.text;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            let stop = text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let Some(stop) = stop else {
                self.pos = text.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += stop;
            // The stop byte is ASCII, so `run..pos` lies on char boundaries.
            let plain = &text[run..self.pos];
            match text.as_bytes()[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(plain),
                        Some(mut out) => {
                            out.push_str(plain);
                            Cow::Owned(out)
                        }
                    });
                }
                b'\\' => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'u') => {
                            self.pos += 1;
                            self.unicode_escape()?
                        }
                        escaped => {
                            let c = match escaped {
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
                            c
                        }
                    };
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(plain);
                    out.push(c);
                    run = self.pos;
                }
                _ => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (the `\u` itself already
    /// consumed), combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            Err(self.err("unpaired high surrogate"))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(self.err("unpaired low surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex digit in unicode escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        let doc = obj(vec![
            ("op", Json::Str("query".into())),
            ("support", Json::Num(0.017_345_678_912_345)),
            ("count", Json::Num(42.0)),
            ("neg", Json::Num(-0.0)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("arr", Json::Arr(vec![Json::Num(1.0), Json::Str("a\"b\\c\nd".into())])),
        ]);
        let text = doc.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);

        // Strings whose escapes sit at either end of a plain run, next to
        // multi-byte UTF-8, every control character, and a CSV payload of
        // the size an `append` carries.
        let controls: String = (0u8..0x20).map(char::from).collect();
        let csv: String = (0..1000)
            .map(|i| format!("{i},{}.5,\"grp {}\",caf\u{e9}\t\u{1F600}\n", i * 7, i % 3))
            .collect();
        for s in [
            "",
            "\"",
            "\"plain\"",
            "\\lead",
            "trail\n",
            "\u{e9}\n\u{65e5}",
            "\t\u{1F600}\"\u{1F600}\\",
            "a\u{7f}b/\u{2028}",
            &controls,
            &csv,
        ] {
            let text = Json::Str(s.to_string()).to_string();
            assert_eq!(parse(&text).unwrap().as_str(), Some(s), "{text}");
            // The run-copying writer must print what a per-char escaper does.
            let mut want = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => want.push_str("\\\""),
                    '\\' => want.push_str("\\\\"),
                    '\n' => want.push_str("\\n"),
                    '\r' => want.push_str("\\r"),
                    '\t' => want.push_str("\\t"),
                    c if (c as u32) < 0x20 => want.push_str(&format!("\\u{:04x}", c as u32)),
                    c => want.push(c),
                }
            }
            want.push('"');
            assert_eq!(text, want);
        }
    }

    #[test]
    fn floats_survive_bit_identically() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -2.2250738585072014e-308,
            // The f64 immediately below 0.3: needs all 17 digits.
            f64::from_bits(0.3f64.to_bits() - 1),
            1e15 + 1.0,
            // The edges of the integer path.
            -0.0,
            0.0,
            9_007_199_254_740_991.0,
            -9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            -9_007_199_254_740_994.0,
            1e300,
            -4_294_967_296.0,
        ] {
            let text = Json::Num(x).to_string();
            assert_eq!(text, format!("{x}"));
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "nul",
            "tru",
            "01",
            "1.",
            "1e",
            "-",
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "1 2",
            "[\"\u{1}\"]",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
            let mut reader = Reader::new(bad);
            assert!(
                reader.skip_value().and_then(|()| reader.finish()).is_err(),
                "reader should reject {bad:?}"
            );
        }
    }

    #[test]
    fn accepts_nested_up_to_limit_and_rejects_beyond() {
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn reader_reads_members_in_place_and_borrows_plain_keys() {
        let text = r#" {"n": -2.5, "k\u0021": [true, null, {}], "s": "x\ty", "z": 7} "#;
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        let key = r.key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("n")));
        assert_eq!(r.number().unwrap(), -2.5);
        let key = r.key().unwrap().unwrap();
        assert!(matches!(&key, Cow::Owned(k) if k == "k!"));
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert!(r.bool().unwrap());
        assert!(r.next_element().unwrap());
        assert_eq!(r.read_if(Kind::Num, Reader::number).unwrap(), None);
        assert!(r.next_element().unwrap());
        r.skip_value().unwrap();
        assert!(!r.next_element().unwrap());
        assert_eq!(r.key().unwrap().as_deref(), Some("s"));
        assert_eq!(r.string().unwrap(), "x\ty");
        assert_eq!(r.key().unwrap().as_deref(), Some("z"));
        assert_eq!(r.kind().unwrap(), Kind::Num);
        assert_eq!(r.read_if(Kind::Num, Reader::number).unwrap(), Some(7.0));
        assert_eq!(r.key().unwrap(), None);
        r.finish().unwrap();

        // A typed read of the wrong kind is an error at the value's offset.
        let mut r = Reader::new(r#"{"a": "1"}"#);
        r.begin_object().unwrap();
        r.key().unwrap();
        assert_eq!(r.number().unwrap_err().offset, 6);
    }

    #[test]
    fn surrogate_pairs_and_escapes_decode() {
        let v = parse(r#""\ud83d\ude00 \u0041\t/""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1F600} A\t/");
    }

    #[test]
    fn object_lookup_and_typed_accessors() {
        let v = parse(r#"{"n": 3, "s": "x", "b": false, "a": [1], "z": null}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("z"), Some(&Json::Null));
        assert!(v.get("missing").is_none());
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
