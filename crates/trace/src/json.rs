//! A tiny deterministic JSON value, writer and reader.
//!
//! The batch report must be byte-identical across runs and thread counts,
//! so rather than depend on an (unavailable) serde stack we build the
//! document explicitly: object members keep insertion order, floats print
//! through Rust's shortest-roundtrip `Display` (stable for equal bit
//! patterns), and strings are escaped per RFC 8259. The reader side
//! ([`Json::parse`]) exists for the artifacts and wire messages we consume
//! back: checked-in baselines, Chrome-trace validation, and the shard and
//! serve protocols.
//!
//! **Codecs.** A type encodes through `From<&T> for Json` (or `From<T>`)
//! and decodes through [`FromJson`]; the field accessors [`Json::req`] and
//! [`Json::opt`] decode one object member each. Integers decode with a
//! range check (a negative value is an error for an unsigned type), and a
//! full-range `u64` such as a store key travels as [`Hex`], since JSON
//! integers here stop at `i64::MAX`. Finite floats need nothing special:
//! the writer prints the shortest decimal that round-trips, so a decoded
//! `f64` has the bits that were encoded.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// integer (i64 covers every counter we emit; u64 counters are
    /// range-checked on construction)
    Int(i64),
    /// finite float; non-finite values serialize as `null`
    Float(f64),
    /// string
    Str(String),
    /// array
    Arr(Vec<Json>),
    /// object with insertion-ordered members
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a member to an object (panics on non-objects — builder use
    /// only).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            _ => panic!("field() on non-object"),
        }
        self
    }

    /// Append a member only when `value` is `Some` (builder use only).
    pub fn field_opt(self, key: &str, value: Option<impl Into<Json>>) -> Json {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// An array of each item's encoding.
    pub fn arr<I>(items: I) -> Json
    where
        I: IntoIterator,
        I::Item: Into<Json>,
    {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Append every member of the object `more` (builder use only).
    pub fn extend(mut self, more: Json) -> Json {
        match (&mut self, more) {
            (Json::Obj(members), Json::Obj(more)) => members.extend(more),
            _ => panic!("extend() on non-objects"),
        }
        self
    }

    /// Serialize with two-space indentation, deterministically.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parse a JSON document. The whole input must be consumed (modulo
    /// trailing whitespace); errors carry a byte offset. Arrays and objects
    /// may nest at most [`MAX_DEPTH`] deep, so hostile input cannot exhaust
    /// the stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Decode the required member `key`.
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        T::from_json(v).map_err(|e| format!("field `{key}`: {e}"))
    }

    /// Decode the optional member `key`: absent or `null` is `None`.
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => T::from_json(v)
                .map(Some)
                .map_err(|e| format!("field `{key}`: {e}")),
        }
    }

    /// Member lookup on objects (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric payload widened to f64 (integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (k, it) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    it.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (k, (key, val)) in members.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    val.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (k, it) in items.iter().enumerate() {
                    if k > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    it.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (k, (key, val)) in members.iter().enumerate() {
                    if k > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    val.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Compact (no whitespace), deterministic serialization; `to_string()`
/// comes with it.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// How deep arrays and objects may nest in a parsed document.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[' | b'{') => {
                self.depth += 1;
                let v = self.container();
                self.depth -= 1;
                v
            }
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn container(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value()?;
                    members.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            _ => unreachable!("container() is entered on '[' or '{{'"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| format!("unterminated string at byte {}", self.pos))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("dangling escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: decode \uD800-\uDBFF followed
                            // by \uDC00-\uDFFF; lone surrogates become U+FFFD.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let full =
                                        0x10000 + ((cp - 0xd800) << 10) + (lo.wrapping_sub(0xdc00));
                                    char::from_u32(full).unwrap_or('\u{fffd}')
                                } else {
                                    '\u{fffd}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => {
                    // Re-decode from the underlying UTF-8 for multi-byte chars.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let rest = &self.bytes[start..];
                        let s = std::str::from_utf8(rest)
                            .map_err(|_| format!("invalid utf-8 at byte {start}"))?;
                        let c = s.chars().next().unwrap();
                        out.push(c);
                        self.pos = start + c.len_utf8();
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(format!("short \\u escape at byte {}", self.pos));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            s.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number at byte {start}"))
        } else {
            s.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // Display prints the shortest representation that round-trips; force a
    // decimal point so integral floats stay floats on re-read.
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(i64::try_from(v).expect("counter exceeds i64::MAX"))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(i64::try_from(v).expect("counter exceeds i64::MAX"))
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// A full-range `u64` (a store key, a fingerprint, a trace id)
/// on the wire: exactly 16 lowercase hex digits, the form trace ids take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hex(pub u64);

impl From<Hex> for Json {
    fn from(h: Hex) -> Json {
        Json::Str(format!("{:016x}", h.0))
    }
}

impl FromJson for Hex {
    fn from_json(j: &Json) -> Result<Hex, String> {
        match j.as_str() {
            Some(s) if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) => {
                u64::from_str_radix(s, 16)
                    .map(Hex)
                    .map_err(|e| e.to_string())
            }
            _ => Err("expected 16 hex digits".into()),
        }
    }
}

/// Decoding from a [`Json`] value: the one decode trait. Encoding goes
/// through `Into<Json>`.
pub trait FromJson: Sized {
    /// Decode `j`, or say what is wrong with it.
    fn from_json(j: &Json) -> Result<Self, String>;
}

macro_rules! int_from_json {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<$t, String> {
                let i = j.as_i64().ok_or("expected an integer")?;
                <$t>::try_from(i).map_err(|_| format!("{i} is out of range"))
            }
        }
    )*};
}
int_from_json!(u8, u32, u64, usize, i64);

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<bool, String> {
        match j {
            Json::Bool(b) => Ok(*b),
            _ => Err("expected a boolean".into()),
        }
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<String, String> {
        j.as_str()
            .map(str::to_string)
            .ok_or("expected a string".into())
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<f64, String> {
        j.as_f64().ok_or("expected a number".into())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Vec<T>, String> {
        let items = j.as_arr().ok_or("expected an array")?;
        items
            .iter()
            .enumerate()
            .map(|(k, it)| T::from_json(it).map_err(|e| format!("[{k}]: {e}")))
            .collect()
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Option<T>, String> {
        match j {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_shape() {
        let j = Json::obj()
            .field("name", "kernel1")
            .field("cycles", 1234u64)
            .field("speedup", 1.5f64)
            .field("ms", Json::Null)
            .field("flags", Json::Arr(vec![Json::Bool(true), Json::Int(-2)]));
        assert_eq!(
            j.to_string(),
            r#"{"name":"kernel1","cycles":1234,"speedup":1.5,"ms":null,"flags":[true,-2]}"#
        );
    }

    #[test]
    fn floats_keep_a_point_and_escape_works() {
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Str("a\"b\n".into()).to_string(), r#""a\"b\n""#);
    }

    #[test]
    fn pretty_is_stable() {
        let j = Json::obj().field("a", 1i64).field("b", Json::Arr(vec![]));
        let p = j.to_pretty();
        assert_eq!(p, "{\n  \"a\": 1,\n  \"b\": []\n}\n");
        assert_eq!(p, j.to_pretty());
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::obj()
            .field("name", "k\"1\n")
            .field("n", -42i64)
            .field("x", 1.5f64)
            .field("none", Json::Null)
            .field("ok", true)
            .field("xs", Json::Arr(vec![Json::Int(1), Json::Str("é".into())]));
        for text in [j.to_string(), j.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), j);
        }
    }

    #[test]
    fn parse_escapes_and_unicode() {
        assert_eq!(
            Json::parse(r#""aA\té😀""#.trim()).unwrap(),
            Json::Str("aA\té😀".into())
        );
        assert_eq!(
            Json::parse(" [ 1 , 2.5 ,\n true ] ").unwrap(),
            Json::Arr(vec![Json::Int(1), Json::Float(2.5), Json::Bool(true)])
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
        // the daemon's reported crash input: 20 000 bytes of '['
        assert!(Json::parse(&"[".repeat(20_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(20_000)).is_err());
    }

    #[test]
    fn decoders_check_types_and_ranges() {
        let j = Json::parse(r#"{"n":-1,"u":7,"s":"x","b":true,"f":0.30000000000000004,"z":null}"#)
            .unwrap();
        assert!(j.req::<u64>("n").unwrap_err().contains("out of range"));
        assert_eq!(j.req::<i64>("n"), Ok(-1));
        assert_eq!(j.req::<u8>("u"), Ok(7));
        assert_eq!(j.req::<String>("s"), Ok("x".to_string()));
        assert_eq!(j.req::<bool>("b"), Ok(true));
        assert_eq!(
            j.req::<f64>("f").unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(j.req::<Option<u64>>("z"), Ok(None));
        assert_eq!(j.opt::<u64>("missing"), Ok(None));
        assert_eq!(j.opt::<u64>("u"), Ok(Some(7)));
        assert!(j
            .req::<u64>("missing")
            .unwrap_err()
            .contains("missing field"));
        assert!(j.req::<bool>("s").is_err());
        assert!(Json::parse("[1,-2]").unwrap().req::<u64>("x").is_err());
        assert!(<Vec<u64>>::from_json(&Json::parse("[1,-2]").unwrap()).is_err());
        let v: Vec<u32> = vec![1, 2];
        assert_eq!(<Vec<u32>>::from_json(&Json::from(v.clone())), Ok(v));
    }

    #[test]
    fn hex_round_trips_the_full_u64_range() {
        for v in [0, 1, i64::MAX as u64, u64::MAX - 3, u64::MAX] {
            let text = Json::from(Hex(v)).to_string();
            assert_eq!(text.len(), 18, "{text}");
            assert_eq!(Hex::from_json(&Json::parse(&text).unwrap()), Ok(Hex(v)));
        }
        for bad in [
            r#""ff""#,
            r#""-000000000000001""#,
            "12",
            r#""000000000000000g""#,
        ] {
            assert!(Hex::from_json(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"a":{"b":[1,2]},"s":"x","f":2.5}"#).unwrap();
        assert_eq!(
            j.get("a")
                .and_then(|a| a.get("b"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(j.get("a").and_then(Json::as_i64), None);
    }
}
