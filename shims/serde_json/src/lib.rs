//! Vendored shim for the parts of `serde_json` this workspace uses:
//! `to_string`, `to_string_pretty`, `from_str`, and `Error`.
//!
//! Both directions are linear in the text: strings are copied a run at
//! a time between the bytes that need escaping, and a `Value` is
//! rendered and parsed without copying its tree. Like the real crate,
//! the parser refuses input nested more than 128 arrays or objects
//! deep with an [`error::Category::Syntax`] error ("recursion limit
//! exceeded"), so no input can exhaust the stack.

use std::fmt::{self, Write};

use serde::{Deserialize, Serialize, Value};

use error::Category;

/// Deepest array/object nesting the parser accepts (the real crate's
/// default recursion limit).
const MAX_DEPTH: usize = 128;

/// JSON serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error {
    category: Category,
    msg: String,
}

/// Error details, at the real crate's paths.
pub mod error {
    pub use super::Error;

    /// What kind of failure an [`Error`] is (the real crate's
    /// `serde_json::error::Category`, minus I/O).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Category {
        /// The input is not syntactically valid JSON, or nests deeper
        /// than the recursion limit.
        Syntax,
        /// The input is valid JSON but does not fit the target type.
        Data,
        /// The input ended in the middle of a value.
        Eof,
    }
}

impl Error {
    fn syntax(m: impl Into<String>) -> Error {
        Error {
            category: Category::Syntax,
            msg: m.into(),
        }
    }

    fn eof(m: impl Into<String>) -> Error {
        Error {
            category: Category::Eof,
            msg: m.into(),
        }
    }

    /// The kind of failure.
    pub fn classify(&self) -> Category {
        self.category
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error {
            category: Category::Data,
            msg: e.to_string(),
        }
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.as_value(), &mut out, 0, false);
    Ok(out)
}

/// Serializes `value` as 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.as_value(), &mut out, 0, true);
    Ok(out)
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        s,
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(Error::syntax(format!(
            "trailing characters at offset {}",
            p.i
        )));
    }
    Ok(T::from_owned_value(v)?)
}

fn write_value(v: &Value, out: &mut String, depth: usize, pretty: bool) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => write!(out, "{n}").expect("writing to a String"),
        Value::Int(n) => write!(out, "{n}").expect("writing to a String"),
        Value::Float(f) => {
            if f.is_finite() {
                write!(out, "{f}").expect("writing to a String");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1, pretty);
                write_value(item, out, depth + 1, pretty);
            }
            newline_indent(out, depth, pretty);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1, pretty);
                write_string(k, out);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(val, out, depth + 1, pretty);
            }
            newline_indent(out, depth, pretty);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, depth: usize, pretty: bool) {
    if pretty {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Writes `s` as a JSON string literal. Every byte that needs an
/// escape is ASCII, so the unescaped runs between them end on char
/// boundaries and are copied whole.
fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &c) in s.as_bytes().iter().enumerate() {
        let esc = match c {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            c if c < 0x20 => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match esc {
            Some(esc) => out.push_str(esc),
            None => {
                out.push_str("\\u00");
                out.push(HEX[(c >> 4) as usize] as char);
                out.push(HEX[(c & 0xf) as usize] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    /// The input; `b` is the same text as bytes.
    s: &'a str,
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), Error> {
        match self.peek() {
            Some(got) if got == c => {
                self.i += 1;
                Ok(())
            }
            Some(_) => Err(Error::syntax(format!(
                "expected `{}` at offset {}",
                c as char, self.i
            ))),
            None => Err(Error::eof(format!(
                "expected `{}` at end of input",
                c as char
            ))),
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), Error> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(Error::syntax(format!(
                "expected `{lit}` at offset {}",
                self.i
            )))
        }
    }

    /// Opens one array or object level, refusing past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::syntax(format!(
                "recursion limit exceeded at offset {}",
                self.i
            )));
        }
        self.i += 1;
        self.skip_ws();
        Ok(())
    }

    /// After an item: `,` continues the container, `close` ends it.
    fn item_end(&mut self, close: u8, what: &str) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.i += 1;
                Ok(false)
            }
            Some(c) if c == close => {
                self.i += 1;
                self.depth -= 1;
                Ok(true)
            }
            Some(_) => Err(Error::syntax(format!("bad {what} at offset {}", self.i))),
            None => Err(Error::eof(format!("unterminated {what}"))),
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.eat_lit("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_lit("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_lit("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.enter()?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    if self.item_end(b']', "array")? {
                        return Ok(Value::Array(items));
                    }
                }
            }
            Some(b'{') => {
                self.enter()?;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let val = self.parse_value()?;
                    fields.push((key, val));
                    if self.item_end(b'}', "object")? {
                        return Ok(Value::Object(fields));
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::syntax(format!(
                "unexpected {:?} at offset {}",
                c as char, self.i
            ))),
            None => Err(Error::eof("expected a value at end of input")),
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = &self.s[start..self.i];
        let bad = |e: &dyn fmt::Display| Error::syntax(format!("bad number `{text}`: {e}"));
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>().map(Value::Float).map_err(|e| bad(&e))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::Int).map_err(|e| bad(&e))
        } else {
            text.parse::<u64>().map(Value::UInt).map_err(|e| bad(&e))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash at once.
            // Both are ASCII, so the run ends on a char boundary of the
            // input, which is already valid UTF-8.
            let run = self.b[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or_else(|| Error::eof("unterminated string"))?;
            out.push_str(&self.s[self.i..self.i + run]);
            self.i += run + 1;
            if self.b[self.i - 1] == b'"' {
                return Ok(out);
            }
            out.push(self.parse_escape()?);
        }
    }

    /// Decodes the escape after a backslash.
    fn parse_escape(&mut self) -> Result<char, Error> {
        let c = self
            .peek()
            .ok_or_else(|| Error::eof("unterminated string"))?;
        self.i += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let code = self.parse_hex4()?;
                let scalar = if (0xD800..=0xDBFF).contains(&code) {
                    // UTF-16 surrogate pair: a conforming producer
                    // escapes non-BMP chars as \uHHHH\uLLLL.
                    if self.b.get(self.i..self.i + 2) != Some(&b"\\u"[..]) {
                        return Err(Error::syntax("unpaired high surrogate"));
                    }
                    self.i += 2;
                    let low = self.parse_hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(Error::syntax("invalid low surrogate"));
                    }
                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    code
                };
                char::from_u32(scalar).ok_or_else(|| Error::syntax("bad \\u code point"))?
            }
            other => {
                return Err(Error::syntax(format!("bad escape {:?}", other as char)));
            }
        })
    }

    /// Reads the 4 hex digits of a `\u` escape.
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .b
            .get(self.i..self.i + 4)
            .ok_or_else(|| Error::eof("truncated \\u escape"))?;
        let mut code = 0;
        for &h in hex {
            let d = (h as char)
                .to_digit(16)
                .ok_or_else(|| Error::syntax("bad \\u escape"))?;
            code = code << 4 | d;
        }
        self.i += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
        assert_eq!(from_str::<Vec<u8>>("[1, 2, 3]").unwrap(), vec![1, 2, 3]);
        assert_eq!(from_str::<Option<u8>>("null").unwrap(), None);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![1u64, u64::MAX];
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Vec<u64>>(&s).unwrap(), v);
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        // Conforming producers (including real serde_json with
        // ASCII-escaping) emit non-BMP chars as UTF-16 pairs.
        assert_eq!(from_str::<String>("\"\\ud83d\\ude00\"").unwrap(), "😀");
        assert!(from_str::<String>("\"\\ud83d\"").is_err()); // unpaired high
        assert!(from_str::<String>("\"\\ud83d\\u0041\"").is_err()); // bad low
        assert!(from_str::<String>("\"\\udc00\"").is_err()); // lone low
        assert!(from_str::<String>("\"\\ud83d\\ude0").is_err()); // truncated low
    }

    #[test]
    fn surrogate_pairs_next_to_raw_multibyte_runs() {
        assert_eq!(
            from_str::<String>("\"日😀\\ud83d\\ude00é\\ud83d\\ude00\"").unwrap(),
            "日😀😀é😀"
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{263a}".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn encoder_escapes_exactly_the_special_bytes() {
        let s = "é\"ü\\😀\n日\u{1f}\r\tz";
        let json = to_string(s).unwrap();
        assert_eq!(json, "\"é\\\"ü\\\\😀\\n日\\u001f\\r\\tz\"");
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn multibyte_runs_survive_escapes_at_every_boundary() {
        // Every 1-, 2-, 3- and 4-byte scalar width, with an escape (or
        // a string end) directly before and after each run.
        let runs = ["a", "é", "日本", "😀😀", "ab日é😀"];
        let escapes = ["\"", "\\", "\n", "\u{0}", "\u{1f}"];
        for run in runs {
            for esc in escapes {
                for s in [
                    format!("{run}{esc}"),
                    format!("{esc}{run}"),
                    format!("{esc}{run}{esc}{run}{esc}"),
                    run.to_string(),
                ] {
                    let json = to_string(&s).unwrap();
                    assert_eq!(from_str::<String>(&json).unwrap(), s, "{json}");
                }
            }
        }
        // \u escapes for multi-byte scalars, adjacent to raw ones.
        assert_eq!(
            from_str::<String>("\"\\u00e9é\\u65e5日\\\"😀\"").unwrap(),
            "éé日日\"😀"
        );
    }

    #[test]
    fn truncated_strings_are_errors() {
        for bad in ["\"abc", "\"abc\\", "\"\\u12", "\"é\\u00e", "\"😀\\"] {
            let err = from_str::<String>(bad).unwrap_err();
            assert_eq!(err.classify(), Category::Eof, "{bad}: {err}");
        }
        let err = from_str::<String>("\"\\q\"").unwrap_err();
        assert_eq!(err.classify(), Category::Syntax);
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.classify(), Category::Syntax);
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
        // Far past the cap, unterminated: still an error, not an abort.
        let err = from_str::<Value>(&"[".repeat(1_000_000)).unwrap_err();
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
        let objs = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(
            from_str::<Value>(&objs).unwrap_err().classify(),
            Category::Syntax
        );
        // Depth is nesting, not count: many siblings are fine.
        let wide = format!("[{}[]]", "[],".repeat(10 * MAX_DEPTH));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn data_errors_are_classified() {
        assert_eq!(
            from_str::<u8>("300").unwrap_err().classify(),
            Category::Data
        );
        assert_eq!(from_str::<u8>("[").unwrap_err().classify(), Category::Eof);
        assert_eq!(
            from_str::<u8>("1 2").unwrap_err().classify(),
            Category::Syntax
        );
    }

    #[test]
    fn value_trees_roundtrip() {
        let json = "{\"a\":[1,-2,3.5,null,true],\"b\":{\"c\":\"d\\u0001\"},\"e\":[]}";
        let v = from_str::<Value>(json).unwrap();
        assert_eq!(to_string(&v).unwrap(), json);
        assert_eq!(
            from_str::<Value>(&to_string_pretty(&v).unwrap()).unwrap(),
            v
        );
    }
}
