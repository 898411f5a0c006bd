//! The workspace's one JSON value, canonical writer, and parser.
//!
//! Every document the stack emits — the `perf-smoke` run document, the
//! metrics dump, the critical-path report, the Chrome trace export — is
//! built as a [`Value`] and rendered by [`Value::to_pretty`], so they
//! share two properties a generic library would not guarantee:
//!
//! 1. **Byte-stable output** — object keys are emitted in insertion
//!    order (builders insert sorted or in a fixed order), floats use
//!    Rust's shortest-roundtrip `Display`, and there is exactly one
//!    layout, so the same numbers always produce the same bytes.
//! 2. **Exact numeric round-trip** — shortest-roundtrip printing parses
//!    back to the identical `f64`, so `write → parse → write` is the
//!    identity on bytes.
//!
//! JSON has no NaN or infinity: the writer panics on a non-finite
//! number (a harness bug, never data) and the parser rejects literals
//! that overflow to one.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::Num(x as f64)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Value {
        Value::Num(x as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl Value {
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Insert/overwrite a key on an object. Panics on non-objects.
    pub fn set(&mut self, key: impl Into<String>, val: impl Into<Value>) {
        let Value::Obj(entries) = self else {
            panic!("set() on non-object");
        };
        let (key, val) = (key.into(), val.into());
        match entries.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = val,
            None => entries.push((key, val)),
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Obj(entries) => entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => {
                assert!(x.is_finite(), "non-finite number {x} in a JSON document");
                let _ = write!(out, "{x}");
            }
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                let items = items.iter().map(|item| (None, item));
                write_members(out, indent, '[', ']', items);
            }
            Value::Obj(entries) => {
                let entries = entries.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, indent, '{', '}', entries);
            }
        }
    }
}

/// One member per line between `open` and `close`; `{}` / `[]` when
/// there are none.
fn write_members<'a>(
    out: &mut String,
    indent: usize,
    open: char,
    close: char,
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
) {
    out.push(open);
    let mut any = false;
    for (key, value) in members {
        if any {
            out.push(',');
        }
        any = true;
        push_line(out, indent + 1);
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 1);
    }
    if any {
        push_line(out, indent);
    }
    out.push(close);
}

fn push_line(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Deepest nesting [`parse`] accepts. Baselines are files from outside
/// the program; the documents this workspace writes nest 7 deep.
const MAX_DEPTH: usize = 64;

/// Parse a JSON document. Linear in the input; errors carry the byte
/// offset. `\u` escapes must name a scalar value (the writer emits them
/// for control characters only, so surrogate pairs are not decoded).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                let entry = |p: &mut Self| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                };
                self.members(b'}', entry).map(Value::Obj)
            }
            Some(b'[') => self.members(b']', |p| p.value(depth + 1)).map(Value::Arr),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn keyword(&mut self, word: &str, val: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            Ok(_) => Err(format!("non-finite number {text:?} at byte {start}")),
            Err(e) => Err(format!("bad number {text:?} at byte {start}: {e}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape, or control
            // byte in one piece. All three are ASCII, so the run ends on
            // a character boundary of the (already valid) input.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(format!("raw control byte in string at byte {}", self.pos)),
            }
        }
    }

    /// The character named by the escape whose letter is at `pos`.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
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
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or("truncated \\u escape")?;
                let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                self.pos += 4;
                char::from_u32(code).ok_or("bad \\u code point")?
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The comma-separated members up to `close`, each read by `member`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1; // the opening bracket `value` dispatched on
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(members);
        }
        loop {
            members.push(member(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(members);
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_is_exact() {
        let mut obj = Value::obj();
        obj.set("a", 0.1);
        obj.set("b", 1.0 / 3.0);
        obj.set("c", 1e18);
        obj.set("d", "weird \"chars\"\n\u{1}");
        obj.set("e", Value::Arr(vec![Value::Bool(true), Value::Null]));
        obj.set("f", Value::obj());
        obj.set("g", Value::Arr(Vec::new()));
        let text = obj.to_pretty();
        let back = parse(&text).unwrap();
        assert_eq!(back, obj);
        assert_eq!(back.to_pretty(), text);
        assert_eq!(
            back.get("d").and_then(Value::as_str),
            Some("weird \"chars\"\n\u{1}")
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\": 1} trailing",
            "\"raw \u{1} control\"",
            "\"\\ud800\"",
            "\"\\x\"",
            "1e999",
            "-1e999",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse("\"\\b\\f\\/\"").unwrap(), Value::from("\u{8}\u{c}/"));
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // Far past the bound: an error, not a stack overflow.
        let deep = "[".repeat(1 << 20);
        assert!(parse(&deep).unwrap_err().contains("nested deeper"));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn writer_rejects_non_finite_numbers() {
        Value::Num(f64::NAN).to_pretty();
    }

    /// A string over the characters the writer treats specially, plain
    /// ASCII, and two- to four-byte text.
    fn text_from(picks: &[usize]) -> String {
        const ALPHABET: [char; 16] = [
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1f}',
            '\u{7f}',
            ' ',
            'a',
            'Z',
            '\u{e9}',
            '\u{4e16}',
            '\u{1f600}',
            '\u{fffd}',
        ];
        picks.iter().map(|&i| ALPHABET[i]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `write → parse → write` is the identity on bytes for strings
        /// full of escapes and for every finite bit pattern (which
        /// covers `-0.0`, subnormals and 17-digit values).
        #[test]
        fn write_parse_write_is_byte_identical(
            key in prop::collection::vec(0usize..16, 0..12),
            text in prop::collection::vec(0usize..16, 0..40),
            bits in prop::collection::vec(0u64..u64::MAX, 1..8),
            scale in -300i32..300,
        ) {
            let mut nums = vec![-0.0, 5e-324, f64::MIN_POSITIVE / 3.0, 0.1 + 0.2, f64::MAX];
            nums.push(0.123_456_789_012_345_68 * 10f64.powi(scale));
            nums.extend(bits.iter().map(|&b| f64::from_bits(b)).filter(|x| x.is_finite()));
            let mut doc = Value::obj();
            doc.set(text_from(&key), text_from(&text));
            doc.set("nums", Value::Arr(nums.iter().map(|&x| Value::Num(x)).collect()));
            let written = doc.to_pretty();
            let back = parse(&written).unwrap();
            prop_assert_eq!(back.to_pretty(), written);
            let Some(Value::Arr(parsed)) = back.get("nums") else { panic!("nums lost") };
            for (x, y) in nums.iter().zip(parsed) {
                prop_assert_eq!(x.to_bits(), y.as_f64().unwrap().to_bits());
            }
        }
    }
}
