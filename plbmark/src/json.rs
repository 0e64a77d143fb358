//! A hand-rolled JSON value, writer and reader, so that no serializer
//! sits on the measurement path and the result line's shape is fixed by
//! this file alone. Objects keep insertion order. Numbers are written
//! with every digit `f64` needs to read back to the same bits.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite number is written as).
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Compact text on one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // Whole numbers of moderate size print as integers; the
            // rest with the shortest digits that read back exactly.
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 1e15 => {
                let _ = write!(out, "{}", *x as i64);
            }
            Json::Num(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse JSON text. Escapes beyond `\" \\ \/ \n \r \t \uXXXX` (BMP
    /// only) are refused: this reader exists for the benchmark's own
    /// output.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Reader {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value(0)?;
        p.space();
        if p.at == p.bytes.len() {
            Ok(v)
        } else {
            Err(p.fail("trailing characters"))
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn space(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, word: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(word.as_bytes());
        if hit {
            self.at += word.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 64 {
            return Err(self.fail("nesting too deep"));
        }
        self.space();
        match self.bytes.get(self.at) {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.space();
                    if items.is_empty() && self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    items.push(self.value(depth + 1)?);
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                loop {
                    self.space();
                    if members.is_empty() && self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if self.bytes.get(self.at) != Some(&b'"') {
                        return Err(self.fail("expected a string key"));
                    }
                    let key = self.string()?;
                    self.space();
                    if !self.eat(":") {
                        return Err(self.fail("expected `:`"));
                    }
                    members.push((key, self.value(depth + 1)?));
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected `,` or `}`"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.at;
                while matches!(
                    self.bytes.get(self.at),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .filter(|x| x.is_finite())
                    .map(Json::Num)
                    .ok_or_else(|| self.fail("invalid number"))
            }
            _ => Err(self.fail("unexpected character or end of input")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.at;
            while !matches!(self.bytes.get(self.at), None | Some(b'"' | b'\\')) {
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| self.fail("invalid UTF-8"))?,
            );
            match self.bytes.get(self.at) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let esc = self.bytes.get(self.at + 1).copied();
                    self.at += 2;
                    out.push(match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|d| std::str::from_utf8(d).ok())
                                .and_then(|d| u32::from_str_radix(d, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("unsupported \\u escape"))?;
                            self.at += 4;
                            code
                        }
                        _ => return Err(self.fail("unsupported escape")),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn what_is_written_reads_back_equal() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(480.0)),
            ("tiny", Json::Num(1.2345678901234567e-9)),
            ("big", Json::Num(1.5e300)),
            ("neg", Json::Num(-0.25)),
            ("name", Json::str("q\"\\\n\t\u{1}é")),
            (
                "nested",
                Json::Arr(vec![Json::Null, Json::obj([("k", Json::Arr(vec![]))])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let line = v.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), v);
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(480.0));
        assert!(line.contains("\"attempted\": 480,"), "{line}");
    }

    #[test]
    fn numbers_keep_every_digit() {
        for x in [
            0.1 + 0.2,
            1.0 / 3.0,
            6.02214076e23,
            5e-324,
            123456789012345680.0,
        ] {
            let line = Json::Num(x).to_line();
            let back = Json::parse(&line).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{line}");
        }
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    }

    #[test]
    fn malformed_text_is_refused() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"abc",
            "1 2",
            "{\"a\":}",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }
}
