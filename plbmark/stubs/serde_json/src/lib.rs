//! Offline stand-in for `serde_json` 1: JSON text to and from the
//! stand-in `serde` value tree, plus the `json!` literal macro.

use std::fmt::Write as _;

pub use serde::{Error, Map, Number, Value};

/// `Result` with this crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// The value tree of `value`. Never fails; the `Result` keeps call
/// sites written for the published crate compiling.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value> {
    Ok(value.to_value())
}

/// Read a `T` out of a value tree.
pub fn from_value<T: serde::de::DeserializeOwned>(value: Value) -> Result<T> {
    T::from_value(&value)
}

/// Compact JSON text of `value`.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// JSON text of `value` indented by two spaces.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into a `T`.
pub fn from_str<T: serde::de::DeserializeOwned>(text: &str) -> Result<T> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value(0)?;
    p.skip_space();
    if p.at != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    T::from_value(&v)
}

fn write_string(out: &mut String, s: &str) {
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

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            let _ = write!(out, "{n}");
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            if !items.is_empty() {
                newline(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            if !members.is_empty() {
                newline(out, indent, depth);
            }
            out.push('}');
        }
    }
}

/// Nesting beyond this is refused rather than risking the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        Error::custom(format!("{what} at byte {}", self.at))
    }

    fn skip_space(&mut self) {
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

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_space();
        match self.bytes.get(self.at) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_space();
                    if items.is_empty() && self.eat("]") {
                        break;
                    }
                    items.push(self.value(depth + 1)?);
                    self.skip_space();
                    if self.eat("]") {
                        break;
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected `,` or `]`"));
                    }
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = Map::new();
                loop {
                    self.skip_space();
                    if members.is_empty() && self.eat("}") {
                        break;
                    }
                    if self.bytes.get(self.at) != Some(&b'"') {
                        return Err(self.error("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_space();
                    if !self.eat(":") {
                        return Err(self.error("expected `:`"));
                    }
                    let item = self.value(depth + 1)?;
                    members.insert(key, item);
                    self.skip_space();
                    if self.eat("}") {
                        break;
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected `,` or `}`"));
                    }
                }
                Ok(Value::Object(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.at;
        let mut integral = true;
        while let Some(&b) = self.bytes.get(self.at) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => integral = false,
                _ => break,
            }
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.error("invalid number"))?;
        let number = if integral {
            text.parse::<u64>()
                .map(Number::U)
                .or_else(|_| text.parse::<i64>().map(Number::I))
                .ok()
        } else {
            None
        };
        match number {
            Some(n) => Ok(Value::Number(n)),
            // Floats, and integers too large for 64 bits.
            None => match text.parse::<f64>() {
                Ok(f) if f.is_finite() => Ok(Value::Number(Number::F(f))),
                _ => Err(self.error("invalid number")),
            },
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.at..self.at + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.at += 4;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String> {
        self.at += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.at;
            while !matches!(self.bytes.get(self.at), None | Some(b'"' | b'\\')) {
                self.at += 1;
            }
            // The input is a `&str`, and `"` and `\` are ASCII, so the
            // run between them is valid UTF-8.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.at += 1;
                    let esc = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                if !self.eat("\\u") {
                                    return Err(self.error("lone surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid surrogate pair"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
            }
        }
    }
}

/// Build a [`Value`] from JSON-like syntax; any expression that
/// implements `serde::Serialize` may stand where a value is expected.
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => { $crate::json_internal!($($json)+) };
}

/// The token muncher behind [`json!`]: array elements and object
/// members are peeled off one at a time, each up to its top-level comma.
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // Array elements: `[elems so far] rest...`.
    (@array [$($elems:expr,)*]) => { vec![$($elems,)*] };
    (@array [$($elems:expr),*]) => { vec![$($elems),*] };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // Object members: `map (key tokens so far) (rest...)`.
    (@object $object:ident () ()) => {};
    // A complete `key: value` pair followed by more members, or last.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    // The value after the colon: a literal form, or an expression up to
    // the next comma.
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr)) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    // Still reading the key: move one token over.
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*)) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*));
    };

    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_internal!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+));
            object
        })
    };
    ($other:expr) => { $crate::to_value(&$other).expect("the stand-in to_value never fails") };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trips_through_the_value_tree() {
        let text = r#"{"a":[1,-2,3.5,1e-7,18446744073709551615],"b":{"c":null,"d":true},"s":"q\"\\\n\u00e9\ud83d\ude00"}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_i64(), Some(-2));
        assert_eq!(v["a"][3].as_f64(), Some(1e-7));
        assert_eq!(v["a"][4].as_u64(), Some(u64::MAX));
        assert_eq!(v["s"], "q\"\\\né😀");
        let again: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(again, v);
        let pretty: Value = from_str(&to_string_pretty(&v).unwrap()).unwrap();
        assert_eq!(pretty, v);
    }

    #[test]
    fn floats_keep_their_bits_and_their_floatness() {
        for x in [0.1f64, 1.0, -0.0, 1e300, 5e-324, 123456789.125] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn malformed_text_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "\"abc",
            "01x",
            "nul",
            "[1] 2",
            "\"\\ud800\"",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?}");
        }
        let deep = "[".repeat(10_000);
        assert!(from_str::<Value>(&deep).is_err());
    }

    #[test]
    fn json_macro_builds_nested_values_from_expressions() {
        let n = 3u64;
        let name = "x";
        let v = json!({
            "name": name,
            "ts": n as f64 * 1e6,
            "args": {"items": n + 1, "list": [1, null, {"k": []}]},
            "none": null,
        });
        assert_eq!(v["name"], "x");
        assert_eq!(v["ts"].as_f64(), Some(3e6));
        assert_eq!(v["args"]["items"].as_u64(), Some(4));
        assert!(v["args"]["list"][1].is_null());
        assert_eq!(v["args"]["list"][2]["k"], json!([]));
        assert_eq!(json!([1, 2]).as_array().map(Vec::len), Some(2));
        assert_eq!(json!(null), Value::Null);
    }
}
