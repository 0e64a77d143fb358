//! Offline stand-in for `serde` 1.
//!
//! The benchmark has to build where no crate registry is reachable, so
//! `plbmark/Cargo.toml` patches `serde` with this crate. The published
//! crate's visitor-based data model is replaced by a value tree:
//! [`Serialize`] turns a value into a [`Value`] and [`Deserialize`]
//! reads one back. `#[derive(Serialize, Deserialize)]` and the
//! container, variant and field attributes the PLB-HeC library crates
//! use (`rename`, `rename_all`, `tag`, `untagged`, `default`, `flatten`,
//! `skip*`) keep their meaning. Hand-written `Serializer`/`Visitor`
//! code would not compile against this crate; the library crates have
//! none.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

// Lets the derive macros' `::serde::` paths resolve in this crate's own tests.
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON object, keys in sorted order.
pub type Map<K, V> = BTreeMap<K, V>;

/// A JSON number: unsigned and signed integers stay exact.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// Anything else; always finite.
    F(f64),
}

impl Number {
    /// The number as `f64` (integers beyond 2^53 round).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }

    /// The number as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(u) => Some(u),
            Number::I(i) => u64::try_from(i).ok(),
            Number::F(_) => None,
        }
    }

    /// The number as `i64` when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(u) => i64::try_from(u).ok(),
            Number::I(i) => Some(i),
            Number::F(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.as_i64(), other.as_i64(), self.as_u64(), other.as_u64()) {
            (Some(a), Some(b), _, _) => a == b,
            (_, _, Some(a), Some(b)) => a == b,
            _ => matches!((self, other), (Number::F(a), Number::F(b)) if a == b),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::U(u) => write!(f, "{u}"),
            Number::I(i) => write!(f, "{i}"),
            // `{:?}` prints the shortest text that reads back to the
            // same bits and always keeps a `.0` or an exponent, so a
            // float stays a float across a round trip.
            Number::F(x) => write!(f, "{x:?}"),
        }
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

impl Value {
    /// Name of the value's JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    /// Member `key` of an object, or element `key` of an array.
    pub fn get<I: Index>(&self, key: I) -> Option<&Value> {
        key.index_into(self)
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `i64`, if this is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The members, mutably, if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Keys usable with [`Value::get`] and `value[key]`.
pub trait Index {
    /// Look the key up in `v`.
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
}

impl Index for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object()?.get(self)
    }
}

impl Index for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
}

impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_array()?.get(*self)
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
}

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;

    /// A missing member or element reads as `null`.
    fn index(&self, key: I) -> &Value {
        static NULL: Value = Value::Null;
        key.index_into(self).unwrap_or(&NULL)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

/// Why a value could not be converted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error with the given message.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }

    /// "expected X while reading T, found Y".
    pub fn expected(what: &str, reading: &str, found: &Value) -> Error {
        Error(format!(
            "expected {what} while reading {reading}, found {}",
            found.type_name()
        ))
    }

    /// "missing field F of T".
    pub fn missing_field(field: &str, reading: &str) -> Error {
        Error(format!("missing field `{field}` of {reading}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can be turned into a [`Value`].
pub trait Serialize {
    /// The value tree of `self`.
    fn to_value(&self) -> Value;
}

/// A type that can be read back from a [`Value`]. The lifetime exists
/// only so that `Deserialize<'de>` bounds written for the published
/// crate still name a trait.
pub trait Deserialize<'de>: Sized {
    /// Read `Self` out of `v`.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// The value a struct field of this type takes when its key is
    /// absent: `None` for an `Option`, otherwise nothing (an error).
    fn missing() -> Option<Self> {
        None
    }
}

/// The `serde::de` names bounds are usually written with.
pub mod de {
    pub use super::{Deserialize, Error};

    /// A type deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
}

/// Support code the derive macros call; not part of the stand-in's
/// interface.
#[doc(hidden)]
pub mod __private {
    use super::*;

    /// Field `key` of `m`: read it if present, else the type's
    /// [`Deserialize::missing`] value, else `fallback`, else an error.
    pub fn field<'de, T: Deserialize<'de>>(
        m: &Map<String, Value>,
        key: &str,
        aliases: &[&str],
        reading: &str,
        fallback: Option<fn() -> T>,
    ) -> Result<T, Error> {
        let found = m
            .get(key)
            .or_else(|| aliases.iter().find_map(|a| m.get(*a)));
        match (found, fallback) {
            (Some(v), _) => {
                T::from_value(v).map_err(|e| Error(format!("{reading}.{key}: {}", e.0)))
            }
            (None, Some(f)) => Ok(f()),
            (None, None) => T::missing().ok_or_else(|| Error::missing_field(key, reading)),
        }
    }

    /// The members of `v`, or an error naming the type being read.
    pub fn object<'v>(v: &'v Value, reading: &str) -> Result<&'v Map<String, Value>, Error> {
        v.as_object()
            .ok_or_else(|| Error::expected("an object", reading, v))
    }

    /// The `n` elements of `v`, or an error naming the type being read.
    pub fn tuple<'v>(v: &'v Value, n: usize, reading: &str) -> Result<&'v [Value], Error> {
        match v.as_array() {
            Some(a) if a.len() == n => Ok(a),
            _ => Err(Error::expected(
                &format!("an array of {n} elements"),
                reading,
                v,
            )),
        }
    }

    /// Merge the members of a flattened field into `m`.
    pub fn flatten_into(m: &mut Map<String, Value>, v: Value, reading: &str) {
        match v {
            Value::Object(inner) => m.extend(inner),
            Value::Null => {}
            other => panic!(
                "#[serde(flatten)] field of {reading} serialized to {}, not an object",
                other.type_name()
            ),
        }
    }

    /// Put the tag of an internally tagged enum into a variant's value.
    pub fn tagged(tag: &str, name: &str, v: Value, reading: &str) -> Value {
        let mut m = match v {
            Value::Object(m) => m,
            Value::Null => Map::new(),
            other => panic!(
                "variant {name} of internally tagged {reading} serialized to {}, not an object",
                other.type_name()
            ),
        };
        m.insert(tag.to_string(), Value::String(name.to_string()));
        Value::Object(m)
    }

    /// Split an externally tagged enum value into variant name and
    /// content: a bare string, or an object with exactly one member.
    pub fn variant<'v>(v: &'v Value, reading: &str) -> Result<(&'v str, &'v Value), Error> {
        static NULL: Value = Value::Null;
        match v {
            Value::String(s) => Ok((s, &NULL)),
            Value::Object(m) if m.len() == 1 => match m.iter().next() {
                Some((k, content)) => Ok((k, content)),
                None => Err(Error::expected("a variant", reading, v)),
            },
            _ => Err(Error::expected(
                "a string or a single-member object",
                reading,
                v,
            )),
        }
    }

    /// The tag member of an internally tagged enum value.
    pub fn tag_of<'v>(v: &'v Value, tag: &str, reading: &str) -> Result<&'v str, Error> {
        object(v, reading)?
            .get(tag)
            .and_then(Value::as_str)
            .ok_or_else(|| Error::missing_field(tag, reading))
    }

    /// "unknown variant V of T".
    pub fn unknown_variant(name: &str, reading: &str) -> Error {
        Error(format!("unknown variant `{name}` of {reading}"))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(v: &Value) -> Result<Value, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(v: &Value) -> Result<bool, Error> {
        v.as_bool()
            .ok_or_else(|| Error::expected("a boolean", "bool", v))
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U(*self as u64))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(v: &Value) -> Result<$t, Error> {
                v.as_u64()
                    .and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| Error::expected("an unsigned integer in range", stringify!($t), v))
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                Value::Number(if i >= 0 { Number::U(i as u64) } else { Number::I(i) })
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(v: &Value) -> Result<$t, Error> {
                v.as_i64()
                    .and_then(|i| <$t>::try_from(i).ok())
                    .ok_or_else(|| Error::expected("an integer in range", stringify!($t), v))
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

macro_rules! floats {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            /// Non-finite floats have no JSON form and become `null`.
            fn to_value(&self) -> Value {
                if self.is_finite() {
                    Value::Number(Number::F(f64::from(*self)))
                } else {
                    Value::Null
                }
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(v: &Value) -> Result<$t, Error> {
                v.as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| Error::expected("a number", stringify!($t), v))
            }
        }
    )*};
}
floats!(f32, f64);

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(v: &Value) -> Result<String, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("a string", "String", v))
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<'de> Deserialize<'de> for () {
    fn from_value(_: &Value) -> Result<(), Error> {
        Ok(())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_value(v: &Value) -> Result<Box<T>, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<std::sync::Arc<T>, Error> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_value)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_value(v).map(Some)
        }
    }

    fn missing() -> Option<Option<T>> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("an array", "Vec", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(v: &Value) -> Result<[T; N], Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        <[T; N]>::try_from(items)
            .map_err(|_| Error::expected(&format!("an array of {N} elements"), "array", v))
    }
}

macro_rules! tuples {
    ($(($n:expr; $($t:ident $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn from_value(v: &Value) -> Result<($($t,)+), Error> {
                let a = __private::tuple(v, $n, "tuple")?;
                Ok(($($t::from_value(&a[$i])?,)+))
            }
        }
    )*};
}
tuples! {
    (1; A 0)
    (2; A 0, B 1)
    (3; A 0, B 1, C 2)
    (4; A 0, B 1, C 2, D 3)
}

macro_rules! string_maps {
    ($($map:ident),*) => {$(
        impl<V: Serialize> Serialize for $map<String, V> {
            fn to_value(&self) -> Value {
                Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
            }
        }
        impl<'de, V: Deserialize<'de>> Deserialize<'de> for $map<String, V> {
            fn from_value(v: &Value) -> Result<Self, Error> {
                __private::object(v, "map")?
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                    .collect()
            }
        }
    )*};
}
string_maps!(BTreeMap, HashMap);

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Inner {
        a: u64,
        #[serde(default)]
        b: Option<f64>,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    #[serde(tag = "kind", rename_all = "snake_case")]
    enum Tagged {
        UnitLike,
        WithFields {
            items: u64,
            #[serde(default)]
            cost: u64,
        },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Outer {
        seq: u64,
        pu: Option<usize>,
        #[serde(flatten)]
        kind: Tagged,
        pairs: Vec<(u64, u64)>,
        #[serde(rename = "in")]
        inner: Inner,
        #[serde(skip)]
        scratch: u8,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    enum Plain {
        Ln,
        Pow(u8),
        Pair(u8, i8),
        Named { x: f64 },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Wrapper(u32);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    #[serde(untagged)]
    enum Either {
        Num(u64),
        Text(String),
    }

    fn round_trip<T>(x: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        T::from_value(&x.to_value()).expect("round trip")
    }

    #[test]
    fn derived_struct_with_flattened_internally_tagged_enum_round_trips() {
        let x = Outer {
            seq: 7,
            pu: None,
            kind: Tagged::WithFields { items: 3, cost: 9 },
            pairs: vec![(0, 4), (4, 2)],
            inner: Inner { a: 1, b: Some(0.1) },
            scratch: 0,
        };
        let v = x.to_value();
        assert_eq!(v["kind"], "with_fields");
        assert_eq!(v["items"].as_u64(), Some(3));
        assert_eq!(v["in"]["a"].as_u64(), Some(1));
        assert!(v.get("scratch").is_none());
        assert_eq!(round_trip(&x), x);
        let unit = Outer {
            kind: Tagged::UnitLike,
            ..x
        };
        assert_eq!(round_trip(&unit), unit);
    }

    #[test]
    fn missing_fields_follow_default_and_option_rules() {
        let mut m = Map::new();
        m.insert("a".to_string(), 5u64.to_value());
        assert_eq!(
            Inner::from_value(&Value::Object(m)).unwrap(),
            Inner { a: 5, b: None }
        );
        let err = Inner::from_value(&Value::Object(Map::new())).unwrap_err();
        assert!(err.to_string().contains("missing field `a`"), "{err}");
        let mut t = Map::new();
        t.insert("kind".to_string(), "with_fields".to_value());
        t.insert("items".to_string(), 2u64.to_value());
        assert_eq!(
            Tagged::from_value(&Value::Object(t)).unwrap(),
            Tagged::WithFields { items: 2, cost: 0 }
        );
    }

    #[test]
    fn externally_tagged_newtype_and_untagged_forms_round_trip() {
        for p in [
            Plain::Ln,
            Plain::Pow(3),
            Plain::Pair(1, -1),
            Plain::Named { x: 0.5 },
        ] {
            assert_eq!(round_trip(&p), p);
        }
        assert_eq!(Plain::Ln.to_value(), Value::String("Ln".into()));
        assert_eq!(Wrapper(9).to_value().as_u64(), Some(9));
        assert_eq!(round_trip(&Wrapper(9)), Wrapper(9));
        assert_eq!(round_trip(&Either::Num(4)), Either::Num(4));
        assert_eq!(
            round_trip(&Either::Text("x".into())),
            Either::Text("x".into())
        );
        assert!(Plain::from_value(&Value::String("Nope".into())).is_err());
    }

    #[test]
    fn numbers_keep_integer_exactness_and_reject_out_of_range() {
        assert_eq!(round_trip(&u64::MAX), u64::MAX);
        assert_eq!(round_trip(&i64::MIN), i64::MIN);
        assert!(u8::from_value(&300u64.to_value()).is_err());
        assert!(u64::from_value(&(-1i64).to_value()).is_err());
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(
            <[f64; 2]>::from_value(&[1.5, 2.5].to_value()).unwrap(),
            [1.5, 2.5]
        );
    }
}
