//! Vendored shim for the parts of `serde` this workspace uses.
//!
//! Models serialization as conversion to/from a JSON-ish [`Value`]
//! tree. The derive macros (re-exported from the `serde_derive` shim)
//! support named-field structs and unit-variant enums, plus
//! `#[serde(skip)]`. `serde_json` (also vendored) renders [`Value`]
//! as real JSON text.

use std::borrow::Cow;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-ish data model.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object fields.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Clone, Debug)]
pub struct DeError(String);

impl DeError {
    pub fn msg(m: impl Into<String>) -> DeError {
        DeError(m.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the data model.
pub trait Serialize {
    fn to_value(&self) -> Value;

    /// The data-model tree, borrowed when `self` already is one.
    /// `serde_json` renders through this, so rendering a `Value`
    /// never copies the tree.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

// A `Value` serializes as itself, so pre-built trees (e.g. rewritten
// event encodings) can be rendered by `serde_json` directly.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

// ... and deserializes as itself, so callers can parse JSON text into
// a raw tree and walk it by hand (e.g. checkpoint payloads).
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        Ok(v)
    }
}

/// Conversion from the data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Conversion from a tree the caller gives up. `serde_json` parses
    /// through this, so parsing into a `Value` moves the parsed tree
    /// instead of copying it.
    fn from_owned_value(v: Value) -> Result<Self, DeError> {
        Self::from_value(&v)
    }
}

/// Looks up and deserializes a struct field (used by derived impls).
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    match v.get(name) {
        Some(f) => T::from_value(f),
        None => Err(DeError::msg(format!("missing field `{name}`"))),
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match *v {
                    Value::UInt(n) => n,
                    Value::Int(n) if n >= 0 => n as u64,
                    _ => return Err(DeError::msg(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::msg(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match *v {
                    Value::Int(n) => n,
                    Value::UInt(n) => i64::try_from(n)
                        .map_err(|_| DeError::msg(concat!("out of range for ", stringify!($t))))?,
                    _ => return Err(DeError::msg(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::msg(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::msg("expected bool")),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::Float(f) => Ok(f),
            Value::UInt(n) => Ok(n as f64),
            Value::Int(n) => Ok(n as f64),
            _ => Err(DeError::msg("expected number")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::msg("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::msg("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}
