//! Item values.
//!
//! The protocols are agnostic to what is stored in an item; the evaluation
//! workloads only ever write integers. `Value` is a small enum so the
//! storage engine stays generic without introducing a type parameter that
//! would ripple through every crate.

use std::fmt;

/// The value of one item copy.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub enum Value {
    /// Initial value of every item before any transaction writes it.
    #[default]
    Initial,
    /// A 64-bit integer payload (what the benchmark workloads write).
    Int(i64),
    /// An opaque byte payload, for applications storing structured data.
    Bytes(Vec<u8>),
}

impl Value {
    /// Convenience constructor for integer payloads.
    #[inline]
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Returns the integer payload if this value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes, used by the simulation's
    /// message-cost model.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Initial => 0,
            Value::Int(_) => 8,
            Value::Bytes(b) => b.len(),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Initial => write!(f, "⊥"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_initial() {
        assert_eq!(Value::default(), Value::Initial);
    }

    #[test]
    fn int_roundtrip() {
        assert_eq!(Value::int(42).as_int(), Some(42));
        assert_eq!(Value::Initial.as_int(), None);
        assert_eq!(Value::from(7), Value::Int(7));
    }

    #[test]
    fn sizes() {
        assert_eq!(Value::Initial.size_bytes(), 0);
        assert_eq!(Value::int(1).size_bytes(), 8);
        assert_eq!(Value::Bytes(vec![0; 100]).size_bytes(), 100);
    }
}
