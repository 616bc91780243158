//! Runtime values and their static types.
//!
//! PIQL targets interactive web applications, so the type lattice is the
//! small one the paper's schemas need: integers, strings, booleans,
//! timestamps, and doubles. Every value is orderable within its type, which
//! is what lets the key codec ([`crate::codec::key`]) lay tuples out
//! contiguously in the ordered key/value store.

use std::cmp::Ordering;
use std::fmt;

/// Static type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer (`INT`).
    Int,
    /// 64-bit signed integer (`BIGINT`).
    BigInt,
    /// Variable-length UTF-8 string with a declared maximum length
    /// (`VARCHAR(n)`). The bound feeds the predictor's tuple-size estimate.
    Varchar(u32),
    /// Boolean (`BOOL`).
    Bool,
    /// Microseconds since the epoch (`TIMESTAMP`).
    Timestamp,
    /// IEEE-754 double (`DOUBLE`). Not allowed in keys (NaN breaks total
    /// order); fine in payloads.
    Double,
}

impl DataType {
    /// Upper bound on the encoded size of a value of this type, in bytes.
    ///
    /// Used by the SLO predictor to pick the tuple-size parameter β and by
    /// the bound analyzer for `max_bytes` annotations.
    pub fn max_encoded_len(self) -> usize {
        match self {
            DataType::Int => 5,
            DataType::BigInt | DataType::Timestamp => 9,
            // worst case: every byte escaped (2x) + 2-byte terminator + tag
            DataType::Varchar(n) => 2 * n as usize + 3,
            DataType::Bool => 2,
            DataType::Double => 9,
        }
    }

    /// Whether values of this type may participate in index keys.
    pub fn key_compatible(self) -> bool {
        !matches!(self, DataType::Double)
    }

    /// Human-readable SQL-ish name.
    pub fn sql_name(self) -> String {
        match self {
            DataType::Int => "INT".into(),
            DataType::BigInt => "BIGINT".into(),
            DataType::Varchar(n) => format!("VARCHAR({n})"),
            DataType::Bool => "BOOL".into(),
            DataType::Timestamp => "TIMESTAMP".into(),
            DataType::Double => "DOUBLE".into(),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.sql_name())
    }
}

/// A runtime value.
///
/// `Null` compares less than every non-null value of the same type, matching
/// the key codec's encoding (a null sorts first within its column position).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int(i32),
    BigInt(i64),
    Varchar(String),
    Bool(bool),
    Timestamp(i64),
    Double(f64),
}

impl Value {
    /// The dynamic type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::BigInt(_) => Some(DataType::BigInt),
            Value::Varchar(s) => Some(DataType::Varchar(s.len() as u32)),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Double(_) => Some(DataType::Double),
        }
    }

    /// Coerce into the canonical representation for `ty`, widening integers.
    ///
    /// Returns `None` when the value does not conform.
    pub fn coerce(&self, ty: DataType) -> Option<Value> {
        self.coerce_ref(ty).map(ValueRef::to_value)
    }

    /// [`Value::coerce`] without the copy: the canonical form as a borrowed
    /// view, which is all an encoder needs (the write path encodes rows and
    /// keys straight from request parameters through this).
    pub fn coerce_ref(&self, ty: DataType) -> Option<ValueRef<'_>> {
        ValueRef::of(self).coerce(ty)
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total order within one logical type; cross-type comparisons order by
    /// a fixed type rank so sorting heterogeneous data never panics. The
    /// order itself is [`ValueRef::total_cmp`].
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        ValueRef::of(self).total_cmp(ValueRef::of(other))
    }

    /// Approximate encoded size in bytes (used for β estimates and stats).
    pub fn encoded_len(&self) -> usize {
        ValueRef::of(self).encoded_len()
    }

    /// Extract a string slice, if this is a `Varchar`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// Extract an integral value widened to `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v as i64),
            Value::BigInt(v) | Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A borrowed view of a [`Value`] — what zero-copy decoders yield.
///
/// Scalar variants are plain copies; `Varchar` borrows the underlying
/// bytes, so a codec can stream values out of an encoded buffer without
/// allocating a `String` per field (the server's point-read hot path
/// depends on this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    Null,
    Int(i32),
    BigInt(i64),
    Varchar(&'a str),
    Bool(bool),
    Timestamp(i64),
    Double(f64),
}

impl<'a> ValueRef<'a> {
    /// Borrow an owned [`Value`].
    pub fn of(value: &'a Value) -> ValueRef<'a> {
        match value {
            Value::Null => ValueRef::Null,
            Value::Int(v) => ValueRef::Int(*v),
            Value::BigInt(v) => ValueRef::BigInt(*v),
            Value::Varchar(s) => ValueRef::Varchar(s),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Timestamp(v) => ValueRef::Timestamp(*v),
            Value::Double(d) => ValueRef::Double(*d),
        }
    }

    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// This value in the canonical representation of a column of type
    /// `ty`, or `None` when it cannot be stored there. The column-type
    /// rules: an exact type match, `Null` allowed everywhere, a string no
    /// longer than its `VARCHAR` bound, and integers widened `Int ->
    /// BigInt/Timestamp` and `BigInt -> Timestamp`.
    pub fn coerce(self, ty: DataType) -> Option<ValueRef<'a>> {
        Some(match (self, ty) {
            (ValueRef::Int(v), DataType::BigInt) => ValueRef::BigInt(v as i64),
            (ValueRef::Int(v), DataType::Timestamp) => ValueRef::Timestamp(v as i64),
            (ValueRef::BigInt(v), DataType::Timestamp) => ValueRef::Timestamp(v),
            (ValueRef::Varchar(s), DataType::Varchar(n)) if s.len() > n as usize => return None,
            (ValueRef::Null, _)
            | (ValueRef::Int(_), DataType::Int)
            | (ValueRef::BigInt(_), DataType::BigInt)
            | (ValueRef::Varchar(_), DataType::Varchar(_))
            | (ValueRef::Bool(_), DataType::Bool)
            | (ValueRef::Timestamp(_), DataType::Timestamp)
            | (ValueRef::Double(_), DataType::Double) => self,
            _ => return None,
        })
    }

    /// The string, if this is a `Varchar`.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            ValueRef::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// Total order within one logical type; cross-type comparisons order by
    /// a fixed type rank so sorting heterogeneous data never panics.
    pub fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        fn rank(v: ValueRef<'_>) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | BigInt(_) | Timestamp(_) => 2,
                Double(_) => 3,
                Varchar(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(&b),
            (BigInt(a), BigInt(b)) => a.cmp(&b),
            (Timestamp(a), Timestamp(b)) => a.cmp(&b),
            (Int(a), BigInt(b)) => (a as i64).cmp(&b),
            (BigInt(a), Int(b)) => a.cmp(&(b as i64)),
            (Int(a), Timestamp(b)) => (a as i64).cmp(&b),
            (Timestamp(a), Int(b)) => a.cmp(&(b as i64)),
            (BigInt(a), Timestamp(b)) | (Timestamp(a), BigInt(b)) => a.cmp(&b),
            (Varchar(a), Varchar(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Double(a), Double(b)) => a.total_cmp(&b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Approximate encoded size in bytes: exact for a key component
    /// without NUL bytes, a byte or two generous for a row value — what
    /// encoders reserve before writing.
    pub fn encoded_len(self) -> usize {
        match self {
            ValueRef::Null => 1,
            ValueRef::Int(_) => 5,
            ValueRef::BigInt(_) | ValueRef::Timestamp(_) | ValueRef::Double(_) => 9,
            ValueRef::Varchar(s) => s.len() + 3,
            ValueRef::Bool(_) => 2,
        }
    }

    /// Promote to an owned [`Value`] (allocates for `Varchar`).
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::BigInt(v) => Value::BigInt(v),
            ValueRef::Varchar(s) => Value::Varchar(s.to_string()),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Timestamp(v) => Value::Timestamp(v),
            ValueRef::Double(d) => Value::Double(d),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(value: &'a Value) -> Self {
        ValueRef::of(value)
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) => (2u8, *v as i64).hash(state),
            Value::BigInt(v) | Value::Timestamp(v) => (2u8, *v).hash(state),
            Value::Varchar(s) => (4u8, s).hash(state),
            Value::Bool(b) => (1u8, b).hash(state),
            Value::Double(d) => (3u8, d.to_bits()).hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::BigInt(v) => write!(f, "{v}"),
            Value::Varchar(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "ts:{t}"),
            Value::Double(d) => write!(f, "{d}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::BigInt(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_and_coercion() {
        assert_eq!(
            Value::Int(5).coerce(DataType::BigInt),
            Some(Value::BigInt(5))
        );
        assert!(Value::Varchar("abc".into())
            .coerce(DataType::Varchar(3))
            .is_some());
        assert!(Value::Varchar("abcd".into())
            .coerce(DataType::Varchar(3))
            .is_none());
        assert!(Value::Null.coerce(DataType::Bool).is_some());
        assert!(Value::Bool(true).coerce(DataType::Int).is_none());
    }

    #[test]
    fn total_order_within_types() {
        assert_eq!(Value::Int(1).total_cmp(&Value::Int(2)), Ordering::Less);
        assert_eq!(
            Value::Varchar("a".into()).total_cmp(&Value::Varchar("b".into())),
            Ordering::Less
        );
        assert_eq!(Value::Null.total_cmp(&Value::Int(-100)), Ordering::Less);
        assert_eq!(Value::Int(3).total_cmp(&Value::BigInt(3)), Ordering::Equal);
    }

    #[test]
    fn encoded_len_bounds_hold() {
        let v = Value::Varchar("hello".into());
        assert!(v.encoded_len() <= DataType::Varchar(5).max_encoded_len());
        assert!(Value::Int(i32::MAX).encoded_len() <= DataType::Int.max_encoded_len());
    }
}
