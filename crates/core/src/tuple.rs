//! Tuples: ordered collections of [`Value`]s flowing through the engine.

use crate::value::Value;
use std::fmt;

/// A row of values. Column resolution (name → position) happens at plan
/// time, so the runtime representation is positional and cheap.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn set(&mut self, idx: usize, value: Value) {
        self.values[idx] = value;
    }

    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// Approximate encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.values.iter().map(Value::encoded_len).sum::<usize>() + 2
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple { values }
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

/// Build a tuple from heterogeneous literals: `tuple![1, "bob", true]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {

    #[test]
    fn display_renders_values() {
        assert_eq!(format!("{}", tuple![1, "a"]), "(1, 'a')");
    }
}
