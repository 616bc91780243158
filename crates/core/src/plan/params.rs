//! Runtime parameter bindings.

use crate::value::Value;
use std::fmt;

/// A value bound to one query parameter at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    Scalar(Value),
    /// Bound to an `IN [p MAX n]` collection parameter.
    Collection(Vec<Value>),
}

impl ParamValue {
    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            ParamValue::Scalar(v) => Some(v),
            ParamValue::Collection(_) => None,
        }
    }

    pub fn as_collection(&self) -> Option<&[Value]> {
        match self {
            ParamValue::Collection(vs) => Some(vs),
            ParamValue::Scalar(_) => None,
        }
    }
}

impl From<Value> for ParamValue {
    fn from(v: Value) -> Self {
        ParamValue::Scalar(v)
    }
}

impl From<Vec<Value>> for ParamValue {
    fn from(vs: Vec<Value>) -> Self {
        ParamValue::Collection(vs)
    }
}

/// Errors raised when resolving parameters at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    Missing {
        index: usize,
        name: String,
    },
    ExpectedScalar {
        index: usize,
        name: String,
    },
    ExpectedCollection {
        index: usize,
        name: String,
    },
    /// A collection exceeded its declared `MAX` — executing it would break
    /// the static bound, so it is an error, not a truncation.
    CollectionTooLarge {
        index: usize,
        name: String,
        max: u64,
        got: usize,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::Missing { index, name } => {
                write!(f, "parameter [{}: {name}] is not bound", index + 1)
            }
            ParamError::ExpectedScalar { index, name } => {
                write!(f, "parameter [{}: {name}] must be a scalar", index + 1)
            }
            ParamError::ExpectedCollection { index, name } => {
                write!(f, "parameter [{}: {name}] must be a collection", index + 1)
            }
            ParamError::CollectionTooLarge {
                index,
                name,
                max,
                got,
            } => write!(
                f,
                "parameter [{}: {name}] has {got} elements, exceeding its declared MAX {max}",
                index + 1
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// An ordered set of parameter bindings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    values: Vec<Option<ParamValue>>,
}

impl Params {
    pub fn new() -> Self {
        Self::default()
    }

    /// Positional construction: `Params::from_values([v1, v2])`.
    pub fn from_values<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<ParamValue>,
    {
        Params {
            values: values.into_iter().map(|v| Some(v.into())).collect(),
        }
    }

    pub fn set(&mut self, index: usize, value: impl Into<ParamValue>) -> &mut Self {
        if self.values.len() <= index {
            self.values.resize(index + 1, None);
        }
        self.values[index] = Some(value.into());
        self
    }

    pub fn get(&self, index: usize) -> Option<&ParamValue> {
        self.view().get(index)
    }

    pub fn scalar(&self, index: usize, name: &str) -> Result<&Value, ParamError> {
        self.view().scalar(index, name)
    }

    pub fn collection(
        &self,
        index: usize,
        name: &str,
        max: Option<u64>,
    ) -> Result<&[Value], ParamError> {
        self.view().collection(index, name, max)
    }

    /// The borrowed view the executors read bindings through.
    pub fn view(&self) -> ParamsRef<'_> {
        ParamsRef::Sparse(&self.values)
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Borrowed parameter bindings — what plan evaluation and the write path
/// resolve `<param>` references against. A [`Params`] lends its (possibly
/// gapped) positions; a decoded request lends its parameter list as it
/// stands, so serving a statement never copies the values it was sent.
#[derive(Debug, Clone, Copy)]
pub enum ParamsRef<'a> {
    /// Positional bindings where a position may be unbound.
    Sparse(&'a [Option<ParamValue>]),
    /// Every position bound, in order.
    Dense(&'a [ParamValue]),
}

impl<'a> ParamsRef<'a> {
    pub fn get(self, index: usize) -> Option<&'a ParamValue> {
        match self {
            ParamsRef::Sparse(values) => values.get(index).and_then(|v| v.as_ref()),
            ParamsRef::Dense(values) => values.get(index),
        }
    }

    pub fn scalar(self, index: usize, name: &str) -> Result<&'a Value, ParamError> {
        let pv = self.get(index).ok_or_else(|| ParamError::Missing {
            index,
            name: name.to_string(),
        })?;
        pv.as_scalar().ok_or_else(|| ParamError::ExpectedScalar {
            index,
            name: name.to_string(),
        })
    }

    pub fn collection(
        self,
        index: usize,
        name: &str,
        max: Option<u64>,
    ) -> Result<&'a [Value], ParamError> {
        let pv = self.get(index).ok_or_else(|| ParamError::Missing {
            index,
            name: name.to_string(),
        })?;
        let vs = pv
            .as_collection()
            .ok_or_else(|| ParamError::ExpectedCollection {
                index,
                name: name.to_string(),
            })?;
        if let Some(max) = max {
            if vs.len() as u64 > max {
                return Err(ParamError::CollectionTooLarge {
                    index,
                    name: name.to_string(),
                    max,
                    got: vs.len(),
                });
            }
        }
        Ok(vs)
    }
}

impl<'a> From<&'a Params> for ParamsRef<'a> {
    fn from(params: &'a Params) -> Self {
        params.view()
    }
}

/// `Params::set` chains hand back `&mut Params`; callers pass that along.
impl<'a> From<&'a mut Params> for ParamsRef<'a> {
    fn from(params: &'a mut Params) -> Self {
        params.view()
    }
}

impl<'a> From<&'a [ParamValue]> for ParamsRef<'a> {
    fn from(values: &'a [ParamValue]) -> Self {
        ParamsRef::Dense(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_collection_access() {
        let mut p = Params::new();
        p.set(0, Value::Varchar("bob".into()));
        p.set(1, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(p.scalar(0, "u").unwrap(), &Value::Varchar("bob".into()));
        assert_eq!(p.collection(1, "xs", Some(2)).unwrap().len(), 2);
        assert!(matches!(
            p.collection(1, "xs", Some(1)),
            Err(ParamError::CollectionTooLarge { .. })
        ));
        assert!(matches!(p.scalar(2, "zz"), Err(ParamError::Missing { .. })));
        assert!(matches!(
            p.scalar(1, "xs"),
            Err(ParamError::ExpectedScalar { .. })
        ));
    }

    #[test]
    fn from_values_positional() {
        let p = Params::from_values([Value::Int(1), Value::Int(2)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.scalar(1, "b").unwrap(), &Value::Int(2));
    }

    #[test]
    fn dense_view_reads_a_parameter_list_in_place() {
        let list = vec![
            ParamValue::Scalar(Value::Int(7)),
            ParamValue::Collection(vec![Value::Int(1)]),
        ];
        let view = ParamsRef::from(list.as_slice());
        assert_eq!(view.scalar(0, "a").unwrap(), &Value::Int(7));
        assert_eq!(view.collection(1, "xs", None).unwrap(), &[Value::Int(1)]);
        assert!(matches!(
            view.scalar(1, "xs"),
            Err(ParamError::ExpectedScalar { .. })
        ));
        assert!(matches!(
            view.scalar(2, "zz"),
            Err(ParamError::Missing { index: 2, .. })
        ));
    }
}
