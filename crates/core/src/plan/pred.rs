//! Bound predicates: name-resolved conjuncts with runtime evaluation.
//!
//! Evaluation treats the predicate's [`FieldId`]s as positions into the
//! tuple being tested. Plans whose runtime tuple layout differs from the
//! global field order remap predicates with [`BoundPredicate::remap`] before
//! execution.

use super::params::{ParamError, ParamsRef};
use super::schema::FieldId;
use crate::ast::{CompareOp, Param};
use crate::rows::Row;
use crate::text;
use crate::value::{Value, ValueRef};
use std::fmt;

/// A scalar operand whose value is known at bind time or at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Literal(Value),
    Param(Param),
}

impl Operand {
    /// Resolve to a concrete value using the runtime parameter bindings.
    pub fn resolve<'a>(&'a self, params: ParamsRef<'a>) -> Result<&'a Value, ParamError> {
        match self {
            Operand::Literal(v) => Ok(v),
            Operand::Param(p) => params.scalar(p.index, &p.name),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Literal(v) => write!(f, "{v}"),
            Operand::Param(p) => write!(f, "{p}"),
        }
    }
}

/// The collection operand of a bound `IN`.
#[derive(Debug, Clone, PartialEq)]
pub enum InOperand {
    Values(Vec<Value>),
    Param(Param),
}

impl InOperand {
    pub fn resolve<'a>(&'a self, params: ParamsRef<'a>) -> Result<&'a [Value], ParamError> {
        match self {
            InOperand::Values(vs) => Ok(vs),
            InOperand::Param(p) => params.collection(p.index, &p.name, p.max_cardinality),
        }
    }
}

impl fmt::Display for InOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InOperand::Values(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            InOperand::Param(p) => write!(f, "{p}"),
        }
    }
}

/// A name-resolved predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundPredicate {
    /// `field OP operand`.
    Compare {
        field: FieldId,
        op: CompareOp,
        operand: Operand,
    },
    /// `left OP right` over two fields (equality forms are join predicates).
    FieldCompare {
        left: FieldId,
        op: CompareOp,
        right: FieldId,
    },
    /// Tokenized text search: `field LIKE operand` rewritten per §7.3. True
    /// iff the operand (a single word) appears as a token of the field.
    TokenMatch { field: FieldId, operand: Operand },
    /// `field IN operand`.
    In { field: FieldId, operand: InOperand },
    /// `field IS [NOT] NULL`.
    IsNull { field: FieldId, negated: bool },
}

impl BoundPredicate {
    /// All fields referenced.
    pub fn fields(&self) -> Vec<FieldId> {
        match self {
            BoundPredicate::Compare { field, .. }
            | BoundPredicate::TokenMatch { field, .. }
            | BoundPredicate::In { field, .. }
            | BoundPredicate::IsNull { field, .. } => vec![*field],
            BoundPredicate::FieldCompare { left, right, .. } => vec![*left, *right],
        }
    }

    /// Equality against a constant/param operand: `Some((field, operand))`.
    pub fn as_attribute_equality(&self) -> Option<(FieldId, &Operand)> {
        match self {
            BoundPredicate::Compare {
                field,
                op: CompareOp::Eq,
                operand,
            } => Some((*field, operand)),
            _ => None,
        }
    }

    /// Equality between two fields: `Some((left, right))`.
    pub fn as_join_equality(&self) -> Option<(FieldId, FieldId)> {
        match self {
            BoundPredicate::FieldCompare {
                left,
                op: CompareOp::Eq,
                right,
            } => Some((*left, *right)),
            _ => None,
        }
    }

    /// Rewrite all field ids through `f` (e.g. global id → tuple position).
    pub fn remap(&self, f: impl Fn(FieldId) -> FieldId) -> BoundPredicate {
        match self {
            BoundPredicate::Compare { field, op, operand } => BoundPredicate::Compare {
                field: f(*field),
                op: *op,
                operand: operand.clone(),
            },
            BoundPredicate::FieldCompare { left, op, right } => BoundPredicate::FieldCompare {
                left: f(*left),
                op: *op,
                right: f(*right),
            },
            BoundPredicate::TokenMatch { field, operand } => BoundPredicate::TokenMatch {
                field: f(*field),
                operand: operand.clone(),
            },
            BoundPredicate::In { field, operand } => BoundPredicate::In {
                field: f(*field),
                operand: operand.clone(),
            },
            BoundPredicate::IsNull { field, negated } => BoundPredicate::IsNull {
                field: f(*field),
                negated: *negated,
            },
        }
    }

    /// Evaluate against a row whose positions correspond to this
    /// predicate's field ids. SQL three-valued logic is collapsed to
    /// `false` for NULL comparisons (sufficient for PIQL's conjunctions).
    pub fn eval(&self, row: &impl Row, params: ParamsRef<'_>) -> Result<bool, ParamError> {
        let compare = |op: &CompareOp, left: ValueRef<'_>, right: ValueRef<'_>| {
            !left.is_null() && !right.is_null() && op.matches(left.total_cmp(right))
        };
        Ok(match self {
            BoundPredicate::Compare { field, op, operand } => compare(
                op,
                row.value(*field),
                ValueRef::of(operand.resolve(params)?),
            ),
            BoundPredicate::FieldCompare { left, op, right } => {
                compare(op, row.value(*left), row.value(*right))
            }
            BoundPredicate::TokenMatch { field, operand } => {
                let pat = operand.resolve(params)?;
                match (row.value(*field).as_str(), pat.as_str()) {
                    (Some(t), Some(p)) => match text::search_token(p) {
                        Some(tok) => text::contains_token(t, &tok),
                        None => false,
                    },
                    _ => false,
                }
            }
            BoundPredicate::In { field, operand } => {
                let needle = row.value(*field);
                !needle.is_null()
                    && operand
                        .resolve(params)?
                        .iter()
                        .any(|v| needle.total_cmp(ValueRef::of(v)) == std::cmp::Ordering::Equal)
            }
            BoundPredicate::IsNull { field, negated } => row.value(*field).is_null() != *negated,
        })
    }

    /// Evaluate a conjunction.
    pub fn eval_all(
        preds: &[BoundPredicate],
        row: &impl Row,
        params: ParamsRef<'_>,
    ) -> Result<bool, ParamError> {
        for p in preds {
            if !p.eval(row, params)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl fmt::Display for BoundPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundPredicate::Compare { field, op, operand } => {
                write!(f, "#{field} {op} {operand}")
            }
            BoundPredicate::FieldCompare { left, op, right } => {
                write!(f, "#{left} {op} #{right}")
            }
            BoundPredicate::TokenMatch { field, operand } => {
                write!(f, "#{field} CONTAINS TOKEN {operand}")
            }
            BoundPredicate::In { field, operand } => write!(f, "#{field} IN {operand}"),
            BoundPredicate::IsNull { field, negated } => {
                write!(f, "#{field} IS {}NULL", if *negated { "NOT " } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::params::Params;
    use crate::tuple;
    use crate::tuple::Tuple;

    fn params() -> Params {
        let mut p = Params::new();
        p.set(0, Value::Varchar("bob".into()));
        p.set(1, vec![Value::Int(1), Value::Int(3)]);
        p
    }

    #[test]
    fn compare_with_param() {
        let pred = BoundPredicate::Compare {
            field: 0,
            op: CompareOp::Eq,
            operand: Operand::Param(Param {
                index: 0,
                name: "u".into(),
                max_cardinality: None,
            }),
        };
        assert!(pred.eval(&tuple!["bob"], params().view()).unwrap());
        assert!(!pred.eval(&tuple!["alice"], params().view()).unwrap());
    }

    #[test]
    fn null_comparisons_are_false() {
        let pred = BoundPredicate::Compare {
            field: 0,
            op: CompareOp::Ne,
            operand: Operand::Literal(Value::Int(1)),
        };
        assert!(!pred
            .eval(&Tuple::new(vec![Value::Null]), params().view())
            .unwrap());
    }

    #[test]
    fn in_and_isnull() {
        let pred = BoundPredicate::In {
            field: 0,
            operand: InOperand::Param(Param {
                index: 1,
                name: "xs".into(),
                max_cardinality: Some(10),
            }),
        };
        assert!(pred.eval(&tuple![3], params().view()).unwrap());
        assert!(!pred.eval(&tuple![2], params().view()).unwrap());
        let isnull = BoundPredicate::IsNull {
            field: 0,
            negated: true,
        };
        assert!(isnull.eval(&tuple![2], params().view()).unwrap());
    }

    #[test]
    fn token_match_semantics() {
        let pred = BoundPredicate::TokenMatch {
            field: 0,
            operand: Operand::Literal(Value::Varchar("Wrath".into())),
        };
        assert!(pred
            .eval(&tuple!["The Grapes of Wrath"], params().view())
            .unwrap());
        assert!(!pred
            .eval(&tuple!["Wrathful Tales No"], params().view())
            .unwrap());
        assert!(!pred.eval(&tuple!["peaceful"], params().view()).unwrap());
    }

    #[test]
    fn remap_rewrites_all_fields() {
        let pred = BoundPredicate::FieldCompare {
            left: 2,
            op: CompareOp::Eq,
            right: 5,
        };
        let mapped = pred.remap(|f| f * 10);
        assert_eq!(mapped.fields(), vec![20, 50]);
    }
}
