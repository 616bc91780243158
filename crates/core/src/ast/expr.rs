//! Scalar expressions and predicates.
//!
//! PIQL's WHERE clause is a conjunction of simple predicates over columns —
//! deliberately so: the compiler must be able to map every predicate onto a
//! contiguous index range or a bounded lookup set, and arbitrary boolean
//! structure would defeat the static analysis (§5.2.1).

use crate::value::Value;
use std::fmt;

/// A possibly-qualified column reference, e.g. `s.target` or `owner`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub qualifier: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn new(qualifier: Option<&str>, column: &str) -> Self {
        ColumnRef {
            qualifier: qualifier.map(|s| s.to_string()),
            column: column.to_string(),
        }
    }

    pub fn bare(column: &str) -> Self {
        Self::new(None, column)
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// A query parameter.
///
/// The paper writes parameters as `[1: titleWord]` (indexed + named) or
/// `<uname>` (named); both forms parse to this. A parameter used as an `IN`
/// collection must declare a maximum cardinality (`[2: friends MAX 50]`) for
/// the plan to be bounded.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Param {
    /// 0-based position in the bind list.
    pub index: usize,
    pub name: String,
    /// Declared maximum number of elements when bound to a collection.
    pub max_cardinality: Option<u64>,
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}: {}", self.index + 1, self.name)?;
        if let Some(m) = self.max_cardinality {
            write!(f, " MAX {m}")?;
        }
        write!(f, "]")
    }
}

/// A scalar expression: the right-hand side of comparisons and the values of
/// INSERT/UPDATE.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    Column(ColumnRef),
    Literal(Value),
    Param(Param),
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column(c) => write!(f, "{c}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Param(p) => write!(f, "{p}"),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompareOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }

    /// Evaluate against an ordering outcome.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CompareOp::Eq, Equal)
                | (CompareOp::Ne, Less | Greater)
                | (CompareOp::Lt, Less)
                | (CompareOp::Le, Less | Equal)
                | (CompareOp::Gt, Greater)
                | (CompareOp::Ge, Greater | Equal)
        )
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// The collection side of an `IN` predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum InList {
    /// A literal list: `status IN ('a', 'b')`. Bounded by its length.
    Values(Vec<Value>),
    /// A parameter collection: `owner IN [2: friends MAX 50]`. Bounded only
    /// if the parameter declares `MAX`.
    Param(Param),
}

/// One conjunct of a WHERE clause or a join condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `col OP scalar` (scalar may itself be a column, forming a join
    /// predicate).
    Compare {
        left: ColumnRef,
        op: CompareOp,
        right: ScalarExpr,
    },
    /// `col LIKE pattern` — compiles to a tokenized-index lookup (§7.3).
    Like {
        column: ColumnRef,
        pattern: ScalarExpr,
    },
    /// `col IN (...)`.
    In { column: ColumnRef, list: InList },
    /// `col IS [NOT] NULL`.
    IsNull { column: ColumnRef, negated: bool },
}

impl Predicate {
    /// Column references mentioned by this predicate.
    pub fn columns(&self) -> Vec<&ColumnRef> {
        match self {
            Predicate::Compare { left, right, .. } => {
                let mut v = vec![left];
                if let ScalarExpr::Column(c) = right {
                    v.push(c);
                }
                v
            }
            Predicate::Like { column, .. }
            | Predicate::In { column, .. }
            | Predicate::IsNull { column, .. } => vec![column],
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Compare { left, op, right } => write!(f, "{left} {op} {right}"),
            Predicate::Like { column, pattern } => write!(f, "{column} LIKE {pattern}"),
            Predicate::In { column, list } => {
                write!(f, "{column} IN ")?;
                match list {
                    InList::Values(vs) => {
                        write!(f, "(")?;
                        for (i, v) in vs.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{v}")?;
                        }
                        write!(f, ")")
                    }
                    InList::Param(p) => write!(f, "{p}"),
                }
            }
            Predicate::IsNull { column, negated } => {
                write!(f, "{column} IS {}NULL", if *negated { "NOT " } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_matches() {
        use std::cmp::Ordering::*;
        assert!(CompareOp::Le.matches(Equal));
        assert!(CompareOp::Le.matches(Less));
        assert!(!CompareOp::Lt.matches(Equal));
        assert!(CompareOp::Ne.matches(Greater));
    }

    #[test]
    fn display_roundtrippable_shapes() {
        let p = Predicate::Like {
            column: ColumnRef::bare("i_title"),
            pattern: ScalarExpr::Param(Param {
                index: 0,
                name: "titleWord".into(),
                max_cardinality: None,
            }),
        };
        assert_eq!(p.to_string(), "i_title LIKE [1: titleWord]");
    }
}
