//! Statements: SELECT (with PAGINATE), INSERT, UPDATE, DELETE, and DDL.

use super::expr::{ColumnRef, Predicate, ScalarExpr};
use crate::catalog::{CardinalityConstraint, ForeignKey, IndexKeyPart};
use crate::codec::key::Dir;
use crate::value::DataType;
use std::fmt;

/// A table reference with an optional alias: `subscriptions s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    pub fn named(table: &str) -> Self {
        TableRef {
            table: table.to_string(),
            alias: None,
        }
    }

    /// The name other clauses may use to refer to this relation.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table)?;
        if let Some(a) = &self.alias {
            write!(f, " {a}")?;
        }
        Ok(())
    }
}

/// An inner equi-join: `JOIN thoughts t ON t.owner = s.target`. Join
/// conditions may also be written in the WHERE clause (the paper's style);
/// the planner treats both identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub table: TableRef,
    pub on: Vec<Predicate>,
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderByItem {
    pub column: ColumnRef,
    pub dir: Dir,
}

/// Result-size bound: the standard `LIMIT k` or the paper's `PAGINATE k`
/// (§4.1), which turns the query into a resumable client-side cursor
/// returning `k` rows per interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBound {
    Limit(u64),
    Paginate(u64),
}

impl RowBound {
    pub fn count(self) -> u64 {
        match self {
            RowBound::Limit(k) | RowBound::Paginate(k) => k,
        }
    }

    pub fn is_paginated(self) -> bool {
        matches!(self, RowBound::Paginate(_))
    }
}

/// Aggregate functions (computed client-side on bounded inputs, §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        })
    }
}

/// `COUNT(*)`, `SUM(qty)` etc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateExpr {
    pub func: AggFunc,
    /// `None` means `COUNT(*)`.
    pub arg: Option<ColumnRef>,
    pub alias: Option<String>,
}

/// One item of the SELECT projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `col [AS alias]`
    Column {
        column: ColumnRef,
        alias: Option<String>,
    },
    /// `AGG(col) [AS alias]`
    Aggregate(AggregateExpr),
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub projection: Vec<SelectItem>,
    pub from: TableRef,
    pub joins: Vec<Join>,
    /// Conjunction of predicates.
    pub filter: Vec<Predicate>,
    pub group_by: Vec<ColumnRef>,
    pub order_by: Vec<OrderByItem>,
    pub bound: Option<RowBound>,
}

impl SelectStmt {
    /// This statement with its LIMIT/PAGINATE count replaced by `limit`
    /// (kind preserved; an unbounded statement gains a LIMIT).
    pub fn rebound(&self, limit: u64) -> SelectStmt {
        let mut out = self.clone();
        out.bound = Some(match self.bound {
            Some(RowBound::Paginate(_)) => RowBound::Paginate(limit),
            _ => RowBound::Limit(limit),
        });
        out
    }
}

/// `INSERT INTO t [(cols)] VALUES (exprs)`.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    pub table: String,
    /// Empty means "all columns in declaration order".
    pub columns: Vec<String>,
    pub values: Vec<ScalarExpr>,
}

/// `UPDATE t SET c = expr, ... WHERE <pk equality>`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    pub table: String,
    pub assignments: Vec<(String, ScalarExpr)>,
    pub filter: Vec<Predicate>,
}

/// `DELETE FROM t WHERE <pk equality>`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    pub table: String,
    pub filter: Vec<Predicate>,
}

/// `CREATE TABLE` with PIQL's DDL extensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateTableStmt {
    pub name: String,
    pub columns: Vec<(String, DataType, bool)>,
    pub primary_key: Vec<String>,
    pub foreign_keys: Vec<ForeignKey>,
    pub cardinality_constraints: Vec<CardinalityConstraint>,
}

/// `CREATE INDEX name ON table (parts)` — usually unnecessary because the
/// compiler derives required indexes, but available for explicit control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateIndexStmt {
    pub name: String,
    pub table: String,
    pub parts: Vec<IndexKeyPart>,
}

/// Any parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    Insert(InsertStmt),
    Update(UpdateStmt),
    Delete(DeleteStmt),
    CreateTable(CreateTableStmt),
    CreateIndex(CreateIndexStmt),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_name_prefers_alias() {
        let t = TableRef {
            table: "subscriptions".into(),
            alias: Some("s".into()),
        };
        assert_eq!(t.binding_name(), "s");
        assert_eq!(TableRef::named("x").binding_name(), "x");
    }

    #[test]
    fn row_bound_accessors() {
        assert_eq!(RowBound::Limit(10).count(), 10);
        assert!(RowBound::Paginate(5).is_paginated());
        assert!(!RowBound::Limit(5).is_paginated());
    }
}
