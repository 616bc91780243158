//! # piql-core
//!
//! The PIQL language and scale-independent query compiler — the primary
//! contribution of *PIQL: Success-Tolerant Query Processing in the Cloud*
//! (Armbrust et al., PVLDB 5(3), 2011).
//!
//! This crate is storage-agnostic: it defines values, schemas, the PIQL
//! dialect (SQL + `PAGINATE` + `CARDINALITY LIMIT`), logical and physical
//! plans, and the two-phase optimizer that either produces a plan with a
//! static bound on the number of key/value-store operations or rejects the
//! query with actionable feedback (the Performance Insight Assistant).
//! Execution lives in `piql-engine`; the simulated store in `piql-kv`.

pub mod ast;
pub mod catalog;
pub mod codec;
pub mod json;
pub mod opt;
pub mod parser;
pub mod plan;
pub mod rows;
pub mod text;
pub mod tuple;
pub mod value;

pub use catalog::Catalog;
pub use opt::{Compiled, Objective, OptError, Optimizer, QueryClass};
pub use parser::{parse, parse_select, ParseError};
pub use rows::{Row, RowRef, Rows, RowsBuilder, RowsError};
pub use tuple::Tuple;
pub use value::{DataType, Value, ValueRef};
