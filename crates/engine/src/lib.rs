//! # piql-engine
//!
//! The PIQL execution engine (§7 of the paper): iterator-model physical
//! operators over a distributed key/value store, three execution strategies
//! (Lazy / Simple / Parallel, §8.5), serializable client-side pagination
//! cursors (§4.1), and a write path that maintains secondary indexes and
//! enforces cardinality/uniqueness constraints on an eventually consistent
//! store (§7.2), driven by write plans compiled once per statement text.
//! The [`Database`] facade ties the compiler from `piql-core` to the
//! simulated cluster from `piql-kv`.

pub mod cursor;
pub mod database;
pub mod exec;
pub mod keys;
pub mod plan;
pub mod reference;
pub mod write;

pub use cursor::{Cursor, CursorState};
pub use database::{Database, DbError, Prepared, WritePlanStats, WRITE_PLAN_CACHE_CAP};
pub use exec::{ExecCtx, ExecError, ExecStrategy, QueryResult, RemoteOp};
pub use plan::WritePlan;
pub use reference::ReferenceExecutor;
pub use write::{Loader, WriteError, Writer};
