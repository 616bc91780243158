//! # piql-audit
//!
//! The static workload auditor: a compile-time analysis pass over PIQL
//! plans that proves (or refutes) each statement's scale-independence and
//! SLO feasibility *before* anything touches storage.
//!
//! For every statement the auditor produces a **bound-derivation tree**
//! ([`tree::DerivationNode`]): one node per physical operator, annotated
//! with its static op-count bounds, the [`piql_core::plan::Provenance`]
//! that justifies each bound (which `LIMIT`/`PAGINATE` clause, primary
//! key, `CARDINALITY LIMIT` declaration, or parameter `MAX`), and — given
//! a model snapshot — the operator term that dominates the predicted p99.
//! Findings surface as rustc-style [`audit::Diagnostic`]s with concrete
//! rewrite suggestions.
//!
//! Consumed three ways:
//! * the server's `explain` protocol verb (JSON v2 and binary v3);
//! * the offline CLI (`cargo run -p piql-audit -- workload.piql
//!   --slo-ms 50`), which audits a whole workload file against a
//!   synthetic or exported model snapshot and exits non-zero on any
//!   unbounded or SLO-infeasible statement — the CI gate;
//! * the admission registry, whose rejections reuse the same structured
//!   diagnostics.

pub mod audit;
pub mod model;
pub mod report;
pub mod tree;
pub mod workload;

pub use audit::{audit_compiled, audit_statement, Diagnostic, Outcome, Severity, StatementAudit};
pub use model::LinearModelSpec;
pub use report::{audit_workload, WorkloadReport};
pub use tree::{derivation_tree, BoundInfo, CostTerm, DerivationNode};
pub use workload::{parse_workload, parse_workload_with, Workload, WorkloadEntry, WorkloadError};
