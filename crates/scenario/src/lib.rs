//! # piql-scenario
//!
//! A deterministic, fault-injecting workload harness for the PIQL query
//! service — the "million-user Tuesday" the paper's SLO machinery exists
//! for (§2, §10): many tenants sharing one server, Zipf-skewed key
//! popularity, diurnal load swings, and the faults that turn a busy day
//! into an incident (a slow shard, a flash crowd, a wedged consumer).
//!
//! Unlike a benchmark, a scenario *asserts invariants* rather than just
//! printing numbers:
//!
//! * acked writes are never lost,
//! * tenants marked `assert_slo` keep their measured p99 under target,
//! * no connection starves, and
//! * the only tolerated failure is the typed `budget-exceeded` reject.
//!
//! Every random choice derives from [`ScenarioSpec::seed`], and each
//! connection fingerprints its operation stream before sending, so a
//! re-run with the same spec reproduces the same stream (and, in
//! fixed-count mode, the same admission/rejection counts).
//!
//! The harness drives the server's three overload controls end to end:
//! per-connection in-flight backpressure (`ServerTuning`), per-tenant
//! admission budgets (`OverloadConfig` / `TenantBudget`), and skew-
//! triggered auto-rebalance — see `ARCHITECTURE.md` §"Overload control
//! & scenario harness".

pub mod driver;
pub mod report;
pub mod spec;
pub mod zipf;

pub use driver::run_scenario;
pub use report::{ScenarioReport, ServerOverload, TenantReport};
pub use spec::{Controls, Fault, ScenarioSpec, TenantSpec};
pub use zipf::Zipfian;
