//! # piql-workloads
//!
//! The paper's two benchmarks — TPC-W's customer-facing queries (§8.1.1)
//! and the SCADr microblogging service (§8.1.2) — plus the closed-loop
//! driver and metrics used by every scale experiment (§8.4).

pub mod driver;
pub mod metrics;
pub mod scadr;
pub mod tpcw;

pub use driver::{run_closed_loop, DriverConfig, Workload};
pub use metrics::{linear_fit, nearest_rank_ms, RunMetrics, Sample};

/// `text`, emptied and refilled with `args`: a loader's per-row text, in
/// one buffer kept from row to row.
pub(crate) fn fill<'t>(text: &'t mut String, args: std::fmt::Arguments<'_>) -> &'t str {
    text.clear();
    let _ = std::fmt::Write::write_fmt(text, args); // a `String` takes any text
    text
}
