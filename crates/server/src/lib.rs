//! # piql-server
//!
//! A success-tolerant query service fronting the PIQL engine — the serving
//! system the paper's story culminates in (§6, §10): because every
//! compiled query carries a static bound and a compile-time latency
//! prediction, the service can *refuse to execute* queries it cannot serve
//! within its SLO, before they touch storage.
//!
//! Pieces:
//!
//! * [`StatementRegistry`] — prepared statements with **SLO admission
//!   control**: register a PIQL query and it is compiled once and run
//!   through the §6 predictor; unbounded queries are rejected with the
//!   Performance Insight report, over-SLO queries are rejected or admitted
//!   with an advisor-degraded LIMIT, and only admitted statements ever
//!   issue storage requests.
//! * [`PiqlServer`] — a multi-threaded TCP front-end speaking the
//!   newline-delimited JSON protocol specified in `PROTOCOL.md` (`prepare`
//!   / `execute` / `cursor-next` / `dml` / `batch` / `stats` / `revalidate`
//!   / `rebalance` / `snapshot` / `explain`), **pipelined**, with two
//!   venues behind one request handler: an id-less request (and every
//!   binary frame) is answered by the connection's own thread, one at a
//!   time — all that "in arrival order" takes — while `id`-tagged requests
//!   are handled concurrently on a server-wide dispatch pool and answered
//!   in completion order; a writer thread per JSON connection streams
//!   responses back. Pagination cursors are serialized, client-held state
//!   that survives reconnects.
//! * [`Client`] — a small blocking client for that protocol, with a
//!   [`Pipeline`] handle and [`Client::execute_batch`] for amortizing a
//!   page-view's N statements into ~1 round trip.
//! * [`Revalidator`] — the live-model feedback loop: observed operator
//!   latencies drain from the backend into the shared §6.1 models, and a
//!   periodic sweep re-predicts every registered statement, re-degrading
//!   or flagging those whose refreshed p99 drifted over the SLO (and
//!   relaxing/recovering them when the store speeds back up).
//! * [`open_durable`] — the durable flavor of the stack: the same
//!   cluster/registry pair backed by `piql_durability` (write-ahead log
//!   with group commit, periodic snapshots, full-state crash recovery),
//!   so data, prepared statements, and live-trained models survive a
//!   `kill -9` and admission is re-validated at boot.
//! * The real-time backend itself lives in `piql_kv::LiveCluster`
//!   (re-exported here) so the engine stack runs on wall-clock storage.

pub mod binary;
pub mod budget;
pub mod client;
pub mod durable;
mod gate;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod testkit;
pub mod wire;

pub use binary::BinaryWire;
pub use budget::{BudgetDecision, BudgetPermit, BudgetPolicy, BudgetSnapshot, TenantBudget};
pub use client::{decode_page, Client, ClientError, Page, Pipeline};
pub use durable::{open_durable, DurableOptions, DurableStack, Readmission, SnapshotDaemon};
pub use json::{Json, JsonArr, JsonError};
pub use protocol::{Envelope, ProtoError, Reply, Request, RequestId};
pub use registry::{
    Admission, DriftAction, DriftEvent, DurabilityControl, ExecOutcome, FastKeyPart, FastPointPlan,
    OverloadConfig, RegisteredStatement, RegistryCounters, RegistryError, RevalidationSummary,
    Revalidator, SloConfig, StatementRegistry,
};
pub use server::{BinaryConn, Dispatch, JsonConn, PiqlServer, ServerTuning};
pub use wire::{JsonWire, Wire};

pub use piql_core::json;
pub use piql_kv::{LiveCluster, LiveConfig};
/// The one quantile rule of `stats` and of the experiment reports.
pub use piql_workloads::nearest_rank_ms;
