//! # piql-kv
//!
//! The distributed, ordered key/value substrate PIQL runs on (§3 of the
//! paper; SCADS on EC2 in the original evaluation) — two backends behind
//! one [`KvStore`] trait, kept interchangeable by a shared conformance
//! suite:
//!
//! * [`SimCluster`] — a deterministic **virtual-time simulation**: the
//!   data is held once while *placement and timing* are modeled
//!   separately — range-partitioned namespaces with replica sets,
//!   per-node bounded concurrency with FIFO queueing, heavy-tailed
//!   (lognormal) service times, multi-tenant interference intervals, and
//!   eventual-consistency visibility lag on non-primary replicas.
//!   Everything is seeded and reproducible; no wall-clock time is
//!   consumed by simulated latency.
//! * [`LiveCluster`] — a **real-time sharded store** serving wall-clock
//!   [`Session`]s: namespaces routed by explicit split points behind
//!   `Arc`-swapped layout generations, data-driven quantile rebalancing,
//!   per-round latency sampling ([`OpSample`]/[`LiveSampleSink`]) for
//!   online model training, and runtime latency injection for drift
//!   tests.
//!
//! A range request is answered with one [`Entries`] block: every key and
//! value of the answer back to back in one buffer, their ends in another.
//! Both backends count what they are about to return, make room for
//! exactly that, and copy once — two allocations whatever the answer
//! holds, searched with the request's own bounds — and both answer an
//! empty or inverted interval with nothing instead of panicking in
//! `BTreeMap::range`. The engine reads keys and values where they lie;
//! [`KvResponse::into_entries`] converts to owned pairs for tests and
//! probes.
//!
//! An operator's fanned read round — its gets, or its ranges — travels
//! packed the same way: a [`ReadRound`] holds every probe in one buffer,
//! and [`KvStore::read_round`] answers it as one [`ReadAnswer`] block.
//! `LiveCluster` serves it where it was issued, sized over the whole round;
//! any other backend answers the requests it stands for.
//!
//! A round with service time to overlap fans out over a shared
//! [`RoundPool`] — a fixed-width worker pool whose callers participate in
//! their own round's queue (so saturation degrades to sequential
//! execution, never deadlock). Its threads are a [`Workers`] set, the
//! fixed threads over one typed job queue that `piql-server`'s pipelined
//! request dispatch runs on too.

pub mod cluster;
pub mod latency;
pub mod live;
pub mod node;
mod ns_table;
pub mod op;
pub mod partition;
pub mod pool;
pub mod sample;
pub mod session;
pub mod store;
pub mod testkit;
pub mod time;
pub mod wal;

pub use cluster::{ClusterConfig, KvStore, NsBalance, SimCluster};
pub use latency::{InterferenceConfig, LatencyConfig};
pub use live::{LiveCluster, LiveConfig, LiveStatsSnapshot};
pub use op::{
    BulkFeed, Entries, KvEntry, KvRequest, KvResponse, MalformedRound, NsId, Probe, ReadAnswer,
    ReadRound, RequestRound,
};
pub use pool::{PoolStats, RoundPool, Workers};
pub use sample::{LiveSampleSink, ModelKey, OpKind, OpSample};
pub use session::{Session, SessionStats};
pub use time::{Micros, MILLIS, SECONDS};
pub use wal::WalSink;
