//! Write-ahead-log hook: the narrow seam `piql-durability` plugs into.
//!
//! [`LiveCluster`](crate::LiveCluster) is in-memory; durability lives in a
//! separate crate that implements [`WalSink`] and attaches it via
//! [`LiveCluster::attach_wal`](crate::LiveCluster::attach_wal). The store
//! calls the sink at exactly the points where its memory state changes:
//!
//! * `append_*` — invoked **inside the owning shard's write lock**, after
//!   the mutation has been decided but in the same critical section that
//!   applies it. Holding the lock means the sink observes per-key effects
//!   in exactly the order memory applies them, so replaying the log
//!   reproduces the same final state (and a fuzzy snapshot plus tail
//!   replay converges — puts and deletes are idempotent). Implementations
//!   must therefore be cheap here: buffer the record and return; never
//!   block on I/O.
//! * `commit` — invoked once per [`execute_round`](crate::KvStore) that
//!   contained at least one write, *before* the round is acknowledged to
//!   the session. This is the durability barrier: block until every
//!   record appended so far is on stable storage (group commit
//!   implementations coalesce concurrent callers into one fsync) and
//!   report whether the barrier was actually reached — a sink whose
//!   backing log has failed returns `false`, and the store latches that
//!   into [`LiveCluster::wal_degraded`](crate::LiveCluster) so the
//!   serving layer can stop acknowledging writes as durable. A bulk
//!   write (`bulk_put`, a `bulk_put_all` batch — logged as one put per
//!   entry it stores — `LiveCluster::bulk_load` and `bulk_delete`) ends
//!   with the same barrier, once per call: what it stored is durable
//!   when it returns.
//!
//! The trait lives in `piql-kv` (not `piql-durability`) so the store has
//! no dependency on the durability crate; a cluster with no sink attached
//! pays one relaxed `RwLock` read per write.

use crate::op::NsId;

/// Receiver for the store's write-ahead stream. See the module docs for
/// the calling contract (`append_*` under the shard lock, `commit` as the
/// pre-acknowledgement barrier).
pub trait WalSink: Send + Sync {
    /// A namespace came into existence (or is being announced at attach
    /// time). Records carry the assigned id so recovery can verify that
    /// replay reproduces the same id assignment.
    fn append_ns(&self, ns: NsId, name: &str);
    /// `key` in `ns` now maps to `value`.
    fn append_put(&self, ns: NsId, key: &[u8], value: &[u8]);
    /// `key` in `ns` is now absent.
    fn append_delete(&self, ns: NsId, key: &[u8]);
    /// Block until everything appended so far is durable. Returns `false`
    /// when the sink can no longer make the barrier durable (its backing
    /// log is dead) — the caller must not treat the writes as durable.
    fn commit(&self) -> bool;
}
