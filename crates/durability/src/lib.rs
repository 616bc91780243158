//! Durability for the PIQL serving stack: write-ahead logging with group
//! commit, periodic snapshots with log compaction, and full-state crash
//! recovery.
//!
//! The paper's scale-independence argument assumes the serving tier can
//! restart without losing the state that makes its SLO predictions
//! meaningful: the data itself, the prepared statements that passed
//! admission control, and the latency models trained from live traffic.
//! This crate persists all three:
//!
//! * [`wal`] — a length-prefixed, CRC-checksummed append log. An append
//!   only stages its frame; a writer blocks in [`Wal::commit`] until its
//!   records are on stable storage, and the first of a queue of
//!   committers writes and syncs everything staged for all of them (group
//!   commit, the one commit path), so an acknowledged write is a durable
//!   write.
//! * [`snapshot`] — atomic whole-state checkpoints (KV namespaces, DDL,
//!   registered statements, model intervals) that let the log be
//!   truncated behind them.
//! * [`coord`] — the [`Durability`] coordinator tying both together:
//!   generation management via a `MANIFEST` file, recovery that replays
//!   snapshot + WAL tail, and journaling hooks for DDL, statement
//!   registration, and model rotations.
//!
//! The crate is storage-only: it knows how to read and write state, not
//! how to interpret it. `piql-server` wires it to a live stack (see
//! `open_durable` there) and re-validates recovered statements against
//! the recovered models on boot.

pub mod coord;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use coord::{
    Durability, DurabilityConfig, DurabilityHealth, RecoveredState, RecoveryReport, SnapshotInputs,
    SnapshotSummary,
};
pub use record::{crc32, RecordError, WalRecord};
pub use snapshot::{read_snapshot, write_snapshot, ModelCheckpoint, SnapshotState};
pub use wal::{read_wal, SyncPolicy, TailState, Wal, WalContents, WalCounters};
