//! The global lock-rank table.
//!
//! Every lock in the workspace is constructed with one of these ranks. A
//! thread may only acquire a lock whose rank is **strictly greater** than
//! every rank it already holds, so any cycle in the runtime lock graph —
//! the precondition for deadlock — trips a panic in `lock-order` builds
//! instead of hanging in production. Equal ranks cannot nest either, which
//! is deliberate: peers at one rank (e.g. the shards of a namespace, or
//! the latency-sample stripes of a cluster) must never be held together,
//! and giving them one shared rank machine-checks that.
//!
//! Ranks are ordered outermost-first: a small rank is an *outer* lock that
//! may be held while inner (larger-rank) locks are taken. The gaps between
//! neighbouring ranks are intentional slack for future locks.
//!
//! ## Adding a new lock
//!
//! 1. Enumerate every path that can hold an existing lock while taking the
//!    new one, and every path that can hold the new one while taking an
//!    existing one; the constants below are the current order.
//! 2. Pick a rank strictly between the outermost lock that can be held
//!    *around* it and the innermost lock it can be held *around*. If no such
//!    gap exists the design has a cycle — fix the design, not the table.
//! 3. Add the constant here with a doc comment naming the owning struct and
//!    field, construct the lock through [`crate::ordered`] with it and an
//!    `"owner.field"` name, and run the suite with `--features lock-order`.

// ---- server connection plumbing (outermost: held around whole requests) ----

/// `Server` accept loop's registry of live connection streams.
pub const SERVER_STREAMS: u32 = 5;
/// The `Gate` of a JSON connection's backpressure window (decoded but not
/// yet written requests). Taken with nothing else held by both the reader
/// (enter, or park while full) and the writer (leave, or close).
pub const SERVER_INFLIGHT: u32 = 8;
/// `Outbox.printed`: a JSON connection's answers printed and not yet
/// written. Taken with nothing else held by the threads that print an
/// answer into it and by the writer, which takes the bytes and writes
/// them with it released.
pub const SERVER_OUTBOX: u32 = 9;

// ---- statement registry, and the checkpoint that reads it ----

/// `StatementRegistry.sweep_lock`: serialises whole revalidation sweeps.
pub const REGISTRY_SWEEP: u32 = 10;
/// `Durability.snapshot_lock`: serialises snapshot production. Outside the
/// registry's statement map, which a checkpoint reads after its rotation.
pub const DUR_SNAPSHOT: u32 = 15;
/// `StatementRegistry.statements`: the name → statement map. Journaling
/// happens while this is held for write (install/uninstall ordering).
pub const REGISTRY_STATEMENTS: u32 = 20;
/// `StatementRegistry.overload`: the rebalance trigger, read once per
/// sweep. A leaf: nothing is taken while it is held.
pub const REGISTRY_OVERLOAD: u32 = 22;
/// `StatementRegistry.durability`: the optional durability hook, read
/// under the statements write lock to journal a registration.
pub const REGISTRY_DURABILITY: u32 = 26;
/// `StatementRegistry.tenants`: tenant name → admission budget map.
pub const REGISTRY_TENANTS: u32 = 27;
/// `TenantBudget.gate`: one tenant's permit count, cap and policy. Held
/// only for that bookkeeping (a queued admit parks with it released),
/// never across an execution.
pub const TENANT_BUDGET: u32 = 28;
/// `RegisteredStatement.state`: per-statement compiled plan + prediction.
pub const STATEMENT_STATE: u32 = 30;

// ---- engine ----

/// `Database.ddl`: serialises catalog mutations, each held from the
/// generation it moves to the end of its wait for the writes of the one
/// it retired. Taken by `prepare` under the registry's statement locks,
/// and around `ENGINE_CATALOG`; never by a write.
pub const ENGINE_DDL: u32 = 38;

/// `Database.catalog`: table/index definitions. Held only for short
/// clone/update critical sections, but DDL paths take it before touching kv.
pub const ENGINE_CATALOG: u32 = 40;
/// `Database.write_plans`: compiled writes by statement text. A leaf of
/// the engine: taken for one map lookup or insert with nothing else held
/// (the catalog generation is read, and a plan compiled, before it), so it
/// could nest inside `ENGINE_CATALOG` but never around it or a kv round.
pub const ENGINE_WRITE_PLANS: u32 = 42;

// ---- predictor shared-model store ----

/// `SharedModelStore.rotate_lock`: serialises model rotation.
pub const MODEL_ROTATE: u32 = 44;
/// `SharedModelStore.live`: the accumulating live interval.
pub const MODEL_LIVE: u32 = 45;
/// `SharedModelStore.published`: the published model snapshot.
pub const MODEL_PUBLISHED: u32 = 46;
/// `SharedModelStore.observer`: rotation observer callback slot. Held while
/// the observer runs, which may append to the WAL (rank `WAL_PENDING`).
pub const MODEL_OBSERVER: u32 = 47;

/// `testkit::Interleave.state`: a test double's round log and hook slot.
/// Taken to record a round or take the hook, never across the wrapped
/// store's call, so it sits outside every kv lock.
pub const KV_TESTKIT: u32 = 49;

// ---- kv clusters (live and simulated) ----

/// `NsTable.table` (`LiveCluster.namespaces`, `SimCluster.namespaces`):
/// namespace ids and names. A namespace is created, and `attach_wal`
/// installs its sink, under it for write, taking the WAL slot inside.
pub const KV_NAMESPACES: u32 = 52;
/// `LiveCluster.wal`: the cluster's one WAL sink slot. Every write holds
/// it for read across its table and shard locks.
pub const KV_CLUSTER_WAL: u32 = 54;
/// `piql_kv::store::Namespace.entries` ("sim.store"): a versioned key space.
pub const SIM_STORE: u32 = 57;
/// `LiveNamespace.table`: the current `ShardSet` generation. Writers hold
/// it for read across shard mutation; rebalance holds it for write.
pub const KV_TABLE: u32 = 58;
/// `ShardSet.shards[i]`: one shard. Peers — never held together.
pub const KV_SHARD: u32 = 60;
/// `LiveSampleSink.stripes[i]`: one latency-sample stripe. Peers.
pub const KV_SAMPLE_STRIPE: u32 = 62;
/// `StorageNode.state`: simulated node timing state (leaf).
pub const SIM_NODE: u32 = 63;

// ---- durability coordinator (the DDL mirror) ----

/// `Durability.ddl`: the DDL mirror. Each DDL log call appends to the WAL
/// while it is held.
pub const DUR_MIRROR: u32 = 70;
/// `Durability.snapshot_time`: last-snapshot timestamp (leaf metadata).
pub const DUR_SNAPSHOT_TIME: u32 = 72;

// ---- write-ahead log ----

/// `Wal.segment`: the open segment file. A committing caller holds it
/// across its write and fsync; it, `rotate_to` and `abandon` take it
/// before `pending`, so staged bytes leave `pending` only for the holder
/// of the file.
pub const WAL_SEGMENT: u32 = 80;
/// `Wal.pending`: the group-commit staging buffer. A leaf: an append takes
/// it alone, with whatever kv or model lock its caller holds.
pub const WAL_PENDING: u32 = 82;

// ---- dispatch pool (innermost) ----
//
// Pool ranks sit above every data-plane rank on purpose: task bodies take
// kv/WAL locks, so a task body running while a pool lock is held would be
// an inversion — which is exactly the invariant (no user code under pool
// locks) we want machine-checked.

/// `PoolShared.queue`: the submitted-task queue.
pub const POOL_QUEUE: u32 = 90;
/// `RoundState.pending`: a round's not-yet-claimed task list.
pub const POOL_ROUND_PENDING: u32 = 94;
/// `RoundState.inner`: a round's completion counters.
pub const POOL_ROUND_INNER: u32 = 96;
