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
/// `Outbox.gate`: a JSON connection's decode window and its answers
/// printed and not yet written. Taken with nothing else held by the reader
/// (enter, or park while the window is full), by the threads that print an
/// answer into it, and by the writer, which takes the bytes, writes them
/// with it released, then leaves the window or closes it.
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

/// `Database.catalog`: table/index definitions, and the write epoch. Held
/// for read across a whole write, bulk load or sweep (their kv rounds and
/// WAL appends nest inside it), and for write only by a catalog mutation,
/// which `prepare` makes under the registry's statement locks. Never taken
/// twice by one thread: a second read queues behind a waiting mutation.
pub const ENGINE_CATALOG: u32 = 40;
/// `Database.write_plans`: compiled writes by statement text. Taken for
/// one map lookup, insert or clear, nested inside `ENGINE_CATALOG` (a
/// write's read guard, or a mutation's write guard that empties it), never
/// around it or a kv round.
pub const ENGINE_WRITE_PLANS: u32 = 42;
/// `Database.filled`: which indexes have had their first backfill. Taken
/// for one lookup or mark with no other engine lock held.
pub const ENGINE_FILLED: u32 = 43;

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

/// `testkit::Schedule.rounds`: a test double's round log. Taken to log a
/// round, never across the wrapped store's call or a participant's park, so
/// it sits outside every kv lock.
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

// ---- worker pools (innermost) ----
//
// Pool ranks sit above every data-plane rank on purpose: job bodies take
// kv/WAL locks, so a job body running while a pool lock is held would be
// an inversion — which is exactly the invariant (no user code under pool
// locks) we want machine-checked.

/// `RoundPool`'s `Workers` queue: round helpers waiting for a worker.
pub const POOL_QUEUE: u32 = 90;
/// `piql-server`'s dispatch `Workers` queue: tagged requests waiting for a
/// dispatch worker. A connection's reader pushes and a worker pops, each
/// with nothing else held.
pub const DISPATCH_QUEUE: u32 = 92;
/// `RoundState.pending`: a round's not-yet-claimed task list.
pub const POOL_ROUND_PENDING: u32 = 94;
/// `RoundState.inner`: a round's completion counters.
pub const POOL_ROUND_INNER: u32 = 96;
