//! The durable serving stack: a [`LiveCluster`] + [`StatementRegistry`]
//! whose full state — data, DDL, prepared statements, and live-trained
//! latency models — survives a `kill -9`.
//!
//! [`open_durable`] is the one entry point. It recovers whatever a
//! previous process left in the data directory and wires the running
//! stack so everything that matters keeps being journaled:
//!
//! 1. **Read** the snapshot + WAL tail ([`Durability::open`] — no side
//!    effects yet).
//! 2. **Bootstrap**: the embedder's boot-time schema/seed closure runs
//!    against the fresh store, *unlogged*. It must be deterministic —
//!    create the same namespaces in the same order every boot (replay
//!    verifies the recorded namespace ids and fails loudly on drift).
//! 3. **Replay KV**: snapshot namespaces are cleared and reloaded (so
//!    rows deleted before the snapshot stay deleted even if the bootstrap
//!    re-seeded them), then the WAL tail reapplies in append order.
//! 4. **Replay DDL** through the engine, which re-derives catalog state
//!    and backfills indexes idempotently from the recovered rows.
//! 5. **Recover models**: the snapshot's model checkpoint (or the seed
//!    predictor when there is none) with every journaled rotation folded
//!    on top — the exact fold sequence the original process performed.
//! 6. **Re-register statements** against the *recovered* models: every
//!    surviving statement goes through full admission again, so a
//!    statement whose models drifted over the SLO while the server was
//!    down is re-degraded or dropped at boot, not at first execution.
//! 7. **Attach**: the WAL becomes the cluster's write-ahead sink, the
//!    model store's rotation observer journals every future rotation, and
//!    the registry's durability hook journals every future
//!    (un)registration and answers `stats` and `snapshot`.
//!
//! After step 7 an acknowledged write is a durable write: the cluster
//! appends under the shard write lock and blocks acknowledgement on the
//! group-commit watermark.

use crate::registry::{DurabilityControl, Periodic, SloConfig, StatementRegistry};
use piql_durability::{
    Durability, DurabilityConfig, DurabilityHealth, RecoveryReport, SnapshotInputs, SnapshotSummary,
};
use piql_engine::{Database, DbError};
use piql_kv::{LiveCluster, LiveConfig};
use piql_predict::{SharedModelStore, SloPredictor};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Options for [`open_durable`].
pub struct DurableOptions {
    /// The data directory (created if missing).
    pub data_dir: PathBuf,
    /// WAL-size threshold at which the [`SnapshotDaemon`] checkpoints.
    pub snapshot_wal_bytes: u64,
    pub live: LiveConfig,
    pub slo: SloConfig,
}

impl DurableOptions {
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            data_dir: data_dir.into(),
            snapshot_wal_bytes: 64 << 20,
            live: LiveConfig::default(),
            slo: SloConfig::default(),
        }
    }
}

/// What happened to one recovered statement at boot-time re-admission.
#[derive(Debug, Clone)]
pub struct Readmission {
    pub name: String,
    /// The re-admission verdict (`"admitted"`, `"degraded"`, ... or
    /// `"error"` if the recovered SQL no longer registers cleanly).
    pub verdict: String,
}

/// A fully wired durable serving stack.
pub struct DurableStack {
    pub cluster: Arc<LiveCluster>,
    pub db: Arc<Database<LiveCluster>>,
    pub registry: Arc<StatementRegistry<LiveCluster>>,
    pub models: Arc<SharedModelStore>,
    pub durability: Arc<Durability>,
    /// What recovery found (also surfaced in `stats`).
    pub report: RecoveryReport,
    /// Boot-time re-admission outcome per recovered statement.
    pub readmissions: Vec<Readmission>,
}

impl DurableStack {
    /// Execute DDL through the durable stack: applied, then journaled.
    /// Use this (not `db.execute_ddl`) for any runtime schema change that
    /// must survive a restart; boot-time bootstrap DDL stays unlogged
    /// because the bootstrap closure re-runs it every boot.
    pub fn execute_ddl(&self, sql: &str) -> Result<(), DbError> {
        self.db.execute_ddl(sql)?;
        self.durability.log_ddl(sql);
        Ok(())
    }

    /// Take a checkpoint now: rotate the WAL, export the full state, and
    /// compact the log behind it.
    pub fn snapshot(&self) -> io::Result<SnapshotSummary> {
        checkpoint(
            &self.cluster,
            &self.models,
            &self.registry,
            &self.durability,
        )
    }

    /// Crash simulation for tests: discard buffered (unacknowledged)
    /// records and kill the log, as a `kill -9` would. The in-memory
    /// stack keeps running but nothing further becomes durable.
    pub fn simulate_crash(&self) {
        self.durability.simulate_crash();
    }

    /// Graceful shutdown: unhook the registry (its `stats` and `snapshot`
    /// then answer as an in-memory server's) and make everything logged
    /// durable.
    pub fn close(&self) {
        self.models.set_rotation_observer(None);
        self.registry.set_durability(None);
        self.cluster.detach_wal();
        self.durability.close();
    }
}

/// The registry's [`DurabilityControl`]: its statement journal, the
/// `stats` health block and the `snapshot` verb.
struct StackControl {
    cluster: Arc<LiveCluster>,
    models: Arc<SharedModelStore>,
    /// Weak: the registry holds this control, and a strong handle back
    /// would keep the stack alive after its last user dropped it.
    registry: Weak<StatementRegistry<LiveCluster>>,
    durability: Arc<Durability>,
}

impl DurabilityControl for StackControl {
    fn upserted(&self, name: &str, sql: &str) {
        self.durability.log_statement_upsert(name, sql);
    }

    fn dropped(&self, name: &str) {
        self.durability.log_statement_drop(name);
    }

    fn health(&self) -> DurabilityHealth {
        self.durability.health()
    }

    fn checkpoint(&self) -> io::Result<SnapshotSummary> {
        let registry = (self.registry.upgrade())
            .ok_or_else(|| io::Error::other("the statement registry is gone"))?;
        checkpoint(&self.cluster, &self.models, &registry, &self.durability)
    }
}

/// Checkpoint the stack's state — every namespace, the registered
/// statements and the model intervals — whoever asks: the embedder, the
/// `snapshot` verb, the [`SnapshotDaemon`].
fn checkpoint(
    cluster: &LiveCluster,
    models: &SharedModelStore,
    registry: &StatementRegistry<LiveCluster>,
    durability: &Durability,
) -> io::Result<SnapshotSummary> {
    durability.snapshot_with(|| {
        // reads happen after the WAL rotation (snapshot_with invokes
        // this closure post-rotation), which is what makes the fuzzy
        // snapshot + tail-replay combination converge. A statement whose
        // record went to the retired segment was inserted under the
        // registry's write lock before its append, so this read sees it.
        let (store, rotations) = models.snapshot_with_rotations();
        SnapshotInputs {
            namespaces: cluster.export_namespaces(),
            statements: (registry.list().iter())
                .map(|s| (s.name.clone(), s.sql.clone()))
                .collect(),
            models: Some((rotations, store.interval_maps().to_vec())),
        }
    })
}

/// Open (or create) a durable stack at `opts.data_dir`. `seed` provides
/// the models used on a first boot (and beneath any checkpoint-free
/// recovery); `bootstrap` is the embedder's deterministic boot-time
/// schema/seed routine (see the module docs for the ordering contract).
pub fn open_durable(
    opts: DurableOptions,
    seed: SloPredictor,
    bootstrap: impl FnOnce(&Arc<Database<LiveCluster>>) -> Result<(), DbError>,
) -> io::Result<DurableStack> {
    let (mut recovered, durability) = Durability::open(DurabilityConfig {
        snapshot_wal_bytes: opts.snapshot_wal_bytes,
        ..DurabilityConfig::new(opts.data_dir)
    })?;

    let cluster = Arc::new(LiveCluster::new(opts.live));
    let db = Arc::new(Database::new(cluster.clone()));
    bootstrap(&db).map_err(|e| io::Error::other(format!("bootstrap failed: {e}")))?;
    recovered.apply_kv(&cluster)?;
    for sql in &recovered.ddl {
        db.execute_ddl(sql)
            .map_err(|e| io::Error::other(format!("replaying logged DDL '{sql}': {e}")))?;
    }

    let models = Arc::new(SharedModelStore::new(
        recovered.models((*seed.models).clone()),
    ));
    let registry = Arc::new(StatementRegistry::with_models(
        db.clone(),
        models.clone(),
        opts.slo,
    ));

    // Re-admission: every recovered statement goes through full admission
    // against the recovered models. The registry is not hooked up yet, so
    // surviving statements are not re-upserted (their records are already
    // in the log); ones that no longer pass are dropped explicitly.
    let mut readmissions = Vec::with_capacity(recovered.statements.len());
    for (name, sql) in &recovered.statements {
        let verdict = match registry.register(name, sql) {
            Ok(admission) => {
                if !admission.is_admitted() {
                    durability.log_statement_drop(name);
                }
                admission.verdict().to_string()
            }
            Err(e) => {
                durability.log_statement_drop(name);
                format!("error: {e}")
            }
        };
        readmissions.push(Readmission {
            name: name.clone(),
            verdict,
        });
    }

    // Attach: from here on, every write, rotation, and (un)registration
    // is journaled, and acknowledgements wait on the commit watermark.
    cluster.attach_wal(durability.clone());
    models.set_rotation_observer(Some(Box::new({
        let durability = durability.clone();
        move |interval| durability.log_model_interval(interval)
    })));
    registry.set_durability(Some(Arc::new(StackControl {
        cluster: cluster.clone(),
        models: models.clone(),
        registry: Arc::downgrade(&registry),
        durability: durability.clone(),
    })));

    Ok(DurableStack {
        cluster,
        db,
        registry,
        models,
        report: recovered.report,
        readmissions,
        durability,
    })
}

/// A background thread that checkpoints whenever the WAL outgrows the
/// configured threshold ([`Durability::wants_snapshot`]), bounding both
/// log size and recovery time. Dropping it stops the checks (joining the
/// thread); an in-flight checkpoint finishes first.
pub struct SnapshotDaemon {
    _thread: Periodic,
}

impl SnapshotDaemon {
    pub fn spawn(stack: &DurableStack, check_period: Duration) -> SnapshotDaemon {
        let cluster = stack.cluster.clone();
        let models = stack.models.clone();
        let registry = stack.registry.clone();
        let durability = stack.durability.clone();
        SnapshotDaemon {
            _thread: Periodic::spawn("piql-snapshot", check_period, move || {
                if durability.is_dead() || !durability.wants_snapshot() {
                    return;
                }
                if let Err(e) = checkpoint(&cluster, &models, &registry, &durability) {
                    eprintln!("piql-snapshot: checkpoint failed: {e}");
                }
            }),
        }
    }
}
