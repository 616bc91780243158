//! Building the program under test: schema, bulk load, prepared
//! statements, and (for the traced run of `post_v3`) the durable stack on
//! disk.

use crate::spec::{self, Kind, Workload};
use crate::trace::{TracedStore, TracedWal, Tracer};
use piql_durability::{Durability, DurabilityConfig, SyncPolicy};
use piql_engine::{Database, DbError};
use piql_kv::{KvStore, LiveCluster, LiveConfig};
use piql_predict::SloPredictor;
use piql_server::testkit::linear_predictor;
use piql_server::{
    open_durable, DurableOptions, DurableStack, PiqlServer, SloConfig, SnapshotDaemon,
    StatementRegistry,
};
use piql_workloads::scadr::{self, ScadrConfig};
use piql_workloads::tpcw::{self, TpcwConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Names the SCADr reads are registered under.
pub const SCADR_READS: [&str; 4] = [
    "find_user",
    "users_followed",
    "recent_thoughts",
    "thoughtstream",
];

/// Names the Table-1 TPC-W queries are registered under, in
/// `tpcw::TABLE1_SQL` order.
pub const TPCW_READS: [&str; 10] = [
    "home_customer",
    "home_promotions",
    "new_products",
    "product_detail",
    "search_author",
    "search_title",
    "od_customer",
    "od_last_order",
    "od_lines",
    "buy_cart",
];

pub fn scadr_config() -> ScadrConfig {
    ScadrConfig {
        users_per_node: spec::SCADR_USERS,
        thoughts_per_user: spec::SCADR_THOUGHTS_PER_USER,
        subscriptions_per_user: spec::SCADR_SUBSCRIPTIONS_PER_USER,
        ..Default::default()
    }
}

fn tpcw_config() -> TpcwConfig {
    TpcwConfig {
        items: spec::TPCW_ITEMS,
        customers_per_node: spec::TPCW_CUSTOMERS,
        ..Default::default()
    }
}

/// `(name, sql)` of every statement the workload prepares.
pub fn statements(kind: Kind) -> Vec<(&'static str, String)> {
    match kind {
        Kind::TpcwMix => TPCW_READS
            .iter()
            .zip(tpcw::TABLE1_SQL)
            .map(|(name, (_, sql))| (*name, sql.to_string()))
            .collect(),
        _ => {
            let q = scadr::queries(&scadr_config());
            SCADR_READS
                .into_iter()
                .zip([
                    q.find_user,
                    q.users_followed,
                    q.recent_thoughts,
                    q.thoughtstream,
                ])
                .collect()
        }
    }
}

fn load<S: KvStore>(db: &Database<S>, kind: Kind) -> Result<(), DbError> {
    match kind {
        Kind::TpcwMix => tpcw::setup(db, &tpcw_config(), 1).map(|_| ()),
        _ => scadr::setup(db, &scadr_config(), 1).map(|_| ()),
    }
}

/// A predictor that admits everything: admission is not under test.
fn predictor() -> SloPredictor {
    linear_predictor(200, 100, 2)
}

fn slo() -> SloConfig {
    SloConfig {
        slo_ms: 1e9,
        interval_confidence: 1.0,
        allow_degrade: false,
    }
}

/// The on-disk half of a durable stack. Dropping it closes the log and
/// removes the directory.
pub struct Durable {
    pub durability: Arc<Durability>,
    pub dir: PathBuf,
    daemon: Option<SnapshotDaemon>,
}

impl Drop for Durable {
    fn drop(&mut self) {
        self.daemon = None;
        self.durability.close();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One loaded instance of the program under test.
pub struct Stack<S: KvStore + 'static = LiveCluster> {
    pub cluster: Arc<LiveCluster>,
    pub db: Arc<Database<S>>,
    pub registry: Arc<StatementRegistry<S>>,
    pub durable: Option<Durable>,
}

impl<S: KvStore + 'static> Stack<S> {
    fn register_all(&self, kind: Kind) {
        for (name, sql) in statements(kind) {
            let admission = self
                .registry
                .register(name, &sql)
                .unwrap_or_else(|e| panic!("prepare {name}: {e}"));
            assert!(admission.is_admitted(), "{name} was not admitted");
        }
    }
}

impl Stack<LiveCluster> {
    /// Schema + bulk load + prepare of every statement, exactly as `run`
    /// measures it; `durable` builds it under `open_durable`, logging to
    /// `dir`.
    pub fn build(w: &Workload, dir: &Path, durable: bool) -> Self {
        let stack = if durable {
            let _ = std::fs::remove_dir_all(dir);
            let mut opts = DurableOptions::new(dir);
            // group commit (the default), and no checkpoint during a run:
            // one rewrites the whole data set, and the sandbox's disk then
            // answers fsync slowly for minutes, for every later run
            opts.snapshot_wal_bytes = 1 << 30;
            opts.slo = slo();
            let durable =
                open_durable(opts, predictor(), |db| load(db, w.kind)).expect("open durable stack");
            let daemon = SnapshotDaemon::spawn(&durable, Duration::from_millis(20));
            Stack {
                cluster: durable.cluster,
                db: durable.db,
                registry: durable.registry,
                durable: Some(Durable {
                    durability: durable.durability,
                    dir: dir.to_path_buf(),
                    daemon: Some(daemon),
                }),
            }
        } else {
            let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
            let db = Arc::new(Database::new(cluster.clone()));
            load(&db, w.kind).expect("load data");
            let registry = Arc::new(StatementRegistry::new(db.clone(), predictor(), slo()));
            Stack {
                cluster,
                db,
                registry,
                durable: None,
            }
        };
        stack.register_all(w.kind);
        stack
    }

    /// Reopen a durable directory after a crash: the same bootstrap, then
    /// snapshot + log replay.
    pub fn recover(w: &Workload, dir: &Path) -> Self {
        let mut opts = DurableOptions::new(dir);
        opts.slo = slo();
        let durable =
            open_durable(opts, predictor(), |db| load(db, w.kind)).expect("recover durable stack");
        Stack::over(durable, dir, None)
    }

    fn over(durable: DurableStack, dir: &Path, daemon: Option<SnapshotDaemon>) -> Self {
        Stack {
            cluster: durable.cluster,
            db: durable.db,
            registry: durable.registry,
            durable: Some(Durable {
                durability: durable.durability,
                dir: dir.to_path_buf(),
                daemon,
            }),
        }
    }

    pub fn serve(&self) -> PiqlServer {
        PiqlServer::start_with_registry(self.registry.clone(), "127.0.0.1:0").expect("start server")
    }
}

impl Stack<TracedStore> {
    /// The same program with the benchmark's `KvStore` and `WalSink`
    /// wrappers between the engine and the store, for the traced run only.
    /// A durable stack is wired by hand because `open_durable` is fixed to
    /// `LiveCluster`; no checkpoint daemon, so spans are not interrupted.
    pub fn build_traced(w: &Workload, dir: &Path, durable: bool, tracer: &Arc<Tracer>) -> Self {
        let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
        let store = Arc::new(TracedStore::new(cluster.clone(), tracer.clone()));
        let db = Arc::new(Database::new(store));
        load(&db, w.kind).expect("load data");
        let durable = durable.then(|| {
            let _ = std::fs::remove_dir_all(dir);
            let (_, durability) = Durability::open(DurabilityConfig {
                dir: dir.to_path_buf(),
                policy: SyncPolicy::GroupCommit,
                snapshot_wal_bytes: u64::MAX,
            })
            .expect("open log");
            cluster.attach_wal(Arc::new(TracedWal::new(durability.clone(), tracer.clone())));
            Durable {
                durability,
                dir: dir.to_path_buf(),
                daemon: None,
            }
        });
        let registry = Arc::new(StatementRegistry::new(db.clone(), predictor(), slo()));
        let stack = Stack {
            cluster,
            db,
            registry,
            durable,
        };
        stack.register_all(w.kind);
        stack
    }
}
