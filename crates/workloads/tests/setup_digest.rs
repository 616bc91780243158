//! The data the two benchmarks load, pinned byte for byte: an FNV-1a
//! digest of everything a `LiveCluster` holds after `scadr::setup`, and
//! after `tpcw::setup` with the Table-1 queries registered (so the TOKEN
//! indexes they derive are backfilled). A change to how rows are
//! generated, encoded or loaded that moves a single stored byte moves the
//! digest. It also pins that a rebalance after TPC-W's set-up and
//! backfills moves no entry. What SCADr's set-up allocates per stored
//! entry, and that a rebalance after it moves nothing, are the cost
//! table's (`tests/cost.rs` at the repository root).

use piql_core::catalog::Catalog;
use piql_engine::Database;
use piql_kv::{KvStore, LiveCluster, LiveConfig, NsBalance};
use piql_workloads::scadr::{self, ScadrConfig};
use piql_workloads::tpcw::{self, TpcwConfig};
use std::sync::Arc;

/// A store of 16 shards a namespace, its rounds run on the calling thread.
fn database() -> Database<LiveCluster> {
    Database::new(Arc::new(LiveCluster::new(LiveConfig {
        shards_per_namespace: 16,
        pool_threads: 0,
        request_delay_us: 0,
    })))
}

/// FNV-1a over every namespace's name and entries, in namespace-id and
/// key order, each field preceded by its length; and the entry count.
fn digest(db: &Database<LiveCluster>) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut entries = 0;
    for (name, stored) in db.cluster().export_namespaces() {
        eat(name.as_bytes());
        entries += stored.len();
        for (key, value) in &stored {
            eat(key);
            eat(value);
        }
    }
    (hash, entries)
}

/// A rebalance leaves every namespace's entries where they are: the layout
/// the data was stored in is already the one its quantiles give.
fn assert_rebalance_moves_nothing(db: &Database<LiveCluster>) {
    let laid_out = db.cluster().balance();
    db.cluster().rebalance();
    let entries = |balance: Vec<NsBalance>| -> Vec<(String, Vec<u64>)> {
        balance.into_iter().map(|b| (b.name, b.entries)).collect()
    };
    assert_eq!(entries(db.cluster().balance()), entries(laid_out));
}

#[test]
fn scadr_loads_the_same_bytes() {
    let db = database();
    let users = scadr::setup(&db, &ScadrConfig::default(), 1).unwrap();
    let (hash, entries) = digest(&db);
    println!("scadr: {users} users, {entries} entries, {hash:#018x}");
    assert_eq!((hash, entries), (SCADR_DIGEST, SCADR_ENTRIES));
}

#[test]
fn tpcw_loads_and_backfills_the_same_bytes() {
    let db = database();
    tpcw::setup(&db, &TpcwConfig::default(), 1).unwrap();
    assert_rebalance_moves_nothing(&db);
    for (label, sql) in tpcw::TABLE1_SQL {
        db.prepare(sql).unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    let (hash, entries) = digest(&db);
    println!("tpcw: {entries} entries, {hash:#018x}");
    assert_eq!((hash, entries), (TPCW_DIGEST, TPCW_ENTRIES));
    // the backfilled indexes were laid out by their first page, which a
    // rebalance re-splits; the rebalance after that moves nothing
    db.cluster().rebalance();
    assert_rebalance_moves_nothing(&db);
}

#[test]
fn scadr_loads_no_user_and_a_lone_user() {
    for (users_per_node, expected) in [(0, 0), (1, 1)] {
        let db = database();
        let config = ScadrConfig {
            users_per_node,
            ..ScadrConfig::default()
        };
        assert_eq!(scadr::setup(&db, &config, 1).unwrap(), expected);
        let held = |table: &str| {
            let def = db.catalog().table(table).unwrap().clone();
            let ns = db.cluster().namespace(&Catalog::table_namespace(&def));
            db.cluster().ns_len(ns)
        };
        // a lone user follows nobody: there is nobody else to draw
        assert_eq!(held("users"), expected);
        assert_eq!(held("subscriptions"), 0);
        assert_eq!(held("thoughts"), expected * config.thoughts_per_user);
    }
}

/// What the default configurations load on one node, as `96a66bb` stored
/// it.
const SCADR_DIGEST: u64 = 0x64d1_677d_7004_14d6;
const SCADR_ENTRIES: usize = 15_500;
const TPCW_DIGEST: u64 = 0x46e3_4914_d2ac_8308;
const TPCW_ENTRIES: usize = 66_120;
