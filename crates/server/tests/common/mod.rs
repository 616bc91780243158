//! The SCADr store this crate's suites load: 30 users on each of 2 nodes,
//! 12 thoughts and 5 subscriptions a user, on a `LiveCluster`. Each test
//! target that includes this module builds its own copy per test.

// each test target that includes this module uses its own part of it
#![allow(dead_code)]

use piql_engine::Database;
use piql_kv::{LiveCluster, LiveConfig};
use piql_workloads::scadr::{self, ScadrConfig};
use std::sync::Arc;

/// The loaded store's configuration; `max_subscriptions` is the
/// cardinality limit the thoughtstream's bound is derived from.
pub fn scadr_config(max_subscriptions: u64) -> ScadrConfig {
    ScadrConfig {
        users_per_node: 30,
        thoughts_per_user: 12,
        subscriptions_per_user: 5,
        max_subscriptions,
        ..Default::default()
    }
}

/// A `LiveCluster` loaded with [`scadr_config`]'s SCADr, and the database
/// over it.
pub fn scadr_db(max_subscriptions: u64) -> (Arc<LiveCluster>, Arc<Database<LiveCluster>>) {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster.clone()));
    scadr::setup(&db, &scadr_config(max_subscriptions), 2).unwrap();
    (cluster, db)
}
