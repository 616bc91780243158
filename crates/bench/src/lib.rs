//! Shared infrastructure for the figure/table harnesses.
//!
//! Every harness prints a self-describing, machine-readable table. Set
//! `PIQL_QUICK=1` to shrink runs (CI) — shapes survive, absolute noise
//! grows.

use piql_kv::{ClusterConfig, InterferenceConfig, SimCluster};
use std::sync::Arc;

/// Whether quick mode is requested.
pub fn quick() -> bool {
    std::env::var("PIQL_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// Scale an iteration/duration knob down in quick mode.
pub fn scaled(full: u64, quick_value: u64) -> u64 {
    if quick() {
        quick_value
    } else {
        full
    }
}

/// The cluster configuration used by the measurement harnesses: EC2-2011
/// flavored latency, 2x replication, mild interference.
pub fn bench_cluster(nodes: usize, seed: u64) -> Arc<SimCluster> {
    let mut cfg = ClusterConfig::default().with_nodes(nodes).with_seed(seed);
    cfg.replication = 2;
    cfg.node_concurrency = 12;
    Arc::new(SimCluster::new(cfg))
}

/// Same, with interference disabled (scale-up figures: the paper plots a
/// single p99 per cluster size).
pub fn bench_cluster_calm(nodes: usize, seed: u64) -> Arc<SimCluster> {
    let mut cfg = ClusterConfig::default().with_nodes(nodes).with_seed(seed);
    cfg.replication = 2;
    cfg.node_concurrency = 12;
    cfg.interference = InterferenceConfig::none();
    Arc::new(SimCluster::new(cfg))
}

/// Print a harness header in a stable format.
pub fn header(id: &str, paper_ref: &str, what: &str) {
    println!("### {id} — {paper_ref}");
    println!("# {what}");
    if quick() {
        println!("# MODE: quick (PIQL_QUICK=1) — reduced sizes");
    }
}

/// Print one row of `key=value` pairs.
pub fn row(pairs: &[(&str, String)]) {
    let cells: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("{}", cells.join("\t"));
}
