//! A miniature TPC-W run (§8.1.1): load the bookstore, run the ordering mix
//! closed-loop on a simulated cluster, and report WIPS plus per-interaction
//! p99 latencies.
//!
//! ```sh
//! cargo run --release --example tpcw_store
//! ```

use piql::engine::Database;
use piql::kv::SECONDS;
use piql_kv::{ClusterConfig, SimCluster};
use piql_workloads::driver::{run_closed_loop, DriverConfig};
use piql_workloads::tpcw::{setup, TpcwConfig, TpcwWorkload};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes = 10;
    let cluster = Arc::new(SimCluster::new(
        ClusterConfig::default().with_nodes(nodes).with_seed(1),
    ));
    let db = Database::new(cluster);
    let config = TpcwConfig {
        items: 5_000,
        customers_per_node: 100,
        ..Default::default()
    };
    let (customers, items, orders) = setup(&db, &config, nodes)?;
    println!(
        "TPC-W loaded: {customers} customers, {items} items, {orders} orders on {nodes} nodes"
    );

    let workload = TpcwWorkload::new(&db, customers, items, orders)?;
    println!("\ncompiled web-interaction queries (all scale-independent):");
    for (label, prepared) in workload.queries.labeled() {
        println!(
            "  {:<34} {:<22} ≤{} requests",
            label,
            format!("{}", prepared.compiled.class),
            prepared.compiled.bounds.requests
        );
    }

    let cfg = DriverConfig {
        sessions: 50, // 5 client machines x 10 threads (§8.5)
        duration_us: 20 * SECONDS,
        warmup_us: 3 * SECONDS,
        ..Default::default()
    };
    println!("\nrunning the ordering mix for 20 virtual seconds...");
    let m = run_closed_loop(&db, &workload, &cfg)?;
    println!(
        "throughput: {:.0} WIPS | pooled p99: {:.0} ms | {} interactions",
        m.throughput_per_sec(),
        m.quantile_ms(0.99),
        m.count()
    );
    println!("\nper-interaction p99 (ms):");
    for (kind, label) in piql_workloads::Workload::kinds(&workload)
        .iter()
        .enumerate()
    {
        let p99 = m.quantile_ms_of(kind, 0.99);
        if p99 > 0.0 {
            println!("  {label:<18} {p99:>6.0}");
        }
    }
    Ok(())
}
