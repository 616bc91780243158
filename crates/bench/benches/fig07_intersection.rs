//! Figure 7 — the subscriber-intersection query: scale-independent bounded
//! random lookups vs the cost-based optimizer's unbounded index scan, p99
//! response time as the target user's popularity grows (§8.3).
//!
//! Expected shape: the unbounded plan wins for unpopular users (up to ~4x
//! in the paper), grows linearly with subscriber count, and blows through
//! the SLO for popular users; the bounded plan stays flat.

use piql_bench::{bench_cluster_calm, header, row, scaled};
use piql_core::catalog::{Statistics, TableStats};
use piql_core::opt::Optimizer;
use piql_core::plan::params::Params;
use piql_core::tuple::Tuple;
use piql_core::value::Value;
use piql_engine::{Database, ExecStrategy};
use piql_kv::Session;
use piql_workloads::nearest_rank_ms;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FRIENDS: usize = 50;
const QUERY: &str = "SELECT owner, target FROM subscriptions \
     WHERE target = <target_user> AND owner IN [2: friends MAX 50]";

fn main() {
    header(
        "fig07",
        "Figure 7 (§8.3)",
        "subscriber intersection: p99 (ms) of 2 plans vs #subscribers; \
         bounded = PIQL scale-independent, unbounded = cost-based baseline",
    );
    let popularity: Vec<usize> = vec![10, 100, 500, 1000, 2000, 3000, 4000, 5000];
    let executions = scaled(2_000, 200) as usize;

    let cluster = bench_cluster_calm(10, 0x716);
    let db = Database::new(cluster);
    db.execute_ddl("CREATE TABLE users (username VARCHAR(24) NOT NULL, PRIMARY KEY (username))")
        .unwrap();
    db.execute_ddl(
        "CREATE TABLE subscriptions ( \
           owner VARCHAR(24) NOT NULL, target VARCHAR(24) NOT NULL, approved BOOL, \
           PRIMARY KEY (owner, target), \
           FOREIGN KEY (owner) REFERENCES users, \
           FOREIGN KEY (target) REFERENCES users, \
           CARDINALITY LIMIT 50 (owner) )",
    )
    .unwrap();

    // one celebrity per popularity level, each with exactly N subscribers
    let uname = |i: usize| format!("u{i:07}");
    let celeb = |n: usize| format!("celebrity{n:05}");
    let max_pop = *popularity.iter().max().unwrap();
    db.bulk_load(
        "users",
        (0..max_pop)
            .map(uname)
            .chain(popularity.iter().map(|&n| celeb(n)))
            .map(|u| Tuple::new(vec![Value::Varchar(u)])),
    )
    .unwrap();
    let mut subs = Vec::new();
    for &n in &popularity {
        for i in 0..n {
            subs.push(Tuple::new(vec![
                Value::Varchar(uname(i)),
                Value::Varchar(celeb(n)),
                Value::Bool(true),
            ]));
        }
    }
    db.bulk_load("subscriptions", subs).unwrap();
    db.cluster().rebalance();

    // the two optimizers: PIQL, and cost-based with Twitter-2009-ish stats
    // (average user has ~126 followers -> the scan looks cheap on average)
    let bounded = db.prepare(QUERY).unwrap();
    let mut stats = Statistics::new();
    let subs_table = db.catalog().table("subscriptions").unwrap().id;
    let mut ts = TableStats::with_rows(popularity.iter().sum::<usize>() as u64);
    ts.set_avg_group_size("target", 126.0);
    stats.set_table(subs_table, ts);
    let unbounded = db
        .prepare_with(QUERY, &Optimizer::cost_based(stats))
        .unwrap();
    assert!(bounded.compiled.bounds.guaranteed);
    assert!(!unbounded.compiled.bounds.guaranteed);
    println!(
        "# bounded plan: {} requests max | unbounded plan: est. {} requests at avg popularity",
        bounded.compiled.bounds.requests, unbounded.compiled.bounds.requests
    );

    let mut rng = StdRng::seed_from_u64(9);
    println!("subscribers\tp99_unbounded_scan_ms\tp99_bounded_lookup_ms");
    // unloaded measurement: each execution starts after the previous one
    // drained, so queries see the cluster's intrinsic latency, not a queue
    let mut clock: u64 = 0;
    for &n in &popularity {
        let mut lat_b = Vec::with_capacity(executions);
        let mut lat_u = Vec::with_capacity(executions);
        for _run in 0..executions {
            let friends: Vec<Value> = (0..FRIENDS)
                .map(|_| Value::Varchar(uname(rng.gen_range(0..max_pop))))
                .collect();
            let mut params = Params::new();
            params.set(0, Value::Varchar(celeb(n)));
            params.set(1, friends);
            let mut s = Session::at(clock);
            let t0 = s.begin();
            db.execute_with(&mut s, &bounded, &params, ExecStrategy::Parallel, None)
                .unwrap();
            lat_b.push(s.elapsed_since(t0));
            clock = s.now + 10_000;
            let mut s = Session::at(clock);
            let t0 = s.begin();
            db.execute_with(&mut s, &unbounded, &params, ExecStrategy::Parallel, None)
                .unwrap();
            lat_u.push(s.elapsed_since(t0));
            clock = s.now + 10_000;
        }
        row(&[
            ("subscribers", n.to_string()),
            (
                "p99_unbounded_scan_ms",
                format!("{:.1}", nearest_rank_ms(lat_u, 0.99)),
            ),
            (
                "p99_bounded_lookup_ms",
                format!("{:.1}", nearest_rank_ms(lat_b, 0.99)),
            ),
        ]);
    }
    println!("# paper shape: unbounded grows ~linearly and exceeds the bounded plan past the crossover; bounded stays flat (SLO-safe)");
}
