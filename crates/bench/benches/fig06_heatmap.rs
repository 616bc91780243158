//! Figure 6 — the Performance Insight Assistant's predicted-p99 heatmap
//! for the thoughtstream query (§6.4): subscriptions-per-user (100–500) ×
//! records-per-page (10–50), plus the average predicted-minus-actual gap
//! (paper: predictions average 13 ms above measurements).

use piql_bench::{bench_cluster, header, scaled};
use piql_core::catalog::{Catalog, TableDef};
use piql_core::opt::Optimizer;
use piql_core::parser::parse_select;
use piql_core::plan::params::Params;
use piql_core::tuple::Tuple;
use piql_core::value::{DataType, Value};
use piql_engine::{Database, ExecStrategy};
use piql_kv::Session;
use piql_predict::{train, Heatmap, SloPredictor, TrainConfig};
use piql_workloads::nearest_rank_ms;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn thoughtstream_sql(page: u64) -> String {
    format!(
        "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
         WHERE thoughts.owner = s.target AND s.owner = <uname> AND s.approved = true \
         ORDER BY thoughts.timestamp DESC LIMIT {page}"
    )
}

/// Catalog with a given subscription cardinality limit (for prediction-side
/// compilation).
fn catalog_with_limit(subs: u64) -> Catalog {
    let mut cat = Catalog::new();
    cat.create_table(
        TableDef::builder("users")
            .column("username", DataType::Varchar(24))
            .primary_key(&["username"])
            .build(),
    )
    .unwrap();
    cat.create_table(
        TableDef::builder("subscriptions")
            .column("owner", DataType::Varchar(24))
            .column("target", DataType::Varchar(24))
            .column("approved", DataType::Bool)
            .primary_key(&["owner", "target"])
            .cardinality_limit(subs, &["owner"])
            .build(),
    )
    .unwrap();
    cat.create_table(
        TableDef::builder("thoughts")
            .column("owner", DataType::Varchar(24))
            .column("timestamp", DataType::Timestamp)
            .column("text", DataType::Varchar(140))
            .primary_key(&["owner", "timestamp"])
            .build(),
    )
    .unwrap();
    cat
}

fn main() {
    header(
        "fig06",
        "Figure 6 (§6.4)",
        "predicted p99 (ms) heatmap for the thoughtstream query; rows = subscriptions \
         per user, cols = records per page; plus predicted-vs-actual gap",
    );
    let subs_values: Vec<u64> = (100..=500).step_by(50).map(|v| v as u64).collect();
    let page_values: Vec<u64> = (10..=50).step_by(5).map(|v| v as u64).collect();
    let executions = scaled(80, 15) as usize;

    // ---- train the operator models (§6.1) on a production-like cluster
    let train_cluster = bench_cluster(10, 0xF06);
    let config = TrainConfig {
        intervals: scaled(20, 5) as usize,
        samples_per_interval: scaled(10, 4) as usize,
        ..TrainConfig::default()
    };
    let models = train(&train_cluster, &config);
    println!(
        "# trained {} samples over {} intervals",
        models.total_samples(),
        models.n_intervals()
    );
    let predictor = SloPredictor::new(models);

    // ---- predicted heatmap
    let optimizer = Optimizer::scale_independent();
    let heat = Heatmap::build(
        &predictor,
        "subscriptions per user",
        "records per page",
        subs_values.clone(),
        page_values.clone(),
        |subs, page| {
            let cat = catalog_with_limit(subs);
            optimizer
                .compile(&cat, &parse_select(&thoughtstream_sql(page)).unwrap())
                .unwrap()
        },
    );
    println!("{}", heat.render());
    println!(
        "# assistant: with SLO 500 ms and 10 records/page, the largest safe \
         CARDINALITY LIMIT is {:?}",
        heat.suggest_row_limit(10, 500.0)
    );

    // ---- actual measurements on a separate identically-configured cluster
    let cluster = bench_cluster(10, 0xF06 + 1);
    let db = Database::new(cluster);
    db.execute_ddl("CREATE TABLE users (username VARCHAR(24) NOT NULL, PRIMARY KEY (username))")
        .unwrap();
    db.execute_ddl(
        "CREATE TABLE subscriptions ( \
           owner VARCHAR(24) NOT NULL, target VARCHAR(24) NOT NULL, approved BOOL, \
           PRIMARY KEY (owner, target), CARDINALITY LIMIT 500 (owner))",
    )
    .unwrap();
    db.execute_ddl(
        "CREATE TABLE thoughts ( \
           owner VARCHAR(24) NOT NULL, timestamp TIMESTAMP NOT NULL, text VARCHAR(140), \
           PRIMARY KEY (owner, timestamp))",
    )
    .unwrap();
    // target pool with enough thoughts to fill any page size
    let n_targets = 2_000usize;
    let thoughts_per = 50usize;
    let uname = |i: usize| format!("t{i:06}");
    let group_user = |s: u64| format!("reader{s:04}");
    db.bulk_load(
        "users",
        (0..n_targets)
            .map(uname)
            .chain(subs_values.iter().map(|&s| group_user(s)))
            .map(|u| Tuple::new(vec![Value::Varchar(u)])),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0xF06);
    let mut subs_rows = Vec::new();
    for &s in &subs_values {
        let mut seen = std::collections::BTreeSet::new();
        while (seen.len() as u64) < s {
            seen.insert(rng.gen_range(0..n_targets));
        }
        for t in seen {
            subs_rows.push(Tuple::new(vec![
                Value::Varchar(group_user(s)),
                Value::Varchar(uname(t)),
                Value::Bool(true),
            ]));
        }
    }
    db.bulk_load("subscriptions", subs_rows).unwrap();
    db.bulk_load(
        "thoughts",
        (0..n_targets).flat_map(|i| {
            (0..thoughts_per).map(move |p| {
                Tuple::new(vec![
                    Value::Varchar(uname(i)),
                    Value::Timestamp(1_000_000_000 + (i * 7919 + p * 613) as i64),
                    Value::Varchar(format!("thought {p}")),
                ])
            })
        }),
    )
    .unwrap();
    db.cluster().rebalance();

    println!("subs\tpage\tpredicted_p99_ms\tactual_p99_ms");
    let mut deltas = Vec::new();
    let mut clock: u64 = 0;
    for (ri, &s) in subs_values.iter().enumerate() {
        for (ci, &page) in page_values.iter().enumerate() {
            let prepared = db.prepare(&thoughtstream_sql(page)).unwrap();
            let mut params = Params::new();
            params.set(0, Value::Varchar(group_user(s)));
            let mut lat = Vec::with_capacity(executions);
            for _run in 0..executions {
                // unloaded: drain between executions
                let mut session = Session::at(clock);
                let t0 = session.begin();
                db.execute_with(
                    &mut session,
                    &prepared,
                    &params,
                    ExecStrategy::Parallel,
                    None,
                )
                .unwrap();
                lat.push(session.elapsed_since(t0));
                clock = session.now + 10_000;
            }
            let actual = nearest_rank_ms(lat, 0.99);
            let predicted = heat.cells[ri][ci];
            deltas.push(predicted - actual);
            println!("{s}\t{page}\t{predicted:.0}\t{actual:.0}");
        }
    }
    let avg_delta = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let conservative = deltas.iter().filter(|d| **d >= -2.0).count();
    println!(
        "# avg (predicted - actual) = {avg_delta:+.1} ms over {} cells (paper: +13 ms); \
         {conservative}/{} cells conservative within 2 ms",
        deltas.len(),
        deltas.len()
    );
}
