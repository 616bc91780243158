//! Table 1 — for every TPC-W and SCADr query: the modifications/indexes the
//! compiler reports and the *actual vs predicted* 99th-percentile response
//! time (§8.2, §8.6). The paper's prediction is conservative (slightly
//! above actual) for most queries; the same shape should hold here.

use piql_bench::{bench_cluster, header, scaled};
use piql_core::plan::params::Params;
use piql_core::plan::physical::PhysicalPlan;
use piql_core::value::Value;
use piql_engine::{Database, ExecStrategy, Prepared};
use piql_kv::Session;
use piql_predict::{train, SloPredictor, TrainConfig};
use piql_workloads::nearest_rank_ms;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Secondary indexes a plan actually reads (the "Additional Indexes"
/// column).
fn used_indexes(prepared: &Prepared) -> String {
    let mut names = Vec::new();
    for op in prepared.compiled.physical.remote_ops() {
        let secondary = match op {
            PhysicalPlan::IndexScan { spec, .. } => spec.index.secondary.as_ref(),
            PhysicalPlan::SortedIndexJoin { spec, .. } => spec.index.secondary.as_ref(),
            _ => None,
        };
        if let Some(idx) = secondary {
            names.push(idx.name.clone());
        }
    }
    names.dedup();
    if names.is_empty() {
        "-".into()
    } else {
        names.join(", ")
    }
}

fn modifications(prepared: &Prepared) -> String {
    if prepared.compiled.notes.is_empty() {
        "-".into()
    } else {
        prepared.compiled.notes.join("; ")
    }
}

fn measure(
    db: &Database,
    prepared: &Prepared,
    mut gen_params: impl FnMut(&mut StdRng) -> Params,
    executions: usize,
    seed: u64,
    clock: &mut u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lat = Vec::with_capacity(executions);
    for _run in 0..executions {
        let params = gen_params(&mut rng);
        // unloaded measurement: start after the previous query drained
        let mut session = Session::at(*clock);
        let t0 = session.begin();
        db.execute_with(
            &mut session,
            prepared,
            &params,
            ExecStrategy::Parallel,
            None,
        )
        .unwrap();
        lat.push(session.elapsed_since(t0));
        *clock = session.now + 10_000;
    }
    nearest_rank_ms(lat, 0.99)
}

fn main() {
    header(
        "table1",
        "Table 1 (§8.2, §8.6)",
        "per-query modifications, indexes, actual vs predicted p99 (ms)",
    );
    let executions = scaled(600, 60) as usize;

    // ---- shared operator models (cluster-config specific, not app
    // specific, §6.1)
    let train_cluster = bench_cluster(10, 0x7A1);
    let tc = TrainConfig {
        intervals: scaled(20, 5) as usize,
        samples_per_interval: scaled(10, 4) as usize,
        ..TrainConfig::default()
    };
    let models = train(&train_cluster, &tc);
    let predictor = SloPredictor::new(models);
    println!(
        "benchmark\tquery\tmodifications\tadditional_indexes\tactual_p99_ms\tpredicted_p99_ms"
    );

    // ================= TPC-W =================
    {
        use piql_workloads::tpcw::*;
        let cluster = bench_cluster(10, 0x7A2);
        let db = Database::new(cluster);
        let config = TpcwConfig {
            items: if piql_bench::quick() { 2_000 } else { 10_000 },
            customers_per_node: 100,
            ..Default::default()
        };
        let (n_customers, n_items, n_orders) = setup(&db, &config, 10).unwrap();
        let w = TpcwWorkload::new(&db, n_customers, n_items, n_orders).unwrap();
        // a few carts so the Buy Request query has data
        let mut session = Session::new();
        for cart in 0..20 {
            let mut p = Params::new();
            p.set(0, Value::Int(cart));
            p.set(1, Value::Timestamp(0));
            db.execute_dml(
                &mut session,
                "INSERT INTO shopping_cart (sc_id, sc_time) VALUES (<c>, <t>)",
                &p,
            )
            .unwrap();
            for l in 0..3 {
                let mut p = Params::new();
                p.set(0, Value::Int(cart));
                p.set(1, Value::Int(cart * 17 + l));
                p.set(2, Value::Int(1));
                db.execute_dml(
                    &mut session,
                    "INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) \
                     VALUES (<c>, <i>, <q>)",
                    &p,
                )
                .unwrap();
            }
        }

        let q = &w.queries;
        type Gen<'a> = Box<dyn FnMut(&mut StdRng) -> Params + 'a>;
        let rows: Vec<(&str, &Prepared, Gen)> = vec![
            (
                "Home WI",
                &q.home_customer,
                Box::new(|rng| w.random_params(KIND_HOME, rng)),
            ),
            (
                "Home WI (promotions)",
                &q.home_promotions,
                Box::new(|rng| {
                    let mut p = Params::new();
                    p.set(
                        0,
                        (0..5)
                            .map(|_| Value::Int(rng.gen_range(0..n_items) as i32))
                            .collect::<Vec<_>>(),
                    );
                    p
                }),
            ),
            (
                "New Products WI",
                &q.new_products,
                Box::new(|rng| w.random_params(KIND_NEW_PRODUCTS, rng)),
            ),
            (
                "Product Detail WI",
                &q.product_detail,
                Box::new(|rng| w.random_params(KIND_PRODUCT_DETAIL, rng)),
            ),
            (
                "Search By Author WI",
                &q.search_by_author,
                Box::new(|rng| w.random_params(KIND_SEARCH_AUTHOR, rng)),
            ),
            (
                "Search By Title WI",
                &q.search_by_title,
                Box::new(|rng| w.random_params(KIND_SEARCH_TITLE, rng)),
            ),
            (
                "Order Display WI Get Customer",
                &q.order_display_customer,
                Box::new(|rng| w.random_params(KIND_HOME, rng)),
            ),
            (
                "Order Display WI Get Last Order",
                &q.order_display_last_order,
                Box::new(|rng| w.random_params(KIND_HOME, rng)),
            ),
            (
                "Order Display WI Get OrderLines",
                &q.order_display_lines,
                Box::new(move |rng| {
                    let mut p = Params::new();
                    p.set(
                        0,
                        Value::Int(initial_order_id(rng.gen_range(0..n_orders), n_orders)),
                    );
                    p
                }),
            ),
            (
                "Buy Request WI",
                &q.buy_request_cart,
                Box::new(|rng| {
                    let mut p = Params::new();
                    p.set(0, Value::Int(rng.gen_range(0..20)));
                    p
                }),
            ),
        ];
        // start measuring after the cart-setup writes have drained
        let mut clock: u64 = session.now + piql_kv::SECONDS;
        for (label, prepared, gen) in rows {
            let actual = measure(&db, prepared, gen, executions, 0x7A3, &mut clock);
            let predicted = predictor.predict(&prepared.compiled).max_p99_ms;
            println!(
                "TPC-W\t{label}\t{}\t{}\t{actual:.0}\t{predicted:.0}",
                modifications(prepared),
                used_indexes(prepared)
            );
        }
    }

    // ================= SCADr =================
    {
        use piql_workloads::scadr::*;
        let cluster = bench_cluster(10, 0x7A4);
        let db = Database::new(cluster);
        let config = ScadrConfig::default();
        let n_users = setup(&db, &config, 10).unwrap();
        let w = ScadrWorkload::new(&db, &config, n_users).unwrap();
        let mut clock: u64 = 0;
        for (label, prepared) in w.all_prepared() {
            let actual = measure(
                &db,
                prepared,
                |rng| {
                    let mut p = Params::new();
                    p.set(0, Value::Varchar(username(rng.gen_range(0..n_users))));
                    p
                },
                executions,
                0x7A5,
                &mut clock,
            );
            let predicted = predictor.predict(&prepared.compiled).max_p99_ms;
            println!(
                "SCADr\t{label}\t{}\t{}\t{actual:.0}\t{predicted:.0}",
                modifications(prepared),
                used_indexes(prepared)
            );
        }
    }
    println!("# paper shape: predictions slightly above actuals for most queries (conservative), never untrustworthily far off");
}
