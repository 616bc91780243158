//! What a read spends at the store is fixed by its plan, not by how the
//! engine gets its rows from operator to operator: for every SCADr and
//! TPC-W read, the requests, rounds and entries a session is charged —
//! and the rows it gets — are pinned to the numbers measured before reads
//! were executed from a prepare-time resolved plan, on the simulated
//! cluster and on the live one. The read-side twin of `write_bound.rs`.

use piql::kv::KvStore;
use piql::workloads::{scadr, tpcw};
use piql::{ClusterConfig, Database, LiveCluster, LiveConfig, Params, Session, SimCluster, Value};
use std::sync::Arc;

/// `(logical requests, rounds, entries, rows, digest of the rows)` of one
/// execution.
type Cost = (u64, u64, u64, usize, u64);

/// FNV-1a.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn cost<S: KvStore>(db: &Database<S>, sql: &str, params: &Params) -> Cost {
    let prepared = db.prepare(sql).unwrap();
    let mut session = Session::new();
    let rows = db.execute(&mut session, &prepared, params).unwrap().rows;
    let spent = session.stats;
    let bounds = prepared.compiled.bounds;
    assert!(
        spent.logical_requests <= bounds.requests && spent.rounds <= bounds.rounds,
        "`{sql}` spent {spent:?}, bound {bounds:?}"
    );
    (
        spent.logical_requests,
        spent.rounds,
        spent.entries,
        rows.len(),
        digest(&format!("{rows:?}")),
    )
}

fn scadr_costs<S: KvStore>(db: &Database<S>) -> Vec<Cost> {
    let config = scadr::ScadrConfig {
        users_per_node: 40,
        thoughts_per_user: 10,
        subscriptions_per_user: 10,
        ..Default::default()
    };
    scadr::setup(db, &config, 1).unwrap();
    let q = scadr::queries(&config);
    let user = Params::from_values([Value::Varchar(scadr::username(7))]);
    [
        &q.find_user,
        &q.users_followed,
        &q.recent_thoughts,
        &q.thoughtstream,
    ]
    .map(|sql| cost(db, sql, &user))
    .to_vec()
}

fn tpcw_costs<S: KvStore>(db: &Database<S>) -> Vec<Cost> {
    let config = tpcw::TpcwConfig {
        items: 400,
        customers_per_node: 30,
        ..Default::default()
    };
    let (_, _, orders) = tpcw::setup(db, &config, 1).unwrap();
    let text = |s: &str| Params::from_values([Value::Varchar(s.into())]);
    let int = |i: i32| Params::from_values([Value::Int(i)]);
    let customer = text(&tpcw::customer_uname(11));
    let promotions = Params::from_values([vec![
        Value::Int(3),
        Value::Int(77),
        Value::Int(150),
        Value::Int(399),
        Value::Int(4_000), // no such item
    ]]);
    // in `tpcw::TABLE1_SQL` order
    let params = [
        customer.clone(),
        promotions,
        text(tpcw::SUBJECTS[2]),
        int(42),
        text(tpcw::SURNAMES[5]),
        text(tpcw::TITLE_WORDS[9]),
        customer.clone(),
        customer,
        int(tpcw::initial_order_id(5, orders)),
        // a seeded cart: `setup` spreads 64 of them over the id space
        int((3 * (i32::MAX as i64 / 65)) as i32),
    ];
    tpcw::TABLE1_SQL
        .iter()
        .zip(&params)
        .map(|((_, sql), params)| cost(db, sql, params))
        .collect()
}

/// Measured at 25fd9a5, the last commit whose executor consulted the
/// catalog per execution.
const SCADR_COSTS: [Cost; 4] = [
    (1, 1, 1, 1, 16462237944882219662),
    (11, 2, 10, 10, 16104607931106572727),
    (1, 1, 10, 10, 6181844186107183714),
    (9, 2, 90, 10, 607014891697106092),
];
const TPCW_COSTS: [Cost; 10] = [
    (1, 1, 1, 1, 10748979022640737462),
    (5, 1, 0, 4, 16924344920526176124),
    (35, 3, 17, 17, 6153577678390547532),
    (2, 2, 1, 1, 12678340091987281838),
    (5, 3, 10, 8, 1912745486921763473),
    (61, 3, 30, 30, 8530704876699353937),
    (3, 3, 1, 1, 137874371367791695),
    (2, 2, 1, 1, 12064971402218549064),
    (4, 2, 3, 3, 6266053175417606013),
    (2, 2, 1, 1, 3061642553717512388),
];

#[test]
fn workload_reads_cost_exactly_what_their_plans_always_did() {
    let sim = || Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(3))));
    let live = || Database::new(Arc::new(LiveCluster::new(LiveConfig::default())));
    assert_eq!(scadr_costs(&sim()), SCADR_COSTS, "sim");
    assert_eq!(scadr_costs(&live()), SCADR_COSTS, "live");
    assert_eq!(tpcw_costs(&sim()), TPCW_COSTS, "sim");
    assert_eq!(tpcw_costs(&live()), TPCW_COSTS, "live");
}
