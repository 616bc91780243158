//! Differential satellite: every Table-1 query (TPC-W rows and the SCADr
//! rows) executed through the TCP protocol returns **byte-identical**
//! results to a direct `Database::execute` of the same registered
//! statement — the protocol encode/decode layer must be lossless.

use piql_core::plan::params::{ParamValue, Params};
use piql_core::value::Value;
use piql_engine::Database;
use piql_kv::{LiveCluster, LiveConfig, Session};
use piql_server::protocol::row_to_json;
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{Client, Json, PiqlServer};
use piql_workloads::scadr::{self, ScadrConfig};
use piql_workloads::tpcw::{self, TpcwConfig};
use std::sync::Arc;

fn table1_params(
    label: &str,
    n_customers: usize,
    n_items: usize,
    n_orders: usize,
) -> Vec<ParamValue> {
    let uname = || Value::Varchar(tpcw::customer_uname(3 % n_customers.max(1)));
    match label {
        "Home WI" | "Order Display WI Get Customer" | "Order Display WI Get Last Order" => {
            vec![uname().into()]
        }
        "Home WI (promotions)" => vec![ParamValue::Collection(
            [1, 5, 9, 12, 17]
                .iter()
                .map(|&i| Value::Int((i % n_items.max(1)) as i32))
                .collect(),
        )],
        "New Products WI" => vec![Value::Varchar(tpcw::SUBJECTS[2].to_string()).into()],
        "Product Detail WI" => vec![Value::Int((7 % n_items.max(1)) as i32).into()],
        "Search By Author WI" => vec![Value::Varchar(tpcw::SURNAMES[4].to_string()).into()],
        "Search By Title WI" => vec![Value::Varchar(tpcw::TITLE_WORDS[3].to_string()).into()],
        "Order Display WI Get OrderLines" => {
            vec![Value::Int(tpcw::initial_order_id(2, n_orders)).into()]
        }
        "Buy Request WI" => vec![Value::Int(1).into()],
        other => panic!("unmapped Table-1 label {other}"),
    }
}

#[test]
fn table1_queries_differential_tcp_vs_direct() {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));

    let tpcw_config = TpcwConfig {
        items: 40,
        customers_per_node: 20,
        orders_per_customer: 2,
        ..Default::default()
    };
    let (n_customers, n_items, n_orders) = tpcw::setup(&db, &tpcw_config, 2).unwrap();

    let scadr_config = ScadrConfig {
        users_per_node: 15,
        thoughts_per_user: 8,
        subscriptions_per_user: 4,
        ..Default::default()
    };
    let n_users = scadr::setup(&db, &scadr_config, 2).unwrap();
    assert!(n_users > 0);

    let server = PiqlServer::start(
        db.clone(),
        linear_predictor(150, 40, 2),
        permissive_slo(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // the full Table-1 set: all TPC-W rows plus the four SCADr read queries
    let q = scadr::queries(&scadr_config);
    let scadr_rows: Vec<(String, String, Vec<ParamValue>)> = vec![
        (
            "Users Followed".into(),
            q.users_followed.clone(),
            vec![Value::Varchar(scadr::username(2)).into()],
        ),
        (
            "My Thoughts".into(),
            q.recent_thoughts.clone(),
            vec![Value::Varchar(scadr::username(2)).into()],
        ),
        (
            "Thoughtstream".into(),
            q.thoughtstream.clone(),
            vec![Value::Varchar(scadr::username(2)).into()],
        ),
        (
            "Find User".into(),
            q.find_user.clone(),
            vec![Value::Varchar(scadr::username(5)).into()],
        ),
    ];
    let mut cases: Vec<(String, String, Vec<ParamValue>)> = tpcw::TABLE1_SQL
        .iter()
        .map(|(label, sql)| {
            (
                label.to_string(),
                sql.to_string(),
                table1_params(label, n_customers, n_items, n_orders),
            )
        })
        .collect();
    cases.extend(scadr_rows);

    let mut nonempty = 0;
    for (label, sql, params) in &cases {
        let verdict = client.prepare(label, sql).unwrap();
        assert_eq!(
            verdict.get("status").and_then(Json::as_str),
            Some("admitted"),
            "{label}"
        );

        // through the wire
        let raw = client
            .request(&piql_server::Request::Execute {
                name: label.clone(),
                params: params.clone(),
                cursor: None,
            })
            .unwrap();
        let wire_rows_json = raw.get("rows").unwrap().to_string();

        // direct, against the very statement the registry holds
        let statement = server.registry().get(label).unwrap();
        let mut p = Params::new();
        for (i, v) in params.iter().enumerate() {
            p.set(i, v.clone());
        }
        let mut session = Session::new();
        let direct = db.execute(&mut session, &statement.prepared(), &p).unwrap();
        let direct_rows_json = Json::Arr(
            direct
                .rows
                .to_tuples()
                .iter()
                .map(|t| row_to_json(t.values()))
                .collect(),
        )
        .to_string();

        assert_eq!(
            wire_rows_json, direct_rows_json,
            "{label}: TCP bytes differ from direct execution"
        );
        if !direct.rows.is_empty() {
            nonempty += 1;
        }
    }
    assert!(
        nonempty >= 10,
        "most Table-1 queries should return rows on the loaded store ({nonempty})"
    );
}
