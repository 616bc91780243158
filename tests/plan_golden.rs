//! Every workload read's plan, pinned: the four SCADr reads and every
//! TPC-W Table-1 statement, compiled over the workloads' own DDL, must
//! render the same plan stages, bounds, scaling class and derived indexes
//! as `tests/plan_golden.txt` records. A change to the compiler that moves
//! any of them shows here as a text diff.

use piql::core::parser::parse_select;
use piql::workloads::{scadr, tpcw};
use piql::{ClusterConfig, Database, Optimizer, SimCluster};
use std::sync::Arc;

/// One statement's compiled form, as the golden file records it.
fn render(db: &Database<SimCluster>, label: &str, sql: &str) -> String {
    let compiled = Optimizer::scale_independent()
        .compile(&db.catalog(), &parse_select(sql).unwrap())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let indexes: Vec<String> = compiled
        .required_indexes
        .iter()
        .map(|i| i.to_string())
        .collect();
    format!(
        "== {label}\n{sql}\nclass: {}\nbounds: {:?}\nrequired_indexes: [{}]\n{}\n",
        compiled.class,
        compiled.bounds,
        indexes.join(", "),
        compiled.explain().trim_end(),
    )
}

fn database(ddl: Vec<String>) -> Database<SimCluster> {
    let db = Database::new(Arc::new(SimCluster::new(ClusterConfig::instant(1))));
    for stmt in ddl {
        db.execute_ddl(&stmt).unwrap();
    }
    db
}

fn all_plans() -> String {
    let mut out = String::new();
    let config = scadr::ScadrConfig::default();
    let db = database(scadr::ddl(&config));
    let q = scadr::queries(&config);
    for (label, sql) in [
        ("SCADr find_user", &q.find_user),
        ("SCADr users_followed", &q.users_followed),
        ("SCADr recent_thoughts", &q.recent_thoughts),
        ("SCADr thoughtstream", &q.thoughtstream),
    ] {
        out.push_str(&render(&db, label, sql));
    }
    let db = database(tpcw::ddl(&tpcw::TpcwConfig::default()));
    for (label, sql) in tpcw::TABLE1_SQL {
        out.push_str(&render(&db, &format!("TPC-W {label}"), sql));
    }
    out
}

#[test]
fn every_workload_plan_is_pinned() {
    let actual = all_plans();
    let expected = include_str!("plan_golden.txt");
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "plans moved; first differing line {}:\n  expected: {:?}\n  actual:   {:?}\n\
             full rendering:\n{actual}",
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}
