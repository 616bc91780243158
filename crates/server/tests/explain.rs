//! End-to-end tests for the `explain` verb: the static auditor's
//! bound-derivation tree travels over both codecs and decodes to the
//! same `Json` tree, every gating diagnostic names the operator, the
//! dominating cost term, and at least one concrete suggestion, and a
//! rejected `prepare` carries the Insight Assistant's structured
//! diagnosis (problem / relation / suggestions) instead of a bare
//! string.

mod common;

use common::scadr_db;
use piql_engine::Database;
use piql_kv::{LiveCluster, LiveConfig};
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::{Client, Json, PiqlServer, SloConfig};
use piql_workloads::scadr::{self, ScadrConfig};
use std::sync::Arc;

const THOUGHTSTREAM: &str = "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
     WHERE thoughts.owner = s.target AND s.owner = <u> AND s.approved = true \
     ORDER BY thoughts.timestamp DESC LIMIT 10";

const UNBOUNDED: &str = "SELECT * FROM thoughts WHERE text = <t>";

/// ~0.1 ms/row linear model: the thoughtstream with a 100-subscription
/// constraint predicts ~110ms, so it is feasible at 500ms and
/// SLO-infeasible at 50ms.
fn start_server(slo_ms: f64) -> PiqlServer {
    PiqlServer::start(
        scadr_db(100).1,
        linear_predictor(200, 100, 2),
        SloConfig {
            slo_ms,
            interval_confidence: 1.0,
            allow_degrade: true,
        },
        "127.0.0.1:0",
    )
    .unwrap()
}

fn get<'j>(obj: &'j Json, key: &str) -> &'j Json {
    obj.get(key)
        .unwrap_or_else(|| panic!("missing field '{key}' in {obj}"))
}

fn str_field<'j>(obj: &'j Json, key: &str) -> &'j str {
    get(obj, key)
        .as_str()
        .unwrap_or_else(|| panic!("field '{key}' is not a string in {obj}"))
}

#[test]
fn explain_decodes_to_the_same_tree_over_both_codecs() {
    let server = start_server(500.0);
    let addr = server.local_addr();
    let mut v2 = Client::connect(addr).unwrap();
    let mut v3 = Client::connect_binary(addr).unwrap();

    let verdict = v2.prepare("stream", THOUGHTSTREAM).unwrap();
    assert_eq!(
        verdict.get("status").and_then(Json::as_str),
        Some("admitted")
    );

    // a prepared statement: both codecs must yield the identical tree
    // (v2 re-parses the JSON text, v3 ships the float bits — the audit
    // report contains no value where those disagree)
    let a = v2.explain("stream").unwrap();
    let b = v3.explain("stream").unwrap();
    assert_eq!(a, b, "v2 and v3 explain trees diverged");

    // and likewise for a candidate statement audited on the fly
    let ca = v2.explain_sql(THOUGHTSTREAM).unwrap();
    let cb = v3.explain_sql(THOUGHTSTREAM).unwrap();
    assert_eq!(ca, cb, "v2 and v3 candidate explain trees diverged");

    // the prepared audit and the candidate audit agree on everything
    // but the statement's name
    assert_eq!(str_field(&a, "name"), "stream");
    assert_eq!(str_field(&ca, "name"), "candidate");
    assert_eq!(get(&a, "outcome"), get(&ca, "outcome"));
    assert_eq!(get(&a, "derivation_tree"), get(&ca, "derivation_tree"));

    // the report is a full bound-provenance record, not just a verdict
    assert_eq!(str_field(&a, "outcome"), "feasible");
    assert!(
        get(&a, "predicted_p99_ms").as_f64().unwrap() > 0.0,
        "feasible audit must carry its prediction"
    );
    assert!(
        str_field(&a, "class").starts_with("Class"),
        "the audit names the statement's query class: {a}"
    );
    let tree = get(&a, "derivation_tree");
    assert!(
        tree.get("operator").is_some() && tree.get("children").is_some(),
        "derivation tree root must carry operator + children: {tree}"
    );
    // somewhere in the tree, a bound names the clause it came from
    let rendered = tree.to_string();
    assert!(
        rendered.contains("\"provenance\"") && rendered.contains("\"source_clause\""),
        "bounds must carry provenance: {tree}"
    );
}

#[test]
fn candidate_explain_names_operator_cost_term_and_suggestion() {
    let server = start_server(50.0);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // SLO-infeasible: bounded, but predicted over 50ms
    let audit = client.explain_sql(THOUGHTSTREAM).unwrap();
    assert_eq!(str_field(&audit, "outcome"), "infeasible");
    let diagnostics = get(&audit, "diagnostics").as_arr().unwrap();
    let error = diagnostics
        .iter()
        .find(|d| d.get("severity").and_then(Json::as_str) == Some("error"))
        .unwrap_or_else(|| panic!("infeasible audit must carry an error diagnostic: {audit}"));
    // the acceptance property: operator, dominating cost term, and at
    // least one concrete suggestion — all named, none generic
    assert!(
        !str_field(error, "operator").is_empty(),
        "diagnostic names the operator: {error}"
    );
    assert!(
        !str_field(error, "dominant_term").is_empty(),
        "diagnostic names the dominating cost term: {error}"
    );
    let suggestions = get(error, "suggestions").as_arr().unwrap();
    assert!(
        !suggestions.is_empty(),
        "diagnostic carries a concrete suggestion: {error}"
    );

    // unbounded: no scale-independent plan at all
    let audit = client.explain_sql(UNBOUNDED).unwrap();
    assert_eq!(str_field(&audit, "outcome"), "unbounded");
    let diagnostics = get(&audit, "diagnostics").as_arr().unwrap();
    assert!(
        diagnostics.iter().any(|d| {
            d.get("severity").and_then(Json::as_str) == Some("error")
                && d.get("suggestions")
                    .and_then(Json::as_arr)
                    .is_some_and(|s| !s.is_empty())
        }),
        "unbounded audit must explain itself with suggestions: {audit}"
    );
}

#[test]
fn explain_of_an_unknown_statement_is_a_clean_error() {
    let server = start_server(500.0);
    let mut client = Client::connect_binary(server.local_addr()).unwrap();
    let err = client.explain("nope").unwrap_err();
    assert!(err.to_string().contains("unknown statement"), "got: {err}");
    // the connection survives the error
    let audit = client.explain_sql(THOUGHTSTREAM).unwrap();
    assert_eq!(str_field(&audit, "outcome"), "feasible");
}

#[test]
fn rejected_prepare_carries_the_structured_insight_over_both_codecs() {
    let server = start_server(500.0);
    let addr = server.local_addr();
    let mut v2 = Client::connect(addr).unwrap();
    let mut v3 = Client::connect_binary(addr).unwrap();

    let a = v2.prepare("grep_thoughts", UNBOUNDED).unwrap();
    let b = v3.prepare("grep_thoughts", UNBOUNDED).unwrap();
    assert_eq!(a, b, "v2 and v3 rejection responses diverged");

    assert_eq!(str_field(&a, "status"), "rejected-unbounded");
    // the diagnosis travels as fields only: no flat `report` string
    // beside them
    assert!(a.get("report").is_none(), "{a}");
    assert!(
        str_field(&a, "problem").contains("scanned without a bound"),
        "problem names the failure: {a}"
    );
    assert_eq!(str_field(&a, "relation"), "thoughts");
    let suggestions = get(&a, "suggestions").as_arr().unwrap();
    assert!(
        !suggestions.is_empty(),
        "rejection must carry the assistant's suggestions: {a}"
    );
    assert!(
        suggestions.iter().all(|s| s.as_str().is_some()),
        "suggestions are plain strings: {a}"
    );
}

#[test]
fn cli_report_and_protocol_explain_are_the_same_value() {
    // The audit CLI prints `report.to_json()`; the `explain` verb ships
    // `audit.to_json()` — one builder, one tree, so the statement entry of
    // a workload report equals the protocol's answer for the same SQL.
    let db = scadr_db(100).1;
    let slo = SloConfig {
        slo_ms: 50.0,
        interval_confidence: 1.0,
        allow_degrade: true,
    };
    let workload = piql_audit::Workload {
        catalog: db.catalog(),
        entries: [THOUGHTSTREAM, UNBOUNDED]
            .iter()
            .map(|sql| piql_audit::WorkloadEntry {
                name: "candidate".into(),
                sql: sql.to_string(),
                line: 0,
                slo,
            })
            .collect(),
        ddl_count: 0,
    };
    let report =
        piql_audit::audit_workload("scadr.piql", &workload, &linear_predictor(200, 100, 2))
            .to_json();
    let statements = get(&report, "statements").as_arr().unwrap();

    let server = PiqlServer::start(db, linear_predictor(200, 100, 2), slo, "127.0.0.1:0").unwrap();
    let mut v2 = Client::connect(server.local_addr()).unwrap();
    let mut v3 = Client::connect_binary(server.local_addr()).unwrap();
    for (cli, sql) in statements.iter().zip([THOUGHTSTREAM, UNBOUNDED]) {
        assert_eq!(cli, &v2.explain_sql(sql).unwrap(), "{sql}");
        assert_eq!(cli, &v3.explain_sql(sql).unwrap(), "{sql}");
    }
}

#[test]
fn a_saturated_bound_is_still_a_document() {
    // LIMIT 2^63-1 (the largest the parser accepts): the byte bound
    // saturates at u64::MAX, which used to overflow (a handler panic in
    // debug builds, a wrapped bound in release) and, printed as
    // 18446744073709551615, turned the whole `explain` into `null`.
    // Integers on the wire saturate at 2^63-1 instead.
    const HUGE: &str = "SELECT * FROM thoughts WHERE owner = <u> \
         ORDER BY timestamp DESC LIMIT 9223372036854775807";
    let db = scadr_db(100).1;
    // the CLI's path
    let audit = piql_audit::audit_statement(
        &db.catalog(),
        &linear_predictor(200, 100, 2),
        "huge",
        HUGE,
        SloConfig::default(),
    );
    let cli = audit.to_json();
    let scan_bounds = |doc: &Json| {
        let scan = &get(get(doc, "derivation_tree"), "children")
            .as_arr()
            .unwrap()[0];
        assert_eq!(str_field(scan, "operator"), "IndexScan", "{doc}");
        get(scan, "bounds").clone()
    };
    assert_eq!(get(&scan_bounds(&cli), "tuples"), &Json::Int(i64::MAX));
    assert_eq!(get(&scan_bounds(&cli), "bytes"), &Json::Int(i64::MAX));

    let server = PiqlServer::start(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut v2 = Client::connect(server.local_addr()).unwrap();
    let mut v3 = Client::connect_binary(server.local_addr()).unwrap();
    let verdict = v2.prepare("huge", HUGE).unwrap();
    assert_eq!(str_field(&verdict, "status"), "admitted", "{verdict}");
    assert_eq!(
        get(get(&verdict, "bounds"), "tuples"),
        &Json::Int(i64::MAX),
        "prepare prints the bound, not its wrap to a negative: {verdict}"
    );
    assert_eq!(verdict, v3.prepare("huge", HUGE).unwrap());
    for doc in [
        v2.explain("huge").unwrap(),
        v3.explain("huge").unwrap(),
        v2.explain_sql(HUGE).unwrap(),
        v3.explain_sql(HUGE).unwrap(),
    ] {
        assert_eq!(scan_bounds(&doc), scan_bounds(&cli), "{doc}");
    }
}

#[test]
fn predictions_never_fall_as_the_limit_grows() {
    // SortedIndexJoin is trained to αj = 50. Beyond the lattice the
    // model store used to answer with the *cheapest* point it held, so
    // LIMIT 51 predicted 13 ms where LIMIT 50 predicted 638 ms — and
    // was admitted. It now saturates at the dearest trained point.
    let db = scadr_db(100).1;
    let predictor = linear_predictor(200, 100, 2);
    let server = PiqlServer::start(
        db.clone(),
        linear_predictor(200, 100, 2),
        SloConfig {
            slo_ms: 500.0,
            interval_confidence: 1.0,
            allow_degrade: false,
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let limits = [
        10,
        25,
        50,
        51,
        500,
        501,
        1_000_000,
        1 << 32,
        i64::MAX as u64,
    ];
    let mut previous = 0.0;
    for limit in limits {
        let sql = THOUGHTSTREAM.replace("LIMIT 10", &format!("LIMIT {limit}"));
        let direct = predictor
            .predict(&db.prepare(&sql).unwrap().compiled)
            .max_p99_ms;
        let verdict = client.prepare(&format!("stream_{limit}"), &sql).unwrap();
        assert_eq!(
            get(&verdict, "predicted_p99_ms").as_f64(),
            Some(direct),
            "prepare reports the predictor's number: {verdict}"
        );
        assert!(
            direct >= previous,
            "LIMIT {limit} predicts {direct} ms, below a smaller LIMIT's {previous} ms"
        );
        if limit > 50 {
            assert_eq!(str_field(&verdict, "status"), "rejected-slo", "{verdict}");
        }
        previous = direct;
    }
}

/// The gate and the server cannot disagree: every statement of the two
/// workloads CI audits gets, from `prepare` on a database with the
/// workload's schema under the statement's SLO and the CLI's default
/// model, the verdict the offline auditor's outcome stands for — and where
/// the server degrades, it installs the bound the auditor suggested. Both
/// read one `piql_predict::advisor::fit`.
#[test]
fn gate_and_server_cannot_disagree() {
    use piql_audit::{audit_statement, LinearModelSpec, Outcome};
    use piql_server::{Admission, StatementRegistry};

    let predictor = || piql_predict::SloPredictor::new(LinearModelSpec::default().build());
    for text in [
        include_str!("../../../examples/workloads/feasible.piql"),
        include_str!("../../../examples/workloads/infeasible.piql"),
    ] {
        let workload = piql_audit::parse_workload(text).unwrap();
        let db = Arc::new(Database::new(Arc::new(LiveCluster::new(
            LiveConfig::default(),
        ))));
        for table in workload.catalog.tables() {
            db.create_table(table.as_ref().clone()).unwrap();
        }
        for entry in &workload.entries {
            // one registry per SLO in force
            let registry = StatementRegistry::new(
                db.clone(),
                predictor(),
                SloConfig {
                    slo_ms: entry.slo.slo_ms,
                    interval_confidence: entry.slo.interval_confidence,
                    allow_degrade: true,
                },
            );
            let audit = audit_statement(
                &db.catalog(),
                &predictor(),
                &entry.name,
                &entry.sql,
                entry.slo,
            );
            let suggested = audit
                .diagnostics
                .iter()
                .flat_map(|d| &d.suggestions)
                .find_map(|s| s.split_once("frontier suggests ")?.1.split_once("≤ "))
                .and_then(|(_, rest)| rest.split_whitespace().next()?.parse::<u64>().ok());
            let verdict = registry.register(&entry.name, &entry.sql).unwrap();
            let agree = match (&audit.outcome, &verdict) {
                (
                    Outcome::Feasible { .. } | Outcome::Marginal { .. },
                    Admission::Admitted { .. },
                ) => true,
                (Outcome::Infeasible { .. }, Admission::Degraded { limit, .. }) => {
                    suggested == Some(*limit)
                }
                (Outcome::Infeasible { .. }, Admission::RejectedSlo { .. }) => suggested.is_none(),
                (Outcome::Unbounded, Admission::RejectedUnbounded { .. }) => true,
                _ => false,
            };
            assert!(
                agree,
                "`{}`: the gate says {:?} (suggesting {suggested:?}), the server {verdict:?}",
                entry.name, audit.outcome
            );
        }
    }
}

/// The gate and the server build one catalog: the same DDL through
/// `Database::execute_ddl` and through the auditor's workload parser
/// registers the same tables and the same indexes — enforcement indexes
/// included — under the same ids and names, in the same order; and a
/// `CREATE TABLE` the engine refuses, the gate refuses on its line in the
/// engine's words.
#[test]
fn gate_and_server_build_one_catalog() {
    use piql_core::catalog::{Catalog, IndexDef, TableDef};
    use piql_workloads::tpcw::{self, TpcwConfig};

    let definitions = |catalog: Catalog| -> (Vec<TableDef>, Vec<IndexDef>) {
        (
            catalog.tables().map(|t| t.as_ref().clone()).collect(),
            catalog.indexes().map(|i| i.as_ref().clone()).collect(),
        )
    };
    // the server's catalog, and the first error it answers
    let server = |ddl: &[String]| {
        let db = Database::new(Arc::new(LiveCluster::new(LiveConfig::default())));
        let refused = ddl.iter().find_map(|sql| db.execute_ddl(sql).err());
        (definitions(db.catalog()), refused)
    };
    let gate = |ddl: &[String]| {
        let text: String = ddl.iter().map(|sql| format!("{sql};\n")).collect();
        piql_audit::parse_workload(&text)
    };
    let posts = |limit: &str| {
        format!(
            "CREATE TABLE posts (id INT NOT NULL, author VARCHAR(16) NOT NULL, \
             topic VARCHAR(16), body VARCHAR(64), score DOUBLE, PRIMARY KEY (id), {limit})"
        )
    };
    let explicit = vec![
        posts("CARDINALITY LIMIT 50 (author, topic), CARDINALITY LIMIT 5 (id)"),
        "CREATE INDEX posts_by_topic ON posts (topic DESC, TOKEN(body))".to_string(),
    ];
    for (ddl, enforcement) in [
        (scadr::ddl(&ScadrConfig::default()), None),
        (
            tpcw::ddl(&TpcwConfig::default()),
            Some("idx_author_tok_a_lname"),
        ),
        (explicit, Some("idx_posts_author_topic")),
    ] {
        let (served, refused) = server(&ddl);
        assert!(refused.is_none(), "{refused:?}");
        assert_eq!(definitions(gate(&ddl).unwrap().catalog), served);
        let names: Vec<&str> = served.1.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names.first().copied(), enforcement, "{names:?}");
    }

    for limit in [
        "CARDINALITY LIMIT 5 (TOKEN(author), id)",
        "CARDINALITY LIMIT 5 (score)",
    ] {
        let ddl = [scadr::ddl(&ScadrConfig::default())[0].clone(), posts(limit)];
        let (served, refused) = server(&ddl);
        assert_eq!(served.0.len(), 1, "{limit}: the refused table stays out");
        let refused = refused.expect("the engine refuses it");
        let err = gate(&ddl).unwrap_err();
        assert_eq!((err.line, err.message), (2, refused.to_string()), "{limit}");
    }
}
