//! PROTOCOL.md names every field the server answers with. Each object key
//! in real answers — `stats` from an in-memory stack and from a durable
//! one, and `prepare` answers that admit, degrade and reject a statement as
//! unbounded — must appear in the document as `` `key` `` or `"key"`.

use piql_engine::{Database, DbError};
use piql_kv::{KvStore, LiveCluster, Session};
use piql_server::server::handle_line;
use piql_server::testkit::linear_predictor;
use piql_server::{open_durable, DurableOptions, Json, SloConfig, StatementRegistry};
use piql_workloads::scadr::{self, ScadrConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

/// `find_user` meets it, the thoughtstream page of 10 degrades to a
/// smaller one, and an un-indexed predicate is rejected as unbounded.
const SLO: SloConfig = SloConfig {
    slo_ms: 10.0,
    interval_confidence: 1.0,
    allow_degrade: true,
};

const PREPARES: [(&str, &str); 3] = [
    ("find", "SELECT * FROM users WHERE username = <u>"),
    (
        "stream",
        "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
         WHERE thoughts.owner = s.target AND s.owner = <u> AND s.approved = true \
         ORDER BY thoughts.timestamp DESC LIMIT 10",
    ),
    ("scan", "SELECT * FROM thoughts WHERE text = <t>"),
];

fn bootstrap<S: KvStore>(db: &Arc<Database<S>>) -> Result<(), DbError> {
    let config = ScadrConfig {
        users_per_node: 10,
        thoughts_per_user: 3,
        subscriptions_per_user: 2,
        ..Default::default()
    };
    scadr::setup(db, &config, 1).map(|_| ())
}

/// Every object key in `doc`, at any depth.
fn keys(doc: &Json, into: &mut BTreeSet<String>) {
    match doc {
        Json::Obj(map) => {
            for (key, value) in map.iter() {
                into.insert(key.to_string());
                keys(value, into);
            }
        }
        Json::Arr(items) => items.iter().for_each(|item| keys(item, into)),
        _ => {}
    }
}

/// The keys of the answers to `lines`, sent in order on one session,
/// checking that each answer is a success with the `status` wanted when
/// one is given.
fn answer_keys(
    registry: &StatementRegistry<LiveCluster>,
    lines: &[(String, Option<&str>)],
) -> BTreeSet<String> {
    let mut session = Session::new();
    let mut found = BTreeSet::new();
    for (line, status) in lines {
        let answer = handle_line(line, &mut session, registry);
        assert_eq!(
            answer.get("ok"),
            Some(&Json::Bool(true)),
            "{line}: {answer}"
        );
        if let Some(status) = status {
            let got = answer.get("status").and_then(Json::as_str);
            assert_eq!(got, Some(*status), "{line}: {answer}");
        }
        keys(&answer, &mut found);
    }
    found
}

/// Prepares of every verdict, an execution, a write and a sweep, then
/// `stats`.
fn workload() -> Vec<(String, Option<&'static str>)> {
    let statuses = ["admitted", "degraded", "rejected-unbounded"];
    let mut lines: Vec<_> = (PREPARES.iter().zip(statuses))
        .map(|((name, sql), status)| {
            let line = format!(r#"{{"cmd":"prepare","name":"{name}","sql":"{sql}"}}"#);
            (line, Some(status))
        })
        .collect();
    let user = scadr::username(1);
    for line in [
        format!(r#"{{"cmd":"execute","name":"find","params":[{{"str":"{user}"}}]}}"#),
        format!(
            r#"{{"cmd":"dml","sql":"INSERT INTO thoughts (owner, timestamp, text) VALUES (<u>, <ts>, <t>)","params":[{{"str":"{user}"}},{{"ts":7}},{{"str":"hi"}}]}}"#
        ),
        r#"{"cmd":"revalidate"}"#.to_string(),
        r#"{"cmd":"stats"}"#.to_string(),
    ] {
        lines.push((line, None));
    }
    lines
}

#[test]
fn protocol_names_every_field_of_stats_and_prepare() {
    let protocol = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/PROTOCOL.md"))
        .expect("PROTOCOL.md at the repository root");

    let db = Arc::new(Database::new(Arc::new(LiveCluster::default())));
    bootstrap(&db).unwrap();
    let registry = StatementRegistry::new(db, linear_predictor(200, 100, 3), SLO);
    let mut found = answer_keys(&registry, &workload());

    let dir = std::env::temp_dir().join(format!("piql-protocol-fields-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = DurableOptions::new(&dir);
    options.slo = SLO;
    let stack = open_durable(options, linear_predictor(200, 100, 3), bootstrap).unwrap();
    stack.snapshot().unwrap();
    found.extend(answer_keys(&stack.registry, &workload()));
    stack.close();
    std::fs::remove_dir_all(&dir).unwrap();

    assert!(found.contains("durability"), "the durable stack's stats");
    let missing: Vec<_> = (found.iter())
        .filter(|key| {
            !protocol.contains(&format!("`{key}`")) && !protocol.contains(&format!("\"{key}\""))
        })
        .collect();
    assert!(missing.is_empty(), "PROTOCOL.md does not name {missing:?}");
}
