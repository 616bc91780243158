//! Pinning regressions for the client-reachable panics fixed during the
//! concurrency-analysis pass (PR 8):
//!
//! - `prepare` answered `.expect("admitted statement installed")` after
//!   admission, but a rival prepare of the same name landing on a
//!   rejection path uninstalls the entry (`register` documents this), so
//!   the lookup can legitimately miss — the handler must answer, not
//!   panic.
//! - The binary protocol's fixed-width number decoders used
//!   `try_into().unwrap()`; they must stay panic-free for any input the
//!   framing layer can deliver.

use piql_engine::Database;
use piql_kv::{LiveCluster, LiveConfig, Session};
use piql_server::server::handle_line;
use piql_server::testkit::{linear_predictor, permissive_slo};
use piql_server::Json;
use piql_server::{BinaryConn, StatementRegistry};
use piql_workloads::scadr::{self, ScadrConfig};
use std::sync::{Arc, Barrier};
use std::thread;

const BOUNDED: &str = "SELECT * FROM users WHERE username = <u>";
// Equality on a non-key column: rejected as not scale-independent, and the
// rejection path *uninstalls* the name — the other half of the race.
const UNBOUNDED: &str = "SELECT * FROM thoughts WHERE text = <t>";

fn registry() -> Arc<StatementRegistry<LiveCluster>> {
    let cluster = Arc::new(LiveCluster::new(LiveConfig::default()));
    let db = Arc::new(Database::new(cluster));
    scadr::setup(
        &db,
        &ScadrConfig {
            users_per_node: 4,
            thoughts_per_user: 2,
            subscriptions_per_user: 1,
            ..Default::default()
        },
        1,
    )
    .unwrap();
    Arc::new(StatementRegistry::new(
        db,
        linear_predictor(200, 100, 2),
        permissive_slo(),
    ))
}

fn prepare_line(name: &str, sql: &str) -> String {
    format!(r#"{{"cmd":"prepare","name":"{name}","sql":"{sql}"}}"#)
}

/// Two clients race `prepare` on one name: one with an admittable bounded
/// statement, one with an unbounded statement whose rejection uninstalls
/// the entry. Every interleaving must produce an *answer* — before the
/// fix, the admitted side panicked its worker whenever the uninstall won
/// the window between admission and the response-building lookup.
#[test]
fn racing_prepares_of_one_name_always_answer() {
    const ITERS: usize = 400;
    let registry = registry();
    let barrier = Arc::new(Barrier::new(2));

    let admitter = {
        let registry = registry.clone();
        let barrier = barrier.clone();
        thread::spawn(move || {
            let mut session = Session::new();
            barrier.wait();
            let mut admitted = 0usize;
            for _ in 0..ITERS {
                let resp = handle_line(&prepare_line("hot", BOUNDED), &mut session, &registry);
                // Admitted, or gracefully reporting the concurrent removal
                // — never a panic, never any other shape.
                if resp.get("status").and_then(Json::as_str) == Some("admitted") {
                    admitted += 1;
                } else {
                    assert_eq!(
                        resp.get("ok").and_then(Json::as_bool),
                        Some(false),
                        "{resp:?}"
                    );
                    let err = resp.get("error").and_then(Json::as_str).unwrap_or_default();
                    assert!(err.contains("removed by a concurrent"), "{resp:?}");
                }
            }
            admitted
        })
    };
    let rejecter = {
        let registry = registry.clone();
        let barrier = barrier.clone();
        thread::spawn(move || {
            let mut session = Session::new();
            barrier.wait();
            for _ in 0..ITERS {
                let resp = handle_line(&prepare_line("hot", UNBOUNDED), &mut session, &registry);
                // The unbounded statement must always be refused.
                assert_eq!(
                    resp.get("status").and_then(Json::as_str),
                    Some("rejected-unbounded"),
                    "{resp:?}"
                );
            }
        })
    };

    let admitted = admitter.join().expect("admitter must not panic");
    rejecter.join().expect("rejecter must not panic");
    // The race is only exercised if real admissions happened (the
    // removed-by-rival answer is `ok: false`, so this also proves the
    // vacuous case — all-errors from a malformed line — can't pass).
    assert!(admitted > 0, "no prepare ever admitted; race not exercised");
}

/// Every truncation of a valid binary frame decodes to an error response
/// (or a clean skip) — never a panic from the fixed-width number readers.
#[test]
fn truncated_binary_frames_answer_errors_not_panics() {
    use piql_server::{BinaryWire, Envelope, Request, Wire};

    let registry = registry();
    registry.register("point", BOUNDED).unwrap();

    let wire = BinaryWire;
    let mut frame = Vec::new();
    wire.encode_envelope(
        &Envelope {
            id: Some(piql_server::RequestId::Int(7)),
            request: Request::Execute {
                name: "point".into(),
                params: vec![piql_core::value::Value::Varchar("u".into()).into()],
                cursor: None,
            },
        },
        &mut frame,
    );
    let body = frame.split_off(4); // drop the length prefix, as the read loop does

    let mut conn = BinaryConn::new(registry);
    for cut in 0..body.len() {
        conn.handle_frame(&body[..cut]);
        conn.clear_output();
    }
    // And the intact frame still answers.
    conn.handle_frame(&body);
    assert!(!conn.output().is_empty());
}
