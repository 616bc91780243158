//! Property tests for the auditor's total-function contract: auditing an
//! arbitrary generated statement never panics, and always yields either a
//! fully justified bound derivation (every remote node carries a bound
//! with provenance) or at least one diagnostic explaining why not.

use piql_audit::{audit_statement, LinearModelSpec, Outcome};
use piql_core::catalog::{Catalog, TableDef};
use piql_core::value::DataType;
use piql_predict::{ModelKey, ModelStore, OpKind, SloConfig, SloPredictor, ALPHA_GRID, BETA_GRID};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.create_table(
        TableDef::builder("users")
            .column("username", DataType::Varchar(24))
            .column("town", DataType::Varchar(24))
            .primary_key(&["username"])
            .build(),
    )
    .unwrap();
    cat.create_table(
        TableDef::builder("subs")
            .column("owner", DataType::Varchar(24))
            .column("target", DataType::Varchar(24))
            .column("approved", DataType::Bool)
            .primary_key(&["owner", "target"])
            .cardinality_limit(100, &["owner"])
            .build(),
    )
    .unwrap();
    cat.create_table(
        TableDef::builder("thoughts")
            .column("owner", DataType::Varchar(24))
            .column("ts", DataType::Timestamp)
            .column("text", DataType::Varchar(140))
            .primary_key(&["owner", "ts"])
            .build(),
    )
    .unwrap();
    cat
}

/// A generator over statement fragments: some compile to Class I/II, some
/// are unbounded, some do not even parse.
fn statement_strategy() -> impl Strategy<Value = String> {
    let projection = prop_oneof![
        Just("*".to_string()),
        Just("username".to_string()),
        Just("thoughts.*".to_string()),
        Just("COUNT(*)".to_string()),
    ];
    let source = prop_oneof![
        Just("users".to_string()),
        Just("subs".to_string()),
        Just("thoughts".to_string()),
        Just("subs s JOIN thoughts".to_string()),
        Just("nosuch".to_string()),
    ];
    let filter = prop_oneof![
        Just(String::new()),
        Just(" WHERE username = <u>".to_string()),
        Just(" WHERE owner = <u>".to_string()),
        Just(" WHERE thoughts.owner = s.target AND s.owner = <u>".to_string()),
        Just(" WHERE town = <t>".to_string()),
        Just(" WHERE owner IN [1: friends MAX 25]".to_string()),
        // two bounded lists that could each drive the plan
        Just(" WHERE username IN [1: a MAX 5] AND username IN [2: b MAX 3]".to_string()),
        Just(" WHERE owner IN [1: a MAX 5] AND owner IN [2: b MAX 3]".to_string()),
        Just(" WHERE owner IN [1: a MAX 5] AND target IN [2: b MAX 3]".to_string()),
        Just(
            " WHERE thoughts.owner = s.target AND s.owner IN [1: a MAX 5] \
             AND thoughts.owner IN [2: b MAX 3]"
                .to_string()
        ),
        Just(" WHERE garbage !!!".to_string()),
    ];
    let bound = prop_oneof![
        Just(String::new()),
        Just(" LIMIT 10".to_string()),
        Just(" LIMIT 500".to_string()),
        Just(" PAGINATE 20".to_string()),
    ];
    (projection, (source, (filter, bound)))
        .prop_map(|(p, (s, (f, b)))| format!("SELECT {p} FROM {s}{f}{b}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn audit_never_panics_and_always_explains(
        sql in statement_strategy(),
        slo_ms in 1u64..400,
    ) {
        let cat = catalog();
        let predictor = SloPredictor::new(LinearModelSpec::default().build());
        let slo = SloConfig { slo_ms: slo_ms as f64, ..SloConfig::default() };
        let audit = audit_statement(&cat, &predictor, "gen", &sql, slo);

        match &audit.outcome {
            Outcome::Feasible { .. } | Outcome::Marginal { .. } => {
                // bounded: the derivation tree must justify every remote op
                let tree = audit.tree.as_ref().expect("bounded statements carry a tree");
                let mut unjustified = 0usize;
                tree.walk(&mut |n| {
                    // IndexFKJoin's bound is structural (one get per child
                    // tuple); every other remote operator must name the
                    // clause its bound rests on
                    if n.remote && n.operator != "IndexFKJoin" && n.bound.is_none() {
                        unjustified += 1;
                    }
                });
                prop_assert_eq!(unjustified, 0, "unjustified remote bound in {}", sql);
            }
            Outcome::Infeasible { .. } | Outcome::Unbounded | Outcome::Invalid { .. } => {
                // not shippable: there must be a diagnostic saying why
                prop_assert!(
                    !audit.diagnostics.is_empty(),
                    "gating outcome without diagnostics for {}",
                    sql
                );
            }
        }

        // every error/warning diagnostic names an operator, a dominating
        // term, and at least one concrete suggestion (parse/bind errors
        // have no plan to point at and are exempt from the first two)
        for d in &audit.diagnostics {
            prop_assert!(!d.suggestions.is_empty(), "no suggestion in {:?}", d);
            if d.code != "parse-error" && d.code != "bind-error" {
                prop_assert!(d.operator.is_some(), "no operator in {:?}", d);
                prop_assert!(d.dominant_term.is_some(), "no dominant term in {:?}", d);
            }
        }

        // the JSON rendering is total too
        let _ = audit.to_json().to_string();
    }

    /// Below confidence 1 the auditor still says one thing: its verdict,
    /// its "marginal" and the headroom it prints all rest on the interval
    /// p99 the SLO test compares, so a statement that meets is never told
    /// it has negative headroom, and the bound it suggests is one it would
    /// itself call feasible.
    #[test]
    fn verdict_headroom_and_suggestion_agree_at_any_confidence(
        n in 1usize..6,
        k_seed in 0usize..6,
        points in prop::collection::vec((0usize..6, 0usize..8, any::<bool>()), 0..40),
        limit in 0usize..8,
    ) {
        let mut models = ModelStore::new(n);
        for (interval, alpha, slow) in points {
            record_scan(&mut models, interval % n, ALPHA_GRID[alpha], if slow { 200 } else { 18 });
        }
        let predictor = SloPredictor::new(models);
        let slo = SloConfig {
            slo_ms: 20.0,
            interval_confidence: (k_seed % n + 1) as f64 / n as f64,
            allow_degrade: true,
        };
        let audit = audit_statement(&catalog(), &predictor, "recent", &recent(ALPHA_GRID[limit]), slo);
        for d in &audit.diagnostics {
            for s in &d.suggestions {
                prop_assert!(!s.contains("only -"), "negative headroom: {}", s);
            }
        }
        match &audit.outcome {
            Outcome::Feasible { predicted_p99_ms } | Outcome::Marginal { predicted_p99_ms } => {
                prop_assert!(*predicted_p99_ms <= slo.slo_ms, "{:?}", audit.outcome);
            }
            Outcome::Infeasible { .. } => {
                if let Some(suggested) = suggested_limit(&audit) {
                    let again = audit_statement(&catalog(), &predictor, "recent", &recent(suggested), slo);
                    prop_assert!(!again.outcome.gating(), "LIMIT {} was suggested: {:?}", suggested, again.outcome);
                }
            }
            other => prop_assert!(false, "{:?}", other),
        }
    }
}

fn recent(limit: u32) -> String {
    format!("SELECT * FROM thoughts WHERE owner = <u> ORDER BY ts DESC LIMIT {limit}")
}

/// `ms` for a scan of `alpha` rows during `interval`, at every tuple size.
fn record_scan(models: &mut ModelStore, interval: usize, alpha: u32, ms: u64) {
    for &beta in BETA_GRID {
        let key = ModelKey {
            op: OpKind::IndexScan,
            alpha_c: alpha,
            alpha_j: 1,
            beta,
        };
        for _ in 0..20 {
            models.record(interval, key, ms * 1_000);
        }
    }
}

/// The bound the advisor's frontier suggestion names, if it made one.
fn suggested_limit(audit: &piql_audit::StatementAudit) -> Option<u32> {
    let suggestion = audit
        .diagnostics
        .iter()
        .flat_map(|d| &d.suggestions)
        .find(|s| s.contains("feasible frontier"))?;
    let (_, rest) = suggestion.split_once("≤ ")?;
    rest.split_whitespace().next()?.parse().ok()
}

/// The case by name: 4 intervals, SLO 20 ms, confidence 0.75; α = 100 is
/// slow in two intervals, α = 50 in one.
#[test]
fn the_auditor_does_not_contradict_itself_below_confidence_one() {
    let mut models = ModelStore::linear(200, 100, 4);
    record_scan(&mut models, 0, 100, 200);
    record_scan(&mut models, 1, 100, 200);
    record_scan(&mut models, 0, 50, 200);
    let predictor = SloPredictor::new(models);
    let slo = SloConfig {
        slo_ms: 20.0,
        interval_confidence: 0.75,
        allow_degrade: true,
    };

    let hundred = audit_statement(&catalog(), &predictor, "recent", &recent(100), slo);
    assert!(
        matches!(hundred.outcome, Outcome::Infeasible { .. }),
        "{:?}",
        hundred.outcome
    );
    assert_eq!(
        suggested_limit(&hundred),
        Some(50),
        "parent suggested LIMIT ≤ 25: its probe wanted every interval of LIMIT 50 under the SLO"
    );

    let fifty = audit_statement(&catalog(), &predictor, "recent", &recent(50), slo);
    match fifty.outcome {
        Outcome::Feasible { predicted_p99_ms } => assert!(
            predicted_p99_ms < 10.0,
            "three of four intervals sit near 6.5 ms, got {predicted_p99_ms}"
        ),
        other => panic!(
            "parent: Marginal at the slow interval's 31.0 ms, \"only -55% SLO headroom \
             remains\"; got {other:?}"
        ),
    }
}
