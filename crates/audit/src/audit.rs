//! Statement auditing: compile, derive, predict, diagnose.
//!
//! One audited statement yields a [`StatementAudit`]: the query class and
//! its derivation, the bound-derivation tree ([`crate::tree`]), the SLO
//! prediction, and a list of rustc-style [`Diagnostic`]s. Every error or
//! warning names the offending operator, the cost term that dominates the
//! prediction, and at least one concrete rewrite suggestion — the same
//! contract the Performance Insight Assistant's `InsightReport` makes for
//! rejected queries, extended to admitted-but-infeasible ones.

use crate::tree::{derivation_tree, ms, DerivationNode};
use piql_core::ast::SelectStmt;
use piql_core::catalog::Catalog;
use piql_core::json::Json;
use piql_core::opt::{Compiled, InsightReport, OptError, Optimizer};
use piql_core::parser::parse_select;
use piql_predict::advisor::{fit, Fit};
use piql_predict::{SloConfig, SloPredictor};

/// Diagnostic severity, rustc-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
    Help,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Help => "help",
        }
    }
}

/// One structured diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable machine-readable code (`unbounded-operator`,
    /// `slo-infeasible`, `slo-marginal`, `cardinality-dependence`,
    /// `parse-error`).
    pub code: String,
    pub message: String,
    /// The offending operator, e.g. `IndexScan(thoughts(primary))`.
    pub operator: Option<String>,
    /// The cost term dominating the prediction, e.g.
    /// `SortedIndexJoin(αc=100, αj=10, β=160) — 78% of predicted mean`.
    pub dominant_term: Option<String>,
    /// The source clause the diagnostic points at (`LIMIT 500`,
    /// `CARDINALITY LIMIT 100 (owner) ON subs`, ...).
    pub clause: Option<String>,
    /// Line of the statement in its workload file (0 = unknown).
    pub line: usize,
    /// Concrete rewrite suggestions.
    pub suggestions: Vec<String>,
}

impl Diagnostic {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("severity", Json::str(self.severity.label())),
            ("code", Json::str(&self.code)),
            ("message", Json::str(&self.message)),
            ("operator", opt_str(&self.operator)),
            ("dominant_term", opt_str(&self.dominant_term)),
            ("clause", opt_str(&self.clause)),
            ("line", Json::uint(self.line)),
            (
                "suggestions",
                Json::Arr(self.suggestions.iter().map(Json::str).collect()),
            ),
        ])
    }
}

fn opt_str(o: &Option<String>) -> Json {
    o.as_ref().map_or(Json::Null, Json::str)
}

/// The audit verdict for one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Scale-independent and predicted to meet the SLO with headroom.
    Feasible { predicted_p99_ms: f64 },
    /// Meets the SLO but with less than 20% headroom.
    Marginal { predicted_p99_ms: f64 },
    /// Scale-independent but predicted to violate the SLO.
    Infeasible { predicted_p99_ms: f64 },
    /// No scale-independent plan exists.
    Unbounded,
    /// The statement did not parse or bind.
    Invalid { error: String },
}

impl Outcome {
    /// Whether this statement fails the CI gate.
    pub fn gating(&self) -> bool {
        matches!(
            self,
            Outcome::Infeasible { .. } | Outcome::Unbounded | Outcome::Invalid { .. }
        )
    }

    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Feasible { .. } => "feasible",
            Outcome::Marginal { .. } => "marginal",
            Outcome::Infeasible { .. } => "infeasible",
            Outcome::Unbounded => "unbounded",
            Outcome::Invalid { .. } => "invalid",
        }
    }

    pub fn predicted_p99_ms(&self) -> Option<f64> {
        match self {
            Outcome::Feasible { predicted_p99_ms }
            | Outcome::Marginal { predicted_p99_ms }
            | Outcome::Infeasible { predicted_p99_ms } => Some(*predicted_p99_ms),
            _ => None,
        }
    }
}

/// The full audit of one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementAudit {
    pub name: String,
    pub sql: String,
    /// Line of the statement in its workload file (0 = unknown).
    pub line: usize,
    pub slo: SloConfig,
    pub outcome: Outcome,
    /// `Class II (bounded)` + the evidence that assigned it.
    pub class: Option<String>,
    pub class_derivation: Option<String>,
    pub tree: Option<DerivationNode>,
    pub diagnostics: Vec<Diagnostic>,
}

impl StatementAudit {
    /// An audit with nothing decided yet: where both entry points start.
    fn blank(name: &str, sql: &str, slo: SloConfig) -> StatementAudit {
        StatementAudit {
            name: name.to_string(),
            sql: sql.to_string(),
            line: 0,
            slo,
            outcome: Outcome::Invalid {
                error: String::new(),
            },
            class: None,
            class_derivation: None,
            tree: None,
            diagnostics: Vec::new(),
        }
    }

    /// The verdict for a statement that did not parse or bind: `failed`
    /// says which (`does not parse`), `fix` is the one suggestion.
    fn invalid(mut self, code: &str, failed: &str, error: String, fix: &str) -> StatementAudit {
        self.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            code: code.into(),
            message: format!("statement `{}` {failed}: {error}", self.name),
            operator: None,
            dominant_term: None,
            clause: None,
            line: 0,
            suggestions: vec![fix.into()],
        });
        self.outcome = Outcome::Invalid { error };
        self
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(&self.name)),
            ("sql", Json::str(&self.sql)),
            ("line", Json::uint(self.line)),
            ("slo_ms", ms(self.slo.slo_ms)),
            ("confidence", ms(self.slo.interval_confidence)),
            ("outcome", Json::str(self.outcome.label())),
        ];
        fields.push((
            "predicted_p99_ms",
            self.outcome.predicted_p99_ms().map_or(Json::Null, ms),
        ));
        if let Outcome::Invalid { error } = &self.outcome {
            fields.push(("error", Json::str(error)));
        }
        fields.push(("class", opt_str(&self.class)));
        fields.push(("class_derivation", opt_str(&self.class_derivation)));
        fields.push((
            "derivation_tree",
            self.tree.as_ref().map_or(Json::Null, |t| t.to_json()),
        ));
        fields.push((
            "diagnostics",
            Json::Arr(self.diagnostics.iter().map(|d| d.to_json()).collect()),
        ));
        Json::obj(fields)
    }
}

/// Parse and audit one PIQL SELECT against a catalog, model snapshot, and
/// SLO. Never touches storage; never panics on malformed input (errors
/// become `Outcome::Invalid` / `Outcome::Unbounded` with diagnostics).
pub fn audit_statement(
    catalog: &Catalog,
    predictor: &SloPredictor,
    name: &str,
    sql: &str,
    slo: SloConfig,
) -> StatementAudit {
    let mut audit = StatementAudit::blank(name, sql, slo);

    let stmt = match parse_select(sql) {
        Ok(s) => s,
        Err(e) => {
            return audit.invalid(
                "parse-error",
                "does not parse",
                e.to_string(),
                "fix the statement syntax before auditing",
            )
        }
    };

    let optimizer = Optimizer::scale_independent();
    let compiled = match optimizer.compile(catalog, &stmt) {
        Ok(c) => c,
        Err(OptError::NotScaleIndependent(report)) => {
            audit.outcome = Outcome::Unbounded;
            audit.diagnostics.push(unbounded_diagnostic(name, &report));
            return audit;
        }
        Err(e) => {
            return audit.invalid(
                "bind-error",
                "does not compile",
                e.to_string(),
                "check table and column names against the schema",
            )
        }
    };

    finish_compiled(
        &mut audit,
        predictor,
        &compiled,
        Some((catalog, &optimizer, &stmt)),
    );
    audit
}

/// Audit an already-compiled plan (the server's `explain` path for
/// prepared statements). Without the original statement and catalog, the
/// feasible-LIMIT probe is skipped; the diagnostics fall back to
/// clause-level suggestions.
pub fn audit_compiled(
    predictor: &SloPredictor,
    name: &str,
    sql: &str,
    compiled: &Compiled,
    slo: SloConfig,
) -> StatementAudit {
    let mut audit = StatementAudit::blank(name, sql, slo);
    finish_compiled(&mut audit, predictor, compiled, None);
    audit
}

fn finish_compiled(
    audit: &mut StatementAudit,
    predictor: &SloPredictor,
    compiled: &Compiled,
    probe: Option<(&Catalog, &Optimizer, &SelectStmt)>,
) {
    let slo = audit.slo;
    audit.class = Some(compiled.class.to_string());
    audit.class_derivation = Some(compiled.class.derivation().to_string());

    let attributions = predictor.attribute(compiled);
    let tree = derivation_tree(compiled, &attributions);
    let (operator, dominant_term, clause) = describe_dominant(&tree);

    // the registry's own decision (same test, same probe), read as a
    // verdict and a suggestion instead of an admission
    let below = probe.and_then(|(_, _, stmt)| stmt.bound);
    let found = fit(
        predictor,
        &slo,
        compiled,
        below.map(|b| b.count()),
        |limit| {
            let (catalog, optimizer, stmt) = probe?;
            optimizer.compile(catalog, &stmt.rebound(limit)).ok()
        },
    );
    let prediction = found.written();
    // the number the verdict rests on: the interval p99 the SLO's
    // confidence asks to meet (the max interval at confidence 1)
    let p99 = prediction.p99_quantile_ms(slo.interval_confidence);

    if !matches!(found, Fit::AsWritten(_)) {
        let mut suggestions = Vec::new();
        if let Fit::Degraded {
            limit, prediction, ..
        } = &found
        {
            let probe_p99 = prediction.p99_quantile_ms(slo.interval_confidence);
            let verb = if compiled.page_size.is_some() {
                "PAGINATE"
            } else {
                "LIMIT"
            };
            suggestions.push(format!(
                "the advisor's feasible frontier suggests {verb} ≤ {limit} \
                 (predicted p99 {probe_p99:.1} ms) for the {:.0} ms SLO",
                slo.slo_ms
            ));
        }
        if let Some(c) = &clause {
            suggestions.push(format!("reduce the bound declared by `{c}`"));
        }
        if suggestions.is_empty() {
            suggestions.push(format!(
                "no smaller result bound meets the SLO; raise the SLO above \
                 {p99:.1} ms or reduce the declared cardinality or row size"
            ));
        }
        audit.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            code: "slo-infeasible".into(),
            message: format!(
                "statement `{}` is predicted to violate its {:.0} ms SLO: \
                 max interval p99 = {:.1} ms (violation risk {:.0}%); \
                 {operator} dominates via {dominant_term}",
                audit.name,
                slo.slo_ms,
                prediction.max_p99_ms,
                prediction.violation_risk(slo.slo_ms) * 100.0,
            ),
            operator: Some(operator),
            dominant_term: Some(dominant_term),
            clause,
            line: 0,
            suggestions,
        });
        audit.outcome = Outcome::Infeasible {
            predicted_p99_ms: p99,
        };
    } else if p99 > 0.8 * slo.slo_ms {
        let mut suggestions = vec![format!(
            "only {:.0}% SLO headroom remains; model drift or a volatile \
             interval will flag this statement",
            (1.0 - p99 / slo.slo_ms) * 100.0
        )];
        if let Some(c) = &clause {
            suggestions.push(format!(
                "reduce the bound declared by `{c}` to regain headroom"
            ));
        }
        audit.diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            code: "slo-marginal".into(),
            message: format!(
                "statement `{}` meets its {:.0} ms SLO marginally: predicted \
                 p99 {p99:.1} ms; {operator} dominates via {dominant_term}",
                audit.name, slo.slo_ms,
            ),
            operator: Some(operator),
            dominant_term: Some(dominant_term),
            clause,
            line: 0,
            suggestions,
        });
        audit.outcome = Outcome::Marginal {
            predicted_p99_ms: p99,
        };
    } else {
        // feasible; attach a help note when the proof leans on a declared
        // cardinality the schema owner could change
        if let Some(node) = cardinality_node(&tree) {
            let c = node.bound.as_ref().map(|b| b.source_clause.clone());
            audit.diagnostics.push(Diagnostic {
                severity: Severity::Help,
                code: "cardinality-dependence".into(),
                message: format!(
                    "statement `{}` is bounded only by a declared relationship \
                     cardinality at {}; the prediction is dominated by \
                     {dominant_term}",
                    audit.name,
                    node.describe(),
                ),
                operator: Some(node.describe()),
                dominant_term: Some(dominant_term),
                clause: c.clone(),
                line: 0,
                suggestions: vec![format!(
                    "re-audit after changing `{}`: the admission decision \
                     scales with it",
                    c.unwrap_or_else(|| "the cardinality declaration".into())
                )],
            });
        }
        audit.outcome = Outcome::Feasible {
            predicted_p99_ms: p99,
        };
    }
    audit.tree = Some(tree);
}

/// Name the dominant node, its dominating cost term, and the clause its
/// bound rests on. Falls back to the root remote operator when the model
/// snapshot has no data.
fn describe_dominant(tree: &DerivationNode) -> (String, String, Option<String>) {
    let node = tree.dominant_node().or_else(|| {
        // no model data: point at the outermost remote operator
        let mut last = None;
        tree.walk(&mut |n| {
            if n.remote {
                last = Some(n);
            }
        });
        last
    });
    match node {
        Some(n) => {
            let term = n
                .cost_terms
                .iter()
                .max_by(|a, b| a.mean_ms.total_cmp(&b.mean_ms))
                .map(|t| {
                    format!(
                        "{} — {:.0}% of predicted mean",
                        t.describe(),
                        t.share * 100.0
                    )
                })
                .unwrap_or_else(|| format!("its {} term (no model data)", n.operator));
            let clause = n.bound.as_ref().map(|b| b.source_clause.clone());
            (n.describe(), term, clause)
        }
        None => (
            "the plan's local pipeline".to_string(),
            "no remote operator term".to_string(),
            None,
        ),
    }
}

/// The first remote node whose bound rests on a cardinality declaration.
fn cardinality_node(tree: &DerivationNode) -> Option<&DerivationNode> {
    let mut found = None;
    tree.walk(&mut |n| {
        if found.is_none() {
            if let Some(b) = &n.bound {
                if matches!(
                    b.kind.as_str(),
                    "cardinality" | "token-cardinality" | "param-max"
                ) && n.remote
                {
                    found = Some(n);
                }
            }
        }
    });
    found
}

/// The diagnostic for a not-scale-independent rejection: the unbounded
/// operator term dominates every SLO, so it is named as the dominating
/// term, and the Insight Assistant's suggestions carry over verbatim.
fn unbounded_diagnostic(name: &str, report: &InsightReport) -> Diagnostic {
    let operator = match &report.relation {
        Some(rel) => format!("the scan of `{rel}`"),
        None => "the unbounded plan segment".to_string(),
    };
    let mut suggestions: Vec<String> = report.suggestions.iter().map(|s| s.to_string()).collect();
    if suggestions.is_empty() {
        suggestions.push("add a LIMIT or PAGINATE clause to bound the result".into());
    }
    Diagnostic {
        severity: Severity::Error,
        code: "unbounded-operator".into(),
        message: format!(
            "statement `{name}` is not scale-independent: {}; {operator} has \
             no static bound, so its unbounded operator term dominates the \
             predicted latency at scale",
            report.problem.trim_end_matches('.')
        ),
        operator: Some(operator),
        dominant_term: Some("the unbounded operator term (α grows with the database)".into()),
        clause: report.relation.as_ref().map(|r| format!("FROM {r}")),
        line: 0,
        suggestions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearModelSpec;
    use piql_core::catalog::TableDef;
    use piql_core::value::DataType;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            TableDef::builder("subs")
                .column("owner", DataType::Varchar(32))
                .column("target", DataType::Varchar(32))
                .primary_key(&["owner", "target"])
                .cardinality_limit(100, &["owner"])
                .build(),
        )
        .unwrap();
        cat.create_table(
            TableDef::builder("thoughts")
                .column("owner", DataType::Varchar(32))
                .column("ts", DataType::Timestamp)
                .primary_key(&["owner", "ts"])
                .build(),
        )
        .unwrap();
        cat
    }

    fn predictor() -> SloPredictor {
        SloPredictor::new(LinearModelSpec::default().build())
    }

    const THOUGHTSTREAM: &str = "SELECT thoughts.* FROM subs s JOIN thoughts \
         WHERE thoughts.owner = s.target AND s.owner = <u> \
         ORDER BY thoughts.ts DESC LIMIT 10";

    #[test]
    fn feasible_statement_audits_clean() {
        let slo = SloConfig {
            slo_ms: 500.0,
            ..SloConfig::default()
        };
        let audit = audit_statement(&catalog(), &predictor(), "stream", THOUGHTSTREAM, slo);
        assert!(
            matches!(audit.outcome, Outcome::Feasible { .. }),
            "{:?}",
            audit.outcome
        );
        assert!(!audit.outcome.gating());
        assert_eq!(audit.class.as_deref(), Some("Class II (bounded)"));
        let tree = audit.tree.as_ref().expect("tree present");
        assert!(
            tree.dominant_node().is_some(),
            "model data attributes a term"
        );
        // the Class II help note still names operator + term + suggestion
        let help = audit
            .diagnostics
            .iter()
            .find(|d| d.code == "cardinality-dependence")
            .expect("cardinality help note");
        assert!(help.operator.is_some());
        assert!(help.dominant_term.is_some());
        assert!(!help.suggestions.is_empty());
    }

    #[test]
    fn infeasible_statement_names_term_and_suggests_limit() {
        let slo = SloConfig {
            slo_ms: 50.0,
            ..SloConfig::default()
        };
        let audit = audit_statement(&catalog(), &predictor(), "stream", THOUGHTSTREAM, slo);
        assert!(
            matches!(audit.outcome, Outcome::Infeasible { .. }),
            "{:?}",
            audit.outcome
        );
        assert!(audit.outcome.gating());
        let d = &audit.diagnostics[0];
        assert_eq!(d.code, "slo-infeasible");
        assert_eq!(d.severity, Severity::Error);
        let op = d.operator.as_ref().expect("names the operator");
        assert!(
            op.contains("SortedIndexJoin") || op.contains("IndexScan"),
            "{op}"
        );
        let term = d.dominant_term.as_ref().expect("names the dominating term");
        assert!(term.contains("αc="), "{term}");
        assert!(term.contains("% of predicted mean"), "{term}");
        assert!(!d.suggestions.is_empty());
    }

    #[test]
    fn unbounded_statement_carries_insight_suggestions() {
        let audit = audit_statement(
            &catalog(),
            &predictor(),
            "all",
            "SELECT * FROM thoughts WHERE owner = <u>",
            SloConfig::default(),
        );
        assert_eq!(audit.outcome, Outcome::Unbounded);
        assert!(audit.outcome.gating());
        let d = &audit.diagnostics[0];
        assert_eq!(d.code, "unbounded-operator");
        assert!(d.operator.is_some());
        assert!(d.dominant_term.is_some());
        assert!(
            d.suggestions
                .iter()
                .any(|s| s.contains("CARDINALITY") || s.contains("LIMIT")),
            "{:?}",
            d.suggestions
        );
    }

    #[test]
    fn parse_error_is_invalid_not_panic() {
        let audit = audit_statement(
            &catalog(),
            &predictor(),
            "junk",
            "SELEKT nonsense !!!",
            SloConfig::default(),
        );
        assert!(matches!(audit.outcome, Outcome::Invalid { .. }));
        assert!(audit.outcome.gating());
    }

    #[test]
    fn json_report_round_trips_key_fields() {
        let audit = audit_statement(
            &catalog(),
            &predictor(),
            "stream",
            THOUGHTSTREAM,
            SloConfig {
                slo_ms: 50.0,
                ..SloConfig::default()
            },
        );
        let json = audit.to_json().to_string();
        for needle in [
            r#""outcome":"infeasible""#,
            r#""code":"slo-infeasible""#,
            r#""derivation_tree""#,
            r#""source_clause""#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
