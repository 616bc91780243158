//! Whole-workload audits and report rendering (human + JSON).

use crate::audit::{audit_statement, Severity, StatementAudit};
use crate::tree::DerivationNode;
use crate::workload::Workload;
use piql_core::json::Json;
use piql_predict::SloPredictor;
use std::fmt::Write as _;

/// The audit of a whole workload file.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload file name, for rendering.
    pub source: String,
    pub statements: Vec<StatementAudit>,
}

/// Audit every statement of a parsed workload against one model snapshot.
pub fn audit_workload(
    source: &str,
    workload: &Workload,
    predictor: &SloPredictor,
) -> WorkloadReport {
    let statements = workload
        .entries
        .iter()
        .map(|entry| {
            let mut audit = audit_statement(
                &workload.catalog,
                predictor,
                &entry.name,
                &entry.sql,
                entry.slo,
            );
            audit.line = entry.line;
            for d in &mut audit.diagnostics {
                d.line = entry.line;
            }
            audit
        })
        .collect();
    WorkloadReport {
        source: source.to_string(),
        statements,
    }
}

impl WorkloadReport {
    /// Statements that fail the CI gate (unbounded / SLO-infeasible /
    /// invalid).
    pub fn gating(&self) -> Vec<&StatementAudit> {
        self.statements
            .iter()
            .filter(|s| s.outcome.gating())
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let count = |label: &str| {
            let n = self
                .statements
                .iter()
                .filter(|s| s.outcome.label() == label);
            Json::uint(n.count())
        };
        Json::obj([
            ("workload", Json::str(&self.source)),
            (
                "summary",
                Json::obj([
                    ("statements", Json::uint(self.statements.len())),
                    ("gating", Json::uint(self.gating().len())),
                    ("feasible", count("feasible")),
                    ("marginal", count("marginal")),
                    ("infeasible", count("infeasible")),
                    ("unbounded", count("unbounded")),
                    ("invalid", count("invalid")),
                ]),
            ),
            (
                "statements",
                Json::Arr(self.statements.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }

    /// Render the report rustc-style for terminals.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for audit in &self.statements {
            let p99 = audit
                .outcome
                .predicted_p99_ms()
                .map(|p| format!("predicted p99 {p:.1} ms vs SLO {:.0} ms", audit.slo.slo_ms))
                .unwrap_or_else(|| format!("SLO {:.0} ms", audit.slo.slo_ms));
            let _ = writeln!(
                out,
                "statement `{}` (line {}) — {}, {p99}: {}",
                audit.name,
                audit.line,
                audit.class.as_deref().unwrap_or("unclassified"),
                audit.outcome.label(),
            );
            if let Some(tree) = &audit.tree {
                let _ = writeln!(out, "  bound derivation:");
                render_tree(tree, 2, &mut out);
            }
            for d in &audit.diagnostics {
                let _ = writeln!(out, "{}[{}]: {}", d.severity.label(), d.code, d.message);
                let _ = writeln!(out, "  --> {}:{}", self.source, d.line);
                if let Some(op) = &d.operator {
                    let _ = writeln!(out, "   = operator: {op}");
                }
                if let Some(term) = &d.dominant_term {
                    let _ = writeln!(out, "   = dominant term: {term}");
                }
                if let Some(clause) = &d.clause {
                    let _ = writeln!(out, "   = span: {clause}");
                }
                let help = match d.severity {
                    Severity::Help => "note",
                    _ => "help",
                };
                for s in &d.suggestions {
                    let _ = writeln!(out, "   = {help}: {s}");
                }
            }
            out.push('\n');
        }
        let gating = self.gating();
        let _ = writeln!(
            out,
            "audited {} statement(s): {} gate failure(s)",
            self.statements.len(),
            gating.len()
        );
        for s in gating {
            let _ = writeln!(out, "  FAIL `{}` — {}", s.name, s.outcome.label());
        }
        out
    }
}

fn render_tree(node: &DerivationNode, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let mut line = format!("{pad}{}", node.describe());
    if let Some(b) = &node.bound {
        let _ = write!(line, " ≤{} [{}]", b.count, b.provenance);
    }
    if let Some(est) = node.estimate {
        let _ = write!(line, " UNBOUNDED (est. {est})");
    }
    if node.remote {
        let _ = write!(
            line,
            " requests≤{} tuples≤{}",
            node.bounds.requests, node.bounds.tuples
        );
    }
    if node.dominant {
        if let Some(t) = node.cost_terms.iter().find(|t| t.dominant) {
            let _ = write!(
                line,
                " ★ dominates ({:.0}% of predicted mean)",
                t.share * 100.0
            );
        } else {
            let _ = write!(line, " ★ dominates");
        }
    }
    out.push_str(&line);
    out.push('\n');
    for c in &node.children {
        render_tree(c, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearModelSpec;
    use crate::workload::parse_workload;

    const WORKLOAD: &str = "\
CREATE TABLE subs (owner VARCHAR(24), target VARCHAR(24),
  PRIMARY KEY (owner, target), CARDINALITY LIMIT 100 (owner));
CREATE TABLE thoughts (owner VARCHAR(24), ts TIMESTAMP,
  PRIMARY KEY (owner, ts));

STATEMENT stream SLO 50ms:
SELECT thoughts.* FROM subs s JOIN thoughts
WHERE thoughts.owner = s.target AND s.owner = <u>
ORDER BY thoughts.ts DESC LIMIT 10;

STATEMENT unbounded SLO 50ms:
SELECT * FROM thoughts WHERE owner = <u>;
";

    #[test]
    fn report_renders_and_gates() {
        let workload = parse_workload(WORKLOAD).expect("parses");
        let predictor = SloPredictor::new(LinearModelSpec::default().build());
        let report = audit_workload("wl.piql", &workload, &predictor);
        assert_eq!(report.statements.len(), 2);
        assert!(!report.gating().is_empty(), "unbounded statement gates");
        let human = report.render_human();
        assert!(human.contains("bound derivation:"), "{human}");
        assert!(human.contains("error[unbounded-operator]"), "{human}");
        assert!(human.contains("--> wl.piql:"), "{human}");
        let json = report.to_json().to_string();
        assert!(json.contains(r#""summary""#), "{json}");
        assert!(json.contains(r#""unbounded":1"#), "{json}");
    }

    #[test]
    fn diagnostics_inherit_statement_lines() {
        let workload = parse_workload(WORKLOAD).expect("parses");
        let predictor = SloPredictor::new(LinearModelSpec::default().build());
        let report = audit_workload("wl.piql", &workload, &predictor);
        let unbounded = report
            .statements
            .iter()
            .find(|s| s.name == "unbounded")
            .unwrap();
        assert!(unbounded.line > 0);
        assert!(unbounded
            .diagnostics
            .iter()
            .all(|d| d.line == unbounded.line));
    }
}
