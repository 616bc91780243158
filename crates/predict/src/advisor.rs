//! The SLO half of the Performance Insight Assistant (§6.4): heatmaps over
//! cardinality parameters (Figure 6) and cardinality-limit suggestions that
//! maximize functionality while meeting the SLO.

use crate::model::ALPHA_GRID;
use crate::predict::{QueryPrediction, SloPredictor};
use piql_core::opt::Compiled;

/// The service-level objective a statement is decided against: by the
/// server's admission and by the static auditor, which ignores
/// `allow_degrade` and only ever suggests the smaller bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// p99 response-time target, milliseconds.
    pub slo_ms: f64,
    /// Fraction of model intervals whose predicted p99 must meet the SLO
    /// (§6.3: 1.0 = every interval, 0.9 = tolerate 10% volatile intervals).
    pub interval_confidence: f64,
    /// Degrade over-SLO statements to a smaller LIMIT instead of rejecting.
    pub allow_degrade: bool,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            slo_ms: 100.0,
            interval_confidence: 0.9,
            allow_degrade: true,
        }
    }
}

/// The §6.2–§6.4 decision for one statement: what [`fit`] found.
#[derive(Debug, Clone)]
pub enum Fit {
    /// The statement meets the SLO as written.
    AsWritten(QueryPrediction),
    /// Over the SLO as written (`written`); `limit` is the largest
    /// advisor-grid bound below its own that meets, with its `prediction`.
    Degraded {
        written: QueryPrediction,
        limit: u64,
        prediction: QueryPrediction,
    },
    /// Over the SLO as written, and no smaller bound was found that meets
    /// (or none may be offered).
    Infeasible(QueryPrediction),
}

impl Fit {
    /// The prediction for the statement as written.
    pub fn written(&self) -> &QueryPrediction {
        match self {
            Fit::AsWritten(written) | Fit::Degraded { written, .. } | Fit::Infeasible(written) => {
                written
            }
        }
    }
}

/// The one place a statement is decided against an SLO: predict its plan
/// per interval (§6.2), call it compliant when `slo.interval_confidence` of
/// them meet `slo.slo_ms` ([`QueryPrediction::meets_slo`], §6.3), otherwise offer the
/// largest bound that is compliant *by the same test* (§6.4). Registration,
/// every re-validation sweep and the static auditor call this and differ
/// only in what [`Fit::Infeasible`] means (reject, flag, gate).
///
/// `written` is the plan as written; `below` its own result bound when a
/// smaller one may be offered (`None`: it has none, or degrading is off).
/// `compile` plans the statement re-bounded to one candidate
/// (`SelectStmt::rebound`) — pure compiles, zero storage operations,
/// largest candidate first (the grid ascends) and no further than the
/// answer. A candidate that fails to compile (an optimizer bug: a larger
/// bound compiled) voids the probe — no admission or suggestion rests on
/// one.
pub fn fit(
    predictor: &SloPredictor,
    slo: &SloConfig,
    written: &Compiled,
    below: Option<u64>,
    mut compile: impl FnMut(u64) -> Option<Compiled>,
) -> Fit {
    let written = predictor.predict(written);
    if written.meets_slo(slo.slo_ms, slo.interval_confidence) {
        return Fit::AsWritten(written);
    }
    for limit in ALPHA_GRID.iter().rev().map(|&a| u64::from(a)) {
        if below.is_some_and(|own| limit < own) {
            let Some(candidate) = compile(limit) else {
                break;
            };
            let prediction = predictor.predict(&candidate);
            if prediction.meets_slo(slo.slo_ms, slo.interval_confidence) {
                return Fit::Degraded {
                    written,
                    limit,
                    prediction,
                };
            }
        }
    }
    Fit::Infeasible(written)
}

/// A predicted-p99 heatmap over two cardinality parameters (Figure 6:
/// subscriptions-per-user × records-per-page for the thoughtstream query).
#[derive(Debug, Clone)]
pub struct Heatmap {
    pub row_param: String,
    pub col_param: String,
    pub rows: Vec<u64>,
    pub cols: Vec<u64>,
    /// `cells[r][c]` = predicted max-interval p99 in ms.
    pub cells: Vec<Vec<f64>>,
}

impl Heatmap {
    /// Build by compiling the query for each (row, col) cardinality pair.
    /// `compile` returns the plan for a given pair (typically by swapping
    /// the schema's CARDINALITY LIMIT and the query's page size).
    pub fn build(
        predictor: &SloPredictor,
        row_param: &str,
        col_param: &str,
        rows: Vec<u64>,
        cols: Vec<u64>,
        mut compile: impl FnMut(u64, u64) -> Compiled,
    ) -> Heatmap {
        let cells = rows
            .iter()
            .map(|&r| {
                cols.iter()
                    .map(|&c| predictor.predict(&compile(r, c)).max_p99_ms)
                    .collect()
            })
            .collect();
        Heatmap {
            row_param: row_param.to_string(),
            col_param: col_param.to_string(),
            rows,
            cols,
            cells,
        }
    }

    /// All (row, col) pairs whose predicted p99 meets the SLO.
    pub fn feasible(&self, slo_ms: f64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (ri, &r) in self.rows.iter().enumerate() {
            for (ci, &c) in self.cols.iter().enumerate() {
                if self.cells[ri][ci] <= slo_ms {
                    out.push((r, c));
                }
            }
        }
        out
    }

    /// The largest row cardinality fully meeting the SLO for a given column
    /// value — the assistant's suggested CARDINALITY LIMIT (§6.4).
    pub fn suggest_row_limit(&self, col: u64, slo_ms: f64) -> Option<u64> {
        let ci = self.cols.iter().position(|&c| c == col)?;
        self.rows
            .iter()
            .enumerate()
            .filter(|(ri, _)| self.cells[*ri][ci] <= slo_ms)
            .map(|(_, &r)| r)
            .max()
    }

    /// Render like the paper's Figure 6 (rows descending, ms cells).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{: >28} | predicted p99 latency (ms)\n",
            format!("{} \\ {}", self.row_param, self.col_param)
        ));
        s.push_str(&format!("{: >28} |", ""));
        for c in &self.cols {
            s.push_str(&format!(" {c: >5}"));
        }
        s.push('\n');
        for (ri, r) in self.rows.iter().enumerate().rev() {
            s.push_str(&format!("{r: >28} |"));
            for cell in &self.cells[ri] {
                s.push_str(&format!(" {cell: >5.0}"));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_heatmap() -> Heatmap {
        Heatmap {
            row_param: "subs".into(),
            col_param: "page".into(),
            rows: vec![100, 200, 300],
            cols: vec![10, 20],
            cells: vec![vec![100.0, 150.0], vec![200.0, 300.0], vec![400.0, 600.0]],
        }
    }

    #[test]
    fn feasibility_and_suggestion() {
        let h = diag_heatmap();
        assert_eq!(h.feasible(200.0).len(), 3);
        assert_eq!(h.suggest_row_limit(10, 250.0), Some(200));
        assert_eq!(h.suggest_row_limit(20, 250.0), Some(100));
        assert_eq!(h.suggest_row_limit(20, 50.0), None);
        assert_eq!(h.suggest_row_limit(99, 500.0), None, "unknown column");
    }

    #[test]
    fn fit_takes_the_statement_as_written_or_the_largest_feasible_grid_bound_or_nothing() {
        use crate::model::{ModelKey, ModelStore, OpKind, BETA_GRID};
        use piql_core::catalog::{Catalog, TableDef};
        use piql_core::opt::Optimizer;
        use piql_core::parser::parse_select;
        use piql_core::value::DataType;

        let mut catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::builder("thoughts")
                    .column("owner", DataType::Varchar(32))
                    .column("timestamp", DataType::Timestamp)
                    .primary_key(&["owner", "timestamp"])
                    .build(),
            )
            .unwrap();
        let stmt = parse_select("SELECT * FROM thoughts WHERE owner = <u> LIMIT 100").unwrap();
        // a scan of α rows takes α ms
        let mut models = ModelStore::new(1);
        for &alpha_c in ALPHA_GRID {
            for &beta in BETA_GRID {
                let key = ModelKey {
                    op: OpKind::IndexScan,
                    alpha_c,
                    alpha_j: 1,
                    beta,
                };
                models.record(0, key, u64::from(alpha_c) * 1_000);
            }
        }
        let predictor = SloPredictor::new(models);
        let optimizer = Optimizer::scale_independent();
        let compile = |limit| optimizer.compile(&catalog, &stmt.rebound(limit)).ok();

        let written = optimizer.compile(&catalog, &stmt).unwrap();
        let probe = |slo_ms, below, compile: &dyn Fn(u64) -> Option<Compiled>| {
            let slo = SloConfig {
                slo_ms,
                interval_confidence: 1.0,
                allow_degrade: true,
            };
            fit(&predictor, &slo, &written, below, compile)
        };

        match probe(30.0, Some(100), &compile) {
            Fit::Degraded {
                written,
                limit,
                prediction,
            } => {
                assert_eq!(limit, 25, "50 ms is over, 25 ms is the largest under");
                let p99 = prediction.max_p99_ms;
                assert!((25.0..=30.0).contains(&p99), "{p99}");
                assert!(written.max_p99_ms >= 100.0, "{}", written.max_p99_ms);
            }
            other => panic!("expected a degraded fit, got {other:?}"),
        }
        assert!(matches!(
            probe(150.0, Some(100), &compile),
            Fit::AsWritten(_)
        ));
        // nothing to offer (no bound, or degrading is off), nothing on the
        // grid below the bound, or nothing feasible
        for (slo_ms, below) in [(30.0, None), (30.0, Some(1)), (0.5, Some(100))] {
            let found = probe(slo_ms, below, &compile);
            assert!(matches!(found, Fit::Infeasible(_)), "{found:?}");
        }
        // a candidate that does not compile voids the probe
        let flaky = |limit| if limit == 50 { None } else { compile(limit) };
        let found = probe(30.0, Some(100), &flaky);
        assert!(matches!(found, Fit::Infeasible(_)), "{found:?}");
    }

    #[test]
    fn render_contains_all_cells() {
        let text = diag_heatmap().render();
        for v in ["100", "150", "200", "300", "400", "600"] {
            assert!(text.contains(v), "{text}");
        }
    }
}
