//! The SLO half of the Performance Insight Assistant (§6.4): heatmaps over
//! cardinality parameters (Figure 6) and cardinality-limit suggestions that
//! maximize functionality while meeting the SLO.

use crate::model::ALPHA_GRID;
use crate::predict::SloPredictor;
use piql_core::opt::Compiled;

/// The §6.4 degradation probe: the largest advisor-grid result bound
/// below `below` whose predicted p99 meets `slo_ms`, with that prediction.
/// `compile` plans the statement re-bounded to one candidate
/// (`SelectStmt::rebound`) — pure compiles, zero storage operations,
/// largest candidate first (the grid ascends) and no further than the
/// answer. A candidate that fails to compile (an optimizer bug: a larger
/// bound compiled) voids the probe — no admission or suggestion rests on
/// one.
pub fn suggest_limit(
    predictor: &SloPredictor,
    below: u64,
    slo_ms: f64,
    mut compile: impl FnMut(u64) -> Option<Compiled>,
) -> Option<(u64, f64)> {
    for limit in ALPHA_GRID.iter().rev().map(|&a| u64::from(a)) {
        if limit < below {
            let p99 = predictor.predict(&compile(limit)?).max_p99_ms;
            if p99 <= slo_ms {
                return Some((limit, p99));
            }
        }
    }
    None
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
    fn limit_probe_takes_the_largest_feasible_grid_bound_or_nothing() {
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

        let (limit, p99) = suggest_limit(&predictor, 100, 30.0, compile).unwrap();
        assert_eq!(limit, 25, "50 ms is over, 25 ms is the largest under");
        assert!((25.0..=30.0).contains(&p99), "{p99}");
        // nothing on the grid below the current bound, or nothing feasible
        assert_eq!(suggest_limit(&predictor, 1, 30.0, compile), None);
        assert_eq!(suggest_limit(&predictor, 100, 0.5, compile), None);
        // a candidate that does not compile voids the probe
        let flaky = |limit| if limit == 50 { None } else { compile(limit) };
        assert_eq!(suggest_limit(&predictor, 100, 30.0, flaky), None);
    }

    #[test]
    fn render_contains_all_cells() {
        let text = diag_heatmap().render();
        for v in ["100", "150", "200", "300", "400", "600"] {
            assert!(text.contains(v), "{text}");
        }
    }
}
