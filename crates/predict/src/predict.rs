//! Query-plan prediction (§6.2) and SLO-violation risk (§6.3, Figure 5).
//!
//! Serial plan sections sum (convolve); the model treats operators as
//! blocking, which ignores pipeline overlap and therefore errs on the
//! conservative side — the goal is predicting SLO *compliance*, not exact
//! response time. The per-interval histograms turn the p99 into a
//! distribution over intervals, from which the violation risk is read.

use crate::histogram::Distribution;
use crate::model::{ModelKey, ModelStore, OpKind};
use piql_core::opt::Compiled;
use piql_core::plan::physical::PhysicalPlan;

/// The remote-operator chain of a plan as model keys, including the extra
/// dereference rounds of non-covering secondary-index reads (modeled as an
/// [`OpKind::IndexFKJoin`] of the fetched entries, which is exactly what
/// the executor issues).
pub fn plan_thetas(compiled: &Compiled) -> Vec<ModelKey> {
    indexed_thetas(compiled)
        .into_iter()
        .map(|(_, key)| key)
        .collect()
}

/// [`plan_thetas`], each key with the index of the remote operator (in
/// [`PhysicalPlan::remote_ops`] order) it models — a deref term shares its
/// scan's index. This is the join key the audit subsystem uses to attach
/// cost terms to bound-derivation tree nodes. An operator's own key is the
/// one its prepared form carries (`piql_engine::RemoteOp::key`): both are
/// [`PhysicalPlan::theta`] through [`ModelKey::new`].
fn indexed_thetas(compiled: &Compiled) -> Vec<(usize, ModelKey)> {
    let mut out = Vec::new();
    for (idx, op) in compiled.physical.remote_ops().into_iter().enumerate() {
        let (kind, deref, (alpha_c, alpha_j, beta)) = match (op, op.theta()) {
            (PhysicalPlan::IndexScan { spec, .. }, Some(theta)) => {
                (OpKind::IndexScan, spec.deref, theta)
            }
            (PhysicalPlan::IndexFKJoin { .. }, Some(theta)) => (OpKind::IndexFKJoin, false, theta),
            (PhysicalPlan::SortedIndexJoin { spec, .. }, Some(theta)) => {
                (OpKind::SortedIndexJoin, spec.deref, theta)
            }
            _ => continue,
        };
        out.push((idx, ModelKey::new(kind, alpha_c, alpha_j, beta)));
        if deref {
            let fetched = alpha_c.saturating_mul(alpha_j);
            out.push((idx, ModelKey::new(OpKind::IndexFKJoin, fetched, 1, beta)));
        }
    }
    out
}

/// One operator term's contribution to a plan's predicted latency
/// (dominance attribution for audit diagnostics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaAttribution {
    /// Index of the remote operator (in `remote_ops()` order) this term
    /// models; deref terms share their operator's index.
    pub op_index: usize,
    pub key: ModelKey,
    /// Mean of the term's pooled latency distribution, ms (0 when the
    /// model store has no data for the key).
    pub mean_ms: f64,
    /// p99 of the term's pooled latency distribution, ms.
    pub p99_ms: f64,
    /// Fraction of the plan's total predicted mean this term accounts
    /// for, in `[0, 1]` (0 when no term has model data).
    pub share: f64,
}

/// Per-query prediction output.
#[derive(Debug, Clone)]
pub struct QueryPrediction {
    /// Predicted p99 (ms) for every training interval (Figure 5(c)).
    pub p99_per_interval_ms: Vec<f64>,
    /// The conservative headline number Table 1 reports: the max interval
    /// p99.
    pub max_p99_ms: f64,
    /// Aggregate (all intervals pooled) latency distribution.
    pub overall: Distribution,
}

impl QueryPrediction {
    /// How many intervals must meet an SLO for `confidence` of them to:
    /// the smallest count `k` with `k / n ≥ confidence`. Decided on the
    /// counts themselves, so k-of-n is exact (`1.0 - 0.9` is not `0.1`).
    fn quorum(&self, confidence: f64) -> usize {
        let n = self.p99_per_interval_ms.len();
        (0..n)
            .find(|&k| k as f64 / n as f64 >= confidence)
            .unwrap_or(n)
    }

    /// The q-quantile of the per-interval p99 distribution (e.g. 0.9 →
    /// "the p99 stays below this in 90% of intervals") — the number
    /// [`QueryPrediction::meets_slo`] compares with the SLO at confidence
    /// `q`; 0 when no interval has to meet (`q = 0`, or no intervals).
    pub fn p99_quantile_ms(&self, q: f64) -> f64 {
        let mut xs = self.p99_per_interval_ms.clone();
        xs.sort_by(|a, b| a.total_cmp(b));
        self.quorum(q).checked_sub(1).map_or(0.0, |idx| xs[idx])
    }

    /// Fraction of intervals whose predicted p99 exceeds `slo_ms` — the
    /// §6.3 SLO-violation risk.
    pub fn violation_risk(&self, slo_ms: f64) -> f64 {
        if self.p99_per_interval_ms.is_empty() {
            return 0.0;
        }
        let violations = self
            .p99_per_interval_ms
            .iter()
            .filter(|&&p| p > slo_ms)
            .count();
        violations as f64 / self.p99_per_interval_ms.len() as f64
    }

    /// Whether the query is predicted to meet "`pct` of queries in each
    /// interval under `slo_ms`" for at least `interval_confidence` of
    /// intervals — the one comparison of a prediction with an SLO (§6.3);
    /// admission, re-validation and the auditor all decide through it.
    pub fn meets_slo(&self, slo_ms: f64, interval_confidence: f64) -> bool {
        let meeting = self
            .p99_per_interval_ms
            .iter()
            .filter(|&&p| p <= slo_ms)
            .count();
        meeting >= self.quorum(interval_confidence)
    }
}

/// The predictor: a trained model store applied to compiled plans.
///
/// Holds an immutable **snapshot** (`Arc`) of the models: predictions over
/// one predictor instance are internally consistent even while a
/// [`SharedModelStore`](crate::SharedModelStore) concurrently ingests live
/// samples and publishes newer snapshots. Cloning a predictor is cheap.
#[derive(Debug, Clone)]
pub struct SloPredictor {
    pub models: std::sync::Arc<ModelStore>,
}

impl SloPredictor {
    pub fn new(models: ModelStore) -> Self {
        Self::from_snapshot(std::sync::Arc::new(models))
    }

    /// Wrap an already-shared snapshot (no copy).
    pub fn from_snapshot(models: std::sync::Arc<ModelStore>) -> Self {
        SloPredictor { models }
    }

    /// Predict the latency distribution of a compiled query.
    pub fn predict(&self, compiled: &Compiled) -> QueryPrediction {
        let thetas = plan_thetas(compiled);
        let mut p99s = Vec::with_capacity(self.models.n_intervals());
        for interval in 0..self.models.n_intervals() {
            if let Some(d) = self.compose(&thetas, Some(interval)) {
                p99s.push(d.quantile_ms(0.99));
            }
        }
        let overall = self
            .compose(&thetas, None)
            .unwrap_or_else(|| Distribution::point(0));
        let max_p99 = p99s.iter().cloned().fold(0.0f64, f64::max);
        QueryPrediction {
            p99_per_interval_ms: p99s,
            max_p99_ms: max_p99,
            overall,
        }
    }

    /// Per-term latency attribution: how much each operator theta
    /// contributes to the plan's predicted latency, from the pooled
    /// histograms. `share` is the fraction of the summed per-term means
    /// (means are additive under convolution, so this is the exact
    /// decomposition of the predicted total mean; p99 is reported per
    /// term for context but does not decompose additively).
    pub fn attribute(&self, compiled: &Compiled) -> Vec<ThetaAttribution> {
        let mut out: Vec<ThetaAttribution> = indexed_thetas(compiled)
            .into_iter()
            .map(|(op_index, key)| {
                let (mean_ms, p99_ms) = match self.models.lookup_overall(key) {
                    Some(h) => {
                        let d = h.to_distribution();
                        (d.mean_ms(), d.quantile_ms(0.99))
                    }
                    None => (0.0, 0.0),
                };
                ThetaAttribution {
                    op_index,
                    key,
                    mean_ms,
                    p99_ms,
                    share: 0.0,
                }
            })
            .collect();
        let total: f64 = out.iter().map(|a| a.mean_ms).sum();
        if total > 0.0 {
            for a in &mut out {
                a.share = a.mean_ms / total;
            }
        }
        out
    }

    /// Convolve the operator distributions of one interval (`None` = pooled).
    fn compose(&self, thetas: &[ModelKey], interval: Option<usize>) -> Option<Distribution> {
        let mut acc: Option<Distribution> = None;
        for &key in thetas {
            let hist = match interval {
                Some(i) => self.models.lookup(i, key)?,
                None => self.models.lookup_overall(key)?,
            };
            let d = hist.to_distribution();
            acc = Some(match acc {
                None => d,
                Some(prev) => prev.convolve(&d),
            });
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_core::catalog::{Catalog, TableDef};
    use piql_core::opt::Optimizer;
    use piql_core::parser::parse_select;
    use piql_core::value::DataType;
    use piql_kv::MILLIS;

    fn compile_thoughtstream() -> Compiled {
        let mut cat = Catalog::new();
        cat.create_table(
            TableDef::builder("subscriptions")
                .column("owner", DataType::Varchar(32))
                .column("target", DataType::Varchar(32))
                .column("approved", DataType::Bool)
                .primary_key(&["owner", "target"])
                .cardinality_limit(100, &["owner"])
                .build(),
        )
        .unwrap();
        cat.create_table(
            TableDef::builder("thoughts")
                .column("owner", DataType::Varchar(32))
                .column("timestamp", DataType::Timestamp)
                .column("text", DataType::Varchar(140))
                .primary_key(&["owner", "timestamp"])
                .build(),
        )
        .unwrap();
        Optimizer::scale_independent()
            .compile(
                &cat,
                &parse_select(
                    "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
                     WHERE thoughts.owner = s.target AND s.owner = <u> \
                     ORDER BY thoughts.timestamp DESC LIMIT 10",
                )
                .unwrap(),
            )
            .unwrap()
    }

    #[test]
    fn thoughtstream_thetas_match_section_6_2() {
        // Q = Θ_IndexScan(SubscrCard, SubscrSize) ∗
        //     Θ_SortedJoin(SubscrCard, ThoughtsCard, ThoughtSize)
        let compiled = compile_thoughtstream();
        let thetas = plan_thetas(&compiled);
        assert_eq!(thetas.len(), 2);
        assert_eq!(thetas[0].op, OpKind::IndexScan);
        assert_eq!(thetas[0].alpha_c, 100);
        assert_eq!(thetas[1].op, OpKind::SortedIndexJoin);
        assert_eq!(thetas[1].alpha_c, 100);
        assert_eq!(thetas[1].alpha_j, 10);
    }

    #[test]
    fn prediction_composes_and_reports_risk() {
        let mut models = ModelStore::new(4);
        // interval 3 is "slow"
        for interval in 0..4 {
            let slow = if interval == 3 { 5 } else { 1 };
            for sample in 0..50u64 {
                let scan = ModelKey {
                    op: OpKind::IndexScan,
                    alpha_c: 100,
                    alpha_j: 1,
                    beta: 40,
                };
                let join = ModelKey {
                    op: OpKind::SortedIndexJoin,
                    alpha_c: 100,
                    alpha_j: 10,
                    beta: 160,
                };
                models.record(interval, scan, (10 + sample % 5) * slow * MILLIS);
                models.record(interval, join, (20 + sample % 7) * slow * MILLIS);
            }
        }
        let predictor = SloPredictor::new(models);
        let pred = predictor.predict(&compile_thoughtstream());
        assert_eq!(pred.p99_per_interval_ms.len(), 4);
        // normal intervals: ~14+26 ≈ 40ms p99; slow interval ≈ 5x
        assert!(pred.p99_per_interval_ms[0] < 50.0);
        assert!(pred.p99_per_interval_ms[3] > 150.0);
        assert_eq!(pred.max_p99_ms, pred.p99_per_interval_ms[3]);
        // SLO 100ms: 1 of 4 intervals violates
        assert!((pred.violation_risk(100.0) - 0.25).abs() < 1e-9);
        assert!(pred.meets_slo(100.0, 0.75));
        assert!(!pred.meets_slo(100.0, 0.9));
        assert!(pred.meets_slo(1_000.0, 1.0));
    }
    /// A prediction with `over` of `n` intervals at 30 ms and the rest at
    /// 10 ms.
    fn intervals(n: usize, over: usize) -> QueryPrediction {
        let p99s: Vec<f64> = (0..n).map(|i| if i < over { 30.0 } else { 10.0 }).collect();
        QueryPrediction {
            max_p99_ms: p99s.iter().cloned().fold(0.0, f64::max),
            p99_per_interval_ms: p99s,
            overall: Distribution::point(0),
        }
    }

    #[test]
    fn nine_of_ten_intervals_meet_at_the_default_confidence() {
        // parent: `violation_risk = 0.1 <= 1.0 - 0.9 = 0.09999999999999998`
        // is false — "tolerate 10% volatile intervals" tolerated none of ten
        let pred = intervals(10, 1);
        assert!((pred.violation_risk(20.0) - 0.1).abs() < 1e-12);
        assert!(pred.meets_slo(20.0, 0.9), "parent answered false");
        assert!(!intervals(10, 2).meets_slo(20.0, 0.9));
    }

    #[test]
    fn k_of_n_is_exact_and_the_quantile_is_the_number_compared() {
        for n in 1..=32usize {
            for k in 0..=n {
                let confidence = k as f64 / n as f64;
                let pred = intervals(n, n - k);
                assert!(
                    pred.meets_slo(20.0, confidence),
                    "{k} of {n} intervals meet, confidence {confidence}"
                );
                assert!(pred.p99_quantile_ms(confidence) <= 20.0, "{k}/{n}");
                if k > 0 {
                    let worse = intervals(n, n - k + 1);
                    assert!(
                        !worse.meets_slo(20.0, confidence),
                        "{} of {n} intervals meet, confidence {confidence}",
                        k - 1
                    );
                    assert_eq!(worse.p99_quantile_ms(confidence), 30.0, "{k}/{n}");
                    assert_eq!(pred.p99_quantile_ms(confidence), 10.0, "{k}/{n}");
                }
            }
        }
        assert_eq!(intervals(4, 4).p99_quantile_ms(1.0), 30.0, "1.0 is the max");
        assert_eq!(intervals(0, 0).p99_quantile_ms(0.9), 0.0, "no intervals");
    }
}
