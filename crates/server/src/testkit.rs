//! Deterministic model stores for harnesses.
//!
//! A real deployment trains the §6.1 operator models by observing its
//! store (see `piql_predict::train`). Tests, examples, and benches need
//! something faster and fully predictable, so this module hands out the
//! fabricated [`ModelStore::linear`] lattice: an operator touching `r` rows
//! is recorded as `base_us + per_row_us * r` (with a small spread so the
//! histograms are not degenerate). The resulting admission decisions are
//! then exact functions of a query's compiled bounds — which is the
//! property the success-tolerance tests pin down.

use piql_predict::advisor::SloConfig;
use piql_predict::{ModelStore, SloPredictor};

/// Build a [`SloPredictor`] whose predicted latency for an operator
/// touching `r` rows is `base_us + per_row_us * r` microseconds (±25%
/// histogram spread), identical across `intervals` intervals.
pub fn linear_predictor(base_us: u64, per_row_us: u64, intervals: usize) -> SloPredictor {
    SloPredictor::new(linear_model_store(base_us, per_row_us, intervals))
}

/// An SLO every statement meets, so none is degraded or refused for its
/// predicted latency: for harnesses that test something else.
pub fn permissive_slo() -> SloConfig {
    SloConfig {
        slo_ms: 1e9,
        interval_confidence: 1.0,
        allow_degrade: false,
    }
}

/// The underlying store of [`linear_predictor`].
pub fn linear_model_store(base_us: u64, per_row_us: u64, intervals: usize) -> ModelStore {
    ModelStore::linear(base_us, per_row_us, intervals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_predict::OpKind;

    #[test]
    fn fabricated_store_scales_linearly_with_rows() {
        let store = linear_model_store(200, 100, 2);
        let h = |alpha_c: u32, alpha_j: u32, op| {
            store
                .lookup(
                    0,
                    piql_predict::ModelKey {
                        op,
                        alpha_c,
                        alpha_j,
                        beta: 40,
                    },
                )
                .expect("key present")
                .to_distribution()
                .quantile_ms(0.99)
        };
        let small = h(10, 1, OpKind::IndexScan);
        let large = h(100, 1, OpKind::IndexScan);
        assert!(large > small * 5.0, "{large} vs {small}");
        let join = h(100, 10, OpKind::SortedIndexJoin);
        assert!(join > large * 5.0, "{join} vs {large}");
    }
}
