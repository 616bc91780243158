//! Synthetic model snapshots for offline audits.
//!
//! The CLI audits a workload without touching storage, so it cannot train
//! the §6.1 operator models from live observation. Instead it fabricates a
//! [`ModelStore`] from a linear cost model — an operator touching `r` rows
//! costs `base_us + per_row_us * r` microseconds (±25% spread so the
//! histograms are not degenerate) — the same [`ModelStore::linear`] lattice
//! the server's test harnesses use. A real deployment would instead point
//! the auditor at an exported snapshot of its live store.

use piql_predict::ModelStore;

/// Parameters of the synthetic linear cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearModelSpec {
    /// Fixed per-operator cost, microseconds.
    pub base_us: u64,
    /// Marginal cost per row touched, microseconds.
    pub per_row_us: u64,
    /// Number of SLO intervals to fabricate.
    pub intervals: usize,
}

impl Default for LinearModelSpec {
    fn default() -> Self {
        LinearModelSpec {
            base_us: 200,
            per_row_us: 100,
            intervals: 4,
        }
    }
}

impl LinearModelSpec {
    /// Parse a `linear:<base_us>,<per_row_us>[,<intervals>]` spec string.
    pub fn parse(spec: &str) -> Result<LinearModelSpec, String> {
        let rest = spec
            .strip_prefix("linear:")
            .ok_or_else(|| format!("unknown model spec `{spec}` (expected `linear:...`)"))?;
        let parts: Vec<&str> = rest.split(',').collect();
        if parts.len() < 2 || parts.len() > 3 {
            return Err(format!(
                "model spec `{spec}` must be `linear:<base_us>,<per_row_us>[,<intervals>]`"
            ));
        }
        let num = |s: &str| -> Result<u64, String> {
            s.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad number `{s}` in model spec `{spec}`"))
        };
        let intervals = match parts.get(2) {
            Some(p) => num(p)?.clamp(1, 64) as usize,
            None => 4,
        };
        Ok(LinearModelSpec {
            base_us: num(parts[0])?,
            per_row_us: num(parts[1])?,
            intervals,
        })
    }

    /// Fabricate the store ([`ModelStore::linear`]).
    pub fn build(&self) -> ModelStore {
        ModelStore::linear(self.base_us, self.per_row_us, self.intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_predict::{ModelKey, OpKind};

    #[test]
    fn parse_accepts_defaults_and_rejects_junk() {
        let spec = LinearModelSpec::parse("linear:200,100").unwrap();
        assert_eq!(spec.base_us, 200);
        assert_eq!(spec.per_row_us, 100);
        assert_eq!(spec.intervals, 4);
        assert_eq!(
            LinearModelSpec::parse("linear:10,2,8").unwrap().intervals,
            8
        );
        assert!(LinearModelSpec::parse("quadratic:1,2").is_err());
        assert!(LinearModelSpec::parse("linear:1").is_err());
        assert!(LinearModelSpec::parse("linear:a,b").is_err());
    }

    #[test]
    fn fabricated_store_scales_with_rows() {
        let store = LinearModelSpec::default().build();
        let p99 = |alpha_c: u32, alpha_j: u32, op| {
            store
                .lookup_overall(ModelKey {
                    op,
                    alpha_c,
                    alpha_j,
                    beta: 40,
                })
                .expect("key present")
                .to_distribution()
                .quantile_ms(0.99)
        };
        assert!(p99(100, 1, OpKind::IndexScan) > 5.0 * p99(10, 1, OpKind::IndexScan));
        assert!(
            p99(100, 10, OpKind::SortedIndexJoin) > 5.0 * p99(100, 1, OpKind::IndexScan),
            "fan-out multiplies cost"
        );
    }
}
