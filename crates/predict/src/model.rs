//! The operator model store: per-(operator, α, β) histograms, collected per
//! SLO interval (§6.1, Figure 5(a)).

use crate::histogram::LatencyHistogram;
use piql_kv::Micros;
pub use piql_kv::{ModelKey, OpKind};
use std::collections::BTreeMap;

/// Default training grids (the paper pre-computes histograms for a lattice
/// of α and β values and looks up the closest while still larger, §6.1).
pub const ALPHA_GRID: &[u32] = &[
    1, 2, 5, 10, 25, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500,
];
pub const BETA_GRID: &[u32] = &[40, 160, 640, 2560];

/// α_j values [`ModelStore::linear`] fabricates for SortedIndexJoin keys; a
/// subset of [`ALPHA_GRID`] so ceil-lookups land on exact entries.
const ALPHA_J_GRID: &[u32] = &[1, 5, 10, 25, 50];

/// Smallest grid value ≥ x (saturating at the top, which keeps predictions
/// conservative for in-range values and best-effort beyond).
pub fn grid_ceil(grid: &[u32], x: u64) -> u32 {
    for &g in grid {
        if x <= g as u64 {
            return g;
        }
    }
    *grid.last().expect("nonempty grid")
}

/// Snap to the training lattice (ceil in every parameter — the same
/// rounding lookups use, so recorded live samples and later lookups meet at
/// the same grid point).
pub fn snapped(key: ModelKey) -> ModelKey {
    ModelKey {
        op: key.op,
        alpha_c: grid_ceil(ALPHA_GRID, key.alpha_c as u64),
        alpha_j: grid_ceil(ALPHA_GRID, key.alpha_j as u64),
        beta: grid_ceil(BETA_GRID, key.beta as u64),
    }
}

/// The trained model store: per interval, per key, one histogram.
#[derive(Debug, Clone, Default)]
pub struct ModelStore {
    /// `intervals[i][key]` = histogram observed during interval i.
    intervals: Vec<BTreeMap<ModelKey, LatencyHistogram>>,
    /// Aggregate over all intervals.
    overall: BTreeMap<ModelKey, LatencyHistogram>,
}

impl ModelStore {
    pub fn new(n_intervals: usize) -> Self {
        ModelStore {
            intervals: vec![BTreeMap::new(); n_intervals],
            overall: BTreeMap::new(),
        }
    }

    pub fn n_intervals(&self) -> usize {
        self.intervals.len()
    }

    pub fn record(&mut self, interval: usize, key: ModelKey, latency: Micros) {
        if let Some(m) = self.intervals.get_mut(interval) {
            m.entry(key)
                .or_insert_with(LatencyHistogram::standard)
                .record(latency);
        }
        self.overall
            .entry(key)
            .or_insert_with(LatencyHistogram::standard)
            .record(latency);
    }

    /// The histogram for `key` during `interval`, with ceil lookup in both
    /// α and β (choose the closest stored setting that is still larger —
    /// overestimating, never under, §6.1).
    pub fn lookup(&self, interval: usize, key: ModelKey) -> Option<&LatencyHistogram> {
        let map = self.intervals.get(interval)?;
        Self::lookup_in(map, key)
    }

    /// Aggregate histogram over all intervals.
    pub fn lookup_overall(&self, key: ModelKey) -> Option<&LatencyHistogram> {
        Self::lookup_in(&self.overall, key)
    }

    fn lookup_in(
        map: &BTreeMap<ModelKey, LatencyHistogram>,
        key: ModelKey,
    ) -> Option<&LatencyHistogram> {
        let at = snapped(key);
        if let Some(h) = map.get(&at) {
            return Some(h);
        }
        let stored = || map.iter().filter(|(k, _)| k.op == key.op);
        let coords = |k: &ModelKey| [k.alpha_c, k.alpha_j, k.beta];
        let covers = |big: [u32; 3], small: [u32; 3]| big.iter().zip(small).all(|(b, s)| *b >= s);
        // never under: the dearest of the nearest stored point at or above
        // the lattice point in every parameter — or, where nothing covers
        // it, the largest trained point of the operator (an extrapolation)
        // — and of every stored point the plan dominates: a sparse store
        // need not be monotone, and a larger plan never gets a cheaper
        // answer than a smaller one the store has seen
        let above = stored()
            .find(|(k, _)| covers(coords(k), coords(&at)))
            .or_else(|| {
                stored().max_by_key(|(k, _)| (u64::from(k.alpha_c) * u64::from(k.alpha_j), k.beta))
            });
        let reach = [
            key.alpha_c.max(at.alpha_c),
            key.alpha_j.max(at.alpha_j),
            key.beta.max(at.beta),
        ];
        stored()
            .filter(|(k, _)| covers(reach, coords(k)))
            .chain(above)
            .map(|(_, h)| (h.quantile_ms(0.99), h))
            .max_by(|(a, _), (b, _)| a.total_cmp(b))
            .map(|(_, h)| h)
    }

    /// A copy of this store with `newest` appended as the most recent
    /// interval. The interval count stays fixed: the oldest interval is
    /// rotated out (a ring over time), so after enough rotations the
    /// store reflects only live observations. The aggregate is recomputed
    /// from the surviving intervals so rotated-out history stops
    /// influencing pooled predictions too.
    pub fn rotated(&self, newest: BTreeMap<ModelKey, LatencyHistogram>) -> ModelStore {
        let mut intervals: Vec<BTreeMap<ModelKey, LatencyHistogram>> = self
            .intervals
            .iter()
            .skip(usize::from(!self.intervals.is_empty()))
            .cloned()
            .collect();
        intervals.push(newest);
        ModelStore::from_intervals(intervals)
    }

    /// This store after [`ModelStore::rotated`] with each of `newest` in
    /// turn, oldest first: the intervals move in, and the aggregate is
    /// built once, over the ones that survive.
    pub fn rotated_by(self, newest: Vec<BTreeMap<ModelKey, LatencyHistogram>>) -> ModelStore {
        let keep = self.intervals.len().max(1);
        let mut intervals = self.intervals;
        intervals.extend(newest);
        intervals.drain(..intervals.len().saturating_sub(keep));
        ModelStore::from_intervals(intervals)
    }

    /// The per-interval histogram maps, oldest first — the durable form of
    /// the store (the aggregate is derived, so it is not exported).
    pub fn interval_maps(&self) -> &[BTreeMap<ModelKey, LatencyHistogram>] {
        &self.intervals
    }

    /// Rebuild a store from exported interval maps (recovery). The
    /// aggregate is recomputed, so
    /// `ModelStore::from_intervals(s.interval_maps().to_vec())` predicts
    /// identically to `s`.
    pub fn from_intervals(intervals: Vec<BTreeMap<ModelKey, LatencyHistogram>>) -> ModelStore {
        let mut overall: BTreeMap<ModelKey, LatencyHistogram> = BTreeMap::new();
        for interval in &intervals {
            for (key, hist) in interval {
                overall
                    .entry(*key)
                    .or_insert_with(LatencyHistogram::standard)
                    .merge(hist);
            }
        }
        ModelStore { intervals, overall }
    }

    /// A fabricated store over the whole training lattice from a linear
    /// cost model: an operator touching `r = α_c·α_j` rows is recorded at
    /// `base_us + per_row_us * r` microseconds (+10% and +25% beside it, so
    /// the histograms are not degenerate), identically in every interval.
    /// Predictions over it are exact functions of a plan's bounds — what
    /// the offline auditor and the server's harnesses both stand on.
    pub fn linear(base_us: u64, per_row_us: u64, intervals: usize) -> ModelStore {
        let mut store = ModelStore::new(intervals);
        for interval in 0..intervals {
            for &beta in BETA_GRID {
                for &alpha_c in ALPHA_GRID {
                    for (op, alpha_js) in [
                        (OpKind::IndexScan, &[1u32][..]),
                        (OpKind::IndexFKJoin, &[1u32][..]),
                        (OpKind::SortedIndexJoin, ALPHA_J_GRID),
                    ] {
                        for &alpha_j in alpha_js {
                            let key = ModelKey {
                                op,
                                alpha_c,
                                alpha_j,
                                beta,
                            };
                            let rows = alpha_c as u64 * alpha_j as u64;
                            let us = base_us + per_row_us * rows;
                            store.record(interval, key, us);
                            store.record(interval, key, us + us / 10);
                            store.record(interval, key, us + us / 4);
                        }
                    }
                }
            }
        }
        store
    }

    /// Total recorded samples (sanity checks / reporting).
    pub fn total_samples(&self) -> u64 {
        self.overall.values().map(|h| h.count()).sum()
    }

    /// All trained keys (reporting).
    pub fn keys(&self) -> Vec<ModelKey> {
        self.overall.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_kv::MILLIS;

    #[test]
    fn rotating_by_many_is_rotating_by_each() {
        let interval = |ms: u64| {
            let mut h = LatencyHistogram::standard();
            h.record(ms * MILLIS);
            let key = ModelKey {
                op: OpKind::IndexScan,
                alpha_c: 10,
                alpha_j: 1,
                beta: 40,
            };
            BTreeMap::from([(key, h)])
        };
        for n in [0, 1, 3] {
            let newest: Vec<_> = (1..=5).map(interval).collect();
            let one_by_one =
                (newest.iter().cloned()).fold(ModelStore::new(n), |store, i| store.rotated(i));
            let at_once = ModelStore::new(n).rotated_by(newest);
            assert_eq!(
                at_once.interval_maps(),
                one_by_one.interval_maps(),
                "{n} intervals"
            );
        }
    }

    #[test]
    fn grid_ceil_snaps_up() {
        assert_eq!(grid_ceil(ALPHA_GRID, 1), 1);
        assert_eq!(grid_ceil(ALPHA_GRID, 3), 5);
        assert_eq!(grid_ceil(ALPHA_GRID, 100), 100);
        assert_eq!(grid_ceil(ALPHA_GRID, 101), 150);
        assert_eq!(grid_ceil(ALPHA_GRID, 9_999), 500, "saturates");
    }

    #[test]
    fn record_and_lookup_with_ceil() {
        let mut store = ModelStore::new(2);
        let key = ModelKey {
            op: OpKind::IndexScan,
            alpha_c: 100,
            alpha_j: 1,
            beta: 40,
        };
        for i in 0..10 {
            store.record(0, key, (10 + i) * MILLIS);
        }
        // querying α=64 snaps up to the α=100 histogram
        let q = ModelKey {
            op: OpKind::IndexScan,
            alpha_c: 64,
            alpha_j: 1,
            beta: 33,
        };
        let h = store.lookup(0, q).expect("found via ceil");
        assert_eq!(h.count(), 10);
        assert!(store.lookup(1, q).is_none(), "other interval untouched");
        assert_eq!(store.lookup_overall(q).unwrap().count(), 10);
        assert_eq!(store.total_samples(), 10);
    }

    #[test]
    fn a_wider_tuple_is_never_predicted_below_a_narrower_plan_the_store_has_seen() {
        // what rotation leaves behind: two scans observed, at different
        // tuple sizes — neither is the lattice point of 100 rows of 2,560 B
        let mut store = ModelStore::new(1);
        let scan = |alpha_c, beta| ModelKey {
            op: OpKind::IndexScan,
            alpha_c,
            alpha_j: 1,
            beta,
        };
        store.record(0, scan(100, 40), 2 * MILLIS);
        store.record(0, scan(50, 2560), 80 * MILLIS);
        let p99 = |key| {
            store
                .lookup(0, key)
                .expect("op is trained")
                .quantile_ms(0.99)
        };
        assert_eq!(p99(scan(50, 2560)), 81.0, "an exact hit is its own answer");
        assert_eq!(p99(scan(100, 40)), 3.0);
        // twice the rows of the 81 ms observation, at the same width
        assert_eq!(p99(scan(100, 2560)), 81.0, "not the β = 40 histogram");
        // a stored point the plan does not dominate does not raise it
        assert_eq!(p99(scan(64, 160)), 3.0);
    }

    #[test]
    fn beyond_the_lattice_falls_back_to_the_dearest_trained_point() {
        // a store that has only seen small joins (the normal state of a
        // live store after rotation) must not answer a larger plan with
        // the cheapest histogram it holds
        let mut store = ModelStore::new(1);
        let join = |alpha_c, alpha_j| ModelKey {
            op: OpKind::SortedIndexJoin,
            alpha_c,
            alpha_j,
            beta: 40,
        };
        store.record(0, join(1, 1), MILLIS);
        store.record(0, join(100, 10), 100 * MILLIS);
        store.record(0, join(100, 50), 500 * MILLIS);
        store.record(0, join(10, 50), 50 * MILLIS);
        for beyond in [join(100, 51), join(500, 500), join(u32::MAX, u32::MAX)] {
            let p99 = |key| {
                let h: &LatencyHistogram = store.lookup(0, key).expect("op is trained");
                h.to_distribution().quantile_ms(0.99)
            };
            assert_eq!(p99(beyond), p99(join(100, 50)), "{beyond:?}");
        }
    }

    #[test]
    fn an_uncovered_plan_that_dominates_a_cheap_point_still_gets_the_largest_trained_one() {
        let p99 = |store: &ModelStore, key| {
            store
                .lookup(0, key)
                .expect("op is trained")
                .quantile_ms(0.99)
        };
        let join = |alpha_c, alpha_j, beta| ModelKey {
            op: OpKind::SortedIndexJoin,
            alpha_c,
            alpha_j,
            beta,
        };
        // the sparse store of the test above: (10, 51) dominates (10, 50)
        // at 51 ms and nothing covers it — the 500 ms point answers, not
        // the dominated one
        let mut sparse = ModelStore::new(1);
        sparse.record(0, join(1, 1, 40), MILLIS);
        sparse.record(0, join(100, 10, 40), 100 * MILLIS);
        sparse.record(0, join(100, 50, 40), 500 * MILLIS);
        sparse.record(0, join(10, 50, 40), 50 * MILLIS);
        assert_eq!(
            p99(&sparse, join(10, 51, 40)),
            p99(&sparse, join(100, 50, 40))
        );
        // the full fabricated lattice stops at α_j = 50: a join of 51..=100
        // rows per key snaps to α_j = 100, which is not stored, and must not
        // be priced as the 50-per-key join it dominates
        let lattice = ModelStore::linear(200, 100, 1);
        let top = p99(&lattice, join(500, 50, 2560));
        for per_key in [51, 100] {
            assert_eq!(p99(&lattice, join(10, per_key, 40)), top, "{per_key}");
            assert!(p99(&lattice, join(10, per_key, 40)) > p99(&lattice, join(10, 50, 40)));
        }
    }
}
