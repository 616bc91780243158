//! The operator model store: per-(operator, α, β) histograms, collected per
//! SLO interval (§6.1, Figure 5(a)).

use crate::histogram::LatencyHistogram;
use piql_kv::Micros;
use std::collections::BTreeMap;

/// The three remote operators the model covers (§6.1 ignores local
/// operators: key/value-store latency dominates interactive queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Θ(α, β): one bounded range read of α entries of β bytes.
    IndexScan,
    /// Θ(αc, β): αc parallel primary-key gets.
    IndexFKJoin,
    /// Θ(αc, αj, β): αc parallel bounded range reads of αj entries each.
    SortedIndexJoin,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::IndexScan => "IndexScan",
            OpKind::IndexFKJoin => "IndexFKJoin",
            OpKind::SortedIndexJoin => "SortedIndexJoin",
        }
    }

    /// Map the storage layer's live-sample vocabulary onto the model's.
    pub fn from_live(op: piql_kv::LiveOpKind) -> OpKind {
        match op {
            piql_kv::LiveOpKind::IndexScan => OpKind::IndexScan,
            piql_kv::LiveOpKind::IndexFKJoin => OpKind::IndexFKJoin,
            piql_kv::LiveOpKind::SortedIndexJoin => OpKind::SortedIndexJoin,
        }
    }
}

/// A model grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelKey {
    pub op: OpKind,
    /// Child-side cardinality (scan: the limit hint; joins: child tuples).
    pub alpha_c: u32,
    /// Per-key fan-out (1 except SortedIndexJoin).
    pub alpha_j: u32,
    /// Tuple size in bytes.
    pub beta: u32,
}

/// Default training grids (the paper pre-computes histograms for a lattice
/// of α and β values and looks up the closest while still larger, §6.1).
pub const ALPHA_GRID: &[u32] = &[
    1, 2, 5, 10, 25, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500,
];
pub const BETA_GRID: &[u32] = &[40, 160, 640, 2560];

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

impl ModelKey {
    /// Snap to the training lattice (ceil in every parameter — the same
    /// rounding lookups use, so recorded live samples and later lookups
    /// meet at the same grid point).
    pub fn snapped(self) -> ModelKey {
        ModelKey {
            op: self.op,
            alpha_c: grid_ceil(ALPHA_GRID, self.alpha_c as u64),
            alpha_j: grid_ceil(ALPHA_GRID, self.alpha_j as u64),
            beta: grid_ceil(BETA_GRID, self.beta as u64),
        }
    }

    /// The grid point a live operator sample belongs to.
    pub fn from_tag(tag: &piql_kv::OpTag) -> ModelKey {
        ModelKey {
            op: OpKind::from_live(tag.op),
            alpha_c: tag.alpha_c,
            alpha_j: tag.alpha_j,
            beta: tag.beta,
        }
        .snapped()
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
        let snapped = key.snapped();
        if let Some(h) = map.get(&snapped) {
            return Some(h);
        }
        // fall back to the nearest stored key with same op and params >= snapped
        map.iter()
            .find(|(k, _)| {
                k.op == key.op
                    && k.alpha_c >= snapped.alpha_c.min(*ALPHA_GRID.last().unwrap())
                    && k.alpha_j >= snapped.alpha_j.min(*ALPHA_GRID.last().unwrap())
            })
            .map(|(_, h)| h)
            // nothing stored is as large as the plan: saturate at the most
            // expensive trained point of the operator (an extrapolation,
            // but never a cheaper answer than any smaller plan gets)
            .or_else(|| {
                map.iter()
                    .filter(|(k, _)| k.op == key.op)
                    .max_by_key(|(k, _)| (u64::from(k.alpha_c) * u64::from(k.alpha_j), k.beta))
                    .map(|(_, h)| h)
            })
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
}
