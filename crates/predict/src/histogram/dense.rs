//! The dense histogram this crate shipped before histograms went sparse —
//! one `u64` per millisecond of range — kept as the oracle the sparse one
//! is checked against, the way `piql_engine::reference` is kept for the
//! executors. Test-only: it is the 32 KB-per-histogram representation the
//! sparse one exists to replace.

use super::{Distribution, LatencyHistogram, BIN_US};
use piql_kv::Micros;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
struct DenseHistogram {
    bins: Vec<u64>,
    count: u64,
}

impl DenseHistogram {
    fn new(max_ms: usize) -> Self {
        DenseHistogram {
            bins: vec![0; max_ms + 1],
            count: 0,
        }
    }

    fn record(&mut self, latency: Micros) {
        let bin = ((latency / BIN_US) as usize).min(self.bins.len() - 1);
        self.bins[bin] += 1;
        self.count += 1;
    }

    fn merge(&mut self, other: &DenseHistogram) {
        let last = self.bins.len() - 1;
        for (i, &c) in other.bins.iter().enumerate() {
            self.bins[i.min(last)] += c;
        }
        self.count += other.count;
    }

    fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return (i + 1) as f64;
            }
        }
        self.bins.len() as f64
    }

    fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let sum: f64 = (self.bins.iter().enumerate())
            .map(|(i, &c)| (i as f64 + 0.5) * c as f64)
            .sum();
        sum / self.count as f64
    }

    fn nonzero_bins(&self) -> Vec<(u32, u64)> {
        (self.bins.iter().enumerate())
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    fn from_sparse(bins: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut h = Self::new(4_000);
        let last = h.bins.len() - 1;
        for (bin, count) in bins {
            h.bins[(bin as usize).min(last)] += count;
            h.count += count;
        }
        h
    }

    fn to_distribution(&self) -> Distribution {
        if self.count == 0 {
            return Distribution::from_pmf(vec![(0, 1.0)]);
        }
        Distribution::from_pmf(
            (self.bins.iter().enumerate())
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c as f64 / self.count as f64))
                .collect(),
        )
    }
}

/// Every answer `sparse` gives equals the oracle's, bit for bit.
fn agree(sparse: &LatencyHistogram, dense: &DenseHistogram, what: &str) {
    assert_eq!(sparse.count(), dense.count, "{what}: count");
    for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(sparse.quantile_ms(q), dense.quantile_ms(q), "{what}: q{q}");
    }
    assert_eq!(
        sparse.mean_ms().to_bits(),
        dense.mean_ms().to_bits(),
        "{what}: mean"
    );
    assert_eq!(sparse.nonzero_bins(), dense.nonzero_bins(), "{what}: bins");
    assert_eq!(
        sparse.to_distribution(),
        dense.to_distribution(),
        "{what}: distribution"
    );
    let revived = LatencyHistogram::from_sparse(sparse.nonzero_bins().iter().copied());
    let dense_revived = DenseHistogram::from_sparse(dense.nonzero_bins());
    assert_eq!(
        revived.nonzero_bins(),
        dense_revived.nonzero_bins(),
        "{what}"
    );
    assert_eq!(revived.count(), dense_revived.count, "{what}: round trip");
}

/// A histogram pair over `max_ms` fed the same random latencies: mostly
/// within range, some far beyond it and beyond the standard 4 s.
fn drawn(rng: &mut StdRng, max_ms: usize) -> (LatencyHistogram, DenseHistogram) {
    let mut sparse = LatencyHistogram::new(max_ms);
    let mut dense = DenseHistogram::new(max_ms);
    for _ in 0..rng.gen_range(0..40) {
        let us = if rng.gen_bool(0.15) {
            rng.gen_range(0..8_000_000u64)
        } else {
            rng.gen_range(0..(max_ms as u64 + 1) * BIN_US)
        };
        sparse.record(us);
        dense.record(us);
    }
    (sparse, dense)
}

#[test]
fn sparse_histograms_answer_what_the_dense_oracle_answers() {
    let mut rng = StdRng::seed_from_u64(0x5ea5_0b1d);
    for case in 0..300 {
        let mut max_ms = || match rng.gen_range(0..3) {
            0 => 4_000,
            1 => rng.gen_range(0..50usize),
            _ => rng.gen_range(0..6_000usize),
        };
        let (a_max, b_max) = (max_ms(), max_ms());
        let (mut a, mut dense_a) = drawn(&mut rng, a_max);
        let (b, dense_b) = drawn(&mut rng, b_max);
        agree(&a, &dense_a, &format!("case {case}: a over {a_max} ms"));
        agree(&b, &dense_b, &format!("case {case}: b over {b_max} ms"));
        assert_eq!(
            a.convolve(&b),
            (dense_a.to_distribution()).convolve(&dense_b.to_distribution()),
            "case {case}: convolve"
        );

        // a merge across different ranges clamps into the overflow bin
        a.merge(&b);
        dense_a.merge(&dense_b);
        agree(&a, &dense_a, &format!("case {case}: b merged into a"));
        if a_max == 4_000 {
            assert_eq!(
                LatencyHistogram::from_sparse(a.nonzero_bins().iter().copied()),
                a,
                "case {case}: a standard histogram is its durable form"
            );
        }

        // durable input in any order, with repeated and out-of-range bins
        let pairs: Vec<(u32, u64)> = (0..rng.gen_range(0..20))
            .map(|_| (rng.gen_range(0..4_200u32), rng.gen_range(0..4u64)))
            .collect();
        agree(
            &LatencyHistogram::from_sparse(pairs.iter().copied()),
            &DenseHistogram::from_sparse(pairs.iter().copied()),
            &format!("case {case}: from_sparse({pairs:?})"),
        );
    }
}
