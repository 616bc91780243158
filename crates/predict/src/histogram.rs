//! Latency histograms — the representation of the paper's operator random
//! variables Θ (§6.1).
//!
//! Millisecond resolution is enough for interactive SLOs, so a histogram is
//! ~a few thousand u32 bins ("a kilobyte or two", §6.1). Serial plan
//! composition convolves probability masses (§6.2: summing independent
//! random variables).

use piql_kv::{Micros, MILLIS};

/// Bin width: 1 ms.
const BIN_US: u64 = MILLIS;

/// A latency distribution in 1 ms bins with an overflow bin at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    bins: Vec<u64>,
    count: u64,
}

impl LatencyHistogram {
    /// `max_ms` is the largest representable latency; anything above lands
    /// in the overflow bin.
    pub fn new(max_ms: usize) -> Self {
        LatencyHistogram {
            bins: vec![0; max_ms + 1],
            count: 0,
        }
    }

    /// Default range: 0..4 s, plenty for sub-second SLOs.
    pub fn standard() -> Self {
        Self::new(4_000)
    }

    pub fn record(&mut self, latency: Micros) {
        let bin = ((latency / BIN_US) as usize).min(self.bins.len() - 1);
        self.bins[bin] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold `other`'s mass into this histogram (used when rotating live
    /// intervals into an aggregate). Bins beyond this histogram's range
    /// land in its overflow bin, preserving the conservative tail.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        let last = self.bins.len() - 1;
        for (i, &c) in other.bins.iter().enumerate() {
            self.bins[i.min(last)] += c;
        }
        self.count += other.count;
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The q-quantile (0..=1) in milliseconds (bin upper edge).
    pub fn quantile_ms(&self, q: f64) -> f64 {
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

    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 + 0.5) * c as f64)
            .sum();
        sum / self.count as f64
    }

    /// Sparse export for durability: ascending `(bin, count)` pairs for
    /// every nonzero bin. Round-trips through [`Self::from_sparse`].
    pub fn nonzero_bins(&self) -> Vec<(u32, u64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// Rebuild a standard-range histogram from [`Self::nonzero_bins`]
    /// output. Bins beyond the standard range fold into the overflow bin
    /// (same conservative tail as [`Self::merge`]).
    pub fn from_sparse(bins: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut h = Self::standard();
        let last = h.bins.len() - 1;
        for (bin, count) in bins {
            h.bins[(bin as usize).min(last)] += count;
            h.count += count;
        }
        h
    }

    /// Probability mass function over bins (sparse: only nonzero entries).
    fn pmf(&self) -> Vec<(usize, f64)> {
        if self.count == 0 {
            return vec![(0, 1.0)];
        }
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c as f64 / self.count as f64))
            .collect()
    }

    /// Distribution of the *sum* of two independent latencies (§6.2's
    /// convolution of operator densities).
    pub fn convolve(&self, other: &LatencyHistogram) -> Distribution {
        Distribution::from_pmf(self.pmf()).convolve(&Distribution::from_pmf(other.pmf()))
    }

    /// Continuous view for further composition.
    pub fn to_distribution(&self) -> Distribution {
        Distribution::from_pmf(self.pmf())
    }
}

/// A normalized latency distribution over 1 ms bins (the result of
/// composing operator histograms).
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    /// Sparse ascending (bin, probability) pairs.
    pmf: Vec<(usize, f64)>,
}

impl Distribution {
    pub fn point(ms: usize) -> Self {
        Distribution {
            pmf: vec![(ms, 1.0)],
        }
    }

    fn from_pmf(pmf: Vec<(usize, f64)>) -> Self {
        Distribution { pmf }
    }

    /// Sum of independent variables: PMF convolution. The support is
    /// re-compacted to at most `MAX_SUPPORT` bins to keep long chains cheap.
    pub fn convolve(&self, other: &Distribution) -> Distribution {
        const MAX_SUPPORT: usize = 4_096;
        let mut acc: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for &(a, pa) in &self.pmf {
            for &(b, pb) in &other.pmf {
                *acc.entry(a + b).or_insert(0.0) += pa * pb;
            }
        }
        let mut pmf: Vec<(usize, f64)> = acc.into_iter().collect();
        if pmf.len() > MAX_SUPPORT {
            // merge adjacent bins pairwise until within budget
            while pmf.len() > MAX_SUPPORT {
                pmf = pmf
                    .chunks(2)
                    .map(|c| {
                        if c.len() == 2 {
                            (c[1].0, c[0].1 + c[1].1)
                        } else {
                            c[0]
                        }
                    })
                    .collect();
            }
        }
        Distribution { pmf }
    }

    /// The q-quantile in ms.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let mut acc = 0.0;
        for &(b, p) in &self.pmf {
            acc += p;
            if acc + 1e-12 >= q {
                return (b + 1) as f64;
            }
        }
        self.pmf.last().map(|&(b, _)| (b + 1) as f64).unwrap_or(0.0)
    }

    pub fn mean_ms(&self) -> f64 {
        self.pmf.iter().map(|&(b, p)| (b as f64 + 0.5) * p).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples_ms: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::standard();
        for &s in samples_ms {
            h.record(s * MILLIS);
        }
        h
    }

    #[test]
    fn quantiles_of_simple_data() {
        let h = hist(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(h.quantile_ms(0.5), 6.0); // bin upper edge
        assert_eq!(h.quantile_ms(1.0), 11.0);
        assert_eq!(h.count(), 10);
        assert!((h.mean_ms() - 6.0).abs() < 0.6);
    }

    #[test]
    fn overflow_bin_catches_outliers() {
        let mut h = LatencyHistogram::new(10);
        h.record(3 * MILLIS);
        h.record(100 * MILLIS);
        assert_eq!(h.quantile_ms(1.0), 11.0);
    }

    #[test]
    fn convolution_shifts_support() {
        let a = hist(&[10]);
        let b = hist(&[5]);
        let d = a.convolve(&b);
        assert_eq!(d.quantile_ms(0.5), 16.0);
        // sum of uniform{1,3} and uniform{2,4} spans 3..7
        let d2 = hist(&[1, 3]).convolve(&hist(&[2, 4]));
        assert!(d2.quantile_ms(0.01) >= 3.0);
        assert!(d2.quantile_ms(1.0) <= 8.0);
        assert!((d2.mean_ms() - 5.0).abs() < 1.1);
    }

    #[test]
    fn empty_histogram_behaves() {
        let h = LatencyHistogram::standard();
        assert_eq!(h.quantile_ms(0.99), 0.0);
        let d = h.to_distribution();
        assert_eq!(d.quantile_ms(0.99), 1.0, "degenerate point at zero bin");
    }

    #[test]
    fn long_chain_convolution_stays_bounded() {
        let h = hist(&[3, 5, 8, 13, 21, 34]);
        let mut d = h.to_distribution();
        for _ in 0..6 {
            d = d.convolve(&h.to_distribution());
        }
        // 7 ops, each 3..34ms -> support within 21..238ms
        assert!(d.quantile_ms(0.001) >= 21.0);
        assert!(d.quantile_ms(1.0) <= 240.0);
    }
}
