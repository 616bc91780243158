//! Latency histograms — the representation of the paper's operator random
//! variables Θ (§6.1).
//!
//! Millisecond resolution is enough for interactive SLOs. A histogram holds
//! only its nonzero bins, as ascending `(bin, count)` pairs: it costs a
//! 40-byte header plus 16 bytes per distinct millisecond it has observed,
//! whatever its range. A lattice point of three samples is one allocation
//! of at most 64 bytes, where a dense 0..4 s bin vector was 32 KB; even a
//! live histogram spread over a hundred bins stays within the "kilobyte or
//! two" §6.1 promises, and a model store's size is its nonzero bins. The
//! same pairs are the durable form ([`LatencyHistogram::nonzero_bins`]).
//! Serial plan composition convolves probability masses (§6.2: summing
//! independent random variables).

use piql_kv::{Micros, MILLIS};

/// Bin width: 1 ms.
const BIN_US: u64 = MILLIS;

/// A latency distribution in 1 ms bins with an overflow bin at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Ascending `(bin, count)` pairs, one per nonzero bin, none above
    /// `overflow`.
    bins: Vec<(u32, u64)>,
    /// Samples held, saturating at `u64::MAX`.
    count: u64,
    /// The last bin (`max_ms`): every slower latency lands here.
    overflow: u32,
}

impl LatencyHistogram {
    /// `max_ms` is the largest representable latency; anything above lands
    /// in the overflow bin.
    pub fn new(max_ms: usize) -> Self {
        LatencyHistogram {
            bins: Vec::new(),
            count: 0,
            overflow: u32::try_from(max_ms).unwrap_or(u32::MAX),
        }
    }

    /// Default range: 0..4 s, plenty for sub-second SLOs.
    pub fn standard() -> Self {
        Self::new(4_000)
    }

    pub fn record(&mut self, latency: Micros) {
        self.add(u32::try_from(latency / BIN_US).unwrap_or(u32::MAX), 1);
    }

    /// Add `count` samples to `bin`, or to the overflow bin beyond it — the
    /// one way mass enters a histogram. Counts saturate instead of
    /// wrapping: a histogram past `u64::MAX` samples must still predict a
    /// slow operator, not a free one.
    fn add(&mut self, bin: u32, count: u64) {
        if count == 0 {
            return;
        }
        let bin = bin.min(self.overflow);
        match self.bins.binary_search_by_key(&bin, |&(b, _)| b) {
            Ok(at) => self.bins[at].1 = self.bins[at].1.saturating_add(count),
            Err(at) => self.bins.insert(at, (bin, count)),
        }
        self.count = self.count.saturating_add(count);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold `other`'s mass into this histogram (used when rotating live
    /// intervals into an aggregate). Bins beyond this histogram's range
    /// land in its overflow bin, preserving the conservative tail.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for &(bin, count) in &other.bins {
            self.add(bin, count);
        }
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
        let mut acc = 0u64;
        for &(bin, c) in &self.bins {
            acc = acc.saturating_add(c);
            if acc >= target.max(1) {
                return f64::from(bin) + 1.0;
            }
        }
        f64::from(self.overflow) + 1.0
    }

    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .bins
            .iter()
            .map(|&(bin, c)| (f64::from(bin) + 0.5) * c as f64)
            .sum();
        sum / self.count as f64
    }

    /// The durable form: ascending `(bin, count)` pairs for every nonzero
    /// bin — the representation itself. Round-trips through
    /// [`Self::from_sparse`].
    pub fn nonzero_bins(&self) -> &[(u32, u64)] {
        &self.bins
    }

    /// Rebuild a standard-range histogram from [`Self::nonzero_bins`]
    /// output. Pairs may come in any order and repeat a bin; bins beyond
    /// the standard range fold into the overflow bin (same conservative
    /// tail as [`Self::merge`]).
    pub fn from_sparse(bins: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut h = Self::standard();
        for (bin, count) in bins {
            h.add(bin, count);
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
            .map(|&(bin, c)| (bin as usize, c as f64 / self.count as f64))
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
mod dense;

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
    fn counts_saturate_instead_of_wrapping() {
        // the dense histogram this replaced wrapped here: in release it
        // answered count() == 0 and quantile_ms(0.99) == 0.0 — 2^64
        // samples predicted a free operator (debug panicked on the add)
        let h = LatencyHistogram::from_sparse([(0, u64::MAX), (1, 1)]);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.quantile_ms(0.99), 1.0);
        let mut merged = h.clone();
        merged.merge(&h);
        assert_eq!(merged.count(), u64::MAX);
        assert_eq!(merged.quantile_ms(0.99), 1.0);
        assert_eq!(merged.nonzero_bins(), [(0, u64::MAX), (1, 2)]);
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
