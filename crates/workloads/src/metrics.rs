//! Experiment metrics: throughput, percentile latencies, and the
//! linear-fit R² the paper reports on its scale-up figures (§8.4).

use piql_kv::Micros;

/// One completed interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Virtual start time.
    pub start: Micros,
    /// Virtual latency.
    pub latency: Micros,
    /// Interaction kind (workload-defined label index).
    pub kind: usize,
}

/// A run's collected samples: every one is retained (an experiment run has
/// a bounded horizon).
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    pub samples: Vec<Sample>,
    /// Samples before this time are warm-up and excluded from reports (the
    /// paper discards the first run of each setup, §8.4.1).
    pub warmup_us: Micros,
    /// End of the measurement window.
    pub horizon_us: Micros,
}

impl RunMetrics {
    pub fn record(&mut self, start: Micros, latency: Micros, kind: usize) {
        self.samples.push(Sample {
            start,
            latency,
            kind,
        });
    }

    fn measured(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(|s| s.start >= self.warmup_us && s.start < self.horizon_us)
    }

    /// Completed interactions per second of virtual time (WIPS for TPC-W).
    pub fn throughput_per_sec(&self) -> f64 {
        let n = self.measured().count() as f64;
        let window = self.horizon_us.saturating_sub(self.warmup_us) as f64 / 1e6;
        if window <= 0.0 {
            0.0
        } else {
            n / window
        }
    }

    /// Pooled latency quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        nearest_rank_ms(self.measured().map(|s| s.latency).collect(), q)
    }

    /// Pooled quantile for one interaction kind.
    pub fn quantile_ms_of(&self, kind: usize, q: f64) -> f64 {
        let of_kind = self.measured().filter(|s| s.kind == kind);
        nearest_rank_ms(of_kind.map(|s| s.latency).collect(), q)
    }

    pub fn count(&self) -> usize {
        self.measured().count()
    }
}

/// The nearest-rank `q`-quantile of `latencies`, in milliseconds; `0.0` for
/// an empty set (the convention every quantile here reports). The one
/// quantile rule of experiment reports and of the server's `stats`.
pub fn nearest_rank_ms(mut latencies: Vec<Micros>, q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    let n = latencies.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    latencies[rank - 1] as f64 / 1_000.0
}

/// Least-squares linear fit; returns (slope, intercept, r²). The paper
/// reports R² = 0.99854 (TPC-W) and 0.98683 (SCADr) for throughput vs
/// cluster size.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return (0.0, my, 1.0);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = (sxy * sxy) / (sxx * syy);
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> RunMetrics {
        let mut m = RunMetrics {
            warmup_us: 1_000_000,
            horizon_us: 11_000_000,
            ..Default::default()
        };
        // warm-up noise that must be excluded
        m.record(0, 999_000, 0);
        // 100 samples, latencies 1..100 ms
        for i in 0..100u64 {
            m.record(1_000_000 + i * 100_000, (i + 1) * 1_000, (i % 2) as usize);
        }
        m
    }

    #[test]
    fn throughput_and_quantiles() {
        let m = metrics();
        assert_eq!(m.count(), 100);
        assert!((m.throughput_per_sec() - 10.0).abs() < 1e-9);
        assert_eq!(m.quantile_ms(0.5), 50.0);
        assert_eq!(m.quantile_ms(0.99), 99.0);
        assert_eq!(m.quantile_ms(1.0), 100.0);
        // kind 0 has even latencies 1,3,..,99
        assert_eq!(m.quantile_ms_of(0, 1.0), 99.0);
    }

    #[test]
    fn unbounded_default_retains_everything() {
        let mut m = RunMetrics {
            horizon_us: u64::MAX,
            ..Default::default()
        };
        for i in 0..1000u64 {
            m.record(i, 1_000, 0);
        }
        assert_eq!(m.samples.len(), 1000);
        assert_eq!(m.count(), 1000);
    }

    #[test]
    fn linear_fit_matches_perfect_line() {
        let xs = [20.0, 40.0, 60.0, 80.0, 100.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 7.0).collect();
        let (slope, intercept, r2) = linear_fit(&xs, &ys);
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((intercept - 7.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-12);
        // noisy data still close
        let ys2 = [59.0, 133.0, 180.0, 255.0, 301.0];
        let (_, _, r2) = linear_fit(&xs, &ys2);
        assert!(r2 > 0.99);
    }
}
