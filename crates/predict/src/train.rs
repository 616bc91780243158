//! Operator benchmarking — model training (§6.1, §8.6).
//!
//! The paper trains by "setting up a production system in the cloud for a
//! short period of time" and sampling every operator in parallel across
//! many SLO intervals. This trainer does the same against the simulated
//! cluster: it creates a synthetic namespace, loads β-sized entries, and
//! repeatedly executes each (operator, α, β) grid point inside each
//! interval while optional background sessions keep the cluster at a
//! production-like utilization. Statistics are *not* application-specific
//! (they could be shipped per public cloud, §6.1) — only the cluster
//! configuration matters.

use crate::model::{ModelKey, ModelStore, OpKind, ALPHA_GRID, BETA_GRID};
use piql_kv::{KvRequest, KvStore, Micros, NsId, Session, SimCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// SLO interval length (the paper uses 10-minute intervals).
    pub interval_us: Micros,
    /// Number of intervals to observe (paper: 35).
    pub intervals: usize,
    /// Samples per grid point per interval.
    pub samples_per_interval: usize,
    /// Concurrent background sessions issuing random gets, keeping node
    /// utilization realistic during training.
    pub background_sessions: usize,
    pub seed: u64,
    /// α grid (child cardinalities / limit hints).
    pub alphas: Vec<u32>,
    /// α_j grid for SortedIndexJoin per-key fan-out.
    pub alpha_js: Vec<u32>,
    /// β grid (tuple sizes).
    pub betas: Vec<u32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            interval_us: 10 * 60 * piql_kv::SECONDS,
            intervals: 35,
            samples_per_interval: 12,
            background_sessions: 4,
            seed: 0x7EA1,
            alphas: ALPHA_GRID.to_vec(),
            alpha_js: vec![1, 5, 10, 15, 20, 25, 30, 40, 50],
            betas: BETA_GRID.to_vec(),
        }
    }
}

impl TrainConfig {
    /// A much smaller configuration for unit tests and quick demos.
    pub fn quick() -> Self {
        TrainConfig {
            interval_us: 10 * piql_kv::SECONDS,
            intervals: 5,
            samples_per_interval: 5,
            background_sessions: 2,
            seed: 7,
            alphas: vec![1, 10, 50, 100, 150, 500],
            alpha_js: vec![1, 10, 50],
            betas: vec![40, 160],
        }
    }
}

/// Train a [`ModelStore`] against `cluster`.
pub fn train(cluster: &SimCluster, config: &TrainConfig) -> ModelStore {
    let mut store = ModelStore::new(config.intervals);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // synthetic data: for each β, max(α)*max(αj) contiguous entries
    let max_alpha = *config.alphas.iter().max().unwrap_or(&500) as u64;
    let max_aj = *config.alpha_js.iter().max().unwrap_or(&50) as u64;
    let rows = (max_alpha * max_aj).max(max_alpha);
    let mut namespaces: Vec<(u32, NsId)> = Vec::new();
    for &beta in &config.betas {
        let ns = cluster.namespace(&format!("train/beta{beta}"));
        for i in 0..rows {
            cluster.bulk_put(ns, i.to_be_bytes().to_vec(), vec![0xAB; beta as usize]);
        }
        namespaces.push((beta, ns));
    }
    cluster.rebalance();

    let key_of = |i: u64| i.to_be_bytes().to_vec();

    for interval in 0..config.intervals {
        let interval_start = interval as Micros * config.interval_us;
        // background load sessions spread over the interval
        let mut bg: Vec<Session> = (0..config.background_sessions)
            .map(|_| Session::at(interval_start))
            .collect();
        for sample in 0..config.samples_per_interval {
            // keep background sessions busy (closed loop of random gets)
            for s in &mut bg {
                if let Some(&(_, ns)) = namespaces.first() {
                    let k = key_of(rng.gen_range(0..rows));
                    cluster.execute_round(s, vec![KvRequest::Get { ns, key: k }]);
                }
            }
            let jitter =
                (sample as Micros * config.interval_us) / config.samples_per_interval as Micros;
            let at = interval_start + jitter % config.interval_us;
            // measurements drain between operator executions so each grid
            // point sees comparable (light) load rather than queueing
            // behind earlier grid points
            let mut t = at;
            for &(beta, ns) in &namespaces {
                for &alpha in &config.alphas {
                    // Θ_IndexScan(α, β): one bounded range read
                    let start_i = rng.gen_range(0..rows.saturating_sub(alpha as u64).max(1));
                    let mut s = Session::at(t);
                    let t0 = s.begin();
                    cluster.execute_round(
                        &mut s,
                        vec![KvRequest::GetRange {
                            ns,
                            start: key_of(start_i),
                            end: None,
                            limit: Some(alpha as u64),
                            reverse: false,
                        }],
                    );
                    store.record(
                        interval,
                        ModelKey {
                            op: OpKind::IndexScan,
                            alpha_c: alpha,
                            alpha_j: 1,
                            beta,
                        },
                        s.elapsed_since(t0),
                    );
                    t = s.now + 2_000;

                    // Θ_IndexFKJoin(αc, β): αc parallel gets
                    let mut s = Session::at(t);
                    let t0 = s.begin();
                    let gets: Vec<KvRequest> = (0..alpha as u64)
                        .map(|_| KvRequest::Get {
                            ns,
                            key: key_of(rng.gen_range(0..rows)),
                        })
                        .collect();
                    cluster.execute_round(&mut s, gets);
                    store.record(
                        interval,
                        ModelKey {
                            op: OpKind::IndexFKJoin,
                            alpha_c: alpha,
                            alpha_j: 1,
                            beta,
                        },
                        s.elapsed_since(t0),
                    );
                    t = s.now + 2_000;

                    // Θ_SortedIndexJoin(αc, αj, β): αc parallel bounded
                    // range reads of αj entries each
                    for &aj in &config.alpha_js {
                        let mut s = Session::at(t);
                        let t0 = s.begin();
                        let ranges: Vec<KvRequest> = (0..alpha as u64)
                            .map(|_| {
                                let st = rng.gen_range(0..rows.saturating_sub(aj as u64).max(1));
                                KvRequest::GetRange {
                                    ns,
                                    start: key_of(st),
                                    end: None,
                                    limit: Some(aj as u64),
                                    reverse: false,
                                }
                            })
                            .collect();
                        cluster.execute_round(&mut s, ranges);
                        store.record(
                            interval,
                            ModelKey {
                                op: OpKind::SortedIndexJoin,
                                alpha_c: alpha,
                                alpha_j: aj,
                                beta,
                            },
                            s.elapsed_since(t0),
                        );
                        t = s.now + 2_000;
                    }
                }
            }
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_kv::ClusterConfig;

    #[test]
    fn training_populates_all_grid_points() {
        let cluster = SimCluster::new(ClusterConfig::default().with_nodes(4).with_seed(3));
        let cfg = TrainConfig {
            intervals: 3,
            samples_per_interval: 3,
            alphas: vec![1, 10, 100],
            alpha_js: vec![1, 10],
            betas: vec![40],
            ..TrainConfig::quick()
        };
        let store = train(&cluster, &cfg);
        // 3 alphas * (scan + fk) + 3 alphas * 2 ajs (sorted) = 12 keys
        assert_eq!(store.keys().len(), 12);
        assert!(store.total_samples() >= 12 * 9);
        // bigger fan-out must not be predicted faster at the median
        let h10 = store
            .lookup_overall(ModelKey {
                op: OpKind::IndexScan,
                alpha_c: 10,
                alpha_j: 1,
                beta: 40,
            })
            .unwrap();
        let h100 = store
            .lookup_overall(ModelKey {
                op: OpKind::IndexScan,
                alpha_c: 100,
                alpha_j: 1,
                beta: 40,
            })
            .unwrap();
        assert!(h100.quantile_ms(0.5) >= h10.quantile_ms(0.5) * 0.8);
    }

    #[test]
    fn per_interval_histograms_differ_under_interference() {
        let mut config = ClusterConfig::default().with_nodes(3).with_seed(17);
        config.interference.prob = 0.5;
        config.interference.multiplier = (2.0, 4.0);
        let cluster = SimCluster::new(config);
        let store = train(&cluster, &TrainConfig::quick());
        let key = ModelKey {
            op: OpKind::IndexScan,
            alpha_c: 100,
            alpha_j: 1,
            beta: 40,
        };
        let p99s: Vec<f64> = (0..store.n_intervals())
            .filter_map(|i| store.lookup(i, key))
            .map(|h| h.quantile_ms(0.99))
            .collect();
        assert!(p99s.len() >= 2);
        let min = p99s.iter().cloned().fold(f64::MAX, f64::min);
        let max = p99s.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > min,
            "interference should make interval p99s vary: {p99s:?}"
        );
    }
}
