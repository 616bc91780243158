//! Shard rebalancing on `LiveCluster` — a 90%-skewed key prefix (the
//! "common username prefix" failure mode) under concurrent point traffic:
//! max-shard entry/op share and full-prefix scan latency on the one part
//! a namespace grown by single puts is vs the learned quantile split
//! points.

use piql_bench::{header, row, scaled};
use piql_kv::{KvRequest, KvStore, LiveCluster, LiveConfig, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 16;
const WORKERS: usize = 8;

fn skewed_key(i: u64) -> Vec<u8> {
    // 90% of keys share the "user" prefix; the rest spread by leading byte
    let mut key = if !i.is_multiple_of(10) {
        b"user/".to_vec()
    } else {
        vec![(i % 251) as u8, b'/']
    };
    key.extend_from_slice(&i.to_be_bytes());
    key
}

fn main() {
    header(
        "rebalance",
        "LiveCluster shard rebalancing",
        "90%-skewed prefix workload: max-shard shares and prefix-scan latency, one part vs learned split points",
    );
    let keys = scaled(200_000, 20_000);
    let scans = scaled(200, 40);
    let cluster = Arc::new(LiveCluster::new(LiveConfig {
        shards_per_namespace: SHARDS,
        ..Default::default()
    }));
    let ns = cluster.namespace("bench/users");
    for i in 0..keys {
        cluster.bulk_put(ns, skewed_key(i), vec![0u8; 64]);
    }

    println!("phase\tmax_entry_share\tmax_op_share\tscan_ms\tpoint_qps");
    for phase in ["unsplit", "rebalanced"] {
        if phase == "rebalanced" {
            let t0 = std::time::Instant::now();
            cluster.rebalance();
            println!("# rebalance took {:?}", t0.elapsed());
        }

        // concurrent point traffic over the skewed keys...
        let stop = Arc::new(AtomicBool::new(false));
        let point_ops = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let cluster = cluster.clone();
                let stop = stop.clone();
                let point_ops = point_ops.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBA1A + w as u64);
                    let mut s = Session::new();
                    while !stop.load(Ordering::Relaxed) {
                        let i = rng.gen_range(0..keys);
                        let round = vec![
                            KvRequest::Get {
                                ns,
                                key: skewed_key(i),
                            },
                            KvRequest::Put {
                                ns,
                                key: skewed_key(i),
                                value: vec![1u8; 64],
                            },
                        ];
                        cluster.execute_round(&mut s, round);
                        point_ops.fetch_add(2, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        // ...let the point traffic reach steady state before timing...
        std::thread::sleep(std::time::Duration::from_millis(100));
        point_ops.store(0, Ordering::Relaxed);

        // ...while the main thread times hot-prefix scans under that load
        let mut s = Session::new();
        let t0 = std::time::Instant::now();
        for _ in 0..scans {
            let r = cluster.execute_round(
                &mut s,
                vec![KvRequest::GetRange {
                    ns,
                    start: b"user/".to_vec(),
                    end: Some(b"user0".to_vec()),
                    limit: Some(1_000),
                    reverse: false,
                }],
            );
            assert_eq!(r[0].expect_entries().len(), 1_000);
        }
        let window = t0.elapsed();
        let scan_ms = window.as_secs_f64() * 1e3 / scans as f64;
        let point_qps = point_ops.load(Ordering::Relaxed) as f64 / window.as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().expect("worker panicked");
        }

        let balance = cluster
            .balance()
            .into_iter()
            .find(|b| b.name == "bench/users")
            .expect("bench namespace reported");
        row(&[
            ("phase", phase.to_string()),
            (
                "max_entry_share",
                format!("{:.3}", balance.max_entry_share()),
            ),
            ("max_op_share", format!("{:.3}", balance.max_op_share())),
            ("scan_ms", format!("{scan_ms:.3}")),
            ("point_qps", format!("{point_qps:.0}")),
        ]);
    }
    println!(
        "# expected: unsplit holds every entry and op on its one shard; \
         rebalanced ≈ 1/{SHARDS} of each over {SHARDS} shards"
    );
    println!(
        "# point_qps multiplies once the hot shard's lock stops serializing writes; \
         the hot-prefix scan crosses more shards after the re-split (and competes \
         with that much more traffic), so its latency is the price of the spread"
    );
}
