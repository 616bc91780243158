//! Rebalancing under fire: the `Arc`-swapped routing table must let
//! `LiveCluster::rebalance` re-split namespaces while concurrent sessions
//! keep reading and writing — zero lost keys, no panics, monotonically
//! growing scans. This is the live-path guarantee the conformance suite
//! checks quiescently.

use piql_kv::{KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, Session};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn skewed_key(i: u32) -> Vec<u8> {
    // ≥ 90% of keys under one leading byte (a hot username prefix)
    let mut key = if !i.is_multiple_of(10) {
        b"user/".to_vec()
    } else {
        vec![(i % 251) as u8, b'/']
    };
    key.extend_from_slice(&i.to_be_bytes());
    key
}

/// The acceptance criterion, end to end: a 90%-skewed namespace put one
/// entry at a time is one shard and rebalances to an even spread,
/// with the full scan bitwise-identical before and after.
#[test]
fn skewed_namespace_rebalances_to_even_entry_shares() {
    let cluster = LiveCluster::new(LiveConfig {
        shards_per_namespace: 8,
        ..Default::default()
    });
    let ns = cluster.namespace("users");
    for i in 0..2_000u32 {
        cluster.bulk_put(ns, skewed_key(i), i.to_be_bytes().to_vec());
    }
    let full_scan = |s: &mut Session| {
        cluster
            .execute_round(
                s,
                vec![KvRequest::GetRange {
                    ns,
                    start: vec![],
                    end: None,
                    limit: None,
                    reverse: false,
                }],
            )
            .remove(0)
    };
    let mut s = Session::new();
    let before_scan = full_scan(&mut s);

    let before = &cluster.balance()[0];
    assert_eq!(before.entries, [2_000], "single puts lay nothing out");

    cluster.rebalance();

    let after = &cluster.balance()[0];
    let threshold = (2.0 / after.shards as f64) * 1.5;
    assert!(
        after.max_entry_share() <= threshold,
        "max shard share {:.3} over {} shards exceeds {threshold:.3}: {:?}",
        after.max_entry_share(),
        after.shards,
        after.entries
    );
    assert_eq!(
        full_scan(&mut s),
        before_scan,
        "rebalance is invisible to queries"
    );
    assert_eq!(cluster.stats_snapshot().rebalances, 1);
}

/// Rebalance repeatedly while writer and reader sessions hammer the same
/// namespace. Writers must never lose a write to a retired shard layout;
/// readers must never observe a previously-committed key as missing (the
/// scan count can only grow).
#[test]
fn concurrent_sessions_survive_repeated_rebalances_without_lost_keys() {
    const WRITERS: u32 = 4;
    const READERS: u32 = 4;
    const BASE: u32 = 1_000;
    const REBALANCES: u32 = 25;

    let cluster = Arc::new(LiveCluster::new(LiveConfig {
        shards_per_namespace: 8,
        ..Default::default()
    }));
    let ns = cluster.namespace("stress");
    for i in 0..BASE {
        cluster.bulk_put(ns, skewed_key(i), i.to_be_bytes().to_vec());
    }
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let cluster = cluster.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut s = Session::new();
                let mut written: Vec<Vec<u8>> = Vec::new();
                let mut seq = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    // unique per-writer key space, same hot prefix
                    let key = skewed_key(BASE + w * 1_000_000 + seq);
                    let responses = cluster.execute_round(
                        &mut s,
                        vec![KvRequest::Put {
                            ns,
                            key: key.clone(),
                            value: key.clone(),
                        }],
                    );
                    assert!(matches!(responses[0], KvResponse::Done));
                    written.push(key);
                    seq += 1;
                    // read-your-writes spot check across possible swaps
                    if seq.is_multiple_of(64) {
                        let probe = written[(seq as usize / 2) % written.len()].clone();
                        let r = cluster.execute_round(
                            &mut s,
                            vec![KvRequest::Get {
                                ns,
                                key: probe.clone(),
                            }],
                        );
                        assert_eq!(
                            r[0].expect_value(),
                            Some(probe.as_slice()),
                            "own write lost across a rebalance"
                        );
                    }
                }
                written
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let cluster = cluster.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut s = Session::new();
                let mut floor = BASE as u64;
                while !stop.load(Ordering::Relaxed) {
                    let r = cluster.execute_round(
                        &mut s,
                        vec![KvRequest::CountRange {
                            ns,
                            start: vec![],
                            end: None,
                        }],
                    );
                    let count = r[0].expect_count();
                    assert!(
                        count >= floor,
                        "scan shrank mid-rebalance: {count} < {floor}"
                    );
                    floor = count;
                    // the preloaded keys stay visible through every swap
                    let probe = skewed_key(floor as u32 % BASE);
                    let r = cluster.execute_round(&mut s, vec![KvRequest::Get { ns, key: probe }]);
                    assert!(
                        r[0].expect_value().is_some(),
                        "preloaded key missing mid-rebalance"
                    );
                }
            })
        })
        .collect();

    for _ in 0..REBALANCES {
        cluster.rebalance();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);

    let mut all_written: Vec<Vec<u8>> = Vec::new();
    for w in writers {
        all_written.extend(w.join().expect("writer panicked"));
    }
    for r in readers {
        r.join().expect("reader panicked");
    }

    // zero lost keys: every write ever acknowledged is readable, and the
    // final count is exactly base + writes
    let mut s = Session::new();
    for key in &all_written {
        let r = cluster.execute_round(
            &mut s,
            vec![KvRequest::Get {
                ns,
                key: key.clone(),
            }],
        );
        assert_eq!(
            r[0].expect_value(),
            Some(key.as_slice()),
            "write lost during rebalance"
        );
    }
    let r = cluster.execute_round(
        &mut s,
        vec![KvRequest::CountRange {
            ns,
            start: vec![],
            end: None,
        }],
    );
    assert_eq!(
        r[0].expect_count(),
        BASE as u64 + all_written.len() as u64,
        "final count = preload + acknowledged writes"
    );
    assert_eq!(cluster.stats_snapshot().rebalances, u64::from(REBALANCES));
}

/// `entries` keys put one by one into a fresh namespace of a store that
/// lays namespaces out in 8 shards, then a thousand reads of one key.
fn hot_one_part_namespace(entries: u32) -> LiveCluster {
    let cluster = LiveCluster::new(LiveConfig {
        shards_per_namespace: 8,
        ..Default::default()
    });
    let ns = cluster.namespace("grown");
    let mut s = Session::new();
    for i in 0..entries {
        let put = KvRequest::Put {
            ns,
            key: skewed_key(i),
            value: Vec::new(),
        };
        cluster.execute_one(&mut s, put);
    }
    for _ in 0..1_000 {
        let get = KvRequest::Get {
            ns,
            key: skewed_key(0),
        };
        cluster.execute_one(&mut s, get);
    }
    let balance = &cluster.balance()[0];
    assert_eq!(balance.shards, 1, "{balance:?}");
    assert_eq!(balance.ops.iter().sum::<u64>(), u64::from(entries) + 1_000);
    cluster
}

/// A table that grows only through single writes is one shard, and the
/// skew trigger still splits it: from as many entries as a namespace is
/// laid out in, a rebalance would cut it, so op skew past `min_ops` fires
/// it.
#[test]
fn the_skew_trigger_splits_a_one_part_namespace_grown_by_puts() {
    let cluster = hot_one_part_namespace(8);
    assert_eq!(cluster.balance()[0].rebalanced_shards, 8);
    assert!(cluster.maybe_rebalance(0.5, 1_000));
    let after = &cluster.balance()[0];
    assert_eq!(after.shards, 8, "{after:?}");
    assert!(after.max_entry_share() <= 2.0 / 8.0, "{after:?}");
    assert_eq!(cluster.stats_snapshot().rebalances, 1);
}

/// A hot namespace holding fewer entries than a namespace is laid out in
/// would stay one shard, so the trigger never fires on it, however long
/// its skew lasts.
#[test]
fn the_skew_trigger_leaves_a_hot_namespace_too_small_to_split() {
    let cluster = hot_one_part_namespace(7);
    assert_eq!(cluster.balance()[0].rebalanced_shards, 1);
    for _ in 0..3 {
        assert!(!cluster.maybe_rebalance(0.5, 1_000));
    }
    assert_eq!(cluster.balance()[0].shards, 1);
    assert_eq!(cluster.stats_snapshot().rebalances, 0);
}
