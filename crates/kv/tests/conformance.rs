//! Backend conformance suite: every [`KvStore`] implementation must agree
//! on get/put/delete, range, count, test-and-set, and read-your-writes
//! visibility semantics. Runs against the virtual-time `SimCluster`
//! (instant, strongly-visible configuration) and the wall-clock
//! `LiveCluster` — the engine treats them interchangeably, so they must be.

use piql_kv::testkit::swap;
use piql_kv::{
    ClusterConfig, KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, NsId, Session,
    SimCluster,
};
use std::sync::atomic::Ordering;

/// Every conforming backend, by name (for assertion messages).
fn backends() -> Vec<(&'static str, Box<dyn KvStore>)> {
    vec![
        (
            "SimCluster",
            Box::new(SimCluster::new(ClusterConfig::instant(4))),
        ),
        (
            "LiveCluster",
            Box::new(LiveCluster::new(LiveConfig {
                shards_per_namespace: 4,
                ..Default::default()
            })),
        ),
        (
            "LiveCluster(sequential)",
            Box::new(LiveCluster::new(LiveConfig {
                shards_per_namespace: 4,
                pool_threads: 0,
                request_delay_us: 0,
            })),
        ),
    ]
}

/// A `LiveCluster` doubling as the suite's *slow store*: every request is
/// injected with `delay_us` of service time, which makes round timing
/// observable on the wall clock (an in-memory map answers in nanoseconds
/// otherwise).
fn slow_store(delay_us: u64, pool_threads: usize) -> LiveCluster {
    LiveCluster::new(LiveConfig {
        shards_per_namespace: 4,
        pool_threads,
        request_delay_us: delay_us,
    })
}

fn one(store: &dyn KvStore, s: &mut Session, req: KvRequest) -> KvResponse {
    store.execute_round(s, vec![req]).remove(0)
}

#[test]
fn namespaces_are_stable_and_distinct() {
    for (name, store) in backends() {
        let a = store.namespace("tables/a");
        let b = store.namespace("tables/b");
        assert_ne!(a, b, "{name}: distinct names, distinct namespaces");
        assert_eq!(a, store.namespace("tables/a"), "{name}: stable resolution");

        // same key in different namespaces never collides
        let mut s = Session::new();
        one(
            store.as_ref(),
            &mut s,
            KvRequest::Put {
                ns: a,
                key: b"k".to_vec(),
                value: b"in-a".to_vec(),
            },
        );
        let r = one(
            store.as_ref(),
            &mut s,
            KvRequest::Get {
                ns: b,
                key: b"k".to_vec(),
            },
        );
        assert_eq!(r.expect_value(), None, "{name}: namespace isolation");
    }
}

#[test]
fn put_get_delete_read_your_writes() {
    for (name, store) in backends() {
        let ns = store.namespace("t");
        let mut s = Session::new();
        assert_eq!(
            one(
                store.as_ref(),
                &mut s,
                KvRequest::Get {
                    ns,
                    key: b"k".to_vec()
                }
            )
            .expect_value(),
            None,
            "{name}: absent before write"
        );
        one(
            store.as_ref(),
            &mut s,
            KvRequest::Put {
                ns,
                key: b"k".to_vec(),
                value: b"v1".to_vec(),
            },
        );
        assert_eq!(
            one(
                store.as_ref(),
                &mut s,
                KvRequest::Get {
                    ns,
                    key: b"k".to_vec()
                }
            )
            .expect_value(),
            Some(b"v1".as_slice()),
            "{name}: session reads its own write"
        );
        one(
            store.as_ref(),
            &mut s,
            KvRequest::Put {
                ns,
                key: b"k".to_vec(),
                value: b"v2".to_vec(),
            },
        );
        assert_eq!(
            one(
                store.as_ref(),
                &mut s,
                KvRequest::Get {
                    ns,
                    key: b"k".to_vec()
                }
            )
            .expect_value(),
            Some(b"v2".as_slice()),
            "{name}: overwrite visible"
        );
        one(
            store.as_ref(),
            &mut s,
            KvRequest::Delete {
                ns,
                key: b"k".to_vec(),
            },
        );
        assert_eq!(
            one(
                store.as_ref(),
                &mut s,
                KvRequest::Get {
                    ns,
                    key: b"k".to_vec()
                }
            )
            .expect_value(),
            None,
            "{name}: delete visible"
        );
    }
}

#[test]
fn bulk_put_is_immediately_readable() {
    for (name, store) in backends() {
        let ns = store.namespace("bulk");
        for i in 0..20u8 {
            store.bulk_put(ns, vec![i], vec![i, i]);
        }
        store.rebalance();
        let mut s = Session::new();
        let r = one(store.as_ref(), &mut s, KvRequest::Get { ns, key: vec![7] });
        assert_eq!(r.expect_value(), Some([7u8, 7].as_slice()), "{name}");
        let r = one(
            store.as_ref(),
            &mut s,
            KvRequest::CountRange {
                ns,
                start: vec![],
                end: None,
            },
        );
        assert_eq!(r.expect_count(), 20, "{name}");
    }
}

#[test]
fn range_semantics_forward_reverse_limit_bounds() {
    for (name, store) in backends() {
        let ns = store.namespace("r");
        // leading bytes span the whole space so Live shards and Sim
        // partitions are both exercised
        let mut s = Session::new();
        for i in 0..=255u8 {
            one(
                store.as_ref(),
                &mut s,
                KvRequest::Put {
                    ns,
                    key: vec![i, 0xAA],
                    value: vec![i],
                },
            );
        }
        store.rebalance();

        // [lo, hi) clipping, order, completeness
        let r = one(
            store.as_ref(),
            &mut s,
            KvRequest::GetRange {
                ns,
                start: vec![10],
                end: Some(vec![200]),
                limit: None,
                reverse: false,
            },
        );
        let entries = r.expect_entries().to_vec();
        assert_eq!(entries.len(), 190, "{name}: [10,200) by leading byte");
        assert_eq!(entries[0].0, vec![10, 0xAA], "{name}: inclusive start");
        assert_eq!(
            entries.last().unwrap().0,
            vec![199, 0xAA],
            "{name}: exclusive end"
        );
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "{name}: ascending order"
        );

        // limit truncates, preserving prefix order
        let r = one(
            store.as_ref(),
            &mut s,
            KvRequest::GetRange {
                ns,
                start: vec![10],
                end: Some(vec![200]),
                limit: Some(7),
                reverse: false,
            },
        );
        assert_eq!(r.expect_entries().to_vec(), entries[..7].to_vec(), "{name}");

        // reverse scans descend from the end bound
        let r = one(
            store.as_ref(),
            &mut s,
            KvRequest::GetRange {
                ns,
                start: vec![10],
                end: Some(vec![200]),
                limit: Some(3),
                reverse: true,
            },
        );
        let rev = r.expect_entries().to_vec();
        assert_eq!(rev.len(), 3, "{name}");
        assert_eq!(rev[0].0, vec![199, 0xAA], "{name}: reverse starts at top");
        assert!(
            rev.windows(2).all(|w| w[0].0 > w[1].0),
            "{name}: descending"
        );

        // count agrees with the scan
        let r = one(
            store.as_ref(),
            &mut s,
            KvRequest::CountRange {
                ns,
                start: vec![10],
                end: Some(vec![200]),
            },
        );
        assert_eq!(r.expect_count(), 190, "{name}");
    }
}

/// A client can ask for an interval that holds nothing — a range predicate
/// with `low >= high`, a cursor replayed under another key — and the
/// ordered map underneath panics on one (`BTreeMap::range`: "range start
/// is greater than range end"). Every backend answers it empty, as one
/// visit, forward, reverse and counted; so it does a limit of zero.
#[test]
fn empty_and_inverted_intervals_answer_nothing() {
    for (name, store) in backends() {
        let ns = store.namespace("ranges");
        let mut s = Session::new();
        for i in 0u8..=255 {
            store.bulk_put(ns, vec![i, 0xAA], vec![i]);
        }
        store.rebalance();
        // equal bounds, inverted inside one shard, inverted across shards,
        // and inverted around the empty key
        let intervals: [(&[u8], &[u8]); 4] = [
            (&[100], &[100]),
            (&[101], &[100, 0xAA]),
            (&[250], &[3]),
            (&[7], &[]),
        ];
        for (start, end) in intervals {
            let what = format!("{name}: [{start:?}, {end:?})");
            for reverse in [false, true] {
                s.reset_stats();
                let r = one(
                    store.as_ref(),
                    &mut s,
                    KvRequest::GetRange {
                        ns,
                        start: start.to_vec(),
                        end: Some(end.to_vec()),
                        limit: Some(5),
                        reverse,
                    },
                );
                assert!(r.expect_entries().is_empty(), "{what} reverse={reverse}");
                assert_eq!(
                    (
                        s.stats.logical_requests,
                        s.stats.physical_requests,
                        s.stats.entries
                    ),
                    (1, 1, 0),
                    "{what} reverse={reverse}: one request, one visit"
                );
            }
            s.reset_stats();
            let r = one(
                store.as_ref(),
                &mut s,
                KvRequest::CountRange {
                    ns,
                    start: start.to_vec(),
                    end: Some(end.to_vec()),
                },
            );
            assert_eq!(r.expect_count(), 0, "{what}");
            assert_eq!(s.stats.physical_requests, 1, "{what}");
        }
        for reverse in [false, true] {
            let r = one(
                store.as_ref(),
                &mut s,
                KvRequest::GetRange {
                    ns,
                    start: vec![10],
                    end: Some(vec![200]),
                    limit: Some(0),
                    reverse,
                },
            );
            assert!(r.expect_entries().is_empty(), "{name}: limit 0");
        }
    }
}

#[test]
fn test_and_set_conformance() {
    for (name, store) in backends() {
        let ns = store.namespace("tas");
        let mut s = Session::new();

        let get = |s: &mut Session| {
            let get = KvRequest::Get {
                ns,
                key: b"k".to_vec(),
            };
            one(store.as_ref(), s, get).into_value().unwrap()
        };

        // expect-absent create: the caller holds the value it sent, so a
        // swap that applies answers none
        let r = one(store.as_ref(), &mut s, swap(ns, b"k", b"a", None));
        assert_eq!(r.tas().unwrap(), (true, None), "{name}");
        assert_eq!(get(&mut s), Some(b"a".to_vec()), "{name}");

        // expect-absent against a present key fails, reporting the value
        let r = one(store.as_ref(), &mut s, swap(ns, b"k", b"b", None));
        assert_eq!(r.tas().unwrap(), (false, Some(&b"a"[..])), "{name}");

        // matching expectation swaps
        let r = one(store.as_ref(), &mut s, swap(ns, b"k", b"b", Some(b"a")));
        assert_eq!(r.tas().unwrap(), (true, None), "{name}");
        assert_eq!(get(&mut s), Some(b"b".to_vec()), "{name}");

        // a stale expectation fails and changes nothing
        let r = one(store.as_ref(), &mut s, swap(ns, b"k", b"c", Some(b"a")));
        assert_eq!(r.tas().unwrap(), (false, Some(&b"b"[..])), "{name}");
        assert_eq!(get(&mut s), Some(b"b".to_vec()), "{name}");

        // an empty value is stored, and an empty key holds one
        let r = one(store.as_ref(), &mut s, swap(ns, b"", b"", None));
        assert_eq!(r.tas().unwrap(), (true, None), "{name}");
        let r = one(store.as_ref(), &mut s, swap(ns, b"", b"x", None));
        assert_eq!(r.tas().unwrap(), (false, Some(&b""[..])), "{name}");
    }
}

/// `execute_one` is a round of one: on every backend — whether it
/// overrides the method or inherits the default — each request variant
/// answers, and is accounted, exactly as `execute_round(vec![req])`.
#[test]
fn execute_one_conforms_to_a_round_of_one() {
    for (name, store) in backends() {
        let (via_round, via_one) = (store.namespace("round"), store.namespace("one"));
        let script = |ns| {
            vec![
                KvRequest::Put {
                    ns,
                    key: b"k".to_vec(),
                    value: b"v".to_vec(),
                },
                KvRequest::Get {
                    ns,
                    key: b"k".to_vec(),
                },
                swap(ns, b"k", b"w", None),
                swap(ns, b"fresh", b"w", None),
                KvRequest::GetRange {
                    ns,
                    start: vec![],
                    end: None,
                    limit: None,
                    reverse: false,
                },
                KvRequest::CountRange {
                    ns,
                    start: vec![],
                    end: None,
                },
                KvRequest::Delete {
                    ns,
                    key: b"k".to_vec(),
                },
                KvRequest::Get {
                    ns,
                    key: b"k".to_vec(),
                },
            ]
        };
        let (mut s_round, mut s_one) = (Session::new(), Session::new());
        for (by_round, by_one) in script(via_round).into_iter().zip(script(via_one)) {
            let what = format!("{name}: {by_round:?}");
            let expected = one(store.as_ref(), &mut s_round, by_round);
            assert_eq!(store.execute_one(&mut s_one, by_one), expected, "{what}");
            assert_eq!(s_one.stats.rounds, s_round.stats.rounds, "{what}");
            assert_eq!(
                s_one.stats.logical_requests, s_round.stats.logical_requests,
                "{what}"
            );
            assert_eq!(
                s_one.stats.physical_requests, s_round.stats.physical_requests,
                "{what}"
            );
            assert_eq!(s_one.stats.entries, s_round.stats.entries, "{what}");
            assert_eq!(s_one.stats.bytes, s_round.stats.bytes, "{what}");
        }
    }
}

/// The store side of the engine's rejected duplicate insert (§7.2): the
/// index entry goes in first, the expect-absent test-and-set then fails —
/// and must hand back the stored record byte for byte while changing
/// nothing, because the engine decides from it which index entries belong
/// to the live row and may not be undone.
#[test]
fn failed_test_and_set_reports_the_live_record_and_changes_nothing() {
    for (name, store) in backends() {
        let (records, index) = (store.namespace("t/rec"), store.namespace("i/rec"));
        let mut s = Session::new();
        store.bulk_put(records, b"pk".to_vec(), b"live row".to_vec());
        store.bulk_put(index, b"town+pk".to_vec(), Vec::new());
        // the duplicate's index entry is the live row's own entry
        store.execute_one(
            &mut s,
            KvRequest::Put {
                ns: index,
                key: b"town+pk".to_vec(),
                value: Vec::new(),
            },
        );
        let r = store.execute_one(&mut s, swap(records, b"pk", b"duplicate", None));
        assert_eq!(
            r.tas().unwrap(),
            (false, Some(b"live row".as_slice())),
            "{name}"
        );
        let after = store.execute_round(
            &mut s,
            vec![
                KvRequest::Get {
                    ns: records,
                    key: b"pk".to_vec(),
                },
                KvRequest::CountRange {
                    ns: records,
                    start: vec![],
                    end: None,
                },
                KvRequest::CountRange {
                    ns: index,
                    start: vec![],
                    end: None,
                },
            ],
        );
        assert_eq!(
            after[0].expect_value(),
            Some(b"live row".as_slice()),
            "{name}"
        );
        assert_eq!(after[1].expect_count(), 1, "{name}");
        assert_eq!(
            after[2].expect_count(),
            1,
            "{name}: the entry is still there"
        );
    }
}

/// Keys that are prefixes of one another, the empty key and empty values,
/// with values chosen so that comparing key and value as one buffer —
/// either order of the two, or with the key's length leading — would
/// reverse the key order: a backend that stores an entry as one buffer
/// must still order, bound, count and answer by the key alone.
#[test]
fn entry_layout_does_not_leak_into_key_order() {
    // in key order
    let entries: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (vec![], vec![0xFF, 0xFF]),
        (vec![1], vec![0xFF]),
        (vec![1, 0], vec![]),
        (vec![1, 0, 0], vec![0xFE]),
        (vec![2], vec![]),
        (vec![0xFF], vec![0]),
    ];
    fn range(
        ns: NsId,
        start: &[u8],
        end: Option<&[u8]>,
        limit: Option<u64>,
        reverse: bool,
    ) -> KvRequest {
        KvRequest::GetRange {
            ns,
            start: start.to_vec(),
            end: end.map(<[u8]>::to_vec),
            limit,
            reverse,
        }
    }
    fn count(ns: NsId, start: &[u8], end: Option<&[u8]>) -> KvRequest {
        KvRequest::CountRange {
            ns,
            start: start.to_vec(),
            end: end.map(<[u8]>::to_vec),
        }
    }
    let mut answers: Vec<(&str, Vec<KvResponse>)> = Vec::new();
    for (name, store) in backends() {
        let ns = store.namespace("layout");
        let mut s = Session::new();
        // loaded out of order, half by round and half in bulk
        for (i, (key, value)) in entries.iter().enumerate().rev() {
            if i % 2 == 0 {
                store.bulk_put(ns, key.clone(), value.clone());
            } else {
                let put = KvRequest::Put {
                    ns,
                    key: key.clone(),
                    value: value.clone(),
                };
                one(store.as_ref(), &mut s, put);
            }
        }
        let reads = |store: &dyn KvStore, s: &mut Session| -> Vec<KvResponse> {
            let mut requests = vec![
                range(ns, &[], None, None, false),
                range(ns, &[], None, None, true),
                range(ns, &[1], None, Some(2), false),
                range(ns, &[], Some(&[1, 0, 0]), Some(3), true),
                range(ns, &[1], Some(&[1, 0, 0]), None, false),
                range(ns, &[1, 0], Some(&[2]), None, true),
                range(ns, &[1, 0, 0, 0], Some(&[0xFF]), None, false),
                count(ns, &[], None),
                count(ns, &[1], Some(&[2])),
                count(ns, &[1, 0], Some(&[1, 0])),
                count(ns, &[1, 0, 0], Some(&[0xFF])),
            ];
            requests.extend(
                [
                    &[][..],
                    &[1],
                    &[1, 0],
                    &[1, 0, 0],
                    &[1, 0, 0, 0],
                    &[0],
                    &[0xFF],
                ]
                .into_iter()
                .map(|key| KvRequest::Get {
                    ns,
                    key: key.to_vec(),
                }),
            );
            requests.into_iter().map(|r| one(store, s, r)).collect()
        };
        let mut got = reads(store.as_ref(), &mut s);
        assert_eq!(
            got[0].expect_entries().to_vec(),
            entries,
            "{name}: a full scan is in key order"
        );
        // a failed test-and-set hands back the stored value, empty or not
        for (key, stored) in [(vec![1, 0], vec![]), (vec![], vec![0xFF, 0xFF])] {
            let r = one(store.as_ref(), &mut s, swap(ns, &key, &[7], None));
            assert_eq!(r.tas().unwrap(), (false, Some(stored.as_slice())), "{name}");
            got.push(r);
        }
        // a point read of every key, where the backend serves them
        for (key, value) in &entries {
            let mut out = vec![9];
            if let Some(found) = store.point_get(&mut s, ns, key, &mut out) {
                assert!(found, "{name}: {key:?}");
                assert_eq!(out[1..], value[..], "{name}: {key:?}");
            }
        }
        // re-sharding reads the keys too; the answers do not move
        store.rebalance();
        assert_eq!(
            reads(store.as_ref(), &mut s),
            got[..got.len() - 2],
            "{name}: after a rebalance"
        );
        answers.push((name, got));
    }
    let (reference, expected) = &answers[0];
    for (name, got) in &answers[1..] {
        assert_eq!(got, expected, "{name} answers as {reference} does");
    }

    // a checkpoint exports the same entries in the same order
    let live = LiveCluster::new(LiveConfig {
        shards_per_namespace: 4,
        ..Default::default()
    });
    let ns = live.namespace("layout");
    for (key, value) in entries.iter().rev() {
        live.bulk_put(ns, key.clone(), value.clone());
    }
    assert_eq!(
        live.export_namespaces(),
        vec![("layout".to_string(), entries)]
    );
}

#[test]
fn rounds_answer_positionally_and_advance_the_clock() {
    for (name, store) in backends() {
        let ns = store.namespace("mix");
        let mut s = Session::new();
        let t0 = s.begin();
        let responses = store.execute_round(
            &mut s,
            vec![
                KvRequest::Put {
                    ns,
                    key: b"a".to_vec(),
                    value: b"1".to_vec(),
                },
                KvRequest::Get {
                    ns,
                    key: b"missing".to_vec(),
                },
                KvRequest::CountRange {
                    ns,
                    start: vec![],
                    end: None,
                },
            ],
        );
        assert_eq!(responses.len(), 3, "{name}: one response per request");
        assert!(matches!(responses[0], KvResponse::Done), "{name}");
        assert!(matches!(responses[1], KvResponse::Value(None)), "{name}");
        assert!(matches!(responses[2], KvResponse::Count(_)), "{name}");
        assert_eq!(s.stats.rounds, 1, "{name}: one round accounted");
        assert_eq!(s.stats.logical_requests, 3, "{name}");
        assert!(s.stats.physical_requests >= 3, "{name}");
        assert!(s.now >= t0, "{name}: the clock never goes backwards");
    }
}

/// The paper's round-latency model, on the wall clock: a 10-request round
/// against a store serving each request in ~20 ms must complete in ~max
/// (one service time), not ~sum (ten service times).
#[test]
fn slow_store_round_completes_at_max_not_sum() {
    const DELAY_US: u64 = 20_000;
    let store = slow_store(DELAY_US, 10);
    let ns = store.namespace("slow");
    for i in 0..10u8 {
        store.bulk_put(ns, vec![i], vec![i]);
    }
    let round: Vec<KvRequest> = (0..10u8)
        .map(|i| KvRequest::Get { ns, key: vec![i] })
        .collect();
    let mut s = Session::new();
    let t0 = std::time::Instant::now();
    let responses = store.execute_round(&mut s, round);
    let elapsed = t0.elapsed();
    assert_eq!(responses.len(), 10);
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(
            r.expect_value(),
            Some([i as u8].as_slice()),
            "responses stay positional under fan-out"
        );
    }
    // acceptance: ≤ 2× the slowest request's latency, nowhere near the sum
    assert!(
        elapsed <= std::time::Duration::from_micros(2 * DELAY_US),
        "10-request round took {elapsed:?}, want ≤ {:?}",
        std::time::Duration::from_micros(2 * DELAY_US)
    );
    // the session clock observed the same wall-clock completion
    assert!(
        s.now >= DELAY_US,
        "session clock advanced by ≥ one service time"
    );
}

/// Sequential baseline: with the pool disabled the same round accumulates
/// per-request latencies — the behavior the fan-out exists to remove.
#[test]
fn sequential_store_round_accumulates_latencies() {
    const DELAY_US: u64 = 5_000;
    let store = slow_store(DELAY_US, 0);
    let ns = store.namespace("slow-seq");
    let round: Vec<KvRequest> = (0..10u8)
        .map(|i| KvRequest::Get { ns, key: vec![i] })
        .collect();
    let mut s = Session::new();
    let t0 = std::time::Instant::now();
    store.execute_round(&mut s, round);
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= std::time::Duration::from_micros(9 * DELAY_US),
        "sequential round should be ~sum of latencies, took {elapsed:?}"
    );
}

/// Concurrent sessions share one pool and still get positional, correct
/// responses — rounds from different threads never interleave answers.
#[test]
fn concurrent_sessions_fan_out_without_cross_talk() {
    let store = std::sync::Arc::new(slow_store(1, 4));
    let ns = store.namespace("mt");
    for i in 0..=255u8 {
        store.bulk_put(ns, vec![i], vec![i]);
    }
    let handles: Vec<_> = (0..8u8)
        .map(|t| {
            let store = store.clone();
            std::thread::spawn(move || {
                let mut s = Session::new();
                for _ in 0..50 {
                    let round: Vec<KvRequest> = (0..16u8)
                        .map(|i| KvRequest::Get {
                            ns,
                            key: vec![t.wrapping_mul(16).wrapping_add(i)],
                        })
                        .collect();
                    let responses = store.execute_round(&mut s, round);
                    for (i, r) in responses.iter().enumerate() {
                        let expect = t.wrapping_mul(16).wrapping_add(i as u8);
                        assert_eq!(r.expect_value(), Some([expect].as_slice()));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        store.pool().stats.fanned_rounds.load(Ordering::Relaxed) > 0,
        "rounds with service time fan out"
    );
}

/// A round with no service time to overlap is served where it was
/// issued, reads and writes alike: an in-memory lookup costs less than
/// the hop to a worker.
#[test]
fn rounds_without_service_time_stay_on_their_caller() {
    let store = slow_store(0, 4);
    let ns = store.namespace("inline");
    let mut s = Session::new();
    let puts = (0..16u8).map(|i| KvRequest::Put {
        ns,
        key: vec![i],
        value: vec![i],
    });
    store.execute_round(&mut s, puts.collect());
    let gets = (0..16u8).map(|i| KvRequest::Get { ns, key: vec![i] });
    let responses = store.execute_round(&mut s, gets.collect());
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.expect_value(), Some([i as u8].as_slice()));
    }
    let stats = &store.pool().stats;
    assert_eq!(
        (
            stats.fanned_rounds.load(Ordering::Relaxed),
            stats.worker_tasks.load(Ordering::Relaxed)
        ),
        (0, 0),
        "two 16-request rounds at no delay, neither of them scattered"
    );
    assert_eq!(s.stats.rounds, 2);
}

/// The key successor — the exclusive-start continuation a pagination
/// cursor uses (`ScanAfter` resumes strictly after the last key shipped).
fn successor(key: &[u8]) -> Vec<u8> {
    let mut next = key.to_vec();
    next.push(0);
    next
}

/// Rebalancing must be invisible to queries: on a skewed load (≥ 90% of
/// keys under one leading byte), every backend returns bitwise-identical
/// results before and after `rebalance()`, and a pagination sequence that
/// straddles the rebalance shipping pages before *and* after sees exactly
/// the same rows as an uninterrupted scan.
#[test]
fn rebalance_preserves_results_and_cursor_pages_on_skewed_data() {
    for (name, store) in backends() {
        let ns = store.namespace("skew");
        let mut s = Session::new();
        for i in 0..500u16 {
            // 90% of keys under the 0x61 prefix, the rest spread out;
            // the big-endian counter suffix keeps every key unique
            let mut key = if i % 10 != 0 {
                vec![0x61, 0x61]
            } else {
                vec![(i % 251) as u8, 0xFF]
            };
            key.extend_from_slice(&i.to_be_bytes());
            store.bulk_put(ns, key, i.to_be_bytes().to_vec());
        }

        let queries: Vec<KvRequest> = vec![
            KvRequest::GetRange {
                ns,
                start: vec![],
                end: None,
                limit: None,
                reverse: false,
            },
            KvRequest::GetRange {
                ns,
                start: vec![0x61],
                end: Some(vec![0x62]),
                limit: None,
                reverse: false,
            },
            KvRequest::GetRange {
                ns,
                start: vec![0x20],
                end: None,
                limit: Some(17),
                reverse: true,
            },
            KvRequest::CountRange {
                ns,
                start: vec![0x61],
                end: Some(vec![0x62]),
            },
        ];
        let before: Vec<KvResponse> = store.execute_round(&mut s, queries.clone());

        // pagination started against the old layout...
        let page_one = one(
            store.as_ref(),
            &mut s,
            KvRequest::GetRange {
                ns,
                start: vec![],
                end: None,
                limit: Some(100),
                reverse: false,
            },
        )
        .expect_entries()
        .to_vec();

        store.rebalance();

        // ...resumes against the new one, with no gap and no duplicate
        let mut paged = page_one.clone();
        loop {
            let next = one(
                store.as_ref(),
                &mut s,
                KvRequest::GetRange {
                    ns,
                    start: successor(&paged.last().unwrap().0),
                    end: None,
                    limit: Some(100),
                    reverse: false,
                },
            )
            .expect_entries()
            .to_vec();
            if next.is_empty() {
                break;
            }
            paged.extend(next);
        }
        assert_eq!(
            paged,
            before[0].expect_entries().to_vec(),
            "{name}: pages straddling the rebalance equal the full scan"
        );

        let after = store.execute_round(&mut s, queries);
        assert_eq!(
            after, before,
            "{name}: results bitwise-identical across rebalance"
        );

        // backends that report balance must have evened the shards out
        let balance = store.balance();
        if let Some(b) = balance.iter().find(|b| b.name == "skew") {
            assert!(
                b.max_entry_share() <= 2.0 / b.shards as f64,
                "{name}: max shard share {:.3} of {} shards after rebalance",
                b.max_entry_share(),
                b.shards
            );
        }
    }
}

/// Physical-op accounting regression: an exclusive range end that falls
/// exactly on a learned split point must cost the same number of
/// partition/shard visits on both backends. (The live store used to visit
/// the end key's shard even though no key `< end` can live there,
/// inflating `physical_requests` relative to `SimCluster`.)
#[test]
fn boundary_aligned_range_costs_equal_physical_ops_on_sim_and_live() {
    let sim = SimCluster::new(ClusterConfig::instant(4));
    let live = LiveCluster::new(LiveConfig {
        shards_per_namespace: 4,
        ..Default::default()
    });
    let stores: [&dyn KvStore; 2] = [&sim, &live];
    for store in stores {
        let ns = store.namespace("edge");
        for i in 0..=255u8 {
            store.bulk_put(ns, vec![i], vec![i]);
        }
        // 256 uniform keys over 4 partitions/shards: both backends learn
        // the same quantile split points ([64], [128], [192])
        store.rebalance();
    }
    let mut per_store_phys = Vec::new();
    for store in stores {
        let ns = store.namespace("edge");
        let mut s = Session::new();
        let r = store.execute_round(
            &mut s,
            vec![
                KvRequest::GetRange {
                    ns,
                    start: vec![0],
                    end: Some(vec![128]), // exclusive end exactly on a split
                    limit: None,
                    reverse: false,
                },
                KvRequest::CountRange {
                    ns,
                    start: vec![64],
                    end: Some(vec![192]),
                },
            ],
        );
        assert_eq!(r[0].expect_entries().len(), 128);
        assert_eq!(r[1].expect_count(), 128);
        per_store_phys.push(s.stats.physical_requests);
    }
    assert_eq!(
        per_store_phys[0], per_store_phys[1],
        "Sim and Live agree on partition-visit accounting"
    );
    assert_eq!(
        per_store_phys[1], 4,
        "two visits per boundary-aligned two-shard range"
    );

    // ...and so must any other interval: bounds on, beside and between
    // the learned splits, open-ended, empty and inverted, scanned both
    // ways, limited and counted
    let bounds: Vec<Vec<u8>> = [0u8, 63, 64, 65, 100, 127, 128, 191, 192, 193, 255]
        .into_iter()
        .flat_map(|b| [vec![b], vec![b, 0]])
        .chain([vec![]])
        .collect();
    let ends = bounds.iter().cloned().map(Some).chain([None]);
    for (start, end) in ends.flat_map(|e| bounds.iter().map(move |s| (s.clone(), e.clone()))) {
        let costs = stores.map(|store| {
            let ns = store.namespace("edge");
            let mut s = Session::new();
            let range = |limit, reverse| KvRequest::GetRange {
                ns,
                start: start.clone(),
                end: end.clone(),
                limit,
                reverse,
            };
            let count = KvRequest::CountRange {
                ns,
                start: start.clone(),
                end: end.clone(),
            };
            [range(None, false), range(Some(70), true), count].map(|req| {
                let before = s.stats.physical_requests;
                store.execute_round(&mut s, vec![req]);
                s.stats.physical_requests - before
            })
        });
        assert_eq!(
            costs[0], costs[1],
            "Sim vs Live visits (scan, limited reverse scan, count) of [{start:?}, {end:?})"
        );
    }
}

#[test]
fn empty_rounds_are_free() {
    for (name, store) in backends() {
        let mut s = Session::new();
        let before = s.now;
        let responses = store.execute_round(&mut s, vec![]);
        assert!(responses.is_empty(), "{name}");
        assert_eq!(s.stats.rounds, 0, "{name}: empty round not accounted");
        assert_eq!(s.now, before, "{name}: no time consumed");
    }
}
