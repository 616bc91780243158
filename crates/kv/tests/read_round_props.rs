//! Property tests for packed read rounds: on every backend, and in both of
//! `LiveCluster`'s venues, `read_round` answers exactly what the round of
//! requests it stands for answers — the same entries, the same end for
//! each probe, and the same session accounting — for gets that hit and
//! miss, and for ranges forward and reverse, limited, across shard
//! boundaries, empty and inverted.

use piql_kv::{
    ClusterConfig, KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, LiveStatsSnapshot,
    NsId, ReadAnswer, ReadRound, Session, SessionStats, SimCluster,
};
use proptest::prelude::*;
use std::sync::atomic::Ordering;

/// Key bytes on and around the boundaries of a four-shard namespace's
/// leading-byte stripes, so that short random keys collide, share prefixes
/// and straddle shards.
const ALPHABET: [u8; 8] = [0, 1, 63, 64, 65, 128, 200, 255];

fn key(len: impl Into<prop::collection::SizeRange>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]), len)
}

fn limit() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..12).prop_map(Some), Just(Some(u64::MAX))]
}

/// A store that overrides nothing but what it must: its `read_round` is
/// the trait's default, which issues the round of requests a packed round
/// stands for through `execute_round`.
struct ByRequests<'a>(&'a dyn KvStore);

impl KvStore for ByRequests<'_> {
    fn namespace(&self, name: &str) -> NsId {
        self.0.namespace(name)
    }
    fn execute_round(&self, session: &mut Session, round: Vec<KvRequest>) -> Vec<KvResponse> {
        self.0.execute_round(session, round)
    }
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.0.bulk_put(ns, key, value)
    }
}

/// `store`'s answer to `round` and the session accounting of it.
fn answered(store: &dyn KvStore, round: &ReadRound) -> (ReadAnswer, SessionStats) {
    let mut session = Session::new();
    let mut answer = ReadAnswer::default();
    store
        .read_round(&mut session, round, &mut answer)
        .expect("a whole answer");
    (answer, session.stats)
}

/// What `LiveStats` booked between two snapshots, less the rebalances.
fn booked(before: LiveStatsSnapshot, after: LiveStatsSnapshot) -> [u64; 2] {
    [
        after.ops - before.ops,
        after.physical_ops - before.physical_ops,
    ]
}

proptest! {
    #[test]
    fn a_packed_round_answers_as_its_requests_do(
        stored in prop::collection::btree_map(key(1..4), prop::collection::vec(any::<u8>(), 0..4), 0..40),
        gets in prop::collection::vec((any::<bool>(), any::<prop::sample::Index>(), key(0..4)), 0..8),
        ranges in prop::collection::vec((key(0..4), prop_oneof![Just(None), key(0..4).prop_map(Some)]), 0..6),
        of_gets in any::<bool>(),
        limit in limit(),
        reverse in any::<bool>(),
        rebalanced in any::<bool>(),
    ) {
        let sim = SimCluster::new(ClusterConfig::instant(4));
        let live = |request_delay_us| LiveCluster::new(LiveConfig {
            shards_per_namespace: 4,
            pool_threads: 2,
            request_delay_us,
        });
        let (inline, fanned) = (live(0), live(1));
        let stores: [(&str, &dyn KvStore); 3] =
            [("SimCluster", &sim), ("LiveCluster inline", &inline), ("LiveCluster fanned", &fanned)];
        let mut answers = Vec::new();
        for (name, store) in stores {
            let ns = store.namespace("t");
            for (k, v) in &stored {
                store.bulk_put(ns, k.clone(), v.clone());
            }
            if rebalanced {
                store.rebalance();
            }
            // gets of stored keys and of random ones, or ranges sharing
            // one limit and one direction
            let round = if of_gets {
                let mut round = ReadRound::gets(ns, gets.len());
                for (hit, at, random) in &gets {
                    match stored.keys().nth(at.index(stored.len().max(1))) {
                        Some(key) if *hit => round.push_get(key),
                        _ => round.push_get(random),
                    }
                }
                round
            } else {
                let mut round = ReadRound::ranges(ns, ranges.len(), limit, reverse);
                for (start, end) in &ranges {
                    round.push_range(start, end.as_deref());
                }
                round
            };

            let stats = || [&inline, &fanned].map(LiveCluster::stats_snapshot);
            let before = stats();
            let (answer, accounted) = answered(store, &round);
            let between = stats();
            let (expected, by_requests) = answered(&ByRequests(store), &round);
            let after = stats();
            prop_assert_eq!(&answer, &expected, "{}", name);
            prop_assert_eq!(accounted, by_requests, "{}", name);
            for i in 0..2 {
                prop_assert_eq!(
                    booked(before[i], between[i]),
                    booked(between[i], after[i]),
                    "{}: the store's own counters", name
                );
            }
            prop_assert_eq!(answer.len(), round.len(), "{}", name);
            answers.push(answer);
        }
        prop_assert_eq!(&answers[1], &answers[0], "Sim and Live answer alike");
        prop_assert_eq!(&answers[2], &answers[0], "Sim and Live answer alike");

        // a round without service time never leaves its caller; one with
        // it fans out as soon as it has two probes
        let scattered = |store: &LiveCluster| store.pool().stats.fanned_rounds.load(Ordering::Relaxed);
        let probes = if of_gets { gets.len() } else { ranges.len() };
        prop_assert_eq!(scattered(&inline), 0);
        prop_assert_eq!(scattered(&fanned) > 0, probes >= 2);
    }
}

/// One round of a sequence: gets of stored keys and of random ones, or
/// ranges sharing one limit and one direction.
type RoundSpec = (
    bool,
    Vec<(bool, prop::sample::Index, Vec<u8>)>,
    Vec<(Vec<u8>, Option<Vec<u8>>)>,
    Option<u64>,
    bool,
);

fn round_spec() -> impl Strategy<Value = RoundSpec> {
    (
        any::<bool>(),
        prop::collection::vec(
            (any::<bool>(), any::<prop::sample::Index>(), key(0..4)),
            0..8,
        ),
        prop::collection::vec(
            (key(0..4), prop_oneof![Just(None), key(0..4).prop_map(Some)]),
            0..6,
        ),
        limit(),
        any::<bool>(),
    )
}

fn build(ns: NsId, stored: &[Vec<u8>], spec: &RoundSpec) -> ReadRound {
    let (of_gets, gets, ranges, limit, reverse) = spec;
    if *of_gets {
        let mut round = ReadRound::gets(ns, gets.len());
        for (hit, at, random) in gets {
            match stored.get(at.index(stored.len().max(1))) {
                Some(key) if *hit => round.push_get(key),
                _ => round.push_get(random),
            }
        }
        round
    } else {
        let mut round = ReadRound::ranges(ns, ranges.len(), *limit, *reverse);
        for (start, end) in ranges {
            round.push_range(start, end.as_deref());
        }
        round
    }
}

proptest! {
    /// One answer handed to a sequence of rounds, as an executing thread
    /// hands its scratch answer to each operator, holds after each exactly
    /// what a fresh answer to that round holds, and the round is accounted
    /// as it is with a fresh one.
    #[test]
    fn a_reused_answer_holds_what_a_fresh_one_does(
        stored in prop::collection::btree_map(key(1..4), prop::collection::vec(any::<u8>(), 0..4), 0..40),
        rounds in prop::collection::vec(round_spec(), 1..6),
        rebalanced in any::<bool>(),
    ) {
        let sim = SimCluster::new(ClusterConfig::instant(4));
        let live = |request_delay_us| LiveCluster::new(LiveConfig {
            shards_per_namespace: 4,
            pool_threads: 2,
            request_delay_us,
        });
        let (inline, fanned) = (live(0), live(1));
        let stores: [(&str, &dyn KvStore); 3] =
            [("SimCluster", &sim), ("LiveCluster inline", &inline), ("LiveCluster fanned", &fanned)];
        let keys: Vec<Vec<u8>> = stored.keys().cloned().collect();
        for (name, store) in stores {
            let ns = store.namespace("t");
            for (k, v) in &stored {
                store.bulk_put(ns, k.clone(), v.clone());
            }
            if rebalanced {
                store.rebalance();
            }
            let mut reused = ReadAnswer::default();
            for spec in &rounds {
                let round = build(ns, &keys, spec);
                let stats = || [&inline, &fanned].map(LiveCluster::stats_snapshot);
                let before = stats();
                let (fresh, fresh_stats) = answered(store, &round);
                let between = stats();
                let mut session = Session::new();
                store
                    .read_round(&mut session, &round, &mut reused)
                    .expect("a whole answer");
                let after = stats();
                prop_assert_eq!(&reused, &fresh, "{}", name);
                prop_assert_eq!(session.stats, fresh_stats, "{}", name);
                for i in 0..2 {
                    prop_assert_eq!(
                        booked(before[i], between[i]),
                        booked(between[i], after[i]),
                        "{}: the store's own counters", name
                    );
                }
            }
        }
    }
}
