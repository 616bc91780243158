//! Property tests for range answers: a packed [`Entries`] block holds
//! exactly the pairs it was built from, and the two backends give the same
//! answer — entries, order, count — for any store and any interval, the
//! empty and inverted ones a client can provoke included.

use piql_kv::{
    ClusterConfig, Entries, KvEntry, KvRequest, KvStore, LiveCluster, LiveConfig, Session,
    SimCluster,
};
use proptest::prelude::*;

/// A small alphabet of key bytes, so that short random keys collide, share
/// prefixes and, in a namespace cut into shards, straddle them.
const ALPHABET: [u8; 8] = [0, 1, 63, 64, 65, 128, 200, 255];

fn key(len: impl Into<prop::collection::SizeRange>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]), len)
}

fn limit() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..12).prop_map(Some), Just(Some(u64::MAX)),]
}

proptest! {
    #[test]
    fn a_block_holds_the_pairs_it_was_built_from(
        owned in prop::collection::vec(
            (
                prop::collection::vec(any::<u8>(), 0..6),
                prop::collection::vec(any::<u8>(), 0..6),
            ),
            0..12,
        ),
        split in any::<prop::sample::Index>(),
    ) {
        let block = Entries::from(owned.clone());
        prop_assert_eq!(block.len(), owned.len());
        prop_assert_eq!(block.is_empty(), owned.is_empty());
        prop_assert_eq!(
            block.payload_len(),
            owned.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>()
        );
        let borrowed: Vec<KvEntry> = block.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        prop_assert_eq!(&borrowed, &owned);
        prop_assert_eq!(block.to_vec(), owned.clone());
        prop_assert_eq!(block.last().map(|(k, v)| (k.to_vec(), v.to_vec())), owned.last().cloned());
        for (i, (k, v)) in owned.iter().enumerate() {
            prop_assert_eq!(block.get(i), (k.as_slice(), v.as_slice()));
        }
        // pushed one by one, or appended in two halves: the same block
        let mut pushed = Entries::new();
        for (k, v) in &owned {
            pushed.push(k, v);
        }
        prop_assert_eq!(&pushed, &block);
        let at = split.index(owned.len() + 1);
        let mut appended = Entries::from(owned[..at].to_vec());
        appended.append(Entries::from(owned[at..].to_vec()));
        prop_assert_eq!(&appended, &block);
    }

    #[test]
    fn both_backends_answer_any_interval_alike(
        stored in prop::collection::btree_map(key(1..4), prop::collection::vec(any::<u8>(), 0..4), 0..40),
        start in key(0..4),
        end in prop_oneof![Just(None), key(0..4).prop_map(Some)],
        limit in limit(),
        reverse in any::<bool>(),
        rebalanced in any::<bool>(),
    ) {
        let sim = SimCluster::new(ClusterConfig::instant(4));
        let live = LiveCluster::new(LiveConfig {
            shards_per_namespace: 4,
            pool_threads: 0,
            request_delay_us: 0,
        });
        let stores: [&dyn KvStore; 2] = [&sim, &live];
        let mut answers = Vec::new();
        for store in stores {
            let ns = store.namespace("t");
            for (k, v) in &stored {
                store.bulk_put(ns, k.clone(), v.clone());
            }
            if rebalanced {
                store.rebalance();
            }
            let mut session = Session::new();
            let mut responses = store.execute_round(
                &mut session,
                vec![
                    KvRequest::GetRange {
                        ns,
                        start: start.clone(),
                        end: end.clone(),
                        limit,
                        reverse,
                    },
                    KvRequest::CountRange {
                        ns,
                        start: start.clone(),
                        end: end.clone(),
                    },
                ],
            );
            let count = responses.remove(1).expect_count();
            let entries = responses.remove(0).into_entries().unwrap();
            prop_assert_eq!(session.stats.entries, entries.len() as u64);
            prop_assert_eq!(
                session.stats.bytes,
                entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>()
            );
            answers.push((entries, count));
        }

        // and both agree with a flat map
        let mut expected: Vec<KvEntry> = stored
            .iter()
            .filter(|(k, _)| {
                **k >= start && end.as_ref().is_none_or(|end| *k < end)
            })
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let count = expected.len() as u64;
        if reverse {
            expected.reverse();
        }
        expected.truncate(usize::try_from(limit.unwrap_or(u64::MAX)).unwrap_or(usize::MAX));
        prop_assert_eq!(&answers[0], &(expected, count), "SimCluster");
        prop_assert_eq!(&answers[1], &answers[0], "LiveCluster");
    }
}
