//! Property tests for partition routing: every key routes to exactly one
//! partition, and ranges cover exactly the partitions their keys live in.
//! What the stores answer over those partitions is `conformance.rs`'s.

use piql_kv::partition::SplitPoints;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_splits() -> impl Strategy<Value = SplitPoints> {
    prop::collection::btree_set(prop::collection::vec(any::<u8>(), 1..6), 0..8)
        .prop_map(|splits| SplitPoints::new(splits.into_iter().collect()))
}

/// Every byte string over `{0, 1, 2}` of length ≤ 3, ascending: a key
/// universe small enough to enumerate and closed under "is a split point"
/// and "is an interval bound" when those are drawn from it too.
fn universe() -> Vec<Vec<u8>> {
    let mut keys = vec![vec![]];
    for len in 0..3 {
        let longer: Vec<Vec<u8>> = keys
            .iter()
            .filter(|k| k.len() == len)
            .flat_map(|k| (0..3u8).map(move |b| [k.as_slice(), &[b]].concat()))
            .collect();
        keys.extend(longer);
    }
    keys.sort();
    keys
}

proptest! {
    #[test]
    fn key_routing_is_consistent_with_ranges(
        splits in arb_splits(),
        key in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let part = splits.part_of(&key);
        prop_assert!(part < splits.parts());
        // a singleton range [key, key+0x00) must route to exactly that
        // partition
        let mut end = key.clone();
        end.push(0);
        prop_assert_eq!(splits.parts_for_range(&key, Some(&end)), part..=part);
    }

    #[test]
    fn range_partitions_are_contiguous_and_ordered(
        splits in arb_splits(),
        a in prop::collection::vec(any::<u8>(), 0..8),
        b in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if lo == hi { return Ok(()); }
        // a range is contiguous and ascending by type; it starts where
        // `lo` routes and never runs off the last partition
        let parts = splits.parts_for_range(&lo, Some(&hi));
        prop_assert_eq!(*parts.start(), splits.part_of(&lo));
        prop_assert!(parts.end() < &splits.parts());
    }

    /// Against brute force over an enumerable key universe: a key lives in
    /// the part with as many split points at or below it, and an interval
    /// visits exactly the parts holding one of its keys — or, when it is
    /// empty or inverted and holds none, the one part `start` routes to.
    #[test]
    fn routing_matches_brute_force_over_a_small_universe(
        split_picks in prop::collection::btree_set(1usize..40, 0..6),
        start in 0usize..40,
        // 40 = unbounded
        end in 0usize..41,
    ) {
        let keys = universe();
        prop_assert_eq!(keys.len(), 40);
        let split_keys: Vec<Vec<u8>> = split_picks.iter().map(|&i| keys[i].clone()).collect();
        let splits = SplitPoints::new(split_keys.clone());
        for key in &keys {
            let below = split_keys.iter().filter(|s| *s <= key).count();
            prop_assert_eq!(splits.part_of(key), below);
        }
        let (start, end) = (&keys[start], keys.get(end));
        let mut holding: BTreeSet<usize> = keys
            .iter()
            .filter(|k| *k >= start && end.is_none_or(|e| *k < e))
            .map(|k| splits.part_of(k))
            .collect();
        if holding.is_empty() {
            holding.insert(splits.part_of(start));
        }
        let visited: BTreeSet<usize> = splits
            .parts_for_range(start, end.map(|e| e.as_slice()))
            .collect();
        prop_assert_eq!(visited, holding);
    }
}
