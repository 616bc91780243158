//! Logical data storage.
//!
//! Data lives once per namespace in an ordered map; *placement* (which node
//! serves which key range) is modeled separately, per namespace, by the
//! cluster, so replication affects timing and visibility without
//! duplicating bytes.
//!
//! Eventual consistency (§3, §7.2) is modeled with per-entry versions: each
//! write records its virtual commit time and keeps the previous version;
//! a read served by a non-primary replica only observes writes older than
//! the configured replica lag, otherwise it sees the previous version —
//! exactly the read-your-writes anomaly an asynchronously replicated store
//! exhibits.

use crate::op::Entries;
use crate::partition::SplitPoints;
use crate::time::Micros;
use piql_analysis::ordered::RwLock;
use piql_analysis::rank;
use std::collections::BTreeMap;
use std::ops::Bound;

/// One versioned entry. `None` data = tombstone.
#[derive(Debug, Clone, PartialEq)]
pub struct Versioned {
    pub data: Option<Vec<u8>>,
    pub written_at: Micros,
    pub prev: Option<(Option<Vec<u8>>, Micros)>,
}

impl Versioned {
    /// The value visible to a reader that only sees writes committed at or
    /// before `horizon`.
    pub fn visible_at(&self, horizon: Micros) -> Option<&[u8]> {
        if self.written_at <= horizon {
            self.data.as_deref()
        } else {
            match &self.prev {
                Some((data, at)) if *at <= horizon => data.as_deref(),
                _ => None,
            }
        }
    }
}

/// Range bounds over borrowed key bytes, as `BTreeMap::range::<[u8], _>`
/// takes them.
pub(crate) type ByteRange<'a> = (Bound<&'a [u8]>, Bound<&'a [u8]>);

/// `[start, end)` as bounds an ordered map can search with the caller's
/// slices, or `None` when the interval is empty or inverted — which
/// `BTreeMap::range` would panic on, and which a client can ask for (a
/// range predicate with `low >= high`, a cursor replayed under another
/// key).
pub(crate) fn byte_range<'a>(start: &'a [u8], end: Option<&'a [u8]>) -> Option<ByteRange<'a>> {
    match end {
        Some(end) if start >= end => None,
        Some(end) => Some((Bound::Included(start), Bound::Excluded(end))),
        None => Some((Bound::Included(start), Bound::Unbounded)),
    }
}

/// An ordered, versioned namespace.
#[derive(Debug)]
pub struct Namespace {
    entries: RwLock<BTreeMap<Vec<u8>, Versioned>>,
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespace {
    pub fn new() -> Self {
        Namespace {
            entries: RwLock::new(rank::SIM_STORE, "sim.store", BTreeMap::new()),
        }
    }

    pub fn put(&self, mut key: Vec<u8>, value: Option<Vec<u8>>, at: Micros) {
        let mut map = self.entries.write();
        match map.get_mut(&key) {
            Some(v) => {
                let old = (v.data.take(), v.written_at);
                v.prev = Some(old);
                v.data = value;
                v.written_at = at;
            }
            None => {
                // the map keeps the key as given, and a key split from its
                // entry's buffer (the default `bulk_put_all`) keeps the
                // value's room, which here would only be slack
                key.shrink_to_fit();
                map.insert(
                    key,
                    Versioned {
                        data: value,
                        written_at: at,
                        prev: None,
                    },
                );
            }
        }
    }

    pub fn get(&self, key: &[u8], horizon: Micros) -> Option<Vec<u8>> {
        self.entries
            .read()
            .get(key)
            .and_then(|v| v.visible_at(horizon).map(<[u8]>::to_vec))
    }

    /// Atomic compare-and-swap against the *latest* version (the store's
    /// primary replica coordinates TAS, so no lag applies): store `value`
    /// iff the latest is `expect`. `(true, None)` when it did, else
    /// `(false, the latest)`.
    pub fn test_and_set(
        &self,
        key: &[u8],
        expect: Option<&[u8]>,
        value: &[u8],
        at: Micros,
    ) -> (bool, Option<Vec<u8>>) {
        let mut map = self.entries.write();
        let current = map.get(key).and_then(|v| v.data.as_deref());
        if current != expect {
            return (false, current.map(<[u8]>::to_vec));
        }
        let value = Some(value.to_vec());
        match map.get_mut(key) {
            Some(v) => {
                let old = (v.data.take(), v.written_at);
                v.prev = Some(old);
                v.data = value;
                v.written_at = at;
            }
            None => {
                map.insert(
                    key.to_vec(),
                    Versioned {
                        data: value,
                        written_at: at,
                        prev: None,
                    },
                );
            }
        }
        (true, None)
    }

    /// Scan `[start, end)` (or reversed), appending up to `limit` visible
    /// entries to `out`. An empty or inverted interval holds nothing.
    pub fn range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: Option<u64>,
        reverse: bool,
        horizon: Micros,
        out: &mut Entries,
    ) {
        let Some(bounds) = byte_range(start, end) else {
            return;
        };
        let limit = usize::try_from(limit.unwrap_or(u64::MAX)).unwrap_or(usize::MAX);
        let map = self.entries.read();
        let visible = map
            .range::<[u8], _>(bounds)
            .filter_map(|(k, v)| Some((k.as_slice(), v.visible_at(horizon)?)));
        if reverse {
            out.extend_exact(visible.rev().take(limit));
        } else {
            out.extend_exact(visible.take(limit));
        }
    }

    pub fn count_range(&self, start: &[u8], end: Option<&[u8]>, horizon: Micros) -> u64 {
        let Some(bounds) = byte_range(start, end) else {
            return 0;
        };
        self.entries
            .read()
            .range::<[u8], _>(bounds)
            .filter(|(_, v)| v.visible_at(horizon).is_some())
            .count() as u64
    }

    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Partition split points at the quantiles of the keys held now.
    pub fn split_points(&self, parts: usize) -> SplitPoints {
        SplitPoints::at_quantiles(self.entries.read().keys(), parts)
    }

    /// Drop tombstones and old versions older than `horizon` (GC).
    pub fn compact(&self, horizon: Micros) {
        let mut map = self.entries.write();
        map.retain(|_, v| {
            if v.written_at <= horizon {
                v.prev = None;
            }
            !(v.data.is_none() && v.written_at <= horizon)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_and_tombstone() {
        let ns = Namespace::new();
        ns.put(b"a".to_vec(), Some(b"1".to_vec()), 10);
        assert_eq!(ns.get(b"a", 10), Some(b"1".to_vec()));
        ns.put(b"a".to_vec(), None, 20);
        assert_eq!(ns.get(b"a", 20), None);
        assert_eq!(ns.get(b"a", 15), Some(b"1".to_vec()), "old version visible");
    }

    #[test]
    fn a_key_built_with_room_is_stored_without_it() {
        let ns = Namespace::new();
        let mut key = Vec::with_capacity(64);
        key.extend_from_slice(b"key");
        ns.put(key, Some(b"record".to_vec()), 10);
        let map = ns.entries.read();
        let (stored, _) = map.first_key_value().unwrap();
        assert_eq!((stored.as_slice(), stored.capacity()), (&b"key"[..], 3));
    }

    #[test]
    fn replica_lag_hides_recent_writes() {
        let ns = Namespace::new();
        ns.put(b"k".to_vec(), Some(b"v1".to_vec()), 100);
        ns.put(b"k".to_vec(), Some(b"v2".to_vec()), 200);
        assert_eq!(ns.get(b"k", 250), Some(b"v2".to_vec()));
        assert_eq!(ns.get(b"k", 150), Some(b"v1".to_vec()));
        assert_eq!(ns.get(b"k", 50), None);
    }

    #[test]
    fn test_and_set_semantics() {
        let ns = Namespace::new();
        assert_eq!(ns.test_and_set(b"k", None, b"v", 10), (true, None));
        let (ok, cur) = ns.test_and_set(b"k", None, b"w", 20);
        assert!(!ok, "expected-absent fails when present");
        assert_eq!(cur, Some(b"v".to_vec()));
        let (ok, _) = ns.test_and_set(b"k", Some(b"v"), b"x", 30);
        assert!(ok, "conditional overwrite");
        assert_eq!(ns.get(b"k", 30), Some(b"x".to_vec()));
        assert_eq!(ns.get(b"k", 25), Some(b"v".to_vec()), "old version visible");
    }

    #[test]
    fn range_scans_forward_reverse_limit() {
        let ns = Namespace::new();
        for i in 0..10u8 {
            ns.put(vec![i], Some(vec![i]), 0);
        }
        let mut fwd = Entries::new();
        ns.range(&[2], Some(&[7]), None, false, 0, &mut fwd);
        assert_eq!(fwd.len(), 5);
        assert_eq!(fwd.get(0).0, [2]);
        let mut rev = Entries::new();
        ns.range(&[2], Some(&[7]), Some(2), true, 0, &mut rev);
        assert_eq!(rev.to_vec(), [(vec![6], vec![6]), (vec![5], vec![5])]);
        assert_eq!(ns.count_range(&[0], None, 0), 10);
    }

    #[test]
    fn empty_and_inverted_intervals_hold_nothing() {
        let ns = Namespace::new();
        for i in 0..10u8 {
            ns.put(vec![i], Some(vec![i]), 0);
        }
        for (start, end) in [([5], [5]), ([7], [2])] {
            for reverse in [false, true] {
                let mut out = Entries::new();
                ns.range(&start, Some(&end), None, reverse, 0, &mut out);
                assert!(out.is_empty());
            }
            assert_eq!(ns.count_range(&start, Some(&end), 0), 0);
        }
    }

    #[test]
    fn quantiles_and_compaction() {
        let ns = Namespace::new();
        for i in 0..100u8 {
            ns.put(vec![i], Some(vec![i]), 5);
        }
        assert_eq!(
            ns.split_points(4),
            SplitPoints::new(vec![vec![25], vec![50], vec![75]])
        );
        ns.put(vec![5], None, 10);
        ns.compact(20);
        assert_eq!(ns.len(), 99, "tombstone collected");
    }
}
