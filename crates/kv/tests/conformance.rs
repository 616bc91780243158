//! The store suite. The engine runs on `SimCluster` and `LiveCluster`
//! alike, so every [`KvStore`] owes one round contract: answers by
//! position, reads that see the session's writes, ranges in key order,
//! test-and-set, batched loads, rebalances invisible to queries. What a
//! round books — requests, visits, entries, bytes — must not depend on the
//! venue that serves it either. Each case the stores owe is a function
//! over a [`Venue`], checked against one flat `BTreeMap` reference and run
//! on each venue as `sim::<case>`, `live_inline::<case>` and
//! `live_fanned::<case>`. The cases after them are `LiveCluster`'s own: its
//! write-ahead sink, its batch layouts and skew trigger, rebalances racing
//! sessions, and round timing on the wall clock.

use piql_kv::partition::SplitPoints;
use piql_kv::testkit::swap;
use piql_kv::{
    ClusterConfig, Entries, KvEntry, KvRequest, KvResponse, KvStore, LiveCluster, LiveConfig, NsId,
    Probe, ReadAnswer, ReadRound, Session, SessionStats, SimCluster, WalSink,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- venues

/// Where a case runs: a `SimCluster`, or a `LiveCluster` whose rounds are
/// served on the thread that issues them or fanned out over its pool.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Venue {
    Sim,
    LiveInline,
    LiveFanned,
}

impl fmt::Display for Venue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Venue::Sim => "SimCluster",
            Venue::LiveInline => "LiveCluster inline",
            Venue::LiveFanned => "LiveCluster fanned",
        })
    }
}

impl Venue {
    /// A fresh store of this venue, its namespaces laid out in 4 parts: an
    /// instant, strongly visible `SimCluster`; a `LiveCluster` without a
    /// pool; or one whose requests take 1 µs of service time, so that its
    /// rounds of two requests or more fan out over 2 workers.
    fn store(self) -> Store {
        match self {
            Venue::Sim => Store::Sim(SimCluster::new(ClusterConfig::instant(4))),
            Venue::LiveInline => Store::Live(live(4, 0, 0)),
            Venue::LiveFanned => Store::Live(live(4, 2, 1)),
        }
    }
}

/// A `LiveCluster` laying namespaces out in `shards`, with `pool_threads`
/// workers and `request_delay_us` of service time per request.
fn live(shards: usize, pool_threads: usize, request_delay_us: u64) -> LiveCluster {
    LiveCluster::new(LiveConfig {
        shards_per_namespace: shards,
        pool_threads,
        request_delay_us,
    })
}

/// A venue's store: the one [`KvStore`] the cases program against, and
/// what only a `LiveCluster` keeps — its own counters and its pool.
enum Store {
    Sim(SimCluster),
    Live(LiveCluster),
}

impl std::ops::Deref for Store {
    type Target = dyn KvStore;

    fn deref(&self) -> &Self::Target {
        match self {
            Store::Sim(sim) => sim,
            Store::Live(live) => live,
        }
    }
}

impl Store {
    fn live(&self) -> Option<&LiveCluster> {
        match self {
            Store::Sim(_) => None,
            Store::Live(live) => Some(live),
        }
    }

    /// The requests and the shard visits the store's own counters have
    /// booked (a `SimCluster` keeps none).
    fn booked(&self) -> [u64; 2] {
        self.live().map_or([0, 0], |live| {
            let stats = live.stats_snapshot();
            [stats.ops, stats.physical_ops]
        })
    }

    /// Rounds scattered over the pool so far.
    fn scattered(&self) -> u64 {
        let scattered =
            |live: &LiveCluster| live.pool().stats.fanned_rounds.load(Ordering::Relaxed);
        self.live().map_or(0, scattered)
    }

    /// `serve` on a fresh session: what it answers, how the session
    /// accounts it, and what the store's own counters booked meanwhile.
    fn measured<T>(&self, serve: impl FnOnce(&mut Session) -> T) -> (T, SessionStats, [u64; 2]) {
        let (before, mut session) = (self.booked(), Session::new());
        let answer = serve(&mut session);
        let after = self.booked();
        let booked = [after[0] - before[0], after[1] - before[1]];
        (answer, session.stats, booked)
    }
}

/// Runs each case and property every store owes on each venue, as
/// `sim::<case>`, `live_inline::<case>` and `live_fanned::<case>`. A
/// property is listed with the strategy its one input is drawn from.
macro_rules! on_each_venue {
    (cases: [$($case:ident),* $(,)?] properties: [$($property:ident($input:ident)),* $(,)?]) => {
        on_each_venue!(@venue sim Sim [$($case)*] [$($property $input)*]);
        on_each_venue!(@venue live_inline LiveInline [$($case)*] [$($property $input)*]);
        on_each_venue!(@venue live_fanned LiveFanned [$($case)*] [$($property $input)*]);
    };
    (@venue $module:ident $venue:ident [$($case:ident)*] [$($property:ident $input:ident)*]) => {
        mod $module {
            use super::*;

            $(#[test]
            fn $case() {
                super::$case(Venue::$venue)
            })*

            proptest! {
                $(#[test]
                fn $property(input in $input()) {
                    super::$property(Venue::$venue, input)?;
                })*
            }
        }
    };
}

on_each_venue!(
    cases: [
        namespaces_are_stable_and_distinct,
        put_get_delete_read_your_writes,
        test_and_set_conformance,
        entry_layout_does_not_leak_into_key_order,
        rounds_answer_positionally_and_advance_the_clock,
        range_visits_follow_the_split_points,
        rebalance_preserves_results_and_cursor_pages_on_skewed_data,
        concurrent_sessions_never_cross_talk,
        the_venue_fans_out_as_named,
        empty_rounds_are_free,
    ]
    properties: [
        ranges_answer_as_the_reference(range_input),
        entry_points_answer_as_their_requests(entry_points_input),
        bulk_put_all_stores_what_puts_one_by_one_store(bulk_input),
    ]
);

// ---------------------------------------------------- inputs and reference

/// A small alphabet of key bytes, so that short random keys collide, share
/// prefixes and, in a namespace cut into parts, straddle them.
const ALPHABET: [u8; 8] = [0, 1, 63, 64, 65, 128, 200, 255];

fn key(len: impl Into<prop::collection::SizeRange>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]), len)
}

/// An interval's exclusive end, or none for unbounded.
fn end() -> impl Strategy<Value = Option<Vec<u8>>> {
    prop_oneof![Just(None), key(0..4).prop_map(Some)]
}

fn limit() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..12).prop_map(Some), Just(Some(u64::MAX))]
}

fn value() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..4)
}

/// What a store holds before a property reads it, and whether it was
/// rebalanced since, so that reads meet learned split points rather than
/// one part.
type Held = (BTreeMap<Vec<u8>, Vec<u8>>, bool);

fn held() -> impl Strategy<Value = Held> {
    (
        prop::collection::btree_map(key(1..4), value(), 0..40),
        any::<bool>(),
    )
}

/// Pairs as a batch may bring them: unsorted, keys repeated.
fn pairs(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<KvEntry>> {
    prop::collection::vec((key(1..4), value()), len)
}

/// The flat reference every venue answers as: one namespace in one
/// ordered map, with no parts and no clock.
#[derive(Default)]
struct Reference(BTreeMap<Vec<u8>, Vec<u8>>);

impl Reference {
    /// What a store holding this answers `request`; then it holds what the
    /// request leaves.
    fn answer(&mut self, request: &KvRequest) -> KvResponse {
        match request {
            KvRequest::Get { key, .. } => KvResponse::Value(self.0.get(key).cloned()),
            KvRequest::Put { key, value, .. } => {
                self.0.insert(key.clone(), value.clone());
                KvResponse::Done
            }
            KvRequest::Delete { key, .. } => {
                self.0.remove(key);
                KvResponse::Done
            }
            KvRequest::TestAndSet {
                entry,
                key_len,
                expect,
                ..
            } => {
                let (key, value) = entry.split_at(*key_len);
                let current = self.0.get(key).cloned();
                let success = current == *expect;
                if success {
                    self.0.insert(key.to_vec(), value.to_vec());
                }
                // the caller holds the value it sent
                let current = current.filter(|_| !success);
                KvResponse::TasResult { success, current }
            }
            KvRequest::GetRange {
                start,
                end,
                limit,
                reverse,
                ..
            } => {
                let mut found: Vec<KvEntry> = self.within(start, end).collect();
                if *reverse {
                    found.reverse();
                }
                found.truncate(usize::try_from(limit.unwrap_or(u64::MAX)).unwrap_or(usize::MAX));
                KvResponse::Entries(Entries::from(found))
            }
            KvRequest::CountRange { start, end, .. } => {
                KvResponse::Count(self.within(start, end).count() as u64)
            }
        }
    }

    /// The pairs `[start, end)` holds, in key order.
    fn within<'a>(
        &'a self,
        start: &'a [u8],
        end: &'a Option<Vec<u8>>,
    ) -> impl Iterator<Item = KvEntry> + 'a {
        (self.0.iter())
            .filter(move |(key, _)| {
                key.as_slice() >= start && end.as_ref().is_none_or(|end| *key < end)
            })
            .map(|(key, value)| (key.clone(), value.clone()))
    }
}

/// The entries and the key and value bytes `responses` ship back: what a
/// session books for them.
fn shipped(responses: &[KvResponse]) -> (u64, u64) {
    let blocks = responses.iter().filter_map(|r| r.entries().ok());
    let sizes = blocks.map(|block| (block.len() as u64, block.payload_len() as u64));
    sizes.fold((0, 0), |(entries, bytes), (n, b)| (entries + n, bytes + b))
}

fn get(ns: NsId, key: &[u8]) -> KvRequest {
    let key = key.to_vec();
    KvRequest::Get { ns, key }
}

fn put(ns: NsId, key: &[u8], value: &[u8]) -> KvRequest {
    let (key, value) = (key.to_vec(), value.to_vec());
    KvRequest::Put { ns, key, value }
}

fn range(
    ns: NsId,
    start: &[u8],
    end: Option<&[u8]>,
    limit: Option<u64>,
    reverse: bool,
) -> KvRequest {
    let (start, end) = (start.to_vec(), end.map(<[u8]>::to_vec));
    KvRequest::GetRange {
        ns,
        start,
        end,
        limit,
        reverse,
    }
}

fn count(ns: NsId, start: &[u8], end: Option<&[u8]>) -> KvRequest {
    let (start, end) = (start.to_vec(), end.map(<[u8]>::to_vec));
    KvRequest::CountRange { ns, start, end }
}

/// A round of one.
fn one(store: &dyn KvStore, s: &mut Session, request: KvRequest) -> KvResponse {
    store.execute_round(s, vec![request]).remove(0)
}

/// The key successor — the exclusive-start continuation a pagination
/// cursor uses (`ScanAfter` resumes strictly after the last key shipped).
fn successor(key: &[u8]) -> Vec<u8> {
    [key, &[0]].concat()
}

/// `pairs` bulk put one by one into namespace `t`, rebalanced after if
/// asked.
fn load<'a>(
    store: &dyn KvStore,
    pairs: impl IntoIterator<Item = (&'a Vec<u8>, &'a Vec<u8>)>,
    rebalanced: bool,
) -> NsId {
    let ns = store.namespace("t");
    for (key, value) in pairs {
        store.bulk_put(ns, key.clone(), value.clone());
    }
    if rebalanced {
        store.rebalance();
    }
    ns
}

/// Everything `ns` holds, in key order.
fn scan(store: &dyn KvStore, ns: NsId) -> Vec<KvEntry> {
    let everything = range(ns, b"", None, None, false);
    let answer = store.execute_one(&mut Session::new(), everything);
    answer.into_entries().unwrap()
}

/// A batch of `(key, value)` pairs, each joined into its key's buffer as
/// it is pushed.
fn joined(pairs: impl IntoIterator<Item = KvEntry>) -> impl FnMut(&mut dyn FnMut(Vec<u8>, usize)) {
    let mut pairs = Some(pairs);
    move |push| {
        for (mut key, value) in pairs.take().into_iter().flatten() {
            let key_len = key.len();
            key.extend_from_slice(&value);
            push(key, key_len);
        }
    }
}

// ------------------------------------------------ cases every store owes

fn namespaces_are_stable_and_distinct(venue: Venue) {
    let store = venue.store();
    let (a, b) = (store.namespace("tables/a"), store.namespace("tables/b"));
    assert_ne!(a, b, "{venue}: distinct names, distinct namespaces");
    assert_eq!(a, store.namespace("tables/a"), "{venue}: stable resolution");
    // the same key in different namespaces never collides
    let mut s = Session::new();
    one(&*store, &mut s, put(a, b"k", b"in-a"));
    let r = one(&*store, &mut s, get(b, b"k"));
    assert_eq!(r.expect_value(), None, "{venue}: namespace isolation");
}

/// `script` on `venue`, over `stored` bulk put first. Each request is
/// sent as a round of one and through `execute_one`, each way on a
/// namespace of its own. It answers as the flat reference does, and both
/// ways are booked as one round of one request that ships what the answer
/// holds: by the session, and alike by the store's own counters.
fn follows_the_reference(
    venue: Venue,
    stored: &[(&[u8], &[u8])],
    script: impl Fn(NsId) -> Vec<KvRequest>,
) {
    let store = venue.store();
    let (by_round, by_one) = (store.namespace("round"), store.namespace("one"));
    let mut reference = Reference::default();
    for &(key, value) in stored {
        for ns in [by_round, by_one] {
            store.bulk_put(ns, key.to_vec(), value.to_vec());
        }
        reference.0.insert(key.to_vec(), value.to_vec());
    }
    for (sent, alone) in script(by_round).into_iter().zip(script(by_one)) {
        let what = format!("{venue}: {sent:?}");
        let expected = reference.answer(&sent);
        let round = store.measured(|s| one(&*store, s, sent));
        assert_eq!(round.0, expected, "{what}");
        let by_execute_one = store.measured(|s| store.execute_one(s, alone));
        assert_eq!(by_execute_one, round, "{what}: execute_one");
        let (_, stats, booked) = round;
        let (entries, bytes) = shipped(&[expected]);
        let one_request = SessionStats {
            rounds: 1,
            logical_requests: 1,
            // at least one visit
            physical_requests: stats.physical_requests.max(1),
            entries,
            bytes,
        };
        assert_eq!(stats, one_request, "{what}");
        if store.live().is_some() {
            assert_eq!(booked[0], 1, "{what}: one request booked");
        }
    }
}

fn put_get_delete_read_your_writes(venue: Venue) {
    follows_the_reference(venue, &[], |ns| {
        vec![
            get(ns, b"k"),
            put(ns, b"k", b"v1"),
            get(ns, b"k"),
            put(ns, b"k", b"v2"),
            get(ns, b"k"),
            range(ns, b"", None, None, false),
            count(ns, b"", None),
            KvRequest::Delete {
                ns,
                key: b"k".to_vec(),
            },
            get(ns, b"k"),
        ]
    });
}

/// A swap that applies answers none (the caller holds the value it sent);
/// one that fails reports the value stored and changes nothing. Last, the
/// store side of the engine's rejected duplicate insert (§7.2): the index
/// entry goes in first, the expect-absent swap then fails — and must hand
/// back the stored record byte for byte while changing nothing, because
/// the engine decides from it which index entries belong to the live row
/// and may not be undone.
fn test_and_set_conformance(venue: Venue) {
    let stored: [(&[u8], &[u8]); 2] = [(b"pk", b"live row"), (b"town+pk", b"")];
    follows_the_reference(venue, &stored, |ns| {
        vec![
            swap(ns, b"k", b"a", None),
            get(ns, b"k"),
            swap(ns, b"k", b"b", None),
            swap(ns, b"k", b"b", Some(b"a")),
            get(ns, b"k"),
            swap(ns, b"k", b"c", Some(b"a")),
            get(ns, b"k"),
            swap(ns, b"absent", b"c", Some(b"a")),
            // an empty value is stored, and an empty key holds one
            swap(ns, b"", b"", None),
            swap(ns, b"", b"x", None),
            put(ns, b"town+pk", b""),
            swap(ns, b"pk", b"duplicate", None),
            get(ns, b"pk"),
            count(ns, b"", None),
        ]
    });
}

/// Keys that are prefixes of one another, the empty key and empty values,
/// with values chosen so that comparing key and value as one buffer —
/// either order of the two, or with the key's length leading — would
/// reverse the key order: a store that keeps an entry as one buffer must
/// still order, bound, count, answer and export by the key alone.
fn entry_layout_does_not_leak_into_key_order(venue: Venue) {
    // in key order
    let entries: Vec<KvEntry> = vec![
        (vec![], vec![0xFF, 0xFF]),
        (vec![1], vec![0xFF]),
        (vec![1, 0], vec![]),
        (vec![1, 0, 0], vec![0xFE]),
        (vec![2], vec![]),
        (vec![0xFF], vec![0]),
    ];
    let store = venue.store();
    let ns = store.namespace("layout");
    let mut reference = Reference(entries.iter().cloned().collect());
    let mut s = Session::new();
    // loaded out of order, half by round and half in bulk
    for (i, (key, value)) in entries.iter().enumerate().rev() {
        if i % 2 == 0 {
            store.bulk_put(ns, key.clone(), value.clone());
        } else {
            one(&*store, &mut s, put(ns, key, value));
        }
    }
    let mut reads = vec![
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
    let keys: [&[u8]; 7] = [&[], &[1], &[1, 0], &[1, 0, 0], &[1, 0, 0, 0], &[0], &[0xFF]];
    reads.extend(keys.map(|key| get(ns, key)));
    let expected: Vec<KvResponse> = reads.iter().map(|r| reference.answer(r)).collect();
    let answers = |s: &mut Session| -> Vec<KvResponse> {
        reads.iter().map(|r| one(&*store, s, r.clone())).collect()
    };
    assert_eq!(answers(&mut s), expected, "{venue}");
    // a failed test-and-set hands back the stored value, empty or not
    for key in [&[1, 0][..], &[]] {
        let sent = swap(ns, key, &[7], None);
        let expected = reference.answer(&sent);
        assert_eq!(one(&*store, &mut s, sent), expected, "{venue}: {key:?}");
    }
    // a point read of every key, where the venue serves them
    for (key, value) in &entries {
        let mut out = vec![9];
        if let Some(found) = store.point_get(&mut s, ns, key, &mut out) {
            assert!(found, "{venue}: {key:?}");
            assert_eq!(out[1..], value[..], "{venue}: {key:?}");
        }
    }
    // re-sharding reads the keys too; the answers do not move
    store.rebalance();
    assert_eq!(answers(&mut s), expected, "{venue}: after a rebalance");
    // a checkpoint exports the same entries in the same order
    if let Some(live) = store.live() {
        let exported = vec![("layout".to_string(), entries)];
        assert_eq!(live.export_namespaces(), exported, "{venue}");
    }
}

fn rounds_answer_positionally_and_advance_the_clock(venue: Venue) {
    let store = venue.store();
    let ns = store.namespace("mix");
    let mut s = Session::new();
    let t0 = s.begin();
    let round = vec![
        put(ns, b"a", b"1"),
        get(ns, b"missing"),
        count(ns, b"", None),
    ];
    let answers = store.execute_round(&mut s, round);
    assert!(
        matches!(
            answers[..],
            [
                KvResponse::Done,
                KvResponse::Value(None),
                KvResponse::Count(_)
            ]
        ),
        "{venue}: one answer per request, in request order: {answers:?}"
    );
    let stats = s.stats;
    assert_eq!((stats.rounds, stats.logical_requests), (1, 3), "{venue}");
    assert!(stats.physical_requests >= 3, "{venue}");
    assert!(s.now >= t0, "{venue}: the clock never goes backwards");
}

/// 256 one-byte keys laid out in 4 parts are cut at [64], [128] and
/// [192]. Over those, a range visits each part it spans in scan order
/// until its limit is met, a count every part it spans, and an interval
/// that holds nothing the one part `start` routes to — an exclusive end on
/// a cut never visits the part to its right. Intervals have bounds on,
/// beside and between the cuts, open ends, and nothing or inverted bounds
/// between them; each is scanned both ways, limited and counted, and
/// answered as the reference answers. The session and the store's own
/// counters book the same visits.
fn range_visits_follow_the_split_points(venue: Venue) {
    let store = venue.store();
    let ns = store.namespace("edge");
    let mut reference = Reference((0..=255u8).map(|i| (vec![i], vec![i])).collect());
    for (key, value) in &reference.0 {
        store.bulk_put(ns, key.clone(), value.clone());
    }
    store.rebalance();
    for balance in store.balance() {
        assert_eq!(balance.entries, [64; 4], "{venue}");
    }
    let splits = SplitPoints::new(vec![vec![64], vec![128], vec![192]]);
    let bounds: Vec<Vec<u8>> = [0u8, 63, 64, 65, 100, 127, 128, 191, 192, 193, 255]
        .into_iter()
        .flat_map(|b| [vec![b], vec![b, 0]])
        .chain([vec![]])
        .collect();
    let ends = bounds.iter().map(|end| Some(end.as_slice())).chain([None]);
    for (start, end) in ends.flat_map(|end| bounds.iter().map(move |start| (start, end))) {
        // how many of the interval's keys each part it spans holds
        let inside = |key: &Vec<u8>| *key >= *start && end.is_none_or(|end| key[..] < *end);
        let held: Vec<usize> = (splits.parts_for_range(start, end))
            .map(|part| {
                let keys = reference.0.keys();
                keys.filter(|key| inside(key) && splits.part_of(key) == part)
                    .count()
            })
            .collect();
        let visits = |limit: usize, reverse: bool| {
            let mut found = 0;
            let mut order: Vec<usize> = held.clone();
            if reverse {
                order.reverse();
            }
            let visited = order.into_iter().take_while(|&holds| {
                let more = found < limit;
                found += holds;
                more
            });
            visited.count() as u64
        };
        for (request, want) in [
            (
                range(ns, start, end, None, false),
                visits(usize::MAX, false),
            ),
            (range(ns, start, end, Some(70), false), visits(70, false)),
            (range(ns, start, end, Some(70), true), visits(70, true)),
            (count(ns, start, end), held.len() as u64),
        ] {
            let what = format!("{venue}: {request:?}");
            let expected = reference.answer(&request);
            let (answer, stats, booked) = store.measured(|s| one(&*store, s, request));
            assert_eq!(answer, expected, "{what}");
            assert_eq!(stats.physical_requests, want, "{what}");
            if store.live().is_some() {
                assert_eq!(booked, [1, want], "{what}");
            }
        }
    }
}

/// Rebalancing is invisible to queries. A skewed load (90% of keys under
/// one leading byte) put one by one lays nothing out. Before and after a
/// `rebalance()`, every venue answers as the reference, and a pagination
/// that straddles the rebalance, shipping pages before *and* after it,
/// sees exactly the rows of an uninterrupted scan. A store that reports
/// its balance has evened its parts out and restarted their op counters.
/// A namespace that was empty through the rebalance still serves.
fn rebalance_preserves_results_and_cursor_pages_on_skewed_data(venue: Venue) {
    let store = venue.store();
    let (ns, empty) = (store.namespace("skew"), store.namespace("empty"));
    let mut reference = Reference::default();
    for i in 0..500u16 {
        // the big-endian counter suffix keeps every key unique
        let mut key = match i % 10 {
            0 => vec![(i % 251) as u8, 0xFF],
            _ => vec![0x61, 0x61],
        };
        key.extend_from_slice(&i.to_be_bytes());
        store.bulk_put(ns, key.clone(), i.to_be_bytes().to_vec());
        reference.0.insert(key, i.to_be_bytes().to_vec());
    }
    let skew = || store.balance().into_iter().find(|b| b.name == "skew");
    if let Some(skew) = skew() {
        assert_eq!(skew.entries, [500], "{venue}: single puts lay nothing out");
    }
    let queries = vec![
        range(ns, &[], None, None, false),
        range(ns, &[0x61], Some(&[0x62]), None, false),
        range(ns, &[0x20], None, Some(17), true),
        count(ns, &[0x61], Some(&[0x62])),
    ];
    let expected: Vec<KvResponse> = queries.iter().map(|q| reference.answer(q)).collect();
    let mut s = Session::new();
    let before = store.execute_round(&mut s, queries.clone());
    assert_eq!(before, expected, "{venue}: before a rebalance");

    // pagination started against the old layout...
    let mut page = |start: &[u8]| {
        let next = one(&*store, &mut s, range(ns, start, None, Some(100), false));
        next.into_entries().unwrap()
    };
    let mut paged = page(&[]);
    store.rebalance();
    if let Some(skew) = skew() {
        let share = skew.max_entry_share();
        assert!(share <= 2.0 / skew.shards as f64, "{venue}: {skew:?}");
        assert_eq!(skew.ops, vec![0; skew.shards], "{venue}: ops restart");
    }
    if let Some(live) = store.live() {
        assert_eq!(live.stats_snapshot().rebalances, 1, "{venue}");
    }
    // ...resumes against the new one, with no gap and no duplicate
    loop {
        let next = page(&successor(&paged.last().unwrap().0));
        if next.is_empty() {
            break;
        }
        paged.extend(next);
    }
    assert_eq!(
        paged,
        expected[0].expect_entries().to_vec(),
        "{venue}: pages straddling the rebalance equal the full scan"
    );
    let after = store.execute_round(&mut s, queries);
    assert_eq!(after, expected, "{venue}: after a rebalance");

    let r = one(&*store, &mut s, get(empty, b"k"));
    assert_eq!(r.expect_value(), None, "{venue}");
    one(&*store, &mut s, put(empty, b"k", b"v"));
    let r = one(&*store, &mut s, count(empty, b"", None));
    assert_eq!(
        r.expect_count(),
        1,
        "{venue}: an empty namespace still serves"
    );
}

/// Sessions on many threads share one store, and its pool where it has
/// one: every round's responses are its own, in request order.
fn concurrent_sessions_never_cross_talk(venue: Venue) {
    let store = venue.store();
    let ns = store.namespace("mt");
    for i in 0..=255u8 {
        store.bulk_put(ns, vec![i], vec![i]);
    }
    std::thread::scope(|scope| {
        for t in 0..8u8 {
            let store = &store;
            scope.spawn(move || {
                let key = |i: u8| [t.wrapping_mul(16).wrapping_add(i)];
                let mut s = Session::new();
                for _ in 0..50 {
                    let round = (0..16).map(|i| get(ns, &key(i))).collect();
                    let answers = store.execute_round(&mut s, round);
                    for (i, answer) in (0..16).zip(&answers) {
                        assert_eq!(answer.expect_value(), Some(&key(i)[..]), "{venue}");
                    }
                }
            });
        }
    });
}

/// The venue is what its name says. On `LiveCluster fanned` a round of
/// two requests or more, reads and writes alike, is scattered over the
/// pool; the same round with no service time stays on its caller, as an
/// in-memory lookup costs less than the hop to a worker. No other venue
/// scatters a round. Responses come back in request order either way.
fn the_venue_fans_out_as_named(venue: Venue) {
    let store = venue.store();
    let ns = store.namespace("t");
    let rounds = || {
        let puts = (0..16u8).map(|i| put(ns, &[i], &[i])).collect();
        store.execute_round(&mut Session::new(), puts);
        let gets = (0..16u8).map(|i| get(ns, &[i])).collect();
        let answers = store.execute_round(&mut Session::new(), gets);
        for (i, answer) in (0..16u8).zip(&answers) {
            assert_eq!(answer.expect_value(), Some(&[i][..]), "{venue}");
        }
    };
    rounds();
    let scattered = match venue {
        Venue::LiveFanned => 2,
        Venue::Sim | Venue::LiveInline => 0,
    };
    assert_eq!(store.scattered(), scattered, "{venue}: rounds scattered");
    if let Some(live) = store.live() {
        let worker_tasks = || live.pool().stats.worker_tasks.load(Ordering::Relaxed);
        let tasks = worker_tasks();
        live.set_request_delay_us(0);
        rounds();
        assert_eq!(
            (store.scattered(), worker_tasks()),
            (scattered, tasks),
            "{venue}: rounds without service time stay on their caller"
        );
    }
}

fn empty_rounds_are_free(venue: Venue) {
    let store = venue.store();
    let ns = store.namespace("t");
    let mut s = Session::new();
    let before = s.now;
    let answers = store.execute_round(&mut s, vec![]);
    assert!(answers.is_empty(), "{venue}");
    let mut answer = ReadAnswer::default();
    store
        .read_round(&mut s, &ReadRound::gets(ns, 0), &mut answer)
        .unwrap();
    assert!(answer.is_empty(), "{venue}");
    let accounted = (s.stats, s.now, store.booked());
    let free = (SessionStats::default(), before, [0, 0]);
    assert_eq!(accounted, free, "{venue}: not accounted, no time consumed");
}

// ------------------------------------------- properties every store owes

type RangeInput = (Held, Vec<u8>, Option<Vec<u8>>, Option<u64>, bool);

fn range_input() -> impl Strategy<Value = RangeInput> {
    (held(), key(0..4), end(), limit(), any::<bool>())
}

/// A range and a count of any interval answer as the flat reference does
/// — entries, order, limit, count — with the entries and bytes the session
/// books. That holds for the empty and inverted intervals a client can
/// provoke (a range predicate with `low >= high`, a cursor replayed under
/// another key), on which the ordered map underneath panics
/// (`BTreeMap::range`: "range start is greater than range end"); each of
/// their requests costs one visit.
fn ranges_answer_as_the_reference(
    venue: Venue,
    ((stored, rebalanced), start, end, limit, reverse): RangeInput,
) -> Result<(), TestCaseError> {
    let store = venue.store();
    let ns = load(&*store, &stored, rebalanced);
    let requests = vec![
        range(ns, &start, end.as_deref(), limit, reverse),
        count(ns, &start, end.as_deref()),
    ];
    let mut reference = Reference(stored);
    let expected: Vec<KvResponse> = requests.iter().map(|r| reference.answer(r)).collect();
    let (answers, stats, _) = store.measured(|s| store.execute_round(s, requests));
    prop_assert_eq!(&answers, &expected, "{}", venue);
    prop_assert_eq!(
        (stats.entries, stats.bytes),
        shipped(&expected),
        "{}",
        venue
    );
    // a limit of zero is left out: a `SimCluster` visits nothing for it
    if end.as_ref().is_some_and(|end| *end <= start) && limit != Some(0) {
        prop_assert_eq!(stats.physical_requests, 2, "{}: one visit each", venue);
    }
    Ok(())
}

/// One packed read round: gets of stored keys (`true`, at the index) or of
/// random ones, or ranges sharing one limit and one direction.
type RoundSpec = (
    bool,
    Vec<(bool, prop::sample::Index, Vec<u8>)>,
    Vec<(Vec<u8>, Option<Vec<u8>>)>,
    Option<u64>,
    bool,
);

fn round_spec() -> impl Strategy<Value = RoundSpec> {
    let get = (any::<bool>(), any::<prop::sample::Index>(), key(0..4));
    (
        any::<bool>(),
        prop::collection::vec(get, 0..8),
        prop::collection::vec((key(0..4), end()), 0..6),
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

type EntryPointsInput = (Held, Vec<RoundSpec>);

fn entry_points_input() -> impl Strategy<Value = EntryPointsInput> {
    (held(), prop::collection::vec(round_spec(), 1..6))
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

/// `read_round` answers exactly what the round of requests it stands for
/// answers: the flat reference's entries, the same end for each probe, the
/// same accounting by the session and by the store's own counters. That
/// holds for gets that hit and miss, for ranges forward and reverse,
/// limited, across parts, empty and inverted, and for one answer handed
/// to a sequence of rounds, as an executing thread hands its scratch
/// answer to each operator. A round is scattered over the pool where the
/// venue fans out and it has two probes or more. Where the venue serves
/// `point_get` (a `SimCluster` declines), each get answers as the round of
/// one `GetRange [key, key‖0x00)`: its value, booked alike.
fn entry_points_answer_as_their_requests(
    venue: Venue,
    ((stored, rebalanced), rounds): EntryPointsInput,
) -> Result<(), TestCaseError> {
    let store = venue.store();
    let ns = load(&*store, &stored, rebalanced);
    let keys: Vec<Vec<u8>> = stored.keys().cloned().collect();
    let mut reference = Reference(stored);
    let mut reused = ReadAnswer::default();
    for spec in &rounds {
        let round = build(ns, &keys, spec);
        let mut expected = ReadAnswer::default();
        expected.reset(round.len(), 0, 0);
        for probe in round.probes() {
            let response = reference.answer(&probe.request(ns));
            expected.push_response(probe, &response).unwrap();
        }
        let fresh = |via: &dyn KvStore| {
            store.measured(|s| {
                let mut answer = ReadAnswer::default();
                via.read_round(s, &round, &mut answer).map(|()| answer)
            })
        };
        let by_requests = fresh(&ByRequests(&*store));
        prop_assert_eq!(&by_requests.0, &Ok(expected), "{}", venue);
        let scattered = store.scattered();
        prop_assert_eq!(&fresh(&*store), &by_requests, "{}", venue);
        let fans_out = venue == Venue::LiveFanned && round.len() >= 2;
        prop_assert_eq!(
            store.scattered() > scattered,
            fans_out,
            "{}: fan-out",
            venue
        );
        let (kept, stats, booked) = store.measured(|s| store.read_round(s, &round, &mut reused));
        let kept = (kept.map(|()| reused.clone()), stats, booked);
        prop_assert_eq!(&kept, &by_requests, "{}: a reused answer", venue);

        for probe in round.probes() {
            let Probe::Get(key) = probe else { continue };
            let mut value = Vec::new();
            let (found, stats, booked) =
                store.measured(|s| store.point_get(s, ns, key, &mut value));
            let Some(found) = found else {
                prop_assert_eq!(venue, Venue::Sim, "only a SimCluster declines");
                continue;
            };
            let stored = reference.0.get(key).map(Vec::as_slice);
            prop_assert_eq!(found, stored.is_some(), "{}: point_get {:?}", venue, key);
            prop_assert_eq!(
                &value[..],
                stored.unwrap_or_default(),
                "{}: {:?}",
                venue,
                key
            );
            let as_range = range(ns, key, Some(&successor(key)), None, false);
            let (_, round_stats, round_booked) = store.measured(|s| one(&*store, s, as_range));
            prop_assert_eq!(
                (stats, booked),
                (round_stats, round_booked),
                "{}: {:?}",
                venue,
                key
            );
        }
    }
    Ok(())
}

type BulkInput = (Vec<KvEntry>, Vec<KvEntry>, bool);

fn bulk_input() -> impl Strategy<Value = BulkInput> {
    (pairs(0..40), pairs(0..60), any::<bool>())
}

/// [`KvStore::bulk_put_all`] leaves a store exactly as putting the same
/// pairs one by one does — the reference, the last of equal keys winning
/// — for batches that arrive unsorted, repeat keys, and land in empty
/// parts, in parts longer than their run and in parts shorter than it.
/// What it stores is readable at once, and booked as one write per pair.
fn bulk_put_all_stores_what_puts_one_by_one_store(
    venue: Venue,
    (existing, batch, rebalanced): BulkInput,
) -> Result<(), TestCaseError> {
    let mut reference = Reference::default();
    reference.0.extend(existing.iter().chain(&batch).cloned());
    for batched in [false, true] {
        let store = venue.store();
        let ns = load(&*store, existing.iter().map(|(k, v)| (k, v)), rebalanced);
        if batched {
            store.bulk_put_all(ns, &mut joined(batch.iter().cloned()));
        } else {
            for (key, value) in &batch {
                store.bulk_put(ns, key.clone(), value.clone());
            }
        }
        if store.live().is_some() {
            let writes = (existing.len() + batch.len()) as u64;
            prop_assert_eq!(store.booked()[0], writes, "{} batched={}", venue, batched);
        }
        let reads = vec![range(ns, b"", None, None, false), count(ns, b"", None)];
        let expected: Vec<KvResponse> = reads.iter().map(|r| reference.answer(r)).collect();
        let answers = store.execute_round(&mut Session::new(), reads);
        prop_assert_eq!(answers, expected, "{} batched={}", venue, batched);
    }
    Ok(())
}

// ---------------------------------------------------- an answer's block

proptest! {
    /// A packed [`Entries`] block holds exactly the pairs it was built
    /// from, however it was built.
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
}

// ------------------------------------------------ LiveCluster's own cases

/// A write-ahead sink that keeps what it is handed.
#[derive(Default)]
struct Recorder {
    records: Mutex<Vec<Record>>,
    commits: AtomicU64,
}

#[derive(Debug, Clone, PartialEq)]
enum Record {
    Ns(NsId, String),
    Put(NsId, Vec<u8>, Vec<u8>),
    Delete(NsId, Vec<u8>),
}

impl Recorder {
    fn push(&self, record: Record) {
        self.records.lock().unwrap().push(record);
    }

    fn records(&self) -> Vec<Record> {
        self.records.lock().unwrap().clone()
    }

    fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }
}

impl WalSink for Recorder {
    fn append_ns(&self, ns: NsId, name: &str) {
        self.push(Record::Ns(ns, name.to_string()));
    }
    fn append_put(&self, ns: NsId, key: &[u8], value: &[u8]) {
        self.push(Record::Put(ns, key.to_vec(), value.to_vec()));
    }
    fn append_delete(&self, ns: NsId, key: &[u8]) {
        self.push(Record::Delete(ns, key.to_vec()));
    }
    fn commit(&self) -> bool {
        self.commits.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// A sink attached to a store that already has namespaces is told of each
/// of them in id order; it then sees every put, delete and successful
/// test-and-set under its namespace's id — fanned out over the pool or
/// not — hears of a namespace created after it before that namespace's
/// first write, commits once per write round and once per bulk write, and
/// hears nothing once detached.
#[test]
fn an_attached_sink_sees_every_write_under_its_namespace() {
    let store = live(4, 2, 0);
    let a = store.namespace("a");
    let b = store.namespace("b");
    store.bulk_put(b, b"before".to_vec(), b"attach".to_vec());

    let recorder = Arc::new(Recorder::default());
    store.attach_wal(recorder.clone());
    assert_eq!(
        recorder.records(),
        vec![Record::Ns(a, "a".into()), Record::Ns(b, "b".into())]
    );

    let mut session = Session::new();
    store.execute_round(&mut session, vec![put(b, b"k1", b"v1")]);
    store.execute_one(
        &mut session,
        KvRequest::Delete {
            ns: b,
            key: b"before".to_vec(),
        },
    );
    store.execute_one(&mut session, swap(a, b"t", b"set", None));
    // a failed swap changes nothing, so nothing is logged
    store.execute_one(&mut session, swap(a, b"t", b"lost", Some(b"stale")));
    store.bulk_put(a, b"bulk".to_vec(), b"untimed".to_vec());
    let c = store.namespace("c");
    store.execute_one(&mut session, put(c, b"k2", b"v2"));
    let expected = vec![
        Record::Ns(a, "a".into()),
        Record::Ns(b, "b".into()),
        Record::Put(b, b"k1".to_vec(), b"v1".to_vec()),
        Record::Delete(b, b"before".to_vec()),
        Record::Put(a, b"t".to_vec(), b"set".to_vec()),
        Record::Put(a, b"bulk".to_vec(), b"untimed".to_vec()),
        Record::Ns(c, "c".into()),
        Record::Put(c, b"k2".to_vec(), b"v2".to_vec()),
    ];
    assert_eq!(recorder.records(), expected);

    // a round with service time fans out over the pool, in any order
    store.set_request_delay_us(1);
    let fanned = vec![
        put(a, b"f1", b"x"),
        put(b, b"f2", b"y"),
        put(c, b"f3", b"z"),
    ];
    store.execute_round(&mut session, fanned);
    store.set_request_delay_us(0);
    let heard = recorder.records();
    let mut tail = heard[expected.len()..].to_vec();
    tail.sort_by_key(|record| format!("{record:?}"));
    assert_eq!(
        tail,
        vec![
            Record::Put(a, b"f1".to_vec(), b"x".to_vec()),
            Record::Put(b, b"f2".to_vec(), b"y".to_vec()),
            Record::Put(c, b"f3".to_vec(), b"z".to_vec()),
        ]
    );
    // one barrier per write round, and one per bulk put
    assert_eq!(recorder.commits(), 7);

    store.detach_wal();
    let d = store.namespace("d");
    store.execute_one(&mut session, put(d, b"k3", b"v3"));
    store.execute_one(&mut session, put(a, b"k4", b"v4"));
    store.bulk_put_all(b, &mut joined([(b"k5".to_vec(), b"v5".to_vec())]));
    assert_eq!(recorder.records(), heard, "a detached sink hears nothing");
    assert_eq!(recorder.commits(), 7);
}

proptest! {
    /// A batch is logged as puts with one commit barrier, and the log
    /// replays back into the same store.
    #[test]
    fn a_logged_batch_replays_to_the_store_it_built(
        existing in pairs(0..40),
        batch in pairs(0..60),
        rebalanced in any::<bool>(),
    ) {
        let logged = live(4, 0, 0);
        let recorder = Arc::new(Recorder::default());
        logged.attach_wal(recorder.clone());
        let ns = load(&logged, existing.iter().map(|(k, v)| (k, v)), rebalanced);
        logged.bulk_put_all(ns, &mut joined(batch.iter().cloned()));
        prop_assert_eq!(
            recorder.commits(),
            existing.len() as u64 + 1,
            "each bulk put and the batch commit once, as they return"
        );

        let records = recorder.records();
        // the namespace, a put per existing pair, and a put per key the batch stores
        let distinct: BTreeSet<&[u8]> = batch.iter().map(|(key, _)| key.as_slice()).collect();
        prop_assert_eq!(records.len(), 1 + existing.len() + distinct.len());

        let replayed = live(4, 0, 0);
        for record in records {
            match record {
                Record::Ns(ns, name) => prop_assert_eq!(replayed.namespace(&name), ns),
                Record::Put(ns, key, value) => replayed.bulk_put(ns, key, value),
                Record::Delete(..) => prop_assert!(false, "a bulk load deletes nothing"),
            }
        }
        prop_assert_eq!(replayed.export_namespaces(), logged.export_namespaces());
    }
}

/// A key as PIQL lays one out: a type-tag byte below 0x10 first.
fn tagged(i: u32) -> Vec<u8> {
    [&[0x03][..], &i.to_be_bytes()].concat()
}

/// The first batch into an empty namespace is cut at its own quantiles:
/// the layout that putting its pairs one by one and then rebalancing
/// gives, which a rebalance then keeps, with its ops restarted. More puts
/// past the last split point skew it, and the next rebalance re-splits.
#[test]
fn the_first_batch_lays_out_what_a_rebalance_would() {
    // a permutation of 0..5,000, so the batch arrives unsorted
    let pairs: Vec<KvEntry> = (0..5_000u32)
        .map(|i| (tagged(i * 7_919 % 5_000), i.to_le_bytes().to_vec()))
        .collect();
    let one_by_one = live(16, 0, 0);
    let ns = one_by_one.namespace("t");
    for (key, value) in &pairs {
        one_by_one.bulk_put(ns, key.clone(), value.clone());
    }
    assert_eq!(
        one_by_one.balance()[0].entries,
        [5_000],
        "one part holds all"
    );
    one_by_one.rebalance();
    let rebalanced = one_by_one.balance().remove(0);

    let batched = live(16, 0, 0);
    assert_eq!(batched.namespace("t"), ns);
    batched.bulk_put_all(ns, &mut joined(pairs.iter().cloned()));
    let laid_out = batched.balance().remove(0);
    assert_eq!(laid_out.entries, rebalanced.entries);
    assert_eq!(laid_out.ops, laid_out.entries, "one write per entry taken");
    assert_eq!(scan(&batched, ns), scan(&one_by_one, ns));

    batched.rebalance();
    let kept = batched.balance().remove(0);
    assert_eq!(kept.entries, laid_out.entries);
    assert_eq!(kept.ops, [0; 16]);

    for i in 5_000..10_000u32 {
        batched.bulk_put(ns, tagged(i), Vec::new());
    }
    let skewed = batched.balance().remove(0);
    assert_eq!(skewed.entries[15], 5_000 + laid_out.entries[15]);
    batched.rebalance();
    let resplit = batched.balance().remove(0);
    assert_eq!(resplit.total_entries(), 10_000);
    assert!(
        resplit.max_entry_share() <= 2.0 / 16.0,
        "{:?}",
        resplit.entries
    );
    assert_eq!(resplit.ops, [0; 16]);
}

/// A later batch swaps its run into a shard that deletes emptied and
/// merges the rest into theirs, storing what its puts one by one would.
#[test]
fn a_later_batch_fills_an_emptied_shard_and_merges_the_rest() {
    let first: Vec<KvEntry> = (0..1_600u32).map(|i| (tagged(i), vec![1])).collect();
    let later: Vec<KvEntry> = (0..1_600u32)
        .step_by(3)
        .map(|i| (tagged(i), vec![2]))
        .collect();
    let batched = live(16, 0, 0);
    let one_by_one = live(16, 0, 0);
    let ns = batched.namespace("t");
    assert_eq!(one_by_one.namespace("t"), ns);
    for store in [&batched, &one_by_one] {
        store.bulk_put_all(ns, &mut joined(first.iter().cloned()));
        for (key, _) in &first[..100] {
            store.bulk_delete(ns, key);
        }
        assert_eq!(store.balance()[0].entries[..2], [0, 100]);
    }
    batched.bulk_put_all(ns, &mut joined(later.iter().cloned()));
    for (key, value) in &later {
        one_by_one.bulk_put(ns, key.clone(), value.clone());
    }
    // keys 0, 3, …, 99 come back into the emptied shard
    assert_eq!(batched.balance()[0].entries[..2], [34, 100]);
    assert_eq!(scan(&batched, ns), scan(&one_by_one, ns));
}

#[test]
fn a_batch_smaller_than_the_shard_count_stays_one_part() {
    let store = live(16, 0, 0);
    let ns = store.namespace("t");
    let pairs = (0..15u32).map(|i| (tagged(i), Vec::new()));
    store.bulk_put_all(ns, &mut joined(pairs));
    let balance = store.balance().remove(0);
    assert_eq!((balance.shards, balance.entries), (1, vec![15]));
    store.rebalance();
    assert_eq!(store.balance().remove(0).entries, [15]);
}

/// Writers put distinct keys into a namespace while its first batch lands:
/// whether their puts come before the batch (which then merges), between
/// its emptiness checks, or after its generation is swapped in, the store
/// ends holding every key once, and an attached sink hears of every write
/// once. The writers start when the batch's feed has pushed its last
/// entry, after a spin that doubles from round to round, so that the
/// rounds span all three.
#[test]
fn a_first_batch_racing_writers_loses_no_write() {
    const WRITERS: u32 = 3;
    const PUTS: u32 = 300;
    const BATCH: u32 = 3_000;
    for round in 0..22 {
        let store = Arc::new(live(16, 0, 0));
        let recorder = Arc::new(Recorder::default());
        store.attach_wal(recorder.clone());
        let ns = store.namespace("t");
        let fed = Arc::new(AtomicBool::new(false));
        // writers take the odd keys amid the batch's even ones
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (store, fed) = (store.clone(), fed.clone());
                std::thread::spawn(move || {
                    while !fed.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    for _ in 0..1u64 << round {
                        std::hint::spin_loop();
                    }
                    let mut session = Session::new();
                    for i in 0..PUTS {
                        let key = tagged(2 * (i * WRITERS + w) + 1);
                        store.execute_round(&mut session, vec![put(ns, &key, b"w")]);
                    }
                })
            })
            .collect();
        // a permutation of the even keys, so the batch has sorting to do
        let batch = (0..BATCH).map(|i| (tagged(2 * (i * 7_919 % BATCH)), b"b".to_vec()));
        let mut batch = joined(batch);
        store.bulk_put_all(ns, &mut |push| {
            batch(push);
            fed.store(true, Ordering::Release);
        });
        for writer in writers {
            writer.join().unwrap();
        }

        let mut expected: Vec<Vec<u8>> = (0..BATCH).map(|i| tagged(2 * i)).collect();
        expected.extend((0..WRITERS * PUTS).map(|i| tagged(2 * i + 1)));
        expected.sort();
        let (_, stored) = store.export_namespaces().remove(0);
        let stored: Vec<Vec<u8>> = stored.into_iter().map(|(key, _)| key).collect();
        assert_eq!(stored, expected, "round {round}");
        let mut heard: Vec<Vec<u8>> = (recorder.records().into_iter())
            .filter_map(|record| match record {
                Record::Put(_, key, _) => Some(key),
                _ => None,
            })
            .collect();
        heard.sort();
        assert_eq!(heard, expected, "round {round}");
    }
}

const RESOLVERS: usize = 4;
const NAMES_EACH: usize = 24;

/// Resolve, on `RESOLVERS` threads started together, names that every
/// thread shares and names of its own, interleaved, while `meanwhile` runs
/// on one more; then check that every name, and each of `before` made
/// first, got one id, that the ids are dense from 0, and hand back the
/// names by id.
fn resolve_racing(
    store: &dyn KvStore,
    before: &[&str],
    meanwhile: impl FnOnce() + Send,
) -> Vec<String> {
    let start = std::sync::Barrier::new(RESOLVERS + 1);
    let seen: Vec<Vec<(String, NsId)>> = std::thread::scope(|scope| {
        let resolvers: Vec<_> = (0..RESOLVERS)
            .map(|t| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    (0..NAMES_EACH)
                        .map(|i| match i % 2 {
                            0 => format!("shared{}", (i + 2 * t) % NAMES_EACH),
                            _ => format!("own{t}.{i}"),
                        })
                        .map(|name| {
                            let id = store.namespace(&name);
                            (name, id)
                        })
                        .collect()
                })
            })
            .collect();
        start.wait();
        meanwhile();
        resolvers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let mut by_name: BTreeMap<String, NsId> = (before.iter())
        .map(|name| (name.to_string(), store.namespace(name)))
        .collect();
    for (name, id) in seen.into_iter().flatten() {
        assert_eq!(*by_name.entry(name.clone()).or_insert(id), id, "{name}");
    }
    // as many slots as names: distinct ids that all fit fill every one
    let mut by_id = vec![None; by_name.len()];
    for (name, id) in by_name {
        assert_eq!(store.namespace(&name), id, "{name}");
        let slot = by_id.get_mut(id.0 as usize).expect("an id past the names");
        assert!(slot.replace(name).is_none(), "{id:?} twice");
    }
    by_id.into_iter().map(Option::unwrap).collect()
}

/// Threads resolve shared and distinct names on both stores while, on the
/// live one, a sink attaches. Every name gets one id, ids are dense from 0
/// (two namespaces made first take 0 and 1), and the sink hears of each
/// namespace exactly once: from the attach if it existed before, or from
/// its own creation after.
#[test]
fn namespaces_racing_an_attach_get_one_id_and_one_announcement() {
    for round in 0..20 {
        let sim = Venue::Sim.store();
        let live = live(4, 0, 0);
        let recorder = Arc::new(Recorder::default());
        let before = ["first", "second"];
        for store in [&*sim, &live] {
            assert_eq!(store.namespace(before[0]), NsId(0));
            assert_eq!(store.namespace(before[1]), NsId(1));
        }
        let names = resolve_racing(&*sim, &before, || {});
        assert_eq!(
            names.len(),
            2 + NAMES_EACH / 2 * (1 + RESOLVERS),
            "round {round}"
        );
        let names = resolve_racing(&live, &before, || {
            for _ in 0..1u64 << (round % 12) {
                std::hint::spin_loop();
            }
            live.attach_wal(recorder.clone());
        });
        let mut heard: Vec<(NsId, String)> = (recorder.records().into_iter())
            .map(|record| match record {
                Record::Ns(id, name) => (id, name),
                other => panic!("round {round}: {other:?}"),
            })
            .collect();
        heard.sort();
        let created: Vec<(NsId, String)> = (names.into_iter().enumerate())
            .map(|(id, name)| (NsId(id as u32), name))
            .collect();
        assert_eq!(heard, created, "round {round}");
    }
}

fn skewed_key(i: u32) -> Vec<u8> {
    // ≥ 90% of keys under one leading byte (a hot username prefix)
    let mut key = match i % 10 {
        0 => vec![(i % 251) as u8, b'/'],
        _ => b"user/".to_vec(),
    };
    key.extend_from_slice(&i.to_be_bytes());
    key
}

/// Rebalance repeatedly while writer and reader sessions hammer the same
/// namespace, the routing table swapped under them each time. Writers must
/// never lose a write to a retired shard layout; readers must never
/// observe a previously committed key as missing (the scan count can only
/// grow).
#[test]
fn concurrent_sessions_survive_repeated_rebalances_without_lost_keys() {
    const WRITERS: u32 = 4;
    const READERS: u32 = 4;
    const BASE: u32 = 1_000;
    const REBALANCES: u32 = 25;

    let cluster = Arc::new(live(8, 0, 0));
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
                    let r = one(&*cluster, &mut s, put(ns, &key, &key));
                    assert!(matches!(r, KvResponse::Done));
                    written.push(key);
                    seq += 1;
                    // read-your-writes spot check across possible swaps
                    if seq.is_multiple_of(64) {
                        let probe = &written[(seq as usize / 2) % written.len()];
                        let r = one(&*cluster, &mut s, get(ns, probe));
                        assert_eq!(
                            r.expect_value(),
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
                    let count = one(&*cluster, &mut s, count(ns, b"", None)).expect_count();
                    assert!(
                        count >= floor,
                        "scan shrank mid-rebalance: {count} < {floor}"
                    );
                    floor = count;
                    // the preloaded keys stay visible through every swap
                    let probe = skewed_key(floor as u32 % BASE);
                    let r = one(&*cluster, &mut s, get(ns, &probe));
                    assert!(
                        r.expect_value().is_some(),
                        "preloaded key missing mid-rebalance"
                    );
                }
            })
        })
        .collect();

    for _ in 0..REBALANCES {
        cluster.rebalance();
        std::thread::sleep(Duration::from_millis(2));
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
        let r = one(&*cluster, &mut s, get(ns, key));
        assert_eq!(
            r.expect_value(),
            Some(key.as_slice()),
            "write lost during rebalance"
        );
    }
    let r = one(&*cluster, &mut s, count(ns, b"", None));
    assert_eq!(
        r.expect_count(),
        BASE as u64 + all_written.len() as u64,
        "final count = preload + acknowledged writes"
    );
    assert_eq!(cluster.stats_snapshot().rebalances, u64::from(REBALANCES));
}

/// `entries` keys put one by one into a fresh namespace of a store that
/// lays namespaces out in 8 shards, then a thousand reads of one key.
fn hot_one_part_namespace(entries: u32) -> LiveCluster {
    let cluster = live(8, 0, 0);
    let ns = cluster.namespace("grown");
    let mut s = Session::new();
    for i in 0..entries {
        cluster.execute_one(&mut s, put(ns, &skewed_key(i), b""));
    }
    for _ in 0..1_000 {
        cluster.execute_one(&mut s, get(ns, &skewed_key(0)));
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

/// The paper's round-latency model, on the wall clock: a 10-request round
/// against a store serving each request in ~20 ms must complete in ~max
/// (one service time), not ~sum (ten service times).
#[test]
fn slow_store_round_completes_at_max_not_sum() {
    const DELAY_US: u64 = 20_000;
    let store = live(4, 10, DELAY_US);
    let ns = store.namespace("slow");
    for i in 0..10u8 {
        store.bulk_put(ns, vec![i], vec![i]);
    }
    let round: Vec<KvRequest> = (0..10u8).map(|i| get(ns, &[i])).collect();
    let mut s = Session::new();
    let t0 = Instant::now();
    let responses = store.execute_round(&mut s, round);
    let elapsed = t0.elapsed();
    assert_eq!(responses.len(), 10);
    for (i, r) in (0..10u8).zip(&responses) {
        assert_eq!(
            r.expect_value(),
            Some(&[i][..]),
            "responses stay positional under fan-out"
        );
    }
    // acceptance: ≤ 2× the slowest request's latency, nowhere near the sum
    let bound = Duration::from_micros(2 * DELAY_US);
    assert!(
        elapsed <= bound,
        "10-request round took {elapsed:?}, want ≤ {bound:?}"
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
    let store = live(4, 0, DELAY_US);
    let ns = store.namespace("slow-seq");
    let round: Vec<KvRequest> = (0..10u8).map(|i| get(ns, &[i])).collect();
    let t0 = Instant::now();
    store.execute_round(&mut Session::new(), round);
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_micros(9 * DELAY_US),
        "sequential round should be ~sum of latencies, took {elapsed:?}"
    );
}
