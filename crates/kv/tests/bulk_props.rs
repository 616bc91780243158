//! Property tests for batched bulk loads: [`KvStore::bulk_put_all`] leaves
//! a store exactly as putting the same pairs one by one does — on both
//! backends, for batches that arrive unsorted, repeat keys, and land in
//! empty shards, in shards longer than their run and in shards shorter
//! than it — counts one write per pair, and logs what it stores as puts
//! with no commit barrier, which replay back into the same store. A sink
//! attached to a running store sees every write after it, under the
//! namespace each lands in, and nothing once detached. The first batch
//! into an empty namespace lays it out as a rebalance would, and loses no
//! write that races it.

use piql_kv::testkit::swap;
use piql_kv::{
    ClusterConfig, KvEntry, KvRequest, KvStore, LiveCluster, LiveConfig, NsId, Session, SimCluster,
    WalSink,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// A small alphabet of key bytes, so that short random keys collide, share
/// prefixes and, in a namespace cut into shards, straddle them.
const ALPHABET: [u8; 8] = [0, 1, 63, 64, 65, 128, 200, 255];

fn key() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]), 1..3)
}

fn pairs(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<KvEntry>> {
    prop::collection::vec((key(), prop::collection::vec(any::<u8>(), 0..4)), len)
}

fn live() -> LiveCluster {
    LiveCluster::new(LiveConfig {
        shards_per_namespace: 4,
        pool_threads: 0,
        request_delay_us: 0,
    })
}

/// Everything `ns` holds, in key order.
fn scan(store: &dyn KvStore, ns: NsId) -> Vec<KvEntry> {
    let everything = KvRequest::GetRange {
        ns,
        start: Vec::new(),
        end: None,
        limit: None,
        reverse: false,
    };
    let answer = store.execute_one(&mut Session::new(), everything);
    answer.into_entries().unwrap()
}

/// `existing` put one by one, the store rebalanced if asked (so the batch
/// meets learned split points rather than one part), then `batch` put one
/// by one or as one batch.
fn load(
    store: &dyn KvStore,
    existing: &[KvEntry],
    rebalanced: bool,
    batch: &[KvEntry],
    batched: bool,
) -> NsId {
    let ns = store.namespace("t");
    for (key, value) in existing {
        store.bulk_put(ns, key.clone(), value.clone());
    }
    if rebalanced {
        store.rebalance();
    }
    if batched {
        store.bulk_put_all(ns, &mut joined(batch.iter().cloned()));
    } else {
        for (key, value) in batch {
            store.bulk_put(ns, key.clone(), value.clone());
        }
    }
    ns
}

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

fn put(ns: NsId, key: &[u8], value: &[u8]) -> KvRequest {
    KvRequest::Put {
        ns,
        key: key.to_vec(),
        value: value.to_vec(),
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
    let store = LiveCluster::new(LiveConfig {
        shards_per_namespace: 4,
        pool_threads: 2,
        request_delay_us: 0,
    });
    let a = store.namespace("a");
    let b = store.namespace("b");
    store.bulk_put(b, b"before".to_vec(), b"attach".to_vec());

    let recorder = Arc::new(Recorder::default());
    store.attach_wal(recorder.clone());
    let records = || recorder.records.lock().unwrap().clone();
    assert_eq!(
        records(),
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
    assert_eq!(records(), expected);

    // a round with service time fans out over the pool, in any order
    store.set_request_delay_us(1);
    let fanned = vec![
        put(a, b"f1", b"x"),
        put(b, b"f2", b"y"),
        put(c, b"f3", b"z"),
    ];
    store.execute_round(&mut session, fanned);
    store.set_request_delay_us(0);
    let heard = records();
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
    assert_eq!(recorder.commits.load(Ordering::Relaxed), 7);

    store.detach_wal();
    let d = store.namespace("d");
    store.execute_one(&mut session, put(d, b"k3", b"v3"));
    store.execute_one(&mut session, put(a, b"k4", b"v4"));
    store.bulk_put_all(b, &mut joined([(b"k5".to_vec(), b"v5".to_vec())]));
    assert_eq!(records(), heard, "a detached sink hears nothing");
    assert_eq!(recorder.commits.load(Ordering::Relaxed), 7);
}

/// A 16-shard store, every round on its caller.
fn live16() -> LiveCluster {
    LiveCluster::new(LiveConfig {
        shards_per_namespace: 16,
        pool_threads: 0,
        request_delay_us: 0,
    })
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
    let one_by_one = live16();
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

    let batched = live16();
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
    let batched = live16();
    let one_by_one = live16();
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
    let store = live16();
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
        let store = Arc::new(live16());
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
        let mut heard: Vec<Vec<u8>> = (recorder.records.lock().unwrap().iter())
            .filter_map(|record| match record {
                Record::Put(_, key, _) => Some(key.clone()),
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
        let sim = SimCluster::new(ClusterConfig::instant(2));
        let live = live();
        let recorder = Arc::new(Recorder::default());
        let before = ["first", "second"];
        for store in [&sim as &dyn KvStore, &live] {
            assert_eq!(store.namespace(before[0]), NsId(0));
            assert_eq!(store.namespace(before[1]), NsId(1));
        }
        let names = resolve_racing(&sim, &before, || {});
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
        let mut heard: Vec<(NsId, String)> = (recorder.records.lock().unwrap().iter())
            .map(|record| match record {
                Record::Ns(id, name) => (*id, name.clone()),
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

proptest! {
    #[test]
    fn a_batch_stores_what_its_pairs_put_one_by_one_store(
        existing in pairs(0..40),
        batch in pairs(0..60),
        rebalanced in any::<bool>(),
    ) {
        // what the pairs leave, the last of equal keys winning
        let model: Vec<KvEntry> = existing
            .iter()
            .chain(&batch)
            .cloned()
            .collect::<BTreeMap<_, _>>()
            .into_iter()
            .collect();

        let (one_by_one, batched) = (live(), live());
        let ns = load(&one_by_one, &existing, rebalanced, &batch, false);
        let before = batched.op_count();
        load(&batched, &existing, rebalanced, &batch, true);
        prop_assert_eq!(batched.op_count() - before, (existing.len() + batch.len()) as u64);
        prop_assert_eq!(scan(&one_by_one, ns), model.clone());
        prop_assert_eq!(scan(&batched, ns), model.clone(), "LiveCluster batch");
        prop_assert_eq!(batched.ns_len(ns), one_by_one.ns_len(ns));
        prop_assert_eq!(batched.ns_len(ns), model.len());

        let sim = |batched| {
            let store = SimCluster::new(ClusterConfig::instant(4));
            let ns = load(&store, &existing, rebalanced, &batch, batched);
            (scan(&store, ns), store.ns_len(ns))
        };
        prop_assert_eq!(sim(false), (model.clone(), model.len()));
        prop_assert_eq!(sim(true), (model.clone(), model.len()), "SimCluster batch");
    }

    #[test]
    fn a_logged_batch_replays_to_the_store_it_built(
        existing in pairs(0..40),
        batch in pairs(0..60),
        rebalanced in any::<bool>(),
    ) {
        let logged = live();
        let recorder = Arc::new(Recorder::default());
        logged.attach_wal(recorder.clone());
        load(&logged, &existing, rebalanced, &batch, true);
        prop_assert_eq!(
            recorder.commits.load(Ordering::Relaxed),
            existing.len() as u64 + 1,
            "each bulk put and the batch commit once, as they return"
        );

        let records = recorder.records.lock().unwrap().clone();
        // the namespace, a put per existing pair, and a put per key the batch stores
        let distinct: BTreeSet<&[u8]> = batch.iter().map(|(key, _)| key.as_slice()).collect();
        prop_assert_eq!(records.len(), 1 + existing.len() + distinct.len());

        let replayed = live();
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
