//! Crash-injection tests: recovery must stop cleanly at the last valid
//! record when the tail of the log is torn (truncated mid-record) or
//! corrupted (checksum flipped), and a full `LiveCluster` round-trip
//! through snapshot + tail replay must reproduce the pre-crash state.

use piql_durability::{read_wal, Durability, DurabilityConfig, SyncPolicy, TailState, WalRecord};
use piql_kv::testkit::swap;
use piql_kv::{KvRequest, KvStore, LiveCluster, LiveConfig, NsId, Session, WalSink};
use std::path::{Path, PathBuf};
use std::sync::Arc;

type NamespaceDump = Vec<(String, Vec<(Vec<u8>, Vec<u8>)>)>;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("piql-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> (piql_durability::RecoveredState, Arc<Durability>) {
    Durability::open(DurabilityConfig {
        dir: dir.to_path_buf(),
        policy: SyncPolicy::GroupCommit,
        snapshot_wal_bytes: 64 << 20,
    })
    .expect("open durability")
}

/// Append `n` puts (`k<i>` → `v<i>`) through the sink and make them durable.
fn append_puts(d: &Durability, ns: NsId, n: usize) {
    for i in 0..n {
        d.append_put(
            ns,
            format!("k{i:04}").as_bytes(),
            format!("v{i}").as_bytes(),
        );
    }
    d.commit();
}

fn wal_file(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen}.log"))
}

#[test]
fn truncation_mid_record_keeps_the_valid_prefix() {
    let dir = test_dir("torn");
    {
        let (_, d) = open(&dir);
        d.append_ns(NsId(0), "t:users");
        append_puts(&d, NsId(0), 20);
        d.close();
    }
    // tear the last record: chop 3 bytes off the file so its final frame
    // has a complete header but a short payload
    let path = wal_file(&dir, 0);
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let (state, d) = open(&dir);
    // 21 records written, the torn one dropped
    assert_eq!(state.kv_tail.len(), 20);
    assert!(matches!(
        state.kv_tail.last(),
        Some(WalRecord::Put { key, .. }) if key == b"k0018"
    ));
    let report = d.recovery_report();
    assert!(
        report.wal_tail.contains("torn"),
        "tail should report the tear, got: {}",
        report.wal_tail
    );
    assert!(report.truncated_bytes > 0);

    // the log is usable again: new appends land after the valid prefix
    append_puts(&d, NsId(0), 1);
    d.close();
    let contents = read_wal(&path).unwrap();
    assert!(contents.tail.is_clean());
    assert_eq!(contents.records.len(), 21); // 20 valid + 1 new
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_inside_header_is_reported_distinctly() {
    let dir = test_dir("torn-header");
    {
        let (_, d) = open(&dir);
        d.append_ns(NsId(0), "t:users");
        append_puts(&d, NsId(0), 5);
        d.close();
    }
    let path = wal_file(&dir, 0);
    let len = std::fs::metadata(&path).unwrap().len();
    // leave 4 stray bytes of a next frame's header
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len + 4).unwrap();
    drop(f);

    let contents = read_wal(&path).unwrap();
    assert_eq!(contents.records.len(), 6);
    assert!(matches!(contents.tail, TailState::TornHeader { .. }));

    let (state, _d) = open(&dir);
    assert_eq!(state.kv_tail.len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipped_checksum_byte_stops_replay_at_last_valid_record() {
    let dir = test_dir("badcrc");
    let frame_starts: Vec<u64>;
    {
        let (_, d) = open(&dir);
        d.append_ns(NsId(0), "t:users");
        append_puts(&d, NsId(0), 10);
        d.close();
        let path = wal_file(&dir, 0);
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 11);
        // reconstruct frame boundaries from the re-encoded records
        let mut at = 0u64;
        frame_starts = contents
            .records
            .iter()
            .map(|r| {
                let s = at;
                at += 8 + r.encode().len() as u64;
                s
            })
            .collect();
    }
    // flip one byte of record 7's checksum field
    let path = wal_file(&dir, 0);
    let mut data = std::fs::read(&path).unwrap();
    let crc_at = frame_starts[7] as usize + 4;
    data[crc_at] ^= 0x01;
    std::fs::write(&path, &data).unwrap();

    let (state, d) = open(&dir);
    // records 0..7 survive (ns-create + 6 puts); 7.. are gone — a bad
    // checksum is indistinguishable from a torn tail, so replay stops
    assert_eq!(state.kv_tail.len(), 7);
    assert!(
        d.recovery_report().wal_tail.contains("checksum"),
        "got: {}",
        d.recovery_report().wal_tail
    );
    assert_eq!(
        d.recovery_report().truncated_bytes,
        data.len() as u64 - frame_starts[7],
        "everything from the bad frame on is truncated"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_non_final_segment_is_a_hard_error() {
    let dir = test_dir("midseg");
    {
        let cluster = LiveCluster::new(LiveConfig {
            shards_per_namespace: 4,
            pool_threads: 0,
            request_delay_us: 0,
        });
        let (_, d) = open(&dir);
        cluster.attach_wal(d.clone());
        let ns = cluster.namespace("t:users");
        let mut session = Session::new();
        cluster.execute_round(
            &mut session,
            vec![KvRequest::Put {
                ns,
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            }],
        );
        d.snapshot_with(|| piql_durability::SnapshotInputs {
            namespaces: cluster.export_namespaces(),
            statements: Vec::new(),
            models: None,
        })
        .unwrap();
        cluster.execute_round(
            &mut session,
            vec![KvRequest::Put {
                ns,
                key: b"b".to_vec(),
                value: b"2".to_vec(),
            }],
        );
        d.close();
        // fake a crash-between-rotation-and-manifest layout: resurrect a
        // corrupt wal-1 *behind* an existing wal-2 so segment 1 is non-final
        std::fs::rename(wal_file(&dir, 1), wal_file(&dir, 2)).unwrap();
        std::fs::write(wal_file(&dir, 1), b"garbage-that-is-not-a-frame").unwrap();
    }
    match Durability::open(DurabilityConfig {
        dir: dir.to_path_buf(),
        policy: SyncPolicy::GroupCommit,
        snapshot_wal_bytes: 64 << 20,
    }) {
        Ok(_) => panic!("corrupt middle segment must fail recovery"),
        Err(err) => assert!(err.to_string().contains("non-final"), "got: {err}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The end-to-end contract: run a workload against a WAL-attached
/// cluster, checkpoint mid-way, keep writing, crash without a clean
/// shutdown, recover into a fresh cluster — identical contents.
#[test]
fn live_cluster_roundtrip_through_snapshot_and_tail() {
    let dir = test_dir("roundtrip");
    let before: NamespaceDump;
    {
        let cluster = LiveCluster::new(LiveConfig {
            shards_per_namespace: 4,
            pool_threads: 2,
            request_delay_us: 0,
        });
        let (_, d) = open(&dir);
        cluster.attach_wal(d.clone());
        let users = cluster.namespace("t:users");
        let idx = cluster.namespace("i:users:name");
        let mut session = Session::new();
        for i in 0..50u32 {
            cluster.execute_round(
                &mut session,
                vec![
                    KvRequest::Put {
                        ns: users,
                        key: format!("u{i:03}").into_bytes(),
                        value: format!("name-{i}").into_bytes(),
                    },
                    KvRequest::Put {
                        ns: idx,
                        key: format!("name-{i}").into_bytes(),
                        value: format!("u{i:03}").into_bytes(),
                    },
                ],
            );
        }
        // deletions before the snapshot must stay deleted after recovery
        cluster.execute_round(
            &mut session,
            vec![KvRequest::Delete {
                ns: users,
                key: b"u000".to_vec(),
            }],
        );
        d.log_ddl("CREATE TABLE users (id INT PRIMARY KEY, name TEXT)");
        let by_name = ("byName", "SELECT * FROM users WHERE name = <s>");
        d.log_statement_upsert(by_name.0, by_name.1);
        let summary = d
            .snapshot_with(|| piql_durability::SnapshotInputs {
                namespaces: cluster.export_namespaces(),
                statements: vec![(by_name.0.into(), by_name.1.into())],
                models: None,
            })
            .unwrap();
        assert_eq!(summary.generation, 1);
        assert_eq!(summary.entries, 99); // 100 puts - 1 delete
                                         // post-snapshot tail: more writes, a TAS, a statement drop
        for i in 50..60u32 {
            cluster.execute_round(
                &mut session,
                vec![KvRequest::Put {
                    ns: users,
                    key: format!("u{i:03}").into_bytes(),
                    value: format!("name-{i}").into_bytes(),
                }],
            );
        }
        cluster.execute_round(
            &mut session,
            vec![swap(users, b"u001", b"name-1-edited", Some(b"name-1"))],
        );
        // failed TAS must leave no record
        cluster.execute_round(
            &mut session,
            vec![swap(users, b"u002", b"never", Some(b"wrong"))],
        );
        d.log_statement_drop("byName");
        d.log_statement_upsert("byId", "SELECT * FROM users WHERE id = <i>");
        before = cluster.export_namespaces();
        d.simulate_crash(); // kill -9: no close, buffered state discarded
    }

    let (state, d) = open(&dir);
    assert!(state.report.snapshot_loaded);
    assert_eq!(state.report.generation, 1);
    assert_eq!(state.ddl.len(), 1);
    assert_eq!(
        state.statements.keys().collect::<Vec<_>>(),
        vec!["byId"],
        "drop + upsert resolved"
    );

    let recovered = LiveCluster::new(LiveConfig {
        shards_per_namespace: 4,
        pool_threads: 0,
        request_delay_us: 0,
    });
    state.apply_kv(&recovered).unwrap();
    assert_eq!(recovered.export_namespaces(), before);
    // recovered store accepts new durable writes
    cluster_put(&recovered, &d, "u999", "late");
    d.close();
    std::fs::remove_dir_all(&dir).unwrap();
}

fn cluster_put(cluster: &LiveCluster, d: &Arc<Durability>, key: &str, value: &str) {
    cluster.attach_wal(d.clone());
    let ns = cluster.namespace("t:users");
    let mut session = Session::new();
    cluster.execute_round(
        &mut session,
        vec![KvRequest::Put {
            ns,
            key: key.as_bytes().to_vec(),
            value: value.as_bytes().to_vec(),
        }],
    );
}

/// A dead log must not let write rounds keep acknowledging as durable:
/// the cluster latches `wal_degraded` the first time a commit barrier
/// fails, so the serving layer can surface the degradation instead of
/// silently serving a store that no longer survives a restart.
#[test]
fn dead_wal_latches_the_degraded_flag() {
    let dir = test_dir("degraded");
    let cluster = LiveCluster::new(LiveConfig {
        shards_per_namespace: 4,
        pool_threads: 0,
        request_delay_us: 0,
    });
    let (_, d) = open(&dir);
    cluster.attach_wal(d.clone());
    let ns = cluster.namespace("t:users");
    let mut session = Session::new();
    cluster.execute_round(
        &mut session,
        vec![KvRequest::Put {
            ns,
            key: b"a".to_vec(),
            value: b"1".to_vec(),
        }],
    );
    assert!(!cluster.wal_degraded(), "healthy log");
    d.simulate_crash();
    cluster.execute_round(
        &mut session,
        vec![KvRequest::Put {
            ns,
            key: b"b".to_vec(),
            value: b"2".to_vec(),
        }],
    );
    assert!(
        cluster.wal_degraded(),
        "a failed commit barrier must latch the degradation"
    );
    // the flag stays latched across later (read-only) rounds
    cluster.execute_round(
        &mut session,
        vec![KvRequest::Get {
            ns,
            key: b"a".to_vec(),
        }],
    );
    assert!(cluster.wal_degraded());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A bootstrap that creates namespaces in a different order than the
/// recorded ids must be detected, not silently mis-applied.
#[test]
fn bootstrap_order_drift_is_detected() {
    let dir = test_dir("drift");
    {
        let cluster = LiveCluster::new(LiveConfig::default());
        let (_, d) = open(&dir);
        cluster.attach_wal(d.clone());
        cluster.namespace("t:a");
        cluster.namespace("t:b");
        let mut session = Session::new();
        cluster.execute_round(
            &mut session,
            vec![KvRequest::Put {
                ns: NsId(0),
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }],
        );
        d.close();
    }
    let (state, _d) = open(&dir);
    let recovered = LiveCluster::new(LiveConfig::default());
    // a drifted bootstrap grabbed id 0 for a different table
    recovered.namespace("t:b");
    let err = state.apply_kv(&recovered).expect_err("id drift");
    assert!(err.to_string().contains("bootstrap"), "got: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
