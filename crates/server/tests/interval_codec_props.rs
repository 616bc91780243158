//! The model-interval codec `piql-durability` shares between its two
//! formats — the WAL's `ModelInterval` record and the snapshot's model
//! checkpoint — through the decoders a recovery runs: random interval maps
//! round-trip, and a body that ends early or promises more than it holds
//! is refused by both, without a panic and without sizing anything by the
//! promise. (The property lives here because this crate has `proptest`
//! and `piql-durability` among its dependencies; the golden bytes live
//! beside the codec.)

use piql_durability::{
    crc32, read_snapshot, write_snapshot, ModelCheckpoint, SnapshotState, WalRecord,
};
use piql_predict::{LatencyHistogram, ModelKey, OpKind};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn model_key() -> impl Strategy<Value = ModelKey> {
    (0usize..3, any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
        |(op, alpha_c, alpha_j, beta)| ModelKey {
            op: OpKind::from_index(op).expect("three operators"),
            alpha_c,
            alpha_j,
            beta,
        },
    )
}

fn interval() -> impl Strategy<Value = BTreeMap<ModelKey, LatencyHistogram>> {
    let latencies_us = prop::collection::vec(0u64..6_000_000, 1..12);
    prop::collection::btree_map(model_key(), latencies_us, 0..5).prop_map(|keys| {
        let histogram = |latencies: Vec<u64>| {
            let mut h = LatencyHistogram::standard();
            latencies.into_iter().for_each(|us| h.record(us));
            h
        };
        keys.into_iter().map(|(k, l)| (k, histogram(l))).collect()
    })
}

/// A scratch file in a directory of this process's own.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("piql-codec-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// `body` framed as a snapshot file: magic, body, checksum of the body.
fn snapshot_file(body: &[u8]) -> Vec<u8> {
    [b"PIQLSNP1", body, &crc32(body).to_le_bytes()].concat()
}

/// What each decoder says to `body` in place of the snapshot's own, and to
/// `payload` as a WAL record.
fn both_refuse(path: &PathBuf, body: &[u8], payload: &[u8]) -> Result<(), TestCaseError> {
    std::fs::write(path, snapshot_file(body)).unwrap();
    prop_assert!(read_snapshot(path).is_err(), "snapshot body {body:?}");
    prop_assert!(WalRecord::decode(payload).is_err(), "payload {payload:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn intervals_roundtrip_and_damaged_ones_are_refused(
        map in interval(),
        seq in any::<u64>(),
        lie in 1u32..=u32::MAX,
    ) {
        // the WAL record
        let record = WalRecord::ModelInterval { seq, interval: map.clone() };
        let payload = record.encode();
        prop_assert_eq!(WalRecord::decode(&payload), Ok(record));

        // the snapshot: nothing but a one-interval model checkpoint
        let state = SnapshotState {
            models: Some(ModelCheckpoint { seq, intervals: vec![map.clone()] }),
            ..SnapshotState::default()
        };
        let path = scratch("roundtrip.snap");
        write_snapshot(&path, &state).unwrap();
        prop_assert_eq!(&read_snapshot(&path).unwrap(), &state);
        let file = std::fs::read(&path).unwrap();
        let body = &file[8..file.len() - 4];
        // both formats hold the interval as the same bytes, at their end
        let shared = 4 + map.values().map(|h| 17 + 12 * h.nonzero_bins().len()).sum::<usize>();
        prop_assert_eq!(&body[body.len() - shared..], &payload[payload.len() - shared..]);

        // every strict prefix
        let (body_head, payload_head) = (body.len() - shared, payload.len() - shared);
        for cut in 0..shared {
            both_refuse(&path, &body[..body_head + cut], &payload[..payload_head + cut])?;
        }
        // every count raised: histograms in the interval, bins in each one
        let mut counts = vec![0];
        let mut at = 4;
        for histogram in map.values() {
            counts.push(at + 13);
            at += 17 + 12 * histogram.nonzero_bins().len();
        }
        for count in counts {
            let raised = |bytes: &[u8], head: usize| {
                let mut bytes = bytes.to_vec();
                let field = head + count..head + count + 4;
                let was = u32::from_le_bytes(bytes[field.clone()].try_into().unwrap());
                bytes[field].copy_from_slice(&was.saturating_add(lie).to_le_bytes());
                bytes
            };
            both_refuse(&path, &raised(body, body_head), &raised(&payload, payload_head))?;
        }
        std::fs::remove_dir_all(path.parent().expect("scratch directory")).unwrap();
    }
}
