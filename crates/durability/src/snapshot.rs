//! Snapshot files: one checkpoint of the whole durable state.
//!
//! Layout: an 8-byte magic (`PIQLSNP1`), a body encoded with the same
//! primitives as WAL records, and a trailing CRC-32 of the body. Written
//! to a temp file, fsynced, then renamed into place — a crash mid-write
//! leaves the previous generation's snapshot untouched and the manifest
//! still pointing at it.

use crate::record::{crc32, put_bytes, put_interval, put_u32, put_u64, Cursor, RecordError};
use piql_kv::KvEntry;
use piql_predict::{LatencyHistogram, ModelKey};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PIQLSNP1";

/// The full durable state at a checkpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotState {
    /// Namespaces in id order: name and every entry.
    pub namespaces: Vec<(String, Vec<KvEntry>)>,
    /// DDL statements executed through the durable stack, in order.
    pub ddl: Vec<String>,
    /// Registered statements: `(name, sql)`.
    pub statements: Vec<(String, String)>,
    /// Model checkpoint, or `None` when no model store is wired in
    /// (recovery then keeps whatever seed the embedder provides).
    pub models: Option<ModelCheckpoint>,
}

/// The model-store section of a snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelCheckpoint {
    /// Rotations folded into these intervals over the store's durable
    /// lifetime; replay skips `ModelInterval` WAL records with
    /// `seq <=` this.
    pub seq: u64,
    /// Interval maps, oldest first: a histogram per grid point.
    pub intervals: Vec<BTreeMap<ModelKey, LatencyHistogram>>,
}

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The shared cursor's decode failures, in this format's words.
fn snap_err(e: RecordError) -> io::Error {
    invalid(match e {
        RecordError::Truncated => "snapshot body shorter than its fields",
        RecordError::BadString => "snapshot string not UTF-8",
        RecordError::UnknownTag(_) => "snapshot op tag out of range",
    })
}

fn encode_body(state: &SnapshotState) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, state.namespaces.len() as u32);
    for (name, entries) in &state.namespaces {
        put_bytes(&mut out, name.as_bytes());
        put_u64(&mut out, entries.len() as u64);
        for (k, v) in entries {
            put_bytes(&mut out, k);
            put_bytes(&mut out, v);
        }
    }
    put_u32(&mut out, state.ddl.len() as u32);
    for sql in &state.ddl {
        put_bytes(&mut out, sql.as_bytes());
    }
    put_u32(&mut out, state.statements.len() as u32);
    for (name, sql) in &state.statements {
        put_bytes(&mut out, name.as_bytes());
        put_bytes(&mut out, sql.as_bytes());
    }
    match &state.models {
        None => out.push(0),
        Some(checkpoint) => {
            out.push(1);
            put_u64(&mut out, checkpoint.seq);
            put_u32(&mut out, checkpoint.intervals.len() as u32);
            for interval in &checkpoint.intervals {
                put_interval(&mut out, interval);
            }
        }
    }
    out
}

fn decode_body(body: &[u8]) -> io::Result<SnapshotState> {
    let mut c = Cursor::new(body);
    let state = decode_fields(&mut c).map_err(snap_err)?;
    if !c.done() {
        return Err(invalid("snapshot body has trailing bytes"));
    }
    Ok(state)
}

fn decode_fields(c: &mut Cursor<'_>) -> Result<SnapshotState, RecordError> {
    let n_ns = c.u32()? as usize;
    let mut namespaces = Vec::with_capacity(n_ns.min(1 << 16));
    for _ in 0..n_ns {
        let name = c.string()?;
        let n = c.u64()? as usize;
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let k = c.bytes()?;
            let v = c.bytes()?;
            entries.push((k, v));
        }
        namespaces.push((name, entries));
    }
    let n_ddl = c.u32()? as usize;
    let mut ddl = Vec::with_capacity(n_ddl.min(1 << 16));
    for _ in 0..n_ddl {
        ddl.push(c.string()?);
    }
    let n_stmt = c.u32()? as usize;
    let mut statements = Vec::with_capacity(n_stmt.min(1 << 16));
    for _ in 0..n_stmt {
        let name = c.string()?;
        let sql = c.string()?;
        statements.push((name, sql));
    }
    let models = match c.u8()? {
        0 => None,
        _ => {
            let seq = c.u64()?;
            let n_intervals = c.u32()? as usize;
            let mut intervals = Vec::with_capacity(n_intervals.min(1 << 10));
            for _ in 0..n_intervals {
                intervals.push(c.interval()?);
            }
            Some(ModelCheckpoint { seq, intervals })
        }
    };
    Ok(SnapshotState {
        namespaces,
        ddl,
        statements,
        models,
    })
}

/// Write `state` to `path` atomically (temp + fsync + rename + dir sync).
/// Returns the file size in bytes.
pub fn write_snapshot(path: &Path, state: &SnapshotState) -> io::Result<u64> {
    let body = encode_body(state);
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(MAGIC)?;
        f.write_all(&body)?;
        f.write_all(&crc32(&body).to_le_bytes())?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        File::open(dir)?.sync_all()?;
    }
    Ok((MAGIC.len() + body.len() + 4) as u64)
}

/// Read and verify a snapshot written by [`write_snapshot`].
pub fn read_snapshot(path: &Path) -> io::Result<SnapshotState> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    if data.len() < MAGIC.len() + 4 || &data[..MAGIC.len()] != MAGIC {
        return Err(invalid("not a piql snapshot file"));
    }
    let (body, stored) = data[MAGIC.len()..].split_at(data.len() - MAGIC.len() - 4);
    if crc32(body) != Cursor::new(stored).u32().map_err(snap_err)? {
        return Err(invalid("snapshot checksum mismatch"));
    }
    decode_body(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_predict::OpKind;

    fn sample() -> SnapshotState {
        SnapshotState {
            namespaces: vec![
                ("t:users".into(), vec![(b"k1".to_vec(), b"v1".to_vec())]),
                ("i:users:name".into(), vec![]),
            ],
            ddl: vec!["CREATE TABLE users (id INT PRIMARY KEY)".into()],
            statements: vec![("q".into(), "SELECT * FROM users WHERE id = <i>".into())],
            models: Some(ModelCheckpoint {
                seq: 7,
                intervals: vec![BTreeMap::from([(
                    ModelKey {
                        op: OpKind::IndexFKJoin,
                        alpha_c: 25,
                        alpha_j: 1,
                        beta: 160,
                    },
                    LatencyHistogram::from_sparse([(2, 10), (40, 2)]),
                )])],
            }),
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let dir = std::env::temp_dir().join(format!("piql-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot-1.snap");
        let state = sample();
        let bytes = write_snapshot(&path, &state).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(read_snapshot(&path).unwrap(), state);
        // no temp file left behind
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_file_is_the_bytes_older_builds_wrote() {
        // generated by the build at 2bf91e6 (see the WAL's golden record):
        // magic, body with a two-interval model checkpoint, CRC
        const GOLDEN: &str =
            "5049514c534e50310200000007000000743a75736572730100000000000000020000006b31020000\
            0076310c000000693a75736572733a6e616d65000000000000000001000000270000004352454154\
            45205441424c452075736572732028696420494e54205052494d415259204b455929010000000100\
            0000712200000053454c454354202a2046524f4d207573657273205748455245206964203d203c69\
            3e0107000000000000000200000001000000011900000001000000a000000002000000020000000a\
            000000000000002800000002000000000000000000000011593073";
        let mut state = sample();
        state
            .models
            .as_mut()
            .expect("sample has a checkpoint")
            .intervals
            .push(BTreeMap::new());
        let dir = std::env::temp_dir().join(format!("piql-snapgold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot-1.snap");
        write_snapshot(&path, &state).unwrap();
        let written = std::fs::read(&path).unwrap();
        let hex: String = written.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        assert_eq!(read_snapshot(&path).unwrap(), state);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_snapshot_is_refused() {
        let dir = std::env::temp_dir().join(format!("piql-snapbad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot-1.snap");
        write_snapshot(&path, &sample()).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(read_snapshot(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
