//! The WAL record vocabulary and its wire encoding.
//!
//! Every record is framed as `[len: u32 LE][crc: u32 LE][payload]` where
//! `len` is the payload length and `crc` is CRC-32 (IEEE) of the payload.
//! The payload's first byte is the record tag; the rest is the record
//! body in fixed little-endian encoding with `u32`-length-prefixed byte
//! strings. Hand-rolled (no serde in the tree) and deliberately boring:
//! the reader must be able to decide, for any byte prefix of a log file,
//! exactly where the last intact record ends.

use piql_predict::{LatencyHistogram, ModelKey, OpKind};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

/// One model interval: a histogram per model key.
pub type Interval = BTreeMap<ModelKey, LatencyHistogram>;

/// Everything the durable state machine can be told. KV records replay
/// into `LiveCluster`; the rest rebuild the serving layer (catalog, the
/// statement registry, the live-trained model intervals).
///
/// Generic over how a record holds its byte strings `B`, its text `S` and
/// its interval `I`: a [`WalRecord`] owns them (what replay decodes), a
/// [`RecordRef`] borrows them (what a writer logs, encoded straight from
/// the caller's data). Both encode to the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Record<B, S, I> {
    /// Namespace `name` exists and was assigned id `ns`.
    NsCreate { ns: u32, name: S },
    /// `key` in namespace `ns` maps to `value`.
    Put { ns: u32, key: B, value: B },
    /// `key` in namespace `ns` is absent.
    Delete { ns: u32, key: B },
    /// A DDL statement executed through the durable stack.
    Ddl { sql: S },
    /// A prepared statement was installed (or re-installed) as `name`.
    StatementUpsert { name: S, sql: S },
    /// The prepared statement `name` was removed.
    StatementDrop { name: S },
    /// One rotated model interval: the histograms drained from the live
    /// accumulator. `seq` counts rotations over the store's durable
    /// lifetime (across restarts); a snapshot checkpoint records the seq
    /// it includes, so replay skips intervals already folded into it even
    /// when a rotation raced the snapshot export.
    ModelInterval { seq: u64, interval: I },
}

/// A record that owns its fields.
pub type WalRecord = Record<Vec<u8>, String, Interval>;

/// A record that borrows its fields.
pub type RecordRef<'a> = Record<&'a [u8], &'a str, &'a Interval>;

const TAG_NS_CREATE: u8 = 1;
const TAG_PUT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_DDL: u8 = 4;
const TAG_STMT_UPSERT: u8 = 5;
const TAG_STMT_DROP: u8 = 6;
const TAG_MODEL_INTERVAL: u8 = 7;

/// Why a payload failed to decode (distinct from a frame-level CRC or
/// truncation failure, which the WAL reader detects before decoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    Truncated,
    UnknownTag(u8),
    BadString,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "payload shorter than its fields"),
            RecordError::UnknownTag(t) => write!(f, "unknown record tag {t}"),
            RecordError::BadString => write!(f, "string field is not UTF-8"),
        }
    }
}

// -- primitive encoders (the snapshot body is written with the same ones) --

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// One model interval: a `u32` count, then per histogram in key order its
/// key (op byte [`OpKind::index`], α_c, α_j, β) and its nonzero `(bin,
/// count)` pairs ([`LatencyHistogram::nonzero_bins`]).
pub(crate) fn put_interval(out: &mut Vec<u8>, interval: &Interval) {
    put_u32(out, interval.len() as u32);
    for (key, histogram) in interval {
        let bins = histogram.nonzero_bins();
        out.push(key.op.index() as u8);
        put_u32(out, key.alpha_c);
        put_u32(out, key.alpha_j);
        put_u32(out, key.beta);
        put_u32(out, bins.len() as u32);
        for (bin, count) in bins {
            put_u32(out, *bin);
            put_u64(out, *count);
        }
    }
}

/// A bounds-checked reader over one payload or snapshot body.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        if self.buf.len() - self.at < n {
            return Err(RecordError::Truncated);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, RecordError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, RecordError> {
        let bytes = self
            .take(4)?
            .try_into()
            .map_err(|_| RecordError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, RecordError> {
        let bytes = self
            .take(8)?
            .try_into()
            .map_err(|_| RecordError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, RecordError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    pub(crate) fn string(&mut self) -> Result<String, RecordError> {
        String::from_utf8(self.bytes()?).map_err(|_| RecordError::BadString)
    }

    /// What [`put_interval`] wrote, each histogram rebuilt through
    /// [`LatencyHistogram::from_sparse`]. Counts come from the bytes, so
    /// they size nothing beyond a clamp: a lying count runs out of input.
    pub(crate) fn interval(&mut self) -> Result<Interval, RecordError> {
        let n = self.u32()?;
        let mut interval = BTreeMap::new();
        for _ in 0..n {
            let op = self.u8()?;
            let op = OpKind::from_index(op.into()).ok_or(RecordError::UnknownTag(op))?;
            let key = ModelKey {
                op,
                alpha_c: self.u32()?,
                alpha_j: self.u32()?,
                beta: self.u32()?,
            };
            let n_bins = self.u32()? as usize;
            let mut bins = Vec::with_capacity(n_bins.min(8_192));
            for _ in 0..n_bins {
                bins.push((self.u32()?, self.u64()?));
            }
            interval.insert(key, LatencyHistogram::from_sparse(bins));
        }
        Ok(interval)
    }

    pub(crate) fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

impl<B: AsRef<[u8]>, S: AsRef<str>, I: Borrow<Interval>> Record<B, S, I> {
    /// Append the payload (tag byte + body) to `out` — framing is the
    /// WAL's job.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let text = |out: &mut Vec<u8>, s: &S| put_bytes(out, s.as_ref().as_bytes());
        match self {
            Record::NsCreate { ns, name } => {
                out.push(TAG_NS_CREATE);
                put_u32(out, *ns);
                text(out, name);
            }
            Record::Put { ns, key, value } => {
                out.push(TAG_PUT);
                put_u32(out, *ns);
                put_bytes(out, key.as_ref());
                put_bytes(out, value.as_ref());
            }
            Record::Delete { ns, key } => {
                out.push(TAG_DELETE);
                put_u32(out, *ns);
                put_bytes(out, key.as_ref());
            }
            Record::Ddl { sql } => {
                out.push(TAG_DDL);
                text(out, sql);
            }
            Record::StatementUpsert { name, sql } => {
                out.push(TAG_STMT_UPSERT);
                text(out, name);
                text(out, sql);
            }
            Record::StatementDrop { name } => {
                out.push(TAG_STMT_DROP);
                text(out, name);
            }
            Record::ModelInterval { seq, interval } => {
                out.push(TAG_MODEL_INTERVAL);
                put_u64(out, *seq);
                put_interval(out, interval.borrow());
            }
        }
    }

    /// The payload alone.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }
}

impl WalRecord {
    /// Decode a payload produced by [`WalRecord::encode`]. Trailing bytes
    /// are an error: a frame holds exactly one record.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, RecordError> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            TAG_NS_CREATE => WalRecord::NsCreate {
                ns: c.u32()?,
                name: c.string()?,
            },
            TAG_PUT => WalRecord::Put {
                ns: c.u32()?,
                key: c.bytes()?,
                value: c.bytes()?,
            },
            TAG_DELETE => WalRecord::Delete {
                ns: c.u32()?,
                key: c.bytes()?,
            },
            TAG_DDL => WalRecord::Ddl { sql: c.string()? },
            TAG_STMT_UPSERT => WalRecord::StatementUpsert {
                name: c.string()?,
                sql: c.string()?,
            },
            TAG_STMT_DROP => WalRecord::StatementDrop { name: c.string()? },
            TAG_MODEL_INTERVAL => WalRecord::ModelInterval {
                seq: c.u64()?,
                interval: c.interval()?,
            },
            other => return Err(RecordError::UnknownTag(other)),
        };
        if !c.done() {
            return Err(RecordError::Truncated);
        }
        Ok(rec)
    }
}

// -- CRC-32 (IEEE 802.3), table-driven ------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `data` — the frame checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_roundtrip() {
        let records = vec![
            WalRecord::NsCreate {
                ns: 3,
                name: "t:users".into(),
            },
            WalRecord::Put {
                ns: 3,
                key: vec![0, 1, 255],
                value: vec![],
            },
            WalRecord::Delete {
                ns: 0,
                key: b"k".to_vec(),
            },
            WalRecord::Ddl {
                sql: "CREATE TABLE t (id INT PRIMARY KEY)".into(),
            },
            WalRecord::StatementUpsert {
                name: "q".into(),
                sql: "SELECT * FROM t WHERE id = <i>".into(),
            },
            WalRecord::StatementDrop { name: "q".into() },
            WalRecord::ModelInterval {
                seq: 42,
                interval: BTreeMap::from([(
                    ModelKey {
                        op: OpKind::SortedIndexJoin,
                        alpha_c: 10,
                        alpha_j: 5,
                        beta: 160,
                    },
                    LatencyHistogram::from_sparse([(0, 3), (17, 1), (4_000, 9)]),
                )]),
            },
        ];
        for rec in records {
            let payload = rec.encode();
            assert_eq!(WalRecord::decode(&payload).unwrap(), rec);
        }
    }

    #[test]
    fn model_interval_payload_is_the_bytes_older_builds_wrote() {
        // generated by the build at 2bf91e6, before both formats shared one
        // interval codec: a log written then must replay now, and a log
        // written now must read back then
        const GOLDEN: &str =
            "072a0000000000000002000000006400000001000000280000000100000002000000070000000000\
            0000020a00000005000000a000000003000000000000000300000000000000110000000100000000\
            000000a00f00000900000000000000";
        let key = |op, alpha_c, alpha_j, beta| ModelKey {
            op,
            alpha_c,
            alpha_j,
            beta,
        };
        let rec = WalRecord::ModelInterval {
            seq: 42,
            interval: BTreeMap::from([
                (
                    key(OpKind::IndexScan, 100, 1, 40),
                    LatencyHistogram::from_sparse([(2, 7)]),
                ),
                (
                    key(OpKind::SortedIndexJoin, 10, 5, 160),
                    LatencyHistogram::from_sparse([(0, 3), (17, 1), (4_000, 9)]),
                ),
            ]),
        };
        let payload = rec.encode();
        let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        assert_eq!(WalRecord::decode(&payload).unwrap(), rec);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(WalRecord::decode(&[]), Err(RecordError::Truncated));
        assert_eq!(WalRecord::decode(&[99]), Err(RecordError::UnknownTag(99)));
        // a Put missing its value length
        let mut p = WalRecord::Put {
            ns: 1,
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        }
        .encode();
        p.truncate(p.len() - 3);
        assert_eq!(WalRecord::decode(&p), Err(RecordError::Truncated));
        // trailing junk after a complete record
        let mut d = WalRecord::StatementDrop { name: "x".into() }.encode();
        d.push(0);
        assert_eq!(WalRecord::decode(&d), Err(RecordError::Truncated));
    }

    #[test]
    fn interval_roundtrips_through_sparse_form() {
        use piql_kv::MILLIS;
        let mut map = BTreeMap::new();
        let mut h = LatencyHistogram::standard();
        for ms in [1u64, 1, 5, 90] {
            h.record(ms * MILLIS);
        }
        map.insert(
            ModelKey {
                op: OpKind::IndexScan,
                alpha_c: 10,
                alpha_j: 1,
                beta: 40,
            },
            h,
        );
        let rec = WalRecord::ModelInterval {
            seq: 1,
            interval: map,
        };
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
    }
}
