//! Order-preserving key encoding.
//!
//! The key/value store orders entries by raw bytes; PIQL's scale
//! independence relies on index scans reading *contiguous* key ranges
//! (§5.2.1). This codec guarantees that for composite keys
//! `(v1, .., vn)` and `(w1, .., wn)` of the same column types/directions,
//! `encode(v) < encode(w)` (bytewise) iff `v < w` (tuple order).
//!
//! Encoding per component (ascending):
//! * tag byte: `0x00` for NULL (sorts first), `0x01` for a present value
//! * `Int`: 4 bytes big-endian with the sign bit flipped
//! * `BigInt`/`Timestamp`: 8 bytes big-endian, sign bit flipped
//! * `Bool`: one byte (0/1)
//! * `Varchar`: UTF-8 with `0x00` escaped as `0x00 0xFF`, terminated by
//!   `0x00 0x01`. The terminator is less than any escaped byte pair, so
//!   prefixes sort before extensions.
//!
//! A component marked [`Dir::Desc`] has every payload byte complemented
//! after encoding (tag byte included), which exactly reverses its order
//! while preserving the order of the components around it. This is how
//! `ORDER BY timestamp DESC` becomes a forward scan of a composite index.

use crate::value::{DataType, Value, ValueRef};
use std::fmt;

/// Sort direction of one key component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dir {
    #[default]
    Asc,
    Desc,
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::Asc => write!(f, "ASC"),
            Dir::Desc => write!(f, "DESC"),
        }
    }
}

/// Errors raised while encoding or decoding keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyCodecError {
    /// Doubles (NaN) cannot participate in ordered keys.
    UnsupportedType(DataType),
    /// Ran out of bytes or hit a malformed escape while decoding.
    Corrupt(&'static str),
}

impl fmt::Display for KeyCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyCodecError::UnsupportedType(t) => {
                write!(f, "type {t} is not allowed in index keys")
            }
            KeyCodecError::Corrupt(msg) => write!(f, "corrupt key encoding: {msg}"),
        }
    }
}

impl std::error::Error for KeyCodecError {}

const TAG_NULL: u8 = 0x00;
const TAG_VALUE: u8 = 0x01;

/// Append one value to `out` with the given direction.
pub fn encode_component(out: &mut Vec<u8>, value: &Value, dir: Dir) -> Result<(), KeyCodecError> {
    encode_component_ref(out, ValueRef::of(value), dir)
}

/// [`encode_component`] over a borrowed [`ValueRef`] — the allocation-free
/// entry point the server's point-read hot path encodes probe keys with
/// (values decoded straight out of a wire frame, no `Value` materialized).
pub fn encode_component_ref(
    out: &mut Vec<u8>,
    value: ValueRef<'_>,
    dir: Dir,
) -> Result<(), KeyCodecError> {
    let start = out.len();
    match value {
        ValueRef::Null => out.push(TAG_NULL),
        ValueRef::Int(v) => {
            out.push(TAG_VALUE);
            out.extend_from_slice(&((v as u32) ^ 0x8000_0000).to_be_bytes());
        }
        ValueRef::BigInt(v) | ValueRef::Timestamp(v) => {
            out.push(TAG_VALUE);
            out.extend_from_slice(&((v as u64) ^ 0x8000_0000_0000_0000).to_be_bytes());
        }
        ValueRef::Bool(b) => {
            out.push(TAG_VALUE);
            out.push(b as u8);
        }
        ValueRef::Varchar(s) => {
            out.push(TAG_VALUE);
            for &b in s.as_bytes() {
                if b == 0x00 {
                    out.push(0x00);
                    out.push(0xFF);
                } else {
                    out.push(b);
                }
            }
            out.push(0x00);
            out.push(TAG_VALUE); // terminator 0x00 0x01: below every escape pair
        }
        ValueRef::Double(_) => return Err(KeyCodecError::UnsupportedType(DataType::Double)),
    }
    if dir == Dir::Desc {
        for b in &mut out[start..] {
            *b = !*b;
        }
    }
    Ok(())
}

/// Encode a composite key. `dirs` must be at least as long as `values`;
/// missing entries default to ascending.
pub fn encode_key(values: &[Value], dirs: &[Dir]) -> Result<Vec<u8>, KeyCodecError> {
    let mut out = Vec::with_capacity(values.iter().map(Value::encoded_len).sum());
    for (i, v) in values.iter().enumerate() {
        encode_component(&mut out, v, dirs.get(i).copied().unwrap_or(Dir::Asc))?;
    }
    Ok(out)
}

/// Encode an all-ascending composite key.
pub fn encode_key_asc(values: &[Value]) -> Result<Vec<u8>, KeyCodecError> {
    encode_key(values, &[])
}

/// A streaming reader over one encoded key: yields each component as a
/// borrowed [`ValueRef`] instead of materializing `Value`s — the key-side
/// twin of [`RowReader`](super::row::RowReader). A string is un-escaped
/// into `scratch`, which one reader after another can share, so decoding
/// the keys of a whole range answer allocates for the longest string, once.
pub struct KeyReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    scratch: &'a mut Vec<u8>,
}

impl<'a> KeyReader<'a> {
    pub fn new(bytes: &'a [u8], scratch: &'a mut Vec<u8>) -> Self {
        KeyReader {
            bytes,
            pos: 0,
            scratch,
        }
    }

    /// Bytes consumed so far (callers decoding a key prefix use the
    /// remainder).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Decode the next component, stored as a `ty` in direction `dir`.
    pub fn next_value(&mut self, ty: DataType, dir: Dir) -> Result<ValueRef<'_>, KeyCodecError> {
        let flip = |b: u8| if dir == Dir::Desc { !b } else { b };
        let tag = flip(self.take::<1>("missing tag")?[0]);
        if tag == TAG_NULL {
            return Ok(ValueRef::Null);
        }
        if tag != TAG_VALUE {
            return Err(KeyCodecError::Corrupt("bad tag"));
        }
        Ok(match ty {
            DataType::Int => {
                let raw = self.take::<4>("short int")?.map(flip);
                ValueRef::Int((u32::from_be_bytes(raw) ^ 0x8000_0000) as i32)
            }
            DataType::BigInt | DataType::Timestamp => {
                let raw = self.take::<8>("short bigint")?.map(flip);
                let v = (u64::from_be_bytes(raw) ^ 0x8000_0000_0000_0000) as i64;
                if ty == DataType::Timestamp {
                    ValueRef::Timestamp(v)
                } else {
                    ValueRef::BigInt(v)
                }
            }
            DataType::Bool => ValueRef::Bool(flip(self.take::<1>("short bool")?[0]) != 0),
            DataType::Varchar(_) => {
                self.scratch.clear();
                loop {
                    let b = flip(self.take::<1>("unterminated string")?[0]);
                    if b != 0x00 {
                        self.scratch.push(b);
                        continue;
                    }
                    match flip(self.take::<1>("dangling escape")?[0]) {
                        0xFF => self.scratch.push(0x00),
                        TAG_VALUE => break,
                        _ => return Err(KeyCodecError::Corrupt("bad escape")),
                    }
                }
                ValueRef::Varchar(
                    std::str::from_utf8(self.scratch)
                        .map_err(|_| KeyCodecError::Corrupt("invalid utf-8"))?,
                )
            }
            DataType::Double => return Err(KeyCodecError::UnsupportedType(DataType::Double)),
        })
    }

    fn take<const N: usize>(&mut self, missing: &'static str) -> Result<[u8; N], KeyCodecError> {
        let raw = self
            .bytes
            .get(self.pos..self.pos + N)
            .and_then(|raw| <[u8; N]>::try_from(raw).ok())
            .ok_or(KeyCodecError::Corrupt(missing))?;
        self.pos += N;
        Ok(raw)
    }
}

/// Decode `types.len()` components from `bytes`: what a [`KeyReader`]
/// yields, owned.
///
/// Returns the values and the number of bytes consumed (callers decoding a
/// key prefix use the remainder).
pub fn decode_key(
    bytes: &[u8],
    types: &[DataType],
    dirs: &[Dir],
) -> Result<(Vec<Value>, usize), KeyCodecError> {
    let mut scratch = Vec::new();
    let mut reader = KeyReader::new(bytes, &mut scratch);
    let mut values = Vec::with_capacity(types.len());
    for (i, ty) in types.iter().enumerate() {
        let dir = dirs.get(i).copied().unwrap_or(Dir::Asc);
        values.push(reader.next_value(*ty, dir)?.to_value());
    }
    Ok((values, reader.position()))
}

/// Smallest byte string strictly greater than every key having `prefix` as a
/// prefix — i.e. the exclusive upper bound of the prefix range. `None` means
/// the range is unbounded above (prefix was all `0xFF`).
pub fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut bound = prefix.to_vec();
    prefix_upper_bound_in_place(&mut bound, 0).then_some(bound)
}

/// [`prefix_upper_bound`] of `buf[from..]`, in place: those bytes become
/// the bound, or are removed when there is none (answering `false`).
pub fn prefix_upper_bound_in_place(buf: &mut Vec<u8>, from: usize) -> bool {
    while buf.len() > from {
        match buf.last_mut() {
            Some(last) if *last != 0xFF => {
                *last += 1;
                return true;
            }
            _ => {
                buf.pop();
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc1(v: &Value, dir: Dir) -> Vec<u8> {
        let mut out = Vec::new();
        encode_component(&mut out, v, dir).unwrap();
        out
    }

    #[test]
    fn int_order_preserved() {
        let vals = [i32::MIN, -7, -1, 0, 1, 42, i32::MAX];
        for w in vals.windows(2) {
            assert!(
                enc1(&Value::Int(w[0]), Dir::Asc) < enc1(&Value::Int(w[1]), Dir::Asc),
                "{} < {}",
                w[0],
                w[1]
            );
            assert!(enc1(&Value::Int(w[0]), Dir::Desc) > enc1(&Value::Int(w[1]), Dir::Desc));
        }
    }

    #[test]
    fn string_prefix_sorts_first() {
        let a = enc1(&Value::Varchar("ab".into()), Dir::Asc);
        let b = enc1(&Value::Varchar("abc".into()), Dir::Asc);
        assert!(a < b);
    }

    #[test]
    fn embedded_nul_roundtrip_and_order() {
        let v1 = Value::Varchar("a\0b".into());
        let v2 = Value::Varchar("a\0c".into());
        assert!(enc1(&v1, Dir::Asc) < enc1(&v2, Dir::Asc));
        let enc = encode_key_asc(std::slice::from_ref(&v1)).unwrap();
        let (dec, used) = decode_key(&enc, &[DataType::Varchar(10)], &[]).unwrap();
        assert_eq!(dec[0], v1);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn null_sorts_first() {
        assert!(enc1(&Value::Null, Dir::Asc) < enc1(&Value::Int(i32::MIN), Dir::Asc));
        assert!(enc1(&Value::Null, Dir::Asc) < enc1(&Value::Varchar(String::new()), Dir::Asc));
    }

    #[test]
    fn composite_key_lexicographic() {
        let k1 = encode_key_asc(&[Value::Varchar("bob".into()), Value::Int(2)]).unwrap();
        let k2 = encode_key_asc(&[Value::Varchar("bob".into()), Value::Int(10)]).unwrap();
        let k3 = encode_key_asc(&[Value::Varchar("carol".into()), Value::Int(0)]).unwrap();
        assert!(k1 < k2 && k2 < k3);
    }

    #[test]
    fn desc_component_reverses_only_itself() {
        // (owner ASC, timestamp DESC): same owner → later timestamps first.
        let dirs = [Dir::Asc, Dir::Desc];
        let k_new =
            encode_key(&[Value::Varchar("u".into()), Value::Timestamp(100)], &dirs).unwrap();
        let k_old = encode_key(&[Value::Varchar("u".into()), Value::Timestamp(50)], &dirs).unwrap();
        let k_other =
            encode_key(&[Value::Varchar("v".into()), Value::Timestamp(999)], &dirs).unwrap();
        assert!(k_new < k_old, "newer timestamp sorts first under DESC");
        assert!(k_old < k_other, "owner still ascending");
    }

    #[test]
    fn decode_roundtrip_composite() {
        let vals = vec![
            Value::Int(-5),
            Value::Varchar("hé\0llo".into()),
            Value::Bool(true),
            Value::Timestamp(123456789),
            Value::Null,
        ];
        let types = [
            DataType::Int,
            DataType::Varchar(20),
            DataType::Bool,
            DataType::Timestamp,
            DataType::BigInt,
        ];
        let dirs = [Dir::Asc, Dir::Desc, Dir::Asc, Dir::Desc, Dir::Asc];
        let enc = encode_key(&vals, &dirs).unwrap();
        let (dec, used) = decode_key(&enc, &types, &dirs).unwrap();
        assert_eq!(dec, vals);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn double_rejected() {
        assert!(encode_key_asc(&[Value::Double(1.0)]).is_err());
    }

    #[test]
    fn prefix_bound_basics() {
        assert_eq!(prefix_upper_bound(&[1, 2, 3]), Some(vec![1, 2, 4]));
        assert_eq!(prefix_upper_bound(&[1, 0xFF]), Some(vec![2]));
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_upper_bound(&[]), None);
        // in place, behind bytes it leaves alone — 0xFF ones included
        let mut buf = vec![0xFF, 7, 1, 0xFF];
        assert!(prefix_upper_bound_in_place(&mut buf, 1));
        assert_eq!(buf, [0xFF, 7, 2]);
        let mut buf = vec![7, 0xFF, 0xFF];
        assert!(!prefix_upper_bound_in_place(&mut buf, 1));
        assert_eq!(buf, [7]);
    }
}
