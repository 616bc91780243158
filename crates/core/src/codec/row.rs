//! Compact, self-describing row (payload) serialization.
//!
//! Index entries and records are stored as raw bytes in the key/value
//! store; this codec frames each value with a one-byte tag so rows can be
//! decoded without consulting the schema (handy for debugging dumps and the
//! pagination cursor, which serializes heterogeneous resume state).
//! Unlike the key codec, this encoding is *not* order-preserving — it is
//! only used for values, never keys.

use crate::tuple::Tuple;
use crate::value::{Value, ValueRef};
use std::fmt;

/// Errors raised while decoding rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowCodecError {
    Corrupt(&'static str),
}

impl fmt::Display for RowCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowCodecError::Corrupt(msg) => write!(f, "corrupt row encoding: {msg}"),
        }
    }
}

impl std::error::Error for RowCodecError {}

const T_NULL: u8 = 0;
const T_INT: u8 = 1;
const T_BIGINT: u8 = 2;
const T_VARCHAR: u8 = 3;
const T_BOOL_FALSE: u8 = 4;
const T_BOOL_TRUE: u8 = 5;
const T_TIMESTAMP: u8 = 6;
const T_DOUBLE: u8 = 7;

/// Append a LEB128-style varint.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, RowCodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or(RowCodecError::Corrupt("truncated varint"))?;
        *pos += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(RowCodecError::Corrupt("varint overflow"));
        }
    }
}

/// Append one value.
pub fn encode_value(out: &mut Vec<u8>, value: &Value) {
    encode_value_ref(out, ValueRef::of(value));
}

/// [`encode_value`] over a borrowed [`ValueRef`] (no `Value` materialized).
pub fn encode_value_ref(out: &mut Vec<u8>, value: ValueRef<'_>) {
    match value {
        ValueRef::Null => out.push(T_NULL),
        ValueRef::Int(v) => {
            out.push(T_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        ValueRef::BigInt(v) => {
            out.push(T_BIGINT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        ValueRef::Varchar(s) => {
            out.push(T_VARCHAR);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        ValueRef::Bool(false) => out.push(T_BOOL_FALSE),
        ValueRef::Bool(true) => out.push(T_BOOL_TRUE),
        ValueRef::Timestamp(v) => {
            out.push(T_TIMESTAMP);
            out.extend_from_slice(&v.to_le_bytes());
        }
        ValueRef::Double(v) => {
            out.push(T_DOUBLE);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Append a tuple encoding's arity prefix (what [`encode_tuple`] starts
/// with).
pub fn encode_arity(out: &mut Vec<u8>, arity: usize) {
    write_varint(out, arity as u64);
}

/// Bytes a varint of `v` takes: seven bits a byte, at least one.
fn varint_len(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()).div_ceil(7).max(1) as usize
}

/// Bytes [`encode_arity`] appends for `arity`, exactly.
pub fn arity_len(arity: usize) -> usize {
    varint_len(arity as u64)
}

/// Bytes [`encode_value_ref`] appends for `value`, exactly — what a
/// writer sizes a record's buffer by before it encodes it.
pub fn value_len(value: ValueRef<'_>) -> usize {
    match value {
        ValueRef::Null | ValueRef::Bool(_) => 1,
        ValueRef::Int(_) => 5,
        ValueRef::BigInt(_) | ValueRef::Timestamp(_) | ValueRef::Double(_) => 9,
        ValueRef::Varchar(s) => 1 + varint_len(s.len() as u64) + s.len(),
    }
}

/// Serialize a whole tuple: varint arity followed by tagged values.
pub fn encode_tuple(tuple: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(tuple.encoded_len());
    encode_arity(&mut out, tuple.len());
    for v in tuple.values() {
        encode_value(&mut out, v);
    }
    out
}

/// Deserialize a tuple produced by [`encode_tuple`]: what a [`RowReader`]
/// yields, owned.
pub fn decode_tuple(bytes: &[u8]) -> Result<Tuple, RowCodecError> {
    let (mut reader, arity) = RowReader::new(bytes)?;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(reader.next_value()?.to_value());
    }
    reader.finish()?;
    Ok(Tuple::new(values))
}

/// A streaming, allocation-free reader over one encoded tuple: yields each
/// value as a borrowed [`ValueRef`] instead of materializing a [`Tuple`].
/// The server's point-read hot path transcodes stored rows straight onto
/// the wire through this.
pub struct RowReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
}

impl<'a> RowReader<'a> {
    /// Open a reader over `bytes` (an [`encode_tuple`] encoding); returns
    /// the reader and the tuple's arity.
    pub fn new(bytes: &'a [u8]) -> Result<(RowReader<'a>, usize), RowCodecError> {
        let mut pos = 0usize;
        let arity = read_varint(bytes, &mut pos)? as usize;
        if arity > bytes.len() {
            return Err(RowCodecError::Corrupt("implausible arity"));
        }
        Ok((
            RowReader {
                bytes,
                pos,
                remaining: arity,
            },
            arity,
        ))
    }

    /// Decode the next value. Calling past the arity is a codec error.
    pub fn next_value(&mut self) -> Result<ValueRef<'a>, RowCodecError> {
        if self.remaining == 0 {
            return Err(RowCodecError::Corrupt("read past arity"));
        }
        self.remaining -= 1;
        let tag = *self
            .bytes
            .get(self.pos)
            .ok_or(RowCodecError::Corrupt("missing tag"))?;
        self.pos += 1;
        let take = |this: &mut Self, n: usize| -> Result<&'a [u8], RowCodecError> {
            let s = this
                .bytes
                .get(this.pos..this.pos + n)
                .ok_or(RowCodecError::Corrupt("truncated value"))?;
            this.pos += n;
            Ok(s)
        };
        Ok(match tag {
            T_NULL => ValueRef::Null,
            T_INT => ValueRef::Int(i32::from_le_bytes(take(self, 4)?.try_into().unwrap())),
            T_BIGINT => ValueRef::BigInt(i64::from_le_bytes(take(self, 8)?.try_into().unwrap())),
            T_VARCHAR => {
                let len = read_varint(self.bytes, &mut self.pos)? as usize;
                let raw = take(self, len)?;
                ValueRef::Varchar(
                    std::str::from_utf8(raw)
                        .map_err(|_| RowCodecError::Corrupt("invalid utf-8"))?,
                )
            }
            T_BOOL_FALSE => ValueRef::Bool(false),
            T_BOOL_TRUE => ValueRef::Bool(true),
            T_TIMESTAMP => {
                ValueRef::Timestamp(i64::from_le_bytes(take(self, 8)?.try_into().unwrap()))
            }
            T_DOUBLE => ValueRef::Double(f64::from_le_bytes(take(self, 8)?.try_into().unwrap())),
            _ => return Err(RowCodecError::Corrupt("unknown tag")),
        })
    }

    /// Verify the reader consumed the encoding exactly (all values read,
    /// no trailing bytes) — the streaming analogue of [`decode_tuple`]'s
    /// trailing-bytes check.
    pub fn finish(self) -> Result<(), RowCodecError> {
        if self.remaining != 0 {
            return Err(RowCodecError::Corrupt("values left unread"));
        }
        if self.pos != self.bytes.len() {
            return Err(RowCodecError::Corrupt("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn roundtrip_all_types() {
        let t = Tuple::new(vec![
            Value::Null,
            Value::Int(-1),
            Value::BigInt(i64::MIN),
            Value::Varchar("héllo\0world".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Timestamp(1_700_000_000_000_000),
            Value::Double(std::f64::consts::PI),
        ]);
        assert_eq!(decode_tuple(&encode_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn lengths_are_what_the_encoders_append() {
        let long = "x".repeat(200);
        let values = [
            Value::Null,
            Value::Int(-1),
            Value::BigInt(i64::MIN),
            Value::Varchar(String::new()),
            Value::Varchar("héllo\0world".into()),
            Value::Varchar(long),
            Value::Bool(true),
            Value::Timestamp(1_700_000_000_000_000),
            Value::Double(std::f64::consts::PI),
        ];
        for value in &values {
            let mut out = Vec::new();
            encode_value_ref(&mut out, ValueRef::of(value));
            assert_eq!(value_len(ValueRef::of(value)), out.len(), "{value:?}");
        }
        for arity in [0, 1, 127, 128, 16_383, 16_384] {
            let mut out = Vec::new();
            encode_arity(&mut out, arity);
            assert_eq!(arity_len(arity), out.len(), "{arity}");
        }
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::default();
        assert_eq!(decode_tuple(&encode_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(decode_tuple(&[]).is_err());
        let mut enc = encode_tuple(&tuple![1, "abc"]);
        enc.truncate(enc.len() - 1);
        assert!(decode_tuple(&enc).is_err());
        let mut enc2 = encode_tuple(&tuple![1]);
        enc2.push(0xAA);
        assert!(decode_tuple(&enc2).is_err());
    }

    #[test]
    fn row_reader_streams_what_decode_tuple_decodes() {
        let t = Tuple::new(vec![
            Value::Null,
            Value::Int(-1),
            Value::BigInt(i64::MIN),
            Value::Varchar("héllo\0world".into()),
            Value::Bool(true),
            Value::Timestamp(1_700_000_000_000_000),
            Value::Double(std::f64::consts::PI),
        ]);
        let enc = encode_tuple(&t);
        let (mut reader, arity) = RowReader::new(&enc).unwrap();
        assert_eq!(arity, t.len());
        let streamed: Vec<Value> = (0..arity)
            .map(|_| reader.next_value().unwrap().to_value())
            .collect();
        assert_eq!(Tuple::new(streamed), t);
        reader.finish().unwrap();
        // truncation surfaces as an error mid-stream, never a panic
        let cut = &enc[..enc.len() - 1];
        let (mut reader, arity) = RowReader::new(cut).unwrap();
        let result: Result<Vec<_>, _> = (0..arity).map(|_| reader.next_value()).collect();
        assert!(result.is_err());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 127, 128, 16383, 16384, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }
}
