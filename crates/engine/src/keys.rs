//! Key construction: from rows and probe values to store keys.
//!
//! Tables map to a primary namespace (`encode(pk) -> row codec bytes`);
//! each secondary index maps to its own namespace
//! (`encode(declared parts ++ pk) -> ()`), with `TOKEN(col)` parts expanded
//! to one entry per token of the column's text (§7.3).

use piql_core::catalog::{ColumnId, IndexDef, IndexKind, TableDef};
use piql_core::codec::key::{self, Dir};
use piql_core::codec::row::{self as row_codec, RowReader};
use piql_core::rows::{Row, RowRef, RowsBuilder, RowsError};
use piql_core::text;
use piql_core::tuple::Tuple;
use piql_core::value::{DataType, ValueRef};
use std::fmt;
use std::ops::{ControlFlow, Range};

/// Engine-level errors around key/row handling.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyError {
    Codec(String),
    RowShape(String),
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::Codec(e) => write!(f, "key codec: {e}"),
            KeyError::RowShape(e) => write!(f, "row shape: {e}"),
        }
    }
}

impl std::error::Error for KeyError {}

impl From<key::KeyCodecError> for KeyError {
    fn from(e: key::KeyCodecError) -> Self {
        KeyError::Codec(e.to_string())
    }
}

impl From<row_codec::RowCodecError> for KeyError {
    fn from(e: row_codec::RowCodecError) -> Self {
        KeyError::Codec(e.to_string())
    }
}

impl From<RowsError> for KeyError {
    fn from(e: RowsError) -> Self {
        KeyError::RowShape(e.to_string())
    }
}

/// A row the encoders below read column by column, each value already in
/// the canonical form of its column's type. A stored [`Tuple`] is one, and
/// so is a [`RowRef`] into an executor's block; the write path's sources
/// validate and coerce request values on the way out (so a row is encoded
/// straight from what the client sent, with no intermediate copy), which
/// is why reading a column can fail.
pub trait RowSource {
    type Error: From<KeyError>;
    fn value(&self, col: ColumnId) -> Result<ValueRef<'_>, Self::Error>;
}

impl RowSource for Tuple {
    type Error = KeyError;
    fn value(&self, col: ColumnId) -> Result<ValueRef<'_>, KeyError> {
        Ok(ValueRef::of(&self[col]))
    }
}

impl RowSource for [ValueRef<'_>] {
    type Error = KeyError;
    fn value(&self, col: ColumnId) -> Result<ValueRef<'_>, KeyError> {
        Ok(self[col])
    }
}

impl RowSource for RowRef<'_> {
    type Error = KeyError;
    fn value(&self, col: ColumnId) -> Result<ValueRef<'_>, KeyError> {
        Ok(Row::value(self, col))
    }
}

/// One component of a stored key, resolved to a column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPart {
    pub col: ColumnId,
    pub dir: Dir,
    /// `TOKEN(col)`: one entry per token of the column's text.
    pub token: bool,
}

/// The full stored key layout of `index` (declared parts, then the primary
/// key columns not already present) with column names resolved.
pub fn index_key_parts(table: &TableDef, index: &IndexDef) -> Result<Vec<KeyPart>, KeyError> {
    index
        .full_key_parts(table)
        .iter()
        .map(|part| {
            let name = part.kind.column_name();
            let col = table
                .column_id(name)
                .ok_or_else(|| KeyError::RowShape(format!("unknown column {name}")))?;
            Ok(KeyPart {
                col,
                dir: part.dir,
                token: matches!(part.kind, IndexKind::Token(_)),
            })
        })
        .collect()
}

/// Primary-key bytes of `row`, given the key's column positions.
pub fn primary_key_from<R: RowSource>(
    table: &TableDef,
    pk: &[ColumnId],
    row: &R,
) -> Result<Vec<u8>, R::Error> {
    primary_key_with_room(table, pk, row, 0)
}

/// Where [`record_entry`] takes a record's key from.
#[derive(Debug, Clone, Copy)]
pub enum RecordKey<'k> {
    /// The row's own primary key, encoded from these columns in key order
    /// (INSERT, a bulk load).
    Columns(&'k [ColumnId]),
    /// The key the record is stored under already (UPDATE).
    Stored(&'k [u8]),
}

/// The entry a write stores for `row`: its key, then its record, in one
/// buffer of exactly their size, and where the key ends — what a
/// test-and-set carries and a bulk feed pushes, and what the store keeps
/// as it is. Every column is read, in column order, before anything is
/// encoded, so a row that does not validate fails on its first bad
/// column and builds nothing.
pub fn record_entry<R: RowSource + ?Sized>(
    table: &TableDef,
    key: RecordKey<'_>,
    row: &R,
) -> Result<(Vec<u8>, usize), R::Error> {
    let arity = table.columns.len();
    let mut record_len = row_codec::arity_len(arity);
    for c in 0..arity {
        record_len += row_codec::value_len(row.value(c)?);
    }
    let mut entry = match key {
        RecordKey::Columns(pk) => primary_key_with_room(table, pk, row, record_len)?,
        RecordKey::Stored(key) => {
            let mut entry = Vec::with_capacity(key.len() + record_len);
            entry.extend_from_slice(key);
            entry
        }
    };
    let key_len = entry.len();
    row_codec::encode_arity(&mut entry, arity);
    for c in 0..arity {
        row_codec::encode_value_ref(&mut entry, row.value(c)?);
    }
    Ok((entry, key_len))
}

/// [`primary_key_from`] in a buffer with room for exactly `room` more
/// bytes: the record [`record_entry`] writes behind the key.
fn primary_key_with_room<R: RowSource + ?Sized>(
    table: &TableDef,
    pk: &[ColumnId],
    row: &R,
    room: usize,
) -> Result<Vec<u8>, R::Error> {
    let mut len = room;
    for &c in pk {
        let v = row.value(c)?;
        if v == ValueRef::Null {
            return Err(
                KeyError::RowShape(format!("primary key of {} contains NULL", table.name)).into(),
            );
        }
        len += v.encoded_len();
    }
    let mut out = Vec::with_capacity(len);
    for &c in pk {
        key::encode_component_ref(&mut out, row.value(c)?, Dir::Asc).map_err(KeyError::from)?;
    }
    Ok(out)
}

/// Hand every index-entry key of `row` under the key layout `parts` to
/// `emit` (several when a TOKEN part expands, none when it has no tokens),
/// sorted and each once, every key in a buffer of exactly its size.
pub fn entry_keys<R: RowSource + ?Sized>(
    parts: &[KeyPart],
    row: &R,
    emit: impl FnMut(Vec<u8>),
) -> Result<(), R::Error> {
    entry_keys_in(parts, row, &mut EntryScratch::default(), emit)
}

/// The buffers [`entry_keys_in`] expands a TOKEN part in, kept from one
/// row to the next by a caller that makes many rows' keys.
#[derive(Debug, Default)]
pub struct EntryScratch {
    bytes: Vec<u8>,
    token: String,
    comps: Vec<Range<usize>>,
    found: Vec<Range<usize>>,
    spans: Vec<Range<usize>>,
    pick: Vec<usize>,
}

/// [`entry_keys`], with a TOKEN part expanded in the buffers of `s`: a
/// row's keys then cost their own buffers and nothing else.
pub fn entry_keys_in<R: RowSource + ?Sized>(
    parts: &[KeyPart],
    row: &R,
    s: &mut EntryScratch,
    mut emit: impl FnMut(Vec<u8>),
) -> Result<(), R::Error> {
    if !parts.iter().any(|p| p.token) {
        // the common shape: exactly one entry, sized before it is written
        let mut len = 0;
        for part in parts {
            len += row.value(part.col)?.encoded_len();
        }
        let mut out = Vec::with_capacity(len);
        for part in parts {
            key::encode_component_ref(&mut out, row.value(part.col)?, part.dir)
                .map_err(KeyError::from)?;
        }
        emit(out);
        return Ok(());
    }
    // token expansion: each part's candidate components, encoded back to
    // back into one buffer (a TOKEN part's sorted and deduplicated), and
    // the keys their cartesian product. Components are prefix-free, so
    // walking the product in order emits the keys sorted, each once.
    s.bytes.clear();
    s.comps.clear();
    s.spans.clear();
    for part in parts {
        let first = s.comps.len();
        let value = row.value(part.col)?;
        if !part.token {
            let start = s.bytes.len();
            key::encode_component_ref(&mut s.bytes, value, part.dir).map_err(KeyError::from)?;
            s.comps.push(start..s.bytes.len());
        } else if let ValueRef::Varchar(words) = value {
            let _ = text::each_token(words, &mut s.token, |t| {
                let start = s.bytes.len();
                key::encode_str(&mut s.bytes, t, part.dir);
                s.found.push(start..s.bytes.len());
                ControlFlow::<()>::Continue(())
            });
            let (bytes, found) = (&s.bytes, &mut s.found);
            found.sort_unstable_by(|a, b| bytes[a.clone()].cmp(&bytes[b.clone()]));
            found.dedup_by(|a, b| bytes[a.clone()] == bytes[b.clone()]);
            s.comps.append(found);
        }
        if s.comps.len() == first {
            // no tokens -> no entries for this row
            return Ok(());
        }
        s.spans.push(first..s.comps.len());
    }
    let (bytes, comps, spans, pick) = (&s.bytes, &s.comps, &s.spans, &mut s.pick);
    pick.clear();
    pick.extend(spans.iter().map(|span| span.start));
    loop {
        let mut key = Vec::with_capacity(pick.iter().map(|&c| comps[c].len()).sum());
        for &c in pick.iter() {
            key.extend_from_slice(&bytes[comps[c].clone()]);
        }
        emit(key);
        // the next combination: step the last part that has one left
        let Some(i) = (0..pick.len()).rfind(|&i| pick[i] + 1 < spans[i].end) else {
            return Ok(());
        };
        pick[i] += 1;
        for j in i + 1..pick.len() {
            pick[j] = spans[j].start;
        }
    }
}

/// The buffers [`derives`] reuses from one row to the next: one encoded
/// component and one lowercased token.
#[derive(Debug, Default)]
pub struct DeriveScratch {
    component: Vec<u8>,
    token: String,
}

impl DeriveScratch {
    /// Bytes its buffers have room for.
    pub fn capacity_bytes(&self) -> usize {
        self.component.capacity() + self.token.capacity()
    }
}

/// Whether `row` derives the index-entry `key` under the layout `parts`,
/// i.e. whether [`entry_keys`] would emit it — the §7.2 re-check that an
/// entry still follows from the record it leads to — answered without
/// building a key. Each of the row's components is encoded into `scratch`
/// and matched against the next bytes of `key`. Components are
/// prefix-free (a fixed width, or `00 01`-terminated with `00 FF`
/// escapes), so at most one token of a TOKEN part can match there, and the
/// greedy match is exact.
pub fn derives<R: RowSource + ?Sized>(
    parts: &[KeyPart],
    row: &R,
    key: &[u8],
    scratch: &mut DeriveScratch,
) -> Result<bool, R::Error> {
    let DeriveScratch { component, token } = scratch;
    let mut rest = key;
    for part in parts {
        let value = row.value(part.col)?;
        let matched = if !part.token {
            component.clear();
            key::encode_component_ref(component, value, part.dir).map_err(KeyError::from)?;
            rest.starts_with(component).then_some(component.len())
        } else if let ValueRef::Varchar(s) = value {
            let found = text::each_token(s, token, |t| {
                component.clear();
                key::encode_str(component, t, part.dir);
                if rest.starts_with(component) {
                    ControlFlow::Break(component.len())
                } else {
                    ControlFlow::Continue(())
                }
            });
            found.break_value()
        } else {
            None // a TOKEN part without text derives no entry
        };
        match matched {
            Some(len) => rest = &rest[len..],
            None => return Ok(false),
        }
    }
    Ok(rest.is_empty())
}

/// Append one probe component with the part's direction.
pub fn encode_probe_component(
    buf: &mut Vec<u8>,
    value: ValueRef<'_>,
    dir: Dir,
) -> Result<(), KeyError> {
    // sized before it is written: a one-component key is one allocation
    buf.reserve(value.encoded_len());
    key::encode_component_ref(buf, value, dir)?;
    Ok(())
}

/// Whether a stored row of `arity` values is a full row of `table`.
pub(crate) fn check_arity(table: &TableDef, arity: usize) -> Result<(), KeyError> {
    if arity != table.columns.len() {
        return Err(KeyError::RowShape(format!(
            "row for {} has {} values, expected {}",
            table.name,
            arity,
            table.columns.len()
        )));
    }
    Ok(())
}

/// A row of `table` from a record's bytes, as values borrowed from them:
/// one vector, no string copied — how a write reads the row it replaces,
/// and the index sweep the record it checks.
pub(crate) fn decode_values<'b>(
    table: &TableDef,
    bytes: &'b [u8],
) -> Result<Vec<ValueRef<'b>>, KeyError> {
    let (mut reader, arity) = RowReader::new(bytes)?;
    check_arity(table, arity)?;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(reader.next_value()?);
    }
    reader.finish()?;
    Ok(values)
}

/// A row of `table` from a record's bytes, into the pending row of `out`:
/// nothing is allocated, a string is copied once, into the block's text.
pub fn decode_row_into(
    out: &mut RowsBuilder,
    table: &TableDef,
    bytes: &[u8],
) -> Result<(), KeyError> {
    let (mut reader, arity) = RowReader::new(bytes)?;
    check_arity(table, arity)?;
    for _ in 0..arity {
        out.push(reader.next_value()?)?;
    }
    Ok(reader.finish()?)
}

/// Reconstruct a (partial) `arity`-column row from the bytes of a key laid
/// out as `parts` (with their `types` and `dirs`, resolved once by the
/// caller), straight into the pending row of `out`: the key's components
/// land at their columns' positions, NULL elsewhere — the planner only
/// allows covering scans when every needed column is in the key. Strings
/// pass through `scratch` (see [`key::KeyReader`]).
pub fn row_from_key_into(
    out: &mut RowsBuilder,
    arity: usize,
    parts: &[KeyPart],
    types: &[DataType],
    dirs: &[Dir],
    key_bytes: &[u8],
    scratch: &mut Vec<u8>,
) -> Result<(), KeyError> {
    out.push_nulls(arity);
    let mut reader = key::KeyReader::new(key_bytes, scratch);
    for ((part, ty), dir) in parts.iter().zip(types).zip(dirs) {
        let value = reader.next_value(*ty, *dir)?;
        if !part.token {
            out.set(part.col, value)?;
        }
    }
    Ok(())
}

/// The value types of a stored key laid out as `parts`, as
/// [`key::decode_key`] takes them. A token part holds the token text.
pub fn key_types(table: &TableDef, parts: &[KeyPart]) -> Vec<DataType> {
    parts
        .iter()
        .map(|part| {
            if part.token {
                DataType::Varchar(64)
            } else {
                table.columns[part.col].ty
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_core::catalog::{IndexKeyPart, TableId};
    use piql_core::rows::Rows;
    use piql_core::value::Value;

    fn thoughts() -> TableDef {
        let mut t = TableDef::builder("thoughts")
            .column("owner", DataType::Varchar(32))
            .column("timestamp", DataType::Timestamp)
            .column("text", DataType::Varchar(140))
            .primary_key(&["owner", "timestamp"])
            .build();
        t.id = TableId(0);
        t
    }

    #[test]
    fn primary_key_roundtrip() {
        let t = thoughts();
        let row = Tuple::new(vec![
            Value::Varchar("bob".into()),
            Value::Timestamp(42),
            Value::Varchar("hi".into()),
        ]);
        let pk = t.primary_key_ids();
        let k = primary_key_from(&t, &pk, &row).unwrap();
        let k2 =
            key::encode_key_asc(&[Value::Varchar("bob".into()), Value::Timestamp(42)]).unwrap();
        assert_eq!(k, k2);
        let null_row = Tuple::new(vec![Value::Null, Value::Timestamp(1), Value::Null]);
        assert!(primary_key_from(&t, &pk, &null_row).is_err());
    }

    /// The row an entry `key` of `index` stands for, read as the non-covering
    /// dereference reads it.
    fn entry_row(table: &TableDef, index: &IndexDef, key: &[u8]) -> Tuple {
        let (arity, parts) = (table.columns.len(), index_key_parts(table, index).unwrap());
        let (types, dirs) = (
            key_types(table, &parts),
            parts.iter().map(|p| p.dir).collect::<Vec<_>>(),
        );
        let mut rows = Rows::default().rebuild(arity);
        row_from_key_into(
            &mut rows,
            arity,
            &parts,
            &types,
            &dirs,
            key,
            &mut Vec::new(),
        )
        .unwrap();
        rows.end_row().unwrap();
        rows.finish().to_tuples().remove(0)
    }

    /// Every index-entry key of `row` under `index`.
    fn index_entry_keys(table: &TableDef, index: &IndexDef, row: &Tuple) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let parts = index_key_parts(table, index).unwrap();
        entry_keys(&parts, row, |k| out.push(k)).unwrap();
        out
    }

    #[test]
    fn token_index_expands_per_token() {
        let t = thoughts();
        let idx = IndexDef::new("tok", t.id, vec![IndexKeyPart::token("text")]);
        let row = Tuple::new(vec![
            Value::Varchar("bob".into()),
            Value::Timestamp(1),
            Value::Varchar("hello wonderful world".into()),
        ]);
        let keys = index_entry_keys(&t, &idx, &row);
        assert_eq!(keys.len(), 3, "one entry per token");
        // every entry decodes back to the same pk
        for k in &keys {
            let rec = entry_row(&t, &idx, k);
            assert_eq!(rec[0], Value::Varchar("bob".into()));
            assert_eq!(rec[1], Value::Timestamp(1));
        }
        // empty text -> no entries
        let row2 = Tuple::new(vec![
            Value::Varchar("bob".into()),
            Value::Timestamp(2),
            Value::Varchar("--".into()),
        ]);
        assert!(index_entry_keys(&t, &idx, &row2).is_empty());
    }

    #[test]
    fn covering_reconstruction() {
        let t = thoughts();
        let idx = IndexDef::on_columns("by_ts", t.id, &[("timestamp", Dir::Desc)]);
        let row = Tuple::new(vec![
            Value::Varchar("amy".into()),
            Value::Timestamp(99),
            Value::Varchar("zzz".into()),
        ]);
        let keys = index_entry_keys(&t, &idx, &row);
        assert_eq!(keys.len(), 1);
        let rec = entry_row(&t, &idx, &keys[0]);
        assert_eq!(rec[0], Value::Varchar("amy".into()));
        assert_eq!(rec[1], Value::Timestamp(99));
        assert_eq!(rec[2], Value::Null, "text not in key");
    }

    #[test]
    fn desc_index_orders_newest_first() {
        let t = thoughts();
        let idx = IndexDef::on_columns(
            "owner_ts_desc",
            t.id,
            &[("owner", Dir::Asc), ("timestamp", Dir::Desc)],
        );
        let mk = |ts: i64| {
            Tuple::new(vec![
                Value::Varchar("amy".into()),
                Value::Timestamp(ts),
                Value::Varchar("x".into()),
            ])
        };
        let k_new = &index_entry_keys(&t, &idx, &mk(100))[0];
        let k_old = &index_entry_keys(&t, &idx, &mk(50))[0];
        assert!(k_new < k_old);
    }

    #[test]
    fn a_record_entry_is_its_key_then_its_record_exactly_sized() {
        let t = thoughts();
        let row = Tuple::new(vec![
            Value::Varchar("amy".into()),
            Value::Timestamp(7),
            Value::Null,
        ]);
        let pk = t.primary_key_ids();
        let key = primary_key_from(&t, &pk, &row).unwrap();
        let record = row_codec::encode_tuple(&row);
        let stored = record_entry(&t, RecordKey::Stored(&key), &row).unwrap();
        for (entry, key_len) in [
            record_entry(&t, RecordKey::Columns(&pk), &row).unwrap(),
            stored,
        ] {
            assert_eq!(entry.capacity(), entry.len(), "no slack for the store");
            let (k, r) = entry.split_at(key_len);
            assert_eq!((k, r), (key.as_slice(), record.as_slice()));
        }
        let null_key = Tuple::new(vec![Value::Null, Value::Timestamp(1), Value::Null]);
        assert!(record_entry(&t, RecordKey::Columns(&pk), &null_key).is_err());
    }
}
