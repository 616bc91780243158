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
use piql_core::value::{DataType, Value, ValueRef};
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

/// [`primary_key_from`] in a buffer with room for exactly `room` more
/// bytes: the record a write stores under the key, which the store
/// appends to the key's own buffer to make its entry without growing it.
pub fn primary_key_with_room<R: RowSource>(
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

/// Primary-key bytes from explicit values (probe side).
pub fn primary_key_from_values(values: &[Value]) -> Result<Vec<u8>, KeyError> {
    Ok(key::encode_key_asc(values)?)
}

/// Hand every index-entry key of `row` under the key layout `parts` to
/// `emit` (several when a TOKEN part expands, none when it has no tokens),
/// sorted and each once, every key in a buffer of exactly its size.
pub fn entry_keys<R: RowSource>(
    parts: &[KeyPart],
    row: &R,
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
    let (mut bytes, mut token) = (Vec::new(), String::new());
    let (mut comps, mut found): (Vec<Range<usize>>, Vec<Range<usize>>) = Default::default();
    let mut spans = Vec::with_capacity(parts.len());
    for part in parts {
        let first = comps.len();
        let value = row.value(part.col)?;
        if !part.token {
            let start = bytes.len();
            key::encode_component_ref(&mut bytes, value, part.dir).map_err(KeyError::from)?;
            comps.push(start..bytes.len());
        } else if let ValueRef::Varchar(s) = value {
            let _ = text::each_token(s, &mut token, |t| {
                let start = bytes.len();
                key::encode_str(&mut bytes, t, part.dir);
                found.push(start..bytes.len());
                ControlFlow::<()>::Continue(())
            });
            found.sort_unstable_by(|a, b| bytes[a.clone()].cmp(&bytes[b.clone()]));
            found.dedup_by(|a, b| bytes[a.clone()] == bytes[b.clone()]);
            comps.append(&mut found);
        }
        if comps.len() == first {
            // no tokens -> no entries for this row
            return Ok(());
        }
        spans.push(first..comps.len());
    }
    let mut pick: Vec<usize> = spans.iter().map(|span| span.start).collect();
    loop {
        let mut key = Vec::with_capacity(pick.iter().map(|&c| comps[c].len()).sum());
        for &c in &pick {
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
pub fn derives<R: RowSource>(
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
fn check_arity(table: &TableDef, arity: usize) -> Result<(), KeyError> {
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

/// Decode a full-row tuple from a primary-index entry's value bytes.
pub fn decode_row(table: &TableDef, bytes: &[u8]) -> Result<Tuple, KeyError> {
    let t = row_codec::decode_tuple(bytes)?;
    check_arity(table, t.len())?;
    Ok(t)
}

/// [`decode_row`] straight into the pending row of `out`: nothing is
/// allocated, a string is copied once, into the block's text.
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

/// [`row_from_key`] straight into the pending row of `out`: the key's
/// components land at their columns' positions, NULL elsewhere. Strings
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

/// The record bytes of an `arity`-column row, sized before they are
/// written: what [`row_codec::encode_tuple`] makes of the same values.
pub fn encode_row_from<R: RowSource>(row: &R, arity: usize) -> Result<Vec<u8>, R::Error> {
    let mut len = 2;
    for c in 0..arity {
        len += row.value(c)?.encoded_len();
    }
    let mut out = Vec::with_capacity(len);
    row_codec::encode_arity(&mut out, arity);
    for c in 0..arity {
        row_codec::encode_value_ref(&mut out, row.value(c)?);
    }
    Ok(out)
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

/// Reconstruct a (partial) `arity`-column row from the bytes of a key laid
/// out as `parts` (with their `types` and `dirs`, resolved once by the
/// caller). Columns not present in the key come back as NULL; the planner
/// only allows covering scans when every needed column is in the key.
pub fn row_from_key(
    arity: usize,
    parts: &[KeyPart],
    types: &[DataType],
    dirs: &[Dir],
    key_bytes: &[u8],
) -> Result<Tuple, KeyError> {
    let (values, _) = key::decode_key(key_bytes, types, dirs)?;
    let mut row = vec![Value::Null; arity];
    for (part, value) in parts.iter().zip(values) {
        if !part.token {
            row[part.col] = value;
        }
    }
    Ok(Tuple::new(row))
}

/// [`row_from_key`] for an index entry key, resolving the layout from the
/// definitions.
pub fn row_from_index_key(
    table: &TableDef,
    index: &IndexDef,
    key_bytes: &[u8],
) -> Result<Tuple, KeyError> {
    let parts = index_key_parts(table, index)?;
    let dirs: Vec<Dir> = parts.iter().map(|p| p.dir).collect();
    row_from_key(
        table.columns.len(),
        &parts,
        &key_types(table, &parts),
        &dirs,
        key_bytes,
    )
}

/// Extract the primary-key values from an index entry key (the trailing
/// components plus any pk columns earlier in the key).
pub fn pk_values_from_index_key(
    table: &TableDef,
    index: &IndexDef,
    key_bytes: &[u8],
) -> Result<Vec<Value>, KeyError> {
    let row = row_from_index_key(table, index, key_bytes)?;
    Ok(table
        .primary_key_ids()
        .iter()
        .map(|&c| row[c].clone())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_core::catalog::{IndexKeyPart, TableId};

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
            primary_key_from_values(&[Value::Varchar("bob".into()), Value::Timestamp(42)]).unwrap();
        assert_eq!(k, k2);
        let null_row = Tuple::new(vec![Value::Null, Value::Timestamp(1), Value::Null]);
        assert!(primary_key_from(&t, &pk, &null_row).is_err());
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
            let pk = pk_values_from_index_key(&t, &idx, k).unwrap();
            assert_eq!(pk, vec![Value::Varchar("bob".into()), Value::Timestamp(1)]);
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
        let rec = row_from_index_key(&t, &idx, &keys[0]).unwrap();
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
    fn row_codec_roundtrip() {
        let t = thoughts();
        let row = Tuple::new(vec![
            Value::Varchar("amy".into()),
            Value::Timestamp(7),
            Value::Null,
        ]);
        let bytes = encode_row_from(&row, row.len()).unwrap();
        assert_eq!(decode_row(&t, &bytes).unwrap(), row);
        assert_eq!(bytes, row_codec::encode_tuple(&row));
        let short = encode_row_from(&Tuple::new(vec![Value::Int(1)]), 1).unwrap();
        assert!(decode_row(&t, &short).is_err());
    }
}
