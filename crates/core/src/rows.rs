//! Result rows as one packed block.
//!
//! A result set is bounded (§7), read once by a codec, and between the
//! store and the socket only ever filtered, cut, reordered or widened — so
//! it is held the way the store's range answers are
//! (`piql_kv::Entries`): [`Rows`] is one vector of fixed-size cells and
//! one text buffer, whatever the number of rows. A scalar sits in its
//! cell; a string is a range of the text. Operators that drop, reorder or
//! project rows move cells and leave the text alone; a join keeps its
//! input's text and appends to it. What the block costs is two
//! allocations and byte-proportional copying, not a vector per row and a
//! `String` per field.

use crate::tuple::Tuple;
use crate::value::ValueRef;
use std::cmp::Ordering;
use std::fmt;

/// A row read by position — what predicates and sort keys are evaluated
/// over, whether the row is a [`RowRef`] into a block or an owned
/// [`Tuple`] (the reference executor's). Reading past the row's end
/// panics, like indexing a slice: positions are fixed by the plan.
pub trait Row {
    fn value(&self, idx: usize) -> ValueRef<'_>;
}

impl Row for Tuple {
    fn value(&self, idx: usize) -> ValueRef<'_> {
        ValueRef::of(&self[idx])
    }
}

/// Why a block refused a value or a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowsError {
    /// The block's strings would pass 4 GiB: a cell addresses the text
    /// with 32-bit offsets, and refuses rather than wrap.
    TextTooLarge,
    /// A row was ended, or a position named, that the block's arity does
    /// not allow.
    Shape(&'static str),
}

impl fmt::Display for RowsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowsError::TextTooLarge => write!(f, "result block holds more than 4 GiB of text"),
            RowsError::Shape(what) => write!(f, "result block: {what}"),
        }
    }
}

impl std::error::Error for RowsError {}

/// One value of a block: a scalar inline, a string as where it lies in the
/// block's text. 16 bytes, `Copy`, and meaningless without that text.
#[derive(Clone, Copy)]
enum Cell {
    Null,
    Int(i32),
    BigInt(i64),
    Bool(bool),
    Timestamp(i64),
    Double(f64),
    Text { start: u32, len: u32 },
}

impl Cell {
    /// The cell of a string of `len` bytes written at `start` of the text.
    fn text(start: usize, len: usize) -> Result<Cell, RowsError> {
        match (u32::try_from(start), u32::try_from(len)) {
            (Ok(start), Ok(len)) if start.checked_add(len).is_some() => {
                Ok(Cell::Text { start, len })
            }
            _ => Err(RowsError::TextTooLarge),
        }
    }

    fn read(self, text: &str) -> ValueRef<'_> {
        match self {
            Cell::Null => ValueRef::Null,
            Cell::Int(v) => ValueRef::Int(v),
            Cell::BigInt(v) => ValueRef::BigInt(v),
            Cell::Bool(v) => ValueRef::Bool(v),
            Cell::Timestamp(v) => ValueRef::Timestamp(v),
            Cell::Double(v) => ValueRef::Double(v),
            Cell::Text { start, len } => {
                let start = start as usize;
                ValueRef::Varchar(&text[start..start + len as usize])
            }
        }
    }
}

/// A result set: `len` rows of `arity` values each, packed into one cell
/// vector and one text buffer. It is what the executor's operators hand
/// each other, what the engine's `QueryResult` and the server's
/// `Reply::Rows` hold, and what both wire codecs print from in place.
///
/// Equality and `Debug` are by value: two blocks holding the same rows are
/// equal whatever else their buffers hold (a projection or a cut leaves
/// unreferenced text behind), and a block prints exactly as the
/// `Vec<Tuple>` it stands for. [`Rows::to_tuples`] and the owning iterator
/// give tests and oracles that vector.
#[derive(Clone, Default)]
pub struct Rows {
    len: usize,
    arity: usize,
    /// `len * arity` cells, row after row.
    cells: Vec<Cell>,
    text: String,
}

impl Rows {
    /// Start a block of `arity`-value rows.
    pub fn builder(arity: usize) -> RowsBuilder {
        Rows::default().rebuild(arity)
    }

    /// Start a block of `arity`-value rows in this block's buffers, which
    /// it empties: how a caller that keeps a block between uses refills it.
    pub fn rebuild(mut self, arity: usize) -> RowsBuilder {
        self.len = 0;
        self.arity = arity;
        self.cells.clear();
        self.text.clear();
        RowsBuilder {
            rows: self,
            left: Rows::default(),
            base: 0,
        }
    }

    /// Start a block whose rows are each one of this block's rows
    /// ([`RowsBuilder::push_left`]) followed by `extra` more values — a
    /// join's output — in `spare`'s cells. This block's text becomes the
    /// new block's, so the left cells are copied as they are and no string
    /// is; this block's cells and `spare`'s text are what is left over
    /// ([`RowsBuilder::finish_with_left`]).
    pub fn widen(self, extra: usize, spare: Rows) -> RowsBuilder {
        let mut cells = spare.cells;
        cells.clear();
        RowsBuilder {
            rows: Rows {
                len: 0,
                arity: self.arity + extra,
                cells,
                text: self.text,
            },
            left: Rows {
                text: spare.text,
                ..self
            },
            base: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Bytes the block's buffers have room for.
    pub fn capacity_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<Cell>() + self.text.capacity()
    }

    /// Row `i`. Panics when `i >= len()`, like a slice.
    pub fn row(&self, i: usize) -> RowRef<'_> {
        assert!(i < self.len, "row {i} of a block of {}", self.len);
        RowRef {
            cells: &self.cells[i * self.arity..(i + 1) * self.arity],
            text: &self.text,
        }
    }

    pub fn first(&self) -> Option<RowRef<'_>> {
        self.iter().next()
    }

    pub fn last(&self) -> Option<RowRef<'_>> {
        self.len.checked_sub(1).map(|i| self.row(i))
    }

    pub fn iter(&self) -> RowsIter<'_> {
        RowsIter {
            rows: self,
            range: 0..self.len,
        }
    }

    /// Keep the first `len` rows.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            self.cells.truncate(len * self.arity);
        }
    }

    /// Keep the rows `keep` answers `true` for, in order. On an error the
    /// block is left holding some of its rows and is only fit to drop.
    pub fn try_retain<E>(
        &mut self,
        mut keep: impl FnMut(RowRef<'_>) -> Result<bool, E>,
    ) -> Result<(), E> {
        let arity = self.arity;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(self.row(i))? {
                self.cells
                    .copy_within(i * arity..(i + 1) * arity, kept * arity);
                kept += 1;
            }
        }
        self.truncate(kept);
        Ok(())
    }

    /// Reduce each row to the values at `positions`, in that order.
    /// Positions that strictly ascend (`t.*`, any subset in table order,
    /// the identity) are moved down inside the cell vector; any other
    /// selection gathers into `spare`'s cells, which then hold this
    /// block's old ones. The text is not touched.
    pub fn project(
        &mut self,
        positions: impl Iterator<Item = usize> + Clone,
        spare: &mut Rows,
    ) -> Result<(), RowsError> {
        if positions.clone().any(|p| p >= self.arity) {
            return Err(RowsError::Shape("projected position beyond the row"));
        }
        let (old, new) = (self.arity, positions.clone().count());
        if positions
            .clone()
            .zip(positions.clone().skip(1))
            .all(|(a, b)| a < b)
        {
            // a write lands at or before the cell it reads, and every
            // later read lies further on
            for row in 0..self.len {
                for (to, from) in positions.clone().enumerate() {
                    self.cells[row * new + to] = self.cells[row * old + from];
                }
            }
            self.cells.truncate(self.len * new);
        } else {
            let cells = &mut spare.cells;
            cells.clear();
            cells.reserve(self.len * new);
            for row in self.cells.chunks_exact(old) {
                cells.extend(positions.clone().map(|p| row[p]));
            }
            std::mem::swap(&mut self.cells, cells);
        }
        self.arity = new;
        Ok(())
    }

    /// Stable sort of the rows by `compare`: their new order is worked out
    /// in `order`, and the rows are swapped into it in place. The text
    /// stays where it is.
    pub fn sort_by(
        &mut self,
        order: &mut Vec<usize>,
        mut compare: impl FnMut(RowRef<'_>, RowRef<'_>) -> Ordering,
    ) {
        order.clear();
        order.extend(0..self.len);
        order.sort_by(|&a, &b| compare(self.row(a), self.row(b)));
        // place `i` takes the row at `order[i]`: follow each cycle of the
        // permutation, marking each place done as it is filled
        let arity = self.arity;
        for start in 0..self.len {
            let mut at = start;
            loop {
                let from = std::mem::replace(&mut order[at], at);
                if from == start || from == at {
                    break;
                }
                let (first, second) = (at.min(from) * arity, at.max(from) * arity);
                let (low, high) = self.cells.split_at_mut(second);
                low[first..first + arity].swap_with_slice(&mut high[..arity]);
                at = from;
            }
        }
    }

    /// The rows as owned tuples.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter().map(RowRef::to_tuple).collect()
    }
}

/// The conversion tests and oracles build expectations with; the executor
/// appends through a [`RowsBuilder`], which reports what this panics on:
/// tuples of unequal length, or more than 4 GiB of text.
impl From<Vec<Tuple>> for Rows {
    fn from(tuples: Vec<Tuple>) -> Rows {
        let mut out = Rows::builder(tuples.first().map_or(0, Tuple::len));
        out.reserve(tuples.len(), 0);
        for tuple in &tuples {
            let pushed = tuple
                .values()
                .iter()
                .try_for_each(|v| out.push(ValueRef::of(v)))
                .and_then(|()| out.end_row());
            if let Err(e) = pushed {
                panic!("{e}");
            }
        }
        out.finish()
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = RowRef<'a>;
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> RowsIter<'a> {
        self.iter()
    }
}

impl IntoIterator for Rows {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.to_tuples().into_iter()
    }
}

/// The rows of a block, in order.
pub struct RowsIter<'a> {
    rows: &'a Rows,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = RowRef<'a>;

    fn next(&mut self) -> Option<RowRef<'a>> {
        self.range.next().map(|i| self.rows.row(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

/// One row of a [`Rows`] block, borrowed: its cells and the block's text.
/// `Copy`, two slices wide; values come out as [`ValueRef`]s, a string
/// borrowing the block — nothing is allocated to read a row. Compares and
/// prints as the [`Tuple`] holding the same values.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    cells: &'a [Cell],
    text: &'a str,
}

impl<'a> RowRef<'a> {
    pub fn len(self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(self) -> bool {
        self.cells.is_empty()
    }

    pub fn get(self, idx: usize) -> Option<ValueRef<'a>> {
        self.cells.get(idx).map(|cell| cell.read(self.text))
    }

    pub fn iter(self) -> impl ExactSizeIterator<Item = ValueRef<'a>> {
        self.cells.iter().map(move |cell| cell.read(self.text))
    }

    /// The row as an owned tuple (allocates, a `String` per string).
    pub fn to_tuple(self) -> Tuple {
        Tuple::new(self.iter().map(ValueRef::to_value).collect())
    }
}

impl Row for RowRef<'_> {
    fn value(&self, idx: usize) -> ValueRef<'_> {
        self.cells[idx].read(self.text)
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &RowRef<'_>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Values<'a>(RowRef<'a>);
        impl fmt::Debug for Values<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Tuple")
            .field("values", &Values(*self))
            .finish()
    }
}

/// Appends rows to a block value by value. A row is [`push`]ed (and, when
/// the block [widens](Rows::widen) another, begun with [`push_left`]),
/// then closed with [`end_row`], which checks its length; until then it is
/// pending and [`drop_row`] takes it back.
///
/// [`push`]: RowsBuilder::push
/// [`push_left`]: RowsBuilder::push_left
/// [`end_row`]: RowsBuilder::end_row
/// [`drop_row`]: RowsBuilder::drop_row
pub struct RowsBuilder {
    /// The block so far; its cell vector also holds the pending row.
    rows: Rows,
    /// The block being widened: its cells, and the text of the spare the
    /// new block's cells came from.
    left: Rows,
    /// Where the pending row's own values — past any left row — start.
    base: usize,
}

impl RowsBuilder {
    /// Make room for `rows` more rows and `text_bytes` more bytes of
    /// strings. Callers size from what the store actually answered, never
    /// from a limit.
    pub fn reserve(&mut self, rows: usize, text_bytes: usize) {
        self.rows.cells.reserve(rows * self.rows.arity);
        self.rows.text.reserve(text_bytes);
    }

    /// Begin the pending row with row `i` of the widened block.
    pub fn push_left(&mut self, i: usize) -> Result<(), RowsError> {
        let arity = self.left.arity;
        let row = i
            .checked_mul(arity)
            .and_then(|at| self.left.cells.get(at..at.checked_add(arity)?))
            .ok_or(RowsError::Shape("no such left row"))?;
        self.rows.cells.extend_from_slice(row);
        self.base = self.rows.cells.len();
        Ok(())
    }

    /// Append `value` to the pending row.
    pub fn push(&mut self, value: ValueRef<'_>) -> Result<(), RowsError> {
        let cell = self.cell(value)?;
        self.rows.cells.push(cell);
        Ok(())
    }

    /// Append `n` NULLs to the pending row.
    pub fn push_nulls(&mut self, n: usize) {
        let filled = self.rows.cells.len() + n;
        self.rows.cells.resize(filled, Cell::Null);
    }

    /// Replace the pending row's value at `idx`, counted from the end of
    /// its left row.
    pub fn set(&mut self, idx: usize, value: ValueRef<'_>) -> Result<(), RowsError> {
        let cell = self.cell(value)?;
        let slot = self
            .rows
            .cells
            .get_mut(self.base + idx)
            .ok_or(RowsError::Shape("set beyond the pending row"))?;
        *slot = cell;
        Ok(())
    }

    /// The pending row's values, past its left row.
    pub fn pending(&self) -> RowRef<'_> {
        RowRef {
            cells: &self.rows.cells[self.base..],
            text: &self.rows.text,
        }
    }

    /// Close the pending row.
    pub fn end_row(&mut self) -> Result<(), RowsError> {
        let rows = &mut self.rows;
        if rows.cells.len() != (rows.len + 1) * rows.arity {
            return Err(RowsError::Shape(
                "row length differs from the block's arity",
            ));
        }
        rows.len += 1;
        self.base = rows.cells.len();
        Ok(())
    }

    /// Take the pending row back (the text it wrote stays, unreferenced).
    pub fn drop_row(&mut self) {
        let rows = &mut self.rows;
        rows.cells.truncate(rows.len * rows.arity);
        self.base = rows.cells.len();
    }

    /// The block; a row left pending is dropped.
    pub fn finish(self) -> Rows {
        self.finish_with_left().0
    }

    /// The block, and the buffers a widened block leaves over, emptied: a
    /// block of its own to build the next one in.
    pub fn finish_with_left(mut self) -> (Rows, Rows) {
        self.drop_row();
        let left = self.left.rebuild(0).rows;
        (self.rows, left)
    }

    fn cell(&mut self, value: ValueRef<'_>) -> Result<Cell, RowsError> {
        Ok(match value {
            ValueRef::Null => Cell::Null,
            ValueRef::Int(v) => Cell::Int(v),
            ValueRef::BigInt(v) => Cell::BigInt(v),
            ValueRef::Bool(v) => Cell::Bool(v),
            ValueRef::Timestamp(v) => Cell::Timestamp(v),
            ValueRef::Double(v) => Cell::Double(v),
            ValueRef::Varchar(s) => {
                let cell = Cell::text(self.rows.text.len(), s.len())?;
                self.rows.text.push_str(s);
                cell
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Value;

    #[test]
    fn a_cell_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 16);
    }

    #[test]
    fn text_offsets_refuse_to_wrap() {
        let limit = u32::MAX as usize;
        assert!(Cell::text(0, limit).is_ok());
        assert!(Cell::text(limit - 5, 5).is_ok());
        assert_eq!(
            Cell::text(limit - 5, 6).err(),
            Some(RowsError::TextTooLarge)
        );
        assert_eq!(
            Cell::text(limit + 1, 0).err(),
            Some(RowsError::TextTooLarge)
        );
        assert_eq!(
            Cell::text(0, limit + 1).err(),
            Some(RowsError::TextTooLarge)
        );
    }

    #[test]
    fn the_builder_checks_row_shape() {
        let mut out = Rows::builder(2);
        out.push(ValueRef::Int(1)).unwrap();
        assert!(matches!(out.end_row(), Err(RowsError::Shape(_))));
        out.push(ValueRef::Varchar("a")).unwrap();
        out.end_row().unwrap();
        // a pending row can be edited, taken back, or left behind
        out.push_nulls(2);
        out.set(1, ValueRef::Varchar("b")).unwrap();
        assert!(out.set(2, ValueRef::Null).is_err());
        assert_eq!(
            out.pending().to_tuple(),
            Tuple::new(vec![Value::Null, "b".into()])
        );
        out.drop_row();
        out.push(ValueRef::Bool(true)).unwrap();
        assert_eq!(out.finish().to_tuples(), vec![tuple![1, "a"]]);
    }

    #[test]
    fn widening_keeps_the_left_text_and_copies_cells() {
        let left = Rows::from(vec![tuple!["amy", 1], tuple!["bob", 2]]);
        let spare = Rows::from(vec![tuple!["spare text"]]);
        let mut out = left.widen(1, spare);
        for (left_row, right) in [(1, "x"), (0, "y"), (1, "z")] {
            out.push_left(left_row).unwrap();
            out.push(ValueRef::Varchar(right)).unwrap();
            out.end_row().unwrap();
        }
        assert!(out.push_left(2).is_err());
        let (rows, left) = out.finish_with_left();
        assert_eq!(
            (left.len(), left.cells.capacity(), left.text.capacity()),
            (0, 4, 10)
        );
        assert_eq!(rows.arity(), 3);
        assert_eq!(
            rows.to_tuples(),
            vec![
                tuple!["bob", 2, "x"],
                tuple!["amy", 1, "y"],
                tuple!["bob", 2, "z"]
            ]
        );
        assert_eq!(rows.text, "amybobxyz", "each string is held once");
    }

    #[test]
    fn empty_blocks_are_equal_whatever_their_arity() {
        assert_eq!(Rows::builder(3).finish(), Rows::default());
        assert_eq!(format!("{:?}", Rows::builder(3).finish()), "[]");
        assert!(Rows::default().first().is_none());
    }
}
