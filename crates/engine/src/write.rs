//! The write path: index maintenance and constraint enforcement (§7.2).
//!
//! The store is eventually consistent, so the engine orders writes to fail
//! safe:
//!
//! * **Insert/update**: new secondary-index entries first, then the record
//!   (via test-and-set for uniqueness), then deletion of stale entries —
//!   each set of entries the one diff `write::entries` makes. For a
//!   single writer, a crash at any step leaves at most *dangling* entries
//!   (readers skip them, [`Writer::gc_indexes`] collects them), never a
//!   record its indexes cannot find. Racing writers get no such promise
//!   yet: an UPDATE that loses its test-and-set, or races a DELETE, leaves
//!   dangling entries with no crash, and two UPDATEs moving a column
//!   a→b→a can drop the live row's entry (ROADMAP.md, R9).
//! * **Cardinality enforcement**: insert, then count the enforcement
//!   prefix; over the limit, undo as a DELETE ends (`Writer::remove`) and
//!   fail. Concurrent inserts may overshoot transiently (as in the paper).
//! * **Uniqueness**: the record put is a test-and-set expecting absence.
//!
//! Nothing here consults the catalog or a namespace name per request: a
//! [`TableWrite`] is the table's write-side resolution — namespaces, key
//! layouts, constraint probes — done once (by a cached
//! [`WritePlan`](crate::plan::WritePlan), or per call by the sweep and
//! bulk entry points), and rows arrive as a [`RowSource`] that the
//! encoders read in place. The caller holds the catalog for read while a
//! write here runs, so no index is created under it
//! ([`Database`](crate::Database)).

use crate::exec::{page_range, ExecError};
use crate::keys::{self, KeyPart, RecordKey, RowSource};
use crate::plan::SlotRow;
use piql_core::catalog::{CardinalityConstraint, Catalog, ColumnId, IndexDef, TableDef};
use piql_core::codec::key::{encode_component_ref, encode_str, prefix_upper_bound, Dir};
use piql_core::plan::params::ParamError;
use piql_core::rows::{Row, Rows};
use piql_core::text;
use piql_core::value::{DataType, ValueRef};
use piql_kv::{KvRequest, KvResponse, KvStore, MalformedRound, NsId, Session};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Write-path errors.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteError {
    DuplicateKey {
        table: String,
    },
    NotFound {
        table: String,
    },
    CardinalityExceeded {
        table: String,
        constraint: String,
        limit: u64,
    },
    RowShape(String),
    Exec(String),
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteError::DuplicateKey { table } => {
                write!(f, "duplicate primary key in table '{table}'")
            }
            WriteError::NotFound { table } => write!(f, "row not found in table '{table}'"),
            WriteError::CardinalityExceeded {
                table,
                constraint,
                limit,
            } => write!(
                f,
                "insert into '{table}' violates CARDINALITY LIMIT {limit} ({constraint})"
            ),
            WriteError::RowShape(e) => write!(f, "{e}"),
            WriteError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WriteError {}

impl From<keys::KeyError> for WriteError {
    fn from(e: keys::KeyError) -> Self {
        WriteError::RowShape(e.to_string())
    }
}

impl From<ExecError> for WriteError {
    fn from(e: ExecError) -> Self {
        WriteError::Exec(e.to_string())
    }
}

impl From<ParamError> for WriteError {
    fn from(e: ParamError) -> Self {
        WriteError::Exec(e.to_string())
    }
}

impl From<MalformedRound> for WriteError {
    fn from(e: MalformedRound) -> Self {
        WriteError::Exec(e.to_string())
    }
}

/// One secondary index as the write path sees it.
#[derive(Debug, Clone)]
pub struct IndexWrite {
    pub ns: NsId,
    pub def: Arc<IndexDef>,
    /// The full stored key layout, columns resolved.
    pub parts: Vec<KeyPart>,
}

impl IndexWrite {
    pub fn resolve(
        store: &dyn KvStore,
        table: &TableDef,
        def: &Arc<IndexDef>,
    ) -> Result<Self, WriteError> {
        Ok(IndexWrite {
            ns: store.namespace(&Catalog::index_namespace(def)),
            def: def.clone(),
            parts: keys::index_key_parts(table, def)?,
        })
    }

    /// Most entries one row can have here: one, times the most tokens a
    /// `TOKEN(col)` part can expand to.
    pub fn max_entries(&self, table: &TableDef) -> u64 {
        self.parts
            .iter()
            .filter(|p| p.token)
            .map(|p| max_tokens(table, p.col))
            .product()
    }
}

/// Most tokens a value of column `col` can hold: tokens are non-empty and
/// separated by at least one byte, so a `VARCHAR(n)` fits `⌈n/2⌉`.
pub(crate) fn max_tokens(table: &TableDef, col: ColumnId) -> u64 {
    match table.columns[col].ty {
        DataType::Varchar(n) => u64::from(n).div_ceil(2).max(1),
        _ => 1,
    }
}

/// Everything the write path needs to know about one table, resolved from
/// a catalog once: where its records and index entries live and how their
/// keys are laid out.
#[derive(Debug, Clone)]
pub struct TableWrite {
    pub table: Arc<TableDef>,
    pub primary: NsId,
    /// Primary-key column positions, in key order.
    pub pk: Vec<ColumnId>,
    pub indexes: Vec<IndexWrite>,
}

impl TableWrite {
    pub fn resolve(
        store: &dyn KvStore,
        catalog: &Catalog,
        table: &Arc<TableDef>,
    ) -> Result<Self, WriteError> {
        let indexes = catalog
            .indexes()
            .filter(|i| i.table == table.id)
            .map(|i| IndexWrite::resolve(store, table, i))
            .collect::<Result<_, _>>()?;
        Ok(TableWrite {
            primary: store.namespace(&Catalog::table_namespace(table)),
            pk: table.primary_key_ids(),
            table: table.clone(),
            indexes,
        })
    }

    /// Upper bound on the index entries of one row, over all indexes.
    pub fn max_entries(&self) -> u64 {
        self.indexes
            .iter()
            .map(|i| i.max_entries(&self.table))
            .sum()
    }
}

/// How one `CARDINALITY LIMIT` is counted after an insert: the range whose
/// size is the number of rows sharing the new row's constraint values, in
/// the table's records or in the limit's *enforcement index* — whichever
/// [`CardinalityConstraint::enforcement_key`] names; the catalog registers
/// that index with the table.
#[derive(Debug, Clone)]
pub struct ConstraintProbe {
    pub limit: u64,
    /// The constraint's column list, as error messages spell it.
    pub columns: String,
    ns: NsId,
    kind: ProbeKind,
}

#[derive(Debug, Clone)]
enum ProbeKind {
    /// Count the ascending key prefix made of these columns' values.
    Prefix(Vec<ColumnId>),
    /// `TOKEN(col)`: count the token index's prefix for every token of
    /// the new value; the worst token decides.
    Token(ColumnId),
}

impl ConstraintProbe {
    /// Probes for every constraint of `target`'s table, in declaration
    /// order.
    pub fn resolve_all(target: &TableWrite) -> Vec<ConstraintProbe> {
        target
            .table
            .cardinality_constraints
            .iter()
            .map(|cc| Self::resolve(target, cc))
            .collect()
    }

    fn resolve(target: &TableWrite, cc: &CardinalityConstraint) -> Self {
        let table = &target.table;
        let ns = match cc.enforcement_key(table) {
            None => target.primary,
            Some(key) => {
                let index = target.indexes.iter().find(|i| i.def.key == key);
                index
                    .expect("a table is registered with its enforcement indexes")
                    .ns
            }
        };
        let column = |name: &str| table.column_id(name).expect("validated");
        let kind = match cc.token_column() {
            Some(col) => ProbeKind::Token(column(col)),
            None => ProbeKind::Prefix(cc.columns.iter().map(|c| column(c)).collect()),
        };
        ConstraintProbe {
            limit: cc.limit,
            columns: cc.columns.join(", "),
            ns,
            kind,
        }
    }

    /// Most count requests (one round) this probe issues for one row.
    pub fn max_requests(&self, table: &TableDef) -> u64 {
        match &self.kind {
            ProbeKind::Prefix(_) => 1,
            ProbeKind::Token(col) => max_tokens(table, *col),
        }
    }

    /// Count rows sharing `row`'s values on the constraint columns.
    fn count<R>(
        &self,
        store: &dyn KvStore,
        session: &mut Session,
        row: &R,
    ) -> Result<u64, WriteError>
    where
        R: RowSource<Error = WriteError>,
    {
        let count_prefix = |prefix: Vec<u8>| KvRequest::CountRange {
            ns: self.ns,
            end: prefix_upper_bound(&prefix),
            start: prefix,
        };
        match &self.kind {
            ProbeKind::Prefix(cols) => {
                let mut prefix = Vec::new();
                for &col in cols {
                    encode_component_ref(&mut prefix, row.value(col)?, Dir::Asc)
                        .map_err(keys::KeyError::from)?;
                }
                Ok(store.execute_one(session, count_prefix(prefix)).count()?)
            }
            ProbeKind::Token(col) => {
                let mut round = Round::default();
                if let ValueRef::Varchar(s) = row.value(*col)? {
                    let _ = text::each_token(s, &mut String::new(), |token| {
                        let mut prefix = Vec::with_capacity(token.len() + 3);
                        encode_str(&mut prefix, token, Dir::Asc);
                        round.push(count_prefix(prefix));
                        ControlFlow::<()>::Continue(())
                    });
                }
                let mut worst = 0;
                for response in round.issue(store, session) {
                    worst = worst.max(response.count()?);
                }
                Ok(worst)
            }
        }
    }
}

/// The requests of one round, collected without allocating until there is
/// a second one: most rounds of the write path carry exactly one request,
/// and [`KvStore::execute_one`] serves those without boxing either side.
#[derive(Default)]
enum Round {
    #[default]
    Empty,
    One(KvRequest),
    Many(Vec<KvRequest>),
}

impl Round {
    fn push(&mut self, req: KvRequest) {
        *self = match std::mem::take(self) {
            Round::Empty => Round::One(req),
            Round::One(first) => Round::Many(vec![first, req]),
            Round::Many(mut reqs) => {
                reqs.push(req);
                Round::Many(reqs)
            }
        };
    }

    /// Issue the round (nothing at all when it is empty).
    fn issue(self, store: &dyn KvStore, session: &mut Session) -> Vec<KvResponse> {
        match self {
            Round::Empty => Vec::new(),
            Round::One(req) => vec![store.execute_one(session, req)],
            Round::Many(reqs) => store.execute_round(session, reqs),
        }
    }

    /// [`Round::issue`] for rounds whose responses carry nothing (puts and
    /// deletes).
    fn send(self, store: &dyn KvStore, session: &mut Session) {
        match self {
            Round::Empty => {}
            Round::One(req) => {
                store.execute_one(session, req);
            }
            Round::Many(reqs) => {
                store.execute_round(session, reqs);
            }
        }
    }
}

/// Column `col`'s value for a row about to be stored: `value` checked
/// against the column's nullability and type, in the type's canonical
/// form.
pub(crate) fn conform<'v>(
    table: &TableDef,
    col: ColumnId,
    value: ValueRef<'v>,
) -> Result<ValueRef<'v>, WriteError> {
    let column = &table.columns[col];
    if value.is_null() && !column.nullable {
        return Err(WriteError::RowShape(format!(
            "column '{}' of table '{}' is NOT NULL",
            column.name, table.name
        )));
    }
    value.coerce(column.ty).ok_or_else(|| {
        WriteError::RowShape(format!(
            "value {} does not fit column '{}' {}",
            value.to_value(),
            column.name,
            column.ty
        ))
    })
}

/// A full row for `table` has one value per column.
pub(crate) fn check_arity(table: &TableDef, values: usize) -> Result<(), WriteError> {
    if values == table.columns.len() {
        return Ok(());
    }
    Err(WriteError::RowShape(format!(
        "table '{}' expects {} values, got {values}",
        table.name,
        table.columns.len(),
    )))
}

/// What a bulk load's feed pushes its rows into ([`Writer::bulk_load`]).
/// Each value is conformed to its column once, and the row's entry
/// ([`keys::record_entry`]) goes to the store as one buffer, which a
/// `LiveCluster` copies and hands back to the thread's spare for the next
/// row; a secondary-index entry is one buffer too.
pub struct Loader<'a> {
    target: &'a TableWrite,
    store: &'a mut dyn FnMut(Vec<u8>, usize),
    /// Per index, the entry keys of the rows stored so far.
    entries: &'a mut [Vec<Vec<u8>>],
    /// The buffer a row's conformed values are collected in; empty between rows.
    values: Vec<ValueRef<'static>>,
    scratch: keys::EntryScratch,
    /// The rows stored so far, or the error of the row that ended the load.
    loaded: Result<u64, WriteError>,
}

impl Loader<'_> {
    /// Store `row`, one value per column in the table's order. The first
    /// row that cannot be stored ends the load: it and every later push
    /// return its error, and no later push stores anything.
    pub fn push(&mut self, row: &[ValueRef<'_>]) -> Result<(), WriteError> {
        let rows = self.loaded.clone()?;
        let stored = self.store_row(row);
        self.loaded = stored.clone().map(|()| rows + 1);
        stored
    }

    fn store_row(&mut self, row: &[ValueRef<'_>]) -> Result<(), WriteError> {
        let table = &self.target.table;
        check_arity(table, row.len())?;
        // a row that fails drops the buffer: no later row needs it
        let mut values = recycle(std::mem::take(&mut self.values));
        for (col, &value) in row.iter().enumerate() {
            values.push(conform(table, col, value)?);
        }
        let key = RecordKey::Columns(&self.target.pk);
        let (entry, key_len) = keys::record_entry(table, key, &values[..])?;
        // a row's record goes before its entries: one whose entries
        // cannot all be made still has its record stored, and ends the load
        (self.store)(entry, key_len);
        let scratch = &mut self.scratch;
        (self.target.indexes.iter().zip(self.entries.iter_mut())).try_for_each(|(idx, keys)| {
            keys::entry_keys_in(&idx.parts, &values[..], scratch, |key| keys.push(key))
        })?;
        self.values = recycle(values);
        Ok(())
    }
}

/// `values`' buffer, emptied, for values borrowed for another lifetime:
/// collecting a vector's own iterator into a vector of the same layout
/// reuses its allocation, so a [`Loader`] keeps one buffer for every row.
fn recycle<'b>(mut values: Vec<ValueRef<'_>>) -> Vec<ValueRef<'b>> {
    values.clear();
    values.into_iter().map(|_| ValueRef::Null).collect()
}

/// [`entries`]' two ways: put the entries, or drop them.
const PUT: bool = true;
const DROP: bool = false;

/// Optimistic attempts an UPDATE makes before giving up on a contended row.
pub(crate) const UPDATE_ATTEMPTS: u64 = 8;

/// The write-path engine.
pub struct Writer<'a> {
    pub store: &'a dyn KvStore,
}

impl<'a> Writer<'a> {
    pub fn new(store: &'a dyn KvStore) -> Self {
        Writer { store }
    }

    /// Insert one row, maintaining all secondary indexes and constraints.
    pub fn insert<R>(
        &self,
        session: &mut Session,
        target: &TableWrite,
        constraints: &[ConstraintProbe],
        row: &R,
    ) -> Result<(), WriteError>
    where
        R: RowSource<Error = WriteError>,
    {
        let table = &target.table;
        // building the entry validates the whole row, in column order,
        // before anything is written
        let (entry, key_len) = keys::record_entry(table, RecordKey::Columns(&target.pk), row)?;

        // 1. secondary index entries first (one parallel round)
        entries(target, PUT, row, None::<&[ValueRef]>)?.send(self.store, session);

        // 2. the record, with a test-and-set enforcing pk uniqueness
        let response = self.store.execute_one(
            session,
            KvRequest::TestAndSet {
                ns: target.primary,
                entry,
                key_len,
                expect: None,
            },
        );
        let (inserted, stored) = response.tas()?;
        if !inserted {
            // Undo the entries just written — except those the stored row
            // derives too. Index keys end in the primary key, so where the
            // duplicate's indexed columns equal the live row's the keys
            // *are* the live row's entries, and deleting them would leave
            // a record its index cannot find.
            let live = stored.map(|b| keys::decode_values(table, b)).transpose()?;
            entries(target, DROP, row, live.as_deref())?.send(self.store, session);
            return Err(WriteError::DuplicateKey {
                table: table.name.clone(),
            });
        }

        // 3. cardinality enforcement: count after insert, undo on overflow
        for probe in constraints {
            if probe.count(self.store, session, row)? > probe.limit {
                let pk = keys::primary_key_from(table, &target.pk, row)?;
                self.remove(session, target, pk, row)?;
                return Err(WriteError::CardinalityExceeded {
                    table: table.name.clone(),
                    constraint: probe.columns.clone(),
                    limit: probe.limit,
                });
            }
        }
        Ok(())
    }

    /// Update the row stored under primary key `pk` to `new` read over it
    /// ([`SlotRow::over`]), which is validated like an inserted row.
    pub(crate) fn update(
        &self,
        session: &mut Session,
        target: &TableWrite,
        pk: &[u8],
        new: &SlotRow<'_>,
    ) -> Result<(), WriteError> {
        let table = &target.table;
        // optimistic TAS loop against concurrent writers
        for _attempt in 0..UPDATE_ATTEMPTS {
            let Some(old_bytes) = self.record(session, target, pk)? else {
                return Err(WriteError::NotFound {
                    table: table.name.clone(),
                });
            };
            let old = keys::decode_values(table, &old_bytes)?;
            let new = new.over(&old);
            let (entry, key_len) = keys::record_entry(table, RecordKey::Stored(pk), &new)?;

            // 1. fresh index entries
            entries(target, PUT, &new, Some(&old[..]))?.send(self.store, session);
            // the stale ones are made now, while `old` can still read the
            // record the test-and-set takes
            let stale = entries(target, DROP, &old[..], Some(&new))?;
            // 2. the record, conditionally
            let response = self.store.execute_one(
                session,
                KvRequest::TestAndSet {
                    ns: target.primary,
                    entry,
                    key_len,
                    expect: Some(old_bytes),
                },
            );
            if response.tas()?.0 {
                // 3. stale entries last
                stale.send(self.store, session);
                return Ok(());
            }
            // lost the race: the adds we made are dangling (GC-able); retry
        }
        Err(WriteError::Exec(format!(
            "update of '{}' lost too many test-and-set races",
            table.name
        )))
    }

    /// Delete the row stored under primary key `pk`. Returns whether a row
    /// existed.
    pub fn delete(
        &self,
        session: &mut Session,
        target: &TableWrite,
        pk: Vec<u8>,
    ) -> Result<bool, WriteError> {
        let Some(old_bytes) = self.record(session, target, &pk)? else {
            return Ok(false);
        };
        let old_row = keys::decode_values(&target.table, &old_bytes)?;
        self.remove(session, target, pk, &old_row[..])?;
        Ok(true)
    }

    /// The record stored under primary key `pk`, read with that key as it
    /// is where the store serves a point read ([`KvStore::point_get`]), and
    /// in one `Get` round where it declines.
    fn record(
        &self,
        session: &mut Session,
        target: &TableWrite,
        pk: &[u8],
    ) -> Result<Option<Vec<u8>>, WriteError> {
        let ns = target.primary;
        let mut record = Vec::new();
        Ok(match self.store.point_get(session, ns, pk, &mut record) {
            Some(found) => found.then_some(record),
            None => {
                let get = KvRequest::Get {
                    ns,
                    key: pk.to_vec(),
                };
                self.store.execute_one(session, get).into_value()?
            }
        })
    }

    /// A row leaves the store one way, record first, then every entry it
    /// derives: a stop between them leaves only dangling entries.
    fn remove<R>(
        &self,
        session: &mut Session,
        target: &TableWrite,
        pk: Vec<u8>,
        row: &R,
    ) -> Result<(), WriteError>
    where
        R: RowSource + ?Sized,
        WriteError: From<R::Error>,
    {
        let delete = KvRequest::Delete {
            ns: target.primary,
            key: pk,
        };
        self.store.execute_one(session, delete);
        entries(target, DROP, row, None::<&R>)?.send(self.store, session);
        Ok(())
    }

    /// Bulk-load the rows `feed` pushes into a [`Loader`], without timing
    /// (experiment setup). Index entries are written too; constraints are
    /// trusted, not checked.
    ///
    /// The records stream into the store as one batch
    /// ([`KvStore::bulk_put_all`]) as the rows are pushed; each index's
    /// entry keys are kept aside as they are made and handed over as one
    /// batch after. The first row that cannot be stored ends the load with
    /// its error: the rows before it are stored with all their entries, and
    /// no row after it is.
    pub fn bulk_load(
        &self,
        target: &TableWrite,
        feed: impl FnOnce(&mut Loader<'_>) -> Result<(), WriteError>,
    ) -> Result<u64, WriteError> {
        let mut feed = Some(feed);
        let mut entries: Vec<Vec<Vec<u8>>> = target.indexes.iter().map(|_| Vec::new()).collect();
        let mut loaded = Ok(0);
        self.store.bulk_put_all(target.primary, &mut |store| {
            let Some(feed) = feed.take() else { return };
            let mut loader = Loader {
                target,
                store,
                entries: &mut entries,
                values: Vec::new(),
                scratch: keys::EntryScratch::default(),
                loaded: Ok(0),
            };
            let fed = feed(&mut loader);
            loaded = loader.loaded.and_then(|rows| fed.map(|()| rows));
        });
        for (idx, mut keys) in target.indexes.iter().zip(entries) {
            self.store.bulk_put_all(idx.ns, &mut |push| {
                for key in keys.drain(..) {
                    let len = key.len();
                    push(key, len);
                }
            });
        }
        loaded
    }

    /// Garbage-collect dangling index entries of one table (§7.2): entries
    /// whose record is gone or no longer derives them, which a crash or a
    /// race of the ordered write path leaves behind. Readers skip them;
    /// this sweep removes them. Returns the number collected.
    pub fn gc_indexes(
        &self,
        session: &mut Session,
        target: &TableWrite,
    ) -> Result<u64, WriteError> {
        let table = &target.table;
        let arity = table.columns.len();
        let mut collected = 0u64;
        let (mut scratch, mut key_text) = (keys::DeriveScratch::default(), Vec::new());
        let mut block = Rows::default();
        for idx in &target.indexes {
            let types = keys::key_types(table, &idx.parts);
            let dirs: Vec<Dir> = idx.parts.iter().map(|p| p.dir).collect();
            let everything = (Vec::new(), None);
            page_range(
                self.store,
                session,
                idx.ns,
                everything,
                false,
                512,
                None,
                |session, entries| {
                    // fetch the referenced records in one parallel round,
                    // keyed as the non-covering dereference keys them
                    let mut rows = std::mem::take(&mut block).rebuild(arity);
                    for (k, _) in &entries {
                        let (parts, text) = (&idx.parts, &mut key_text);
                        keys::row_from_key_into(&mut rows, arity, parts, &types, &dirs, k, text)?;
                        rows.end_row().map_err(keys::KeyError::from)?;
                    }
                    block = rows.finish();
                    let mut gets = Vec::with_capacity(entries.len());
                    for row in &block {
                        let mut key = Vec::new();
                        for &col in &target.pk {
                            keys::encode_probe_component(
                                &mut key,
                                Row::value(&row, col),
                                Dir::Asc,
                            )?;
                        }
                        gets.push(KvRequest::Get {
                            ns: target.primary,
                            key,
                        });
                    }
                    let rows = self.store.execute_round(session, gets);
                    let mut dels = Vec::new();
                    for ((entry_key, _), row) in entries.iter().zip(rows) {
                        let dangling = match row.into_value()? {
                            Some(bytes) => {
                                // entry must still be derivable from the record
                                let rec = keys::decode_values(table, &bytes)?;
                                !keys::derives(&idx.parts, &rec[..], entry_key, &mut scratch)?
                            }
                            None => true, // record gone entirely
                        };
                        if dangling {
                            dels.push(KvRequest::Delete {
                                ns: idx.ns,
                                key: entry_key.to_vec(),
                            });
                        }
                    }
                    collected += dels.len() as u64;
                    if !dels.is_empty() {
                        self.store.execute_round(session, dels);
                    }
                    Ok::<_, WriteError>(())
                },
            )?;
        }
        Ok(collected)
    }

    /// Build (backfill) one index from the records currently in `primary`
    /// — offline index construction for compiler-derived indexes. Each
    /// record is decoded into one row block kept from record to record, and
    /// each page's entries are stored before the next page is read, which
    /// keeps short the window in which a concurrent DELETE leaves one dangling.
    pub fn backfill_index(
        &self,
        table: &TableDef,
        primary: NsId,
        index: &IndexWrite,
    ) -> Result<u64, WriteError> {
        let session = &mut Session::new();
        let arity = table.columns.len();
        let (mut block, mut scratch, mut n) = (Rows::default(), keys::EntryScratch::default(), 0);
        page_range(
            self.store,
            session,
            primary,
            (Vec::new(), None),
            false,
            1024,
            None,
            |_, records| {
                // a record that cannot be read ends the backfill, after
                // the entries of the ones before it are stored
                let mut made = Ok(());
                self.store.bulk_put_all(index.ns, &mut |push| {
                    made = records.iter().try_for_each(|(_, record)| {
                        let mut row = std::mem::take(&mut block).rebuild(arity);
                        keys::decode_row_into(&mut row, table, record)?;
                        keys::entry_keys_in(&index.parts, &row.pending(), &mut scratch, |key| {
                            n += 1;
                            let len = key.len();
                            push(key, len);
                        })?;
                        block = row.finish();
                        Ok::<_, keys::KeyError>(())
                    });
                });
                made.map_err(WriteError::from)
            },
        )?;
        Ok(n)
    }
}

/// The one §7.2 rule for index entries, as one round: put (`PUT`) or
/// delete (`DROP`) every entry row `a` derives that row `b`, if given,
/// does not ([`keys::derives`]). INSERT puts its row's entries, and its
/// undos drop them (the duplicate undo keeps the stored row's); UPDATE
/// puts the new row's over the old, then drops the old row's stale ones;
/// DELETE drops the old row's.
fn entries<A, B>(target: &TableWrite, put: bool, a: &A, b: Option<&B>) -> Result<Round, WriteError>
where
    A: RowSource + ?Sized,
    B: RowSource + ?Sized,
    WriteError: From<A::Error> + From<B::Error>,
{
    let mut scratch = keys::DeriveScratch::default();
    let (mut round, mut failed) = (Round::default(), Ok(()));
    for idx in &target.indexes {
        keys::entry_keys(&idx.parts, a, |key| {
            let shared = b.map_or(Ok(false), |b| {
                keys::derives(&idx.parts, b, &key, &mut scratch)
            });
            match shared {
                Ok(true) => {}
                Ok(false) if put => round.push(KvRequest::Put {
                    ns: idx.ns,
                    key,
                    value: Vec::new(),
                }),
                Ok(false) => round.push(KvRequest::Delete { ns: idx.ns, key }),
                Err(e) => failed = Err(e),
            }
        })?;
    }
    failed?;
    Ok(round)
}
