//! The write path: index maintenance and constraint enforcement (§7.2).
//!
//! The store is eventually consistent, so the engine orders writes to fail
//! safe:
//!
//! * **Insert/update**: new secondary-index entries first, then the record
//!   (via test-and-set for uniqueness), then deletion of stale entries. A
//!   crash can leave *dangling* index entries — readers skip them and they
//!   are garbage-collectable — but never a record that indexes cannot find.
//! * **Cardinality enforcement**: optimistically insert, then issue a
//!   count-range over the constraint's enforcement prefix; if the count
//!   exceeds the limit, undo the insert and fail. Concurrent inserts may
//!   transiently overshoot (the paper accepts this).
//! * **Uniqueness**: the record put is a test-and-set expecting absence.
//!
//! Nothing here consults the catalog or a namespace name per request: a
//! [`TableWrite`] is the table's write-side resolution — namespaces, key
//! layouts, constraint probes — done once (by a cached
//! [`WritePlan`](crate::plan::WritePlan), or per call by the programmatic
//! and bulk entry points), and rows arrive as a [`RowSource`] that the
//! encoders read in place.

use crate::exec::{page_range, ExecError};
use crate::keys::{self, KeyPart, RowSource};
use piql_core::catalog::{CardinalityConstraint, Catalog, ColumnId, IndexDef, TableDef};
use piql_core::codec::key::{encode_component_ref, encode_str, prefix_upper_bound, Dir};
use piql_core::plan::params::ParamError;
use piql_core::text;
use piql_core::tuple::Tuple;
use piql_core::value::{DataType, Value, ValueRef};
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

    /// Hand every index entry of `row` to `emit` as `(namespace, key)`.
    fn each_entry<R: RowSource>(
        &self,
        row: &R,
        mut emit: impl FnMut(NsId, Vec<u8>),
    ) -> Result<(), R::Error> {
        for idx in &self.indexes {
            keys::entry_keys(&idx.parts, row, |key| emit(idx.ns, key))?;
        }
        Ok(())
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
    value: &'v Value,
) -> Result<ValueRef<'v>, WriteError> {
    let column = &table.columns[col];
    if value.is_null() && !column.nullable {
        return Err(WriteError::RowShape(format!(
            "column '{}' of table '{}' is NOT NULL",
            column.name, table.name
        )));
    }
    value.coerce_ref(column.ty).ok_or_else(|| {
        WriteError::RowShape(format!(
            "value {value} does not fit column '{}' {}",
            column.name, column.ty
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

/// A caller-supplied full row, validated and coerced as it is read.
pub struct InputRow<'a> {
    table: &'a TableDef,
    row: &'a Tuple,
}

impl<'a> InputRow<'a> {
    pub fn new(table: &'a TableDef, row: &'a Tuple) -> Result<Self, WriteError> {
        check_arity(table, row.len())?;
        Ok(InputRow { table, row })
    }
}

impl RowSource for InputRow<'_> {
    type Error = WriteError;
    fn value(&self, col: ColumnId) -> Result<ValueRef<'_>, WriteError> {
        conform(self.table, col, &self.row[col])
    }
}

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
        // reading every column first validates the whole row, in column
        // order, before anything is written
        let row_bytes = keys::encode_row_from(row, table.columns.len())?;
        let pk = keys::primary_key_with_room(table, &target.pk, row, row_bytes.len())?;

        // 1. secondary index entries first (one parallel round)
        let mut puts = Round::default();
        target.each_entry(row, |ns, key| {
            puts.push(KvRequest::Put {
                ns,
                key,
                value: Vec::new(),
            })
        })?;
        puts.send(self.store, session);

        // 2. the record, with a test-and-set enforcing pk uniqueness
        let response = self.store.execute_one(
            session,
            KvRequest::TestAndSet {
                ns: target.primary,
                key: pk,
                expect: None,
                value: Some(row_bytes),
            },
        );
        let (inserted, stored) = response.tas()?;
        if !inserted {
            // Undo the entries just written — except those the stored row
            // derives too. Index keys end in the primary key, so where the
            // duplicate's indexed columns equal the live row's the keys
            // *are* the live row's entries, and deleting them would leave
            // a record its index cannot find.
            let live = stored.map(|b| keys::decode_row(table, b)).transpose()?;
            let mut keep = Vec::new();
            if let Some(live) = &live {
                target.each_entry(live, |ns, key| keep.push((ns, key)))?;
            }
            let mut undo = Round::default();
            target.each_entry(row, |ns, key| {
                let entry = (ns, key);
                if !keep.contains(&entry) {
                    undo.push(KvRequest::Delete {
                        ns: entry.0,
                        key: entry.1,
                    });
                }
            })?;
            undo.send(self.store, session);
            return Err(WriteError::DuplicateKey {
                table: table.name.clone(),
            });
        }

        // 3. cardinality enforcement: count after insert, undo on overflow
        for probe in constraints {
            if probe.count(self.store, session, row)? > probe.limit {
                self.delete_index_entries(session, target, row)?;
                self.store.execute_one(
                    session,
                    KvRequest::Delete {
                        ns: target.primary,
                        key: keys::primary_key_from(table, &target.pk, row)?,
                    },
                );
                return Err(WriteError::CardinalityExceeded {
                    table: table.name.clone(),
                    constraint: probe.columns.clone(),
                    limit: probe.limit,
                });
            }
        }
        Ok(())
    }

    /// Update the row stored under primary key `pk`: `assign` edits a copy
    /// of the stored row (it may not touch pk columns), which is then
    /// validated like an inserted one.
    pub fn update(
        &self,
        session: &mut Session,
        target: &TableWrite,
        pk: &[u8],
        assign: &dyn Fn(&mut Tuple) -> Result<(), WriteError>,
    ) -> Result<(), WriteError> {
        let table = &target.table;
        // optimistic TAS loop against concurrent writers
        for _attempt in 0..UPDATE_ATTEMPTS {
            let stored = self
                .store
                .execute_one(
                    session,
                    KvRequest::Get {
                        ns: target.primary,
                        key: pk.to_vec(),
                    },
                )
                .into_value()?;
            let Some(old_bytes) = stored else {
                return Err(WriteError::NotFound {
                    table: table.name.clone(),
                });
            };
            let old_row = keys::decode_row(table, &old_bytes)?;
            let mut new_row = old_row.clone();
            assign(&mut new_row)?;
            let new_row = InputRow::new(table, &new_row)?;
            let new_bytes = keys::encode_row_from(&new_row, table.columns.len())?;

            // 1. fresh index entries
            let mut old_keys = Vec::new();
            target.each_entry(&old_row, |ns, key| old_keys.push((ns, key)))?;
            let mut new_keys = Vec::new();
            target.each_entry(&new_row, |ns, key| new_keys.push((ns, key)))?;
            let mut adds = Round::default();
            for entry in &new_keys {
                if !old_keys.contains(entry) {
                    adds.push(KvRequest::Put {
                        ns: entry.0,
                        key: entry.1.clone(),
                        value: Vec::new(),
                    });
                }
            }
            adds.send(self.store, session);
            // 2. the record, conditionally, under a key with room for it
            let mut key = Vec::with_capacity(pk.len() + new_bytes.len());
            key.extend_from_slice(pk);
            let response = self.store.execute_one(
                session,
                KvRequest::TestAndSet {
                    ns: target.primary,
                    key,
                    expect: Some(old_bytes),
                    value: Some(new_bytes),
                },
            );
            if response.tas()?.0 {
                // 3. stale entries last
                let mut stale = Round::default();
                for entry in old_keys {
                    if !new_keys.contains(&entry) {
                        stale.push(KvRequest::Delete {
                            ns: entry.0,
                            key: entry.1,
                        });
                    }
                }
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
        let stored = self
            .store
            .execute_one(
                session,
                KvRequest::Get {
                    ns: target.primary,
                    key: pk.clone(),
                },
            )
            .into_value()?;
        let Some(old_bytes) = stored else {
            return Ok(false);
        };
        let old_row = keys::decode_row(&target.table, &old_bytes)?;
        // record first, then index entries (dangling entries are safe)
        self.store.execute_one(
            session,
            KvRequest::Delete {
                ns: target.primary,
                key: pk,
            },
        );
        self.delete_index_entries(session, target, &old_row)?;
        Ok(true)
    }

    /// Bulk-load rows without timing (experiment setup). Index entries are
    /// written too; constraints are trusted, not checked.
    ///
    /// The records stream into the store as one batch
    /// ([`KvStore::bulk_put_all`]) as the rows are read; each index's
    /// entry keys are kept aside as they are made and handed over as one
    /// batch after. A row that cannot be stored ends the load with its
    /// error: the rows before it are stored with all their entries, and
    /// nothing after it is read.
    pub fn bulk_load(
        &self,
        target: &TableWrite,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> Result<u64, WriteError> {
        let table = &target.table;
        let mut rows = rows.into_iter();
        let mut entries: Vec<Vec<Vec<u8>>> = target.indexes.iter().map(|_| Vec::new()).collect();
        let (mut n, mut failed) = (0, None);
        let mut records = std::iter::from_fn(|| {
            if failed.is_some() {
                return None;
            }
            let tuple = rows.next()?;
            let record = InputRow::new(table, &tuple).and_then(|row| {
                let bytes = keys::encode_row_from(&row, table.columns.len())?;
                let pk = keys::primary_key_with_room(table, &target.pk, &row, bytes.len())?;
                // a row's record goes before its entries: one whose entries
                // cannot all be made still has its record stored, and ends
                // the load
                let mut made = (target.indexes.iter().zip(&mut entries))
                    .map(|(idx, keys)| keys::entry_keys(&idx.parts, &row, |key| keys.push(key)));
                failed = made.find_map(Result::err);
                Ok((pk, bytes))
            });
            match record {
                Ok(record) => {
                    n += 1;
                    Some(record)
                }
                Err(e) => {
                    failed = Some(e);
                    None
                }
            }
        });
        self.store.bulk_put_all(target.primary, &mut records);
        for (idx, keys) in target.indexes.iter().zip(entries) {
            let mut keys = keys.into_iter().map(|key| (key, Vec::new()));
            self.store.bulk_put_all(idx.ns, &mut keys);
        }
        failed.map_or(Ok(n), Err)
    }

    /// Garbage-collect dangling index entries of one table (§7.2): the
    /// ordered write path can leave index entries whose record no longer
    /// exists (or no longer matches) after a crash mid-update. Readers skip
    /// them; this sweep removes them. Returns the number collected.
    pub fn gc_indexes(
        &self,
        session: &mut Session,
        target: &TableWrite,
    ) -> Result<u64, WriteError> {
        let table = &target.table;
        let mut collected = 0u64;
        let mut scratch = keys::DeriveScratch::default();
        for idx in &target.indexes {
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
                    // fetch the referenced records in one parallel round
                    let mut gets = Vec::with_capacity(entries.len());
                    for (k, _) in &entries {
                        let pk_vals = keys::pk_values_from_index_key(table, &idx.def, k)?;
                        gets.push(KvRequest::Get {
                            ns: target.primary,
                            key: keys::primary_key_from_values(&pk_vals)?,
                        });
                    }
                    let rows = self.store.execute_round(session, gets);
                    let mut dels = Vec::new();
                    for ((entry_key, _), row) in entries.iter().zip(rows) {
                        let dangling = match row.into_value()? {
                            Some(bytes) => {
                                // entry must still be derivable from the record
                                let rec = keys::decode_row(table, &bytes)?;
                                !keys::derives(&idx.parts, &rec, entry_key, &mut scratch)?
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
    /// page of records is handed to the store as one batch of entries.
    pub fn backfill_index(
        &self,
        table: &TableDef,
        primary: NsId,
        index: &IndexWrite,
    ) -> Result<u64, WriteError> {
        let session = &mut Session::new();
        let mut n = 0;
        page_range(
            self.store,
            session,
            primary,
            (Vec::new(), None),
            false,
            1024,
            None,
            |_, entries| {
                let mut batch = Vec::with_capacity(entries.len());
                // a record that cannot be read ends the backfill, after
                // the entries of the ones before it are stored
                let made = entries.iter().try_for_each(|(_, v)| {
                    let row = keys::decode_row(table, v)?;
                    keys::entry_keys(&index.parts, &row, |key| batch.push(key))
                });
                n += batch.len() as u64;
                let mut batch = batch.into_iter().map(|key| (key, Vec::new()));
                self.store.bulk_put_all(index.ns, &mut batch);
                made.map_err(WriteError::from)
            },
        )?;
        Ok(n)
    }

    fn delete_index_entries<R>(
        &self,
        session: &mut Session,
        target: &TableWrite,
        row: &R,
    ) -> Result<(), WriteError>
    where
        R: RowSource,
        WriteError: From<R::Error>,
    {
        let mut dels = Round::default();
        target.each_entry(row, |ns, key| dels.push(KvRequest::Delete { ns, key }))?;
        dels.send(self.store, session);
        Ok(())
    }
}
