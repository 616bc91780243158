//! Compiled writes: the write-side twin of a prepared query.
//!
//! PIQL makes every write a bounded, statically known set of key/value
//! operations (§7.2): one test-and-set, one put per index entry, one count
//! per cardinality constraint. A [`WritePlan`] is that set, derived once
//! from the statement text and a catalog — table and index namespaces, key
//! layouts, where each column's value comes from, the constraint probes,
//! and the resulting static bound — so executing a write is a matter of
//! reading parameters into encoders. [`Database`](crate::Database) caches
//! plans by text and empties the cache whenever the catalog changes, which
//! is what keeps a cached INSERT from skipping an index created after it.

use crate::database::DbError;
use crate::keys::{self, RowSource};
use crate::write::{
    check_arity, conform, ConstraintProbe, TableWrite, WriteError, Writer, UPDATE_ATTEMPTS,
};
use piql_core::ast::{CompareOp, Param, Predicate, ScalarExpr, Statement};
use piql_core::catalog::{Catalog, CatalogError, ColumnId, TableDef};
use piql_core::codec::key::{encode_component_ref, Dir};
use piql_core::plan::params::ParamsRef;
use piql_core::plan::physical::QueryBounds;
use piql_core::value::{Value, ValueRef};
use piql_kv::{KvStore, Session};
use std::collections::BTreeMap;

/// The static bound of one execution of a write: the requests and rounds
/// of its worst case, whatever its outcome (success, duplicate key,
/// constraint undo, lost update races). A write ships no entries back, so
/// it reaches no tuples and no bytes, and the bound is a guarantee.
fn write_bounds(requests: u64, rounds: u64) -> QueryBounds {
    QueryBounds {
        requests,
        rounds,
        tuples: 0,
        bytes: 0,
        guaranteed: true,
    }
}

/// Where one value of a write comes from.
#[derive(Debug, Clone)]
enum Slot {
    /// A literal of the statement text (for INSERT columns: already checked
    /// and coerced to the column's type).
    Literal(Value),
    Param(Param),
    /// An INSERT column the statement does not mention.
    Null,
    /// An UPDATE column the statement does not assign: the stored value.
    Stored,
}

/// What a column reference where a value belongs is answered with.
const COLUMN_AS_VALUE: &str = "column references in DML values";

impl Slot {
    fn of(expr: &ScalarExpr, what: &str) -> Result<Slot, DbError> {
        match expr {
            ScalarExpr::Literal(v) => Ok(Slot::Literal(v.clone())),
            ScalarExpr::Param(p) => Ok(Slot::Param(p.clone())),
            ScalarExpr::Column(_) => Err(DbError::Unsupported(what.into())),
        }
    }

    fn resolve<'a>(&'a self, params: ParamsRef<'a>) -> Result<&'a Value, WriteError> {
        match self {
            Slot::Literal(v) => Ok(v),
            Slot::Param(p) => Ok(params.scalar(p.index, &p.name)?),
            Slot::Null | Slot::Stored => Ok(&Value::Null),
        }
    }
}

#[derive(Debug, Clone)]
enum WriteOp {
    Insert {
        /// One slot per table column.
        slots: Vec<Slot>,
        constraints: Vec<ConstraintProbe>,
    },
    Update {
        /// One slot per primary-key column, in key order.
        pk: Vec<Slot>,
        /// One slot per table column.
        slots: Vec<Slot>,
    },
    Delete {
        pk: Vec<Slot>,
    },
}

/// One compiled INSERT / UPDATE / DELETE.
#[derive(Debug, Clone)]
pub struct WritePlan {
    target: TableWrite,
    op: WriteOp,
    bound: QueryBounds,
}

/// The row a write stores: each column read from its slot — an UPDATE's
/// unassigned ones from the stored row — validated and coerced on the way
/// out.
pub(crate) struct SlotRow<'a> {
    table: &'a TableDef,
    slots: &'a [Slot],
    params: ParamsRef<'a>,
    stored: Option<&'a [ValueRef<'a>]>,
}

impl<'a> SlotRow<'a> {
    /// This row over `stored`, whose values its [`Slot::Stored`] columns read.
    pub(crate) fn over<'b>(&self, stored: &'b [ValueRef<'b>]) -> SlotRow<'b>
    where
        'a: 'b,
    {
        SlotRow {
            stored: Some(stored),
            ..*self
        }
    }
}

impl RowSource for SlotRow<'_> {
    type Error = WriteError;
    fn value(&self, col: ColumnId) -> Result<ValueRef<'_>, WriteError> {
        let value = match (&self.slots[col], self.stored) {
            (Slot::Stored, Some(row)) => row[col],
            (slot, _) => slot.resolve(self.params)?.into(),
        };
        conform(self.table, col, value)
    }
}

/// The write-side resolution of the table called `name`.
pub(crate) fn table_write(
    store: &dyn KvStore,
    catalog: &Catalog,
    name: &str,
) -> Result<TableWrite, DbError> {
    let table = catalog
        .table(name)
        .ok_or_else(|| DbError::Catalog(CatalogError::UnknownTable(name.to_string())))?;
    Ok(TableWrite::resolve(store, catalog, table)?)
}

fn unknown_column(table: &TableDef, column: &str) -> DbError {
    DbError::Catalog(CatalogError::UnknownColumn {
        table: table.name.clone(),
        column: column.to_string(),
    })
}

impl WritePlan {
    /// Compile a parsed DML statement against `catalog`. Everything that is
    /// a property of the text — unknown table or column, arity, a literal
    /// that does not fit its column, an assignment to the primary key — is
    /// an error here, with the message execution used to give.
    pub fn build(
        store: &dyn KvStore,
        catalog: &Catalog,
        stmt: &Statement,
    ) -> Result<WritePlan, DbError> {
        let resolve = |name: &str| table_write(store, catalog, name);
        let (target, op, bound) = match stmt {
            Statement::Insert(stmt) => {
                let target = resolve(&stmt.table)?;
                let table = &target.table;
                let slots = insert_slots(table, &stmt.columns, &stmt.values)?;
                let constraints = ConstraintProbe::resolve_all(&target);
                let entries = target.max_entries();
                let counts: u64 = constraints.iter().map(|c| c.max_requests(table)).sum();
                // entries, test-and-set, counts; then the undo of a
                // constraint overflow: entries again and the record
                let bound = write_bounds(
                    2 * entries + 2 + counts,
                    2 * u64::from(entries > 0) + 2 + constraints.len() as u64,
                );
                (target, WriteOp::Insert { slots, constraints }, bound)
            }
            Statement::Update(stmt) => {
                let target = resolve(&stmt.table)?;
                let table = &target.table;
                let pk = pk_slots(table, &stmt.filter)?;
                let mut slots = vec![Slot::Stored; table.columns.len()];
                for (column, expr) in &stmt.assignments {
                    let slot = Slot::of(expr, COLUMN_AS_VALUE)?;
                    if table
                        .primary_key
                        .iter()
                        .any(|p| p.eq_ignore_ascii_case(column))
                    {
                        return Err(WriteError::RowShape(format!(
                            "cannot update primary-key column '{column}'"
                        ))
                        .into());
                    }
                    let col = table.column_id(column).ok_or_else(|| {
                        WriteError::RowShape(format!(
                            "unknown column '{column}' in table '{}'",
                            table.name
                        ))
                    })?;
                    slots[col] = slot;
                }
                // each optimistic attempt reads, adds entries and swaps;
                // the winner then drops the stale entries
                let entries = target.max_entries();
                let index_round = u64::from(entries > 0);
                let bound = write_bounds(
                    UPDATE_ATTEMPTS * (2 + entries) + entries,
                    UPDATE_ATTEMPTS * (2 + index_round) + index_round,
                );
                (target, WriteOp::Update { pk, slots }, bound)
            }
            Statement::Delete(stmt) => {
                let target = resolve(&stmt.table)?;
                let pk = pk_slots(&target.table, &stmt.filter)?;
                let entries = target.max_entries();
                let bound = write_bounds(2 + entries, 2 + u64::from(entries > 0));
                (target, WriteOp::Delete { pk }, bound)
            }
            _ => {
                return Err(DbError::Unsupported(
                    "execute_dml expects INSERT, UPDATE, or DELETE".into(),
                ))
            }
        };
        Ok(WritePlan { target, op, bound })
    }

    /// The static write bound: no execution issues more requests or rounds.
    pub fn bound(&self) -> QueryBounds {
        self.bound
    }

    /// Run the plan with `params` bound.
    pub fn execute(
        &self,
        store: &dyn KvStore,
        session: &mut Session,
        params: ParamsRef<'_>,
    ) -> Result<(), WriteError> {
        let writer = Writer::new(store);
        let table = &self.target.table;
        let row = |slots| SlotRow {
            table,
            slots,
            params,
            stored: None,
        };
        match &self.op {
            WriteOp::Insert { slots, constraints } => {
                writer.insert(session, &self.target, constraints, &row(slots))
            }
            WriteOp::Update { pk, slots } => {
                let key = pk_key(&self.target, pk, params)?;
                writer.update(session, &self.target, &key, &row(slots))
            }
            WriteOp::Delete { pk } => {
                let key = pk_key(&self.target, pk, params)?;
                writer.delete(session, &self.target, key).map(|_| ())
            }
        }
    }
}

/// One slot per column of `table` for `INSERT [(columns)] VALUES (values)`.
fn insert_slots(
    table: &TableDef,
    columns: &[String],
    values: &[ScalarExpr],
) -> Result<Vec<Slot>, DbError> {
    let given = values
        .iter()
        .map(|e| Slot::of(e, COLUMN_AS_VALUE))
        .collect::<Result<Vec<_>, _>>()?;
    let mut slots = if columns.is_empty() {
        check_arity(table, given.len())?;
        given
    } else {
        if columns.len() != given.len() {
            return Err(WriteError::RowShape("column list and VALUES arity differ".into()).into());
        }
        let mut slots = vec![Slot::Null; table.columns.len()];
        for (column, slot) in columns.iter().zip(given) {
            let col = table
                .column_id(column)
                .ok_or_else(|| unknown_column(table, column))?;
            slots[col] = slot;
        }
        slots
    };
    // what does not depend on a parameter is settled now: literals are
    // checked and coerced once, and a NOT NULL column left out fails
    for (col, slot) in slots.iter_mut().enumerate() {
        match slot {
            Slot::Literal(v) => *v = conform(table, col, ValueRef::of(v))?.to_value(),
            Slot::Null => {
                conform(table, col, ValueRef::Null)?;
            }
            Slot::Param(_) | Slot::Stored => {}
        }
    }
    Ok(slots)
}

/// Primary-key slots from a conjunction of `pk_col = value` predicates —
/// the only WHERE shape UPDATE/DELETE support (every write is a bounded
/// single-record operation).
fn pk_slots(table: &TableDef, filter: &[Predicate]) -> Result<Vec<Slot>, DbError> {
    let mut by_col: BTreeMap<ColumnId, Slot> = BTreeMap::new();
    for pred in filter {
        match pred {
            Predicate::Compare {
                left,
                op: CompareOp::Eq,
                right,
            } => {
                let col = table
                    .column_id(&left.column)
                    .ok_or_else(|| unknown_column(table, &left.column))?;
                by_col.insert(col, Slot::of(right, "column = column predicates in DML")?);
            }
            _ => {
                return Err(DbError::Unsupported(
                    "UPDATE/DELETE require `pk = value` equality predicates".into(),
                ))
            }
        }
    }
    table
        .primary_key_ids()
        .iter()
        .map(|c| {
            by_col.remove(c).ok_or_else(|| {
                DbError::Unsupported(format!(
                    "UPDATE/DELETE must pin the full primary key of '{}'",
                    table.name
                ))
            })
        })
        .collect()
}

/// The primary key an UPDATE/DELETE addresses. A value that fits its key
/// column is encoded in the column's canonical form, as INSERT stored it;
/// one that does not cannot name a stored row and is encoded as given.
fn pk_key(target: &TableWrite, pk: &[Slot], params: ParamsRef<'_>) -> Result<Vec<u8>, WriteError> {
    let mut key = Vec::new();
    for (slot, &col) in pk.iter().zip(&target.pk) {
        let value = slot.resolve(params)?;
        let canonical = value
            .coerce_ref(target.table.columns[col].ty)
            .unwrap_or(ValueRef::of(value));
        encode_component_ref(&mut key, canonical, Dir::Asc).map_err(keys::KeyError::from)?;
    }
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_core::parser::parse;
    use piql_kv::{ClusterConfig, SimCluster};

    /// `notes`, registered with the enforcement index of its limit on
    /// `owner`.
    fn catalog_and_store() -> (Catalog, SimCluster) {
        let Statement::CreateTable(stmt) = parse(
            "CREATE TABLE notes (id INT NOT NULL, owner VARCHAR(8) NOT NULL, body VARCHAR(20), \
             seen BIGINT, PRIMARY KEY (id), CARDINALITY LIMIT 3 (owner))",
        )
        .unwrap() else {
            panic!("ddl")
        };
        let mut catalog = Catalog::new();
        catalog.create_table(stmt.into()).unwrap();
        (catalog, SimCluster::new(ClusterConfig::instant(1)))
    }

    fn build(catalog: &Catalog, store: &SimCluster, sql: &str) -> Result<WritePlan, DbError> {
        WritePlan::build(store, catalog, &parse(sql).unwrap())
    }

    #[test]
    fn literals_are_settled_at_build_time() {
        let (catalog, store) = catalog_and_store();
        let plan = build(
            &catalog,
            &store,
            "INSERT INTO notes (id, owner, seen) VALUES (<id>, 'amy', 7)",
        )
        .unwrap();
        let WriteOp::Insert { slots, constraints } = &plan.op else {
            panic!("insert")
        };
        assert!(matches!(slots[0], Slot::Param(_)));
        assert!(matches!(slots[2], Slot::Null));
        assert!(
            matches!(slots[3], Slot::Literal(Value::BigInt(7))),
            "coerced once"
        );
        assert_eq!(constraints.len(), 1);
        // one index entry, the record, one count — and their undo
        assert_eq!(plan.bound(), write_bounds(5, 5));

        for (sql, message) in [
            (
                "INSERT INTO notes (id, owner) VALUES (1, 'much-too-long')",
                "value 'much-too-long' does not fit column 'owner' VARCHAR(8)",
            ),
            (
                "INSERT INTO notes (id) VALUES (1)",
                "column 'owner' of table 'notes' is NOT NULL",
            ),
            (
                "INSERT INTO notes (id, owner) VALUES (1)",
                "column list and VALUES arity differ",
            ),
            (
                "INSERT INTO notes VALUES (1, 'amy')",
                "table 'notes' expects 4 values, got 2",
            ),
            (
                "INSERT INTO notes (id, nope) VALUES (1, 2)",
                "unknown column 'nope' in table 'notes'",
            ),
            ("INSERT INTO nope VALUES (1)", "unknown table 'nope'"),
            (
                "UPDATE notes SET id = 2 WHERE id = 1",
                "cannot update primary-key column 'id'",
            ),
            (
                "UPDATE notes SET nope = 2 WHERE id = 1",
                "unknown column 'nope' in table 'notes'",
            ),
            (
                "DELETE FROM notes WHERE owner = 'amy'",
                "unsupported: UPDATE/DELETE must pin the full primary key of 'notes'",
            ),
        ] {
            assert_eq!(
                build(&catalog, &store, sql).unwrap_err().to_string(),
                message
            );
        }
    }

    #[test]
    fn token_index_entries_are_bounded_by_the_column_width() {
        let (mut catalog, store) = catalog_and_store();
        let table = catalog.table("notes").unwrap().clone();
        catalog
            .create_index(piql_core::catalog::IndexDef::new(
                "notes_body_tok",
                table.id,
                vec![piql_core::catalog::IndexKeyPart::token("body")],
            ))
            .unwrap();
        let plan = build(&catalog, &store, "DELETE FROM notes WHERE id = <id>").unwrap();
        // VARCHAR(20) holds at most 10 tokens: get + delete + the owner
        // entry + 10 token entries
        assert_eq!(crate::write::max_tokens(&table, 2), 10);
        assert_eq!(plan.bound(), write_bounds(13, 3));
    }
}
