//! Schema catalog: tables, constraints, and indexes.
//!
//! PIQL's DDL extension (§4.2) lives here: besides standard columns, primary
//! keys, and foreign keys, a table may declare `CARDINALITY LIMIT n (cols)`
//! constraints, which bound how many rows may share one value of `cols`.
//! Those limits are what allow the optimizer to insert *data-stop* operators
//! (§5.1) and are enforced at runtime by the engine's write path (§7.2).

mod index;
mod stats;
mod table;

pub use index::{IndexDef, IndexId, IndexKeyPart, IndexKind};
pub use stats::{Statistics, TableStats};
pub(crate) use table::DeclaredBound;
pub use table::{CardinalityConstraint, ColumnDef, ColumnId, ForeignKey, TableDef, TableId};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Catalog errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    DuplicateTable(String),
    DuplicateIndex(String),
    UnknownTable(String),
    UnknownColumn { table: String, column: String },
    InvalidDefinition(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateTable(t) => write!(f, "table '{t}' already exists"),
            CatalogError::DuplicateIndex(i) => write!(f, "index '{i}' already exists"),
            CatalogError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            CatalogError::UnknownColumn { table, column } => {
                write!(f, "unknown column '{column}' in table '{table}'")
            }
            CatalogError::InvalidDefinition(msg) => write!(f, "invalid definition: {msg}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// The schema catalog. Cheap to clone handles out of (definitions are
/// `Arc`ed); mutation is append-only (create table / create index), mirroring
/// how the paper's system auto-creates indexes during compilation (§5.3).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: Vec<Arc<TableDef>>,
    indexes: Vec<Arc<IndexDef>>,
    table_names: BTreeMap<String, TableId>,
    index_names: BTreeMap<String, IndexId>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table, validating constraints against its columns, with
    /// the enforcement index of each `CARDINALITY LIMIT`
    /// ([`CardinalityConstraint::enforcement_key`], named by
    /// [`IndexDef::derived_name`]). All or nothing: when the table or any of
    /// those indexes is refused, nothing is registered.
    pub fn create_table(&mut self, mut def: TableDef) -> Result<TableId, CatalogError> {
        let key = def.name.to_ascii_lowercase();
        if self.table_names.contains_key(&key) {
            return Err(CatalogError::DuplicateTable(def.name.clone()));
        }
        def.validate()?;
        let id = TableId(self.tables.len() as u32);
        def.id = id;
        let enforcement: Vec<IndexDef> = def
            .cardinality_constraints
            .iter()
            .filter_map(|cc| cc.enforcement_key(&def))
            .map(|key| IndexDef::new(IndexDef::derived_name(&def, &key), id, key))
            .collect();
        let mut next = self.clone();
        next.table_names.insert(key, id);
        next.tables.push(Arc::new(def));
        for index in enforcement {
            next.create_index(index)?;
        }
        *self = next;
        Ok(id)
    }

    /// Register a secondary index. Idempotent on identical key shape: if an
    /// index with the same table and key parts exists, its id is returned
    /// instead (the optimizer re-derives required indexes on every compile).
    pub fn create_index(&mut self, mut def: IndexDef) -> Result<IndexId, CatalogError> {
        if let Some(existing) = self.index_of_shape(&def) {
            return Ok(existing);
        }
        let key = def.name.to_ascii_lowercase();
        if self.index_names.contains_key(&key) {
            return Err(CatalogError::DuplicateIndex(def.name.clone()));
        }
        let table = self.table_by_id(def.table);
        def.validate(table)?;
        let id = IndexId(self.indexes.len() as u32);
        def.id = id;
        self.index_names.insert(key, id);
        self.indexes.push(Arc::new(def));
        Ok(id)
    }

    /// The index already declared over `def`'s table and key, whatever its
    /// name: what [`Catalog::create_index`] returns for `def`.
    pub fn index_of_shape(&self, def: &IndexDef) -> Option<IndexId> {
        (self.indexes.iter())
            .find(|i| i.table == def.table && i.key == def.key)
            .map(|i| i.id)
    }

    pub fn table(&self, name: &str) -> Option<&Arc<TableDef>> {
        self.table_names
            .get(&name.to_ascii_lowercase())
            .map(|id| &self.tables[id.0 as usize])
    }

    pub fn table_by_id(&self, id: TableId) -> &Arc<TableDef> {
        &self.tables[id.0 as usize]
    }

    pub fn index(&self, name: &str) -> Option<&Arc<IndexDef>> {
        self.index_names
            .get(&name.to_ascii_lowercase())
            .map(|id| &self.indexes[id.0 as usize])
    }

    pub fn index_by_id(&self, id: IndexId) -> &Arc<IndexDef> {
        &self.indexes[id.0 as usize]
    }

    pub fn tables(&self) -> impl Iterator<Item = &Arc<TableDef>> {
        self.tables.iter()
    }

    pub fn indexes(&self) -> impl Iterator<Item = &Arc<IndexDef>> {
        self.indexes.iter()
    }

    /// All secondary indexes defined on `table`.
    pub fn indexes_for_table(&self, table: TableId) -> Vec<Arc<IndexDef>> {
        self.indexes
            .iter()
            .filter(|i| i.table == table)
            .cloned()
            .collect()
    }

    /// Key/value-store namespace holding a table's primary records.
    pub fn table_namespace(table: &TableDef) -> String {
        format!("t/{}", table.name.to_ascii_lowercase())
    }

    /// Key/value-store namespace holding an index's entries.
    pub fn index_namespace(index: &IndexDef) -> String {
        format!("i/{}", index.name.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn users() -> TableDef {
        TableDef::builder("Users")
            .column("username", DataType::Varchar(32))
            .column("home_town", DataType::Varchar(64))
            .primary_key(&["username"])
            .build()
    }

    #[test]
    fn create_and_lookup_table() {
        let mut cat = Catalog::new();
        let id = cat.create_table(users()).unwrap();
        assert_eq!(cat.table("users").unwrap().id, id);
        assert_eq!(cat.table("USERS").unwrap().name, "Users");
        assert!(cat.table("nope").is_none());
        assert!(matches!(
            cat.create_table(users()),
            Err(CatalogError::DuplicateTable(_))
        ));
    }

    #[test]
    fn index_creation_is_idempotent_by_shape() {
        let mut cat = Catalog::new();
        let t = cat.create_table(users()).unwrap();
        let mk = |name: &str| IndexDef::on_columns(name, t, &[("home_town", Default::default())]);
        let a = cat.create_index(mk("idx_a")).unwrap();
        let b = cat.create_index(mk("idx_b")).unwrap();
        assert_eq!(a, b, "same shape resolves to same index");
        assert_eq!(cat.indexes_for_table(t).len(), 1);
    }

    #[test]
    fn a_table_registers_with_its_enforcement_indexes_or_not_at_all() {
        let subs = |limits: &[&[&str]]| {
            let mut b = TableDef::builder("Subs")
                .column("owner", DataType::Varchar(32))
                .column("target", DataType::Varchar(32))
                .column("score", DataType::Double)
                .primary_key(&["owner", "target"]);
            for cols in limits {
                b = b.cardinality_limit(10, cols);
            }
            b.build()
        };
        let mut cat = Catalog::new();
        cat.create_table(users()).unwrap();
        // a primary-key prefix is counted on the records; a repeated key
        // shares one index
        let limits: &[&[&str]] = &[&["owner"], &["target"], &["token:target"], &["target"]];
        let t = cat.create_table(subs(limits)).unwrap();
        let names: Vec<_> = cat
            .indexes_for_table(t)
            .iter()
            .map(|i| i.name.clone())
            .collect();
        assert_eq!(names, ["idx_subs_target", "idx_subs_tok_target"]);

        let mut cat = Catalog::new();
        cat.create_table(users()).unwrap();
        // a DOUBLE column cannot be indexed: the good index before it goes too
        for refused in [&["target"][..], &["score"]] {
            let err = cat.create_table(subs(&[refused, &["score"]])).unwrap_err();
            assert!(matches!(err, CatalogError::InvalidDefinition(_)), "{err}");
            assert!(cat.table("subs").is_none());
            assert_eq!(cat.indexes().count(), 0);
        }
    }

    #[test]
    fn invalid_constraint_rejected() {
        let mut cat = Catalog::new();
        let def = TableDef::builder("T")
            .column("a", DataType::Int)
            .primary_key(&["a"])
            .cardinality_limit(10, &["nope"])
            .build();
        assert!(cat.create_table(def).is_err());
    }
}
