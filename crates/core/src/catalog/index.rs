//! Index definitions.
//!
//! The primary index of a table is implicit (its namespace maps
//! `encode(pk) -> row`). Secondary indexes map
//! `encode(declared parts ++ pk) -> ()` and require a dereferencing get to
//! fetch the full row (the extra round trip §5.1 mentions). A key part may
//! be `TOKEN(col)`, the inverted full-text entry the paper uses to make
//! `LIKE` scale-independent (§7.3).

use super::table::{TableDef, TableId};
use super::CatalogError;
use crate::codec::key::Dir;
use crate::value::DataType;
use std::fmt;

/// Stable identifier of an index within a [`super::Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// What an index key component is computed from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// The raw column value.
    Column(String),
    /// One inverted-index entry per token of the column's text. A row with
    /// `k` tokens produces `k` index entries.
    Token(String),
}

impl IndexKind {
    pub fn column_name(&self) -> &str {
        match self {
            IndexKind::Column(c) | IndexKind::Token(c) => c,
        }
    }

    pub fn is_token(&self) -> bool {
        matches!(self, IndexKind::Token(_))
    }
}

/// One declared component of an index key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexKeyPart {
    pub kind: IndexKind,
    pub dir: Dir,
}

impl IndexKeyPart {
    pub fn asc(col: impl Into<String>) -> Self {
        IndexKeyPart {
            kind: IndexKind::Column(col.into()),
            dir: Dir::Asc,
        }
    }

    pub fn desc(col: impl Into<String>) -> Self {
        IndexKeyPart {
            kind: IndexKind::Column(col.into()),
            dir: Dir::Desc,
        }
    }

    pub fn token(col: impl Into<String>) -> Self {
        IndexKeyPart {
            kind: IndexKind::Token(col.into()),
            dir: Dir::Asc,
        }
    }
}

impl fmt::Display for IndexKeyPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            IndexKind::Column(c) => write!(f, "{c}")?,
            IndexKind::Token(c) => write!(f, "TOKEN({c})")?,
        }
        if self.dir == Dir::Desc {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

/// A secondary index over one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    /// Declared key parts; the table's primary key is an implicit ascending
    /// suffix (stored entries are always unique).
    pub key: Vec<IndexKeyPart>,
}

impl IndexDef {
    pub fn new(name: impl Into<String>, table: TableId, key: Vec<IndexKeyPart>) -> Self {
        IndexDef {
            id: IndexId(u32::MAX),
            name: name.into(),
            table,
            key,
        }
    }

    /// Convenience constructor from `(column, direction)` pairs.
    pub fn on_columns(name: impl Into<String>, table: TableId, cols: &[(&str, Dir)]) -> Self {
        Self::new(
            name,
            table,
            cols.iter()
                .map(|(c, d)| IndexKeyPart {
                    kind: IndexKind::Column(c.to_string()),
                    dir: *d,
                })
                .collect(),
        )
    }

    /// The full stored key layout: declared parts followed by any primary-key
    /// columns not already present as plain columns.
    pub fn full_key_parts(&self, table: &TableDef) -> Vec<IndexKeyPart> {
        let mut parts = self.key.clone();
        for pk in &table.primary_key {
            let present = parts
                .iter()
                .any(|p| !p.kind.is_token() && p.kind.column_name().eq_ignore_ascii_case(pk));
            if !present {
                parts.push(IndexKeyPart::asc(pk.clone()));
            }
        }
        parts
    }

    /// Data types of the full stored key, in order. Token parts are typed as
    /// the token text.
    pub fn full_key_types(&self, table: &TableDef) -> Vec<DataType> {
        self.full_key_parts(table)
            .iter()
            .map(|p| match &p.kind {
                IndexKind::Token(_) => DataType::Varchar(64),
                IndexKind::Column(c) => table.columns[table.column_id(c).expect("validated")].ty,
            })
            .collect()
    }

    /// Whether any key part is a token expansion.
    pub fn has_token_part(&self) -> bool {
        self.key.iter().any(|p| p.kind.is_token())
    }

    pub(super) fn validate(&self, table: &TableDef) -> Result<(), CatalogError> {
        if self.key.is_empty() {
            return Err(CatalogError::InvalidDefinition(format!(
                "index '{}' has no key parts",
                self.name
            )));
        }
        for part in &self.key {
            let col = part.kind.column_name();
            let id = table
                .column_id(col)
                .ok_or_else(|| CatalogError::UnknownColumn {
                    table: table.name.clone(),
                    column: col.to_string(),
                })?;
            match &part.kind {
                IndexKind::Column(_) if !table.columns[id].ty.key_compatible() => {
                    return Err(CatalogError::InvalidDefinition(format!(
                        "column '{col}' of type {} cannot be indexed",
                        table.columns[id].ty
                    )));
                }
                IndexKind::Token(_) if !matches!(table.columns[id].ty, DataType::Varchar(_)) => {
                    return Err(CatalogError::InvalidDefinition(format!(
                        "TOKEN({col}) requires a VARCHAR column"
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Canonical auto-generated name for a derived index, as the optimizer's
    /// index-selection step produces (§5.3).
    pub fn derived_name(table: &TableDef, parts: &[IndexKeyPart]) -> String {
        let mut name = format!("idx_{}", table.name.to_ascii_lowercase());
        for p in parts {
            name.push('_');
            if p.kind.is_token() {
                name.push_str("tok_");
            }
            name.push_str(&p.kind.column_name().to_ascii_lowercase());
            if p.dir == Dir::Desc {
                name.push_str("_d");
            }
        }
        name
    }
}

impl fmt::Display for IndexDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INDEX {} (", self.name)?;
        for (i, p) in self.key.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDef;

    fn items() -> TableDef {
        let mut t = TableDef::builder("Items")
            .column("i_id", DataType::Int)
            .column("i_title", DataType::Varchar(60))
            .column("i_a_id", DataType::Int)
            .primary_key(&["i_id"])
            .build();
        t.id = TableId(0);
        t
    }

    #[test]
    fn full_key_appends_missing_pk() {
        let t = items();
        let idx = IndexDef::new(
            "idx_title",
            t.id,
            vec![IndexKeyPart::token("i_title"), IndexKeyPart::asc("i_title")],
        );
        let parts = idx.full_key_parts(&t);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[2].kind.column_name(), "i_id");
        // pk column already declared -> not duplicated
        let idx2 = IndexDef::on_columns("idx2", t.id, &[("i_a_id", Dir::Asc), ("i_id", Dir::Asc)]);
        assert_eq!(idx2.full_key_parts(&t).len(), 2);
    }

    #[test]
    fn token_requires_varchar() {
        let t = items();
        let bad = IndexDef::new("bad", t.id, vec![IndexKeyPart::token("i_id")]);
        assert!(bad.validate(&t).is_err());
    }

    #[test]
    fn derived_names_are_stable() {
        let t = items();
        let name = IndexDef::derived_name(
            &t,
            &[IndexKeyPart::token("i_title"), IndexKeyPart::desc("i_id")],
        );
        assert_eq!(name, "idx_items_tok_i_title_i_id_d");
    }
}
