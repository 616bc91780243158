//! Table definitions: columns, primary keys, foreign keys, and the paper's
//! `CARDINALITY LIMIT` relationship-cardinality constraints (§4.2).

use super::{CatalogError, IndexKeyPart};
use crate::ast::CreateTableStmt;
use crate::plan::provenance::Provenance;
use crate::value::DataType;
use std::fmt;

/// Stable identifier of a table within a [`super::Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Position of a column within its table.
pub type ColumnId = usize;

/// One column of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub nullable: bool,
}

/// A standard SQL referential-integrity constraint: `columns` reference the
/// primary key of `ref_table`. The optimizer uses these for uniqueness
/// inference in one direction (FK → one tuple, §4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub columns: Vec<String>,
    pub ref_table: String,
}

/// PIQL's DDL extension: at most `limit` rows may share one value of
/// `columns`. Example from the paper: `CARDINALITY LIMIT 100 (ownerUserId)`
/// caps each user at 100 subscriptions.
///
/// A column spelled `TOKEN(col)` (stored as `token:col`) bounds how many
/// rows may share one *token* of the column's text instead — the natural
/// constraint for inverted-index searches (e.g. "no name token appears in
/// more than 25 authors").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CardinalityConstraint {
    pub limit: u64,
    pub columns: Vec<String>,
}

impl CardinalityConstraint {
    /// The `token:` marker used to store `TOKEN(col)` constraint columns.
    pub const TOKEN_PREFIX: &'static str = "token:";

    /// Plain column name of a (possibly token-) constraint column.
    pub fn base_column(col: &str) -> &str {
        col.strip_prefix(Self::TOKEN_PREFIX).unwrap_or(col)
    }

    pub fn is_token_column(col: &str) -> bool {
        col.starts_with(Self::TOKEN_PREFIX)
    }

    /// Whether this is a single-token-column constraint.
    pub fn token_column(&self) -> Option<&str> {
        match self.columns.as_slice() {
            [c] if Self::is_token_column(c) => Some(Self::base_column(c)),
            _ => None,
        }
    }

    /// The key of the *enforcement index* the write path counts this limit
    /// on after an insert (§7.2): `TOKEN(col)` for a token limit, the
    /// limit's columns for any other — and none when those columns are a
    /// prefix of `table`'s primary key, whose records are counted directly.
    /// [`super::Catalog::create_table`] registers the index with the table.
    pub fn enforcement_key(&self, table: &TableDef) -> Option<Vec<IndexKeyPart>> {
        if let Some(col) = self.token_column() {
            return Some(vec![IndexKeyPart::token(col)]);
        }
        let pk_prefix = self.columns.len() <= table.primary_key.len()
            && self
                .columns
                .iter()
                .zip(&table.primary_key)
                .all(|(a, b)| a.eq_ignore_ascii_case(b));
        (!pk_prefix).then(|| self.columns.iter().map(IndexKeyPart::asc).collect())
    }
}

/// What [`TableDef::declared_bound`] answers: at most `limit` rows match,
/// because of `provenance`, which rests on `columns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DeclaredBound {
    pub(crate) limit: u64,
    pub(crate) provenance: Provenance,
    /// The primary key's columns, the limit's columns, or the one token
    /// column — the predicates on these are the bound's cause.
    pub(crate) columns: Vec<ColumnId>,
}

impl DeclaredBound {
    /// Whether the bound is the primary key's: at most one row.
    pub(crate) fn is_key(&self) -> bool {
        matches!(self.provenance, Provenance::PrimaryKey { .. })
    }
}

/// Full definition of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Column names of the primary key, in key order.
    pub primary_key: Vec<String>,
    pub foreign_keys: Vec<ForeignKey>,
    pub cardinality_constraints: Vec<CardinalityConstraint>,
}

impl TableDef {
    /// Start building a table definition.
    pub fn builder(name: impl Into<String>) -> TableBuilder {
        TableBuilder {
            def: TableDef {
                id: TableId(u32::MAX),
                name: name.into(),
                columns: Vec::new(),
                primary_key: Vec::new(),
                foreign_keys: Vec::new(),
                cardinality_constraints: Vec::new(),
            },
        }
    }

    /// Position of a column by (case-insensitive) name.
    pub fn column_id(&self, name: &str) -> Option<ColumnId> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column(&self, id: ColumnId) -> &ColumnDef {
        &self.columns[id]
    }

    /// Primary-key column positions, in key order.
    pub fn primary_key_ids(&self) -> Vec<ColumnId> {
        self.primary_key
            .iter()
            .map(|n| self.column_id(n).expect("validated pk column"))
            .collect()
    }

    /// The one rule for which declared bound a relation's pinned columns
    /// reach (Algorithm 1, lines 5–8): equalities on `eq_cols` and a
    /// tokenized search on `token`. The primary key gives 1 when `eq_cols`
    /// covers it; otherwise the tightest plain `CARDINALITY LIMIT` whose
    /// columns `eq_cols` contains; otherwise the tightest
    /// `CARDINALITY LIMIT n (TOKEN(token))`. Every data-stop, join-order
    /// score, `IN` rewrite, FK-join test and per-key join bound asks this.
    pub(crate) fn declared_bound(
        &self,
        eq_cols: &[ColumnId],
        token: Option<ColumnId>,
    ) -> Option<DeclaredBound> {
        let table = self.name.clone();
        let pk = self.primary_key_ids();
        if pk.iter().all(|c| eq_cols.contains(c)) {
            return Some(DeclaredBound {
                limit: 1,
                provenance: Provenance::PrimaryKey { table },
                columns: pk,
            });
        }
        // a `token:` column names no column, so token limits drop out here
        let plain = self
            .cardinality_constraints
            .iter()
            .filter_map(|cc| {
                let ids: Option<Vec<ColumnId>> =
                    cc.columns.iter().map(|n| self.column_id(n)).collect();
                Some((cc, ids?))
            })
            .filter(|(_, ids)| ids.iter().all(|c| eq_cols.contains(c)))
            .min_by_key(|(cc, _)| cc.limit);
        if let Some((cc, columns)) = plain {
            return Some(DeclaredBound {
                limit: cc.limit,
                provenance: Provenance::Cardinality {
                    table,
                    limit: cc.limit,
                    columns: cc.columns.clone(),
                },
                columns,
            });
        }
        let token = token?;
        let (cc, column) = self
            .cardinality_constraints
            .iter()
            .filter_map(|cc| {
                let name = cc.token_column()?;
                (self.column_id(name)? == token).then_some((cc, name))
            })
            .min_by_key(|(cc, _)| cc.limit)?;
        Some(DeclaredBound {
            limit: cc.limit,
            provenance: Provenance::TokenCardinality {
                table,
                limit: cc.limit,
                column: column.to_string(),
            },
            columns: vec![token],
        })
    }

    /// Upper bound on the encoded byte size of one row.
    pub fn max_row_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.ty.max_encoded_len())
            .sum::<usize>()
            + 2
    }

    pub(super) fn validate(&self) -> Result<(), CatalogError> {
        if self.columns.is_empty() {
            return Err(CatalogError::InvalidDefinition(format!(
                "table '{}' has no columns",
                self.name
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        for c in &self.columns {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(CatalogError::InvalidDefinition(format!(
                    "duplicate column '{}' in table '{}'",
                    c.name, self.name
                )));
            }
        }
        if self.primary_key.is_empty() {
            return Err(CatalogError::InvalidDefinition(format!(
                "table '{}' has no primary key (required: records live in a key/value store)",
                self.name
            )));
        }
        let check_cols = |cols: &[String], what: &str| -> Result<(), CatalogError> {
            for n in cols {
                let base = CardinalityConstraint::base_column(n);
                let id = self
                    .column_id(base)
                    .ok_or_else(|| CatalogError::UnknownColumn {
                        table: self.name.clone(),
                        column: base.to_string(),
                    })?;
                if CardinalityConstraint::is_token_column(n)
                    && !matches!(self.columns[id].ty, crate::value::DataType::Varchar(_))
                {
                    return Err(CatalogError::InvalidDefinition(format!(
                        "TOKEN({base}) cardinality limits require a VARCHAR column"
                    )));
                }
                if what == "primary key" && !self.columns[id].ty.key_compatible() {
                    return Err(CatalogError::InvalidDefinition(format!(
                        "column '{}' of type {} cannot be part of the {what}",
                        n, self.columns[id].ty
                    )));
                }
            }
            Ok(())
        };
        check_cols(&self.primary_key, "primary key")?;
        for fk in &self.foreign_keys {
            check_cols(&fk.columns, "foreign key")?;
        }
        for cc in &self.cardinality_constraints {
            check_cols(&cc.columns, "cardinality limit")?;
            if cc.limit == 0 {
                return Err(CatalogError::InvalidDefinition(
                    "CARDINALITY LIMIT must be positive".into(),
                ));
            }
        }
        Ok(())
    }
}

/// The table a `CREATE TABLE` statement defines, not yet registered (a
/// [`super::Catalog`] assigns its id).
impl From<CreateTableStmt> for TableDef {
    fn from(stmt: CreateTableStmt) -> Self {
        let columns = stmt.columns.into_iter();
        let columns = columns.map(|(name, ty, nullable)| ColumnDef { name, ty, nullable });
        TableDef {
            columns: columns.collect(),
            primary_key: stmt.primary_key,
            foreign_keys: stmt.foreign_keys,
            cardinality_constraints: stmt.cardinality_constraints,
            ..TableDef::builder(stmt.name).build()
        }
    }
}

impl fmt::Display for TableDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CREATE TABLE {} (", self.name)?;
        for c in &self.columns {
            writeln!(f, "  {} {},", c.name, c.ty)?;
        }
        writeln!(f, "  PRIMARY KEY ({})", self.primary_key.join(", "))?;
        for fk in &self.foreign_keys {
            writeln!(
                f,
                "  , FOREIGN KEY ({}) REFERENCES {}",
                fk.columns.join(", "),
                fk.ref_table
            )?;
        }
        for cc in &self.cardinality_constraints {
            writeln!(
                f,
                "  , CARDINALITY LIMIT {} ({})",
                cc.limit,
                cc.columns.join(", ")
            )?;
        }
        write!(f, ")")
    }
}

/// Fluent builder used by tests and examples (DDL text converts with
/// `TableDef::from`).
pub struct TableBuilder {
    def: TableDef,
}

impl TableBuilder {
    pub fn column(mut self, name: impl Into<String>, ty: DataType) -> Self {
        self.def.columns.push(ColumnDef {
            name: name.into(),
            ty,
            nullable: true,
        });
        self
    }

    pub fn primary_key(mut self, cols: &[&str]) -> Self {
        self.def.primary_key = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    pub fn foreign_key(mut self, cols: &[&str], ref_table: impl Into<String>) -> Self {
        self.def.foreign_keys.push(ForeignKey {
            columns: cols.iter().map(|s| s.to_string()).collect(),
            ref_table: ref_table.into(),
        });
        self
    }

    pub fn cardinality_limit(mut self, limit: u64, cols: &[&str]) -> Self {
        self.def
            .cardinality_constraints
            .push(CardinalityConstraint {
                limit,
                columns: cols.iter().map(|s| s.to_string()).collect(),
            });
        self
    }

    pub fn build(self) -> TableDef {
        self.def
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subscriptions() -> TableDef {
        TableDef::builder("Subscriptions")
            .column("owner", DataType::Varchar(32))
            .column("target", DataType::Varchar(32))
            .column("approved", DataType::Bool)
            .primary_key(&["owner", "target"])
            .cardinality_limit(100, &["owner"])
            .build()
    }

    #[test]
    fn pk_coverage() {
        let t = subscriptions();
        let owner = t.column_id("owner").unwrap();
        let target = t.column_id("target").unwrap();
        assert!(t.declared_bound(&[owner, target], None).unwrap().is_key());
        assert!(t
            .declared_bound(&[target, owner, 2], None)
            .unwrap()
            .is_key());
        assert!(!t.declared_bound(&[owner], None).unwrap().is_key());
    }

    #[test]
    fn cardinality_matching_picks_tightest() {
        let mut t = subscriptions();
        t.cardinality_constraints.push(CardinalityConstraint {
            limit: 50,
            columns: vec!["owner".into()],
        });
        let owner = t.column_id("owner").unwrap();
        let bound = t.declared_bound(&[owner], None).unwrap();
        assert_eq!((bound.limit, bound.columns), (50, vec![owner]));
        assert!(t.declared_bound(&[1], None).is_none());
    }

    #[test]
    fn a_token_limit_comes_after_every_plain_one() {
        let t = TableDef::builder("docs")
            .column("owner", DataType::Varchar(32))
            .column("text", DataType::Varchar(140))
            .primary_key(&["owner", "text"])
            .cardinality_limit(5, &["token:text"])
            .cardinality_limit(100, &["owner"])
            .build();
        let text = t.column_id("text").unwrap();
        assert_eq!(t.declared_bound(&[0], Some(text)).unwrap().limit, 100);
        let token = t.declared_bound(&[], Some(text)).unwrap();
        assert_eq!((token.limit, token.columns), (5, vec![text]));
        assert_eq!(
            token.provenance.to_string(),
            "CARDINALITY LIMIT 5 (TOKEN(text))"
        );
        assert!(t.declared_bound(&[], None).is_none());
    }

    #[test]
    fn validation_requires_pk() {
        let t = TableDef::builder("X").column("a", DataType::Int).build();
        assert!(t.validate().is_err());
    }
}
