//! Plan-wide field space.
//!
//! At bind time every relation in the query (base tables plus synthetic
//! parameter-collection relations) is assigned a contiguous range of *global
//! field ids*. Predicates, sort keys, and projections all reference these
//! ids; they stay stable across join reordering, which only restructures the
//! operator tree. The physical planner later maps global ids to positional
//! offsets in runtime tuples.

use crate::ast::{ColumnRef, Param};
use crate::catalog::{Catalog, TableId};
use crate::value::DataType;
use std::fmt;

/// Index into [`QuerySchema::fields`].
pub type FieldId = usize;

/// Index into [`QuerySchema::relations`].
pub type RelId = usize;

/// What a relation in the FROM clause is.
#[derive(Debug, Clone, PartialEq)]
pub enum RelationSource {
    /// A base table.
    Table(TableId),
    /// A bounded in-memory collection bound at execution time: the rewrite
    /// target of `col IN [p MAX n]` predicates. One column named `value`.
    ParamValues { param: Param, ty: DataType },
}

/// One relation of the query with its global field range.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    pub binding: String,
    pub source: RelationSource,
    /// First global field id owned by this relation.
    pub first_field: FieldId,
    pub arity: usize,
}

impl Relation {
    pub fn fields(&self) -> std::ops::Range<FieldId> {
        self.first_field..self.first_field + self.arity
    }
}

/// One resolvable field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Binding name of the owning relation.
    pub relation: String,
    pub rel_id: RelId,
    pub name: String,
    pub ty: DataType,
    /// Column position within the owning base table (`None` for synthetic
    /// relations).
    pub column: Option<usize>,
    pub nullable: bool,
}

impl Field {
    /// `relation.column` display form.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.relation, self.name)
    }
}

/// Resolution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveError {
    UnknownRelation(String),
    UnknownColumn(String),
    AmbiguousColumn(String),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::UnknownRelation(r) => write!(f, "unknown relation '{r}'"),
            ResolveError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            ResolveError::AmbiguousColumn(c) => {
                write!(f, "column '{c}' is ambiguous; qualify it")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// The global field space of one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySchema {
    pub relations: Vec<Relation>,
    pub fields: Vec<Field>,
}

impl QuerySchema {
    /// Add a base-table relation; returns its [`RelId`].
    pub fn add_table(&mut self, catalog: &Catalog, table: TableId, binding: &str) -> RelId {
        let def = catalog.table_by_id(table);
        let rel_id = self.relations.len();
        let first_field = self.fields.len();
        for (i, col) in def.columns.iter().enumerate() {
            self.fields.push(Field {
                relation: binding.to_string(),
                rel_id,
                name: col.name.clone(),
                ty: col.ty,
                column: Some(i),
                nullable: col.nullable,
            });
        }
        self.relations.push(Relation {
            binding: binding.to_string(),
            source: RelationSource::Table(table),
            first_field,
            arity: def.columns.len(),
        });
        rel_id
    }

    /// Add a synthetic parameter-collection relation.
    pub fn add_param_values(&mut self, param: Param, ty: DataType, binding: &str) -> RelId {
        let rel_id = self.relations.len();
        let first_field = self.fields.len();
        self.fields.push(Field {
            relation: binding.to_string(),
            rel_id,
            name: "value".to_string(),
            ty,
            column: Some(0),
            nullable: false,
        });
        self.relations.push(Relation {
            binding: binding.to_string(),
            source: RelationSource::ParamValues { param, ty },
            first_field,
            arity: 1,
        });
        rel_id
    }

    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id]
    }

    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id]
    }

    /// Resolve a (possibly qualified) column reference.
    pub fn resolve(&self, col: &ColumnRef) -> Result<FieldId, ResolveError> {
        let matches: Vec<FieldId> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.name.eq_ignore_ascii_case(&col.column)
                    && col
                        .qualifier
                        .as_ref()
                        .map(|q| f.relation.eq_ignore_ascii_case(q))
                        .unwrap_or(true)
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => {
                if let Some(q) = &col.qualifier {
                    if !self
                        .relations
                        .iter()
                        .any(|r| r.binding.eq_ignore_ascii_case(q))
                    {
                        return Err(ResolveError::UnknownRelation(q.clone()));
                    }
                }
                Err(ResolveError::UnknownColumn(col.to_string()))
            }
            1 => Ok(matches[0]),
            _ => Err(ResolveError::AmbiguousColumn(col.to_string())),
        }
    }

    /// Resolve a relation binding name.
    pub fn resolve_relation(&self, binding: &str) -> Result<RelId, ResolveError> {
        self.relations
            .iter()
            .position(|r| r.binding.eq_ignore_ascii_case(binding))
            .ok_or_else(|| ResolveError::UnknownRelation(binding.to_string()))
    }

    /// The relation owning a field.
    pub fn rel_of(&self, field: FieldId) -> RelId {
        self.fields[field].rel_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDef;

    fn catalog() -> (Catalog, TableId, TableId) {
        let mut cat = Catalog::new();
        let subs = cat
            .create_table(
                TableDef::builder("Subscriptions")
                    .column("owner", DataType::Varchar(32))
                    .column("target", DataType::Varchar(32))
                    .primary_key(&["owner", "target"])
                    .build(),
            )
            .unwrap();
        let thoughts = cat
            .create_table(
                TableDef::builder("Thoughts")
                    .column("owner", DataType::Varchar(32))
                    .column("timestamp", DataType::Timestamp)
                    .column("text", DataType::Varchar(140))
                    .primary_key(&["owner", "timestamp"])
                    .build(),
            )
            .unwrap();
        (cat, subs, thoughts)
    }

    #[test]
    fn resolution_rules() {
        let (cat, subs, thoughts) = catalog();
        let mut qs = QuerySchema::default();
        qs.add_table(&cat, subs, "s");
        qs.add_table(&cat, thoughts, "t");
        // unqualified unique column
        let f = qs.resolve(&ColumnRef::bare("text")).unwrap();
        assert_eq!(qs.field(f).qualified_name(), "t.text");
        // ambiguous without qualifier
        assert!(matches!(
            qs.resolve(&ColumnRef::bare("owner")),
            Err(ResolveError::AmbiguousColumn(_))
        ));
        // qualified
        let f = qs.resolve(&ColumnRef::new(Some("s"), "owner")).unwrap();
        assert_eq!(qs.rel_of(f), 0);
        // unknown relation vs unknown column
        assert!(matches!(
            qs.resolve(&ColumnRef::new(Some("zz"), "owner")),
            Err(ResolveError::UnknownRelation(_))
        ));
        assert!(matches!(
            qs.resolve(&ColumnRef::bare("nope")),
            Err(ResolveError::UnknownColumn(_))
        ));
    }

    #[test]
    fn param_values_relation() {
        let (cat, subs, _) = catalog();
        let mut qs = QuerySchema::default();
        qs.add_table(&cat, subs, "s");
        let p = Param {
            index: 1,
            name: "friends".into(),
            max_cardinality: Some(50),
        };
        let rel = qs.add_param_values(p, DataType::Varchar(32), "friends");
        assert_eq!(qs.relation(rel).arity, 1);
        let f = qs
            .resolve(&ColumnRef::new(Some("friends"), "value"))
            .unwrap();
        assert_eq!(qs.field(f).ty, DataType::Varchar(32));
    }
}
