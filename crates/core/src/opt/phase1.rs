//! Phase I of the optimizer — `StopOperatorPrepare` (Algorithm 1, §5.1).
//!
//! 1. Rewrite bounded `IN [param MAX n]` predicates into joins against a
//!    synthetic bounded relation (enabling the paper's "bounded random
//!    lookup" plans, §8.3).
//! 2. Find a linear join ordering that starts from the most tightly bounded
//!    relation and extends along join edges.
//! 3. Insert *data-stop* operators wherever attribute-equality predicates
//!    cover a primary key (cardinality 1) or a `CARDINALITY LIMIT`
//!    constraint (lines 3–11).
//! 4. Push stops down: a data-stop sinks past every predicate except the
//!    ones that caused its insertion (line 12); the standard stop stays atop
//!    the sort, to be folded into remote operators by Phase II.

use super::chain::{Chain, Leg, LegItem};
use crate::catalog::{Catalog, ColumnId, DeclaredBound, TableDef};
use crate::plan::logical::{Stop, StopKind};
use crate::plan::provenance::Provenance;
use crate::plan::{BoundPredicate, InOperand, QuerySchema, RelId, RelationSource};
use std::collections::BTreeSet;

/// Which objective the compiler pursues (§8.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// The paper's contribution: refuse plans without static bounds.
    #[default]
    ScaleIndependent,
    /// Traditional baseline: minimize expected operation count using table
    /// statistics; unbounded plans allowed.
    CostBased,
}

/// Attribute-equality predicates of a leg, as (table column, predicate).
fn leg_eq_columns(schema: &QuerySchema, leg: &Leg) -> Vec<(ColumnId, BoundPredicate)> {
    leg.all_preds()
        .into_iter()
        .filter_map(|p| {
            let col = schema.field(p.as_attribute_equality()?.0).column?;
            Some((col, p.clone()))
        })
        .collect()
}

/// A leg's first tokenized search, as (table column, predicate): the one
/// a `TOKEN` index serves and a `TOKEN` limit can bound.
fn leg_token(schema: &QuerySchema, leg: &Leg) -> Option<(ColumnId, BoundPredicate)> {
    leg.all_preds().into_iter().find_map(|p| match p {
        BoundPredicate::TokenMatch { field, .. } => Some((schema.field(*field).column?, p.clone())),
        _ => None,
    })
}

/// The table behind a leg, when it is a base table.
pub fn leg_table<'a>(
    catalog: &'a Catalog,
    schema: &QuerySchema,
    leg: &Leg,
) -> Option<&'a std::sync::Arc<TableDef>> {
    match schema.relation(leg.rel).source {
        RelationSource::Table(id) => Some(catalog.table_by_id(id)),
        RelationSource::ParamValues { .. } => None,
    }
}

/// The declared bound a table leg reaches with its own equalities and
/// tokenized search plus the `extra` columns its join keys pin.
pub(crate) fn leg_bound(
    table: &TableDef,
    schema: &QuerySchema,
    leg: &Leg,
    extra: impl IntoIterator<Item = ColumnId>,
) -> Option<DeclaredBound> {
    let mut cols: Vec<ColumnId> = leg_eq_columns(schema, leg)
        .into_iter()
        .map(|(c, _)| c)
        .collect();
    cols.extend(extra);
    table.declared_bound(&cols, leg_token(schema, leg).map(|(c, _)| c))
}

/// Step 1: rewrite `col IN [param MAX n]` into a join with a synthetic
/// bounded relation when the list column, with its relation's equalities,
/// pins the primary key or a `CARDINALITY LIMIT`. The synthetic relation
/// leads the join order, so a statement takes at most one rewrite: the list
/// whose lookups the bound rule caps tightest (ties by relation, column,
/// then parameter position — never by predicate order). Every other list
/// stays a local filter, as does every list on a relation whose own
/// equalities already pin its primary key: one row is as tight as a bound
/// gets. Returns a note for the rewrite applied.
pub fn rewrite_in_params(
    catalog: &Catalog,
    schema: &mut QuerySchema,
    chain: &mut Chain,
) -> Vec<String> {
    let mut candidates = Vec::new();
    for (at, leg) in chain.legs.iter().enumerate() {
        let Some(table) = leg_table(catalog, schema, leg) else {
            continue;
        };
        let eq: Vec<ColumnId> = leg_eq_columns(schema, leg)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        if table.declared_bound(&eq, None).is_some_and(|b| b.is_key()) {
            continue;
        }
        for p in leg.all_preds() {
            let BoundPredicate::In {
                field,
                operand: InOperand::Param(param),
            } = p
            else {
                continue;
            };
            let (Some(max), Some(col)) = (param.max_cardinality, schema.field(*field).column)
            else {
                continue;
            };
            if let Some(bound) = table.declared_bound(&[eq.as_slice(), &[col]].concat(), None) {
                let key = (bound.limit, at, col, param.index);
                candidates.push((key, p.clone(), *field, param.clone(), max));
            }
        }
    }
    let Some((key, pred, field, param, max)) = candidates.into_iter().min_by_key(|c| c.0) else {
        return Vec::new();
    };
    let leg = &mut chain.legs[key.1];
    for item in &mut leg.items {
        if let LegItem::Preds(preds) = item {
            if let Some(at) = preds.iter().position(|p| *p == pred) {
                preds.remove(at);
                break;
            }
        }
    }
    leg.items
        .retain(|i| !matches!(i, LegItem::Preds(ps) if ps.is_empty()));
    let ty = schema.field(field).ty;
    let rel = schema.add_param_values(param.clone(), ty, &format!("${}", param.name));
    chain
        .join_edges
        .push((schema.relation(rel).first_field, field));
    let mut values = Leg::new(rel);
    values.items.push(LegItem::Stop(Stop {
        kind: StopKind::Data,
        count: max,
        provenance: Provenance::ParamMax {
            param: param.name.clone(),
            max,
        },
        cause: Vec::new(),
    }));
    chain.legs.push(values);
    vec![format!(
        "rewrote `{} IN [{}]` into a bounded lookup join ({} random reads max)",
        schema.field(field).qualified_name(),
        param.name,
        max
    )]
}

/// Step 2: linear join ordering (Algorithm 1 line 1). A parameter list
/// leads; otherwise the first leg is the one the bound rule pins tightest
/// on its own. Each next leg is a joined one, pinned tightest with its join
/// keys to the legs already placed. Ties keep syntactic order.
pub fn order_joins(catalog: &Catalog, schema: &QuerySchema, chain: &mut Chain) {
    let mut remaining: Vec<Leg> = std::mem::take(&mut chain.legs);
    // 0: a parameter list, 1: one row, 2: a declared limit, 3..5: none,
    // from some pinned column down to no predicate at all
    let score = |leg: &Leg, joined: Option<&BTreeSet<RelId>>| -> u8 {
        let Some(table) = leg_table(catalog, schema, leg) else {
            return 0;
        };
        let keys: Vec<ColumnId> = joined
            .map(|placed| {
                chain
                    .edges_to(schema, leg.rel, |r| placed.contains(&r))
                    .filter_map(|(mine, _)| schema.field(mine).column)
                    .collect()
            })
            .unwrap_or_default();
        match leg_bound(table, schema, leg, keys) {
            Some(bound) if bound.is_key() => 1,
            Some(_) => 2,
            None if joined.is_some()
                || leg_token(schema, leg).is_some()
                || !leg_eq_columns(schema, leg).is_empty() =>
            {
                3
            }
            None if !leg.all_preds().is_empty() => 4,
            None => 5,
        }
    };
    let mut ordered: Vec<Leg> = Vec::with_capacity(remaining.len());
    let mut placed: BTreeSet<RelId> = BTreeSet::new();
    while let Some(next) = (0..remaining.len()).min_by_key(|&pos| {
        let leg = &remaining[pos];
        let joined = chain
            .edges_to(schema, leg.rel, |r| placed.contains(&r))
            .next()
            .is_some();
        (!joined, score(leg, joined.then_some(&placed)), pos)
    }) {
        let leg = remaining.remove(next);
        placed.insert(leg.rel);
        ordered.push(leg);
    }
    chain.legs = ordered;
}

/// Steps 3–4: data-stop insertion (Algorithm 1 lines 3–11) and stop
/// push-down (line 12). Each table leg gets at most one data-stop — the
/// bound rule's answer for its equalities and tokenized search — placed
/// directly above its cause predicates, with the remaining predicates
/// above it.
pub fn insert_data_stops(catalog: &Catalog, schema: &QuerySchema, chain: &mut Chain) {
    for leg in &mut chain.legs {
        let Some(table) = leg_table(catalog, schema, leg) else {
            continue; // ParamValues legs carry their stop from the rewrite
        };
        if leg.data_stop().is_some() {
            continue;
        }
        let Some(bound) = leg_bound(table, schema, leg, []) else {
            continue;
        };
        let cause: Vec<BoundPredicate> = match (&bound.provenance, leg_token(schema, leg)) {
            (Provenance::TokenCardinality { .. }, Some((_, token))) => vec![token],
            _ => leg_eq_columns(schema, leg)
                .into_iter()
                .filter(|(c, _)| bound.columns.contains(c))
                .map(|(_, p)| p)
                .collect(),
        };
        // push-down result: [cause][data-stop][rest]
        let rest: Vec<BoundPredicate> = leg
            .all_preds()
            .into_iter()
            .filter(|p| !cause.contains(p))
            .cloned()
            .collect();
        let mut items = Vec::new();
        if !cause.is_empty() {
            items.push(LegItem::Preds(cause.clone()));
        }
        items.push(LegItem::Stop(Stop {
            kind: StopKind::Data,
            count: bound.limit,
            provenance: bound.provenance,
            cause,
        }));
        if !rest.is_empty() {
            items.push(LegItem::Preds(rest));
        }
        leg.items = items;
    }
}
