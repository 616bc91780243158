//! Phase II of the optimizer — `PlanGenerate` (Algorithm 2, §5.2).
//!
//! Walks the chain bottom-up, mapping each leg onto one of the three remote
//! operators (Figure 4):
//!
//! * the first leg becomes an `IndexScan` (or a local `ParamSource`),
//! * a leg whose join keys plus constant equalities pin the target's full
//!   primary key becomes an `IndexFKJoin`,
//! * any other leg becomes a `SortedIndexJoin`, bounded by a folded
//!   standard stop or by a `CARDINALITY LIMIT` on its probe columns.
//!
//! Every remote operator must have an explicit bound; when none exists the
//! compiler rejects the query with an [`InsightReport`]
//! (scale-independent mode) or falls back to statistics-based estimates
//! (cost-based baseline mode, §8.3).

use super::chain::{Chain, Leg, TopOp};
use super::error::{InsightReport, OptError, Suggestion};
use super::index_selection::{select_index, IndexRequest};
use super::phase1::{leg_eq_columns, leg_table, Objective};
use crate::ast::CompareOp;
use crate::catalog::{Catalog, ColumnId, IndexDef, Statistics, TableDef};
use crate::codec::key::Dir;
use crate::plan::logical::Stop;
use crate::plan::physical::{
    IndexRef, KeySource, OpBounds, PhysAggregate, PhysicalPlan, RangeBound, RangeSpec, ScanLimit,
    ScanSpec, SortedJoinSpec,
};
use crate::plan::provenance::Provenance;
use crate::plan::{
    BoundPredicate, FieldId, InOperand, Operand, QuerySchema, RelId, RelationSource,
};
use crate::text;
use std::collections::{BTreeMap, BTreeSet};

/// Fallback row estimate when the cost-based mode has no statistics.
const DEFAULT_GROUP_ESTIMATE: u64 = 1_000;
/// Batch size the executor uses for unbounded scans (cost-based plans).
pub const UNBOUNDED_SCAN_BATCH: u64 = 100;

pub struct Phase2<'a> {
    pub catalog: &'a Catalog,
    pub schema: &'a QuerySchema,
    pub objective: Objective,
    pub stats: Option<&'a Statistics>,
    /// Indexes that must exist for the plan (derived by index selection).
    pub required_indexes: Vec<IndexDef>,
    /// Human-readable compilation notes (Table 1 "modifications").
    pub notes: Vec<String>,
    /// Remote operators without a static bound (cost-based mode only).
    pub unbounded_ops: u64,
    /// Bound provenances that came from schema cardinality constraints or
    /// parameter MAX declarations (drives Class I vs II).
    pub used_cardinality_bound: bool,
}

/// Classified predicates of one leg.
struct LegAnalysis {
    /// Attribute equalities, one per column (first wins).
    eq: BTreeMap<ColumnId, (Operand, BoundPredicate)>,
    token: Option<(ColumnId, Operand, BoundPredicate)>,
    /// Range (inequality) specs per column.
    ranges: BTreeMap<ColumnId, (RangeSpec, Vec<BoundPredicate>)>,
    /// Predicates that can only run as local filters.
    residual: Vec<BoundPredicate>,
    data_stop: Option<Stop>,
}

impl LegAnalysis {
    fn eq_cols(&self) -> BTreeSet<ColumnId> {
        self.eq.keys().copied().collect()
    }
}

struct Build {
    plan: PhysicalPlan,
    /// Global field ids in tuple-position order.
    layout: Vec<FieldId>,
    /// Whether the plan already emits rows in the query's requested order.
    order_ok: bool,
}

impl<'a> Phase2<'a> {
    pub fn new(
        catalog: &'a Catalog,
        schema: &'a QuerySchema,
        objective: Objective,
        stats: Option<&'a Statistics>,
    ) -> Self {
        Phase2 {
            catalog,
            schema,
            objective,
            stats,
            required_indexes: Vec::new(),
            notes: Vec::new(),
            unbounded_ops: 0,
            used_cardinality_bound: false,
        }
    }

    pub fn compile(&mut self, chain: &Chain) -> Result<PhysicalPlan, OptError> {
        let needed = self.needed_fields(chain);
        let pure_fk = self.pure_fk_flags(chain);
        let fold = self.fold_leg(chain, &pure_fk);

        // ---- leg 0
        let leg0 = &chain.legs[0];
        let mut build = match self.schema.relation(leg0.rel).source.clone() {
            RelationSource::ParamValues { param, ty } => {
                let max = param.max_cardinality.unwrap_or(0);
                let field = self.schema.relation(leg0.rel).first_field;
                Build {
                    plan: PhysicalPlan::ParamSource {
                        rel: leg0.rel,
                        param,
                        ty,
                        max,
                        layout: vec![field],
                        bounds: OpBounds {
                            requests: 0,
                            rounds: 0,
                            tuples: max,
                            bytes: 0,
                        },
                    },
                    layout: vec![field],
                    order_ok: chain.sort.is_empty(),
                }
            }
            RelationSource::Table(_) => self.compile_scan(chain, leg0, fold == Some(0), &needed)?,
        };

        // ---- remaining legs
        for (i, leg) in chain.legs.iter().enumerate().skip(1) {
            build = if pure_fk[i].fk_possible {
                self.compile_fk_join(chain, leg, build, &needed)?
            } else {
                self.compile_sorted_join(chain, leg, build, fold == Some(i), &needed)?
            };
        }

        // ---- residual cross-relation predicates
        if !chain.residual.is_empty() {
            let preds = self.remap_preds(&chain.residual, &build.layout);
            build.plan = local_selection(build.plan, preds, build.layout.clone());
        }

        match &chain.top {
            TopOp::Project(items) => {
                if !chain.sort.is_empty() && !build.order_ok {
                    build = self.apply_local_sort(build, &chain.sort)?;
                }
                if let Some(stop) = &chain.stop {
                    if fold.is_none() {
                        build.plan = local_stop(build.plan, stop.count, build.layout.clone());
                    }
                }
                let columns: Vec<(usize, String)> = items
                    .iter()
                    .map(|(fid, name)| {
                        Ok::<_, OptError>((self.pos_of(&build.layout, *fid)?, name.clone()))
                    })
                    .collect::<Result<_, _>>()?;
                let layout: Vec<FieldId> = items.iter().map(|(fid, _)| *fid).collect();
                let child_bounds = build.plan.bounds();
                build.plan = PhysicalPlan::LocalProject {
                    child: Box::new(build.plan),
                    columns,
                    layout: layout.clone(),
                    bounds: OpBounds {
                        requests: 0,
                        rounds: 0,
                        tuples: child_bounds.tuples,
                        bytes: 0,
                    },
                };
                build.layout = layout;
            }
            TopOp::Aggregate { group_by, aggs } => {
                let group_pos: Vec<usize> = group_by
                    .iter()
                    .map(|g| self.pos_of(&build.layout, *g))
                    .collect::<Result<_, _>>()?;
                let phys_aggs: Vec<PhysAggregate> = aggs
                    .iter()
                    .map(|a| {
                        Ok::<_, OptError>(PhysAggregate {
                            func: a.func,
                            arg: a.arg.map(|f| self.pos_of(&build.layout, f)).transpose()?,
                            alias: a.alias.clone(),
                        })
                    })
                    .collect::<Result<_, _>>()?;
                let child_bounds = build.plan.bounds();
                // aggregate output layout: group fields keep their global
                // ids; aggregate columns have no global field (use the
                // group fields only for naming)
                let layout: Vec<FieldId> = group_by.clone();
                build.plan = PhysicalPlan::LocalAggregate {
                    child: Box::new(build.plan),
                    group_by: group_pos,
                    aggs: phys_aggs,
                    layout: layout.clone(),
                    bounds: OpBounds {
                        requests: 0,
                        rounds: 0,
                        tuples: child_bounds.tuples,
                        bytes: 0,
                    },
                };
                build.layout = layout;
                if !chain.sort.is_empty() {
                    // sort keys must be group columns (validated here)
                    build = self.apply_local_sort(build, &chain.sort)?;
                }
                if let Some(stop) = &chain.stop {
                    build.plan = local_stop(build.plan, stop.count, build.layout.clone());
                }
            }
        }
        Ok(build.plan)
    }

    // ------------------------------------------------------------ analysis

    fn analyze_leg(&self, leg: &Leg) -> Result<LegAnalysis, OptError> {
        let mut eq: BTreeMap<ColumnId, (Operand, BoundPredicate)> = BTreeMap::new();
        let mut token = None;
        let mut ranges: BTreeMap<ColumnId, (RangeSpec, Vec<BoundPredicate>)> = BTreeMap::new();
        let mut residual = Vec::new();
        for p in leg.all_preds() {
            match p {
                BoundPredicate::Compare { field, op, operand } => {
                    let Some(col) = self.schema.field(*field).column else {
                        residual.push(p.clone());
                        continue;
                    };
                    match op {
                        CompareOp::Eq => match eq.entry(col) {
                            std::collections::btree_map::Entry::Occupied(_) => {
                                residual.push(p.clone())
                            }
                            std::collections::btree_map::Entry::Vacant(v) => {
                                v.insert((operand.clone(), p.clone()));
                            }
                        },
                        CompareOp::Ne => residual.push(p.clone()),
                        CompareOp::Lt | CompareOp::Le => {
                            let entry = ranges.entry(col).or_default();
                            if entry.0.high.is_none() {
                                entry.0.high = Some(RangeBound {
                                    operand: operand.clone(),
                                    inclusive: *op == CompareOp::Le,
                                });
                                entry.1.push(p.clone());
                            } else {
                                residual.push(p.clone());
                            }
                        }
                        CompareOp::Gt | CompareOp::Ge => {
                            let entry = ranges.entry(col).or_default();
                            if entry.0.low.is_none() {
                                entry.0.low = Some(RangeBound {
                                    operand: operand.clone(),
                                    inclusive: *op == CompareOp::Ge,
                                });
                                entry.1.push(p.clone());
                            } else {
                                residual.push(p.clone());
                            }
                        }
                    }
                }
                BoundPredicate::TokenMatch { field, operand } => {
                    if let Operand::Literal(v) = operand {
                        let ok = v.as_str().and_then(text::search_token).is_some();
                        if !ok {
                            let f = self.schema.field(*field);
                            let table = self.schema.relation(f.rel_id).binding.clone();
                            return Err(OptError::NotScaleIndependent(InsightReport {
                                problem: format!(
                                    "LIKE pattern {operand} is not a single keyword; \
                                     general substring search over a growing relation is \
                                     not scale-independent (§7.3)"
                                ),
                                relation: Some(table.clone()),
                                suggestions: vec![Suggestion::TokenizeSearch {
                                    table,
                                    column: f.name.clone(),
                                }],
                            }));
                        }
                    }
                    let col = self.schema.field(*field).column;
                    match (col, &token) {
                        (Some(c), None) => token = Some((c, operand.clone(), p.clone())),
                        _ => residual.push(p.clone()),
                    }
                }
                other => residual.push(other.clone()),
            }
        }
        Ok(LegAnalysis {
            eq,
            token,
            ranges,
            residual,
            data_stop: leg.data_stop().cloned(),
        })
    }

    // ------------------------------------------------------------ leg 0

    fn compile_scan(
        &mut self,
        chain: &Chain,
        leg: &Leg,
        fold_here: bool,
        needed: &BTreeMap<RelId, BTreeSet<ColumnId>>,
    ) -> Result<Build, OptError> {
        let table = leg_table(self.catalog, self.schema, leg)
            .expect("table leg")
            .clone();
        let analysis = self.analyze_leg(leg)?;

        // sort desired at this leg?
        let local_sort = self.sort_on_rel(chain, leg.rel);
        let sort_cols: Vec<(ColumnId, Dir)> = local_sort
            .iter()
            .filter_map(|(f, d)| self.schema.field(*f).column.map(|c| (c, *d)))
            .collect();

        // range column: prefer the first sort column, else the first range
        let range_col = analysis
            .ranges
            .keys()
            .copied()
            .find(|c| sort_cols.first().map(|(sc, _)| sc == c).unwrap_or(true))
            .or_else(|| analysis.ranges.keys().next().copied());

        // required columns: data-stop cause cols, or everything when the
        // bound must come from the standard stop
        let cause_cols: BTreeSet<ColumnId> = match &analysis.data_stop {
            Some(ds) => ds
                .cause
                .iter()
                .filter_map(|p| {
                    p.as_attribute_equality()
                        .and_then(|(f, _)| self.schema.field(f).column)
                })
                .collect(),
            None => analysis.eq_cols(),
        };

        let req = IndexRequest {
            token_col: analysis.token.as_ref().map(|(c, _, _)| *c),
            eq_cols: analysis.eq_cols(),
            range_col,
            sort: sort_cols.clone(),
            required_eq: cause_cols.clone(),
        };
        let m = select_index(self.catalog, &table, &req, true).ok_or_else(|| {
            self.insight_scan(&table, leg, &analysis, "no usable index layout exists")
        })?;

        // residuals after index choice
        let mut residual = analysis.residual.clone();
        for c in m.residual_eq(&req) {
            residual.push(analysis.eq[&c].1.clone());
        }
        for (c, (_, preds)) in &analysis.ranges {
            if !(m.range_served && range_col == Some(*c)) {
                residual.extend(preds.iter().cloned());
            }
        }

        // ---- bound determination
        let sort_fully_served = chain.sort.is_empty()
            || (!local_sort.is_empty() && local_sort.len() == chain.sort.len() && m.sort_served);
        let can_fold_stop =
            fold_here && residual.is_empty() && sort_fully_served && chain.stop.is_some();
        let limit: ScanLimit = match (&analysis.data_stop, can_fold_stop) {
            (Some(ds), true) => {
                let stop = chain.stop.as_ref().expect("fold implies stop");
                if stop.count < ds.count {
                    ScanLimit::Bounded {
                        count: stop.count,
                        provenance: stop.provenance.clone(),
                    }
                } else {
                    self.record_data_stop(ds);
                    ScanLimit::Bounded {
                        count: ds.count,
                        provenance: ds.provenance.clone(),
                    }
                }
            }
            (Some(ds), false) => {
                self.record_data_stop(ds);
                ScanLimit::Bounded {
                    count: ds.count,
                    provenance: ds.provenance.clone(),
                }
            }
            (None, true) => {
                let stop = chain.stop.as_ref().expect("fold implies stop");
                ScanLimit::Bounded {
                    count: stop.count,
                    provenance: stop.provenance.clone(),
                }
            }
            (None, false) => {
                // token-only lookups, unconstrained scans, ...: unbounded
                match self.objective {
                    Objective::ScaleIndependent => {
                        return Err(self.insight_scan(
                            &table,
                            leg,
                            &analysis,
                            "no stop operator bounds this index scan",
                        ));
                    }
                    Objective::CostBased => {
                        self.unbounded_ops += 1;
                        ScanLimit::Unbounded {
                            estimate: self.estimate_group(&table, m.served_eq.first().copied()),
                        }
                    }
                }
            }
        };

        if analysis.token.is_some() {
            self.notes
                .push("tokenized search (LIKE served by inverted TOKEN index)".into());
        }

        // ---- spec assembly
        let needed_cols = needed.get(&leg.rel).cloned().unwrap_or_default();
        let deref = !needed_cols.is_subset(&m.covering);
        let row_bytes = match &m.index {
            Some(idx) if !deref => index_entry_bytes(&table, idx),
            _ => table.max_row_bytes() as u64,
        };
        let mut eq_prefix: Vec<Operand> = Vec::new();
        if let Some((_, op, _)) = &analysis.token {
            eq_prefix.push(op.clone());
        }
        for c in &m.served_eq {
            eq_prefix.push(analysis.eq[c].0.clone());
        }
        let range = if m.range_served {
            range_col.map(|c| analysis.ranges[&c].0.clone())
        } else {
            None
        };
        if let Some(idx) = &m.index {
            if m.derived {
                self.required_indexes.push(idx.clone());
            }
        }
        let count = limit.count_or_estimate();
        // bounded scans prefetch in ONE range request (§7.1); unbounded
        // (cost-based) scans page through in executor-sized batches
        let range_requests = if limit.is_bounded() {
            1
        } else {
            count.div_ceil(UNBOUNDED_SCAN_BATCH).max(1)
        };
        let bounds = OpBounds {
            requests: range_requests.saturating_add(if deref { count } else { 0 }),
            rounds: range_requests.saturating_add(deref as u64),
            tuples: count,
            bytes: count.saturating_mul(row_bytes),
        };
        let spec = ScanSpec {
            index: IndexRef {
                table: table.id,
                rel: leg.rel,
                secondary: m.index.clone(),
            },
            eq_prefix,
            range,
            reverse: m.reverse,
            limit,
            deref,
            row_bytes,
        };
        let layout: Vec<FieldId> = self.schema.relation(leg.rel).fields().collect();
        let mut plan = PhysicalPlan::IndexScan {
            spec,
            layout: layout.clone(),
            bounds,
        };
        if !residual.is_empty() {
            let preds = self.remap_preds(&residual, &layout);
            plan = local_selection(plan, preds, layout.clone());
        }
        Ok(Build {
            plan,
            layout,
            order_ok: sort_fully_served,
        })
    }

    // ------------------------------------------------------------ FK join

    fn compile_fk_join(
        &mut self,
        chain: &Chain,
        leg: &Leg,
        child: Build,
        needed: &BTreeMap<RelId, BTreeSet<ColumnId>>,
    ) -> Result<Build, OptError> {
        let table = leg_table(self.catalog, self.schema, leg)
            .expect("table leg")
            .clone();
        let analysis = self.analyze_leg(leg)?;
        let edges = self.edges_into(chain, leg.rel, &child.layout);

        // key sources in pk order
        let mut key = Vec::new();
        let mut consumed_eq: BTreeSet<ColumnId> = BTreeSet::new();
        for pk_col in table.primary_key_ids() {
            if let Some((_, child_pos)) = edges.iter().find(|(c, _)| *c == pk_col) {
                key.push(KeySource::ChildField(*child_pos));
            } else if let Some((op, _)) = analysis.eq.get(&pk_col) {
                key.push(KeySource::Const(op.clone()));
                consumed_eq.insert(pk_col);
            } else {
                return Err(OptError::Internal(format!(
                    "FK join on {} missing pk column {}",
                    table.name, table.columns[pk_col].name
                )));
            }
        }

        let mut residual: Vec<BoundPredicate> = analysis.residual.clone();
        for (c, (_, pred)) in &analysis.eq {
            if !consumed_eq.contains(c) {
                residual.push(pred.clone());
            }
        }
        for (_, preds) in analysis.ranges.values() {
            residual.extend(preds.iter().cloned());
        }

        let child_bounds = child.plan.bounds();
        let row_bytes = table.max_row_bytes() as u64;
        let bounds = OpBounds {
            requests: child_bounds.tuples,
            rounds: 1,
            tuples: child_bounds.tuples,
            bytes: child_bounds.tuples.saturating_mul(row_bytes),
        };
        let mut layout = child.layout.clone();
        layout.extend(self.schema.relation(leg.rel).fields());
        let mut plan = PhysicalPlan::IndexFKJoin {
            child: Box::new(child.plan),
            rel: leg.rel,
            table: table.id,
            key,
            row_bytes,
            layout: layout.clone(),
            bounds,
        };
        if !residual.is_empty() {
            let preds = self.remap_preds(&residual, &layout);
            plan = local_selection(plan, preds, layout.clone());
        }
        let _ = needed;
        Ok(Build {
            plan,
            layout,
            order_ok: child.order_ok, // 1:1 join preserves child order
        })
    }

    // ------------------------------------------------------------ sorted join

    fn compile_sorted_join(
        &mut self,
        chain: &Chain,
        leg: &Leg,
        child: Build,
        fold_here: bool,
        needed: &BTreeMap<RelId, BTreeSet<ColumnId>>,
    ) -> Result<Build, OptError> {
        let table = leg_table(self.catalog, self.schema, leg)
            .expect("table leg")
            .clone();
        let analysis = self.analyze_leg(leg)?;
        let edges = self.edges_into(chain, leg.rel, &child.layout);
        if edges.is_empty() {
            return Err(self.insight_join(
                &table,
                leg,
                "relation is joined without any equi-join condition (cross join)",
            ));
        }

        let local_sort = self.sort_on_rel(chain, leg.rel);
        let sort_cols: Vec<(ColumnId, Dir)> = local_sort
            .iter()
            .filter_map(|(f, d)| self.schema.field(*f).column.map(|c| (c, *d)))
            .collect();

        let edge_cols: BTreeSet<ColumnId> = edges.iter().map(|(c, _)| *c).collect();
        let mut eq_cols = analysis.eq_cols();
        eq_cols.extend(edge_cols.iter().copied());
        let req = IndexRequest {
            token_col: analysis.token.as_ref().map(|(c, _, _)| *c),
            eq_cols: eq_cols.clone(),
            range_col: None,
            sort: sort_cols.clone(),
            required_eq: eq_cols.clone(),
        };
        let m = select_index(self.catalog, &table, &req, true)
            .ok_or_else(|| self.insight_join(&table, leg, "no usable index layout exists"))?;

        let mut residual = analysis.residual.clone();
        for (_, preds) in analysis.ranges.values() {
            residual.extend(preds.iter().cloned());
        }

        // ---- per-key bound
        let sort_fully_served = chain.sort.is_empty()
            || (!local_sort.is_empty() && local_sort.len() == chain.sort.len() && m.sort_served);
        let can_fold = fold_here && residual.is_empty() && sort_fully_served;
        let probe_cols: Vec<ColumnId> = eq_cols.iter().copied().collect();
        let cc_bound = table.matching_cardinality(&probe_cols).map(|cc| {
            (
                cc.limit,
                Provenance::Cardinality {
                    table: table.name.clone(),
                    limit: cc.limit,
                    columns: cc.columns.clone(),
                },
            )
        });
        let (per_key, per_key_provenance, bounded) = match (can_fold, &chain.stop, cc_bound) {
            (true, Some(stop), Some((cc, cc_prov))) if cc < stop.count => {
                self.used_cardinality_bound = true;
                self.notes
                    .push(format!("join fan-out bounded by {cc_prov}"));
                (cc, cc_prov, true)
            }
            (true, Some(stop), _) => (stop.count, stop.provenance.clone(), true),
            (_, _, Some((cc, cc_prov))) => {
                self.used_cardinality_bound = true;
                self.notes
                    .push(format!("join fan-out bounded by {cc_prov}"));
                (cc, cc_prov, true)
            }
            _ => match self.objective {
                Objective::ScaleIndependent => {
                    return Err(self.insight_join(
                        &table,
                        leg,
                        "the number of matching rows per join key is unbounded",
                    ));
                }
                Objective::CostBased => {
                    self.unbounded_ops += 1;
                    let est = self.estimate_group(&table, edge_cols.iter().next().copied());
                    (est, Provenance::Estimate, false)
                }
            },
        };

        if analysis.token.is_some() {
            self.notes
                .push("tokenized search (LIKE served by inverted TOKEN index)".into());
        }

        // ---- spec assembly
        let needed_cols = needed.get(&leg.rel).cloned().unwrap_or_default();
        let deref = !needed_cols.is_subset(&m.covering);
        let row_bytes = match &m.index {
            Some(idx) if !deref => index_entry_bytes(&table, idx),
            _ => table.max_row_bytes() as u64,
        };
        let mut prefix: Vec<KeySource> = Vec::new();
        if let Some((_, op, _)) = &analysis.token {
            prefix.push(KeySource::Const(op.clone()));
        }
        for c in &m.served_eq {
            if let Some((_, child_pos)) = edges.iter().find(|(ec, _)| ec == c) {
                prefix.push(KeySource::ChildField(*child_pos));
            } else {
                prefix.push(KeySource::Const(analysis.eq[c].0.clone()));
            }
        }
        if let Some(idx) = &m.index {
            if m.derived {
                self.required_indexes.push(idx.clone());
            }
        }

        let mut layout = child.layout.clone();
        layout.extend(self.schema.relation(leg.rel).fields());
        // the right row occupies positions child.len()..; its column c sits
        // at child.len() + c
        let merge_by: Vec<(usize, Dir)> = if m.sort_served && !sort_cols.is_empty() {
            sort_cols
                .iter()
                .map(|(c, d)| (child.layout.len() + *c, *d))
                .collect()
        } else {
            Vec::new()
        };

        let emit_limit = if can_fold {
            chain.stop.as_ref().map(|s| s.count)
        } else {
            None
        };
        let child_bounds = child.plan.bounds();
        let fetched = child_bounds.tuples.saturating_mul(per_key);
        let emitted = emit_limit.map(|e| e.min(fetched)).unwrap_or(fetched);
        let bounds = OpBounds {
            requests: child_bounds
                .tuples
                .saturating_add(if deref { fetched } else { 0 }),
            rounds: 1 + deref as u64,
            tuples: emitted,
            bytes: fetched.saturating_mul(row_bytes),
        };
        let spec = SortedJoinSpec {
            index: IndexRef {
                table: table.id,
                rel: leg.rel,
                secondary: m.index.clone(),
            },
            prefix,
            per_key,
            per_key_provenance,
            merge_by,
            reverse: m.reverse,
            emit_limit,
            deref,
            row_bytes,
        };
        let mut plan = PhysicalPlan::SortedIndexJoin {
            child: Box::new(child.plan),
            rel: leg.rel,
            table: table.id,
            spec,
            layout: layout.clone(),
            bounds,
        };
        if !residual.is_empty() {
            let preds = self.remap_preds(&residual, &layout);
            plan = local_selection(plan, preds, layout.clone());
        }
        let _ = bounded;
        Ok(Build {
            plan,
            layout,
            order_ok: sort_fully_served,
        })
    }

    // ------------------------------------------------------------ helpers

    fn record_data_stop(&mut self, ds: &Stop) {
        if ds.provenance.is_cardinality_bound() {
            self.used_cardinality_bound = true;
            self.notes
                .push(format!("scan bounded by {}", ds.provenance));
        }
    }

    /// Sort keys that live on `rel` — only meaningful when *all* sort keys
    /// live there.
    fn sort_on_rel(&self, chain: &Chain, rel: RelId) -> Vec<(FieldId, Dir)> {
        if chain.sort.is_empty()
            || !chain
                .sort
                .iter()
                .all(|(f, _)| self.schema.rel_of(*f) == rel)
        {
            return Vec::new();
        }
        chain.sort.clone()
    }

    /// Join edges that connect `rel` to relations already in `layout`,
    /// returned as (column of `rel`, child tuple position).
    fn edges_into(
        &self,
        chain: &Chain,
        rel: RelId,
        child_layout: &[FieldId],
    ) -> Vec<(ColumnId, usize)> {
        let mut out = Vec::new();
        for &(a, b) in &chain.join_edges {
            for (mine, other) in [(a, b), (b, a)] {
                if self.schema.rel_of(mine) == rel {
                    if let Some(pos) = child_layout.iter().position(|&f| f == other) {
                        if let Some(col) = self.schema.field(mine).column {
                            out.push((col, pos));
                        }
                    }
                }
            }
        }
        out
    }

    fn pure_fk_flags(&self, chain: &Chain) -> Vec<FkInfo> {
        let mut placed: Vec<FieldId> = Vec::new();
        let mut flags = Vec::with_capacity(chain.legs.len());
        for (i, leg) in chain.legs.iter().enumerate() {
            let rel_fields: Vec<FieldId> = self.schema.relation(leg.rel).fields().collect();
            if i == 0 {
                flags.push(FkInfo {
                    fk_possible: false,
                    pure: false,
                });
                placed.extend(rel_fields);
                continue;
            }
            let info = match leg_table(self.catalog, self.schema, leg) {
                None => FkInfo {
                    fk_possible: false,
                    pure: false,
                },
                Some(table) => {
                    let edges: BTreeSet<ColumnId> = chain
                        .join_edges
                        .iter()
                        .flat_map(|&(a, b)| [(a, b), (b, a)])
                        .filter(|(mine, other)| {
                            self.schema.rel_of(*mine) == leg.rel && placed.contains(other)
                        })
                        .filter_map(|(mine, _)| self.schema.field(mine).column)
                        .collect();
                    let eq: BTreeSet<ColumnId> = leg_eq_columns(self.schema, leg)
                        .into_iter()
                        .map(|(c, _)| c)
                        .collect();
                    let mut cols: Vec<ColumnId> = edges.iter().copied().collect();
                    cols.extend(eq.iter().copied());
                    let fk_possible = table.covers_primary_key(&cols);
                    // pure: count-preserving — every predicate consumed by
                    // the pk probe, and the child side declares the FK
                    let pk: BTreeSet<ColumnId> = table.primary_key_ids().into_iter().collect();
                    let extra_preds = leg.all_preds().iter().any(|p| match p {
                        BoundPredicate::Compare {
                            field,
                            op: CompareOp::Eq,
                            ..
                        } => {
                            let col = self.schema.field(*field).column;
                            col.map(|c| !pk.contains(&c)).unwrap_or(true)
                        }
                        _ => true,
                    });
                    let fk_declared = self.fk_declared(chain, leg.rel);
                    FkInfo {
                        fk_possible,
                        pure: fk_possible && !extra_preds && fk_declared,
                    }
                }
            };
            flags.push(info);
            placed.extend(rel_fields);
        }
        flags
    }

    /// Whether some earlier relation declares a FOREIGN KEY onto `rel`'s
    /// table via the join-edge columns — required for count-preservation.
    fn fk_declared(&self, chain: &Chain, rel: RelId) -> bool {
        let RelationSource::Table(target_tid) = self.schema.relation(rel).source else {
            return false;
        };
        let target_name = &self.catalog.table_by_id(target_tid).name;
        for &(a, b) in &chain.join_edges {
            for (mine, other) in [(a, b), (b, a)] {
                if self.schema.rel_of(mine) != rel {
                    continue;
                }
                let other_field = self.schema.field(other);
                let RelationSource::Table(src_tid) =
                    self.schema.relation(other_field.rel_id).source
                else {
                    continue;
                };
                let src = self.catalog.table_by_id(src_tid);
                for fk in &src.foreign_keys {
                    if fk.ref_table.eq_ignore_ascii_case(target_name)
                        && fk
                            .columns
                            .iter()
                            .any(|c| c.eq_ignore_ascii_case(&other_field.name))
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The fold target: the leg whose remote operator may absorb the
    /// query's Sort and standard Stop as a limit hint.
    fn fold_leg(&self, chain: &Chain, fk: &[FkInfo]) -> Option<usize> {
        chain.stop.as_ref()?;
        if !chain.residual.is_empty() || matches!(chain.top, TopOp::Aggregate { .. }) {
            return None;
        }
        let sort_rel: Option<RelId> = if chain.sort.is_empty() {
            None
        } else {
            let rels: BTreeSet<RelId> = chain
                .sort
                .iter()
                .map(|(f, _)| self.schema.rel_of(*f))
                .collect();
            if rels.len() == 1 {
                Some(rels.into_iter().next().unwrap())
            } else {
                return None; // multi-relation sort: LocalSort, no fold
            }
        };
        for i in 0..chain.legs.len() {
            let sort_ok = sort_rel.map(|r| r == chain.legs[i].rel).unwrap_or(true);
            let suffix_pure = ((i + 1)..chain.legs.len()).all(|j| fk[j].pure);
            if sort_ok && suffix_pure {
                return Some(i);
            }
        }
        None
    }

    fn needed_fields(&self, chain: &Chain) -> BTreeMap<RelId, BTreeSet<ColumnId>> {
        let mut needed: BTreeMap<RelId, BTreeSet<ColumnId>> = BTreeMap::new();
        let add_field = |f: FieldId, needed: &mut BTreeMap<RelId, BTreeSet<ColumnId>>| {
            let field = self.schema.field(f);
            if let Some(col) = field.column {
                needed.entry(field.rel_id).or_default().insert(col);
            }
        };
        for leg in &chain.legs {
            for p in leg.all_preds() {
                for f in p.fields() {
                    add_field(f, &mut needed);
                }
            }
        }
        for p in &chain.residual {
            for f in p.fields() {
                add_field(f, &mut needed);
            }
        }
        for &(a, b) in &chain.join_edges {
            add_field(a, &mut needed);
            add_field(b, &mut needed);
        }
        for (f, _) in &chain.sort {
            add_field(*f, &mut needed);
        }
        match &chain.top {
            TopOp::Project(items) => {
                for (f, _) in items {
                    add_field(*f, &mut needed);
                }
            }
            TopOp::Aggregate { group_by, aggs } => {
                for f in group_by {
                    add_field(*f, &mut needed);
                }
                for a in aggs {
                    if let Some(f) = a.arg {
                        add_field(f, &mut needed);
                    }
                }
            }
        }
        needed
    }

    fn pos_of(&self, layout: &[FieldId], fid: FieldId) -> Result<usize, OptError> {
        layout
            .iter()
            .position(|&f| f == fid)
            .ok_or_else(|| OptError::Internal(format!("field {fid} missing from layout")))
    }

    fn remap_preds(&self, preds: &[BoundPredicate], layout: &[FieldId]) -> Vec<BoundPredicate> {
        preds
            .iter()
            .map(|p| {
                p.remap(|f| {
                    layout
                        .iter()
                        .position(|&x| x == f)
                        .expect("predicate field present in layout")
                })
            })
            .collect()
    }

    fn apply_local_sort(
        &self,
        mut build: Build,
        sort: &[(FieldId, Dir)],
    ) -> Result<Build, OptError> {
        let keys: Vec<(usize, Dir)> = sort
            .iter()
            .map(|(f, d)| Ok::<_, OptError>((self.pos_of(&build.layout, *f)?, *d)))
            .collect::<Result<_, _>>()?;
        let bounds = OpBounds {
            requests: 0,
            rounds: 0,
            tuples: build.plan.bounds().tuples,
            bytes: 0,
        };
        build.plan = PhysicalPlan::LocalSort {
            child: Box::new(build.plan),
            keys,
            layout: build.layout.clone(),
            bounds,
        };
        build.order_ok = true;
        Ok(build)
    }

    fn estimate_group(&self, table: &TableDef, col: Option<ColumnId>) -> u64 {
        let stats = self.stats.and_then(|s| s.table(table.id));
        match (stats, col) {
            (Some(ts), Some(c)) => ts
                .avg_group_size(&table.columns[c].name)
                .map(|v| v.ceil() as u64)
                .unwrap_or(DEFAULT_GROUP_ESTIMATE),
            (Some(ts), None) => ts.row_count.max(1),
            (None, _) => DEFAULT_GROUP_ESTIMATE,
        }
    }

    // ------------------------------------------------------------ insight

    fn insight_scan(
        &self,
        table: &TableDef,
        leg: &Leg,
        analysis: &LegAnalysis,
        problem: &str,
    ) -> OptError {
        let binding = self.schema.relation(leg.rel).binding.clone();
        let mut suggestions = Vec::new();
        let eq_cols: Vec<String> = analysis
            .eq
            .keys()
            .map(|&c| table.columns[c].name.clone())
            .collect();
        if !eq_cols.is_empty() {
            suggestions.push(Suggestion::AddCardinalityLimit {
                table: table.name.clone(),
                columns: eq_cols,
            });
        }
        for p in &analysis.residual {
            if let BoundPredicate::In {
                operand: InOperand::Param(prm),
                ..
            } = p
            {
                if prm.max_cardinality.is_none() {
                    suggestions.push(Suggestion::DeclareParamMax {
                        param: prm.name.clone(),
                    });
                }
            }
        }
        suggestions.push(Suggestion::AddLimitOrPaginate);
        if analysis.eq.is_empty() && analysis.token.is_none() {
            suggestions.push(Suggestion::Precompute);
        }
        OptError::NotScaleIndependent(InsightReport {
            problem: format!("{problem} (relation '{binding}' would be scanned without a bound)"),
            relation: Some(binding),
            suggestions,
        })
    }

    fn insight_join(&self, table: &TableDef, leg: &Leg, problem: &str) -> OptError {
        let binding = self.schema.relation(leg.rel).binding.clone();
        // suggest a cardinality limit on the probe columns
        let cols: Vec<String> = {
            let eq: Vec<String> = leg_eq_columns(self.schema, leg)
                .into_iter()
                .map(|(c, _)| table.columns[c].name.clone())
                .collect();
            if eq.is_empty() {
                table.primary_key.clone()
            } else {
                eq
            }
        };
        OptError::NotScaleIndependent(InsightReport {
            problem: format!("{problem} (joining relation '{binding}')"),
            relation: Some(binding),
            suggestions: vec![
                Suggestion::AddCardinalityLimit {
                    table: table.name.clone(),
                    columns: cols,
                },
                Suggestion::AddLimitOrPaginate,
            ],
        })
    }
}

struct FkInfo {
    fk_possible: bool,
    pure: bool,
}

fn local_selection(
    child: PhysicalPlan,
    predicates: Vec<BoundPredicate>,
    layout: Vec<FieldId>,
) -> PhysicalPlan {
    let b = child.bounds();
    PhysicalPlan::LocalSelection {
        child: Box::new(child),
        predicates,
        layout,
        bounds: OpBounds {
            requests: 0,
            rounds: 0,
            tuples: b.tuples,
            bytes: 0,
        },
    }
}

fn local_stop(child: PhysicalPlan, count: u64, layout: Vec<FieldId>) -> PhysicalPlan {
    let b = child.bounds();
    PhysicalPlan::LocalStop {
        child: Box::new(child),
        count,
        layout,
        bounds: OpBounds {
            requests: 0,
            rounds: 0,
            tuples: b.tuples.min(count),
            bytes: 0,
        },
    }
}

/// Upper bound on one secondary-index entry's key size.
fn index_entry_bytes(table: &TableDef, index: &IndexDef) -> u64 {
    index
        .full_key_types(table)
        .iter()
        .map(|t| t.max_encoded_len() as u64)
        .sum::<u64>()
        + 2
}
