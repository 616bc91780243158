//! Phase II of the optimizer — `PlanGenerate` (Algorithm 2, §5.2).
//!
//! Walks the chain bottom-up, mapping each leg onto one of the three remote
//! operators (Figure 4):
//!
//! * the first leg becomes an `IndexScan` (or a local `ParamSource`),
//! * a leg whose join keys plus constant equalities pin the target's full
//!   primary key becomes an `IndexFKJoin`,
//! * any other leg becomes a `SortedIndexJoin`, bounded by a folded
//!   standard stop or by the declared bound its probe columns pin.
//!
//! Every remote operator must have an explicit bound; when none exists the
//! compiler rejects the query with an [`InsightReport`]
//! (scale-independent mode) or falls back to statistics-based estimates
//! (cost-based baseline mode, §8.3). Which bounds were used, and so the
//! query's class, is read back from the finished plan.

use super::chain::{Chain, Leg, TopOp};
use super::error::{InsightReport, OptError, Suggestion};
use super::index_selection::{select_index, IndexMatch, IndexRequest};
use super::phase1::{leg_bound, leg_table, Objective};
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
use std::sync::Arc;

/// Fallback row estimate when the cost-based mode has no statistics.
const DEFAULT_GROUP_ESTIMATE: u64 = 1_000;
/// Batch size the executor uses for unbounded scans (cost-based plans).
pub const UNBOUNDED_SCAN_BATCH: u64 = 100;

/// Columns each relation's operators must produce.
type Needed = BTreeMap<RelId, BTreeSet<ColumnId>>;

pub struct Phase2<'a> {
    pub catalog: &'a Catalog,
    pub schema: &'a QuerySchema,
    pub objective: Objective,
    pub stats: Option<&'a Statistics>,
    /// Indexes that must exist for the plan (derived by index selection).
    pub required_indexes: Vec<IndexDef>,
    /// Human-readable compilation notes (Table 1 "modifications").
    pub notes: Vec<String>,
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

    fn token_col(&self) -> Option<ColumnId> {
        self.token.as_ref().map(|(c, _, _)| *c)
    }
}

struct Build {
    plan: PhysicalPlan,
    /// Global field ids in tuple-position order.
    layout: Vec<FieldId>,
    /// Whether the plan already emits rows in the query's requested order.
    order_ok: bool,
    /// Whether a remote operator in the plan applies the query's standard
    /// stop, with only count-preserving joins above it. The fold leg may
    /// not absorb the stop (a local filter, an unserved sort, an FK join),
    /// so this is what decides whether a `LocalStop` goes on top.
    folded: bool,
}

/// How a remote operator reads the index it was matched to.
struct Access {
    index: IndexRef,
    /// Whether rows are fetched by a second round of gets (§5.1).
    deref: bool,
    /// Upper bound on one fetched tuple's bytes.
    row_bytes: u64,
}

#[derive(Default)]
struct FkInfo {
    fk_possible: bool,
    pure: bool,
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
                let layout = vec![self.schema.relation(leg0.rel).first_field];
                Build {
                    plan: PhysicalPlan::ParamSource {
                        rel: leg0.rel,
                        param,
                        ty,
                        max,
                        layout: layout.clone(),
                        bounds: OpBounds::local(max),
                    },
                    layout,
                    order_ok: chain.sort.is_empty(),
                    folded: false,
                }
            }
            RelationSource::Table(_) => self.compile_scan(chain, leg0, fold == Some(0), &needed)?,
        };

        // ---- remaining legs
        for (at, fk) in pure_fk.iter().enumerate().skip(1) {
            build = if fk.fk_possible {
                self.compile_fk_join(chain, at, build)?
            } else {
                self.compile_sorted_join(chain, at, build, fold == Some(at), &needed)?
            };
        }

        // ---- residual cross-relation predicates
        build.plan = self.filtered(build.plan, &chain.residual, &build.layout)?;

        match &chain.top {
            TopOp::Project(items) => {
                if !chain.sort.is_empty() && !build.order_ok {
                    build = self.apply_local_sort(build, &chain.sort)?;
                }
                if let Some(stop) = chain.stop.as_ref().filter(|_| !build.folded) {
                    build.plan = local_stop(build.plan, stop, build.layout.clone());
                }
                let columns: Vec<(usize, String)> = items
                    .iter()
                    .map(|(fid, name)| {
                        Ok::<_, OptError>((self.pos_of(&build.layout, *fid)?, name.clone()))
                    })
                    .collect::<Result<_, _>>()?;
                let layout: Vec<FieldId> = items.iter().map(|(fid, _)| *fid).collect();
                let bounds = OpBounds::local(build.plan.bounds().tuples);
                build.plan = PhysicalPlan::LocalProject {
                    child: Box::new(build.plan),
                    columns,
                    layout: layout.clone(),
                    bounds,
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
                // aggregate output layout: group fields keep their global
                // ids; aggregate columns have no global field (use the
                // group fields only for naming)
                let layout: Vec<FieldId> = group_by.clone();
                let bounds = OpBounds::local(build.plan.bounds().tuples);
                build.plan = PhysicalPlan::LocalAggregate {
                    child: Box::new(build.plan),
                    group_by: group_pos,
                    aggs: phys_aggs,
                    layout: layout.clone(),
                    bounds,
                };
                build.layout = layout;
                if !chain.sort.is_empty() {
                    // sort keys must be group columns (validated here)
                    build = self.apply_local_sort(build, &chain.sort)?;
                }
                if let Some(stop) = &chain.stop {
                    build.plan = local_stop(build.plan, stop, build.layout.clone());
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
        needed: &Needed,
    ) -> Result<Build, OptError> {
        let table = self.table_of(leg)?;
        let analysis = self.analyze_leg(leg)?;
        let sort_cols = self.sort_cols(chain, leg.rel);

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
            token_col: analysis.token_col(),
            eq_cols: analysis.eq_cols(),
            range_col,
            sort: sort_cols,
            required_eq: cause_cols,
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

        // ---- bound determination: the data-stop, or the standard stop
        // folded in when it is tighter
        let order_ok = chain.sort.is_empty() || (!req.sort.is_empty() && m.sort_served);
        let stop = chain
            .stop
            .as_ref()
            .filter(|_| fold_here && residual.is_empty() && order_ok);
        let bound = match (&analysis.data_stop, stop) {
            (Some(ds), Some(stop)) if stop.count < ds.count => Some(stop),
            (Some(ds), _) => {
                if ds.provenance.is_cardinality_bound() {
                    self.notes
                        .push(format!("scan bounded by {}", ds.provenance));
                }
                Some(ds)
            }
            (None, stop) => stop,
        };
        let limit = match (bound, self.objective) {
            (Some(stop), _) => ScanLimit::Bounded {
                count: stop.count,
                provenance: stop.provenance.clone(),
            },
            // token-only lookups, unconstrained scans, ...: unbounded
            (None, Objective::ScaleIndependent) => {
                return Err(self.insight_scan(
                    &table,
                    leg,
                    &analysis,
                    "no stop operator bounds this index scan",
                ));
            }
            (None, Objective::CostBased) => ScanLimit::Unbounded {
                estimate: self.estimate_group(&table, m.served_eq.first().copied()),
            },
        };

        // ---- spec assembly
        let access = self.access(&table, leg, &m, &req, needed);
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
        let count = limit.count_or_estimate();
        // bounded scans prefetch in ONE range request (§7.1); unbounded
        // (cost-based) scans page through in executor-sized batches
        let range_requests = if limit.is_bounded() {
            1
        } else {
            count.div_ceil(UNBOUNDED_SCAN_BATCH).max(1)
        };
        let bounds = OpBounds {
            requests: range_requests.saturating_add(if access.deref { count } else { 0 }),
            rounds: range_requests.saturating_add(access.deref as u64),
            tuples: count,
            bytes: count.saturating_mul(access.row_bytes),
        };
        let spec = ScanSpec {
            index: access.index,
            eq_prefix,
            range,
            reverse: m.reverse,
            limit,
            deref: access.deref,
            row_bytes: access.row_bytes,
        };
        let layout: Vec<FieldId> = self.schema.relation(leg.rel).fields().collect();
        let plan = PhysicalPlan::IndexScan {
            spec,
            layout: layout.clone(),
            bounds,
        };
        Ok(Build {
            plan: self.filtered(plan, &residual, &layout)?,
            layout,
            order_ok,
            folded: stop.is_some(),
        })
    }

    // ------------------------------------------------------------ FK join

    fn compile_fk_join(
        &mut self,
        chain: &Chain,
        at: usize,
        child: Build,
    ) -> Result<Build, OptError> {
        let leg = &chain.legs[at];
        let table = self.table_of(leg)?;
        let analysis = self.analyze_leg(leg)?;
        let edges = self.probe_keys(chain, at, &child.layout);

        // key sources in pk order
        let pk = table.primary_key_ids();
        let mut key = Vec::new();
        let mut consumed_eq: BTreeSet<ColumnId> = BTreeSet::new();
        for &pk_col in &pk {
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

        let mut residual = self.edge_checks(leg, &edges, &pk, &child.layout);
        residual.extend(analysis.residual.iter().cloned());
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
        let plan = PhysicalPlan::IndexFKJoin {
            child: Box::new(child.plan),
            rel: leg.rel,
            table: table.id,
            key,
            row_bytes,
            layout: layout.clone(),
            bounds,
        };
        Ok(Build {
            plan: self.filtered(plan, &residual, &layout)?,
            layout,
            order_ok: child.order_ok, // 1:1 join preserves child order
            folded: child.folded,
        })
    }

    // ------------------------------------------------------------ sorted join

    fn compile_sorted_join(
        &mut self,
        chain: &Chain,
        at: usize,
        child: Build,
        fold_here: bool,
        needed: &Needed,
    ) -> Result<Build, OptError> {
        let leg = &chain.legs[at];
        let table = self.table_of(leg)?;
        let analysis = self.analyze_leg(leg)?;
        let edges = self.probe_keys(chain, at, &child.layout);
        if edges.is_empty() {
            return Err(self.insight_join(
                &table,
                leg,
                &BTreeSet::new(),
                "relation is joined without any equi-join condition (cross join)",
            ));
        }

        // the probe columns: join keys plus constant equalities
        let mut probe = analysis.eq_cols();
        probe.extend(edges.iter().map(|(c, _)| *c));
        let req = IndexRequest {
            token_col: analysis.token_col(),
            eq_cols: probe.clone(),
            range_col: None,
            sort: self.sort_cols(chain, leg.rel),
            required_eq: probe.clone(),
        };
        let m = select_index(self.catalog, &table, &req, true).ok_or_else(|| {
            self.insight_join(&table, leg, &probe, "no usable index layout exists")
        })?;

        let mut residual = self.edge_checks(leg, &edges, &m.served_eq, &child.layout);
        residual.extend(analysis.residual.iter().cloned());
        // the key probes an edge's column with the child's value, so a
        // constant equality on that column is checked on the joined row
        for (c, (_, pred)) in &analysis.eq {
            if edges.iter().any(|(e, _)| e == c) {
                residual.push(pred.clone());
            }
        }
        for (_, preds) in analysis.ranges.values() {
            residual.extend(preds.iter().cloned());
        }

        // ---- per-key bound: the declared bound the probe columns pin, or
        // the standard stop folded in when it is tighter
        let order_ok = chain.sort.is_empty() || (!req.sort.is_empty() && m.sort_served);
        let stop = chain
            .stop
            .as_ref()
            .filter(|_| fold_here && residual.is_empty() && order_ok);
        let declared = leg_bound(&table, self.schema, leg, edges.iter().map(|(c, _)| *c));
        let (per_key, per_key_provenance) = match (stop, declared) {
            (Some(stop), Some(bound)) if bound.limit >= stop.count => {
                (stop.count, stop.provenance.clone())
            }
            (_, Some(bound)) => {
                self.notes
                    .push(format!("join fan-out bounded by {}", bound.provenance));
                (bound.limit, bound.provenance)
            }
            (Some(stop), None) => (stop.count, stop.provenance.clone()),
            (None, None) => match self.objective {
                Objective::ScaleIndependent => {
                    return Err(self.insight_join(
                        &table,
                        leg,
                        &probe,
                        "the number of matching rows per join key is unbounded",
                    ));
                }
                Objective::CostBased => {
                    let col = edges.iter().map(|(c, _)| *c).min();
                    (self.estimate_group(&table, col), Provenance::Estimate)
                }
            },
        };

        // ---- spec assembly
        let access = self.access(&table, leg, &m, &req, needed);
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

        let mut layout = child.layout.clone();
        layout.extend(self.schema.relation(leg.rel).fields());
        // the right row occupies positions child.len()..; its column c sits
        // at child.len() + c
        let merge_by: Vec<(usize, Dir)> = if m.sort_served {
            req.sort
                .iter()
                .map(|(c, d)| (child.layout.len() + *c, *d))
                .collect()
        } else {
            Vec::new()
        };

        let emit_limit = stop.map(|s| s.count);
        let child_bounds = child.plan.bounds();
        let fetched = child_bounds.tuples.saturating_mul(per_key);
        let emitted = emit_limit.map(|e| e.min(fetched)).unwrap_or(fetched);
        let bounds = OpBounds {
            requests: child_bounds
                .tuples
                .saturating_add(if access.deref { fetched } else { 0 }),
            rounds: 1 + access.deref as u64,
            tuples: emitted,
            bytes: fetched.saturating_mul(access.row_bytes),
        };
        let spec = SortedJoinSpec {
            index: access.index,
            prefix,
            per_key,
            per_key_provenance,
            merge_by,
            reverse: m.reverse,
            emit_limit,
            deref: access.deref,
            row_bytes: access.row_bytes,
        };
        let plan = PhysicalPlan::SortedIndexJoin {
            child: Box::new(child.plan),
            rel: leg.rel,
            table: table.id,
            spec,
            layout: layout.clone(),
            bounds,
        };
        Ok(Build {
            plan: self.filtered(plan, &residual, &layout)?,
            layout,
            order_ok,
            folded: child.folded || stop.is_some(),
        })
    }

    // ------------------------------------------------------------ helpers

    /// The table behind a leg. A parameter list always leads the chain
    /// (Phase I), so a leg compiled as a scan or join is a table; anything
    /// else is a compiler bug, answered as one.
    fn table_of(&self, leg: &Leg) -> Result<Arc<TableDef>, OptError> {
        leg_table(self.catalog, self.schema, leg)
            .cloned()
            .ok_or_else(|| {
                let binding = &self.schema.relation(leg.rel).binding;
                OptError::Internal(format!(
                    "parameter list {binding} is not the first relation"
                ))
            })
    }

    /// The tail scans and sorted joins share once their index is chosen:
    /// note a tokenized search, record a derived index, and work out
    /// whether rows need a deref round and how large a fetched tuple is.
    fn access(
        &mut self,
        table: &TableDef,
        leg: &Leg,
        m: &IndexMatch,
        req: &IndexRequest,
        needed: &Needed,
    ) -> Access {
        if req.token_col.is_some() {
            self.notes
                .push("tokenized search (LIKE served by inverted TOKEN index)".into());
        }
        if let Some(idx) = m.index.as_ref().filter(|_| m.derived) {
            self.required_indexes.push(idx.clone());
        }
        let deref = needed
            .get(&leg.rel)
            .is_some_and(|cols| !cols.is_subset(&m.covering));
        let row_bytes = match &m.index {
            Some(idx) if !deref => index_entry_bytes(table, idx),
            _ => table.max_row_bytes() as u64,
        };
        Access {
            index: IndexRef {
                table: table.id,
                rel: leg.rel,
                secondary: m.index.clone(),
            },
            deref,
            row_bytes,
        }
    }

    /// The query's sort as `rel`'s columns — empty unless every sort key
    /// lives on `rel`.
    fn sort_cols(&self, chain: &Chain, rel: RelId) -> Vec<(ColumnId, Dir)> {
        if !chain
            .sort
            .iter()
            .all(|(f, _)| self.schema.rel_of(*f) == rel)
        {
            return Vec::new();
        }
        chain
            .sort
            .iter()
            .filter_map(|(f, d)| Some((self.schema.field(*f).column?, *d)))
            .collect()
    }

    /// Leg `at`'s join keys to the legs placed before it, as (its column,
    /// the placed relation's field).
    fn join_keys(&self, chain: &Chain, at: usize) -> Vec<(ColumnId, FieldId)> {
        let placed = |rel| chain.legs[..at].iter().any(|l| l.rel == rel);
        chain
            .edges_to(self.schema, chain.legs[at].rel, placed)
            .filter_map(|(mine, other)| Some((self.schema.field(mine).column?, other)))
            .collect()
    }

    /// [`Self::join_keys`] with each placed field as its child-tuple
    /// position.
    fn probe_keys(&self, chain: &Chain, at: usize, child: &[FieldId]) -> Vec<(ColumnId, usize)> {
        self.join_keys(chain, at)
            .into_iter()
            .filter_map(|(c, f)| Some((c, child.iter().position(|&x| x == f)?)))
            .collect()
    }

    /// The probe edges a lookup on `key` leaves unchecked, as equalities
    /// between the joined row and the child tuple for a local filter.
    fn edge_checks(
        &self,
        leg: &Leg,
        edges: &[(ColumnId, usize)],
        key: &[ColumnId],
        child: &[FieldId],
    ) -> Vec<BoundPredicate> {
        let first = self.schema.relation(leg.rel).first_field;
        unkeyed(edges, key)
            .map(|&(c, pos)| BoundPredicate::FieldCompare {
                left: first + c,
                op: CompareOp::Eq,
                right: child[pos],
            })
            .collect()
    }

    fn pure_fk_flags(&self, chain: &Chain) -> Vec<FkInfo> {
        let flags = chain.legs.iter().enumerate().map(|(at, leg)| {
            let table = match leg_table(self.catalog, self.schema, leg) {
                Some(table) if at > 0 => table,
                _ => return FkInfo::default(),
            };
            let keys = self.join_keys(chain, at);
            let pinned = leg_bound(table, self.schema, leg, keys.iter().map(|(c, _)| *c));
            let fk_possible = pinned.is_some_and(|b| b.is_key());
            // pure: count-preserving — every predicate and join edge consumed
            // by the pk probe, and an earlier relation declares the FK
            let pk = table.primary_key_ids();
            let extra_preds = leg.all_preds().iter().any(|p| {
                let col = p
                    .as_attribute_equality()
                    .and_then(|(f, _)| self.schema.field(f).column);
                !col.is_some_and(|c| pk.contains(&c) && !keys.iter().any(|(k, _)| *k == c))
            }) || unkeyed(&keys, &pk).next().is_some();
            let fk_declared = keys
                .iter()
                .any(|&(_, other)| self.declares_fk(other, table));
            FkInfo {
                fk_possible,
                pure: fk_possible && !extra_preds && fk_declared,
            }
        });
        flags.collect()
    }

    /// Whether `field`'s table declares a FOREIGN KEY through it onto
    /// `target` — required for count-preservation.
    fn declares_fk(&self, field: FieldId, target: &TableDef) -> bool {
        let field = self.schema.field(field);
        let RelationSource::Table(src) = self.schema.relation(field.rel_id).source else {
            return false;
        };
        self.catalog.table_by_id(src).foreign_keys.iter().any(|fk| {
            fk.ref_table.eq_ignore_ascii_case(&target.name)
                && fk
                    .columns
                    .iter()
                    .any(|c| c.eq_ignore_ascii_case(&field.name))
        })
    }

    /// The fold target: the leg whose remote operator may absorb the
    /// query's Sort and standard Stop as a limit hint.
    fn fold_leg(&self, chain: &Chain, fk: &[FkInfo]) -> Option<usize> {
        chain.stop.as_ref()?;
        if !chain.residual.is_empty() || matches!(chain.top, TopOp::Aggregate { .. }) {
            return None;
        }
        let mut sort_rels = chain.sort.iter().map(|(f, _)| self.schema.rel_of(*f));
        let sort_rel = sort_rels.next();
        if sort_rels.any(|r| Some(r) != sort_rel) {
            return None; // multi-relation sort: LocalSort, no fold
        }
        (0..chain.legs.len()).find(|&i| {
            sort_rel.is_none_or(|r| r == chain.legs[i].rel)
                && ((i + 1)..chain.legs.len()).all(|j| fk[j].pure)
        })
    }

    fn needed_fields(&self, chain: &Chain) -> Needed {
        let mut needed = Needed::new();
        let add_field = |f: FieldId, needed: &mut Needed| {
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

    /// `plan` under a local filter for `preds` (remapped to positions in
    /// `layout`), or `plan` itself when there are none.
    fn filtered(
        &self,
        plan: PhysicalPlan,
        preds: &[BoundPredicate],
        layout: &[FieldId],
    ) -> Result<PhysicalPlan, OptError> {
        if preds.is_empty() {
            return Ok(plan);
        }
        let pos: BTreeMap<FieldId, usize> = preds
            .iter()
            .flat_map(|p| p.fields())
            .map(|f| Ok((f, self.pos_of(layout, f)?)))
            .collect::<Result<_, OptError>>()?;
        let bounds = OpBounds::local(plan.bounds().tuples);
        Ok(PhysicalPlan::LocalSelection {
            child: Box::new(plan),
            predicates: preds.iter().map(|p| p.remap(|f| pos[&f])).collect(),
            layout: layout.to_vec(),
            bounds,
        })
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
        let bounds = OpBounds::local(build.plan.bounds().tuples);
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

    /// A join no bound covers. The suggested limit is on the probe columns,
    /// the ones the per-key bound is looked up on.
    fn insight_join(
        &self,
        table: &TableDef,
        leg: &Leg,
        probe: &BTreeSet<ColumnId>,
        problem: &str,
    ) -> OptError {
        let binding = self.schema.relation(leg.rel).binding.clone();
        let mut suggestions = Vec::new();
        if !probe.is_empty() {
            suggestions.push(Suggestion::AddCardinalityLimit {
                table: table.name.clone(),
                columns: probe
                    .iter()
                    .map(|&c| table.columns[c].name.clone())
                    .collect(),
            });
        }
        suggestions.push(Suggestion::AddLimitOrPaginate);
        OptError::NotScaleIndependent(InsightReport {
            problem: format!("{problem} (joining relation '{binding}')"),
            relation: Some(binding),
            suggestions,
        })
    }
}

/// The join edges a lookup on `key` does not consume: each edge on a column
/// outside the key, and each edge after the first on the same column. The
/// joined rows must still be checked against them.
fn unkeyed<'e, T>(
    edges: &'e [(ColumnId, T)],
    key: &'e [ColumnId],
) -> impl Iterator<Item = &'e (ColumnId, T)> {
    edges.iter().enumerate().filter_map(move |(i, edge)| {
        let repeat = edges[..i].iter().any(|(c, _)| *c == edge.0);
        (repeat || !key.contains(&edge.0)).then_some(edge)
    })
}

fn local_stop(child: PhysicalPlan, stop: &Stop, layout: Vec<FieldId>) -> PhysicalPlan {
    let bounds = OpBounds::local(child.bounds().tuples.min(stop.count));
    PhysicalPlan::LocalStop {
        child: Box::new(child),
        count: stop.count,
        provenance: stop.provenance.clone(),
        layout,
        bounds,
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
