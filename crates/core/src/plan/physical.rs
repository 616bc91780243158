//! Physical query plans.
//!
//! Phase II of the optimizer (§5.2) maps logical operator groups onto three
//! *remote* operators — `IndexScan`, `IndexFKJoin`, `SortedIndexJoin` — and
//! the local operators. Every remote operator carries an explicit bound on
//! the key/value-store requests it may issue and the tuples it may ship;
//! the plan's aggregate [`QueryBounds`] is the quantity that makes a query
//! *scale-independent*.
//!
//! Runtime addressing is positional: every node records its output `layout`
//! (global field ids in tuple-position order), and predicates/sort keys are
//! pre-remapped to positions by the planner.

use super::pred::{BoundPredicate, Operand};
use super::provenance::Provenance;
use super::schema::{FieldId, QuerySchema, RelId};
use crate::ast::{AggFunc, Param};
use crate::catalog::{IndexDef, TableId};
use crate::codec::key::Dir;
use crate::value::DataType;
use std::fmt;

/// Static resource bounds of one operator (cumulative bounds live on
/// [`QueryBounds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpBounds {
    /// Key/value-store requests this operator may issue (gets + range gets).
    pub requests: u64,
    /// Sequential round trips (parallel batches count once, §7.1).
    pub rounds: u64,
    /// Tuples this operator may emit.
    pub tuples: u64,
    /// Bytes shipped from the store to the client.
    pub bytes: u64,
}

impl OpBounds {
    /// A local operator's bounds: no store traffic, at most `tuples` out.
    pub(crate) fn local(tuples: u64) -> OpBounds {
        OpBounds {
            tuples,
            ..OpBounds::default()
        }
    }
}

/// Whole-plan bounds. `guaranteed` is false only for cost-based baseline
/// plans, whose "bounds" are statistics-based estimates (§8.3): some
/// operator's [`PhysicalPlan::justified_limit`] is a
/// [`Provenance::Estimate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBounds {
    pub requests: u64,
    pub rounds: u64,
    pub tuples: u64,
    pub bytes: u64,
    pub guaranteed: bool,
}

/// Scan result-size control.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanLimit {
    /// Scale-independent: at most `count` entries are fetched, in one
    /// prefetched request (the executor's limit hint, §7.1).
    Bounded { count: u64, provenance: Provenance },
    /// Cost-based plans only: fetch until exhausted. `estimate` is the
    /// statistics-based expected entry count.
    Unbounded { estimate: u64 },
}

impl ScanLimit {
    pub fn count_or_estimate(&self) -> u64 {
        match self {
            ScanLimit::Bounded { count, .. } => *count,
            ScanLimit::Unbounded { estimate } => *estimate,
        }
    }

    pub fn is_bounded(&self) -> bool {
        matches!(self, ScanLimit::Bounded { .. })
    }

    /// The justification of the bound, when there is one.
    pub fn provenance(&self) -> Option<&Provenance> {
        match self {
            ScanLimit::Bounded { provenance, .. } => Some(provenance),
            ScanLimit::Unbounded { .. } => None,
        }
    }
}

/// One end of a key range.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeBound {
    pub operand: Operand,
    pub inclusive: bool,
}

/// An inequality served by the index: a range over the key part directly
/// after the equality prefix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RangeSpec {
    pub low: Option<RangeBound>,
    pub high: Option<RangeBound>,
}

/// Which index a remote operator reads.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexRef {
    pub table: TableId,
    pub rel: RelId,
    /// `None` = the table's primary index (key = pk, value = full row).
    pub secondary: Option<IndexDef>,
}

impl IndexRef {
    pub fn is_primary(&self) -> bool {
        self.secondary.is_none()
    }

    pub fn display_name(&self, schema_table_name: &str) -> String {
        match &self.secondary {
            None => format!("{schema_table_name}(primary)"),
            Some(idx) => idx.name.clone(),
        }
    }
}

/// A value feeding one key component of a probe, resolved at runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum KeySource {
    /// Constant or parameter known per-execution.
    Const(Operand),
    /// Taken from the child tuple at this position (join key).
    ChildField(usize),
}

impl fmt::Display for KeySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeySource::Const(op) => write!(f, "{op}"),
            KeySource::ChildField(p) => write!(f, "child[{p}]"),
        }
    }
}

/// An `IndexScan` specification (Figure 4(a)).
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSpec {
    pub index: IndexRef,
    /// Operands for the leading key parts, in index order. When the index
    /// has a token part it is the first element.
    pub eq_prefix: Vec<Operand>,
    /// Optional range over the key part at position `eq_prefix.len()`.
    pub range: Option<RangeSpec>,
    /// Scan the index in reverse (serves `ORDER BY ... DESC` on an
    /// ascending index and vice versa).
    pub reverse: bool,
    pub limit: ScanLimit,
    /// Secondary-index entries carry only key columns; `deref` adds one
    /// parallel round of gets to fetch full rows (§5.1).
    pub deref: bool,
    /// Upper bound on the byte size of one fetched tuple (β for the SLO
    /// model).
    pub row_bytes: u64,
}

/// A `SortedIndexJoin` specification (Figure 4(c)).
#[derive(Debug, Clone, PartialEq)]
pub struct SortedJoinSpec {
    pub index: IndexRef,
    /// Probe prefix per child tuple, in index order.
    pub prefix: Vec<KeySource>,
    /// Entries fetched per probe.
    pub per_key: u64,
    pub per_key_provenance: Provenance,
    /// Merge keys as positions in the *output* tuple, with direction.
    /// Empty means child order is kept (concatenation).
    pub merge_by: Vec<(usize, Dir)>,
    pub reverse: bool,
    /// Folded standard stop: emit at most this many output tuples.
    pub emit_limit: Option<u64>,
    pub deref: bool,
    pub row_bytes: u64,
}

/// An aggregate computed by [`PhysicalPlan::LocalAggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhysAggregate {
    pub func: AggFunc,
    /// Input tuple position (`None` = COUNT(*)).
    pub arg: Option<usize>,
    pub alias: String,
}

/// A physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Bounded in-memory relation from a collection parameter (local).
    ParamSource {
        rel: RelId,
        param: Param,
        ty: DataType,
        max: u64,
        layout: Vec<FieldId>,
        bounds: OpBounds,
    },
    /// Remote: one contiguous, bounded index read (plus optional deref).
    IndexScan {
        spec: ScanSpec,
        layout: Vec<FieldId>,
        bounds: OpBounds,
    },
    /// Remote: per child tuple, one get against the joined table's primary
    /// key (Figure 4(b)). All gets of a batch go out in parallel.
    IndexFKJoin {
        child: Box<PhysicalPlan>,
        rel: RelId,
        table: TableId,
        /// Values for the target primary key, in pk order.
        key: Vec<KeySource>,
        row_bytes: u64,
        layout: Vec<FieldId>,
        bounds: OpBounds,
    },
    /// Remote: per child tuple, one bounded pre-sorted index range read;
    /// results are merge-sorted client-side (Figure 4(c)).
    SortedIndexJoin {
        child: Box<PhysicalPlan>,
        rel: RelId,
        table: TableId,
        spec: SortedJoinSpec,
        layout: Vec<FieldId>,
        bounds: OpBounds,
    },
    /// Local conjunctive filter (predicates remapped to positions).
    LocalSelection {
        child: Box<PhysicalPlan>,
        predicates: Vec<BoundPredicate>,
        layout: Vec<FieldId>,
        bounds: OpBounds,
    },
    LocalSort {
        child: Box<PhysicalPlan>,
        keys: Vec<(usize, Dir)>,
        layout: Vec<FieldId>,
        bounds: OpBounds,
    },
    /// The query's `LIMIT`/`PAGINATE` where no remote operator folded it.
    LocalStop {
        child: Box<PhysicalPlan>,
        count: u64,
        provenance: Provenance,
        layout: Vec<FieldId>,
        bounds: OpBounds,
    },
    LocalProject {
        child: Box<PhysicalPlan>,
        /// (child position, output name)
        columns: Vec<(usize, String)>,
        layout: Vec<FieldId>,
        bounds: OpBounds,
    },
    LocalAggregate {
        child: Box<PhysicalPlan>,
        group_by: Vec<usize>,
        aggs: Vec<PhysAggregate>,
        layout: Vec<FieldId>,
        bounds: OpBounds,
    },
}

impl PhysicalPlan {
    pub fn bounds(&self) -> OpBounds {
        match self {
            PhysicalPlan::ParamSource { bounds, .. }
            | PhysicalPlan::IndexScan { bounds, .. }
            | PhysicalPlan::IndexFKJoin { bounds, .. }
            | PhysicalPlan::SortedIndexJoin { bounds, .. }
            | PhysicalPlan::LocalSelection { bounds, .. }
            | PhysicalPlan::LocalSort { bounds, .. }
            | PhysicalPlan::LocalStop { bounds, .. }
            | PhysicalPlan::LocalProject { bounds, .. }
            | PhysicalPlan::LocalAggregate { bounds, .. } => *bounds,
        }
    }

    pub fn layout(&self) -> &[FieldId] {
        match self {
            PhysicalPlan::ParamSource { layout, .. }
            | PhysicalPlan::IndexScan { layout, .. }
            | PhysicalPlan::IndexFKJoin { layout, .. }
            | PhysicalPlan::SortedIndexJoin { layout, .. }
            | PhysicalPlan::LocalSelection { layout, .. }
            | PhysicalPlan::LocalSort { layout, .. }
            | PhysicalPlan::LocalStop { layout, .. }
            | PhysicalPlan::LocalProject { layout, .. }
            | PhysicalPlan::LocalAggregate { layout, .. } => layout,
        }
    }

    pub fn child(&self) -> Option<&PhysicalPlan> {
        match self {
            PhysicalPlan::ParamSource { .. } | PhysicalPlan::IndexScan { .. } => None,
            PhysicalPlan::IndexFKJoin { child, .. }
            | PhysicalPlan::SortedIndexJoin { child, .. }
            | PhysicalPlan::LocalSelection { child, .. }
            | PhysicalPlan::LocalSort { child, .. }
            | PhysicalPlan::LocalStop { child, .. }
            | PhysicalPlan::LocalProject { child, .. }
            | PhysicalPlan::LocalAggregate { child, .. } => Some(child),
        }
    }

    /// Visit every operator bottom-up: children before their parent.
    pub(crate) fn walk<'a>(&'a self, f: &mut impl FnMut(&'a PhysicalPlan)) {
        if let Some(c) = self.child() {
            c.walk(f);
        }
        f(self);
    }

    /// Remote operators in execution order (bottom-up) — the sequence the
    /// SLO predictor convolves (§6.2).
    pub fn remote_ops(&self) -> Vec<&PhysicalPlan> {
        let mut ops = Vec::new();
        self.walk(&mut |p| {
            if p.theta().is_some() {
                ops.push(p);
            }
        });
        ops
    }

    /// The static limit this operator's bound rests on, and what justifies
    /// it: a scan's limit hint, a sorted join's per-probe fetch, a parameter
    /// list's declared maximum, an unfolded `LIMIT`/`PAGINATE`. A cost-based
    /// plan's unbounded scan or join answers its statistics estimate.
    /// `None` for an FK join, whose bound is structural (one get per child
    /// tuple), and for the local operators that only pass rows on. The
    /// query's class and whether its bounds are guaranteed are read from
    /// these provenances; so is the auditor's derivation tree.
    pub fn justified_limit(&self) -> Option<(u64, Provenance)> {
        match self {
            PhysicalPlan::ParamSource { param, max, .. } => Some((
                *max,
                Provenance::ParamMax {
                    param: param.name.clone(),
                    max: *max,
                },
            )),
            PhysicalPlan::IndexScan { spec, .. } => Some(match &spec.limit {
                ScanLimit::Bounded { count, provenance } => (*count, provenance.clone()),
                ScanLimit::Unbounded { estimate } => (*estimate, Provenance::Estimate),
            }),
            PhysicalPlan::SortedIndexJoin { spec, .. } => {
                Some((spec.per_key, spec.per_key_provenance.clone()))
            }
            PhysicalPlan::LocalStop {
                count, provenance, ..
            } => Some((*count, provenance.clone())),
            _ => None,
        }
    }

    /// The §6.1 coordinates `(α_c, α_j, β)` a remote operator is modeled
    /// at, as the plan bounds them: what its Θ is predicted from and what
    /// its prepared form is tagged with. `None` for a local operator.
    pub fn theta(&self) -> Option<(u64, u64, u64)> {
        match self {
            PhysicalPlan::IndexScan { spec, .. } => {
                Some((spec.limit.count_or_estimate(), 1, spec.row_bytes))
            }
            PhysicalPlan::IndexFKJoin {
                child, row_bytes, ..
            } => Some((child.bounds().tuples, 1, *row_bytes)),
            PhysicalPlan::SortedIndexJoin { child, spec, .. } => {
                Some((child.bounds().tuples, spec.per_key, spec.row_bytes))
            }
            _ => None,
        }
    }

    /// Sum the per-operator bounds into whole-query totals; they are
    /// guaranteed unless some operator's limit is a statistics estimate.
    pub fn total_bounds(&self) -> QueryBounds {
        let mut total = QueryBounds {
            requests: 0,
            rounds: 0,
            tuples: self.bounds().tuples,
            bytes: 0,
            guaranteed: true,
        };
        self.walk(&mut |p| {
            let b = p.bounds();
            total.requests = total.requests.saturating_add(b.requests);
            total.rounds = total.rounds.saturating_add(b.rounds);
            total.bytes = total.bytes.saturating_add(b.bytes);
            if let Some((_, Provenance::Estimate)) = p.justified_limit() {
                total.guaranteed = false;
            }
        });
        total
    }

    /// Render with resolved names, Figure 3(d)-style.
    pub fn display_with<'a>(&'a self, schema: &'a QuerySchema) -> DisplayPhysical<'a> {
        DisplayPhysical { plan: self, schema }
    }
}

/// Pretty-printer wrapper for physical plans.
pub struct DisplayPhysical<'a> {
    plan: &'a PhysicalPlan,
    schema: &'a QuerySchema,
}

impl fmt::Display for DisplayPhysical<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_phys(self.plan, self.schema, f, 0)
    }
}

fn fmt_phys(
    plan: &PhysicalPlan,
    schema: &QuerySchema,
    f: &mut fmt::Formatter<'_>,
    depth: usize,
) -> fmt::Result {
    let pad = "  ".repeat(depth);
    let pos_name = |layout: &[FieldId], pos: usize| -> String {
        layout
            .get(pos)
            .map(|&fid| schema.field(fid).qualified_name())
            .unwrap_or_else(|| format!("#{pos}"))
    };
    match plan {
        PhysicalPlan::ParamSource { param, max, .. } => {
            writeln!(f, "{pad}ParamSource({param}, max={max})")
        }
        PhysicalPlan::IndexScan { spec, bounds, .. } => {
            let rel = schema.relation(spec.index.rel);
            write!(
                f,
                "{pad}IndexScan({}, key=<",
                spec.index.display_name(&rel.binding)
            )?;
            for (i, op) in spec.eq_prefix.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{op}")?;
            }
            write!(f, ">")?;
            if let Some(r) = &spec.range {
                write!(f, ", range=")?;
                match &r.low {
                    Some(b) => write!(f, "{}{}", if b.inclusive { "[" } else { "(" }, b.operand)?,
                    None => write!(f, "(-inf")?,
                }
                write!(f, " .. ")?;
                match &r.high {
                    Some(b) => write!(f, "{}{}", b.operand, if b.inclusive { "]" } else { ")" })?,
                    None => write!(f, "+inf)")?,
                }
            }
            write!(
                f,
                ", {}",
                if spec.reverse {
                    "descending"
                } else {
                    "ascending"
                }
            )?;
            match &spec.limit {
                ScanLimit::Bounded { count, provenance } => {
                    write!(f, ", limitHint={count} [{provenance}]")?
                }
                ScanLimit::Unbounded { estimate } => write!(f, ", UNBOUNDED (est. {estimate})")?,
            }
            if spec.deref {
                write!(f, ", deref")?;
            }
            writeln!(f, ") requests<={}", bounds.requests)
        }
        PhysicalPlan::IndexFKJoin {
            child,
            rel,
            key,
            bounds,
            ..
        } => {
            let r = schema.relation(*rel);
            write!(f, "{pad}IndexFKJoin({}, pk=<", r.binding)?;
            for (i, k) in key.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match k {
                    KeySource::Const(op) => write!(f, "{op}")?,
                    KeySource::ChildField(p) => write!(f, "{}", pos_name(child.layout(), *p))?,
                }
            }
            writeln!(f, ">) requests<={}", bounds.requests)?;
            fmt_phys(child, schema, f, depth + 1)
        }
        PhysicalPlan::SortedIndexJoin {
            child,
            rel,
            spec,
            layout,
            bounds,
            ..
        } => {
            let r = schema.relation(*rel);
            write!(
                f,
                "{pad}SortedIndexJoin({}, index={}, key=<",
                r.binding,
                spec.index.display_name(&r.binding)
            )?;
            for (i, k) in spec.prefix.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match k {
                    KeySource::Const(op) => write!(f, "{op}")?,
                    KeySource::ChildField(p) => write!(f, "{}", pos_name(child.layout(), *p))?,
                }
            }
            write!(f, ">")?;
            if !spec.merge_by.is_empty() {
                write!(f, ", sort=")?;
                for (i, (pos, dir)) in spec.merge_by.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} {}", pos_name(layout, *pos), dir)?;
                }
            }
            write!(f, ", perKey={} [{}]", spec.per_key, spec.per_key_provenance)?;
            if let Some(e) = spec.emit_limit {
                write!(f, ", limitHint={e}")?;
            }
            if spec.deref {
                write!(f, ", deref")?;
            }
            writeln!(f, ") requests<={}", bounds.requests)?;
            fmt_phys(child, schema, f, depth + 1)
        }
        PhysicalPlan::LocalSelection {
            child, predicates, ..
        } => {
            write!(f, "{pad}LocalSelection(")?;
            for (i, p) in predicates.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                // predicates are position-remapped; render via layout
                let rendered = super::logical::render_pred(
                    schema,
                    &p.remap(|pos| child.layout().get(pos).copied().unwrap_or(pos)),
                );
                write!(f, "{rendered}")?;
            }
            writeln!(f, ")")?;
            fmt_phys(child, schema, f, depth + 1)
        }
        PhysicalPlan::LocalSort { child, keys, .. } => {
            write!(f, "{pad}LocalSort(")?;
            for (i, (pos, dir)) in keys.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{} {}", pos_name(child.layout(), *pos), dir)?;
            }
            writeln!(f, ")")?;
            fmt_phys(child, schema, f, depth + 1)
        }
        PhysicalPlan::LocalStop { child, count, .. } => {
            writeln!(f, "{pad}LocalStop({count})")?;
            fmt_phys(child, schema, f, depth + 1)
        }
        PhysicalPlan::LocalProject { child, columns, .. } => {
            write!(f, "{pad}LocalProject(")?;
            for (i, (pos, name)) in columns.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                let src = pos_name(child.layout(), *pos);
                if src.ends_with(&format!(".{name}")) {
                    write!(f, "{src}")?;
                } else {
                    write!(f, "{src} AS {name}")?;
                }
            }
            writeln!(f, ")")?;
            fmt_phys(child, schema, f, depth + 1)
        }
        PhysicalPlan::LocalAggregate {
            child,
            group_by,
            aggs,
            ..
        } => {
            write!(f, "{pad}LocalAggregate(")?;
            if !group_by.is_empty() {
                write!(f, "group by ")?;
                for (i, g) in group_by.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", pos_name(child.layout(), *g))?;
                }
                write!(f, "; ")?;
            }
            for (i, a) in aggs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match a.arg {
                    Some(pos) => write!(f, "{}({})", a.func, pos_name(child.layout(), pos))?,
                    None => write!(f, "{}(*)", a.func)?,
                }
            }
            writeln!(f, ")")?;
            fmt_phys(child, schema, f, depth + 1)
        }
    }
}
