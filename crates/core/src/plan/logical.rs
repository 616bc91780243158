//! Logical query plans.
//!
//! The binder produces the "naive" logical plan (Figure 3(b)): a left-deep
//! join tree in syntactic order, relation-local predicates directly above
//! their relations, join conditions on join nodes, then Sort, Stop, and
//! Project. Phase I of the optimizer (§5.1) transforms this tree: join
//! reordering, data-stop insertion, and stop push-down.

use super::pred::BoundPredicate;
use super::provenance::Provenance;
use super::schema::{FieldId, QuerySchema, RelId};
use crate::codec::key::Dir;
use std::fmt;

/// The two stop flavors of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopKind {
    /// From a LIMIT/PAGINATE clause: a semantic bound on emitted rows.
    /// May not be pushed past reductive predicates.
    Standard,
    /// An optimizer annotation recording that the *database* cannot contain
    /// more than `count` rows matching the stop's cause predicates (primary
    /// key or CARDINALITY LIMIT). May be pushed past any predicate except
    /// its cause.
    Data,
}

/// A stop operator.
#[derive(Debug, Clone, PartialEq)]
pub struct Stop {
    pub kind: StopKind,
    pub count: u64,
    /// Where the bound came from — structured, so EXPLAIN and the audit
    /// subsystem can name the justifying clause (`Display` renders the
    /// legacy strings: `LIMIT 10`, `pk(users)`,
    /// `CARDINALITY LIMIT 100 (owner)`).
    pub provenance: Provenance,
    /// For data-stops: the equality predicates that justified insertion.
    /// The stop must stay above these.
    pub cause: Vec<BoundPredicate>,
}

/// A logical operator tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// A base-table leaf.
    Relation {
        rel: RelId,
    },
    /// A bounded parameter-collection leaf (`IN` rewrite target).
    ParamValues {
        rel: RelId,
    },
    /// Conjunctive filter.
    Selection {
        input: Box<LogicalPlan>,
        predicates: Vec<BoundPredicate>,
    },
    /// Inner equi-join; `on` pairs are (left-subtree field, right-subtree
    /// field).
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        on: Vec<(FieldId, FieldId)>,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<(FieldId, Dir)>,
    },
    Stop {
        input: Box<LogicalPlan>,
        stop: Stop,
    },
    Project {
        input: Box<LogicalPlan>,
        /// Output fields in order, with display aliases.
        items: Vec<(FieldId, String)>,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<FieldId>,
        aggs: Vec<super::bind::BoundAggregate>,
    },
}

impl LogicalPlan {
    pub fn selection(input: LogicalPlan, predicates: Vec<BoundPredicate>) -> LogicalPlan {
        if predicates.is_empty() {
            input
        } else {
            LogicalPlan::Selection {
                input: Box::new(input),
                predicates,
            }
        }
    }

    pub fn input(&self) -> Option<&LogicalPlan> {
        match self {
            LogicalPlan::Relation { .. } | LogicalPlan::ParamValues { .. } => None,
            LogicalPlan::Selection { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Stop { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. } => Some(input),
            LogicalPlan::Join { left, .. } => Some(left),
        }
    }

    /// Render the tree with indentation, resolving field ids through
    /// `schema` — the display format used for Figure 3's plan stages.
    pub fn display_with<'a>(&'a self, schema: &'a QuerySchema) -> DisplayPlan<'a> {
        DisplayPlan { plan: self, schema }
    }
}

/// Pretty-printer wrapper.
pub struct DisplayPlan<'a> {
    plan: &'a LogicalPlan,
    schema: &'a QuerySchema,
}

impl fmt::Display for DisplayPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_node(self.plan, self.schema, f, 0)
    }
}

fn field_name(schema: &QuerySchema, id: FieldId) -> String {
    schema.field(id).qualified_name()
}

fn fmt_preds(
    schema: &QuerySchema,
    preds: &[BoundPredicate],
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    for (i, p) in preds.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        // Re-render with resolved names instead of raw ids.
        let rendered = render_pred(schema, p);
        write!(f, "{rendered}")?;
    }
    Ok(())
}

/// Render one predicate with field names.
pub fn render_pred(schema: &QuerySchema, p: &BoundPredicate) -> String {
    match p {
        BoundPredicate::Compare { field, op, operand } => {
            format!("{} {} {}", field_name(schema, *field), op, operand)
        }
        BoundPredicate::FieldCompare { left, op, right } => format!(
            "{} {} {}",
            field_name(schema, *left),
            op,
            field_name(schema, *right)
        ),
        BoundPredicate::TokenMatch { field, operand } => {
            format!("{} CONTAINS TOKEN {}", field_name(schema, *field), operand)
        }
        BoundPredicate::In { field, operand } => {
            format!("{} IN {}", field_name(schema, *field), operand)
        }
        BoundPredicate::IsNull { field, negated } => format!(
            "{} IS {}NULL",
            field_name(schema, *field),
            if *negated { "NOT " } else { "" }
        ),
    }
}

fn fmt_node(
    plan: &LogicalPlan,
    schema: &QuerySchema,
    f: &mut fmt::Formatter<'_>,
    depth: usize,
) -> fmt::Result {
    let pad = "  ".repeat(depth);
    match plan {
        LogicalPlan::Relation { rel } => {
            let r = schema.relation(*rel);
            writeln!(f, "{pad}Relation({})", r.binding)
        }
        LogicalPlan::ParamValues { rel } => {
            let r = schema.relation(*rel);
            writeln!(f, "{pad}ParamValues({})", r.binding)
        }
        LogicalPlan::Selection { input, predicates } => {
            write!(f, "{pad}Selection(")?;
            fmt_preds(schema, predicates, f)?;
            writeln!(f, ")")?;
            fmt_node(input, schema, f, depth + 1)
        }
        LogicalPlan::Join { left, right, on } => {
            write!(f, "{pad}Join(")?;
            for (i, (l, r)) in on.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{} = {}", field_name(schema, *l), field_name(schema, *r))?;
            }
            writeln!(f, ")")?;
            fmt_node(left, schema, f, depth + 1)?;
            fmt_node(right, schema, f, depth + 1)
        }
        LogicalPlan::Sort { input, keys } => {
            write!(f, "{pad}Sort(")?;
            for (i, (k, d)) in keys.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{} {}", field_name(schema, *k), d)?;
            }
            writeln!(f, ")")?;
            fmt_node(input, schema, f, depth + 1)
        }
        LogicalPlan::Stop { input, stop } => {
            let kind = match stop.kind {
                StopKind::Standard => "Stop",
                StopKind::Data => "DataStop",
            };
            writeln!(f, "{pad}{kind}({}, from {})", stop.count, stop.provenance)?;
            fmt_node(input, schema, f, depth + 1)
        }
        LogicalPlan::Project { input, items } => {
            write!(f, "{pad}Project(")?;
            for (i, (fid, alias)) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                let fname = field_name(schema, *fid);
                if fname.ends_with(&format!(".{alias}")) {
                    write!(f, "{fname}")?;
                } else {
                    write!(f, "{fname} AS {alias}")?;
                }
            }
            writeln!(f, ")")?;
            fmt_node(input, schema, f, depth + 1)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            write!(f, "{pad}Aggregate(")?;
            if !group_by.is_empty() {
                write!(f, "group by ")?;
                for (i, g) in group_by.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", field_name(schema, *g))?;
                }
                write!(f, "; ")?;
            }
            for (i, a) in aggs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match a.arg {
                    Some(arg) => write!(f, "{}({})", a.func, field_name(schema, arg))?,
                    None => write!(f, "{}(*)", a.func)?,
                }
            }
            writeln!(f, ")")?;
            fmt_node(input, schema, f, depth + 1)
        }
    }
}
