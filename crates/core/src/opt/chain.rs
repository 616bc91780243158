//! The optimizer's working representation: a *chain query*.
//!
//! Phase I reasons about join order, data-stop placement, and stop
//! push-down. Rather than rewriting trees in place, the optimizer
//! deconstructs the binder's naive plan into a flat [`Chain`] — one `Leg`
//! per relation with its predicate/stop stack, plus the global join edges,
//! residual predicates, sort, stop, and top operator — transforms that, and
//! re-materializes a logical tree (the Figure 3(c) stage) for display while
//! Phase II compiles the chain directly.

use crate::codec::key::Dir;
use crate::plan::logical::{LogicalPlan, Stop};
use crate::plan::{BoundAggregate, BoundPredicate, FieldId, QuerySchema, RelId};

/// One entry of a leg's bottom-to-top operator stack.
#[derive(Debug, Clone, PartialEq)]
pub enum LegItem {
    Preds(Vec<BoundPredicate>),
    Stop(Stop),
}

/// One relation of the chain with the operators stacked above its leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct Leg {
    pub rel: RelId,
    /// Bottom-to-top: `items[0]` sits directly above the leaf.
    pub items: Vec<LegItem>,
}

impl Leg {
    pub fn new(rel: RelId) -> Self {
        Leg {
            rel,
            items: Vec::new(),
        }
    }

    /// All predicates anywhere in the stack.
    pub fn all_preds(&self) -> Vec<&BoundPredicate> {
        self.items
            .iter()
            .filter_map(|i| match i {
                LegItem::Preds(ps) => Some(ps.iter()),
                LegItem::Stop(_) => None,
            })
            .flatten()
            .collect()
    }

    /// The data-stop, if one was inserted.
    pub fn data_stop(&self) -> Option<&Stop> {
        self.items.iter().find_map(|i| match i {
            LegItem::Stop(s) => Some(s),
            LegItem::Preds(_) => None,
        })
    }

    /// Predicates above the data-stop (not part of its cause). When there is
    /// no data-stop, every predicate is "above".
    pub fn preds_above_stop(&self) -> Vec<&BoundPredicate> {
        let stop_at = self
            .items
            .iter()
            .position(|i| matches!(i, LegItem::Stop(_)));
        match stop_at {
            None => self.all_preds(),
            Some(at) => self.items[at + 1..]
                .iter()
                .filter_map(|i| match i {
                    LegItem::Preds(ps) => Some(ps.iter()),
                    LegItem::Stop(_) => None,
                })
                .flatten()
                .collect(),
        }
    }
}

/// The top of the plan: plain projection or aggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum TopOp {
    Project(Vec<(FieldId, String)>),
    Aggregate {
        group_by: Vec<FieldId>,
        aggs: Vec<BoundAggregate>,
    },
}

/// The flattened query.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// Legs in join order (phase-I output order).
    pub legs: Vec<Leg>,
    /// All equi-join edges as unordered field pairs.
    pub join_edges: Vec<(FieldId, FieldId)>,
    /// Cross-relation predicates that are not equi-joins.
    pub residual: Vec<BoundPredicate>,
    pub sort: Vec<(FieldId, Dir)>,
    /// Standard stop from LIMIT/PAGINATE.
    pub stop: Option<Stop>,
    pub top: TopOp,
}

impl Chain {
    /// The join edges from `rel` to the relations `placed` before it, each
    /// as (field of `rel`, field of the placed relation). Join ordering,
    /// the FK-join test, probe keys and display all find edges here.
    pub(crate) fn edges_to<'a>(
        &'a self,
        schema: &'a QuerySchema,
        rel: RelId,
        placed: impl Fn(RelId) -> bool + 'a,
    ) -> impl Iterator<Item = (FieldId, FieldId)> + 'a {
        self.join_edges
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .filter(move |&(mine, other)| {
                schema.rel_of(mine) == rel && placed(schema.rel_of(other))
            })
    }
}

/// Deconstruct the binder's naive plan. The binder's output shape is fixed
/// (Project|Aggregate → Stop? → Sort? → Selection? → join tree), so this
/// cannot fail for plans it produced; unexpected shapes are a bug.
pub fn deconstruct(plan: &LogicalPlan) -> Chain {
    let mut node = plan;
    let top = match node {
        LogicalPlan::Project { input, items } => {
            node = input;
            TopOp::Project(items.clone())
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            node = input;
            TopOp::Aggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            }
        }
        _ => TopOp::Project(Vec::new()),
    };
    let mut stop = None;
    if let LogicalPlan::Stop { input, stop: s } = node {
        stop = Some(s.clone());
        node = input;
    }
    let mut sort = Vec::new();
    if let LogicalPlan::Sort { input, keys } = node {
        sort = keys.clone();
        node = input;
    }
    let mut residual = Vec::new();
    if let LogicalPlan::Selection { input, predicates } = node {
        // only a selection sitting on a join is the residual (cross-
        // relation) filter; above a leaf it is the relation's own stack
        if matches!(input.as_ref(), LogicalPlan::Join { .. }) {
            residual = predicates.clone();
            node = input;
        }
    }
    // join tree
    let mut legs = Vec::new();
    let mut join_edges = Vec::new();
    fn walk_joins(node: &LogicalPlan, legs: &mut Vec<Leg>, edges: &mut Vec<(FieldId, FieldId)>) {
        match node {
            LogicalPlan::Join { left, right, on } => {
                walk_joins(left, legs, edges);
                walk_joins(right, legs, edges);
                edges.extend(on.iter().copied());
            }
            other => legs.push(leg_from_stack(other)),
        }
    }
    fn leg_from_stack(node: &LogicalPlan) -> Leg {
        let mut items_top_down = Vec::new();
        let mut cur = node;
        loop {
            match cur {
                LogicalPlan::Selection { input, predicates } => {
                    items_top_down.push(LegItem::Preds(predicates.clone()));
                    cur = input;
                }
                LogicalPlan::Stop { input, stop } => {
                    items_top_down.push(LegItem::Stop(stop.clone()));
                    cur = input;
                }
                LogicalPlan::Relation { rel } | LogicalPlan::ParamValues { rel } => {
                    items_top_down.reverse();
                    return Leg {
                        rel: *rel,
                        items: items_top_down,
                    };
                }
                other => {
                    unreachable!("unexpected node inside a leg stack: {other:?}")
                }
            }
        }
    }
    walk_joins(node, &mut legs, &mut join_edges);
    Chain {
        legs,
        join_edges,
        residual,
        sort,
        stop,
        top,
    }
}

/// Re-materialize a logical tree from the chain — the Figure 3(c) display.
pub fn materialize(chain: &Chain, schema: &QuerySchema) -> LogicalPlan {
    let leg_tree = |leg: &Leg| -> LogicalPlan {
        let is_param = matches!(
            schema.relation(leg.rel).source,
            crate::plan::RelationSource::ParamValues { .. }
        );
        let mut node = if is_param {
            LogicalPlan::ParamValues { rel: leg.rel }
        } else {
            LogicalPlan::Relation { rel: leg.rel }
        };
        for item in &leg.items {
            node = match item {
                LegItem::Preds(ps) => LogicalPlan::Selection {
                    input: Box::new(node),
                    predicates: ps.clone(),
                },
                LegItem::Stop(s) => LogicalPlan::Stop {
                    input: Box::new(node),
                    stop: s.clone(),
                },
            };
        }
        node
    };

    let mut joined_rels: Vec<RelId> = vec![chain.legs[0].rel];
    let mut node = leg_tree(&chain.legs[0]);
    for leg in &chain.legs[1..] {
        let on: Vec<(FieldId, FieldId)> = chain
            .edges_to(schema, leg.rel, |r| joined_rels.contains(&r))
            .map(|(mine, other)| (other, mine))
            .collect();
        node = LogicalPlan::Join {
            left: Box::new(node),
            right: Box::new(leg_tree(leg)),
            on,
        };
        joined_rels.push(leg.rel);
    }
    if !chain.residual.is_empty() {
        node = LogicalPlan::Selection {
            input: Box::new(node),
            predicates: chain.residual.clone(),
        };
    }
    if !chain.sort.is_empty() {
        node = LogicalPlan::Sort {
            input: Box::new(node),
            keys: chain.sort.clone(),
        };
    }
    if let Some(stop) = &chain.stop {
        node = LogicalPlan::Stop {
            input: Box::new(node),
            stop: stop.clone(),
        };
    }
    match &chain.top {
        TopOp::Project(items) => LogicalPlan::Project {
            input: Box::new(node),
            items: items.clone(),
        },
        TopOp::Aggregate { group_by, aggs } => LogicalPlan::Aggregate {
            input: Box::new(node),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
    }
}
