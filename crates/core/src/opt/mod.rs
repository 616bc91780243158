//! The PIQL scale-independent query optimizer (§5).
//!
//! Entry point: [`Optimizer::compile`]. Unlike a traditional optimizer,
//! its objective is not the fastest plan on current data but a plan whose
//! key/value-store operation count is statically bounded no matter how
//! large the database grows. The compiler runs in two phases (Algorithms 1
//! and 2) and either returns a [`Compiled`] query — physical plan, bounds,
//! scaling class, derived indexes, notes — or rejects the query with a
//! [`InsightReport`] explaining how to fix it.

pub mod chain;
pub mod classify;
pub mod error;
pub mod index_selection;
pub mod phase1;
pub mod phase2;

pub use classify::QueryClass;
pub use error::{InsightReport, OptError, Suggestion};
pub use phase1::Objective;
pub use phase2::UNBOUNDED_SCAN_BATCH;

use crate::ast::SelectStmt;
use crate::catalog::{Catalog, IndexDef, Statistics};
use crate::plan::logical::LogicalPlan;
use crate::plan::physical::{PhysicalPlan, QueryBounds};
use crate::plan::{bind, BoundQuery, OutputField, ParamSlot, QuerySchema};

/// A fully compiled PIQL query.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Global field space (may include synthetic `IN`-rewrite relations).
    pub schema: QuerySchema,
    /// Stage (b): the naive logical plan straight out of the binder.
    pub naive: LogicalPlan,
    /// Stage (c): after Phase I (join order, data-stops, push-down).
    pub optimized: LogicalPlan,
    /// Stage (d): the physical plan.
    pub physical: PhysicalPlan,
    /// Whole-query static bounds (guaranteed unless cost-based).
    pub bounds: QueryBounds,
    pub class: QueryClass,
    /// Indexes the plan requires that did not exist at compile time; the
    /// engine creates and maintains them (§5.3).
    pub required_indexes: Vec<IndexDef>,
    pub params: Vec<ParamSlot>,
    /// `Some(page size)` when the query used PAGINATE.
    pub page_size: Option<u64>,
    pub output: Vec<OutputField>,
    /// Modifications/decisions worth surfacing (Table 1's notes).
    pub notes: Vec<String>,
}

impl Compiled {
    /// Render all three plan stages, Figure-3 style.
    pub fn explain(&self) -> String {
        format!(
            "-- logical plan (naive)\n{}\n-- logical plan (after phase 1)\n{}\n-- physical plan\n{}",
            self.naive.display_with(&self.schema),
            self.optimized.display_with(&self.schema),
            self.physical.display_with(&self.schema),
        )
    }
}

/// The optimizer facade.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    pub objective: Objective,
    /// Statistics for the cost-based baseline (ignored in SI mode).
    pub stats: Option<Statistics>,
}

impl Optimizer {
    pub fn scale_independent() -> Self {
        Optimizer {
            objective: Objective::ScaleIndependent,
            stats: None,
        }
    }

    pub fn cost_based(stats: Statistics) -> Self {
        Optimizer {
            objective: Objective::CostBased,
            stats: Some(stats),
        }
    }

    /// Compile a bound query.
    pub fn compile_bound(
        &self,
        catalog: &Catalog,
        bound: BoundQuery,
    ) -> Result<Compiled, OptError> {
        let BoundQuery {
            mut schema,
            plan: naive,
            row_bound,
            output,
            params: _,
        } = bound;

        // ---------------- Phase I
        let mut working = chain::deconstruct(&naive);
        let mut notes = Vec::new();
        match self.objective {
            Objective::ScaleIndependent => {
                notes.extend(phase1::rewrite_in_params(
                    catalog,
                    &mut schema,
                    &mut working,
                ));
                phase1::order_joins(catalog, &schema, &mut working);
                phase1::insert_data_stops(catalog, &schema, &mut working);
                self.finish(catalog, schema, naive, working, row_bound, output, notes)
            }
            Objective::CostBased => {
                // consider both shapes (with and without the IN rewrite) and
                // keep the one with the lower *expected* request count —
                // the traditional objective (§8.3)
                let mut alt_schema = schema.clone();
                let mut alt_chain = working.clone();
                let alt_notes = phase1::rewrite_in_params(catalog, &mut alt_schema, &mut alt_chain);

                phase1::order_joins(catalog, &schema, &mut working);
                phase1::insert_data_stops(catalog, &schema, &mut working);
                let plain = self.finish(
                    catalog,
                    schema,
                    naive.clone(),
                    working,
                    row_bound,
                    output.clone(),
                    notes.clone(),
                );
                if alt_notes.is_empty() {
                    return plain;
                }
                phase1::order_joins(catalog, &alt_schema, &mut alt_chain);
                phase1::insert_data_stops(catalog, &alt_schema, &mut alt_chain);
                let mut notes2 = notes;
                notes2.extend(alt_notes);
                let rewritten = self.finish(
                    catalog, alt_schema, naive, alt_chain, row_bound, output, notes2,
                );
                match (plain, rewritten) {
                    (Ok(a), Ok(b)) => {
                        // expected requests: estimates for unbounded ops are
                        // already folded into bounds.requests
                        Ok(if a.bounds.requests <= b.bounds.requests {
                            a
                        } else {
                            b
                        })
                    }
                    (Ok(a), Err(_)) => Ok(a),
                    (Err(_), Ok(b)) => Ok(b),
                    (Err(e), Err(_)) => Err(e),
                }
            }
        }
    }

    /// Bind and compile a parsed SELECT.
    pub fn compile(&self, catalog: &Catalog, stmt: &SelectStmt) -> Result<Compiled, OptError> {
        let bound = bind(catalog, stmt)?;
        self.compile_bound(catalog, bound)
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        catalog: &Catalog,
        schema: QuerySchema,
        naive: LogicalPlan,
        working: chain::Chain,
        row_bound: Option<crate::ast::RowBound>,
        output: Vec<OutputField>,
        mut notes: Vec<String>,
    ) -> Result<Compiled, OptError> {
        let optimized = chain::materialize(&working, &schema);
        let mut p2 = phase2::Phase2::new(catalog, &schema, self.objective, self.stats.as_ref());
        let physical = p2.compile(&working)?;
        notes.append(&mut p2.notes);
        notes.dedup();
        let class = QueryClass::of(&physical);
        let bounds = physical.total_bounds();
        // dedup derived indexes by shape
        let mut required_indexes: Vec<IndexDef> = Vec::new();
        for idx in p2.required_indexes {
            if !required_indexes
                .iter()
                .any(|e| e.table == idx.table && e.key == idx.key)
            {
                required_indexes.push(idx);
            }
        }
        // recompute param slots against the final (possibly rewritten) plan
        let params = {
            let bq = BoundQuery {
                schema: schema.clone(),
                plan: optimized.clone(),
                row_bound,
                output: output.clone(),
                params: Vec::new(),
            };
            collect_final_params(&bq)
        };
        Ok(Compiled {
            schema,
            naive,
            optimized,
            physical,
            bounds,
            class,
            required_indexes,
            params,
            page_size: row_bound.and_then(|b| {
                if b.is_paginated() {
                    Some(b.count())
                } else {
                    None
                }
            }),
            output,
            notes,
        })
    }
}

/// Parameter slots of the final plan (ParamValues relations included).
fn collect_final_params(bq: &BoundQuery) -> Vec<ParamSlot> {
    use crate::plan::RelationSource;
    let mut slots: std::collections::BTreeMap<usize, ParamSlot> = std::collections::BTreeMap::new();
    // from relations
    for rel in &bq.schema.relations {
        if let RelationSource::ParamValues { param, .. } = &rel.source {
            slots.insert(
                param.index,
                ParamSlot {
                    index: param.index,
                    name: param.name.clone(),
                    collection_max: param.max_cardinality,
                },
            );
        }
    }
    // from predicates in the plan
    fn visit(plan: &LogicalPlan, slots: &mut std::collections::BTreeMap<usize, ParamSlot>) {
        use crate::plan::{BoundPredicate, InOperand, Operand};
        let mut visit_preds = |preds: &[BoundPredicate]| {
            for p in preds {
                match p {
                    BoundPredicate::Compare { operand, .. }
                    | BoundPredicate::TokenMatch { operand, .. } => {
                        if let Operand::Param(prm) = operand {
                            slots.entry(prm.index).or_insert(ParamSlot {
                                index: prm.index,
                                name: prm.name.clone(),
                                collection_max: None,
                            });
                        }
                    }
                    BoundPredicate::In {
                        operand: InOperand::Param(prm),
                        ..
                    } => {
                        slots.entry(prm.index).or_insert(ParamSlot {
                            index: prm.index,
                            name: prm.name.clone(),
                            collection_max: Some(prm.max_cardinality.unwrap_or(u64::MAX)),
                        });
                    }
                    _ => {}
                }
            }
        };
        match plan {
            LogicalPlan::Selection { input, predicates } => {
                visit_preds(predicates);
                visit(input, slots);
            }
            LogicalPlan::Stop { input, stop } => {
                visit_preds(&stop.cause);
                visit(input, slots);
            }
            LogicalPlan::Join { left, right, .. } => {
                visit(left, slots);
                visit(right, slots);
            }
            LogicalPlan::Sort { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. } => visit(input, slots),
            LogicalPlan::Relation { .. } | LogicalPlan::ParamValues { .. } => {}
        }
    }
    visit(&bq.plan, &mut slots);
    let max_index = slots.keys().copied().max().map(|m| m + 1).unwrap_or(0);
    (0..max_index)
        .map(|i| {
            slots.remove(&i).unwrap_or(ParamSlot {
                index: i,
                name: format!("p{}", i + 1),
                collection_max: None,
            })
        })
        .collect()
}
