//! A deliberately naive reference executor — the semantics oracle.
//!
//! Executes the binder's *unoptimized* logical plan by materializing whole
//! relations and nested-loop joining. It shares no code with the optimized
//! path beyond binding and predicate evaluation, so differential tests
//! comparing the two catch planner and executor bugs alike. Never use it
//! for anything but tests: it is exactly the Class-III/IV behaviour PIQL
//! exists to prevent.

use crate::exec::{aggregate_rows, compare_rows, ExecError};
use crate::keys;
use piql_core::ast::SelectStmt;
use piql_core::catalog::{Catalog, TableDef, TableId};
use piql_core::codec::row as row_codec;
use piql_core::plan::logical::LogicalPlan;
use piql_core::plan::params::ParamsRef;
use piql_core::plan::{bind, BoundPredicate, RelationSource};
use piql_core::rows::Rows;
use piql_core::tuple::Tuple;
use piql_kv::{KvRequest, KvStore, Session};

/// The oracle.
pub struct ReferenceExecutor<'a> {
    store: &'a dyn KvStore,
    catalog: &'a Catalog,
}

impl<'a> ReferenceExecutor<'a> {
    pub fn new(store: &'a dyn KvStore, catalog: &'a Catalog) -> Self {
        ReferenceExecutor { store, catalog }
    }

    /// Run a SELECT to completion, returning projected rows.
    pub fn run(&self, stmt: &SelectStmt, params: ParamsRef<'_>) -> Result<Vec<Tuple>, ExecError> {
        let bq = bind(self.catalog, stmt)
            .map_err(|e| ExecError::Internal(format!("reference bind: {e}")))?;
        let schema = &bq.schema;
        let eval = RefEval {
            exec: self,
            params,
            schema,
        };
        eval.eval(&bq.plan)
    }

    /// Scan an entire table into full-row tuples (unbounded — test only).
    pub fn scan_all(&self, table_id: TableId) -> Result<Vec<Tuple>, ExecError> {
        let table = self.catalog.table_by_id(table_id);
        let ns = self.store.namespace(&Catalog::table_namespace(table));
        let mut session = Session::new();
        let mut rows = Vec::new();
        let mut start: Vec<u8> = Vec::new();
        loop {
            let resp = self.store.execute_round(
                &mut session,
                vec![KvRequest::GetRange {
                    ns,
                    start: start.clone(),
                    end: None,
                    limit: Some(1024),
                    reverse: false,
                }],
            );
            let entries = resp
                .first()
                .ok_or_else(|| {
                    ExecError::Internal("malformed round: backend returned no responses".into())
                })?
                .entries()?;
            for (_, v) in entries {
                rows.push(decode_row(table, v)?);
            }
            if let Some((k, _)) = entries.last() {
                start.clear();
                start.extend_from_slice(k);
                start.push(0);
            }
            if entries.len() < 1024 {
                break;
            }
        }
        Ok(rows)
    }
}

struct RefEval<'a, 'b> {
    exec: &'a ReferenceExecutor<'b>,
    params: ParamsRef<'a>,
    schema: &'a piql_core::plan::QuerySchema,
}

impl RefEval<'_, '_> {
    fn eval(&self, plan: &LogicalPlan) -> Result<Vec<Tuple>, ExecError> {
        match plan {
            LogicalPlan::Relation { rel } => {
                let relation = self.schema.relation(*rel);
                match &relation.source {
                    RelationSource::Table(tid) => {
                        // pad to global-field width: tuples in the reference
                        // evaluator always span the full field space
                        let rows = self.exec.scan_all(*tid)?;
                        Ok(rows
                            .into_iter()
                            .map(|r| self.widen(relation.first_field, r))
                            .collect())
                    }
                    RelationSource::ParamValues { param, .. } => {
                        let vals = self.params.collection(
                            param.index,
                            &param.name,
                            param.max_cardinality,
                        )?;
                        Ok(vals
                            .iter()
                            .map(|v| self.widen(relation.first_field, Tuple::new(vec![v.clone()])))
                            .collect())
                    }
                }
            }
            LogicalPlan::ParamValues { rel } => self.eval(&LogicalPlan::Relation { rel: *rel }),
            LogicalPlan::Selection { input, predicates } => {
                let rows = self.eval(input)?;
                let mut out = Vec::new();
                for r in rows {
                    if BoundPredicate::eval_all(predicates, &r, self.params)? {
                        out.push(r);
                    }
                }
                Ok(out)
            }
            LogicalPlan::Join { left, right, on } => {
                let lrows = self.eval(left)?;
                let rrows = self.eval(right)?;
                let mut out = Vec::new();
                for l in &lrows {
                    for r in &rrows {
                        let ok = on.iter().all(|(lf, rf)| {
                            let a = &l[*lf];
                            let b = &r[*rf];
                            !a.is_null()
                                && !b.is_null()
                                && a.total_cmp(b) == std::cmp::Ordering::Equal
                        });
                        if ok {
                            out.push(self.merge(l, r));
                        }
                    }
                }
                Ok(out)
            }
            LogicalPlan::Sort { input, keys } => {
                let mut rows = self.eval(input)?;
                let keys: Vec<(usize, piql_core::codec::key::Dir)> =
                    keys.iter().map(|(f, d)| (*f, *d)).collect();
                rows.sort_by(|a, b| compare_rows(a, b, &keys));
                Ok(rows)
            }
            LogicalPlan::Stop { input, stop } => {
                let mut rows = self.eval(input)?;
                // data-stops are annotations, not truncations
                if stop.kind == piql_core::plan::StopKind::Standard {
                    rows.truncate(stop.count as usize);
                }
                Ok(rows)
            }
            LogicalPlan::Project { input, items } => {
                let rows = self.eval(input)?;
                Ok(rows
                    .into_iter()
                    .map(|r| Tuple::new(items.iter().map(|(f, _)| r[*f].clone()).collect()))
                    .collect())
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let rows = self.eval(input)?;
                let phys: Vec<piql_core::plan::physical::PhysAggregate> = aggs
                    .iter()
                    .map(|a| piql_core::plan::physical::PhysAggregate {
                        func: a.func,
                        arg: a.arg,
                        alias: a.alias.clone(),
                    })
                    .collect();
                Ok(aggregate_rows(&Rows::from(rows), group_by, &phys)?.to_tuples())
            }
        }
    }

    /// Place a relation's row into the global field space, NULL elsewhere.
    fn widen(&self, first_field: usize, row: Tuple) -> Tuple {
        let width = self.schema.fields.len();
        let mut vals = vec![piql_core::value::Value::Null; width];
        for (i, v) in row.into_values().into_iter().enumerate() {
            vals[first_field + i] = v;
        }
        Tuple::new(vals)
    }

    /// Merge two widened rows (non-null fields win).
    fn merge(&self, l: &Tuple, r: &Tuple) -> Tuple {
        let vals = l
            .values()
            .iter()
            .zip(r.values())
            .map(|(a, b)| if a.is_null() { b.clone() } else { a.clone() })
            .collect();
        Tuple::new(vals)
    }
}

/// Decode a full-row tuple from a primary-index entry's value bytes.
fn decode_row(table: &TableDef, bytes: &[u8]) -> Result<Tuple, keys::KeyError> {
    let t = row_codec::decode_tuple(bytes)?;
    keys::check_arity(table, t.len())?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_core::value::{DataType, Value};

    /// A stored record decodes to the row it was stored from, and one
    /// with fewer values than its table has columns is refused.
    #[test]
    fn a_record_decodes_to_its_row_and_a_short_one_is_refused() {
        let t = TableDef::builder("thoughts")
            .column("owner", DataType::Varchar(32))
            .column("timestamp", DataType::Timestamp)
            .column("text", DataType::Varchar(140))
            .primary_key(&["owner", "timestamp"])
            .build();
        let row = Tuple::new(vec![
            Value::Varchar("amy".into()),
            Value::Timestamp(7),
            Value::Null,
        ]);
        let record = row_codec::encode_tuple(&row);
        assert_eq!(decode_row(&t, &record).unwrap(), row);
        let short = row_codec::encode_tuple(&Tuple::new(vec![Value::Int(1)]));
        assert!(decode_row(&t, &short).is_err());
    }
}
