//! The bound-derivation tree.
//!
//! A compiled plan proves its scale-independence operator by operator:
//! every remote operator carries a static bound, and every bound is
//! justified by a [`Provenance`]. This module re-renders that proof as an
//! explicit tree — one node per physical operator, annotated with the
//! operator's op-count bounds, the clause or declaration the bound rests
//! on, and (when a model snapshot is available) the operator's predicted
//! share of the plan's latency.

use piql_core::json::Json;
use piql_core::opt::Compiled;
use piql_core::plan::physical::{OpBounds, PhysicalPlan};
use piql_core::plan::Provenance;
use piql_predict::{ModelKey, ThetaAttribution};

/// One justified static limit.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundInfo {
    /// The bound's value (rows fetched / emitted, per probe for joins).
    pub count: u64,
    /// Machine-readable provenance tag (`Provenance::kind`).
    pub kind: String,
    /// Human rendering (`Provenance` display, as plan printers show it).
    pub provenance: String,
    /// The clause a developer would edit to change the bound.
    pub source_clause: String,
}

impl BoundInfo {
    fn from_provenance(count: u64, p: &Provenance) -> BoundInfo {
        BoundInfo {
            count,
            kind: p.kind().to_string(),
            provenance: p.to_string(),
            source_clause: p.source_clause(),
        }
    }
}

/// One operator model term's predicted contribution, attached to the node
/// it models.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTerm {
    /// The §6.1 key the term was predicted at (a deref round shows up as
    /// an extra `IndexFKJoin` term on its scan).
    pub key: ModelKey,
    pub mean_ms: f64,
    pub p99_ms: f64,
    /// Fraction of the plan's predicted mean latency, in `[0, 1]`.
    pub share: f64,
    /// Whether this is the plan's dominating term.
    pub dominant: bool,
}

impl CostTerm {
    fn from_attribution(a: &ThetaAttribution, dominant: bool) -> CostTerm {
        CostTerm {
            key: a.key,
            mean_ms: a.mean_ms,
            p99_ms: a.p99_ms,
            share: a.share,
            dominant,
        }
    }

    /// `IndexScan(αc=100, αj=1, β=160)` — how diagnostics name the term.
    pub fn describe(&self) -> String {
        let ModelKey {
            op,
            alpha_c,
            alpha_j,
            beta,
        } = self.key;
        format!("{}(αc={alpha_c}, αj={alpha_j}, β={beta})", op.name())
    }
}

/// One node of the derivation tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivationNode {
    /// Physical operator name (`IndexScan`, `LocalStop`, ...).
    pub operator: String,
    /// Resolved index / relation / key context.
    pub detail: String,
    /// Whether this operator issues key/value-store requests.
    pub remote: bool,
    /// Position in `remote_ops()` order (remote nodes only) — the join key
    /// to cost attributions.
    pub op_index: Option<usize>,
    /// The operator's static op-count bounds, as the plan states them.
    pub bounds: OpBounds,
    /// The node's justified static limit, when it has one.
    pub bound: Option<BoundInfo>,
    /// Cost-based plans only: a statistics estimate instead of a bound.
    pub estimate: Option<u64>,
    /// Latency model terms attached to this node (empty for local
    /// operators or when the model has no data).
    pub cost_terms: Vec<CostTerm>,
    /// Whether this node carries the plan's dominating cost term.
    pub dominant: bool,
    pub children: Vec<DerivationNode>,
}

impl DerivationNode {
    /// Depth-first walk, parents before children.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a DerivationNode)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// The node carrying the dominant cost term, if any.
    pub fn dominant_node(&self) -> Option<&DerivationNode> {
        let mut found = None;
        self.walk(&mut |n| {
            if n.dominant && found.is_none() {
                found = Some(n);
            }
        });
        found
    }

    /// `operator(detail)` — how diagnostics name the operator.
    pub fn describe(&self) -> String {
        if self.detail.is_empty() {
            self.operator.clone()
        } else {
            format!("{}({})", self.operator, self.detail)
        }
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("operator", Json::str(&self.operator)),
            ("detail", Json::str(&self.detail)),
            ("remote", Json::Bool(self.remote)),
        ];
        if let Some(idx) = self.op_index {
            fields.push(("op_index", Json::uint(idx)));
        }
        fields.push((
            "bounds",
            Json::obj([
                ("requests", Json::uint(self.bounds.requests)),
                ("rounds", Json::uint(self.bounds.rounds)),
                ("tuples", Json::uint(self.bounds.tuples)),
                ("bytes", Json::uint(self.bounds.bytes)),
            ]),
        ));
        if let Some(b) = &self.bound {
            fields.push((
                "bound",
                Json::obj([
                    ("count", Json::uint(b.count)),
                    ("kind", Json::str(&b.kind)),
                    ("provenance", Json::str(&b.provenance)),
                    ("source_clause", Json::str(&b.source_clause)),
                ]),
            ));
        }
        if let Some(est) = self.estimate {
            fields.push(("estimate", Json::uint(est)));
        }
        if !self.cost_terms.is_empty() {
            fields.push((
                "cost_terms",
                Json::Arr(
                    self.cost_terms
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("op", Json::str(t.key.op.name())),
                                ("alpha_c", Json::uint(t.key.alpha_c)),
                                ("alpha_j", Json::uint(t.key.alpha_j)),
                                ("beta", Json::uint(t.key.beta)),
                                ("mean_ms", ms(t.mean_ms)),
                                ("p99_ms", ms(t.p99_ms)),
                                ("share", ms(t.share)),
                                ("dominant", Json::Bool(t.dominant)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        fields.push(("dominant", Json::Bool(self.dominant)));
        if !self.children.is_empty() {
            fields.push((
                "children",
                Json::Arr(self.children.iter().map(|c| c.to_json()).collect()),
            ));
        }
        Json::obj(fields)
    }
}

/// A float rounded to 3 decimals so reports are stable across platforms.
pub(crate) fn ms(x: f64) -> Json {
    Json::Float((x * 1000.0).round() / 1000.0)
}

/// Build the derivation tree for a compiled plan. `attributions` comes from
/// [`piql_predict::SloPredictor::attribute`]; pass `&[]` to build a tree
/// without cost annotations.
pub fn derivation_tree(compiled: &Compiled, attributions: &[ThetaAttribution]) -> DerivationNode {
    let dominant_index: Option<usize> = attributions
        .iter()
        .max_by(|a, b| a.mean_ms.total_cmp(&b.mean_ms))
        .filter(|a| a.mean_ms > 0.0)
        .map(|a| a.op_index);
    let mut next_remote = 0usize;
    build(
        compiled,
        &compiled.physical,
        attributions,
        dominant_index,
        &mut next_remote,
    )
}

fn build(
    compiled: &Compiled,
    plan: &PhysicalPlan,
    attributions: &[ThetaAttribution],
    dominant_index: Option<usize>,
    next_remote: &mut usize,
) -> DerivationNode {
    // children first: remote_ops() numbers operators bottom-up
    let children: Vec<DerivationNode> = plan
        .child()
        .map(|c| {
            vec![build(
                compiled,
                c,
                attributions,
                dominant_index,
                next_remote,
            )]
        })
        .unwrap_or_default();

    let schema = &compiled.schema;
    let bounds = plan.bounds();

    let (operator, detail) = match plan {
        PhysicalPlan::ParamSource { param, .. } => ("ParamSource", format!("{param}")),
        PhysicalPlan::IndexScan { spec, .. } => {
            let rel = schema.relation(spec.index.rel);
            ("IndexScan", spec.index.display_name(&rel.binding))
        }
        PhysicalPlan::IndexFKJoin { rel, .. } => {
            ("IndexFKJoin", schema.relation(*rel).binding.clone())
        }
        PhysicalPlan::SortedIndexJoin { rel, spec, .. } => {
            let r = schema.relation(*rel);
            let index = spec.index.display_name(&r.binding);
            ("SortedIndexJoin", format!("{}, index={index}", r.binding))
        }
        PhysicalPlan::LocalSelection { predicates, .. } => (
            "LocalSelection",
            format!("{} predicate(s)", predicates.len()),
        ),
        PhysicalPlan::LocalSort { keys, .. } => ("LocalSort", format!("{} key(s)", keys.len())),
        PhysicalPlan::LocalStop { .. } => ("LocalStop", String::new()),
        PhysicalPlan::LocalProject { columns, .. } => {
            ("LocalProject", format!("{} column(s)", columns.len()))
        }
        PhysicalPlan::LocalAggregate { aggs, .. } => {
            ("LocalAggregate", format!("{} aggregate(s)", aggs.len()))
        }
    };
    // the bound the plan justifies for this operator, read from the plan
    // itself; a statistics estimate is no bound
    let remote = plan.theta().is_some();
    let (bound, estimate) = match plan.justified_limit() {
        Some((count, Provenance::Estimate)) => (None, Some(count)),
        Some((count, p)) => (Some(BoundInfo::from_provenance(count, &p)), None),
        None => (None, None),
    };

    let op_index = if remote {
        let idx = *next_remote;
        *next_remote += 1;
        Some(idx)
    } else {
        None
    };
    let cost_terms: Vec<CostTerm> = match op_index {
        Some(idx) => attributions
            .iter()
            .filter(|a| a.op_index == idx)
            .map(|a| {
                CostTerm::from_attribution(
                    a,
                    dominant_index == Some(idx) && {
                        // within the node, only the single largest term is dominant
                        let max_mean = attributions
                            .iter()
                            .filter(|x| x.op_index == idx)
                            .map(|x| x.mean_ms)
                            .fold(0.0f64, f64::max);
                        a.mean_ms == max_mean && max_mean > 0.0
                    },
                )
            })
            .collect(),
        None => Vec::new(),
    };
    let dominant = op_index.is_some() && op_index == dominant_index;

    DerivationNode {
        operator: operator.to_string(),
        detail,
        remote,
        op_index,
        bounds,
        bound,
        estimate,
        cost_terms,
        dominant,
        children,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piql_core::catalog::{Catalog, TableDef};
    use piql_core::opt::Optimizer;
    use piql_core::parser::parse_select;
    use piql_core::value::DataType;

    fn thoughtstream() -> Compiled {
        let mut cat = Catalog::new();
        cat.create_table(
            TableDef::builder("subs")
                .column("owner", DataType::Varchar(32))
                .column("target", DataType::Varchar(32))
                .primary_key(&["owner", "target"])
                .cardinality_limit(100, &["owner"])
                .build(),
        )
        .unwrap();
        cat.create_table(
            TableDef::builder("thoughts")
                .column("owner", DataType::Varchar(32))
                .column("ts", DataType::Timestamp)
                .primary_key(&["owner", "ts"])
                .build(),
        )
        .unwrap();
        Optimizer::scale_independent()
            .compile(
                &cat,
                &parse_select(
                    "SELECT thoughts.* FROM subs s JOIN thoughts \
                     WHERE thoughts.owner = s.target AND s.owner = <u> \
                     ORDER BY thoughts.ts DESC LIMIT 10",
                )
                .unwrap(),
            )
            .unwrap()
    }

    #[test]
    fn tree_indexes_remote_ops_bottom_up() {
        let compiled = thoughtstream();
        let tree = derivation_tree(&compiled, &[]);
        let mut remote = Vec::new();
        tree.walk(&mut |n| {
            if let Some(i) = n.op_index {
                remote.push((i, n.operator.clone()));
            }
        });
        remote.sort();
        assert_eq!(remote.len(), compiled.physical.remote_ops().len());
        assert_eq!(remote[0].1, "IndexScan", "{remote:?}");
        // every remote node's bound names its justification
        tree.walk(&mut |n| {
            if n.operator == "IndexScan" {
                let b = n.bound.as_ref().expect("scan is bounded");
                assert_eq!(b.kind, "cardinality");
                assert!(b.source_clause.contains("CARDINALITY LIMIT 100"));
            }
        });
    }

    #[test]
    fn json_shape_is_stable() {
        let compiled = thoughtstream();
        let json = derivation_tree(&compiled, &[]).to_json().to_string();
        assert!(json.contains(r#""operator":"#), "{json}");
        assert!(json.contains(r#""bound":{"count":"#), "{json}");
        assert!(json.contains(r#""source_clause":"#), "{json}");
    }
}
